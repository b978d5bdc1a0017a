//! The compute-instance query engine.
//!
//! A [`ComputeNode`] is one compute-pool instance: it caches the
//! meta-HNSW and the layout directory, owns a queue pair to the memory
//! pool and an LRU cluster cache, and answers batched top-k queries. The
//! [`SearchMode`] selects between full d-HNSW and the paper's two
//! baselines, which differ **only** in how cluster bytes cross the
//! network — one bit of code ([`SearchMode::reuses`]) and one price (the
//! doorbell limit of the node's queue pair), as this table says:
//!
//! | mode | meta cache | `reuses`: query-aware dedup + LRU cache | doorbell limit |
//! |------|-----------|------------------------------------------|----------------|
//! | [`SearchMode::Full`]       | ✓ | ✓ | the store's |
//! | [`SearchMode::NoDoorbell`] | ✓ | ✓ | 1 (one round trip per cluster) |
//! | [`SearchMode::Naive`]      | ✓ | ✗ (per-query cluster fetches) | 1 |
//!
//! Every post is a doorbell; at limit 1 each of its work requests is a
//! round trip of its own, which is what the paper's baselines pay. A
//! baseline node is a NIC without doorbell batching for everything it
//! posts, its writes included.
//!
//! Every mode runs the same batch body (`query`): route → plan → fetch →
//! materialize → probe → rerank → merge → report. Every cluster fetch —
//! a batch's load round, the naive per-query reads — goes through the
//! one loader (`fetch`), which owns the post primitive,
//! the `[version, span, version]` bracket, the SQ8 overflow follow-up
//! and the retry/backoff/degrade state machine.
//!
//! Mutations (`write`) go through the shared overflow areas:
//! [`ComputeNode::insert`] (three atomics and a write in two doorbells,
//! the last publishing the partition's version), [`ComputeNode::insert_batch`]
//! (the same two doorbells for the whole batch), and
//! [`ComputeNode::delete`] (tombstone records).
//! Reads validate the per-partition version slots around each cluster
//! fetch and retry (or degrade, when allowed) when a read cannot
//! stabilize.

mod fetch;
mod query;
mod write;

use std::sync::Arc;

use parking_lot::Mutex;
use rdma_sim::{QueuePair, StatsSnapshot, READ_CAUSES};

use crate::cache::{CacheStats, ClusterCache};
use crate::config::QuantizeMode;
use crate::health::heatmap::ClusterHeatmap;
use crate::layout::{Directory, DIRECTORY_PEEK_BYTES};
use crate::meta::MetaIndex;
use crate::store::VectorStore;
use crate::telemetry::{metrics, series, Counter, Gauge, Histogram, Telemetry};
use crate::{BatchReport, DHnswConfig, Phase, Result};

pub(crate) use fetch::Reader;

/// Which of the paper's three evaluated schemes this compute node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchMode {
    /// Full d-HNSW: query-aware batched loading + LRU cache + doorbell
    /// batching.
    #[default]
    Full,
    /// "d-HNSW (w./o. doorbell)": batched loading and caching, but each
    /// discontiguous cluster costs its own network round trip — `Full`
    /// on a queue pair whose doorbell limit is 1.
    NoDoorbell,
    /// "Naive d-HNSW": every query fetches each of its clusters with an
    /// individual `RDMA_READ`; no reuse within or across batches.
    Naive,
}

impl SearchMode {
    /// A short stable name, used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            SearchMode::Full => "d-HNSW",
            SearchMode::NoDoorbell => "d-HNSW (w/o doorbell)",
            SearchMode::Naive => "Naive d-HNSW",
        }
    }

    /// The value of the `mode` metric label: lowercase, no punctuation.
    pub fn label(self) -> &'static str {
        match self {
            SearchMode::Full => "full",
            SearchMode::NoDoorbell => "no_doorbell",
            SearchMode::Naive => "naive",
        }
    }

    /// Whether a cluster is fetched at most once per batch, in the
    /// batch's one load round, and kept: query-aware dedup, the LRU cache
    /// with its version brackets and pin verifies. Not under `Naive`,
    /// where every `(query, route position)` is its own unbracketed load
    /// that nothing outlives — there is no cached copy a version could
    /// invalidate.
    pub(crate) fn reuses(self) -> bool {
        self != SearchMode::Naive
    }
}

impl std::fmt::Display for SearchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-call query parameters.
///
/// `k` and `ef` mirror [`ComputeNode::query_batch`]'s positional
/// arguments; `fanout` overrides the configured partitions-per-query
/// (`b`) for this call only — useful for recall/bandwidth sweeps without
/// rebuilding the store.
///
/// # Example
///
/// ```rust
/// use dhnsw::QueryOptions;
///
/// let opts = QueryOptions::new(10, 48).with_fanout(8);
/// assert_eq!(opts.fanout, Some(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Results per query.
    pub k: usize,
    /// Sub-HNSW beam width (`efSearch`). A full-precision cluster small
    /// enough for [`crate::cluster::scans`] at this `ef` is scanned whole
    /// instead of walked: its probe is exact and a larger `ef` buys nothing
    /// there. Above that, and never on the SQ8 wire, `ef` is the walk's
    /// beam.
    pub ef: usize,
    /// Partitions probed per query; `None` uses the store configuration.
    pub fanout: Option<usize>,
}

impl QueryOptions {
    /// Options with the store-configured fan-out.
    pub fn new(k: usize, ef: usize) -> Self {
        QueryOptions {
            k,
            ef,
            fanout: None,
        }
    }

    /// Overrides the per-query partition fan-out.
    pub fn with_fanout(mut self, b: usize) -> Self {
        self.fanout = Some(b);
        self
    }
}

/// Pre-resolved metric handles for one compute node. Resolving happens
/// once at connect; recording on the query path is pure atomics.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    pub(crate) queries: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) latency_us: Arc<Histogram>,
    pub(crate) stage_us: [Arc<Counter>; 4],
    pub(crate) clusters_loaded: Arc<Counter>,
    pub(crate) cluster_cache_hits: Arc<Counter>,
    pub(crate) raw_cluster_demand: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    pub(crate) cache_occupancy: Arc<Gauge>,
    pub(crate) cache_resident_bytes: Arc<Gauge>,
    pub(crate) rdma_round_trips: Arc<Counter>,
    pub(crate) rdma_work_requests: Arc<Counter>,
    pub(crate) rdma_doorbell_batches: Arc<Counter>,
    pub(crate) rdma_read_bytes_by_cause: [Arc<Counter>; READ_CAUSES],
    pub(crate) rdma_read_trips_by_cause: [Arc<Counter>; READ_CAUSES],
    pub(crate) rdma_bytes_written: Arc<Counter>,
    pub(crate) rdma_atomics: Arc<Counter>,
    pub(crate) rdma_faults: Arc<Counter>,
    pub(crate) doorbell_batch_size: Arc<Histogram>,
    pub(crate) degraded_queries: Arc<Counter>,
    pub(crate) read_retries: Arc<Counter>,
    pub(crate) inserts: Arc<Counter>,
    pub(crate) insert_overflow: Arc<Counter>,
    pub(crate) deletes: Arc<Counter>,
}

impl EngineMetrics {
    fn new(t: &Telemetry, mode: SearchMode) -> Self {
        let m: &[(&str, &str)] = &[("mode", mode.label())];
        let stage = |p: Phase| metrics::STAGE_US.counter(t, &[m[0], ("stage", p.stage())]);
        EngineMetrics {
            queries: metrics::QUERIES.counter(t, m),
            batches: metrics::QUERY_BATCHES.counter(t, m),
            latency_us: metrics::QUERY_LATENCY_US.histogram(t, m),
            stage_us: Phase::ALL.map(stage),
            clusters_loaded: metrics::CLUSTERS_LOADED.counter(t, m),
            cluster_cache_hits: metrics::CLUSTER_CACHE_HITS.counter(t, m),
            raw_cluster_demand: metrics::RAW_CLUSTER_DEMAND.counter(t, m),
            cache_evictions: metrics::CACHE_EVICTIONS.counter(t, &[]),
            cache_occupancy: metrics::CACHE_OCCUPANCY.gauge(t, &[]),
            cache_resident_bytes: metrics::CACHE_RESIDENT_BYTES.gauge(t, &[]),
            rdma_round_trips: metrics::RDMA_ROUND_TRIPS.counter(t, &[]),
            rdma_work_requests: metrics::RDMA_WORK_REQUESTS.counter(t, &[]),
            rdma_doorbell_batches: metrics::RDMA_DOORBELL_BATCHES.counter(t, &[]),
            rdma_read_bytes_by_cause: metrics::RDMA_READ_BYTES_BY_CAUSE.counters_by_cause(t),
            rdma_read_trips_by_cause: metrics::RDMA_READ_TRIPS_BY_CAUSE.counters_by_cause(t),
            rdma_bytes_written: metrics::RDMA_BYTES_WRITTEN.counter(t, &[]),
            rdma_atomics: metrics::RDMA_ATOMICS.counter(t, &[]),
            rdma_faults: metrics::RDMA_FAULTS.counter(t, &[]),
            doorbell_batch_size: metrics::DOORBELL_BATCH_SIZE.histogram(t, &[]),
            degraded_queries: metrics::DEGRADED_QUERIES.counter(t, m),
            read_retries: metrics::READ_RETRIES.counter(t, m),
            inserts: metrics::INSERTS.counter(t, &[]),
            insert_overflow: metrics::INSERT_OVERFLOW.counter(t, &[]),
            deletes: metrics::DELETES.counter(t, &[]),
        }
    }

    /// Adds one finished batch to the query-path families. The latency
    /// histogram takes the record's own sample, the one the exemplar
    /// store files the batch under.
    pub(crate) fn observe(&self, report: &BatchReport) {
        self.queries.add(report.queries as u64);
        self.batches.inc();
        self.latency_us
            .observe_n(report.latency_sample_us(), report.queries.max(1) as u64);
        for (counter, p) in self.stage_us.iter().zip(Phase::ALL) {
            counter.add(p.of(&report.breakdown) as u64);
        }
        self.clusters_loaded.add(report.clusters_loaded as u64);
        self.cluster_cache_hits.add(report.cache_hits as u64);
        self.raw_cluster_demand
            .add(report.raw_cluster_demand as u64);
        self.degraded_queries.add(report.degraded_queries as u64);
        self.read_retries.add(report.read_retries);
    }

    /// Reads the query-path families a [`series::Sample`] holds, at
    /// `t_us`: this node's mode's, and the substrate's shared ones.
    pub(crate) fn sample(&self, t_us: u64) -> series::Sample {
        series::Sample {
            t_us,
            queries: self.queries.get(),
            degraded_queries: self.degraded_queries.get(),
            cause_bytes: std::array::from_fn(|i| self.rdma_read_bytes_by_cause[i].get()),
            read_retries: self.read_retries.get(),
            evictions: self.cache_evictions.get(),
            cache_hits: self.cluster_cache_hits.get(),
            cache_misses: self.clusters_loaded.get(),
            latency: self.latency_us.snapshot(),
        }
    }
}

/// Last-flushed substrate counters, for converting cumulative snapshots
/// into telemetry deltas without double counting.
#[derive(Debug, Default)]
struct FlushState {
    rdma: StatsSnapshot,
    cache: CacheStats,
}

/// One compute-pool instance.
///
/// See the crate docs for an end-to-end example. Thread-safety: a
/// `ComputeNode` may be shared across threads; the cluster cache is
/// internally locked and the queue pair is thread-safe.
#[derive(Debug)]
pub struct ComputeNode {
    qp: QueuePair,
    pub(crate) rkey: u32,
    meta: Arc<MetaIndex>,
    directory: Directory,
    pub(crate) cache: Mutex<ClusterCache>,
    config: DHnswConfig,
    mode: SearchMode,
    telemetry: Arc<Telemetry>,
    pub(crate) metrics: EngineMetrics,
    heatmap: Arc<ClusterHeatmap>,
    flushed: Mutex<FlushState>,
    // The wire format in force: SQ8 when the directory carries
    // compressed blobs *and* this node's config asks for them (naive mode
    // always reads full precision — it is the paper's uncompressed
    // baseline).
    wire: QuantizeMode,
    // Exact full-precision vectors fetched for rerank, keyed by
    // (partition, base row). Base vectors are immutable, so entries
    // never go stale.
    rerank_cache: Mutex<query::ExactRows>,
}

impl ComputeNode {
    /// Connects to the store: opens a queue pair and fetches the layout
    /// directory from the head of the remote region (one `RDMA_READ`),
    /// exactly as §3.2 describes compute instances caching the offsets.
    /// A baseline node's queue pair is priced at doorbell limit 1. The
    /// queue pair carries no trace hook: a traced batch's reader writes
    /// the spans of its posts itself ([`fetch::Reader`]).
    pub(crate) fn connect(
        store: &VectorStore,
        mode: SearchMode,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self> {
        let config = store.config().clone().with_env_overrides()?;
        let model = match mode {
            SearchMode::Full => config.network(),
            SearchMode::NoDoorbell | SearchMode::Naive => {
                config.network().with_doorbell_limit(1)?
            }
        };
        let qp = QueuePair::connect(store.memory_node(), model);
        let rkey = store.region().rkey();
        // Peek the header first: a v3 (quantized) store carries an SQ
        // span table whose size the connect path cannot know up front.
        let head = qp.read(rkey, 0, DIRECTORY_PEEK_BYTES as u64)?;
        let dir_len = Directory::peek_size(&head)? as u64;
        let dir_bytes = qp.read(rkey, 0, dir_len)?;
        let directory = Directory::from_bytes(&dir_bytes)?;
        let capacity = config.cache_capacity(directory.partitions());
        let metrics = EngineMetrics::new(&telemetry, mode);
        // The directory fetch above already moved bytes; start the flush
        // baseline there so connect traffic is not charged to queries.
        let flushed = Mutex::new(FlushState {
            rdma: qp.stats().snapshot(),
            cache: CacheStats::default(),
        });
        let heatmap = Arc::new(ClusterHeatmap::new(directory.partitions()));
        let wire = if directory.has_sq_spans() && mode != SearchMode::Naive {
            config.quantize_mode()
        } else {
            QuantizeMode::Off
        };
        Ok(ComputeNode {
            qp,
            rkey,
            meta: Arc::clone(store.meta()),
            directory,
            cache: Mutex::new(ClusterCache::new(capacity)),
            config,
            mode,
            telemetry,
            metrics,
            heatmap,
            flushed,
            wire,
            rerank_cache: Mutex::default(),
        })
    }

    /// Whether this node fetches clusters in the compressed SQ8 wire
    /// format (directory is layout v3 *and* quantization is enabled for
    /// this node; naive mode always reads full precision).
    pub fn is_quantized(&self) -> bool {
        self.wire == QuantizeMode::Sq8
    }

    /// The search mode this node runs.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// The configuration in force.
    pub fn config(&self) -> &DHnswConfig {
        &self.config
    }

    /// The cached meta index.
    pub fn meta(&self) -> &MetaIndex {
        &self.meta
    }

    /// The cached layout directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The queue pair (for inspecting transfer statistics and virtual
    /// time).
    pub fn queue_pair(&self) -> &QueuePair {
        &self.qp
    }

    /// Lifetime cluster-cache counters since connect.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// The telemetry hub this node records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The per-cluster access heatmap this node samples into.
    pub fn heatmap(&self) -> &ClusterHeatmap {
        &self.heatmap
    }

    /// Clears the clock and transfer counters — used between benchmark
    /// phases. The telemetry flush baseline is rewound with them so
    /// global counters neither double-count nor go backwards.
    pub fn reset_measurements(&self) {
        let mut flushed = self.flushed.lock();
        self.qp.reset_measurements();
        flushed.rdma = StatsSnapshot::default();
    }

    /// Converts cumulative substrate/cache counters into deltas since
    /// the last flush and adds them to the telemetry registry. Pure
    /// atomic reads and adds — no verbs, no allocation.
    fn flush_telemetry(&self) {
        // The flushed lock is taken first and reads happen under it, so
        // concurrent flushes see monotonic counters and deltas cannot
        // underflow.
        let mut flushed = self.flushed.lock();
        let (cache_now, cache_len, cache_bytes) = {
            let c = self.cache.lock();
            (c.stats(), c.len(), c.resident_bytes())
        };
        let rdma_now = self.qp.stats().snapshot();
        let rdma = rdma_now - flushed.rdma;
        let m = &self.metrics;
        m.rdma_round_trips.add(rdma.round_trips);
        m.rdma_work_requests.add(rdma.work_requests);
        m.rdma_doorbell_batches.add(rdma.doorbell_batches);
        for (i, c) in m.rdma_read_bytes_by_cause.iter().enumerate() {
            c.add(rdma.cause_bytes[i]);
        }
        for (i, c) in m.rdma_read_trips_by_cause.iter().enumerate() {
            c.add(rdma.cause_trips[i]);
        }
        m.rdma_bytes_written.add(rdma.bytes_written);
        m.rdma_atomics.add(rdma.atomics);
        m.rdma_faults.add(rdma.faults);
        for (i, &count) in rdma.doorbell_size_buckets.iter().enumerate() {
            // Merge pre-bucketed counts at each bucket's upper bound; the
            // telemetry histogram's log-2 buckets line up with these.
            m.doorbell_batch_size.observe_n(1u64 << i, count);
        }
        m.cache_evictions
            .add(cache_now.evictions - flushed.cache.evictions);
        m.cache_occupancy.set(cache_len as u64);
        m.cache_resident_bytes.set(cache_bytes as u64);
        flushed.rdma = rdma_now;
        flushed.cache = cache_now;
    }

    /// Reads this node's query-path instruments at `now_us`
    /// (caller-supplied — synthetic in tests, `doctor` and benchmarks,
    /// wall-clock only in the serving plane's sampler thread). Substrate
    /// and cache counters are normally flushed to the registry on the
    /// query path, so a read *between* batches would see stale values:
    /// this flushes first. Two samples make a window,
    /// [`series::SeriesPoint::between`].
    pub fn sample(&self, now_us: u64) -> series::Sample {
        self.flush_telemetry();
        self.metrics.sample(now_us)
    }

    /// Ticks the hub's [`crate::telemetry::series::SeriesRecorder`] with
    /// [`Self::sample`] at `now_us`, returning the derived point.
    pub fn sample_series(&self, now_us: u64) -> Option<series::SeriesPoint> {
        self.telemetry
            .series()
            .tick(&self.telemetry, self.sample(now_us))
    }

    /// Empties the LRU cluster cache (cold-start benchmarks).
    pub fn drop_cache(&self) {
        self.cache.lock().clear();
    }
}

/// Runs `f` over `items` across `threads` workers, the core's one CPU
/// fan-out (the paper's per-instance OpenMP pool): the calling thread
/// claims the first item before `threads − 1` helpers start, and every
/// worker then claims the next unclaimed item, one at a time, so a long
/// item holds up only its own worker. Outputs keep input order and the
/// error returned is the lowest-placed item's. One thread, one item or
/// none run inline.
pub(crate) fn run_indexed<I, T, F>(
    items: impl IntoIterator<Item = I>,
    threads: usize,
    f: F,
) -> Result<Vec<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T> + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard dies with this closure's call, before `f` runs: held
    // across `f`, it would serialise the workers.
    let claim = || queue.lock().next();
    let work = |mut next: Option<(usize, I)>| {
        let mut done = Vec::new();
        while let Some((i, item)) = next {
            done.push((i, f(item)));
            next = claim();
        }
        done
    };
    let first = claim();
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(|| work(claim()))).collect();
        let mut done = work(first);
        for helper in helpers {
            done.extend(helper.join().expect("a run_indexed helper panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests;
