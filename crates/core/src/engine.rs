//! The compute-instance query engine.
//!
//! A [`ComputeNode`] is one compute-pool instance: it caches the
//! meta-HNSW and the layout directory, owns a queue pair to the memory
//! pool and an LRU cluster cache, and answers batched top-k queries. The
//! [`SearchMode`] selects between full d-HNSW and the paper's two
//! baselines, which differ **only** in how cluster bytes cross the
//! network:
//!
//! | mode | meta cache | query-aware dedup | LRU cache | doorbell |
//! |------|-----------|-------------------|-----------|----------|
//! | [`SearchMode::Full`]       | ✓ | ✓ | ✓ | ✓ |
//! | [`SearchMode::NoDoorbell`] | ✓ | ✓ | ✓ | ✗ (one round trip per cluster) |
//! | [`SearchMode::Naive`]      | ✓ | ✗ | ✗ | ✗ (per-query cluster fetches) |
//!
//! Mutations go through the shared overflow areas: [`ComputeNode::insert`]
//! (four one-sided verbs, the last publishing the partition's version),
//! [`ComputeNode::insert_batch`] (doorbell-batched), and
//! [`ComputeNode::delete`] (tombstone records). Reads validate the
//! per-partition version slots around each cluster fetch and retry (or
//! degrade, when allowed) when a read cannot stabilize.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hnsw::{SearchScratch, SearchStats};
use parking_lot::Mutex;
use rdma_sim::{QueuePair, ReadCause, StatsSnapshot, READ_CAUSES};
use vecsim::{Dataset, Neighbor, TopK};

use crate::breakdown::{BatchReport, CostLedger};
use crate::cache::{CacheStats, ClusterCache};
use crate::cluster::{LoadedCluster, OverflowRecord};
use crate::config::QuantizeMode;
use crate::health::heatmap::ClusterHeatmap;
use crate::health::report::{
    CacheHealth, GroupHealth, HealthReport, LatencyHealth, LayoutSummary, ReliabilityHealth,
    TailHealth,
};
use crate::health::skew::skew_of;
use crate::layout::{Directory, DIRECTORY_PEEK_BYTES, ID_COUNTER_OFFSET};
use crate::loader::{plan_batch, read_requests_tagged, stage_loads};
use crate::meta::MetaIndex;
use crate::store::VectorStore;
use crate::telemetry::exemplar::TailRecord;
use crate::telemetry::span::{ArgValue, BatchTrace, QpSpanSink, SpanId};
use crate::telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, QueryTrace, Telemetry};
use crate::{DHnswConfig, Error, Result};

/// `(partition, version-at-load, raw span bytes)` triples that passed a
/// load stage's optimistic version check. In SQ8 mode the span bytes are
/// the compressed blob, optionally followed by the group's raw overflow
/// area (present exactly when the partition's version was nonzero).
type StableLoads = Vec<(u32, u64, Vec<u8>)>;

/// One quantized-search candidate, carrying enough addressing to rerank
/// it with an exact full-precision read.
#[derive(Debug, Clone, Copy)]
struct SqCand {
    id: u32,
    dist: f32,
    partition: u32,
    /// Base row inside the uncompressed cluster blob; `None` means the
    /// distance is already exact (overflow insert or full-precision
    /// fallback).
    local: Option<u32>,
    /// Worst-case quantization error of `dist` (zero when exact).
    err: f32,
}

/// Entries the node-level exact-vector cache may hold before it is
/// cleared wholesale; bounds rerank memory at ~`cap × dim × 4` bytes.
const RERANK_CACHE_CAP: usize = 8_192;

/// Span-argument keys for per-cause byte counts, indexed by
/// [`ReadCause::index`]. Span arg keys must be `'static`, so the
/// prefix is baked in here instead of formatted at runtime.
const CAUSE_BYTE_KEYS: [&str; READ_CAUSES] = [
    "bytes_stage_load",
    "bytes_prefetch",
    "bytes_version_check",
    "bytes_retry",
    "bytes_health_probe",
    "bytes_overflow_scan",
    "bytes_naive",
    "bytes_rerank",
    "bytes_other",
];

/// Which of the paper's three evaluated schemes this compute node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchMode {
    /// Full d-HNSW: query-aware batched loading + LRU cache + doorbell
    /// batching.
    #[default]
    Full,
    /// "d-HNSW (w./o. doorbell)": batched loading and caching, but each
    /// discontiguous cluster costs its own network round trip.
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
    /// Sub-HNSW beam width (`efSearch`).
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
struct EngineMetrics {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    latency_us: Arc<Histogram>,
    stage_meta_us: Arc<Counter>,
    stage_network_us: Arc<Counter>,
    stage_sub_us: Arc<Counter>,
    stage_materialize_us: Arc<Counter>,
    pipeline_hidden_us: Arc<Counter>,
    prefetch_rounds: Arc<Counter>,
    prefetch_clusters: Arc<Counter>,
    prefetch_bytes: Arc<Counter>,
    clusters_loaded: Arc<Counter>,
    cluster_cache_hits: Arc<Counter>,
    raw_cluster_demand: Arc<Counter>,
    transfers_saved: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_occupancy: Arc<Gauge>,
    cache_resident_bytes: Arc<Gauge>,
    rdma_round_trips: Arc<Counter>,
    rdma_work_requests: Arc<Counter>,
    rdma_doorbell_batches: Arc<Counter>,
    rdma_bytes_read: Arc<Counter>,
    rdma_read_bytes_by_cause: [Arc<Counter>; READ_CAUSES],
    rdma_read_trips_by_cause: [Arc<Counter>; READ_CAUSES],
    rdma_bytes_written: Arc<Counter>,
    rdma_atomics: Arc<Counter>,
    rdma_faults: Arc<Counter>,
    doorbell_batch_size: Arc<Histogram>,
    degraded_queries: Arc<Counter>,
    read_retries: Arc<Counter>,
    inserts: Arc<Counter>,
    insert_overflow: Arc<Counter>,
    deletes: Arc<Counter>,
    tail_exemplar_occupancy: Arc<Gauge>,
    tail_profile_paths: Arc<Gauge>,
    tail_exemplars_recorded: Arc<Counter>,
    tail_exemplars_dropped: Arc<Counter>,
}

impl EngineMetrics {
    fn new(t: &Telemetry, mode: SearchMode) -> Self {
        let m: &[(&str, &str)] = &[("mode", mode.label())];
        EngineMetrics {
            queries: t.counter("dhnsw_queries_total", "Queries answered", m),
            batches: t.counter("dhnsw_query_batches_total", "Query batches answered", m),
            latency_us: t.histogram(
                "dhnsw_query_latency_us",
                "Per-query latency in microseconds (CPU wall + exposed network stall, batch time / batch size)",
                m,
            ),
            stage_meta_us: t.counter(
                "dhnsw_stage_us_total",
                "Cumulative stage time in microseconds",
                &[("mode", mode.label()), ("stage", "meta_hnsw")],
            ),
            stage_network_us: t.counter(
                "dhnsw_stage_us_total",
                "Cumulative stage time in microseconds",
                &[("mode", mode.label()), ("stage", "network")],
            ),
            stage_sub_us: t.counter(
                "dhnsw_stage_us_total",
                "Cumulative stage time in microseconds",
                &[("mode", mode.label()), ("stage", "sub_hnsw")],
            ),
            stage_materialize_us: t.counter(
                "dhnsw_stage_us_total",
                "Cumulative stage time in microseconds",
                &[("mode", mode.label()), ("stage", "materialize")],
            ),
            pipeline_hidden_us: t.counter(
                "dhnsw_pipeline_hidden_us_total",
                "Virtual network time hidden behind compute by micro-batch pipelining",
                m,
            ),
            prefetch_rounds: t.counter(
                "dhnsw_prefetch_rounds_total",
                "Between-batch heatmap prefetch rounds that loaded at least one cluster",
                m,
            ),
            prefetch_clusters: t.counter(
                "dhnsw_prefetch_clusters_total",
                "Clusters warmed into the cache by the heatmap prefetcher",
                m,
            ),
            prefetch_bytes: t.counter(
                "dhnsw_prefetch_bytes_total",
                "Bytes read from remote memory by the heatmap prefetcher",
                m,
            ),
            clusters_loaded: t.counter(
                "dhnsw_clusters_loaded_total",
                "Clusters fetched from remote memory",
                m,
            ),
            cluster_cache_hits: t.counter(
                "dhnsw_cluster_cache_hits_total",
                "Cluster loads avoided by cache residency at plan time",
                m,
            ),
            raw_cluster_demand: t.counter(
                "dhnsw_raw_cluster_demand_total",
                "Cluster demand before query-aware dedup (queries x fanout)",
                m,
            ),
            transfers_saved: t.counter(
                "dhnsw_loader_transfers_saved_total",
                "Cluster transfers avoided by dedup and cache reuse",
                m,
            ),
            cache_hits: t.counter("dhnsw_cache_hits_total", "Cluster cache lookup hits", &[]),
            cache_misses: t.counter(
                "dhnsw_cache_misses_total",
                "Cluster cache lookup misses",
                &[],
            ),
            cache_evictions: t.counter(
                "dhnsw_cache_evictions_total",
                "Clusters evicted by LRU pressure",
                &[],
            ),
            cache_occupancy: t.gauge(
                "dhnsw_cache_occupancy_clusters",
                "Clusters resident in the most recently active node's cache",
                &[],
            ),
            cache_resident_bytes: t.gauge(
                "dhnsw_cache_resident_bytes",
                "Approximate bytes resident in the most recently active node's cache",
                &[],
            ),
            rdma_round_trips: t.counter(
                "dhnsw_rdma_round_trips_total",
                "Network round trips issued",
                &[],
            ),
            rdma_work_requests: t.counter(
                "dhnsw_rdma_work_requests_total",
                "RDMA work requests posted",
                &[],
            ),
            rdma_doorbell_batches: t.counter(
                "dhnsw_rdma_doorbell_batches_total",
                "Doorbell batches submitted",
                &[],
            ),
            rdma_bytes_read: t.counter(
                "dhnsw_rdma_bytes_read_total",
                "Bytes read from remote memory",
                &[],
            ),
            rdma_read_bytes_by_cause: std::array::from_fn(|i| {
                t.counter(
                    "dhnsw_rdma_read_bytes_by_cause_total",
                    "Bytes read from remote memory, by read cause; sums to dhnsw_rdma_bytes_read_total",
                    &[("cause", ReadCause::ALL[i].as_str())],
                )
            }),
            rdma_read_trips_by_cause: std::array::from_fn(|i| {
                t.counter(
                    "dhnsw_rdma_read_round_trips_by_cause_total",
                    "Read round trips by dominant-bytes cause (write/atomic trips carry no cause)",
                    &[("cause", ReadCause::ALL[i].as_str())],
                )
            }),
            rdma_bytes_written: t.counter(
                "dhnsw_rdma_bytes_written_total",
                "Bytes written to remote memory",
                &[],
            ),
            rdma_atomics: t.counter(
                "dhnsw_rdma_atomics_total",
                "Atomic verbs (CAS/FAA) executed",
                &[],
            ),
            rdma_faults: t.counter(
                "dhnsw_rdma_faults_total",
                "Faulted (dropped and retransmitted) verb attempts",
                &[],
            ),
            doorbell_batch_size: t.histogram(
                "dhnsw_doorbell_batch_size",
                "Work requests per doorbell batch",
                &[],
            ),
            degraded_queries: t.counter(
                "dhnsw_degraded_queries_total",
                "Queries answered from an incomplete cluster set after read retries ran out",
                m,
            ),
            read_retries: t.counter(
                "dhnsw_read_retries_total",
                "Engine-level cluster read retries (version mismatch or exhausted retransmissions)",
                m,
            ),
            inserts: t.counter("dhnsw_inserts_total", "Insert attempts", &[]),
            insert_overflow: t.counter(
                "dhnsw_insert_overflow_total",
                "Inserts rejected because the group overflow area was full",
                &[],
            ),
            deletes: t.counter("dhnsw_deletes_total", "Delete attempts", &[]),
            tail_exemplar_occupancy: t.gauge(
                "dhnsw_tail_exemplar_occupancy",
                "Tail exemplars currently retained (reservoir + K-slowest)",
                &[],
            ),
            tail_profile_paths: t.gauge(
                "dhnsw_tail_profile_paths",
                "Distinct span paths accumulated in the always-on folded profile",
                &[],
            ),
            tail_exemplars_recorded: t.counter(
                "dhnsw_tail_exemplars_recorded_total",
                "Batch exemplars offered to the tail exemplar store",
                &[],
            ),
            tail_exemplars_dropped: t.counter(
                "dhnsw_tail_exemplars_dropped_total",
                "Batch exemplars evicted or rejected by the bounded exemplar store",
                &[],
            ),
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

/// Counter values captured at the previous health report, so the next
/// report can evaluate a *window* (the interval since that report)
/// instead of lifetime aggregates. A cold-start latency spike or miss
/// burst therefore ages out after one report interval rather than
/// pinning the SLO watchdog in violation forever.
#[derive(Debug, Default)]
struct WindowState {
    latency: HistogramSnapshot,
    hits: u64,
    misses: u64,
}

/// One compute-pool instance.
///
/// See the crate docs for an end-to-end example. Thread-safety: a
/// `ComputeNode` may be shared across threads; the cluster cache is
/// internally locked and the queue pair is thread-safe.
#[derive(Debug)]
pub struct ComputeNode {
    qp: QueuePair,
    rkey: u32,
    meta: Arc<MetaIndex>,
    directory: Directory,
    cache: Mutex<ClusterCache>,
    config: DHnswConfig,
    mode: SearchMode,
    telemetry: Arc<Telemetry>,
    metrics: EngineMetrics,
    heatmap: Arc<ClusterHeatmap>,
    flushed: Mutex<FlushState>,
    window: Mutex<WindowState>,
    // Runtime-tunable execution knobs (see `set_pipeline_depth` /
    // `set_prefetch_budget_bytes`): initialized from the store config and
    // the environment, adjustable per node without reconnecting.
    pipeline_depth: AtomicUsize,
    prefetch_budget: AtomicU64,
    // SQ8 wire format in force: the directory carries compressed blobs
    // *and* this node's config asks for them (naive mode always reads
    // full precision — it is the paper's uncompressed baseline).
    use_sq: bool,
    // Exact full-precision vectors fetched for rerank, keyed by
    // (partition, base row). Base vectors are immutable, so entries
    // never go stale; the map is cleared wholesale past
    // `RERANK_CACHE_CAP` to bound memory.
    rerank_cache: Mutex<HashMap<(u32, u32), Vec<f32>>>,
}

impl ComputeNode {
    /// Connects to the store: opens a queue pair and fetches the layout
    /// directory from the head of the remote region (one `RDMA_READ`),
    /// exactly as §3.2 describes compute instances caching the offsets.
    pub(crate) fn connect(
        store: &VectorStore,
        mode: SearchMode,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self> {
        let mut config = store.config().clone();
        // Reliability knobs are also settable from the environment so
        // binaries can run fault drills without code changes:
        // DHNSW_READ_RETRY_LIMIT, DHNSW_RETRY_BACKOFF_US, and
        // DHNSW_DEGRADED_OK=1.
        if let Some(n) = std::env::var("DHNSW_READ_RETRY_LIMIT")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            config = config.with_read_retry_limit(n);
        }
        if let Some(us) = std::env::var("DHNSW_RETRY_BACKOFF_US")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            config = config.with_retry_backoff_us(us);
        }
        if std::env::var("DHNSW_DEGRADED_OK").is_ok_and(|v| v == "1") {
            config = config.with_degraded_ok(true);
        }
        // Execution knobs: DHNSW_PIPELINE_DEPTH splits batches into
        // overlapped micro-batches, DHNSW_PREFETCH_BUDGET_BYTES arms the
        // between-batch heatmap prefetcher, DHNSW_SEARCH_THREADS sizes
        // the per-instance worker pool (0 = all cores).
        if let Some(d) = std::env::var("DHNSW_PIPELINE_DEPTH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            config = config.with_pipeline_depth(d.max(1));
        }
        if let Some(bytes) = std::env::var("DHNSW_PREFETCH_BUDGET_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            config = config.with_prefetch_budget_bytes(bytes);
        }
        if let Some(t) = std::env::var("DHNSW_SEARCH_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            config = config.with_search_threads(t);
        }
        // Wire-format knobs: DHNSW_QUANTIZE_MODE=off|sq8 selects the
        // cluster payload fetched by queries (sq8 only takes effect when
        // the store was built quantized), DHNSW_RERANK_K sizes the
        // exact-rerank candidate pool.
        if let Some(m) = std::env::var("DHNSW_QUANTIZE_MODE")
            .ok()
            .and_then(|v| QuantizeMode::parse(&v).ok())
        {
            config = config.with_quantize_mode(m);
        }
        if let Some(rk) = std::env::var("DHNSW_RERANK_K")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            config = config.with_rerank_k(rk.max(1));
        }
        let qp = QueuePair::connect(store.memory_node(), config.network());
        let rkey = store.region().rkey();
        // Peek the header first: a v3 (quantized) store carries an SQ
        // span table whose size the connect path cannot know up front.
        let head = qp.read(rkey, 0, DIRECTORY_PEEK_BYTES as u64)?;
        let dir_len = Directory::peek_size(&head)? as u64;
        let dir_bytes = qp.read(rkey, 0, dir_len)?;
        let directory = Directory::from_bytes(&dir_bytes)?;
        let capacity = config.cache_capacity(directory.partitions());
        let metrics = EngineMetrics::new(&telemetry, mode);
        // Bridge substrate verb events into the span tracer. Without an
        // active trace scope the sink drops events after one
        // thread-local lookup, so untraced verbs stay cheap.
        qp.set_trace_sink(Some(Arc::new(QpSpanSink)));
        // Environment knobs so binaries get tracing without code changes:
        // DHNSW_TRACE_SPANS=1 enables per-batch span capture and
        // DHNSW_SLOW_QUERY_US=<µs> arms the slow-query log.
        if std::env::var("DHNSW_TRACE_SPANS").is_ok_and(|v| v == "1") {
            telemetry.spans().set_enabled(true);
        }
        if let Some(us) = std::env::var("DHNSW_SLOW_QUERY_US")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            telemetry.spans().set_slow_threshold_us(us);
            if us > 0 {
                // A slow-query budget is meaningless without capture.
                telemetry.spans().set_enabled(true);
            }
        }
        // The directory fetch above already moved bytes; start the flush
        // baseline there so connect traffic is not charged to queries.
        let flushed = Mutex::new(FlushState {
            rdma: qp.stats().snapshot(),
            cache: CacheStats::default(),
        });
        let heatmap = Arc::new(ClusterHeatmap::new(directory.partitions()));
        let pipeline_depth = AtomicUsize::new(config.pipeline_depth().max(1));
        let prefetch_budget = AtomicU64::new(config.prefetch_budget_bytes());
        let use_sq = directory.has_sq_spans()
            && config.quantize_mode() != QuantizeMode::Off
            && mode != SearchMode::Naive;
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
            window: Mutex::new(WindowState::default()),
            pipeline_depth,
            prefetch_budget,
            use_sq,
            rerank_cache: Mutex::new(HashMap::new()),
        })
    }

    /// Whether this node fetches clusters in the compressed SQ8 wire
    /// format (directory is layout v3 *and* quantization is enabled for
    /// this node; naive mode always reads full precision).
    pub fn is_quantized(&self) -> bool {
        self.use_sq
    }

    /// The micro-batch pipeline depth in force (`1` = sequential).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth.load(Ordering::Relaxed)
    }

    /// Sets the micro-batch pipeline depth for subsequent batches on this
    /// node (clamped to `>= 1`; additionally clamped to the batch size at
    /// query time). Depth 1 is the strict route → load → search
    /// execution; deeper pipelines overlap micro-batch *i + 1*'s cluster
    /// loads with micro-batch *i*'s search.
    pub fn set_pipeline_depth(&self, depth: usize) {
        self.pipeline_depth.store(depth.max(1), Ordering::Relaxed);
    }

    /// The between-batch prefetch byte budget in force (`0` = disabled).
    pub fn prefetch_budget_bytes(&self) -> u64 {
        self.prefetch_budget.load(Ordering::Relaxed)
    }

    /// Sets the byte budget the heatmap-driven prefetcher may spend
    /// warming the cluster cache after each query batch (`0` disables
    /// prefetching).
    pub fn set_prefetch_budget_bytes(&self, bytes: u64) {
        self.prefetch_budget.store(bytes, Ordering::Relaxed);
    }

    /// The search mode this node runs.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// The `(offset, len)` span one stage load of partition `p` reads:
    /// the contiguous cluster+overflow group span, or just the
    /// compressed blob when this node uses the SQ8 wire format.
    fn load_span(&self, p: u32) -> Result<(u64, u64)> {
        if self.use_sq {
            self.directory
                .sq_span(p)?
                .ok_or_else(|| Error::Corrupt(format!("partition {p} has no sq span")))
        } else {
            Ok(self.directory.location(p)?.read_span())
        }
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

    /// Assembles a point-in-time [`HealthReport`]: live per-group
    /// overflow occupancy (one doorbell batch of 8-byte counter
    /// reads), layout/fragmentation accounting, the access heatmap,
    /// routing-skew statistics, and cache/latency summaries. The
    /// report's headline numbers are also published as telemetry
    /// gauges. Read-only with respect to the store.
    ///
    /// # Errors
    ///
    /// Propagates substrate read errors or a corrupt overflow counter.
    pub fn health_report(&self) -> Result<HealthReport> {
        let groups = self.directory.groups();
        let reqs: Vec<rdma_sim::ReadReq> = groups
            .iter()
            .map(|g| {
                rdma_sim::ReadReq::new(self.rkey, g.overflow_off, 8)
                    .with_cause(ReadCause::HealthProbe)
            })
            .collect();
        let buffers = self.qp.read_doorbell(&reqs)?;
        let mut group_health = Vec::with_capacity(groups.len());
        let mut layout = LayoutSummary {
            total_bytes: self.directory.total_len(),
            directory_bytes: self.directory.directory_bytes(),
            // Alignment padding starts with the directory's own, plus
            // the SQ tail region's (zero on pre-v3 layouts).
            padding_bytes: self.directory.directory_padding() + self.directory.sq_padding_bytes(),
            sq_bytes: self.directory.sq_live_bytes(),
            ..LayoutSummary::default()
        };
        for (g, buf) in groups.iter().zip(&buffers) {
            let raw: [u8; 8] = buf.as_slice().try_into().map_err(|_| {
                Error::Corrupt(format!("group {} overflow counter short read", g.group))
            })?;
            let used = u64::from_le_bytes(raw);
            // Reservations are compensated on the overflow-full path, so
            // a counter past capacity is not bookkeeping slack — it means
            // the remote counter (or the directory) is damaged. Surface
            // that instead of silently clamping it away.
            if used > g.overflow_capacity {
                return Err(Error::Corrupt(format!(
                    "group {} overflow counter {} exceeds capacity {}",
                    g.group, used, g.overflow_capacity
                )));
            }
            let occupancy = if g.overflow_capacity == 0 {
                0.0
            } else {
                used as f64 / g.overflow_capacity as f64
            };
            layout.cluster_bytes += g.cluster_bytes;
            layout.padding_bytes += g.padding_bytes;
            layout.overflow_capacity_bytes += g.overflow_capacity;
            layout.overflow_used_bytes += used;
            layout.max_group_occupancy = layout.max_group_occupancy.max(occupancy);
            layout.mean_group_occupancy += occupancy;
            group_health.push(GroupHealth {
                group: g.group,
                front: g.front,
                back: g.back,
                cluster_bytes: g.cluster_bytes,
                padding_bytes: g.padding_bytes,
                overflow_capacity_bytes: g.overflow_capacity,
                overflow_used_bytes: used,
                overflow_slack_bytes: g.overflow_capacity - used,
                occupancy,
            });
        }
        if !group_health.is_empty() {
            layout.mean_group_occupancy /= group_health.len() as f64;
        }
        if layout.total_bytes > 0 {
            let total = layout.total_bytes as f64;
            // Live bytes: directory, clusters, the SQ8 tail (layout v3),
            // the 8-byte counters, and overflow records already written.
            // Dead bytes: alignment padding plus unused overflow slack.
            let live = layout.directory_bytes
                + layout.cluster_bytes
                + layout.sq_bytes
                + 8 * group_health.len() as u64
                + layout.overflow_used_bytes;
            let dead = layout.padding_bytes
                + (layout.overflow_capacity_bytes - layout.overflow_used_bytes);
            layout.utilization = live as f64 / total;
            layout.fragmentation = dead as f64 / total;
        }

        let partitions = self.directory.partitions();
        let topk = (partitions / 10).max(1);
        let cluster_bytes: Vec<u64> = self
            .directory
            .locations()
            .iter()
            .map(|loc| loc.cluster_len)
            .collect();
        let degree_hist: Vec<u64> = hnsw::diagnostics::degree_histogram(self.meta.hnsw(), 0)
            .into_iter()
            .map(|d| d as u64)
            .collect();

        // Hit rate uses plan-time residency (hits = loads avoided,
        // misses = clusters fetched): the engine only probes the LRU
        // for partitions planning already proved resident, so the
        // cache's own lookup counters can never record a miss and
        // would report a vacuous 100% here.
        // Window deltas: everything since the previous health report.
        // The baseline advances here, so each report consumes its window
        // exactly once and an idle interval yields an empty window (the
        // watchdog skips empty windows rather than falling back to
        // lifetime aggregates, which would re-fire stale violations).
        let (window_lat, window_hits, window_misses) = {
            let mut w = self.window.lock();
            let lat_now = self.metrics.latency_us.snapshot();
            let hits_now = self.metrics.cluster_cache_hits.get();
            let misses_now = self.metrics.clusters_loaded.get();
            let delta = (
                lat_now - w.latency,
                hits_now.saturating_sub(w.hits),
                misses_now.saturating_sub(w.misses),
            );
            w.latency = lat_now;
            w.hits = hits_now;
            w.misses = misses_now;
            delta
        };
        let cache = {
            let c = self.cache.lock();
            let stats = c.stats();
            let hits = self.metrics.cluster_cache_hits.get();
            let misses = self.metrics.clusters_loaded.get();
            CacheHealth {
                capacity: c.capacity(),
                resident: c.len(),
                resident_bytes: c.resident_bytes() as u64,
                hits,
                misses,
                evictions: stats.evictions,
                hit_rate: if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                },
                window_hits,
                window_misses,
                window_hit_rate: if window_hits + window_misses == 0 {
                    0.0
                } else {
                    window_hits as f64 / (window_hits + window_misses) as f64
                },
            }
        };
        let latency = {
            let h = &self.metrics.latency_us;
            LatencyHealth {
                queries: h.count(),
                p50_us: h.quantile(0.5),
                p95_us: h.quantile(0.95),
                p99_us: h.quantile(0.99),
                max_us: h.max(),
                window_queries: window_lat.count(),
                window_p50_us: window_lat.quantile(0.5),
                window_p95_us: window_lat.quantile(0.95),
                window_p99_us: window_lat.quantile(0.99),
            }
        };
        let reliability = {
            let queries = self.metrics.queries.get();
            let degraded = self.metrics.degraded_queries.get();
            ReliabilityHealth {
                queries,
                degraded_queries: degraded,
                read_retries: self.metrics.read_retries.get(),
                degraded_rate: if queries == 0 {
                    0.0
                } else {
                    degraded as f64 / queries as f64
                },
            }
        };

        let tail = {
            let ex = self.telemetry.exemplars();
            let slowest = ex.slowest();
            TailHealth {
                exemplar_occupancy: ex.occupancy(),
                exemplars_recorded: ex.recorded(),
                exemplars_dropped: ex.dropped(),
                profile_paths: self.telemetry.profile().len() as u64,
                slowest_trace_id: slowest.first().map(|r| r.trace_id),
                slowest_total_us: slowest.first().map_or(0.0, |r| r.total_us),
            }
        };

        let report = HealthReport {
            mode: self.mode.label(),
            partitions,
            groups: group_health,
            layout,
            heatmap: self.heatmap.snapshot(),
            partition_skew: skew_of(&cluster_bytes, topk),
            route_skew: skew_of(&self.heatmap.route_hit_counts(), topk),
            degree_skew: skew_of(&degree_hist, topk),
            cache,
            latency,
            reliability,
            tail,
            violations: Vec::new(),
        };
        report.publish(&self.telemetry);
        Ok(report)
    }

    /// Clears the clock and transfer counters — used between benchmark
    /// phases. The telemetry flush baseline is rewound with them so
    /// global counters neither double-count nor go backwards.
    pub fn reset_measurements(&self) {
        let mut flushed = self.flushed.lock();
        self.qp.clock().reset();
        self.qp.stats().reset();
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
        m.rdma_bytes_read.add(rdma.bytes_read);
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
        m.cache_hits.add(cache_now.hits - flushed.cache.hits);
        m.cache_misses.add(cache_now.misses - flushed.cache.misses);
        m.cache_evictions
            .add(cache_now.evictions - flushed.cache.evictions);
        m.cache_occupancy.set(cache_len as u64);
        m.cache_resident_bytes.set(cache_bytes as u64);
        let ex = self.telemetry.exemplars();
        let (tail_recorded, tail_dropped) = ex.take_flush_delta();
        m.tail_exemplars_recorded.add(tail_recorded);
        m.tail_exemplars_dropped.add(tail_dropped);
        m.tail_exemplar_occupancy.set(ex.occupancy());
        m.tail_profile_paths
            .set(self.telemetry.profile().len() as u64);
        flushed.rdma = rdma_now;
        flushed.cache = cache_now;
    }

    /// Takes one time-series sample at `now_us` (caller-supplied —
    /// synthetic in tests and benchmarks, wall-clock only in the
    /// serving plane's sampler thread).
    ///
    /// Substrate and cache counters are normally flushed to the
    /// telemetry registry on the query path, so a sampler ticking
    /// *between* batches would read stale values; this flushes first
    /// and then ticks the hub's [`crate::telemetry::series::SeriesRecorder`],
    /// returning the derived point (see
    /// [`crate::telemetry::Telemetry::tick_series`]).
    pub fn sample_series(&self, now_us: u64) -> Option<crate::telemetry::series::SeriesPoint> {
        self.flush_telemetry();
        self.telemetry.tick_series(now_us)
    }

    /// Empties the LRU cluster cache (cold-start benchmarks).
    pub fn drop_cache(&self) {
        self.cache.lock().clear();
    }

    /// Answers a single query; convenience wrapper over
    /// [`ComputeNode::query_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`ComputeNode::query_batch`].
    pub fn query(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Neighbor>> {
        let batch = Dataset::from_rows(&[query])?;
        let (mut results, _) = self.query_batch(&batch, k, ef)?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Answers a batch of queries: top-`k` per query with sub-HNSW beam
    /// width `ef`, plus the batch's [`BatchReport`].
    ///
    /// Results carry global vector ids (base ids `0..base_len`, then
    /// insert-allocated ids) sorted by ascending distance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the query batch has the
    /// wrong dimensionality, plus any substrate or corruption error.
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
        ef: usize,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        self.query_batch_opts(queries, &QueryOptions::new(k, ef))
    }

    /// Like [`ComputeNode::query_batch`], with per-call [`QueryOptions`]
    /// (notably a fan-out override).
    ///
    /// # Errors
    ///
    /// Same as [`ComputeNode::query_batch`].
    pub fn query_batch_opts(
        &self,
        queries: &Dataset,
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        if queries.is_empty() {
            return Ok((Vec::new(), BatchReport::default()));
        }
        if queries.dim() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: queries.dim(),
            });
        }
        if opts.fanout == Some(0) {
            return Err(Error::InvalidParameter("fanout must be >= 1".into()));
        }
        if opts.ef == 0 {
            return Err(Error::InvalidParameter("ef must be >= 1".into()));
        }
        let b = opts.fanout.unwrap_or_else(|| self.config.fanout());
        // With tracing off this costs one atomic load; the trace itself
        // is a Copy value moved into a preallocated ring — recording a
        // batch never allocates.
        let tracing = self.telemetry.traces().is_enabled();
        let stats0 = if tracing {
            Some(self.qp.stats().snapshot())
        } else {
            None
        };
        // Span tracing: one root span per batch; the planned/naive paths
        // hang stage spans off it. `begin` hands back a no-op handle
        // when the tracer is off.
        let trace = self.telemetry.spans().begin(self.mode.label());
        let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
        trace.add_args(
            root,
            &[
                ("mode", ArgValue::Str(self.mode.label())),
                ("queries", ArgValue::U64(queries.len() as u64)),
                ("k", ArgValue::U64(opts.k as u64)),
                ("ef", ArgValue::U64(opts.ef as u64)),
                ("fanout", ArgValue::U64(b as u64)),
            ],
        );
        let t0 = Instant::now();
        let outcome = match self.mode {
            SearchMode::Full => {
                self.query_batch_planned(queries, opts.k, opts.ef, b, true, &trace, root)
            }
            SearchMode::NoDoorbell => {
                self.query_batch_planned(queries, opts.k, opts.ef, b, false, &trace, root)
            }
            SearchMode::Naive => self.query_batch_naive(queries, opts.k, opts.ef, b, &trace, root),
        };
        // Release the batch's cache pins whether it succeeded or not —
        // leaked pins would exempt entries from LRU pressure forever.
        // Settling also evicts down to capacity if a fully-pinned cache
        // transiently oversubscribed, charging those evictions here.
        {
            let victims = self.cache.lock().settle();
            if self.heatmap.is_enabled() {
                for v in victims {
                    self.heatmap.record_eviction(v);
                }
            }
        }
        let (results, report) = match outcome {
            Ok(pair) => pair,
            Err(e) => {
                trace.end_span_with(root, &[("error", ArgValue::Str("batch_failed"))]);
                self.telemetry.spans().finish(trace);
                return Err(e);
            }
        };
        // Simulated batch latency: CPU wall time plus the *exposed*
        // network stall from the virtual clock. The process never
        // actually sleeps on the simulated NIC, so wall time alone
        // would undercount the one component this system is about —
        // a retry storm or a lost pipeline overlap would be invisible
        // in the latency series and in the tail exemplars.
        let total_us = t0.elapsed().as_secs_f64() * 1e6 + report.breakdown.network_us;
        // Byte provenance on the root span: the slow-query log's explain
        // data. Only nonzero causes are attached to keep spans small.
        let cause_args: Vec<(&'static str, ArgValue)> = report
            .ledger
            .cause_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (CAUSE_BYTE_KEYS[i], ArgValue::U64(b)))
            .collect();
        trace.add_args(root, &cause_args);
        trace.end_span_with(
            root,
            &[
                ("unique_clusters", ArgValue::U64(report.unique_clusters as u64)),
                ("cache_hits", ArgValue::U64(report.cache_hits as u64)),
                ("clusters_loaded", ArgValue::U64(report.clusters_loaded as u64)),
                ("round_trips", ArgValue::U64(report.round_trips)),
                ("bytes_read", ArgValue::U64(report.bytes_read)),
                ("meta_us", ArgValue::F64(report.breakdown.meta_hnsw_us)),
                ("network_vt_us", ArgValue::F64(report.breakdown.network_us)),
                ("sub_us", ArgValue::F64(report.breakdown.sub_hnsw_us)),
                (
                    "materialize_us",
                    ArgValue::F64(report.breakdown.materialize_us),
                ),
            ],
        );
        let trace_id = trace.seq();
        let finished = self.telemetry.spans().finish_trace(trace);

        let m = &self.metrics;
        let n = report.queries.max(1) as u64;
        m.queries.add(report.queries as u64);
        m.batches.inc();
        // The exemplar keeps this exact sample so bucket exemplars line
        // up with the latency histogram by construction.
        let latency_sample_us = (total_us / n as f64) as u64;
        m.latency_us.observe_n(latency_sample_us, n);
        m.stage_meta_us.add(report.breakdown.meta_hnsw_us as u64);
        m.stage_network_us.add(report.breakdown.network_us as u64);
        m.stage_sub_us.add(report.breakdown.sub_hnsw_us as u64);
        m.stage_materialize_us
            .add(report.breakdown.materialize_us as u64);
        m.clusters_loaded.add(report.clusters_loaded as u64);
        m.cluster_cache_hits.add(report.cache_hits as u64);
        m.raw_cluster_demand.add(report.raw_cluster_demand as u64);
        m.degraded_queries.add(report.degraded_queries as u64);
        m.read_retries.add(report.read_retries);
        m.transfers_saved.add(
            (report.raw_cluster_demand.saturating_sub(report.clusters_loaded)) as u64,
        );

        // Tail anatomy: fold this batch into the always-on profile (at
        // span resolution when tracing is live, phase resolution
        // otherwise) and offer it to the exemplar store, which retains
        // the full span tree only while the batch ranks in the
        // K-slowest set.
        match &finished {
            Some(ft) => self.telemetry.profile().fold_trace(ft),
            None => self
                .telemetry
                .profile()
                .fold_phases(&report.breakdown, total_us),
        }
        self.telemetry.exemplars().record(
            TailRecord {
                trace_id,
                mode: self.mode.label(),
                queries: report.queries as u32,
                total_us,
                per_query_us: total_us / n as f64,
                latency_sample_us,
                meta_us: report.breakdown.meta_hnsw_us,
                network_us: report.breakdown.network_us,
                sub_us: report.breakdown.sub_hnsw_us,
                materialize_us: report.breakdown.materialize_us,
                ledger: report.ledger,
                degraded_queries: report.degraded_queries as u32,
                read_retries: report.read_retries,
            },
            finished,
        );
        self.flush_telemetry();

        if let Some(stats0) = stats0 {
            let delta = self.qp.stats().snapshot() - stats0;
            self.telemetry.traces().record(QueryTrace {
                mode: self.mode.label(),
                queries: report.queries as u32,
                k: opts.k as u32,
                ef: opts.ef as u32,
                fanout: b as u32,
                raw_cluster_demand: report.raw_cluster_demand as u32,
                unique_clusters: report.unique_clusters as u32,
                cache_hits: report.cache_hits as u32,
                clusters_loaded: report.clusters_loaded as u32,
                doorbell_batches: delta.doorbell_batches as u32,
                round_trips: report.round_trips,
                bytes_read: report.bytes_read,
                meta_us: report.breakdown.meta_hnsw_us,
                network_us: report.breakdown.network_us,
                sub_us: report.breakdown.sub_hnsw_us,
                materialize_us: report.breakdown.materialize_us,
                total_us,
                cause_bytes: delta.cause_bytes,
            });
        }
        // Warm the cache for the next batch while the client digests this
        // one. Runs after every counter above so prefetch traffic is
        // never attributed to the batch that triggered it.
        if self.prefetch_budget_bytes() > 0 {
            self.prefetch_hot();
        }
        Ok((results, report))
    }

    /// The Full / NoDoorbell path: route → plan → load once per cluster →
    /// search.
    #[allow(clippy::too_many_arguments)]
    fn query_batch_planned(
        &self,
        queries: &Dataset,
        k: usize,
        ef: usize,
        b: usize,
        doorbell: bool,
        trace: &BatchTrace,
        root: SpanId,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        let mut report = BatchReport {
            queries: queries.len(),
            ..Default::default()
        };

        // 1. Meta-HNSW routing (cached index, pure compute).
        let s_meta = trace.begin_span("meta_route", "engine", root);
        let t_meta = Instant::now();
        let routes: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| self.meta.route(q, b).iter().map(|n| n.id).collect())
            .collect();
        report.breakdown.meta_hnsw_us = t_meta.elapsed().as_secs_f64() * 1e6;
        trace.end_span_with(s_meta, &[("fanout", ArgValue::U64(b as u64))]);

        // Heatmap sampling: one relaxed load decides, then relaxed
        // counter bumps only — nothing here allocates or takes a lock.
        let heat = self.heatmap.is_enabled();
        if heat {
            self.heatmap.begin_batch();
            for route in &routes {
                for &p in route {
                    self.heatmap.record_route(p);
                }
            }
        }

        // 2. Query-aware load planning against current cache residency.
        let s_union = trace.begin_span("cluster_union", "engine", root);
        let plan = {
            let cache = self.cache.lock();
            plan_batch(&routes, |p| cache.contains(p))
        };
        report.raw_cluster_demand = plan.raw_demand;
        report.unique_clusters = plan.unique.len();
        report.cache_hits = plan.cached.len();
        report.clusters_loaded = plan.to_load.len();
        if heat {
            for &p in &plan.cached {
                self.heatmap.record_cache_hit(p);
            }
        }

        // Pin cached clusters before loading so LRU pressure from
        // same-batch (or later-stage) loads cannot take them away
        // mid-batch. Cache hit instants attach to the cluster-union span
        // via the scope. Each pin remembers the version the entry was
        // loaded at for the coherence check below.
        let mut resolved: HashMap<u32, Arc<LoadedCluster>> = HashMap::new();
        let mut pinned_versions: Vec<(u32, u64)> = Vec::new();
        let mut lost: Vec<u32> = Vec::new();
        {
            let _scope = trace.enter_scope(s_union);
            let mut cache = self.cache.lock();
            for &p in &plan.cached {
                let version = cache.version_of(p).unwrap_or(0);
                if let Some(c) = cache.get(p) {
                    cache.pin(p);
                    resolved.insert(p, c);
                    pinned_versions.push((p, version));
                } else {
                    // A concurrent batch on this node evicted the entry
                    // between planning and pinning: demote it to a
                    // stage-0 load so every routed cluster still
                    // resolves. Never happens single-threaded — the
                    // cache only changes between the two locks when
                    // another thread settles or admits.
                    lost.push(p);
                }
            }
        }
        trace.end_span_with(s_union, &plan.trace_args());

        // 3–5. Pipelined execution. The batch is split into `depth`
        // contiguous micro-batches (stages); each to-load cluster is
        // assigned to the stage of its first-demanding query. Stage
        // `i + 1`'s loads are issued — and charged to the virtual NIC
        // timeline — *before* stage `i`'s materialize + search runs on
        // the worker pool, so transfer time overlaps compute. Depth 1
        // reproduces the sequential route → load → materialize → search
        // execution exactly: same verbs, same order, same accounting.
        //
        // Every cluster still crosses the network at most once per batch
        // (stages partition `plan.to_load`), loaded clusters stay pinned
        // in the cache across stages, and cached-pin version verifies
        // ride stage 0's doorbell so a stale entry is demoted and
        // reloaded before *any* stage searches it.
        let versioned = self.directory.has_version_slots();
        let verify: Vec<(u32, u64)> = if versioned && !plan.to_load.is_empty() {
            pinned_versions
        } else {
            Vec::new()
        };
        let depth = self.pipeline_depth().clamp(1, queries.len());
        let chunk = queries.len().div_ceil(depth);
        let bounds: Vec<(usize, usize)> = (0..depth)
            .map(|s| (s * chunk, ((s + 1) * chunk).min(queries.len())))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let mut staged = stage_loads(&routes, &plan.to_load, &bounds);
        let lost_n = lost.len();
        if !lost.is_empty() {
            // Loading at stage 0 is always at-or-before first demand, so
            // the stage invariant holds for demoted entries too.
            staged[0].append(&mut lost);
        }
        let stages = bounds.len();
        let threads = self.config.effective_search_threads();
        let stats0 = self.qp.stats().snapshot();

        let mut verify = Some(verify);
        let mut failed: Vec<u32> = Vec::new();
        // Lost entries were counted as hits by the planner but must be
        // re-fetched, so they start the demotion count.
        let mut demoted = lost_n;
        let mut load_vt = vec![0.0f64; stages];
        let mut cpu_wall = vec![0.0f64; stages];
        let mut loads: Vec<Vec<(u32, u64, Vec<u8>)>> = (0..stages).map(|_| Vec::new()).collect();
        let mut mat_total = 0.0f64;
        let mut sub_total = 0.0f64;
        let mut loaded_total = 0usize;
        let mut searched_all: Vec<(Vec<Neighbor>, f64)> = Vec::with_capacity(queries.len());
        // Quantized flow: stages accumulate per-query candidate *pools*
        // (approximate distances plus rerank addresses); the exact
        // rerank below turns them into final results.
        let pool_k = k + self.config.rerank_k().max(1);
        let mut pools_all: Vec<(Vec<SqCand>, f64)> = Vec::new();

        for i in 0..stages {
            if i == 0 {
                let pending = std::mem::take(&mut staged[0]);
                let verify0 = verify.take().unwrap_or_default();
                if !pending.is_empty() || !verify0.is_empty() {
                    let (stable, vt) = self.load_stage(
                        0,
                        pending,
                        verify0,
                        doorbell,
                        versioned,
                        trace,
                        root,
                        &mut resolved,
                        &mut report,
                        &mut failed,
                        &mut demoted,
                    )?;
                    load_vt[0] = vt;
                    loads[0] = stable;
                }
            }
            if i + 1 < stages && !staged[i + 1].is_empty() {
                // Double buffering: the next micro-batch's clusters go on
                // the wire now, while this stage computes below.
                let (stable, vt) = self.load_stage(
                    i + 1,
                    std::mem::take(&mut staged[i + 1]),
                    Vec::new(),
                    doorbell,
                    versioned,
                    trace,
                    root,
                    &mut resolved,
                    &mut report,
                    &mut failed,
                    &mut demoted,
                )?;
                load_vt[i + 1] = vt;
                loads[i + 1] = stable;
            }

            // Materialize this stage's loads (compute on loaded data) and
            // cache them, pinned, at the version they were read.
            // Deserialization fans out over the instance's worker
            // threads, like the paper's per-instance OpenMP pool.
            let stable = std::mem::take(&mut loads[i]);
            let t_mat = Instant::now();
            let s_mat = trace.begin_span("materialize", "engine", root);
            let stable_parts: Vec<u32> = stable.iter().map(|(p, _, _)| *p).collect();
            let stable_versions: Vec<u64> = stable.iter().map(|(_, v, _)| *v).collect();
            let stable_bufs: Vec<Vec<u8>> = stable.into_iter().map(|(_, _, b)| b).collect();
            let loaded = if self.use_sq {
                materialize_sq_parallel(&self.directory, &stable_parts, &stable_bufs, threads)?
            } else {
                materialize_parallel(&self.directory, &stable_parts, &stable_bufs, threads)?
            };
            {
                let _scope = trace.enter_scope(s_mat);
                let mut cache = self.cache.lock();
                for ((&p, cluster), version) in stable_parts
                    .iter()
                    .zip(&loaded)
                    .zip(stable_versions.iter().copied())
                {
                    if let Some(victim) = cache.put(p, Arc::clone(cluster), version) {
                        if heat {
                            self.heatmap.record_eviction(victim);
                        }
                    }
                    cache.pin(p);
                    resolved.insert(p, Arc::clone(cluster));
                }
            }
            trace.end_span_with(
                s_mat,
                &[
                    ("clusters", ArgValue::U64(loaded.len() as u64)),
                    ("stage", ArgValue::U64(i as u64)),
                ],
            );
            loaded_total += loaded.len();
            let mat_us = t_mat.elapsed().as_secs_f64() * 1e6;
            mat_total += mat_us;

            // Sub-HNSW search for this micro-batch's queries. A stage
            // only ever routes to clusters first demanded at or before
            // it, all of which were loaded (or recorded failed) above —
            // so failures are always known before the search that must
            // tolerate them, exactly as in the sequential path.
            let (lo, hi) = bounds[i];
            let s_search = trace.begin_span("sub_hnsw_search", "engine", root);
            let t_sub = Instant::now();
            if self.use_sq {
                let pools = search_over_sq(
                    &routes[lo..hi],
                    queries,
                    lo,
                    &resolved,
                    pool_k,
                    threads,
                    !failed.is_empty(),
                )?;
                pools_all.extend(pools);
            } else {
                let searched = search_over(
                    &routes[lo..hi],
                    queries,
                    lo,
                    &resolved,
                    k,
                    ef,
                    threads,
                    !failed.is_empty(),
                )?;
                searched_all.extend(searched);
            }
            let sub_us = t_sub.elapsed().as_secs_f64() * 1e6;
            sub_total += sub_us;
            trace.end_span_with(
                s_search,
                &[
                    ("queries", ArgValue::U64((hi - lo) as u64)),
                    ("ef", ArgValue::U64(ef as u64)),
                    ("stage", ArgValue::U64(i as u64)),
                ],
            );
            cpu_wall[i] = mat_us + sub_us;
        }

        report.cache_hits = plan.cached.len() - demoted;
        report.clusters_loaded = loaded_total;
        report.breakdown.materialize_us = mat_total;
        report.breakdown.sub_hnsw_us = sub_total;
        // Schedule composition over the two-clock model: the NIC
        // serializes stage loads on the virtual clock while the worker
        // pool consumes stages in order. The *exposed* network time is
        // the total stall the compute timeline spends waiting on the NIC
        // — with one stage exactly the whole virtual transfer time, with
        // deeper pipelines whatever the overlap could not hide.
        let mut nic_done = 0.0f64;
        let mut cpu_done = 0.0f64;
        let mut exposed = 0.0f64;
        for i in 0..stages {
            nic_done += load_vt[i];
            let wait = (nic_done - cpu_done).max(0.0);
            exposed += wait;
            cpu_done += wait + cpu_wall[i];
        }
        report.breakdown.network_us = exposed;
        let total_vt: f64 = load_vt.iter().sum();
        let hidden = (total_vt - exposed).max(0.0);
        if stages > 1 {
            self.metrics.pipeline_hidden_us.add(hidden as u64);
            trace.instant(
                "pipeline_overlap",
                "engine",
                root,
                &[
                    ("stages", ArgValue::U64(stages as u64)),
                    ("network_vt_us", ArgValue::F64(total_vt)),
                    ("exposed_us", ArgValue::F64(exposed)),
                    ("hidden_us", ArgValue::F64(hidden)),
                ],
            );
        }
        // Exact rerank (quantized flow only): one targeted doorbell
        // fetches the full-precision vectors of every candidate that
        // could still enter its query's top-k, then the pools collapse
        // into final results. Runs before the stats delta so rerank
        // bytes land in this batch's ledger.
        if self.use_sq {
            let t_rr = Instant::now();
            let rr_vt =
                self.rerank_exact(queries, k, &mut pools_all, &resolved, doorbell, trace, root, &mut report)?;
            report.breakdown.network_us += rr_vt;
            report.breakdown.sub_hnsw_us += t_rr.elapsed().as_secs_f64() * 1e6;
            searched_all = std::mem::take(&mut pools_all)
                .into_iter()
                .map(|(pool, cov)| {
                    let mut top = TopK::new(k);
                    for c in &pool {
                        top.push(c.id, c.dist);
                    }
                    (top.into_sorted_vec(), cov)
                })
                .collect();
        }
        let stats_delta = self.qp.stats().snapshot() - stats0;
        report.round_trips = stats_delta.round_trips;
        report.bytes_read = stats_delta.bytes_read;
        report.ledger = CostLedger::from_delta(&stats_delta);

        let mut results = Vec::with_capacity(searched_all.len());
        if failed.is_empty() {
            results.extend(searched_all.into_iter().map(|(r, _)| r));
        } else {
            let mut coverage = Vec::with_capacity(searched_all.len());
            for (r, cov) in searched_all {
                if cov < 1.0 {
                    report.degraded_queries += 1;
                }
                coverage.push(cov);
                results.push(r);
            }
            report.coverage = coverage;
        }
        Ok((results, report))
    }

    /// Loads one pipeline stage's pending clusters — plus any
    /// piggybacked cached-pin version verifies — under the optimistic
    /// version protocol: each span travels between two reads of its
    /// partition's version slot; a mismatch means a writer committed
    /// mid-read and the span is re-fetched. Cached pins whose verify
    /// fails are demoted (invalidated and reloaded with this stage).
    /// Substrate retransmission-budget errors are retried here too, with
    /// exponential backoff charged to virtual time; past the engine
    /// budget the stage's survivors land in `failed` when degraded
    /// results are allowed, otherwise the batch errors.
    ///
    /// Returns the stabilized `(partition, version, span)` triples and
    /// the stage's virtual network time.
    #[allow(clippy::too_many_arguments)]
    fn load_stage(
        &self,
        stage: usize,
        mut pending: Vec<u32>,
        mut verify: Vec<(u32, u64)>,
        doorbell: bool,
        versioned: bool,
        trace: &BatchTrace,
        root: SpanId,
        resolved: &mut HashMap<u32, Arc<LoadedCluster>>,
        report: &mut BatchReport,
        failed: &mut Vec<u32>,
        demoted: &mut usize,
    ) -> Result<(StableLoads, f64)> {
        let s_net = trace.begin_span("network", "engine", root);
        trace.add_args(s_net, &[("stage", ArgValue::U64(stage as u64))]);
        let clock0 = self.qp.clock().now_us();
        let stats0 = self.qp.stats().snapshot();
        // (partition, version-at-load, span bytes) that passed the check.
        let mut stable: Vec<(u32, u64, Vec<u8>)> = Vec::new();
        let mut attempt: u32 = 0;
        while !pending.is_empty() || !verify.is_empty() {
            // Provenance: version-slot reads are version checks, cluster
            // spans are stage loads on the first attempt and retries
            // afterwards — so a retry storm shows up as `retry` bytes in
            // the ledger, not inflated stage-load traffic.
            let span_cause = if attempt == 0 {
                ReadCause::StageLoad
            } else {
                ReadCause::Retry
            };
            let mut reqs = Vec::with_capacity(verify.len() + 3 * pending.len());
            for &(p, _) in &verify {
                reqs.push(
                    rdma_sim::ReadReq::new(self.rkey, self.directory.version_slot_off(p)?, 8)
                        .with_cause(ReadCause::VersionCheck),
                );
            }
            if versioned {
                for &p in &pending {
                    let vs = rdma_sim::ReadReq::new(
                        self.rkey,
                        self.directory.version_slot_off(p)?,
                        8,
                    )
                    .with_cause(ReadCause::VersionCheck);
                    let (off, len) = self.load_span(p)?;
                    reqs.push(vs);
                    reqs.push(rdma_sim::ReadReq::new(self.rkey, off, len).with_cause(span_cause));
                    reqs.push(vs);
                }
            } else {
                reqs.extend(read_requests_tagged(
                    &self.directory,
                    self.rkey,
                    &pending,
                    span_cause,
                )?);
            }
            let outcome = {
                let _scope = trace.enter_scope(s_net);
                if doorbell {
                    self.qp.read_doorbell(&reqs)
                } else {
                    reqs.iter()
                        .map(|r| self.qp.read_with_cause(r.rkey, r.offset, r.len, r.cause))
                        .collect::<std::result::Result<Vec<_>, _>>()
                }
            };
            let buffers = match outcome {
                Ok(buffers) => buffers,
                Err(rdma_sim::Error::RetriesExhausted { .. }) => {
                    attempt += 1;
                    report.read_retries += 1;
                    if attempt > self.config.read_retry_limit() {
                        if self.config.degraded_ok() {
                            failed.append(&mut pending);
                            verify.clear();
                            break;
                        }
                        trace.end_span(s_net);
                        return Err(Error::ReadRetriesExhausted {
                            partition: pending.first().copied().unwrap_or_default(),
                            attempts: attempt,
                        });
                    }
                    self.backoff(attempt, trace, s_net, pending.len());
                    continue;
                }
                Err(e) => {
                    trace.end_span(s_net);
                    return Err(e.into());
                }
            };
            let mut bufs = buffers.into_iter();
            let mut unstable: Vec<u32> = Vec::new();
            for &(p, pinned) in &verify {
                let now = read_version(&bufs.next().expect("one buffer per request"))?;
                if now != pinned {
                    // A writer moved the cluster since we cached it:
                    // drop the stale pin and reload it with this stage.
                    self.cache.lock().invalidate(p);
                    resolved.remove(&p);
                    unstable.push(p);
                    *demoted += 1;
                }
            }
            verify.clear();
            let mut needs_overflow: Vec<(u32, Vec<u8>)> = Vec::new();
            for &p in &pending {
                if versioned {
                    let before = read_version(&bufs.next().expect("version read"))?;
                    let span = bufs.next().expect("span read");
                    let after = read_version(&bufs.next().expect("version read"))?;
                    if before == after {
                        if self.use_sq && after != 0 {
                            // The compressed blob carries no overflow
                            // records; a nonzero version proves some
                            // exist, so a follow-up read is required.
                            needs_overflow.push((p, span));
                        } else {
                            stable.push((p, after, span));
                        }
                    } else {
                        unstable.push(p);
                    }
                } else {
                    stable.push((p, 0, bufs.next().expect("span read")));
                }
            }
            // SQ8 follow-up: fetch the mutated partitions' overflow
            // areas (bracketed again) and append each to its blob for
            // materialization. The blob itself is immutable, so a
            // version moving *between* the two rounds is harmless — the
            // newer overflow strictly supersedes the older; only a torn
            // overflow read (bracket mismatch) sends the partition
            // around again.
            if !needs_overflow.is_empty() {
                let mut oreqs = Vec::with_capacity(3 * needs_overflow.len());
                for &(p, _) in &needs_overflow {
                    let vs = rdma_sim::ReadReq::new(
                        self.rkey,
                        self.directory.version_slot_off(p)?,
                        8,
                    )
                    .with_cause(ReadCause::VersionCheck);
                    let loc = self.directory.location(p)?;
                    oreqs.push(vs);
                    oreqs.push(
                        rdma_sim::ReadReq::new(self.rkey, loc.overflow_off, loc.overflow_len)
                            .with_cause(ReadCause::OverflowScan),
                    );
                    oreqs.push(vs);
                }
                let outcome = {
                    let _scope = trace.enter_scope(s_net);
                    if doorbell {
                        self.qp.read_doorbell(&oreqs)
                    } else {
                        oreqs
                            .iter()
                            .map(|r| self.qp.read_with_cause(r.rkey, r.offset, r.len, r.cause))
                            .collect::<std::result::Result<Vec<_>, _>>()
                    }
                };
                match outcome {
                    Ok(buffers) => {
                        let mut obufs = buffers.into_iter();
                        for (p, mut span) in needs_overflow {
                            let before = read_version(&obufs.next().expect("version read"))?;
                            let area = obufs.next().expect("overflow read");
                            let after = read_version(&obufs.next().expect("version read"))?;
                            if before == after {
                                span.extend_from_slice(&area);
                                stable.push((p, after, span));
                            } else {
                                unstable.push(p);
                            }
                        }
                    }
                    Err(rdma_sim::Error::RetriesExhausted { .. }) => {
                        // Send them back through the shared retry budget
                        // (blob and overflow are re-read together).
                        report.read_retries += 1;
                        unstable.extend(needs_overflow.into_iter().map(|(p, _)| p));
                    }
                    Err(e) => {
                        trace.end_span(s_net);
                        return Err(e.into());
                    }
                }
            }
            if unstable.is_empty() {
                break;
            }
            attempt += 1;
            report.read_retries += unstable.len() as u64;
            if attempt > self.config.read_retry_limit() {
                if self.config.degraded_ok() {
                    failed.append(&mut unstable);
                    break;
                }
                trace.end_span(s_net);
                return Err(Error::ReadRetriesExhausted {
                    partition: unstable[0],
                    attempts: attempt,
                });
            }
            self.backoff(attempt, trace, s_net, unstable.len());
            pending = unstable;
        }
        let vt = self.qp.clock().now_us() - clock0;
        let stats_delta = self.qp.stats().snapshot() - stats0;
        if self.heatmap.is_enabled() {
            for (p, _, span) in &stable {
                self.heatmap.record_load(*p, span.len() as u64);
            }
        }
        trace.set_vt(s_net, clock0, vt);
        trace.end_span_with(
            s_net,
            &[
                ("round_trips", ArgValue::U64(stats_delta.round_trips)),
                ("bytes_read", ArgValue::U64(stats_delta.bytes_read)),
                (
                    "doorbell_batches",
                    ArgValue::U64(stats_delta.doorbell_batches),
                ),
                ("read_retries", ArgValue::U64(report.read_retries)),
            ],
        );
        Ok((stable, vt))
    }

    /// Exact-rerank pass for quantized batches. Decides which pool
    /// candidates could still enter their query's top-`k` — those whose
    /// error interval reaches below the k-th smallest upper bound —
    /// fetches the missing full-precision vectors with one
    /// [`ReadCause::Rerank`]-tagged doorbell (deduplicated across the
    /// batch and against the node-level exact-vector cache), and swaps
    /// exact distances in. Candidates provably outside the top-k keep
    /// their asymmetric distance: they cannot displace a reranked
    /// survivor, so the final top-k id set equals a full rerank's.
    ///
    /// Base vectors are immutable (mutations live in overflow areas),
    /// so the reads need no version brackets and cache entries never go
    /// stale. Returns the fetch's virtual network time.
    #[allow(clippy::too_many_arguments)]
    fn rerank_exact(
        &self,
        queries: &Dataset,
        k: usize,
        pools: &mut [(Vec<SqCand>, f64)],
        resolved: &HashMap<u32, Arc<LoadedCluster>>,
        doorbell: bool,
        trace: &BatchTrace,
        root: SpanId,
        report: &mut BatchReport,
    ) -> Result<f64> {
        // Per query: pool indices to exactify, with the (partition, row)
        // address of each full vector.
        let mut plan: Vec<Vec<(usize, (u32, u32))>> = Vec::with_capacity(pools.len());
        let mut need: Vec<(u32, u32)> = Vec::new();
        let mut queued: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        {
            let cache = self.rerank_cache.lock();
            for (pool, _) in pools.iter() {
                let mut wanted = Vec::new();
                if !pool.is_empty() && k > 0 {
                    let mut uppers: Vec<f32> = pool.iter().map(|c| c.dist + c.err).collect();
                    uppers.sort_by(f32::total_cmp);
                    let thresh = uppers[k.min(uppers.len()) - 1];
                    for (i, c) in pool.iter().enumerate() {
                        let Some(local) = c.local else { continue };
                        if c.dist - c.err <= thresh {
                            let key = (c.partition, local);
                            wanted.push((i, key));
                            if !cache.contains_key(&key) && queued.insert(key) {
                                need.push(key);
                            }
                        }
                    }
                }
                plan.push(wanted);
            }
        }
        if plan.iter().all(|w| w.is_empty()) {
            return Ok(0.0);
        }

        let dim = self.directory.dim();
        let vec_bytes = (dim * 4) as u64;
        let s_rr = trace.begin_span("rerank", "engine", root);
        let clock0 = self.qp.clock().now_us();
        let candidates: u64 = plan.iter().map(|w| w.len() as u64).sum();
        let mut fetched: Vec<((u32, u32), Vec<f32>)> = Vec::with_capacity(need.len());
        let mut pending = need;
        let mut attempt = 0u32;
        while !pending.is_empty() {
            let mut reqs = Vec::with_capacity(pending.len());
            for &(p, local) in &pending {
                let loc = self.directory.location(p)?;
                let rows = resolved
                    .get(&p)
                    .and_then(|c| c.sq())
                    .map(|sq| sq.len())
                    .ok_or_else(|| {
                        Error::Corrupt(format!("rerank candidate in unresolved cluster {p}"))
                    })?;
                // Serialized clusters end with the raw row-major f32
                // vectors, so row `local` sits a fixed distance from
                // the blob's tail.
                let off = loc.cluster_off + loc.cluster_len
                    - (rows as u64 - u64::from(local)) * vec_bytes;
                reqs.push(
                    rdma_sim::ReadReq::new(self.rkey, off, vec_bytes)
                        .with_cause(ReadCause::Rerank),
                );
            }
            let outcome = {
                let _scope = trace.enter_scope(s_rr);
                if doorbell {
                    self.qp.read_doorbell(&reqs)
                } else {
                    reqs.iter()
                        .map(|r| self.qp.read_with_cause(r.rkey, r.offset, r.len, r.cause))
                        .collect::<std::result::Result<Vec<_>, _>>()
                }
            };
            match outcome {
                Ok(buffers) => {
                    for (&key, buf) in pending.iter().zip(&buffers) {
                        let v = vecsim::io::le_words(buf, f32::from_le_bytes).collect();
                        fetched.push((key, v));
                    }
                    pending.clear();
                }
                Err(rdma_sim::Error::RetriesExhausted { .. }) => {
                    attempt += 1;
                    report.read_retries += 1;
                    if attempt > self.config.read_retry_limit() {
                        if self.config.degraded_ok() {
                            // Unfetched candidates keep their asymmetric
                            // distances: the answer degrades gracefully
                            // instead of failing the batch.
                            break;
                        }
                        trace.end_span(s_rr);
                        return Err(Error::ReadRetriesExhausted {
                            partition: pending[0].0,
                            attempts: attempt,
                        });
                    }
                    self.backoff(attempt, trace, s_rr, pending.len());
                }
                Err(e) => {
                    trace.end_span(s_rr);
                    return Err(e.into());
                }
            }
        }
        let vt = self.qp.clock().now_us() - clock0;
        let fetched_n = fetched.len() as u64;
        let mut exacted = 0u64;
        {
            let mut cache = self.rerank_cache.lock();
            if cache.len() + fetched.len() > RERANK_CACHE_CAP {
                cache.clear();
            }
            for (key, v) in fetched {
                cache.insert(key, v);
            }
            for (qi, (pool, _)) in pools.iter_mut().enumerate() {
                let q = queries.get(qi);
                for &(ci, key) in &plan[qi] {
                    if let Some(v) = cache.get(&key) {
                        pool[ci].dist = vecsim::l2_sq(q, v);
                        pool[ci].err = 0.0;
                        exacted += 1;
                    }
                }
            }
        }
        trace.set_vt(s_rr, clock0, vt);
        trace.end_span_with(
            s_rr,
            &[
                ("candidates", ArgValue::U64(candidates)),
                ("fetched", ArgValue::U64(fetched_n)),
                ("exacted", ArgValue::U64(exacted)),
            ],
        );
        Ok(vt)
    }

    /// Heatmap-driven background prefetch: warms the LRU cache with the
    /// hottest non-resident clusters (EWMA hotness from the partition
    /// heatmap), bounded by the node's prefetch byte budget and the
    /// cache capacity. Runs synchronously between batches — the
    /// substrate's verb schedule is deterministic, and a detached thread
    /// would race it — so `query_batch` invokes it *after* a batch's
    /// accounting closes; prefetch traffic lands on the engine's
    /// `dhnsw_prefetch_*` counters, never on a batch report.
    ///
    /// Best-effort by design: any substrate error or unresolved version
    /// churn abandons the round silently. Returns the number of clusters
    /// admitted to the cache.
    pub fn prefetch_hot(&self) -> usize {
        let budget = self.prefetch_budget_bytes();
        if budget == 0 || self.mode == SearchMode::Naive || !self.heatmap.is_enabled() {
            return 0;
        }
        let capacity = self.cache.lock().capacity();
        if capacity == 0 {
            return 0;
        }
        // Rank every partition by EWMA hotness (partition id as the
        // deterministic tie-break) and aim the cache at the hottest
        // `capacity` of them. Steering toward that *target set* — rather
        // than a "hotter than the coldest resident" floor — makes
        // repeated rounds converge: once the residents are exactly the
        // target, no pick survives the resident filter and prefetch
        // goes quiet instead of ping-ponging entries of equal heat.
        let mut heat = self.heatmap.snapshot();
        heat.sort_by(|a, b| {
            b.hotness
                .partial_cmp(&a.hotness)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.partition.cmp(&b.partition))
        });
        let target: Vec<u32> = heat
            .iter()
            .filter(|h| h.hotness > 0.0)
            .take(capacity)
            .map(|h| h.partition)
            .collect();
        let mut picks: Vec<u32> = Vec::new();
        let mut planned_bytes = 0u64;
        {
            let cache = self.cache.lock();
            for &p in &target {
                if cache.contains(p) {
                    continue;
                }
                let Ok((_, len)) = self.load_span(p) else {
                    continue;
                };
                // Budget-gated picks are skipped, not queued: they fail
                // the same gate every round, so a too-small budget never
                // causes repeated load traffic for the same cluster.
                if planned_bytes + len > budget {
                    continue;
                }
                planned_bytes += len;
                picks.push(p);
            }
        }
        if picks.is_empty() {
            return 0;
        }

        let trace = self.telemetry.spans().begin("prefetch");
        let root = trace.begin_span("prefetch", "engine", SpanId::NONE);
        let clock0 = self.qp.clock().now_us();
        let stats0 = self.qp.stats().snapshot();
        let versioned = self.directory.has_version_slots();
        let doorbell = self.mode == SearchMode::Full;
        let mut stable: Vec<(u32, u64, Vec<u8>)> = Vec::new();
        let mut pending = picks.clone();
        let mut attempt: u32 = 0;
        'load: while !pending.is_empty() {
            let mut reqs = Vec::with_capacity(3 * pending.len());
            for &p in &pending {
                let Ok((off, len)) = self.load_span(p) else {
                    break 'load;
                };
                if versioned {
                    let Ok(vs_off) = self.directory.version_slot_off(p) else {
                        break 'load;
                    };
                    let vs = rdma_sim::ReadReq::new(self.rkey, vs_off, 8)
                        .with_cause(ReadCause::VersionCheck);
                    reqs.push(vs);
                    reqs.push(
                        rdma_sim::ReadReq::new(self.rkey, off, len)
                            .with_cause(ReadCause::Prefetch),
                    );
                    reqs.push(vs);
                } else {
                    reqs.push(
                        rdma_sim::ReadReq::new(self.rkey, off, len)
                            .with_cause(ReadCause::Prefetch),
                    );
                }
            }
            let outcome = {
                let _scope = trace.enter_scope(root);
                if doorbell {
                    self.qp.read_doorbell(&reqs)
                } else {
                    reqs.iter()
                        .map(|r| self.qp.read_with_cause(r.rkey, r.offset, r.len, r.cause))
                        .collect::<std::result::Result<Vec<_>, _>>()
                }
            };
            // Best effort: a fault or persistent version churn abandons
            // the survivors rather than burning the batch path's budget.
            let Ok(buffers) = outcome else {
                break;
            };
            let mut bufs = buffers.into_iter();
            let mut unstable: Vec<u32> = Vec::new();
            for &p in &pending {
                if versioned {
                    let (Ok(before), Some(span)) =
                        (read_version(&bufs.next().expect("version read")), bufs.next())
                    else {
                        break 'load;
                    };
                    let Ok(after) = read_version(&bufs.next().expect("version read")) else {
                        break 'load;
                    };
                    if before == after {
                        if self.use_sq && after != 0 {
                            // A mutated partition would need an overflow
                            // follow-up read; prefetch is best-effort,
                            // so leave it to the query path.
                        } else {
                            stable.push((p, after, span));
                        }
                    } else {
                        unstable.push(p);
                    }
                } else {
                    stable.push((p, 0, bufs.next().expect("span read")));
                }
            }
            if unstable.is_empty() {
                break;
            }
            attempt += 1;
            if attempt > self.config.read_retry_limit() {
                break;
            }
            self.backoff(attempt, &trace, root, unstable.len());
            pending = unstable;
        }

        let threads = self.config.effective_search_threads();
        let parts: Vec<u32> = stable.iter().map(|(p, _, _)| *p).collect();
        let versions: Vec<u64> = stable.iter().map(|(_, v, _)| *v).collect();
        let bufs: Vec<Vec<u8>> = stable.into_iter().map(|(_, _, b)| b).collect();
        let mut admitted = 0usize;
        let materialized = if self.use_sq {
            materialize_sq_parallel(&self.directory, &parts, &bufs, threads)
        } else {
            materialize_parallel(&self.directory, &parts, &bufs, threads)
        };
        if let Ok(loaded) = materialized {
            let mut cache = self.cache.lock();
            // Make room by dropping the coldest residents *outside* the
            // target set, so this round's admissions never LRU-evict each
            // other or a resident hotter than what they replace.
            let mut need = (cache.len() + parts.len()).saturating_sub(capacity);
            if need > 0 {
                let in_target: std::collections::HashSet<u32> = target.iter().copied().collect();
                for h in heat.iter().rev() {
                    if need == 0 {
                        break;
                    }
                    if !in_target.contains(&h.partition) && cache.invalidate(h.partition) {
                        self.heatmap.record_eviction(h.partition);
                        need -= 1;
                    }
                }
            }
            for ((&p, cluster), version) in
                parts.iter().zip(&loaded).zip(versions.iter().copied())
            {
                // Deliberately no `record_load` here: prefetch traffic
                // must not feed back into the hotness signal it follows.
                if let Some(victim) = cache.put(p, Arc::clone(cluster), version) {
                    self.heatmap.record_eviction(victim);
                }
                admitted += 1;
            }
        }
        let delta = self.qp.stats().snapshot() - stats0;
        self.metrics.prefetch_rounds.inc();
        self.metrics.prefetch_clusters.add(admitted as u64);
        self.metrics.prefetch_bytes.add(delta.bytes_read);
        trace.set_vt(root, clock0, self.qp.clock().now_us() - clock0);
        trace.end_span_with(
            root,
            &[
                ("planned", ArgValue::U64(picks.len() as u64)),
                ("admitted", ArgValue::U64(admitted as u64)),
                ("bytes_read", ArgValue::U64(delta.bytes_read)),
                ("round_trips", ArgValue::U64(delta.round_trips)),
                ("budget_bytes", ArgValue::U64(budget)),
            ],
        );
        self.telemetry.spans().finish(trace);
        self.flush_telemetry();
        admitted
    }

    /// Charges one exponential-backoff step to virtual time before an
    /// engine-level read retry and records a `read_retry` span instant.
    fn backoff(&self, attempt: u32, trace: &BatchTrace, parent: SpanId, clusters: usize) {
        let us = self.config.retry_backoff_us() * f64::from(1u32 << (attempt - 1).min(16));
        self.qp.clock().advance_us(us);
        trace.instant(
            "read_retry",
            "engine",
            parent,
            &[
                ("attempt", ArgValue::U64(u64::from(attempt))),
                ("clusters", ArgValue::U64(clusters as u64)),
                ("backoff_us", ArgValue::F64(us)),
            ],
        );
    }

    /// The Naive path: each query fetches each of its clusters with an
    /// individual read; nothing is reused within or across batches.
    #[allow(clippy::too_many_arguments)]
    fn query_batch_naive(
        &self,
        queries: &Dataset,
        k: usize,
        ef: usize,
        b: usize,
        trace: &BatchTrace,
        root: SpanId,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        let mut report = BatchReport {
            queries: queries.len(),
            ..Default::default()
        };

        // Meta routing (still cached locally — the naive baseline differs
        // only in how cluster bytes cross the network).
        let s_meta = trace.begin_span("meta_route", "engine", root);
        let t_meta = Instant::now();
        let routes: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| self.meta.route(q, b).iter().map(|n| n.id).collect())
            .collect();
        report.breakdown.meta_hnsw_us = t_meta.elapsed().as_secs_f64() * 1e6;
        trace.end_span_with(s_meta, &[("fanout", ArgValue::U64(b as u64))]);

        // Heatmap sampling (the naive baseline still routes, and every
        // route is a load — it has no cache).
        let heat = self.heatmap.is_enabled();
        if heat {
            self.heatmap.begin_batch();
            for route in &routes {
                for &p in route {
                    self.heatmap.record_route(p);
                }
            }
        }

        // The naive scheme never dedups its loads, but "unique clusters"
        // is still a property of the batch, not of the fetch strategy:
        // report the batch-wide union so the metric is comparable across
        // modes (loads exceeding it measure exactly the reuse forgone).
        report.unique_clusters = routes
            .iter()
            .flatten()
            .copied()
            .collect::<std::collections::HashSet<u32>>()
            .len();

        // Per query: fetch its clusters with individual reads, then
        // deserialize and search them immediately. Buffers are dropped
        // after each query — the naive scheme has no reuse to exploit, so
        // memory stays O(b × cluster) regardless of batch size. Network
        // time and compute time are split via clock deltas per query;
        // compute fans out over the instance's worker threads in stripes
        // to keep that split exact.
        let threads = self.config.effective_search_threads();
        let stats0 = self.qp.stats().snapshot();
        let mut results = Vec::with_capacity(queries.len());
        let mut coverage = Vec::with_capacity(queries.len());
        let mut sub_us = 0.0f64;
        let mut net_us = 0.0f64;
        let stripe = threads.max(1) * 4;
        for (chunk_idx, route_chunk) in routes.chunks(stripe).enumerate() {
            let base = chunk_idx * stripe;
            // Network phase for this stripe.
            let s_net = trace.begin_span("network", "engine", root);
            let clock0 = self.qp.clock().now_us();
            let mut buffers: Vec<Vec<Option<Vec<u8>>>> = Vec::with_capacity(route_chunk.len());
            {
                let _scope = trace.enter_scope(s_net);
                for route in route_chunk {
                    report.raw_cluster_demand += route.len();
                    let reqs =
                        read_requests_tagged(&self.directory, self.rkey, route, ReadCause::Naive)?;
                    let mut per_query = Vec::with_capacity(reqs.len());
                    for (&p, r) in route.iter().zip(&reqs) {
                        match self.read_naive_with_retry(
                            p,
                            r,
                            trace,
                            s_net,
                            &mut report.read_retries,
                        )? {
                            Some(buf) => {
                                report.clusters_loaded += 1;
                                if heat {
                                    self.heatmap.record_load(p, buf.len() as u64);
                                }
                                per_query.push(Some(buf));
                            }
                            None => per_query.push(None),
                        }
                    }
                    buffers.push(per_query);
                }
            }
            let stripe_net_us = self.qp.clock().now_us() - clock0;
            net_us += stripe_net_us;
            trace.set_vt(s_net, clock0, stripe_net_us);
            trace.end_span_with(s_net, &[("stripe", ArgValue::U64(chunk_idx as u64))]);

            // Compute phase for this stripe.
            let s_search = trace.begin_span("sub_hnsw_search", "engine", root);
            let t_sub = Instant::now();
            let directory = &self.directory;
            let stripe_results = run_indexed(route_chunk.len(), threads, |j| {
                let q = queries.get(base + j);
                let mut top = TopK::new(k);
                let mut seen = std::collections::HashSet::new();
                let mut searched = 0usize;
                for (&p, buf) in route_chunk[j].iter().zip(&buffers[j]) {
                    let Some(buf) = buf else { continue };
                    let loc = directory.location(p)?;
                    let (cluster_bytes, overflow) = loc.split(buf)?;
                    let loaded = LoadedCluster::from_remote(cluster_bytes, overflow)?;
                    searched += 1;
                    for n in loaded.search(q, k, ef) {
                        if seen.insert(n.id) {
                            top.push(n.id, n.dist);
                        }
                    }
                }
                let total = route_chunk[j].len();
                let cov = if total == 0 {
                    1.0
                } else {
                    searched as f64 / total as f64
                };
                Ok((top.into_sorted_vec(), cov))
            })?;
            for (r, cov) in stripe_results {
                coverage.push(cov);
                results.push(r);
            }
            sub_us += t_sub.elapsed().as_secs_f64() * 1e6;
            trace.end_span_with(s_search, &[("stripe", ArgValue::U64(chunk_idx as u64))]);
        }
        report.breakdown.network_us = net_us;
        report.breakdown.sub_hnsw_us = sub_us;
        let delta = self.qp.stats().snapshot() - stats0;
        report.round_trips = delta.round_trips;
        report.bytes_read = delta.bytes_read;
        report.ledger = CostLedger::from_delta(&delta);
        if coverage.iter().any(|&c| c < 1.0) {
            report.degraded_queries = coverage.iter().filter(|&&c| c < 1.0).count();
            report.coverage = coverage;
        }
        Ok((results, report))
    }

    /// One naive-mode cluster read with the engine-level retry policy:
    /// substrate retransmission exhaustion is retried with backoff; past
    /// the budget the cluster is skipped (`None`) when degraded results
    /// are allowed, or the batch fails.
    fn read_naive_with_retry(
        &self,
        partition: u32,
        req: &rdma_sim::ReadReq,
        trace: &BatchTrace,
        parent: SpanId,
        retries: &mut u64,
    ) -> Result<Option<Vec<u8>>> {
        let mut attempt = 0u32;
        loop {
            // First attempt keeps the request's own cause (naive fetch);
            // re-sends after a retransmission-budget failure are retries.
            let cause = if attempt == 0 {
                req.cause
            } else {
                ReadCause::Retry
            };
            match self.qp.read_with_cause(req.rkey, req.offset, req.len, cause) {
                Ok(buf) => return Ok(Some(buf)),
                Err(rdma_sim::Error::RetriesExhausted { .. }) => {
                    attempt += 1;
                    *retries += 1;
                    if attempt > self.config.read_retry_limit() {
                        if self.config.degraded_ok() {
                            return Ok(None);
                        }
                        return Err(Error::ReadRetriesExhausted {
                            partition,
                            attempts: attempt,
                        });
                    }
                    self.backoff(attempt, trace, parent, 1);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Inserts a vector: classify via the cached meta-HNSW, allocate a
    /// global id (`FAA` on the directory's id counter), reserve a slot in
    /// the target group's shared overflow area (`FAA` on its `used`
    /// counter), `RDMA_WRITE` the record (commit marker last), and `FAA`
    /// the partition's version slot to publish the mutation — four
    /// one-sided verbs, no memory-node CPU involvement. The local cached
    /// copy of the affected cluster is invalidated so the next load
    /// observes the insert; remote caches observe the version bump.
    ///
    /// Returns the assigned global id.
    ///
    /// # Errors
    ///
    /// - [`Error::DimensionMismatch`] for a wrong-length vector.
    /// - [`Error::OverflowFull`] when the group's overflow area is
    ///   exhausted (the reserved id is burned; re-laying-out the group is
    ///   a rebuild-time operation, as in the paper).
    pub fn insert(&self, v: &[f32]) -> Result<u32> {
        let result = self.insert_impl(v);
        self.metrics.inserts.inc();
        if matches!(result, Err(Error::OverflowFull { .. })) {
            self.metrics.insert_overflow.inc();
        }
        self.flush_telemetry();
        result
    }

    fn insert_impl(&self, v: &[f32]) -> Result<u32> {
        if v.len() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: v.len(),
            });
        }
        let partition = self.meta.classify_with_beam(v, self.config.fanout())?;
        let loc = *self.directory.location(partition)?;
        let record_size = self.directory.record_size() as u64;

        let global_id = self.qp.faa(self.rkey, ID_COUNTER_OFFSET, 1)? as u32;
        let used = self
            .qp
            .faa(self.rkey, loc.overflow_counter_off(), record_size)?;
        if used + record_size > loc.overflow_capacity() {
            // Give the reservation back so the remote counter keeps
            // meaning "bytes handed out": without this, health checks
            // could not tell a full area from a corrupt counter.
            self.qp
                .faa(self.rkey, loc.overflow_counter_off(), record_size.wrapping_neg())?;
            return Err(Error::OverflowFull {
                partition,
                capacity: loc.overflow_capacity(),
            });
        }
        let record = OverflowRecord::insert(partition, global_id, v.to_vec());
        self.qp
            .write(self.rkey, loc.overflow_off + 8 + used, &record.to_bytes())?;
        // Publish the mutation *after* the record (with its commit
        // marker) is fully written: readers that observe the new version
        // are guaranteed to decode a committed record, and readers that
        // raced the write see an uncommitted slot and skip it.
        self.bump_version(partition)?;
        self.cache.lock().invalidate(partition);
        Ok(global_id)
    }

    /// FAAs a partition's directory version slot after a committed
    /// mutation (no-op for pre-versioning directories).
    fn bump_version(&self, partition: u32) -> Result<()> {
        if self.directory.has_version_slots() {
            self.qp
                .faa(self.rkey, self.directory.version_slot_off(partition)?, 1)?;
        }
        Ok(())
    }

    /// Batched insertion: the write-path analogue of query-aware batched
    /// loading. For `n` vectors the single-insert path costs `4n` round
    /// trips; this path costs `1 + G + ceil(n / doorbell_limit) + P`
    /// where `G` is the number of distinct overflow areas touched and `P`
    /// the distinct partitions mutated — one `FAA` allocates the whole id
    /// range, one `FAA` per group reserves all of that group's slots at
    /// once, every record travels in one doorbell-batched `RDMA_WRITE`,
    /// and one version `FAA` per partition publishes the batch.
    ///
    /// Returns one entry per input vector, aligned by position:
    /// `Ok(global_id)` or [`Error::OverflowFull`] for vectors whose group
    /// ran out of overflow space (their reserved ids are burned, exactly
    /// as on the single-insert path).
    ///
    /// # Errors
    ///
    /// Whole-batch failures — [`Error::DimensionMismatch`] or a substrate
    /// error — abort the call; per-vector overflow exhaustion is reported
    /// in the returned vector instead.
    pub fn insert_batch(&self, vectors: &Dataset) -> Result<Vec<Result<u32>>> {
        let results = self.insert_batch_impl(vectors)?;
        self.metrics.inserts.add(results.len() as u64);
        let overflowed = results
            .iter()
            .filter(|r| matches!(r, Err(Error::OverflowFull { .. })))
            .count() as u64;
        self.metrics.insert_overflow.add(overflowed);
        self.flush_telemetry();
        Ok(results)
    }

    fn insert_batch_impl(&self, vectors: &Dataset) -> Result<Vec<Result<u32>>> {
        if vectors.is_empty() {
            return Ok(Vec::new());
        }
        if vectors.dim() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: vectors.dim(),
            });
        }
        let n = vectors.len();
        let record_size = self.directory.record_size() as u64;

        // Classify everything (local meta-HNSW compute) and group the
        // inserts by the overflow area they land in.
        let mut partitions = Vec::with_capacity(n);
        let mut by_area: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, v) in vectors.iter().enumerate() {
            let p = self.meta.classify_with_beam(v, self.config.fanout())?;
            let loc = self.directory.location(p)?;
            partitions.push(p);
            by_area.entry(loc.overflow_counter_off()).or_default().push(i);
        }

        // One FAA allocates the whole id range.
        let id_base = self.qp.faa(self.rkey, ID_COUNTER_OFFSET, n as u64)?;

        // One FAA per touched overflow area reserves all its slots.
        let mut results: Vec<Option<Result<u32>>> = (0..n).map(|_| None).collect();
        let mut writes = Vec::with_capacity(n);
        let mut touched_partitions = Vec::new();
        let mut areas: Vec<(&u64, &Vec<usize>)> = by_area.iter().collect();
        areas.sort_by_key(|(off, _)| **off); // deterministic order
        for (&area_off, indices) in areas {
            let want = record_size * indices.len() as u64;
            let start = self.qp.faa(self.rkey, area_off, want)?;
            // Representative location for capacity checks (all partners
            // of a group share the same overflow geometry).
            let loc = *self.directory.location(partitions[indices[0]])?;
            let mut rejected = 0u64;
            for (slot, &i) in indices.iter().enumerate() {
                let off = start + record_size * slot as u64;
                let global_id = (id_base + i as u64) as u32;
                if off + record_size > loc.overflow_capacity() {
                    rejected += record_size;
                    results[i] = Some(Err(Error::OverflowFull {
                        partition: partitions[i],
                        capacity: loc.overflow_capacity(),
                    }));
                    continue;
                }
                let record =
                    OverflowRecord::insert(partitions[i], global_id, vectors.get(i).to_vec());
                writes.push(rdma_sim::WriteReq::new(
                    self.rkey,
                    area_off + 8 + off,
                    record.to_bytes(),
                ));
                touched_partitions.push(partitions[i]);
                results[i] = Some(Ok(global_id));
            }
            // Return the over-reservation so the counter tracks bytes
            // actually handed out (see the single-insert path).
            if rejected > 0 {
                self.qp.faa(self.rkey, area_off, rejected.wrapping_neg())?;
            }
        }

        // All accepted records in one doorbell, then one version bump
        // per mutated partition — after the commit markers are in place.
        self.qp.write_doorbell(&writes)?;
        touched_partitions.sort_unstable();
        touched_partitions.dedup();
        for &p in &touched_partitions {
            self.bump_version(p)?;
        }
        {
            let mut cache = self.cache.lock();
            for p in touched_partitions {
                cache.invalidate(p);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every input index is resolved"))
            .collect())
    }

    /// Deletes a vector by writing a tombstone record into its group's
    /// shared overflow area — the same commit discipline as an insert
    /// (slot `FAA` + record `WRITE` + version `FAA`), no re-layout
    /// required. `v` must be the
    /// deleted vector's value: the meta-HNSW classifies it to the
    /// partition that holds it, exactly as the insert path placed it.
    /// The deletion becomes durable immediately and permanent at the next
    /// [`crate::VectorStore::rebuild`].
    ///
    /// # Errors
    ///
    /// - [`Error::DimensionMismatch`] for a wrong-length vector.
    /// - [`Error::OverflowFull`] when the group's overflow area has no
    ///   slot left for the tombstone.
    pub fn delete(&self, v: &[f32], global_id: u32) -> Result<()> {
        let result = self.delete_impl(v, global_id);
        self.metrics.deletes.inc();
        self.flush_telemetry();
        result
    }

    fn delete_impl(&self, v: &[f32], global_id: u32) -> Result<()> {
        if v.len() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: v.len(),
            });
        }
        let partition = self.meta.classify_with_beam(v, self.config.fanout())?;
        let loc = *self.directory.location(partition)?;
        let record_size = self.directory.record_size() as u64;
        let used = self
            .qp
            .faa(self.rkey, loc.overflow_counter_off(), record_size)?;
        if used + record_size > loc.overflow_capacity() {
            self.qp
                .faa(self.rkey, loc.overflow_counter_off(), record_size.wrapping_neg())?;
            return Err(Error::OverflowFull {
                partition,
                capacity: loc.overflow_capacity(),
            });
        }
        let record = OverflowRecord::tombstone(partition, global_id, self.directory.dim());
        self.qp
            .write(self.rkey, loc.overflow_off + 8 + used, &record.to_bytes())?;
        self.bump_version(partition)?;
        self.cache.lock().invalidate(partition);
        Ok(())
    }
}

/// Runs `f(i)` for `i in 0..n` across `threads` workers, preserving
/// output order and propagating the first error.
fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(&f).collect();
    }
    let mut slots: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, slot) in slots.chunks_mut(chunk).enumerate() {
            let start = t * chunk;
            let f = &f;
            s.spawn(move || {
                for (off, dst) in slot.iter_mut().enumerate() {
                    *dst = Some(f(start + off));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is produced by its worker"))
        .collect()
}

/// Deserializes freshly fetched cluster buffers in parallel.
fn materialize_parallel(
    directory: &Directory,
    partitions: &[u32],
    buffers: &[Vec<u8>],
    threads: usize,
) -> Result<Vec<Arc<LoadedCluster>>> {
    run_indexed(partitions.len(), threads, |i| {
        let loc = directory.location(partitions[i])?;
        let (cluster_bytes, overflow) = loc.split(&buffers[i])?;
        Ok(Arc::new(LoadedCluster::from_remote(cluster_bytes, overflow)?))
    })
}

/// Deserializes freshly fetched compressed (SQ8) cluster buffers in
/// parallel. Each buffer is the compressed blob, optionally followed by
/// the group's raw overflow area (see [`StableLoads`]); an absent tail
/// means the partition's version slot proved the overflow pristine.
fn materialize_sq_parallel(
    directory: &Directory,
    partitions: &[u32],
    buffers: &[Vec<u8>],
    threads: usize,
) -> Result<Vec<Arc<LoadedCluster>>> {
    run_indexed(partitions.len(), threads, |i| {
        let p = partitions[i];
        let (_, sq_len) = directory
            .sq_span(p)?
            .ok_or_else(|| Error::Corrupt(format!("partition {p} has no sq span")))?;
        let sq_len = sq_len as usize;
        let buf = &buffers[i];
        if buf.len() < sq_len {
            return Err(Error::Corrupt(format!(
                "sq span buffer is {} bytes, expected at least {sq_len}",
                buf.len()
            )));
        }
        let (sq_bytes, rest) = buf.split_at(sq_len);
        let overflow = if rest.is_empty() { None } else { Some(rest) };
        Ok(Arc::new(LoadedCluster::from_remote_sq(sq_bytes, overflow)?))
    })
}

/// Decodes one 8-byte version-slot read.
fn read_version(buf: &[u8]) -> Result<u64> {
    let raw: [u8; 8] = buf
        .try_into()
        .map_err(|_| Error::Corrupt("version slot short read".into()))?;
    Ok(u64::from_le_bytes(raw))
}

/// The sub-search scheduler: executes a micro-batch's probes
/// **cluster-major**. `routes[lo..hi]` is flattened into `(partition,
/// query, route position)` probes, sorted by partition and cut into
/// `threads` contiguous runs, so each worker serves every query of a
/// cluster back to back while the cluster is hot in its cache, out of
/// one [`SearchScratch`] and one hit buffer. `probe(partition, cluster,
/// query, ..)` appends a probe's hits; `merge` then folds each query's
/// hit lists — handed over in **route order**, whatever order they were
/// computed in — into its result. Returns each query's result with the
/// fraction of its routed clusters that were actually searched; with
/// `allow_missing` false an unresolved cluster is a corruption error
/// (every planned load must have landed), with it true the cluster is
/// skipped and the coverage dips below 1 (degraded mode).
fn probe_cluster_major<T, R, P, M>(
    routes: &[Vec<u32>],
    resolved: &HashMap<u32, Arc<LoadedCluster>>,
    threads: usize,
    allow_missing: bool,
    probe: P,
    merge: M,
) -> Result<Vec<(R, f64)>>
where
    T: Send + Sync,
    R: Send,
    P: Fn(u32, &LoadedCluster, usize, &mut SearchScratch, &mut Vec<T>) + Sync,
    M: Fn(&[&[T]]) -> R + Sync,
{
    // `offsets[i]..offsets[i + 1]` are query i's route positions.
    let mut offsets = vec![0usize];
    let mut searched = vec![0usize; routes.len()];
    let mut probes: Vec<(u32, u32, u32)> = Vec::new();
    for (i, route) in routes.iter().enumerate() {
        for (pos, p) in route.iter().enumerate() {
            if resolved.contains_key(p) {
                probes.push((*p, i as u32, pos as u32));
                searched[i] += 1;
            } else if !allow_missing {
                return Err(Error::Corrupt(format!("cluster {p} missing after load")));
            }
        }
        offsets.push(offsets[i] + route.len());
    }
    probes.sort_unstable();
    let runs: Vec<&[(u32, u32, u32)]> = probes
        .chunks(probes.len().div_ceil(threads.max(1)).max(1))
        .collect();
    let done = run_indexed(runs.len(), threads, |r| {
        let mut scratch = SearchScratch::default();
        let mut hits = Vec::new();
        let mut ends = Vec::with_capacity(runs[r].len());
        for &(p, query, _) in runs[r] {
            probe(p, &resolved[&p], query as usize, &mut scratch, &mut hits);
            ends.push(hits.len());
        }
        Ok((hits, ends))
    })?;
    let mut lists: Vec<&[T]> = vec![&[]; offsets[routes.len()]];
    for (run, (hits, ends)) in runs.iter().zip(&done) {
        let mut start = 0;
        for (&(_, query, pos), &end) in run.iter().zip(ends) {
            lists[offsets[query as usize] + pos as usize] = &hits[start..end];
            start = end;
        }
    }
    run_indexed(routes.len(), threads, |i| {
        let lists = &lists[offsets[i]..offsets[i + 1]];
        let cov = if lists.is_empty() {
            1.0
        } else {
            searched[i] as f64 / lists.len() as f64
        };
        Ok((merge(lists), cov))
    })
}

/// Searches each query over its routed clusters and merges per-query
/// top-k, keeping the first copy of a global id in route order — a
/// forced representative can appear in two clusters. `routes[i]`
/// belongs to query `base + i`, so pipeline stages can pass a route
/// sub-slice against the full query set. Scheduling, coverage and
/// missing-cluster handling are [`probe_cluster_major`]'s.
#[allow(clippy::too_many_arguments)]
fn search_over(
    routes: &[Vec<u32>],
    queries: &Dataset,
    base: usize,
    resolved: &HashMap<u32, Arc<LoadedCluster>>,
    k: usize,
    ef: usize,
    threads: usize,
    allow_missing: bool,
) -> Result<Vec<(Vec<Neighbor>, f64)>> {
    probe_cluster_major(
        routes,
        resolved,
        threads,
        allow_missing,
        |_, cluster, i, scratch, hits| {
            let mut stats = SearchStats::default();
            cluster.search_into(queries.get(base + i), k, ef, scratch, &mut stats, hits);
        },
        |lists: &[&[Neighbor]]| {
            let mut top = TopK::new(k);
            for (j, list) in lists.iter().enumerate() {
                for n in list.iter() {
                    // Ids are unique within a list, so only earlier
                    // lists can hold a copy.
                    if !lists[..j].iter().any(|l| l.iter().any(|m| m.id == n.id)) {
                        top.push(n.id, n.dist);
                    }
                }
            }
            top.into_sorted_vec()
        },
    )
}

/// Quantized analogue of [`search_over`]: each query's routed clusters
/// are scanned with asymmetric distances over the SQ8 codes and merged
/// into a candidate pool of up to `pool_k` (deduplicated by global id,
/// keeping the closest copy). Each candidate carries its rerank address
/// and the worst-case quantization error of its distance; overflow
/// inserts are already exact (error zero, no address). A full-precision
/// cluster encountered in the cache still contributes — its hits enter
/// the pool as exact candidates.
fn search_over_sq(
    routes: &[Vec<u32>],
    queries: &Dataset,
    base: usize,
    resolved: &HashMap<u32, Arc<LoadedCluster>>,
    pool_k: usize,
    threads: usize,
    allow_missing: bool,
) -> Result<Vec<(Vec<SqCand>, f64)>> {
    probe_cluster_major(
        routes,
        resolved,
        threads,
        allow_missing,
        |partition, cluster, i, scratch, pool| {
            let q = queries.get(base + i);
            let mut stats = SearchStats::default();
            if let Some(sq) = cluster.sq() {
                let hits = cluster.search_sq_with_stats(q, pool_k, &mut stats);
                pool.extend(hits.iter().map(|h| SqCand {
                    id: h.id,
                    dist: h.dist,
                    partition,
                    local: h.local,
                    err: h.local.map_or(0.0, |_| sq.params().l2_error_bound(h.dist)),
                }));
            } else {
                let mut exact = Vec::new();
                cluster.search_into(q, pool_k, pool_k.max(16), scratch, &mut stats, &mut exact);
                pool.extend(exact.iter().map(|n| SqCand {
                    id: n.id,
                    dist: n.dist,
                    partition,
                    local: None,
                    err: 0.0,
                }));
            }
        },
        |lists: &[&[SqCand]]| {
            let mut pool = lists.concat();
            // Group the copies of each id closest first (the sort is
            // stable, so equal copies stay in route order) and keep one
            // per id.
            pool.sort_by(|a, b| a.id.cmp(&b.id).then(a.dist.total_cmp(&b.dist)));
            pool.dedup_by_key(|c| c.id);
            pool.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
            pool.truncate(pool_k);
            pool
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::{gen, ground_truth, recall, Metric};

    fn setup(n: usize) -> (Dataset, VectorStore) {
        let data = gen::sift_like(n, 77).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        (data, store)
    }

    #[test]
    fn all_modes_answer_k_results() {
        let (data, store) = setup(600);
        let queries = gen::perturbed_queries(&data, 16, 0.02, 78).unwrap();
        for mode in [SearchMode::Full, SearchMode::NoDoorbell, SearchMode::Naive] {
            let node = store.connect(mode).unwrap();
            let (results, report) = node.query_batch(&queries, 10, 32).unwrap();
            assert_eq!(results.len(), 16, "{mode}");
            for r in &results {
                assert_eq!(r.len(), 10, "{mode}");
                for w in r.windows(2) {
                    assert!(w[0].dist <= w[1].dist);
                }
            }
            assert!(report.round_trips > 0);
            assert!(report.bytes_read > 0);
        }
    }

    #[test]
    fn modes_agree_on_results_for_cold_identical_state() {
        // Network strategy must not change *what* is found, only cost.
        let (data, store) = setup(500);
        let queries = gen::perturbed_queries(&data, 8, 0.02, 79).unwrap();
        let full = store.connect(SearchMode::Full).unwrap();
        let nodb = store.connect(SearchMode::NoDoorbell).unwrap();
        let naive = store.connect(SearchMode::Naive).unwrap();
        let (a, _) = full.query_batch(&queries, 5, 32).unwrap();
        let (b, _) = nodb.query_batch(&queries, 5, 32).unwrap();
        let (c, _) = naive.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn recall_is_reasonable_and_improves_with_fanout() {
        let data = gen::sift_like(2_000, 80).unwrap();
        let queries = gen::perturbed_queries(&data, 50, 0.02, 81).unwrap();
        let truth = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);
        let recall_with_b = |b: usize| {
            let store =
                VectorStore::build(data.clone(), &DHnswConfig::small().with_fanout(b)).unwrap();
            let node = store.connect(SearchMode::Full).unwrap();
            let (results, _) = node.query_batch(&queries, 10, 48).unwrap();
            let ids: Vec<Vec<u32>> = results
                .iter()
                .map(|r| r.iter().map(|n| n.id).collect())
                .collect();
            recall::mean_recall(&ids, &truth)
        };
        let r1 = recall_with_b(1);
        let r8 = recall_with_b(8);
        assert!(r8 >= r1, "fanout 8 recall {r8} < fanout 1 recall {r1}");
        assert!(r8 > 0.8, "fanout-8 recall too low: {r8}");
    }

    #[test]
    fn ledger_tiles_bytes_and_attributes_causes_per_mode() {
        let (data, store) = setup(600);
        let queries = gen::perturbed_queries(&data, 16, 0.02, 88).unwrap();
        for mode in [SearchMode::Full, SearchMode::NoDoorbell, SearchMode::Naive] {
            let node = store.connect(mode).unwrap();

            // Cold batch: every byte must be accounted to exactly one
            // cause, and the traffic is dominated by first-time fetches.
            let (_, cold) = node.query_batch(&queries, 5, 32).unwrap();
            assert_eq!(
                cold.ledger.total_bytes(),
                cold.bytes_read,
                "{mode}: cause bytes must tile bytes_read"
            );
            let expect = if mode == SearchMode::Naive {
                ReadCause::Naive
            } else {
                ReadCause::StageLoad
            };
            assert_eq!(cold.ledger.dominant_cause(), Some(expect), "{mode}");
            assert_eq!(cold.ledger.bytes_for(ReadCause::Other), 0, "{mode}");

            // Warm batch: tiling must hold whatever mix of reloads and
            // verifies the (fraction-sized) cache leaves behind.
            let (_, warm) = node.query_batch(&queries, 5, 32).unwrap();
            assert_eq!(warm.ledger.total_bytes(), warm.bytes_read, "{mode}");
        }
    }

    fn sq_setup(n: usize) -> (Dataset, VectorStore) {
        let data = gen::sift_like(n, 77).unwrap();
        let store = VectorStore::build(
            data.clone(),
            &DHnswConfig::small().with_quantize_mode(QuantizeMode::Sq8),
        )
        .unwrap();
        (data, store)
    }

    #[test]
    fn sq_mode_reranks_with_tagged_reads_and_tiles_bytes() {
        let (data, store) = sq_setup(600);
        let queries = gen::perturbed_queries(&data, 16, 0.02, 78).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        assert!(node.is_quantized());
        let (results, report) = node.query_batch(&queries, 10, 32).unwrap();
        assert_eq!(results.len(), 16);
        for r in &results {
            assert_eq!(r.len(), 10);
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
        // Rerank traffic carries its own cause, and the per-cause
        // ledger still tiles bytes_read exactly.
        assert!(report.ledger.bytes_for(ReadCause::Rerank) > 0);
        assert_eq!(report.ledger.total_bytes(), report.bytes_read);
        // A pristine store never pays for overflow bytes: version
        // slots prove every overflow area empty.
        assert_eq!(report.ledger.bytes_for(ReadCause::OverflowScan), 0);

        // The compressed wire format moves far fewer bytes than the
        // uncompressed store answering the same cold batch.
        let full_store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
        let full = full_store.connect(SearchMode::Full).unwrap();
        assert!(!full.is_quantized());
        let (_, full_report) = full.query_batch(&queries, 10, 32).unwrap();
        assert!(
            report.bytes_read * 2 < full_report.bytes_read,
            "sq bytes {} not well under full-precision bytes {}",
            report.bytes_read,
            full_report.bytes_read
        );
    }

    #[test]
    fn sq_mode_observes_overflow_inserts_and_tombstones() {
        let (data, store) = sq_setup(400);
        let node = store.connect(SearchMode::Full).unwrap();
        let mut v = data.get(3).to_vec();
        v[0] += 0.75;
        let gid = node.insert(&v).unwrap();

        // The mutated partition's nonzero version forces the overflow
        // follow-up read, and the insert is found exactly.
        let batch = Dataset::from_rows(&[&v[..]]).unwrap();
        let (hits, report) = node.query_batch(&batch, 1, 32).unwrap();
        assert_eq!(hits[0][0].id, gid);
        assert!(hits[0][0].dist < 1e-6);
        assert!(report.ledger.bytes_for(ReadCause::OverflowScan) > 0);
        assert_eq!(report.ledger.total_bytes(), report.bytes_read);

        // A tombstone removes it from subsequent quantized answers.
        node.delete(&v, gid).unwrap();
        let hits = node.query(&v, 1, 32).unwrap();
        assert_ne!(hits[0].id, gid);
    }

    #[test]
    fn sq_warm_cache_answers_without_reloading_blobs() {
        let data = gen::sift_like(500, 82).unwrap();
        let store = VectorStore::build(
            data.clone(),
            &DHnswConfig::small()
                .with_quantize_mode(QuantizeMode::Sq8)
                .with_cache_fraction(1.0),
        )
        .unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 12, 0.02, 83).unwrap();
        let (cold_r, cold) = node.query_batch(&queries, 5, 32).unwrap();
        let (warm_r, warm) = node.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(cold_r, warm_r, "cache residency must not change answers");
        assert_eq!(warm.ledger.bytes_for(ReadCause::StageLoad), 0);
        // Second pass still pays only for rerank reads it has not
        // cached — never more than the first.
        assert!(warm.ledger.bytes_for(ReadCause::Rerank) <= cold.ledger.bytes_for(ReadCause::Rerank));
        assert_eq!(warm.ledger.total_bytes(), warm.bytes_read);
    }

    #[test]
    fn health_report_folds_sq_tail_into_layout_accounting() {
        let (_, store) = sq_setup(500);
        let node = store.connect(SearchMode::Full).unwrap();
        let report = node.health_report().unwrap();
        assert!(report.layout.sq_bytes > 0);
        assert!(
            (report.layout.utilization + report.layout.fragmentation - 1.0).abs() < 1e-9,
            "utilization {} + fragmentation {} must cover the quantized region",
            report.layout.utilization,
            report.layout.fragmentation
        );
    }

    #[test]
    fn warm_full_cache_shifts_bytes_to_version_checks() {
        // With the cache sized to hold everything, a repeat batch does no
        // stage loads; after a writer bumps one partition's version the
        // next batch mixes a single reload with 8-byte verifies of the
        // surviving pins — both causes must show up, and tile.
        let data = gen::sift_like(600, 90).unwrap();
        let store = VectorStore::build(
            data.clone(),
            &DHnswConfig::small().with_cache_fraction(1.0),
        )
        .unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 16, 0.02, 91).unwrap();
        node.query_batch(&queries, 5, 32).unwrap();

        // Fully warm: nothing to load, so nothing to verify either.
        let (_, warm) = node.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(warm.clusters_loaded, 0);
        assert_eq!(warm.bytes_read, 0);
        assert_eq!(warm.ledger.total_bytes(), 0);
        assert_eq!(warm.ledger.dominant_cause(), None);

        // One insert invalidates its cluster and bumps its version.
        node.insert(data.get(0)).unwrap();
        let (_, mixed) = node.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(mixed.ledger.total_bytes(), mixed.bytes_read);
        if mixed.clusters_loaded > 0 {
            assert!(mixed.ledger.bytes_for(ReadCause::StageLoad) > 0);
            assert!(mixed.ledger.bytes_for(ReadCause::VersionCheck) > 0);
            assert_eq!(mixed.ledger.bytes_for(ReadCause::Naive), 0);
        }
    }

    #[test]
    fn health_probe_and_prefetch_bytes_carry_their_causes() {
        let (data, store) = setup(600);
        let node = store.connect(SearchMode::Full).unwrap();
        let stats0 = node.queue_pair().stats().snapshot();
        node.health_report().unwrap();
        let probe = node.queue_pair().stats().snapshot() - stats0;
        assert!(probe.bytes_for(ReadCause::HealthProbe) > 0);
        assert_eq!(probe.bytes_for(ReadCause::HealthProbe), probe.bytes_read);

        // Warm the heatmap, then force a prefetch round into an emptied
        // cache: its traffic must land on the prefetch cause.
        let queries = gen::perturbed_queries(&data, 16, 0.02, 89).unwrap();
        node.query_batch(&queries, 5, 32).unwrap();
        node.drop_cache();
        node.set_prefetch_budget_bytes(u64::MAX);
        let stats1 = node.queue_pair().stats().snapshot();
        let admitted = node.prefetch_hot();
        assert!(admitted > 0);
        let pf = node.queue_pair().stats().snapshot() - stats1;
        assert!(pf.bytes_for(ReadCause::Prefetch) > 0);
        assert_eq!(
            pf.bytes_for(ReadCause::Prefetch) + pf.bytes_for(ReadCause::VersionCheck),
            pf.bytes_read
        );
    }

    #[test]
    fn full_mode_loads_each_cluster_once_per_batch() {
        let (data, store) = setup(600);
        let queries = gen::perturbed_queries(&data, 64, 0.02, 82).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let (_, report) = node.query_batch(&queries, 5, 16).unwrap();
        assert!(report.raw_cluster_demand >= report.unique_clusters);
        assert_eq!(
            report.clusters_loaded + report.cache_hits,
            report.unique_clusters
        );
        // Loading each unique cluster once means loads <= unique.
        assert!(report.clusters_loaded <= report.unique_clusters);
    }

    #[test]
    fn cache_serves_repeat_batches() {
        let (data, store) = setup(400);
        let queries = gen::perturbed_queries(&data, 8, 0.02, 83).unwrap();
        // Cache big enough to hold everything.
        let store2 = VectorStore::build(data, &DHnswConfig::small().with_cache_fraction(1.0))
            .unwrap();
        let node = store2.connect(SearchMode::Full).unwrap();
        let (_, first) = node.query_batch(&queries, 5, 16).unwrap();
        assert!(first.clusters_loaded > 0);
        let (_, second) = node.query_batch(&queries, 5, 16).unwrap();
        assert_eq!(second.clusters_loaded, 0, "warm batch must be all hits");
        assert_eq!(second.round_trips, 0);
        assert_eq!(second.breakdown.network_us, 0.0);
        let _ = store;
    }

    #[test]
    fn naive_mode_never_reuses() {
        let (data, store) = setup(400);
        let queries = gen::perturbed_queries(&data, 8, 0.02, 84).unwrap();
        let node = store.connect(SearchMode::Naive).unwrap();
        let (_, first) = node.query_batch(&queries, 5, 16).unwrap();
        let (_, second) = node.query_batch(&queries, 5, 16).unwrap();
        assert_eq!(first.round_trips, second.round_trips);
        assert_eq!(
            first.round_trips,
            (queries.len() * store.config().fanout()) as u64
        );
        assert_eq!(first.cache_hits, 0);
    }

    #[test]
    fn doorbell_reduces_round_trips_not_bytes() {
        let (data, store) = setup(600);
        let queries = gen::perturbed_queries(&data, 32, 0.05, 85).unwrap();
        let full = store.connect(SearchMode::Full).unwrap();
        let nodb = store.connect(SearchMode::NoDoorbell).unwrap();
        let (_, rf) = full.query_batch(&queries, 5, 16).unwrap();
        let (_, rn) = nodb.query_batch(&queries, 5, 16).unwrap();
        assert_eq!(rf.bytes_read, rn.bytes_read);
        assert!(rf.round_trips < rn.round_trips);
        assert!(rf.breakdown.network_us < rn.breakdown.network_us);
    }

    #[test]
    fn latency_ordering_matches_the_paper() {
        let (data, store) = setup(800);
        let queries = gen::perturbed_queries(&data, 64, 0.05, 86).unwrap();
        let full = store.connect(SearchMode::Full).unwrap();
        let nodb = store.connect(SearchMode::NoDoorbell).unwrap();
        let naive = store.connect(SearchMode::Naive).unwrap();
        let (_, rf) = full.query_batch(&queries, 10, 32).unwrap();
        let (_, rn) = nodb.query_batch(&queries, 10, 32).unwrap();
        let (_, rv) = naive.query_batch(&queries, 10, 32).unwrap();
        assert!(
            rf.breakdown.network_us <= rn.breakdown.network_us,
            "doorbell must not be slower"
        );
        assert!(
            rn.breakdown.network_us < rv.breakdown.network_us,
            "query-aware loading must beat naive"
        );
    }

    #[test]
    fn fanout_override_changes_demand_without_rebuilding() {
        let (data, store) = setup(600);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 16, 0.03, 96).unwrap();
        let (_, narrow) = node
            .query_batch_opts(&queries, &QueryOptions::new(5, 32).with_fanout(1))
            .unwrap();
        node.drop_cache();
        let (_, wide) = node
            .query_batch_opts(&queries, &QueryOptions::new(5, 32).with_fanout(8))
            .unwrap();
        assert_eq!(narrow.raw_cluster_demand, 16);
        assert_eq!(wide.raw_cluster_demand, 16 * 8);
        assert!(wide.bytes_read > narrow.bytes_read);
    }

    #[test]
    fn zero_fanout_override_is_rejected() {
        let (data, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 2, 0.03, 97).unwrap();
        assert!(node
            .query_batch_opts(&queries, &QueryOptions::new(5, 16).with_fanout(0))
            .is_err());
    }

    #[test]
    fn default_options_match_positional_call() {
        let (data, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 6, 0.03, 98).unwrap();
        let (a, _) = node.query_batch(&queries, 5, 32).unwrap();
        let (b, _) = node
            .query_batch_opts(&queries, &QueryOptions::new(5, 32))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn query_rejects_wrong_dimension() {
        let (_, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::uniform(64, 2, 0.0, 1.0, 1).unwrap();
        assert!(matches!(
            node.query_batch(&queries, 5, 16).unwrap_err(),
            Error::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn empty_batch_is_a_cheap_noop() {
        let (_, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        let (results, report) = node.query_batch(&Dataset::new(128), 5, 16).unwrap();
        assert!(results.is_empty());
        assert_eq!(report, BatchReport::default());
    }

    #[test]
    fn insert_then_query_finds_the_new_vector() {
        let (data, store) = setup(400);
        let node = store.connect(SearchMode::Full).unwrap();
        // Insert a distinctive vector near an existing one.
        let mut v = data.get(5).to_vec();
        v[0] += 0.5;
        let gid = node.insert(&v).unwrap();
        assert_eq!(gid as usize, store.base_len());
        let hits = node.query(&v, 3, 32).unwrap();
        assert_eq!(hits[0].id, gid, "inserted vector must be its own nearest");
        assert!(hits[0].dist < 1e-6);
    }

    #[test]
    fn inserts_allocate_monotonic_global_ids() {
        let (data, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        let a = node.insert(data.get(0)).unwrap();
        let b = node.insert(data.get(1)).unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn insert_uses_four_one_sided_verbs() {
        let (data, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        node.reset_measurements();
        node.insert(data.get(0)).unwrap();
        let s = node.queue_pair().stats().snapshot();
        // id FAA + slot FAA + record write + version FAA.
        assert_eq!(s.round_trips, 4);
        assert_eq!(s.atomics, 3);
    }

    #[test]
    fn insert_batch_matches_single_inserts_in_effect() {
        let (data, store) = setup(400);
        let node = store.connect(SearchMode::Full).unwrap();
        let inserts = gen::perturbed_queries(&data, 10, 0.01, 92).unwrap();
        let results = node.insert_batch(&inserts).unwrap();
        assert_eq!(results.len(), 10);
        let ids: Vec<u32> = results.into_iter().map(|r| r.unwrap()).collect();
        // Dense sequential ids from the base length.
        assert_eq!(ids[0] as usize, store.base_len());
        for w in ids.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        // All visible to queries.
        let mut found = 0;
        for (i, v) in inserts.iter().enumerate() {
            let hit = node.query(v, 1, 32).unwrap();
            if hit[0].id == ids[i] {
                found += 1;
            }
        }
        assert!(found >= 8, "only {found}/10 batch inserts retrievable");
    }

    #[test]
    fn insert_batch_uses_far_fewer_round_trips() {
        let (data, store) = setup(400);
        let inserts = gen::perturbed_queries(&data, 32, 0.01, 93).unwrap();

        let single = store.connect(SearchMode::Full).unwrap();
        single.reset_measurements();
        for v in inserts.iter() {
            single.insert(v).unwrap();
        }
        let single_trips = single.queue_pair().stats().round_trips();
        assert_eq!(single_trips, 4 * 32);

        let batched = store.connect(SearchMode::Full).unwrap();
        batched.reset_measurements();
        let results = batched.insert_batch(&inserts).unwrap();
        assert!(results.iter().all(|r| r.is_ok()));
        let batch_trips = batched.queue_pair().stats().round_trips();
        assert!(
            batch_trips * 3 < single_trips,
            "batched {batch_trips} vs single {single_trips}"
        );
    }

    #[test]
    fn insert_batch_reports_overflow_per_vector() {
        let data = gen::sift_like(300, 94).unwrap();
        let cfg = DHnswConfig::small().with_overflow_slots(2);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        // Ten copies of the same vector all route to one group with two
        // slots: exactly two succeed.
        let same = Dataset::from_rows(&[data.get(0); 10]).unwrap();
        let results = node.insert_batch(&same).unwrap();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 2, "{results:?}");
        assert!(results
            .iter()
            .filter(|r| r.is_err())
            .all(|r| matches!(r.as_ref().unwrap_err(), Error::OverflowFull { .. })));
    }

    #[test]
    fn insert_batch_rejects_wrong_dim_and_handles_empty() {
        let (_, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        assert!(node
            .insert_batch(&gen::uniform(64, 3, 0.0, 1.0, 1).unwrap())
            .is_err());
        assert!(node.insert_batch(&Dataset::new(128)).unwrap().is_empty());
    }

    #[test]
    fn insert_overflow_full_is_reported() {
        let data = gen::sift_like(300, 90).unwrap();
        let cfg = DHnswConfig::small().with_overflow_slots(1);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        // Fill the single slot of some group, then the next insert into
        // the same group must fail.
        let v = data.get(0);
        node.insert(v).unwrap();
        let second = node.insert(v);
        assert!(matches!(second.unwrap_err(), Error::OverflowFull { .. }));
    }

    #[test]
    fn delete_removes_a_base_vector_from_results() {
        let (data, store) = setup(400);
        let node = store.connect(SearchMode::Full).unwrap();
        let target = data.get(5).to_vec();
        let before = node.query(&target, 1, 48).unwrap();
        assert_eq!(before[0].dist, 0.0);
        let victim = before[0].id;
        node.delete(&target, victim).unwrap();
        let after = node.query(&target, 5, 48).unwrap();
        assert!(
            after.iter().all(|n| n.id != victim),
            "deleted id still returned: {after:?}"
        );
        assert_eq!(after.len(), 5, "deletion must not shrink the result list");
    }

    #[test]
    fn delete_removes_an_overflow_insert() {
        let (data, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        let mut v = data.get(9).to_vec();
        v[0] += 0.5;
        let gid = node.insert(&v).unwrap();
        assert_eq!(node.query(&v, 1, 32).unwrap()[0].id, gid);
        node.delete(&v, gid).unwrap();
        let after = node.query(&v, 3, 32).unwrap();
        assert!(after.iter().all(|n| n.id != gid));
    }

    #[test]
    fn delete_uses_three_one_sided_verbs() {
        let (data, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        node.reset_measurements();
        node.delete(data.get(0), 0).unwrap();
        let s = node.queue_pair().stats().snapshot();
        // slot FAA + tombstone write + version FAA.
        assert_eq!(s.round_trips, 3);
        assert_eq!(s.atomics, 2);
    }

    #[test]
    fn delete_visibility_across_nodes_follows_cache_lifetime() {
        let (data, store) = setup(300);
        let writer = store.connect(SearchMode::Full).unwrap();
        let reader = store.connect(SearchMode::Full).unwrap();
        let target = data.get(11).to_vec();
        let victim = reader.query(&target, 1, 48).unwrap()[0].id;
        writer.delete(&target, victim).unwrap();
        // The reader cached the cluster before the delete: it may serve
        // the stale copy (cross-node caches are not coherent — a
        // documented non-goal shared with the paper)...
        let stale = reader.query(&target, 3, 48).unwrap();
        assert!(stale.iter().any(|n| n.id == victim), "unexpectedly fresh");
        // ...but once its cached copy is dropped (eviction, expiry), the
        // next load observes the tombstone.
        reader.drop_cache();
        let fresh = reader.query(&target, 3, 48).unwrap();
        assert!(fresh.iter().all(|n| n.id != victim));
    }

    #[test]
    fn insert_rejects_wrong_dimension() {
        let (_, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        assert!(node.insert(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn inserts_are_visible_across_compute_nodes() {
        let (data, store) = setup(400);
        let writer = store.connect(SearchMode::Full).unwrap();
        let reader = store.connect(SearchMode::Full).unwrap();
        let mut v = data.get(10).to_vec();
        v[1] += 0.25;
        let gid = writer.insert(&v).unwrap();
        // The reader never cached the cluster, so its next load sees the
        // overflow record.
        let hits = reader.query(&v, 1, 32).unwrap();
        assert_eq!(hits[0].id, gid);
    }

    #[test]
    fn reset_measurements_zeroes_counters() {
        let (data, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 4, 0.02, 91).unwrap();
        node.query_batch(&queries, 5, 16).unwrap();
        node.reset_measurements();
        assert_eq!(node.queue_pair().stats().round_trips(), 0);
        assert_eq!(node.queue_pair().clock().now_us(), 0.0);
    }

    #[test]
    fn compute_node_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ComputeNode>();
    }

    #[test]
    fn heatmap_samples_routes_loads_and_cache_hits() {
        let (data, store) = setup(600);
        let telemetry = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, telemetry)
            .unwrap();
        let queries = gen::perturbed_queries(&data, 8, 0.02, 93).unwrap();
        let b = node.config().fanout();
        node.query_batch(&queries, 5, 16).unwrap();
        let cold = node.heatmap().snapshot();
        let route_hits: u64 = cold.iter().map(|c| c.route_hits).sum();
        let loads: u64 = cold.iter().map(|c| c.loads).sum();
        let bytes: u64 = cold.iter().map(|c| c.bytes_read).sum();
        assert_eq!(route_hits, 8 * b as u64, "every route is sampled");
        assert!(loads > 0, "cold batch loads clusters");
        assert!(bytes > 0, "loads carry their byte size");
        assert!(cold.iter().any(|c| c.hotness > 0.0));
        // Same batch again: the cache now serves what it kept.
        node.query_batch(&queries, 5, 16).unwrap();
        let warm = node.heatmap().snapshot();
        let cache_hits: u64 = warm.iter().map(|c| c.cache_hits).sum();
        assert!(cache_hits > 0, "warm batch hits the cluster cache");
    }

    #[test]
    fn naive_mode_samples_routes_and_per_query_loads() {
        let (data, store) = setup(400);
        let node = store.connect(SearchMode::Naive).unwrap();
        let queries = gen::perturbed_queries(&data, 4, 0.02, 94).unwrap();
        let b = node.config().fanout();
        node.query_batch(&queries, 5, 16).unwrap();
        let snap = node.heatmap().snapshot();
        let route_hits: u64 = snap.iter().map(|c| c.route_hits).sum();
        let loads: u64 = snap.iter().map(|c| c.loads).sum();
        assert_eq!(route_hits, 4 * b as u64);
        assert_eq!(loads, route_hits, "naive reloads every routed cluster");
    }

    #[test]
    fn disabled_heatmap_adds_nothing_on_the_query_path() {
        // The acceptance bound: with sampling off, the hot loop pays
        // one relaxed load per batch and the record calls are no-ops.
        let (data, store) = setup(400);
        let node = store.connect(SearchMode::Full).unwrap();
        node.heatmap().set_enabled(false);
        let queries = gen::perturbed_queries(&data, 6, 0.02, 95).unwrap();
        let (results, _) = node.query_batch(&queries, 5, 16).unwrap();
        assert_eq!(results.len(), 6, "queries still answered");
        for cell in node.heatmap().snapshot() {
            assert_eq!(cell.route_hits, 0);
            assert_eq!(cell.loads, 0);
            assert_eq!(cell.cache_hits, 0);
            assert_eq!(cell.evictions, 0);
            assert_eq!(cell.bytes_read, 0);
            assert_eq!(cell.hotness, 0.0);
        }
    }

    #[test]
    fn health_report_accounts_layout_occupancy_and_latency() {
        let (data, store) = setup(600);
        let telemetry = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        let queries = gen::perturbed_queries(&data, 8, 0.02, 96).unwrap();
        node.query_batch(&queries, 5, 16).unwrap();

        // Before any insert every overflow area is empty.
        let fresh = node.health_report().unwrap();
        assert_eq!(fresh.partitions, store.partitions());
        assert!(fresh.groups.iter().all(|g| g.overflow_used_bytes == 0));
        assert_eq!(fresh.layout.overflow_used_bytes, 0);

        // One insert shows up as live overflow bytes in exactly one
        // group, and occupancy/slack stay consistent.
        let mut v = data.get(0).to_vec();
        v[0] += 0.5;
        node.insert(&v).unwrap();
        let report = node.health_report().unwrap();
        let used: Vec<&GroupHealth> = report
            .groups
            .iter()
            .filter(|g| g.overflow_used_bytes > 0)
            .collect();
        assert_eq!(used.len(), 1, "one group absorbed the insert");
        let g = used[0];
        assert!(g.occupancy > 0.0 && g.occupancy <= 1.0);
        assert_eq!(
            g.overflow_used_bytes + g.overflow_slack_bytes,
            g.overflow_capacity_bytes
        );
        // Live + dead bytes tile the registered region.
        assert!(
            (report.layout.utilization + report.layout.fragmentation - 1.0).abs() < 1e-9,
            "utilization {} + fragmentation {} must cover the region",
            report.layout.utilization,
            report.layout.fragmentation
        );
        // Query traffic is reflected in skew, cache, and latency.
        assert!(report.route_skew.total > 0);
        assert!(report.degree_skew.count > 0);
        assert_eq!(report.partition_skew.count, report.partitions);
        assert!(report.cache.capacity > 0);
        // Plan-time hit rate: the cold pass loaded clusters, so the
        // rate must stay strictly below the vacuous 100%.
        assert!(report.cache.misses > 0);
        assert!(report.cache.hit_rate < 1.0);
        assert!(report.latency.queries >= 8);
        assert!(report.latency.p99_us >= report.latency.p50_us);
        assert!(report.violations.is_empty());

        // The JSON rendering carries every section; publish() exposed
        // the series through the telemetry registry.
        let json = report.to_json();
        for key in ["\"groups\":", "\"heatmap\":", "\"route_skew\":", "\"latency\":"] {
            assert!(json.contains(key), "missing {key}");
        }
        let prom = telemetry.render_prometheus();
        for series in [
            "dhnsw_heat_route_hits",
            "dhnsw_health_overflow_occupancy_milli",
            "dhnsw_health_route_gini_milli",
            "dhnsw_health_region_utilization_milli",
        ] {
            assert!(prom.contains(series), "missing {series}");
        }
        assert!(telemetry.snapshot_json().contains("dhnsw_health_overflow_occupancy_milli"));
    }

    #[test]
    fn health_report_feeds_the_watchdog_end_to_end() {
        let (data, store) = setup(400);
        let telemetry = Arc::new(Telemetry::new());
        telemetry.spans().set_enabled(true);
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        let queries = gen::perturbed_queries(&data, 4, 0.02, 97).unwrap();
        node.query_batch(&queries, 5, 16).unwrap();
        let mut report = node.health_report().unwrap();
        // An impossible hit-rate budget must trip.
        let budgets = crate::health::SloBudgets {
            min_cache_hit_rate: Some(2.0),
            ..Default::default()
        };
        report.violations = crate::health::evaluate(&report, &budgets);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].budget, "cache_hit_rate");
        crate::health::watchdog::emit(&telemetry, &report.violations);
        assert!(telemetry
            .render_prometheus()
            .contains("dhnsw_slo_violations_total{budget=\"cache_hit_rate\"} 1"));
        let traces = telemetry.spans().recent();
        assert!(traces
            .iter()
            .any(|t| t.label == "watchdog"
                && t.spans.iter().any(|s| s.name == "slo_violation")));
        assert!(report.to_json().contains("\"budget\": \"cache_hit_rate\""));
    }

    #[test]
    fn torn_insert_is_skipped_and_the_slot_stays_burned() {
        let (data, store) = setup(400);
        let writer = store.connect(SearchMode::Full).unwrap();
        let reader = store.connect(SearchMode::Full).unwrap();
        let mut v = data.get(3).to_vec();
        v[0] += 0.5;
        // Insert verbs in order: id FAA, slot FAA, record write, version
        // FAA. Let the two FAAs through and kill the record write with no
        // retransmissions left: the slot is reserved but the record never
        // lands — a torn insert.
        writer.queue_pair().set_retry_limit(0);
        writer.queue_pair().fail_nth(2, 1);
        let err = writer.insert(&v).unwrap_err();
        assert!(matches!(
            err,
            Error::Rdma(rdma_sim::Error::RetriesExhausted { .. })
        ));
        writer
            .queue_pair()
            .set_retry_limit(rdma_sim::DEFAULT_RETRY_LIMIT);
        // A fresh reader decodes the overflow area without tripping on
        // the uncommitted slot: no Corrupt, no phantom vector.
        let base = store.base_len() as u32;
        let hits = reader.query(&v, 3, 48).unwrap();
        assert!(hits.iter().all(|n| n.id < base), "torn record surfaced");
        // The next insert commits after the burned slot and is found.
        let gid = writer.insert(&v).unwrap();
        reader.drop_cache();
        let hits = reader.query(&v, 1, 48).unwrap();
        assert_eq!(hits[0].id, gid);
    }

    #[test]
    fn version_mismatch_refreshes_stale_cache_without_drop() {
        let data = gen::sift_like(400, 77).unwrap();
        let store =
            VectorStore::build(data.clone(), &DHnswConfig::small().with_cache_fraction(1.0))
                .unwrap();
        let writer = store.connect(SearchMode::Full).unwrap();
        let reader = store.connect(SearchMode::Full).unwrap();
        let b = store.config().fanout();
        let mut v = data.get(0).to_vec();
        v[1] += 0.25;
        // Reader caches the clusters the new vector routes to.
        reader.query(&v, 1, 32).unwrap();
        let warm: std::collections::HashSet<u32> =
            store.meta().route(&v, b).iter().map(|n| n.id).collect();
        // A probe whose route is disjoint from the warm set forces the
        // next batch onto the wire, so the piggybacked version check runs.
        let probe = (0..data.len())
            .map(|i| data.get(i))
            .find(|r| store.meta().route(r, b).iter().all(|n| !warm.contains(&n.id)))
            .expect("some row routes entirely outside the warm set");
        let gid = writer.insert(&v).unwrap();
        let batch = Dataset::from_rows(&[&v, probe]).unwrap();
        let (results, report) = reader.query_batch(&batch, 1, 32).unwrap();
        // The stale pin was demoted and reloaded — no drop_cache needed.
        assert_eq!(results[0][0].id, gid, "stale cached cluster served");
        assert!(report.cache_hits < warm.len());
        assert!(report.degraded_queries == 0 && report.coverage.is_empty());
    }

    #[test]
    fn degraded_mode_serves_partial_coverage_when_reads_fail() {
        let data = gen::sift_like(400, 77).unwrap();
        let cfg = DHnswConfig::small()
            .with_degraded_ok(true)
            .with_read_retry_limit(1);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 4, 0.02, 88).unwrap();
        node.queue_pair().set_retry_limit(0);
        node.queue_pair().fail_next(u32::MAX);
        let (results, report) = node.query_batch(&queries, 5, 16).unwrap();
        node.queue_pair().fail_next(0);
        // Nothing arrived: every query degrades to zero coverage instead
        // of failing the batch.
        assert!(results.iter().all(|r| r.is_empty()));
        assert_eq!(report.degraded_queries, queries.len());
        assert_eq!(report.coverage.len(), queries.len());
        assert!(report.coverage.iter().all(|&c| c < 1.0));
        assert!(report.read_retries > 0);
        assert!((report.degraded_rate() - 1.0).abs() < 1e-12);
        let prom = node.telemetry().render_prometheus();
        assert!(prom.contains("dhnsw_degraded_queries_total"));
        assert!(prom.contains("dhnsw_read_retries_total"));
    }

    #[test]
    fn exhausted_reads_error_without_degraded_opt_in() {
        let (data, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 2, 0.02, 89).unwrap();
        node.queue_pair().set_retry_limit(0);
        node.queue_pair().fail_next(u32::MAX);
        let err = node.query_batch(&queries, 5, 16).unwrap_err();
        node.queue_pair().fail_next(0);
        assert!(matches!(err, Error::ReadRetriesExhausted { .. }));
    }

    #[test]
    fn naive_unique_clusters_is_the_batch_wide_union() {
        let (data, store) = setup(400);
        let node = store.connect(SearchMode::Naive).unwrap();
        let b = store.config().fanout();
        // Two identical queries route identically: the distinct-cluster
        // count must not double just because naive mode reloads.
        let batch = Dataset::from_rows(&[data.get(0), data.get(0)]).unwrap();
        let (_, report) = node.query_batch(&batch, 5, 16).unwrap();
        assert_eq!(report.unique_clusters, b);
        assert_eq!(report.raw_cluster_demand, 2 * b);
        assert_eq!(report.clusters_loaded, 2 * b);
    }

    #[test]
    fn health_report_rejects_corrupt_overflow_counter() {
        let (_, store) = setup(300);
        let node = store.connect(SearchMode::Full).unwrap();
        // Scribble an impossible value into one group's used counter:
        // the report must call it corruption, not clamp it away.
        let loc = *node.directory.location(0).unwrap();
        node.qp
            .write(
                node.rkey,
                loc.overflow_counter_off(),
                &(loc.overflow_capacity() + 64).to_le_bytes(),
            )
            .unwrap();
        let err = node.health_report().unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn pipelined_execution_matches_sequential_exactly() {
        // Two connections to the same store, one sequential and one
        // deeply pipelined: across a cold batch, a warm repeat, and a
        // fresh batch, every result and every deterministic counter must
        // agree — pipelining may only change the schedule.
        let (data, store) = setup(900);
        let seq = store.connect(SearchMode::Full).unwrap();
        let pipe = store.connect(SearchMode::Full).unwrap();
        pipe.set_pipeline_depth(3);
        for (i, seed) in [91u64, 91, 92].into_iter().enumerate() {
            let queries = gen::perturbed_queries(&data, 13, 0.02, seed).unwrap();
            let (ra, pa) = seq.query_batch(&queries, 10, 32).unwrap();
            let (rb, pb) = pipe.query_batch(&queries, 10, 32).unwrap();
            assert_eq!(ra, rb, "batch {i}: pipelining changed the results");
            assert_eq!(pa.unique_clusters, pb.unique_clusters, "batch {i}");
            assert_eq!(pa.cache_hits, pb.cache_hits, "batch {i}");
            assert_eq!(pa.clusters_loaded, pb.clusters_loaded, "batch {i}");
            assert_eq!(pa.bytes_read, pb.bytes_read, "batch {i}");
            // Round trips may grow: each non-empty stage rings its own
            // doorbell, but never shrink below the sequential schedule.
            assert!(pb.round_trips >= pa.round_trips, "batch {i}");
        }
    }

    #[test]
    fn depth_one_pipeline_is_the_identity() {
        // set_pipeline_depth(1) after a deeper setting restores the
        // strict sequential execution (and 0 clamps to 1).
        let (data, store) = setup(500);
        let node = store.connect(SearchMode::Full).unwrap();
        node.set_pipeline_depth(4);
        node.set_pipeline_depth(0);
        assert_eq!(node.pipeline_depth(), 1);
        let queries = gen::perturbed_queries(&data, 6, 0.02, 93).unwrap();
        let (_, report) = node.query_batch(&queries, 5, 32).unwrap();
        // Depth 1 means one network stage: exposed time is the whole
        // virtual transfer time, and one doorbell batch covers the loads.
        assert!(report.breakdown.network_us > 0.0);
        let delta = node.queue_pair().stats().snapshot();
        assert_eq!(delta.doorbell_batches, 1);
    }

    #[test]
    fn deeper_pipelines_hide_network_time_on_cold_batches() {
        let data = gen::sift_like(2_000, 94).unwrap();
        let cfg = DHnswConfig::small().with_representatives(48);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let queries = gen::perturbed_queries(&data, 24, 0.03, 95).unwrap();
        let seq = store.connect(SearchMode::Full).unwrap();
        let (rs_res, rs) = seq.query_batch(&queries, 10, 32).unwrap();
        let pipe = store.connect(SearchMode::Full).unwrap();
        pipe.set_pipeline_depth(4);
        let (rp_res, rp) = pipe.query_batch(&queries, 10, 32).unwrap();
        assert_eq!(rs_res, rp_res);
        assert_eq!(rs.bytes_read, rp.bytes_read);
        // Later stages' loads overlap earlier stages' compute, so the
        // exposed network time strictly shrinks while the virtual bytes
        // moved stay identical.
        assert!(
            rp.breakdown.network_us < rs.breakdown.network_us,
            "pipelined exposed {} !< sequential {}",
            rp.breakdown.network_us,
            rs.breakdown.network_us
        );
    }

    #[test]
    fn a_failed_batch_leaves_the_node_consistent() {
        // A mid-batch substrate failure must release the batch's cache
        // pins and leave no other residue: afterwards the node behaves
        // exactly like a control connection that never saw the fault.
        let (data, store) = setup(600);
        let node = store.connect(SearchMode::Full).unwrap();
        let control = store.connect(SearchMode::Full).unwrap();
        let warm = gen::perturbed_queries(&data, 8, 0.02, 96).unwrap();
        let probe = gen::perturbed_queries(&data, 8, 0.02, 97).unwrap();
        node.query_batch(&warm, 5, 32).unwrap();
        control.query_batch(&warm, 5, 32).unwrap();

        node.queue_pair().set_retry_limit(0);
        node.queue_pair().fail_next(u32::MAX);
        assert!(node.query_batch(&probe, 5, 32).is_err());
        node.queue_pair().fail_next(0);

        let (rn, pn) = node.query_batch(&probe, 5, 32).unwrap();
        let (rc, pc) = control.query_batch(&probe, 5, 32).unwrap();
        assert_eq!(rn, rc);
        assert_eq!(pn.cache_hits, pc.cache_hits);
        assert_eq!(pn.bytes_read, pc.bytes_read);
    }

    #[test]
    fn prefetch_warms_hot_clusters_within_budget() {
        // A thrashing cache (capacity far below the hot set) leaves hot
        // clusters non-resident; the prefetcher pulls them back in,
        // bounded by the byte budget.
        let data = gen::sift_like(1_500, 98).unwrap();
        let cfg = DHnswConfig::small()
            .with_representatives(24)
            .with_cache_fraction(0.2);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let telemetry = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        let queries = gen::perturbed_queries(&data, 16, 0.02, 99).unwrap();
        node.query_batch(&queries, 5, 32).unwrap();

        // Budget 0 disables the prefetcher entirely.
        assert_eq!(node.prefetch_hot(), 0);
        // A budget smaller than any cluster span admits nothing.
        node.set_prefetch_budget_bytes(1);
        assert_eq!(node.prefetch_hot(), 0);
        // A generous budget warms the hottest non-resident clusters.
        node.set_prefetch_budget_bytes(u64::MAX);
        let admitted = node.prefetch_hot();
        assert!(admitted > 0, "nothing prefetched");
        let bytes0 = node.queue_pair().stats().snapshot().bytes_read;
        // The warmed clusters are resident now: an immediate re-run
        // finds them cached and loads nothing new.
        assert_eq!(node.prefetch_hot(), 0);
        assert_eq!(node.queue_pair().stats().snapshot().bytes_read, bytes0);
        let prom = telemetry.render_prometheus();
        assert!(
            prom.contains(&format!(
                "dhnsw_prefetch_clusters_total{{mode=\"full\"}} {admitted}"
            )),
            "prefetch counters missing:\n{prom}"
        );
        assert!(prom.contains("dhnsw_prefetch_rounds_total{mode=\"full\"} 1"));
    }

    #[test]
    fn prefetch_runs_automatically_after_batches_when_budgeted() {
        let data = gen::sift_like(1_500, 100).unwrap();
        let cfg = DHnswConfig::small()
            .with_representatives(24)
            .with_cache_fraction(0.2)
            .with_prefetch_budget_bytes(u64::MAX);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let telemetry = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        assert_eq!(node.prefetch_budget_bytes(), u64::MAX);
        let queries = gen::perturbed_queries(&data, 16, 0.02, 101).unwrap();
        node.query_batch(&queries, 5, 32).unwrap();
        let prom = telemetry.render_prometheus();
        assert!(
            prom.contains("dhnsw_prefetch_rounds_total{mode=\"full\"} 1"),
            "query_batch did not trigger the prefetcher:\n{prom}"
        );
    }
    /// Six clusters over one dataset, each holding 80 rows of which 30
    /// also sit in the next cluster (ids shared between clusters, as a
    /// forced representative is), plus 23 queries' routes: duplicated
    /// partitions inside a route, empty routes, and partition 9, which
    /// never resolves.
    fn oracle_fixture(sq: bool) -> (Dataset, HashMap<u32, Arc<LoadedCluster>>, Vec<Vec<u32>>) {
        use crate::cluster::{SqCluster, SubCluster};
        let data = gen::uniform(8, 330, 0.0, 1.0, 5).unwrap();
        let params = hnsw::HnswParams::new(6, 40).seed(3);
        let mut resolved = HashMap::new();
        for p in 0..6u32 {
            let ids: Vec<u32> = (p * 50..p * 50 + 80).collect();
            let rows: Vec<&[f32]> = ids.iter().map(|&i| data.get(i as usize)).collect();
            let rows = Dataset::from_rows(&rows).unwrap();
            // One cluster of the quantized map is full precision, as a
            // cache entry from before a mode change would be.
            let cluster = if sq && p != 4 {
                let blob = SqCluster::build(p, &rows, ids).unwrap().to_bytes();
                LoadedCluster::from_remote_sq(&blob, None).unwrap()
            } else {
                LoadedCluster::from_sub(SubCluster::build(p, rows, ids, &params).unwrap())
            };
            resolved.insert(p, Arc::new(cluster));
        }
        let routes = (0..23u32)
            .map(|i| match i % 6 {
                0 => vec![],
                1 => vec![i % 5, (i + 1) % 5, i % 5],
                2 => vec![9, (i * 3) % 6],
                3 => vec![9],
                _ => vec![(i * 5) % 6, (i * 5 + 1) % 6, (i * 5 + 3) % 6],
            })
            .collect();
        let queries = gen::perturbed_queries(&data, 25, 0.05, 6).unwrap();
        (queries, resolved, routes)
    }

    #[test]
    fn cluster_major_search_equals_a_query_major_reference() {
        let (queries, resolved, routes) = oracle_fixture(false);
        let (k, ef) = (7, 24);
        let reference: Vec<(Vec<Neighbor>, f64)> = (routes.iter().enumerate())
            .map(|(i, route)| {
                let found: Vec<_> = route.iter().filter_map(|p| resolved.get(p)).collect();
                let mut top = TopK::new(k);
                let mut seen = std::collections::HashSet::new();
                for n in found
                    .iter()
                    .flat_map(|c| c.search(queries.get(2 + i), k, ef))
                {
                    if seen.insert(n.id) {
                        top.push(n.id, n.dist);
                    }
                }
                let cov = found.len() as f64 / route.len().max(1) as f64;
                (
                    top.into_sorted_vec(),
                    if route.is_empty() { 1.0 } else { cov },
                )
            })
            .collect();
        assert!(
            reference.iter().any(|(_, cov)| *cov == 0.0)
                && reference.iter().any(|(_, cov)| *cov == 0.5)
        );
        for threads in [1, 2, 3, 7] {
            let got = search_over(&routes, &queries, 2, &resolved, k, ef, threads, true).unwrap();
            assert_eq!(got, reference, "threads {threads}");
            let strict = search_over(&routes, &queries, 2, &resolved, k, ef, threads, false);
            assert!(
                matches!(strict, Err(Error::Corrupt(_))),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cluster_major_sq_pools_equal_a_query_major_reference() {
        let (queries, resolved, routes) = oracle_fixture(true);
        let pool_k = 12;
        type Cand = (u32, f32, u32, Option<u32>, f32);
        let reference: Vec<(Vec<Cand>, f64)> = (routes.iter().enumerate())
            .map(|(i, route)| {
                let q = queries.get(2 + i);
                let mut pool: Vec<Cand> = Vec::new();
                let found = route.iter().filter_map(|p| Some((*p, resolved.get(p)?)));
                for (p, c) in found.clone() {
                    match c.sq() {
                        Some(sq) => pool.extend(c.search_sq(q, pool_k).iter().map(|h| {
                            let err = h.local.map_or(0.0, |_| sq.params().l2_error_bound(h.dist));
                            (h.id, h.dist, p, h.local, err)
                        })),
                        None => pool.extend(
                            (c.search(q, pool_k, pool_k.max(16)).iter())
                                .map(|n| (n.id, n.dist, p, None, 0.0)),
                        ),
                    }
                }
                pool.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                pool.dedup_by_key(|c| c.0);
                pool.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                pool.truncate(pool_k);
                let cov = found.count() as f64 / route.len().max(1) as f64;
                (pool, if route.is_empty() { 1.0 } else { cov })
            })
            .collect();
        for threads in [1, 2, 3, 7] {
            let got =
                search_over_sq(&routes, &queries, 2, &resolved, pool_k, threads, true).unwrap();
            let got: Vec<(Vec<Cand>, f64)> = got
                .into_iter()
                .map(|(pool, cov)| {
                    let pool = pool
                        .iter()
                        .map(|c| (c.id, c.dist, c.partition, c.local, c.err));
                    (pool.collect(), cov)
                })
                .collect();
            assert_eq!(got, reference, "threads {threads}");
            let strict = search_over_sq(&routes, &queries, 2, &resolved, pool_k, threads, false);
            assert!(
                matches!(strict, Err(Error::Corrupt(_))),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn zero_ef_is_rejected() {
        let (data, store) = setup(200);
        let node = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 2, 0.03, 97).unwrap();
        assert!(matches!(
            node.query_batch(&queries, 5, 0),
            Err(Error::InvalidParameter(_))
        ));
    }
}
