//! The traced run. Each measured batch goes through the engine
//! (`ComputeNode::query_batch`, read back through its `BatchReport`) and
//! is then replayed through the layers' public functions on a second
//! queue pair, single-threaded, with a span around every call. The spans
//! live in this crate only: the program under test is not instrumented.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use dhnsw::cache::ClusterCache;
use dhnsw::cluster::LoadedCluster;
use dhnsw::layout::Directory;
use dhnsw::loader::{plan_batch, read_requests_tagged};
use dhnsw::{BatchReport, MetaIndex, ReadCause};
use hnsw::SearchStats;
use rdma_sim::{QueuePair, ReadReq, StatsSnapshot};
use vecsim::{Dataset, Neighbor, TopK};

use crate::bench::{
    read_your_writes, set_up, timed_batch, timed_insert, warm_up, Acked, Bench, Error,
    RecallWindow, RunOpts,
};
use crate::calib::Calibration;
use crate::json::Json;
use crate::report::{Described, Metrics, Tally, PER_LAYER};
use crate::stats::Timing;
use crate::workload::{self, EF, INSERT_BATCH, K, TRACE_BATCHES};

/// One recorded interval. `parent` indexes the span that caused it;
/// spans of one batch share `batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub batch: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans are kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    recording: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            recording: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, batch: u32) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            batch,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the time its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time per span name, in µs.
pub fn self_us_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut by_name = HashMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(span.name).or_insert(0.0) += own as f64 / 1e3;
    }
    by_name
}

/// Work counted at the layer boundaries of one replayed batch.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    batches: u64,
    queries: u64,
    raw_demand: u64,
    unique: u64,
    cached: u64,
    loaded: u64,
    evictions: u64,
    materialized_bytes: u64,
    probes: u64,
    dist_evals: u64,
    fetch_sim_us: f64,
    rdma: StatsSnapshot,
}

/// The compute side rebuilt from public parts: the shared meta index and
/// directory, a queue pair and an LRU cache of its own.
struct Replay<'a> {
    meta: &'a MetaIndex,
    directory: &'a Directory,
    rkey: u32,
    qp: QueuePair,
    cache: ClusterCache,
    fanout: usize,
    /// `Some(pool size)` when the node reads the SQ8 wire format.
    sq_pool: Option<usize>,
    total: Counts,
}

impl<'a> Replay<'a> {
    fn new(bench: &'a Bench) -> Self {
        let config = &bench.config;
        Replay {
            meta: bench.store.meta(),
            directory: bench.node.directory(),
            rkey: bench.store.region().rkey(),
            qp: QueuePair::connect(bench.store.memory_node(), config.network()),
            cache: ClusterCache::new(config.cache_capacity(bench.store.partitions())),
            fanout: config.fanout(),
            sq_pool: bench
                .node
                .is_quantized()
                .then(|| K + config.rerank_k().max(1)),
            total: Counts::default(),
        }
    }

    /// What an acknowledged insert does to a compute-side cache: the
    /// partitions the vectors classify to lose their entries. Returns
    /// how many entries were dropped.
    fn invalidate_for(&mut self, vectors: &Dataset) -> Result<u64, Error> {
        let mut touched = HashSet::new();
        for v in vectors.iter() {
            touched.insert(self.meta.classify_with_beam(v, self.fanout)?);
        }
        Ok(touched
            .into_iter()
            .filter(|&p| self.cache.invalidate(p))
            .count() as u64)
    }

    /// One batch, layer by layer, in the order the engine's sequential
    /// (`pipeline_depth` 1) path runs them.
    fn batch(
        &mut self,
        tracer: &mut Tracer,
        id: u32,
        queries: &Dataset,
    ) -> Result<(Vec<Vec<Neighbor>>, Counts), Error> {
        let mut counts = Counts {
            batches: 1,
            queries: queries.len() as u64,
            ..Counts::default()
        };
        tracer.enter("batch", id);

        tracer.enter("meta.route", id);
        let routes: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                self.meta
                    .route(q, self.fanout)
                    .iter()
                    .map(|n| n.id)
                    .collect()
            })
            .collect();
        tracer.exit();

        tracer.enter("loader.plan", id);
        let plan = plan_batch(&routes, |p| self.cache.contains(p));
        tracer.exit();
        counts.raw_demand = plan.raw_demand as u64;
        counts.unique = plan.unique.len() as u64;
        counts.cached = plan.cached.len() as u64;
        counts.loaded = plan.to_load.len() as u64;

        tracer.enter("cache.lookup", id);
        let mut resolved: HashMap<u32, Arc<LoadedCluster>> = HashMap::new();
        let mut pinned: Vec<(u32, u64)> = Vec::new();
        for &p in &plan.cached {
            let version = self.cache.version_of(p).unwrap_or(0);
            let cluster = self
                .cache
                .get(p)
                .ok_or("planned cache hit is not resident")?;
            self.cache.pin(p);
            resolved.insert(p, cluster);
            pinned.push((p, version));
        }
        tracer.exit();

        // The engine's request list: cached pins are verified only when
        // something is loaded anyway, and every span travels between two
        // reads of its partition's version slot.
        tracer.enter("loader.plan", id);
        let spans = match self.sq_pool {
            None => read_requests_tagged(
                self.directory,
                self.rkey,
                &plan.to_load,
                ReadCause::StageLoad,
            )?,
            Some(_) => plan
                .to_load
                .iter()
                .map(|&p| {
                    let (off, len) = self
                        .directory
                        .sq_span(p)?
                        .ok_or("partition has no sq span")?;
                    Ok(ReadReq::new(self.rkey, off, len).with_cause(ReadCause::StageLoad))
                })
                .collect::<Result<Vec<_>, Error>>()?,
        };
        let version_read = |p: u32| -> Result<ReadReq, Error> {
            Ok(
                ReadReq::new(self.rkey, self.directory.version_slot_off(p)?, 8)
                    .with_cause(ReadCause::VersionCheck),
            )
        };
        let mut reqs = Vec::with_capacity(pinned.len() + 3 * spans.len());
        if !plan.to_load.is_empty() {
            for &(p, _) in &pinned {
                reqs.push(version_read(p)?);
            }
        }
        let verified = reqs.len();
        for (&p, span) in plan.to_load.iter().zip(spans) {
            let slot = version_read(p)?;
            reqs.extend([slot, span, slot]);
        }
        tracer.exit();

        tracer.enter("rdma.fetch", id);
        let clock0 = self.qp.clock().now_us();
        let stats0 = self.qp.stats().snapshot();
        let mut buffers = self.qp.read_doorbell(&reqs)?.into_iter();
        counts.fetch_sim_us = self.qp.clock().now_us() - clock0;
        counts.rdma = self.qp.stats().snapshot() - stats0;
        tracer.exit();

        // Nothing writes while a batch replays, so a moved version means
        // the replay's cache fell out of step with the store.
        let version = |buf: Option<Vec<u8>>| -> Result<u64, Error> {
            let raw: [u8; 8] = buf
                .ok_or("missing version read")?
                .try_into()
                .map_err(|_| "short version read")?;
            Ok(u64::from_le_bytes(raw))
        };
        for &(p, at_load) in &pinned[..verified] {
            if version(buffers.next())? != at_load {
                return Err(format!("replay cache holds a stale partition {p}").into());
            }
        }
        let mut fetched: Vec<(u32, u64, Vec<u8>)> = Vec::with_capacity(plan.to_load.len());
        for &p in &plan.to_load {
            let before = version(buffers.next())?;
            let span = buffers.next().ok_or("missing span read")?;
            if version(buffers.next())? != before {
                return Err(format!("partition {p} changed while it was read").into());
            }
            if self.sq_pool.is_some() && before != 0 {
                return Err("the sq8 replay does not read overflow areas".into());
            }
            fetched.push((p, before, span));
        }

        tracer.enter("cluster.materialize", id);
        let mut loaded = Vec::with_capacity(fetched.len());
        for (p, version, span) in &fetched {
            counts.materialized_bytes += span.len() as u64;
            let cluster = match self.sq_pool {
                None => {
                    let (cluster_bytes, overflow) = self.directory.location(*p)?.split(span)?;
                    LoadedCluster::from_remote(cluster_bytes, overflow)?
                }
                Some(_) => LoadedCluster::from_remote_sq(span, None)?,
            };
            loaded.push((*p, *version, Arc::new(cluster)));
        }
        drop(fetched);
        tracer.exit();

        tracer.enter("cache.lookup", id);
        let evictions0 = self.cache.evictions();
        for (p, version, cluster) in loaded {
            self.cache.put(p, Arc::clone(&cluster), version);
            self.cache.pin(p);
            resolved.insert(p, cluster);
        }
        tracer.exit();

        tracer.enter("cluster.search", id);
        let mut stats = SearchStats::default();
        let mut partials: Vec<Vec<Vec<Neighbor>>> = Vec::with_capacity(queries.len());
        for (q, route) in queries.iter().zip(&routes) {
            let mut lists = Vec::with_capacity(route.len());
            for p in route {
                let cluster = resolved.get(p).ok_or("routed cluster was not resolved")?;
                lists.push(match self.sq_pool {
                    None => cluster.search_with_stats(q, K, EF, &mut stats),
                    Some(pool) => cluster
                        .search_sq_with_stats(q, pool, &mut stats)
                        .into_iter()
                        .map(|h| Neighbor::new(h.id, h.dist))
                        .collect(),
                });
            }
            counts.probes += route.len() as u64;
            partials.push(lists);
        }
        counts.dist_evals = stats.dist_evals;
        tracer.exit();

        // A forced representative can sit in two clusters, so the merge
        // keeps the first copy of an id, as the engine does.
        tracer.enter("merge", id);
        let results: Vec<Vec<Neighbor>> = partials
            .into_iter()
            .map(|lists| {
                let mut top = TopK::new(K);
                let mut seen = HashSet::new();
                for n in lists.into_iter().flatten() {
                    if seen.insert(n.id) {
                        top.push(n.id, n.dist);
                    }
                }
                top.into_sorted_vec()
            })
            .collect();
        tracer.exit();

        tracer.enter("cache.lookup", id);
        self.cache.settle();
        counts.evictions = self.cache.evictions() - evictions0;
        tracer.exit();

        tracer.exit();
        Ok((results, counts))
    }

    fn absorb(&mut self, c: &Counts) {
        let t = &mut self.total;
        t.batches += c.batches;
        t.queries += c.queries;
        t.raw_demand += c.raw_demand;
        t.unique += c.unique;
        t.cached += c.cached;
        t.loaded += c.loaded;
        t.evictions += c.evictions;
        t.materialized_bytes += c.materialized_bytes;
        t.probes += c.probes;
        t.dist_evals += c.dist_evals;
        t.fetch_sim_us += c.fetch_sim_us;
        t.rdma.round_trips += c.rdma.round_trips;
        t.rdma.work_requests += c.rdma.work_requests;
        t.rdma.doorbell_batches += c.rdma.doorbell_batches;
        t.rdma.bytes_read += c.rdma.bytes_read;
    }
}

/// A replay that does different work measures nothing: it must agree
/// with the engine on what was cached, what was loaded, the bytes that
/// loading moved and, on the full-precision wire, every result id.
fn agree(
    tally: &mut Tally,
    id: u32,
    full_precision: bool,
    engine: (&[Vec<Neighbor>], &BatchReport),
    replay: (&[Vec<Neighbor>], &Counts),
) {
    let (engine_results, report) = engine;
    let (replay_results, counts) = replay;
    tally.require(
        counts.cached == report.cache_hits as u64 && counts.loaded == report.clusters_loaded as u64,
        || {
            format!(
                "batch {id}: replay cached/loaded {}/{} but engine {}/{}",
                counts.cached, counts.loaded, report.cache_hits, report.clusters_loaded
            )
        },
    );
    let stage = ReadCause::StageLoad;
    tally.require(
        counts.rdma.bytes_for(stage) == report.ledger.bytes_for(stage),
        || {
            format!(
                "batch {id}: replay fetched {} stage-load bytes but engine {}",
                counts.rdma.bytes_for(stage),
                report.ledger.bytes_for(stage)
            )
        },
    );
    if full_precision {
        let ids = |results: &[Vec<Neighbor>]| -> Vec<Vec<u32>> {
            results
                .iter()
                .map(|hits| hits.iter().map(|n| n.id).collect())
                .collect()
        };
        let differing = ids(engine_results)
            .iter()
            .zip(ids(replay_results))
            .filter(|(a, b)| **a != *b)
            .count()
            + engine_results.len().abs_diff(replay_results.len());
        tally.require(differing == 0, || {
            format!("batch {id}: {differing} queries got other ids from the replay")
        });
    }
}

fn span_json(span: &Span) -> Json {
    Json::obj([
        ("name", Json::str(span.name)),
        ("batch", Json::Num(f64::from(span.batch))),
        (
            "parent",
            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("start_ns", Json::Num(span.start_ns as f64)),
        ("end_ns", Json::Num(span.end_ns as f64)),
    ])
}

/// The traced run: per-layer metrics from `TRACE_BATCHES` measured
/// batches. Count-bound, not time-bound, so that every count in it
/// repeats exactly for a seed.
pub fn run(opts: &RunOpts, calibration: &Calibration) -> Result<(Tally, Metrics, Json), Error> {
    let RunOpts {
        spec, scale, seed, ..
    } = opts;
    let mut tally = Tally::default();
    let bench = set_up(spec, scale)?;
    let inputs = workload::inputs(spec, scale, &bench.data, *seed);
    let node = &bench.node;
    let full_precision = !node.is_quantized();
    let mut replay = Replay::new(&bench);
    let mut tracer = Tracer::new();

    // The replay cache goes through the warm-up too, unrecorded.
    tracer.recording = false;
    warm_up(&bench, spec, scale, &inputs, |batch| {
        replay.batch(&mut tracer, 0, batch).map(|_| ())
    })?;
    tracer.recording = true;

    let first = spec.warmup_batches(scale);
    let measured = TRACE_BATCHES.min(spec.floor(scale));
    let mut acked = Acked::default();
    let mut window = RecallWindow::default();
    let mut engine = BatchReport::default();
    let mut engine_wall_us = 0.0;
    let mut engine_ms = Vec::with_capacity(measured);
    let mut inserts = InsertTotals::default();
    let mut invalidated = 0u64;
    for i in 0..measured {
        let id = i as u32;
        if spec.interleaved_inserts {
            let vectors = &inputs.inserts[i];
            inserts.round(&mut tracer, id, &bench, vectors, &mut acked, &mut tally);
            invalidated += replay.invalidate_for(vectors)?;
        }
        let batch = &inputs.batches[first + i];
        let Some((lap, results, report)) = timed_batch(node, batch, &mut tally) else {
            tally.broken.push(format!("measured batch {i} errored"));
            break;
        };
        let (replayed, counts) = replay.batch(&mut tracer, id, batch)?;
        agree(
            &mut tally,
            id,
            full_precision,
            (&results, &report),
            (&replayed, &counts),
        );
        replay.absorb(&counts);
        window.offer(batch, &results, acked.ids.len());
        engine_wall_us += lap.wall_ms * 1e3;
        engine_ms.push(lap.wall_ms + report.breakdown.network_us / 1e3);
        engine.merge(&report);
    }
    // Inserts are measured on every configuration: where the workload
    // has none of its own they follow the queries, so that no cached
    // cluster is invalidated between measured batches.
    if !spec.interleaved_inserts {
        for (i, vectors) in inputs.inserts.iter().take(measured).enumerate() {
            inserts.round(
                &mut tracer,
                i as u32,
                &bench,
                vectors,
                &mut acked,
                &mut tally,
            );
        }
    }
    read_your_writes(node, &acked, &mut tally);
    window.score(&bench.data, &acked, &mut tally);

    let total = replay.total;
    let us = self_us_by_name(tracer.spans());
    let layer = |name: &str| us.get(name).copied().unwrap_or(0.0);
    let layers_us: f64 = us
        .iter()
        .filter(|(n, _)| !matches!(**n, "batch" | "store.insert_batch"))
        .map(|(_, v)| v)
        .sum();
    let batches = total.batches.max(1) as f64;
    let queries = total.queries.max(1) as f64;
    // Rates over work that may not have happened (nothing is fetched on
    // `warm_hot`) read 0, not infinity.
    let rate = |work: f64, us: f64| {
        if work > 0.0 && us > 0.0 {
            work / us
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let engine_queries = engine.queries.max(1) as f64;
    let ledger = engine.ledger;
    let host_phases = engine.breakdown.meta_hnsw_us
        + engine.breakdown.materialize_us
        + engine.breakdown.sub_hnsw_us;
    let inserted = inserts.vectors.max(1) as f64;

    let mut m = Metrics::default();
    m.set("vecsim.l2_ns_per_dim", calibration.l2_ns_per_dim);
    m.set("vecsim.sq_ns_per_code", calibration.sq_ns_per_code);
    m.set("vecsim.topk_push_ns", calibration.topk_push_ns);
    m.set("meta.route_us_per_query", layer("meta.route") / queries);
    m.set("loader.plan_us_per_batch", layer("loader.plan") / batches);
    m.set(
        "loader.unique_clusters_per_batch",
        total.unique as f64 / batches,
    );
    m.set(
        "loader.dedup_ratio",
        ratio(total.unique as f64, total.raw_demand as f64),
    );
    m.set(
        "cache.hit_rate",
        ratio(total.cached as f64, total.unique as f64),
    );
    m.set(
        "cache.evictions_per_batch",
        total.evictions as f64 / batches,
    );
    m.set("cache.op_us_per_batch", layer("cache.lookup") / batches);
    m.set(
        "rdma.fetch_host_us_per_batch",
        layer("rdma.fetch") / batches,
    );
    m.set(
        "rdma.fetch_host_mb_per_s",
        rate(total.rdma.bytes_read as f64, layer("rdma.fetch")),
    );
    m.set("rdma.fetch_sim_us_per_batch", total.fetch_sim_us / batches);
    m.set(
        "rdma.bytes_per_query",
        total.rdma.bytes_read as f64 / queries,
    );
    m.set(
        "rdma.round_trips_per_query",
        total.rdma.round_trips as f64 / queries,
    );
    m.set(
        "rdma.wrs_per_doorbell",
        ratio(
            total.rdma.work_requests as f64,
            total.rdma.doorbell_batches as f64,
        ),
    );
    m.set(
        "cluster.materialize_us_per_batch",
        layer("cluster.materialize") / batches,
    );
    m.set(
        "cluster.materialize_mb_per_s",
        rate(
            total.materialized_bytes as f64,
            layer("cluster.materialize"),
        ),
    );
    m.set(
        "cluster.search_us_per_probe",
        layer("cluster.search") / total.probes.max(1) as f64,
    );
    m.set(
        "cluster.dist_evals_per_probe",
        ratio(total.dist_evals as f64, total.probes as f64),
    );
    m.set("merge.us_per_query", layer("merge") / queries);
    m.set("replay.overhead_us_per_batch", layer("batch") / batches);
    m.set("engine.wall_us_per_query", engine_wall_us / engine_queries);
    m.set(
        "engine.meta_us_per_query",
        engine.breakdown.meta_hnsw_us / engine_queries,
    );
    m.set(
        "engine.network_sim_us_per_query",
        engine.breakdown.network_us / engine_queries,
    );
    m.set(
        "engine.materialize_us_per_query",
        engine.breakdown.materialize_us / engine_queries,
    );
    m.set(
        "engine.sub_search_us_per_query",
        engine.breakdown.sub_hnsw_us / engine_queries,
    );
    m.set(
        "engine.other_us_per_query",
        (engine_wall_us - host_phases) / engine_queries,
    );
    m.set("engine.cache_hit_rate", engine.cache_hit_rate());
    m.set(
        "engine.clusters_loaded_per_batch",
        engine.clusters_loaded as f64 / batches,
    );
    m.set("engine.read_retries", engine.read_retries as f64);
    m.set(
        "engine.bytes_stage_load_per_query",
        ledger.bytes_for(ReadCause::StageLoad) as f64 / engine_queries,
    );
    m.set(
        "engine.bytes_rerank_per_query",
        ledger.bytes_for(ReadCause::Rerank) as f64 / engine_queries,
    );
    m.set(
        "engine.trips_rerank_per_query",
        ledger.trips_for(ReadCause::Rerank) as f64 / engine_queries,
    );
    m.set(
        "engine.bytes_version_check_per_query",
        ledger.bytes_for(ReadCause::VersionCheck) as f64 / engine_queries,
    );
    m.set(
        "engine.bytes_overflow_scan_per_query",
        ledger.bytes_for(ReadCause::OverflowScan) as f64 / engine_queries,
    );
    m.set("engine.parallel_speedup", ratio(layers_us, engine_wall_us));
    m.set("store.build_s", bench.build_s);
    m.set(
        "store.insert_us_per_vector",
        layer("store.insert_batch") / inserted,
    );
    m.set("store.insert_sim_us_per_vector", inserts.sim_us / inserted);
    m.set(
        "store.insert_round_trips_per_vector",
        inserts.round_trips as f64 / inserted,
    );
    m.set(
        "store.invalidated_clusters_per_round",
        ratio(invalidated as f64, inserts.rounds as f64),
    );
    m.set(
        "trace.engine_ms_p50",
        Timing::of(&engine_ms).map_or(0.0, |t| t.p50),
    );

    // Counts that must repeat bit-for-bit for a seed; `--compare` holds
    // two traced results to that.
    let exact = Json::obj([
        ("rdma.bytes", Json::Num(total.rdma.bytes_read as f64)),
        ("rdma.round_trips", Json::Num(total.rdma.round_trips as f64)),
        (
            "rdma.work_requests",
            Json::Num(total.rdma.work_requests as f64),
        ),
        ("engine.bytes", Json::Num(engine.bytes_read as f64)),
        ("engine.round_trips", Json::Num(engine.round_trips as f64)),
        ("insert.round_trips", Json::Num(inserts.round_trips as f64)),
        ("cache.hits", Json::Num(total.cached as f64)),
        ("cache.evictions", Json::Num(total.evictions as f64)),
    ]);
    let self_us = {
        let mut names: Vec<_> = us.iter().collect();
        names.sort_by(|a, b| a.0.cmp(b.0));
        Json::obj(names.into_iter().map(|(n, v)| (*n, Json::Num(*v))))
    };
    let extra = vec![
        (
            "samples",
            Json::obj([
                ("measured_batches", Json::Num(total.batches as f64)),
                ("measured_queries", Json::Num(total.queries as f64)),
                ("insert_rounds", Json::Num(inserts.rounds as f64)),
                ("insert_batch", Json::Num(INSERT_BATCH as f64)),
            ]),
        ),
        ("exact_counts", exact),
        ("self_us_by_span", self_us),
        (
            "spans",
            Json::Arr(tracer.spans().iter().map(span_json).collect()),
        ),
    ];
    let doc = Described {
        opts,
        traced: true,
        config: &bench.config,
        calibration,
    }
    .document(&tally, &m, &PER_LAYER, extra);
    Ok((tally, m, doc))
}

/// Insert rounds of a traced run, each under a `store.insert_batch`
/// span.
#[derive(Default)]
struct InsertTotals {
    rounds: u64,
    vectors: u64,
    round_trips: u64,
    sim_us: f64,
}

impl InsertTotals {
    fn round(
        &mut self,
        tracer: &mut Tracer,
        id: u32,
        bench: &Bench,
        vectors: &Dataset,
        acked: &mut Acked,
        tally: &mut Tally,
    ) {
        tracer.enter("store.insert_batch", id);
        let done = timed_insert(&bench.node, vectors, acked, tally);
        tracer.exit();
        if let Some(cost) = done {
            self.rounds += 1;
            self.vectors += vectors.len() as u64;
            self.round_trips += cost.round_trips;
            self.sim_us += cost.sim_us;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            batch: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("batch", None, 0, 100),
            span("meta.route", Some(0), 5, 25),
            span("cluster.search", Some(0), 30, 90),
            span("inner", Some(2), 40, 50),
            span("meta.route", Some(0), 90, 95),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 50, 10, 5]);
        let by_name = self_us_by_name(&spans);
        assert_eq!(by_name["meta.route"], 0.025);
        assert_eq!(by_name["batch"], 0.015);
        // Self times tile the root: nothing is counted twice or lost.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::new();
        t.enter("batch", 3);
        t.enter("meta.route", 3);
        t.exit();
        t.enter("merge", 3);
        t.exit();
        t.exit();
        t.enter("batch", 4);
        t.exit();
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert_eq!(t.spans()[3].batch, 4);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
    }

    #[test]
    fn a_tracer_that_is_not_recording_keeps_nothing() {
        let mut t = Tracer::new();
        t.recording = false;
        t.enter("batch", 0);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
