//! Set-up, the output checks, and the un-traced run that produces the
//! end-to-end metrics.

use std::time::Instant;

use crate::clock::{Lap, Pace, Stopwatch};
use dhnsw::{BatchReport, ComputeNode, DHnswConfig, SearchMode, VectorStore};
use vecsim::{ground_truth, recall, Dataset, Metric, Neighbor};

use crate::calib::Calibration;
use crate::json::Json;
use crate::report::{peak_rss_mb, Described, Metrics, Tally, END_TO_END, UNGATED};
use crate::stats::{median, Timing};
use crate::workload::{
    self, Inputs, Scale, Spec, Warmup, EF, INSERT_BATCH, K, READ_YOUR_WRITES, RECALL_QUERIES,
};

pub type Error = Box<dyn std::error::Error>;

/// Lowest recall@10 a run may score and still count as correct.
pub const MIN_RECALL: f64 = 0.80;

pub struct RunOpts {
    pub spec: Spec,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
}

/// One built and connected store.
pub struct Bench {
    pub config: DHnswConfig,
    pub data: Dataset,
    pub store: VectorStore,
    pub node: ComputeNode,
    /// `VectorStore::build` alone, wall seconds.
    pub build_s: f64,
    /// Data generation + build + connect.
    pub ready: Lap,
}

/// Generates the base vectors, builds the store and connects one compute
/// node to it.
pub fn set_up(spec: &Spec, scale: &Scale) -> Result<Bench, Error> {
    let config = spec.config(scale);
    let watch = Stopwatch::start();
    let data = workload::base_vectors(scale);
    let to_build = data.clone();
    let t_build = Instant::now();
    let store = VectorStore::build(to_build, &config)?;
    let build_s = t_build.elapsed().as_secs_f64();
    let node = store.connect(SearchMode::Full)?;
    Ok(Bench {
        config,
        data,
        store,
        node,
        build_s,
        ready: watch.lap(),
    })
}

/// Runs the workload's warm-up batches through the engine; `also` sees
/// each batch afterwards (the traced run keeps its replay cache in step
/// with it). Returns what it cost.
pub fn warm_up(
    bench: &Bench,
    spec: &Spec,
    scale: &Scale,
    inputs: &Inputs,
    mut also: impl FnMut(&Dataset) -> Result<(), Error>,
) -> Result<Lap, Error> {
    let watch = Stopwatch::start();
    for batch in &inputs.batches[..spec.warmup_batches(scale)] {
        let (_, report) = bench.node.query_batch(batch, K, EF)?;
        also(batch)?;
        if matches!(spec.warmup, Warmup::UntilResident(_)) && report.clusters_loaded == 0 {
            break;
        }
    }
    Ok(watch.lap())
}

/// How many of `results` are not exactly `K` distinct ids in ascending
/// distance order.
pub fn malformed(results: &[Vec<Neighbor>]) -> u64 {
    results
        .iter()
        .filter(|hits| {
            let mut ids: Vec<u32> = hits.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            hits.len() != K || ids.len() != K || hits.windows(2).any(|w| w[0].dist > w[1].dist)
        })
        .count() as u64
}

/// One timed `query_batch`: what the call cost the host, or `None` when
/// the batch errored. Simulated batch latency is that host time plus the
/// report's `breakdown.network_us` (the exposed virtual network time),
/// the engine's own definition. Counts the batch's queries, and the
/// failed ones, into `tally`.
pub fn timed_batch(
    node: &ComputeNode,
    batch: &Dataset,
    tally: &mut Tally,
) -> Option<(Lap, Vec<Vec<Neighbor>>, BatchReport)> {
    tally.attempted += batch.len() as u64;
    let watch = Stopwatch::start();
    let outcome = node.query_batch(batch, K, EF);
    let lap = watch.lap();
    match outcome {
        Ok((results, report)) => {
            let short = batch.len().abs_diff(results.len()) as u64;
            tally.failed += short + malformed(&results) + report.degraded_queries as u64;
            Some((lap, results, report))
        }
        Err(e) => {
            eprintln!("query_batch failed: {e}");
            tally.failed += batch.len() as u64;
            None
        }
    }
}

/// Acknowledged inserts, in acknowledgement order.
#[derive(Default)]
pub struct Acked {
    pub ids: Vec<u32>,
    pub vectors: Vec<Vec<f32>>,
}

/// What one `insert_batch` call cost.
pub struct InsertCost {
    /// Host time of the call.
    pub lap: Lap,
    pub round_trips: u64,
    /// The virtual-clock delta alone.
    pub sim_us: f64,
}

/// One timed `insert_batch`; `None` when the whole call errored.
pub fn timed_insert(
    node: &ComputeNode,
    vectors: &Dataset,
    acked: &mut Acked,
    tally: &mut Tally,
) -> Option<InsertCost> {
    tally.attempted += vectors.len() as u64;
    let qp = node.queue_pair();
    let (clock0, trips0) = (qp.clock().now_us(), qp.stats().round_trips());
    let watch = Stopwatch::start();
    let outcome = node.insert_batch(vectors);
    let lap = watch.lap();
    let sim_us = qp.clock().now_us() - clock0;
    match outcome {
        Ok(results) => {
            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok(id) => {
                        acked.ids.push(*id);
                        acked.vectors.push(vectors.get(i).to_vec());
                    }
                    Err(e) => {
                        eprintln!("insert rejected: {e}");
                        tally.failed += 1;
                    }
                }
            }
            Some(InsertCost {
                lap,
                round_trips: qp.stats().round_trips() - trips0,
                sim_us,
            })
        }
        Err(e) => {
            eprintln!("insert_batch failed: {e}");
            tally.failed += vectors.len() as u64;
            None
        }
    }
}

/// Read-your-writes: a sample of acknowledged inserts, queried with
/// their own vector, must come back at rank 1.
pub fn read_your_writes(node: &ComputeNode, acked: &Acked, tally: &mut Tally) {
    let sample = READ_YOUR_WRITES.min(acked.ids.len());
    if sample == 0 {
        return;
    }
    let picks: Vec<usize> = (0..sample).map(|i| i * acked.ids.len() / sample).collect();
    let rows: Vec<&[f32]> = picks.iter().map(|&i| acked.vectors[i].as_slice()).collect();
    let queries = Dataset::from_rows(&rows).expect("inserts share one dimension");
    if let Some((_, results, _)) = timed_batch(node, &queries, tally) {
        let lost = picks
            .iter()
            .zip(&results)
            .filter(|(&i, hits)| hits.first().map(|n| n.id) != Some(acked.ids[i]))
            .count();
        tally.failed += lost as u64;
        tally.require(lost == 0, || {
            format!("read-your-writes: {lost} of {sample} inserts not at rank 1")
        });
    }
}

/// Result ids of the first measured queries, each batch with the number
/// of inserts acknowledged before it ran.
#[derive(Default)]
pub struct RecallWindow {
    batches: Vec<(Dataset, Vec<Vec<u32>>, usize)>,
    queries: usize,
}

impl RecallWindow {
    pub fn offer(&mut self, batch: &Dataset, results: &[Vec<Neighbor>], acked_before: usize) {
        if self.queries < RECALL_QUERIES {
            let ids = results
                .iter()
                .map(|hits| hits.iter().map(|n| n.id).collect())
                .collect();
            self.batches.push((batch.clone(), ids, acked_before));
            self.queries += batch.len();
        }
    }

    /// Mean recall@K against exact search over the base vectors plus
    /// every insert acknowledged before the batch. Insert ids must
    /// continue the base ids, so that a truth row is a result id.
    pub fn score(&self, data: &Dataset, acked: &Acked, tally: &mut Tally) -> f64 {
        let needed = self.batches.iter().map(|(_, _, n)| *n).max().unwrap_or(0);
        let sequential = acked.ids[..needed]
            .iter()
            .enumerate()
            .all(|(i, &id)| id as usize == data.len() + i);
        tally.require(sequential, || {
            "insert ids do not continue the base ids".into()
        });
        let mut truth_set = data.clone();
        let (mut sum, mut n) = (0.0, 0usize);
        for (queries, ids, acked_before) in &self.batches {
            for v in &acked.vectors[truth_set.len() - data.len()..*acked_before] {
                truth_set.push(v).expect("inserts share the base dimension");
            }
            let truth = ground_truth::exact_batch(&truth_set, queries, K, Metric::L2);
            sum += recall::mean_recall(ids, &truth) * ids.len() as f64;
            n += ids.len();
        }
        let score = sum / n.max(1) as f64;
        tally.require(score >= MIN_RECALL, || {
            format!("recall_at_10 {score:.4} is below {MIN_RECALL}")
        });
        score
    }
}

/// One measured operation: when it ran on the pace's clock, what it cost
/// the host, and the virtual network time it was charged.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: f64,
    pub lap: Lap,
    pub network_ms: f64,
}

impl Sample {
    /// Latency as gated: CPU time at nominal machine speed plus the
    /// virtual network time, which no machine's speed changes.
    pub fn latency_ms(&self, pace: &Pace) -> f64 {
        self.lap.cpu_ms * pace.scale_at(self.at) + self.network_ms
    }

    fn to_json(self) -> Json {
        Json::Arr(
            [self.at, self.lap.cpu_ms, self.lap.wall_ms, self.network_ms]
                .map(Json::Num)
                .to_vec(),
        )
    }
}

/// Reference-kernel runs on each side of one set-up.
const SETUP_PACE_SAMPLES: usize = 8;

/// The un-traced run: end-to-end metrics only, nothing recorded per
/// layer.
pub fn run(opts: &RunOpts, calibration: &Calibration) -> Result<(Tally, Metrics, Json), Error> {
    let RunOpts {
        spec,
        scale,
        seed,
        seconds,
    } = opts;
    let mut tally = Tally::default();
    let mut pace = Pace::new();

    // Set up several times and report the median; measure on the last.
    let mut inputs: Option<Inputs> = None;
    let mut setup_each = Vec::with_capacity(scale.setups);
    let mut setup_wall = Vec::with_capacity(scale.setups);
    let mut peak_rss = 0.0;
    let mut bench = None;
    for _ in 0..scale.setups {
        drop(bench.take()); // free the previous store before building the next
        let around = pace.samples.len();
        pace.sample(SETUP_PACE_SAMPLES);
        let built = set_up(spec, scale)?;
        let inputs =
            inputs.get_or_insert_with(|| workload::inputs(spec, scale, &built.data, *seed));
        let warm = warm_up(&built, spec, scale, inputs, |_| Ok(()))?;
        pace.sample(SETUP_PACE_SAMPLES);
        let cpu_s = (built.ready.cpu_ms + warm.cpu_ms) / 1e3;
        setup_each.push(cpu_s * pace.scale_over(around..));
        setup_wall.push((built.ready.wall_ms + warm.wall_ms) / 1e3);
        if setup_each.len() == 1 {
            // Sampled here, not at exit: the allocator never returns what
            // later set-ups and the benchmark's own exact search touch, and
            // how much that is varies by 15 % between identical runs.
            peak_rss = peak_rss_mb();
        }
        bench = Some(built);
    }
    let bench = bench.expect("at least one set-up");
    let inputs = inputs.expect("generated with the first set-up");
    let node = &bench.node;

    let first = spec.warmup_batches(scale);
    let floor = spec.floor(scale);
    let mut acked = Acked::default();
    let mut window = RecallWindow::default();
    let mut batches: Vec<Sample> = Vec::new();
    let mut inserts: Vec<Sample> = Vec::new();
    let mut observed = BatchReport::default();
    let mut insert_round =
        |vectors: &Dataset, pace: &Pace, acked: &mut Acked, tally: &mut Tally| {
            let at = pace.now();
            if let Some(cost) = timed_insert(node, vectors, acked, tally) {
                inserts.push(Sample {
                    at,
                    lap: cost.lap,
                    network_ms: cost.sim_us / 1e3,
                });
            }
        };
    let started = Instant::now();
    while batches.len() < floor
        || (!spec.interleaved_inserts && started.elapsed().as_secs_f64() < *seconds)
    {
        let i = batches.len();
        if spec.interleaved_inserts {
            pace.tick();
            insert_round(&inputs.inserts[i], &pace, &mut acked, &mut tally);
        }
        let batch = &inputs.batches[(first + i) % inputs.batches.len()];
        pace.tick();
        let at = pace.now();
        let Some((lap, results, report)) = timed_batch(node, batch, &mut tally) else {
            // An errored batch has no latency; stop rather than spin.
            tally.broken.push(format!("measured batch {i} errored"));
            break;
        };
        window.offer(batch, &results, acked.ids.len());
        batches.push(Sample {
            at,
            lap,
            network_ms: report.breakdown.network_us / 1e3,
        });
        observed.merge(&report);
    }
    if !spec.interleaved_inserts {
        for vectors in &inputs.inserts {
            // An insert batch takes a fraction of a millisecond, so the
            // whole tail fits between two ticks: pace every round instead.
            pace.sample(1);
            insert_round(vectors, &pace, &mut acked, &mut tally);
        }
    }
    pace.sample(1);
    read_your_writes(node, &acked, &mut tally);
    let recall = window.score(&bench.data, &acked, &mut tally);

    let latencies =
        |samples: &[Sample]| -> Vec<f64> { samples.iter().map(|s| s.latency_ms(&pace)).collect() };
    let batch_ms = latencies(&batches);
    let batch = Timing::of(&batch_ms).ok_or("no batch was measured")?;
    let insert = Timing::of(&latencies(&inserts)).ok_or("no insert batch was measured")?;
    let wall_ms: Vec<f64> = batches
        .iter()
        .map(|s| s.lap.wall_ms + s.network_ms)
        .collect();
    let wall = Timing::of(&wall_ms).ok_or("no batch was measured")?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_each));
    metrics.set(
        "qps",
        observed.queries as f64 / (batch_ms.iter().sum::<f64>() / 1e3),
    );
    metrics.set("batch_ms_p50", batch.p50);
    metrics.set("insert_ms_p50", insert.p50);
    metrics.set("recall_at_10", recall);
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("remote_mb", bench.store.remote_bytes() as f64 / 1e6);

    let mut ungated = Metrics::default();
    ungated.set("batch_ms_p90", batch.p90);
    ungated.set("wall.setup_s", median(&setup_wall));
    ungated.set("wall.batch_ms_p50", wall.p50);
    ungated.set("wall.batch_ms_p90", wall.p90);
    ungated.set(
        "pace.kernel_ms_p50",
        median(&pace.samples.iter().map(|s| s.1).collect::<Vec<_>>()),
    );

    let count = |n: usize| Json::Num(n as f64);
    let series = |samples: &[Sample]| Json::Arr(samples.iter().map(|s| s.to_json()).collect());
    let queries = observed.queries.max(1) as f64;
    let extra = vec![
        ("ungated", ungated.to_json(&UNGATED)),
        (
            "samples",
            Json::obj([
                ("batch_ms", count(batch.samples)),
                ("batch_ms_beyond_p90", count(batch.beyond_p90)),
                ("batch_ms_p90_resolved", Json::Bool(batch.p90_resolved())),
                ("insert_ms", count(insert.samples)),
                ("recall_queries", count(window.queries)),
                (
                    "setup_s",
                    Json::Arr(setup_each.iter().map(|&s| Json::Num(s)).collect()),
                ),
                ("insert_batch", count(INSERT_BATCH)),
                ("pace_kernel_runs", count(pace.samples.len())),
            ]),
        ),
        (
            "batch_ms",
            Json::Arr(batch_ms.iter().map(|&ms| Json::Num(ms)).collect()),
        ),
        (
            // Every measured operation as [seconds into the run, CPU ms,
            // wall ms, virtual network ms], and every reference-kernel run
            // as [seconds into the run, CPU ms]: what the gated latencies
            // were computed from.
            "series",
            Json::obj([
                ("batch", series(&batches)),
                ("insert", series(&inserts)),
                (
                    "pace_kernel",
                    Json::Arr(
                        pace.samples
                            .iter()
                            .map(|&(at, ms)| Json::Arr(vec![Json::Num(at), Json::Num(ms)]))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            // The engine's own counters over the measured batches, so an
            // un-traced result can be read without its traced twin.
            "observed",
            Json::obj([
                ("cache_hit_rate", Json::Num(observed.cache_hit_rate())),
                (
                    "bytes_per_query",
                    Json::Num(observed.bytes_read as f64 / queries),
                ),
                (
                    "round_trips_per_query",
                    Json::Num(observed.round_trips as f64 / queries),
                ),
                (
                    "clusters_loaded_per_batch",
                    Json::Num(observed.clusters_loaded as f64 / batch.samples as f64),
                ),
                (
                    "cache_evictions",
                    Json::Num(node.cache_stats().evictions as f64),
                ),
            ]),
        ),
    ];
    let doc = Described {
        opts,
        traced: false,
        config: &bench.config,
        calibration,
    }
    .document(&tally, &metrics, &END_TO_END, extra);
    Ok((tally, metrics, doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(pairs: &[(u32, f32)]) -> Vec<Neighbor> {
        pairs.iter().map(|&(id, d)| Neighbor::new(id, d)).collect()
    }

    #[test]
    fn malformed_counts_short_unsorted_and_duplicate_lists() {
        let good: Vec<(u32, f32)> = (0..K as u32).map(|i| (i, i as f32)).collect();
        let mut short = good.clone();
        short.pop();
        let mut unsorted = good.clone();
        unsorted.swap(0, 1);
        let mut duplicate = good.clone();
        duplicate[3].0 = 2;
        let lists = [hits(&good), hits(&short), hits(&unsorted), hits(&duplicate)];
        assert_eq!(malformed(&lists), 3);
        assert_eq!(malformed(&lists[..1]), 0);
    }
}
