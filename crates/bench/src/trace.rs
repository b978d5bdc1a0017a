//! Operation-trace driving: mixed query/insert streams with per-batch
//! latency percentiles.
//!
//! The paper reports means over large batches; serving systems also care
//! about tails. This driver synthesizes a deterministic operation trace
//! (query batches interleaved with insert bursts, optionally Zipf-skewed),
//! replays it against one compute node, and reports p50/p95/p99 of the
//! per-batch latency.

use dhnsw::{BatchReport, ComputeNode, Error};
use vecsim::{gen, Dataset};

/// One operation in a trace.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query batch (the dataset rows to use as queries).
    QueryBatch(Dataset),
    /// An insert burst.
    InsertBurst(Dataset),
}

/// Specification of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Query batches in the trace.
    pub batches: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Insert bursts interleaved (one after every `batches / bursts`
    /// query batches; 0 = read-only trace).
    pub bursts: usize,
    /// Inserts per burst.
    pub burst_size: usize,
    /// Zipf skew over base vectors for query popularity (0 = uniform).
    pub skew: f64,
    /// Perturbation noise fraction.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            batches: 10,
            batch_size: 64,
            bursts: 2,
            burst_size: 8,
            skew: 0.0,
            noise: 0.03,
            seed: 0x7ACE,
        }
    }
}

impl TraceSpec {
    /// Materializes the trace against a base dataset.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn synthesize(&self, base: &Dataset) -> Result<Vec<Op>, vecsim::Error> {
        let mut ops = Vec::new();
        let burst_every = if self.bursts == 0 {
            usize::MAX
        } else {
            self.batches.div_ceil(self.bursts).max(1)
        };
        for b in 0..self.batches {
            let queries = if self.skew > 0.0 {
                gen::zipf_queries(
                    base,
                    self.batch_size,
                    self.noise,
                    self.skew,
                    self.seed.wrapping_add(b as u64),
                )?
            } else {
                gen::perturbed_queries(
                    base,
                    self.batch_size,
                    self.noise,
                    self.seed.wrapping_add(b as u64),
                )?
            };
            ops.push(Op::QueryBatch(queries));
            if (b + 1) % burst_every == 0 {
                let inserts = gen::perturbed_queries(
                    base,
                    self.burst_size,
                    self.noise / 2.0,
                    self.seed.wrapping_add(1_000 + b as u64),
                )?;
                ops.push(Op::InsertBurst(inserts));
            }
        }
        Ok(ops)
    }
}

/// Outcome of replaying a trace.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Each query batch's report, as the engine returned it, in trace
    /// order.
    pub batches: Vec<BatchReport>,
    /// Total vectors inserted (accepted).
    pub inserts: usize,
    /// Inserts rejected with overflow-full.
    pub insert_rejects: usize,
}

impl TraceReport {
    /// Per-batch latencies — each report's `total_us`: host wall plus
    /// exposed virtual network time — µs, in trace order.
    pub fn batch_latencies_us(&self) -> Vec<f64> {
        self.batches.iter().map(|r| r.total_us).collect()
    }

    /// The `q`-th latency percentile (0.0–1.0) over query batches, µs.
    /// Returns `0.0` for an empty trace.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let mut sorted = self.batch_latencies_us();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[rank]
    }

    /// Mean per-batch latency, µs.
    pub fn mean_us(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batch_latencies_us().iter().sum::<f64>() / self.batches.len() as f64
    }

    /// The query batches merged into one report ([`BatchReport::merge`]):
    /// queries, bytes, round trips, doorbell batches, the ledger and the
    /// exposed network time summed over the trace; its `cache_hit_rate()`
    /// is cache hits over unique-cluster demand across all batches.
    pub fn total(&self) -> BatchReport {
        let mut total = BatchReport::default();
        for batch in &self.batches {
            total.merge(batch);
        }
        total
    }
}

/// Replays `ops` against `node`, collecting per-batch latencies.
///
/// # Errors
///
/// Propagates engine errors (overflow-full inserts are counted, not
/// raised).
pub fn replay(node: &ComputeNode, ops: &[Op], k: usize, ef: usize) -> Result<TraceReport, Error> {
    let mut report = TraceReport::default();
    for op in ops {
        match op {
            Op::QueryBatch(queries) => {
                report.batches.push(node.query_batch(queries, k, ef)?.1);
            }
            Op::InsertBurst(vectors) => {
                for r in node.insert_batch(vectors)? {
                    match r {
                        Ok(_) => report.inserts += 1,
                        Err(Error::OverflowFull { .. }) => report.insert_rejects += 1,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhnsw::{DHnswConfig, SearchMode, VectorStore};

    fn setup() -> (Dataset, VectorStore) {
        let data = gen::sift_like(600, 51).unwrap();
        let store = VectorStore::build(
            data.clone(),
            &DHnswConfig::small().with_overflow_slots(64),
        )
        .unwrap();
        (data, store)
    }

    #[test]
    fn synthesize_produces_expected_op_mix() {
        let (data, _) = setup();
        let spec = TraceSpec {
            batches: 6,
            bursts: 2,
            ..Default::default()
        };
        let ops = spec.synthesize(&data).unwrap();
        let queries = ops.iter().filter(|o| matches!(o, Op::QueryBatch(_))).count();
        let bursts = ops.iter().filter(|o| matches!(o, Op::InsertBurst(_))).count();
        assert_eq!(queries, 6);
        assert_eq!(bursts, 2);
    }

    #[test]
    fn read_only_trace_has_no_bursts() {
        let (data, _) = setup();
        let ops = TraceSpec {
            bursts: 0,
            ..Default::default()
        }
        .synthesize(&data)
        .unwrap();
        assert!(ops.iter().all(|o| matches!(o, Op::QueryBatch(_))));
    }

    #[test]
    fn replay_accounts_for_everything() {
        let (data, store) = setup();
        let node = store.connect(SearchMode::Full).unwrap();
        let spec = TraceSpec {
            batches: 4,
            batch_size: 10,
            bursts: 2,
            burst_size: 3,
            ..Default::default()
        };
        let ops = spec.synthesize(&data).unwrap();
        let report = replay(&node, &ops, 5, 32).unwrap();
        let total = report.total();
        assert_eq!(total.queries, 40);
        assert_eq!(report.inserts + report.insert_rejects, 6);
        assert_eq!(report.batches.len(), 4);
        assert!(total.round_trips > 0);
        assert!(report.mean_us() > 0.0);
        assert!(total.bytes_read > 0);
        let t = &report.batches[0];
        assert_eq!(t.mode, "full");
        assert_eq!((t.queries, t.k, t.ef), (10, 5, 32));
        assert!(t.unique_clusters > 0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let report = TraceReport {
            batches: [5.0, 1.0, 9.0, 3.0, 7.0]
                .iter()
                .map(|&total_us| BatchReport { total_us, ..Default::default() })
                .collect(),
            ..Default::default()
        };
        assert_eq!(report.percentile_us(0.0), 1.0);
        assert_eq!(report.percentile_us(0.5), 5.0);
        assert_eq!(report.percentile_us(1.0), 9.0);
        assert!(report.percentile_us(0.95) >= report.percentile_us(0.5));
    }

    #[test]
    fn empty_report_is_zeroed() {
        let report = TraceReport::default();
        assert_eq!(report.percentile_us(0.5), 0.0);
        assert_eq!(report.mean_us(), 0.0);
        assert_eq!(report.total().cache_hit_rate(), 0.0);
        assert_eq!(report.total().doorbell_batches, 0);
    }

    #[test]
    fn skewed_trace_gets_better_cache_behaviour() {
        let data = gen::sift_like(2_000, 52).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let run = |skew: f64| {
            let node = store.connect(SearchMode::Full).unwrap();
            let ops = TraceSpec {
                batches: 6,
                batch_size: 40,
                bursts: 0,
                skew,
                ..Default::default()
            }
            .synthesize(&data)
            .unwrap();
            replay(&node, &ops, 5, 16).unwrap().total().round_trips
        };
        let uniform_trips = run(0.0);
        let skewed_trips = run(1.5);
        assert!(
            skewed_trips <= uniform_trips,
            "skewed {skewed_trips} vs uniform {uniform_trips}"
        );
    }
}
