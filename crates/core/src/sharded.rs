//! Scale-out across multiple memory nodes.
//!
//! The paper evaluates a single memory instance; its introduction,
//! though, motivates datasets that outgrow one machine. This module
//! provides the natural scale-out: the dataset is split across `M`
//! independent memory nodes, each carrying a full d-HNSW store (its own
//! meta-HNSW, layout, and overflow areas) over its slice, and a sharded
//! compute session fans every query batch out to all shards and merges
//! the per-shard top-k. This is the Pyramid-style deployment the paper's
//! §3.1 cites as its inspiration.
//!
//! Global ids are `shard * SHARD_STRIDE + local_id`, so results from
//! different shards never collide and inserts (which allocate local ids
//! via each shard's remote counter) stay globally unique.

use std::sync::Arc;

use vecsim::{Dataset, Neighbor, TopK};

use crate::breakdown::BatchReport;
use crate::engine::{ComputeNode, SearchMode};
use crate::health::report::HealthReport;
use crate::store::VectorStore;
use crate::telemetry::{metrics, Counter, Telemetry};
use crate::{DHnswConfig, Error, Result};

/// Id stride between shards: local ids live below it, the shard index
/// above it. Allows up to 16 shards of ~268M vectors each within `u32`.
pub const SHARD_STRIDE: u32 = 1 << 28;

/// Maximum shard count representable in the global id scheme.
pub const MAX_SHARDS: usize = (u32::MAX / SHARD_STRIDE) as usize;

/// Splits a global id into `(shard, local)`.
pub fn split_id(global: u32) -> (usize, u32) {
    ((global / SHARD_STRIDE) as usize, global % SHARD_STRIDE)
}

/// Combines `(shard, local)` into a global id.
pub fn join_id(shard: usize, local: u32) -> u32 {
    shard as u32 * SHARD_STRIDE + local
}

/// A d-HNSW deployment sharded over several memory nodes.
///
/// # Example
///
/// ```rust
/// use dhnsw::{DHnswConfig, SearchMode, ShardedStore};
/// use vecsim::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = gen::sift_like(1_200, 5)?;
/// let store = ShardedStore::build(&data, &DHnswConfig::small(), 3)?;
/// assert_eq!(store.shards(), 3);
/// let session = store.connect(SearchMode::Full)?;
/// let hits = session.query(data.get(7), 5, 32)?;
/// assert_eq!(hits.len(), 5);
/// assert_eq!(hits[0].dist, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedStore {
    stores: Vec<VectorStore>,
    shard_rows: Vec<Vec<u32>>,
}

impl ShardedStore {
    /// Builds `shards` independent stores, distributing `data` round-robin
    /// (so every shard sees the same distribution and partitions stay
    /// balanced).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for zero/too-many shards, a
    /// dataset smaller than the shard count, or an invalid configuration.
    pub fn build(data: &Dataset, config: &DHnswConfig, shards: usize) -> Result<Self> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(Error::InvalidParameter(format!(
                "shard count must be in 1..={MAX_SHARDS}, got {shards}"
            )));
        }
        if data.len() < shards {
            return Err(Error::InvalidParameter(format!(
                "cannot split {} vectors across {shards} shards",
                data.len()
            )));
        }
        let mut shard_rows: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for row in 0..data.len() as u32 {
            shard_rows[row as usize % shards].push(row);
        }
        let stores = shard_rows
            .iter()
            .map(|rows| VectorStore::build(data.select(rows), config))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedStore { stores, shard_rows })
    }

    /// Number of shards (= memory nodes).
    pub fn shards(&self) -> usize {
        self.stores.len()
    }

    /// The per-shard store.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shards()`.
    pub fn shard(&self, i: usize) -> &VectorStore {
        &self.stores[i]
    }

    /// Maps a global result id back to the original dataset row, when the
    /// id names a base vector (inserted vectors have no original row).
    pub fn original_row(&self, global: u32) -> Option<u32> {
        let (shard, local) = split_id(global);
        self.shard_rows
            .get(shard)?
            .get(local as usize)
            .copied()
    }

    /// Total remote bytes across all shards.
    pub fn remote_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.remote_bytes()).sum()
    }

    /// Opens a sharded compute session: one [`ComputeNode`] per shard.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(&self, mode: SearchMode) -> Result<ShardedSession> {
        self.connect_with_telemetry(mode, Telemetry::global())
    }

    /// Opens a sharded compute session reporting to a specific
    /// [`Telemetry`] registry instead of the global one.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect_with_telemetry(
        &self,
        mode: SearchMode,
        telemetry: Arc<Telemetry>,
    ) -> Result<ShardedSession> {
        let nodes = self
            .stores
            .iter()
            .map(|s| s.connect_with_telemetry(mode, Arc::clone(&telemetry)))
            .collect::<Result<Vec<_>>>()?;
        let shard_metrics = (0..nodes.len())
            .map(|i| ShardCounters::new(&telemetry, i))
            .collect();
        Ok(ShardedSession {
            nodes,
            shard_metrics,
        })
    }
}

/// Pre-resolved per-shard counter handles, labeled `{shard="i"}`.
#[derive(Debug)]
struct ShardCounters {
    queries: Arc<Counter>,
    inserts: Arc<Counter>,
}

impl ShardCounters {
    fn new(telemetry: &Telemetry, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard)];
        ShardCounters {
            queries: metrics::SHARD_QUERIES.counter(telemetry, labels),
            inserts: metrics::SHARD_INSERTS.counter(telemetry, labels),
        }
    }
}

/// Per-query coverage across shards: the unweighted mean of each
/// shard's coverage for that query. Every shard routes the same fanout,
/// so shards weigh equally; a shard that degraded (lost clusters to
/// exhausted read retries) pulls the merged coverage below `1.0` while
/// the healthy shards keep answering. An empty coverage vector stands
/// for full coverage, exactly as in [`BatchReport`]; the merged vector
/// is empty when every shard had full coverage.
pub fn merged_coverage(reports: &[BatchReport], queries: usize) -> Vec<f64> {
    if reports.is_empty() || reports.iter().all(|r| r.coverage.is_empty()) {
        return Vec::new();
    }
    let mut out = vec![0.0; queries];
    for r in reports {
        for (q, slot) in out.iter_mut().enumerate() {
            *slot += r.coverage.get(q).copied().unwrap_or(1.0);
        }
    }
    for slot in &mut out {
        *slot /= reports.len() as f64;
    }
    out
}

/// A compute session spanning every shard.
#[derive(Debug)]
pub struct ShardedSession {
    nodes: Vec<ComputeNode>,
    shard_metrics: Vec<ShardCounters>,
}

impl ShardedSession {
    /// Number of shard connections.
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// The per-shard compute node.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shards()`.
    pub fn node(&self, i: usize) -> &ComputeNode {
        &self.nodes[i]
    }

    /// Answers a batch by querying every shard (concurrently) and merging
    /// the per-shard top-k per query. Returned ids are global
    /// (`shard * SHARD_STRIDE + local`). Reports come back per shard —
    /// in a real deployment the shards are independent machines, so their
    /// network times overlap rather than add.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error.
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
        ef: usize,
    ) -> Result<(Vec<Vec<Neighbor>>, Vec<BatchReport>)> {
        if queries.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let shard_outputs: Vec<Result<(Vec<Vec<Neighbor>>, BatchReport)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .nodes
                    .iter()
                    .map(|node| scope.spawn(move || node.query_batch(queries, k, ef)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker does not panic"))
                    .collect()
            });

        let mut per_shard = Vec::with_capacity(self.nodes.len());
        let mut reports = Vec::with_capacity(self.nodes.len());
        for (shard, out) in shard_outputs.into_iter().enumerate() {
            let (results, report) = out?;
            self.shard_metrics[shard].queries.add(queries.len() as u64);
            per_shard.push(results);
            reports.push(report);
        }

        let mut merged = Vec::with_capacity(queries.len());
        for q in 0..queries.len() {
            let mut top = TopK::new(k);
            for (shard, results) in per_shard.iter().enumerate() {
                for n in &results[q] {
                    top.push(join_id(shard, n.id), n.dist);
                }
            }
            merged.push(top.into_sorted_vec());
        }
        Ok((merged, reports))
    }

    /// Sets the micro-batch pipeline depth on every shard connection
    /// (values are clamped to at least 1 per node).
    pub fn set_pipeline_depth(&self, depth: usize) {
        for node in &self.nodes {
            node.set_pipeline_depth(depth);
        }
    }

    /// Sets the background-prefetch byte budget on every shard
    /// connection; `0` disables prefetching.
    pub fn set_prefetch_budget_bytes(&self, budget: u64) {
        for node in &self.nodes {
            node.set_prefetch_budget_bytes(budget);
        }
    }

    /// Runs one heatmap-driven prefetch round on every shard, returning
    /// the total clusters admitted across shards.
    pub fn prefetch_hot(&self) -> usize {
        self.nodes.iter().map(|n| n.prefetch_hot()).sum()
    }

    /// Collects one [`HealthReport`] per shard, in shard order. Each
    /// shard is an independent memory node with its own layout and
    /// overflow areas, so the reports do not aggregate — rebalancing
    /// decisions are per shard.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's report error.
    pub fn health_reports(&self) -> Result<Vec<HealthReport>> {
        self.nodes.iter().map(|n| n.health_report()).collect()
    }

    /// Single-query convenience wrapper.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedSession::query_batch`].
    pub fn query(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Neighbor>> {
        let batch = Dataset::from_rows(&[query])?;
        let (mut results, _) = self.query_batch(&batch, k, ef)?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Inserts into the least-full shard (by base size plus a local
    /// round-robin of this session's inserts), returning the global id.
    ///
    /// # Errors
    ///
    /// Same as [`ComputeNode::insert`].
    pub fn insert(&self, v: &[f32]) -> Result<u32> {
        // Balance by the shards' current insert pressure as this session
        // sees it: rotate deterministically on the remote id counters.
        let mut best = 0usize;
        let mut best_key = u64::MAX;
        for (i, node) in self.nodes.iter().enumerate() {
            let key = node.queue_pair().stats().atomics();
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        let local = self.nodes[best].insert(v)?;
        self.shard_metrics[best].inserts.inc();
        if u64::from(local) >= u64::from(SHARD_STRIDE) {
            return Err(Error::InvalidParameter(format!(
                "shard {best} exceeded the id stride ({local} local ids)"
            )));
        }
        Ok(join_id(best, local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::{gen, ground_truth, recall, Metric};

    fn setup(n: usize, shards: usize) -> (Dataset, ShardedStore) {
        let data = gen::sift_like(n, 61).unwrap();
        let store = ShardedStore::build(&data, &DHnswConfig::small(), shards).unwrap();
        (data, store)
    }

    #[test]
    fn id_scheme_round_trips() {
        for (shard, local) in [(0usize, 0u32), (3, 42), (15, SHARD_STRIDE - 1)] {
            let g = join_id(shard, local);
            assert_eq!(split_id(g), (shard, local));
        }
    }

    #[test]
    fn build_rejects_bad_shard_counts() {
        let data = gen::sift_like(100, 1).unwrap();
        assert!(ShardedStore::build(&data, &DHnswConfig::small(), 0).is_err());
        assert!(ShardedStore::build(&data, &DHnswConfig::small(), MAX_SHARDS + 1).is_err());
        let tiny = gen::sift_like(2, 1).unwrap();
        assert!(ShardedStore::build(&tiny, &DHnswConfig::small(), 3).is_err());
    }

    #[test]
    fn shards_cover_the_dataset_disjointly() {
        let (data, store) = setup(601, 3);
        let total: usize = (0..3).map(|i| store.shard(i).base_len()).sum();
        assert_eq!(total, data.len());
        // Round-robin split: sizes differ by at most one.
        let sizes: Vec<usize> = (0..3).map(|i| store.shard(i).base_len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn original_row_maps_back() {
        let (data, store) = setup(100, 4);
        // Row 6 went to shard 6 % 4 = 2, local position 1 (rows 2, 6, ...).
        let g = join_id(2, 1);
        assert_eq!(store.original_row(g), Some(6));
        let session = store.connect(SearchMode::Full).unwrap();
        let hits = session.query(data.get(6), 1, 32).unwrap();
        assert_eq!(store.original_row(hits[0].id), Some(6));
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn sharded_recall_matches_single_store() {
        let data = gen::sift_like(1_500, 62).unwrap();
        let queries = gen::perturbed_queries(&data, 30, 0.02, 63).unwrap();
        let truth = ground_truth::exact_batch(&data, &queries, 5, Metric::L2);

        let sharded = ShardedStore::build(&data, &DHnswConfig::small(), 3).unwrap();
        let session = sharded.connect(SearchMode::Full).unwrap();
        let (results, reports) = session.query_batch(&queries, 5, 48).unwrap();
        assert_eq!(reports.len(), 3);
        let ids: Vec<Vec<u32>> = results
            .iter()
            .map(|r| {
                r.iter()
                    .filter_map(|n| sharded.original_row(n.id))
                    .collect()
            })
            .collect();
        let r = recall::mean_recall(&ids, &truth);
        assert!(r > 0.7, "sharded recall {r}");
    }

    #[test]
    fn merged_results_are_sorted_and_unique() {
        let (data, store) = setup(900, 3);
        let session = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 10, 0.03, 64).unwrap();
        let (results, _) = session.query_batch(&queries, 8, 32).unwrap();
        for r in &results {
            assert_eq!(r.len(), 8);
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
            let mut ids: Vec<u32> = r.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 8);
        }
    }

    #[test]
    fn inserts_get_globally_unique_ids_and_are_findable() {
        let (data, store) = setup(300, 2);
        let session = store.connect(SearchMode::Full).unwrap();
        let inserts = gen::perturbed_queries(&data, 6, 0.01, 65).unwrap();
        let mut gids = Vec::new();
        for v in inserts.iter() {
            gids.push(session.insert(v).unwrap());
        }
        let mut unique = gids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), gids.len());
        for (i, v) in inserts.iter().enumerate() {
            let hit = session.query(v, 1, 32).unwrap();
            assert_eq!(hit[0].id, gids[i], "insert {i} not found");
        }
    }

    #[test]
    fn health_reports_cover_every_shard() {
        let (data, store) = setup(400, 2);
        let session = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 4, 0.02, 66).unwrap();
        session.query_batch(&queries, 5, 16).unwrap();
        let reports = session.health_reports().unwrap();
        assert_eq!(reports.len(), 2);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.partitions, store.shard(i).partitions());
            assert!(r.route_skew.total > 0, "shard {i} saw the fan-out");
        }
    }

    #[test]
    fn one_degraded_shard_leaves_the_others_answering() {
        let data = gen::sift_like(600, 67).unwrap();
        let cfg = DHnswConfig::small()
            .with_degraded_ok(true)
            .with_read_retry_limit(1);
        let store = ShardedStore::build(&data, &cfg, 2).unwrap();
        let session = store.connect(SearchMode::Full).unwrap();
        let queries = gen::perturbed_queries(&data, 4, 0.02, 68).unwrap();
        // Shard 1's substrate eats every verb: its reads exhaust the
        // retry budget and its queries degrade to zero coverage.
        session.node(1).queue_pair().set_retry_limit(0);
        session.node(1).queue_pair().fail_next(u32::MAX);
        let (results, reports) = session.query_batch(&queries, 5, 32).unwrap();
        session.node(1).queue_pair().fail_next(0);
        assert!(results.iter().all(|r| !r.is_empty()), "healthy shard answers");
        assert_eq!(reports[0].degraded_queries, 0);
        assert_eq!(reports[1].degraded_queries, queries.len());
        let merged = merged_coverage(&reports, queries.len());
        assert_eq!(merged.len(), queries.len());
        for &c in &merged {
            assert!(c > 0.0 && c < 1.0, "merged coverage {c} must be partial");
        }
        // All-healthy reports keep the compact empty form.
        assert!(merged_coverage(&[reports[0].clone()], queries.len()).is_empty());
    }

    #[test]
    fn shard_error_propagates_without_poisoning_metrics() {
        // One shard's substrate fails hard with degraded mode OFF: the
        // session must surface the first shard error, bump only the
        // shards drained before it, and stay fully usable afterwards.
        let data = gen::sift_like(400, 69).unwrap();
        let cfg = DHnswConfig::small().with_read_retry_limit(0);
        let store = ShardedStore::build(&data, &cfg, 2).unwrap();
        let telemetry = Arc::new(Telemetry::new());
        let session = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        let queries = gen::perturbed_queries(&data, 3, 0.02, 70).unwrap();

        session.node(1).queue_pair().set_retry_limit(0);
        session.node(1).queue_pair().fail_next(u32::MAX);
        let err = session.query_batch(&queries, 5, 16).unwrap_err();
        assert!(
            matches!(err, Error::ReadRetriesExhausted { .. }),
            "unexpected error: {err:?}"
        );
        // Shard 0 was drained before the failure, shard 1 never counted.
        let prom = telemetry.render_prometheus();
        assert!(
            prom.contains("dhnsw_shard_queries_total{shard=\"0\"} 3"),
            "healthy shard counter missing:\n{prom}"
        );
        assert!(
            prom.contains("dhnsw_shard_queries_total{shard=\"1\"} 0"),
            "failed shard must not count the aborted batch:\n{prom}"
        );

        // Clear the fault: the same session answers and both shards count.
        session.node(1).queue_pair().fail_next(0);
        let (results, reports) = session.query_batch(&queries, 5, 16).unwrap();
        assert_eq!(results.len(), queries.len());
        assert_eq!(reports.len(), 2);
        let prom = telemetry.render_prometheus();
        assert!(prom.contains("dhnsw_shard_queries_total{shard=\"0\"} 6"));
        assert!(prom.contains("dhnsw_shard_queries_total{shard=\"1\"} 3"));
    }

    #[test]
    fn degraded_coverage_merges_per_query_means() {
        // Pure merge semantics: one shard reports partial coverage, the
        // other full (compact empty form); the merge is the per-query
        // unweighted mean, expanded to explicit values.
        let full = BatchReport {
            queries: 3,
            ..Default::default()
        };
        let degraded = BatchReport {
            queries: 3,
            degraded_queries: 2,
            coverage: vec![0.5, 1.0, 0.0],
            ..Default::default()
        };
        let merged = merged_coverage(&[full, degraded], 3);
        assert_eq!(merged, vec![0.75, 1.0, 0.5]);
    }

    #[test]
    fn pipeline_knobs_fan_out_to_every_shard() {
        let (data, store) = setup(400, 2);
        let session = store.connect(SearchMode::Full).unwrap();
        session.set_pipeline_depth(3);
        session.set_prefetch_budget_bytes(1 << 20);
        for s in 0..session.shards() {
            assert_eq!(session.node(s).pipeline_depth(), 3);
            assert_eq!(session.node(s).prefetch_budget_bytes(), 1 << 20);
        }
        // Pipelined sharded answers match the sequential session's.
        let queries = gen::perturbed_queries(&data, 6, 0.02, 71).unwrap();
        let seq = store.connect(SearchMode::Full).unwrap();
        let (a, _) = session.query_batch(&queries, 5, 32).unwrap();
        let (b, _) = seq.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (_, store) = setup(100, 2);
        let session = store.connect(SearchMode::Full).unwrap();
        let (results, reports) = session
            .query_batch(&Dataset::new(128), 5, 16)
            .unwrap();
        assert!(results.is_empty());
        assert!(reports.is_empty());
    }
}
