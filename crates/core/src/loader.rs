//! Query-aware batched data loading (§3.3).
//!
//! Given a batch of queries, each needing its `b` closest sub-HNSW
//! clusters, the planner computes the batch's *unique* cluster demand so
//! every cluster crosses the network **at most once per batch**, splits it
//! into cache hits and required loads, and emits the doorbell read
//! requests covering each required cluster's contiguous span (cluster +
//! overflow).
//!
//! The planner is pure — it performs no I/O — which keeps the dedup and
//! cache-interaction logic independently testable.

use rdma_sim::{ReadCause, ReadReq};

use crate::layout::Directory;
use crate::telemetry::span::ArgValue;
use crate::Result;

/// The outcome of planning one batch's cluster loads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadPlan {
    /// Deduplicated partitions the batch needs, in first-demand order.
    pub unique: Vec<u32>,
    /// Subset of `unique` already resident in the compute-side cache.
    pub cached: Vec<u32>,
    /// Subset of `unique` that must be fetched from the memory pool.
    pub to_load: Vec<u32>,
    /// Total demand before dedup (`Σ per-query fan-out`).
    pub raw_demand: usize,
}

impl LoadPlan {
    /// How many loads the query-aware dedup avoided versus naive
    /// per-query fetching (cache hits included).
    pub fn transfers_saved(&self) -> usize {
        self.raw_demand - self.to_load.len()
    }

    /// Fraction of the raw cluster demand served without a network
    /// transfer (batch dedup plus cache hits), in `[0, 1]`. A healthy
    /// warm deployment sits near 1; a cold or thrashing one near 0.
    pub fn reuse_ratio(&self) -> f64 {
        if self.raw_demand == 0 {
            0.0
        } else {
            self.transfers_saved() as f64 / self.raw_demand as f64
        }
    }

    /// The plan as span arguments, for annotating the cluster-union
    /// span of a batch trace.
    pub fn trace_args(&self) -> Vec<(&'static str, ArgValue)> {
        vec![
            ("raw_demand", ArgValue::U64(self.raw_demand as u64)),
            ("unique", ArgValue::U64(self.unique.len() as u64)),
            ("cached", ArgValue::U64(self.cached.len() as u64)),
            ("to_load", ArgValue::U64(self.to_load.len() as u64)),
            (
                "transfers_saved",
                ArgValue::U64(self.transfers_saved() as u64),
            ),
            ("reuse_ratio", ArgValue::F64(self.reuse_ratio())),
        ]
    }
}

/// Plans the loads for a batch.
///
/// `routes[i]` lists the partitions query `i` needs (its top-`b` from the
/// meta-HNSW). `is_cached` reports compute-side residency.
pub fn plan_batch(routes: &[Vec<u32>], is_cached: impl Fn(u32) -> bool) -> LoadPlan {
    let mut plan = LoadPlan::default();
    let mut seen = std::collections::HashSet::new();
    for route in routes {
        plan.raw_demand += route.len();
        for &p in route {
            if seen.insert(p) {
                plan.unique.push(p);
            }
        }
    }
    for &p in &plan.unique {
        if is_cached(p) {
            plan.cached.push(p);
        } else {
            plan.to_load.push(p);
        }
    }
    plan
}

/// Partitions a plan's `to_load` list across pipeline stages by *first
/// demand*: `bounds[s] = (lo, hi)` delimits stage `s`'s contiguous query
/// micro-batch, and each cluster lands in the earliest stage whose
/// queries route to it. Within a stage the original `to_load` order is
/// preserved, so concatenating the stage lists reproduces `to_load`
/// exactly — which is what keeps the pipelined executor's load order
/// (and therefore its byte/doorbell accounting and post-batch LRU state)
/// identical to the sequential path's.
///
/// Clusters in `to_load` that no bounded query demands (possible only
/// with inconsistent inputs) fall into stage 0 so nothing is dropped.
pub fn stage_loads(
    routes: &[Vec<u32>],
    to_load: &[u32],
    bounds: &[(usize, usize)],
) -> Vec<Vec<u32>> {
    let mut first_stage: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (stage, &(lo, hi)) in bounds.iter().enumerate() {
        for route in routes.iter().take(hi.min(routes.len())).skip(lo) {
            for &p in route {
                first_stage.entry(p).or_insert(stage);
            }
        }
    }
    let mut stages: Vec<Vec<u32>> = vec![Vec::new(); bounds.len().max(1)];
    for &p in to_load {
        let s = first_stage.get(&p).copied().unwrap_or(0);
        stages[s].push(p);
    }
    stages
}

/// Builds the read requests covering each partition's contiguous
/// cluster-plus-overflow span, in `partitions` order, every one tagged
/// with a byte-provenance [`ReadCause`] so the substrate's per-cause
/// counters attribute the span bytes to the right consumer even when
/// requests from several consumers share one doorbell. Feeding the whole
/// list to [`rdma_sim::QueuePair::read_doorbell`] yields the §3.2
/// doorbell-batched load; issuing them one by one is the "without
/// doorbell" baseline.
///
/// # Errors
///
/// Returns [`crate::Error::UnknownPartition`] for an out-of-range id.
pub fn read_requests_tagged(
    directory: &Directory,
    rkey: u32,
    partitions: &[u32],
    cause: ReadCause,
) -> Result<Vec<ReadReq>> {
    partitions
        .iter()
        .map(|&p| {
            let (off, len) = directory.location(p)?.read_span();
            Ok(ReadReq::new(rkey, off, len).with_cause(cause))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes(rs: &[&[u32]]) -> Vec<Vec<u32>> {
        rs.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn dedup_keeps_first_demand_order() {
        // The paper's Fig. 5 example: q1 -> {S1, S4}, q2 -> {S3, ...},
        // q3 -> {S4, S5}, q4 -> {S3, ...}.
        let plan = plan_batch(&routes(&[&[1, 4], &[3, 2], &[4, 5], &[3, 1]]), |_| false);
        assert_eq!(plan.unique, vec![1, 4, 3, 2, 5]);
        assert_eq!(plan.raw_demand, 8);
        assert_eq!(plan.to_load.len(), 5);
        assert_eq!(plan.transfers_saved(), 3);
    }

    #[test]
    fn cached_partitions_are_not_loaded() {
        let plan = plan_batch(&routes(&[&[1, 2], &[2, 3]]), |p| p == 2);
        assert_eq!(plan.unique, vec![1, 2, 3]);
        assert_eq!(plan.cached, vec![2]);
        assert_eq!(plan.to_load, vec![1, 3]);
        assert_eq!(plan.transfers_saved(), 2);
    }

    #[test]
    fn empty_batch_plans_nothing() {
        let plan = plan_batch(&[], |_| true);
        assert_eq!(plan, LoadPlan::default());
    }

    #[test]
    fn fully_cached_batch_loads_nothing() {
        let plan = plan_batch(&routes(&[&[0, 1], &[1, 2]]), |_| true);
        assert!(plan.to_load.is_empty());
        assert_eq!(plan.cached, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_within_one_query_counts_once() {
        let plan = plan_batch(&routes(&[&[5, 5, 5]]), |_| false);
        assert_eq!(plan.unique, vec![5]);
        assert_eq!(plan.raw_demand, 3);
    }

    #[test]
    fn trace_args_summarize_the_plan() {
        let plan = plan_batch(&routes(&[&[1, 2], &[2, 3]]), |p| p == 2);
        let args = plan.trace_args();
        assert!(args.contains(&("raw_demand", ArgValue::U64(4))));
        assert!(args.contains(&("unique", ArgValue::U64(3))));
        assert!(args.contains(&("cached", ArgValue::U64(1))));
        assert!(args.contains(&("to_load", ArgValue::U64(2))));
        assert!(args.contains(&("transfers_saved", ArgValue::U64(2))));
        assert!(args.contains(&("reuse_ratio", ArgValue::F64(0.5))));
    }

    #[test]
    fn reuse_ratio_spans_cold_to_warm() {
        assert_eq!(plan_batch(&[], |_| false).reuse_ratio(), 0.0);
        // Cold batch with disjoint routes: nothing reused.
        assert_eq!(
            plan_batch(&routes(&[&[0], &[1]]), |_| false).reuse_ratio(),
            0.0
        );
        // Fully cached batch: everything reused.
        assert_eq!(
            plan_batch(&routes(&[&[0, 1], &[1, 0]]), |_| true).reuse_ratio(),
            1.0
        );
    }

    #[test]
    fn stage_loads_assigns_by_first_demand() {
        // Queries 0-1 form stage 0, queries 2-3 stage 1. Cluster 4 is
        // first demanded by query 0, cluster 3 by query 1, clusters 5
        // and 2 only by stage-1 queries.
        let rs = routes(&[&[1, 4], &[3, 2], &[4, 5], &[3, 1]]);
        let plan = plan_batch(&rs, |p| p == 2);
        assert_eq!(plan.to_load, vec![1, 4, 3, 5]);
        let staged = stage_loads(&rs, &plan.to_load, &[(0, 2), (2, 4)]);
        assert_eq!(staged, vec![vec![1, 4, 3], vec![5]]);
        // Concatenation reproduces to_load order exactly.
        let flat: Vec<u32> = staged.into_iter().flatten().collect();
        assert_eq!(flat, plan.to_load);
    }

    #[test]
    fn stage_loads_single_stage_is_the_whole_plan() {
        let rs = routes(&[&[0, 1], &[2, 0]]);
        let plan = plan_batch(&rs, |_| false);
        let staged = stage_loads(&rs, &plan.to_load, &[(0, 2)]);
        assert_eq!(staged, vec![plan.to_load.clone()]);
    }

    #[test]
    fn stage_loads_handles_empty_and_unrouted_input() {
        assert_eq!(stage_loads(&[], &[], &[]), vec![Vec::<u32>::new()]);
        // A cluster no bounded query routes to defaults to stage 0.
        let rs = routes(&[&[7]]);
        let staged = stage_loads(&rs, &[9, 7], &[(0, 1), (1, 1)]);
        assert_eq!(staged, vec![vec![9, 7], vec![]]);
    }

    #[test]
    fn read_requests_cover_full_spans_and_carry_their_cause() {
        let dir = Directory::plan(&[64, 128, 32], 4, 4).unwrap();
        let reqs = read_requests_tagged(&dir, 9, &[2, 0], ReadCause::StageLoad).unwrap();
        assert_eq!(reqs.len(), 2);
        let (off, len) = dir.location(2).unwrap().read_span();
        assert_eq!(
            reqs[0],
            ReadReq::new(9, off, len).with_cause(ReadCause::StageLoad)
        );
        // Order follows the input partitions.
        assert_eq!(reqs[1].offset, dir.location(0).unwrap().read_span().0);
        assert!(reqs.iter().all(|r| r.cause == ReadCause::StageLoad));
    }

    #[test]
    fn read_requests_reject_unknown_partition() {
        let dir = Directory::plan(&[64], 4, 4).unwrap();
        assert!(read_requests_tagged(&dir, 1, &[5], ReadCause::Naive).is_err());
    }
}
