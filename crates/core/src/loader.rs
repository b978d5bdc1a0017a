//! Query-aware batched data loading (§3.3).
//!
//! Given a batch of queries, each needing its `b` closest sub-HNSW
//! clusters, the planner computes the batch's *unique* cluster demand so
//! every cluster crosses the network **at most once per batch**, splits it
//! into cache hits and required loads, and emits the doorbell read
//! requests covering each required cluster's contiguous span (cluster +
//! overflow). [`plan_load`] is the one place a load's requests are
//! planned: what each round of it reads, on either wire, and where each
//! read's landing is cut.
//!
//! The planners are pure — they perform no I/O — which keeps the dedup,
//! cache-interaction and request logic independently testable.

use rdma_sim::{ReadCause, ReadReq};

use crate::layout::Directory;
use crate::telemetry::span::ArgValue;
use crate::{QuantizeMode, Result};

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

/// One round of one load's reads, as [`plan_load`] plans it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadRound {
    /// The round's requests in post order: `[version, body, version]`,
    /// or the bare body when unbracketed.
    pub reqs: Vec<ReadReq>,
    /// Where each request's landing is cut in two: its first `cuts[i]`
    /// bytes, and the rest. Version reads and an overflow follow-up land
    /// whole.
    pub cuts: Vec<u64>,
    /// Whether the serialized cluster is the part of the body after its
    /// cut (a full-precision back slot) rather than the part before it.
    pub cluster_last: bool,
}

impl LoadRound {
    /// The request the round reads for, between its version reads.
    pub fn body(&self) -> &ReadReq {
        &self.reqs[self.reqs.len() / 2]
    }
}

/// The read of partition `p`'s version slot.
pub(crate) fn version_read(directory: &Directory, rkey: u32, p: u32) -> Result<ReadReq> {
    let off = directory.version_slot_off(p)?;
    Ok(ReadReq::new(rkey, off, 8).with_cause(ReadCause::VersionCheck))
}

/// Plans one round of a load of partition `p` over `wire`. The first
/// round (`observed` is `None`) reads the load's span
/// ([`Directory::load_span`]) as `cause`, cut where the cluster ends or
/// begins, between two reads of `p`'s version slot when `bracketed`.
/// After a round that observed a non-zero version on the SQ8 wire, whose
/// blob carries no overflow records, the follow-up reads the group's
/// overflow area whole as [`ReadCause::OverflowScan`], always bracketed;
/// every other round has no follow-up (`None`).
///
/// # Errors
///
/// Returns [`crate::Error::UnknownPartition`] for an out-of-range id, and
/// [`crate::Error::Corrupt`] for SQ8 on a directory without SQ8 spans.
pub fn plan_load(
    directory: &Directory,
    rkey: u32,
    p: u32,
    wire: QuantizeMode,
    observed: Option<u64>,
    bracketed: bool,
    cause: ReadCause,
) -> Result<Option<LoadRound>> {
    let (body, cut, cluster_last, bracketed) = match (observed, wire) {
        (None, _) => {
            let ((off, len), (cut, cluster_last)) = directory.load_span(p, wire)?;
            let body = ReadReq::new(rkey, off, len).with_cause(cause);
            (body, cut, cluster_last, bracketed)
        }
        (Some(version), QuantizeMode::Sq8) if version != 0 => {
            let loc = directory.location(p)?;
            let area = ReadReq::new(rkey, loc.overflow_off, loc.overflow_len)
                .with_cause(ReadCause::OverflowScan);
            (area, area.len, false, true)
        }
        _ => return Ok(None),
    };
    let (reqs, cuts) = if bracketed {
        let version = version_read(directory, rkey, p)?;
        (vec![version, body, version], vec![8, cut, 8])
    } else {
        (vec![body], vec![cut])
    };
    Ok(Some(LoadRound {
        reqs,
        cuts,
        cluster_last,
    }))
}

/// Builds the read requests covering each partition's contiguous
/// cluster-plus-overflow span, in `partitions` order, every one tagged
/// with a byte-provenance [`ReadCause`] so the substrate's per-cause
/// counters attribute the span bytes to the right consumer even when
/// requests from several consumers share one doorbell: the bare bodies
/// [`plan_load`] plans for a first, unbracketed full-precision round.
/// Feeding the whole list to [`rdma_sim::QueuePair::read_doorbell`]
/// yields the §3.2 doorbell-batched load; issuing them one by one is the
/// "without doorbell" baseline.
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
            let round = plan_load(directory, rkey, p, QuantizeMode::Off, None, false, cause)?;
            Ok(*round.expect("a first round reads").body())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GroupSlot;

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

    /// Posts `round` on `qp`, each request landing cut as planned.
    fn post(qp: &rdma_sim::QueuePair, round: &LoadRound) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut landed = vec![(Vec::new(), Vec::new()); round.reqs.len()];
        let cuts = round.reqs.iter().zip(&round.cuts);
        let mut into: Vec<_> = (landed.iter_mut().zip(cuts))
            .map(|((head, tail), (r, &at))| rdma_sim::Scatter::cut(head, tail, at, r.len))
            .collect();
        qp.read_doorbell_into(&round.reqs, &mut into).unwrap();
        drop(into);
        landed
    }

    #[test]
    fn planned_rounds_land_exactly_the_bytes_the_layout_names() {
        use crate::{DHnswConfig, SearchMode, VectorStore};
        // Seven partitions: three pairs and a lone front slot, on a store
        // that carries both wires, with records in some overflow areas.
        let data = vecsim::gen::sift_like(700, 0x91A7).unwrap();
        let config = DHnswConfig::small()
            .with_representatives(7)
            .with_quantize_mode(QuantizeMode::Sq8);
        let store = VectorStore::build(data.clone(), &config).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        for i in 0..12 {
            node.insert(data.get(i)).unwrap();
        }
        let (dir, rkey) = (store.directory(), store.region().rkey());
        let last = dir.location(6).unwrap();
        assert_eq!((dir.partitions(), last.slot), (7, GroupSlot::Front));
        let qp = rdma_sim::QueuePair::connect(store.memory_node(), config.network());
        let mut written = 0;
        for p in 0..7u32 {
            let loc = dir.location(p).unwrap();
            let (off, len) = loc.read_span();
            let span = qp.read(rkey, off, len).unwrap();
            let (cluster, area) = loc.split(&span).unwrap();
            let (sq_off, sq_len) = dir.sq_span(p).unwrap().unwrap();
            let blob = qp.read(rkey, sq_off, sq_len).unwrap();
            let version = qp.read(rkey, dir.version_slot_off(p).unwrap(), 8).unwrap();
            written += usize::from(version != [0; 8]);
            let brackets = |landed: &[(Vec<u8>, Vec<u8>)]| {
                assert_eq!(landed.len(), 3);
                assert_eq!((&landed[0].0, &landed[2].0), (&version, &version));
            };
            for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
                for bracketed in [false, true] {
                    let cause = ReadCause::StageLoad;
                    let round = plan_load(dir, rkey, p, wire, None, bracketed, cause).unwrap();
                    let round = round.unwrap();
                    let mut landed = post(&qp, &round);
                    if bracketed {
                        brackets(&landed);
                    }
                    let (head, tail) = landed.swap_remove(landed.len() / 2);
                    let (got, rest) = if round.cluster_last {
                        (tail, head)
                    } else {
                        (head, tail)
                    };
                    if wire == QuantizeMode::Off {
                        assert_eq!((&got[..], loc.overflow_in(&rest).unwrap()), (cluster, area));
                    } else {
                        assert_eq!((&got, rest.len()), (&blob, 0));
                    }
                }
                for observed in [0, 3] {
                    let follow =
                        plan_load(dir, rkey, p, wire, Some(observed), false, ReadCause::Naive);
                    let Some(round) = follow.unwrap() else {
                        assert!(wire == QuantizeMode::Off || observed == 0);
                        continue;
                    };
                    assert!(wire == QuantizeMode::Sq8 && observed != 0);
                    let landed = post(&qp, &round);
                    brackets(&landed);
                    assert_eq!(landed[1].0, area);
                    assert_eq!(loc.overflow_in(&landed[1].0).unwrap(), area);
                    assert_eq!(round.body().cause, ReadCause::OverflowScan);
                }
            }
        }
        assert!(written > 0, "some partition holds inserts");
    }

    #[test]
    fn read_requests_reject_unknown_partition() {
        let dir = Directory::plan(&[64], 4, 4).unwrap();
        assert!(read_requests_tagged(&dir, 1, &[5], ReadCause::Naive).is_err());
    }
}
