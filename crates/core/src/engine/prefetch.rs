//! The between-batch cache warmer.

use rdma_sim::ReadCause;

use super::fetch::{Fetch, Load, Reader};
use super::ComputeNode;
use crate::telemetry::span::{ArgValue, SpanId};

impl ComputeNode {
    /// Heatmap-driven background prefetch: warms the LRU cache with the
    /// hottest non-resident clusters (EWMA hotness from the partition
    /// heatmap), bounded by the node's prefetch byte budget and the
    /// cache capacity. Runs synchronously between batches — the
    /// substrate's verb schedule is deterministic, and a detached thread
    /// would race it — so `query_batch` invokes it *after* a batch's
    /// accounting closes; prefetch traffic lands on the engine's
    /// `dhnsw_prefetch_*` counters, never on a batch report.
    ///
    /// Best-effort by design: the picks go through the loader like a
    /// stage's (so an SQ8 blob of a mutated partition arrives with its
    /// overflow area, outside the budget, which plans spans), but
    /// whatever it gives up on past the retry budget, or any error, just
    /// shortens the round. Returns the number of clusters admitted to the
    /// cache.
    pub fn prefetch_hot(&self) -> usize {
        let budget = self.prefetch_budget_bytes();
        if budget == 0 || !self.policy.reuse {
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
                let Ok(Some(round)) = self.plan(p, None, false, ReadCause::Prefetch) else {
                    continue;
                };
                let len = round.body().len;
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
        let loads = picks.iter().map(|&p| Load::of(p)).collect();
        let mut got = Fetch::default();
        // Best effort: an error just ends the round with what arrived.
        let _ = Reader::new(self, true, &trace, root).fetch(
            loads,
            Vec::new(),
            ReadCause::Prefetch,
            &mut got,
        );
        let threads = self.config.effective_search_threads();
        let mut admitted = 0usize;
        if let Ok(loaded) = self.materialize(got.stable, threads) {
            let mut cache = self.cache.lock();
            // Make room by dropping the coldest residents *outside* the
            // target set, so this round's admissions never LRU-evict each
            // other or a resident hotter than what they replace.
            let mut need = (cache.len() + loaded.len()).saturating_sub(capacity);
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
            for (load, version, cluster) in loaded {
                // Deliberately no `record_load` here: prefetch traffic
                // must not feed back into the hotness signal it follows.
                if let Some(victim) = cache.put(load.partition, cluster, version) {
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
}
