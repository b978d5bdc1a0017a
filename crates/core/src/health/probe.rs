//! Assembling a [`HealthReport`] from a live [`ComputeNode`].

use rdma_sim::{ReadCause, ReadReq};

use super::report::{
    CacheHealth, GroupHealth, HealthReport, LatencyHealth, LayoutSummary, ReliabilityHealth,
    TailHealth,
};
use super::skew::skew_of;
use crate::engine::{ComputeNode, Reader};
use crate::telemetry::series::Window;
use crate::telemetry::span::{BatchTrace, SpanId};
use crate::{Error, Result};

/// `part / whole`, `0.0` over an empty whole.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl ComputeNode {
    /// Assembles a point-in-time [`HealthReport`]: live per-group
    /// overflow occupancy (one round of 8-byte counter reads, posted and
    /// retried like every other read of this node), layout/fragmentation
    /// accounting, the access heatmap, routing-skew statistics, and
    /// cache/latency summaries. Read-only with respect to the store and
    /// the registry: it writes nothing back.
    ///
    /// # Errors
    ///
    /// Propagates substrate read errors or a corrupt overflow counter.
    pub fn health_report(&self) -> Result<HealthReport> {
        let groups = self.directory().groups();
        let reqs: Vec<ReadReq> = groups
            .iter()
            .map(|g| ReadReq::new(self.rkey, g.overflow_off, 8).with_cause(ReadCause::HealthProbe))
            .collect();
        let buffers = Reader::new(self, false, &BatchTrace::disabled(), SpanId::NONE)
            .post_until_delivered(&reqs, 0)?
            .expect("exhaustion is an error for an intolerant reader");
        let mut group_health = Vec::with_capacity(groups.len());
        let mut layout = LayoutSummary {
            total_bytes: self.directory().total_len(),
            directory_bytes: self.directory().directory_bytes(),
            // Alignment padding starts with the directory's own, plus
            // the SQ tail region's (zero on pre-v3 layouts).
            padding_bytes: self.directory().directory_padding()
                + self.directory().sq_padding_bytes(),
            sq_bytes: self.directory().sq_live_bytes(),
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
            let occupancy = ratio(used, g.overflow_capacity);
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

        let partitions = self.directory().partitions();
        let topk = (partitions / 10).max(1);
        let cluster_bytes: Vec<u64> = self
            .directory()
            .locations()
            .iter()
            .map(|loc| loc.cluster_len)
            .collect();
        let degree_hist: Vec<u64> = hnsw::diagnostics::degree_histogram(self.meta().hnsw(), 0)
            .into_iter()
            .map(|d| d as u64)
            .collect();

        // Hit rates are plan-time (hits = loads avoided, misses =
        // clusters fetched): the engine only probes the LRU for
        // partitions planning proved resident. The window, everything
        // since the previous report, is cut as a `/timeseries` point's
        // is; each report consumes its own once. No clock: counts only.
        let window = {
            let mut start = self.window_start.lock();
            let now = self.metrics.sample(0);
            Window::between(&std::mem::replace(&mut *start, now), &now)
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
                hit_rate: ratio(hits, hits + misses),
                window_hits: window.hits,
                window_misses: window.misses,
                window_hit_rate: window.hit_rate,
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
                window_queries: window.queries,
                window_p50_us: window.p50_us,
                window_p95_us: window.p95_us,
                window_p99_us: window.p99_us,
            }
        };
        let reliability = {
            let queries = self.metrics.queries.get();
            let degraded = self.metrics.degraded_queries.get();
            ReliabilityHealth {
                queries,
                degraded_queries: degraded,
                read_retries: self.metrics.read_retries.get(),
                degraded_rate: ratio(degraded, queries),
            }
        };

        let tail = {
            let ex = self.telemetry().exemplars();
            let slowest = ex.slowest();
            TailHealth {
                exemplar_occupancy: ex.occupancy(),
                exemplars_recorded: ex.recorded(),
                exemplars_dropped: ex.dropped(),
                profile_paths: self.telemetry().profile().len() as u64,
                slowest_trace_id: slowest.first().map(|r| r.trace_id),
                slowest_total_us: slowest.first().map_or(0.0, |r| r.total_us),
            }
        };

        Ok(HealthReport {
            mode: self.mode().label(),
            partitions,
            groups: group_health,
            layout,
            heatmap: self.heatmap().snapshot(),
            partition_skew: skew_of(&cluster_bytes, topk),
            route_skew: skew_of(&self.heatmap().route_hit_counts(), topk),
            degree_skew: skew_of(&degree_hist, topk),
            cache,
            latency,
            reliability,
            tail,
            violations: Vec::new(),
        })
    }
}
