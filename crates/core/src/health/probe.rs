//! Assembling a [`HealthReport`] from a live [`ComputeNode`].

use rdma_sim::{ReadCause, ReadReq};

use super::report::{GroupHealth, HealthReport, LayoutSummary};
use super::skew::skew_of;
use crate::engine::{ComputeNode, Reader};
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
    /// accounting, the access heatmap and routing-skew statistics.
    /// Read-only with respect to the store, the
    /// registry and the node: it writes nothing back, so two reports
    /// with no batch between render the same JSON.
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
        let heatmap = self.heatmap().snapshot();
        let route_hits: Vec<u64> = heatmap.iter().map(|h| h.route_hits).collect();

        Ok(HealthReport {
            mode: self.mode().label(),
            partitions,
            groups: group_health,
            layout,
            heatmap,
            partition_skew: skew_of(&cluster_bytes, topk),
            route_skew: skew_of(&route_hits, topk),
            degree_skew: skew_of(&degree_hist, topk),
            violations: Vec::new(),
        })
    }
}
