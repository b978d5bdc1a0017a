//! The machine-readable health report.
//!
//! A [`HealthReport`] is a point-in-time summary of one compute node's
//! view of the memory pool: the §3.2 layout with live overflow
//! occupancy, the access heatmap, routing-skew statistics, and cache /
//! latency summaries. It renders as deterministic JSON (fixed field
//! order, arrays in partition/group order) so `dhnsw_cli doctor`
//! output can be diffed and parsed by scripts. It is derived when asked
//! for and never written back into the metrics registry.

use crate::health::heatmap::PartitionHeat;
use crate::health::skew::SkewStats;
use crate::health::watchdog::SloViolation;

/// Health of one §3.2 group: two clusters sharing an overflow area.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupHealth {
    /// Group index.
    pub group: u32,
    /// Partition stored in the group's front slot.
    pub front: u32,
    /// Partition stored in the back slot (`None` for a trailing
    /// odd group with a single cluster).
    pub back: Option<u32>,
    /// Serialized bytes of the group's clusters (excluding padding).
    pub cluster_bytes: u64,
    /// Alignment padding after the group's clusters.
    pub padding_bytes: u64,
    /// Insert capacity of the shared overflow area, in bytes
    /// (excluding its 8-byte `used` counter).
    pub overflow_capacity_bytes: u64,
    /// Bytes of the overflow area consumed by inserts (the live
    /// remote `used` counter).
    pub overflow_used_bytes: u64,
    /// Unused overflow bytes (`capacity − used`).
    pub overflow_slack_bytes: u64,
    /// `used / capacity` in `[0, 1]` (0 for a zero-capacity area).
    pub occupancy: f64,
}

/// Whole-region layout accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayoutSummary {
    /// Registered-region size in bytes.
    pub total_bytes: u64,
    /// Serialized directory bytes at the head of the region.
    pub directory_bytes: u64,
    /// Serialized cluster bytes across all groups.
    pub cluster_bytes: u64,
    /// Compressed (SQ8) cluster bytes in the layout-v3 tail region;
    /// zero on uncompressed layouts.
    pub sq_bytes: u64,
    /// Alignment padding (directory + clusters + SQ tail).
    pub padding_bytes: u64,
    /// Total overflow insert capacity across groups.
    pub overflow_capacity_bytes: u64,
    /// Total overflow bytes consumed by inserts.
    pub overflow_used_bytes: u64,
    /// Largest per-group occupancy — the first group to fill rejects
    /// inserts, so this is the number that matters for resize planning.
    pub max_group_occupancy: f64,
    /// Mean per-group occupancy.
    pub mean_group_occupancy: f64,
    /// Fraction of the region carrying live data (directory, clusters,
    /// overflow counters, used overflow bytes).
    pub utilization: f64,
    /// Fraction of the region that is padding or unused overflow
    /// slack.
    pub fragmentation: f64,
}

/// Cluster-cache summary at report time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheHealth {
    /// Configured capacity in clusters.
    pub capacity: usize,
    /// Resident clusters.
    pub resident: usize,
    /// Resident bytes (serialized size of cached clusters).
    pub resident_bytes: u64,
    /// Lifetime plan-time hits: cluster loads avoided by residency.
    pub hits: u64,
    /// Lifetime plan-time misses: clusters fetched from remote memory.
    pub misses: u64,
    /// Lifetime evictions.
    pub evictions: u64,
    /// `hits / (hits + misses)`, 0 with no lookups.
    pub hit_rate: f64,
}

/// Query-latency summary from the node's telemetry histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyHealth {
    /// Queries observed.
    pub queries: u64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Largest observed value, microseconds.
    pub max_us: u64,
}

/// Degraded-service and retry accounting since connect.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilityHealth {
    /// Queries answered since connect.
    pub queries: u64,
    /// Queries answered from an incomplete cluster set (read retries
    /// exhausted with degraded results allowed).
    pub degraded_queries: u64,
    /// Engine-level cluster read retries (version mismatches plus
    /// exhausted substrate retransmission budgets).
    pub read_retries: u64,
    /// `degraded_queries / queries` in `[0, 1]`, 0 with no queries.
    pub degraded_rate: f64,
}

/// Tail-anatomy summary: the exemplar store and folded profile that
/// back `/profile/folded`, `/exemplars`, and `doctor --why-slow`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TailHealth {
    /// Exemplars currently retained (reservoir + K-slowest slots).
    pub exemplar_occupancy: u64,
    /// Batches offered to the exemplar store since connect.
    pub exemplars_recorded: u64,
    /// Exemplars evicted or not retained by the bounded store.
    pub exemplars_dropped: u64,
    /// Distinct span paths in the folded profile (0 while span capture
    /// is off: it folds span trees only).
    pub profile_paths: u64,
    /// Trace id of the slowest retained batch, if any. SLO violations
    /// link here so `/whyslow/<id>` can explain the breach.
    pub slowest_trace_id: Option<u64>,
    /// End-to-end latency of that slowest batch — its record's
    /// `total_us`: host wall plus virtual network — microseconds (0 when
    /// empty).
    pub slowest_total_us: f64,
}

/// A point-in-time health summary of one compute node's memory pool.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Search-mode label of the reporting node.
    pub mode: &'static str,
    /// Partition count.
    pub partitions: usize,
    /// Per-group layout and overflow occupancy.
    pub groups: Vec<GroupHealth>,
    /// Whole-region accounting.
    pub layout: LayoutSummary,
    /// Per-partition access heatmap.
    pub heatmap: Vec<PartitionHeat>,
    /// Skew of serialized cluster sizes (build-time imbalance).
    pub partition_skew: SkewStats,
    /// Skew of route frequencies (query-time imbalance).
    pub route_skew: SkewStats,
    /// Skew of meta-HNSW layer-0 out-degrees (structural imbalance).
    pub degree_skew: SkewStats,
    /// Cluster-cache summary.
    pub cache: CacheHealth,
    /// Query-latency summary.
    pub latency: LatencyHealth,
    /// Degraded-service and retry accounting.
    pub reliability: ReliabilityHealth,
    /// Tail-anatomy summary (exemplar store + folded profile).
    pub tail: TailHealth,
    /// SLO budget violations (empty until a watchdog evaluates the
    /// report).
    pub violations: Vec<SloViolation>,
}

/// Fixed-precision float for deterministic JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

impl HealthReport {
    /// Renders the report as deterministic JSON (stable field order,
    /// arrays in partition/group order, floats at fixed precision).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.heatmap.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"partitions\": {},\n", self.partitions));
        let l = &self.layout;
        out.push_str(&format!(
            "  \"layout\": {{\"total_bytes\": {}, \"directory_bytes\": {}, \"cluster_bytes\": {}, \"sq_bytes\": {}, \"padding_bytes\": {}, \"overflow_capacity_bytes\": {}, \"overflow_used_bytes\": {}, \"max_group_occupancy\": {}, \"mean_group_occupancy\": {}, \"utilization\": {}, \"fragmentation\": {}}},\n",
            l.total_bytes,
            l.directory_bytes,
            l.cluster_bytes,
            l.sq_bytes,
            l.padding_bytes,
            l.overflow_capacity_bytes,
            l.overflow_used_bytes,
            num(l.max_group_occupancy),
            num(l.mean_group_occupancy),
            num(l.utilization),
            num(l.fragmentation),
        ));
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            let back = g.back.map_or("null".to_string(), |b| b.to_string());
            out.push_str(&format!(
                "    {{\"group\": {}, \"front\": {}, \"back\": {}, \"cluster_bytes\": {}, \"padding_bytes\": {}, \"overflow_capacity_bytes\": {}, \"overflow_used_bytes\": {}, \"overflow_slack_bytes\": {}, \"occupancy\": {}}}{}\n",
                g.group,
                g.front,
                back,
                g.cluster_bytes,
                g.padding_bytes,
                g.overflow_capacity_bytes,
                g.overflow_used_bytes,
                g.overflow_slack_bytes,
                num(g.occupancy),
                if i + 1 < self.groups.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"heatmap\": [\n");
        for (i, h) in self.heatmap.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"partition\": {}, \"route_hits\": {}, \"loads\": {}, \"cache_hits\": {}, \"evictions\": {}, \"bytes_read\": {}}}{}\n",
                h.partition,
                h.route_hits,
                h.loads,
                h.cache_hits,
                h.evictions,
                h.bytes_read,
                if i + 1 < self.heatmap.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        for (key, s) in [
            ("partition_skew", &self.partition_skew),
            ("route_skew", &self.route_skew),
            ("degree_skew", &self.degree_skew),
        ] {
            out.push_str(&format!(
                "  \"{}\": {{\"count\": {}, \"total\": {}, \"mean\": {}, \"max\": {}, \"gini\": {}, \"top1_share\": {}, \"topk_share\": {}, \"topk\": {}}},\n",
                key,
                s.count,
                s.total,
                num(s.mean),
                s.max,
                num(s.gini),
                num(s.top1_share),
                num(s.topk_share),
                s.topk,
            ));
        }
        let c = &self.cache;
        out.push_str(&format!(
            "  \"cache\": {{\"capacity\": {}, \"resident\": {}, \"resident_bytes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}}},\n",
            c.capacity, c.resident, c.resident_bytes, c.hits, c.misses, c.evictions, num(c.hit_rate),
        ));
        let t = &self.latency;
        out.push_str(&format!(
            "  \"latency\": {{\"queries\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}},\n",
            t.queries,
            num(t.p50_us),
            num(t.p95_us),
            num(t.p99_us),
            t.max_us,
        ));
        let r = &self.reliability;
        out.push_str(&format!(
            "  \"reliability\": {{\"queries\": {}, \"degraded_queries\": {}, \"read_retries\": {}, \"degraded_rate\": {}}},\n",
            r.queries,
            r.degraded_queries,
            r.read_retries,
            num(r.degraded_rate),
        ));
        let tl = &self.tail;
        let slowest_id = tl
            .slowest_trace_id
            .map_or("null".to_string(), |id| id.to_string());
        out.push_str(&format!(
            "  \"tail\": {{\"exemplar_occupancy\": {}, \"exemplars_recorded\": {}, \"exemplars_dropped\": {}, \"profile_paths\": {}, \"slowest_trace_id\": {}, \"slowest_total_us\": {}}},\n",
            tl.exemplar_occupancy,
            tl.exemplars_recorded,
            tl.exemplars_dropped,
            tl.profile_paths,
            slowest_id,
            num(tl.slowest_total_us),
        ));
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                v.to_json(),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::skew::skew_of;

    fn sample() -> HealthReport {
        HealthReport {
            mode: "full",
            partitions: 2,
            groups: vec![GroupHealth {
                group: 0,
                front: 0,
                back: Some(1),
                cluster_bytes: 1000,
                padding_bytes: 4,
                overflow_capacity_bytes: 512,
                overflow_used_bytes: 128,
                overflow_slack_bytes: 384,
                occupancy: 0.25,
            }],
            layout: LayoutSummary {
                total_bytes: 2048,
                directory_bytes: 100,
                cluster_bytes: 1000,
                sq_bytes: 0,
                padding_bytes: 8,
                overflow_capacity_bytes: 512,
                overflow_used_bytes: 128,
                max_group_occupancy: 0.25,
                mean_group_occupancy: 0.25,
                utilization: 0.6,
                fragmentation: 0.2,
            },
            heatmap: vec![
                PartitionHeat {
                    partition: 0,
                    route_hits: 10,
                    loads: 2,
                    cache_hits: 8,
                    evictions: 1,
                    bytes_read: 2048,
                },
                PartitionHeat {
                    partition: 1,
                    route_hits: 0,
                    loads: 0,
                    cache_hits: 0,
                    evictions: 0,
                    bytes_read: 0,
                },
            ],
            partition_skew: skew_of(&[500, 500], 1),
            route_skew: skew_of(&[10, 0], 1),
            degree_skew: skew_of(&[3, 5], 1),
            cache: CacheHealth {
                capacity: 4,
                resident: 2,
                resident_bytes: 1000,
                hits: 8,
                misses: 2,
                evictions: 1,
                hit_rate: 0.8,
            },
            latency: LatencyHealth {
                queries: 10,
                p50_us: 100.0,
                p95_us: 200.0,
                p99_us: 250.0,
                max_us: 300,
            },
            reliability: ReliabilityHealth {
                queries: 10,
                degraded_queries: 2,
                read_retries: 3,
                degraded_rate: 0.2,
            },
            tail: TailHealth {
                exemplar_occupancy: 5,
                exemplars_recorded: 12,
                exemplars_dropped: 7,
                profile_paths: 9,
                slowest_trace_id: Some(42),
                slowest_total_us: 900.0,
            },
            violations: Vec::new(),
        }
    }

    #[test]
    fn json_is_deterministic_and_carries_every_section() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        for key in [
            "\"mode\": \"full\"",
            "\"layout\":",
            "\"groups\":",
            "\"heatmap\":",
            "\"partition_skew\":",
            "\"route_skew\":",
            "\"degree_skew\":",
            "\"cache\":",
            "\"latency\":",
            "\"reliability\":",
            "\"degraded_rate\": 0.200000",
            "\"tail\":",
            "\"slowest_trace_id\": 42",
            "\"violations\":",
            "\"occupancy\": 0.250000",
            "\"back\": 1",
        ] {
            assert!(a.contains(key), "missing {key} in:\n{a}");
        }
    }

    #[test]
    fn odd_trailing_group_renders_null_back() {
        let mut r = sample();
        r.groups[0].back = None;
        assert!(r.to_json().contains("\"back\": null"));
        r.tail.slowest_trace_id = None;
        assert!(r.to_json().contains("\"slowest_trace_id\": null"));
    }
}
