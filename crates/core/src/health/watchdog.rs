//! Threshold-based SLO watchdog.
//!
//! Budgets come from `dhnsw_cli`'s `--slo-*` flags; [`evaluate`] checks
//! a [`HealthReport`] against them and [`emit`] publishes the violations
//! as a `dhnsw_slo_violations_total` counter plus structured
//! `slo_violation` instant events in the span-trace ring (when span
//! capture is enabled), so a dashboard or a `doctor --check` script sees
//! the same verdict.

use crate::health::report::HealthReport;
use crate::telemetry::series::SeriesPoint;
use crate::telemetry::span::ArgValue;
use crate::telemetry::{metrics, Telemetry};

/// Configurable health budgets; `None` disables a check.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloBudgets {
    /// Largest acceptable p99 per-query latency, microseconds.
    pub max_p99_us: Option<f64>,
    /// Smallest acceptable cluster-cache hit rate in `[0, 1]`.
    pub min_cache_hit_rate: Option<f64>,
    /// Largest acceptable per-group overflow occupancy in `[0, 1]`
    /// (checked against the fullest group).
    pub max_overflow_occupancy: Option<f64>,
    /// Largest acceptable route-frequency Gini coefficient.
    pub max_route_gini: Option<f64>,
    /// Largest acceptable fraction of queries answered degraded
    /// (incomplete cluster coverage), in `[0, 1]`.
    pub max_degraded_rate: Option<f64>,
}

impl SloBudgets {
    /// Whether every check is disabled.
    pub fn is_empty(&self) -> bool {
        self.max_p99_us.is_none()
            && self.min_cache_hit_rate.is_none()
            && self.max_overflow_occupancy.is_none()
            && self.max_route_gini.is_none()
            && self.max_degraded_rate.is_none()
    }
}

/// One budget the report violated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloViolation {
    /// Budget name (`p99_latency_us`, `cache_hit_rate`, …).
    pub budget: &'static str,
    /// Observed value.
    pub actual: f64,
    /// Configured limit.
    pub limit: f64,
    /// Trace id of the slowest retained tail exemplar at evaluation
    /// time — feed it to `/whyslow/<id>` for a ranked diagnosis of
    /// the breach. `None` when the node has answered no batches.
    pub exemplar: Option<u64>,
}

impl SloViolation {
    /// Renders the violation as a JSON object fragment.
    pub fn to_json(&self) -> String {
        let exemplar = self
            .exemplar
            .map_or("null".to_string(), |id| id.to_string());
        format!(
            "{{\"budget\": \"{}\", \"actual\": {:.6}, \"limit\": {:.6}, \"exemplar\": {exemplar}}}",
            self.budget, self.actual, self.limit
        )
    }
}

/// Checks `report` against `budgets`, returning every violated budget
/// in a fixed order (latency, hit rate, occupancy, skew, degradation).
pub fn evaluate(report: &HealthReport, budgets: &SloBudgets) -> Vec<SloViolation> {
    // Every violation links to the slowest retained exemplar so a
    // breach comes with a concrete batch to interrogate via
    // `/whyslow/<id>` rather than just a number over a limit.
    let exemplar = report.tail.slowest_trace_id;
    let (l, c) = (&report.latency, &report.cache);
    let mut out = windowed(
        (l.window_queries, l.window_p99_us),
        (c.window_hits + c.window_misses, c.window_hit_rate),
        budgets,
        exemplar,
    );
    if let Some(limit) = budgets.max_overflow_occupancy {
        if report.layout.max_group_occupancy > limit {
            out.push(SloViolation {
                budget: "overflow_occupancy",
                actual: report.layout.max_group_occupancy,
                limit,
                exemplar,
            });
        }
    }
    if let Some(limit) = budgets.max_route_gini {
        if report.route_skew.gini > limit {
            out.push(SloViolation {
                budget: "route_gini",
                actual: report.route_skew.gini,
                limit,
                exemplar,
            });
        }
    }
    if let Some(limit) = budgets.max_degraded_rate {
        if report.reliability.degraded_rate > limit {
            out.push(SloViolation {
                budget: "degraded_rate",
                actual: report.reliability.degraded_rate,
                limit,
                exemplar,
            });
        }
    }
    out
}

/// Checks one recorder-derived [`SeriesPoint`] against the windowed
/// budgets (latency p99 and cache hit rate — the two that are
/// meaningful per sampling window). This lets a continuously ticking
/// sampler evaluate SLOs over every recorder window instead of the
/// one-off window a [`HealthReport`] advances, with the check
/// [`evaluate`] runs on that one, so
/// `dhnsw_slo_violations_total{budget=…}` aggregates across both
/// paths. `exemplar` should be the slowest retained tail exemplar's
/// trace id at evaluation time, if any.
pub fn evaluate_point(
    point: &SeriesPoint,
    budgets: &SloBudgets,
    exemplar: Option<u64>,
) -> Vec<SloViolation> {
    windowed(
        (point.window_queries, point.p99_us),
        (point.window_cache_ops, point.hit_rate),
        budgets,
        exemplar,
    )
}

/// The two windowed checks, written once for [`evaluate`] and
/// [`evaluate_point`]. A window with nothing to judge skips its check
/// rather than falling back to lifetime values, which would re-fire a
/// stale violation on every idle tick.
fn windowed(
    (queries, p99_us): (u64, f64),
    (cache_ops, hit_rate): (u64, f64),
    budgets: &SloBudgets,
    exemplar: Option<u64>,
) -> Vec<SloViolation> {
    let mut out = Vec::new();
    if let Some(limit) = budgets.max_p99_us {
        if queries > 0 && p99_us > limit {
            out.push(SloViolation {
                budget: "p99_latency_us",
                actual: p99_us,
                limit,
                exemplar,
            });
        }
    }
    if let Some(limit) = budgets.min_cache_hit_rate {
        if cache_ops > 0 && hit_rate < limit {
            out.push(SloViolation {
                budget: "cache_hit_rate",
                actual: hit_rate,
                limit,
                exemplar,
            });
        }
    }
    out
}

/// Publishes violations: each bumps `dhnsw_slo_violations_total{budget=…}`
/// and, when span capture is enabled, records a `slo_watchdog` trace in
/// the ring holding one structured `slo_violation` instant.
pub fn emit(telemetry: &Telemetry, violations: &[SloViolation]) {
    for v in violations {
        telemetry.emit_event(
            &metrics::SLO_VIOLATIONS,
            ("budget", v.budget),
            ["watchdog", "slo_watchdog", "slo_violation"],
            vec![
                ("budget", ArgValue::Str(v.budget)),
                ("actual", ArgValue::F64(v.actual)),
                ("limit", ArgValue::F64(v.limit)),
            ],
            v.exemplar,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::heatmap::PartitionHeat;
    use crate::health::report::{
        CacheHealth, GroupHealth, LatencyHealth, LayoutSummary, ReliabilityHealth, TailHealth,
    };
    use crate::health::skew::skew_of;

    fn report() -> HealthReport {
        HealthReport {
            mode: "full",
            partitions: 2,
            groups: vec![GroupHealth {
                group: 0,
                front: 0,
                back: Some(1),
                cluster_bytes: 100,
                padding_bytes: 0,
                overflow_capacity_bytes: 100,
                overflow_used_bytes: 90,
                overflow_slack_bytes: 10,
                occupancy: 0.9,
            }],
            layout: LayoutSummary {
                max_group_occupancy: 0.9,
                ..LayoutSummary::default()
            },
            heatmap: vec![PartitionHeat {
                partition: 0,
                route_hits: 10,
                loads: 1,
                cache_hits: 9,
                evictions: 0,
                bytes_read: 100,
                hotness: 1.0,
            }],
            partition_skew: skew_of(&[50, 50], 1),
            route_skew: skew_of(&[10, 0], 1),
            degree_skew: SkewStats::default(),
            cache: CacheHealth {
                hit_rate: 0.5,
                hits: 1,
                misses: 1,
                window_hit_rate: 0.5,
                window_hits: 1,
                window_misses: 1,
                ..CacheHealth::default()
            },
            latency: LatencyHealth {
                queries: 10,
                p99_us: 900.0,
                window_queries: 10,
                window_p99_us: 900.0,
                ..LatencyHealth::default()
            },
            reliability: ReliabilityHealth {
                queries: 10,
                degraded_queries: 2,
                read_retries: 3,
                degraded_rate: 0.2,
            },
            tail: TailHealth {
                slowest_trace_id: Some(7),
                slowest_total_us: 900.0,
                ..TailHealth::default()
            },
            violations: Vec::new(),
        }
    }
    use crate::health::skew::SkewStats;

    #[test]
    fn empty_budgets_never_fire() {
        let b = SloBudgets::default();
        assert!(b.is_empty());
        assert!(evaluate(&report(), &b).is_empty());
    }

    #[test]
    fn each_budget_trips_on_its_own_dimension() {
        let r = report();
        let b = SloBudgets {
            max_p99_us: Some(500.0),
            min_cache_hit_rate: Some(0.8),
            max_overflow_occupancy: Some(0.75),
            max_route_gini: Some(0.25),
            max_degraded_rate: Some(0.1),
        };
        let v = evaluate(&r, &b);
        let names: Vec<&str> = v.iter().map(|x| x.budget).collect();
        assert_eq!(
            names,
            vec![
                "p99_latency_us",
                "cache_hit_rate",
                "overflow_occupancy",
                "route_gini",
                "degraded_rate"
            ]
        );
        assert_eq!(v[0].actual, 900.0);
        assert_eq!(v[0].limit, 500.0);
        // Every breach carries the slowest exemplar's trace id so the
        // violation can be interrogated through `/whyslow/<id>`.
        assert!(v.iter().all(|x| x.exemplar == Some(7)));
    }

    #[test]
    fn empty_window_skips_latency_and_hit_rate_checks() {
        // Lifetime aggregates are terrible (cold-start spike) but the
        // window since the last report saw no traffic: latency and
        // hit-rate budgets must stay quiet instead of re-firing the
        // stale violation on every idle report.
        let mut r = report();
        r.latency.window_queries = 0;
        r.latency.window_p99_us = 0.0;
        r.cache.window_hits = 0;
        r.cache.window_misses = 0;
        r.cache.window_hit_rate = 0.0;
        let b = SloBudgets {
            max_p99_us: Some(500.0),
            min_cache_hit_rate: Some(0.8),
            ..SloBudgets::default()
        };
        assert!(evaluate(&r, &b).is_empty());

        // A healthy window clears a bad lifetime aggregate outright.
        r.latency.window_queries = 5;
        r.latency.window_p99_us = 100.0;
        r.cache.window_hits = 9;
        r.cache.window_misses = 1;
        r.cache.window_hit_rate = 0.9;
        assert!(evaluate(&r, &b).is_empty());

        // And a bad window trips even though only the window is bad.
        r.latency.window_p99_us = 900.0;
        r.cache.window_hit_rate = 0.5;
        let names: Vec<&str> = evaluate(&r, &b).iter().map(|x| x.budget).collect();
        assert_eq!(names, vec!["p99_latency_us", "cache_hit_rate"]);
    }

    #[test]
    fn satisfied_budgets_stay_quiet() {
        let b = SloBudgets {
            max_p99_us: Some(1_000.0),
            min_cache_hit_rate: Some(0.4),
            max_overflow_occupancy: Some(0.95),
            max_route_gini: Some(0.6),
            max_degraded_rate: Some(0.5),
        };
        assert!(evaluate(&report(), &b).is_empty());
    }

    #[test]
    fn emit_lands_counter_and_trace_events() {
        let telemetry = Telemetry::new();
        telemetry.spans().set_enabled(true);
        let violations = vec![SloViolation {
            budget: "overflow_occupancy",
            actual: 0.9,
            limit: 0.75,
            exemplar: Some(31),
        }];
        emit(&telemetry, &violations);
        assert!(telemetry
            .render_prometheus()
            .contains("dhnsw_slo_violations_total{budget=\"overflow_occupancy\"} 1"));
        let traces = telemetry.spans().recent();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].label, "watchdog");
        let instant = traces[0]
            .spans
            .iter()
            .find(|s| s.name == "slo_violation")
            .expect("structured warning event recorded");
        assert!(instant
            .args
            .contains(&("budget", ArgValue::Str("overflow_occupancy"))));
        assert!(instant.args.contains(&("limit", ArgValue::F64(0.75))));
        assert!(instant.args.contains(&("exemplar", ArgValue::U64(31))));
    }

    #[test]
    fn emit_without_violations_is_silent() {
        let telemetry = Telemetry::new();
        telemetry.spans().set_enabled(true);
        emit(&telemetry, &[]);
        assert!(telemetry.spans().recent().is_empty());
        assert!(!telemetry
            .render_prometheus()
            .contains("dhnsw_slo_violations_total"));
    }

    #[test]
    fn violation_json_is_structured() {
        let mut v = SloViolation {
            budget: "route_gini",
            actual: 0.5,
            limit: 0.25,
            exemplar: None,
        };
        assert_eq!(
            v.to_json(),
            "{\"budget\": \"route_gini\", \"actual\": 0.500000, \"limit\": 0.250000, \"exemplar\": null}"
        );
        v.exemplar = Some(12);
        assert_eq!(
            v.to_json(),
            "{\"budget\": \"route_gini\", \"actual\": 0.500000, \"limit\": 0.250000, \"exemplar\": 12}"
        );
    }
}
