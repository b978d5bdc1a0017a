//! Threshold-based SLO watchdog.
//!
//! Budgets come from `dhnsw_cli`'s `--slo-*` flags, and each has one
//! judge. [`evaluate`] checks the two *state* budgets (overflow
//! occupancy, route Gini) against a [`HealthReport`]; [`evaluate_point`]
//! checks the three *windowed* ones (p99 latency, cache hit rate,
//! degraded rate) against a [`SeriesPoint`], the one window the plane
//! cuts. Both take the exemplar id every violation links to (the
//! slowest retained batch's, from `/exemplars`). [`emit`] publishes
//! violations as a `dhnsw_slo_violations_total` counter plus structured
//! `slo_violation` instant events in the span-trace ring (when span
//! capture is enabled), so a dashboard or a `doctor --check` script
//! sees the same verdict.

use crate::health::report::HealthReport;
use crate::telemetry::series::SeriesPoint;
use crate::telemetry::span::ArgValue;
use crate::telemetry::{metrics, Telemetry};

/// Configurable health budgets; `None` disables a check.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloBudgets {
    /// Largest acceptable windowed p99 per-query latency, microseconds.
    pub max_p99_us: Option<f64>,
    /// Smallest acceptable windowed cluster-cache hit rate in `[0, 1]`.
    pub min_cache_hit_rate: Option<f64>,
    /// Largest acceptable per-group overflow occupancy in `[0, 1]`
    /// (checked against the fullest group).
    pub max_overflow_occupancy: Option<f64>,
    /// Largest acceptable route-frequency Gini coefficient.
    pub max_route_gini: Option<f64>,
    /// Largest acceptable windowed fraction of queries answered degraded
    /// (incomplete cluster coverage), in `[0, 1]`.
    pub max_degraded_rate: Option<f64>,
}

/// One budget a report or a window violated.
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

/// Checks `report` against the two state budgets, returning every
/// violated one in a fixed order (occupancy, skew). `exemplar` should be
/// the slowest retained tail exemplar's trace id at evaluation time, if
/// any: every breach links to it so `/whyslow/<id>` can explain it.
pub fn evaluate(
    report: &HealthReport,
    budgets: &SloBudgets,
    exemplar: Option<u64>,
) -> Vec<SloViolation> {
    let mut out = Vec::new();
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
    out
}

/// Checks one window — a recorder tick's [`SeriesPoint`], or any
/// [`SeriesPoint::between`] two samples — against the three windowed
/// budgets, in a fixed order (latency, hit rate, degradation). A window
/// with nothing to judge skips its check rather than falling back to
/// lifetime values, which would re-fire a stale violation on every idle
/// tick. `exemplar`: as for [`evaluate`].
pub fn evaluate_point(
    point: &SeriesPoint,
    budgets: &SloBudgets,
    exemplar: Option<u64>,
) -> Vec<SloViolation> {
    let mut out = Vec::new();
    if let Some(limit) = budgets.max_p99_us {
        if point.window_queries > 0 && point.p99_us > limit {
            out.push(SloViolation {
                budget: "p99_latency_us",
                actual: point.p99_us,
                limit,
                exemplar,
            });
        }
    }
    if let Some(limit) = budgets.min_cache_hit_rate {
        if point.window_cache_ops > 0 && point.hit_rate < limit {
            out.push(SloViolation {
                budget: "cache_hit_rate",
                actual: point.hit_rate,
                limit,
                exemplar,
            });
        }
    }
    if let Some(limit) = budgets.max_degraded_rate {
        if point.window_queries > 0 && point.degraded_rate > limit {
            out.push(SloViolation {
                budget: "degraded_rate",
                actual: point.degraded_rate,
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
    use crate::health::report::{GroupHealth, LayoutSummary};
    use crate::health::skew::{skew_of, SkewStats};

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
            }],
            partition_skew: skew_of(&[50, 50], 1),
            route_skew: skew_of(&[10, 0], 1),
            degree_skew: SkewStats::default(),
            violations: Vec::new(),
        }
    }

    /// A window of `queries` queries at `p99_us`, a fifth of them
    /// degraded, and `cache_ops` planned clusters at `hit_rate`.
    fn window(queries: u64, p99_us: f64, cache_ops: u64, hit_rate: f64) -> SeriesPoint {
        SeriesPoint {
            window_queries: queries,
            p99_us,
            degraded_rate: 0.2,
            window_cache_ops: cache_ops,
            hit_rate,
            ..SeriesPoint::default()
        }
    }

    #[test]
    fn empty_budgets_never_fire() {
        let b = SloBudgets::default();
        assert!(evaluate(&report(), &b, Some(7)).is_empty());
        assert!(evaluate_point(&window(10, 900.0, 2, 0.5), &b, Some(7)).is_empty());
    }

    #[test]
    fn each_budget_trips_on_its_own_dimension() {
        let b = SloBudgets {
            max_p99_us: Some(500.0),
            min_cache_hit_rate: Some(0.8),
            max_overflow_occupancy: Some(0.75),
            max_route_gini: Some(0.25),
            max_degraded_rate: Some(0.1),
        };
        // The window judges the windowed budgets, the report the state
        // ones; neither judges the other's.
        let w = evaluate_point(&window(10, 900.0, 2, 0.5), &b, Some(7));
        let names: Vec<&str> = w.iter().map(|x| x.budget).collect();
        assert_eq!(
            names,
            vec!["p99_latency_us", "cache_hit_rate", "degraded_rate"]
        );
        assert_eq!(w[0].actual, 900.0);
        assert_eq!(w[0].limit, 500.0);
        assert_eq!(w[2].actual, 0.2);
        let v = evaluate(&report(), &b, Some(7));
        let names: Vec<&str> = v.iter().map(|x| x.budget).collect();
        assert_eq!(names, vec!["overflow_occupancy", "route_gini"]);
        assert_eq!(v[0].actual, 0.9);
        assert_eq!(v[0].limit, 0.75);
        // Every breach carries the slowest exemplar's trace id so the
        // violation can be interrogated through `/whyslow/<id>`.
        assert!(w.iter().chain(&v).all(|x| x.exemplar == Some(7)));
    }

    #[test]
    fn empty_window_skips_every_windowed_check() {
        // Lifetime aggregates may be terrible (cold-start spike) but a
        // window that saw no traffic has nothing to judge: latency,
        // hit-rate and degradation budgets stay quiet instead of
        // re-firing the stale violation on every idle tick.
        let b = SloBudgets {
            max_p99_us: Some(500.0),
            min_cache_hit_rate: Some(0.8),
            max_degraded_rate: Some(0.1),
            ..SloBudgets::default()
        };
        assert!(evaluate_point(&window(0, 0.0, 0, 0.0), &b, None).is_empty());

        // A healthy window passes.
        let healthy = SeriesPoint {
            degraded_rate: 0.0,
            ..window(5, 100.0, 10, 0.9)
        };
        assert!(evaluate_point(&healthy, &b, None).is_empty());

        // And a bad window trips.
        let names: Vec<&str> = evaluate_point(&window(5, 900.0, 10, 0.5), &b, None)
            .iter()
            .map(|x| x.budget)
            .collect();
        assert_eq!(
            names,
            vec!["p99_latency_us", "cache_hit_rate", "degraded_rate"]
        );
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
        assert!(evaluate(&report(), &b, Some(7)).is_empty());
        assert!(evaluate_point(&window(10, 900.0, 2, 0.5), &b, Some(7)).is_empty());
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
