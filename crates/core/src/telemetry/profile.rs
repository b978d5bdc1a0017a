//! Flame profile of the span ring.
//!
//! [`fold`] turns a slice of finished span trees — `dhnsw_cli serve`
//! passes the span ring, [`crate::SpanTracer::recent`] — into a weighted
//! call-tree keyed by the `;`-joined span-name path
//! (`query_batch;network;read_doorbell`): call counts, inclusive wall and
//! virtual-clock microseconds, and *self* wall time (inclusive minus
//! children). [`render_folded`] exports it in the collapsed-stack
//! ("folded") format that `flamegraph.pl`, inferno, and speedscope all
//! ingest directly:
//!
//! ```text
//! query_batch;network;read_doorbell 1724
//! query_batch;sub_hnsw_search 9310
//! ```
//!
//! one line per distinct path, weight = summed self wall µs.
//!
//! Nothing is accumulated: the profile is folded on request from the
//! trees the ring holds, so `/profile/folded` and `/traces` describe the
//! same batches (the last [`super::span::DEFAULT_SPAN_TRACE_CAPACITY`]
//! captured). With capture off the ring, and so the profile, is empty
//! (the per-phase totals are `dhnsw_stage_us_total`'s).

use std::collections::BTreeMap;

use crate::telemetry::span::{FinishedTrace, SpanKind};

/// Summed weight of one span-name path across the folded trees.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PathStats {
    /// Number of spans folded into this path.
    pub calls: u64,
    /// Inclusive wall-clock microseconds (span durations summed).
    pub wall_us: f64,
    /// Inclusive virtual-clock microseconds (the RDMA cost model).
    pub vt_us: f64,
    /// Self wall-clock microseconds: inclusive time minus the wall
    /// time of direct children, clamped at zero per span. This is the
    /// folded-stack weight.
    pub self_us: f64,
}

/// Folds `traces` into the call-tree, paths in lexicographic order.
/// Instant markers carry no duration and are skipped; duration spans key
/// on the `;`-joined name path from the root (recording order guarantees
/// parents precede children).
pub fn fold(traces: &[FinishedTrace]) -> BTreeMap<String, PathStats> {
    let mut map: BTreeMap<String, PathStats> = BTreeMap::new();
    for ft in traces {
        let n = ft.spans.len();
        let mut paths: Vec<Option<String>> = vec![None; n];
        let mut child_wall = vec![0.0f64; n];
        for (i, rec) in ft.spans.iter().enumerate() {
            if rec.kind == SpanKind::Instant {
                continue;
            }
            let path = match rec.parent as usize {
                0 => rec.name.to_string(),
                p => match &paths[p - 1] {
                    Some(parent) => format!("{parent};{}", rec.name),
                    // Parent was skipped (instant) — treat as a root.
                    None => rec.name.to_string(),
                },
            };
            if rec.parent != 0 {
                child_wall[rec.parent as usize - 1] += rec.wall_dur_us.max(0.0);
            }
            paths[i] = Some(path);
        }
        for (i, rec) in ft.spans.iter().enumerate() {
            let Some(path) = paths[i].take() else {
                continue;
            };
            let wall = rec.wall_dur_us.max(0.0);
            let s = map.entry(path).or_default();
            s.calls += 1;
            s.wall_us += wall;
            s.vt_us += rec.vt_dur_us.max(0.0);
            s.self_us += (wall - child_wall[i]).max(0.0);
        }
    }
    map
}

/// Renders [`fold`]`(traces)` in collapsed-stack format: one
/// `path <self-µs>` line per distinct path, lexicographic order, integer
/// weights (rounded). Loadable by `flamegraph.pl`, inferno, and
/// speedscope.
pub fn render_folded(traces: &[FinishedTrace]) -> String {
    let mut out = String::new();
    for (path, s) in fold(traces) {
        out.push_str(&format!("{path} {}\n", s.self_us.round() as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::span::{SpanId, SpanRecord, SpanTracer};

    fn span(name: &'static str, parent: u32, start: f64, dur: f64, vt: f64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "engine",
            parent,
            kind: SpanKind::Span,
            wall_start_us: start,
            wall_dur_us: dur,
            vt_start_us: 0.0,
            vt_dur_us: vt,
            args: Vec::new(),
        }
    }

    fn sample_trace() -> FinishedTrace {
        FinishedTrace {
            label: "full",
            seq: 0,
            total_us: 100.0,
            spans: vec![
                span("query_batch", 0, 0.0, 100.0, 0.0),
                span("meta_route", 1, 0.0, 10.0, 0.0),
                span("network", 1, 10.0, 50.0, 40.0),
                span("read_doorbell", 3, 10.0, 50.0, 40.0),
                span("sub_hnsw_search", 1, 60.0, 30.0, 0.0),
                SpanRecord {
                    name: "cache_hit",
                    cat: "cache",
                    parent: 1,
                    kind: SpanKind::Instant,
                    wall_start_us: 5.0,
                    wall_dur_us: 0.0,
                    vt_start_us: 0.0,
                    vt_dur_us: 0.0,
                    args: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn fold_sums_self_time_per_path() {
        let snap = fold(&[sample_trace(), sample_trace()]);
        let root = snap.get("query_batch").unwrap();
        assert_eq!(root.calls, 2);
        assert!((root.wall_us - 200.0).abs() < 1e-9);
        // Root self = 100 - (10 + 50 + 30) = 10 per trace.
        assert!((root.self_us - 20.0).abs() < 1e-9);
        let net = snap.get("query_batch;network").unwrap();
        // Network's only child (the doorbell) covers it fully.
        assert!((net.self_us - 0.0).abs() < 1e-9);
        assert!((net.vt_us - 80.0).abs() < 1e-9);
        let db = snap.get("query_batch;network;read_doorbell").unwrap();
        assert!((db.self_us - 100.0).abs() < 1e-9);
        // The instant marker contributes no path.
        assert!(!snap.contains_key("query_batch;cache_hit"));
        assert_eq!(snap.len(), 5);
    }

    #[test]
    fn folded_render_is_sorted_and_parseable() {
        let text = render_folded(&[sample_trace()]);
        assert!(!text.is_empty());
        let mut last = String::new();
        for line in text.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("`path weight` shape");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("integer weight");
            assert!(path > last.as_str(), "lexicographic order");
            last = path.to_string();
        }
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn live_traces_fold_cleanly() {
        let t = SpanTracer::new(4);
        t.set_enabled(true);
        let trace = t.begin("full");
        let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
        let child = trace.begin_span("meta_route", "engine", root);
        trace.end_span(child);
        trace.end_span(root);
        t.finish(trace);
        let paths: Vec<String> = fold(&t.recent()).into_keys().collect();
        assert_eq!(paths, ["query_batch", "query_batch;meta_route"]);
    }
}
