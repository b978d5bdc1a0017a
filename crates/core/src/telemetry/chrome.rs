//! Chrome trace-event JSON exposition for finished span traces.
//!
//! Renders [`FinishedTrace`]s into the [Trace Event Format] consumed
//! by Perfetto and `chrome://tracing`: one process (`pid` 1), one
//! lane (`tid`) per batch named after its sequence number and search
//! mode, duration spans as complete `"X"` events and markers as
//! thread-scoped `"i"` instants. Timestamps are wall-clock
//! microseconds relative to each batch's epoch; virtual-clock
//! intervals ride along in `args` as `vt_start_us` / `vt_dur_us`.
//!
//! Events are sorted by timestamp (ties broken longest-duration
//! first, so parents precede the children they enclose), which keeps
//! the output deterministic and viewer-friendly. Everything is
//! rendered by hand — no serialization dependency.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use super::escape;
use super::span::{FinishedTrace, SpanKind};

/// Formats an f64 for JSON with fixed three-decimal precision (the
/// Chrome format takes fractional microseconds; fixed width keeps
/// golden files stable).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.000".to_string()
    }
}

/// Renders `traces` as a complete Chrome trace-event JSON document.
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`. Each batch appears as its own thread lane;
/// span nesting follows wall-clock containment.
pub fn chrome_trace_json(traces: &[FinishedTrace]) -> String {
    let mut meta: Vec<String> = Vec::new();
    let mut events: Vec<(f64, f64, String)> = Vec::new();
    for ft in traces {
        meta.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"batch {} ({})\"}}}}",
            ft.seq,
            ft.seq,
            escape(ft.label)
        ));
        for rec in &ft.spans {
            let mut args = String::new();
            for (k, v) in &rec.args {
                args.push_str(&format!("\"{}\":{},", escape(k), v.render_json()));
            }
            if rec.vt_dur_us > 0.0 {
                args.push_str(&format!(
                    "\"vt_start_us\":{},\"vt_dur_us\":{},",
                    json_num(rec.vt_start_us),
                    json_num(rec.vt_dur_us)
                ));
            }
            args.pop(); // trailing comma (no-op when empty)
            let dur = rec.wall_dur_us.max(0.0);
            let json = match rec.kind {
                SpanKind::Span => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                    escape(rec.name),
                    escape(rec.cat),
                    json_num(rec.wall_start_us),
                    json_num(dur),
                    ft.seq,
                    args
                ),
                SpanKind::Instant => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                    escape(rec.name),
                    escape(rec.cat),
                    json_num(rec.wall_start_us),
                    ft.seq,
                    args
                ),
            };
            events.push((rec.wall_start_us, -dur, json));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let all: Vec<String> = meta
        .into_iter()
        .chain(events.into_iter().map(|e| e.2))
        .collect();
    if all.is_empty() {
        return "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}".to_string();
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}",
        all.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::super::span::{ArgValue, SpanRecord};
    use super::*;

    fn span(
        name: &'static str,
        parent: u32,
        start: f64,
        dur: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanRecord {
        SpanRecord {
            name,
            cat: "engine",
            parent,
            kind: SpanKind::Span,
            wall_start_us: start,
            wall_dur_us: dur,
            vt_start_us: 0.0,
            vt_dur_us: 0.0,
            args,
        }
    }

    #[test]
    fn empty_input_is_an_empty_document() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn spans_render_as_sorted_x_events_with_lane_metadata() {
        let ft = FinishedTrace {
            label: "full",
            seq: 3,
            total_us: 100.0,
            spans: vec![
                span("query_batch", 0, 0.0, 100.0, Vec::new()),
                // Recorded out of wall order on purpose.
                span("sub_hnsw_search", 1, 60.0, 30.0, Vec::new()),
                span(
                    "meta_route",
                    1,
                    0.0,
                    10.0,
                    vec![("fanout", ArgValue::U64(4))],
                ),
            ],
        };
        let json = chrome_trace_json(&[ft]);
        assert!(json.contains("\"args\":{\"name\":\"batch 3 (full)\"}"));
        assert!(json.contains(
            "{\"name\":\"query_batch\",\"cat\":\"engine\",\"ph\":\"X\",\
             \"ts\":0.000,\"dur\":100.000,\"pid\":1,\"tid\":3,\"args\":{}}"
        ));
        assert!(json.contains("\"fanout\":4"));
        // Sorted by ts, parent before same-ts child, search span last.
        let qb = json.find("query_batch").unwrap();
        let mr = json.find("meta_route").unwrap();
        let ss = json.find("sub_hnsw_search").unwrap();
        assert!(qb < mr && mr < ss);
    }

    #[test]
    fn instants_render_as_thread_scoped_i_events() {
        let ft = FinishedTrace {
            label: "full",
            seq: 0,
            total_us: 5.0,
            spans: vec![SpanRecord {
                name: "cache_hit",
                cat: "cache",
                parent: 0,
                kind: SpanKind::Instant,
                wall_start_us: 2.5,
                wall_dur_us: 0.0,
                vt_start_us: 0.0,
                vt_dur_us: 0.0,
                args: vec![("cluster", ArgValue::U64(9))],
            }],
        };
        let json = chrome_trace_json(&[ft]);
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":2.500"));
        assert!(json.contains("\"cluster\":9"));
    }

    #[test]
    fn virtual_clock_rides_in_args() {
        let mut rec = span("read_doorbell", 1, 10.0, 20.0, Vec::new());
        rec.vt_start_us = 1.0;
        rec.vt_dur_us = 15.5;
        let ft = FinishedTrace {
            label: "full",
            seq: 0,
            total_us: 30.0,
            spans: vec![rec],
        };
        let json = chrome_trace_json(&[ft]);
        assert!(json.contains("\"vt_start_us\":1.000,\"vt_dur_us\":15.500"));
    }
}
