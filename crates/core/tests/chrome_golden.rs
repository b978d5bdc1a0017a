//! Golden-file test for the Chrome trace-event exporter.
//!
//! A hand-built, fully deterministic two-level span tree is exported and
//! compared byte-for-byte against `tests/golden/chrome_trace.json` (the
//! file a contributor would load into Perfetto / chrome://tracing).
//! Structural properties — monotone timestamps, complete events only,
//! parent intervals containing children — are asserted independently of
//! the golden bytes so a failure pinpoints *what* changed.
//!
//! Regenerate the golden after an intentional format change with:
//! `BLESS=1 cargo test -p dhnsw --test chrome_golden`

use dhnsw::{chrome_trace_json, ArgValue, FinishedTrace, SpanKind, SpanRecord};

fn span(
    name: &'static str,
    cat: &'static str,
    parent: u32,
    wall: (f64, f64),
    vt: (f64, f64),
    args: Vec<(&'static str, ArgValue)>,
) -> SpanRecord {
    SpanRecord {
        name,
        cat,
        parent,
        kind: SpanKind::Span,
        wall_start_us: wall.0,
        wall_dur_us: wall.1,
        vt_start_us: vt.0,
        vt_dur_us: vt.1,
        args,
    }
}

/// A miniature but representative batch: root → {routing, network →
/// {doorbell verb → implied WQEs as grandchildren}, search}, plus one
/// cache instant.
fn sample_trace() -> FinishedTrace {
    let spans = vec![
        // 1: root
        span(
            "query_batch",
            "engine",
            0,
            (0.0, 1000.0),
            (0.0, 0.0),
            vec![
                ("mode", ArgValue::Str("full")),
                ("queries", ArgValue::U64(32)),
            ],
        ),
        // 2: routing under root
        span(
            "meta_route",
            "engine",
            1,
            (10.0, 90.0),
            (0.0, 0.0),
            vec![("fanout", ArgValue::U64(4))],
        ),
        // 3: network under root
        span(
            "network",
            "engine",
            1,
            (100.0, 600.0),
            (0.0, 450.0),
            vec![("round_trips", ArgValue::U64(1))],
        ),
        // 4: doorbell verb under network
        span(
            "read_doorbell",
            "rdma",
            3,
            (120.0, 500.0),
            (0.0, 450.0),
            vec![("wqes", ArgValue::U64(2)), ("bytes", ArgValue::U64(8192))],
        ),
        // 5, 6: per-WQE cluster reads under the verb
        span(
            "cluster_read",
            "rdma",
            4,
            (120.0, 250.0),
            (0.0, 225.0),
            vec![("offset", ArgValue::U64(0)), ("bytes", ArgValue::U64(4096))],
        ),
        span(
            "cluster_read",
            "rdma",
            4,
            (370.0, 250.0),
            (225.0, 225.0),
            vec![
                ("offset", ArgValue::U64(4096)),
                ("bytes", ArgValue::U64(4096)),
            ],
        ),
        // 7: a cache instant inside the network phase
        SpanRecord {
            name: "cache_hit",
            cat: "cache",
            parent: 3,
            kind: SpanKind::Instant,
            wall_start_us: 110.0,
            wall_dur_us: 0.0,
            vt_start_us: 0.0,
            vt_dur_us: 0.0,
            args: vec![("cluster", ArgValue::U64(7))],
        },
        // 8: search under root
        span(
            "sub_hnsw_search",
            "engine",
            1,
            (700.0, 290.0),
            (0.0, 0.0),
            vec![("ef", ArgValue::U64(32))],
        ),
    ];
    FinishedTrace {
        label: "full",
        seq: 1,
        total_us: 1000.0,
        spans,
    }
}

#[test]
fn exporter_matches_golden_file() {
    let json = chrome_trace_json(&[sample_trace()]);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        json, golden,
        "exporter output diverged from tests/golden/chrome_trace.json; \
         rerun with BLESS=1 if the change is intentional"
    );
}

#[test]
fn exporter_output_is_structurally_valid() {
    let json = chrome_trace_json(&[sample_trace()]);

    // Envelope.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));

    // Event lines, skipping the metadata record.
    let body =
        &json["{\"traceEvents\":[\n".len()..json.len() - "],\"displayTimeUnit\":\"ms\"}".len()];
    let lines: Vec<&str> = body
        .lines()
        .map(|l| l.trim_end_matches(','))
        .filter(|l| !l.is_empty())
        .collect();
    assert!(lines[0].contains("\"ph\":\"M\""), "first event is metadata");
    let events = &lines[1..];
    assert_eq!(events.len(), sample_trace().spans.len());

    // Complete ("X") or instant ("i") events only — no unmatched B/E
    // pairs are possible. Timestamps are monotone non-decreasing, which
    // trace viewers require for stable rendering.
    let mut last_ts = f64::NEG_INFINITY;
    for e in events {
        let is_complete = e.contains("\"ph\":\"X\"");
        let is_instant = e.contains("\"ph\":\"i\"");
        assert!(is_complete || is_instant, "unexpected phase in {e}");
        if is_complete {
            assert!(e.contains("\"dur\":"), "complete event without dur: {e}");
        }
        let ts: f64 = e
            .split("\"ts\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("every event has a numeric ts");
        assert!(ts >= last_ts, "ts went backwards at {e}");
        last_ts = ts;
    }

    // The doorbell verb's children tile its wall interval.
    assert!(json.contains("\"name\":\"read_doorbell\""));
    assert_eq!(json.matches("\"name\":\"cluster_read\"").count(), 2);
}

#[test]
fn two_level_tree_nests_by_containment() {
    // Chrome infers nesting from interval containment per (pid, tid):
    // every child interval must sit inside its parent's.
    let trace = sample_trace();
    for s in &trace.spans {
        if s.parent == 0 || s.kind == SpanKind::Instant {
            continue;
        }
        let p = &trace.spans[(s.parent - 1) as usize];
        assert!(
            s.wall_start_us >= p.wall_start_us
                && s.wall_start_us + s.wall_dur_us <= p.wall_start_us + p.wall_dur_us + 1e-9,
            "span {} escapes parent {}",
            s.name,
            p.name
        );
    }
}
