//! Golden-file test for the collapsed-stack ("folded") profile exporter.
//!
//! A hand-built, fully deterministic span tree — the same shape the
//! engine produces for a routed batch — is folded through
//! [`profile::render_folded`] and the rendered output is
//! compared byte-for-byte against `tests/golden/folded.txt`, the file
//! a contributor would feed to `flamegraph.pl` or paste into
//! speedscope. Format invariants (one `path count` pair per line,
//! `;`-separated frames, integer sample weights) are asserted
//! independently of the golden bytes so a failure pinpoints *what*
//! changed.
//!
//! Regenerate the golden after an intentional format change with:
//! `BLESS=1 cargo test -p dhnsw --test folded_golden`

use dhnsw::telemetry::profile;
use dhnsw::{ArgValue, FinishedTrace, SpanKind, SpanRecord};

fn span(
    name: &'static str,
    cat: &'static str,
    parent: u32,
    wall: (f64, f64),
    vt: (f64, f64),
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
        args: Vec::new(),
    }
}

/// A miniature routed batch: root → {routing, network → doorbell verb
/// → two cluster reads, search}, plus one cache instant that must NOT
/// contribute a frame (instants carry no duration).
fn sample_trace() -> FinishedTrace {
    let spans = vec![
        // 1: root
        span("query_batch", "engine", 0, (0.0, 1000.0), (0.0, 0.0)),
        // 2: routing under root
        span("meta_route", "engine", 1, (10.0, 90.0), (0.0, 0.0)),
        // 3: network under root
        span("network", "engine", 1, (100.0, 600.0), (0.0, 450.0)),
        // 4: doorbell verb under network
        span("read_doorbell", "rdma", 3, (120.0, 500.0), (0.0, 450.0)),
        // 5, 6: per-WQE cluster reads under the verb
        span("cluster_read", "rdma", 4, (120.0, 250.0), (0.0, 225.0)),
        span("cluster_read", "rdma", 4, (370.0, 250.0), (225.0, 225.0)),
        // 7: a cache instant inside the network phase (ignored by fold)
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
        span("sub_hnsw_search", "engine", 1, (700.0, 290.0), (0.0, 0.0)),
    ];
    FinishedTrace {
        label: "full",
        seq: 1,
        total_us: 1000.0,
        spans,
    }
}

/// The sample trace folded twice, so the golden covers weight
/// accumulation in a single artifact.
fn folded_twice() -> String {
    profile::render_folded(&[sample_trace(), sample_trace()])
}

#[test]
fn folded_output_matches_golden_file() {
    let folded = folded_twice();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/folded.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, &folded).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        folded, golden,
        "folded exporter output diverged from tests/golden/folded.txt; \
         rerun with BLESS=1 if the change is intentional"
    );
}

#[test]
fn folded_output_is_flamegraph_parseable() {
    let folded = folded_twice();
    assert!(!folded.is_empty(), "the fold rendered nothing");
    for line in folded.lines() {
        // flamegraph.pl / speedscope grammar: `frame(;frame)* weight`.
        let (path, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line missing weight separator: {line:?}"));
        assert!(!path.is_empty(), "empty frame path in {line:?}");
        for frame in path.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
            assert!(
                !frame.contains(' '),
                "frame contains a space (breaks collapsed format): {line:?}"
            );
        }
        let _w: u64 = weight
            .parse()
            .unwrap_or_else(|_| panic!("non-integer weight in {line:?}"));
    }
    // Every frame path starts at the batch root.
    assert!(folded.lines().all(|l| l.starts_with("query_batch")));
    // Instants never become frames.
    assert!(!folded.contains("cache_hit"));
}

#[test]
fn fold_is_weight_additive() {
    // Folding the same trace twice doubles every weight relative to
    // folding it once — the fold is a pure sum over batches.
    let twice = folded_twice();
    let single: Vec<(String, u64)> = profile::render_folded(&[sample_trace()])
        .lines()
        .map(|l| {
            let (p, w) = l.rsplit_once(' ').unwrap();
            (p.to_string(), w.parse().unwrap())
        })
        .collect();
    let double: Vec<(String, u64)> = twice
        .lines()
        .map(|l| {
            let (p, w) = l.rsplit_once(' ').unwrap();
            (p.to_string(), w.parse().unwrap())
        })
        .collect();
    assert_eq!(single.len(), double.len());
    for ((p1, w1), (p2, w2)) in single.iter().zip(&double) {
        assert_eq!(p1, p2, "path set changed between folds");
        assert_eq!(*w2, *w1 * 2, "weight for {p1} not additive");
    }
}
