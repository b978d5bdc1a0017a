//! Characterization ledger of the observability plane: everything a
//! node's telemetry views say about one fixed sequence of work, pinned
//! in `tests/golden/obs_ledger.txt`.
//!
//! One seeded `DHnswConfig::small()` store per cell of
//!
//! ```text
//! wire {full, sq8} x spans {off, on}
//! ```
//!
//! reports to a fresh [`Telemetry`] hub and runs: a cold batch, a repeat
//! batch, an `insert_batch` of 8 right beside the queries, a third
//! batch, `health_report()`, one synthetic `watchdog::emit`, and
//! `sample_series` at 0 s, 1 s and 2 s. The cell then records
//!
//! - **metrics** — `render_prometheus()` whole: every `# HELP` / `# TYPE`
//!   line, every series and label set, every count, byte total, trip
//!   total and occupancy. Values of wall-clock families (`*_us*`; the
//!   latency histogram's `_count` and the virtual-clock network stage
//!   stay exact) are masked with `#`.
//! - **spans** (spans on) — every finished trace's skeleton in recording
//!   order: depth, name, category, kind, argument keys in order with
//!   integer and string values; floats masked.
//! - **documents** — `/exemplars`, `/whyslow/<first batch>`,
//!   `/profile/folded` (the span ring folded: empty with spans off),
//!   `HealthReport::to_json` and `/timeseries`: every key, integer and
//!   string exact, every decimal number masked.
//!
//! What the wall clock decides by *order or identity* rather than value
//! is canonicalised: the K-slowest list is sorted by trace id, the
//! slowest batch's id and the why-slow verdict are masked, so the golden
//! holds under the search-thread environment matrix of
//! `scripts/check.sh`.
//!
//! What must agree is asserted, not just recorded: on every batch the
//! returned report's `ledger.cause_bytes`, the root span's `bytes_*`
//! arguments and the `/metrics` by-cause delta are the same numbers,
//! each host phase of the breakdown is the sum of its spans' walls and
//! `total_us` the root's wall plus the exposed network (with `==`), and
//! turning spans on changes no count in the metrics section.
//!
//! Regenerate after an intentional change with:
//! `BLESS=1 cargo test -p dhnsw --test obs_ledger`

use std::fmt::Write as _;
use std::sync::Arc;

use dhnsw::health::watchdog;
use dhnsw::telemetry::profile;
use dhnsw::{
    ArgValue, ComputeNode, DHnswConfig, FinishedTrace, QuantizeMode, ReadCause, SearchMode,
    SloViolation, SpanKind, Telemetry, VectorStore, READ_CAUSES,
};
use vecsim::{gen, Dataset};

const K: usize = 10;
const EF: usize = 48;

/// Replaces every decimal number (`digits.digits`) with `#`; integers
/// and everything else pass through.
fn mask_decimals(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit()
            && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
        {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j + 1 < b.len() && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                j += 1;
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                // A leading minus belongs to the number.
                if out.ends_with('-') {
                    out.pop();
                }
                out.push('#');
            } else {
                out.push_str(&s[i..j]);
            }
            i = j;
        } else {
            let ch = s[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// Masks the value after every `"key": ` whose key satisfies `pick`.
fn mask_values(s: &str, pick: impl Fn(&str) -> bool) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(open) = rest.find('"') {
        let Some(len) = rest[open + 1..].find('"') else {
            break;
        };
        let key = &rest[open + 1..open + 1 + len];
        let after = open + len + 2;
        out.push_str(&rest[..after]);
        rest = &rest[after..];
        if let Some(value) = rest.strip_prefix(": ") {
            if pick(key) {
                let end = value.find([',', '}', '\n']).unwrap_or(value.len());
                out.push_str(": #");
                rest = &value[end..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// The `/metrics` text with wall-clock values masked.
fn mask_metrics(prom: &str) -> String {
    let mut out = String::new();
    for line in prom.lines() {
        let masked = match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => {
                let name = series.split('{').next().expect("split yields one");
                let wall = name.contains("_us")
                    && !name.ends_with("_us_count")
                    && !series.contains("stage=\"network\"");
                if wall {
                    format!("{series} #")
                } else {
                    line.to_string()
                }
            }
            _ => line.to_string(),
        };
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

/// The by-cause byte counters of a `/metrics` text.
fn cause_bytes_of(prom: &str) -> [u64; READ_CAUSES] {
    std::array::from_fn(|i| {
        let series = format!(
            "dhnsw_rdma_read_bytes_by_cause_total{{cause=\"{}\"}} ",
            ReadCause::ALL[i].as_str()
        );
        prom.lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .map_or(0, |v| v.parse().expect("counter value"))
    })
}

/// One finished trace as a skeleton: a header, then one line per span.
fn skeleton(ft: &FinishedTrace, out: &mut String) {
    writeln!(
        out,
        "trace label={} seq={} spans={}",
        ft.label,
        ft.seq,
        ft.spans.len()
    )
    .unwrap();
    let mut depth = vec![0usize; ft.spans.len() + 1];
    for (i, rec) in ft.spans.iter().enumerate() {
        depth[i + 1] = depth[rec.parent as usize] + 1;
        let kind = match rec.kind {
            SpanKind::Span => "span",
            SpanKind::Instant => "instant",
        };
        let args: Vec<String> = rec
            .args
            .iter()
            .map(|(k, v)| match v {
                ArgValue::U64(n) => format!("{k}={n}"),
                ArgValue::Str(s) => format!("{k}={s}"),
                ArgValue::F64(_) => format!("{k}=#"),
            })
            .collect();
        let line = format!("{} [{}] {kind} {}", rec.name, rec.cat, args.join(" "));
        writeln!(
            out,
            "{:indent$}{}",
            "",
            line.trim_end(),
            indent = depth[i + 1] * 2
        )
        .unwrap();
    }
}

/// The root span's `bytes_<cause>` arguments as a cause-indexed array.
fn root_cause_bytes(ft: &FinishedTrace) -> [u64; READ_CAUSES] {
    let mut out = [0u64; READ_CAUSES];
    for (k, v) in &ft.spans[0].args {
        let cause = ReadCause::ALL
            .iter()
            .find(|c| k.strip_prefix("bytes_") == Some(c.as_str()));
        if let (Some(cause), ArgValue::U64(b)) = (cause, v) {
            out[cause.index()] = *b;
        }
    }
    out
}

/// The `/exemplars` document with its wall-clock order canonicalised:
/// K-slowest sorted by trace id.
fn canon_exemplars(json: &str) -> String {
    let mut out = String::new();
    for line in json.lines() {
        let (head, body) = match line.find('[') {
            Some(at) if line.trim_start().starts_with("\"slowest\"") => {
                (&line[..=at], &line[at + 1..])
            }
            _ => {
                out.push_str(line);
                out.push('\n');
                continue;
            }
        };
        let close = body.rfind(']').expect("array closes on its line");
        let mut entries: Vec<String> = body[..close]
            .split("}, {")
            .filter(|e| !e.is_empty())
            .map(|e| format!("{{{}}}", e.trim_start_matches('{').trim_end_matches('}')))
            .collect();
        entries.sort_by_key(|e| {
            let digits: String = e["{\"trace_id\": ".len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().expect("trace id")
        });
        writeln!(out, "{head}{}{}", entries.join(", "), &body[close..]).unwrap();
    }
    out
}

/// Runs one batch; asserts the three copies of its byte provenance
/// agree.
fn batch(node: &ComputeNode, queries: &Dataset, spans: bool, what: &str) {
    let telemetry = node.telemetry();
    let before = cause_bytes_of(&telemetry.render_prometheus());
    let (results, report) = node.query_batch(queries, K, EF).unwrap();
    assert_eq!(results.len(), queries.len(), "{what}");
    let after = cause_bytes_of(&telemetry.render_prometheus());
    let delta: [u64; READ_CAUSES] = std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        report.ledger.cause_bytes, delta,
        "{what}: /metrics by-cause delta"
    );
    assert_eq!(
        report.ledger.total_bytes(),
        report.bytes_read,
        "{what}: causes tile bytes"
    );
    // Every host phase that ran was timed, spans on or off.
    let b = report.breakdown;
    assert!(b.meta_hnsw_us > 0.0 && b.sub_hnsw_us > 0.0, "{what}: {b:?}");
    assert!(
        b.materialize_us > 0.0 || report.clusters_loaded == 0,
        "{what}: {b:?}"
    );
    assert!(
        b.network_us > 0.0 || report.round_trips == 0,
        "{what}: {b:?}"
    );
    if spans {
        let recent = telemetry.spans().recent();
        let ft = recent.last().expect("the batch left a trace");
        assert_eq!(ft.spans[0].name, "query_batch", "{what}");
        assert_eq!(
            report.ledger.cause_bytes,
            root_cause_bytes(ft),
            "{what}: root-span bytes_*"
        );
        // One reading per phase: a phase's share is the sum of the walls
        // of its spans, in recording order, and the root's wall plus the
        // exposed network is the batch's latency.
        let walls = |names: &[&str]| -> Vec<f64> {
            let named = ft.spans.iter().filter(|s| names.contains(&s.name));
            named.map(|s| s.wall_dur_us).collect()
        };
        let sum = |names: &[&str]| walls(names).iter().sum::<f64>();
        assert_eq!(walls(&["meta_route"]), [b.meta_hnsw_us], "{what}: meta");
        assert_eq!(
            sum(&["materialize"]),
            b.materialize_us,
            "{what}: materialize"
        );
        let sub = sum(&["sub_hnsw_search", "rerank"]);
        assert_eq!(sub, b.sub_hnsw_us, "{what}: sub-HNSW search, then rerank");
        let root = ft.spans[0].wall_dur_us;
        assert_eq!(root + b.network_us, report.total_us, "{what}: total");
    }
}

/// Runs one cell's sequence and returns `(metrics section, rest)`.
fn cell(data: &Dataset, queries: &Dataset, wire: QuantizeMode, spans: bool) -> (String, String) {
    let config = DHnswConfig::small().with_quantize_mode(wire);
    let store = VectorStore::build(data.clone(), &config).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    // The hub's tracer, set per cell (connecting never touches it).
    telemetry.spans().set_enabled(spans);
    assert_eq!(node.is_quantized(), wire == QuantizeMode::Sq8);

    batch(&node, queries, spans, "cold");
    batch(&node, queries, spans, "repeat");
    let beside = gen::perturbed_queries(queries, 8, 0.005, 0x0B5E7).unwrap();
    for r in node.insert_batch(&beside).unwrap() {
        r.unwrap();
    }
    batch(&node, queries, spans, "after inserts");
    let ex = telemetry.exemplars();
    assert_eq!(ex.recorded(), 3, "one exemplar per batch");
    let health = node.health_report().unwrap();
    watchdog::emit(
        &telemetry,
        &[SloViolation {
            budget: "overflow_occupancy",
            actual: 0.9,
            limit: 0.75,
            exemplar: Some(0),
        }],
    );
    for second in 0..3u64 {
        node.sample_series(second * 1_000_000);
    }

    let metrics = mask_metrics(&telemetry.render_prometheus());
    let mut rest = String::new();
    if spans {
        rest.push_str("-- spans --\n");
        for ft in telemetry.spans().recent() {
            skeleton(&ft, &mut rest);
        }
    }
    rest.push_str("-- /exemplars --\n");
    rest.push_str(&mask_decimals(&canon_exemplars(&ex.render_json())));
    rest.push_str("-- /whyslow/0 --\n");
    let why = ex.whyslow_json(0).expect("the first batch is retained");
    rest.push_str(&mask_decimals(&mask_values(&why, |k| k == "verdict")));
    rest.push_str("-- /profile/folded --\n");
    for (path, stats) in profile::fold(&telemetry.spans().recent()) {
        writeln!(rest, "{path} calls={} #", stats.calls).unwrap();
    }
    rest.push_str("-- health --\n");
    rest.push_str(&mask_decimals(&health.to_json()));
    rest.push_str("-- /timeseries --\n");
    rest.push_str(&mask_decimals(&telemetry.series().render_json(0, 1)));
    rest.push('\n');
    (metrics, rest)
}

#[test]
fn obs_ledger_matches_the_golden() {
    let data = gen::sift_like(1_500, 0x0B5E5).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.02, 0x0B5E6).unwrap();
    let mut out = String::new();
    for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
        let mut sections = Vec::new();
        for spans in [false, true] {
            let (metrics, rest) = cell(&data, &queries, wire, spans);
            writeln!(
                out,
                "== wire={} spans={} ==\n-- metrics --\n{metrics}{rest}",
                if wire == QuantizeMode::Sq8 {
                    "sq8"
                } else {
                    "full"
                },
                if spans { "on" } else { "off" },
            )
            .unwrap();
            sections.push(metrics);
        }
        // Span capture observes; it must not change what is counted.
        assert_eq!(
            sections[0],
            sections[1],
            "wire={}: spans on changed a count",
            wire.as_str()
        );
    }

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_ledger.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &out).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden file missing; regenerate with BLESS=1");
    if out != golden {
        let moved: Vec<String> = out
            .lines()
            .zip(golden.lines())
            .filter(|(got, want)| got != want)
            .take(12)
            .map(|(got, want)| format!("  got:  {got}\n  want: {want}"))
            .collect();
        panic!(
            "observability ledger drifted from tests/golden/obs_ledger.txt \
             ({} vs {} lines); first moved lines:\n{}",
            out.lines().count(),
            golden.lines().count(),
            moved.join("\n")
        );
    }
}
