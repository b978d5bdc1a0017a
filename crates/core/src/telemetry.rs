//! Unified telemetry: metrics registry, retained views, exposition.
//!
//! Everything the query path wants to record flows through a
//! [`Telemetry`] instance — counters, gauges, and fixed-bucket
//! log-scale histograms, plus the retained views of recent batches
//! (the span ring, tail exemplars, the time series), each derived from
//! the batch's one [`crate::BatchReport`]. The folded profile is no
//! store of its own: [`profile::render_folded`] folds the span ring
//! when asked. One
//! process-wide instance ([`Telemetry::global`]) backs every
//! [`crate::ComputeNode`] unless a caller supplies its own (tests
//! isolate themselves this way).
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cheapness.** Recording a metric is a handful of
//!    relaxed atomic RMWs on pre-resolved [`Counter`] / [`Histogram`]
//!    handles. The registry lock is touched only at registration time
//!    (node connect) and at exposition time.
//! 2. **No allocation per query.** Handles are `Arc`s resolved once;
//!    histograms are fixed arrays. With span capture disabled the
//!    tracer costs a batch one atomic load and a span one clock read.
//! 3. **No dependencies.** Exposition renders Prometheus text format
//!    0.0.4 by hand — the registry's one exposition, behind `/metrics`
//!    and `--metrics-out`; ordering is made deterministic with
//!    `BTreeMap`s so output is diffable and testable.
//!
//! Metric naming follows Prometheus conventions: `dhnsw_` prefix,
//! `_total` suffix on counters, base units in the name (`_us`,
//! `_bytes`); every family is defined once, in [`metrics`]. Labels are
//! attached at registration (`mode`, `stage`, `cause`) and become part
//! of the handle, never a per-sample cost.

pub mod chrome;
pub mod exemplar;
pub mod metrics;
pub mod profile;
pub mod series;
pub mod span;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use exemplar::ExemplarStore;
use series::SeriesRecorder;
use span::{ArgValue, SpanId, SpanTracer, DEFAULT_SPAN_TRACE_CAPACITY};

/// Number of histogram buckets: upper bounds `2^0 .. 2^31`, then +Inf.
const HIST_BUCKETS: usize = 33;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (occupancy, resident bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-scale histogram of non-negative integer samples.
///
/// Buckets have upper bounds `1, 2, 4, …, 2^31, +Inf` — 33 in total,
/// which spans sub-microsecond latencies to half-hour outliers when
/// samples are microseconds, and single-element to billion-element
/// sizes when they are counts. Quantiles are read off a
/// [`HistogramSnapshot`] (or the window between two).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the first bucket whose upper bound is `>= v` — the
/// bucket a sample of value `v` lands in.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        let i = 64 - (v - 1).leading_zeros() as usize;
        i.min(HIST_BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` (`f64::INFINITY` for the last).
fn bucket_bound(i: usize) -> f64 {
    if i + 1 == HIST_BUCKETS {
        f64::INFINITY
    } else {
        (1u64 << i) as f64
    }
}

impl Histogram {
    /// Records `count` samples of value `v` (a batch's per-query sample
    /// once per query, or a substrate snapshot's pre-bucketed counts).
    pub fn observe_n(&self, v: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(count, Ordering::Relaxed);
        self.sum
            .fetch_add(v.saturating_mul(count), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Cumulative `(upper_bound, count)` pairs, Prometheus-style.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        (0..HIST_BUCKETS)
            .map(|i| {
                cum += self.buckets[i].load(Ordering::Relaxed);
                (bucket_bound(i), cum)
            })
            .collect()
    }

    /// A point-in-time copy of the buckets, for windowed evaluation:
    /// subtract an earlier snapshot from a later one and read
    /// quantiles over just the samples recorded in between.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max(),
        }
    }
}

/// A frozen copy of a [`Histogram`]'s buckets.
///
/// Subtraction yields the *window* between two snapshots, which is how
/// the SLO watchdog and `/timeseries` evaluate recent p99 instead
/// of lifetime aggregates: a cold-start latency spike ages out of the
/// window as soon as a report interval passes without one, instead of
/// pinning the lifetime quantile (and the watchdog) forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
    sum: u64,
    /// Largest sample observed up to snapshot time. A window's exact
    /// max is unknowable from bucket deltas; quantiles clamp to this
    /// lifetime max, which can only overstate a window quantile within
    /// its bucket, never past any observed sample.
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Samples in this snapshot (or window).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of samples in this snapshot (or window).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Quantile `q` in `[0, 1]` over this snapshot's (or window's)
    /// samples: the upper bound of the bucket that holds the sample of
    /// rank `ceil(q × count)`, clamped to the observed max. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bound(i).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

impl std::ops::Sub for HistogramSnapshot {
    type Output = HistogramSnapshot;

    /// The window between two snapshots. Saturating per bucket so a
    /// racing in-between reset yields an empty window rather than a
    /// wrapped one; `max` keeps the later (lifetime) value.
    fn sub(self, rhs: HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(rhs.buckets[i])),
            sum: self.sum.saturating_sub(rhs.sum),
            max: self.max,
        }
    }
}

/// What a metric family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing.
    Counter,
    /// Moves both ways.
    Gauge,
    /// Log-2 bucketed samples.
    Histogram,
}

#[derive(Debug, Clone)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// All instruments sharing one metric name (one per label set).
#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: Kind,
    /// Keyed by the rendered label set (`{a="x",b="y"}` or "").
    series: BTreeMap<String, Instrument>,
}

/// Renders a label slice as `{k="v",…}`, keys sorted, or `""` if empty.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Escapes a label value for the text exposition.
pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The telemetry hub: a metrics registry, a span tracer, the bounded
/// tail-exemplar store, and the time-series recorder.
#[derive(Debug)]
pub struct Telemetry {
    families: Mutex<BTreeMap<&'static str, Family>>,
    spans: SpanTracer,
    exemplars: ExemplarStore,
    series: SeriesRecorder,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An empty telemetry hub.
    pub fn new() -> Self {
        Telemetry {
            families: Mutex::new(BTreeMap::new()),
            spans: SpanTracer::new(DEFAULT_SPAN_TRACE_CAPACITY),
            exemplars: ExemplarStore::default(),
            series: SeriesRecorder::new(),
        }
    }

    /// The process-wide instance every node uses unless told otherwise.
    pub fn global() -> Arc<Telemetry> {
        static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Telemetry::new())))
    }

    /// The span tracer: the ring of recent per-batch span trees, the
    /// only place span trees are kept.
    pub fn spans(&self) -> &SpanTracer {
        &self.spans
    }

    /// The bounded tail-exemplar store behind `/exemplars` and
    /// `/whyslow/<id>`.
    pub fn exemplars(&self) -> &ExemplarStore {
        &self.exemplars
    }

    /// The time-series recorder behind `/timeseries`, `/anomalies`,
    /// and `dhnsw_cli top`.
    pub fn series(&self) -> &SeriesRecorder {
        &self.series
    }

    /// Publishes one health event (an SLO violation, an anomaly): bumps
    /// `counter{label}` and, while span capture is on, records a trace
    /// labelled `names[0]` whose `names[1]` root span holds one
    /// `names[2]` instant carrying `args`, plus the trace id of the
    /// exemplar the event links to, if any.
    pub(crate) fn emit_event(
        &self,
        counter: &metrics::MetricDef,
        label: (&str, &str),
        names: [&'static str; 3],
        mut args: Vec<(&'static str, ArgValue)>,
        exemplar: Option<u64>,
    ) {
        counter.counter(self, &[label]).inc();
        let trace = self.spans.begin(names[0]);
        if trace.is_enabled() {
            let root = trace.begin_span(names[1], "health", SpanId::NONE);
            args.extend(exemplar.map(|id| ("exemplar", ArgValue::U64(id))));
            trace.instant(names[2], "health", root, &args);
            trace.end_span(root);
        }
        self.spans.finish(trace);
    }

    /// Gets or registers the series `def{labels}`, made by `make` when
    /// new. [`metrics::MetricDef`]'s resolvers are the only callers, so
    /// the metric table is the only place a family comes from.
    pub(crate) fn instrument(
        &self,
        def: &metrics::MetricDef,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = render_labels(labels);
        let mut families = self.families.lock();
        let family = families.entry(def.name).or_insert_with(|| Family {
            help: def.help,
            kind: def.kind,
            series: BTreeMap::new(),
        });
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Renders every metric in Prometheus text format 0.0.4, families
    /// and series in lexicographic order.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock();
        for (name, family) in families.iter() {
            let kind = match family.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram => "histogram",
            };
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, inst) in &family.series {
                match inst {
                    Instrument::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Instrument::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Instrument::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                format!("{bound}")
                            };
                            let with_le = merge_label(labels, &format!("le=\"{le}\""));
                            out.push_str(&format!("{name}_bucket{with_le} {cum}\n"));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }
}

/// Inserts an extra label into an already-rendered label set.
fn merge_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        // `{a="x"}` → `{a="x",extra}`
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let t = Telemetry::new();
        let c = metrics::QUERIES.counter(&t, &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels returns the same instrument.
        assert_eq!(metrics::QUERIES.counter(&t, &[]).get(), 5);

        let g = metrics::CACHE_OCCUPANCY.gauge(&t, &[("mode", "full")]);
        g.set(10);
        g.set(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    #[should_panic(expected = "dhnsw_queries_total")]
    fn kind_mismatch_panics() {
        metrics::QUERIES.gauge(&Telemetry::new(), &[]);
    }

    #[test]
    fn histogram_empty_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
    }

    #[test]
    fn histogram_single_sample_is_exact_at_every_quantile() {
        let h = Histogram::default();
        h.observe_n(37, 1);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.snapshot().quantile(q), 37.0, "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 37);
        assert_eq!(h.max(), 37);
    }

    #[test]
    fn histogram_bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 31), 31);
        assert_eq!(bucket_index((1 << 31) + 1), 32);
        assert_eq!(bucket_index(u64::MAX), 32);
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = Histogram::default();
        // 90 fast samples, 10 slow ones.
        h.observe_n(10, 90);
        h.observe_n(1000, 10);
        // p50 lands in the bucket of 10 (upper bound 16).
        assert_eq!(h.snapshot().quantile(0.5), 16.0);
        // p95 lands in the bucket of 1000 (upper bound 1024, clamped to
        // observed max 1000).
        assert_eq!(h.snapshot().quantile(0.95), 1000.0);
        assert_eq!(h.snapshot().quantile(0.99), 1000.0);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 10 + 10 * 1000);
    }

    #[test]
    fn histogram_snapshot_window_isolates_recent_samples() {
        let h = Histogram::default();
        // Cold start: 10 slow samples dominate lifetime quantiles.
        h.observe_n(1000, 10);
        let baseline = h.snapshot();
        assert_eq!(baseline.count(), 10);
        assert_eq!(baseline.quantile(0.99), 1000.0);
        // Steady state: 90 fast samples arrive after the baseline.
        h.observe_n(10, 90);
        let window = h.snapshot() - baseline;
        assert_eq!(window.count(), 90);
        assert_eq!(window.sum(), 900);
        // The window sees only fast traffic even though lifetime p99
        // is still pinned by the cold spike.
        assert_eq!(window.quantile(0.99), 16.0);
        assert_eq!(h.snapshot().quantile(0.99), 1000.0);
    }

    #[test]
    fn histogram_snapshot_empty_window_reads_zero() {
        let h = Histogram::default();
        h.observe_n(500, 4);
        let a = h.snapshot();
        let window = h.snapshot() - a;
        assert_eq!(window.count(), 0);
        assert_eq!(window.sum(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(window.quantile(q), 0.0);
        }
        // Default snapshot is an empty window too.
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0.0);
    }

    #[test]
    fn histogram_snapshot_quantile_clamps_to_lifetime_max() {
        let h = Histogram::default();
        h.observe_n(1000, 1);
        // Bucket upper bound is 1024; the snapshot clamps to the
        // observed max.
        assert_eq!(h.snapshot().quantile(1.0), 1000.0);
    }

    #[test]
    fn histogram_snapshot_sub_saturates_across_a_reset() {
        // A racing reset between two snapshots makes the "later"
        // snapshot smaller than the baseline in some buckets. The
        // window must saturate to empty, never wrap.
        let before = Histogram::default();
        before.observe_n(100, 8);
        before.observe_n(10_000, 2);
        let baseline = before.snapshot();
        let after_reset = Histogram::default();
        after_reset.observe_n(100, 3);
        let window = after_reset.snapshot() - baseline;
        assert_eq!(window.count(), 0, "every bucket saturated to zero");
        assert_eq!(window.sum(), 0);
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(window.quantile(q), 0.0);
        }
    }

    #[test]
    fn histogram_snapshot_sub_partial_wrap_keeps_surviving_buckets() {
        // Only one bucket wraps (the reset lost the slow samples);
        // the fast bucket's surviving delta must still be exact and
        // the window quantile clamps to the later lifetime max.
        let before = Histogram::default();
        before.observe_n(10_000, 5);
        let baseline = before.snapshot();
        let after_reset = Histogram::default();
        after_reset.observe_n(100, 7);
        let window = after_reset.snapshot() - baseline;
        assert_eq!(window.count(), 7, "fast bucket survives the wrap");
        // `max` keeps the later snapshot's lifetime value (100), so
        // the quantile clamp cannot resurrect the lost 10k samples.
        assert_eq!(window.quantile(1.0), 100.0);
        assert!(window.quantile(0.99) <= 128.0);
    }

    #[test]
    fn histogram_overflow_bucket_catches_huge_samples() {
        let h = Histogram::default();
        h.observe_n(u64::MAX / 2, 1);
        let buckets = h.cumulative_buckets();
        assert!(buckets[HIST_BUCKETS - 1].0.is_infinite());
        assert_eq!(buckets[HIST_BUCKETS - 1].1, 1);
        assert_eq!(buckets[HIST_BUCKETS - 2].1, 0);
    }

    #[test]
    fn prometheus_output_is_well_formed_and_ordered() {
        let t = Telemetry::new();
        metrics::QUERIES.counter(&t, &[("mode", "full")]).add(2);
        metrics::QUERIES.counter(&t, &[("mode", "naive")]).add(3);
        metrics::DELETES.counter(&t, &[]).inc();
        let h = metrics::QUERY_LATENCY_US.histogram(&t, &[]);
        h.observe_n(3, 1);
        h.observe_n(100, 1);

        let text = t.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();

        // Families appear in name order; series in label order.
        let a = lines
            .iter()
            .position(|l| l.starts_with("dhnsw_deletes_total"))
            .unwrap();
        let b_full = lines
            .iter()
            .position(|l| l.starts_with("dhnsw_queries_total{mode=\"full\"}"))
            .unwrap();
        let b_naive = lines
            .iter()
            .position(|l| l.starts_with("dhnsw_queries_total{mode=\"naive\"}"))
            .unwrap();
        assert!(a < b_full && b_full < b_naive);

        // Every family has HELP and TYPE lines before its samples.
        let help = format!("# HELP dhnsw_deletes_total {}", metrics::DELETES.help);
        assert!(lines.contains(&help.as_str()));
        assert!(lines.contains(&"# TYPE dhnsw_deletes_total counter"));
        assert!(lines.contains(&"# TYPE dhnsw_query_latency_us histogram"));

        // Histogram exposition: cumulative buckets end at +Inf = count.
        assert!(text.contains("dhnsw_query_latency_us_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("dhnsw_query_latency_us_bucket{le=\"128\"} 2\n"));
        assert!(text.contains("dhnsw_query_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("dhnsw_query_latency_us_sum 103\n"));
        assert!(text.contains("dhnsw_query_latency_us_count 2\n"));

        // Every non-comment line is `name{labels}? value`.
        for l in &lines {
            if l.starts_with('#') || l.is_empty() {
                continue;
            }
            let (name_part, value) = l.rsplit_once(' ').expect("sample line");
            assert!(!name_part.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {l}");
        }

        // Rendering twice with no new samples is byte-identical.
        assert_eq!(text, t.render_prometheus());
    }

    /// Prometheus metric/label name rule: `[a-zA-Z_:][a-zA-Z0-9_:]*`
    /// (labels additionally may not use `:`).
    fn valid_name(name: &str, allow_colon: bool) -> bool {
        let mut chars = name.chars();
        let head_ok = matches!(
            chars.next(),
            Some(c) if c.is_ascii_alphabetic() || c == '_' || (allow_colon && c == ':')
        );
        head_ok
            && name
                .chars()
                .skip(1)
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
    }

    /// Walks a `{k="v",...}` label block, honoring `\"` escapes inside
    /// values; panics on any malformation, returns the label names.
    fn parse_label_block(block: &str) -> Vec<String> {
        assert!(block.starts_with('{') && block.ends_with('}'), "{block}");
        let mut names = Vec::new();
        let mut rest = &block[1..block.len() - 1];
        while !rest.is_empty() {
            let eq = rest.find('=').expect("label missing '='");
            let name = &rest[..eq];
            assert!(valid_name(name, false), "bad label name {name:?}");
            names.push(name.to_string());
            rest = rest[eq + 1..].strip_prefix('"').expect("unquoted value");
            // Find the closing quote, skipping escaped characters.
            let mut end = None;
            let mut skip = false;
            for (i, c) in rest.char_indices() {
                if skip {
                    skip = false;
                } else if c == '\\' {
                    skip = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end.expect("unterminated label value");
            assert!(!rest[..end].contains('\n'), "raw newline in label value");
            rest = &rest[end + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
        names
    }

    /// Asserts `text` is conformant Prometheus exposition 0.0.4: valid
    /// metric and label names, every family introduced by a HELP line
    /// immediately followed by its TYPE line, every sample belonging to
    /// the family declared above it (histograms via `_bucket`/`_sum`/
    /// `_count`), and parseable sample values.
    fn assert_prometheus_conformant(text: &str) {
        let mut declared: Option<(String, String)> = None;
        let mut pending_help: Option<String> = None;
        let mut families = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().expect("HELP name");
                assert!(valid_name(name, true), "bad family name {name:?}");
                assert!(families.insert(name.to_string()), "duplicate HELP {name}");
                pending_help = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("TYPE name");
                let kind = it.next().expect("TYPE kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE {kind}"
                );
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(name),
                    "TYPE {name} not immediately after its HELP"
                );
                declared = Some((name.to_string(), kind.to_string()));
            } else if !line.is_empty() {
                assert!(pending_help.is_none(), "HELP without TYPE before {line}");
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
                let name_end = series.find('{').unwrap_or(series.len());
                let name = &series[..name_end];
                assert!(valid_name(name, true), "bad metric name {name:?}");
                let (family, kind) = declared.as_ref().expect("sample before any TYPE");
                if kind == "histogram" {
                    assert!(
                        ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|s| name == format!("{family}{s}")),
                        "{name} is not a series of histogram {family}"
                    );
                } else {
                    assert_eq!(name, family, "sample under the wrong family");
                }
                if name_end < series.len() {
                    parse_label_block(&series[name_end..]);
                }
            }
        }
        assert!(pending_help.is_none(), "trailing HELP without TYPE");
        assert!(!families.is_empty(), "no families rendered");
    }

    #[test]
    fn prometheus_exposition_is_conformant() {
        let t = Telemetry::new();
        // A representative registry: labeled counters (including the
        // per-cause byte family), gauges, and a labeled histogram.
        for c in metrics::RDMA_READ_BYTES_BY_CAUSE.counters_by_cause(&t) {
            c.add(1024);
        }
        metrics::CACHE_RESIDENT_BYTES.gauge(&t, &[]).set(250);
        metrics::QUERIES.counter(&t, &[("mode", "full")]).add(7);
        let h = metrics::QUERY_LATENCY_US.histogram(&t, &[("mode", "full")]);
        h.observe_n(8, 90);
        h.observe_n(4096, 10);
        assert_prometheus_conformant(&t.render_prometheus());
    }

    #[test]
    fn prometheus_label_escaping_round_trips() {
        let t = Telemetry::new();
        let hairy = "a\\b\"c\nd";
        metrics::QUERIES.counter(&t, &[("path", hairy)]).add(5);
        let text = t.render_prometheus();
        assert_prometheus_conformant(&text);
        // The escaped form on the wire...
        let line = text
            .lines()
            .find(|l| l.starts_with("dhnsw_queries_total{"))
            .expect("escaped series rendered");
        let start = line.find("path=\"").unwrap() + "path=\"".len();
        let end = line.rfind('"').unwrap();
        let wire = &line[start..end];
        assert_eq!(wire, "a\\\\b\\\"c\\nd");
        // ...un-escapes back to the original value.
        let mut out = String::new();
        let mut chars = wire.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    other => panic!("unknown escape \\{other:?}"),
                }
            } else {
                out.push(c);
            }
        }
        assert_eq!(out, hairy);
    }

    #[test]
    fn merge_label_handles_both_shapes() {
        assert_eq!(merge_label("", "le=\"1\""), "{le=\"1\"}");
        assert_eq!(
            merge_label("{mode=\"full\"}", "le=\"1\""),
            "{mode=\"full\",le=\"1\"}"
        );
    }
}
