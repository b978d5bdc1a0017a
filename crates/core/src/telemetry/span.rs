//! Parent/child span tracing for the batch read path.
//!
//! One [`BatchTrace`] covers one `query_batch` call: a root span with
//! routing / cluster-union / network / search children, per-doorbell
//! and per-work-request spans bridged in from the RDMA substrate, and
//! instant events for cache hits, misses, evictions, and fault
//! retries. Each span carries **two** timelines:
//!
//! - *wall* microseconds relative to the batch epoch (an [`Instant`]
//!   captured at [`SpanTracer::begin`]) — the primary timeline, what
//!   the Chrome exporter renders;
//! - *virtual-clock* microseconds from the simulated fabric — the
//!   modeled network cost, attached as span arguments so a trace shows
//!   both where real time went and what the cost model charged.
//!
//! Tracing is off by default; a disabled [`BatchTrace`] is a `None`
//! and records nothing, so the query path pays one atomic load per batch
//! and one clock read per span when idle: a span still times itself,
//! because it is the one clock of the phase it covers (see
//! [`crate::breakdown::Phase`]). Finished traces land in a bounded
//! ring on the [`SpanTracer`]; batches whose latency (their
//! [`BatchReport`]'s `total_us`) exceeds the configured slow threshold
//! additionally render their full span tree into the slow-query log (and
//! to stderr).
//!
//! The RDMA substrate cannot depend on this crate, so the bridge runs
//! the other way: [`QpSpanSink`] implements [`rdma_sim::TraceSink`]
//! and resolves the *current scope* — a thread-local stack pushed by
//! [`BatchTrace::enter_scope`] around each phase — to decide which
//! trace and parent span the verb events belong to. This works
//! because verbs execute synchronously on the thread that entered the
//! scope.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::breakdown::BatchReport;

/// Default number of finished traces the tracer retains.
pub const DEFAULT_SPAN_TRACE_CAPACITY: usize = 64;

/// Number of rendered slow-query reports retained.
const SLOW_LOG_CAPACITY: usize = 32;

/// A value attached to a span argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, bytes, offsets).
    U64(u64),
    /// Floating point (virtual-clock microseconds).
    F64(f64),
    /// Static string (mode labels, verb names).
    Str(&'static str),
}

impl ArgValue {
    /// Renders the value as a JSON fragment.
    pub(crate) fn render_json(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) => crate::telemetry::chrome::json_num(*v),
            ArgValue::Str(s) => format!("\"{}\"", crate::telemetry::escape(s)),
        }
    }

    /// Renders the value for the plain-text slow log.
    fn render_plain(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) => format!("{v:.1}"),
            ArgValue::Str(s) => (*s).to_string(),
        }
    }
}

/// Whether a record is a duration span or a point-in-time marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration span (`ph: "X"` in Chrome trace events).
    Span,
    /// An instant marker (`ph: "i"`).
    Instant,
}

/// Handle of a span within one batch trace.
///
/// A 1-based index into the trace's span list — `0` means "none" and is
/// what the root span uses as its parent — and, for a span opened by
/// [`BatchTrace::begin_span`], the instant it opened. The start is
/// stamped whether or not spans are captured, so closing the span
/// measures its wall time either way: the span is the phase's one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32, Option<Instant>);

impl SpanId {
    /// The "no parent" sentinel (what the root span points at).
    pub const NONE: SpanId = SpanId(0, None);

    /// Raw 1-based index (0 = none).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// One recorded span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`query_batch`, `meta_route`, `read_doorbell`, …).
    pub name: &'static str,
    /// Category (`engine`, `rdma`, `cache`) — Chrome's `cat` field.
    pub cat: &'static str,
    /// Raw [`SpanId`] of the parent span (0 for the root).
    pub parent: u32,
    /// Duration span or instant marker.
    pub kind: SpanKind,
    /// Wall-clock start, microseconds since the batch epoch.
    pub wall_start_us: f64,
    /// Wall-clock duration, microseconds. Negative while the span is
    /// open; [`SpanTracer::finish`] closes any still-open span at the
    /// batch end.
    pub wall_dur_us: f64,
    /// Virtual-clock start, microseconds (0 when not applicable).
    pub vt_start_us: f64,
    /// Virtual-clock duration, microseconds (0 when not applicable).
    pub vt_dur_us: f64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A finished batch trace: the root span plus its whole tree, in
/// recording order (parents always precede their children).
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// Search-mode label of the batch (`full`, `no_doorbell`, `naive`).
    pub label: &'static str,
    /// Monotonic batch sequence number (the Chrome `tid`).
    pub seq: u64,
    /// Root-span wall duration, microseconds.
    pub total_us: f64,
    /// Every span and instant recorded for the batch.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct BatchInner {
    epoch: Instant,
    seq: u64,
    label: &'static str,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Handle to an in-flight batch trace.
///
/// Cloneable — clones share the same span tree (the thread-local scope
/// holds one). When tracing is disabled the handle carries only the
/// batch's trace id and every recording method is a no-op, so call
/// sites never branch on enablement. The trace id (sequence number) is
/// assigned by [`SpanTracer::begin`] whether or not spans are being
/// recorded, so histogram exemplars and the slow-query log can name a
/// batch even when full span capture is off.
#[derive(Debug, Clone, Default)]
pub struct BatchTrace {
    seq: u64,
    inner: Option<Arc<BatchInner>>,
}

impl BatchTrace {
    /// An empty, always-no-op handle (trace id 0).
    pub fn disabled() -> Self {
        BatchTrace::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The batch's trace id — the tracer-wide monotonic sequence
    /// number, assigned even when span recording is disabled.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Microseconds elapsed since the batch epoch (0 when disabled).
    pub fn elapsed_us(&self) -> f64 {
        match &self.inner {
            None => 0.0,
            Some(inner) => inner.epoch.elapsed().as_secs_f64() * 1e6,
        }
    }

    /// Opens a span starting now. When disabled nothing is recorded and
    /// the handle carries only its start (index 0).
    pub fn begin_span(&self, name: &'static str, cat: &'static str, parent: SpanId) -> SpanId {
        let start = Instant::now();
        let Some(inner) = &self.inner else {
            return SpanId(0, Some(start));
        };
        let id = self.push_span(SpanRecord {
            name,
            cat,
            parent: parent.0,
            kind: SpanKind::Span,
            wall_start_us: (start - inner.epoch).as_secs_f64() * 1e6,
            wall_dur_us: -1.0,
            vt_start_us: 0.0,
            vt_dur_us: 0.0,
            args: Vec::new(),
        });
        SpanId(id.0, Some(start))
    }

    /// Closes a span now; returns the wall µs it measured (0 for a
    /// handle [`BatchTrace::begin_span`] did not open).
    pub fn end_span(&self, id: SpanId) -> f64 {
        self.end_span_with(id, &[])
    }

    /// Closes a span and attaches arguments; returns the wall µs it
    /// measured, which is the recorded span's duration when captured.
    pub fn end_span_with(&self, id: SpanId, args: &[(&'static str, ArgValue)]) -> f64 {
        let wall_us =
            id.1.map_or(0.0, |start| start.elapsed().as_secs_f64() * 1e6);
        self.update(id, |rec| {
            rec.wall_dur_us = wall_us;
            rec.args.extend_from_slice(args);
        });
        wall_us
    }

    /// Attaches arguments to an open or closed span.
    pub fn add_args(&self, id: SpanId, args: &[(&'static str, ArgValue)]) {
        self.update(id, |rec| rec.args.extend_from_slice(args));
    }

    /// Sets the virtual-clock interval of a span.
    pub fn set_vt(&self, id: SpanId, vt_start_us: f64, vt_dur_us: f64) {
        self.update(id, |rec| {
            rec.vt_start_us = vt_start_us;
            rec.vt_dur_us = vt_dur_us;
        });
    }

    /// Applies `f` to the record of span `id`, if it was recorded.
    fn update(&self, id: SpanId, f: impl FnOnce(&mut SpanRecord)) {
        if let (Some(inner), Some(i)) = (&self.inner, id.0.checked_sub(1)) {
            if let Some(rec) = inner.spans.lock().get_mut(i as usize) {
                f(rec);
            }
        }
    }

    /// Records an instant marker at the current wall time.
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: SpanId,
        args: &[(&'static str, ArgValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        let now = inner.epoch.elapsed().as_secs_f64() * 1e6;
        inner.spans.lock().push(SpanRecord {
            name,
            cat,
            parent: parent.0,
            kind: SpanKind::Instant,
            wall_start_us: now,
            wall_dur_us: 0.0,
            vt_start_us: 0.0,
            vt_dur_us: 0.0,
            args: args.to_vec(),
        });
    }

    /// Pushes a fully-timed span record (the RDMA sink uses this to
    /// place verb spans at explicit wall intervals). Returns the new
    /// span's id.
    pub fn push_span(&self, rec: SpanRecord) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut spans = inner.spans.lock();
        spans.push(rec);
        SpanId(spans.len() as u32, None)
    }

    /// Pushes this trace onto the thread-local scope stack so that
    /// substrate events ([`QpSpanSink`], cache listeners) attach to
    /// `parent`. The scope pops when the guard drops; scopes nest.
    pub fn enter_scope(&self, parent: SpanId) -> ScopeGuard {
        if !self.is_enabled() {
            return ScopeGuard { active: false };
        }
        SCOPE.with(|s| {
            s.borrow_mut().push(NetScope {
                trace: self.clone(),
                parent,
                last_wall_us: self.elapsed_us(),
            });
        });
        ScopeGuard { active: true }
    }
}

/// Per-thread stack of active trace scopes (innermost last).
struct NetScope {
    trace: BatchTrace,
    parent: SpanId,
    /// Wall cursor: verb spans tile the scope's wall time, each one
    /// covering the interval since the previous emission.
    last_wall_us: f64,
}

thread_local! {
    static SCOPE: RefCell<Vec<NetScope>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`BatchTrace::enter_scope`].
#[derive(Debug)]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Records an instant event against the innermost active scope on
/// this thread (no-op without one). This is how the cluster cache
/// reports hit/miss/evict events without depending on a trace handle.
pub fn emit_scope_instant(
    name: &'static str,
    cat: &'static str,
    args: &[(&'static str, ArgValue)],
) {
    SCOPE.with(|s| {
        let stack = s.borrow();
        if let Some(scope) = stack.last() {
            scope.trace.instant(name, cat, scope.parent, args);
        }
    });
}

/// Bridges [`rdma_sim::TraceSink`] events into the active trace scope.
///
/// Install one per queue pair via `QueuePair::set_trace_sink`. Verb
/// spans tile the scope's wall time using the scope cursor (the verbs
/// run synchronously, so the wall interval since the last emission is
/// the verb's real cost); per-work-request child spans subdivide the
/// verb's wall interval proportionally to their virtual-clock slices.
#[derive(Debug, Default)]
pub struct QpSpanSink;

impl rdma_sim::TraceSink for QpSpanSink {
    fn verb_span(&self, span: &rdma_sim::VerbSpan, wqes: &[rdma_sim::WqeSpan]) {
        SCOPE.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(scope) = stack.last_mut() else {
                return;
            };
            let wall_now = scope.trace.elapsed_us();
            let wall_start = scope.last_wall_us.min(wall_now);
            let wall_dur = wall_now - wall_start;
            let vt_dur = (span.vt_end_us - span.vt_start_us).max(0.0);
            let verb_id = scope.trace.push_span(SpanRecord {
                name: span.verb,
                cat: "rdma",
                parent: scope.parent.raw(),
                kind: SpanKind::Span,
                wall_start_us: wall_start,
                wall_dur_us: wall_dur,
                vt_start_us: span.vt_start_us,
                vt_dur_us: vt_dur,
                args: vec![
                    ("wqes", ArgValue::U64(u64::from(span.wqes))),
                    ("bytes", ArgValue::U64(span.bytes)),
                    ("chunk", ArgValue::U64(u64::from(span.chunk))),
                ],
            });
            if wqes.len() > 1 {
                // Doorbell chunk: one child span per work request, named
                // by its kind — for reads, one per fetched cluster (§3.2).
                for w in wqes {
                    let child = match w.kind {
                        "read" => "cluster_read",
                        "write" => "wqe_write",
                        "faa" => "wqe_faa",
                        _ => "wqe_cas",
                    };
                    let (f0, f1) = if vt_dur > 0.0 {
                        (
                            (w.vt_start_us - span.vt_start_us) / vt_dur,
                            (w.vt_end_us - span.vt_start_us) / vt_dur,
                        )
                    } else {
                        (0.0, 1.0)
                    };
                    scope.trace.push_span(SpanRecord {
                        name: child,
                        cat: "rdma",
                        parent: verb_id.raw(),
                        kind: SpanKind::Span,
                        wall_start_us: wall_start + wall_dur * f0,
                        wall_dur_us: wall_dur * (f1 - f0).max(0.0),
                        vt_start_us: w.vt_start_us,
                        vt_dur_us: (w.vt_end_us - w.vt_start_us).max(0.0),
                        args: vec![
                            ("wqe", ArgValue::U64(u64::from(w.index))),
                            ("offset", ArgValue::U64(w.offset)),
                            ("bytes", ArgValue::U64(w.bytes)),
                        ],
                    });
                }
            }
            scope.last_wall_us = wall_now;
        });
    }

    fn fault(&self, event: &rdma_sim::FaultEvent) {
        SCOPE.with(|s| {
            let stack = s.borrow();
            let Some(scope) = stack.last() else { return };
            scope.trace.instant(
                "fault_retry",
                "rdma",
                scope.parent,
                &[
                    ("verb", ArgValue::Str(event.verb)),
                    ("attempt", ArgValue::U64(u64::from(event.attempt))),
                    ("timeout_us", ArgValue::F64(event.timeout_us)),
                    ("vt_us", ArgValue::F64(event.vt_us)),
                ],
            );
        });
    }
}

/// The span tracer: hands out [`BatchTrace`]s and retains finished
/// ones in a bounded ring, plus a slow-query log.
#[derive(Debug)]
pub struct SpanTracer {
    enabled: AtomicBool,
    /// Slow-query threshold in whole microseconds; 0 disables the log.
    slow_threshold_us: AtomicU64,
    next_seq: AtomicU64,
    capacity: usize,
    finished: Mutex<VecDeque<FinishedTrace>>,
    slow_log: Mutex<VecDeque<String>>,
}

impl SpanTracer {
    pub(crate) fn new(capacity: usize) -> Self {
        SpanTracer {
            enabled: AtomicBool::new(false),
            slow_threshold_us: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            finished: Mutex::new(VecDeque::new()),
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Turns span tracing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether new batches are traced.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the slow-query threshold in microseconds (0 disables).
    /// Batches whose latency exceeds it dump their span tree to the
    /// slow log and stderr.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current slow-query threshold in microseconds (0 = disabled).
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Starts a trace for one batch. The trace id (sequence number)
    /// is assigned unconditionally so exemplars and slow-query log
    /// lines can reference the batch; span recording itself only
    /// happens while the tracer is enabled.
    pub fn begin(&self, label: &'static str) -> BatchTrace {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if !self.is_enabled() {
            return BatchTrace { seq, inner: None };
        }
        BatchTrace {
            seq,
            inner: Some(Arc::new(BatchInner {
                epoch: Instant::now(),
                seq,
                label,
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Finishes a trace that is not a query batch's (a watchdog or
    /// anomaly event), discarding the finished tree (see
    /// [`SpanTracer::finish_trace`]).
    pub fn finish(&self, trace: BatchTrace) {
        let _ = self.finish_trace(trace, None);
    }

    /// Finishes a trace: closes any still-open spans, retains the
    /// result (evicting the oldest at capacity), and renders a
    /// slow-query report if over threshold. A query batch passes its
    /// record: the threshold is judged against the record's `total_us`
    /// — host wall plus virtual network, the number the latency
    /// histogram and the exemplars file the batch under — and the
    /// report's header names the ledger's dominant cause. Without a
    /// record the root span's wall time is all there is to judge.
    /// Returns a copy of the finished trace so the caller can fold it
    /// into the profile accumulator or retain it as a tail exemplar;
    /// `None` for disabled handles.
    pub fn finish_trace(
        &self,
        trace: BatchTrace,
        batch: Option<&BatchReport>,
    ) -> Option<FinishedTrace> {
        let inner = trace.inner?;
        let now = inner.epoch.elapsed().as_secs_f64() * 1e6;
        let spans = {
            let mut guard = inner.spans.lock();
            for rec in guard.iter_mut() {
                if rec.wall_dur_us < 0.0 {
                    rec.wall_dur_us = (now - rec.wall_start_us).max(0.0);
                }
            }
            std::mem::take(&mut *guard)
        };
        let total_us = spans.first().map_or(now, |root| root.wall_dur_us);
        let ft = FinishedTrace {
            label: inner.label,
            seq: inner.seq,
            total_us,
            spans,
        };
        let threshold = self.slow_threshold_us.load(Ordering::Relaxed);
        let latency_us = batch.map_or(ft.total_us, |b| b.total_us);
        if threshold > 0 && latency_us > threshold as f64 {
            let cause = batch.and_then(|b| b.ledger.dominant_cause());
            let report = render_tree(&ft, latency_us, cause.map_or("none", |c| c.as_str()));
            eprintln!("{report}");
            let mut log = self.slow_log.lock();
            if log.len() == SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(report);
        }
        let mut finished = self.finished.lock();
        if finished.len() == self.capacity {
            finished.pop_front();
        }
        finished.push_back(ft.clone());
        Some(ft)
    }

    /// The retained finished traces, oldest first.
    pub fn recent(&self) -> Vec<FinishedTrace> {
        self.finished.lock().iter().cloned().collect()
    }

    /// The retained slow-query reports, oldest first.
    pub fn slow_log(&self) -> Vec<String> {
        self.slow_log.lock().iter().cloned().collect()
    }

    /// Number of retained finished traces.
    pub fn len(&self) -> usize {
        self.finished.lock().len()
    }

    /// Whether no finished traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained traces and slow-query reports.
    pub fn clear(&self) {
        self.finished.lock().clear();
        self.slow_log.lock().clear();
    }
}

/// Renders a finished trace as an indented span tree for the
/// slow-query log. The header carries the batch's trace id, the
/// latency it was judged by and its dominant read cause, so a log line
/// joins directly against the exemplar store (`/whyslow/<trace-id>`).
fn render_tree(ft: &FinishedTrace, latency_us: f64, cause: &str) -> String {
    let mut out = format!(
        "slow query batch: trace_id={} mode={} total={latency_us:.1}us cause={cause} ({} spans)",
        ft.seq,
        ft.label,
        ft.spans.len()
    );
    // Children of span `p` (0 = roots), preserving recording order.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); ft.spans.len() + 1];
    for (i, rec) in ft.spans.iter().enumerate() {
        children[rec.parent as usize].push(i);
    }
    let mut stack: Vec<(usize, usize)> = children[0].iter().rev().map(|&i| (i, 1)).collect();
    while let Some((i, depth)) = stack.pop() {
        let rec = &ft.spans[i];
        let mut line = format!(
            "\n{:indent$}{} [{}]",
            "",
            rec.name,
            rec.cat,
            indent = depth * 2
        );
        match rec.kind {
            SpanKind::Span => {
                line.push_str(&format!(
                    " wall={:.1}+{:.1}us",
                    rec.wall_start_us, rec.wall_dur_us
                ));
                if rec.vt_dur_us > 0.0 {
                    line.push_str(&format!(" vt={:.1}us", rec.vt_dur_us));
                }
            }
            SpanKind::Instant => {
                line.push_str(&format!(" @{:.1}us", rec.wall_start_us));
            }
        }
        for (k, v) in &rec.args {
            line.push_str(&format!(" {k}={}", v.render_plain()));
        }
        out.push_str(&line);
        for &c in children[i + 1].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::TraceSink;

    fn tracer() -> SpanTracer {
        let t = SpanTracer::new(4);
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_hands_out_noop_handles() {
        let t = SpanTracer::new(4);
        let trace = t.begin("full");
        assert!(!trace.is_enabled());
        let id = trace.begin_span("x", "engine", SpanId::NONE);
        assert_eq!(id.raw(), SpanId::NONE.raw());
        // Nothing is recorded, but the handle still times its span.
        assert!(trace.end_span(id) >= 0.0);
        assert_eq!(trace.end_span(SpanId::NONE), 0.0);
        assert!(t.finish_trace(trace, None).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn trace_ids_advance_even_while_disabled() {
        // Exemplars and slow-log lines key on the trace id, so every
        // batch gets a unique one whether or not spans are captured.
        let t = SpanTracer::new(4);
        assert_eq!(t.begin("full").seq(), 0);
        assert_eq!(t.begin("full").seq(), 1);
        t.set_enabled(true);
        let enabled = t.begin("full");
        assert_eq!(enabled.seq(), 2);
        let ft = t
            .finish_trace(enabled, None)
            .expect("enabled trace finishes");
        assert_eq!(ft.seq, 2);
        t.set_enabled(false);
        assert_eq!(t.begin("full").seq(), 3);
        assert_eq!(BatchTrace::disabled().seq(), 0, "no-op handle id");
    }

    #[test]
    fn spans_nest_and_close_with_durations() {
        let t = tracer();
        let trace = t.begin("full");
        let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
        let child = trace.begin_span("meta_route", "engine", root);
        let child_us = trace.end_span_with(child, &[("fanout", ArgValue::U64(4))]);
        trace.instant("marker", "cache", root, &[]);
        let root_us = trace.end_span(root);
        t.finish(trace);

        let got = t.recent();
        assert_eq!(got.len(), 1);
        let ft = &got[0];
        assert_eq!(ft.label, "full");
        assert_eq!(ft.spans.len(), 3);
        assert_eq!(ft.spans[0].name, "query_batch");
        assert_eq!(ft.spans[0].parent, 0);
        assert_eq!(ft.spans[1].parent, 1, "child points at root");
        assert_eq!(ft.spans[1].args, vec![("fanout", ArgValue::U64(4))]);
        assert_eq!(ft.spans[2].kind, SpanKind::Instant);
        assert!(ft.spans[0].wall_dur_us >= ft.spans[1].wall_dur_us);
        // A closed span records exactly the wall its close returned.
        assert_eq!(
            (ft.spans[0].wall_dur_us, ft.spans[1].wall_dur_us),
            (root_us, child_us)
        );
        assert_eq!(ft.total_us, root_us);
    }

    #[test]
    fn finish_closes_open_spans_and_ring_respects_capacity() {
        let t = SpanTracer::new(2);
        t.set_enabled(true);
        for i in 0..3u64 {
            let trace = t.begin("full");
            let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
            let _leaked = trace.begin_span("never_ended", "engine", root);
            t.finish(trace);
            let _ = i;
        }
        let got = t.recent();
        assert_eq!(got.len(), 2, "ring keeps the newest N");
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 2);
        for ft in &got {
            for rec in &ft.spans {
                assert!(rec.wall_dur_us >= 0.0, "open span was closed at finish");
            }
        }
    }

    #[test]
    fn slow_threshold_gates_the_slow_log() {
        let t = tracer();
        t.set_slow_threshold_us(500);
        // Fast batch: under threshold, no report.
        let fast = t.begin("full");
        fast.begin_span("query_batch", "engine", SpanId::NONE);
        t.finish(fast);
        assert!(t.slow_log().is_empty());
        // Slow batch: sleep past the threshold.
        let slow = t.begin("full");
        let seq = slow.seq();
        let root = slow.begin_span("query_batch", "engine", SpanId::NONE);
        let child = slow.begin_span("sub_hnsw_search", "engine", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        slow.end_span(child);
        slow.end_span(root);
        t.finish(slow);
        let log = t.slow_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("slow query batch"));
        assert!(log[0].contains("sub_hnsw_search"));
        assert!(log[0].contains("mode=full"));
        assert!(log[0].contains(&format!("trace_id={seq}")));
        assert!(log[0].contains("cause=none"), "no record, no ledger");
    }

    #[test]
    fn a_batch_is_judged_and_headed_by_its_record() {
        let t = tracer();
        t.set_slow_threshold_us(500);
        let mut report = BatchReport {
            total_us: 400.0,
            ..Default::default()
        };
        report.ledger.cause_bytes[rdma_sim::ReadCause::StageLoad.index()] = 100;
        report.ledger.cause_bytes[rdma_sim::ReadCause::Retry.index()] = 700;
        let finish = |report: &BatchReport| {
            let trace = t.begin("full");
            trace.begin_span("query_batch", "engine", SpanId::NONE);
            t.finish_trace(trace, Some(report)).unwrap().seq
        };
        // The root span closes within microseconds either way: only the
        // record's latency decides.
        finish(&report);
        assert!(t.slow_log().is_empty(), "400 us is under the 500 us budget");
        report.total_us = 501.0;
        let seq = finish(&report);
        let log = t.slow_log();
        assert_eq!(log.len(), 1);
        // The header joins against the exemplar store: trace id, the
        // latency judged, the ledger's dominant cause.
        assert!(log[0].contains(&format!(
            "trace_id={seq} mode=full total=501.0us cause=retry"
        )));
    }

    #[test]
    fn a_mixed_doorbell_names_each_child_by_its_kind() {
        let t = tracer();
        let trace = t.begin("write");
        let root = trace.begin_span("insert", "engine", SpanId::NONE);
        let wqe = |index, kind| rdma_sim::WqeSpan {
            index,
            kind,
            offset: 8 * u64::from(index),
            bytes: 8,
            vt_start_us: f64::from(index),
            vt_end_us: f64::from(index + 1),
        };
        {
            let _guard = trace.enter_scope(root);
            QpSpanSink.verb_span(
                &rdma_sim::VerbSpan {
                    verb: "doorbell",
                    wqes: 3,
                    bytes: 24,
                    chunk: 0,
                    vt_start_us: 0.0,
                    vt_end_us: 3.0,
                },
                &[wqe(0, "write"), wqe(1, "faa"), wqe(2, "cas")],
            );
        }
        trace.end_span(root);
        t.finish(trace);
        let names: Vec<&str> = t.recent()[0].spans.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec!["insert", "doorbell", "wqe_write", "wqe_faa", "wqe_cas"]
        );
    }

    #[test]
    fn qp_sink_attaches_verbs_to_the_active_scope() {
        let t = tracer();
        let trace = t.begin("full");
        let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
        let net = trace.begin_span("network", "engine", root);
        let sink = QpSpanSink;
        {
            let _guard = trace.enter_scope(net);
            sink.verb_span(
                &rdma_sim::VerbSpan {
                    verb: "read_doorbell",
                    wqes: 2,
                    bytes: 96,
                    chunk: 0,
                    vt_start_us: 0.0,
                    vt_end_us: 10.0,
                },
                &[
                    rdma_sim::WqeSpan {
                        index: 0,
                        kind: "read",
                        offset: 0,
                        bytes: 64,
                        vt_start_us: 0.0,
                        vt_end_us: 6.0,
                    },
                    rdma_sim::WqeSpan {
                        index: 1,
                        kind: "read",
                        offset: 64,
                        bytes: 32,
                        vt_start_us: 6.0,
                        vt_end_us: 10.0,
                    },
                ],
            );
            sink.fault(&rdma_sim::FaultEvent {
                verb: "read",
                attempt: 1,
                timeout_us: 5.0,
                vt_us: 15.0,
            });
        }
        // Scope popped: further events are dropped.
        sink.fault(&rdma_sim::FaultEvent {
            verb: "read",
            attempt: 2,
            timeout_us: 5.0,
            vt_us: 20.0,
        });
        trace.end_span(net);
        trace.end_span(root);
        t.finish(trace);

        let ft = &t.recent()[0];
        let names: Vec<&str> = ft.spans.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "query_batch",
                "network",
                "read_doorbell",
                "cluster_read",
                "cluster_read",
                "fault_retry"
            ]
        );
        let verb = &ft.spans[2];
        assert_eq!(verb.parent, 2, "verb nests under the network span");
        assert_eq!(verb.vt_dur_us, 10.0);
        let wqe0 = &ft.spans[3];
        let wqe1 = &ft.spans[4];
        assert_eq!(wqe0.parent, 3, "WQEs nest under the verb span");
        assert_eq!(wqe1.args[1], ("offset", ArgValue::U64(64)));
        // WQE wall intervals tile the verb's wall interval.
        assert!((wqe0.wall_start_us - verb.wall_start_us).abs() < 1e-6);
        let w0_end = wqe0.wall_start_us + wqe0.wall_dur_us;
        assert!((w0_end - wqe1.wall_start_us).abs() < 1e-6);
        let w1_end = wqe1.wall_start_us + wqe1.wall_dur_us;
        assert!((w1_end - (verb.wall_start_us + verb.wall_dur_us)).abs() < 1e-6);
    }

    #[test]
    fn scope_instants_reach_the_innermost_scope() {
        let t = tracer();
        let trace = t.begin("full");
        let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
        emit_scope_instant("cache_hit", "cache", &[]);
        {
            let _guard = trace.enter_scope(root);
            emit_scope_instant("cache_hit", "cache", &[("cluster", ArgValue::U64(7))]);
        }
        emit_scope_instant("cache_hit", "cache", &[]);
        trace.end_span(root);
        t.finish(trace);
        let ft = &t.recent()[0];
        assert_eq!(ft.spans.len(), 2, "only the in-scope instant landed");
        assert_eq!(ft.spans[1].name, "cache_hit");
        assert_eq!(ft.spans[1].args, vec![("cluster", ArgValue::U64(7))]);
    }
}
