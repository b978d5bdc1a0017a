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
//! [`crate::breakdown::Phase`]). [`SpanTracer::set_enabled`] is the one
//! switch; `dhnsw_cli serve`, the one surface that renders span trees,
//! turns it on. Finished traces land in a bounded ring on the
//! [`SpanTracer`], the only place span trees are kept.
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

/// Default number of finished traces the tracer retains.
pub const DEFAULT_SPAN_TRACE_CAPACITY: usize = 64;

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
/// recorded, so the exemplar store can name a batch even when span
/// capture is off.
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
/// ones in a bounded ring.
#[derive(Debug)]
pub struct SpanTracer {
    enabled: AtomicBool,
    next_seq: AtomicU64,
    capacity: usize,
    finished: Mutex<VecDeque<FinishedTrace>>,
}

impl SpanTracer {
    pub(crate) fn new(capacity: usize) -> Self {
        SpanTracer {
            enabled: AtomicBool::new(false),
            next_seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            finished: Mutex::new(VecDeque::new()),
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

    /// Starts a trace for one batch. The trace id (sequence number)
    /// is assigned unconditionally so the exemplar store can reference
    /// the batch; span recording itself only happens while the tracer
    /// is enabled.
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

    /// Finishes a trace: closes any still-open spans and retains the
    /// result in the ring (evicting the oldest at capacity). A disabled
    /// handle retains nothing.
    pub fn finish(&self, trace: BatchTrace) {
        let Some(inner) = trace.inner else {
            return;
        };
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
        let mut finished = self.finished.lock();
        if finished.len() == self.capacity {
            finished.pop_front();
        }
        finished.push_back(ft);
    }

    /// The retained finished traces, oldest first.
    pub fn recent(&self) -> Vec<FinishedTrace> {
        self.finished.lock().iter().cloned().collect()
    }
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
        t.finish(trace);
        assert!(t.recent().is_empty());
    }

    #[test]
    fn trace_ids_advance_even_while_disabled() {
        // The exemplar store keys on the trace id, so every batch gets a
        // unique one whether or not spans are captured.
        let t = SpanTracer::new(4);
        assert_eq!(t.begin("full").seq(), 0);
        assert_eq!(t.begin("full").seq(), 1);
        t.set_enabled(true);
        let enabled = t.begin("full");
        assert_eq!(enabled.seq(), 2);
        t.finish(enabled);
        assert_eq!(t.recent()[0].seq, 2, "enabled trace finishes");
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
