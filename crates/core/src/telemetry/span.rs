//! Parent/child span tracing for the batch read path.
//!
//! One [`BatchTrace`] covers one `query_batch` call: a root span with
//! routing / cluster-union / network / search children, the per-doorbell
//! and per-work-request spans of each post, and instant events for cache
//! hits, evictions and fault retries. Each span carries **two**
//! timelines:
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
//! Spans are written by the code that holds the trace: the engine's
//! reader renders each post it makes (its chunk spans, their work
//! requests and its dropped attempts) and the batch body the cache's
//! hits and evictions. The RDMA substrate knows nothing of tracing.

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
/// Cloneable — clones share the same span tree. When tracing is
/// disabled the handle carries only the
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

    /// Pushes a fully-timed span record (the reader uses this to place a
    /// post's spans at explicit intervals). Returns the new span's id.
    pub fn push_span(&self, rec: SpanRecord) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut spans = inner.spans.lock();
        spans.push(rec);
        SpanId(spans.len() as u32, None)
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
}
