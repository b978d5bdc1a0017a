//! Verb-level trace hooks.
//!
//! A [`TraceSink`] installed on a [`crate::QueuePair`] observes every
//! verb the queue pair executes — one [`VerbSpan`] per plain verb or
//! doorbell chunk, with per-work-request [`WqeSpan`]s inside it, plus a
//! [`FaultEvent`] for every dropped-and-retransmitted attempt. All
//! timestamps are virtual-clock microseconds, so a sink can reconstruct
//! exactly where modeled network time went.
//!
//! The hook is designed for an *engine-side tracer* (the `dhnsw` crate
//! attaches its span tracer here), but anything implementing the trait
//! works. With no sink installed the per-verb overhead is a single
//! relaxed atomic load; with a sink installed but idle it is one
//! additional read-lock acquisition.
//!
//! Within a doorbell chunk the cost model charges the whole chunk at
//! once; the emitter splits the chunk's virtual interval across its
//! work requests proportionally to their payload sizes (line-rate
//! serialization is sequential on the wire), so per-WQE spans tile the
//! chunk span without overlapping.

use std::sync::Arc;

/// One verb execution, or one doorbell chunk of a batched verb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerbSpan {
    /// Verb name: `read`, `write`, `cas`, `faa`, `read_doorbell`,
    /// `doorbell`.
    pub verb: &'static str,
    /// Work requests executed in this span (1 for plain verbs).
    pub wqes: u32,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Chunk index within the doorbell call (0 for plain verbs).
    pub chunk: u32,
    /// Virtual-clock start, microseconds.
    pub vt_start_us: f64,
    /// Virtual-clock end, microseconds.
    pub vt_end_us: f64,
}

/// One work request inside a [`VerbSpan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WqeSpan {
    /// Position within the chunk.
    pub index: u32,
    /// The work request's kind: `read`, `write`, `faa` or `cas`.
    pub kind: &'static str,
    /// Byte offset the work request targets.
    pub offset: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Virtual-clock start, microseconds (a proportional slice of the
    /// chunk interval).
    pub vt_start_us: f64,
    /// Virtual-clock end, microseconds.
    pub vt_end_us: f64,
}

/// One faulted (dropped and retransmitted) verb attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The verb whose attempt dropped.
    pub verb: &'static str,
    /// 1-based retransmission attempt number.
    pub attempt: u32,
    /// Virtual time charged for the retransmission timeout,
    /// microseconds.
    pub timeout_us: f64,
    /// Virtual-clock time after the timeout was charged, microseconds.
    pub vt_us: f64,
}

/// Receives verb-level trace events from a queue pair.
///
/// Implementations must be cheap and non-blocking: sinks are invoked
/// inline on the verb path.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// One verb execution or doorbell chunk, with its work requests.
    fn verb_span(&self, span: &VerbSpan, wqes: &[WqeSpan]);

    /// One faulted attempt (fired before the verb eventually succeeds
    /// or exhausts its retries).
    fn fault(&self, event: &FaultEvent);
}

/// Splits the chunk interval `[vt_start, vt_end]` across work requests
/// proportionally to `bytes`, returning contiguous per-WQE intervals.
/// Zero-byte batches split evenly.
pub(crate) fn split_chunk_intervals(
    vt_start: f64,
    vt_end: f64,
    sizes: &[(&'static str, u64, u64)], // (kind, offset, bytes) per WQE
) -> Vec<WqeSpan> {
    let n = sizes.len();
    let total: u64 = sizes.iter().map(|&(.., b)| b).sum();
    let dur = (vt_end - vt_start).max(0.0);
    let mut out = Vec::with_capacity(n);
    let mut cursor = vt_start;
    let mut cum = 0u64;
    for (i, &(kind, offset, bytes)) in sizes.iter().enumerate() {
        cum += bytes;
        let frac = if total > 0 {
            cum as f64 / total as f64
        } else {
            (i + 1) as f64 / n as f64
        };
        let end = vt_start + dur * frac;
        out.push(WqeSpan {
            index: i as u32,
            kind,
            offset,
            bytes,
            vt_start_us: cursor,
            vt_end_us: end,
        });
        cursor = end;
    }
    out
}

/// Shared handle to an optional sink (what a queue pair stores).
pub(crate) type SharedSink = Arc<dyn TraceSink>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_proportional_and_tiles() {
        let spans = split_chunk_intervals(10.0, 20.0, &[("read", 0, 30), ("faa", 100, 10)]);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].vt_start_us, 10.0);
        assert!((spans[0].vt_end_us - 17.5).abs() < 1e-9);
        assert_eq!(spans[1].vt_start_us, spans[0].vt_end_us);
        assert!((spans[1].vt_end_us - 20.0).abs() < 1e-9);
        assert_eq!((spans[1].kind, spans[1].offset), ("faa", 100));
    }

    #[test]
    fn zero_bytes_split_evenly() {
        let spans = split_chunk_intervals(0.0, 4.0, &[("write", 0, 0), ("write", 8, 0)]);
        assert!((spans[0].vt_end_us - 2.0).abs() < 1e-9);
        assert!((spans[1].vt_end_us - 4.0).abs() < 1e-9);
    }
}
