//! The compute-side queue pair: one-sided verbs and doorbell batching.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::trace::{split_chunk_intervals, SharedSink, TraceSink, VerbSpan};
use crate::{
    Error, MemoryNode, NetworkModel, ReadCause, Result, TransferStats, VirtualClock, READ_CAUSES,
};

/// A read work request: fetch `len` bytes at `offset` within region
/// `rkey`, attributed to a [`ReadCause`] for byte provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReq {
    /// Target region.
    pub rkey: u32,
    /// Byte offset within the region.
    pub offset: u64,
    /// Bytes to fetch.
    pub len: u64,
    /// Why this read happens (defaults to [`ReadCause::Other`]).
    pub cause: ReadCause,
}

impl ReadReq {
    /// Creates a read request attributed to [`ReadCause::Other`].
    pub fn new(rkey: u32, offset: u64, len: u64) -> Self {
        ReadReq {
            rkey,
            offset,
            len,
            cause: ReadCause::Other,
        }
    }

    /// Re-tags this request with `cause`.
    pub fn with_cause(mut self, cause: ReadCause) -> Self {
        self.cause = cause;
        self
    }
}

/// One local segment of a read's scatter list: the next `len` fetched
/// bytes are appended to `buf`. Appending is what lets the destination
/// be memory nobody initialised: give `buf` the capacity up front and
/// every byte of it is written exactly once, by the read.
#[derive(Debug)]
pub struct Segment<'a> {
    /// Where the bytes land, after whatever `buf` already holds.
    pub buf: &'a mut Vec<u8>,
    /// How many of the request's bytes this segment takes.
    pub len: u64,
}

/// The local side of one read work request — what an RDMA READ WR's
/// `sg_list` is: the fetched bytes fill `head`, then `tail`, and the two
/// lengths must sum to the request's `len`.
#[derive(Debug)]
pub struct Scatter<'a> {
    /// Takes the first `head.len` bytes.
    pub head: Segment<'a>,
    /// Takes the rest, when the read is split in two.
    pub tail: Option<Segment<'a>>,
}

impl<'a> Scatter<'a> {
    /// A scatter list of one segment: all `len` bytes go to `buf`.
    pub fn whole(buf: &'a mut Vec<u8>, len: u64) -> Self {
        Scatter {
            head: Segment { buf, len },
            tail: None,
        }
    }

    /// The list that cuts a read of `len` bytes `at` bytes in: the first
    /// `at` go to `head`, the rest — if any — to `tail`. A cut past the
    /// end makes a list no request of `len` validates against.
    pub fn cut(head: &'a mut Vec<u8>, tail: &'a mut Vec<u8>, at: u64, len: u64) -> Self {
        Scatter {
            head: Segment { buf: head, len: at },
            tail: (at < len).then(|| Segment {
                buf: tail,
                len: len - at,
            }),
        }
    }

    /// Bytes the list takes in all, `None` on overflow.
    fn len(&self) -> Option<u64> {
        (self.head.len).checked_add(self.tail.as_ref().map_or(0, |t| t.len))
    }

    /// Lands one request's `bytes`; the lengths were validated to tile
    /// them.
    fn land(&mut self, bytes: &[u8]) {
        let (head, tail) = bytes.split_at(self.head.len as usize);
        self.head.buf.extend_from_slice(head);
        if let Some(t) = &mut self.tail {
            t.buf.extend_from_slice(tail);
        }
    }
}

/// A work request of [`QueuePair::doorbell`], one that changes remote
/// memory at `(rkey, offset)`: `Write(.., data)` places `data` there;
/// `Faa(.., add)` and `Cas(.., expected, new)` are atomics on the aligned
/// little-endian `u64` there, each answering the value it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteReq {
    /// `RDMA_WRITE` of a payload.
    Write(u32, u64, Vec<u8>),
    /// Fetch-and-add, wrapping.
    Faa(u32, u64, u64),
    /// Compare-and-swap: the swap happens iff the value found is `expected`.
    Cas(u32, u64, u64, u64),
}

impl WriteReq {
    /// Creates a write request.
    pub fn new(rkey: u32, offset: u64, data: Vec<u8>) -> Self {
        WriteReq::Write(rkey, offset, data)
    }

    fn verb(&self) -> Verb<'_> {
        match *self {
            WriteReq::Write(rkey, offset, ref data) => Verb::Write(rkey, offset, data),
            WriteReq::Faa(rkey, offset, add) => Verb::Faa(rkey, offset, add),
            WriteReq::Cas(rkey, offset, expected, new) => Verb::Cas(rkey, offset, expected, new),
        }
    }
}

/// One work request of a post, what [`QueuePair::execute`] runs: a read
/// with its cause, a write of borrowed bytes, or an atomic on the aligned
/// little-endian `u64` at `(rkey, offset)` — `Faa(.., add)`,
/// `Cas(.., expected, new)`.
#[derive(Clone, Copy)]
enum Verb<'a> {
    Read(ReadReq),
    Write(u32, u64, &'a [u8]),
    Faa(u32, u64, u64),
    Cas(u32, u64, u64, u64),
}

impl Verb<'_> {
    /// The remote bytes the request touches, `(rkey, offset, len)`.
    fn target(&self) -> (u32, u64, u64) {
        match *self {
            Verb::Read(r) => (r.rkey, r.offset, r.len),
            Verb::Write(rkey, offset, data) => (rkey, offset, data.len() as u64),
            Verb::Faa(rkey, offset, _) | Verb::Cas(rkey, offset, ..) => (rkey, offset, 8),
        }
    }

    /// The request's kind, as a [`WqeSpan`](crate::WqeSpan) names it.
    fn kind(&self) -> &'static str {
        match self {
            Verb::Read(_) => "read",
            Verb::Write(..) => "write",
            Verb::Faa(..) => "faa",
            Verb::Cas(..) => "cas",
        }
    }
}

/// A reliable-connection queue pair from a compute instance to one
/// [`MemoryNode`].
///
/// Every verb executes against the node's real buffers and charges
/// virtual time to this queue pair's [`VirtualClock`] according to the
/// [`NetworkModel`]; [`TransferStats`] counts what moved. Verbs take
/// `&self` — a queue pair may be shared across threads of one compute
/// instance, exactly like a real thread-safe QP wrapper would be.
///
/// # Example
///
/// ```rust
/// use rdma_sim::{MemoryNode, NetworkModel, QueuePair};
///
/// # fn main() -> Result<(), rdma_sim::Error> {
/// let node = MemoryNode::new("mem0");
/// let region = node.register(64)?;
/// let qp = QueuePair::connect(&node, NetworkModel::connectx6());
///
/// qp.write(region.rkey(), 8, &[1, 2, 3])?;
/// assert_eq!(qp.read(region.rkey(), 8, 3)?, vec![1, 2, 3]);
/// assert_eq!(qp.stats().round_trips(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QueuePair {
    node: Arc<MemoryNode>,
    model: NetworkModel,
    clock: VirtualClock,
    stats: TransferStats,
    fault: crate::fault::FaultState,
    has_sink: AtomicBool,
    sink: RwLock<Option<SharedSink>>,
}

impl QueuePair {
    /// Connects a new queue pair to `node` under cost model `model`.
    pub fn connect(node: &Arc<MemoryNode>, model: NetworkModel) -> Self {
        QueuePair {
            node: Arc::clone(node),
            model,
            clock: VirtualClock::new(),
            stats: TransferStats::new(),
            fault: crate::fault::FaultState::default(),
            has_sink: AtomicBool::new(false),
            sink: RwLock::new(None),
        }
    }

    /// Installs (or removes) a [`TraceSink`] observing every verb this
    /// queue pair executes. With no sink installed the per-verb
    /// overhead is one relaxed atomic load.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        let mut slot = self.sink.write();
        self.has_sink.store(sink.is_some(), Ordering::Relaxed);
        *slot = sink;
    }

    /// Emits a fault event to the sink, if any.
    pub(crate) fn emit_fault(&self, event: &crate::trace::FaultEvent) {
        if !self.has_sink.load(Ordering::Relaxed) {
            return;
        }
        if let Some(sink) = self.sink.read().as_ref() {
            sink.fault(event);
        }
    }

    pub(crate) fn fault_state(&self) -> &crate::fault::FaultState {
        &self.fault
    }

    /// Charges one base round trip of virtual time (a retransmission
    /// timeout).
    pub(crate) fn charge_timeout(&self) {
        self.clock.advance_us(self.model.base_rtt_us());
    }

    /// One-sided `RDMA_READ`: one network round trip, attributed to
    /// [`ReadCause::Other`].
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRegion`] or [`Error::OutOfBounds`].
    pub fn read(&self, rkey: u32, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.read_with_cause(rkey, offset, len, ReadCause::Other)
    }

    /// One-sided `RDMA_READ` with explicit byte provenance: identical
    /// cost and semantics to [`QueuePair::read`], but the bytes and the
    /// round trip are attributed to `cause` in [`TransferStats`].
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRegion`] or [`Error::OutOfBounds`].
    pub fn read_with_cause(
        &self,
        rkey: u32,
        offset: u64,
        len: u64,
        cause: ReadCause,
    ) -> Result<Vec<u8>> {
        let req = ReadReq::new(rkey, offset, len).with_cause(cause);
        let mut out = Vec::new();
        self.execute("read", false, &[Verb::Read(req)], |_, bytes| {
            out = bytes.to_vec()
        })?;
        Ok(out)
    }

    /// [`QueuePair::read_with_cause`] landing in caller-owned memory:
    /// the single-verb twin of [`QueuePair::read_doorbell_into`], same
    /// cost and attribution as the allocating call.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::read_doorbell_into`]; on failure `into` is
    /// untouched.
    pub fn read_into(&self, req: ReadReq, mut into: Scatter<'_>) -> Result<()> {
        check_scatter(&req, &into)?;
        self.execute("read", false, &[Verb::Read(req)], |_, bytes| {
            into.land(bytes)
        })
    }

    /// One-sided `RDMA_WRITE`: one network round trip.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownRegion`] or [`Error::OutOfBounds`].
    pub fn write(&self, rkey: u32, offset: u64, data: &[u8]) -> Result<()> {
        let wr = Verb::Write(rkey, offset, data);
        self.execute("write", false, &[wr], |_, _| {})
    }

    /// Doorbell-batched reads: all requests are posted with a single
    /// doorbell and execute in `ceil(n / doorbell_limit)` network round
    /// trips (the NIC issues one PCIe transaction per work request). The
    /// §3.2 primitive for fetching discontiguous sub-HNSW clusters.
    ///
    /// Results are returned in request order. An empty batch is a no-op
    /// costing nothing.
    ///
    /// # Errors
    ///
    /// Validates every request before executing any; on failure nothing
    /// is charged or transferred.
    pub fn read_doorbell(&self, reqs: &[ReadReq]) -> Result<Vec<Vec<u8>>> {
        let wrs: Vec<Verb<'_>> = reqs.iter().copied().map(Verb::Read).collect();
        let mut out = Vec::with_capacity(reqs.len());
        self.execute("read_doorbell", true, &wrs, |_, bytes| {
            out.push(bytes.to_vec())
        })?;
        Ok(out)
    }

    /// [`QueuePair::read_doorbell`] landing in caller-owned memory:
    /// request `i`'s bytes are appended to the segments of `into[i]` —
    /// the simulator's DMA into a registered buffer. Work requests,
    /// bytes, round trips, per-cause attribution, virtual time, trace
    /// spans and fault admission are the allocating call's: both are one
    /// body.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when `into` is not one scatter list
    /// per request or a list's segments do not sum to its request's
    /// `len`, plus [`QueuePair::read_doorbell`]'s. Every check precedes
    /// execution, and a post the fabric dropped for good moves no byte:
    /// on any failure every destination is untouched.
    pub fn read_doorbell_into(&self, reqs: &[ReadReq], into: &mut [Scatter<'_>]) -> Result<()> {
        if reqs.len() != into.len() {
            return Err(Error::InvalidParameter(format!(
                "{} read requests but {} scatter lists",
                reqs.len(),
                into.len()
            )));
        }
        for (req, scatter) in reqs.iter().zip(into.iter()) {
            check_scatter(req, scatter)?;
        }
        let wrs: Vec<Verb<'_>> = reqs.iter().copied().map(Verb::Read).collect();
        self.execute("read_doorbell", true, &wrs, |i, bytes| into[i].land(bytes))
    }

    /// Doorbell-batched writes and atomics, mixed in one post; same cost
    /// semantics as [`QueuePair::read_doorbell`]. The responder executes
    /// them in request order — what a reliable-connection queue pair
    /// guarantees — so an atomic posted behind a write lands after it.
    /// Returns every atomic's old value, in request order.
    ///
    /// # Errors
    ///
    /// Validates every request before executing any; under
    /// [`QueuePair::cut_nth`] a prefix of the post executes.
    pub fn doorbell(&self, reqs: &[WriteReq]) -> Result<Vec<u64>> {
        let wrs: Vec<Verb<'_>> = reqs.iter().map(WriteReq::verb).collect();
        let mut old = Vec::new();
        self.execute("doorbell", true, &wrs, |_, bytes| old.push(word(bytes)))?;
        Ok(old)
    }

    /// Atomic compare-and-swap on an aligned `u64` (little-endian).
    /// Returns the previous value; the swap happened iff the return equals
    /// `expected`.
    ///
    /// # Errors
    ///
    /// [`Error::Misaligned`] when `offset % 8 != 0`, plus the usual bounds
    /// errors.
    pub fn cas(&self, rkey: u32, offset: u64, expected: u64, new: u64) -> Result<u64> {
        self.atomic("cas", Verb::Cas(rkey, offset, expected, new))
    }

    /// Atomic fetch-and-add on an aligned `u64` (little-endian,
    /// wrapping). Returns the previous value.
    ///
    /// # Errors
    ///
    /// Same as [`QueuePair::cas`].
    pub fn faa(&self, rkey: u32, offset: u64, add: u64) -> Result<u64> {
        self.atomic("faa", Verb::Faa(rkey, offset, add))
    }

    /// A lone atomic, returning the value it found.
    fn atomic(&self, verb: &'static str, wr: Verb<'_>) -> Result<u64> {
        let mut old = 0;
        self.execute(verb, false, &[wr], |_, bytes| old = word(bytes))?;
        Ok(old)
    }

    /// The one verb body. In order: every request's alignment and
    /// bounds; fault admission, once for the whole post; each request
    /// applied to its region in request order — `land(i, bytes)` gets a
    /// read's bytes or an atomic's old value while the region is locked;
    /// then per doorbell-limit chunk one round trip's cost, one count and
    /// one trace span. `doorbell` off is a plain verb: one request, no
    /// doorbell batch counted. An empty post costs nothing. A post that
    /// [`QueuePair::cut_nth`] cuts is its prefix, all four steps, and then
    /// one dropped attempt.
    fn execute(
        &self,
        verb: &'static str,
        doorbell: bool,
        wrs: &[Verb<'_>],
        mut land: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        if wrs.is_empty() {
            return Ok(());
        }
        for wr in wrs {
            let (rkey, offset, len) = wr.target();
            if matches!(wr, Verb::Faa(..) | Verb::Cas(..)) && !offset.is_multiple_of(8) {
                return Err(Error::Misaligned { rkey, offset });
            }
            let region_len = self.node.region_len(rkey)?;
            if offset.checked_add(len).is_none_or(|end| end > region_len) {
                return Err(Error::OutOfBounds {
                    rkey,
                    offset,
                    len,
                    region_len,
                });
            }
        }
        self.admit(verb)?;
        let cut = self.fault.cut(wrs.len());
        let wrs = &wrs[..cut.unwrap_or(wrs.len())];
        for (i, wr) in wrs.iter().enumerate() {
            let (rkey, offset, len) = wr.target();
            let region = self.node.region(rkey)?;
            let at = offset as usize..(offset + len) as usize;
            match *wr {
                Verb::Read(_) => land(i, &region.read()[at]),
                Verb::Write(.., data) => region.write()[at].copy_from_slice(data),
                Verb::Faa(..) | Verb::Cas(..) => {
                    let slot = &mut region.write()[at];
                    let v = word(slot);
                    let new = match *wr {
                        Verb::Faa(.., add) => v.wrapping_add(add),
                        Verb::Cas(.., expected, new) if v == expected => new,
                        _ => v,
                    };
                    slot.copy_from_slice(&new.to_le_bytes());
                    land(i, &v.to_le_bytes());
                }
            }
        }
        if doorbell && !wrs.is_empty() {
            self.stats.record_doorbell(wrs.len() as u64);
        }
        for (ci, chunk) in wrs.chunks(self.model.doorbell_limit()).enumerate() {
            let bytes: u64 = chunk.iter().map(|wr| wr.target().2).sum();
            let vt0 = self.clock.now_us();
            self.clock
                .advance_us(self.model.round_trip_cost_us(chunk.len(), bytes as usize));
            // Reads count per cause; the chunk's one trip goes to the read
            // cause carrying the most bytes in it (ties to the lowest
            // cause index), and is uncaused in a chunk that reads nothing.
            let mut reads = [(0u64, 0u64); READ_CAUSES];
            for wr in chunk {
                match *wr {
                    Verb::Read(r) => {
                        let slot = &mut reads[r.cause.index()];
                        slot.0 += 1;
                        slot.1 += r.len;
                    }
                    Verb::Write(.., data) => self.stats.record_write(1, data.len() as u64),
                    Verb::Faa(..) | Verb::Cas(..) => self.stats.record_atomic(),
                }
            }
            let mut dominant: Option<(ReadCause, u64)> = None;
            for (&cause, &(wrs, cbytes)) in ReadCause::ALL.iter().zip(&reads) {
                if wrs > 0 {
                    self.stats.record_read_cause(cause, wrs, cbytes);
                    if dominant.is_none_or(|(_, most)| cbytes > most) {
                        dominant = Some((cause, cbytes));
                    }
                }
            }
            self.stats.record_trip(dominant.map(|(cause, _)| cause));
            if self.has_sink.load(Ordering::Relaxed) {
                let vt1 = self.clock.now_us();
                let sizes: Vec<(&'static str, u64, u64)> = chunk
                    .iter()
                    .map(|wr| (wr.kind(), wr.target().1, wr.target().2))
                    .collect();
                let span = VerbSpan {
                    verb,
                    wqes: chunk.len() as u32,
                    bytes,
                    chunk: ci as u32,
                    vt_start_us: vt0,
                    vt_end_us: vt1,
                };
                if let Some(sink) = self.sink.read().as_ref() {
                    sink.verb_span(&span, &split_chunk_intervals(vt0, vt1, &sizes));
                }
            }
        }
        cut.map_or(Ok(()), |_| Err(self.drop_attempt(verb, 1)))
    }

    /// This queue pair's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// This queue pair's transfer statistics.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// The cost model in force.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// The memory node this queue pair is connected to.
    pub fn node(&self) -> &Arc<MemoryNode> {
        &self.node
    }
}

/// The little-endian `u64` an atomic found.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an atomic spans 8 bytes"))
}

/// A scatter list must take exactly its request's bytes.
fn check_scatter(req: &ReadReq, scatter: &Scatter<'_>) -> Result<()> {
    if scatter.len() != Some(req.len) {
        return Err(Error::InvalidParameter(format!(
            "scatter list of {} + {} bytes for a read of {}",
            scatter.head.len,
            scatter.tail.as_ref().map_or(0, |t| t.len),
            req.len
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::WqeSpan;

    fn setup(len: usize) -> (Arc<MemoryNode>, crate::RegionHandle, QueuePair) {
        let node = MemoryNode::new("m");
        let region = node.register(len).unwrap();
        let qp = QueuePair::connect(&node, NetworkModel::connectx6());
        (node, region, qp)
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let (_n, r, qp) = setup(64);
        qp.write(r.rkey(), 10, &[9, 8, 7]).unwrap();
        assert_eq!(qp.read(r.rkey(), 10, 3).unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn read_out_of_bounds_is_rejected() {
        let (_n, r, qp) = setup(16);
        assert!(matches!(
            qp.read(r.rkey(), 10, 10).unwrap_err(),
            Error::OutOfBounds { .. }
        ));
        // Offset overflow must not panic.
        assert!(qp.read(r.rkey(), u64::MAX, 2).is_err());
    }

    #[test]
    fn unknown_rkey_is_rejected() {
        let (_n, _r, qp) = setup(16);
        assert!(matches!(
            qp.read(777, 0, 1).unwrap_err(),
            Error::UnknownRegion(777)
        ));
    }

    #[test]
    fn each_read_is_one_round_trip() {
        let (_n, r, qp) = setup(64);
        for _ in 0..5 {
            qp.read(r.rkey(), 0, 8).unwrap();
        }
        assert_eq!(qp.stats().round_trips(), 5);
        assert_eq!(qp.stats().work_requests(), 5);
        assert_eq!(qp.stats().bytes_read(), 40);
    }

    #[test]
    fn doorbell_batches_into_one_round_trip() {
        let (_n, r, qp) = setup(64);
        let reqs: Vec<ReadReq> = (0..8).map(|i| ReadReq::new(r.rkey(), i * 8, 8)).collect();
        let out = qp.read_doorbell(&reqs).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(qp.stats().round_trips(), 1);
        assert_eq!(qp.stats().work_requests(), 8);
        assert_eq!(qp.stats().doorbell_batches(), 1);
    }

    #[test]
    fn doorbell_splits_past_the_limit() {
        let node = MemoryNode::new("m");
        let r = node.register(1024).unwrap();
        let model = NetworkModel::connectx6().with_doorbell_limit(4).unwrap();
        let qp = QueuePair::connect(&node, model);
        let reqs: Vec<ReadReq> = (0..10).map(|i| ReadReq::new(r.rkey(), i * 8, 8)).collect();
        qp.read_doorbell(&reqs).unwrap();
        assert_eq!(qp.stats().round_trips(), 3); // ceil(10/4)
    }

    #[test]
    fn doorbell_preserves_request_order() {
        let (_n, r, qp) = setup(64);
        qp.write(r.rkey(), 0, &[1]).unwrap();
        qp.write(r.rkey(), 32, &[2]).unwrap();
        let out = qp
            .read_doorbell(&[ReadReq::new(r.rkey(), 32, 1), ReadReq::new(r.rkey(), 0, 1)])
            .unwrap();
        assert_eq!(out, vec![vec![2], vec![1]]);
    }

    #[test]
    fn doorbell_validates_before_executing() {
        let (_n, r, qp) = setup(16);
        for bad in [
            WriteReq::new(r.rkey(), 100, vec![3]), // out of bounds
            WriteReq::Faa(r.rkey(), 4, 1),         // misaligned
        ] {
            assert!(qp
                .doorbell(&[WriteReq::new(r.rkey(), 0, vec![1, 2]), bad])
                .is_err());
        }
        // First request must not have been applied.
        assert_eq!(qp.read(r.rkey(), 0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn empty_doorbell_costs_nothing() {
        let (_n, _r, qp) = setup(16);
        qp.read_doorbell(&[]).unwrap();
        assert_eq!(qp.doorbell(&[]).unwrap(), Vec::<u64>::new());
        assert_eq!(qp.stats().round_trips(), 0);
        assert_eq!(qp.clock().now_us(), 0.0);
    }

    #[test]
    fn a_mixed_doorbell_runs_in_request_order_and_answers_each_atomic() {
        let (_n, r, qp) = setup(32);
        let k = r.rkey();
        let reqs = [
            WriteReq::Faa(k, 0, 5),
            WriteReq::new(k, 8, 7u64.to_le_bytes().to_vec()),
            WriteReq::Faa(k, 8, 1), // sees the write ahead of it
            WriteReq::Cas(k, 0, 5, 9),
            WriteReq::Cas(k, 0, 5, 11), // sees the swap: no second one
        ];
        assert_eq!(qp.doorbell(&reqs).unwrap(), vec![0, 7, 5, 9]);
        assert_eq!(
            qp.read(k, 0, 16).unwrap(),
            [9u64.to_le_bytes(), 8u64.to_le_bytes()].concat()
        );
        let s = qp.stats().snapshot();
        assert_eq!((s.round_trips, s.atomics, s.work_requests), (2, 4, 6));
        assert_eq!((s.doorbell_batches, s.bytes_written), (1, 8));
    }

    #[test]
    fn a_cut_post_executes_its_prefix_then_fails() {
        let (_n, r, qp) = setup(32);
        let k = r.rkey();
        let reqs = [
            WriteReq::new(k, 0, vec![1; 8]),
            WriteReq::Faa(k, 8, 1),
            WriteReq::Faa(k, 16, 1),
        ];
        qp.cut_nth(Some((1, 2)));
        qp.doorbell(&reqs).unwrap(); // the post let through
        let (clock0, stats0) = (qp.clock().now_us(), qp.stats().snapshot());
        let err = qp.doorbell(&reqs).unwrap_err();
        assert!(matches!(
            err,
            Error::RetriesExhausted {
                verb: "doorbell",
                attempts: 1
            }
        ));
        // Charged as a post of the two that ran, plus one timeout.
        let d = qp.stats().snapshot() - stats0;
        assert_eq!(
            (d.round_trips, d.work_requests, d.atomics, d.faults),
            (1, 2, 1, 1)
        );
        assert_eq!(d.doorbell_size_buckets[1], 1);
        let m = qp.model();
        let want_us = m.round_trip_cost_us(2, 16) + m.base_rtt_us();
        assert!((qp.clock().now_us() - clock0 - want_us).abs() < 1e-6);
        let want = [
            vec![1; 8],
            2u64.to_le_bytes().to_vec(),
            1u64.to_le_bytes().to_vec(),
        ];
        assert_eq!(qp.read(k, 0, 24).unwrap(), want.concat());
        // A cut past a post's end spends itself and cuts nothing.
        qp.cut_nth(Some((0, 4)));
        qp.doorbell(&reqs).unwrap();
        qp.doorbell(&reqs).unwrap();
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let (_n, r, qp) = setup(16);
        assert_eq!(qp.cas(r.rkey(), 0, 0, 42).unwrap(), 0);
        assert_eq!(qp.cas(r.rkey(), 0, 0, 99).unwrap(), 42); // mismatch: no swap
        assert_eq!(qp.read(r.rkey(), 0, 8).unwrap(), 42u64.to_le_bytes());
    }

    #[test]
    fn faa_adds_and_returns_previous() {
        let (_n, r, qp) = setup(16);
        assert_eq!(qp.faa(r.rkey(), 8, 5).unwrap(), 0);
        assert_eq!(qp.faa(r.rkey(), 8, 3).unwrap(), 5);
        assert_eq!(qp.read(r.rkey(), 8, 8).unwrap(), 8u64.to_le_bytes());
    }

    #[test]
    fn atomics_require_alignment() {
        let (_n, r, qp) = setup(16);
        assert!(matches!(
            qp.cas(r.rkey(), 3, 0, 1).unwrap_err(),
            Error::Misaligned { .. }
        ));
        assert!(qp.faa(r.rkey(), 7, 1).is_err());
    }

    #[test]
    fn virtual_time_advances_with_traffic() {
        let (_n, r, qp) = setup(1024);
        let t0 = qp.clock().now_us();
        qp.read(r.rkey(), 0, 1024).unwrap();
        let t1 = qp.clock().now_us();
        assert!(t1 > t0 + 2.0, "read should cost at least the base RTT");
    }

    #[test]
    fn doorbell_is_cheaper_than_individual_reads() {
        let node = MemoryNode::new("m");
        let r = node.register(4096).unwrap();
        let model = NetworkModel::connectx6();
        let single = QueuePair::connect(&node, model);
        let batched = QueuePair::connect(&node, model);
        for i in 0..8u64 {
            single.read(r.rkey(), i * 512, 512).unwrap();
        }
        let reqs: Vec<ReadReq> = (0..8)
            .map(|i| ReadReq::new(r.rkey(), i * 512, 512))
            .collect();
        batched.read_doorbell(&reqs).unwrap();
        assert!(
            batched.clock().now_us() < single.clock().now_us() / 2.0,
            "doorbell {} vs individual {}",
            batched.clock().now_us(),
            single.clock().now_us()
        );
    }

    #[test]
    fn concurrent_readers_share_a_qp_safely() {
        let node = MemoryNode::new("m");
        let r = node.register(4096).unwrap();
        let qp = std::sync::Arc::new(QueuePair::connect(&node, NetworkModel::connectx6()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let qp = qp.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        qp.read(r.rkey(), (t * 1000 + i * 8) % 4000, 8).unwrap();
                    }
                });
            }
        });
        assert_eq!(qp.stats().round_trips(), 400);
    }

    #[test]
    fn queue_pairs_on_one_node_count_apart() {
        let node = MemoryNode::new("m");
        let r = node.register(128).unwrap();
        let a = QueuePair::connect(&node, NetworkModel::connectx6());
        let b = QueuePair::connect(&node, NetworkModel::connectx6());
        a.read(r.rkey(), 0, 16).unwrap();
        b.write(r.rkey(), 0, &[1; 8]).unwrap();
        b.faa(r.rkey(), 0, 1).unwrap();
        assert_eq!(a.stats().round_trips(), 1);
        assert_eq!(b.stats().round_trips(), 2);
    }

    #[test]
    fn mixed_cause_doorbell_tiles_bytes_and_attributes_the_trip() {
        let (_n, r, qp) = setup(1024);
        // One big stage-load span plus two tiny version checks in one
        // doorbell: bytes tile per cause, the chunk's single trip goes
        // to the dominant-bytes cause.
        let reqs = [
            ReadReq::new(r.rkey(), 0, 512).with_cause(ReadCause::StageLoad),
            ReadReq::new(r.rkey(), 512, 8).with_cause(ReadCause::VersionCheck),
            ReadReq::new(r.rkey(), 520, 8).with_cause(ReadCause::VersionCheck),
        ];
        qp.read_doorbell(&reqs).unwrap();
        let snap = qp.stats().snapshot();
        assert_eq!(snap.bytes_for(ReadCause::StageLoad), 512);
        assert_eq!(snap.bytes_for(ReadCause::VersionCheck), 16);
        assert_eq!(snap.cause_bytes.iter().sum::<u64>(), snap.bytes_read);
        assert_eq!(snap.round_trips, 1);
        assert_eq!(snap.trips_for(ReadCause::StageLoad), 1);
        assert_eq!(snap.trips_for(ReadCause::VersionCheck), 0);
    }

    /// Splits each request at `cut(i, len)` across two fresh buffers
    /// (one when the cut is at the end), reads `_into` them and returns
    /// the pairs.
    fn read_split(
        qp: &QueuePair,
        reqs: &[ReadReq],
        cut: impl Fn(usize, u64) -> u64,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut bufs: Vec<(Vec<u8>, Vec<u8>)> = reqs.iter().map(|_| Default::default()).collect();
        let mut into: Vec<Scatter<'_>> = bufs
            .iter_mut()
            .zip(reqs)
            .enumerate()
            .map(|(i, ((a, b), r))| Scatter::cut(a, b, cut(i, r.len).min(r.len), r.len))
            .collect();
        qp.read_doorbell_into(reqs, &mut into)?;
        Ok(bufs)
    }

    #[test]
    fn doorbell_into_preserves_request_order_and_appends() {
        let (_n, r, qp) = setup(64);
        qp.write(r.rkey(), 0, &[1, 2, 3]).unwrap();
        qp.write(r.rkey(), 32, &[4, 5]).unwrap();
        let reqs = [ReadReq::new(r.rkey(), 32, 2), ReadReq::new(r.rkey(), 0, 3)];
        let got = read_split(&qp, &reqs, |_, _| 1).unwrap();
        assert_eq!(got, vec![(vec![4], vec![5]), (vec![1], vec![2, 3])]);
        // A segment lands after what its buffer already holds.
        let mut buf = vec![9];
        qp.read_into(reqs[1], Scatter::whole(&mut buf, 3)).unwrap();
        assert_eq!(buf, vec![9, 1, 2, 3]);
        assert_eq!(qp.stats().round_trips(), 2 + 2, "two writes, two reads");
        assert_eq!(
            qp.stats().doorbell_batches(),
            1,
            "a plain read is no doorbell"
        );
    }

    #[test]
    fn doorbell_into_validates_before_executing() {
        let (_n, r, qp) = setup(16);
        qp.write(r.rkey(), 0, &[7; 16]).unwrap();
        let clock0 = qp.clock().now_us();
        let stats0 = qp.stats().snapshot();
        let untouched = |got: Result<Vec<(Vec<u8>, Vec<u8>)>>| {
            assert!(matches!(
                got.unwrap_err(),
                Error::InvalidParameter(_) | Error::OutOfBounds { .. }
            ));
            assert_eq!(qp.clock().now_us(), clock0);
            assert_eq!(qp.stats().snapshot(), stats0);
        };
        // The second request is out of bounds: the first must not land.
        let reqs = [ReadReq::new(r.rkey(), 0, 4), ReadReq::new(r.rkey(), 100, 4)];
        untouched(read_split(&qp, &reqs, |_, len| len));
        // A scatter list that does not sum to its request, long or short.
        let reqs = [ReadReq::new(r.rkey(), 0, 4), ReadReq::new(r.rkey(), 4, 4)];
        for wrong in [3u64, 5, u64::MAX] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut into = [Scatter::whole(&mut a, 4), Scatter::whole(&mut b, wrong)];
            assert!(matches!(
                qp.read_doorbell_into(&reqs, &mut into).unwrap_err(),
                Error::InvalidParameter(_)
            ));
            assert!(
                a.is_empty() && b.is_empty(),
                "bytes moved before validation"
            );
            assert!(qp
                .read_into(reqs[0], Scatter::whole(&mut a, wrong))
                .is_err());
            assert!(a.is_empty());
        }
        // A cut past the end of its read.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(qp
            .read_into(reqs[0], Scatter::cut(&mut a, &mut b, 5, 4))
            .is_err());
        assert!(a.is_empty() && b.is_empty());
        // One scatter list too few.
        let mut a = Vec::new();
        assert!(qp
            .read_doorbell_into(&reqs, &mut [Scatter::whole(&mut a, 4)])
            .is_err());
        assert_eq!(qp.clock().now_us(), clock0);
        assert_eq!(qp.stats().snapshot(), stats0);
    }

    #[test]
    fn doorbell_into_tiles_bytes_per_cause_like_the_allocating_verb() {
        let (_n, r, qp) = setup(1024);
        let reqs = [
            ReadReq::new(r.rkey(), 0, 512).with_cause(ReadCause::StageLoad),
            ReadReq::new(r.rkey(), 512, 8).with_cause(ReadCause::VersionCheck),
            ReadReq::new(r.rkey(), 520, 8).with_cause(ReadCause::VersionCheck),
        ];
        read_split(&qp, &reqs, |_, len| len / 2).unwrap();
        let snap = qp.stats().snapshot();
        assert_eq!(snap.bytes_for(ReadCause::StageLoad), 512);
        assert_eq!(snap.bytes_for(ReadCause::VersionCheck), 16);
        assert_eq!(snap.cause_bytes.iter().sum::<u64>(), snap.bytes_read);
        assert_eq!(snap.work_requests, 3, "segments are not work requests");
        assert_eq!(snap.round_trips, 1);
        assert_eq!(snap.trips_for(ReadCause::StageLoad), 1);
    }

    #[test]
    fn a_dropped_post_leaves_destinations_untouched() {
        let (_n, r, qp) = setup(64);
        qp.write(r.rkey(), 0, &[5; 8]).unwrap();
        qp.set_retry_limit(0);
        qp.fail_next(2);
        let reqs = [ReadReq::new(r.rkey(), 0, 8)];
        let (mut a, mut b) = (vec![1, 2], Vec::new());
        let mut into = [Scatter {
            head: Segment {
                buf: &mut a,
                len: 3,
            },
            tail: Some(Segment {
                buf: &mut b,
                len: 5,
            }),
        }];
        assert!(matches!(
            qp.read_doorbell_into(&reqs, &mut into).unwrap_err(),
            Error::RetriesExhausted {
                verb: "read_doorbell",
                ..
            }
        ));
        assert!(matches!(
            qp.read_into(reqs[0], Scatter::whole(&mut a, 8))
                .unwrap_err(),
            Error::RetriesExhausted { verb: "read", .. }
        ));
        assert_eq!((a, b), (vec![1, 2], Vec::new()));
        assert_eq!(qp.stats().bytes_read(), 0);
    }

    #[test]
    fn a_zero_byte_chunk_attributes_its_trip_to_a_cause_it_carries() {
        let (_n, r, qp) = setup(16);
        let req = ReadReq::new(r.rkey(), 0, 0).with_cause(ReadCause::Rerank);
        qp.read_doorbell(&[req, req]).unwrap();
        qp.read_with_cause(r.rkey(), 0, 0, ReadCause::Naive)
            .unwrap();
        let snap = qp.stats().snapshot();
        assert_eq!(snap.trips_for(ReadCause::Rerank), 1);
        assert_eq!(snap.trips_for(ReadCause::Naive), 1);
        assert_eq!(snap.trips_for(ReadCause::StageLoad), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The allocating verb and the landing verb are one body: same
        /// bytes, same counters, same virtual clock, wherever each
        /// request's scatter list is cut, under the same fault plan.
        #[test]
        fn read_doorbell_equals_read_doorbell_into(
            fill in proptest::prop::collection::vec(proptest::any::<u8>(), 256..257),
            shape in proptest::prop::collection::vec((0u64..256, 0u64..64, 0u64..70, 0usize..READ_CAUSES), 0..24),
            limit in 1usize..9,
            drops in 0u32..3,
        ) {
            let node = MemoryNode::new("m");
            let r = node.register(256).unwrap();
            let model = NetworkModel::connectx6().with_doorbell_limit(limit).unwrap();
            let (alloc, landing) = (QueuePair::connect(&node, model), QueuePair::connect(&node, model));
            alloc.write(r.rkey(), 0, &fill).unwrap();
            landing.write(r.rkey(), 0, &fill).unwrap();
            let reqs: Vec<ReadReq> = shape
                .iter()
                .map(|&(off, len, _, cause)| {
                    ReadReq::new(r.rkey(), off, len.min(256 - off)).with_cause(ReadCause::ALL[cause])
                })
                .collect();
            alloc.fail_next(drops);
            landing.fail_next(drops);
            let want = alloc.read_doorbell(&reqs).unwrap();
            let got = read_split(&landing, &reqs, |i, _| shape[i].2).unwrap();
            let got: Vec<Vec<u8>> = got.into_iter().map(|(a, b)| [a, b].concat()).collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(landing.stats().snapshot(), alloc.stats().snapshot());
            proptest::prop_assert_eq!(landing.clock().now_us(), alloc.clock().now_us());
            // And the single verb against its twin.
            if let Some(&req) = reqs.first() {
                let want = alloc.read_with_cause(req.rkey, req.offset, req.len, req.cause).unwrap();
                let mut got = Vec::new();
                landing.read_into(req, Scatter::whole(&mut got, req.len)).unwrap();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(landing.stats().snapshot(), alloc.stats().snapshot());
                proptest::prop_assert_eq!(landing.clock().now_us(), alloc.clock().now_us());
            }
        }
    }

    #[test]
    fn plain_read_attributes_to_its_cause() {
        let (_n, r, qp) = setup(64);
        qp.read_with_cause(r.rkey(), 0, 32, ReadCause::Naive)
            .unwrap();
        qp.read(r.rkey(), 0, 8).unwrap();
        let snap = qp.stats().snapshot();
        assert_eq!(snap.bytes_for(ReadCause::Naive), 32);
        assert_eq!(snap.bytes_for(ReadCause::Other), 8);
        assert_eq!(snap.trips_for(ReadCause::Naive), 1);
        assert_eq!(snap.cause_bytes.iter().sum::<u64>(), snap.bytes_read);
    }

    #[test]
    fn queue_pair_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueuePair>();
    }

    #[derive(Debug, Default)]
    struct RecordingSink {
        verbs: parking_lot::Mutex<Vec<(VerbSpan, Vec<WqeSpan>)>>,
        faults: parking_lot::Mutex<Vec<crate::trace::FaultEvent>>,
    }

    impl TraceSink for RecordingSink {
        fn verb_span(&self, span: &VerbSpan, wqes: &[WqeSpan]) {
            self.verbs.lock().push((*span, wqes.to_vec()));
        }
        fn fault(&self, event: &crate::trace::FaultEvent) {
            self.faults.lock().push(*event);
        }
    }

    #[test]
    fn sink_sees_plain_verbs_with_virtual_intervals() {
        let (_n, r, qp) = setup(64);
        let sink = Arc::new(RecordingSink::default());
        qp.set_trace_sink(Some(sink.clone()));
        qp.write(r.rkey(), 0, &[1; 16]).unwrap();
        qp.read(r.rkey(), 0, 16).unwrap();
        qp.cas(r.rkey(), 0, 0, 0).unwrap();
        qp.faa(r.rkey(), 8, 1).unwrap();
        let verbs = sink.verbs.lock();
        let names: Vec<&str> = verbs.iter().map(|(s, _)| s.verb).collect();
        assert_eq!(names, vec!["write", "read", "cas", "faa"]);
        let kinds: Vec<&str> = verbs.iter().map(|(_, w)| w[0].kind).collect();
        assert_eq!(kinds, names, "a plain verb's one request is of its kind");
        for (span, wqes) in verbs.iter() {
            assert_eq!(span.wqes, 1);
            assert_eq!(wqes.len(), 1);
            assert!(span.vt_end_us > span.vt_start_us);
        }
        // Spans are contiguous on the virtual clock: each starts where
        // the previous ended.
        for pair in verbs.windows(2) {
            assert_eq!(pair[1].0.vt_start_us, pair[0].0.vt_end_us);
        }
    }

    #[test]
    fn sink_sees_per_chunk_doorbell_spans() {
        let node = MemoryNode::new("m");
        let r = node.register(1024).unwrap();
        let model = NetworkModel::connectx6().with_doorbell_limit(4).unwrap();
        let qp = QueuePair::connect(&node, model);
        let sink = Arc::new(RecordingSink::default());
        qp.set_trace_sink(Some(sink.clone()));
        let reqs: Vec<ReadReq> = (0..10).map(|i| ReadReq::new(r.rkey(), i * 8, 8)).collect();
        qp.read_doorbell(&reqs).unwrap();
        // The landing verb emits the same spans, one virtual interval on.
        read_split(&qp, &reqs, |i, _| i as u64).unwrap();
        let mut verbs = sink.verbs.lock();
        assert_eq!(verbs.len(), 6);
        let shift = verbs[3].0.vt_start_us - verbs[0].0.vt_start_us;
        for (landed, alloc) in verbs.split_off(3).iter().zip(verbs.iter()) {
            assert_eq!((landed.0.verb, landed.0.wqes), (alloc.0.verb, alloc.0.wqes));
            assert_eq!(
                (landed.0.bytes, landed.0.chunk),
                (alloc.0.bytes, alloc.0.chunk)
            );
            assert!((landed.0.vt_start_us - shift - alloc.0.vt_start_us).abs() < 1e-9);
            let offsets = |w: &[WqeSpan]| {
                w.iter()
                    .map(|s| (s.index, s.offset, s.bytes))
                    .collect::<Vec<_>>()
            };
            assert_eq!(offsets(&landed.1), offsets(&alloc.1));
        }
        assert_eq!(verbs.len(), 3); // ceil(10/4) chunks
        assert_eq!(verbs[0].0.chunk, 0);
        assert_eq!(verbs[2].0.chunk, 2);
        assert_eq!(verbs[0].0.wqes, 4);
        assert_eq!(verbs[2].0.wqes, 2);
        // Per-WQE spans tile their chunk interval.
        let (span, wqes) = &verbs[1];
        assert_eq!(wqes[0].vt_start_us, span.vt_start_us);
        assert_eq!(wqes.last().unwrap().vt_end_us, span.vt_end_us);
        assert_eq!(wqes[1].offset, reqs[5].offset);
    }

    #[test]
    fn sink_sees_fault_retries_and_uninstall_stops_events() {
        let (_n, r, qp) = setup(64);
        let sink = Arc::new(RecordingSink::default());
        qp.set_trace_sink(Some(sink.clone()));
        qp.fail_next(2);
        qp.read(r.rkey(), 0, 8).unwrap();
        {
            let faults = sink.faults.lock();
            assert_eq!(faults.len(), 2);
            assert_eq!(faults[0].attempt, 1);
            assert_eq!(faults[1].attempt, 2);
            assert!(faults[0].timeout_us > 0.0);
        }
        qp.set_trace_sink(None);
        qp.read(r.rkey(), 0, 8).unwrap();
        assert_eq!(sink.verbs.lock().len(), 1);
    }
}
