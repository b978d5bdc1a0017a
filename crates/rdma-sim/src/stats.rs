//! Transfer statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Why a read crossed the network: the provenance tag the engine threads
/// down to the verb layer so every inbound byte can be attributed to the
/// subsystem that demanded it (the paper's bottleneck currency is bytes;
/// this names them).
///
/// The per-cause byte counters tile exactly: summing
/// [`StatsSnapshot::cause_bytes`] over all causes reproduces
/// [`StatsSnapshot::bytes_read`], because the one counter that moves
/// `bytes_read` moves the read's cause with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReadCause {
    /// Batch-planned sub-HNSW cluster load (the §3.3 staged fetch).
    StageLoad,
    /// Directory version-slot read (cache-pin verify or load piggyback).
    VersionCheck,
    /// Engine-level retry after substrate retransmission exhaustion or a
    /// version-churn reload.
    Retry,
    /// Health-report probe (overflow occupancy counters).
    HealthProbe,
    /// Full cluster-plus-overflow sweep (rebuild / compaction).
    OverflowScan,
    /// Naive per-query fetch (the no-batching baseline mode).
    Naive,
    /// Targeted full-precision vector fetch for exact rerank after a
    /// quantized (SQ8) cluster search.
    Rerank,
    /// Untagged reads: directory bootstrap, snapshots, ad-hoc callers.
    #[default]
    Other,
}

/// Number of [`ReadCause`] variants (length of the per-cause arrays).
pub const READ_CAUSES: usize = 8;

impl ReadCause {
    /// Every cause, in per-cause array-index order.
    pub const ALL: [ReadCause; READ_CAUSES] = [
        ReadCause::StageLoad,
        ReadCause::VersionCheck,
        ReadCause::Retry,
        ReadCause::HealthProbe,
        ReadCause::OverflowScan,
        ReadCause::Naive,
        ReadCause::Rerank,
        ReadCause::Other,
    ];

    /// This cause's slot in the per-cause arrays.
    pub fn index(self) -> usize {
        match self {
            ReadCause::StageLoad => 0,
            ReadCause::VersionCheck => 1,
            ReadCause::Retry => 2,
            ReadCause::HealthProbe => 3,
            ReadCause::OverflowScan => 4,
            ReadCause::Naive => 5,
            ReadCause::Rerank => 6,
            ReadCause::Other => 7,
        }
    }

    /// Stable snake_case name (telemetry label / report key).
    pub fn as_str(self) -> &'static str {
        match self {
            ReadCause::StageLoad => "stage_load",
            ReadCause::VersionCheck => "version_check",
            ReadCause::Retry => "retry",
            ReadCause::HealthProbe => "health_probe",
            ReadCause::OverflowScan => "overflow_scan",
            ReadCause::Naive => "naive",
            ReadCause::Rerank => "rerank",
            ReadCause::Other => "other",
        }
    }
}

impl std::fmt::Display for ReadCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Atomic counters describing everything a queue pair moved.
///
/// These are the quantities the paper reports directly (round trips per
/// query, bytes transferred) or that its latency numbers are a function
/// of. Only a queue pair makes and writes them: its verb executor once
/// per post and per doorbell-limit chunk, its fault admission the
/// `faults`, a caller's retry the `backoff_ps`. They are the only counters
/// of the fabric, and its clock is their price ([`crate::VirtualClock`]).
///
/// # Example
///
/// ```rust
/// use rdma_sim::{MemoryNode, NetworkModel, QueuePair, ReadCause, ReadReq};
///
/// let node = MemoryNode::new("mem0");
/// let r = node.register(1024).unwrap();
/// let qp = QueuePair::connect(&node, NetworkModel::connectx6());
/// let before = qp.stats().snapshot();
/// let req = ReadReq::new(r.rkey(), 0, 512).with_cause(ReadCause::Rerank);
/// qp.read_doorbell(&[req]).unwrap();
/// let delta = qp.stats().snapshot() - before;
/// assert_eq!((delta.round_trips, delta.bytes_for(ReadCause::Rerank)), (1, 512));
/// ```
#[derive(Debug)]
pub struct TransferStats {
    round_trips: AtomicU64,
    work_requests: AtomicU64,
    doorbell_batches: AtomicU64,
    doorbell_sizes: Counts<DOORBELL_SIZE_BUCKETS>,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    atomics: AtomicU64,
    faults: AtomicU64,
    backoff_ps: AtomicU64,
    cause_bytes: Counts<READ_CAUSES>,
    cause_wrs: Counts<READ_CAUSES>,
    cause_trips: Counts<READ_CAUSES>,
}

/// `N` counters read and zeroed together: one per [`ReadCause`], or per
/// doorbell size bucket.
#[derive(Debug)]
struct Counts<const N: usize>([AtomicU64; N]);

impl<const N: usize> Counts<N> {
    fn new() -> Self {
        Counts(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    fn add(&self, i: usize, n: u64) {
        self.0[i].fetch_add(n, Ordering::Relaxed);
    }

    fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for c in &self.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Number of doorbell batch-size buckets, a power-of-two histogram of
/// work requests per doorbell ring: bucket `i` counts batches of
/// `(2^(i-1), 2^i]` (sizes `1, 2, 4, …, 2^14`), and the last also absorbs
/// anything larger.
pub const DOORBELL_SIZE_BUCKETS: usize = 16;

impl TransferStats {
    /// Fresh zeroed counters, for [`crate::QueuePair::connect`].
    pub(crate) fn new() -> Self {
        TransferStats {
            round_trips: AtomicU64::new(0),
            work_requests: AtomicU64::new(0),
            doorbell_batches: AtomicU64::new(0),
            doorbell_sizes: Counts::new(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            atomics: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            backoff_ps: AtomicU64::new(0),
            cause_bytes: Counts::new(),
            cause_wrs: Counts::new(),
            cause_trips: Counts::new(),
        }
    }

    /// Records one network round trip, attributed to `cause` when it
    /// read (a doorbell chunk's trip goes to the cause carrying the most
    /// bytes in it).
    pub(crate) fn record_trip(&self, cause: Option<ReadCause>) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if let Some(cause) = cause {
            self.cause_trips.add(cause.index(), 1);
        }
    }

    /// Records read work attributed to `cause`. This is the only path
    /// that bumps `bytes_read`, so per-cause bytes tile the total by
    /// construction.
    pub(crate) fn record_read_cause(&self, cause: ReadCause, wrs: u64, bytes: u64) {
        self.work_requests.fetch_add(wrs, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.cause_wrs.add(cause.index(), wrs);
        self.cause_bytes.add(cause.index(), bytes);
    }

    /// Records write work: `wrs` work requests totalling `bytes` outbound.
    pub(crate) fn record_write(&self, wrs: u64, bytes: u64) {
        self.work_requests.fetch_add(wrs, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one doorbell batch submission of `size` work requests.
    pub(crate) fn record_doorbell(&self, size: u64) {
        self.doorbell_batches.fetch_add(1, Ordering::Relaxed);
        let bucket = 64 - size.saturating_sub(1).leading_zeros() as usize;
        self.doorbell_sizes
            .add(bucket.min(DOORBELL_SIZE_BUCKETS - 1), 1);
    }

    /// Records one faulted (dropped and retransmitted) verb attempt.
    pub(crate) fn record_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Total faulted attempts observed.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Records `ps` of backoff a caller waited before posting again.
    pub(crate) fn record_backoff(&self, ps: u64) {
        self.backoff_ps.fetch_add(ps, Ordering::Relaxed);
    }

    /// Records one atomic verb (CAS or FAA).
    pub(crate) fn record_atomic(&self) {
        self.atomics.fetch_add(1, Ordering::Relaxed);
        self.work_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Total network round trips.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Zeroes every counter ([`crate::QueuePair::reset_measurements`]).
    pub(crate) fn reset(&self) {
        self.round_trips.store(0, Ordering::Relaxed);
        self.work_requests.store(0, Ordering::Relaxed);
        self.doorbell_batches.store(0, Ordering::Relaxed);
        self.doorbell_sizes.reset();
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.atomics.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        self.backoff_ps.store(0, Ordering::Relaxed);
        self.cause_bytes.reset();
        self.cause_wrs.reset();
        self.cause_trips.reset();
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            round_trips: load(&self.round_trips),
            work_requests: load(&self.work_requests),
            doorbell_batches: load(&self.doorbell_batches),
            doorbell_size_buckets: self.doorbell_sizes.load(),
            bytes_read: load(&self.bytes_read),
            bytes_written: load(&self.bytes_written),
            atomics: load(&self.atomics),
            faults: load(&self.faults),
            backoff_ps: load(&self.backoff_ps),
            cause_bytes: self.cause_bytes.load(),
            cause_wrs: self.cause_wrs.load(),
            cause_trips: self.cause_trips.load(),
        }
    }
}

/// An immutable copy of [`TransferStats`] counters, with subtraction for
/// computing per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total network round trips.
    pub round_trips: u64,
    /// Total work requests posted.
    pub work_requests: u64,
    /// Total doorbell batches posted.
    pub doorbell_batches: u64,
    /// Doorbell batch sizes by power-of-two bucket: bucket `i` counts
    /// batches of `(2^(i-1), 2^i]` work requests (last bucket absorbs
    /// larger).
    pub doorbell_size_buckets: [u64; DOORBELL_SIZE_BUCKETS],
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total atomic verbs.
    pub atomics: u64,
    /// Total faulted (dropped and retransmitted) verb attempts.
    pub faults: u64,
    /// Picoseconds of backoff callers charged between posts
    /// ([`crate::QueuePair::charge_backoff_ps`]): waiting, not traffic.
    pub backoff_ps: u64,
    /// Bytes read per [`ReadCause`] (indexed by [`ReadCause::index`]);
    /// sums to `bytes_read`.
    pub cause_bytes: [u64; READ_CAUSES],
    /// Read work requests per [`ReadCause`].
    pub cause_wrs: [u64; READ_CAUSES],
    /// Read round trips per [`ReadCause`] (a mixed-cause doorbell chunk's
    /// single trip is attributed to its dominant-bytes cause).
    pub cause_trips: [u64; READ_CAUSES],
}

impl StatsSnapshot {
    /// Bytes read attributed to `cause`.
    pub fn bytes_for(&self, cause: ReadCause) -> u64 {
        self.cause_bytes[cause.index()]
    }

    /// Read round trips attributed to `cause`.
    pub fn trips_for(&self, cause: ReadCause) -> u64 {
        self.cause_trips[cause.index()]
    }
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    /// The counts between two snapshots. Saturating per field, so a
    /// [`crate::QueuePair::reset_measurements`] racing in between yields
    /// zeros rather than a panic (debug) or a wrapped count (release).
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        fn each<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i].saturating_sub(b[i]))
        }
        StatsSnapshot {
            round_trips: self.round_trips.saturating_sub(rhs.round_trips),
            work_requests: self.work_requests.saturating_sub(rhs.work_requests),
            doorbell_batches: self.doorbell_batches.saturating_sub(rhs.doorbell_batches),
            doorbell_size_buckets: each(self.doorbell_size_buckets, rhs.doorbell_size_buckets),
            bytes_read: self.bytes_read.saturating_sub(rhs.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(rhs.bytes_written),
            atomics: self.atomics.saturating_sub(rhs.atomics),
            faults: self.faults.saturating_sub(rhs.faults),
            backoff_ps: self.backoff_ps.saturating_sub(rhs.backoff_ps),
            cause_bytes: each(self.cause_bytes, rhs.cause_bytes),
            cause_wrs: each(self.cause_wrs, rhs.cause_wrs),
            cause_trips: each(self.cause_trips, rhs.cause_trips),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TransferStats::new();
        s.record_trip(None);
        s.record_trip(None);
        s.record_read_cause(ReadCause::Other, 3, 100);
        s.record_write(1, 50);
        s.record_doorbell(3);
        s.record_atomic();
        let snap = s.snapshot();
        assert_eq!((snap.round_trips, snap.work_requests), (2, 5));
        assert_eq!((snap.bytes_read, snap.bytes_written), (100, 50));
        assert_eq!((snap.doorbell_batches, snap.atomics), (1, 1));
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = TransferStats::new();
        s.record_read_cause(ReadCause::Other, 3, 100);
        s.record_trip(Some(ReadCause::Other));
        s.record_doorbell(7);
        s.record_backoff(9);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn doorbell_sizes_land_in_power_of_two_buckets() {
        let s = TransferStats::new();
        s.record_doorbell(1); // bucket 0 (<= 1)
        s.record_doorbell(2); // bucket 1 (<= 2)
        s.record_doorbell(3); // bucket 2 (<= 4)
        s.record_doorbell(4); // bucket 2
        s.record_doorbell(16); // bucket 4
        s.record_doorbell(1_000_000); // clamped to the last bucket
        let snap = s.snapshot();
        assert_eq!(snap.doorbell_batches, 6);
        assert_eq!(snap.doorbell_size_buckets[0], 1);
        assert_eq!(snap.doorbell_size_buckets[1], 1);
        assert_eq!(snap.doorbell_size_buckets[2], 2);
        assert_eq!(snap.doorbell_size_buckets[4], 1);
        assert_eq!(snap.doorbell_size_buckets[DOORBELL_SIZE_BUCKETS - 1], 1);
        assert_eq!(
            snap.doorbell_size_buckets.iter().sum::<u64>(),
            snap.doorbell_batches
        );
    }

    #[test]
    fn doorbell_bucket_delta_subtracts_elementwise() {
        let s = TransferStats::new();
        s.record_doorbell(4);
        let before = s.snapshot();
        s.record_doorbell(4);
        s.record_doorbell(8);
        let delta = s.snapshot() - before;
        assert_eq!(delta.doorbell_batches, 2);
        assert_eq!(delta.doorbell_size_buckets[2], 1);
        assert_eq!(delta.doorbell_size_buckets[3], 1);
    }

    #[test]
    fn snapshot_delta_isolates_a_phase() {
        let s = TransferStats::new();
        s.record_trip(None);
        let before = s.snapshot();
        s.record_trip(None);
        s.record_trip(None);
        s.record_read_cause(ReadCause::Other, 1, 10);
        let delta = s.snapshot() - before;
        assert_eq!(delta.round_trips, 2);
        assert_eq!(delta.bytes_read, 10);
    }

    #[test]
    fn cause_bytes_tile_total_bytes_read() {
        let s = TransferStats::new();
        s.record_read_cause(ReadCause::StageLoad, 4, 4096);
        s.record_read_cause(ReadCause::VersionCheck, 2, 16);
        s.record_read_cause(ReadCause::Other, 1, 100);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_for(ReadCause::StageLoad), 4096);
        assert_eq!(snap.bytes_for(ReadCause::VersionCheck), 16);
        assert_eq!(snap.bytes_for(ReadCause::Other), 100);
        assert_eq!(snap.cause_bytes.iter().sum::<u64>(), snap.bytes_read);
        assert_eq!(snap.cause_wrs.iter().sum::<u64>(), 7);
    }

    #[test]
    fn read_round_trips_carry_their_cause() {
        let s = TransferStats::new();
        s.record_trip(Some(ReadCause::Rerank));
        s.record_trip(Some(ReadCause::Rerank));
        s.record_trip(None); // e.g. a write: uncaused
        let snap = s.snapshot();
        assert_eq!(snap.round_trips, 3);
        assert_eq!(snap.trips_for(ReadCause::Rerank), 2);
        assert_eq!(snap.cause_trips.iter().sum::<u64>(), 2);
    }

    #[test]
    fn a_delta_across_a_reset_saturates_per_field() {
        let s = TransferStats::new();
        s.record_read_cause(ReadCause::Rerank, 2, 64);
        s.record_write(1, 8);
        s.record_doorbell(2);
        s.record_atomic();
        s.record_fault();
        s.record_backoff(5);
        let before = s.snapshot();
        // Another thread's `reset` between the two reads, as
        // `reset_measurements()` can land inside a `query_batch`.
        s.reset();
        s.record_write(1, 16);
        let delta = s.snapshot() - before;
        let want = StatsSnapshot {
            bytes_written: 8,
            ..StatsSnapshot::default()
        };
        assert_eq!(delta, want);
    }

    #[test]
    fn cause_index_and_names_are_stable() {
        for (i, cause) in ReadCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        assert_eq!(ReadCause::default(), ReadCause::Other);
        let names: std::collections::HashSet<&str> =
            ReadCause::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(names.len(), READ_CAUSES, "cause names must be unique");
    }

    #[test]
    fn cause_counters_reset_and_subtract() {
        let s = TransferStats::new();
        s.record_read_cause(ReadCause::Retry, 1, 10);
        let before = s.snapshot();
        s.record_read_cause(ReadCause::Retry, 1, 30);
        let delta = s.snapshot() - before;
        assert_eq!(delta.bytes_for(ReadCause::Retry), 30);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let s = std::sync::Arc::new(TransferStats::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        s.record_read_cause(ReadCause::Other, 1, 8);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!((snap.work_requests, snap.bytes_read), (4_000, 32_000));
    }
}
