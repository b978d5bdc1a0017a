//! Fault injection and retransmission.
//!
//! Real RDMA reliable-connection queue pairs retransmit lost packets in
//! hardware; an operation only surfaces an error after the retry count is
//! exhausted. This module models that: a [`QueuePair`] can be given a
//! deterministic fault plan (an explicit "fail the next N attempts"
//! counter and/or a seeded random drop rate), every faulted attempt
//! charges a timeout's worth of virtual time, and the verb transparently
//! retries up to the configured limit before failing with
//! [`crate::Error::RetriesExhausted`].
//!
//! Faults are injected *per attempt*, before any data moves, so a verb
//! that fails this way never partially executes. One injection is
//! different: [`QueuePair::cut_nth`] makes a post execute a prefix of its
//! work requests and then fail — the crash inside a doorbell that a
//! protocol posting several dependent requests at once must survive.
//!
//! # Example
//!
//! ```rust
//! use rdma_sim::{MemoryNode, NetworkModel, QueuePair};
//!
//! # fn main() -> Result<(), rdma_sim::Error> {
//! let node = MemoryNode::new("mem0");
//! let region = node.register(64)?;
//! let qp = QueuePair::connect(&node, NetworkModel::connectx6());
//!
//! qp.fail_next(2); // the next two attempts drop
//! let data = qp.read(region.rkey(), 0, 8)?; // retransmits twice, then succeeds
//! assert_eq!(data.len(), 8);
//! assert_eq!(qp.stats().faults(), 2);
//! # Ok(())
//! # }
//! ```

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::{Error, QueuePair, Result};

/// Default retransmission budget per verb, mirroring common RC QP
/// `retry_cnt` settings.
pub const DEFAULT_RETRY_LIMIT: u32 = 7;

/// Per-queue-pair fault state.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Attempts allowed through before `fail_next` engages, counting
    /// down.
    skip_next: AtomicU32,
    /// Attempts that will deterministically fail, counting down.
    fail_next: AtomicU32,
    /// Random drop rate in [0, 1], encoded as parts-per-million.
    drop_ppm: AtomicU32,
    /// xorshift state for the random drops (seeded, deterministic).
    rng: AtomicU64,
    /// Retransmissions allowed per verb before giving up.
    retry_limit: AtomicU32,
    /// The armed [`QueuePair::cut_nth`]: posts still to let through, and
    /// the work requests the post after them executes.
    cut: Mutex<Option<(u32, u32)>>,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState {
            skip_next: AtomicU32::new(0),
            fail_next: AtomicU32::new(0),
            drop_ppm: AtomicU32::new(0),
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            retry_limit: AtomicU32::new(DEFAULT_RETRY_LIMIT),
            cut: Mutex::new(None),
        }
    }
}

impl FaultState {
    /// For an admitted post of `len` work requests: how many execute
    /// before the armed cut fails it, `None` when it runs whole.
    pub(crate) fn cut(&self, len: usize) -> Option<usize> {
        let mut cut = self.cut.lock();
        let (skip, at) = (*cut)?;
        *cut = skip.checked_sub(1).map(|skip| (skip, at));
        (skip == 0 && at as usize <= len).then_some(at as usize)
    }

    /// Whether the next attempt should fail.
    fn attempt_fails(&self) -> bool {
        // Armed skips let attempts through before `fail_next` engages.
        loop {
            let s = self.skip_next.load(Ordering::Relaxed);
            if s == 0 {
                break;
            }
            if self
                .skip_next
                .compare_exchange(s, s - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return false;
            }
        }
        // Deterministic injections first.
        loop {
            let n = self.fail_next.load(Ordering::Relaxed);
            if n == 0 {
                break;
            }
            if self
                .fail_next
                .compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
        let ppm = self.drop_ppm.load(Ordering::Relaxed);
        if ppm == 0 {
            return false;
        }
        // xorshift64* step.
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1_000_000) < u64::from(ppm)
    }
}

impl QueuePair {
    /// Makes the next `n` verb attempts fail (shared across threads using
    /// this queue pair; attempts consume the counter in execution order).
    pub fn fail_next(&self, n: u32) {
        self.fault_state().fail_next.store(n, Ordering::Relaxed);
    }

    /// Lets the next `skip` verb attempts through, then fails the `n`
    /// after those — i.e. targets a fault at a specific verb inside a
    /// multi-verb protocol. Attempts include retransmissions, so pair
    /// with [`QueuePair::set_retry_limit`]`(0)` to map attempts onto
    /// verbs one-to-one.
    pub fn fail_nth(&self, skip: u32, n: u32) {
        self.fault_state().skip_next.store(skip, Ordering::Relaxed);
        self.fault_state().fail_next.store(n, Ordering::Relaxed);
    }

    /// Arms a cut, `Some((skip, at))`, or disarms it with `None`. Armed,
    /// it lets the next `skip` posts through, then cuts the one after: it
    /// executes exactly its first `at` work requests — applied, costed
    /// and counted as a post of those alone (their reads land) — and then
    /// fails with [`Error::RetriesExhausted`] after one dropped attempt's
    /// timeout, whatever the retry budget. A post of fewer than `at`
    /// requests runs whole and spends the cut. Only posts that pass
    /// validation and fault admission count.
    pub fn cut_nth(&self, cut: Option<(u32, u32)>) {
        *self.fault_state().cut.lock() = cut;
    }

    /// Sets a random per-attempt drop rate in `[0, 1]`, deterministic for
    /// a given `seed`. A rate of `0.0` disables random faults.
    pub fn set_fault_rate(&self, rate: f64, seed: u64) {
        let ppm = (rate.clamp(0.0, 1.0) * 1_000_000.0) as u32;
        self.fault_state().drop_ppm.store(ppm, Ordering::Relaxed);
        self.fault_state().rng.store(seed | 1, Ordering::Relaxed);
    }

    /// Sets the retransmission budget per verb (default
    /// [`DEFAULT_RETRY_LIMIT`]).
    pub fn set_retry_limit(&self, limit: u32) {
        self.fault_state()
            .retry_limit
            .store(limit, Ordering::Relaxed);
    }

    /// Runs the fault/retransmission loop for one verb attempt sequence:
    /// each dropped attempt counts a fault, priced at one base round trip
    /// (the timeout); returns `Ok(())` when an attempt goes through, or
    /// [`Error::RetriesExhausted`] when the budget is spent.
    pub(crate) fn admit(&self, verb: &'static str) -> Result<()> {
        let state = self.fault_state();
        let limit = state.retry_limit.load(Ordering::Relaxed);
        let mut attempts = 0u32;
        while state.attempt_fails() {
            attempts += 1;
            let exhausted = self.drop_attempt(verb, attempts);
            if attempts > limit {
                return Err(exhausted);
            }
        }
        Ok(())
    }

    /// Counts dropped attempt number `attempts` of `verb` — one fault,
    /// which the clock prices at one timeout — and returns the error the
    /// verb gives up with if it was the last.
    pub(crate) fn drop_attempt(&self, verb: &'static str, attempts: u32) -> Error {
        self.stats().record_fault();
        Error::RetriesExhausted { verb, attempts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryNode, NetworkModel, ReadReq};

    fn setup() -> (std::sync::Arc<MemoryNode>, crate::RegionHandle, QueuePair) {
        let node = MemoryNode::new("m");
        let region = node.register(256).unwrap();
        let qp = QueuePair::connect(&node, NetworkModel::connectx6());
        (node, region, qp)
    }

    #[test]
    fn transient_faults_retry_transparently() {
        let (_n, r, qp) = setup();
        qp.fail_next(3);
        let out = qp.read(r.rkey(), 0, 8).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(qp.stats().faults(), 3);
        // Exactly one successful round trip recorded, plus timeout time.
        assert_eq!(qp.stats().round_trips(), 1);
        let plain = QueuePair::connect(qp.node(), *qp.model());
        plain.read(r.rkey(), 0, 8).unwrap();
        assert!(qp.clock().now_ps() > plain.clock().now_ps());
    }

    #[test]
    fn exhausted_retries_surface_an_error() {
        let (_n, r, qp) = setup();
        qp.set_retry_limit(2);
        qp.fail_next(10);
        let err = qp.read(r.rkey(), 0, 8).unwrap_err();
        assert!(matches!(err, Error::RetriesExhausted { attempts: 3, .. }));
        // Remaining injected faults stay armed for the next attempt.
        assert!(qp.stats().faults() >= 3);
    }

    #[test]
    fn faults_never_partially_execute_writes() {
        let (_n, r, qp) = setup();
        qp.set_retry_limit(0);
        qp.fail_next(1);
        assert!(qp.write(r.rkey(), 0, &[9; 8]).is_err());
        qp.fail_next(0);
        assert_eq!(qp.read(r.rkey(), 0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn fail_nth_targets_a_specific_attempt() {
        let (_n, r, qp) = setup();
        qp.set_retry_limit(0);
        qp.fail_nth(2, 1);
        // Attempts 1 and 2 pass, attempt 3 fails, attempt 4 passes.
        qp.read(r.rkey(), 0, 8).unwrap();
        qp.read(r.rkey(), 0, 8).unwrap();
        assert!(qp.read(r.rkey(), 0, 8).is_err());
        qp.read(r.rkey(), 0, 8).unwrap();
        assert_eq!(qp.stats().faults(), 1);
    }

    #[test]
    fn random_rate_is_deterministic_per_seed() {
        let counts: Vec<u64> = (0..2)
            .map(|_| {
                let (_n, r, qp) = setup();
                qp.set_fault_rate(0.3, 42);
                for _ in 0..200 {
                    let _ = qp.read(r.rkey(), 0, 4);
                }
                qp.stats().faults()
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert!(
            counts[0] > 20,
            "rate 0.3 produced only {} faults",
            counts[0]
        );
    }

    #[test]
    fn zero_rate_never_faults() {
        let (_n, r, qp) = setup();
        qp.set_fault_rate(0.0, 1);
        for _ in 0..100 {
            qp.read(r.rkey(), 0, 4).unwrap();
        }
        assert_eq!(qp.stats().faults(), 0);
    }

    #[test]
    fn doorbell_and_atomics_respect_faults() {
        let (_n, r, qp) = setup();
        qp.fail_next(1);
        qp.read_doorbell(&[ReadReq::new(r.rkey(), 0, 4)]).unwrap();
        assert_eq!(qp.stats().faults(), 1);
        qp.fail_next(1);
        qp.faa(r.rkey(), 0, 1).unwrap();
        assert_eq!(qp.stats().faults(), 2);
    }

    #[test]
    fn default_retry_limit_absorbs_realistic_fault_bursts() {
        let (_n, r, qp) = setup();
        qp.set_fault_rate(0.2, 7);
        let mut failures = 0;
        for _ in 0..500 {
            if qp.read(r.rkey(), 0, 4).is_err() {
                failures += 1;
            }
        }
        // P(8 consecutive drops at rate 0.2) ≈ 2.6e-6: effectively never.
        assert_eq!(failures, 0);
        assert!(qp.stats().faults() > 50);
    }
}
