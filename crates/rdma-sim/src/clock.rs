//! Virtual time accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing virtual clock, in whole picoseconds.
///
/// Network costs computed by the [`crate::NetworkModel`] are charged here,
/// by this crate's queue pairs only: outside it the clock is read-only.
/// Every charge is an integer, so the clock is exactly the sum of what it
/// was charged, and a `u64` (2^64 ps ≈ 213 days) holds any simulation
/// this crate runs.
///
/// # Example
///
/// ```rust
/// use rdma_sim::{MemoryNode, NetworkModel, QueuePair};
///
/// let qp = QueuePair::connect(&MemoryNode::new("pool"), NetworkModel::connectx6());
/// qp.charge_backoff_ps(2_500_000);
/// assert_eq!(qp.clock().now_ps(), 2_500_000);
/// assert_eq!(qp.clock().now_us(), 2.5);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    picos: AtomicU64,
}

/// `ps` in microseconds: the one conversion, for reports, traces, ledgers.
pub fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1_000_000.0
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `ps` picoseconds.
    pub(crate) fn advance_ps(&self, ps: u64) {
        self.picos.fetch_add(ps, Ordering::Relaxed);
    }

    /// Current virtual time in picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.picos.load(Ordering::Relaxed)
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> f64 {
        ps_to_us(self.now_ps())
    }

    /// Resets the clock to zero (between benchmark phases).
    pub(crate) fn reset(&self) {
        self.picos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now_us(), 0.0);
    }

    #[test]
    fn accumulates_small_increments_exactly() {
        let c = VirtualClock::new();
        for _ in 0..1_000 {
            c.advance_ps(1_000);
        }
        assert_eq!(c.now_ps(), 1_000_000);
        assert_eq!(c.now_us(), 1.0);
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = VirtualClock::new();
        c.advance_ps(10_000_000);
        c.reset();
        assert_eq!(c.now_ps(), 0);
    }

    #[test]
    fn concurrent_advances_are_not_lost() {
        let c = std::sync::Arc::new(VirtualClock::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.advance_ps(10_000);
                    }
                });
            }
        });
        assert_eq!(c.now_ps(), 400_000_000);
        assert_eq!(c.now_us(), 400.0);
    }
}
