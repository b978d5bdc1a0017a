//! Virtual time accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing virtual clock, in microseconds.
///
/// Network costs computed by the [`crate::NetworkModel`] are charged here,
/// by this crate's queue pairs only: outside it the clock is read-only.
/// Internally the clock stores picoseconds in an `AtomicU64`, which keeps
/// `advance` lock-free and exact enough (2^64 ps ≈ 213 days) for any
/// simulation this crate runs.
///
/// # Example
///
/// ```rust
/// use rdma_sim::{MemoryNode, NetworkModel, QueuePair};
///
/// let qp = QueuePair::connect(&MemoryNode::new("pool"), NetworkModel::connectx6());
/// qp.charge_backoff_us(2.5);
/// assert!((qp.clock().now_us() - 2.5).abs() < 1e-9);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    picos: AtomicU64,
}

const PICOS_PER_US: f64 = 1_000_000.0;

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `us` microseconds. Negative or non-finite
    /// amounts are ignored (costs are never negative by construction).
    pub(crate) fn advance_us(&self, us: f64) {
        if us.is_finite() && us > 0.0 {
            self.picos
                .fetch_add((us * PICOS_PER_US) as u64, Ordering::Relaxed);
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> f64 {
        self.picos.load(Ordering::Relaxed) as f64 / PICOS_PER_US
    }

    /// Resets the clock to zero (between benchmark phases).
    pub fn reset(&self) {
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
    fn accumulates_small_increments_exactly_enough() {
        let c = VirtualClock::new();
        for _ in 0..1_000 {
            c.advance_us(0.001);
        }
        assert!((c.now_us() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ignores_negative_and_nan() {
        let c = VirtualClock::new();
        c.advance_us(-5.0);
        c.advance_us(f64::NAN);
        assert_eq!(c.now_us(), 0.0);
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = VirtualClock::new();
        c.advance_us(10.0);
        c.reset();
        assert_eq!(c.now_us(), 0.0);
    }

    #[test]
    fn concurrent_advances_are_not_lost() {
        let c = std::sync::Arc::new(VirtualClock::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.advance_us(0.01);
                    }
                });
            }
        });
        assert!((c.now_us() - 400.0).abs() < 0.1);
    }
}
