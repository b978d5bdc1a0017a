//! Virtual time: the price of a queue pair's counters.

use crate::{NetworkModel, TransferStats};

/// A queue pair's virtual clock, in whole picoseconds: a read-only view
/// that keeps no time of its own.
///
/// The time is [`NetworkModel::price`] of the queue pair's
/// [`TransferStats`], read when asked: every round trip, work request,
/// byte and dropped attempt it counted, at the model's integer rates,
/// plus the backoff a caller charged. Nothing writes a clock, so it cannot
/// drift from its counters, and zeroing them
/// ([`crate::QueuePair::reset_measurements`]) zeroes it. A `u64` (2^64 ps
/// ≈ 213 days) holds any simulation this crate runs.
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
#[derive(Debug, Clone, Copy)]
pub struct VirtualClock<'a> {
    pub(crate) model: &'a NetworkModel,
    pub(crate) stats: &'a TransferStats,
}

/// `ps` in microseconds: the one conversion, for reports, traces, ledgers.
pub fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1_000_000.0
}

impl VirtualClock<'_> {
    /// Current virtual time in picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.model.price(&self.stats.snapshot())
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> f64 {
        ps_to_us(self.now_ps())
    }
}

#[cfg(test)]
mod tests {
    use crate::{MemoryNode, QueuePair};

    #[test]
    fn the_clock_is_the_price_of_what_was_counted_and_a_reset_zeroes_it() {
        let node = MemoryNode::new("m");
        let r = node.register(64).unwrap();
        let qp = QueuePair::connect(&node, crate::NetworkModel::connectx6());
        assert_eq!(qp.clock().now_us(), 0.0);
        qp.read(r.rkey(), 0, 16).unwrap();
        qp.faa(r.rkey(), 8, 1).unwrap();
        qp.fail_next(1);
        qp.write(r.rkey(), 0, &[1; 4]).unwrap();
        qp.charge_backoff_ps(1_000);
        let m = qp.model();
        let want = 3 * m.base_rtt_ps()
            + 3 * m.per_wr_ps()
            + (16 + 8 + 4) * m.ps_per_byte()
            + m.timeout_ps()
            + 1_000;
        assert_eq!(qp.clock().now_ps(), want);
        qp.reset_measurements();
        assert_eq!(qp.clock().now_ps(), 0);
    }
}
