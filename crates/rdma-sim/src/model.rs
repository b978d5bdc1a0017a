//! The network cost model.

use std::ops::Range;

use crate::{Error, Result};

/// Cost model for one-sided RDMA operations.
///
/// Time is charged in whole picoseconds of virtual time:
///
/// ```text
/// cost(round trip with W work requests moving B bytes)
///   = base_rtt_ps + W * per_wr_ps + B * ps_per_byte
/// ```
///
/// Every parameter is an integer, so a price is exact: nothing rounds
/// between the model and the clock, and a clock delta is a linear form of
/// the counters beside it. Microseconds are only ever a rendering of
/// picoseconds ([`crate::ps_to_us`]).
///
/// A doorbell batch of `n` work requests executes in
/// `ceil(n / doorbell_limit)` round trips — posting more WRs than the NIC
/// can absorb in one doorbell forces extra trips, which is exactly the
/// scalability trade-off §3.2 of the paper describes.
///
/// The [`NetworkModel::connectx6`] preset approximates the paper's
/// testbed (Mellanox ConnectX-6, 100 Gb/s): 2 µs base round trip and
/// 0.2 µs of NIC/PCIe handling per work request.
///
/// # Example
///
/// ```rust
/// use rdma_sim::NetworkModel;
///
/// let m = NetworkModel::connectx6();
/// // A single 64-byte read: the base RTT, one work request, 64 bytes at
/// // 80 ps each.
/// assert_eq!(m.round_trip_cost_ps(1, 64), 2_000_000 + 200_000 + 64 * 80);
/// // Moving a megabyte is bandwidth-dominated: 80 µs of serialization.
/// assert!(m.round_trip_cost_ps(1, 1 << 20) > 80_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    base_rtt_ps: u64,
    per_wr_ps: u64,
    ps_per_byte: u64,
    doorbell_limit: usize,
}

impl NetworkModel {
    /// Preset approximating the paper's testbed: ConnectX-6 100 Gb/s,
    /// 2 µs base round trip, 0.2 µs per work request, 16 WRs per doorbell.
    pub fn connectx6() -> Self {
        NetworkModel {
            base_rtt_ps: 2_000_000,
            per_wr_ps: 200_000,
            ps_per_byte: 80,
            doorbell_limit: 16,
        }
    }

    /// A slower 25 Gb/s RoCE-style fabric, useful for sensitivity
    /// analysis: 5 µs base round trip, 0.3 µs per work request.
    pub fn roce25() -> Self {
        NetworkModel {
            base_rtt_ps: 5_000_000,
            per_wr_ps: 300_000,
            ps_per_byte: 320,
            doorbell_limit: 16,
        }
    }

    /// Returns a copy with a different doorbell limit (for the §3.2
    /// ablation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `limit` is zero.
    pub fn with_doorbell_limit(mut self, limit: usize) -> Result<Self> {
        if limit == 0 {
            return Err(Error::InvalidParameter(
                "doorbell_limit must be >= 1".into(),
            ));
        }
        self.doorbell_limit = limit;
        Ok(self)
    }

    /// Returns a copy with a different base round-trip latency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `rtt_ps` is zero.
    pub fn with_base_rtt_ps(mut self, rtt_ps: u64) -> Result<Self> {
        if rtt_ps == 0 {
            return Err(Error::InvalidParameter("base rtt must be positive".into()));
        }
        self.base_rtt_ps = rtt_ps;
        Ok(self)
    }

    /// Base round-trip latency in picoseconds.
    pub fn base_rtt_ps(&self) -> u64 {
        self.base_rtt_ps
    }

    /// Per-work-request NIC/PCIe overhead in picoseconds.
    pub fn per_wr_ps(&self) -> u64 {
        self.per_wr_ps
    }

    /// Serialization time of one payload byte in picoseconds.
    pub fn ps_per_byte(&self) -> u64 {
        self.ps_per_byte
    }

    /// Base round-trip latency in microseconds.
    pub fn base_rtt_us(&self) -> f64 {
        crate::ps_to_us(self.base_rtt_ps)
    }

    /// Per-work-request NIC/PCIe overhead in microseconds.
    pub fn per_wr_us(&self) -> f64 {
        crate::ps_to_us(self.per_wr_ps)
    }

    /// Line rate in Gb/s: 8 bits per `ps_per_byte` picoseconds.
    pub fn bandwidth_gbps(&self) -> f64 {
        8_000.0 / self.ps_per_byte as f64
    }

    /// Maximum work requests the NIC absorbs per doorbell round trip.
    pub fn doorbell_limit(&self) -> usize {
        self.doorbell_limit
    }

    /// Virtual time for one round trip carrying `wrs` work requests and
    /// `bytes` total payload.
    pub fn round_trip_cost_ps(&self, wrs: usize, bytes: u64) -> u64 {
        self.base_rtt_ps + wrs as u64 * self.per_wr_ps + bytes * self.ps_per_byte
    }

    /// The chunk schedule of one post of `wrs` work requests, request `i`
    /// moving `len(i)` payload bytes: per doorbell-limit chunk, in post
    /// order, the requests it carries, their bytes and its round trip's
    /// cost in picoseconds. A queue pair charges a post exactly this, and
    /// a tracer lays out a post's spans by it.
    pub fn schedule<F: Fn(usize) -> u64>(
        &self,
        wrs: usize,
        len: F,
    ) -> impl Iterator<Item = (Range<usize>, u64, u64)> {
        let model = *self;
        (0..wrs).step_by(model.doorbell_limit).map(move |lo| {
            let chunk = lo..(lo + model.doorbell_limit).min(wrs);
            let bytes: u64 = chunk.clone().map(&len).sum();
            let cost = model.round_trip_cost_ps(chunk.len(), bytes);
            (chunk, bytes, cost)
        })
    }

    /// Virtual time one dropped attempt charges before it is
    /// retransmitted: one base round trip.
    pub fn timeout_ps(&self) -> u64 {
        self.base_rtt_ps
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::connectx6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connectx6_preset_is_valid() {
        let m = NetworkModel::connectx6();
        assert_eq!(
            (m.base_rtt_us(), m.per_wr_us(), m.bandwidth_gbps()),
            (2.0, 0.2, 100.0)
        );
        assert_eq!(m.doorbell_limit(), 16);
        let r = NetworkModel::roce25();
        assert_eq!(
            (r.base_rtt_us(), r.per_wr_us(), r.bandwidth_gbps()),
            (5.0, 0.3, 25.0)
        );
    }

    #[test]
    fn cost_scales_with_bytes() {
        let m = NetworkModel::connectx6();
        let small = m.round_trip_cost_ps(1, 100);
        let large = m.round_trip_cost_ps(1, 1_000_000);
        // 1 MB at 100 Gb/s is 80 µs of serialization alone.
        assert_eq!(large - small, 999_900 * 80);
    }

    #[test]
    fn cost_scales_with_work_requests() {
        let m = NetworkModel::connectx6();
        assert_eq!(
            m.round_trip_cost_ps(10, 0) - m.round_trip_cost_ps(1, 0),
            9 * 200_000
        );
    }

    #[test]
    fn a_post_is_scheduled_in_doorbell_limit_chunks() {
        let m = NetworkModel::connectx6().with_doorbell_limit(4).unwrap();
        let trips = |wrs| m.schedule(wrs, |_| 0).count();
        assert_eq!([1, 4, 5, 17].map(trips), [1, 1, 2, 5]);
        let chunks: Vec<_> = m.schedule(10, |i| 8 * i as u64).collect();
        let ranges: Vec<_> = chunks.iter().map(|c| c.0.clone()).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(chunks[1].1, 8 * (4 + 5 + 6 + 7));
        assert_eq!(chunks[2].2, m.round_trip_cost_ps(2, 8 * (8 + 9)));
        assert_eq!(m.schedule(0, |_| 1).count(), 0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(NetworkModel::connectx6().with_doorbell_limit(0).is_err());
        assert!(NetworkModel::connectx6().with_base_rtt_ps(0).is_err());
    }

    #[test]
    fn roce_preset_is_slower_than_connectx6() {
        let fast = NetworkModel::connectx6();
        let slow = NetworkModel::roce25();
        assert!(slow.round_trip_cost_ps(1, 1 << 20) > fast.round_trip_cost_ps(1, 1 << 20));
    }
}
