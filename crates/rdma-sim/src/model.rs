//! The network cost model.

use std::ops::Range;

use crate::{Error, Result};

/// Cost model for one-sided RDMA operations.
///
/// Time is charged in microseconds of virtual time:
///
/// ```text
/// cost(round trip with W work requests moving B bytes)
///   = base_rtt_us + W * per_wr_us + B * 8 / (bandwidth_gbps * 1000)
/// ```
///
/// A doorbell batch of `n` work requests executes in
/// `ceil(n / doorbell_limit)` round trips — posting more WRs than the NIC
/// can absorb in one doorbell forces extra trips, which is exactly the
/// scalability trade-off §3.2 of the paper describes.
///
/// The [`NetworkModel::connectx6`] preset approximates the paper's
/// testbed (Mellanox ConnectX-6, 100 Gb/s): ~2 µs base round trip and
/// ~0.2 µs of NIC/PCIe handling per work request.
///
/// # Example
///
/// ```rust
/// use rdma_sim::NetworkModel;
///
/// let m = NetworkModel::connectx6();
/// // A single small read costs roughly the base RTT.
/// let one = m.round_trip_cost_us(1, 64);
/// assert!(one >= 2.0 && one < 3.0);
/// // Moving a megabyte is bandwidth-dominated.
/// assert!(m.round_trip_cost_us(1, 1 << 20) > 80.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    base_rtt_us: f64,
    per_wr_us: f64,
    bandwidth_gbps: f64,
    doorbell_limit: usize,
}

impl NetworkModel {
    /// Creates a model from raw parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when any latency/bandwidth is
    /// non-positive or `doorbell_limit` is zero.
    pub fn new(
        base_rtt_us: f64,
        per_wr_us: f64,
        bandwidth_gbps: f64,
        doorbell_limit: usize,
    ) -> Result<Self> {
        if base_rtt_us <= 0.0 || bandwidth_gbps <= 0.0 || per_wr_us < 0.0 || base_rtt_us.is_nan() {
            return Err(Error::InvalidParameter(
                "latencies must be positive and bandwidth non-zero".into(),
            ));
        }
        if doorbell_limit == 0 {
            return Err(Error::InvalidParameter(
                "doorbell_limit must be >= 1".into(),
            ));
        }
        Ok(NetworkModel {
            base_rtt_us,
            per_wr_us,
            bandwidth_gbps,
            doorbell_limit,
        })
    }

    /// Preset approximating the paper's testbed: ConnectX-6 100 Gb/s,
    /// 2 µs base round trip, 0.2 µs per work request, 16 WRs per doorbell.
    pub fn connectx6() -> Self {
        NetworkModel {
            base_rtt_us: 2.0,
            per_wr_us: 0.2,
            bandwidth_gbps: 100.0,
            doorbell_limit: 16,
        }
    }

    /// A slower 25 Gb/s RoCE-style fabric, useful for sensitivity
    /// analysis.
    pub fn roce25() -> Self {
        NetworkModel {
            base_rtt_us: 5.0,
            per_wr_us: 0.3,
            bandwidth_gbps: 25.0,
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
    /// Returns [`Error::InvalidParameter`] when `rtt_us` is non-positive.
    pub fn with_base_rtt_us(mut self, rtt_us: f64) -> Result<Self> {
        if rtt_us <= 0.0 || rtt_us.is_nan() {
            return Err(Error::InvalidParameter("base rtt must be positive".into()));
        }
        self.base_rtt_us = rtt_us;
        Ok(self)
    }

    /// Base round-trip latency in microseconds.
    pub fn base_rtt_us(&self) -> f64 {
        self.base_rtt_us
    }

    /// Per-work-request NIC/PCIe overhead in microseconds.
    pub fn per_wr_us(&self) -> f64 {
        self.per_wr_us
    }

    /// Line rate in Gb/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// Maximum work requests the NIC absorbs per doorbell round trip.
    pub fn doorbell_limit(&self) -> usize {
        self.doorbell_limit
    }

    /// Virtual time for one round trip carrying `wrs` work requests and
    /// `bytes` total payload.
    pub fn round_trip_cost_us(&self, wrs: usize, bytes: usize) -> f64 {
        self.base_rtt_us
            + wrs as f64 * self.per_wr_us
            + (bytes as f64 * 8.0) / (self.bandwidth_gbps * 1_000.0)
    }

    /// The chunk schedule of one post of `wrs` work requests, request `i`
    /// moving `len(i)` payload bytes: per doorbell-limit chunk, in post
    /// order, the requests it carries, their bytes and its round trip's
    /// cost. A queue pair charges a post exactly this, and a tracer lays
    /// out a post's spans by it.
    pub fn schedule<F: Fn(usize) -> u64>(
        &self,
        wrs: usize,
        len: F,
    ) -> impl Iterator<Item = (Range<usize>, u64, f64)> {
        let model = *self;
        (0..wrs).step_by(model.doorbell_limit).map(move |lo| {
            let chunk = lo..(lo + model.doorbell_limit).min(wrs);
            let bytes: u64 = chunk.clone().map(&len).sum();
            let cost = model.round_trip_cost_us(chunk.len(), bytes as usize);
            (chunk, bytes, cost)
        })
    }

    /// Virtual time one dropped attempt charges before it is
    /// retransmitted: one base round trip.
    pub fn timeout_us(&self) -> f64 {
        self.base_rtt_us
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
        assert_eq!(m.bandwidth_gbps(), 100.0);
        assert_eq!(m.doorbell_limit(), 16);
    }

    #[test]
    fn cost_scales_with_bytes() {
        let m = NetworkModel::connectx6();
        let small = m.round_trip_cost_us(1, 100);
        let large = m.round_trip_cost_us(1, 1_000_000);
        assert!(large > small);
        // 1 MB at 100 Gb/s is 80 µs of serialization alone.
        assert!((large - small) > 70.0);
    }

    #[test]
    fn cost_scales_with_work_requests() {
        let m = NetworkModel::connectx6();
        assert!(m.round_trip_cost_us(10, 0) > m.round_trip_cost_us(1, 0));
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
        assert_eq!(chunks[2].2, m.round_trip_cost_us(2, 8 * (8 + 9)));
        assert_eq!(m.schedule(0, |_| 1).count(), 0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(NetworkModel::new(0.0, 0.1, 100.0, 16).is_err());
        assert!(NetworkModel::new(2.0, 0.1, 0.0, 16).is_err());
        assert!(NetworkModel::new(2.0, -0.1, 100.0, 16).is_err());
        assert!(NetworkModel::new(2.0, 0.1, 100.0, 0).is_err());
        assert!(NetworkModel::connectx6().with_doorbell_limit(0).is_err());
        assert!(NetworkModel::connectx6().with_base_rtt_us(-1.0).is_err());
    }

    #[test]
    fn roce_preset_is_slower_than_connectx6() {
        let fast = NetworkModel::connectx6();
        let slow = NetworkModel::roce25();
        assert!(slow.round_trip_cost_us(1, 1 << 20) > fast.round_trip_cost_us(1, 1 << 20));
    }
}
