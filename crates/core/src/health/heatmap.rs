//! Per-cluster access heatmap.
//!
//! One [`ClusterHeatmap`] lives on each compute node, sized to the
//! partition count at connect time. The query path records into it
//! with **relaxed atomics only and no allocation**. Counter races under
//! concurrent batches can drop an occasional increment — the heatmap
//! is a sampling instrument, not an audit log, and that trade keeps it
//! off the latency critical path.
//!
//! Hotness is an exponentially-weighted moving average over *batches*:
//! each route hit adds one unit, and a cell's score decays by
//! [`DECAY_PER_BATCH`] for every batch that elapsed since the cell was
//! last touched. The decay is applied lazily at touch/snapshot time
//! (fixed-point, per-cell last-batch stamp), so idle partitions cost
//! nothing per batch and a snapshot still sees them correctly decayed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-batch EWMA decay factor for the hotness score.
pub const DECAY_PER_BATCH: f64 = 0.875;

/// Fixed-point scale for the stored hotness (1.0 == `HOT_ONE`).
const HOT_ONE: f64 = 1_000_000.0;

/// Decay exponents beyond this flush the score to zero anyway; capping
/// keeps the `powi` argument well inside `i32`.
const MAX_DECAY_STEPS: u64 = 64;

#[derive(Debug, Default)]
struct HeatCell {
    route_hits: AtomicU64,
    loads: AtomicU64,
    cache_hits: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    /// EWMA hotness, fixed-point (`HOT_ONE` == 1.0).
    hot_fp: AtomicU64,
    /// Batch sequence at which `hot_fp` was last decayed.
    last_batch: AtomicU64,
}

/// One partition's row in a heatmap snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionHeat {
    /// Partition (cluster) id.
    pub partition: u32,
    /// Times the meta-HNSW routed a query to this partition.
    pub route_hits: u64,
    /// Times the partition's cluster was fetched from the memory pool.
    pub loads: u64,
    /// Times a route was served from the compute-side cluster cache.
    pub cache_hits: u64,
    /// Times the partition was evicted from the cluster cache.
    pub evictions: u64,
    /// Bytes fetched for this partition across all loads.
    pub bytes_read: u64,
    /// EWMA hotness (route hits, decayed per batch), at snapshot time.
    pub hotness: f64,
}

/// Lock-free per-partition access counters with EWMA hotness.
#[derive(Debug)]
pub struct ClusterHeatmap {
    batch_seq: AtomicU64,
    cells: Vec<HeatCell>,
}

impl ClusterHeatmap {
    /// A heatmap with one cell per partition.
    pub fn new(partitions: usize) -> Self {
        let mut cells = Vec::with_capacity(partitions);
        cells.resize_with(partitions, HeatCell::default);
        ClusterHeatmap {
            batch_seq: AtomicU64::new(0),
            cells,
        }
    }

    /// Number of partitions tracked.
    pub fn partitions(&self) -> usize {
        self.cells.len()
    }

    /// Advances the batch clock that drives EWMA decay. Called once
    /// per batch, before the batch's `record_route` calls.
    pub fn begin_batch(&self) -> u64 {
        self.batch_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one meta-HNSW route to `partition` and bumps its EWMA
    /// hotness. Out-of-range ids are ignored.
    pub fn record_route(&self, partition: u32) {
        let Some(cell) = self.cells.get(partition as usize) else {
            return;
        };
        cell.route_hits.fetch_add(1, Ordering::Relaxed);
        let seq = self.batch_seq.load(Ordering::Relaxed);
        let hot = Self::decayed(cell, seq);
        cell.last_batch.store(seq, Ordering::Relaxed);
        cell.hot_fp.store((hot + HOT_ONE) as u64, Ordering::Relaxed);
    }

    /// Records a cluster-cache hit for `partition`.
    pub fn record_cache_hit(&self, partition: u32) {
        if let Some(cell) = self.cells.get(partition as usize) {
            cell.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a remote load of `bytes` for `partition`.
    pub fn record_load(&self, partition: u32, bytes: u64) {
        if let Some(cell) = self.cells.get(partition as usize) {
            cell.loads.fetch_add(1, Ordering::Relaxed);
            cell.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records a cache eviction of `partition`.
    pub fn record_eviction(&self, partition: u32) {
        if let Some(cell) = self.cells.get(partition as usize) {
            cell.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The hotness of `cell` decayed forward to batch `seq`, in EWMA
    /// units (not fixed-point).
    fn decayed(cell: &HeatCell, seq: u64) -> f64 {
        let last = cell.last_batch.load(Ordering::Relaxed);
        let hot = cell.hot_fp.load(Ordering::Relaxed) as f64;
        let steps = seq.saturating_sub(last).min(MAX_DECAY_STEPS);
        if steps == 0 {
            hot
        } else {
            hot * DECAY_PER_BATCH.powi(steps as i32)
        }
    }

    /// A point-in-time copy of every cell, with hotness decayed to the
    /// current batch clock. Allocates — intended for reports, not the
    /// query path.
    pub fn snapshot(&self) -> Vec<PartitionHeat> {
        let seq = self.batch_seq.load(Ordering::Relaxed);
        self.cells
            .iter()
            .enumerate()
            .map(|(p, cell)| PartitionHeat {
                partition: p as u32,
                route_hits: cell.route_hits.load(Ordering::Relaxed),
                loads: cell.loads.load(Ordering::Relaxed),
                cache_hits: cell.cache_hits.load(Ordering::Relaxed),
                evictions: cell.evictions.load(Ordering::Relaxed),
                bytes_read: cell.bytes_read.load(Ordering::Relaxed),
                hotness: Self::decayed(cell, seq) / HOT_ONE,
            })
            .collect()
    }

    /// Cumulative route-hit count per partition (index == partition).
    pub fn route_hit_counts(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.route_hits.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_partition() {
        let h = ClusterHeatmap::new(4);
        h.begin_batch();
        h.record_route(1);
        h.record_route(1);
        h.record_route(3);
        h.record_cache_hit(1);
        h.record_load(3, 640);
        h.record_load(3, 360);
        h.record_eviction(0);
        let snap = h.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[1].route_hits, 2);
        assert_eq!(snap[1].cache_hits, 1);
        assert_eq!(snap[3].route_hits, 1);
        assert_eq!(snap[3].loads, 2);
        assert_eq!(snap[3].bytes_read, 1000);
        assert_eq!(snap[0].evictions, 1);
        assert_eq!(h.route_hit_counts(), vec![0, 2, 0, 1]);
    }

    #[test]
    fn out_of_range_partition_is_ignored() {
        let h = ClusterHeatmap::new(2);
        h.begin_batch();
        h.record_route(9);
        h.record_load(9, 64);
        h.record_cache_hit(9);
        h.record_eviction(9);
        assert!(h
            .snapshot()
            .iter()
            .all(|c| c.route_hits == 0 && c.loads == 0 && c.cache_hits == 0 && c.evictions == 0));
    }

    #[test]
    fn hotness_decays_per_batch_and_rewards_recency() {
        let h = ClusterHeatmap::new(2);
        h.begin_batch();
        h.record_route(0);
        let hot0 = h.snapshot()[0].hotness;
        assert!((hot0 - 1.0).abs() < 1e-9, "one hit in the current batch");
        // Partition 0 goes idle for three batches; partition 1 is hit
        // in the last one. Recency must dominate raw counts.
        for _ in 0..3 {
            h.begin_batch();
        }
        h.record_route(1);
        let snap = h.snapshot();
        let expected = DECAY_PER_BATCH.powi(3);
        assert!(
            (snap[0].hotness - expected).abs() < 1e-6,
            "idle cell decayed: {} vs {expected}",
            snap[0].hotness
        );
        assert!(snap[1].hotness > snap[0].hotness);
        // Raw counters never decay.
        assert_eq!(snap[0].route_hits, 1);
    }

    #[test]
    fn long_idle_flushes_hotness_to_zero() {
        let h = ClusterHeatmap::new(1);
        h.begin_batch();
        h.record_route(0);
        for _ in 0..200 {
            h.begin_batch();
        }
        assert!(h.snapshot()[0].hotness < 1e-3);
    }
}
