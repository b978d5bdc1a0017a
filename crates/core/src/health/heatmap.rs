//! Per-cluster access heatmap.
//!
//! One [`ClusterHeatmap`] lives on each compute node, sized to the
//! partition count at connect time. The query path records into it
//! with **relaxed atomics only and no allocation**. Counter races under
//! concurrent batches can drop an occasional increment — the heatmap
//! is a sampling instrument, not an audit log, and that trade keeps it
//! off the latency critical path.

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Default)]
struct HeatCell {
    route_hits: AtomicU64,
    loads: AtomicU64,
    cache_hits: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
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
}

/// Lock-free per-partition access counters.
#[derive(Debug)]
pub struct ClusterHeatmap {
    cells: Vec<HeatCell>,
}

impl ClusterHeatmap {
    /// A heatmap with one cell per partition.
    pub fn new(partitions: usize) -> Self {
        let mut cells = Vec::with_capacity(partitions);
        cells.resize_with(partitions, HeatCell::default);
        ClusterHeatmap { cells }
    }

    /// Number of partitions tracked.
    pub fn partitions(&self) -> usize {
        self.cells.len()
    }

    /// Records one meta-HNSW route to `partition`. Out-of-range ids
    /// are ignored.
    pub fn record_route(&self, partition: u32) {
        if let Some(cell) = self.cells.get(partition as usize) {
            cell.route_hits.fetch_add(1, Ordering::Relaxed);
        }
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

    /// A point-in-time copy of every cell. Allocates — intended for
    /// reports, not the query path.
    pub fn snapshot(&self) -> Vec<PartitionHeat> {
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
        h.record_route(9);
        h.record_load(9, 64);
        h.record_cache_hit(9);
        h.record_eviction(9);
        assert!(h
            .snapshot()
            .iter()
            .all(|c| c.route_hits == 0 && c.loads == 0 && c.cache_hits == 0 && c.evictions == 0));
    }
}
