//! The compute-side cluster cache of §3.3.
//!
//! Each compute instance has limited DRAM, modeled as an LRU over
//! materialized clusters with a fixed capacity of `c` clusters (the paper
//! configures `c` to 10% of all clusters). The engine retains "the most
//! recently loaded `c` sub-HNSWs for the next batch" — which is exactly
//! LRU behaviour.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cluster::LoadedCluster;

/// Lifetime counters of a [`ClusterCache`], as reported by
/// [`crate::ComputeNode::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Clusters pushed out by LRU pressure (invalidations and explicit
    /// clears are not evictions).
    pub evictions: u64,
}

/// An LRU cache of [`LoadedCluster`]s keyed by partition id.
///
/// Entries are handed out as `Arc`s so a batch can keep using a cluster
/// it already resolved even if a later load in the same batch evicts it.
/// Each entry remembers the cluster *version* it was loaded at (the
/// remote version-slot value), so the engine can detect cross-node
/// mutations and invalidate stale entries on the next load.
///
/// Entries can additionally be **pinned** for the duration of a batch
/// ([`ClusterCache::pin`]): a pinned entry is never chosen as an LRU
/// victim, so the clusters a batch found resident stay resident while
/// its load round admits the rest, and the loaded ones do not evict each
/// other before the batch has searched them. When every resident entry is pinned,
/// [`ClusterCache::put`] admits the new entry anyway (a transient
/// oversubscription bounded by the batch's unique-cluster count — memory
/// the engine holds in its resolved set regardless);
/// [`ClusterCache::settle`] then evicts back down to capacity in LRU
/// order once the batch ends and the pins are released.
///
/// A capacity of `0` is an explicit **cache-disabled** mode: every
/// lookup misses, [`ClusterCache::put`] is a no-op, and nothing is ever
/// resident — so "no cache" benchmarks genuinely hold zero clusters.
///
/// # Example
///
/// ```rust
/// use dhnsw::cache::ClusterCache;
///
/// let mut cache = ClusterCache::new(2);
/// assert_eq!(cache.capacity(), 2);
/// assert!(cache.get(0).is_none());
/// ```
#[derive(Debug)]
pub struct ClusterCache {
    capacity: usize,
    entries: HashMap<u32, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// One resident cluster with its LRU stamp, load version, and pin state.
#[derive(Debug)]
struct Entry {
    stamp: u64,
    version: u64,
    pinned: bool,
    cluster: Arc<LoadedCluster>,
}

impl ClusterCache {
    /// Creates a cache holding at most `capacity` clusters; `0` disables
    /// caching entirely.
    pub fn new(capacity: usize) -> Self {
        ClusterCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum clusters held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clusters currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a partition, refreshing its recency.
    pub fn get(&mut self, partition: u32) -> Option<Arc<LoadedCluster>> {
        self.tick += 1;
        let entry = self.entries.get_mut(&partition)?;
        entry.stamp = self.tick;
        Some(Arc::clone(&entry.cluster))
    }

    /// Checks residency without touching recency (used by the load
    /// planner).
    pub fn contains(&self, partition: u32) -> bool {
        self.entries.contains_key(&partition)
    }

    /// The version a resident partition was loaded at, without touching
    /// recency (used by the engine's coherence check).
    pub fn version_of(&self, partition: u32) -> Option<u64> {
        self.entries.get(&partition).map(|e| e.version)
    }

    /// Inserts a cluster loaded at `version`, evicting the least
    /// recently used entry if the cache is full. Returns the evicted
    /// partition, if any, so callers (the engine's heatmap sampler and
    /// span trace) can attribute the eviction. A no-op when the cache is disabled
    /// (capacity 0).
    pub fn put(
        &mut self,
        partition: u32,
        cluster: Arc<LoadedCluster>,
        version: u64,
    ) -> Option<u32> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut evicted = None;
        if !self.entries.contains_key(&partition) && self.entries.len() >= self.capacity {
            // Evict the least recently used *unpinned* entry. When the
            // whole cache is pinned (a batch whose working set exceeds
            // capacity), admit anyway; settle() restores the bound.
            if let Some((&victim, _)) = self
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.stamp)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
                evicted = Some(victim);
            }
        }
        let pinned = self.entries.get(&partition).is_some_and(|e| e.pinned);
        self.entries.insert(
            partition,
            Entry {
                stamp: self.tick,
                version,
                pinned,
                cluster,
            },
        );
        evicted
    }

    /// Pins a resident partition so LRU pressure cannot evict it until
    /// [`ClusterCache::unpin_all`] or [`ClusterCache::settle`]. Returns
    /// whether the partition was resident. Recency is untouched.
    pub fn pin(&mut self, partition: u32) -> bool {
        match self.entries.get_mut(&partition) {
            Some(entry) => {
                entry.pinned = true;
                true
            }
            None => false,
        }
    }

    /// Clears every pin without evicting anything.
    pub fn unpin_all(&mut self) {
        for entry in self.entries.values_mut() {
            entry.pinned = false;
        }
    }

    /// Number of currently pinned entries.
    pub fn pinned(&self) -> usize {
        self.entries.values().filter(|e| e.pinned).count()
    }

    /// Ends a batch's pin scope: releases every pin and evicts in LRU
    /// order until the cache is back within capacity (undoing any
    /// transient oversubscription pins forced). Returns the victims in
    /// eviction order; each counts as an LRU eviction.
    pub fn settle(&mut self) -> Vec<u32> {
        self.unpin_all();
        let mut victims = Vec::new();
        while self.entries.len() > self.capacity {
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            self.entries.remove(&victim);
            self.stats.evictions += 1;
            victims.push(victim);
        }
        victims
    }

    /// Drops a partition (after an insert invalidates its materialized
    /// form). Returns whether it was present.
    pub fn invalidate(&mut self, partition: u32) -> bool {
        self.entries.remove(&partition).is_some()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Lifetime eviction count (LRU pressure only).
    pub fn evictions(&self) -> u64 {
        self.stats.evictions
    }

    /// All lifetime counters at once.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident bytes across all cached clusters: a constant-time read
    /// per entry ([`LoadedCluster::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.cluster.resident_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SubCluster;
    use hnsw::HnswParams;
    use vecsim::gen;

    fn cluster(partition: u32) -> Arc<LoadedCluster> {
        let data = gen::uniform(4, 10, 0.0, 1.0, u64::from(partition)).unwrap();
        let ids: Vec<u32> = (0..10).collect();
        let sub = SubCluster::build(partition, data, ids, &HnswParams::new(4, 16)).unwrap();
        Arc::new(LoadedCluster::adopt(sub.to_bytes(), 0, false, None).unwrap())
    }

    #[test]
    fn get_after_put_hits() {
        let mut c = ClusterCache::new(4);
        c.put(7, cluster(7), 0);
        assert!(c.get(7).is_some());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.put(1, cluster(1), 0);
        c.get(0); // 0 is now more recent than 1
        c.put(2, cluster(2), 0); // evicts 1
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn put_reports_the_eviction_victim() {
        let mut c = ClusterCache::new(2);
        assert_eq!(c.put(0, cluster(0), 0), None);
        assert_eq!(c.put(1, cluster(1), 0), None);
        c.get(1); // 0 becomes the LRU
        assert_eq!(c.put(2, cluster(2), 0), Some(0));
        assert_eq!(c.put(2, cluster(2), 0), None, "refresh evicts nobody");
    }

    #[test]
    fn reinserting_resident_key_does_not_evict() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.put(1, cluster(1), 0);
        c.put(1, cluster(1), 0); // refresh, not grow
        assert_eq!(c.len(), 2);
        assert!(c.contains(0));
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let mut c = ClusterCache::new(0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.put(0, cluster(0), 1), None);
        assert!(c.is_empty());
        assert!(!c.contains(0));
        assert!(c.get(0).is_none());
        assert_eq!(c.evictions(), 0, "disabled cache never evicts");
        assert_eq!(c.version_of(0), None);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn entries_remember_their_load_version() {
        let mut c = ClusterCache::new(2);
        c.put(3, cluster(3), 17);
        assert_eq!(c.version_of(3), Some(17));
        assert_eq!(c.version_of(4), None);
        // A re-put at a newer version replaces the remembered one.
        c.put(3, cluster(3), 18);
        assert_eq!(c.version_of(3), Some(18));
        c.invalidate(3);
        assert_eq!(c.version_of(3), None);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = ClusterCache::new(2);
        c.put(3, cluster(3), 0);
        assert!(c.invalidate(3));
        assert!(!c.invalidate(3));
        assert!(c.get(3).is_none());
    }

    #[test]
    fn contains_does_not_perturb_lru() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.put(1, cluster(1), 0);
        assert!(c.contains(0)); // must NOT refresh 0
        c.put(2, cluster(2), 0); // evicts 0, the true LRU
        assert!(!c.contains(0));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn evictions_count_lru_pressure_only() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.put(1, cluster(1), 0);
        assert_eq!(c.evictions(), 0);
        c.put(2, cluster(2), 0); // LRU pressure
        assert_eq!(c.evictions(), 1);
        c.invalidate(2); // explicit drop: not an eviction
        c.clear(); // neither is a clear
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn pinned_entries_survive_lru_pressure() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.put(1, cluster(1), 0);
        assert!(c.pin(0), "resident entry pins");
        assert!(!c.pin(9), "absent entry does not");
        assert_eq!(c.pinned(), 1);
        // 0 is the LRU but pinned: pressure falls on 1 instead.
        assert_eq!(c.put(2, cluster(2), 0), Some(1));
        assert!(c.contains(0));
        c.unpin_all();
        assert_eq!(c.pinned(), 0);
        // With the pin released, 0 is evictable again.
        assert_eq!(c.put(3, cluster(3), 0), Some(0));
    }

    #[test]
    fn fully_pinned_cache_oversubscribes_then_settles() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.put(1, cluster(1), 0);
        c.pin(0);
        c.pin(1);
        // Everything is pinned: the put admits without a victim.
        assert_eq!(c.put(2, cluster(2), 0), None);
        c.pin(2);
        assert_eq!(c.len(), 3, "transient oversubscription");
        let evictions_before = c.evictions();
        let victims = c.settle();
        assert_eq!(c.len(), 2, "settle restores the capacity bound");
        assert_eq!(victims, vec![0], "LRU entry goes first");
        assert_eq!(c.evictions(), evictions_before + 1);
        assert_eq!(c.pinned(), 0);
    }

    #[test]
    fn put_preserves_the_pin_of_a_refreshed_entry() {
        let mut c = ClusterCache::new(2);
        c.put(0, cluster(0), 0);
        c.pin(0);
        c.put(0, cluster(0), 1); // reload at a newer version
        c.put(1, cluster(1), 0);
        // 0 is still pinned after the re-put: pressure must pick 1.
        assert_eq!(c.put(2, cluster(2), 0), Some(1));
        assert!(c.contains(0));
    }

    #[test]
    fn pins_on_a_disabled_cache_are_noops() {
        let mut c = ClusterCache::new(0);
        assert!(!c.pin(0));
        c.unpin_all();
        assert!(c.settle().is_empty());
        assert_eq!(c.pinned(), 0);
    }

    /// Resident bytes are each entry's serialized cluster plus its
    /// overflow extras — a constant-time read per entry, never a walk of
    /// its graph, because every telemetry flush sums them under the cache
    /// lock. Held against recomputation from the clusters' own oracle
    /// sizes across a random put / evict / invalidate / settle / clear
    /// sequence.
    #[test]
    fn resident_bytes_equal_recomputation_after_random_ops() {
        use crate::cluster::OverflowRecord;
        // Partition `p` in generation `g`: 5 + p + g rows, g overflow
        // inserts (and one for the group's other partition).
        let sized = |p: u32, g: usize| {
            let n = 5 + p as usize + g;
            let data = gen::uniform(4, n, 0.0, 1.0, u64::from(p)).unwrap();
            let sub = SubCluster::build(p, data, (0..n as u32).collect(), &HnswParams::new(4, 16));
            let sub = sub.unwrap();
            let rec = OverflowRecord::wire_size(4);
            let mut area = (((g + 1) * rec) as u64).to_le_bytes().to_vec();
            for j in 0..=g {
                let to = if j == g { p + 1 } else { p };
                area.extend(OverflowRecord::insert(to, 1_000 + j as u32, vec![0.5; 4]).to_bytes());
            }
            let want = sub.serialized_size() + g * (8 + 4 * 4);
            let loaded = LoadedCluster::from_remote(&sub.to_bytes(), &area).unwrap();
            assert_eq!(
                loaded.resident_bytes(),
                want,
                "no overflow area is resident"
            );
            (Arc::new(loaded), want)
        };
        let mut c = ClusterCache::new(3);
        assert_eq!(c.resident_bytes(), 0);
        let mut model: HashMap<u32, usize> = HashMap::new();
        let mut rng = 0x9E37_79B9u64;
        for step in 0..400 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (op, p) = ((rng >> 33) % 8, ((rng >> 40) % 6) as u32);
            match op {
                0..=3 => {
                    let (cluster, bytes) = sized(p, step % 3);
                    c.put(p, cluster, step as u64);
                    model.insert(p, bytes);
                }
                4 => drop(c.get(p)),
                5 => drop(c.pin(p)),
                6 => drop(c.invalidate(p)),
                _ if step % 50 == 49 => c.clear(),
                _ => drop(c.settle()),
            }
            model.retain(|p, _| c.contains(*p));
            assert_eq!(
                c.resident_bytes(),
                model.values().sum::<usize>(),
                "step {step}"
            );
        }
        assert!(
            c.evictions() > 0 && c.resident_bytes() > 0,
            "the sequence exercised nothing"
        );
    }
}
