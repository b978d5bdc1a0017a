//! Bounded top-k collection.
//!
//! [`TopK`] is a size-bounded max-heap over [`Neighbor`]s: it retains the
//! `k` smallest-distance entries seen so far, evicting the current worst
//! when a closer candidate arrives. It is the shared building block for the
//! brute-force ground truth, HNSW's result collection, and d-HNSW's
//! cross-partition candidate merging.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate neighbour: vector id plus its distance to the query.
///
/// Ordering is total: by distance (via [`f32::total_cmp`]) and then by id,
/// so `Neighbor` can live in heaps and be sorted deterministically even in
/// the presence of ties.
///
/// # Example
///
/// ```rust
/// use vecsim::Neighbor;
///
/// let mut v = vec![Neighbor::new(2, 0.5), Neighbor::new(1, 0.25)];
/// v.sort();
/// assert_eq!(v[0].id, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the vector within its dataset.
    pub id: u32,
    /// Distance from the query under the active metric.
    pub dist: f32,
}

impl Neighbor {
    /// Creates a neighbour record.
    pub fn new(id: u32, dist: f32) -> Self {
        Neighbor { id, dist }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A bounded collection of the `k` nearest neighbours seen so far.
///
/// # Example
///
/// ```rust
/// use vecsim::TopK;
///
/// let mut top = TopK::new(2);
/// top.push(0, 3.0);
/// top.push(1, 1.0);
/// top.push(2, 2.0);
/// let out = top.into_sorted_vec();
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].id, 1);
/// assert_eq!(out[1].id, 2);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Max-heap: the root is the *worst* of the current best-k, so a new
    // candidate only has to beat the root.
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a collector for the `k` nearest entries. `k == 0` collects
    /// nothing.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers a candidate; keeps it only if it is among the best `k` so far.
    /// Returns `true` when the candidate was retained.
    #[inline]
    pub fn push(&mut self, id: u32, dist: f32) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Neighbor::new(id, dist));
            return true;
        }
        let mut worst = self
            .heap
            .peek_mut()
            .expect("heap is non-empty when len == k > 0");
        if Neighbor::new(id, dist) < *worst {
            // Overwriting the root sifts once, when the guard drops.
            *worst = Neighbor::new(id, dist);
            true
        } else {
            false
        }
    }

    /// The current worst retained distance, i.e. the threshold a new
    /// candidate must beat once the collector is full. `None` while fewer
    /// than `k` candidates have been offered.
    pub fn threshold(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|n| n.dist)
        }
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector and returns neighbours sorted by ascending
    /// distance.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort();
        v
    }

    /// Empties the collector and makes it one for the `k` nearest
    /// entries, keeping its allocation: a worker that collects probe after
    /// probe allocates once, for the largest `k` it has seen.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k + 1);
    }

    /// Hands the held neighbours to `each` by ascending distance — the
    /// order of [`TopK::into_sorted_vec`] — and leaves the collector empty
    /// with its allocation in place.
    pub fn drain_sorted(&mut self, each: impl FnMut(Neighbor)) {
        let mut sorted = std::mem::take(&mut self.heap).into_sorted_vec();
        sorted.drain(..).for_each(each);
        self.heap = sorted.into();
    }
}

impl Extend<Neighbor> for TopK {
    fn extend<T: IntoIterator<Item = Neighbor>>(&mut self, iter: T) {
        for n in iter {
            self.push(n.id, n.dist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_only_k_best() {
        let mut t = TopK::new(3);
        for (id, d) in [(0, 9.0), (1, 1.0), (2, 8.0), (3, 2.0), (4, 3.0)] {
            t.push(id, d);
        }
        let out = t.into_sorted_vec();
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut t = TopK::new(0);
        assert!(!t.push(0, 1.0));
        assert!(t.is_empty());
        assert!(t.into_sorted_vec().is_empty());
    }

    #[test]
    fn threshold_none_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        t.push(0, 5.0);
        assert_eq!(t.threshold(), None);
        t.push(1, 3.0);
        assert_eq!(t.threshold(), Some(5.0));
        t.push(2, 1.0);
        assert_eq!(t.threshold(), Some(3.0));
    }

    #[test]
    fn ties_break_by_id_deterministically() {
        let mut t = TopK::new(2);
        t.push(7, 1.0);
        t.push(3, 1.0);
        t.push(5, 1.0);
        let ids: Vec<u32> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn push_returns_whether_candidate_was_kept() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 2.0));
        assert!(!t.push(1, 3.0));
        assert!(t.push(2, 1.0));
    }

    #[test]
    fn handles_nan_via_total_order_without_panicking() {
        let mut t = TopK::new(2);
        t.push(0, f32::NAN);
        t.push(1, 1.0);
        t.push(2, 0.5);
        // NaN sorts greater than every real number under total_cmp, so it
        // gets evicted.
        let ids: Vec<u32> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    proptest! {
        /// Whatever the arrival order, ties and repeats included, the
        /// collector holds what sorting everything and cutting at `k`
        /// would.
        #[test]
        fn matches_sort_and_truncate(
            k in 0usize..12,
            offered in prop::collection::vec((0u32..40, 0u32..8), 0..120),
        ) {
            let all: Vec<Neighbor> = offered.iter().map(|&(id, d)| Neighbor::new(id, d as f32)).collect();
            let mut top = TopK::new(k);
            top.extend(all.iter().copied());
            let mut want = all;
            want.sort();
            want.truncate(k);
            prop_assert_eq!(top.into_sorted_vec(), want);
        }
    }

    #[test]
    fn a_reset_collector_is_a_new_one_in_the_old_allocation() {
        let mut t = TopK::new(4);
        t.extend((0..9).map(|i| Neighbor::new(i, (i * 5 % 9) as f32)));
        let mut seen = Vec::new();
        t.drain_sorted(|n| seen.push(n));
        let mut fresh = TopK::new(4);
        fresh.extend((0..9).map(|i| Neighbor::new(i, (i * 5 % 9) as f32)));
        assert_eq!(seen, fresh.into_sorted_vec());
        assert!(t.is_empty());

        let room = t.heap.capacity();
        t.reset(2);
        t.extend([Neighbor::new(7, 3.0), Neighbor::new(8, 1.0), Neighbor::new(9, 2.0)]);
        assert_eq!(t.threshold(), Some(2.0), "the new k governs");
        t.drain_sorted(|n| seen.push(n));
        assert_eq!(seen[4..], [Neighbor::new(8, 1.0), Neighbor::new(9, 2.0)]);
        assert_eq!(t.heap.capacity(), room, "nothing was reallocated");
    }

    #[test]
    fn extend_merges_candidate_streams() {
        let mut t = TopK::new(2);
        t.extend([Neighbor::new(0, 4.0), Neighbor::new(1, 2.0)]);
        t.extend([Neighbor::new(2, 3.0)]);
        let ids: Vec<u32> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }
}
