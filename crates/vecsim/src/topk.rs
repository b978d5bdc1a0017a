//! Bounded top-k collection.
//!
//! [`TopK`] is a threshold reservoir over [`Neighbor`]s: it retains the
//! `k` smallest-distance entries seen so far, refusing whatever is past a
//! bound it tightens as closer candidates arrive. It is the shared
//! building block for the brute-force ground truth and d-HNSW's cluster
//! scans, whose inner loop it leaves a distance and one compare.

use std::cmp::Ordering;
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::Relaxed;

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
    // The k-th best as of the last compaction (`u64::MAX` before the
    // first): nothing past it can be among the k best, whatever comes.
    bound: u64,
    // Up to `SLOTS` x k candidates, none past `bound`, in arrival order,
    // as keys (see `key`). Every one of the k best so far is among them.
    held: Vec<u64>,
}

/// `(dist, id)` as one integer that orders as [`Neighbor`] does: the
/// distance's bits mapped as [`f32::total_cmp`] maps them (made unsigned)
/// above the id. An offer is then one compare, and selection runs over
/// plain integers.
#[inline]
fn key(id: u32, dist: f32) -> u64 {
    u64::from(order(dist)) << 32 | u64::from(id)
}

fn neighbor(key: u64) -> Neighbor {
    Neighbor::new(key as u32, unorder((key >> 32) as u32))
}

/// A distance as an unsigned integer that orders as [`f32::total_cmp`] does.
#[inline]
fn order(dist: f32) -> u32 {
    ordered(dist.to_bits()) ^ SIGN
}

fn unorder(bits: u32) -> f32 {
    f32::from_bits(ordered(bits ^ SIGN))
}

const SIGN: u32 = 1 << 31;

/// Flips every bit but the sign of a negative float's, so that integers
/// compare as the floats do; its own inverse.
#[inline]
fn ordered(bits: u32) -> u32 {
    bits ^ (((bits as i32) >> 31) as u32 >> 1)
}

/// Slots per unit of `k`. A compaction costs a selection over all of them
/// and buys `(SLOTS - 1) x k` admissions, and the staler bound a longer
/// wait means admits little more; a cluster of fewer rows than slots is
/// selected from once, at the end. Over a 300-row cluster at k = 42 an
/// offer read 7.5 ns at 2 slots per k, 5.1 at 3, 3.8 at 4 and 3.3 at 8
/// (by 2 000 rows, and at k = 10, they read alike); a `warm_hot` batch
/// (k = 10, ~250 rows) 8.0 ms at 2, 7.75 at 4, 7.46 at 8 and 7.68 at 16.
/// A constant, not a setting.
const SLOTS: usize = 8;

impl TopK {
    /// Creates a collector for the `k` nearest entries. `k == 0` collects
    /// nothing.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            bound: u64::MAX,
            held: Vec::with_capacity(SLOTS * k),
        }
    }

    /// Offers a candidate. `false` means it was refused: `k` closer ones
    /// have been seen. `true` means it is held for now — a threshold
    /// reservoir learns its bound only when its slots are full and a
    /// selection cuts them back to the best `k`, so a refusal costs one
    /// compare and an admission one store.
    #[inline]
    pub fn push(&mut self, id: u32, dist: f32) -> bool {
        let key = key(id, dist);
        if key > self.bound || self.k == 0 {
            return false;
        }
        self.held.push(key);
        if self.held.len() >= SLOTS * self.k {
            self.compact();
        }
        true
    }

    /// Cuts the held candidates back to the best `k`; the worst of those
    /// is the new bound.
    fn compact(&mut self) {
        if self.held.len() > self.k {
            self.bound = *self.held.select_nth_unstable(self.k - 1).1;
            self.held.truncate(self.k);
        }
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.held.len().min(self.k)
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Consumes the collector and returns neighbours sorted by ascending
    /// distance: the best `k` are selected first, so only they are sorted.
    pub fn into_sorted_vec(mut self) -> Vec<Neighbor> {
        self.compact();
        self.held.sort_unstable();
        self.held.into_iter().map(neighbor).collect()
    }

    /// Empties the collector and makes it one for the `k` nearest entries
    /// that refuses from the first offer whatever lies strictly past
    /// `dist`, keeping its allocation: a worker that collects probe after
    /// probe allocates once, for the largest `k` it has seen. An entry at
    /// `dist` itself is admitted under any id, so ties are left to the
    /// `(dist, id)` order; a NaN or +∞ `dist` bounds nothing. For a caller
    /// that already holds `k` entries at `dist` or closer elsewhere:
    /// nothing past it can be among the `k` best of both.
    pub fn reset_below(&mut self, k: usize, dist: f32) {
        self.k = k;
        self.bound = if dist < f32::INFINITY {
            key(u32::MAX, dist)
        } else {
            u64::MAX
        };
        self.held.clear();
        self.held.reserve(SLOTS * k);
    }

    /// Hands the held neighbours to `each` in no particular order — for a
    /// caller that orders them itself, under its own ids — and leaves the
    /// collector empty with its allocation in place.
    pub fn drain(&mut self, each: impl FnMut(Neighbor)) {
        self.compact();
        self.held.drain(..).map(neighbor).for_each(each);
        self.bound = u64::MAX;
    }
}

impl Extend<Neighbor> for TopK {
    fn extend<T: IntoIterator<Item = Neighbor>>(&mut self, iter: T) {
        for n in iter {
            self.push(n.id, n.dist);
        }
    }
}

/// A distance bound threads lower together: the closest distance it was
/// ever [lowered](SharedBound::lower) to, +∞ before that. It holds the
/// distance's total-order bits — [`TopK`]'s order, so negative distances
/// rank too — and lowers them with one relaxed fetch-min, so whatever a
/// thread reads is a distance some thread offered.
#[derive(Debug)]
pub struct SharedBound(AtomicU32);

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound(AtomicU32::new(order(f32::INFINITY)))
    }
}

impl SharedBound {
    /// Lowers the bound to `dist` if `dist` is closer.
    pub fn lower(&self, dist: f32) {
        self.0.fetch_min(order(dist), Relaxed);
    }

    /// The bound as last lowered.
    pub fn get(&self) -> f32 {
        unorder(self.0.load(Relaxed))
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
    fn ties_break_by_id_deterministically() {
        let mut t = TopK::new(2);
        t.push(7, 1.0);
        t.push(3, 1.0);
        t.push(5, 1.0);
        let ids: Vec<u32> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn push_refuses_only_what_k_closer_ones_rule_out() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 2.0));
        // Held until the slots are full; then the bound is learnt.
        for id in 1..SLOTS as u32 {
            assert!(t.push(id, 3.0));
        }
        assert!(!t.push(2, 3.0));
        assert!(
            !t.push(2, 2.0),
            "an equal distance under a later id is past (0, 2.0)"
        );
        assert!(t.push(3, 1.0));
        assert_eq!(t.into_sorted_vec(), [Neighbor::new(3, 1.0)]);
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

    /// What sorting everything and cutting at `k` would hold.
    fn sort_and_truncate(all: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut want = all.to_vec();
        want.sort();
        want.truncate(k);
        want
    }

    proptest! {
        /// Whatever the arrival order, ties and repeats included, the
        /// collector holds what sorting everything and cutting at `k`
        /// would. Of 1 200 offers over 320 distinct `(dist, id)` pairs most
        /// tie with or beat the bound, so the slots fill again and again;
        /// offers spread over the whole range fill them once or twice.
        #[test]
        fn matches_sort_and_truncate(
            k in 0usize..=64,
            offered in prop::collection::vec((0u32..40, 0u32..8), 0..1200),
            spread in prop::collection::vec((any::<u32>(), -1e9f32..1e9), 0..1200),
        ) {
            let narrow: Vec<Neighbor> = offered.iter().map(|&(id, d)| Neighbor::new(id, d as f32)).collect();
            let wide: Vec<Neighbor> = spread.iter().map(|&(id, d)| Neighbor::new(id, d)).collect();
            for all in [narrow, wide] {
                let mut top = TopK::new(k);
                top.extend(all.iter().copied());
                prop_assert_eq!(top.len(), k.min(all.len()));
                let mut unordered = top.clone();
                prop_assert_eq!(top.into_sorted_vec(), sort_and_truncate(&all, k));
                let mut seen = Vec::new();
                unordered.drain(|n| seen.push(n));
                seen.sort();
                prop_assert_eq!(seen, sort_and_truncate(&all, k));
            }
        }
    }

    #[test]
    fn monotone_constant_and_nan_laden_streams_match_the_sort() {
        const N: u32 = 64 * SLOTS as u32 * 4 + 52;
        let nan = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
        ];
        let streams: [Vec<Neighbor>; 4] = [
            (0..N).map(|i| Neighbor::new(i, i as f32)).collect(),
            // Every offer beats the bound: at k = 64 the slots fill four times.
            (0..N).map(|i| Neighbor::new(i, -(i as f32))).collect(),
            (0..N).map(|i| Neighbor::new(i % 7, 4.0)).collect(),
            (0..N)
                .map(|i| {
                    Neighbor::new(
                        i,
                        if i % 3 == 0 {
                            nan[i as usize % 6]
                        } else {
                            (i * 37 % 101) as f32 - 50.0
                        },
                    )
                })
                .collect(),
        ];
        for all in &streams {
            for k in [1, 2, 10, 42, 64, N as usize - 1, N as usize, N as usize + 1] {
                let mut top = TopK::new(k);
                top.extend(all.iter().copied());
                let got = top.into_sorted_vec();
                let want = sort_and_truncate(all, k);
                // NaNs are not `==` themselves: compare bits.
                let bits = |v: &[Neighbor]| {
                    v.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want), "k {k}");
            }
        }
    }

    #[test]
    fn a_reset_collector_is_a_new_one_in_the_old_allocation() {
        let stream = |n: u32| (0..n).map(|i| Neighbor::new(i, (i * 5 % 9) as f32));
        let mut t = TopK::new(4);
        t.extend(stream(9));
        let mut seen = Vec::new();
        t.drain(|n| seen.push(n));
        seen.sort();
        let mut fresh = TopK::new(4);
        fresh.extend(stream(9));
        assert_eq!(seen, fresh.into_sorted_vec());
        assert!(t.is_empty());

        // To a larger k and back to a smaller one: each time the new k
        // governs, nothing of the old bound or the old candidates is left,
        // and only growing allocates.
        t.reset_below(16, f32::INFINITY);
        let room = t.held.capacity();
        for k in [16, 2, 16, 0, 3] {
            t.reset_below(k, f32::INFINITY);
            t.extend(stream(100));
            let all: Vec<Neighbor> = stream(100).collect();
            seen.clear();
            t.drain(|n| seen.push(n));
            seen.sort();
            assert_eq!(seen, sort_and_truncate(&all, k), "k {k}");
            assert_eq!(t.held.capacity(), room, "nothing was reallocated");
        }
    }

    #[test]
    fn reset_below_refuses_strictly_past_the_bound_and_admits_ties() {
        let mut t = TopK::new(1);
        for bound in [2.0, -2.0] {
            t.reset_below(3, bound);
            assert!(!t.push(0, bound + 0.5), "past {bound}");
            assert!(!t.push(1, f32::INFINITY) && !t.push(2, f32::NAN));
            assert!(t.push(u32::MAX, bound), "a tie under any id is held");
            assert!(t.push(3, bound) && t.push(4, bound - 1.0));
            assert_eq!(
                t.clone().into_sorted_vec(),
                [(4, bound - 1.0), (3, bound), (u32::MAX, bound)].map(|(i, d)| Neighbor::new(i, d))
            );
            // The collector still learns a bound of its own below the seed.
            for id in 10..10 + 8 * SLOTS as u32 {
                t.push(id, bound - 2.0);
            }
            assert!(!t.push(5, bound - 1.5));
        }
    }

    #[test]
    fn reset_below_nan_or_infinity_bounds_nothing() {
        let mut t = TopK::new(2);
        for unbounded in [f32::INFINITY, f32::NAN, -f32::NAN] {
            t.reset_below(2, unbounded);
            assert!(t.push(0, f32::MAX) && t.push(1, f32::INFINITY) && t.push(2, f32::NAN));
            assert_eq!(t.len(), 2);
        }
        // -∞ is a bound like any other: only -∞ itself is held.
        t.reset_below(2, f32::NEG_INFINITY);
        assert!(!t.push(0, f32::MIN) && t.push(1, f32::NEG_INFINITY));
    }

    proptest! {
        /// A seeded collector holds what sorting everything at or within
        /// the seed and cutting at `k` would: the seed only refuses.
        #[test]
        fn reset_below_matches_the_sort_of_what_the_bound_admits(
            k in 0usize..=24,
            bound in -20.0f32..20.0,
            offered in prop::collection::vec((0u32..40, 0u32..40), 0..600),
        ) {
            // Whole distances either side of zero: ties with each other,
            // and with a whole bound, are common.
            let bound = bound.round();
            let all: Vec<Neighbor> = offered.iter().map(|&(id, d)| Neighbor::new(id, d as f32 - 20.0)).collect();
            let mut top = TopK::new(0);
            top.reset_below(k, bound);
            top.extend(all.iter().copied());
            let within: Vec<Neighbor> = all.iter().copied().filter(|n| n.dist <= bound).collect();
            prop_assert_eq!(top.into_sorted_vec(), sort_and_truncate(&within, k));
        }
    }

    #[test]
    fn a_shared_bound_keeps_the_closest_distance_it_was_lowered_to() {
        let bound = SharedBound::default();
        assert_eq!(bound.get(), f32::INFINITY);
        bound.lower(f32::NAN);
        assert_eq!(bound.get(), f32::INFINITY, "NaN is past every distance");
        for (offered, held) in [
            (3.0, 3.0),
            (5.0, 3.0),
            (-0.0, -0.0),
            (0.0, -0.0),
            (-7.5, -7.5),
        ] {
            bound.lower(offered);
            assert_eq!(bound.get().to_bits(), f32::to_bits(held), "after {offered}");
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let bound = &bound;
                s.spawn(move || (0..100).for_each(|i| bound.lower(-(t * 100 + i) as f32)));
            }
        });
        assert_eq!(bound.get(), -399.0);
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
