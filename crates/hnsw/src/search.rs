//! Layer search primitives: greedy descent and beam (ef) search.

use vecsim::{Metric, Neighbor};

use crate::graph::GraphView;
use crate::SearchStats;

/// Reusable visited-set with O(1) clear via epoch stamping.
///
/// A plain `Vec<u32>` of epoch stamps: a node is visited in the current
/// search iff its stamp equals the current epoch. Bumping the epoch resets
/// the whole set without touching memory.
#[derive(Debug, Default, Clone)]
pub(crate) struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// Begins a new search over `n` nodes; previous marks are forgotten.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped around: stale stamps could collide, so clear.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Marks `id` visited; returns `true` if it was not visited before.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Counters describing the work one search performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerStats {
    /// Number of distance evaluations.
    pub dist_evals: u64,
    /// Number of graph hops (neighbour expansions).
    pub hops: u64,
}

/// An index as a search reads it, all of it borrowed: the adjacency,
/// the row-major vectors, and the handful of scalars a walk starts from.
/// [`crate::HnswIndex::view`] lends one over an owned index,
/// [`crate::serialize::Layout::view`] over the words of a serialized
/// blob that was never decoded; every search runs on this type.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    pub(crate) graph: GraphView<'a>,
    pub(crate) rows: &'a [f32],
    pub(crate) dim: usize,
    pub(crate) entry: Option<u32>,
    pub(crate) max_level: usize,
    pub(crate) metric: Metric,
}

impl<'a> IndexView<'a> {
    /// The stored vector for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn vector(&self, id: u32) -> &'a [f32] {
        let start = id as usize * self.dim;
        &self.rows[start..start + self.dim]
    }

    /// The distance function the index was built under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The search behind every other search signature: walks with the
    /// caller's `scratch` and returns a view of its output buffer, so a
    /// worker that keeps one scratch searches without locking or
    /// allocating. An `ef` of zero returns nothing without walking.
    pub fn search_in<'s>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        scratch: &'s mut SearchScratch,
        stats: &mut SearchStats,
    ) -> &'s [Neighbor] {
        let Some(entry) = self.entry else {
            return &[];
        };
        if query.len() != self.dim || k == 0 || ef == 0 {
            return &[];
        }

        let mut layer_stats = LayerStats::default();
        let dist = |id| self.metric.distance(query, self.vector(id));
        let mut cur = entry;
        let mut cur_dist = dist(cur);
        layer_stats.dist_evals += 1;

        for layer in (1..=self.max_level).rev() {
            (cur, cur_dist) =
                greedy_descend_layer(&self.graph, dist, cur, cur_dist, layer, &mut layer_stats);
        }

        let eps = [Neighbor::new(cur, cur_dist)];
        search_layer(&self.graph, dist, &eps, ef, 0, scratch, &mut layer_stats);
        stats.dist_evals += layer_stats.dist_evals;
        stats.hops += layer_stats.hops;
        &scratch.out[..k.min(scratch.out.len())]
    }
}

/// Greedy descent on one layer: repeatedly move to the closest neighbour
/// until no neighbour improves. This is the `ef = 1` search used on the
/// upper layers. Returns the local minimum and its distance.
///
/// `dist(id)` is the query's distance to node `id`: computed for a search,
/// read from a table or computed for a build ([`crate::build`]), one
/// monomorphised walk per source.
pub(crate) fn greedy_descend_layer(
    graph: &GraphView<'_>,
    dist: impl Fn(u32) -> f32,
    mut current: u32,
    mut current_dist: f32,
    layer: usize,
    stats: &mut LayerStats,
) -> (u32, f32) {
    loop {
        let mut improved = false;
        for &nb in graph.neighbors(current, layer) {
            stats.hops += 1;
            let d = dist(nb);
            stats.dist_evals += 1;
            if d < current_dist {
                current = nb;
                current_dist = d;
                improved = true;
            }
        }
        if !improved {
            return (current, current_dist);
        }
    }
}

/// Everything a search mutates besides its counters: the visited set,
/// the candidate pool and the output buffer. One per worker, reused
/// from probe to probe, so a search neither locks nor allocates once
/// the buffers have grown to the largest graph and `ef` it has seen.
#[derive(Debug, Default)]
pub struct SearchScratch {
    visited: VisitedSet,
    /// Ascending by `Neighbor`; the flag marks entries already expanded.
    pool: Vec<(Neighbor, bool)>,
    pub(crate) out: Vec<Neighbor>,
}

thread_local! {
    static LOCAL_SCRATCH: std::cell::RefCell<SearchScratch> = Default::default();
}

impl SearchScratch {
    /// Runs `f` with the calling thread's own scratch — what the
    /// scratch-less convenience signatures search with.
    ///
    /// # Panics
    ///
    /// Panics if `f` itself calls `with_local` (the scratch is
    /// borrowed for the duration of `f`).
    pub fn with_local<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
        LOCAL_SCRATCH.with_borrow_mut(f)
    }

    /// Inserts `n` at its sorted position, then drops every entry past
    /// the `ef`-th that is farther than the `ef`-th. Entries that tie
    /// with it stay: they are not results, but the walk still expands
    /// them, as the two-heap formulation does for a candidate that is
    /// exactly as far as the worst result.
    #[inline]
    fn admit(&mut self, n: Neighbor, ef: usize) -> usize {
        let at = self.pool.partition_point(|(e, _)| *e < n);
        self.pool.insert(at, (n, false));
        while self.pool.len() > ef
            && self.pool[self.pool.len() - 1].0.dist > self.pool[ef - 1].0.dist
        {
            self.pool.pop();
        }
        at
    }
}

/// Beam search on one layer (Algorithm 2 of the paper) over one
/// ascending pool whose first `ef` entries are the results so far:
/// expand the closest entry not yet expanded, insert each unvisited
/// neighbour that beats the `ef`-th at its sorted position, stop when
/// every pooled entry has been expanded.
///
/// Leaves up to `ef` nearest entries in `scratch.out`, sorted ascending.
/// `dist` is as for [`greedy_descend_layer`].
pub(crate) fn search_layer(
    graph: &GraphView<'_>,
    dist: impl Fn(u32) -> f32,
    entry_points: &[Neighbor],
    ef: usize,
    layer: usize,
    scratch: &mut SearchScratch,
    stats: &mut LayerStats,
) {
    scratch.out.clear();
    if ef == 0 {
        return;
    }
    scratch.visited.reset(graph.len());
    scratch.pool.clear();

    for &ep in entry_points {
        if scratch.visited.insert(ep.id) {
            scratch.admit(ep, ef);
        }
    }

    // Entries before `next` are all expanded.
    let mut next = 0;
    while next < scratch.pool.len() {
        if scratch.pool[next].1 {
            next += 1;
            continue;
        }
        scratch.pool[next].1 = true;
        let current = scratch.pool[next].0.id;
        next += 1;
        for &nb in graph.neighbors(current, layer) {
            stats.hops += 1;
            if !scratch.visited.insert(nb) {
                continue;
            }
            let d = dist(nb);
            stats.dist_evals += 1;
            if scratch.pool.len() < ef || d < scratch.pool[ef - 1].0.dist {
                next = next.min(scratch.admit(Neighbor::new(nb, d), ef));
            }
        }
    }

    scratch
        .out
        .extend(scratch.pool.iter().take(ef).map(|(n, _)| *n));
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::graph::Graph;
    use proptest::prelude::*;
    use vecsim::Dataset;

    /// `graph` over `data` under L2, single layer, entered anywhere.
    fn view_of<'a>(graph: &'a Graph, data: &'a Dataset) -> IndexView<'a> {
        IndexView {
            graph: graph.view(),
            rows: data.as_flat(),
            dim: data.dim(),
            entry: graph.entry,
            max_level: graph.max_level,
            metric: Metric::L2,
        }
    }

    /// The two-heap beam search `search_layer` replaced (a min-heap of
    /// candidates to expand, a max-heap of the `ef` best results), kept
    /// as the reference the pool version is tested against.
    fn search_layer_two_heaps(
        graph: &Graph,
        data: &Dataset,
        query: &[f32],
        entry_points: &[Neighbor],
        ef: usize,
        stats: &mut LayerStats,
    ) -> Vec<Neighbor> {
        let mut visited = VisitedSet::default();
        visited.reset(graph.len());
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        let mut results: BinaryHeap<Neighbor> = BinaryHeap::new();
        for &ep in entry_points {
            if visited.insert(ep.id) {
                candidates.push(Reverse(ep));
                results.push(ep);
                if results.len() > ef {
                    results.pop();
                }
            }
        }
        while let Some(Reverse(c)) = candidates.pop() {
            let worst = results.peek().map_or(f32::INFINITY, |n| n.dist);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            for &nb in graph.neighbors(c.id, 0) {
                stats.hops += 1;
                if !visited.insert(nb) {
                    continue;
                }
                let d = Metric::L2.distance(query, data.get(nb as usize));
                stats.dist_evals += 1;
                let worst = results.peek().map_or(f32::INFINITY, |n| n.dist);
                if results.len() < ef || d < worst {
                    let n = Neighbor::new(nb, d);
                    candidates.push(Reverse(n));
                    results.push(n);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out = results.into_vec();
        out.sort();
        out
    }

    /// `search_layer` on layer 0 under L2 with a fresh scratch.
    fn pool_search(
        graph: &Graph,
        data: &Dataset,
        query: &[f32],
        entry_points: &[Neighbor],
        ef: usize,
        stats: &mut LayerStats,
    ) -> Vec<Neighbor> {
        let mut scratch = SearchScratch::default();
        let index = view_of(graph, data);
        let dist = |id| Metric::L2.distance(query, index.vector(id));
        search_layer(&index.graph, dist, entry_points, ef, 0, &mut scratch, stats);
        scratch.out
    }

    /// A random directed single-layer graph over `rows`: node `i` links
    /// to `links[i]` (taken modulo the node count, self-links dropped).
    fn random_graph(dim: usize, flat: &[f32], links: &[Vec<u32>]) -> (Graph, Dataset) {
        let n = (flat.len() / dim).min(links.len());
        let data = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
        let mut g = Graph::new(4, 4);
        for _ in 0..n {
            g.push_node(0);
        }
        for (i, list) in links[..n].iter().enumerate() {
            for &nb in list {
                let nb = nb % n as u32;
                if nb != i as u32 && !g.neighbors(i as u32, 0).contains(&nb) {
                    g.push_link(i as u32, 0, nb);
                }
            }
        }
        (g, data)
    }

    fn entry_points(data: &Dataset, query: &[f32], ids: &[u32]) -> Vec<Neighbor> {
        ids.iter()
            .map(|&id| id % data.len() as u32)
            .map(|id| Neighbor::new(id, Metric::L2.distance(query, data.get(id as usize))))
            .collect()
    }

    /// The pool walk *is* the two-heap walk: same output, same distance
    /// evaluations, same hops, for every beam width.
    fn assert_walks_agree(g: &Graph, data: &Dataset, query: &[f32], eps: &[u32]) {
        let eps = entry_points(data, query, eps);
        for ef in [1, 2, 8, 48, 200] {
            let (mut want_stats, mut got_stats) = (LayerStats::default(), LayerStats::default());
            let want = search_layer_two_heaps(g, data, query, &eps, ef, &mut want_stats);
            let got = pool_search(g, data, query, &eps, ef, &mut got_stats);
            assert_eq!(got, want, "ef {ef}");
            assert_eq!(got_stats, want_stats, "ef {ef}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pool_search_equals_the_two_heap_reference(
            dim in 1usize..=64,
            flat in prop::collection::vec(-100.0f32..100.0, 64..25_600),
            links in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..12), 1..400),
            eps in prop::collection::vec(any::<u32>(), 1..6),
            query in prop::collection::vec(-100.0f32..100.0, 64..65),
        ) {
            let (g, data) = random_graph(dim, &flat, &links);
            assert_walks_agree(&g, &data, &query[..dim], &eps);
        }

        /// Exact ties, which f32 distances produce even without
        /// duplicates: every vector sits on a small integer grid and is
        /// stored several times over, so candidates tie with the worst
        /// result all the time — the reference expands those after
        /// evicting them, and so must the pool.
        #[test]
        fn pool_search_equals_the_reference_under_exact_ties(
            dim in 1usize..=8,
            distinct_rows in prop::collection::vec(0u32..8, 8..160),
            copies in 2usize..6,
            links in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..12), 1..400),
            eps in prop::collection::vec(any::<u32>(), 1..6),
            query in prop::collection::vec(0u32..8, 8..9),
        ) {
            let flat: Vec<f32> = distinct_rows
                .chunks_exact(dim)
                .cycle()
                .take(distinct_rows.len() / dim * copies)
                .flatten()
                .map(|&x| x as f32)
                .collect();
            let (g, data) = random_graph(dim, &flat, &links);
            let query: Vec<f32> = query[..dim].iter().map(|&x| x as f32).collect();
            assert_walks_agree(&g, &data, &query, &eps);
        }
    }

    /// A tiny hand-built single-layer graph: a path 0-1-2-3 with vectors on
    /// a line, so greedy search from 0 must walk to the far end.
    fn line_graph() -> (Graph, Dataset) {
        let mut g = Graph::new(8, 4);
        for _ in 0..4 {
            g.push_node(0);
        }
        let edges = [(0u32, 1u32), (1, 2), (2, 3)];
        for (a, b) in edges {
            g.push_link(a, 0, b);
            g.push_link(b, 0, a);
        }
        let data = Dataset::from_rows(&[[0.0f32], [1.0], [2.0], [3.0]]).unwrap();
        (g, data)
    }

    #[test]
    fn greedy_walks_to_local_minimum() {
        let (g, data) = line_graph();
        let q = [2.9f32];
        let d0 = Metric::L2.distance(&q, data.get(0));
        let mut stats = LayerStats::default();
        let index = view_of(&g, &data);
        let to_q = |id| Metric::L2.distance(&q, index.vector(id));
        let (id, dist) = greedy_descend_layer(&index.graph, to_q, 0, d0, 0, &mut stats);
        assert_eq!(id, 3);
        assert!(dist < 0.02);
        assert!(stats.dist_evals > 0);
    }

    #[test]
    fn search_layer_finds_all_on_connected_graph() {
        let (g, data) = line_graph();
        let q = [1.4f32];
        let eps = entry_points(&data, &q, &[0]);
        let out = pool_search(&g, &data, &q, &eps, 4, &mut LayerStats::default());
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 0, 3]);
    }

    #[test]
    fn search_layer_respects_ef_bound() {
        let (g, data) = line_graph();
        let q = [0.0f32];
        let eps = entry_points(&data, &q, &[3]);
        let out = pool_search(&g, &data, &q, &eps, 2, &mut LayerStats::default());
        assert_eq!(out.len(), 2);
        assert!(out[0].dist <= out[1].dist);
    }

    #[test]
    fn zero_ef_returns_nothing_without_walking() {
        let (g, data) = line_graph();
        let q = [0.0f32];
        let eps = entry_points(&data, &q, &[3]);
        let mut stats = LayerStats::default();
        assert!(pool_search(&g, &data, &q, &eps, 0, &mut stats).is_empty());
        assert_eq!(stats, LayerStats::default());
    }

    #[test]
    fn a_reused_scratch_forgets_the_previous_search() {
        let (g, data) = line_graph();
        let mut scratch = SearchScratch::default();
        for (q, ef, want) in [([3.0f32], 4, vec![3, 2, 1, 0]), ([0.0], 2, vec![0, 1])] {
            let eps = entry_points(&data, &q, &[0]);
            let mut stats = LayerStats::default();
            let index = view_of(&g, &data);
            search_layer(
                &index.graph,
                |id| Metric::L2.distance(&q, index.vector(id)),
                &eps,
                ef,
                0,
                &mut scratch,
                &mut stats,
            );
            let ids: Vec<u32> = scratch.out.iter().map(|n| n.id).collect();
            assert_eq!(ids, want);
        }
    }

    #[test]
    fn visited_set_epochs_reset_without_clearing() {
        let mut v = VisitedSet::default();
        v.reset(4);
        assert!(v.insert(2));
        assert!(!v.insert(2));
        v.reset(4);
        assert!(v.insert(2), "new epoch forgets old marks");
    }

    #[test]
    fn visited_set_survives_epoch_wraparound() {
        let mut v = VisitedSet::default();
        v.reset(2);
        v.epoch = u32::MAX; // force wrap on next reset
        v.insert(0);
        v.reset(2);
        assert!(v.insert(0));
        assert!(!v.insert(0));
    }

    #[test]
    fn duplicate_entry_points_are_deduplicated() {
        let (g, data) = line_graph();
        let q = [0.0f32];
        let ep = entry_points(&data, &q, &[0])[0];
        let out = pool_search(&g, &data, &q, &[ep, ep, ep], 4, &mut LayerStats::default());
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
