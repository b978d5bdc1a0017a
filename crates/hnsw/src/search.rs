//! Layer search primitives: greedy descent and beam (ef) search.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vecsim::{Dataset, Metric, Neighbor};

use crate::graph::Graph;

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

/// Greedy descent on one layer: repeatedly move to the closest neighbour
/// until no neighbour improves. This is the `ef = 1` search used on the
/// upper layers. Returns the local minimum and its distance.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_descend_layer(
    graph: &Graph,
    data: &Dataset,
    metric: Metric,
    query: &[f32],
    mut current: u32,
    mut current_dist: f32,
    layer: usize,
    stats: &mut LayerStats,
) -> (u32, f32) {
    loop {
        let mut improved = false;
        for &nb in graph.neighbors(current, layer) {
            stats.hops += 1;
            let d = metric.distance(query, data.get(nb as usize));
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

/// Beam search on one layer (Algorithm 2 of the paper): maintains `ef`
/// dynamic candidates, expands the closest unexpanded candidate until the
/// closest candidate is farther than the worst of the `ef` best results.
///
/// Returns up to `ef` nearest entries, sorted ascending by distance.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_layer(
    graph: &Graph,
    data: &Dataset,
    metric: Metric,
    query: &[f32],
    entry_points: &[Neighbor],
    ef: usize,
    layer: usize,
    visited: &mut VisitedSet,
    stats: &mut LayerStats,
) -> Vec<Neighbor> {
    visited.reset(graph.len());

    // Min-heap of candidates to expand; max-heap of current best results.
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
        let worst = results
            .peek()
            .map(|n| n.dist)
            .unwrap_or(f32::INFINITY);
        if c.dist > worst && results.len() >= ef {
            break;
        }
        for &nb in graph.neighbors(c.id, layer) {
            stats.hops += 1;
            if !visited.insert(nb) {
                continue;
            }
            let d = metric.distance(query, data.get(nb as usize));
            stats.dist_evals += 1;
            let worst = results
                .peek()
                .map(|n| n.dist)
                .unwrap_or(f32::INFINITY);
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

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::Dataset;

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
        let (id, dist) =
            greedy_descend_layer(&g, &data, Metric::L2, &q, 0, d0, 0, &mut stats);
        assert_eq!(id, 3);
        assert!(dist < 0.02);
        assert!(stats.dist_evals > 0);
    }

    #[test]
    fn search_layer_finds_all_on_connected_graph() {
        let (g, data) = line_graph();
        let q = [1.4f32];
        let mut visited = VisitedSet::default();
        let mut stats = LayerStats::default();
        let ep = Neighbor::new(0, Metric::L2.distance(&q, data.get(0)));
        let out = search_layer(
            &g, &data, Metric::L2, &q, &[ep], 4, 0, &mut visited, &mut stats,
        );
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 0, 3]);
    }

    #[test]
    fn search_layer_respects_ef_bound() {
        let (g, data) = line_graph();
        let q = [0.0f32];
        let mut visited = VisitedSet::default();
        let mut stats = LayerStats::default();
        let ep = Neighbor::new(3, Metric::L2.distance(&q, data.get(3)));
        let out = search_layer(
            &g, &data, Metric::L2, &q, &[ep], 2, 0, &mut visited, &mut stats,
        );
        assert_eq!(out.len(), 2);
        assert!(out[0].dist <= out[1].dist);
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
        let mut visited = VisitedSet::default();
        let mut stats = LayerStats::default();
        let ep = Neighbor::new(0, Metric::L2.distance(&q, data.get(0)));
        let out = search_layer(
            &g, &data, Metric::L2, &q, &[ep, ep, ep], 4, 0, &mut visited, &mut stats,
        );
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
