//! Construction: level sampling, linking a node into the graph, and the
//! neighbour-selection heuristic (Algorithm 4 of the HNSW paper), all
//! reading `distance(a, b)` between stored rows from one source — a
//! [`PairTable`] computed once for the whole build, or the metric itself.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::Rng;

use vecsim::{Dataset, Metric, Neighbor, QueryBlock};

use crate::graph::Graph;
use crate::search::{greedy_descend_layer, search_layer, LayerStats, SearchScratch};
use crate::HnswParams;

/// Samples a node level from the geometric distribution
/// `l = floor(-ln(U) * mL)`, optionally capped.
pub(crate) fn sample_level(rng: &mut StdRng, lambda: f64, cap: Option<usize>) -> usize {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let l = (-u.ln() * lambda).floor() as usize;
    match cap {
        Some(c) => l.min(c),
        None => l,
    }
}

/// Most rows a build keeps a [`PairTable`] for, 8 MiB of it: the fill grows
/// with the rows and the evaluations it saves barely do, and near 4 000
/// rows they cancel (DESIGN.md §5m).
const TABLE_ROWS: usize = 2048;

/// Queries the table's fill lays out at a time: four 8-query tiles, so each
/// row is read once per 32 queries.
const FILL_BLOCK: usize = 32;

/// `distance(a, b)` of every pair of a build's rows, computed once by the
/// row × block kernel: the lower triangle, row `a` holding its distances
/// to rows `0..=a`. The metrics are symmetric to the bit, so a pair's
/// entry serves both argument orders.
pub(crate) struct PairTable {
    dists: Vec<f32>,
}

impl PairTable {
    /// The table of `data`'s rows under `metric`; `None` past [`TABLE_ROWS`].
    pub(crate) fn of(data: &Dataset, metric: Metric) -> Option<Self> {
        let n = data.len();
        if n > TABLE_ROWS {
            return None;
        }
        let mut dists = vec![0.0; n * (n + 1) / 2];
        let mut block = QueryBlock::default();
        let mut queries = Vec::with_capacity(FILL_BLOCK);
        for start in (0..n).step_by(FILL_BLOCK) {
            let end = (start + FILL_BLOCK).min(n);
            queries.clear();
            queries.extend((start..end).map(|a| data.get(a)));
            block.load(metric, &queries);
            for b in 0..end {
                let row = block.distances(data.get(b), &queries);
                for a in start.max(b)..end {
                    dists[a * (a + 1) / 2 + b] = row[a - start];
                }
            }
        }
        Some(PairTable { dists })
    }

    /// `distance(a, b)`, read.
    #[inline]
    pub(crate) fn get(&self, a: u32, b: u32) -> f32 {
        let (hi, lo) = (a.max(b) as usize, a.min(b) as usize);
        self.dists[hi * (hi + 1) / 2 + lo]
    }
}

/// `distance(row a, row b)` of `data`, computed.
pub(crate) fn computed(metric: Metric) -> impl Fn(&Dataset, u32, u32) -> f32 + Copy {
    move |data, a, b| metric.distance(data.get(a as usize), data.get(b as usize))
}

/// Everything linking a node mutates besides the graph, grown once and
/// reused by every insert of the thread, so linking does not allocate.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    search: SearchScratch,
    /// The current layer's beam: the next layer's entry points.
    eps: Vec<Neighbor>,
    /// The new node's neighbours on the current layer.
    links: Vec<u32>,
    /// A list being shrunk, by distance to its node, and what it keeps.
    shrunk: Vec<Neighbor>,
    kept: Vec<u32>,
    heuristic: Heuristic,
}

thread_local! {
    static LOCAL_BUILD: RefCell<BuildScratch> = Default::default();
}

impl BuildScratch {
    /// Runs `f` with the calling thread's own build scratch.
    pub(crate) fn with_local<R>(f: impl FnOnce(&mut BuildScratch) -> R) -> R {
        LOCAL_BUILD.with_borrow_mut(f)
    }

    /// Pushes a node at `level` and links it: greedy descent above its
    /// level from the graph's old top, then on each of its layers a beam
    /// search, the heuristic's choice of neighbours, links both ways and a
    /// shrink of every list pushed past its cap. `pairs(a, b)` is
    /// `distance(row a, row b)`; the new node's row is the graph's next.
    pub(crate) fn link(
        &mut self,
        graph: &mut Graph,
        params: &HnswParams,
        level: usize,
        pairs: impl Fn(u32, u32) -> f32 + Copy,
    ) {
        let (prev_entry, prev_max) = (graph.entry, graph.max_level);
        let id = graph.push_node(level);
        let Some(entry) = prev_entry else {
            return; // first node: nothing to link
        };
        let dist = |nb| pairs(id, nb);
        let mut stats = LayerStats::default();
        let (mut cur, mut cur_dist) = (entry, dist(entry));
        for layer in ((level + 1)..=prev_max).rev() {
            (cur, cur_dist) =
                greedy_descend_layer(&graph.view(), dist, cur, cur_dist, layer, &mut stats);
        }
        self.eps.clear();
        self.eps.push(Neighbor::new(cur, cur_dist));
        let (ef, m) = (params.ef_construction(), params.m());
        for layer in (0..=level.min(prev_max)).rev() {
            search_layer(
                &graph.view(),
                dist,
                &self.eps,
                ef,
                layer,
                &mut self.search,
                &mut stats,
            );
            std::mem::swap(&mut self.eps, &mut self.search.out);
            // Taken out while the lists it names are shrunk.
            let mut links = std::mem::take(&mut self.links);
            links.clear();
            links.extend(self.heuristic.select(pairs, &self.eps, m));
            let cap = if layer == 0 { params.m0() } else { m };
            for &nb in &links {
                graph.push_link(id, layer, nb);
                graph.push_link(nb, layer, id);
                self.shrink_if_needed(graph, nb, layer, cap, pairs);
            }
            self.links = links;
        }
    }

    /// Re-selects `node`'s neighbour list on `layer` when it exceeds `cap`.
    fn shrink_if_needed(
        &mut self,
        graph: &mut Graph,
        node: u32,
        layer: usize,
        cap: usize,
        pairs: impl Fn(u32, u32) -> f32 + Copy,
    ) {
        let list = graph.neighbors(node, layer);
        if list.len() <= cap {
            return;
        }
        self.shrunk.clear();
        self.shrunk
            .extend(list.iter().map(|&nb| Neighbor::new(nb, pairs(node, nb))));
        self.shrunk.sort_unstable();
        self.kept.clear();
        self.kept
            .extend(self.heuristic.select(pairs, &self.shrunk, cap));
        graph.set_neighbors(node, layer, &self.kept);
    }
}

/// Algorithm 4's working lists.
#[derive(Debug, Default)]
pub(crate) struct Heuristic {
    selected: Vec<Neighbor>,
    discarded: Vec<Neighbor>,
}

impl Heuristic {
    /// Algorithm 4: selects up to `m` diverse neighbours from `candidates`
    /// (sorted ascending by distance to the inserted point) and yields
    /// their ids, ascending by that distance.
    ///
    /// A candidate is kept only if it is closer to the query than to every
    /// already-selected neighbour — this prunes redundant edges that point
    /// into the same region and is what gives HNSW graphs their
    /// navigability. The discarded candidates then backfill the result up
    /// to `m` (`keepPrunedConnections` on); the candidate set is never
    /// extended by the candidates' own neighbours (`extendCandidates` off).
    pub(crate) fn select(
        &mut self,
        pairs: impl Fn(u32, u32) -> f32,
        candidates: &[Neighbor],
        m: usize,
    ) -> impl Iterator<Item = u32> + '_ {
        self.selected.clear();
        self.discarded.clear();
        for &cand in candidates {
            if self.selected.len() >= m {
                break;
            }
            // Keep `cand` iff it is closer to the query than to any
            // already selected neighbour.
            let dominated = self
                .selected
                .iter()
                .any(|s| pairs(cand.id, s.id) < cand.dist);
            if dominated {
                self.discarded.push(cand);
            } else {
                self.selected.push(cand);
            }
        }
        let room = m - self.selected.len();
        self.selected
            .extend(self.discarded.iter().take(room).copied());
        // Ids are distinct, so no two entries compare equal and the
        // unstable sort is the stable one.
        self.selected.sort_unstable();
        self.selected.iter().map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Algorithm 4 over `data`'s rows under L2, its distances computed.
    fn select_neighbors_heuristic(data: &Dataset, cands: &[Neighbor], m: usize) -> Vec<u32> {
        let pairs = |a, b| computed(Metric::L2)(data, a, b);
        Heuristic::default().select(pairs, cands, m).collect()
    }

    #[test]
    fn sample_level_respects_cap() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let l = sample_level(&mut rng, 1.0 / 16f64.ln(), Some(2));
            assert!(l <= 2);
        }
    }

    #[test]
    fn sample_level_distribution_is_geometric_ish() {
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 1.0 / 16f64.ln();
        let n = 100_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            let l = sample_level(&mut rng, lambda, None).min(7);
            counts[l] += 1;
        }
        // P(level 0) = 1 - e^{-1/λ}... for mL = 1/ln16, P(l >= 1) = 1/16.
        let frac_l0 = counts[0] as f64 / n as f64;
        assert!((frac_l0 - 15.0 / 16.0).abs() < 0.01, "P(l=0) was {frac_l0}");
        assert!(counts[1] > counts[2]);
    }

    /// On a square of points, the heuristic should keep direction-diverse
    /// neighbours rather than all candidates crowded on one side.
    #[test]
    fn heuristic_prefers_diverse_directions() {
        // Query at origin. Candidates: two very close together to the
        // right, one farther up. Plain top-2 keeps the two right-side
        // points; the heuristic must keep one right + one up.
        let data = Dataset::from_rows(&[
            [1.0f32, 0.0], // 0: right
            [1.1, 0.0],    // 1: right, redundant with 0
            [0.0, 1.5],    // 2: up
        ])
        .unwrap();
        let q = [0.0f32, 0.0];
        let mut cands: Vec<Neighbor> = (0..3u32)
            .map(|i| Neighbor::new(i, Metric::L2.distance(&q, data.get(i as usize))))
            .collect();
        cands.sort();
        let picked = select_neighbors_heuristic(&data, &cands, 2);
        assert!(picked.contains(&0));
        assert!(
            picked.contains(&2),
            "expected the diverse neighbour, got {picked:?}"
        );
    }

    #[test]
    fn pruned_candidates_backfill_to_m() {
        let data = Dataset::from_rows(&[[1.0f32, 0.0], [1.1, 0.0], [1.2, 0.0]]).unwrap();
        let q = [0.0f32, 0.0];
        let mut cands: Vec<Neighbor> = (0..3u32)
            .map(|i| Neighbor::new(i, Metric::L2.distance(&q, data.get(i as usize))))
            .collect();
        cands.sort();
        // All three candidates sit on a ray, so the heuristic keeps only
        // the closest; the two it pruned backfill the list to m, in order.
        let filled = select_neighbors_heuristic(&data, &cands, 3);
        assert_eq!(filled, vec![0, 1, 2]);
    }

    #[test]
    fn heuristic_handles_more_candidates_than_m() {
        let rows: Vec<[f32; 2]> = (0..10).map(|i| [i as f32, 0.5]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let q = [0.0f32, 0.0];
        let mut cands: Vec<Neighbor> = (0..10u32)
            .map(|i| Neighbor::new(i, Metric::L2.distance(&q, data.get(i as usize))))
            .collect();
        cands.sort();
        let picked = select_neighbors_heuristic(&data, &cands, 4);
        assert_eq!(picked.len(), 4);
    }

    /// The metrics the table leans on for both argument orders are
    /// symmetric to the bit, special values included.
    #[test]
    fn every_metric_is_symmetric_to_the_bit() {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40, f32::MAX];
        let mut rows: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                (0..37)
                    .map(|d| ((i * 37 + d) as f32 * 0.7).sin() * 90.0)
                    .collect()
            })
            .collect();
        for (i, &x) in specials.iter().enumerate() {
            rows[i][i * 7] = x;
        }
        rows.push(vec![0.0; 37]);
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            for a in &rows {
                for b in &rows {
                    let (ab, ba) = (metric.distance(a, b), metric.distance(b, a));
                    assert!(
                        ab.to_bits() == ba.to_bits() || (ab.is_nan() && ba.is_nan()),
                        "{metric}: {ab} vs {ba}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_table_past_the_bound() {
        let data = Dataset::from_flat(1, vec![0.5; TABLE_ROWS + 1]).unwrap();
        assert!(PairTable::of(&data, Metric::L2).is_none());
        let data = Dataset::from_flat(1, vec![0.5; TABLE_ROWS]).unwrap();
        assert!(PairTable::of(&data, Metric::L2).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every entry, read in either order, is the distance the build
        /// would compute, bit for bit: partial fill blocks, padded and
        /// lone queries, every lane remainder of the kernels.
        #[test]
        fn a_table_entry_is_the_computed_distance(
            dim in 1usize..=40,
            flat in prop::collection::vec(-300.0f32..300.0, 40..4_000),
        ) {
            let n = (flat.len() / dim).min(100);
            let data = Dataset::from_flat(dim, flat[..n * dim].to_vec()).unwrap();
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let table = PairTable::of(&data, metric).unwrap();
                for a in 0..n as u32 {
                    for b in 0..n as u32 {
                        let want = computed(metric)(&data, a, b);
                        prop_assert_eq!(table.get(a, b).to_bits(), want.to_bits(), "{} {} {}", metric, a, b);
                    }
                }
            }
        }
    }
}
