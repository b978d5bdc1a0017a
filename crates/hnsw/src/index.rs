//! The public HNSW index type.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vecsim::{Dataset, Neighbor};

use crate::build::{computed, sample_level, BuildScratch, PairTable};
use crate::graph::Graph;
use crate::search::{IndexView, SearchScratch};
use crate::{Error, HnswParams, Result};

/// Work counters for a single search, split the way the paper's latency
/// breakdown wants them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Distance evaluations performed.
    pub dist_evals: u64,
    /// Graph hops (neighbour expansions) performed.
    pub hops: u64,
}

/// A Hierarchical Navigable Small World index over an owned [`Dataset`].
///
/// Thread-safe for concurrent searches (`&self`); insertion requires
/// `&mut self`.
///
/// # Example
///
/// ```rust
/// use hnsw::{HnswIndex, HnswParams};
/// use vecsim::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = gen::uniform(8, 300, 0.0, 1.0, 5)?;
/// let index = HnswIndex::build(data, &HnswParams::new(8, 64))?;
/// let out = index.search(&[0.5; 8], 3, 32);
/// assert_eq!(out.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HnswIndex {
    params: HnswParams,
    data: Dataset,
    graph: Graph,
    rng: StdRng,
}

impl HnswIndex {
    /// Creates an empty index for vectors of dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the parameters fail
    /// [`HnswParams::validate`] or `dim == 0`.
    pub fn new(dim: usize, params: &HnswParams) -> Result<Self> {
        params.validate()?;
        if dim == 0 {
            return Err(Error::InvalidParameter("dim must be non-zero".into()));
        }
        Ok(HnswIndex {
            params: params.clone(),
            data: Dataset::new(dim),
            // One slot over each degree budget: linking pushes first and
            // prunes back to the budget after.
            graph: Graph::new(params.m0() + 1, params.m() + 1),
            rng: StdRng::seed_from_u64(params.rng_seed()),
        })
    }

    /// Builds an index by inserting every vector of `data` in order. The
    /// distances among its rows are computed once, into a pairwise table,
    /// when there are few enough rows (DESIGN.md §5m); the graph is the
    /// one [`HnswIndex::insert`] would link row by row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on invalid parameters or an
    /// empty/zero-dimension dataset.
    pub fn build(data: Dataset, params: &HnswParams) -> Result<Self> {
        let mut index = HnswIndex::new(data.dim().max(1), params)?;
        if data.dim() == 0 {
            return Err(Error::InvalidParameter(
                "dataset must have non-zero dimension".into(),
            ));
        }
        let table = PairTable::of(&data, params.metric_kind());
        index.data = data;
        match table {
            Some(table) => index.link_new_rows(|_, a, b| table.get(a, b)),
            None => index.link_new_rows(computed(params.metric_kind())),
        }
        Ok(index)
    }

    /// Rebuilds an index from previously extracted parts (deserialization).
    pub(crate) fn from_parts(params: HnswParams, data: Dataset, graph: Graph) -> Self {
        HnswIndex {
            rng: StdRng::seed_from_u64(params.rng_seed()),
            params,
            data,
            graph,
        }
    }

    /// Inserts a vector and returns its id (sequential from zero).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `v` has the wrong length.
    pub fn insert(&mut self, v: &[f32]) -> Result<u32> {
        if v.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                got: v.len(),
            });
        }
        self.data.push(v).map_err(Error::from)?;
        self.link_new_rows(computed(self.params.metric_kind()));
        Ok(self.graph.len() as u32 - 1)
    }

    /// Links every row of the data the graph does not hold yet, in order,
    /// each at a level drawn from the index's generator;
    /// `pairs(data, a, b)` is `distance(row a, row b)`.
    fn link_new_rows(&mut self, pairs: impl Fn(&Dataset, u32, u32) -> f32 + Copy) {
        let (params, data, graph, rng) = (&self.params, &self.data, &mut self.graph, &mut self.rng);
        BuildScratch::with_local(|scratch| {
            for _ in graph.len()..data.len() {
                let level = sample_level(rng, params.level_lambda(), params.max_level_cap());
                scratch.link(graph, params, level, |a, b| pairs(data, a, b));
            }
        });
    }

    /// Searches for the `k` nearest neighbours of `query` with beam width
    /// `ef`. Returns up to `min(k, ef)` results sorted by ascending
    /// distance — an `ef` below `k` deliberately narrows the candidate
    /// list, trading recall for speed, which is how the d-HNSW paper
    /// sweeps `efSearch` from 1 even for top-10 queries.
    ///
    /// An empty index or a dimension-mismatched query yields an empty
    /// result (searches are infallible by design; validation belongs on
    /// the insert path).
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_with_stats(query, k, ef, &mut stats)
    }

    /// Like [`HnswIndex::search`] but accumulates work counters into
    /// `stats`.
    pub fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        SearchScratch::with_local(|scratch| self.search_in(query, k, ef, scratch, stats).to_vec())
    }

    /// [`IndexView::search_in`] over this index: the search behind every
    /// other search signature.
    pub fn search_in<'s>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        scratch: &'s mut SearchScratch,
        stats: &mut SearchStats,
    ) -> &'s [Neighbor] {
        self.view().search_in(query, k, ef, scratch, stats)
    }

    /// This index as a search reads it.
    pub fn view(&self) -> IndexView<'_> {
        IndexView {
            graph: self.graph.view(),
            rows: self.data.as_flat(),
            dim: self.data.dim(),
            entry: self.graph.entry,
            max_level: self.graph.max_level,
            metric: self.params.metric_kind(),
        }
    }

    /// The `beam` closest bottom-layer nodes found by a search whose beam
    /// is no wider than its result: `search(query, beam, beam)`. This is
    /// the primitive the meta-HNSW uses to classify a vector into a
    /// partition (`beam = 1` is a pure greedy descent).
    pub fn descend(&self, query: &[f32], beam: usize) -> Vec<Neighbor> {
        self.search(query, beam, beam)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.graph.len() == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// Highest layer currently present.
    pub fn max_level(&self) -> usize {
        self.graph.max_level
    }

    /// Current entry point id, if any.
    pub fn entry_point(&self) -> Option<u32> {
        self.graph.entry
    }

    /// The level (highest layer) of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn level_of(&self, id: u32) -> usize {
        self.graph.level(id)
    }

    /// Neighbour list of `id` on `layer` (empty when the node does not
    /// exist on that layer).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn neighbors(&self, id: u32, layer: usize) -> &[u32] {
        self.graph.neighbors(id, layer)
    }

    /// The stored vector for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn vector(&self, id: u32) -> &[f32] {
        self.data.get(id as usize)
    }

    /// The backing dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Neighbour-list count and total entries over all lists.
    pub(crate) fn list_and_link_counts(&self) -> (usize, usize) {
        self.graph.list_and_link_counts()
    }

    /// Approximate in-memory footprint in bytes: vectors plus adjacency.
    /// This is the number the paper quotes when it says the meta-HNSW
    /// costs 0.373 MB for SIFT1M.
    pub fn memory_footprint(&self) -> usize {
        let (lists, links) = self.graph.list_and_link_counts();
        self.data.byte_len() + (lists + links) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::{gen, ground_truth, recall, Metric};

    fn small_params() -> HnswParams {
        HnswParams::new(8, 64).seed(11)
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HnswIndex::new(4, &small_params()).unwrap();
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 4], 5, 10).is_empty());
        assert!(idx.descend(&[0.0; 4], 1).is_empty());
    }

    #[test]
    fn build_rejects_zero_dim() {
        assert!(HnswIndex::new(0, &small_params()).is_err());
    }

    #[test]
    fn insert_rejects_wrong_dimension() {
        let mut idx = HnswIndex::new(4, &small_params()).unwrap();
        assert!(matches!(
            idx.insert(&[0.0; 3]).unwrap_err(),
            Error::DimensionMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn single_vector_is_its_own_answer() {
        let mut idx = HnswIndex::new(2, &small_params()).unwrap();
        idx.insert(&[1.0, 2.0]).unwrap();
        let out = idx.search(&[1.0, 2.0], 1, 8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 0);
        assert_eq!(out[0].dist, 0.0);
    }

    #[test]
    fn ids_are_sequential() {
        let mut idx = HnswIndex::new(1, &small_params()).unwrap();
        for i in 0..5 {
            assert_eq!(idx.insert(&[i as f32]).unwrap(), i);
        }
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn search_returns_sorted_unique_results() {
        let data = gen::uniform(8, 500, 0.0, 1.0, 3).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        let out = idx.search(&[0.5; 8], 10, 50);
        assert_eq!(out.len(), 10);
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "duplicate ids in result");
    }

    #[test]
    fn recall_is_high_on_uniform_data() {
        let data = gen::uniform(16, 2_000, 0.0, 1.0, 7).unwrap();
        let queries = gen::perturbed_queries(&data, 50, 0.02, 8).unwrap();
        let truth = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);
        let idx = HnswIndex::build(data, &HnswParams::new(16, 200).seed(9)).unwrap();
        let got: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| idx.search(q, 10, 128).iter().map(|n| n.id).collect())
            .collect();
        let r = recall::mean_recall(&got, &truth);
        assert!(r > 0.95, "recall {r} too low");
    }

    #[test]
    fn recall_improves_with_ef() {
        let data = gen::sift_like(2_000, 21).unwrap();
        let queries = gen::perturbed_queries(&data, 40, 0.02, 22).unwrap();
        let truth = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);
        let idx = HnswIndex::build(data, &HnswParams::new(8, 100).seed(23)).unwrap();
        let recall_at = |ef: usize| {
            let got: Vec<Vec<u32>> = queries
                .iter()
                .map(|q| idx.search(q, 10, ef).iter().map(|n| n.id).collect())
                .collect();
            recall::mean_recall(&got, &truth)
        };
        let low = recall_at(10);
        let high = recall_at(200);
        assert!(high >= low, "ef=200 recall {high} < ef=10 recall {low}");
        assert!(high > 0.9, "high-ef recall {high} too low");
    }

    #[test]
    fn degree_caps_are_respected() {
        let data = gen::uniform(4, 1_000, 0.0, 1.0, 31).unwrap();
        let params = HnswParams::new(6, 50).seed(32);
        let idx = HnswIndex::build(data, &params).unwrap();
        for id in 0..idx.len() as u32 {
            for layer in 0..=idx.level_of(id) {
                let cap = if layer == 0 { params.m0() } else { params.m() };
                let deg = idx.neighbors(id, layer).len();
                assert!(deg <= cap, "node {id} layer {layer} degree {deg} > {cap}");
            }
        }
    }

    #[test]
    fn capped_level_build_never_exceeds_cap() {
        let data = gen::uniform(4, 2_000, 0.0, 1.0, 41).unwrap();
        let params = HnswParams::new(8, 50).seed(42).max_level(2);
        let idx = HnswIndex::build(data, &params).unwrap();
        assert!(idx.max_level() <= 2);
        for id in 0..idx.len() as u32 {
            assert!(idx.level_of(id) <= 2);
        }
    }

    #[test]
    fn links_are_bidirectional_on_layer0() {
        let data = gen::uniform(4, 300, 0.0, 1.0, 51).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        // Pruning can make a few edges one-directional; the overwhelming
        // majority must be symmetric.
        let mut total = 0usize;
        let mut symmetric = 0usize;
        for id in 0..idx.len() as u32 {
            for &nb in idx.neighbors(id, 0) {
                total += 1;
                if idx.neighbors(nb, 0).contains(&id) {
                    symmetric += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            symmetric as f64 / total as f64 > 0.6,
            "only {symmetric}/{total} edges symmetric"
        );
    }

    #[test]
    fn graph_is_fully_reachable_from_entry() {
        let data = gen::uniform(4, 500, 0.0, 1.0, 61).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        // BFS over layer 0.
        let mut seen = vec![false; idx.len()];
        let mut queue = vec![idx.entry_point().unwrap()];
        seen[idx.entry_point().unwrap() as usize] = true;
        while let Some(v) = queue.pop() {
            for &nb in idx.neighbors(v, 0) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    queue.push(nb);
                }
            }
        }
        let reached = seen.iter().filter(|&&s| s).count();
        assert_eq!(reached, idx.len(), "layer-0 graph is disconnected");
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let data = gen::uniform(4, 200, 0.0, 1.0, 71).unwrap();
        let a = HnswIndex::build(data.clone(), &small_params()).unwrap();
        let b = HnswIndex::build(data, &small_params()).unwrap();
        assert_eq!(
            crate::serialize::to_bytes(&a),
            crate::serialize::to_bytes(&b)
        );
    }

    #[test]
    fn descend_returns_bottom_layer_candidates() {
        let data = gen::uniform(4, 400, 0.0, 1.0, 81).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        let out = idx.descend(&[0.5; 4], 3);
        assert_eq!(out.len(), 3);
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn search_with_stats_counts_work() {
        let data = gen::uniform(8, 500, 0.0, 1.0, 91).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        let mut stats = SearchStats::default();
        idx.search_with_stats(&[0.5; 8], 5, 50, &mut stats);
        assert!(stats.dist_evals > 5);
        assert!(stats.hops > 0);
    }

    #[test]
    fn memory_footprint_grows_with_data() {
        let small =
            HnswIndex::build(gen::uniform(8, 50, 0.0, 1.0, 1).unwrap(), &small_params()).unwrap();
        let large =
            HnswIndex::build(gen::uniform(8, 500, 0.0, 1.0, 1).unwrap(), &small_params()).unwrap();
        assert!(large.memory_footprint() > small.memory_footprint());
    }

    #[test]
    fn ef_below_k_narrows_the_result_list() {
        let data = gen::uniform(8, 500, 0.0, 1.0, 95).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        let narrow = idx.search(&[0.5; 8], 10, 3);
        assert_eq!(narrow.len(), 3, "ef=3 caps the candidate list");
        let wide = idx.search(&[0.5; 8], 10, 50);
        assert_eq!(wide.len(), 10);
    }

    #[test]
    fn zero_ef_returns_nothing_without_walking() {
        // The two-heap walk admitted every neighbour at ef = 0 (nothing
        // beats an empty result list's infinite worst) and evicted it
        // again: 539 distance evaluations on this index for no result.
        let data = gen::uniform(8, 500, 0.0, 1.0, 95).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        let mut stats = SearchStats::default();
        assert!(idx
            .search_with_stats(&[0.5; 8], 10, 0, &mut stats)
            .is_empty());
        assert_eq!(stats, SearchStats::default());
        assert!(idx.descend(&[0.5; 8], 0).is_empty());
        idx.search_with_stats(&[0.5; 8], 10, 8, &mut stats);
        assert!(stats.dist_evals > 0);
    }

    #[test]
    fn wrong_dim_query_returns_empty_not_panic() {
        let data = gen::uniform(8, 100, 0.0, 1.0, 1).unwrap();
        let idx = HnswIndex::build(data, &small_params()).unwrap();
        assert!(idx.search(&[0.0; 4], 5, 10).is_empty());
    }

    #[test]
    fn index_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HnswIndex>();
    }
}
