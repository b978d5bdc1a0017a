//! The representative index (meta-HNSW) of §3.1.
//!
//! A [`MetaIndex`] is a three-layer HNSW built over a uniform sample of
//! the dataset. Every bottom-layer (L0) node — i.e. every representative —
//! defines one partition; the meta index doubles as the cluster classifier
//! that routes vectors (for insertion) and queries (for search) to
//! partitions. It is small enough (~0.4 MB for SIFT1M in the paper) to be
//! cached on every compute instance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hnsw::HnswIndex;
use vecsim::{Dataset, Neighbor};

use crate::{DHnswConfig, Error, Result};

/// The cached representative index: a level-capped HNSW over sampled
/// vectors, where representative `i` *is* partition `i`.
///
/// # Example
///
/// ```rust
/// use dhnsw::{DHnswConfig, MetaIndex};
/// use vecsim::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = gen::sift_like(1_000, 3)?;
/// let meta = MetaIndex::build(&data, &DHnswConfig::small())?;
/// assert_eq!(meta.partitions(), 32);
/// let route = meta.route(data.get(0), 4);
/// assert_eq!(route.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MetaIndex {
    index: HnswIndex,
    /// For each representative (= partition), the id of the dataset vector
    /// it was sampled from. Purely diagnostic.
    sample_ids: Vec<u32>,
}

impl MetaIndex {
    /// Builds the meta index by uniformly sampling
    /// [`DHnswConfig::representatives`] vectors from `data` (without
    /// replacement) and building a level-capped HNSW over them.
    ///
    /// When the dataset holds fewer vectors than the configured
    /// representative count, every vector becomes a representative.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an empty dataset or an
    /// invalid configuration.
    pub fn build(data: &Dataset, config: &DHnswConfig) -> Result<Self> {
        config.validate()?;
        if data.is_empty() {
            return Err(Error::InvalidParameter(
                "cannot build a meta index over an empty dataset".into(),
            ));
        }
        let want = config.representatives().min(data.len());

        // Uniform sample without replacement (partial Fisher–Yates over
        // the id space).
        let mut rng = StdRng::seed_from_u64(config.seed());
        let mut ids: Vec<u32> = (0..data.len() as u32).collect();
        for i in 0..want {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        let mut sample_ids = ids[..want].to_vec();
        // Deterministic partition numbering independent of shuffle order.
        sample_ids.sort_unstable();

        let reps = data.select(&sample_ids);
        let index = HnswIndex::build(reps, &config.meta_params())?;
        Ok(MetaIndex { index, sample_ids })
    }

    /// Number of partitions (= representatives).
    pub fn partitions(&self) -> usize {
        self.index.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.index.dim()
    }

    /// Routes a query to its `b` closest partitions (greedy descent
    /// through the pyramid, then a beam of width `b` on the bottom
    /// layer), ordered by ascending distance to the representative.
    ///
    /// Returns fewer than `b` entries when the index has fewer partitions.
    /// The `id` of each returned [`Neighbor`] is a **partition id**.
    pub fn route(&self, query: &[f32], b: usize) -> Vec<Neighbor> {
        self.index.descend(query, b)
    }

    /// Classifies a vector into its nearest partition (the build and
    /// insertion paths): descends with a beam of width `beam` and takes
    /// the top-1. Both must use the same beam width queries route with:
    /// beam-1 greedy descent can terminate in a local optimum that a wider
    /// query route never visits, making the vector unreachable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for a wrong-length vector.
    pub fn classify_with_beam(&self, v: &[f32], beam: usize) -> Result<u32> {
        if v.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                got: v.len(),
            });
        }
        self.route(v, beam.max(1))
            .first()
            .map(|n| n.id)
            .ok_or_else(|| Error::InvalidParameter("meta index is empty".into()))
    }

    /// The representative vector of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn representative(&self, p: u32) -> &[f32] {
        self.index.vector(p)
    }

    /// The dataset id each representative was sampled from, indexed by
    /// partition id.
    pub fn sample_ids(&self) -> &[u32] {
        &self.sample_ids
    }

    /// In-memory footprint in bytes — the quantity the paper reports as
    /// 0.373 MB (SIFT1M) / 1.960 MB (GIST1M).
    pub fn footprint_bytes(&self) -> usize {
        self.index.memory_footprint() + self.sample_ids.len() * 4
    }

    /// Height of the pyramid (should be ≤ the configured cap).
    pub fn max_level(&self) -> usize {
        self.index.max_level()
    }

    /// Direct access to the underlying HNSW (for diagnostics and tests).
    pub fn hnsw(&self) -> &HnswIndex {
        &self.index
    }

    /// Serializes the meta index (graph + representatives + sample-id
    /// map) for snapshots.
    pub fn to_bytes(&self) -> Vec<u8> {
        let hnsw_blob = hnsw::serialize::to_bytes(&self.index);
        let mut out = Vec::with_capacity(12 + 4 * self.sample_ids.len() + hnsw_blob.len());
        out.extend_from_slice(&(self.sample_ids.len() as u32).to_le_bytes());
        for &id in &self.sample_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&(hnsw_blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&hnsw_blob);
        out
    }

    /// Deserializes a blob produced by [`MetaIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or an invalid embedded
    /// HNSW blob.
    pub fn from_bytes(blob: &[u8]) -> Result<Self> {
        let take = |off: usize, n: usize| -> Result<&[u8]> {
            off.checked_add(n)
                .and_then(|end| blob.get(off..end))
                .ok_or_else(|| Error::Corrupt("truncated meta blob".into()))
        };
        let n = u32::from_le_bytes(take(0, 4)?.try_into().expect("4")) as usize;
        // The ids are held against the blob before anything is sized by
        // their count.
        let sample_ids: Vec<u32> = take(4, 4 * n)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect();
        let len_off = 4 + 4 * n;
        let hnsw_len = u64::from_le_bytes(take(len_off, 8)?.try_into().expect("8")) as usize;
        let hnsw_blob = take(len_off + 8, hnsw_len)?;
        let index = hnsw::serialize::from_bytes(hnsw_blob)
            .map_err(|e| Error::Corrupt(format!("embedded meta hnsw: {e}")))?;
        if index.len() != n {
            return Err(Error::Corrupt(format!(
                "meta blob: {n} sample ids but {} representatives",
                index.len()
            )));
        }
        Ok(MetaIndex { index, sample_ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::gen;

    fn build_small(n: usize) -> (Dataset, MetaIndex) {
        let data = gen::sift_like(n, 5).unwrap();
        let meta = MetaIndex::build(&data, &DHnswConfig::small()).unwrap();
        (data, meta)
    }

    #[test]
    fn partition_count_matches_config() {
        let (_, meta) = build_small(1_000);
        assert_eq!(meta.partitions(), 32);
        assert_eq!(meta.sample_ids().len(), 32);
    }

    #[test]
    fn small_dataset_uses_every_vector() {
        let data = gen::sift_like(10, 5).unwrap();
        let meta = MetaIndex::build(&data, &DHnswConfig::small()).unwrap();
        assert_eq!(meta.partitions(), 10);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let data = Dataset::new(8);
        assert!(MetaIndex::build(&data, &DHnswConfig::small()).is_err());
    }

    #[test]
    fn pyramid_height_is_capped_at_three_layers() {
        let (_, meta) = build_small(2_000);
        assert!(meta.max_level() <= 2, "meta-HNSW must have <= 3 layers");
    }

    #[test]
    fn sample_ids_are_unique_and_in_range() {
        let (data, meta) = build_small(1_000);
        let mut ids = meta.sample_ids().to_vec();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate sample ids");
        assert!(ids.iter().all(|&i| (i as usize) < data.len()));
    }

    #[test]
    fn representatives_match_sampled_vectors() {
        let (data, meta) = build_small(500);
        for p in 0..meta.partitions() as u32 {
            let src = meta.sample_ids()[p as usize] as usize;
            assert_eq!(meta.representative(p), data.get(src));
        }
    }

    #[test]
    fn route_returns_b_distinct_partitions_sorted() {
        let (data, meta) = build_small(1_000);
        let out = meta.route(data.get(17), 5);
        assert_eq!(out.len(), 5);
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn classify_picks_the_nearest_representative() {
        let (data, meta) = build_small(1_000);
        // A representative classifies to itself (distance 0 beats all).
        for p in (0..meta.partitions() as u32).step_by(7) {
            let rep_vec = meta.representative(p).to_vec();
            let got = meta.classify_with_beam(&rep_vec, 4).unwrap();
            assert_eq!(
                meta.representative(got),
                &rep_vec[..],
                "partition {p} misclassified to {got}"
            );
        }
        let _ = data;
    }

    #[test]
    fn classify_rejects_wrong_dim() {
        let (_, meta) = build_small(200);
        assert!(matches!(
            meta.classify_with_beam(&[0.0; 4], 4).unwrap_err(),
            Error::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn builds_are_deterministic() {
        let data = gen::sift_like(600, 5).unwrap();
        let a = MetaIndex::build(&data, &DHnswConfig::small()).unwrap();
        let b = MetaIndex::build(&data, &DHnswConfig::small()).unwrap();
        assert_eq!(a.sample_ids(), b.sample_ids());
        let c = MetaIndex::build(&data, &DHnswConfig::small().with_seed(9)).unwrap();
        assert_ne!(a.sample_ids(), c.sample_ids());
    }

    #[test]
    fn meta_round_trips_through_bytes() {
        let (_, meta) = build_small(600);
        let back = MetaIndex::from_bytes(&meta.to_bytes()).unwrap();
        assert_eq!(back.partitions(), meta.partitions());
        assert_eq!(back.sample_ids(), meta.sample_ids());
        let q = meta.representative(3).to_vec();
        assert_eq!(back.route(&q, 4), meta.route(&q, 4));
    }

    #[test]
    fn corrupt_meta_blob_is_rejected() {
        let (_, meta) = build_small(100);
        let blob = meta.to_bytes();
        assert!(MetaIndex::from_bytes(&blob[..8]).is_err());
        let mut bad = blob.clone();
        let off = bad.len() - 1;
        bad.truncate(off);
        assert!(MetaIndex::from_bytes(&bad).is_err());
    }

    #[test]
    fn footprint_is_small_relative_to_data() {
        let data = gen::sift_like(2_000, 5).unwrap();
        let meta = MetaIndex::build(&data, &DHnswConfig::small()).unwrap();
        assert!(meta.footprint_bytes() < data.byte_len() / 10);
    }
}
