//! Deterministic synthetic dataset generators.
//!
//! The paper evaluates on SIFT1M (128-d local image descriptors) and GIST1M
//! (960-d global image descriptors). Those files are not redistributable
//! here, so this module provides *shape-preserving* stand-ins:
//!
//! - [`sift_like`]: 128-d Gaussian-mixture vectors with SIFT's value range
//!   (non-negative, clipped to `[0, 255]`) and strong clusteredness.
//! - [`gist_like`]: 960-d Gaussian-mixture vectors in `[0, 1]` with gentler
//!   clusters, mimicking GIST's dense global descriptors.
//!
//! What matters for reproducing the paper's behaviour is (a) the
//! dimensionality (it fixes bytes-per-vector and distance cost), (b) the
//! clusteredness (it makes partition-limited search meaningful: recall < 1
//! with few partitions probed, rising with fan-out), and (c) determinism.
//! All generators take an explicit seed and are reproducible across runs
//! and platforms.
//!
//! Real SIFT1M/GIST1M drop in through [`crate::io::read_fvecs`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Dataset, Error, Result};

/// Standard normal sample via Box–Muller (rand itself ships no Gaussian
/// distribution, and this avoids a `rand_distr` dependency).
fn gauss(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Uniformly distributed vectors in `[lo, hi)^dim`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `dim == 0`, `n == 0`, or
/// `lo >= hi`.
///
/// ```rust
/// let ds = vecsim::gen::uniform(8, 100, -1.0, 1.0, 42)?;
/// assert_eq!(ds.len(), 100);
/// assert!(ds.iter().all(|v| v.iter().all(|&x| (-1.0..1.0).contains(&x))));
/// # Ok::<(), vecsim::Error>(())
/// ```
pub fn uniform(dim: usize, n: usize, lo: f32, hi: f32, seed: u64) -> Result<Dataset> {
    if dim == 0 || n == 0 {
        return Err(Error::InvalidParameter("dim and n must be non-zero".into()));
    }
    if lo >= hi {
        return Err(Error::InvalidParameter(format!(
            "uniform range is empty: lo={lo} >= hi={hi}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(dim * n);
    for _ in 0..dim * n {
        data.push(rng.gen_range(lo..hi));
    }
    Dataset::from_flat(dim, data)
}

/// Configuration for a Gaussian-mixture dataset.
///
/// Build one with [`GaussianMixture::new`], adjust the knobs, then call
/// [`GaussianMixture::generate`].
///
/// # Example
///
/// ```rust
/// use vecsim::gen::GaussianMixture;
///
/// let (ds, labels) = GaussianMixture::new(16, 4)
///     .cluster_std(0.1)
///     .center_range(0.0, 1.0)
///     .generate(200, 99)?;
/// assert_eq!(ds.len(), 200);
/// assert_eq!(labels.len(), 200);
/// assert!(labels.iter().all(|&l| l < 4));
/// # Ok::<(), vecsim::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    dim: usize,
    clusters: usize,
    cluster_std: f64,
    center_lo: f64,
    center_hi: f64,
    clamp: Option<(f32, f32)>,
    skew: f64,
}

impl GaussianMixture {
    /// A mixture of `clusters` isotropic Gaussians in `dim` dimensions.
    pub fn new(dim: usize, clusters: usize) -> Self {
        GaussianMixture {
            dim,
            clusters,
            cluster_std: 1.0,
            center_lo: 0.0,
            center_hi: 10.0,
            clamp: None,
            skew: 0.0,
        }
    }

    /// Per-dimension standard deviation within a cluster.
    pub fn cluster_std(&mut self, std: f64) -> &mut Self {
        self.cluster_std = std;
        self
    }

    /// Range the cluster centers are drawn from (uniform per dimension).
    pub fn center_range(&mut self, lo: f64, hi: f64) -> &mut Self {
        self.center_lo = lo;
        self.center_hi = hi;
        self
    }

    /// Clamps every generated component into `[lo, hi]` (e.g. SIFT's
    /// `[0, 255]`).
    pub fn clamp(&mut self, lo: f32, hi: f32) -> &mut Self {
        self.clamp = Some((lo, hi));
        self
    }

    /// Cluster-size skew. `0.0` gives equal-probability clusters; larger
    /// values weight cluster `i` proportionally to `(i + 1)^-skew`,
    /// producing the imbalanced partition populations real corpora show.
    pub fn skew(&mut self, skew: f64) -> &mut Self {
        self.skew = skew;
        self
    }

    /// Generates `n` vectors. Returns the dataset together with the true
    /// cluster label of every vector (handy for partitioning sanity tests).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a zero `dim`, `clusters`,
    /// `n`, a non-positive `cluster_std`, or an empty center range.
    pub fn generate(&self, n: usize, seed: u64) -> Result<(Dataset, Vec<u32>)> {
        if self.dim == 0 || self.clusters == 0 || n == 0 {
            return Err(Error::InvalidParameter(
                "dim, clusters and n must be non-zero".into(),
            ));
        }
        if self.cluster_std <= 0.0 {
            return Err(Error::InvalidParameter(
                "cluster_std must be positive".into(),
            ));
        }
        if self.center_lo >= self.center_hi {
            return Err(Error::InvalidParameter("center range is empty".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);

        // Cluster centers.
        let mut centers = Vec::with_capacity(self.clusters * self.dim);
        for _ in 0..self.clusters * self.dim {
            centers.push(rng.gen_range(self.center_lo..self.center_hi));
        }

        // Cumulative cluster weights (zipf-ish when skewed).
        let weights: Vec<f64> = (0..self.clusters)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(self.clusters);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }

        let mut data = Vec::with_capacity(n * self.dim);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let r: f64 = rng.gen();
            let c = cumulative
                .iter()
                .position(|&cw| r <= cw)
                .unwrap_or(self.clusters - 1);
            labels.push(c as u32);
            let center = &centers[c * self.dim..(c + 1) * self.dim];
            for &mu in center {
                let mut x = (mu + self.cluster_std * gauss(&mut rng)) as f32;
                if let Some((lo, hi)) = self.clamp {
                    x = x.clamp(lo, hi);
                }
                data.push(x);
            }
        }
        Ok((Dataset::from_flat(self.dim, data)?, labels))
    }
}

/// SIFT1M stand-in: 128-d clustered vectors clipped to `[0, 255]`.
///
/// Uses 100 mixture components with moderate spread and a mild size skew —
/// enough structure that probing a few d-HNSW partitions yields recall in
/// the paper's 0.8–0.9 band, rising with `efSearch` and fan-out.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `n == 0`.
pub fn sift_like(n: usize, seed: u64) -> Result<Dataset> {
    let (ds, _) = GaussianMixture::new(128, 100)
        .center_range(0.0, 255.0)
        .cluster_std(28.0)
        .clamp(0.0, 255.0)
        .skew(0.35)
        .generate(n, seed)?;
    Ok(ds)
}

/// GIST1M stand-in: 960-d clustered vectors in `[0, 1]`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `n == 0`.
pub fn gist_like(n: usize, seed: u64) -> Result<Dataset> {
    let (ds, _) = GaussianMixture::new(960, 60)
        .center_range(0.0, 1.0)
        .cluster_std(0.09)
        .clamp(0.0, 1.0)
        .skew(0.35)
        .generate(n, seed)?;
    Ok(ds)
}

/// Queries derived from dataset rows by Gaussian perturbation.
///
/// Each query is a uniformly chosen base vector plus isotropic noise of
/// standard deviation `noise_frac * data_range`, where `data_range` is the
/// global min-to-max spread of the dataset. `noise_frac` around `0.02–0.1`
/// gives queries whose true neighbours are non-trivial but findable — the
/// regime ANN benchmarks operate in.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if the dataset is empty, `n == 0`,
/// or `noise_frac` is negative.
pub fn perturbed_queries(data: &Dataset, n: usize, noise_frac: f64, seed: u64) -> Result<Dataset> {
    if data.is_empty() || n == 0 {
        return Err(Error::InvalidParameter(
            "dataset and n must be non-empty".into(),
        ));
    }
    if noise_frac < 0.0 {
        return Err(Error::InvalidParameter(
            "noise_frac must be non-negative".into(),
        ));
    }
    let flat = data.as_flat();
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &x in flat {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let range = f64::from(hi - lo).max(f64::MIN_POSITIVE);
    let sigma = noise_frac * range;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Dataset::with_capacity(data.dim(), n);
    let mut row = vec![0.0f32; data.dim()];
    for _ in 0..n {
        let base = data.get(rng.gen_range(0..data.len()));
        for (dst, &src) in row.iter_mut().zip(base) {
            *dst = (f64::from(src) + sigma * gauss(&mut rng)) as f32;
        }
        out.push(&row)?;
    }
    Ok(out)
}

/// Queries with Zipf-skewed popularity over the base vectors.
///
/// Like [`perturbed_queries`], but base vectors are drawn with probability
/// proportional to `rank^-skew` over a fixed random permutation of the
/// dataset, modelling the hot-spot query distributions real serving
/// systems see. `skew = 0.0` degenerates to the uniform case; `1.0` is
/// classic Zipf. Useful for exercising the compute-side cluster cache:
/// hot partitions stay resident, cold ones churn.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] under the same conditions as
/// [`perturbed_queries`], or when `skew` is negative.
pub fn zipf_queries(
    data: &Dataset,
    n: usize,
    noise_frac: f64,
    skew: f64,
    seed: u64,
) -> Result<Dataset> {
    if data.is_empty() || n == 0 {
        return Err(Error::InvalidParameter(
            "dataset and n must be non-empty".into(),
        ));
    }
    if noise_frac < 0.0 || skew < 0.0 {
        return Err(Error::InvalidParameter(
            "noise_frac and skew must be non-negative".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Rank -> row mapping: a random permutation so "popular" rows are not
    // correlated with generation order.
    let mut ranked: Vec<u32> = (0..data.len() as u32).collect();
    for i in (1..ranked.len()).rev() {
        let j = rng.gen_range(0..=i);
        ranked.swap(i, j);
    }
    // Cumulative Zipf weights.
    let mut cumulative = Vec::with_capacity(ranked.len());
    let mut acc = 0.0f64;
    for rank in 0..ranked.len() {
        acc += 1.0 / ((rank + 1) as f64).powf(skew);
        cumulative.push(acc);
    }
    let total = acc;

    let flat = data.as_flat();
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &x in flat {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let sigma = noise_frac * f64::from(hi - lo).max(f64::MIN_POSITIVE);

    let mut out = Dataset::with_capacity(data.dim(), n);
    let mut row = vec![0.0f32; data.dim()];
    for _ in 0..n {
        let r: f64 = rng.gen::<f64>() * total;
        let rank = cumulative.partition_point(|&c| c < r).min(ranked.len() - 1);
        let base = data.get(ranked[rank] as usize);
        for (dst, &src) in row.iter_mut().zip(base) {
            *dst = (f64::from(src) + sigma * gauss(&mut rng)) as f32;
        }
        out.push(&row)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_range_and_shape() {
        let ds = uniform(4, 50, 2.0, 3.0, 1).unwrap();
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.dim(), 4);
        assert!(ds.as_flat().iter().all(|&x| (2.0..3.0).contains(&x)));
    }

    #[test]
    fn uniform_rejects_bad_parameters() {
        assert!(uniform(0, 10, 0.0, 1.0, 0).is_err());
        assert!(uniform(4, 0, 0.0, 1.0, 0).is_err());
        assert!(uniform(4, 10, 1.0, 1.0, 0).is_err());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = sift_like(100, 7).unwrap();
        let b = sift_like(100, 7).unwrap();
        assert_eq!(a, b);
        let c = sift_like(100, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sift_like_shape_and_range() {
        let ds = sift_like(200, 3).unwrap();
        assert_eq!(ds.dim(), 128);
        assert_eq!(ds.len(), 200);
        assert!(ds.as_flat().iter().all(|&x| (0.0..=255.0).contains(&x)));
    }

    #[test]
    fn gist_like_shape_and_range() {
        let ds = gist_like(50, 3).unwrap();
        assert_eq!(ds.dim(), 960);
        assert!(ds.as_flat().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn mixture_labels_match_cluster_count() {
        let (ds, labels) = GaussianMixture::new(8, 5).generate(300, 11).unwrap();
        assert_eq!(ds.len(), 300);
        assert_eq!(labels.len(), 300);
        assert!(labels.iter().all(|&l| l < 5));
        // With 300 draws over 5 clusters every cluster should be hit.
        let mut seen = [false; 5];
        for &l in &labels {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mixture_skew_produces_imbalanced_clusters() {
        let (_, labels) = GaussianMixture::new(4, 10)
            .skew(1.5)
            .generate(2_000, 21)
            .unwrap();
        let mut counts = [0usize; 10];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        assert!(
            counts[0] > counts[9] * 3,
            "skewed mixture should be head-heavy: {counts:?}"
        );
    }

    #[test]
    fn mixture_rejects_bad_parameters() {
        assert!(GaussianMixture::new(0, 4).generate(10, 0).is_err());
        assert!(GaussianMixture::new(4, 0).generate(10, 0).is_err());
        assert!(GaussianMixture::new(4, 2).generate(0, 0).is_err());
        assert!(GaussianMixture::new(4, 2)
            .cluster_std(0.0)
            .generate(10, 0)
            .is_err());
        assert!(GaussianMixture::new(4, 2)
            .center_range(1.0, 1.0)
            .generate(10, 0)
            .is_err());
    }

    #[test]
    fn perturbed_queries_stay_close_to_their_base() {
        let ds = uniform(16, 100, 0.0, 1.0, 5).unwrap();
        let qs = perturbed_queries(&ds, 20, 0.01, 6).unwrap();
        assert_eq!(qs.len(), 20);
        assert_eq!(qs.dim(), 16);
        // Every query should be much closer to *some* dataset point than
        // the typical inter-point distance.
        for q in qs.iter() {
            let best = ds
                .iter()
                .map(|v| crate::l2_sq(q, v))
                .fold(f32::INFINITY, f32::min);
            assert!(best < 0.1, "query strayed too far: {best}");
        }
    }

    #[test]
    fn perturbed_queries_rejects_bad_input() {
        let ds = uniform(4, 10, 0.0, 1.0, 5).unwrap();
        assert!(perturbed_queries(&ds, 0, 0.1, 0).is_err());
        assert!(perturbed_queries(&ds, 5, -0.1, 0).is_err());
        let empty = Dataset::new(4);
        assert!(perturbed_queries(&empty, 5, 0.1, 0).is_err());
    }

    #[test]
    fn zipf_queries_concentrate_on_few_bases() {
        let ds = uniform(4, 200, 0.0, 1.0, 5).unwrap();
        // Zero noise so each query equals its base vector exactly.
        let qs = zipf_queries(&ds, 1_000, 0.0, 1.2, 6).unwrap();
        let mut counts = std::collections::HashMap::new();
        for q in qs.iter() {
            let base = ds
                .iter()
                .position(|v| v == q)
                .expect("zero-noise query must equal a base vector");
            *counts.entry(base).or_insert(0usize) += 1;
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest base should dominate and far fewer than all 200
        // bases should appear.
        assert!(freq[0] > 50, "hottest base only {} hits", freq[0]);
        assert!(counts.len() < 150, "{} distinct bases", counts.len());
    }

    #[test]
    fn zipf_skew_zero_is_roughly_uniform() {
        let ds = uniform(4, 50, 0.0, 1.0, 7).unwrap();
        let qs = zipf_queries(&ds, 2_000, 0.0, 0.0, 8).unwrap();
        let mut counts = std::collections::HashMap::new();
        for q in qs.iter() {
            let base = ds.iter().position(|v| v == q).unwrap();
            *counts.entry(base).or_insert(0usize) += 1;
        }
        assert!(counts.len() >= 45, "only {} bases drawn", counts.len());
    }

    #[test]
    fn zipf_queries_reject_bad_input() {
        let ds = uniform(4, 10, 0.0, 1.0, 9).unwrap();
        assert!(zipf_queries(&ds, 0, 0.1, 1.0, 0).is_err());
        assert!(zipf_queries(&ds, 5, -0.1, 1.0, 0).is_err());
        assert!(zipf_queries(&ds, 5, 0.1, -1.0, 0).is_err());
    }

    #[test]
    fn gauss_has_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
