//! Distance kernels.
//!
//! All kernels operate on `&[f32]` slices of equal length. The hot loops
//! accumulate into `LANES` independent sums over `chunks_exact(LANES)`
//! (see `lane_sum`), so LLVM vectorizes them and no single dependency
//! chain bounds the loop — without architecture-specific intrinsics: each
//! kernel is one safe `*_portable` body, which [`crate::simd`] also compiles
//! at AVX2 width and picks where the CPU has it, to the same bits. [`Metric`]
//! selects a kernel at runtime; downstream (HNSW, d-HNSW) is metric-agnostic.

pub use crate::simd::{cosine_distance, dot, l2_sq};

/// Distance metric selector.
///
/// All metrics are expressed as *distances* (smaller is closer) so that the
/// same candidate ordering code works for every metric:
///
/// - [`Metric::L2`] — squared Euclidean distance. The square root is
///   monotone, so ranking by the squared distance is equivalent and cheaper.
/// - [`Metric::InnerProduct`] — negated dot product (maximum inner product
///   search expressed as a minimization).
/// - [`Metric::Cosine`] — `1 − cos(a, b)`.
///
/// # Example
///
/// ```rust
/// use vecsim::Metric;
///
/// let a = [1.0, 0.0];
/// let b = [0.0, 1.0];
/// assert_eq!(Metric::L2.distance(&a, &b), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Squared Euclidean distance.
    #[default]
    L2,
    /// Negated inner product.
    InnerProduct,
    /// Cosine distance `1 − cos`.
    Cosine,
}

impl Metric {
    /// Computes the distance between `a` and `b` under this metric.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `a.len() != b.len()`; in release builds the
    /// shorter length wins (the kernels iterate over `min(len)` lanes).
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "metric arguments must match in length");
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::InnerProduct => -dot(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }

    /// A short stable name, used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Metric::L2 => "l2",
            Metric::InnerProduct => "ip",
            Metric::Cosine => "cosine",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Independent accumulators of every kernel, the SQ8 one
/// ([`crate::quantize::SqParams::asymmetric_l2`]) included: four 4-wide (or
/// two 8-wide) vector registers, enough to cover the add latency of one
/// chain. Part of every result: sums associate by lane, so two widths
/// would agree only to rounding.
pub(crate) const LANES: usize = 16;

/// `Σ term(a[i], b[i])` over the common prefix of `a` and `b`, summed in
/// [`LANES`] independent accumulators plus a sequential tail.
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    let n = a.len().min(b.len());
    let mut acc = [0.0f32; LANES];
    let mut a = a[..n].chunks_exact(LANES);
    let mut b = b[..n].chunks_exact(LANES);
    for (x, y) in (&mut a).zip(&mut b) {
        for l in 0..LANES {
            acc[l] += term(x[l], y[l]);
        }
    }
    let tail = (a.remainder().iter().zip(b.remainder()))
        .map(|(&x, &y)| term(x, y))
        .sum::<f32>();
    acc.iter().sum::<f32>() + tail
}

/// [`l2_sq`]'s one body, at the width of whatever it is inlined into: the
/// hook `repro subsearch` holds the dispatched entry against.
#[doc(hidden)]
#[inline(always)]
pub fn l2_sq_portable(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| (x - y) * (x - y))
}

/// [`dot`]'s one body.
#[inline(always)]
pub(crate) fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| x * y)
}

/// Euclidean norm of `a`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// [`cosine_distance`]'s one body.
#[inline(always)]
pub(crate) fn cosine_portable(a: &[f32], b: &[f32]) -> f32 {
    let (na, nb) = (dot_portable(a, a).sqrt(), dot_portable(b, b).sqrt());
    cosine_of(dot_portable(a, b), na, nb)
}

/// `1 − cos` from a dot product and both norms; a zero norm is at `1.0`.
#[inline(always)]
fn cosine_of(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        1.0
    } else {
        1.0 - dot / (na * nb)
    }
}

/// Queries to a tile of a [`QueryBlock`], one AVX2 register's lanes.
const TILE: usize = 8;

/// A block's last queries are padded out to a tile, with copies of its last
/// query, once this many are left: a tile costs about five single-query
/// evaluations (4.6 – 4.9 in `repro subsearch`'s `a tile` line, 128-d, AVX2,
/// a pinned 2.1 GHz Xeon vCPU), so six cost more one at a time; five tie.
const PAD_FROM: usize = 6;

/// A block of queries laid out once for the row × block kernel: tiles of
/// `TILE` transposed, a register holding one dimension of a tile's queries,
/// so `lane_sum` runs as vertical adds, each query's operations in their
/// order (its bits). Queries past the last tile run one at a time, in place.
#[derive(Debug, Default)]
pub struct QueryBlock {
    metric: Metric,
    dim: usize,
    tiled: usize,
    /// Tile `t`'s dimension `d` is `tiles[t * dim + d]`, a query to a lane.
    tiles: Vec<[f32; TILE]>,
    norms: Vec<f32>,
    pub(crate) dists: Vec<f32>,
}

impl QueryBlock {
    /// Lays out `queries`, all of one length (or it panics), under `metric`.
    pub fn load(&mut self, metric: Metric, queries: &[&[f32]]) {
        let (len, dim) = (queries.len(), queries.first().map_or(0, |q| q.len()));
        assert!(queries.iter().all(|q| q.len() == dim), "ragged block");
        let tiled = (len / TILE + usize::from(len % TILE >= PAD_FROM)) * TILE;
        (self.metric, self.dim, self.tiled) = (metric, dim, tiled);
        self.tiles.resize(tiled / TILE * dim, [0.0; TILE]);
        for (k, lanes) in self.tiles.iter_mut().enumerate() {
            *lanes = std::array::from_fn(|j| queries[(k / dim * TILE + j).min(len - 1)][k % dim]);
        }
        let cosine = queries.iter().filter(|_| metric == Metric::Cosine);
        self.norms.clear();
        self.norms.extend(cosine.map(|q| norm(q)));
        self.dists.resize(len, 0.0);
    }

    /// `row`'s distance to each of the loaded `queries`: [`Metric::distance`]'s bits.
    #[inline]
    pub fn distances(&mut self, row: &[f32], queries: &[&[f32]]) -> &[f32] {
        debug_assert_eq!(queries.len(), self.dists.len(), "not the block laid out");
        crate::simd::block_distances(self, row, queries);
        &self.dists
    }

    /// `dists[i] = Σ term(query i, row)`: a tile at a time, then one at a time.
    #[inline(always)]
    fn sums(&mut self, row: &[f32], queries: &[&[f32]], term: impl Fn(f32, f32) -> f32) {
        let (dim, tiled) = (self.dim, self.tiled.min(queries.len()));
        let (tiles, rest) = self.dists.split_at_mut(tiled);
        for (t, dists) in tiles.chunks_mut(TILE).enumerate() {
            let sums = tile_sum(&self.tiles[t * dim..][..dim], row, &term);
            dists.copy_from_slice(&sums[..dists.len()]);
        }
        for (dist, query) in rest.iter_mut().zip(&queries[tiled..]) {
            *dist = lane_sum(query, row, &term);
        }
    }
}

/// [`QueryBlock::distances`]'s one body: the metric matched once a row.
#[inline(always)]
pub(crate) fn block_portable(block: &mut QueryBlock, row: &[f32], queries: &[&[f32]]) {
    match block.metric {
        Metric::L2 => block.sums(row, queries, |x, y| (x - y) * (x - y)),
        Metric::InnerProduct => {
            block.sums(row, queries, |x, y| x * y);
            block.dists.iter_mut().for_each(|d| *d = -*d);
        }
        Metric::Cosine => {
            block.sums(row, queries, |x, y| x * y);
            let nb = dot_portable(row, row).sqrt();
            for (d, &na) in block.dists.iter_mut().zip(&block.norms) {
                *d = cosine_of(*d, na, nb);
            }
        }
    }
}

/// Accumulators a pass of [`tile_sum`] keeps, inside 16 `ymm` with as many
/// broadcast dimensions and temporaries; 8 spill, or do not unroll at all.
const PASS: usize = 4;

/// [`lane_sum`] of each of a tile's queries, in its order: accumulators 0
/// to 15, [`PASS`] at a time over the row, summed in order, then the tail.
#[inline(always)]
fn tile_sum(tile: &[[f32; TILE]], row: &[f32], term: impl Fn(f32, f32) -> f32) -> [f32; TILE] {
    let n = tile.len().min(row.len());
    let (cut, mut sum, mut tail) = (n - n % LANES, [0.0f32; TILE], [0.0f32; TILE]);
    let add = |acc: &mut [f32; TILE], x: [f32; TILE]| (0..TILE).for_each(|j| acc[j] += x[j]);
    for (q, &y) in tile[cut..n].iter().zip(&row[cut..n]) {
        add(&mut tail, q.map(|x| term(x, y)));
    }
    let (tile, row) = (&tile[..cut], &row[..cut]);
    for pass in (0..LANES).step_by(PASS) {
        let mut acc = [[0.0f32; TILE]; PASS];
        for (q, y) in tile.chunks_exact(LANES).zip(row.chunks_exact(LANES)) {
            let (q, y) = (&q[pass..][..PASS], &y[pass..][..PASS]);
            (0..PASS).for_each(|l| add(&mut acc[l], q[l].map(|x| term(x, y[l]))));
        }
        acc.into_iter().for_each(|a| add(&mut sum, a));
    }
    add(&mut sum, tail);
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The lane kernels against an `f64` reference at every
        /// dimensionality from empty through one past 256: every
        /// remainder of the 16-lane chunking, with and without full
        /// chunks.
        #[test]
        fn l2_and_dot_match_an_f64_reference_at_every_dim(
            a in prop::collection::vec(-300.0f32..300.0, 257..258),
            b in prop::collection::vec(-300.0f32..300.0, 257..258),
        ) {
            for dim in 0..=257 {
                let pairs = || a[..dim].iter().zip(&b[..dim]).map(|(&x, &y)| (f64::from(x), f64::from(y)));
                let l2: f64 = pairs().map(|(x, y)| (x - y) * (x - y)).sum();
                let got = f64::from(l2_sq(&a[..dim], &b[..dim]));
                prop_assert!((got - l2).abs() <= 1e-4 * l2, "l2 dim {}: {} vs {}", dim, got, l2);
                // The dot product cancels, so its error scales with the
                // magnitude of the terms, not of the sum.
                let dot64: f64 = pairs().map(|(x, y)| x * y).sum();
                let scale: f64 = pairs().map(|(x, y)| (x * y).abs()).sum();
                let got = f64::from(dot(&a[..dim], &b[..dim]));
                prop_assert!((got - dot64).abs() <= 1e-4 * scale, "dot dim {}: {} vs {}", dim, got, dot64);
            }
        }
    }

    #[test]
    fn l2_is_zero_on_identical_vectors() {
        let v: Vec<f32> = (0..128).map(|i| i as f32).collect();
        assert_eq!(l2_sq(&v, &v), 0.0);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_one() {
        let d = cosine_distance(&[1.0, 0.0], &[0.0, 5.0]);
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_vectors_is_two() {
        let d = cosine_distance(&[2.0, 0.0], &[-1.0, 0.0]);
        assert!((d - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_norm_defined_as_one() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn inner_product_metric_prefers_larger_dot() {
        // Larger dot product => smaller "distance".
        let q = [1.0, 1.0];
        let close = [2.0, 2.0];
        let far = [0.1, 0.1];
        assert!(
            Metric::InnerProduct.distance(&q, &close) < Metric::InnerProduct.distance(&q, &far)
        );
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(Metric::L2.to_string(), "l2");
        assert_eq!(Metric::InnerProduct.to_string(), "ip");
        assert_eq!(Metric::Cosine.to_string(), "cosine");
    }

    #[test]
    fn metric_is_symmetric_for_l2_and_cosine() {
        let a: Vec<f32> = (0..17).map(|i| i as f32 * 0.3).collect();
        let b: Vec<f32> = (0..17).map(|i| 5.0 - i as f32 * 0.2).collect();
        for m in [Metric::L2, Metric::Cosine] {
            let ab = m.distance(&a, &b);
            let ba = m.distance(&b, &a);
            assert!((ab - ba).abs() < 1e-5, "{m}: {ab} vs {ba}");
        }
    }
}
