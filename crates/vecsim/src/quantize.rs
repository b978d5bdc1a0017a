//! Scalar quantization (SQ8) for compressed vector transport.
//!
//! d-HNSW's bottleneck currency is network bytes: a full-precision
//! 128-d vector costs 512 B on the wire, its SQ8 codes cost 128 B. The
//! quantizer here is the classic per-dimension affine scheme: for each
//! dimension `d` of a training set, store `min[d]` and a `scale[d]`
//! such that the value range maps onto the 256 code points, then
//! encode every component as `round((x - min) / scale)` clamped to
//! `[0, 255]`. Decoding is `min + code * scale`, so the round-trip
//! error per component is bounded by `scale / 2`.
//!
//! Search over codes uses the *asymmetric* distance: the query stays
//! in f32 and is compared against decoded code points, which loses far
//! less recall than code-to-code (symmetric) comparison. The engine
//! reranks the candidates whose approximate distances are too close to
//! call with exact full-precision reads; [`SqParams::l2_error_bound`]
//! provides the error scale those margin decisions are based on.
//!
//! # Example
//!
//! ```rust
//! use vecsim::quantize::SqParams;
//!
//! let rows: Vec<Vec<f32>> = vec![vec![0.0, 10.0], vec![1.0, 20.0]];
//! let params = SqParams::train(2, rows.iter().map(|r| r.as_slice())).unwrap();
//! let codes = params.encode(&[0.5, 15.0]);
//! let back = params.decode(&codes);
//! assert!((back[0] - 0.5).abs() <= params.scale()[0] / 2.0);
//! ```

use crate::distance::LANES;
use crate::{Error, Result};

/// Per-dimension affine quantization parameters: `code = round((x -
/// min) / scale)`, `x̂ = min + code * scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct SqParams {
    min: Vec<f32>,
    scale: Vec<f32>,
    /// Variance one dimension's quantization noise adds, `E[scale²] / 12`:
    /// the only part of [`SqParams::l2_error_bound`] that reads `scale`.
    var_per_dim: f32,
}

impl SqParams {
    /// Trains parameters over `rows`, each a `dim`-length slice: per
    /// dimension, `min` is the smallest observed value and `scale`
    /// spreads the observed range across the 256 code points. A
    /// constant dimension gets `scale == 0` and round-trips exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `rows` is empty and
    /// [`Error::DimensionMismatch`] when a row's length is not `dim`.
    pub fn train<'a, I>(dim: usize, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        let mut seen = 0usize;
        for row in rows {
            if row.len() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    got: row.len(),
                });
            }
            for d in 0..dim {
                min[d] = min[d].min(row[d]);
                max[d] = max[d].max(row[d]);
            }
            seen += 1;
        }
        if seen == 0 {
            return Err(Error::InvalidParameter(
                "quantizer training set is empty".into(),
            ));
        }
        let scale = (0..dim).map(|d| (max[d] - min[d]) / 255.0).collect();
        Ok(SqParams::assemble(min, scale))
    }

    fn assemble(min: Vec<f32>, scale: Vec<f32>) -> Self {
        let var_per_dim = if scale.is_empty() {
            0.0
        } else {
            scale.iter().map(|&s| s * s).sum::<f32>() / scale.len() as f32 / 12.0
        };
        SqParams {
            min,
            scale,
            var_per_dim,
        }
    }

    /// Reassembles parameters from their serialized parts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the two vectors
    /// disagree in length, and [`Error::InvalidParameter`] when a `min`
    /// is not finite or a `scale` is not finite or is negative — values
    /// training never produces and every distance would inherit.
    pub fn from_parts(min: Vec<f32>, scale: Vec<f32>) -> Result<Self> {
        if min.len() != scale.len() {
            return Err(Error::DimensionMismatch {
                expected: min.len(),
                got: scale.len(),
            });
        }
        if let Some(d) = (0..min.len())
            .find(|&d| !(min[d].is_finite() && scale[d].is_finite() && scale[d] >= 0.0))
        {
            return Err(Error::InvalidParameter(format!(
                "dimension {d} has min {} and scale {}",
                min[d], scale[d]
            )));
        }
        Ok(SqParams::assemble(min, scale))
    }

    /// Vector dimensionality these parameters quantize.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Per-dimension minima.
    pub fn min(&self) -> &[f32] {
        &self.min
    }

    /// Per-dimension code step sizes.
    pub fn scale(&self) -> &[f32] {
        &self.scale
    }

    /// Encodes one vector into `dim` u8 codes.
    ///
    /// Values outside the trained range clamp to the boundary codes,
    /// so encoding never panics on unseen data.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()` (debug builds; release builds
    /// truncate via the zip).
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        debug_assert_eq!(v.len(), self.dim());
        v.iter()
            .zip(self.min.iter().zip(&self.scale))
            .map(|(&x, (&m, &s))| {
                if s <= 0.0 {
                    0
                } else {
                    (((x - m) / s).round()).clamp(0.0, 255.0) as u8
                }
            })
            .collect()
    }

    /// Decodes `dim` codes back into an approximate f32 vector.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        let mut row = vec![0.0; self.dim()];
        self.decode_into(codes, &mut row);
        row
    }

    /// Decodes `codes` into `row`, `min + code * scale` per dimension:
    /// the code point [`SqParams::asymmetric_l2`] compares the query with,
    /// rounded the same way, so a scan can decode a row once and hold any
    /// number of queries against it with [`crate::l2_sq`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `codes` or `row` is not `dim` long; in
    /// release builds the shortest length wins and the rest of `row` is
    /// left as it was.
    pub fn decode_into(&self, codes: &[u8], row: &mut [f32]) {
        debug_assert_eq!(codes.len(), self.dim());
        debug_assert_eq!(row.len(), self.dim());
        crate::simd::decode_into(self, codes, row)
    }

    #[inline(always)]
    pub(crate) fn decode_into_portable(&self, codes: &[u8], row: &mut [f32]) {
        let params = self.min.iter().zip(&self.scale);
        for ((x, &c), (&m, &s)) in row.iter_mut().zip(codes).zip(params) {
            *x = m + f32::from(c) * s;
        }
    }

    /// Asymmetric squared-L2 distance: the f32 query against the
    /// decoded code points, without materializing the decoded vector —
    /// the terms, lanes and reduction order of [`crate::l2_sq`] over the
    /// decoded row, so the same bits at every length.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `query` or `codes` is not `dim` long; in
    /// release builds the shortest length wins.
    pub fn asymmetric_l2(&self, query: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(query.len(), self.dim());
        debug_assert_eq!(codes.len(), self.dim());
        crate::simd::asymmetric_l2(self, query, codes)
    }

    #[inline(always)]
    pub(crate) fn asymmetric_l2_portable(&self, query: &[f32], codes: &[u8]) -> f32 {
        let n = codes.len().min(query.len()).min(self.dim());
        let term = |q: f32, c: u8, m: f32, s: f32| {
            let diff = q - (m + f32::from(c) * s);
            diff * diff
        };
        let mut acc = [0.0f32; LANES];
        let mut q = query[..n].chunks_exact(LANES);
        let mut c = codes[..n].chunks_exact(LANES);
        let mut m = self.min[..n].chunks_exact(LANES);
        let mut s = self.scale[..n].chunks_exact(LANES);
        for (((q, c), m), s) in (&mut q).zip(&mut c).zip(&mut m).zip(&mut s) {
            for l in 0..LANES {
                acc[l] += term(q[l], c[l], m[l], s[l]);
            }
        }
        let tail = (q.remainder().iter().zip(c.remainder()))
            .zip(m.remainder().iter().zip(s.remainder()))
            .map(|((&q, &c), (&m, &s))| term(q, c, m, s))
            .sum::<f32>();
        acc.iter().sum::<f32>() + tail
    }

    /// Scale of the error the quantization noise adds to a squared-L2
    /// distance of (approximate) magnitude `d_hat`.
    ///
    /// Writing the true vector as `x = x̂ + e` with per-dimension noise
    /// `e_d` uniform in `[-s_d/2, s_d/2]`, the exact distance is
    /// `d = d̂ - 2⟨q - x̂, e⟩ + ‖e‖²`. The bound returned is one
    /// standard deviation of the cross term, `2·√(d̂ · E[s²]/12)`,
    /// plus the mean of the quadratic term, `dim · E[s²]/12` — the
    /// natural unit for "these two approximate distances are too close
    /// to order without exact rerank".
    pub fn l2_error_bound(&self, d_hat: f32) -> f32 {
        let var = self.var_per_dim;
        2.0 * (d_hat.max(0.0) * var).sqrt() + self.dim() as f32 * var
    }

    /// The largest per-component round-trip error these parameters can
    /// produce on in-range data: `max_d scale[d] / 2`.
    pub fn max_component_error(&self) -> f32 {
        self.scale.iter().fold(0.0f32, |a, &s| a.max(s / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, l2_sq};
    use proptest::prelude::*;

    fn trained(n: usize, seed: u64) -> (crate::Dataset, SqParams) {
        let data = gen::sift_like(n, seed).unwrap();
        let params = SqParams::train(data.dim(), data.iter()).unwrap();
        (data, params)
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let (data, params) = trained(200, 11);
        for row in data.iter() {
            let back = params.decode(&params.encode(row));
            for d in 0..row.len() {
                assert!(
                    (back[d] - row[d]).abs() <= params.scale()[d] / 2.0 + 1e-4,
                    "dim {d}: {} vs {}",
                    back[d],
                    row[d]
                );
            }
        }
    }

    #[test]
    fn constant_dimension_round_trips_exactly() {
        let rows = [[3.5f32, 1.0], [3.5, 2.0], [3.5, 3.0]];
        let params = SqParams::train(2, rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(params.scale()[0], 0.0);
        let back = params.decode(&params.encode(&rows[1]));
        assert_eq!(back[0], 3.5);
    }

    #[test]
    fn out_of_range_values_clamp_to_boundary_codes() {
        let rows = [[0.0f32], [10.0]];
        let params = SqParams::train(1, rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(params.encode(&[-5.0]), vec![0]);
        assert_eq!(params.encode(&[99.0]), vec![255]);
    }

    #[test]
    fn asymmetric_distance_matches_decode_then_exact() {
        let (data, params) = trained(50, 12);
        let q = data.get(0);
        for i in 1..10 {
            let codes = params.encode(data.get(i));
            let via_decode = l2_sq(q, &params.decode(&codes));
            let direct = params.asymmetric_l2(q, &codes);
            assert!((via_decode - direct).abs() <= 1e-2 * via_decode.max(1.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The chunked kernel against decode-then-`l2_sq`, at every
        /// dimensionality from empty through two chunks past 256: every
        /// remainder of the lane chunking, with and without full chunks.
        /// One lane count serves both, so they are the same bits.
        #[test]
        fn asymmetric_l2_equals_decode_then_l2_at_every_dim(
            query in prop::collection::vec(-300.0f32..300.0, 257..258),
            codes in prop::collection::vec(any::<u8>(), 257..258),
            min in prop::collection::vec(-200.0f32..200.0, 257..258),
            scale in prop::collection::vec(0.0f32..2.0, 257..258),
        ) {
            for dim in 0..=257 {
                let params =
                    SqParams::from_parts(min[..dim].to_vec(), scale[..dim].to_vec()).unwrap();
                let direct = params.asymmetric_l2(&query[..dim], &codes[..dim]);
                let mut row = vec![f32::NAN; dim];
                params.decode_into(&codes[..dim], &mut row);
                prop_assert_eq!(row.as_slice(), params.decode(&codes[..dim]).as_slice());
                let once = l2_sq(&query[..dim], &row);
                prop_assert_eq!(once.to_bits(), direct.to_bits(), "dim {}: {} vs {}", dim, once, direct);
            }
        }
    }

    #[test]
    fn from_parts_rejects_values_training_cannot_produce() {
        for (min, scale) in [
            (f32::NAN, 1.0),
            (f32::INFINITY, 1.0),
            (0.0, f32::NAN),
            (0.0, f32::INFINITY),
            (0.0, -0.5),
        ] {
            let got = SqParams::from_parts(vec![0.0, min], vec![1.0, scale]);
            assert!(
                matches!(got, Err(Error::InvalidParameter(_))),
                "min {min} scale {scale}: {got:?}"
            );
        }
        // Negative minima and zero scales are ordinary.
        assert!(SqParams::from_parts(vec![-3.0], vec![0.0]).is_ok());
    }

    #[test]
    fn train_rejects_degenerate_input() {
        assert!(matches!(
            SqParams::train(4, std::iter::empty()),
            Err(Error::InvalidParameter(_))
        ));
        let row = [1.0f32, 2.0];
        assert!(SqParams::train(3, [row.as_slice()]).is_err());
        assert!(SqParams::from_parts(vec![0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn from_parts_round_trips_accessors() {
        let p = SqParams::from_parts(vec![1.0, 2.0], vec![0.5, 0.25]).unwrap();
        assert_eq!(p.dim(), 2);
        assert_eq!(p.min(), &[1.0, 2.0]);
        assert_eq!(p.scale(), &[0.5, 0.25]);
        assert_eq!(p.max_component_error(), 0.25);
    }

    #[test]
    fn error_bound_grows_with_distance_and_is_zero_for_exact_params() {
        let p = SqParams::from_parts(vec![0.0; 4], vec![1.0; 4]).unwrap();
        assert!(p.l2_error_bound(100.0) > p.l2_error_bound(1.0));
        let exact = SqParams::from_parts(vec![0.0; 4], vec![0.0; 4]).unwrap();
        assert_eq!(exact.l2_error_bound(100.0), 0.0);
    }
}
