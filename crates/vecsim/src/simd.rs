//! The distance kernels at the width the CPU has — the second, and last,
//! `unsafe` module of the workspace.
//!
//! `cargo build --release` targets baseline x86-64, 4-wide SSE2. So each
//! kernel of [`crate::distance`] and [`crate::quantize`] is compiled twice
//! from its one safe, `#[inline(always)]` `*_portable` body: into the entry
//! below at the build's own width, and into a `#[target_feature(enable =
//! "avx2")]` twin whose whole body is a call of that body; the entry picks
//! by `is_x86_feature_detected!`. The twin has no arithmetic of its own and
//! the feature list is `avx2` alone — no `fma`, so a multiply and an add
//! still round separately — so both return the same bits. Off x86-64, or
//! without AVX2, the portable body is all there is.
//!
//! The only `unsafe` here is the call of a twin, whose one soundness
//! condition is the CPUID fact tested on the line above it — no pointer,
//! lifetime or layout, unlike [`crate::cast`]; `scripts/check.sh` fails on
//! one more than two lines from that test. No `core::arch` intrinsics.

#![allow(unsafe_code)]

use crate::distance::{self, QueryBlock};
use crate::quantize::SqParams;

/// The kernel width in use, `"avx2"` or `"portable"`, for artifacts to print.
pub fn active() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// `fn name(args) = body`: the entry that runs `body` in its AVX2 twin
/// where the CPU has AVX2, and as it stands elsewhere.
macro_rules! dispatched {
    ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:path) => {
        $(#[$doc])*
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn twin($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if is_x86_feature_detected!("avx2") {
                    // SAFETY: `twin` requires AVX2, detected on the line above.
                    return unsafe { twin($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

dispatched! {
    /// Squared Euclidean distance between `a` and `b`.
    ///
    /// ```rust
    /// assert_eq!(vecsim::l2_sq(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
    /// ```
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 = distance::l2_sq_portable
}
dispatched! {
    /// Dot product of `a` and `b`.
    ///
    /// ```rust
    /// assert_eq!(vecsim::dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    /// ```
    pub fn dot(a: &[f32], b: &[f32]) -> f32 = distance::dot_portable
}
dispatched! {
    /// Cosine distance `1 − cos(a, b)`.
    ///
    /// Degenerate zero-norm inputs are defined to be at distance `1.0` from
    /// everything (they carry no directional information).
    ///
    /// ```rust
    /// let d = vecsim::cosine_distance(&[1.0, 0.0], &[1.0, 0.0]);
    /// assert!(d.abs() < 1e-6);
    /// ```
    pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 = distance::cosine_portable
}
dispatched!(pub(crate) fn block_distances(block: &mut QueryBlock, row: &[f32], queries: &[&[f32]]) = distance::block_portable);
dispatched!(pub(crate) fn decode_into(params: &SqParams, codes: &[u8], row: &mut [f32]) = SqParams::decode_into_portable);
dispatched!(pub(crate) fn asymmetric_l2(params: &SqParams, query: &[f32], codes: &[u8]) -> f32 = SqParams::asymmetric_l2_portable);

#[cfg(test)]
mod tests {
    //! Dispatched ≡ portable, bit for bit: on a host where [`active`] is
    //! `"avx2"` these hold two different compilations of each body against
    //! each other (optimised builds are where they differ most:
    //! `cargo test --release -p vecsim simd`).

    use super::*;
    use crate::distance::{block_portable, cosine_portable, dot_portable, l2_sq_portable};
    use crate::Metric;
    use proptest::prelude::*;

    /// The longest input, one past two hundred and fifty-six: every
    /// remainder of the 16-lane chunking, with and without full chunks.
    const MAX: usize = 257;

    /// Values a sum may not survive: both infinities, NaN, both zeros, a
    /// subnormal of each sign and the largest finite value.
    const SPECIALS: [f32; 8] = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -0.0,
        0.0,
        1e-40,
        -1e-40,
        f32::MAX,
    ];

    /// The same bits — or both NaN: which operand's payload a NaN result
    /// carries is the one thing instruction selection may change.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Equal lengths, a shorter right side, a shorter left side, at every
    /// length up to [`MAX`].
    fn shapes() -> impl Iterator<Item = (usize, usize)> {
        (0..=MAX).flat_map(|n| [(n, n), (n, n / 2), (n - n.min(1 + n % 17), n)])
    }

    fn plant(v: &mut [f32], spots: &[(usize, usize)]) {
        for &(at, which) in spots {
            v[at] = SPECIALS[which];
        }
    }

    #[test]
    fn active_names_the_width_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        assert_eq!(active(), if avx2 { "avx2" } else { "portable" });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `l2_sq`, `dot` and `cosine_distance`, plain and with special
        /// values planted in both operands; the shorter operand decides how
        /// far a sum runs.
        #[test]
        fn f32_kernels_return_their_portable_bits(
            a in prop::collection::vec(-300.0f32..300.0, MAX..MAX + 1),
            b in prop::collection::vec(-300.0f32..300.0, MAX..MAX + 1),
            in_a in prop::collection::vec((0..MAX, 0..SPECIALS.len()), 1..9),
            in_b in prop::collection::vec((0..MAX, 0..SPECIALS.len()), 1..9),
        ) {
            let (mut a, mut b) = (a, b);
            for planted in [false, true] {
                if planted {
                    plant(&mut a, &in_a);
                    plant(&mut b, &in_b);
                }
                for (n, m) in shapes() {
                    let (x, y, both) = (&a[..n], &b[..m], n.min(m));
                    let got = crate::l2_sq(x, y);
                    prop_assert!(same(got, l2_sq_portable(x, y)), "l2 {}x{}: {}", n, m, got);
                    prop_assert!(same(got, crate::l2_sq(&x[..both], &y[..both])), "l2 {}x{} cut", n, m);
                    let got = crate::cosine_distance(x, y);
                    prop_assert!(same(got, cosine_portable(x, y)), "cosine {}x{}: {}", n, m, got);
                    let got = crate::dot(x, y);
                    prop_assert!(same(got, dot_portable(x, y)), "dot {}x{}: {}", n, m, got);
                    prop_assert!(same(got, crate::dot(&x[..both], &y[..both])), "dot {}x{} cut", n, m);
                }
            }
        }

        /// The two SQ8 kernels, called beneath the public entries' length
        /// assertions so that short queries, codes and rows reach them:
        /// the shortest decides, and the rest of a row is left as it was.
        #[test]
        fn sq8_kernels_return_their_portable_bits(
            query in prop::collection::vec(-300.0f32..300.0, MAX..MAX + 1),
            codes in prop::collection::vec(any::<u8>(), MAX..MAX + 1),
            min in prop::collection::vec(-200.0f32..200.0, MAX..MAX + 1),
            scale in prop::collection::vec(0.0f32..2.0, MAX..MAX + 1),
            in_query in prop::collection::vec((0..MAX, 0..SPECIALS.len()), 1..9),
        ) {
            let mut query = query;
            for planted in [false, true] {
                if planted {
                    plant(&mut query, &in_query);
                }
                for (n, m) in shapes() {
                    let params = SqParams::from_parts(min[..n].to_vec(), scale[..n].to_vec()).unwrap();
                    for (q, c) in [(&query[..n], &codes[..m]), (&query[..m], &codes[..n])] {
                        let got = asymmetric_l2(&params, q, c);
                        let want = params.asymmetric_l2_portable(q, c);
                        prop_assert!(same(got, want), "asymmetric {}x{}: {} vs {}", n, m, got, want);
                    }
                    for (c, len) in [(&codes[..n], m), (&codes[..m], n), (&codes[..m], MAX)] {
                        let (mut got, mut want) = (vec![7.0f32; len], vec![7.0f32; len]);
                        decode_into(&params, c, &mut got);
                        params.decode_into_portable(c, &mut want);
                        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&got), bits(&want), "decode {}x{} into {}", n, m, len);
                        prop_assert!(got[n.min(m).min(len)..].iter().all(|&x| x == 7.0));
                    }
                }
            }
        }

        /// The block kernel under every metric, for blocks of 1 to 33
        /// queries — every remainder of the 8-query tiling, padded and
        /// not — at every length: its portable body's bits, which are one
        /// per-call kernel per query, and one distance per query of the
        /// block, none for a padded lane. One layout is reused throughout,
        /// as a worker reuses its scratch from block to block.
        #[test]
        fn a_block_is_one_distance_per_query(
            pool in prop::collection::vec(-300.0f32..300.0, MAX + 132..MAX + 133),
            row in prop::collection::vec(-300.0f32..300.0, MAX..MAX + 1),
            in_pool in prop::collection::vec((0..MAX + 132, 0..SPECIALS.len()), 1..9),
            in_row in prop::collection::vec((0..MAX, 0..SPECIALS.len()), 1..9),
        ) {
            let (mut pool, mut row) = (pool, row);
            let (mut block, mut portable) = (QueryBlock::default(), QueryBlock::default());
            for planted in [false, true] {
                if planted {
                    plant(&mut pool, &in_pool);
                    plant(&mut row, &in_row);
                }
                for ((n, m), len) in shapes().zip((1..=33).cycle()) {
                    let queries: Vec<&[f32]> = (0..len).map(|i| &pool[4 * i..][..n]).collect();
                    let row = &row[..m];
                    for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                        portable.load(metric, &queries);
                        block_portable(&mut portable, row, &queries);
                        block.load(metric, &queries);
                        let got = block.distances(row, &queries);
                        prop_assert_eq!((got.len(), portable.dists.len()), (len, len));
                        for (i, query) in queries.iter().enumerate() {
                            let one = match metric {
                                Metric::L2 => crate::l2_sq(query, row),
                                Metric::InnerProduct => -crate::dot(query, row),
                                Metric::Cosine => crate::cosine_distance(query, row),
                            };
                            let want = portable.dists[i];
                            prop_assert!(
                                same(got[i], want) && same(got[i], one),
                                "{} {}x{} query {} of {}: {} vs {} vs {}", metric, n, m, i, len, got[i], want, one
                            );
                        }
                    }
                }
            }
        }
    }
}
