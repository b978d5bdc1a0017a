//! Builds under every metric, pinned byte for byte: construction may read
//! its distances from a pairwise table or compute them, and either way
//! each serializes to the blob recorded before the table existed.

use hnsw::{serialize, HnswIndex, HnswParams};
use vecsim::{gen, Dataset, Metric};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(blob length, FNV-1a 64 of the blob)` of `data` built with
/// `HnswParams::new(8, 48).metric(metric).seed(seed)`.
fn digest(data: Dataset, metric: Metric, seed: u64) -> (usize, u64) {
    let params = HnswParams::new(8, 48).metric(metric).seed(seed);
    let blob = serialize::to_bytes(&HnswIndex::build(data, &params).unwrap());
    (blob.len(), fnv64(&blob))
}

/// `(metric, seed, blob length, FNV-1a 64)` of `gen::sift_like(300, seed)`.
const SIFT_300: [(Metric, u64, usize, u64); 4] = [
    (Metric::InnerProduct, 1, 170_596, 0x36fb_0c78_357a_8ac8),
    (Metric::InnerProduct, 2, 171_132, 0xe07f_5ea7_26c6_499a),
    (Metric::Cosine, 1, 172_292, 0x1ed4_eb17_b24c_b65d),
    (Metric::Cosine, 2, 172_528, 0x3dfb_c8ea_ced7_8feb),
];

#[test]
fn inner_product_and_cosine_builds_match_the_recorded_blobs() {
    for (metric, seed, len, hash) in SIFT_300 {
        let data = gen::sift_like(300, seed).unwrap();
        assert_eq!(
            digest(data, metric, seed),
            (len, hash),
            "{metric} seed {seed}"
        );
    }
}

/// `(metric, blob length, FNV-1a 64)` of `gen::uniform(4, 5_000, 0, 1, 3)`,
/// more rows than construction keeps a distance table for.
const UNIFORM_5000: [(Metric, usize, u64); 3] = [
    (Metric::L2, 403_656, 0xb0ca_3d0e_3fc8_3c47),
    (Metric::InnerProduct, 312_540, 0xfdc1_5562_4537_bad6),
    (Metric::Cosine, 404_176, 0xd061_180c_c4a3_8d52),
];

#[test]
fn a_build_past_the_table_bound_matches_the_recorded_blobs() {
    for (metric, len, hash) in UNIFORM_5000 {
        let data = gen::uniform(4, 5_000, 0.0, 1.0, 3).unwrap();
        assert_eq!(digest(data, metric, 4), (len, hash), "{metric}");
    }
}
