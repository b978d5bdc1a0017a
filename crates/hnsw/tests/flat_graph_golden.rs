//! The flat adjacency store must be invisible from outside: builds
//! serialize to the bytes the nested-`Vec` graph produced, and a decoded
//! index is the built one — same bytes back, same search results.

use hnsw::{serialize, HnswIndex, HnswParams};
use vecsim::gen;

/// `(seed, blob length, FNV-1a 64 of the blob)` of
/// `HnswIndex::build(gen::sift_like(300, seed), &HnswParams::new(8, 48).seed(seed))`,
/// recorded from the commit before the graph became flat.
const BUILDS_BEFORE: [(u64, usize, u64); 8] = [
    (1, 172316, 0x0ae066f7521b1f17),
    (2, 172520, 0xdbb8ac91083673bc),
    (3, 172532, 0xda7727e3d500e1c8),
    (4, 172844, 0x3da7f6a9b4f79c19),
    (5, 172452, 0x5595b19ef5b69ca2),
    (6, 172700, 0xdef2c3a13465a272),
    (7, 172860, 0xed8a33462386c2a6),
    (8, 172328, 0xc2acf594f6834699),
];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn small_build_matches_the_committed_blob() {
    // A five-layer index, so upper-layer lists are covered too.
    let golden = include_bytes!("golden/hsw1_uniform_4x64.bin");
    let data = gen::uniform(4, 64, 0.0, 1.0, 5).unwrap();
    let built = HnswIndex::build(data, &HnswParams::new(4, 24).seed(6)).unwrap();
    assert_eq!(built.max_level(), 4);
    assert_eq!(serialize::to_bytes(&built), golden);
    let decoded = serialize::from_bytes(golden).unwrap();
    assert_eq!(serialize::to_bytes(&decoded), golden);
}

#[test]
fn builds_and_decodes_are_byte_and_result_identical_across_seeds() {
    for (seed, len, hash) in BUILDS_BEFORE {
        let data = gen::sift_like(300, seed).unwrap();
        let queries = gen::perturbed_queries(&data, 20, 0.05, seed + 100).unwrap();
        let built = HnswIndex::build(data, &HnswParams::new(8, 48).seed(seed)).unwrap();
        let blob = serialize::to_bytes(&built);
        assert_eq!(
            (blob.len(), fnv64(&blob)),
            (len, hash),
            "seed {seed}: build changed"
        );

        let decoded = serialize::from_bytes(&blob).unwrap();
        assert_eq!(
            serialize::to_bytes(&decoded),
            blob,
            "seed {seed}: re-encode differs"
        );
        for q in queries.iter() {
            for (k, ef) in [(1, 1), (10, 48), (25, 100)] {
                // `Neighbor` equality is id and distance, bit for bit.
                assert_eq!(
                    decoded.search(q, k, ef),
                    built.search(q, k, ef),
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn a_decoded_index_accepts_inserts() {
    // Decoded lists are stored at their exact length, so every list an
    // insert touches has to move before it can grow.
    let data = gen::uniform(8, 240, 0.0, 1.0, 9).unwrap();
    let params = HnswParams::new(6, 40).seed(3);
    let mut head = HnswIndex::new(8, &params).unwrap();
    for row in data.iter().take(150) {
        head.insert(row).unwrap();
    }
    let mut resumed = serialize::from_bytes(&serialize::to_bytes(&head)).unwrap();
    for row in data.iter().skip(150) {
        resumed.insert(row).unwrap();
    }
    assert_eq!(resumed.len(), 240);
    // Every node is reachable from the entry point over layer-0 edges.
    let mut seen = vec![false; resumed.len()];
    let mut stack: Vec<u32> = resumed.entry_point().into_iter().collect();
    while let Some(v) = stack.pop() {
        if !std::mem::replace(&mut seen[v as usize], true) {
            stack.extend(resumed.neighbors(v, 0));
        }
    }
    assert!(seen.iter().all(|&s| s), "layer 0 is connected");
    for (id, row) in data.iter().enumerate() {
        assert_eq!(resumed.search(row, 1, 32)[0].id, id as u32);
    }
    // And the grown index still round-trips.
    let blob = serialize::to_bytes(&resumed);
    assert_eq!(
        serialize::to_bytes(&serialize::from_bytes(&blob).unwrap()),
        blob
    );
}
