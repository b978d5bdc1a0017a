//! The remote image a store build writes, pinned byte for byte: a change
//! to sub-HNSW construction, serialization or placement that moves one
//! byte of the registered region fails here, on both wires.

use dhnsw_repro::dhnsw::{DHnswConfig, QuantizeMode, VectorStore};
use dhnsw_repro::rdma_sim::QueuePair;
use dhnsw_repro::vecsim::gen;

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a 64)` of the whole registered region of a store over
/// `gen::sift_like(2_000, 42)` with 10 representatives.
fn image(wire: QuantizeMode) -> (u64, u64) {
    let data = gen::sift_like(2_000, 42).unwrap();
    let config = DHnswConfig::paper()
        .with_representatives(10)
        .with_quantize_mode(wire);
    let store = VectorStore::build(data, &config).unwrap();
    let region = store.region();
    let qp = QueuePair::connect(store.memory_node(), config.network());
    let bytes = qp.read(region.rkey(), 0, region.len()).unwrap();
    (bytes.len() as u64, fnv64(&bytes))
}

#[test]
fn the_store_image_is_the_recorded_one_on_both_wires() {
    assert_eq!(
        image(QuantizeMode::Off),
        (1_946_448, 0x3e54_60dc_245b_65e5),
        "full precision"
    );
    assert_eq!(
        image(QuantizeMode::Sq8),
        (2_221_024, 0x9dc1_f159_00d3_c6c8),
        "sq8"
    );
}
