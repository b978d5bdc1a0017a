//! Seeded concurrency stress: multiple reader threads query one store
//! while a writer thread churns inserts and deletes against it, all
//! under substrate fault injection. Every reader batch must decode
//! cleanly (no torn record survives the commit-marker / version
//! protocol), must never answer from a stale cluster version, and must
//! match a quiesced control run exactly — the writer's transient
//! vectors are placed far outside the data's hull so no consistent
//! snapshot can rank them.
//!
//! Iteration count comes from `DHNSW_STRESS_ITERS` (default 4 so plain
//! `cargo test` stays quick); CI runs the 100-iteration gate via
//! `scripts/check.sh`.

use std::sync::Arc;

use dhnsw_repro::dhnsw::{DHnswConfig, SearchMode, VectorStore};
use dhnsw_repro::vecsim::gen;

fn stress_iters() -> u64 {
    std::env::var("DHNSW_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Vectors far outside the generated data's hull: even when a reader
/// observes one mid-flight (inserted, not yet deleted), it cannot
/// displace a true neighbour from any query's top-k.
fn far_vectors(dim: usize, count: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..dim)
                .map(|j| 4_000.0 + ((seed as usize + i * dim + j) % 97) as f32)
                .collect()
        })
        .collect()
}

#[test]
fn readers_stay_consistent_under_concurrent_writes_and_faults() {
    for iter in 0..stress_iters() {
        run_iteration(0xD15C0 + iter);
    }
}

fn run_iteration(seed: u64) {
    let n = 200usize;
    let data = gen::sift_like(n, seed).unwrap();
    // Generous engine retry budget: the writer's version bumps can
    // collide with a reader's optimistic snapshot several times in a
    // row, and that must surface as retries, not failures.
    let cfg = DHnswConfig::small()
        .with_overflow_slots(128)
        .with_read_retry_limit(32);
    let store = Arc::new(VectorStore::build(data.clone(), &cfg).unwrap());
    let queries = gen::perturbed_queries(&data, 8, 0.02, seed ^ 0x9E37).unwrap();

    // Quiesced control: what every consistent snapshot must answer.
    let control = {
        let node = store.connect(SearchMode::Full).unwrap();
        node.query_batch(&queries, 5, 32).unwrap().0
    };

    let dim = data.dim();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let store = Arc::clone(&store);
            let queries = queries.clone();
            let control = control.clone();
            s.spawn(move || {
                let node = store.connect(SearchMode::Full).unwrap();
                node.queue_pair().set_fault_rate(0.05, seed ^ (0xFA + t));
                for round in 0..3 {
                    // An unwrap here is itself an assertion: a torn
                    // overflow slot or half-written cluster would fail
                    // decode, and exhausted retries would error out.
                    let (results, report) = node.query_batch(&queries, 5, 32).unwrap();
                    assert_eq!(
                        results, control,
                        "reader {t} round {round} diverged (seed {seed})"
                    );
                    assert_eq!(report.degraded_queries, 0, "seed {seed}");
                }
            });
        }
        let store_w = Arc::clone(&store);
        s.spawn(move || {
            let node = store_w.connect(SearchMode::Full).unwrap();
            for (i, v) in far_vectors(dim, 12, seed).iter().enumerate() {
                let id = node.insert(v).unwrap();
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                node.delete(v, id).unwrap();
            }
        });
    });

    // Quiesced rerun on a fresh connection: the writer net-effect is
    // zero (every insert tombstoned), so results must match the control
    // byte for byte.
    let node = store.connect(SearchMode::Full).unwrap();
    let (results, _) = node.query_batch(&queries, 5, 32).unwrap();
    assert_eq!(results, control, "post-stress rerun diverged (seed {seed})");
}

#[test]
fn pipelined_readers_survive_the_same_stress() {
    // One shorter pass with the pipelined executor + prefetcher armed:
    // pinning across stages and background warming must not change any
    // of the stress invariants.
    let iters = stress_iters().div_ceil(4);
    for iter in 0..iters {
        run_pipelined_iteration(0xB00 + iter);
    }
}

fn run_pipelined_iteration(seed: u64) {
    let n = 200usize;
    let data = gen::sift_like(n, seed).unwrap();
    let cfg = DHnswConfig::small()
        .with_overflow_slots(128)
        .with_read_retry_limit(32)
        .with_pipeline_depth(3)
        .with_prefetch_budget_bytes(1 << 20);
    let store = Arc::new(VectorStore::build(data.clone(), &cfg).unwrap());
    let queries = gen::perturbed_queries(&data, 9, 0.02, seed ^ 0x517E).unwrap();
    let control = {
        let node = store.connect(SearchMode::Full).unwrap();
        node.query_batch(&queries, 5, 32).unwrap().0
    };
    let dim = data.dim();
    std::thread::scope(|s| {
        let store_r = Arc::clone(&store);
        let queries_r = queries.clone();
        let control_r = control.clone();
        s.spawn(move || {
            let node = store_r.connect(SearchMode::Full).unwrap();
            node.queue_pair().set_fault_rate(0.05, seed ^ 0xFEED);
            for round in 0..3 {
                let (results, _) = node.query_batch(&queries_r, 5, 32).unwrap();
                assert_eq!(
                    results, control_r,
                    "pipelined reader round {round} diverged (seed {seed})"
                );
            }
        });
        let store_w = Arc::clone(&store);
        s.spawn(move || {
            let node = store_w.connect(SearchMode::Full).unwrap();
            for v in far_vectors(dim, 8, seed) {
                let id = node.insert(&v).unwrap();
                node.delete(&v, id).unwrap();
            }
        });
    });
    let node = store.connect(SearchMode::Full).unwrap();
    let (results, _) = node.query_batch(&queries, 5, 32).unwrap();
    assert_eq!(
        results, control,
        "pipelined post-stress rerun diverged (seed {seed})"
    );
}
