//! Concurrency integration tests: the remote atomics that make the
//! overflow/insert path safe must hold up under real thread interleaving,
//! and concurrent query traffic must never corrupt results.

use std::collections::HashSet;
use std::sync::Arc;

use dhnsw_repro::dhnsw::{DHnswConfig, SearchMode, VectorStore};
use dhnsw_repro::rdma_sim::{MemoryNode, NetworkModel, QueuePair};
use dhnsw_repro::vecsim::gen;

#[test]
fn remote_faa_is_atomic_across_queue_pairs() {
    let node = MemoryNode::new("m");
    let region = node.register(64).unwrap();
    let qps: Vec<Arc<QueuePair>> = (0..4)
        .map(|_| Arc::new(QueuePair::connect(&node, NetworkModel::connectx6())))
        .collect();
    let per_thread = 500u64;
    std::thread::scope(|s| {
        for qp in &qps {
            let qp = Arc::clone(qp);
            s.spawn(move || {
                for _ in 0..per_thread {
                    qp.faa(region.rkey(), 0, 1).unwrap();
                }
            });
        }
    });
    let probe = QueuePair::connect(&node, NetworkModel::connectx6());
    let final_value =
        u64::from_le_bytes(probe.read(region.rkey(), 0, 8).unwrap().try_into().unwrap());
    assert_eq!(final_value, 4 * per_thread);
}

#[test]
fn remote_cas_admits_exactly_one_winner() {
    let node = MemoryNode::new("m");
    let region = node.register(64).unwrap();
    let winners: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let node = Arc::clone(&node);
                s.spawn(move || {
                    let qp = QueuePair::connect(&node, NetworkModel::connectx6());
                    qp.cas(region.rkey(), 0, 0, t + 1).unwrap() == 0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
}

#[test]
fn concurrent_inserts_from_many_compute_nodes_get_unique_ids() {
    let data = gen::sift_like(600, 81).unwrap();
    // Plenty of overflow room so no insert fails.
    let cfg = DHnswConfig::small().with_overflow_slots(512);
    let store = Arc::new(VectorStore::build(data.clone(), &cfg).unwrap());

    let inserts_per_node = 40usize;
    let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let store = Arc::clone(&store);
                let data = data.clone();
                s.spawn(move || {
                    let node = store.connect(SearchMode::Full).unwrap();
                    let stream =
                        gen::perturbed_queries(&data, inserts_per_node, 0.01, 900 + t).unwrap();
                    stream
                        .iter()
                        .map(|v| node.insert(v).unwrap())
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut all: Vec<u32> = ids.into_iter().flatten().collect();
    assert_eq!(all.len(), 4 * inserts_per_node);
    let unique: HashSet<u32> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "duplicate global ids allocated");
    all.sort_unstable();
    // Dense allocation starting right after the base vectors.
    assert_eq!(all[0] as usize, data.len());
    assert_eq!(*all.last().unwrap() as usize, data.len() + all.len() - 1);
}

#[test]
fn concurrent_inserts_are_all_retrievable_afterwards() {
    let data = gen::sift_like(400, 82).unwrap();
    let cfg = DHnswConfig::small().with_overflow_slots(256);
    let store = Arc::new(VectorStore::build(data.clone(), &cfg).unwrap());

    let per_node = 15usize;
    let inserted: Vec<(u32, Vec<f32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let store = Arc::clone(&store);
                let data = data.clone();
                s.spawn(move || {
                    let node = store.connect(SearchMode::Full).unwrap();
                    let stream = gen::perturbed_queries(&data, per_node, 0.01, 700 + t).unwrap();
                    stream
                        .iter()
                        .map(|v| (node.insert(v).unwrap(), v.to_vec()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Routing is approximate: insert classifies with a beam of 1 while
    // queries route with the fan-out beam, so a small fraction of inserts
    // can land in a partition the query never probes (true of the paper's
    // system as well). Require a high hit rate, and exact distance on
    // every hit.
    let reader = store.connect(SearchMode::Full).unwrap();
    let mut found = 0usize;
    for (gid, v) in &inserted {
        let hit = reader.query(v, 1, 32).unwrap();
        if hit[0].id == *gid {
            assert!(hit[0].dist < 1e-6);
            found += 1;
        }
    }
    assert!(
        found * 5 >= inserted.len() * 4,
        "only {found}/{} concurrent inserts retrievable",
        inserted.len()
    );
}

#[test]
fn queries_and_inserts_interleave_safely() {
    let data = gen::sift_like(500, 83).unwrap();
    let store = Arc::new(
        VectorStore::build(data.clone(), &DHnswConfig::small().with_overflow_slots(256)).unwrap(),
    );
    let queries = gen::perturbed_queries(&data, 16, 0.03, 84).unwrap();

    std::thread::scope(|s| {
        // Two query threads sharing one compute node.
        let query_node = Arc::new(store.connect(SearchMode::Full).unwrap());
        for _ in 0..2 {
            let node = Arc::clone(&query_node);
            let queries = queries.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    let (results, _) = node.query_batch(&queries, 5, 16).unwrap();
                    assert_eq!(results.len(), 16);
                    for r in &results {
                        assert_eq!(r.len(), 5);
                    }
                }
            });
        }
        // One insert thread on its own node.
        let store2 = Arc::clone(&store);
        let data2 = data.clone();
        s.spawn(move || {
            let node = store2.connect(SearchMode::Full).unwrap();
            let stream = gen::perturbed_queries(&data2, 30, 0.01, 85).unwrap();
            for v in stream.iter() {
                node.insert(v).unwrap();
            }
        });
    });
}

#[test]
fn shared_compute_node_handles_parallel_batches() {
    let data = gen::sift_like(700, 86).unwrap();
    let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
    let node = Arc::new(store.connect(SearchMode::Full).unwrap());

    let expected: Vec<Vec<Vec<dhnsw_repro::vecsim::Neighbor>>> = (0..3u64)
        .map(|t| {
            let queries = gen::perturbed_queries(&data, 8, 0.02, 200 + t).unwrap();
            let solo = store.connect(SearchMode::Full).unwrap();
            solo.query_batch(&queries, 5, 32).unwrap().0
        })
        .collect();

    let got: Vec<Vec<Vec<dhnsw_repro::vecsim::Neighbor>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let node = Arc::clone(&node);
                let data = data.clone();
                s.spawn(move || {
                    let queries = gen::perturbed_queries(&data, 8, 0.02, 200 + t).unwrap();
                    node.query_batch(&queries, 5, 32).unwrap().0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, expected, "concurrent batches corrupted results");
}
