//! Cross-feature lifecycle tests: the full life of a store — build,
//! serve, insert, delete, snapshot, restore, rebuild — and behaviour on a
//! lossy fabric.

use dhnsw_repro::dhnsw::{snapshot, DHnswConfig, Error, SearchMode, VectorStore};
use dhnsw_repro::vecsim::gen;

#[test]
fn full_lifecycle_preserves_answers_at_every_stage() {
    // Build.
    let data = gen::sift_like(800, 91).unwrap();
    let cfg = DHnswConfig::small().with_overflow_slots(64);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();

    // Serve + mutate: insert five, delete one base vector.
    let inserts = gen::perturbed_queries(&data, 5, 0.01, 92).unwrap();
    let gids: Vec<u32> = inserts.iter().map(|v| node.insert(v).unwrap()).collect();
    let del_target = data.get(13).to_vec();
    let victim = node.query(&del_target, 1, 48).unwrap()[0].id;
    node.delete(&del_target, victim).unwrap();

    // Snapshot and restore: mutations survive the round trip.
    let mut blob = Vec::new();
    snapshot::write_snapshot(&store, &mut blob).unwrap();
    let restored = snapshot::read_snapshot(&blob[..], &cfg).unwrap();
    let restored_node = restored.connect(SearchMode::Full).unwrap();
    let mut found = 0;
    for (i, v) in inserts.iter().enumerate() {
        if restored_node.query(v, 1, 48).unwrap()[0].id == gids[i] {
            found += 1;
        }
    }
    assert!(found >= 4, "restored store lost inserts: {found}/5");
    assert!(restored_node
        .query(&del_target, 3, 48)
        .unwrap()
        .iter()
        .all(|n| n.id != victim));

    // Rebuild the restored store: overflow folds in, deletion permanent.
    let rebuilt = restored.rebuild().unwrap();
    assert_eq!(rebuilt.base_len(), data.len() + 5 - 1);
    let final_node = rebuilt.connect(SearchMode::Full).unwrap();
    let mut refound = 0;
    for (i, v) in inserts.iter().enumerate() {
        if final_node.query(v, 1, 48).unwrap()[0].id == gids[i] {
            refound += 1;
        }
    }
    assert!(refound >= 4, "rebuilt store lost inserts: {refound}/5");
    assert!(final_node
        .query(&del_target, 3, 48)
        .unwrap()
        .iter()
        .all(|n| n.id != victim));
}

#[test]
fn snapshot_of_rebuilt_store_round_trips() {
    let data = gen::sift_like(400, 93).unwrap();
    let cfg = DHnswConfig::small();
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    node.insert(data.get(0)).unwrap();
    let rebuilt = store.rebuild().unwrap();
    let mut blob = Vec::new();
    snapshot::write_snapshot(&rebuilt, &mut blob).unwrap();
    let restored = snapshot::read_snapshot(&blob[..], &cfg).unwrap();
    assert_eq!(restored.base_len(), rebuilt.base_len());
    assert_eq!(restored.directory().epoch(), 1);
}

#[test]
fn queries_survive_a_lossy_fabric_transparently() {
    let data = gen::sift_like(700, 94).unwrap();
    let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
    let queries = gen::perturbed_queries(&data, 24, 0.03, 95).unwrap();

    // Reference run on a clean fabric.
    let clean = store.connect(SearchMode::Full).unwrap();
    let (expected, clean_report) = clean.query_batch(&queries, 5, 32).unwrap();

    // Lossy run: the next several attempts drop deterministically; RC
    // retransmission absorbs them.
    let lossy = store.connect(SearchMode::Full).unwrap();
    lossy.queue_pair().fail_next(5);
    let (got, lossy_report) = lossy.query_batch(&queries, 5, 32).unwrap();

    assert_eq!(got, expected, "faults must never change results");
    assert!(lossy.queue_pair().stats().faults() > 0, "no faults fired");
    assert!(
        lossy_report.breakdown.network_us > clean_report.breakdown.network_us,
        "retransmission timeouts must cost time: {} vs {}",
        lossy_report.breakdown.network_us,
        clean_report.breakdown.network_us
    );
}

#[test]
fn inserts_survive_a_lossy_fabric() {
    let data = gen::sift_like(400, 96).unwrap();
    let store =
        VectorStore::build(data.clone(), &DHnswConfig::small().with_overflow_slots(64)).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    node.queue_pair().set_fault_rate(0.2, 777);

    let stream = gen::perturbed_queries(&data, 20, 0.01, 97).unwrap();
    let mut gids = Vec::new();
    for v in stream.iter() {
        gids.push(node.insert(v).unwrap());
    }
    assert!(node.queue_pair().stats().faults() > 0);
    // A clean reader sees every insert.
    let reader = store.connect(SearchMode::Full).unwrap();
    let mut found = 0;
    for (i, v) in stream.iter().enumerate() {
        if reader.query(v, 1, 32).unwrap()[0].id == gids[i] {
            found += 1;
        }
    }
    assert!(
        found >= 16,
        "only {found}/20 inserts survived the lossy run"
    );
}

#[test]
fn a_dead_fabric_surfaces_errors_instead_of_hanging() {
    let data = gen::sift_like(300, 98).unwrap();
    let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    // Everything drops and the budget is tiny: the query must error out
    // once the engine's own retry layer gives up (degradation is not
    // enabled here, so a partial answer is not acceptable).
    node.queue_pair().set_retry_limit(2);
    node.queue_pair().set_fault_rate(1.0, 5);
    let queries = gen::perturbed_queries(&data, 4, 0.03, 99).unwrap();
    let err = node.query_batch(&queries, 5, 32).unwrap_err();
    assert!(matches!(err, Error::ReadRetriesExhausted { .. }), "{err}");
}

#[test]
fn rebuild_after_heavy_churn_matches_ground_truth() {
    use dhnsw_repro::vecsim::{ground_truth, recall, Metric};
    let data = gen::sift_like(1_000, 100).unwrap();
    let cfg = DHnswConfig::small().with_overflow_slots(128);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();

    // Churn: 50 inserts.
    let inserts = gen::perturbed_queries(&data, 50, 0.02, 101).unwrap();
    for v in inserts.iter() {
        node.insert(v).unwrap();
    }

    // Rebuild and verify recall against exact ground truth over the full
    // (base + inserted) corpus.
    let rebuilt = store.rebuild().unwrap();
    let mut full_corpus = data.clone();
    for v in inserts.iter() {
        full_corpus.push(v).unwrap();
    }
    let queries = gen::perturbed_queries(&full_corpus, 40, 0.02, 102).unwrap();
    let truth = ground_truth::exact_batch(&full_corpus, &queries, 5, Metric::L2);
    let fresh = rebuilt.connect(SearchMode::Full).unwrap();
    let (results, _) = fresh.query_batch(&queries, 5, 48).unwrap();
    let ids: Vec<Vec<u32>> = results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect();
    let r = recall::mean_recall(&ids, &truth);
    assert!(r > 0.7, "post-churn rebuild recall {r}");
}
