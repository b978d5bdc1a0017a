#![cfg(test)]

use std::collections::HashMap;
use std::sync::Arc;

use rdma_sim::ReadCause;
use vecsim::{gen, ground_truth, recall, Dataset, Metric, Neighbor, TopK};

use super::query::{search_stage, Pooled};
use super::*;
use crate::breakdown::BatchReport;
use crate::cluster::{Candidate, LoadedCluster};
use crate::health::report::GroupHealth;
use crate::{Error, QuantizeMode};

fn setup(n: usize) -> (Dataset, VectorStore) {
    let data = gen::sift_like(n, 77).unwrap();
    let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
    (data, store)
}

#[test]
fn all_modes_answer_k_results() {
    let (data, store) = setup(600);
    let queries = gen::perturbed_queries(&data, 16, 0.02, 78).unwrap();
    for mode in [SearchMode::Full, SearchMode::NoDoorbell, SearchMode::Naive] {
        let node = store.connect(mode).unwrap();
        let (results, report) = node.query_batch(&queries, 10, 32).unwrap();
        assert_eq!(results.len(), 16, "{mode}");
        for r in &results {
            assert_eq!(r.len(), 10, "{mode}");
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
        assert!(report.round_trips > 0);
        assert!(report.bytes_read > 0);
    }
}

#[test]
fn modes_agree_on_results_for_cold_identical_state() {
    // Network strategy must not change *what* is found, only cost.
    let (data, store) = setup(500);
    let queries = gen::perturbed_queries(&data, 8, 0.02, 79).unwrap();
    let full = store.connect(SearchMode::Full).unwrap();
    let nodb = store.connect(SearchMode::NoDoorbell).unwrap();
    let naive = store.connect(SearchMode::Naive).unwrap();
    let (a, _) = full.query_batch(&queries, 5, 32).unwrap();
    let (b, _) = nodb.query_batch(&queries, 5, 32).unwrap();
    let (c, _) = naive.query_batch(&queries, 5, 32).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn recall_is_reasonable_and_improves_with_fanout() {
    let data = gen::sift_like(2_000, 80).unwrap();
    let queries = gen::perturbed_queries(&data, 50, 0.02, 81).unwrap();
    let truth = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);
    let recall_with_b = |b: usize| {
        let store = VectorStore::build(data.clone(), &DHnswConfig::small().with_fanout(b)).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let (results, _) = node.query_batch(&queries, 10, 48).unwrap();
        let ids: Vec<Vec<u32>> = results
            .iter()
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect();
        recall::mean_recall(&ids, &truth)
    };
    let r1 = recall_with_b(1);
    let r8 = recall_with_b(8);
    assert!(r8 >= r1, "fanout 8 recall {r8} < fanout 1 recall {r1}");
    assert!(r8 > 0.8, "fanout-8 recall too low: {r8}");
}

#[test]
fn ledger_tiles_bytes_and_attributes_causes_per_mode() {
    let (data, store) = setup(600);
    let queries = gen::perturbed_queries(&data, 16, 0.02, 88).unwrap();
    for mode in [SearchMode::Full, SearchMode::NoDoorbell, SearchMode::Naive] {
        let node = store.connect(mode).unwrap();

        // Cold batch: every byte must be accounted to exactly one
        // cause, and the traffic is dominated by first-time fetches.
        let (_, cold) = node.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(
            cold.ledger.total_bytes(),
            cold.bytes_read,
            "{mode}: cause bytes must tile bytes_read"
        );
        let expect = if mode == SearchMode::Naive {
            ReadCause::Naive
        } else {
            ReadCause::StageLoad
        };
        assert_eq!(cold.ledger.dominant_cause(), Some(expect), "{mode}");
        assert_eq!(cold.ledger.bytes_for(ReadCause::Other), 0, "{mode}");

        // Warm batch: tiling must hold whatever mix of reloads and
        // verifies the (fraction-sized) cache leaves behind.
        let (_, warm) = node.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(warm.ledger.total_bytes(), warm.bytes_read, "{mode}");
    }
}

fn sq_setup(n: usize) -> (Dataset, VectorStore) {
    let data = gen::sift_like(n, 77).unwrap();
    let store = VectorStore::build(
        data.clone(),
        &DHnswConfig::small().with_quantize_mode(QuantizeMode::Sq8),
    )
    .unwrap();
    (data, store)
}

#[test]
fn sq_mode_reranks_with_tagged_reads_and_tiles_bytes() {
    let (data, store) = sq_setup(600);
    let queries = gen::perturbed_queries(&data, 16, 0.02, 78).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    assert!(node.is_quantized());
    let (results, report) = node.query_batch(&queries, 10, 32).unwrap();
    assert_eq!(results.len(), 16);
    for r in &results {
        assert_eq!(r.len(), 10);
        for w in r.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }
    // Rerank traffic carries its own cause, and the per-cause
    // ledger still tiles bytes_read exactly.
    assert!(report.ledger.bytes_for(ReadCause::Rerank) > 0);
    assert_eq!(report.ledger.total_bytes(), report.bytes_read);
    // A pristine store never pays for overflow bytes: version
    // slots prove every overflow area empty.
    assert_eq!(report.ledger.bytes_for(ReadCause::OverflowScan), 0);

    // The compressed wire format moves far fewer bytes than the
    // uncompressed store answering the same cold batch.
    let full_store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    let full = full_store.connect(SearchMode::Full).unwrap();
    assert!(!full.is_quantized());
    let (_, full_report) = full.query_batch(&queries, 10, 32).unwrap();
    assert!(
        report.bytes_read * 2 < full_report.bytes_read,
        "sq bytes {} not well under full-precision bytes {}",
        report.bytes_read,
        full_report.bytes_read
    );
}

#[test]
fn sq_mode_observes_overflow_inserts_and_tombstones() {
    let (data, store) = sq_setup(400);
    let node = store.connect(SearchMode::Full).unwrap();
    let mut v = data.get(3).to_vec();
    v[0] += 0.75;
    let gid = node.insert(&v).unwrap();

    // The mutated partition's nonzero version forces the overflow
    // follow-up read, and the insert is found exactly.
    let batch = Dataset::from_rows(&[&v[..]]).unwrap();
    let (hits, report) = node.query_batch(&batch, 1, 32).unwrap();
    assert_eq!(hits[0][0].id, gid);
    assert!(hits[0][0].dist < 1e-6);
    assert!(report.ledger.bytes_for(ReadCause::OverflowScan) > 0);
    assert_eq!(report.ledger.total_bytes(), report.bytes_read);

    // A tombstone removes it from subsequent quantized answers.
    node.delete(&v, gid).unwrap();
    let hits = node.query(&v, 1, 32).unwrap();
    assert_ne!(hits[0].id, gid);
}

/// The exact-row cache is cleared wholesale when a rerank's rows would
/// take it past its cap. That clear used to fall between a rerank
/// deciding which rows were cached and reading them, so a batch that
/// crossed the cap silently kept the estimates of every candidate it had
/// planned to serve from the cache.
#[test]
fn a_rerank_that_overflows_the_exact_row_cache_still_reports_exact_distances() {
    let (data, store) = sq_setup(600);
    let node = store.connect(SearchMode::Full).unwrap();
    let seen = gen::perturbed_queries(&data, 16, 0.02, 78).unwrap();
    let (_, first) = node.query_batch(&seen, 10, 32).unwrap();
    // What the first batch fetched is what the cache now holds; rows no
    // query asks for take it to one under the cap.
    let row_bytes = 4 * data.dim();
    let cached = first.ledger.bytes_for(ReadCause::Rerank) as usize / row_bytes;
    assert!(cached > 0);
    let filler = vec![0u8; row_bytes];
    let fill =
        (cached as u32..query::RERANK_CACHE_CAP as u32 - 1).map(|i| ((u32::MAX, i), &filler[..]));
    node.rerank_cache.lock().admit(data.dim(), fill);

    // The same queries plan on the cached rows; new ones beside them
    // fetch rows that cross the cap.
    let fresh = gen::perturbed_queries(&data, 16, 0.02, 79).unwrap();
    let rows: Vec<&[f32]> = seen.iter().chain(fresh.iter()).collect();
    let both = Dataset::from_rows(&rows).unwrap();
    let (results, report) = node.query_batch(&both, 10, 32).unwrap();
    let fetched = report.ledger.bytes_for(ReadCause::Rerank) as usize / row_bytes;
    assert!(fetched > 0, "the fresh queries' rows cross the cap");
    for (q, hits) in both.iter().zip(&results) {
        for n in hits {
            let exact = vecsim::l2_sq(q, data.get(n.id as usize));
            assert_eq!(
                n.dist.to_bits(),
                exact.to_bits(),
                "id {} reported {} for {exact}",
                n.id,
                n.dist
            );
        }
    }
}

#[test]
fn sq_warm_cache_answers_without_reloading_blobs() {
    let data = gen::sift_like(500, 82).unwrap();
    let store = VectorStore::build(
        data.clone(),
        &DHnswConfig::small()
            .with_quantize_mode(QuantizeMode::Sq8)
            .with_cache_fraction(1.0),
    )
    .unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 12, 0.02, 83).unwrap();
    let (cold_r, cold) = node.query_batch(&queries, 5, 32).unwrap();
    let (warm_r, warm) = node.query_batch(&queries, 5, 32).unwrap();
    assert_eq!(cold_r, warm_r, "cache residency must not change answers");
    assert_eq!(warm.ledger.bytes_for(ReadCause::StageLoad), 0);
    // Second pass still pays only for rerank reads it has not
    // cached — never more than the first.
    assert!(warm.ledger.bytes_for(ReadCause::Rerank) <= cold.ledger.bytes_for(ReadCause::Rerank));
    assert_eq!(warm.ledger.total_bytes(), warm.bytes_read);
}

#[test]
fn health_report_folds_sq_tail_into_layout_accounting() {
    let (_, store) = sq_setup(500);
    let node = store.connect(SearchMode::Full).unwrap();
    let report = node.health_report().unwrap();
    assert!(report.layout.sq_bytes > 0);
    assert!(
        (report.layout.utilization + report.layout.fragmentation - 1.0).abs() < 1e-9,
        "utilization {} + fragmentation {} must cover the quantized region",
        report.layout.utilization,
        report.layout.fragmentation
    );
}

#[test]
fn warm_full_cache_shifts_bytes_to_version_checks() {
    // With the cache sized to hold everything, a repeat batch does no
    // stage loads; after a writer bumps one partition's version the
    // next batch mixes a single reload with 8-byte verifies of the
    // surviving pins — both causes must show up, and tile.
    let data = gen::sift_like(600, 90).unwrap();
    let store =
        VectorStore::build(data.clone(), &DHnswConfig::small().with_cache_fraction(1.0)).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.02, 91).unwrap();
    node.query_batch(&queries, 5, 32).unwrap();

    // Fully warm: nothing to load, so nothing to verify either.
    let (_, warm) = node.query_batch(&queries, 5, 32).unwrap();
    assert_eq!(warm.clusters_loaded, 0);
    assert_eq!(warm.bytes_read, 0);
    assert_eq!(warm.ledger.total_bytes(), 0);
    assert_eq!(warm.ledger.dominant_cause(), None);

    // One insert invalidates its cluster and bumps its version.
    node.insert(data.get(0)).unwrap();
    let (_, mixed) = node.query_batch(&queries, 5, 32).unwrap();
    assert_eq!(mixed.ledger.total_bytes(), mixed.bytes_read);
    if mixed.clusters_loaded > 0 {
        assert!(mixed.ledger.bytes_for(ReadCause::StageLoad) > 0);
        assert!(mixed.ledger.bytes_for(ReadCause::VersionCheck) > 0);
        assert_eq!(mixed.ledger.bytes_for(ReadCause::Naive), 0);
    }
}

#[test]
fn health_probe_bytes_carry_their_cause() {
    let (_, store) = setup(600);
    let node = store.connect(SearchMode::Full).unwrap();
    let stats0 = node.queue_pair().stats().snapshot();
    node.health_report().unwrap();
    let probe = node.queue_pair().stats().snapshot() - stats0;
    assert!(probe.bytes_for(ReadCause::HealthProbe) > 0);
    assert_eq!(probe.bytes_for(ReadCause::HealthProbe), probe.bytes_read);
}

#[test]
fn full_mode_loads_each_cluster_once_per_batch() {
    let (data, store) = setup(600);
    let queries = gen::perturbed_queries(&data, 64, 0.02, 82).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    let (_, report) = node.query_batch(&queries, 5, 16).unwrap();
    assert!(report.raw_cluster_demand >= report.unique_clusters);
    assert_eq!(
        report.clusters_loaded + report.cache_hits,
        report.unique_clusters
    );
    // Loading each unique cluster once means loads <= unique.
    assert!(report.clusters_loaded <= report.unique_clusters);
}

#[test]
fn cache_serves_repeat_batches() {
    let (data, store) = setup(400);
    let queries = gen::perturbed_queries(&data, 8, 0.02, 83).unwrap();
    // Cache big enough to hold everything.
    let store2 = VectorStore::build(data, &DHnswConfig::small().with_cache_fraction(1.0)).unwrap();
    let node = store2.connect(SearchMode::Full).unwrap();
    let (_, first) = node.query_batch(&queries, 5, 16).unwrap();
    assert!(first.clusters_loaded > 0);
    let (_, second) = node.query_batch(&queries, 5, 16).unwrap();
    assert_eq!(second.clusters_loaded, 0, "warm batch must be all hits");
    assert_eq!(second.round_trips, 0);
    assert_eq!(second.breakdown.network_us, 0.0);
    let _ = store;
}

#[test]
fn naive_mode_never_reuses() {
    let (data, store) = setup(400);
    let queries = gen::perturbed_queries(&data, 8, 0.02, 84).unwrap();
    let node = store.connect(SearchMode::Naive).unwrap();
    let (_, first) = node.query_batch(&queries, 5, 16).unwrap();
    let (_, second) = node.query_batch(&queries, 5, 16).unwrap();
    assert_eq!(first.round_trips, second.round_trips);
    assert_eq!(
        first.round_trips,
        (queries.len() * store.config().fanout()) as u64
    );
    assert_eq!(first.cache_hits, 0);
}

#[test]
fn doorbell_reduces_round_trips_not_bytes() {
    let (data, store) = setup(600);
    let queries = gen::perturbed_queries(&data, 32, 0.05, 85).unwrap();
    let full = store.connect(SearchMode::Full).unwrap();
    let nodb = store.connect(SearchMode::NoDoorbell).unwrap();
    let (_, rf) = full.query_batch(&queries, 5, 16).unwrap();
    let (_, rn) = nodb.query_batch(&queries, 5, 16).unwrap();
    assert_eq!(rf.bytes_read, rn.bytes_read);
    assert!(rf.round_trips < rn.round_trips);
    assert!(rf.breakdown.network_us < rn.breakdown.network_us);
}

#[test]
fn latency_ordering_matches_the_paper() {
    let (data, store) = setup(800);
    let queries = gen::perturbed_queries(&data, 64, 0.05, 86).unwrap();
    let full = store.connect(SearchMode::Full).unwrap();
    let nodb = store.connect(SearchMode::NoDoorbell).unwrap();
    let naive = store.connect(SearchMode::Naive).unwrap();
    let (_, rf) = full.query_batch(&queries, 10, 32).unwrap();
    let (_, rn) = nodb.query_batch(&queries, 10, 32).unwrap();
    let (_, rv) = naive.query_batch(&queries, 10, 32).unwrap();
    assert!(
        rf.breakdown.network_us <= rn.breakdown.network_us,
        "doorbell must not be slower"
    );
    assert!(
        rn.breakdown.network_us < rv.breakdown.network_us,
        "query-aware loading must beat naive"
    );
}

#[test]
fn fanout_override_changes_demand_without_rebuilding() {
    let (data, store) = setup(600);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.03, 96).unwrap();
    let (_, narrow) = node
        .query_batch_opts(&queries, &QueryOptions::new(5, 32).with_fanout(1))
        .unwrap();
    node.drop_cache();
    let (_, wide) = node
        .query_batch_opts(&queries, &QueryOptions::new(5, 32).with_fanout(8))
        .unwrap();
    assert_eq!(narrow.raw_cluster_demand, 16);
    assert_eq!(wide.raw_cluster_demand, 16 * 8);
    assert!(wide.bytes_read > narrow.bytes_read);
}

#[test]
fn zero_fanout_override_is_rejected() {
    let (data, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 2, 0.03, 97).unwrap();
    assert!(node
        .query_batch_opts(&queries, &QueryOptions::new(5, 16).with_fanout(0))
        .is_err());
}

#[test]
fn default_options_match_positional_call() {
    let (data, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 6, 0.03, 98).unwrap();
    let (a, _) = node.query_batch(&queries, 5, 32).unwrap();
    let (b, _) = node
        .query_batch_opts(&queries, &QueryOptions::new(5, 32))
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn query_rejects_wrong_dimension() {
    let (_, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::uniform(64, 2, 0.0, 1.0, 1).unwrap();
    assert!(matches!(
        node.query_batch(&queries, 5, 16).unwrap_err(),
        Error::DimensionMismatch { .. }
    ));
}

#[test]
fn empty_batch_is_a_cheap_noop() {
    let (_, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    let (results, report) = node.query_batch(&Dataset::new(128), 5, 16).unwrap();
    assert!(results.is_empty());
    assert_eq!(report, BatchReport::default());
}

#[test]
fn insert_then_query_finds_the_new_vector() {
    let (data, store) = setup(400);
    let node = store.connect(SearchMode::Full).unwrap();
    // Insert a distinctive vector near an existing one.
    let mut v = data.get(5).to_vec();
    v[0] += 0.5;
    let gid = node.insert(&v).unwrap();
    assert_eq!(gid as usize, store.base_len());
    let hits = node.query(&v, 3, 32).unwrap();
    assert_eq!(hits[0].id, gid, "inserted vector must be its own nearest");
    assert!(hits[0].dist < 1e-6);
}

#[test]
fn inserts_allocate_monotonic_global_ids() {
    let (data, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    let a = node.insert(data.get(0)).unwrap();
    let b = node.insert(data.get(1)).unwrap();
    assert_eq!(b, a + 1);
}

#[test]
fn insert_is_two_doorbells_of_three_atomics_and_a_write() {
    let (data, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    node.reset_measurements();
    node.insert(data.get(0)).unwrap();
    let s = node.queue_pair().stats().snapshot();
    // [id FAA, slot FAA], then [record write, version FAA].
    assert_eq!((s.round_trips, s.doorbell_batches), (2, 2));
    assert_eq!((s.atomics, s.work_requests), (3, 4));
}

#[test]
fn insert_batch_matches_single_inserts_in_effect() {
    let (data, store) = setup(400);
    let node = store.connect(SearchMode::Full).unwrap();
    let inserts = gen::perturbed_queries(&data, 10, 0.01, 92).unwrap();
    let results = node.insert_batch(&inserts).unwrap();
    assert_eq!(results.len(), 10);
    let ids: Vec<u32> = results.into_iter().map(|r| r.unwrap()).collect();
    // Dense sequential ids from the base length.
    assert_eq!(ids[0] as usize, store.base_len());
    for w in ids.windows(2) {
        assert_eq!(w[1], w[0] + 1);
    }
    // All visible to queries.
    let mut found = 0;
    for (i, v) in inserts.iter().enumerate() {
        let hit = node.query(v, 1, 32).unwrap();
        if hit[0].id == ids[i] {
            found += 1;
        }
    }
    assert!(found >= 8, "only {found}/10 batch inserts retrievable");
}

#[test]
fn insert_batch_uses_far_fewer_round_trips() {
    let (data, store) = setup(400);
    let inserts = gen::perturbed_queries(&data, 32, 0.01, 93).unwrap();

    let single = store.connect(SearchMode::Full).unwrap();
    single.reset_measurements();
    for v in inserts.iter() {
        single.insert(v).unwrap();
    }
    let single_trips = single.queue_pair().stats().round_trips();
    assert_eq!(single_trips, 2 * 32);

    let batched = store.connect(SearchMode::Full).unwrap();
    batched.reset_measurements();
    let results = batched.insert_batch(&inserts).unwrap();
    assert!(results.iter().all(|r| r.is_ok()));
    let batch_trips = batched.queue_pair().stats().round_trips();
    // ceil((1 + G) / limit) + ceil((n + P) / limit): nothing was refused.
    let fanout = store.config().fanout();
    let partitions: std::collections::BTreeSet<u32> = (inserts.iter())
        .map(|v| store.meta().classify_with_beam(v, fanout).unwrap())
        .collect();
    let areas: std::collections::BTreeSet<u64> = (partitions.iter())
        .map(|&p| store.directory().location(p).unwrap().overflow_off)
        .collect();
    let model = store.config().network();
    let want = model.doorbell_round_trips(1 + areas.len())
        + model.doorbell_round_trips(32 + partitions.len());
    assert_eq!(batch_trips, want as u64);
    assert!(
        batch_trips * 8 < single_trips,
        "batched {batch_trips} vs single {single_trips}"
    );
}

#[test]
fn insert_batch_reports_overflow_per_vector() {
    let data = gen::sift_like(300, 94).unwrap();
    let cfg = DHnswConfig::small().with_overflow_slots(2);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    // Ten copies of the same vector all route to one group with two
    // slots: exactly two succeed.
    let same = Dataset::from_rows(&[data.get(0); 10]).unwrap();
    let results = node.insert_batch(&same).unwrap();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 2, "{results:?}");
    assert!(results
        .iter()
        .filter(|r| r.is_err())
        .all(|r| matches!(r.as_ref().unwrap_err(), Error::OverflowFull { .. })));
}

#[test]
fn insert_batch_rejects_wrong_dim_and_handles_empty() {
    let (_, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    assert!(node
        .insert_batch(&gen::uniform(64, 3, 0.0, 1.0, 1).unwrap())
        .is_err());
    assert!(node.insert_batch(&Dataset::new(128)).unwrap().is_empty());
}

#[test]
fn insert_overflow_full_is_reported() {
    let data = gen::sift_like(300, 90).unwrap();
    let cfg = DHnswConfig::small().with_overflow_slots(1);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    // Fill the single slot of some group, then the next insert into
    // the same group must fail.
    let v = data.get(0);
    node.insert(v).unwrap();
    let second = node.insert(v);
    assert!(matches!(second.unwrap_err(), Error::OverflowFull { .. }));
}

#[test]
fn delete_removes_a_base_vector_from_results() {
    let (data, store) = setup(400);
    let node = store.connect(SearchMode::Full).unwrap();
    let target = data.get(5).to_vec();
    let before = node.query(&target, 1, 48).unwrap();
    assert_eq!(before[0].dist, 0.0);
    let victim = before[0].id;
    node.delete(&target, victim).unwrap();
    let after = node.query(&target, 5, 48).unwrap();
    assert!(
        after.iter().all(|n| n.id != victim),
        "deleted id still returned: {after:?}"
    );
    assert_eq!(after.len(), 5, "deletion must not shrink the result list");
}

#[test]
fn delete_removes_an_overflow_insert() {
    let (data, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    let mut v = data.get(9).to_vec();
    v[0] += 0.5;
    let gid = node.insert(&v).unwrap();
    assert_eq!(node.query(&v, 1, 32).unwrap()[0].id, gid);
    node.delete(&v, gid).unwrap();
    let after = node.query(&v, 3, 32).unwrap();
    assert!(after.iter().all(|n| n.id != gid));
}

#[test]
fn delete_is_two_doorbells_of_two_atomics_and_a_write() {
    let (data, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    node.reset_measurements();
    node.delete(data.get(0), 0).unwrap();
    let s = node.queue_pair().stats().snapshot();
    // [slot FAA], then [tombstone write, version FAA].
    assert_eq!((s.round_trips, s.doorbell_batches), (2, 2));
    assert_eq!((s.atomics, s.work_requests), (2, 3));
}

#[test]
fn delete_visibility_across_nodes_follows_cache_lifetime() {
    let (data, store) = setup(300);
    let writer = store.connect(SearchMode::Full).unwrap();
    let reader = store.connect(SearchMode::Full).unwrap();
    let target = data.get(11).to_vec();
    let victim = reader.query(&target, 1, 48).unwrap()[0].id;
    writer.delete(&target, victim).unwrap();
    // The reader cached the cluster before the delete: it may serve
    // the stale copy (cross-node caches are not coherent — a
    // documented non-goal shared with the paper)...
    let stale = reader.query(&target, 3, 48).unwrap();
    assert!(stale.iter().any(|n| n.id == victim), "unexpectedly fresh");
    // ...but once its cached copy is dropped (eviction, expiry), the
    // next load observes the tombstone.
    reader.drop_cache();
    let fresh = reader.query(&target, 3, 48).unwrap();
    assert!(fresh.iter().all(|n| n.id != victim));
}

#[test]
fn insert_rejects_wrong_dimension() {
    let (_, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    assert!(node.insert(&[1.0, 2.0]).is_err());
}

#[test]
fn inserts_are_visible_across_compute_nodes() {
    let (data, store) = setup(400);
    let writer = store.connect(SearchMode::Full).unwrap();
    let reader = store.connect(SearchMode::Full).unwrap();
    let mut v = data.get(10).to_vec();
    v[1] += 0.25;
    let gid = writer.insert(&v).unwrap();
    // The reader never cached the cluster, so its next load sees the
    // overflow record.
    let hits = reader.query(&v, 1, 32).unwrap();
    assert_eq!(hits[0].id, gid);
}

#[test]
fn reset_measurements_zeroes_counters() {
    let (data, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 4, 0.02, 91).unwrap();
    node.query_batch(&queries, 5, 16).unwrap();
    node.reset_measurements();
    assert_eq!(node.queue_pair().stats().round_trips(), 0);
    assert_eq!(node.queue_pair().clock().now_us(), 0.0);
}

#[test]
fn compute_node_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ComputeNode>();
}

#[test]
fn heatmap_samples_routes_loads_and_cache_hits() {
    let (data, store) = setup(600);
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, telemetry)
        .unwrap();
    let queries = gen::perturbed_queries(&data, 8, 0.02, 93).unwrap();
    let b = node.config().fanout();
    node.query_batch(&queries, 5, 16).unwrap();
    let cold = node.heatmap().snapshot();
    let route_hits: u64 = cold.iter().map(|c| c.route_hits).sum();
    let loads: u64 = cold.iter().map(|c| c.loads).sum();
    let bytes: u64 = cold.iter().map(|c| c.bytes_read).sum();
    assert_eq!(route_hits, 8 * b as u64, "every route is sampled");
    assert!(loads > 0, "cold batch loads clusters");
    assert!(bytes > 0, "loads carry their byte size");
    // Same batch again: the cache now serves what it kept.
    node.query_batch(&queries, 5, 16).unwrap();
    let warm = node.heatmap().snapshot();
    let cache_hits: u64 = warm.iter().map(|c| c.cache_hits).sum();
    assert!(cache_hits > 0, "warm batch hits the cluster cache");
}

#[test]
fn naive_mode_samples_routes_and_per_query_loads() {
    let (data, store) = setup(400);
    let node = store.connect(SearchMode::Naive).unwrap();
    let queries = gen::perturbed_queries(&data, 4, 0.02, 94).unwrap();
    let b = node.config().fanout();
    node.query_batch(&queries, 5, 16).unwrap();
    let snap = node.heatmap().snapshot();
    let route_hits: u64 = snap.iter().map(|c| c.route_hits).sum();
    let loads: u64 = snap.iter().map(|c| c.loads).sum();
    assert_eq!(route_hits, 4 * b as u64);
    assert_eq!(loads, route_hits, "naive reloads every routed cluster");
}

#[test]
fn health_report_accounts_layout_occupancy_and_latency() {
    let (data, store) = setup(600);
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    let queries = gen::perturbed_queries(&data, 8, 0.02, 96).unwrap();
    node.query_batch(&queries, 5, 16).unwrap();

    // Before any insert every overflow area is empty.
    let fresh = node.health_report().unwrap();
    assert_eq!(fresh.partitions, store.partitions());
    assert!(fresh.groups.iter().all(|g| g.overflow_used_bytes == 0));
    assert_eq!(fresh.layout.overflow_used_bytes, 0);

    // One insert shows up as live overflow bytes in exactly one
    // group, and occupancy/slack stay consistent.
    let mut v = data.get(0).to_vec();
    v[0] += 0.5;
    node.insert(&v).unwrap();
    let report = node.health_report().unwrap();
    let used: Vec<&GroupHealth> = report
        .groups
        .iter()
        .filter(|g| g.overflow_used_bytes > 0)
        .collect();
    assert_eq!(used.len(), 1, "one group absorbed the insert");
    let g = used[0];
    assert!(g.occupancy > 0.0 && g.occupancy <= 1.0);
    assert_eq!(
        g.overflow_used_bytes + g.overflow_slack_bytes,
        g.overflow_capacity_bytes
    );
    // Live + dead bytes tile the registered region.
    assert!(
        (report.layout.utilization + report.layout.fragmentation - 1.0).abs() < 1e-9,
        "utilization {} + fragmentation {} must cover the region",
        report.layout.utilization,
        report.layout.fragmentation
    );
    // Query traffic is reflected in skew, cache, and latency.
    assert!(report.route_skew.total > 0);
    assert!(report.degree_skew.count > 0);
    assert_eq!(report.partition_skew.count, report.partitions);
    assert!(report.cache.capacity > 0);
    // Plan-time hit rate: the cold pass loaded clusters, so the
    // rate must stay strictly below the vacuous 100%.
    assert!(report.cache.misses > 0);
    assert!(report.cache.hit_rate < 1.0);
    assert!(report.latency.queries >= 8);
    assert!(report.latency.p99_us >= report.latency.p50_us);
    assert!(report.violations.is_empty());

    // The JSON rendering carries every section.
    let json = report.to_json();
    for key in [
        "\"groups\":",
        "\"heatmap\":",
        "\"route_skew\":",
        "\"latency\":",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
}

#[test]
fn health_report_feeds_the_watchdog_end_to_end() {
    let (data, store) = setup(400);
    let telemetry = Arc::new(Telemetry::new());
    telemetry.spans().set_enabled(true);
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    let queries = gen::perturbed_queries(&data, 4, 0.02, 97).unwrap();
    node.query_batch(&queries, 5, 16).unwrap();
    let mut report = node.health_report().unwrap();
    // An impossible skew budget must trip: a Gini is never negative.
    let budgets = crate::health::SloBudgets {
        max_route_gini: Some(-1.0),
        ..Default::default()
    };
    report.violations = crate::health::evaluate(&report, &budgets);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].budget, "route_gini");
    crate::health::watchdog::emit(&telemetry, &report.violations);
    assert!(telemetry
        .render_prometheus()
        .contains("dhnsw_slo_violations_total{budget=\"route_gini\"} 1"));
    let traces = telemetry.spans().recent();
    assert!(traces
        .iter()
        .any(|t| t.label == "watchdog" && t.spans.iter().any(|s| s.name == "slo_violation")));
    assert!(report.to_json().contains("\"budget\": \"route_gini\""));
}

#[test]
fn health_report_is_idempotent() {
    // A report reads state and writes none back: a second one with no
    // batch between, and a sample taken between them, render the same
    // document.
    let (data, store) = setup(600);
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    let queries = gen::perturbed_queries(&data, 8, 0.02, 98).unwrap();
    node.query_batch(&queries, 5, 16).unwrap();
    let first = node.health_report().unwrap().to_json();
    node.sample_series(0);
    assert_eq!(node.health_report().unwrap().to_json(), first);
}

#[test]
fn torn_insert_is_skipped_and_the_slot_stays_burned() {
    let (data, store) = setup(400);
    let writer = store.connect(SearchMode::Full).unwrap();
    let reader = store.connect(SearchMode::Full).unwrap();
    let mut v = data.get(3).to_vec();
    v[0] += 0.5;
    // An insert posts [id FAA, slot FAA], then [record write, version
    // FAA]. Let the first doorbell through and cut the second before its
    // first work request: the slot is reserved but the record never
    // lands — a torn insert.
    writer.queue_pair().cut_nth(Some((1, 0)));
    let err = writer.insert(&v).unwrap_err();
    assert!(matches!(
        err,
        Error::Rdma(rdma_sim::Error::RetriesExhausted { .. })
    ));
    // A fresh reader decodes the overflow area without tripping on
    // the uncommitted slot: no Corrupt, no phantom vector.
    let base = store.base_len() as u32;
    let hits = reader.query(&v, 3, 48).unwrap();
    assert!(hits.iter().all(|n| n.id < base), "torn record surfaced");
    // The next insert commits after the burned slot and is found.
    let gid = writer.insert(&v).unwrap();
    reader.drop_cache();
    let hits = reader.query(&v, 1, 48).unwrap();
    assert_eq!(hits[0].id, gid);
}

/// One write op of the crash table.
enum CutOp<'a> {
    Insert(&'a [f32]),
    Delete(&'a [f32], u32),
    Batch(&'a Dataset),
}

/// A row of the crash table: the op, how many work requests each of its
/// two doorbells carries, and the vectors to probe with afterwards — each
/// with the id the op makes appear in (`true`) or vanish from (`false`)
/// that probe's answer, and where the record that does it sits in the
/// second doorbell.
struct CutCase<'a> {
    name: &'static str,
    op: CutOp<'a>,
    posts: [u32; 2],
    probes: Vec<(&'a [f32], u32, bool, u32)>,
}

#[test]
fn a_write_cut_at_any_work_request_leaves_every_reader_consistent() {
    let data = gen::sift_like(400, 77).unwrap();
    let config = DHnswConfig::small().with_cache_fraction(1.0);
    let store = VectorStore::build(data.clone(), &config).unwrap();
    let mut pristine = Vec::new();
    crate::snapshot::write_snapshot(&store, &mut pristine).unwrap();
    let base = store.base_len() as u32;
    let partition = |v: &[f32]| store.meta().classify_with_beam(v, config.fanout()).unwrap();

    let mut a = data.get(3).to_vec();
    a[0] += 0.5;
    // A second vector in another partition, for a batch that has two
    // version slots to publish.
    let mut b = (data.iter().map(<[f32]>::to_vec))
        .find(|v| partition(v) != partition(&a))
        .expect("the data spans two partitions");
    b[0] += 0.5;
    let area = |v: &[f32]| {
        store
            .directory()
            .location(partition(v))
            .unwrap()
            .overflow_off
    };
    let areas = if area(&a) == area(&b) { 1 } else { 2 };
    // Records are written area by area, areas in address order.
    let b_first = u32::from(area(&b) < area(&a));
    let target = data.get(11);
    let victim = store
        .connect(SearchMode::Full)
        .unwrap()
        .query(target, 1, 48)
        .unwrap()[0]
        .id;
    let both = Dataset::from_rows(&[&a[..], &b[..]]).unwrap();

    let cases = [
        CutCase {
            name: "insert",
            op: CutOp::Insert(&a),
            posts: [2, 2],
            probes: vec![(&a, base, true, 0)],
        },
        CutCase {
            name: "delete",
            op: CutOp::Delete(target, victim),
            posts: [1, 2],
            probes: vec![(target, victim, false, 0)],
        },
        CutCase {
            name: "insert_batch over two partitions",
            op: CutOp::Batch(&both),
            posts: [1 + areas, 2 + 2],
            probes: vec![(&a, base, true, b_first), (&b, base + 1, true, 1 - b_first)],
        },
    ];

    for case in &cases {
        for (post, &len) in (0u32..).zip(&case.posts) {
            // Every work request of both doorbells, the end of each, and
            // one past it — which must cut nothing.
            for cut in 0..=len + 1 {
                let at = format!("{} cut at work request {cut} of doorbell {post}", case.name);
                let store = crate::snapshot::read_snapshot(&pristine[..], &config).unwrap();
                let writer = store.connect(SearchMode::Full).unwrap();
                for (probe, ..) in &case.probes {
                    writer.query(probe, 3, 48).unwrap();
                }
                writer.queue_pair().cut_nth(Some((post, cut)));
                let got = match case.op {
                    CutOp::Insert(v) => writer.insert(v).map(drop),
                    CutOp::Delete(v, id) => writer.delete(v, id),
                    CutOp::Batch(vectors) => writer.insert_batch(vectors).map(drop),
                };
                if cut > len {
                    got.unwrap_or_else(|e| panic!("{at}: a cut past the post: {e}"));
                    continue;
                }
                let err = got.unwrap_err();
                assert!(
                    matches!(err, Error::Rdma(rdma_sim::Error::RetriesExhausted { .. })),
                    "{at}: {err}"
                );

                // A reader that connects now decodes no torn record: the
                // op shows exactly when its record write went through,
                // whether or not it was published. And the writer, whose
                // cache held the clusters, answers the same.
                let fresh = store.connect(SearchMode::Full).unwrap();
                for &(probe, id, appears, write_at) in &case.probes {
                    let truth = fresh.query(probe, 3, 48).unwrap();
                    let written = post == 1 && cut > write_at;
                    assert_eq!(
                        truth.iter().any(|n| n.id == id),
                        appears == written,
                        "{at}: {truth:?}"
                    );
                    assert_eq!(
                        writer.query(probe, 3, 48).unwrap(),
                        truth,
                        "{at}: the writer hides it"
                    );
                }
                // `used` still counts bytes handed out.
                fresh
                    .health_report()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                // Whatever ids the cut op took stay burned.
                let next_id = fresh
                    .qp
                    .read(fresh.rkey, crate::layout::ID_COUNTER_OFFSET, 8)
                    .unwrap();
                let next_id = u64::from_le_bytes(next_id.try_into().unwrap());
                assert_eq!(
                    u64::from(writer.insert(&a).unwrap()),
                    next_id,
                    "{at}: a burned id came back"
                );
            }
        }
    }
}

#[test]
fn version_mismatch_refreshes_stale_cache_without_drop() {
    let data = gen::sift_like(400, 77).unwrap();
    let store =
        VectorStore::build(data.clone(), &DHnswConfig::small().with_cache_fraction(1.0)).unwrap();
    let writer = store.connect(SearchMode::Full).unwrap();
    let reader = store.connect(SearchMode::Full).unwrap();
    let b = store.config().fanout();
    let mut v = data.get(0).to_vec();
    v[1] += 0.25;
    // Reader caches the clusters the new vector routes to.
    reader.query(&v, 1, 32).unwrap();
    let warm: std::collections::HashSet<u32> =
        store.meta().route(&v, b).iter().map(|n| n.id).collect();
    // A probe whose route is disjoint from the warm set forces the
    // next batch onto the wire, so the piggybacked version check runs.
    let probe = (0..data.len())
        .map(|i| data.get(i))
        .find(|r| {
            store
                .meta()
                .route(r, b)
                .iter()
                .all(|n| !warm.contains(&n.id))
        })
        .expect("some row routes entirely outside the warm set");
    let gid = writer.insert(&v).unwrap();
    let batch = Dataset::from_rows(&[&v, probe]).unwrap();
    let (results, report) = reader.query_batch(&batch, 1, 32).unwrap();
    // The stale pin was demoted and reloaded — no drop_cache needed.
    assert_eq!(results[0][0].id, gid, "stale cached cluster served");
    assert!(report.cache_hits < warm.len());
    assert!(report.degraded_queries == 0 && report.coverage.is_empty());
}

#[test]
fn degraded_mode_serves_partial_coverage_when_reads_fail() {
    let data = gen::sift_like(400, 77).unwrap();
    let cfg = DHnswConfig::small()
        .with_degraded_ok(true)
        .with_read_retry_limit(1);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 4, 0.02, 88).unwrap();
    node.queue_pair().set_retry_limit(0);
    node.queue_pair().fail_next(u32::MAX);
    let (results, report) = node.query_batch(&queries, 5, 16).unwrap();
    node.queue_pair().fail_next(0);
    // Nothing arrived: every query degrades to zero coverage instead
    // of failing the batch.
    assert!(results.iter().all(|r| r.is_empty()));
    assert_eq!(report.degraded_queries, queries.len());
    assert_eq!(report.coverage.len(), queries.len());
    assert!(report.coverage.iter().all(|&c| c < 1.0));
    assert!(report.read_retries > 0);
    assert!((report.degraded_rate() - 1.0).abs() < 1e-12);
    let prom = node.telemetry().render_prometheus();
    assert!(prom.contains("dhnsw_degraded_queries_total"));
    assert!(prom.contains("dhnsw_read_retries_total"));
}

#[test]
fn exhausted_reads_error_without_degraded_opt_in() {
    let (data, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 2, 0.02, 89).unwrap();
    node.queue_pair().set_retry_limit(0);
    node.queue_pair().fail_next(u32::MAX);
    let err = node.query_batch(&queries, 5, 16).unwrap_err();
    node.queue_pair().fail_next(0);
    assert!(matches!(err, Error::ReadRetriesExhausted { .. }));
}

#[test]
fn naive_unique_clusters_is_the_batch_wide_union() {
    let (data, store) = setup(400);
    let node = store.connect(SearchMode::Naive).unwrap();
    let b = store.config().fanout();
    // Two identical queries route identically: the distinct-cluster
    // count must not double just because naive mode reloads.
    let batch = Dataset::from_rows(&[data.get(0), data.get(0)]).unwrap();
    let (_, report) = node.query_batch(&batch, 5, 16).unwrap();
    assert_eq!(report.unique_clusters, b);
    assert_eq!(report.raw_cluster_demand, 2 * b);
    assert_eq!(report.clusters_loaded, 2 * b);
}

#[test]
fn health_report_rejects_corrupt_overflow_counter() {
    let (_, store) = setup(300);
    let node = store.connect(SearchMode::Full).unwrap();
    // Scribble an impossible value into one group's used counter:
    // the report must call it corruption, not clamp it away.
    let loc = *node.directory.location(0).unwrap();
    node.qp
        .write(
            node.rkey,
            loc.overflow_counter_off(),
            &(loc.overflow_capacity() + 64).to_le_bytes(),
        )
        .unwrap();
    let err = node.health_report().unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "{err}");
}

/// A blob can decode and still not be the cluster its directory entry
/// describes. Before the loader checked, a blob of another partition
/// folded that partition's overflow records, a `DHC2` blob of another
/// dimensionality was scanned over the common prefix, and a `DHC1` one
/// silently answered nothing.
#[test]
fn a_landed_blob_of_another_partition_or_dim_is_corrupt_on_both_wires() {
    use crate::cluster::{SqCluster, SubCluster};
    let data = gen::sift_like(300, 77).unwrap();
    let queries = gen::perturbed_queries(&data, 4, 0.03, 99).unwrap();
    let p = 1u32;
    for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
        for wrong_dim in [false, true] {
            let config = DHnswConfig::small().with_quantize_mode(wire);
            let store = VectorStore::build(data.clone(), &config).unwrap();
            let node = store.connect(SearchMode::Full).unwrap();
            let everywhere = QueryOptions::new(5, 16).with_fanout(node.directory.partitions());
            node.query_batch_opts(&queries, &everywhere).unwrap();
            node.drop_cache();

            let (off, len) = match wire {
                QuantizeMode::Off => {
                    let loc = node.directory.location(p).unwrap();
                    (loc.cluster_off, loc.cluster_len)
                }
                QuantizeMode::Sq8 => node.directory.sq_span(p).unwrap().unwrap(),
            };
            let blob = if wrong_dim {
                // A whole cluster of partition `p` at half the
                // dimensionality; what follows it in the span is the old
                // blob's tail, which both decoders leave unread.
                let rows = gen::uniform(data.dim() / 2, 3, 0.0, 1.0, 1).unwrap();
                match wire {
                    QuantizeMode::Off => {
                        SubCluster::build(p, rows, vec![0, 1, 2], &config.sub_params())
                            .unwrap()
                            .to_bytes()
                    }
                    QuantizeMode::Sq8 => SqCluster::build(p, &rows, vec![0, 1, 2])
                        .unwrap()
                        .to_bytes(),
                }
            } else {
                // The cluster itself, under its neighbour's number.
                let mut blob = node.qp.read(node.rkey, off, len).unwrap();
                blob[4..8].copy_from_slice(&(p + 1).to_le_bytes());
                blob
            };
            assert!(blob.len() as u64 <= len);
            node.qp.write(node.rkey, off, &blob).unwrap();
            let err = node.query_batch_opts(&queries, &everywhere).unwrap_err();
            assert!(
                matches!(&err, Error::Corrupt(m) if m.starts_with("fetched partition 1 (128 dimensions)")),
                "{wire:?} wrong_dim {wrong_dim}: {err}"
            );
        }
    }
}

#[test]
fn a_failed_batch_leaves_the_node_consistent() {
    // A mid-batch substrate failure must release the batch's cache
    // pins and leave no other residue: afterwards the node behaves
    // exactly like a control connection that never saw the fault.
    let (data, store) = setup(600);
    let node = store.connect(SearchMode::Full).unwrap();
    let control = store.connect(SearchMode::Full).unwrap();
    let warm = gen::perturbed_queries(&data, 8, 0.02, 96).unwrap();
    let probe = gen::perturbed_queries(&data, 8, 0.02, 97).unwrap();
    node.query_batch(&warm, 5, 32).unwrap();
    control.query_batch(&warm, 5, 32).unwrap();

    node.queue_pair().set_retry_limit(0);
    node.queue_pair().fail_next(u32::MAX);
    assert!(node.query_batch(&probe, 5, 32).is_err());
    node.queue_pair().fail_next(0);

    let (rn, pn) = node.query_batch(&probe, 5, 32).unwrap();
    let (rc, pc) = control.query_batch(&probe, 5, 32).unwrap();
    assert_eq!(rn, rc);
    assert_eq!(pn.cache_hits, pc.cache_hits);
    assert_eq!(pn.bytes_read, pc.bytes_read);
}

/// Six clusters over one dataset, each holding 80 rows of which 30
/// also sit in the next cluster (ids shared between clusters, as a
/// forced representative is), plus 23 queries' routes: duplicated
/// partitions inside a route, empty routes, and partition 9, which
/// never resolves.
fn oracle_fixture(sq: bool) -> (Dataset, HashMap<u32, Arc<LoadedCluster>>, Vec<Vec<u32>>) {
    use crate::cluster::{SqCluster, SubCluster};
    let data = gen::uniform(8, 330, 0.0, 1.0, 5).unwrap();
    let params = hnsw::HnswParams::new(6, 40).seed(3);
    let mut resolved = HashMap::new();
    for p in 0..6u32 {
        let ids: Vec<u32> = (p * 50..p * 50 + 80).collect();
        let rows: Vec<&[f32]> = ids.iter().map(|&i| data.get(i as usize)).collect();
        let rows = Dataset::from_rows(&rows).unwrap();
        // One cluster of the quantized map is full precision, as a
        // cache entry from before a mode change would be.
        let cluster = if sq && p != 4 {
            let blob = SqCluster::build(p, &rows, ids).unwrap().to_bytes();
            LoadedCluster::from_remote_sq(&blob, None).unwrap()
        } else {
            let blob = SubCluster::build(p, rows, ids, &params).unwrap().to_bytes();
            LoadedCluster::adopt(blob, 0, false, None).unwrap()
        };
        resolved.insert(p, Arc::new(cluster));
    }
    let routes = (0..23u32)
        .map(|i| match i % 6 {
            0 => vec![],
            1 => vec![i % 5, (i + 1) % 5, i % 5],
            2 => vec![9, (i * 3) % 6],
            3 => vec![9],
            _ => vec![(i * 5) % 6, (i * 5 + 1) % 6, (i * 5 + 3) % 6],
        })
        .collect();
    let queries = gen::perturbed_queries(&data, 25, 0.05, 6).unwrap();
    (queries, resolved, routes)
}

/// What `search_stage` must return, from each probe's unseeded
/// single-query search: a query's hits merged one per id (the closest
/// copy, on a tie the lowest key's), ascending by `(dist, id)`, cut at `k`
/// — at `k + slack` where an SQ8 cluster is among its clusters — with the
/// share of its route that resolved.
fn query_major(
    queries: &Dataset,
    base: usize,
    resolved: &HashMap<u32, Arc<LoadedCluster>>,
    routes: &[Vec<u32>],
    (k, slack, ef): (usize, usize, usize),
) -> Vec<(Vec<Pooled>, f64)> {
    let reference = |(i, route): (usize, &Vec<u32>)| {
        let q = queries.get(base + i);
        let found = route.iter().filter_map(|p| Some((*p, resolved.get(p)?)));
        let mut pool: Vec<Pooled> = Vec::new();
        for (key, c) in found.clone() {
            match c.sq_params() {
                Some(sq) => pool.extend(c.search_sq(q, k + slack).iter().map(|h| {
                    let err = h.local.map_or(0.0, |_| sq.l2_error_bound(h.dist));
                    let cand = Candidate {
                        id: h.id,
                        dist: h.dist,
                        local: h.local,
                        err,
                    };
                    Pooled { key, cand }
                })),
                None => pool.extend(c.search(q, k, ef).iter().map(|n| {
                    let cand = Candidate::exact(n.id, n.dist);
                    Pooled { key, cand }
                })),
            }
        }
        pool.sort_by(|a, b| {
            a.cand
                .id
                .cmp(&b.cand.id)
                .then(a.cand.dist.total_cmp(&b.cand.dist))
                .then(a.key.cmp(&b.key))
        });
        pool.dedup_by_key(|c| c.cand.id);
        pool.sort_by(|a, b| {
            a.cand
                .dist
                .total_cmp(&b.cand.dist)
                .then(a.cand.id.cmp(&b.cand.id))
        });
        let exact = found.clone().all(|(_, c)| !c.is_quantized());
        pool.truncate(if exact { k } else { k + slack });
        let cov = found.count() as f64 / route.len().max(1) as f64;
        (pool, if route.is_empty() { 1.0 } else { cov })
    };
    routes.iter().enumerate().map(reference).collect()
}

/// Pools as bits: load key, id, distance, rerank address and error bound
/// of every candidate, and the coverage.
type PoolBits = Vec<(Vec<(u32, u32, u32, Option<u32>, u32)>, u64)>;

fn bits(pools: &[(Vec<Pooled>, f64)]) -> PoolBits {
    let candidate = |c: &Pooled| {
        let Candidate {
            id,
            dist,
            local,
            err,
        } = c.cand;
        (c.key, id, dist.to_bits(), local, err.to_bits())
    };
    (pools.iter())
        .map(|(pool, cov)| (pool.iter().map(candidate).collect(), cov.to_bits()))
        .collect()
}

#[test]
fn cluster_major_pools_equal_a_query_major_reference() {
    let (k, slack, ef) = (7, 5, 24);
    for sq in [false, true] {
        let (queries, resolved, routes) = oracle_fixture(sq);
        let reference = query_major(&queries, 2, &resolved, &routes, (k, slack, ef));
        assert!(
            reference.iter().any(|(_, cov)| *cov == 0.0)
                && reference.iter().any(|(_, cov)| *cov == 0.5)
        );
        for threads in [1, 2, 3, 7] {
            let got = search_stage(
                &routes,
                &queries,
                2,
                &resolved,
                (k, slack, ef),
                threads,
                true,
            )
            .unwrap();
            assert_eq!(got, reference, "sq {sq} threads {threads}");
            let strict = search_stage(
                &routes,
                &queries,
                2,
                &resolved,
                (k, slack, ef),
                threads,
                false,
            );
            assert!(
                matches!(strict, Err(Error::Corrupt(_))),
                "sq {sq} threads {threads}"
            );
        }
        if sq {
            continue;
        }
        // Exact candidates: the k closest of the closest-copy pool are
        // what a keep-first merge in route order finds — copies of an id
        // carry equal distances, so the two rules cannot disagree.
        for ((pool, _), (i, route)) in reference.iter().zip(routes.iter().enumerate()) {
            let mut top = TopK::new(k);
            let mut seen = std::collections::HashSet::new();
            for c in route.iter().filter_map(|p| resolved.get(p)) {
                for n in c.search(queries.get(2 + i), k, ef) {
                    if seen.insert(n.id) {
                        top.push(n.id, n.dist);
                    }
                }
            }
            let closest: Vec<Neighbor> = (pool.iter().take(k))
                .map(|c| Neighbor::new(c.cand.id, c.cand.dist))
                .collect();
            assert_eq!(closest, top.into_sorted_vec(), "query {i}");
        }
    }
}

/// Six clusters under `metric` over rows that repeat 120 distinct vectors,
/// so distances tie exactly, at a query's k-th as anywhere: five of 80
/// rows, each sharing 30 ids with the next; cluster 2 also holds overflow
/// inserts (copies of rows under new ids) and two tombstones, one of an id
/// cluster 1 keeps; cluster 5 has 600 rows, walked at ef 24. With
/// `mixed`, clusters 0 to 2 are SQ8 (L2 only). 24 routes, six shapes: the
/// walked cluster always second, so by the mean route position of their
/// probes the clusters go 3, 0, 1, 5, 2, 4 — a worker walks between two
/// scans — plus an empty route, a missing cluster (9) and a repeat.
fn seed_fixture(
    metric: Metric,
    mixed: bool,
) -> (Dataset, HashMap<u32, Arc<LoadedCluster>>, Vec<Vec<u32>>) {
    use crate::cluster::{OverflowRecord, SqCluster, SubCluster};
    let distinct = gen::uniform(8, 120, -1.0, 1.0, 5).unwrap();
    let rows: Vec<&[f32]> = (0..880).map(|i| distinct.get(i % 120)).collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let records: Vec<OverflowRecord> = (0..6u32)
        .map(|j| OverflowRecord::insert(2, 5_000 + j, distinct.get(7 * j as usize).to_vec()))
        .chain([110, 150].map(|id| OverflowRecord::tombstone(2, id, 8)))
        .collect();
    let mut area = ((records.len() * OverflowRecord::wire_size(8)) as u64)
        .to_le_bytes()
        .to_vec();
    records.iter().for_each(|r| area.extend(r.to_bytes()));
    let params = hnsw::HnswParams::new(6, 40).seed(3).metric(metric);
    let mut resolved = HashMap::new();
    for p in 0..6u32 {
        let ids: Vec<u32> = match p {
            5 => (280..880).collect(),
            _ => (p * 50..p * 50 + 80).collect(),
        };
        let rows = data.select(&ids);
        let area = (p == 2).then_some(area.as_slice());
        let cluster = if mixed && p < 3 {
            let blob = SqCluster::build(p, &rows, ids).unwrap().to_bytes();
            LoadedCluster::adopt(blob, 0, true, area).unwrap()
        } else {
            let blob = SubCluster::build(p, rows, ids, &params).unwrap().to_bytes();
            LoadedCluster::adopt(blob, 0, false, area).unwrap()
        };
        resolved.insert(p, Arc::new(cluster));
    }
    let routes = (0..24)
        .map(|i| match i % 6 {
            0 => vec![],
            1 => vec![0, 5, 1],
            2 => vec![9, 5, 2],
            3 => vec![3, 5, 4],
            4 => vec![0, 2, 0],
            _ => vec![1, 3, 2, 4],
        })
        .collect();
    let queries = gen::perturbed_queries(&data, 24, 0.05, 6).unwrap();
    (queries, resolved, routes)
}

/// Seeding is invisible: with every exact scan seeded by the k-th its
/// query's earlier probes returned, the pools are the unseeded reference's
/// to the bit — under L2, inner product (negative distances) and cosine,
/// with exact ties at the k-th, ids shared between clusters, a scanned
/// cluster with tombstones and overflow inserts, a walk between scans, a
/// missing cluster, at k = 0 and at any thread count. A query with an SQ8
/// cluster on its route is not seeded: its whole pool, exact candidates
/// past the k-th included, is the reference's.
#[test]
fn seeded_pools_equal_the_unseeded_reference() {
    let (slack, ef) = (5, 24);
    let cases = [
        (Metric::L2, false),
        (Metric::InnerProduct, false),
        (Metric::Cosine, false),
        (Metric::L2, true),
    ];
    for (metric, mixed) in cases {
        let (queries, resolved, routes) = seed_fixture(metric, mixed);
        let scanned = |p: u32| crate::cluster::scans(resolved[&p].base_len(), ef);
        assert!((0..5).all(scanned) && !scanned(5));
        assert_eq!(resolved[&2].overflow_len(), 6);
        assert_eq!(resolved[&2].deleted().len(), 2);
        for k in [0, 1, 7] {
            let reference = query_major(&queries, 0, &resolved, &routes, (k, slack, ef));
            // Some query's k-th ties with the next candidate.
            let longer = query_major(&queries, 0, &resolved, &routes, (k + 1, slack, ef));
            assert!(
                k == 0
                    || longer
                        .iter()
                        .any(|(p, _)| p.len() > k && p[k - 1].cand.dist == p[k].cand.dist),
                "{metric} k {k}: no tie at the k-th"
            );
            if mixed && k > 0 {
                // An exact candidate past the k-th that a seed would drop.
                let past = |(p, _): &(Vec<Pooled>, f64)| {
                    p[k.min(p.len())..].iter().any(|c| c.cand.local.is_none())
                };
                assert!(reference.iter().any(past));
            }
            for threads in [1, 2, 3, 7] {
                let got = search_stage(
                    &routes,
                    &queries,
                    0,
                    &resolved,
                    (k, slack, ef),
                    threads,
                    true,
                )
                .unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&reference),
                    "{metric} mixed {mixed} k {k} threads {threads}"
                );
            }
        }
    }
}

/// The merge keeps each id's closest copy and, between equally close
/// copies, the lowest load key's — whichever order the lists arrive in and
/// whether or not two copies stand among the `cap` closest.
#[test]
fn the_merge_keeps_each_ids_closest_copy_and_on_a_tie_the_lowest_key() {
    let pooled = |key, id, dist| Pooled {
        key,
        cand: Candidate::exact(id, dist),
    };
    let pool = [
        pooled(3, 7, 0.5),
        pooled(6, 4, 0.1),
        pooled(1, 7, 0.5),
        pooled(2, 9, 0.4),
        pooled(0, 9, 0.6),
        pooled(5, 4, 0.1),
        pooled(4, 8, 0.45),
    ];
    let want = [(5, 4), (2, 9), (4, 8), (1, 7)];
    for turn in 0..pool.len() {
        let mut turned = pool.to_vec();
        turned.rotate_left(turn);
        for cap in 0..=pool.len() {
            let mut got = turned.clone();
            super::query::closest_per_id(&mut got, cap);
            let got: Vec<(u32, u32)> = got.iter().map(|c| (c.key, c.cand.id)).collect();
            assert_eq!(
                got,
                want[..cap.min(want.len())],
                "rotated {turn}, cap {cap}"
            );
        }
    }
    // A cut longer than the ids sorted on the stack takes the other path.
    let mut long: Vec<Pooled> = (0..90).map(|i| pooled(i % 3, i, i as f32)).collect();
    long.extend((0..90).step_by(2).map(|i| pooled(5, i, i as f32 + 0.5)));
    long.reverse();
    super::query::closest_per_id(&mut long, 70);
    let got: Vec<(u32, u32)> = long.iter().map(|c| (c.key, c.cand.id)).collect();
    assert_eq!(got, (0..70).map(|i| (i % 3, i)).collect::<Vec<_>>());
}

#[test]
fn zero_ef_is_rejected() {
    let (data, store) = setup(200);
    let node = store.connect(SearchMode::Full).unwrap();
    let queries = gen::perturbed_queries(&data, 2, 0.03, 97).unwrap();
    assert!(matches!(
        node.query_batch(&queries, 5, 0),
        Err(Error::InvalidParameter(_))
    ));
}

/// A probe picks scan or walk from its cluster's size, so a store whose
/// partitions straddle the cut-off answers from both in one batch — the
/// same ids whichever read path fetched the clusters, before and after
/// inserts and deletes.
#[test]
fn modes_agree_with_partitions_on_both_sides_of_the_scan_cut_off() {
    let (data, store) = setup(1_500);
    let (k, ef) = (5, 4);
    let sizes = store.partition_sizes();
    let scans = |&rows: &usize| crate::cluster::scans(rows, ef);
    assert!(
        sizes.iter().any(scans) && !sizes.iter().all(scans),
        "{sizes:?} do not straddle the cut-off at ef {ef}"
    );
    let queries = gen::perturbed_queries(&data, 24, 0.02, 131).unwrap();
    let answers = || {
        let of = |mode| {
            let (hits, _) = store
                .connect(mode)
                .unwrap()
                .query_batch(&queries, k, ef)
                .unwrap();
            hits.iter()
                .map(|r| r.iter().map(|n| n.id).collect())
                .collect::<Vec<Vec<u32>>>()
        };
        let full = of(SearchMode::Full);
        assert_eq!(full, of(SearchMode::NoDoorbell));
        assert_eq!(full, of(SearchMode::Naive));
        full
    };
    let pristine = answers();

    let writer = store.connect(SearchMode::Full).unwrap();
    for i in 0..12 {
        let q = queries.get(i);
        let nearest = writer.query(q, 1, ef).unwrap()[0].id;
        writer.delete(q, nearest).unwrap();
        writer.insert(q).unwrap();
    }
    let mutated = answers();
    assert_ne!(pristine, mutated);
    for (i, hits) in mutated.iter().take(12).enumerate() {
        assert!(
            hits[0] >= data.len() as u32,
            "query {i} finds its own insert first: {hits:?}"
        );
    }
}

/// Every partition of this store is under the cut-off, so every probe is
/// a scan under the store's own metric: with every partition on the route
/// the answer is brute force's, id for id — under cosine as under L2, for
/// every batch size up to the query count. At 960 dimensions a block holds
/// 4 queries, so a batch of 5 to 12 is scanned in several blocks through
/// one scratch; at 128 dimensions a block holds 32, so batches of 1 to 17
/// hand every cluster one block of that many queries (or, across search
/// threads, runs of them), and the block kernel's whole tiles, padded
/// tiles and queries left over all reach the engine.
#[test]
fn scanned_clusters_are_exact_under_the_stores_metric() {
    for (data, nq) in [
        (gen::gist_like(600, 17).unwrap(), 12),
        (gen::sift_like(600, 17).unwrap(), 17),
    ] {
        scanned_clusters_are_exact(&data, nq);
    }
}

fn scanned_clusters_are_exact(data: &Dataset, nq: usize) {
    let queries = gen::perturbed_queries(data, nq, 0.02, 18).unwrap();
    for metric in [Metric::Cosine, Metric::InnerProduct, Metric::L2] {
        let config = DHnswConfig::small().with_metric(metric);
        let store = VectorStore::build(data.clone(), &config).unwrap();
        let (k, ef) = (5, 16);
        let largest = *store.partition_sizes().iter().max().unwrap();
        assert!(
            crate::cluster::scans(largest, ef),
            "{largest} rows would be walked"
        );
        let node = store.connect(SearchMode::Full).unwrap();
        let everywhere = QueryOptions::new(k, ef).with_fanout(store.partitions());
        let truth = ground_truth::exact_batch(data, &queries, k, metric);
        for batch in 1..=queries.len() {
            let ids: Vec<u32> = (0..batch as u32).collect();
            let (hits, _) = node
                .query_batch_opts(&queries.select(&ids), &everywhere)
                .unwrap();
            for (got, want) in hits.iter().zip(&truth) {
                let ids = |r: &[Neighbor]| r.iter().map(|n| n.id).collect::<Vec<u32>>();
                let dim = data.dim();
                assert_eq!(ids(got), ids(want), "{metric}, {dim}-d, batch of {batch}");
            }
        }
    }
}

/// The calling thread runs the first chunk and `threads − 1` helpers the
/// rest; every index runs once, outputs keep index order and the error
/// returned is the lowest index's — with fewer items than threads too.
#[test]
fn run_indexed_runs_each_index_once_in_order_with_the_caller_working() {
    let caller = std::thread::current().id();
    for threads in 1..=4 {
        for n in 0..=9 {
            let ran = parking_lot::Mutex::new(Vec::new());
            let out = run_indexed(n, threads, |i| {
                ran.lock().push((i, std::thread::current().id()));
                Ok(i * i)
            })
            .unwrap();
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
            let mut ran = ran.into_inner();
            ran.sort_by_key(|&(i, _)| i);
            assert!(
                ran.iter().map(|&(i, _)| i).eq(0..n),
                "{threads} threads, {n}"
            );
            assert!(ran.first().is_none_or(|&(_, id)| id == caller));
            let workers: std::collections::HashSet<_> = ran.iter().map(|&(_, id)| id).collect();
            assert!(workers.len() <= threads.min(n), "{threads} threads, {n}");
            let failed = run_indexed(n, threads, |i| match i % 3 {
                2 => Err(Error::InvalidParameter(i.to_string())),
                _ => Ok(i),
            });
            match failed {
                Err(Error::InvalidParameter(i)) => assert_eq!(i, "2"),
                other => assert!(n < 3 && other.is_ok(), "{threads} threads, {n}: {other:?}"),
            }
        }
    }
}

/// The compressed wire ranks by squared L2, so a store cannot be built
/// over it under another metric (`DHNSW_QUANTIZE_MODE` reaches the same
/// check: `config::tests::a_build_validates_the_wire_the_environment_resolved`).
#[test]
fn sq8_under_a_non_l2_metric_is_refused_at_build() {
    let data = gen::sift_like(200, 5).unwrap();
    let cosine = DHnswConfig::small().with_metric(Metric::Cosine);
    let refused = |config: &DHnswConfig| match VectorStore::build(data.clone(), config) {
        Err(Error::InvalidParameter(m)) => m.contains("sq8") && m.contains("cosine"),
        _ => false,
    };
    assert!(refused(
        &cosine.clone().with_quantize_mode(QuantizeMode::Sq8)
    ));
    assert!(!refused(&cosine));
}
