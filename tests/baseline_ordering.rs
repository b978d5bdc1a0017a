//! Integration tests for the paper's headline performance claims: the
//! *ordering* (and rough magnitude) of network cost across the three
//! schemes, and the behaviour of the knobs the evaluation sweeps.

use dhnsw_repro::dhnsw::{BatchReport, DHnswConfig, SearchMode, VectorStore};
use dhnsw_repro::rdma_sim::NetworkModel;
use dhnsw_repro::vecsim::{gen, Dataset};

fn run_batch(store: &VectorStore, mode: SearchMode, queries: &Dataset, warm: bool) -> BatchReport {
    let node = store.connect(mode).unwrap();
    if warm {
        node.query_batch(queries, 10, 32).unwrap();
    }
    let (_, report) = node.query_batch(queries, 10, 32).unwrap();
    report
}

fn workload(n: usize, q: usize) -> (Dataset, Dataset) {
    let data = gen::sift_like(n, 41).unwrap();
    let queries = gen::perturbed_queries(&data, q, 0.05, 42).unwrap();
    (data, queries)
}

#[test]
fn network_latency_ordering_naive_nodoorbell_full() {
    let (data, queries) = workload(2_000, 200);
    let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    let naive = run_batch(&store, SearchMode::Naive, &queries, false);
    let nodb = run_batch(&store, SearchMode::NoDoorbell, &queries, false);
    let full = run_batch(&store, SearchMode::Full, &queries, false);

    assert!(
        full.breakdown.network_us <= nodb.breakdown.network_us,
        "full {} vs no-doorbell {}",
        full.breakdown.network_us,
        nodb.breakdown.network_us
    );
    assert!(
        nodb.breakdown.network_us < naive.breakdown.network_us,
        "no-doorbell {} vs naive {}",
        nodb.breakdown.network_us,
        naive.breakdown.network_us
    );
    // The paper's headline: ~two orders of magnitude vs naive at batch
    // scale. Even cold at this reduced scale the factor is large.
    let factor = naive.breakdown.network_us / full.breakdown.network_us;
    assert!(factor > 5.0, "naive/full network factor only {factor:.1}x");
}

#[test]
fn round_trips_per_query_ordering_matches_table1() {
    let (data, queries) = workload(2_000, 200);
    let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    let naive = run_batch(&store, SearchMode::Naive, &queries, false);
    let nodb = run_batch(&store, SearchMode::NoDoorbell, &queries, false);
    let full = run_batch(&store, SearchMode::Full, &queries, false);

    // Table 1 ordering: naive (3.5) > w/o doorbell (0.9) >> d-HNSW (4.7e-3).
    assert!(naive.round_trips_per_query() > nodb.round_trips_per_query());
    assert!(nodb.round_trips_per_query() > full.round_trips_per_query() * 4.0);
    // Naive issues exactly b reads per query.
    assert_eq!(
        naive.round_trips,
        (queries.len() * store.config().fanout()) as u64
    );
}

#[test]
fn bigger_batches_amortize_better() {
    let (data, _) = workload(2_000, 1);
    let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
    let small_q = gen::perturbed_queries(&data, 20, 0.05, 43).unwrap();
    let large_q = gen::perturbed_queries(&data, 400, 0.05, 43).unwrap();
    let small = run_batch(&store, SearchMode::Full, &small_q, false);
    let large = run_batch(&store, SearchMode::Full, &large_q, false);
    assert!(
        large.round_trips_per_query() < small.round_trips_per_query(),
        "batching gives no amortization: {} vs {}",
        large.round_trips_per_query(),
        small.round_trips_per_query()
    );
}

#[test]
fn warm_cache_eliminates_repeat_traffic_for_full_but_not_naive() {
    let (data, queries) = workload(1_500, 60);
    let store = VectorStore::build(data, &DHnswConfig::small().with_cache_fraction(1.0)).unwrap();
    let full_warm = run_batch(&store, SearchMode::Full, &queries, true);
    let naive_warm = run_batch(&store, SearchMode::Naive, &queries, true);
    assert_eq!(full_warm.round_trips, 0);
    assert!(naive_warm.round_trips > 0);
}

#[test]
fn doorbell_limit_sweep_shows_the_scalability_tradeoff() {
    let (data, queries) = workload(2_000, 120);
    let mut trips = Vec::new();
    for limit in [1usize, 4, 16, 64] {
        let cfg = DHnswConfig::small().with_network(
            NetworkModel::connectx6()
                .with_doorbell_limit(limit)
                .unwrap(),
        );
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let report = run_batch(&store, SearchMode::Full, &queries, false);
        trips.push(report.round_trips);
    }
    // Larger doorbells strictly consolidate round trips.
    assert!(trips.windows(2).all(|w| w[0] >= w[1]), "{trips:?}");
    assert!(trips[0] > trips[3], "{trips:?}");
}

#[test]
fn no_doorbell_is_full_at_doorbell_limit_one() {
    let (data, queries) = workload(2_000, 120);
    let limit_1 = DHnswConfig::small()
        .with_network(NetworkModel::connectx6().with_doorbell_limit(1).unwrap());
    let at_limit_1 = VectorStore::build(data.clone(), &limit_1).unwrap();
    let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    let (full, nodb) = (
        at_limit_1.connect(SearchMode::Full).unwrap(),
        store.connect(SearchMode::NoDoorbell).unwrap(),
    );
    for batch in ["cold", "warm"] {
        let (full_ids, full) = full.query_batch(&queries, 10, 32).unwrap();
        let (nodb_ids, nodb) = nodb.query_batch(&queries, 10, 32).unwrap();
        assert_eq!(
            full.breakdown.network_us, nodb.breakdown.network_us,
            "{batch}"
        );
        assert_eq!(full.round_trips, nodb.round_trips, "{batch}");
        assert_eq!(full.bytes_read, nodb.bytes_read, "{batch}");
        assert_eq!(full.doorbell_batches, nodb.doorbell_batches, "{batch}");
        assert_eq!(full_ids, nodb_ids, "{batch}");
    }
}

#[test]
fn cache_fraction_sweep_reduces_loads() {
    let (data, queries) = workload(2_000, 120);
    let mut loads = Vec::new();
    for frac in [0.0, 0.1, 0.5, 1.0] {
        let cfg = DHnswConfig::small().with_cache_fraction(frac);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        node.query_batch(&queries, 10, 32).unwrap(); // warm
        let (_, second) = node.query_batch(&queries, 10, 32).unwrap();
        loads.push(second.clusters_loaded);
    }
    assert!(
        loads.windows(2).all(|w| w[0] >= w[1]),
        "warm loads should fall with cache size: {loads:?}"
    );
    assert_eq!(loads[3], 0, "full cache must absorb everything");
}

#[test]
fn fanout_sweep_trades_bytes_for_recall() {
    let (data, queries) = workload(2_000, 60);
    let mut bytes = Vec::new();
    for b in [1usize, 2, 4, 8] {
        let store = VectorStore::build(data.clone(), &DHnswConfig::small().with_fanout(b)).unwrap();
        let report = run_batch(&store, SearchMode::Full, &queries, false);
        bytes.push(report.bytes_read);
    }
    assert!(
        bytes.windows(2).all(|w| w[0] <= w[1]),
        "bytes should grow with fanout: {bytes:?}"
    );
}

#[test]
fn slower_fabric_slows_everything_proportionally() {
    let (data, queries) = workload(1_200, 60);
    let fast_cfg = DHnswConfig::small().with_network(NetworkModel::connectx6());
    let slow_cfg = DHnswConfig::small().with_network(NetworkModel::roce25());
    let fast_store = VectorStore::build(data.clone(), &fast_cfg).unwrap();
    let slow_store = VectorStore::build(data, &slow_cfg).unwrap();
    let fast = run_batch(&fast_store, SearchMode::Full, &queries, false);
    let slow = run_batch(&slow_store, SearchMode::Full, &queries, false);
    assert!(slow.breakdown.network_us > fast.breakdown.network_us * 2.0);
    // Same logical work either way.
    assert_eq!(slow.bytes_read, fast.bytes_read);
    assert_eq!(slow.round_trips, fast.round_trips);
}

#[test]
fn per_batch_demand_dedup_matches_fig5_semantics() {
    let (data, queries) = workload(1_500, 300);
    let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    let (_, report) = node.query_batch(&queries, 10, 32).unwrap();
    // 300 queries × b demand, but only <= partitions unique loads.
    assert_eq!(
        report.raw_cluster_demand,
        queries.len() * store.config().fanout()
    );
    assert!(report.unique_clusters <= store.partitions());
    assert!(report.clusters_loaded <= report.unique_clusters);
    assert!(report.raw_cluster_demand > report.unique_clusters);
}
