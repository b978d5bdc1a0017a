//! End-to-end telemetry: the metrics registry and the retained views
//! must agree with what the engine reports through [`BatchReport`] and
//! the substrate's [`TransferStats`].

use std::sync::Arc;

use dhnsw_repro::dhnsw::{
    evaluate_slo, evaluate_slo_point, DHnswConfig, SearchMode, SloBudgets, Telemetry, VectorStore,
};
use dhnsw_repro::rdma_sim::NetworkModel;
use dhnsw_repro::vecsim::{gen, Dataset};

fn workload() -> (VectorStore, Dataset) {
    let data = gen::sift_like(2_000, 11).unwrap();
    let queries = gen::perturbed_queries(&data, 40, 0.02, 12).unwrap();
    let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    (store, queries)
}

/// Extracts the value of a Prometheus sample line, e.g.
/// `metric_value(&text, "dhnsw_queries_total{mode=\"full\"}")`.
fn metric_value(text: &str, series: &str) -> f64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(series) {
            if let Some(v) = rest.split_whitespace().next() {
                return v.parse().unwrap();
            }
        }
    }
    panic!("series {series} not found in:\n{text}");
}

#[test]
fn slow_query_log_judges_wall_plus_exposed_network() {
    // A fabric whose round trip costs 1000 virtual seconds: a batch that
    // moves anything is slow by the clock this system models, though the
    // host spends milliseconds on it. Whole-store cache, so the repeat
    // batch moves nothing.
    let data = gen::sift_like(2_000, 11).unwrap();
    let queries = gen::perturbed_queries(&data, 40, 0.02, 12).unwrap();
    let fabric = NetworkModel::connectx6().with_base_rtt_us(1e9).unwrap();
    let config = DHnswConfig::small()
        .with_cache_fraction(1.0)
        .with_network(fabric);
    let store = VectorStore::build(data, &config).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    node.set_prefetch_budget_bytes(0);
    telemetry.spans().set_enabled(true);
    let threshold_us = 100e6;
    telemetry.spans().set_slow_threshold_us(threshold_us as u64);

    let (_, cold) = node.query_batch(&queries, 10, 32).unwrap();
    let (_, warm) = node.query_batch(&queries, 10, 32).unwrap();
    let wall_us = cold.total_us - cold.breakdown.network_us;
    assert!(
        wall_us < threshold_us && threshold_us < cold.total_us,
        "{cold:?}"
    );
    assert!(warm.total_us < threshold_us, "{warm:?}");

    // The log, the exemplar ranking and the histogram judge one number:
    // the cold batch is the slow one everywhere, the warm one nowhere.
    let log = telemetry.spans().slow_log();
    assert_eq!(log.len(), 1, "{log:?}");
    let header = format!("slow query batch: trace_id={} mode=full", cold.trace_id);
    assert!(log[0].starts_with(&header), "{}", log[0]);
    assert!(log[0].contains("cause=stage_load"));
    let listed = format!("\"slowest\": [{{\"trace_id\": {},", cold.trace_id);
    assert!(telemetry.exemplars().render_json().contains(&listed));
}

#[test]
fn prometheus_counters_agree_with_reports() {
    let (store, queries) = workload();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();

    let (_, r1) = node.query_batch(&queries, 10, 32).unwrap();
    let (_, r2) = node.query_batch(&queries, 10, 32).unwrap();
    let text = telemetry.render_prometheus();

    assert_eq!(
        metric_value(&text, "dhnsw_queries_total{mode=\"full\"}") as usize,
        r1.queries + r2.queries
    );
    assert_eq!(
        metric_value(&text, "dhnsw_query_batches_total{mode=\"full\"}") as u64,
        2
    );
    assert_eq!(
        metric_value(&text, "dhnsw_rdma_round_trips_total") as u64,
        r1.round_trips + r2.round_trips
    );
    assert_eq!(
        metric_value(&text, "dhnsw_rdma_bytes_read_total") as u64,
        r1.bytes_read + r2.bytes_read
    );
    assert_eq!(
        metric_value(&text, "dhnsw_clusters_loaded_total{mode=\"full\"}") as usize,
        r1.clusters_loaded + r2.clusters_loaded
    );
    assert_eq!(
        metric_value(&text, "dhnsw_cluster_cache_hits_total{mode=\"full\"}") as usize,
        r1.cache_hits + r2.cache_hits
    );
    // The second identical batch must hit the cluster cache.
    assert!(r2.cache_hits > 0);

    // Histogram invariants: latency count equals queries; the doorbell
    // batch-size histogram counts exactly the doorbell rings.
    assert_eq!(
        metric_value(&text, "dhnsw_query_latency_us_count{mode=\"full\"}") as usize,
        r1.queries + r2.queries
    );
    assert_eq!(
        metric_value(&text, "dhnsw_doorbell_batch_size_count"),
        metric_value(&text, "dhnsw_rdma_doorbell_batches_total")
    );

    // JSON snapshot carries the quantiles the paper-style reports need.
    let json = telemetry.snapshot_json();
    for needle in ["\"p50\"", "\"p95\"", "\"p99\"", "dhnsw_query_latency_us"] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}

#[test]
fn mutation_counters_track_insert_and_delete() {
    let (store, queries) = workload();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();

    let v = queries.get(0).to_vec();
    let id = node.insert(&v).unwrap();
    let batch = Dataset::from_rows(&[queries.get(1), queries.get(2)]).unwrap();
    let ok = node.insert_batch(&batch).unwrap();
    assert!(ok.iter().all(|r| r.is_ok()));
    node.delete(&v, id).unwrap();
    // A call refused before it has a record to write counts nothing.
    assert!(node.insert(&v[..4]).is_err());
    assert!(node
        .insert_batch(&gen::uniform(4, 2, 0.0, 1.0, 1).unwrap())
        .is_err());
    assert!(node.delete(&v[..4], id).is_err());

    let text = telemetry.render_prometheus();
    assert_eq!(metric_value(&text, "dhnsw_inserts_total") as u64, 3);
    assert_eq!(metric_value(&text, "dhnsw_deletes_total") as u64, 1);
    assert_eq!(metric_value(&text, "dhnsw_insert_overflow_total") as u64, 0);
    // Inserts and deletes move bytes and atomics through the substrate.
    assert!(metric_value(&text, "dhnsw_rdma_atomics_total") > 0.0);
    assert!(metric_value(&text, "dhnsw_rdma_bytes_written_total") > 0.0);
}

#[test]
fn health_and_timeseries_cut_one_window_with_one_hit_rate() {
    // A tenth of the clusters fit: most of what three batches plan is
    // fetched, so the plan-time hit rate is far below 0.5.
    let data = gen::sift_like(1_500, 21).unwrap();
    let config = DHnswConfig::small().with_cache_fraction(0.10);
    let store = VectorStore::build(data.clone(), &config).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    node.set_prefetch_budget_bytes(0);

    // Both windows start here.
    assert!(
        node.sample_series(0).is_none(),
        "the first tick is a baseline"
    );
    node.health_report().unwrap();
    for seed in 0..3 {
        let queries = gen::perturbed_queries(&data, 16, 0.02, 22 + seed).unwrap();
        node.query_batch(&queries, 10, 32).unwrap();
    }
    let point = node
        .sample_series(1_000_000)
        .expect("the second tick derives a point");
    let report = node.health_report().unwrap();

    // `/timeseries` and `/health` read one window, one hit rate.
    assert_eq!(point.window_queries, 48);
    assert_eq!(point.window_queries, report.latency.window_queries);
    assert_eq!(point.p99_us, report.latency.window_p99_us);
    assert_eq!(point.hit_rate, report.cache.window_hit_rate);
    assert!(point.hit_rate < 0.5, "hit rate {}", point.hit_rate);

    // So a hit-rate budget fires through `doctor` and `serve` alike.
    let budgets = SloBudgets {
        min_cache_hit_rate: Some(0.5),
        ..SloBudgets::default()
    };
    let exemplar = report.tail.slowest_trace_id;
    assert_eq!(evaluate_slo(&report, &budgets).len(), 1);
    assert_eq!(evaluate_slo_point(&point, &budgets, exemplar).len(), 1);
}
