//! End-to-end telemetry: the metrics registry and the retained views
//! must agree with what the engine reports through [`BatchReport`] and
//! the substrate's [`TransferStats`].

use std::sync::Arc;

use dhnsw_repro::dhnsw::telemetry::exemplar::RESERVOIR_CAPACITY;
use dhnsw_repro::dhnsw::telemetry::profile;
use dhnsw_repro::dhnsw::telemetry::span::DEFAULT_SPAN_TRACE_CAPACITY;
use dhnsw_repro::dhnsw::{
    evaluate_slo, evaluate_slo_point, DHnswConfig, ReadCause, SearchMode, SeriesPoint, SloBudgets,
    Telemetry, VectorStore,
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
fn the_k_slowest_set_ranks_by_wall_plus_exposed_network() {
    // A fabric whose round trip costs 1000 virtual seconds: a batch that
    // moves anything is slow by the clock this system models, though the
    // host spends milliseconds on it. Whole-store cache, so the repeat
    // batch moves nothing.
    let data = gen::sift_like(2_000, 11).unwrap();
    let queries = gen::perturbed_queries(&data, 40, 0.02, 12).unwrap();
    let fabric = NetworkModel::connectx6()
        .with_base_rtt_ps(1_000_000_000_000_000)
        .unwrap();
    let config = DHnswConfig::small()
        .with_cache_fraction(1.0)
        .with_network(fabric);
    let store = VectorStore::build(data, &config).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();

    let (_, cold) = node.query_batch(&queries, 10, 32).unwrap();
    let (_, warm) = node.query_batch(&queries, 10, 32).unwrap();
    let wall_us = cold.total_us - cold.breakdown.network_us;
    assert!(wall_us < 100e6 && 100e6 < cold.total_us, "{cold:?}");
    assert!(warm.total_us < 100e6, "{warm:?}");

    // The ranking and the histogram judge one number: the cold batch,
    // slow only by its exposed network, heads the K-slowest set.
    let slowest = telemetry.exemplars().slowest();
    assert_eq!(slowest[0].trace_id, cold.trace_id, "{slowest:?}");
    assert_eq!(slowest[1].trace_id, warm.trace_id, "{slowest:?}");
    let listed = format!("\"slowest\": [{{\"trace_id\": {},", cold.trace_id);
    assert!(telemetry.exemplars().render_json().contains(&listed));
}

#[test]
fn every_trace_id_the_tail_plane_names_resolves_at_whyslow() {
    // More batches than the reservoir holds, so it has begun to evict.
    let data = gen::sift_like(2_000, 11).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.02, 12).unwrap();
    let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    let batches = 300;
    assert!(batches > RESERVOIR_CAPACITY);
    for _ in 0..batches {
        node.query_batch(&queries, 10, 32).unwrap();
    }

    let ex = telemetry.exemplars();
    let json = ex.render_json();
    let named: Vec<u64> = json
        .split("\"trace_id\": ")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a trace id is an integer")
        })
        .collect();
    assert!(named.len() > RESERVOIR_CAPACITY, "{json}");
    let unresolved: Vec<u64> = named
        .into_iter()
        .filter(|&id| ex.whyslow_json(id).is_none())
        .collect();
    assert!(
        unresolved.is_empty(),
        "ids named but not resolvable: {unresolved:?}"
    );
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
    // Every byte read is the sum of the by-cause series.
    let by_cause: f64 = ReadCause::ALL
        .iter()
        .map(|c| {
            let series = format!(
                "dhnsw_rdma_read_bytes_by_cause_total{{cause=\"{}\"}}",
                c.as_str()
            );
            metric_value(&text, &series)
        })
        .sum();
    assert_eq!(by_cause as u64, r1.bytes_read + r2.bytes_read);
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
fn a_recorder_tick_is_the_window_between_its_two_samples() {
    // A tenth of the clusters fit: most of what three batches plan is
    // fetched, so the plan-time hit rate is far below 0.5.
    let data = gen::sift_like(1_500, 21).unwrap();
    let config = DHnswConfig::small().with_cache_fraction(0.10);
    let store = VectorStore::build(data.clone(), &config).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();

    let before = node.sample(0);
    assert!(
        telemetry.series().tick(&telemetry, before).is_none(),
        "the first tick is a baseline"
    );
    for seed in 0..3 {
        let queries = gen::perturbed_queries(&data, 16, 0.02, 22 + seed).unwrap();
        node.query_batch(&queries, 10, 32).unwrap();
    }
    let after = node.sample(1_000_000);
    let point = telemetry
        .series()
        .tick(&telemetry, after)
        .expect("the second tick derives a point");

    // `/timeseries`, `serve`'s sampler and `doctor`'s bracket read one
    // window, one hit rate.
    assert_eq!(
        point.to_json(),
        SeriesPoint::between(&before, &after).to_json()
    );
    assert_eq!(point.window_queries, 48);
    assert!(point.hit_rate < 0.5, "hit rate {}", point.hit_rate);

    // So a hit-rate budget fires on the window, and only there: the
    // report judges state, not windows.
    let budgets = SloBudgets {
        min_cache_hit_rate: Some(0.5),
        ..SloBudgets::default()
    };
    let report = node.health_report().unwrap();
    let exemplar = telemetry.exemplars().slowest().first().map(|r| r.trace_id);
    assert!(evaluate_slo(&report, &budgets, exemplar).is_empty());
    let fired = evaluate_slo_point(&point, &budgets, exemplar);
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].budget, "cache_hit_rate");
}

#[test]
fn the_folded_profile_describes_the_batches_the_span_ring_holds() {
    let (store, queries) = workload();
    let telemetry = Arc::new(Telemetry::new());
    telemetry.spans().set_enabled(true);
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    let batches = DEFAULT_SPAN_TRACE_CAPACITY + 6;
    for _ in 0..batches {
        node.query_batch(&queries.select(&[0, 1]), 5, 16).unwrap();
    }

    // `/profile/folded` and `/traces` read one ring: the profile's batch
    // root counts the trees the ring holds, not every batch captured.
    let ring = telemetry.spans().recent();
    assert_eq!(ring.len(), DEFAULT_SPAN_TRACE_CAPACITY);
    let folded = profile::fold(&ring);
    assert_eq!(folded["query_batch"].calls, ring.len() as u64);
    let text = profile::render_folded(&ring);
    assert_eq!(text.lines().count(), folded.len());
    assert!(text.lines().all(|l| l.starts_with("query_batch")), "{text}");
}
