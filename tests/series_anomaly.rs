//! Seeded fault-rate ramp → retry-storm anomaly → why-slow linkage.
//!
//! End-to-end contract for the time-series layer, on the full-precision
//! and the SQ8 wire alike: a node serving a steady pinned-seed workload
//! establishes a baseline free of deterministic anomalies;
//! ramping the substrate fault rate (with retransmissions disabled)
//! makes engine-level read retries storm, and the recorder must flag
//! that as a `retries_per_s` anomaly whose record links a retained
//! tail exemplar's trace id — so the alert lands with a concrete
//! `/whyslow/<id>` diagnosis attached. Ticks are synthetic
//! throughout: the recorder never reads the wall clock.

use std::sync::Arc;

use dhnsw_repro::dhnsw::{DHnswConfig, QuantizeMode, SearchMode, Telemetry, VectorStore};
use dhnsw_repro::vecsim::gen;

#[test]
fn fault_ramp_fires_retry_anomaly_linking_an_exemplar() {
    for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
        fault_ramp_on(wire);
    }
}

fn fault_ramp_on(wire: QuantizeMode) {
    let data = gen::sift_like(600, 31).unwrap();
    let cfg = DHnswConfig::small()
        .with_degraded_ok(true)
        .with_quantize_mode(wire);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.02, 32).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();

    // Baseline: twelve identical cold rounds, one synthetic tick (one
    // virtual second) per round. No retries anywhere, so the detector
    // warms up on a steady, anomaly-free workload.
    let mut t_us = 0u64;
    node.sample_series(t_us);
    for _ in 0..12 {
        node.drop_cache();
        node.query_batch(&queries, 5, 32).unwrap();
        t_us += 1_000_000;
        node.sample_series(t_us);
    }
    // Only the count-derived series: whether a window's p99 strays is
    // the wall clock's call.
    let steady = telemetry.series().anomalies();
    assert!(
        !steady.iter().any(|a| a.deterministic),
        "{wire:?}: steady baseline must be anomaly-free: {steady:?}"
    );

    // Ramp: no retransmissions plus a 50% seeded drop rate maps every
    // fault onto an engine-level read retry.
    node.queue_pair().set_retry_limit(0);
    node.queue_pair().set_fault_rate(0.5, 0xD16E);
    for _ in 0..2 {
        node.drop_cache();
        node.query_batch(&queries, 5, 32).unwrap();
        t_us += 1_000_000;
        node.sample_series(t_us);
    }

    let records = telemetry.series().anomalies();
    assert!(
        telemetry.series().anomaly_count() >= 1,
        "retry storm produced no anomaly; points: {:?}",
        telemetry.series().points()
    );
    let storm = records
        .iter()
        .find(|r| r.series == "retries_per_s")
        .unwrap_or_else(|| panic!("no retries_per_s anomaly in {records:?}"));
    assert!(storm.deterministic, "retries/s is a deterministic series");
    assert!(
        storm.value > storm.mean,
        "storm value {} should exceed baseline {}",
        storm.value,
        storm.mean
    );

    // The record links the slowest retained exemplar, and that trace
    // id resolves to a real why-slow diagnosis.
    let trace_id = storm.exemplar.expect("anomaly must link an exemplar");
    let ex = telemetry.exemplars();
    assert!(
        ex.lookup(trace_id).is_some(),
        "linked trace id {trace_id} is not retained"
    );
    let whyslow = ex
        .whyslow_json(trace_id)
        .expect("linked exemplar must diagnose");
    assert!(whyslow.contains("\"trace_id\""), "diagnosis: {whyslow}");

    // The firing also surfaced as a labelled counter.
    let prom = telemetry.render_prometheus();
    assert!(
        prom.contains("dhnsw_anomaly_total{series=\"retries_per_s\"}"),
        "missing anomaly counter:\n{prom}"
    );
}
