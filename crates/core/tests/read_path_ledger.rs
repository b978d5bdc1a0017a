//! Characterization ledger of the read path: every count a query batch
//! reports, over the whole mode matrix, pinned in
//! `tests/golden/read_path_ledger.txt`.
//!
//! One seeded store per wire format is built once and snapshotted
//! pristine and after 60 inserts + 6 deletes; every cell of
//!
//! ```text
//! {Naive, NoDoorbell, Full} x {off, sq8} x cache {0, 0.1, 1.0}
//!   x {pristine, mutated} x {no faults, drops}
//! ```
//!
//! restores the snapshot under its own configuration, connects a fresh
//! node and records a cold and a repeat batch: a hash of the returned
//! ids, bytes, round trips, work requests, doorbell batches, the eight
//! per-cause byte counts, read retries, degraded queries, cache hits,
//! clusters loaded and unique clusters.
//!
//! The clock is the price of its counters by definition; what is asserted
//! of it on every batch, fault rows included, is what the counters cannot
//! say of themselves: the backoff they count is exactly the sum the
//! batch's `read_retry` instants name, and the batch's `network_us` is the
//! price of everything it moved.
//!
//! What does not depend on the mode is asserted, not just recorded:
//! without faults every cell of a store state returns the same ids
//! (whatever the mode, wire or cache size, cold or repeat), and
//! on every batch the per-cause bytes tile `bytes_read`. The doorbell is
//! a price, not a path: a `no_doorbell` node is a `full` node on a queue
//! pair priced at doorbell limit 1, so each of its rows equals the `full`
//! row of the same cell and batch in every field but `trips`, fault rows
//! included.
//!
//! The drop schedule of the fault cells: no substrate retransmissions
//! (a dropped attempt reaches the engine), one engine retry, degraded
//! results allowed; a seeded 1 % drop rate, plus the first verb of the
//! cold batch dropped once and the second and third verb attempts of the
//! repeat batch dropped. Between them these hit a stage load's first
//! post, the SQ8 overflow follow-up, the rerank fetch, a naive cluster
//! read, and exhaustion of each.
//!
//! Regenerate after an intentional change with:
//! `BLESS=1 cargo test -p dhnsw --test read_path_ledger`

use std::fmt::Write as _;
use std::sync::Arc;

use dhnsw::snapshot::{read_snapshot, write_snapshot};
use dhnsw::{
    ArgValue, BatchReport, ComputeNode, DHnswConfig, QuantizeMode, SearchMode, Telemetry,
    VectorStore,
};
use rdma_sim::ps_to_us;
use vecsim::{gen, Dataset, Neighbor};

const K: usize = 10;
const EF: usize = 48;
const QUERIES: usize = 16;

const MODES: [SearchMode; 3] = [SearchMode::Naive, SearchMode::NoDoorbell, SearchMode::Full];
const WIRES: [QuantizeMode; 2] = [QuantizeMode::Off, QuantizeMode::Sq8];
const CACHES: [f64; 3] = [0.0, 0.1, 1.0];
const STATES: [&str; 2] = ["pristine", "mutated"];

/// 64-bit FNV-1a over the returned ids, query boundaries included.
fn hash_ids(results: &[Vec<Neighbor>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        for n in r {
            eat(n.id);
        }
        eat(u32::MAX);
    }
    h
}

/// The pristine and the mutated snapshot of one wire format's store.
fn snapshots(data: &Dataset, queries: &Dataset, wire: QuantizeMode) -> [Vec<u8>; 2] {
    let config = DHnswConfig::small().with_quantize_mode(wire);
    let store = VectorStore::build(data.clone(), &config).unwrap();
    let mut pristine = Vec::new();
    write_snapshot(&store, &mut pristine).unwrap();

    // 44 inserts spread over the dataset, 16 right beside the queries
    // (so inserted vectors reach the answers); then delete four base
    // vectors the queries sit on and two of the inserts.
    let writer = store.connect(SearchMode::Full).unwrap();
    let spread = gen::perturbed_queries(data, 44, 0.02, 0x1ED6E7).unwrap();
    let beside = gen::perturbed_queries(queries, 16, 0.005, 0x1ED6E8).unwrap();
    let mut inserted = Vec::new();
    for v in spread.iter().chain(beside.iter()) {
        inserted.push((writer.insert(v).unwrap(), v.to_vec()));
    }
    let (answers, _) = writer.query_batch(queries, 1, EF).unwrap();
    let mut base_victims: Vec<u32> = answers
        .iter()
        .map(|r| r[0].id)
        .filter(|&id| (id as usize) < data.len())
        .collect();
    base_victims.dedup();
    assert!(base_victims.len() >= 4, "queries must sit on base vectors");
    for &id in &base_victims[..4] {
        writer.delete(data.get(id as usize), id).unwrap();
    }
    for (id, v) in &inserted[44..46] {
        writer.delete(v, *id).unwrap();
    }
    let mut mutated = Vec::new();
    write_snapshot(&store, &mut mutated).unwrap();
    [pristine, mutated]
}

fn connect(snapshot: &[u8], config: &DHnswConfig, mode: SearchMode) -> (VectorStore, ComputeNode) {
    let store = read_snapshot(snapshot, config).unwrap();
    let node = store
        .connect_with_telemetry(mode, Arc::new(Telemetry::new()))
        .unwrap();
    node.telemetry().spans().set_enabled(true);
    (store, node)
}

/// The backoff `node`'s last batch names, in picoseconds: the sum of its
/// `read_retry` instants' `backoff_us`.
fn traced_backoff_ps(node: &ComputeNode) -> u64 {
    let trace = node
        .telemetry()
        .spans()
        .recent()
        .pop()
        .expect("a traced batch");
    (trace.spans.iter().filter(|s| s.name == "read_retry"))
        .flat_map(|s| s.args.iter().filter(|(k, _)| *k == "backoff_us"))
        .map(|(_, v)| match v {
            ArgValue::F64(us) => (us * 1e6).round() as u64,
            other => panic!("backoff_us = {other:?}"),
        })
        .sum()
}

/// Runs one batch and appends its ledger row; returns the id hash.
fn record(node: &ComputeNode, queries: &Dataset, cell: &str, batch: &str, out: &mut String) -> u64 {
    let qp = node.queue_pair();
    let stats0 = qp.stats().snapshot();
    let (results, report): (_, BatchReport) = node.query_batch(queries, K, EF).unwrap();
    let delta = qp.stats().snapshot() - stats0;
    assert_eq!(
        delta.backoff_ps,
        traced_backoff_ps(node),
        "{cell} {batch}: the counted backoff is not the traced retries'"
    );
    assert_eq!(
        report.breakdown.network_us,
        ps_to_us(qp.model().price(&delta)),
        "{cell} {batch}: network_us is not the price of what the batch moved"
    );
    assert_eq!(results.len(), queries.len(), "{cell} {batch}");
    assert_eq!(
        report.ledger.total_bytes(),
        report.bytes_read,
        "{cell} {batch}: causes must tile bytes_read"
    );
    assert_eq!(
        report.ledger.cause_bytes, delta.cause_bytes,
        "{cell} {batch}"
    );
    assert_eq!(report.bytes_read, delta.bytes_read, "{cell} {batch}");
    assert_eq!(report.round_trips, delta.round_trips, "{cell} {batch}");
    let ids = hash_ids(&results);
    let causes: Vec<String> = delta.cause_bytes.iter().map(u64::to_string).collect();
    writeln!(
        out,
        "{cell} batch={batch} ids={ids:016x} bytes={} trips={} wrs={} doorbells={} causes={} \
         retries={} degraded={} hits={} loaded={} unique={}",
        report.bytes_read,
        report.round_trips,
        delta.work_requests,
        delta.doorbell_batches,
        causes.join(","),
        report.read_retries,
        report.degraded_queries,
        report.cache_hits,
        report.clusters_loaded,
        report.unique_clusters,
    )
    .unwrap();
    ids
}

#[test]
fn read_path_ledger_matches_the_golden() {
    let data = gen::sift_like(1_500, 0x1ED6E5).unwrap();
    let queries = gen::perturbed_queries(&data, QUERIES, 0.02, 0x1ED6E6).unwrap();
    let mut out = String::new();
    // The ids every fault-free cell of a store state must return.
    let mut expected_ids: [Option<u64>; 2] = [None, None];

    for wire in WIRES {
        let snaps = snapshots(&data, &queries, wire);
        for (state, snapshot) in STATES.iter().zip(&snaps) {
            let state_idx = usize::from(*state == "mutated");
            for mode in MODES {
                for cache in CACHES {
                    for faults in [false, true] {
                        let mut config = DHnswConfig::small()
                            .with_quantize_mode(wire)
                            .with_cache_fraction(cache);
                        if faults {
                            config = config.with_degraded_ok(true).with_read_retry_limit(1);
                        }
                        let (_store, node) = connect(snapshot, &config, mode);
                        assert_eq!(
                            node.is_quantized(),
                            wire == QuantizeMode::Sq8 && mode != SearchMode::Naive
                        );
                        let cell = format!(
                            "mode={} wire={} cache={cache} state={state} faults={}",
                            mode.label(),
                            wire.as_str(),
                            if faults { "drops" } else { "none" },
                        );
                        let qp = node.queue_pair();
                        if faults {
                            qp.set_retry_limit(0);
                            qp.set_fault_rate(0.01, 0xFA17);
                            qp.fail_nth(0, 1);
                        }
                        let cold = record(&node, &queries, &cell, "cold", &mut out);
                        if faults {
                            qp.fail_nth(1, 2);
                        }
                        let repeat = record(&node, &queries, &cell, "repeat", &mut out);
                        if !faults {
                            let want = *expected_ids[state_idx].get_or_insert(cold);
                            assert_eq!(cold, want, "{cell}: cold ids differ from the other cells");
                            assert_eq!(repeat, want, "{cell}: repeat ids differ from cold");
                        }
                    }
                }
            }
        }
    }
    assert_ne!(
        expected_ids[0], expected_ids[1],
        "the mutation must change what the queries find"
    );
    let rows_but_trips = |mode: SearchMode| -> Vec<String> {
        let prefix = format!("mode={} ", mode.label());
        (out.lines().filter_map(|row| row.strip_prefix(&prefix)))
            .map(|row| {
                let fields = row.split(' ').filter(|f| !f.starts_with("trips="));
                fields.collect::<Vec<_>>().join(" ")
            })
            .collect()
    };
    let no_doorbell = rows_but_trips(SearchMode::NoDoorbell);
    let full = rows_but_trips(SearchMode::Full);
    assert_eq!((no_doorbell.len(), full.len()), (48, 48));
    for (nodb, full) in no_doorbell.iter().zip(&full) {
        assert_eq!(nodb, full, "no_doorbell differs from full beyond trips");
    }

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/read_path_ledger.txt"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &out).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden file missing; regenerate with BLESS=1");
    if out != golden {
        let moved: Vec<String> = out
            .lines()
            .zip(golden.lines())
            .filter(|(got, want)| got != want)
            .take(12)
            .map(|(got, want)| format!("  got:  {got}\n  want: {want}"))
            .collect();
        panic!(
            "read-path ledger drifted from tests/golden/read_path_ledger.txt \
             ({} vs {} rows); first moved rows:\n{}",
            out.lines().count(),
            golden.lines().count(),
            moved.join("\n")
        );
    }
}
