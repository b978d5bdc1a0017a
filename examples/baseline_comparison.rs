//! Side-by-side comparison of the paper's three schemes on one workload —
//! a miniature of Table 1, printed live.
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use dhnsw_repro::dhnsw::{BatchReport, DHnswConfig, Phase, SearchMode, VectorStore};
use dhnsw_repro::vecsim::{gen, ground_truth, recall, Metric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = gen::sift_like(20_000, 51)?;
    let queries = gen::perturbed_queries(&data, 500, 0.03, 52)?;
    let truth = ground_truth::exact_batch(&data, &queries, 1, Metric::L2);

    let config = DHnswConfig::paper().with_representatives(200);
    let store = VectorStore::build(data, &config)?;
    println!(
        "SIFT-like 20k, top-1, efSearch 48, batch {} | {} partitions, cache {} clusters\n",
        queries.len(),
        store.partitions(),
        config.cache_capacity(store.partitions())
    );
    // The paper's three columns; sub-HNSW includes cluster decode.
    let [net, sub, meta] = Phase::PAPER.map(|p| format!("{} us", p.column()));
    println!(
        "{:<24} {net:>12} {sub:>12} {meta:>12} {:>10} {:>12} {:>8}",
        "scheme", "trips/q", "MB read", "recall"
    );

    let mut rows: Vec<(SearchMode, BatchReport, f64)> = Vec::new();
    for mode in [SearchMode::Naive, SearchMode::NoDoorbell, SearchMode::Full] {
        let node = store.connect(mode)?;
        // One warmup batch (steady-state caches, as the paper measures),
        // then the measured batch.
        node.query_batch(&queries, 1, 48)?;
        let (results, report) = node.query_batch(&queries, 1, 48)?;
        let ids: Vec<Vec<u32>> = results
            .iter()
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect();
        let rec = recall::mean_recall(&ids, &truth);
        let [net, sub, meta] = report.breakdown.paper_columns();
        println!(
            "{:<24} {net:>12.1} {sub:>12.1} {meta:>12.1} {:>10.4} {:>12.2} {:>8.3}",
            mode.name(),
            report.round_trips_per_query(),
            report.bytes_read as f64 / 1e6,
            rec
        );
        rows.push((mode, report, rec));
    }

    // Context row: the monolithic (non-disaggregated) deployment the
    // paper's introduction argues against — the whole index lives in this
    // machine's DRAM, so there is no network at all, but the dataset must
    // fit locally and CPU/memory cannot scale independently.
    {
        use dhnsw_repro::hnsw::{HnswIndex, HnswParams};
        use std::time::Instant;
        let data = gen::sift_like(20_000, 51)?;
        let index = HnswIndex::build(data, &HnswParams::new(16, 100).seed(1))?;
        let t = Instant::now();
        let mut ids = Vec::with_capacity(queries.len());
        for q in queries.iter() {
            ids.push(
                index
                    .search(q, 1, 48)
                    .iter()
                    .map(|n| n.id)
                    .collect::<Vec<u32>>(),
            );
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        let rec = recall::mean_recall(&ids, &truth);
        println!(
            "{:<24} {:>12} {:>12.1} {:>12} {:>10} {:>12} {:>8.3}",
            "monolithic HNSW (local)", "-", us, "-", "0.0000", "0.00", rec
        );
    }

    let naive_net = rows[0].1.breakdown.network_us;
    let nodb_net = rows[1].1.breakdown.network_us;
    let full_net = rows[2].1.breakdown.network_us.max(1e-9);
    println!(
        "\nd-HNSW network speedup: {:.0}x vs naive, {:.2}x vs w/o doorbell \
         (paper: up to 117x and 1.12x on SIFT1M)",
        naive_net / full_net,
        nodb_net / full_net
    );
    Ok(())
}
