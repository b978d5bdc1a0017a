//! Quickstart: build a d-HNSW store over a SIFT-like dataset, run a batch
//! of top-10 queries, and print what moved over the (simulated) fabric.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dhnsw_repro::dhnsw::{DHnswConfig, SearchMode, VectorStore};
use dhnsw_repro::vecsim::{gen, ground_truth, recall, Metric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic stand-in for SIFT1M: 20k 128-d clustered vectors.
    let n = 20_000;
    let data = gen::sift_like(n, 42)?;
    let queries = gen::perturbed_queries(&data, 256, 0.03, 43)?;
    println!(
        "dataset: {} vectors x {}d (SIFT-like)",
        data.len(),
        data.dim()
    );

    // 2. Exact ground truth for recall scoring.
    let truth = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);

    // 3. Build the store: meta-HNSW + partitioned sub-HNSWs laid out in
    //    remote registered memory.
    let config = DHnswConfig::paper().with_representatives(200);
    let store = VectorStore::build(data, &config)?;
    println!(
        "store: {} partitions, {:.1} MB remote, meta-HNSW {:.3} MB cached locally",
        store.partitions(),
        store.remote_bytes() as f64 / 1e6,
        store.meta().footprint_bytes() as f64 / 1e6,
    );

    // 4. Connect a compute instance and answer the batch.
    let node = store.connect(SearchMode::Full)?;
    let (results, report) = node.query_batch(&queries, 10, 48)?;

    let ids: Vec<Vec<u32>> = results
        .iter()
        .map(|r| r.iter().map(|x| x.id).collect())
        .collect();
    println!(
        "batch of {}: recall@10 = {:.3}",
        report.queries,
        recall::mean_recall(&ids, &truth)
    );
    println!(
        "network: {} round trips ({:.4} per query), {:.2} MB read, {:.1} us virtual time",
        report.round_trips,
        report.round_trips_per_query(),
        report.bytes_read as f64 / 1e6,
        report.breakdown.network_us
    );
    println!(
        "clusters: demand {} -> unique {} -> loaded {} (cache hits {})",
        report.raw_cluster_demand,
        report.unique_clusters,
        report.clusters_loaded,
        report.cache_hits
    );
    println!(
        "latency/query: {:.2} us (network {:.2}, sub-HNSW {:.2}, meta {:.2})",
        report.per_query_latency_us(),
        report.breakdown.network_us / report.queries as f64,
        report.breakdown.sub_hnsw_us / report.queries as f64,
        report.breakdown.meta_hnsw_us / report.queries as f64,
    );

    // 5. A second, warm batch: the LRU cluster cache absorbs repeats.
    let (_, warm) = node.query_batch(&queries, 10, 48)?;
    println!(
        "warm batch: {} loads, {} cache hits, {:.1} us network",
        warm.clusters_loaded, warm.cache_hits, warm.breakdown.network_us
    );
    Ok(())
}
