//! A retrieval-augmented-generation (RAG) shaped workload — the use case
//! the paper's introduction motivates: a document corpus embedded into
//! vectors, stored on disaggregated memory, queried by prompt embeddings.
//!
//! Documents are grouped into topics (a Gaussian mixture per topic);
//! prompts are embeddings near a topic centroid. The pipeline retrieves
//! top-k documents per prompt and checks that retrieved documents come
//! from the prompt's topic.
//!
//! ```text
//! cargo run --release --example rag_pipeline
//! ```

use dhnsw_repro::dhnsw::{DHnswConfig, SearchMode, VectorStore};
use dhnsw_repro::vecsim::gen::GaussianMixture;
use dhnsw_repro::vecsim::Dataset;

const DIM: usize = 256; // embedding dimensionality
const TOPICS: usize = 24;
const DOCS: usize = 12_000;
const PROMPTS: usize = 64;
const TOP_K: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "Embed" a corpus: each document vector belongs to one topic.
    let (docs, topic_of) = GaussianMixture::new(DIM, TOPICS)
        .center_range(-1.0, 1.0)
        .cluster_std(0.12)
        .skew(0.5) // popular topics have more documents
        .generate(DOCS, 7)?;
    println!("corpus: {DOCS} documents x {DIM}d embeddings, {TOPICS} topics");

    // Index the corpus on the memory pool.
    let config = DHnswConfig::paper()
        .with_representatives(128)
        .with_fanout(4);
    let store = VectorStore::build(docs.clone(), &config)?;
    let node = store.connect(SearchMode::Full)?;
    println!(
        "indexed: {} partitions, {:.1} MB remote",
        store.partitions(),
        store.remote_bytes() as f64 / 1e6
    );

    // "Prompts": embeddings near existing documents (a user asking about
    // a known topic).
    let prompts = dhnsw_repro::vecsim::gen::perturbed_queries(&docs, PROMPTS, 0.03, 8)?;

    // Expected topic of each prompt = topic of its nearest document.
    let expected: Vec<u32> = (0..prompts.len())
        .map(|i| {
            let nn = dhnsw_repro::vecsim::ground_truth::exact(
                &docs,
                prompts.get(i),
                1,
                dhnsw_repro::vecsim::Metric::L2,
            );
            topic_of[nn[0].id as usize]
        })
        .collect();

    // Retrieve.
    let (retrieved, report) = node.query_batch(&prompts, TOP_K, 48)?;

    // Score: fraction of retrieved documents from the prompt's topic.
    let mut on_topic = 0usize;
    let mut total = 0usize;
    for (i, hits) in retrieved.iter().enumerate() {
        for h in hits {
            total += 1;
            if topic_of[h.id as usize] == expected[i] {
                on_topic += 1;
            }
        }
    }
    println!(
        "retrieval: {PROMPTS} prompts x top-{TOP_K}: {:.1}% of retrieved docs on-topic",
        100.0 * on_topic as f64 / total as f64
    );
    println!(
        "network: {} round trips, {:.2} MB, {:.1} us virtual; clusters loaded {} / demand {}",
        report.round_trips,
        report.bytes_read as f64 / 1e6,
        report.breakdown.network_us,
        report.clusters_loaded,
        report.raw_cluster_demand,
    );

    // Show one retrieval as a RAG context assembly.
    let sample = 0usize;
    let context: Vec<String> = retrieved[sample]
        .iter()
        .map(|h| {
            format!(
                "doc#{} (topic {}, dist {:.3})",
                h.id, topic_of[h.id as usize], h.dist
            )
        })
        .collect();
    println!(
        "prompt #0 (topic {}): context = [{}]",
        expected[sample],
        context.join(", ")
    );

    // Incremental corpus growth: a freshly published document becomes
    // retrievable immediately via the overflow insert path.
    let new_doc: Vec<f32> = prompts.get(0).to_vec();
    let gid = node.insert(&new_doc)?;
    let again = node.query_batch(&Dataset::from_rows(&[prompts.get(0)])?, TOP_K, 48)?;
    let found = again.0[0].iter().any(|h| h.id == gid);
    println!("inserted doc#{gid}; retrieved on re-query: {found}");
    Ok(())
}
