//! d-HNSW: efficient vector search on disaggregated memory.
//!
//! This crate implements the system described in *"Efficient Vector Search
//! on Disaggregated Memory with d-HNSW"* (HotStorage 2025): an HNSW-based
//! vector search engine whose index and vectors live in a remote memory
//! pool, accessed exclusively through one-sided RDMA verbs (here, the
//! deterministic [`rdma_sim`] substrate).
//!
//! # The three techniques
//!
//! 1. **Representative index caching** ([`meta`]) — a three-layer
//!    *meta-HNSW* over ~500 uniformly sampled vectors is cached on every
//!    compute node. Its bottom-layer nodes define the partitions; each
//!    partition's vectors form a *sub-HNSW* stored remotely.
//! 2. **RDMA-friendly layout** ([`layout`], [`cluster`]) — clusters are
//!    serialized into *groups* of two with a shared overflow area between
//!    them, so any cluster plus its inserted vectors is one contiguous
//!    `RDMA_READ`; discontiguous clusters are fetched with doorbell
//!    batching.
//! 3. **Query-aware batched loading** ([`loader`], [`engine`]) — a batch
//!    of queries is analyzed online so every needed cluster crosses the
//!    network at most once per batch, with an LRU cluster cache
//!    ([`cache`]) carrying reuse across batches.
//!
//! # Quick start
//!
//! ```rust
//! use dhnsw::{DHnswConfig, SearchMode, VectorStore};
//! use vecsim::gen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 2k SIFT-like vectors, small config so the doc test is quick.
//! let data = gen::sift_like(2_000, 1)?;
//! let queries = gen::perturbed_queries(&data, 32, 0.02, 2)?;
//!
//! let config = DHnswConfig::small();
//! let store = VectorStore::build(data, &config)?;
//! let compute = store.connect(SearchMode::Full)?;
//!
//! let (results, report) = compute.query_batch(&queries, 10, 32)?;
//! assert_eq!(results.len(), 32);
//! assert!(report.round_trips > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod cache;
pub mod cluster;
mod config;
pub mod engine;
mod error;
pub mod health;
pub mod layout;
pub mod loader;
pub mod meta;
pub mod snapshot;
mod store;
pub mod telemetry;

pub use breakdown::{BatchReport, CostLedger, LatencyBreakdown, Phase};
pub use cache::CacheStats;
pub use config::{DHnswConfig, QuantizeMode};
pub use engine::{ComputeNode, QueryOptions, SearchMode};
pub use error::Error;
pub use health::{
    evaluate as evaluate_slo, evaluate_point as evaluate_slo_point, skew_of, ClusterHeatmap,
    HealthReport, PartitionHeat, SkewStats, SloBudgets, SloViolation,
};
pub use meta::MetaIndex;
pub use rdma_sim::{ReadCause, READ_CAUSES};
pub use store::VectorStore;
pub use telemetry::chrome::chrome_trace_json;
pub use telemetry::exemplar::{diagnose, Diagnosis, ExemplarStore, VERDICTS};
pub use telemetry::profile::PathStats;
pub use telemetry::series::{
    AnomalyRecord, Sample, SeriesPoint, SeriesRecorder, TrackedSeries, TRACKED, TRACKED_SERIES,
};
pub use telemetry::span::{
    ArgValue, BatchTrace, FinishedTrace, SpanId, SpanKind, SpanRecord, SpanTracer,
};
pub use telemetry::{HistogramSnapshot, Telemetry};

/// Convenient result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;
