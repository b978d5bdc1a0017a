//! A from-scratch implementation of Hierarchical Navigable Small World
//! (HNSW) graphs (Malkov & Yashunin, TPAMI 2018), built for the d-HNSW
//! reproduction.
//!
//! Besides the standard algorithm this crate provides the two things d-HNSW
//! specifically needs:
//!
//! - **Capped-level ("pyramid") builds** — the paper's *meta-HNSW* is a
//!   three-layer representative index; [`HnswParams::max_level`] caps the
//!   level sampler so the hierarchy never exceeds a fixed height.
//! - **Flat serialization** — [`serialize`] encodes an index (graph +
//!   vectors) into one contiguous little-endian byte blob that can be
//!   placed verbatim in registered remote memory and fetched with a single
//!   `RDMA_READ`.
//!
//! # Example
//!
//! ```rust
//! use hnsw::{HnswIndex, HnswParams};
//! use vecsim::{gen, Metric};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = gen::sift_like(500, 42)?;
//! let queries = gen::perturbed_queries(&data, 5, 0.02, 43)?;
//!
//! let params = HnswParams::new(16, 100).metric(Metric::L2).seed(1);
//! let index = HnswIndex::build(data, &params)?;
//!
//! let hits = index.search(queries.get(0), 10, 64);
//! assert_eq!(hits.len(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
pub mod diagnostics;
mod error;
mod graph;
mod index;
mod params;
mod search;
pub mod serialize;

pub use error::Error;
pub use index::{HnswIndex, SearchStats};
pub use params::HnswParams;
pub use search::{IndexView, SearchScratch};

/// Convenient result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;
