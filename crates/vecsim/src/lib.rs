//! Vector-search primitives for the d-HNSW reproduction.
//!
//! This crate contains everything that is about *vectors* rather than about
//! indexes or networks:
//!
//! - [`distance`]: L2, inner-product and cosine distance kernels plus the
//!   [`Metric`] selector used across the workspace.
//! - [`cast`]: checked in-place views of little-endian byte buffers as
//!   `&[u32]` / `&[f32]`, and the aligned owner they read from — allowed
//!   `unsafe` for the checked reinterpretation and nothing else.
//! - [`simd`]: the kernels compiled once more at AVX2 width — allowed
//!   `unsafe` for calling such a twin under its own detection, likewise.
//! - [`dataset`]: the flat, cache-friendly [`Dataset`] container.
//! - [`gen`]: deterministic synthetic dataset generators, including the
//!   SIFT-like (128-d) and GIST-like (960-d) workloads that stand in for the
//!   paper's SIFT1M / GIST1M (see `DESIGN.md` §2 for the substitution
//!   rationale).
//! - [`ground_truth`]: exact brute-force top-k used to score recall.
//! - [`quantize`]: SQ8 scalar quantization (train/encode/decode) and the
//!   asymmetric L2 distance used to search over codes.
//! - [`recall`]: recall@k computation.
//! - [`io`]: reader and writer for the standard `fvecs` format so the
//!   real SIFT1M/GIST1M files can be dropped in when available.
//! - [`topk`]: a bounded collector of nearest neighbours, and the distance
//!   bound threads lower together.
//!
//! # Example
//!
//! ```rust
//! use vecsim::{gen, ground_truth, recall, Metric};
//!
//! # fn main() -> Result<(), vecsim::Error> {
//! // A small SIFT-like dataset and some held-out queries.
//! let data = gen::sift_like(1_000, 7)?;
//! let queries = gen::perturbed_queries(&data, 10, 0.05, 13)?;
//!
//! // Exact top-10 ground truth.
//! let truth = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);
//!
//! // Recall of the ground truth against itself is exactly 1.0.
//! let ids: Vec<Vec<u32>> = truth
//!     .iter()
//!     .map(|n| n.iter().map(|x| x.id).collect())
//!     .collect();
//! let r = recall::mean_recall(&ids, &truth);
//! assert!((r - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: `cast` and `simd` alone opt back in, and say why.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod dataset;
pub mod distance;
mod error;
pub mod gen;
pub mod ground_truth;
pub mod io;
pub mod quantize;
pub mod recall;
pub mod simd;
pub mod topk;

pub use dataset::Dataset;
pub use distance::{cosine_distance, dot, l2_sq, Metric, QueryBlock};
pub use error::Error;
pub use topk::{Neighbor, SharedBound, TopK};

/// Convenient result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;
