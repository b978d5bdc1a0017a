//! A deterministic, in-process simulation of an RDMA disaggregated-memory
//! fabric.
//!
//! The d-HNSW paper runs on Mellanox ConnectX-6 100 Gb NICs. This crate is
//! the substitution that removes the hardware gate while preserving what
//! the paper's evaluation actually measures: **round trips**, **bytes
//! moved**, **work-request counts**, and **doorbell consolidation**. Every
//! one-sided verb is executed against real in-process buffers (reads
//! return real data, writes mutate it, CAS is atomic under a lock) while
//! the issuing queue pair counts what moved, and its [`VirtualClock`] is
//! the [`NetworkModel`]'s price of those counts.
//!
//! # Architecture
//!
//! - [`MemoryNode`] — the passive memory-pool side: registered memory
//!   regions addressed by `rkey` + byte offset. No compute ever happens
//!   here, matching the paper's "extremely weak computational power"
//!   memory instances.
//! - [`QueuePair`] — the compute-side handle. One-sided
//!   [`QueuePair::read`], [`QueuePair::write`], [`QueuePair::cas`],
//!   [`QueuePair::faa`], plus [`QueuePair::read_doorbell`] and
//!   [`QueuePair::doorbell`] — reads, or writes and atomics mixed — which
//!   execute many work requests in `ceil(n / doorbell_limit)` network
//!   round trips: the §3.2 doorbell batching with its NIC-scalability cap.
//!   Like a reliable-connection queue pair, each post executes in request
//!   order, so an atomic rides behind the writes it publishes.
//!   [`QueuePair::read_doorbell_into`] is the same reads landing in
//!   caller-owned buffers through a [`Scatter`] list per request, the way
//!   a NIC DMAs into a registered buffer. A read with a [`ReadCause`] of
//!   its own is a one-request doorbell, which costs what a plain read
//!   costs. All seven verbs are wrappers over one executor, where bytes
//!   move and counters are written. The crate keeps no trace: a caller
//!   that traces its posts lays their spans out from the clock, the fault
//!   count and the model's chunk schedule.
//! - Fault injection — [`QueuePair::fail_next`] /
//!   [`QueuePair::set_fault_rate`] drop attempts which the queue pair
//!   retransmits like a reliable-connection NIC, charging timeout time
//!   ([`QueuePair::set_retry_limit`] bounds the budget);
//!   [`QueuePair::cut_nth`] cuts one post after a prefix of its requests.
//! - [`NetworkModel`] — the cost model, in whole picoseconds: base round
//!   trip, per-work-request NIC/PCIe overhead and time per payload byte.
//!   [`NetworkModel::schedule`] is the one chunking rule: what a post of
//!   `n` requests costs, chunk by chunk; [`NetworkModel::price`] is what
//!   a set of counters costs.
//! - [`TransferStats`] / [`VirtualClock`] — per queue pair, the
//!   measurement plane the benchmark harness reads: the counters, the
//!   only ones the crate keeps (a caller's backoff among them), and a
//!   read-only view of their price in picoseconds.
//!
//! # Example
//!
//! ```rust
//! use rdma_sim::{MemoryNode, NetworkModel, QueuePair, ReadReq};
//!
//! # fn main() -> Result<(), rdma_sim::Error> {
//! let node = MemoryNode::new("mem0");
//! let region = node.register(1024)?;
//!
//! let qp = QueuePair::connect(&node, NetworkModel::connectx6());
//! qp.write(region.rkey(), 0, b"hello remote memory")?;
//! let back = qp.read(region.rkey(), 0, 5)?;
//! assert_eq!(&back, b"hello");
//!
//! // Two discontiguous reads in one doorbell: one round trip.
//! let before = qp.stats().round_trips();
//! qp.read_doorbell(&[ReadReq::new(region.rkey(), 0, 5), ReadReq::new(region.rkey(), 6, 6)])?;
//! assert_eq!(qp.stats().round_trips() - before, 1);
//! assert!(qp.clock().now_ps() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod error;
mod fault;
mod model;
mod node;
mod qp;
mod stats;

pub use clock::{ps_to_us, VirtualClock};
pub use error::Error;
pub use fault::DEFAULT_RETRY_LIMIT;
pub use model::NetworkModel;
pub use node::{MemoryNode, RegionHandle};
pub use qp::{QueuePair, ReadReq, Scatter, Segment, WriteReq};
pub use stats::{ReadCause, StatsSnapshot, TransferStats, DOORBELL_SIZE_BUCKETS, READ_CAUSES};

/// Convenient result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;
