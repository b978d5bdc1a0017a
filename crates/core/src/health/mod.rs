//! Memory-pool health introspection.
//!
//! PRs 1–2 made the *query path* observable; this module makes the
//! *state* of the system observable — which partitions are routed to,
//! how full each group's overflow area is (§3.2's layout is exactly
//! where d-HNSW degrades silently as inserts accumulate), and how skewed
//! the meta-HNSW routing is (§3.1's partitioning under non-uniform query
//! load). Four pieces:
//!
//! - [`heatmap`] — per-cluster access counters (route hits, loads,
//!   cache hits, evictions, bytes read), always sampled on the query
//!   path with relaxed atomics only and **zero allocation**: a handful
//!   of counter increments per batch.
//! - [`report`] — the machine-readable [`HealthReport`]: per-group
//!   overflow occupancy / slack / fragmentation from the layout
//!   directory plus live `used` counters (one doorbell batch of 8-byte
//!   reads), the heatmap snapshot and routing-skew statistics, rendered
//!   as deterministic JSON. State only: counts live in `/metrics`,
//!   rates in a [`crate::SeriesPoint`], the slowest batches in
//!   `/exemplars`.
//! - [`skew`] — Gini coefficient and top-k share over any counter
//!   vector (partition bytes, route frequencies, meta-graph degrees).
//! - [`watchdog`] — threshold budgets ([`SloBudgets`], set by
//!   `dhnsw_cli`'s `--slo-*` flags), each with one judge: the state
//!   budgets (occupancy, route Gini) against a report ([`evaluate`]),
//!   p99 latency, hit rate and degraded rate against a window, a
//!   [`crate::SeriesPoint`] ([`evaluate_point`]); violations land in the
//!   span-trace ring as structured warning events and drive `dhnsw_cli
//!   doctor --check`'s non-zero exit.
//!
//! The subsystem is read-only: producing a report costs one doorbell
//! batch of overflow-counter reads and mutates neither the store nor
//! the node, so it is safe to run against a live deployment, and two
//! reports with no batch between are byte-identical. It cuts no window
//! of its own: windows are series points
//! ([`crate::SeriesPoint::between`]).

pub mod heatmap;
mod probe;
pub mod report;
pub mod skew;
pub mod watchdog;

pub use heatmap::{ClusterHeatmap, PartitionHeat};
pub use report::{GroupHealth, HealthReport, LayoutSummary};
pub use skew::{skew_of, SkewStats};
pub use watchdog::{evaluate, evaluate_point, SloBudgets, SloViolation};
