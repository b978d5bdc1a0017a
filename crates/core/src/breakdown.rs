//! Latency breakdown and per-batch reports — the measurement plane behind
//! the paper's Tables 1 and 2 and the Fig. 6 latency axes.
//!
//! [`BatchReport`] is *the* record of a finished batch. The engine
//! assigns each field once and returns it to the caller, and every
//! telemetry view is derived from that one value rather than keeping its
//! own copy: the engine's counters, the root span's arguments
//! ([`BatchReport::span_args`]), the latency histogram's sample
//! ([`BatchReport::latency_sample_us`]), the exemplar store's ranking and
//! why-slow baseline, `crates/bench`'s per-batch percentiles.
//!
//! Counts, bytes, trips and the ledger are exact: one `StatsSnapshot`
//! bracket around the batch's reads. `breakdown.network_us` is
//! virtual-clock time; the other three phases, and with them
//! `total_us`, are host wall clock, each the sum of the walls its spans
//! measured (see [`Phase`]).
//!
//! [`BatchReport::merge`] aggregates a run of batches. Counts, bytes,
//! trips, the ledger, the breakdown, `total_us` and `doorbell_batches`
//! add; coverage concatenates; `trace_id`, `mode`,
//! `k`, `ef` and `fanout` describe one batch and keep the receiver's, so
//! an aggregate started from `Default` has none.

use rdma_sim::{ReadCause, StatsSnapshot, READ_CAUSES};

use crate::telemetry::span::ArgValue;

/// Latency of one batch split into its phases.
///
/// *Network* time is virtual (from the RDMA cost model); the compute
/// components are measured wall-clock on the host. Tables 1 and 2 of the
/// paper report three columns — network, sub-HNSW, meta-HNSW — and this
/// struct additionally separates cluster materialization (decoding raw
/// bytes into searchable clusters) out of the search column the paper
/// folds it into.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Data transfer over the (simulated) network, µs: the virtual time
    /// of the batch's load rounds plus its rerank's.
    pub network_us: f64,
    /// Sub-HNSW search over materialized cluster data, µs.
    pub sub_hnsw_us: f64,
    /// Meta-HNSW (cached representative index) routing, µs.
    pub meta_hnsw_us: f64,
    /// Decoding raw cluster bytes into searchable sub-HNSW graphs, µs.
    pub materialize_us: f64,
}

impl LatencyBreakdown {
    /// Total latency across the four components.
    pub fn total_us(&self) -> f64 {
        self.network_us + self.sub_hnsw_us + self.meta_hnsw_us + self.materialize_us
    }

    /// The paper's three columns, [`Phase::PAPER`]'s order: each the sum
    /// of the phases that fold into it (sub-HNSW takes materialize).
    pub fn paper_columns(&self) -> [f64; 3] {
        Phase::PAPER.map(|head| {
            let folded = Phase::ALL.iter().filter(|p| p.column() == head.column());
            folded.map(|p| p.of(self)).sum()
        })
    }
}

/// A phase of a batch's latency. Every view of the phases iterates
/// [`Phase::ALL`] and spells each from one table. The three host phases
/// are the walls their spans measured; `network` is virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Meta-HNSW routing.
    Meta,
    /// Virtual network time.
    Network,
    /// Sub-HNSW search plus the exact rerank's passes.
    Sub,
    /// Cluster decode.
    Materialize,
}

/// The table, [`Phase::ALL`]'s order: the span (and folded path under
/// `query_batch`), the `dhnsw_stage_us_total` stage label, the root-span
/// argument, the why-slow key, the paper column the phase folds into.
#[rustfmt::skip]
const SPELLINGS: [[&str; 5]; 4] = [
    ["meta_route", "meta_hnsw", "meta_us", "meta_route", "Meta-HNSW"],
    ["network", "network", "network_vt_us", "network", "Network"],
    ["sub_hnsw_search", "sub_hnsw", "sub_us", "sub_hnsw", "Sub-HNSW"],
    ["materialize", "materialize", "materialize_us", "materialize", "Sub-HNSW"],
];

impl Phase {
    /// Every phase, in the order every view lists them.
    pub const ALL: [Phase; 4] = [Phase::Meta, Phase::Network, Phase::Sub, Phase::Materialize];

    /// The phases that head the paper's Tables 1–2 columns, in its order.
    pub const PAPER: [Phase; 3] = [Phase::Network, Phase::Sub, Phase::Meta];

    /// The span that times the phase.
    pub const fn span(self) -> &'static str {
        SPELLINGS[self as usize][0]
    }

    /// The phase's `stage` label.
    pub const fn stage(self) -> &'static str {
        SPELLINGS[self as usize][1]
    }

    /// The phase's root-span argument.
    pub const fn arg(self) -> &'static str {
        SPELLINGS[self as usize][2]
    }

    /// The phase's why-slow key.
    pub const fn why_slow(self) -> &'static str {
        SPELLINGS[self as usize][3]
    }

    /// The paper column the phase folds into.
    pub const fn column(self) -> &'static str {
        SPELLINGS[self as usize][4]
    }

    /// The phase's time in `b`, µs.
    pub fn of(self, b: &LatencyBreakdown) -> f64 {
        match self {
            Phase::Meta => b.meta_hnsw_us,
            Phase::Network => b.network_us,
            Phase::Sub => b.sub_hnsw_us,
            Phase::Materialize => b.materialize_us,
        }
    }
}

impl std::ops::AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: LatencyBreakdown) {
        self.network_us += rhs.network_us;
        self.sub_hnsw_us += rhs.sub_hnsw_us;
        self.meta_hnsw_us += rhs.meta_hnsw_us;
        self.materialize_us += rhs.materialize_us;
    }
}

/// Where a batch's bytes and round trips went, by [`ReadCause`].
///
/// Built from a [`StatsSnapshot`] delta bracketing the batch, so the
/// per-cause byte counters tile the batch's `bytes_read` exactly: the
/// substrate attributes every read byte to exactly one cause, and
/// `record_read_cause` is the only path that moves `bytes_read`.
/// Round trips are attributed to each doorbell chunk's dominant-bytes
/// cause, so `total_trips()` covers *read* trips only (write and
/// atomic trips carry no cause).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostLedger {
    /// Bytes read per cause, indexed by [`ReadCause::index`].
    pub cause_bytes: [u64; READ_CAUSES],
    /// Read work requests per cause, indexed by [`ReadCause::index`].
    pub cause_wrs: [u64; READ_CAUSES],
    /// Read round trips per cause (doorbell chunks count once, under
    /// the chunk's dominant-bytes cause), indexed by
    /// [`ReadCause::index`].
    pub cause_trips: [u64; READ_CAUSES],
}

impl CostLedger {
    /// Ledger from a substrate counter delta bracketing one batch.
    pub fn from_delta(delta: &StatsSnapshot) -> Self {
        CostLedger {
            cause_bytes: delta.cause_bytes,
            cause_wrs: delta.cause_wrs,
            cause_trips: delta.cause_trips,
        }
    }

    /// Bytes attributed to `cause`.
    pub fn bytes_for(&self, cause: ReadCause) -> u64 {
        self.cause_bytes[cause.index()]
    }

    /// Read round trips attributed to `cause`.
    pub fn trips_for(&self, cause: ReadCause) -> u64 {
        self.cause_trips[cause.index()]
    }

    /// Total bytes across all causes — equals the bracketing delta's
    /// `bytes_read` by construction.
    pub fn total_bytes(&self) -> u64 {
        self.cause_bytes.iter().sum()
    }

    /// Total read round trips across all causes.
    pub fn total_trips(&self) -> u64 {
        self.cause_trips.iter().sum()
    }

    /// The cause that moved the most bytes, or `None` on an empty
    /// ledger. Ties break toward the lowest cause index, matching the
    /// substrate's doorbell-trip attribution.
    pub fn dominant_cause(&self) -> Option<ReadCause> {
        let (i, &max) = self
            .cause_bytes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        if max == 0 {
            None
        } else {
            Some(ReadCause::ALL[i])
        }
    }

    /// Accumulates another ledger into this one, elementwise.
    pub fn merge(&mut self, other: &CostLedger) {
        for i in 0..READ_CAUSES {
            self.cause_bytes[i] += other.cause_bytes[i];
            self.cause_wrs[i] += other.cause_wrs[i];
            self.cause_trips[i] += other.cause_trips[i];
        }
    }

    /// Human-readable "where did the bytes go" table: one line per
    /// nonzero cause with its byte share, work requests, and trips.
    /// Printed by `dhnsw_cli query --explain`.
    pub fn render(&self) -> String {
        let total = self.total_bytes();
        if total == 0 {
            return "  (no read traffic)\n".to_string();
        }
        let mut out = String::new();
        for cause in ReadCause::ALL {
            let bytes = self.bytes_for(cause);
            if bytes == 0 {
                continue;
            }
            let i = cause.index();
            out.push_str(&format!(
                "  {:<14} {:>12} B ({:>5.1}%)  {:>6} wrs  {:>5} trips\n",
                cause.as_str(),
                bytes,
                bytes as f64 / total as f64 * 100.0,
                self.cause_wrs[i],
                self.cause_trips[i],
            ));
        }
        out
    }
}

/// Root-span argument keys of the per-cause byte counts, indexed by
/// [`ReadCause::index`]: span argument keys are `'static`, so the prefix
/// is baked in rather than formatted per batch.
const CAUSE_BYTE_KEYS: [&str; READ_CAUSES] = [
    "bytes_stage_load",
    "bytes_version_check",
    "bytes_retry",
    "bytes_health_probe",
    "bytes_overflow_scan",
    "bytes_naive",
    "bytes_rerank",
    "bytes_other",
];

/// Everything one [`crate::ComputeNode::query_batch`] call did.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchReport {
    /// Trace id: the span tracer's batch sequence number on the node's
    /// telemetry hub, assigned whether or not spans are captured. The
    /// exemplar store, `/whyslow/<id>` and the span ring name the batch
    /// by it.
    pub trace_id: u64,
    /// Search-mode label of the node (`full`, `no_doorbell`, `naive`).
    pub mode: &'static str,
    /// Queries answered in the batch.
    pub queries: usize,
    /// Neighbors requested per query.
    pub k: usize,
    /// Sub-HNSW beam width the batch searched with.
    pub ef: usize,
    /// Partitions routed per query (the call's override, else the
    /// configured `b`).
    pub fanout: usize,
    /// Latency breakdown for the whole batch.
    pub breakdown: LatencyBreakdown,
    /// The batch's end-to-end latency, µs: host wall time of the whole
    /// call plus the virtual network time
    /// (`breakdown.network_us`). The process never sleeps on the
    /// simulated NIC, so wall time alone would leave out the one
    /// component this system is about. At least `breakdown.total_us()`;
    /// the rest is host time outside the four phases (planning, merge,
    /// cache settling). This is the number the latency histogram samples
    /// and the exemplar store ranks by.
    pub total_us: f64,
    /// Network round trips issued.
    pub round_trips: u64,
    /// Bytes read from the memory pool.
    pub bytes_read: u64,
    /// Doorbell batches the batch's reads rang.
    pub doorbell_batches: u64,
    /// Distinct clusters the batch required (after query-aware dedup).
    pub unique_clusters: usize,
    /// Clusters served from the local LRU cache.
    pub cache_hits: usize,
    /// Clusters actually loaded over the network.
    pub clusters_loaded: usize,
    /// Total cluster demand before dedup (`b × s`).
    pub raw_cluster_demand: usize,
    /// Queries answered from an incomplete cluster set because a read
    /// exhausted the engine retry budget (degraded mode).
    pub degraded_queries: usize,
    /// Engine-level read retries this batch performed (version-mismatch
    /// reloads plus post-retransmission verb retries).
    pub read_retries: u64,
    /// Byte/trip provenance: where this batch's read traffic went, by
    /// cause. `ledger.total_bytes() == bytes_read` on every batch.
    pub ledger: CostLedger,
    /// Per-query coverage: the fraction of the query's routed clusters
    /// actually searched, in query order. `1.0` everywhere unless the
    /// batch degraded; empty when the engine skipped per-query
    /// attribution (no degradation and no loads failed).
    pub coverage: Vec<f64>,
}

impl BatchReport {
    /// Mean per-query end-to-end latency, µs: `total_us / queries`.
    pub fn per_query_us(&self) -> f64 {
        self.total_us / self.queries.max(1) as f64
    }

    /// The integer sample the latency histogram observes for each query
    /// of this batch.
    pub fn latency_sample_us(&self) -> u64 {
        self.per_query_us() as u64
    }

    /// The batch's root-span arguments: its parameters, one
    /// `bytes_<cause>` per cause that moved bytes (a captured trace's
    /// explain data; idle causes are left out to keep spans small), then
    /// the counts and the four phases.
    pub fn span_args(&self) -> Vec<(&'static str, ArgValue)> {
        use ArgValue::{Str, F64, U64};
        let mut args = vec![
            ("mode", Str(self.mode)),
            ("queries", U64(self.queries as u64)),
            ("k", U64(self.k as u64)),
            ("ef", U64(self.ef as u64)),
            ("fanout", U64(self.fanout as u64)),
        ];
        let causes = CAUSE_BYTE_KEYS.iter().zip(&self.ledger.cause_bytes);
        args.extend(
            causes
                .filter(|(_, &b)| b > 0)
                .map(|(&key, &b)| (key, U64(b))),
        );
        args.extend([
            ("unique_clusters", U64(self.unique_clusters as u64)),
            ("cache_hits", U64(self.cache_hits as u64)),
            ("clusters_loaded", U64(self.clusters_loaded as u64)),
            ("round_trips", U64(self.round_trips)),
            ("bytes_read", U64(self.bytes_read)),
        ]);
        args.extend(Phase::ALL.map(|p| (p.arg(), F64(p.of(&self.breakdown)))));
        args
    }

    /// Mean per-query *modeled* latency, µs: the four phases of
    /// `breakdown` — the sum the paper's Tables 1 and 2 report — over the
    /// batch size. [`BatchReport::per_query_us`] is the end-to-end one.
    pub fn per_query_latency_us(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.breakdown.total_us() / self.queries as f64
        }
    }

    /// Network round trips per query — the quantity the paper quotes as
    /// 3.547 (naive), 0.896 (no doorbell), and 4.75 × 10⁻³ (d-HNSW).
    pub fn round_trips_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.round_trips as f64 / self.queries as f64
        }
    }

    /// Fraction of cluster demand absorbed by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.unique_clusters == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.unique_clusters as f64
        }
    }

    /// Fraction of queries served degraded (incomplete cluster
    /// coverage), in `[0, 1]`.
    pub fn degraded_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.degraded_queries as f64 / self.queries as f64
        }
    }

    /// Merges another batch's counters into this one (for aggregating a
    /// run of batches; the module docs give the rule per field).
    /// Coverage vectors concatenate in batch order; an empty coverage
    /// vector stands for full coverage and is expanded when the other
    /// side carries per-query values.
    pub fn merge(&mut self, other: &BatchReport) {
        if !self.coverage.is_empty() || !other.coverage.is_empty() {
            if self.coverage.is_empty() {
                self.coverage = vec![1.0; self.queries];
            }
            if other.coverage.is_empty() {
                self.coverage
                    .extend(std::iter::repeat_n(1.0, other.queries));
            } else {
                self.coverage.extend_from_slice(&other.coverage);
            }
        }
        self.queries += other.queries;
        self.breakdown += other.breakdown;
        self.total_us += other.total_us;
        self.round_trips += other.round_trips;
        self.bytes_read += other.bytes_read;
        self.doorbell_batches += other.doorbell_batches;
        self.unique_clusters += other.unique_clusters;
        self.cache_hits += other.cache_hits;
        self.clusters_loaded += other.clusters_loaded;
        self.raw_cluster_demand += other.raw_cluster_demand;
        self.degraded_queries += other.degraded_queries;
        self.read_retries += other.read_retries;
        self.ledger.merge(&other.ledger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let b = LatencyBreakdown {
            network_us: 1.0,
            sub_hnsw_us: 2.0,
            meta_hnsw_us: 3.0,
            materialize_us: 4.0,
        };
        assert_eq!(b.total_us(), 10.0);
    }

    #[test]
    fn add_accumulates_componentwise() {
        let a = LatencyBreakdown {
            network_us: 1.0,
            sub_hnsw_us: 2.0,
            meta_hnsw_us: 3.0,
            materialize_us: 4.0,
        };
        let mut c = a;
        c += a;
        assert_eq!(c.network_us, 2.0);
        assert_eq!(c.materialize_us, 8.0);
        assert_eq!(c.total_us(), 20.0);
    }

    #[test]
    fn components_tile_the_total_exactly() {
        // The four components partition the batch latency: no component
        // overlaps another, and nothing is double-counted. In particular
        // materialization is NOT folded into sub_hnsw_us any more.
        let b = LatencyBreakdown {
            network_us: 40.0,
            sub_hnsw_us: 25.0,
            meta_hnsw_us: 5.0,
            materialize_us: 30.0,
        };
        let tiles = [
            b.network_us,
            b.sub_hnsw_us,
            b.meta_hnsw_us,
            b.materialize_us,
        ];
        assert!((tiles.iter().sum::<f64>() - b.total_us()).abs() < 1e-12);
        // Dropping any one tile leaves a strictly smaller total: each
        // component carries its own share.
        for skip in 0..tiles.len() {
            let partial: f64 = tiles
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, v)| v)
                .sum();
            assert!(partial < b.total_us());
        }
    }

    #[test]
    fn the_phase_table_pins_every_spelling_in_order() {
        // Each spelling is a Prometheus label, a folded path, a span
        // argument, a /whyslow key or a table column somewhere: renaming
        // one must be deliberate.
        let b = LatencyBreakdown {
            meta_hnsw_us: 1.0,
            network_us: 2.0,
            sub_hnsw_us: 3.0,
            materialize_us: 4.0,
        };
        let rows: Vec<_> = Phase::ALL
            .iter()
            .map(|p| {
                (
                    p.span(),
                    p.stage(),
                    p.arg(),
                    p.why_slow(),
                    p.column(),
                    p.of(&b),
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                (
                    "meta_route",
                    "meta_hnsw",
                    "meta_us",
                    "meta_route",
                    "Meta-HNSW",
                    1.0
                ),
                (
                    "network",
                    "network",
                    "network_vt_us",
                    "network",
                    "Network",
                    2.0
                ),
                (
                    "sub_hnsw_search",
                    "sub_hnsw",
                    "sub_us",
                    "sub_hnsw",
                    "Sub-HNSW",
                    3.0
                ),
                (
                    "materialize",
                    "materialize",
                    "materialize_us",
                    "materialize",
                    "Sub-HNSW",
                    4.0
                ),
            ]
        );
        assert_eq!(
            Phase::PAPER.map(Phase::column),
            ["Network", "Sub-HNSW", "Meta-HNSW"]
        );
        // Sub-HNSW folds materialize back in, as the paper's tables do.
        assert_eq!(b.paper_columns(), [2.0, 3.0 + 4.0, 1.0]);
    }

    #[test]
    fn per_query_metrics_divide_by_batch_size() {
        let r = BatchReport {
            queries: 10,
            breakdown: LatencyBreakdown {
                network_us: 95.0,
                sub_hnsw_us: 20.0,
                meta_hnsw_us: 5.0,
                materialize_us: 5.0,
            },
            round_trips: 5,
            ..Default::default()
        };
        assert!((r.per_query_latency_us() - 12.5).abs() < 1e-12);
        assert!((r.round_trips_per_query() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_yields_zero_rates() {
        let r = BatchReport::default();
        assert_eq!(r.per_query_latency_us(), 0.0);
        assert_eq!(r.round_trips_per_query(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = BatchReport {
            queries: 5,
            round_trips: 2,
            cache_hits: 1,
            unique_clusters: 4,
            ..Default::default()
        };
        let b = BatchReport {
            queries: 5,
            round_trips: 3,
            cache_hits: 3,
            unique_clusters: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 10);
        assert_eq!(a.round_trips, 5);
        assert_eq!(a.cache_hit_rate(), 0.5);
    }

    #[test]
    fn merge_adds_measurements_and_keeps_the_receivers_identity() {
        let batch = |trace_id, total_us| BatchReport {
            trace_id,
            mode: "full",
            queries: 4,
            k: 10,
            ef: 48,
            fanout: 4,
            total_us,
            doorbell_batches: 2,
            ..Default::default()
        };
        let mut a = batch(7, 100.0);
        a.merge(&batch(8, 50.0));
        assert_eq!((a.total_us, a.doorbell_batches), (150.0, 4));
        assert_eq!(
            (a.trace_id, a.mode, a.k, a.ef, a.fanout),
            (7, "full", 10, 48, 4)
        );
        assert_eq!(a.per_query_us(), 150.0 / 8.0);
        assert_eq!(a.latency_sample_us(), 18);
        // An aggregate started from `Default` names no batch.
        let mut sum = BatchReport::default();
        sum.merge(&a);
        assert_eq!((sum.trace_id, sum.mode, sum.k), (0, "", 0));
        assert_eq!(sum.total_us, 150.0);
    }

    #[test]
    fn span_args_name_the_busy_causes_between_parameters_and_counts() {
        for (key, cause) in CAUSE_BYTE_KEYS.iter().zip(ReadCause::ALL) {
            assert_eq!(*key, format!("bytes_{}", cause.as_str()));
        }
        let mut r = BatchReport {
            mode: "full",
            queries: 2,
            bytes_read: 12,
            ..Default::default()
        };
        r.ledger.cause_bytes[ReadCause::StageLoad.index()] = 9;
        r.ledger.cause_bytes[ReadCause::Rerank.index()] = 3;
        let args = r.span_args();
        let keys: Vec<&str> = args.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "mode",
                "queries",
                "k",
                "ef",
                "fanout",
                "bytes_stage_load",
                "bytes_rerank",
                "unique_clusters",
                "cache_hits",
                "clusters_loaded",
                "round_trips",
                "bytes_read",
                "meta_us",
                "network_vt_us",
                "sub_us",
                "materialize_us",
            ]
        );
        assert_eq!(args[0].1, ArgValue::Str("full"));
        assert_eq!(args[6].1, ArgValue::U64(3));
    }

    #[test]
    fn ledger_totals_and_dominance() {
        let mut l = CostLedger::default();
        assert_eq!(l.total_bytes(), 0);
        assert_eq!(l.dominant_cause(), None);
        l.cause_bytes[ReadCause::StageLoad.index()] = 900;
        l.cause_bytes[ReadCause::VersionCheck.index()] = 100;
        l.cause_trips[ReadCause::StageLoad.index()] = 2;
        assert_eq!(l.total_bytes(), 1000);
        assert_eq!(l.total_trips(), 2);
        assert_eq!(l.bytes_for(ReadCause::StageLoad), 900);
        assert_eq!(l.dominant_cause(), Some(ReadCause::StageLoad));
        // Ties break toward the lowest cause index, like doorbell-trip
        // attribution in the substrate.
        l.cause_bytes[ReadCause::VersionCheck.index()] = 900;
        assert_eq!(l.dominant_cause(), Some(ReadCause::StageLoad));
    }

    #[test]
    fn ledger_merge_accumulates_elementwise() {
        let mut a = CostLedger::default();
        a.cause_bytes[ReadCause::Naive.index()] = 10;
        a.cause_wrs[ReadCause::Naive.index()] = 1;
        let mut b = CostLedger::default();
        b.cause_bytes[ReadCause::Naive.index()] = 5;
        b.cause_bytes[ReadCause::Retry.index()] = 7;
        b.cause_trips[ReadCause::Retry.index()] = 1;
        a.merge(&b);
        assert_eq!(a.bytes_for(ReadCause::Naive), 15);
        assert_eq!(a.bytes_for(ReadCause::Retry), 7);
        assert_eq!(a.total_trips(), 1);
        assert_eq!(a.cause_wrs[ReadCause::Naive.index()], 1);
    }

    #[test]
    fn ledger_render_lists_nonzero_causes_with_shares() {
        let mut l = CostLedger::default();
        assert!(l.render().contains("no read traffic"));
        l.cause_bytes[ReadCause::StageLoad.index()] = 750;
        l.cause_bytes[ReadCause::VersionCheck.index()] = 250;
        let text = l.render();
        assert!(text.contains("stage_load"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("version_check"));
        assert!(text.contains("25.0%"));
        assert!(!text.contains("naive"));
    }

    #[test]
    fn report_merge_accumulates_ledgers() {
        let mut a = BatchReport::default();
        a.ledger.cause_bytes[ReadCause::StageLoad.index()] = 4;
        let mut b = BatchReport::default();
        b.ledger.cause_bytes[ReadCause::StageLoad.index()] = 6;
        a.merge(&b);
        assert_eq!(a.ledger.bytes_for(ReadCause::StageLoad), 10);
    }

    #[test]
    fn merge_expands_missing_coverage() {
        // Full-coverage batch (empty vector) + degraded batch: the
        // merged coverage is per-query, padded with 1.0 for the former.
        let mut a = BatchReport {
            queries: 2,
            ..Default::default()
        };
        let b = BatchReport {
            queries: 2,
            degraded_queries: 1,
            read_retries: 3,
            coverage: vec![0.5, 1.0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.coverage, vec![1.0, 1.0, 0.5, 1.0]);
        assert_eq!(a.degraded_queries, 1);
        assert_eq!(a.read_retries, 3);
        assert!((a.degraded_rate() - 0.25).abs() < 1e-12);
        // Two full-coverage batches keep the compact empty form.
        let mut c = BatchReport::default();
        c.merge(&BatchReport::default());
        assert!(c.coverage.is_empty());
        assert_eq!(c.degraded_rate(), 0.0);
    }
}
