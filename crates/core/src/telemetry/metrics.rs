//! The metric table: every family this workspace exports, defined once.
//!
//! One `(name, help, kind)` per family, as a plain constant. Whoever
//! records into a family — the engine's pre-resolved handles, the series
//! recorder, the watchdog — names its constant here and supplies only
//! labels, so a family cannot be registered under two help strings or
//! two kinds: [`Telemetry`] registers through these rows only. [`ALL`]
//! lists them for the table test and for anything that wants to
//! enumerate the plane. The table holds what is counted; what a document
//! derives (`/health`'s ratios, `/exemplars`' occupancy) is computed when
//! that document is asked for and never written back here.
//!
//! Naming follows the Prometheus conventions of the module docs above:
//! `dhnsw_` prefix, `_total` on counters, base units in the name.
//! `scripts/check.sh` fails on a `"dhnsw_…"` literal in non-test code
//! outside this file.

// A family's help string is its documentation.
#![allow(missing_docs)]

use std::sync::Arc;

use rdma_sim::{ReadCause, READ_CAUSES};

use super::{Counter, Gauge, Histogram, Instrument, Kind, Telemetry};

/// One metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Family name as exposed.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
}

impl MetricDef {
    /// Gets or registers this family's counter `{labels}` on `t`.
    ///
    /// # Panics
    ///
    /// Panics if the family is not a counter.
    pub fn counter(&self, t: &Telemetry, labels: &[(&str, &str)]) -> Arc<Counter> {
        assert_eq!(self.kind, Kind::Counter, "{}", self.name);
        match t.instrument(self, labels, || Instrument::Counter(Arc::default())) {
            Instrument::Counter(i) => i,
            _ => unreachable!("a family keeps its row's kind"),
        }
    }

    /// This family's counters `{cause}`, one per [`ReadCause`] in index
    /// order.
    pub fn counters_by_cause(&self, t: &Telemetry) -> [Arc<Counter>; READ_CAUSES] {
        std::array::from_fn(|i| self.counter(t, &[("cause", ReadCause::ALL[i].as_str())]))
    }

    /// Gets or registers this family's gauge `{labels}` on `t`.
    ///
    /// # Panics
    ///
    /// Panics if the family is not a gauge.
    pub fn gauge(&self, t: &Telemetry, labels: &[(&str, &str)]) -> Arc<Gauge> {
        assert_eq!(self.kind, Kind::Gauge, "{}", self.name);
        match t.instrument(self, labels, || Instrument::Gauge(Arc::default())) {
            Instrument::Gauge(i) => i,
            _ => unreachable!("a family keeps its row's kind"),
        }
    }

    /// Gets or registers this family's histogram `{labels}` on `t`.
    ///
    /// # Panics
    ///
    /// Panics if the family is not a histogram.
    pub fn histogram(&self, t: &Telemetry, labels: &[(&str, &str)]) -> Arc<Histogram> {
        assert_eq!(self.kind, Kind::Histogram, "{}", self.name);
        match t.instrument(self, labels, || Instrument::Histogram(Arc::default())) {
            Instrument::Histogram(i) => i,
            _ => unreachable!("a family keeps its row's kind"),
        }
    }
}

const fn counter(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        help,
        kind: Kind::Counter,
    }
}

const fn gauge(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        help,
        kind: Kind::Gauge,
    }
}

const fn histogram(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        help,
        kind: Kind::Histogram,
    }
}

// Query path, labelled `{mode}` (`dhnsw_stage_us_total` also `{stage}`).
pub const QUERIES: MetricDef = counter("dhnsw_queries_total", "Queries answered");
pub const QUERY_BATCHES: MetricDef = counter("dhnsw_query_batches_total", "Query batches answered");
pub const QUERY_LATENCY_US: MetricDef = histogram(
    "dhnsw_query_latency_us",
    "Per-query latency in microseconds (CPU wall + exposed network stall, batch time / batch size)",
);
pub const STAGE_US: MetricDef = counter(
    "dhnsw_stage_us_total",
    "Cumulative stage time in microseconds",
);
pub const CLUSTERS_LOADED: MetricDef = counter(
    "dhnsw_clusters_loaded_total",
    "Clusters fetched from remote memory",
);
pub const CLUSTER_CACHE_HITS: MetricDef = counter(
    "dhnsw_cluster_cache_hits_total",
    "Cluster loads avoided by cache residency at plan time",
);
pub const RAW_CLUSTER_DEMAND: MetricDef = counter(
    "dhnsw_raw_cluster_demand_total",
    "Cluster demand before query-aware dedup (queries x fanout)",
);
pub const TRANSFERS_SAVED: MetricDef = counter(
    "dhnsw_loader_transfers_saved_total",
    "Cluster transfers avoided by dedup and cache reuse",
);
pub const DEGRADED_QUERIES: MetricDef = counter(
    "dhnsw_degraded_queries_total",
    "Queries answered from an incomplete cluster set after read retries ran out",
);
pub const READ_RETRIES: MetricDef = counter(
    "dhnsw_read_retries_total",
    "Engine-level read re-posts: 1 per load round re-posted whole after the substrate dropped it, 1 per cluster re-posted alone after a torn version bracket or a dropped overflow follow-up",
);

// Cluster cache and substrate, unlabelled except `{cause}`.
pub const CACHE_EVICTIONS: MetricDef = counter(
    "dhnsw_cache_evictions_total",
    "Clusters evicted by LRU pressure",
);
pub const CACHE_OCCUPANCY: MetricDef = gauge(
    "dhnsw_cache_occupancy_clusters",
    "Clusters resident in the most recently active node's cache",
);
pub const CACHE_RESIDENT_BYTES: MetricDef = gauge(
    "dhnsw_cache_resident_bytes",
    "Approximate bytes resident in the most recently active node's cache",
);
pub const RDMA_ROUND_TRIPS: MetricDef =
    counter("dhnsw_rdma_round_trips_total", "Network round trips issued");
pub const RDMA_WORK_REQUESTS: MetricDef = counter(
    "dhnsw_rdma_work_requests_total",
    "RDMA work requests posted",
);
pub const RDMA_DOORBELL_BATCHES: MetricDef = counter(
    "dhnsw_rdma_doorbell_batches_total",
    "Doorbell batches submitted",
);
pub const RDMA_BYTES_READ: MetricDef = counter(
    "dhnsw_rdma_bytes_read_total",
    "Bytes read from remote memory",
);
pub const RDMA_READ_BYTES_BY_CAUSE: MetricDef = counter(
    "dhnsw_rdma_read_bytes_by_cause_total",
    "Bytes read from remote memory, by read cause; sums to dhnsw_rdma_bytes_read_total",
);
pub const RDMA_READ_TRIPS_BY_CAUSE: MetricDef = counter(
    "dhnsw_rdma_read_round_trips_by_cause_total",
    "Read round trips by dominant-bytes cause (write/atomic trips carry no cause)",
);
pub const RDMA_BYTES_WRITTEN: MetricDef = counter(
    "dhnsw_rdma_bytes_written_total",
    "Bytes written to remote memory",
);
pub const RDMA_ATOMICS: MetricDef = counter(
    "dhnsw_rdma_atomics_total",
    "Atomic verbs (CAS/FAA) executed",
);
pub const RDMA_FAULTS: MetricDef = counter(
    "dhnsw_rdma_faults_total",
    "Faulted (dropped and retransmitted) verb attempts",
);
pub const DOORBELL_BATCH_SIZE: MetricDef = histogram(
    "dhnsw_doorbell_batch_size",
    "Work requests per doorbell batch",
);

// Mutations, counted in one place (`ComputeNode::commit`): a record
// counts when the doorbell reserving its id and slot is posted —
// accepted, refused with `OverflowFull`, or cut short by the fabric at
// any work request. A call refused before anything is posted (wrong
// dimension, an empty batch) counts nothing.
pub const INSERTS: MetricDef = counter(
    "dhnsw_inserts_total",
    "Insert records, counted when their reserving doorbell is posted",
);
pub const INSERT_OVERFLOW: MetricDef = counter(
    "dhnsw_insert_overflow_total",
    "Inserts rejected because the group overflow area was full",
);
pub const DELETES: MetricDef = counter(
    "dhnsw_deletes_total",
    "Tombstone records, counted when their reserving doorbell is posted",
);

// Events (`{budget}`, `{series}`).
pub const SLO_VIOLATIONS: MetricDef = counter(
    "dhnsw_slo_violations_total",
    "SLO budget violations flagged by the health watchdog",
);
pub const ANOMALIES: MetricDef = counter(
    "dhnsw_anomaly_total",
    "Anomalies flagged by the series recorder (EWMA mean + MAD z-score)",
);

/// Every family above.
pub const ALL: [&MetricDef; 28] = [
    &QUERIES,
    &QUERY_BATCHES,
    &QUERY_LATENCY_US,
    &STAGE_US,
    &CLUSTERS_LOADED,
    &CLUSTER_CACHE_HITS,
    &RAW_CLUSTER_DEMAND,
    &TRANSFERS_SAVED,
    &DEGRADED_QUERIES,
    &READ_RETRIES,
    &CACHE_EVICTIONS,
    &CACHE_OCCUPANCY,
    &CACHE_RESIDENT_BYTES,
    &RDMA_ROUND_TRIPS,
    &RDMA_WORK_REQUESTS,
    &RDMA_DOORBELL_BATCHES,
    &RDMA_BYTES_READ,
    &RDMA_READ_BYTES_BY_CAUSE,
    &RDMA_READ_TRIPS_BY_CAUSE,
    &RDMA_BYTES_WRITTEN,
    &RDMA_ATOMICS,
    &RDMA_FAULTS,
    &DOORBELL_BATCH_SIZE,
    &INSERTS,
    &INSERT_OVERFLOW,
    &DELETES,
    &SLO_VIOLATIONS,
    &ANOMALIES,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{watchdog, SloViolation};
    use crate::{DHnswConfig, SearchMode, VectorStore};
    use std::collections::BTreeSet;
    use vecsim::gen;

    #[test]
    fn rows_are_unique_prometheus_valid_and_documented() {
        let mut names = BTreeSet::new();
        for def in ALL {
            let name = def.name;
            assert!(names.insert(name), "{name} is defined twice");
            // [a-zA-Z_:][a-zA-Z0-9_:]*, under this workspace's prefix.
            assert!(name.starts_with("dhnsw_"), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{name}"
            );
            assert_eq!(
                def.kind == Kind::Counter,
                name.ends_with("_total"),
                "{name}"
            );
            assert!(!def.help.trim().is_empty(), "{name} has no help");
        }
    }

    #[test]
    fn every_resolver_asks_for_the_kind_its_row_gives() {
        // Run every resolver against one hub: a node (engine handles),
        // a batch, an insert, a health report (which resolves nothing),
        // a watchdog event, and the node's series samples driven into an
        // anomaly.
        // The accessors assert the kind on each resolution; what the hub
        // then exposes must be the table, row for row.
        let data = gen::sift_like(600, 0x7AB1E).unwrap();
        let queries = gen::perturbed_queries(&data, 8, 0.02, 0x7AB1F).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let t = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&t))
            .unwrap();
        node.query_batch(&queries, 5, 16).unwrap();
        node.insert(data.get(0)).unwrap();
        node.health_report().unwrap();
        let breach = SloViolation {
            budget: "p99_latency_us",
            actual: 2.0,
            limit: 1.0,
            exemplar: None,
        };
        watchdog::emit(&t, &[breach]);
        let m: &[(&str, &str)] = &[("mode", "full")];
        node.sample_series(0);
        for second in 1..=13 {
            QUERIES.counter(&t, m).add(40);
            QUERY_LATENCY_US.histogram(&t, m).observe_n(300, 40);
            READ_RETRIES
                .counter(&t, m)
                .add(if second == 13 { 80 } else { 0 });
            node.sample_series(second * 1_000_000);
        }
        assert_eq!(t.series().anomaly_count(), 1);

        let prom = t.render_prometheus();
        let row = |name: &str| {
            *ALL.iter()
                .find(|def| def.name == name)
                .unwrap_or_else(|| panic!("{name} has no row"))
        };
        let mut exposed = BTreeSet::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP name text");
                assert_eq!(help, row(name).help, "{name}");
                exposed.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
                let want = match row(name).kind {
                    Kind::Counter => "counter",
                    Kind::Gauge => "gauge",
                    Kind::Histogram => "histogram",
                };
                assert_eq!(kind, want, "{name}");
            }
        }
        let table: BTreeSet<String> = ALL.iter().map(|def| def.name.to_string()).collect();
        assert_eq!(
            exposed, table,
            "a row nobody resolves, or a family outside the table"
        );
    }
}
