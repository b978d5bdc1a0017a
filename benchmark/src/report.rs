//! Metric tables, the result line, and the self-describing files under
//! `out/`.

use std::path::Path;

use dhnsw::DHnswConfig;

use crate::bench::RunOpts;
use crate::calib::Calibration;
use crate::json::Json;
use crate::workload::{EF, K};

/// One metric as `BENCHMARK.json` declares it. `bound` is the share of
/// the parent's median a later change may lose; per-layer metrics have
/// none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the store sees, and what `BENCHMARK.json` holds later
/// changes to. Every workload reports every one.
///
/// The timings are CPU time at nominal machine speed (`clock.rs`), not
/// wall-clock readings: this sandbox is a few cores of a shared host that
/// other tenants slow by 10-100 % for seconds to minutes at a time, and
/// between identical runs the wall clock's median batch latency spread
/// by up to 22 % where the same batches' scaled CPU time spread by 3-7 %.
/// The wall-clock readings are printed with every run (`UNGATED`), as is
/// p90, whose spread is twice the median's.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("qps", "queries/s", true, 0.25),
    e2e("batch_ms_p50", "ms", false, 0.25),
    e2e("insert_ms_p50", "ms", false, 0.25),
    e2e("recall_at_10", "ratio", true, 0.06),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("remote_mb", "MB", false, 0.02),
];

/// Measured by the un-traced run beside `END_TO_END`, stored under
/// `ungated` in its result file: p90, the timings as the wall clock
/// read them, and the reference kernel's median time.
pub const UNGATED: [MetricDef; 5] = [
    layer("batch_ms_p90", "ms", false),
    layer("wall.setup_s", "s", false),
    layer("wall.batch_ms_p50", "ms", false),
    layer("wall.batch_ms_p90", "ms", false),
    layer("pace.kernel_ms_p50", "ms", false),
];

/// Virtual-clock time is a deterministic count of simulated
/// microseconds, not a wall-clock reading; `sim_us` keeps the two apart.
pub const PER_LAYER: [MetricDef; 43] = [
    layer("vecsim.l2_ns_per_dim", "ns", false),
    layer("vecsim.sq_ns_per_code", "ns", false),
    layer("vecsim.topk_push_ns", "ns", false),
    layer("meta.route_us_per_query", "us", false),
    layer("loader.plan_us_per_batch", "us", false),
    layer("loader.unique_clusters_per_batch", "count", false),
    layer("loader.dedup_ratio", "ratio", false),
    layer("cache.hit_rate", "ratio", true),
    layer("cache.evictions_per_batch", "count", false),
    layer("cache.op_us_per_batch", "us", false),
    layer("rdma.fetch_host_us_per_batch", "us", false),
    layer("rdma.fetch_host_mb_per_s", "MB/s", true),
    layer("rdma.fetch_sim_us_per_batch", "sim_us", false),
    layer("rdma.bytes_per_query", "B", false),
    layer("rdma.round_trips_per_query", "count", false),
    layer("rdma.wrs_per_doorbell", "count", true),
    layer("cluster.materialize_us_per_batch", "us", false),
    layer("cluster.materialize_mb_per_s", "MB/s", true),
    layer("cluster.search_us_per_probe", "us", false),
    layer("cluster.dist_evals_per_probe", "count", false),
    layer("merge.us_per_query", "us", false),
    layer("replay.overhead_us_per_batch", "us", false),
    layer("engine.wall_us_per_query", "us", false),
    layer("engine.meta_us_per_query", "us", false),
    layer("engine.network_sim_us_per_query", "sim_us", false),
    layer("engine.materialize_us_per_query", "us", false),
    layer("engine.sub_search_us_per_query", "us", false),
    layer("engine.other_us_per_query", "us", false),
    layer("engine.cache_hit_rate", "ratio", true),
    layer("engine.clusters_loaded_per_batch", "count", false),
    layer("engine.read_retries", "count", false),
    layer("engine.bytes_stage_load_per_query", "B", false),
    layer("engine.bytes_rerank_per_query", "B", false),
    layer("engine.trips_rerank_per_query", "count", false),
    layer("engine.bytes_version_check_per_query", "B", false),
    layer("engine.bytes_overflow_scan_per_query", "B", false),
    layer("engine.parallel_speedup", "ratio", true),
    layer("store.build_s", "s", false),
    layer("store.insert_us_per_vector", "us", false),
    layer("store.insert_sim_us_per_vector", "sim_us", false),
    layer("store.insert_round_trips_per_vector", "count", false),
    layer("store.invalidated_clusters_per_round", "count", false),
    layer("trace.engine_ms_p50", "ms", false),
];

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — what `BENCHMARK.json` accepts.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values, in table order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{name: {value, unit}}` for exactly the metrics of `table`.
    ///
    /// # Panics
    ///
    /// Panics when a run did not measure a metric its table declares, or
    /// measured one it does not: the tables are the contract.
    pub fn to_json(&self, table: &[MetricDef]) -> Json {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|d| d.name == *name),
                "undeclared metric {name}"
            );
        }
        Json::obj(table.iter().map(|def| {
            assert!(valid_name(def.name), "bad metric name {}", def.name);
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            (
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }

    /// One `name value unit` line per metric, for people.
    pub fn print(&self, table: &[MetricDef]) {
        for def in table {
            if let Some(value) = self.get(def.name) {
                println!("{:<40} {:>16.6} {}", def.name, value, def.unit);
            }
        }
    }
}

/// What every run counts towards the result line.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Queries and inserts attempted.
    pub attempted: u64,
    /// Of those: queries of errored batches, degraded queries, rejected
    /// inserts, and queries whose result list failed a check.
    pub failed: u64,
    /// Checks over the run as a whole that did not hold.
    pub broken: Vec<String>,
}

impl Tally {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(what());
        }
    }
}

/// The line the driver reads: last on standard output, one JSON object.
pub fn result_line(tally: &Tally, metrics: &Metrics, table: &[MetricDef]) -> String {
    Json::obj([
        ("correct", Json::Bool(tally.correct())),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics.to_json(table)),
    ])
    .to_string()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`bench.sh` pins it to one).
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn config_json(config: &DHnswConfig) -> Json {
    let net = config.network();
    let sub = config.sub_params();
    let meta = config.meta_params();
    let num = |n: usize| Json::Num(n as f64);
    Json::obj([
        ("representatives", num(config.representatives())),
        ("fanout", num(config.fanout())),
        ("cache_fraction", Json::Num(config.cache_fraction())),
        ("overflow_slots", num(config.overflow_slots())),
        ("metric", Json::str(config.metric().name())),
        ("search_threads", num(config.effective_search_threads())),
        ("pipeline_depth", num(config.pipeline_depth())),
        (
            "prefetch_budget_bytes",
            Json::Num(config.prefetch_budget_bytes() as f64),
        ),
        ("quantize_mode", Json::str(config.quantize_mode().as_str())),
        ("rerank_k", num(config.rerank_k())),
        (
            "read_retry_limit",
            Json::Num(f64::from(config.read_retry_limit())),
        ),
        ("degraded_ok", Json::Bool(config.degraded_ok())),
        ("seed", Json::Num(config.seed() as f64)),
        ("sub_m", num(sub.m())),
        ("sub_ef_construction", num(sub.ef_construction())),
        ("meta_m", num(meta.m())),
        ("meta_ef_construction", num(meta.ef_construction())),
        (
            "network",
            Json::obj([
                ("base_rtt_us", Json::Num(net.base_rtt_us())),
                ("per_wr_us", Json::Num(net.per_wr_us())),
                ("bandwidth_gbps", Json::Num(net.bandwidth_gbps())),
                ("doorbell_limit", num(net.doorbell_limit())),
            ]),
        ),
    ])
}

/// Everything needed to read a result without the command line that
/// produced it.
pub struct Described<'a> {
    pub opts: &'a RunOpts,
    pub traced: bool,
    pub config: &'a DHnswConfig,
    pub calibration: &'a Calibration,
}

impl Described<'_> {
    /// The result document: provenance first, then `metrics`, then
    /// whatever `extra` sections the run adds (sample counts, spans).
    pub fn document(
        &self,
        tally: &Tally,
        metrics: &Metrics,
        table: &[MetricDef],
        extra: Vec<(&'static str, Json)>,
    ) -> Json {
        let RunOpts {
            spec,
            scale,
            seed,
            seconds,
        } = self.opts;
        assert!(valid_name(spec.name), "bad workload name {}", spec.name);
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut doc = vec![
            ("workload", Json::str(spec.name)),
            ("why", Json::str(spec.why)),
            ("traced", Json::Bool(self.traced)),
            ("scale", Json::str(scale.name)),
            ("seed", Json::Num(*seed as f64)),
            ("seconds", Json::Num(*seconds)),
            ("git_sha", Json::str(git_sha())),
            ("nproc", Json::Num(nproc as f64)),
            ("cpus_allowed", Json::str(cpus_allowed())),
            ("vectors", Json::Num(scale.vectors as f64)),
            ("batch", Json::Num(spec.batch as f64)),
            ("k", Json::Num(K as f64)),
            ("ef", Json::Num(EF as f64)),
            ("config", config_json(self.config)),
            ("calibration", self.calibration.to_json()),
            ("correct", Json::Bool(tally.correct())),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("fail_ratio", Json::Num(tally.fail_ratio())),
            (
                "broken_checks",
                Json::Arr(tally.broken.iter().map(Json::str).collect()),
            ),
            ("metrics", metrics.to_json(table)),
        ];
        doc.extend(extra);
        Json::obj(doc)
    }
}

/// Writes `doc` to `dir/file`, creating `dir`.
pub fn write_out(dir: &Path, file: &str, doc: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(file), doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_benchmark_json_grammar() {
        for ok in ["qps", "batch_ms_p50", "rdma.bytes_per_query", "9a", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for def in END_TO_END.iter().chain(&PER_LAYER).chain(&UNGATED) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let check = |key: &str, table: &[MetricDef]| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let listed = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), crate::workload::WORKLOADS.len());
        for (entry, spec) in listed.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(spec.why));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        for def in &END_TO_END {
            metrics.set(def.name, 1.5);
        }
        let tally = Tally {
            attempted: 10,
            failed: 0,
            broken: vec![],
        };
        let line = result_line(&tally, &metrics, &END_TO_END);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        let p50 = doc.get("metrics").unwrap().get("batch_ms_p50").unwrap();
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn a_broken_check_makes_the_run_incorrect() {
        let mut tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        assert!(tally.correct());
        tally.require(true, || unreachable!());
        tally.require(false, || "recall 0.5 < 0.8".into());
        assert!(!tally.correct());
        assert_eq!(tally.fail_ratio(), 0.0);
        tally.failed = 1;
        assert_eq!(tally.fail_ratio(), 0.25);
    }
}
