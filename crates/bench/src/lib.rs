//! Shared harness for the d-HNSW reproduction.
//!
//! The `repro` binary (`cargo run -p dhnsw-bench --bin repro --release`)
//! regenerates every table and figure of the paper, and `dhnsw_cli`
//! builds, inspects, queries and serves stores. This library holds what
//! they share: workload construction ([`Workload`]), the
//! efSearch sweep runner, table and CSV formatting, and the serving
//! plane: [`serve`]'s endpoints and [`top`]'s dashboard frame, which the
//! node renders from its series recorder's typed records and `dhnsw_cli
//! top` only fetches. Timing regressions are the business of
//! the repository benchmark (`benchmark/`), exact counts of the two
//! characterization ledgers under `crates/core/tests/`; nothing here
//! gates on either.
//!
//! Scale knobs (environment variables, all optional; one set to
//! something that is not a non-negative integer is an error, never the
//! default):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `DHNSW_SIFT_N` | 40000 | SIFT-like base vectors |
//! | `DHNSW_GIST_N` | 8000 | GIST-like base vectors |
//! | `DHNSW_QUERIES` | 1000 | queries per batch (paper: 2000) |
//! | `DHNSW_RUNS` | 1 | measured batches per point (median reported; the per-query average over the batch already smooths noise) |
//! | `DHNSW_REPS` | n/2000 in [32, 500] | representatives (paper: 500 for 1M vectors — same ratio) |
//! | `DHNSW_SIFT_FVECS` | unset | path to the real `sift_base.fvecs`; used instead of the stand-in |
//! | `DHNSW_GIST_FVECS` | unset | path to the real `gist_base.fvecs` |
//!
//! The paper runs SIFT1M/GIST1M on four 72-core servers; the defaults
//! here are sized for a single-core CI box. Raising `DHNSW_SIFT_N` to
//! 1000000 reproduces the paper's scale verbatim, given time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod serve;
pub mod top;

use std::time::Instant;

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temp file first, then a `rename` swaps it into place, so a scraper
/// or CI step reading `path` concurrently sees either the old file or
/// the new one — never a torn half-write. Missing parent directories
/// are created first, so `--metrics-out nested/dir/run.prom` works
/// without a separate `mkdir`.
pub fn write_atomic<P: AsRef<std::path::Path>>(path: P, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

use dhnsw::{BatchReport, DHnswConfig, Phase, SearchMode, VectorStore};
use vecsim::{gen, ground_truth, recall, Dataset, Metric, Neighbor};

/// Which paper dataset a workload stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// SIFT1M stand-in: 128-d, clustered, `[0, 255]`.
    SiftLike,
    /// GIST1M stand-in: 960-d, clustered, `[0, 1]`.
    GistLike,
}

impl DatasetKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::SiftLike => "SIFT1M (synthetic stand-in)",
            DatasetKind::GistLike => "GIST1M (synthetic stand-in)",
        }
    }

    /// Default base-vector count, overridable via environment.
    ///
    /// # Errors
    ///
    /// Fails when the variable is set but does not parse ([`env_usize`]).
    pub fn default_n(self) -> dhnsw::Result<usize> {
        match self {
            DatasetKind::SiftLike => env_usize("DHNSW_SIFT_N", 40_000),
            DatasetKind::GistLike => env_usize("DHNSW_GIST_N", 8_000),
        }
    }

    /// Generates the base dataset.
    pub fn generate(self, n: usize, seed: u64) -> vecsim::Result<Dataset> {
        match self {
            DatasetKind::SiftLike => gen::sift_like(n, seed),
            DatasetKind::GistLike => gen::gist_like(n, seed),
        }
    }

    /// Environment variable naming a real `.fvecs` file for this dataset.
    pub fn fvecs_env_var(self) -> &'static str {
        match self {
            DatasetKind::SiftLike => "DHNSW_SIFT_FVECS",
            DatasetKind::GistLike => "DHNSW_GIST_FVECS",
        }
    }

    /// Loads the real dataset when its `fvecs` path is configured (taking
    /// the first `n` vectors), otherwise generates the synthetic
    /// stand-in. This is how the harness evaluates on actual
    /// SIFT1M/GIST1M when the TEXMEX files are available.
    pub fn load_or_generate(self, n: usize, seed: u64) -> vecsim::Result<Dataset> {
        match std::env::var(self.fvecs_env_var()) {
            Ok(path) if !path.is_empty() => {
                eprintln!("[data] loading {} from {path}", self.name());
                let ds = load_fvecs_prefix(&path, n)?;
                eprintln!("[data] loaded {} vectors x {}d", ds.len(), ds.dim());
                Ok(ds)
            }
            _ => self.generate(n, seed),
        }
    }
}

/// Reads up to `n` vectors from an `fvecs` file.
///
/// # Errors
///
/// Propagates I/O and format errors from the vector layer.
pub fn load_fvecs_prefix(path: &str, n: usize) -> vecsim::Result<Dataset> {
    let file = std::fs::File::open(path)?;
    let full = vecsim::io::read_fvecs(std::io::BufReader::new(file))?;
    if full.len() <= n {
        return Ok(full);
    }
    let ids: Vec<u32> = (0..n as u32).collect();
    Ok(full.select(&ids))
}

/// Reads a `usize` environment knob: `default` when it is unset.
///
/// # Errors
///
/// Returns [`dhnsw::Error::InvalidParameter`] naming the variable and
/// the value when it is set to anything else than a non-negative
/// integer, as the `DHNSW_*` knobs of `dhnsw` itself do — a typo
/// (`1_000_000`) must not print a row measured at the default scale.
pub fn env_usize(key: &str, default: usize) -> dhnsw::Result<usize> {
    knob(&|k| std::env::var(k).ok(), key, default)
}

/// [`env_usize`] over any variable lookup.
fn knob(var: &dyn Fn(&str) -> Option<String>, key: &str, default: usize) -> dhnsw::Result<usize> {
    match var(key) {
        None => Ok(default),
        Some(raw) => raw.trim().parse().map_err(|_| {
            dhnsw::Error::InvalidParameter(format!("{key}={raw:?} is not a non-negative integer"))
        }),
    }
}

/// A fully prepared workload: base data, queries, and exact ground truth
/// at the k values the paper evaluates (1 and 10).
#[derive(Debug)]
pub struct Workload {
    /// Which dataset this stands in for.
    pub kind: DatasetKind,
    /// Base vectors.
    pub data: Dataset,
    /// Query vectors.
    pub queries: Dataset,
    /// Exact top-1 ground truth.
    pub truth1: Vec<Vec<Neighbor>>,
    /// Exact top-10 ground truth.
    pub truth10: Vec<Vec<Neighbor>>,
}

impl Workload {
    /// Builds the standard workload for `kind` at its default scale.
    pub fn standard(kind: DatasetKind) -> Result<Self, Box<dyn std::error::Error>> {
        let n = kind.default_n()?;
        let nq = env_usize("DHNSW_QUERIES", 1_000)?;
        Self::sized(kind, n, nq)
    }

    /// Builds a workload with explicit sizes.
    pub fn sized(
        kind: DatasetKind,
        n: usize,
        nq: usize,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let data = kind.load_or_generate(n, 0xDA7A)?;
        let queries = gen::perturbed_queries(&data, nq, 0.03, 0xC0FE)?;
        let truth1 = ground_truth::exact_batch(&data, &queries, 1, Metric::L2);
        let truth10 = ground_truth::exact_batch(&data, &queries, 10, Metric::L2);
        Ok(Workload {
            kind,
            data,
            queries,
            truth1,
            truth10,
        })
    }

    /// Ground truth for a given k (1 or 10).
    pub fn truth(&self, k: usize) -> &[Vec<Neighbor>] {
        if k == 1 {
            &self.truth1
        } else {
            &self.truth10
        }
    }

    /// Mean recall@`k` of `results`, one answer list per query.
    pub fn recall(&self, results: &[Vec<Neighbor>], k: usize) -> f64 {
        let ids: Vec<Vec<u32>> = (results.iter())
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect();
        recall::mean_recall(&ids, self.truth(k))
    }

    /// The paper's store configuration for this workload, with the
    /// representative count and overflow capacity scaled to the dataset:
    /// the paper uses 500 representatives per million vectors (≈ one per
    /// 2000) and overflow areas around an eighth of a cluster's payload.
    /// `DHNSW_REPS` overrides the representative count outright.
    ///
    /// # Errors
    ///
    /// Fails when `DHNSW_REPS` is set but does not parse ([`env_usize`]).
    pub fn config(&self) -> dhnsw::Result<DHnswConfig> {
        let n = self.data.len();
        let reps = env_usize("DHNSW_REPS", (n / 2_000).clamp(32, 500))?;
        // `DHNSW_REPS=0` is left for the store build to reject.
        let slots = (n / reps.max(1) / 8).max(16);
        Ok(DHnswConfig::paper()
            .with_representatives(reps)
            .with_overflow_slots(slots))
    }

    /// Builds the store (timed, with progress output to stderr).
    pub fn build_store(&self) -> Result<VectorStore, Box<dyn std::error::Error>> {
        self.build_store_with(&self.config()?)
    }

    /// Builds the store under a custom configuration.
    pub fn build_store_with(
        &self,
        config: &DHnswConfig,
    ) -> Result<VectorStore, Box<dyn std::error::Error>> {
        let t = Instant::now();
        let store = VectorStore::build(self.data.clone(), config)?;
        eprintln!(
            "[build] {}: {} vectors -> {} partitions in {:.1}s ({:.1} MB remote)",
            self.kind.name(),
            self.data.len(),
            store.partitions(),
            t.elapsed().as_secs_f64(),
            store.remote_bytes() as f64 / 1e6
        );
        Ok(store)
    }
}

/// One point of a latency-recall sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The efSearch value.
    pub ef: usize,
    /// Mean recall@k against exact ground truth.
    pub recall: f64,
    /// Mean per-query latency in µs (network virtual + compute wall).
    pub latency_us: f64,
    /// The full batch report.
    pub report: BatchReport,
}

/// The efSearch values Fig. 6 sweeps.
pub const EF_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 24, 32, 48];

/// Runs the Fig. 6 sweep for one scheme: for each efSearch value, answer
/// the whole query batch and record latency + recall.
///
/// Matching the paper's steady-state measurement, each point runs one
/// warm-up batch (populating the LRU cache) before the measured batch;
/// the Naive scheme has no state to warm but is treated identically.
pub fn sweep(
    store: &VectorStore,
    mode: SearchMode,
    workload: &Workload,
    k: usize,
) -> Result<Vec<SweepPoint>, Box<dyn std::error::Error>> {
    let node = store.connect(mode)?;
    let runs = env_usize("DHNSW_RUNS", 1)?.max(1);
    let mut out = Vec::with_capacity(EF_SWEEP.len());
    for &ef in EF_SWEEP {
        node.query_batch(&workload.queries, k, ef)?; // warm-up
        let mut rec = 0.0;
        let mut reports = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (results, report) = node.query_batch(&workload.queries, k, ef)?;
            rec = workload.recall(&results, k);
            reports.push(report);
        }
        let report = median_report(reports);
        out.push(SweepPoint {
            ef,
            recall: rec,
            latency_us: report.per_query_latency_us(),
            report,
        });
    }
    Ok(out)
}

/// Picks the median report by total latency — compute components are
/// wall-clock and jitter on loaded hosts, so a single batch can mislead.
fn median_report(mut reports: Vec<BatchReport>) -> BatchReport {
    reports.sort_by(|a, b| a.breakdown.total_us().total_cmp(&b.breakdown.total_us()));
    let mid = reports.len() / 2;
    reports.swap_remove(mid)
}

/// A measured Table-1/2 row: the three latency components for one scheme,
/// plus round trips per query.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// The scheme.
    pub mode: SearchMode,
    /// The batch report at efSearch = 48.
    pub report: BatchReport,
    /// Recall achieved at this operating point.
    pub recall: f64,
}

/// Runs the Table 1/2 measurement: top-1, efSearch 48, warm caches, all
/// three schemes on the same store.
pub fn breakdown_rows(
    store: &VectorStore,
    workload: &Workload,
) -> Result<Vec<BreakdownRow>, Box<dyn std::error::Error>> {
    let runs = env_usize("DHNSW_RUNS", 1)?.max(1);
    let mut rows = Vec::new();
    for mode in [SearchMode::Naive, SearchMode::NoDoorbell, SearchMode::Full] {
        let node = store.connect(mode)?;
        node.query_batch(&workload.queries, 1, 48)?; // warm-up
        let mut rec = 0.0;
        let mut reports = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (results, report) = node.query_batch(&workload.queries, 1, 48)?;
            rec = workload.recall(&results, 1);
            reports.push(report);
        }
        rows.push(BreakdownRow {
            mode,
            report: median_report(reports),
            recall: rec,
        });
    }
    Ok(rows)
}

/// Formats microseconds the way the paper's tables mix units (µs / ms).
pub fn fmt_us(us: f64) -> String {
    if us >= 10_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{us:.1}us")
    }
}

/// Prints a Fig. 6-style sweep table for several schemes side by side.
pub fn print_sweep_table(title: &str, schemes: &[(SearchMode, Vec<SweepPoint>)]) {
    println!("\n=== {title} ===");
    print!("{:>4} |", "ef");
    for (mode, _) in schemes {
        print!(" {:>28} |", mode.name());
    }
    println!();
    print!("{:>4} |", "");
    for _ in schemes {
        print!(" {:>14} {:>13} |", "latency/query", "recall");
    }
    println!();
    for i in 0..schemes[0].1.len() {
        print!("{:>4} |", schemes[0].1[i].ef);
        for (_, points) in schemes {
            let p = &points[i];
            print!(" {:>14} {:>13.3} |", fmt_us(p.latency_us), p.recall);
        }
        println!();
    }
    // The "up to Nx" summary the paper quotes.
    let best_factor = |a: &[SweepPoint], b: &[SweepPoint]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.latency_us / y.latency_us.max(1e-9))
            .fold(0.0f64, f64::max)
    };
    if schemes.len() == 3 {
        let naive = &schemes[0].1;
        let nodb = &schemes[1].1;
        let full = &schemes[2].1;
        println!(
            "summary: d-HNSW latency up to {:.0}x lower than naive, {:.2}x lower than w/o doorbell; max recall {:.3}",
            best_factor(naive, full),
            best_factor(nodb, full),
            full.iter().map(|p| p.recall).fold(0.0, f64::max)
        );
    }
}

/// Prints a Table 1/2-style breakdown.
pub fn print_breakdown_table(title: &str, rows: &[BreakdownRow]) {
    println!("\n=== {title} ===");
    let [net, sub, meta] = Phase::PAPER.map(Phase::column);
    println!(
        "{:<24} {net:>12} {sub:>12} {meta:>12} {:>12} {:>10}",
        "Scheme", "trips/query", "recall"
    );
    for row in rows {
        let [net, sub, meta] = row.report.breakdown.paper_columns().map(fmt_us);
        println!(
            "{:<24} {net:>12} {sub:>12} {meta:>12} {:>12.4} {:>10.3}",
            row.mode.name(),
            row.report.round_trips_per_query(),
            row.recall
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_valid_keep_absent_and_reject_malformed() {
        for key in [
            "DHNSW_SIFT_N",
            "DHNSW_GIST_N",
            "DHNSW_QUERIES",
            "DHNSW_REPS",
            "DHNSW_RUNS",
            "DHNSW_ABLATION_N",
            "DHNSW_ABLATION_Q",
        ] {
            let set = |value: &'static str| move |k: &str| (k == key).then(|| value.to_string());
            assert_eq!(knob(&set(" 123 "), key, 7).unwrap(), 123, "{key}");
            assert_eq!(knob(&|_| None, key, 7).unwrap(), 7, "{key}");
            for malformed in ["1_000_000", "1e6", "-1", "xyz", ""] {
                let err = knob(&set(malformed), key, 7).unwrap_err().to_string();
                assert!(
                    err.contains(key) && err.contains(&format!("{malformed:?}")),
                    "{key}={malformed:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn fvecs_prefix_loads_and_truncates() {
        let ds = vecsim::gen::uniform(4, 20, 0.0, 1.0, 1).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dhnsw_bench_fvecs_{}.fvecs", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        vecsim::io::write_fvecs(&mut f, &ds).unwrap();
        drop(f);
        let all = load_fvecs_prefix(path.to_str().unwrap(), 100).unwrap();
        assert_eq!(all.len(), 20);
        let few = load_fvecs_prefix(path.to_str().unwrap(), 5).unwrap();
        assert_eq!(few.len(), 5);
        assert_eq!(few.get(0), ds.get(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gist_env_var_switches_to_real_file() {
        let ds = vecsim::gen::uniform(960, 8, 0.0, 1.0, 2).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dhnsw_bench_gistenv_{}.fvecs", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        vecsim::io::write_fvecs(&mut f, &ds).unwrap();
        drop(f);
        std::env::set_var("DHNSW_GIST_FVECS", path.to_str().unwrap());
        let loaded = DatasetKind::GistLike.load_or_generate(4, 0).unwrap();
        std::env::remove_var("DHNSW_GIST_FVECS");
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.get(0), ds.get(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fmt_us_switches_units() {
        assert_eq!(fmt_us(527.6), "527.6us");
        assert_eq!(fmt_us(90_271.2), "90.3ms");
    }

    #[test]
    fn small_workload_round_trips_through_sweep() {
        let w = Workload::sized(DatasetKind::SiftLike, 800, 30).unwrap();
        let cfg = DHnswConfig::small();
        let store = w.build_store_with(&cfg).unwrap();
        let points = sweep(&store, SearchMode::Full, &w, 10).unwrap();
        assert_eq!(points.len(), EF_SWEEP.len());
        for p in &points {
            assert!(p.recall >= 0.0 && p.recall <= 1.0);
            assert!(p.latency_us >= 0.0);
        }
        // Recall at ef=48 should beat ef=1 (or at least match).
        assert!(points.last().unwrap().recall + 1e-9 >= points[0].recall - 0.05);
    }

    #[test]
    fn breakdown_rows_cover_all_modes_in_paper_order() {
        let w = Workload::sized(DatasetKind::SiftLike, 600, 20).unwrap();
        let store = w.build_store_with(&DHnswConfig::small()).unwrap();
        let rows = breakdown_rows(&store, &w).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, SearchMode::Naive);
        assert_eq!(rows[2].mode, SearchMode::Full);
        // Network ordering: naive worst.
        assert!(rows[0].report.breakdown.network_us > rows[2].report.breakdown.network_us);
    }
}
