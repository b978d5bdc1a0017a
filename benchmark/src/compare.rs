//! `--compare BASE CHANGE`: holds two sets of results to the bounds of
//! `BENCHMARK.json`. Each side is a result file or a directory of them;
//! several runs of a workload on one side are reduced to their median
//! and their spread.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::report::{MetricDef, END_TO_END};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// two sides cannot be told apart.
    Unresolved,
    /// A count that must repeat for a seed repeated.
    Exact,
    /// It did not.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Exact => "exact",
            Verdict::Differs => "DIFFERS",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub change: f64,
    /// Share of the base by which the change is worse (negative: better).
    pub worse: f64,
    pub verdict: Verdict,
}

/// Verdict for one metric from every value each side measured.
pub fn judge(def: &MetricDef, base: &[f64], change: &[f64]) -> (f64, f64, f64, Verdict) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (a, b) = (median(base), median(change));
    let worse = match (a == 0.0, def.higher_is_better) {
        (true, _) => 0.0,
        (false, true) => (a - b) / a.abs(),
        (false, false) => (b - a) / a.abs(),
    };
    let too_wide = |values: &[f64]| quartile_spread(values).is_some_and(|s| s > bound);
    let verdict = if too_wide(base) || too_wide(change) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (a, b, worse, verdict)
}

/// Result documents under `path` (a file, or a directory searched one
/// level deep), keyed by `(workload, traced)`.
fn load(path: &Path) -> Result<BTreeMap<(String, bool), Vec<Json>>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|e| e == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut sets: BTreeMap<(String, bool), Vec<Json>> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: not a result file", file.display()))?
            .to_string();
        let traced = doc.get("traced") == Some(&Json::Bool(true));
        sets.entry((workload, traced)).or_default().push(doc);
    }
    if sets.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(sets)
}

fn metric_values(docs: &[Json], name: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Every workload × end-to-end metric both sides measured, plus, for
/// traced results of the same seed, the counts that must repeat exactly.
pub fn compare(
    base: &BTreeMap<(String, bool), Vec<Json>>,
    change: &BTreeMap<(String, bool), Vec<Json>>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, traced), base_docs) in base {
        let Some(change_docs) = change.get(&(workload.clone(), *traced)) else {
            continue;
        };
        if !*traced {
            for def in &END_TO_END {
                let (a, b) = (
                    metric_values(base_docs, def.name),
                    metric_values(change_docs, def.name),
                );
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let (base, change, worse, verdict) = judge(def, &a, &b);
                rows.push(Row {
                    workload: workload.clone(),
                    metric: def.name.to_string(),
                    base,
                    change,
                    worse,
                    verdict,
                });
            }
            continue;
        }
        for a in base_docs {
            let twin = change_docs
                .iter()
                .find(|b| b.get("seed") == a.get("seed") && b.get("scale") == a.get("scale"));
            let (Some(b), Some(counts)) = (twin, a.get("exact_counts").and_then(Json::as_obj))
            else {
                continue;
            };
            for (name, value) in counts {
                let other = b.get("exact_counts").and_then(|c| c.get(name));
                let (x, y) = (
                    value.as_f64().unwrap_or(f64::NAN),
                    other.and_then(Json::as_f64).unwrap_or(f64::NAN),
                );
                rows.push(Row {
                    workload: workload.clone(),
                    metric: format!("trace:{name}"),
                    base: x,
                    change: y,
                    worse: 0.0,
                    verdict: if x == y {
                        Verdict::Exact
                    } else {
                        Verdict::Differs
                    },
                });
            }
        }
    }
    rows
}

/// Prints the table and says whether every row passed.
pub fn run(base: &Path, change: &Path) -> Result<bool, String> {
    let rows = compare(&load(base)?, &load(change)?);
    if rows.is_empty() {
        return Err("the two sides share no workload".into());
    }
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "change", "worse", "bound"
    );
    for row in &rows {
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == row.metric)
            .and_then(|d| d.bound)
            .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
        println!(
            "{:<12} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>7}  {}",
            row.workload,
            row.metric,
            row.base,
            row.change,
            row.worse * 100.0,
            bound,
            row.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} exact, {} differ",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Exact),
        count(Verdict::Differs)
    );
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Bounds of their own, so the tests do not move with BENCHMARK.json.
    const LATENCY: MetricDef = MetricDef {
        name: "latency_ms",
        unit: "ms",
        higher_is_better: false,
        bound: Some(0.10),
    };
    const RECALL: MetricDef = MetricDef {
        name: "recall",
        unit: "ratio",
        higher_is_better: true,
        bound: Some(0.06),
    };

    #[test]
    fn lower_is_better_metric() {
        let p50 = &LATENCY;
        assert_eq!(judge(p50, &[100.0], &[109.0]).3, Verdict::Ok);
        assert_eq!(judge(p50, &[100.0], &[111.0]).3, Verdict::Regressed);
        assert_eq!(
            judge(p50, &[100.0], &[50.0]).3,
            Verdict::Ok,
            "faster is fine"
        );
        let (base, change, worse, _) = judge(p50, &[100.0], &[111.0]);
        assert_eq!((base, change), (100.0, 111.0));
        assert!((worse - 0.11).abs() < 1e-12);
    }

    #[test]
    fn higher_is_better_metric() {
        let recall = &RECALL;
        assert_eq!(judge(recall, &[0.9], &[0.85]).3, Verdict::Ok);
        assert_eq!(judge(recall, &[0.9], &[0.84]).3, Verdict::Regressed);
        assert_eq!(judge(recall, &[0.9], &[0.99]).3, Verdict::Ok);
    }

    #[test]
    fn medians_decide_and_wide_spread_is_unresolved() {
        let p50 = &LATENCY;
        // Medians 100 vs 105: within the bound, both sides tight.
        let base = [99.0, 100.0, 101.0, 100.0];
        let change = [104.0, 105.0, 106.0, 105.0];
        assert_eq!(judge(p50, &base, &change).3, Verdict::Ok);
        // A side whose quartiles are 40 % apart cannot resolve a 10 % bound,
        // whichever way the medians fall.
        let noisy = [80.0, 100.0, 120.0, 100.0, 130.0, 70.0];
        assert_eq!(judge(p50, &noisy, &change).3, Verdict::Unresolved);
        assert_eq!(judge(p50, &base, &noisy).3, Verdict::Unresolved);
    }

    fn result(workload: &str, traced: bool, seed: f64, body: (&str, Json)) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("traced", Json::Bool(traced)),
            ("scale", Json::str("full")),
            ("seed", Json::Num(seed)),
            body,
        ])
    }

    fn sets(docs: Vec<Json>) -> BTreeMap<(String, bool), Vec<Json>> {
        let mut out: BTreeMap<(String, bool), Vec<Json>> = BTreeMap::new();
        for d in docs {
            let key = (
                d.get("workload").unwrap().as_str().unwrap().to_string(),
                d.get("traced") == Some(&Json::Bool(true)),
            );
            out.entry(key).or_default().push(d);
        }
        out
    }

    #[test]
    fn compares_result_sets_by_workload() {
        let metrics = |p50: f64| {
            (
                "metrics",
                Json::obj([(
                    "remote_mb",
                    Json::obj([("value", Json::Num(p50)), ("unit", Json::str("MB"))]),
                )]),
            )
        };
        let counts = |bytes: f64| {
            (
                "exact_counts",
                Json::obj([("rdma.bytes", Json::Num(bytes))]),
            )
        };
        let base = sets(vec![
            result("cold_scan", false, 1.0, metrics(50.0)),
            result("warm_hot", false, 1.0, metrics(30.0)),
            result("cold_scan", true, 1.0, counts(4096.0)),
            result("warm_hot", true, 1.0, counts(0.0)),
        ]);
        let change = sets(vec![
            result("cold_scan", false, 1.0, metrics(60.0)),
            result("warm_hot", false, 1.0, metrics(30.5)),
            result("cold_scan", true, 1.0, counts(4096.0)),
            result("warm_hot", true, 2.0, counts(8.0)), // other seed: not comparable
            result("sq8_cold", false, 1.0, metrics(20.0)), // no base: skipped
        ]);
        let rows = compare(&base, &change);
        let verdicts: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("cold_scan", "remote_mb", Verdict::Regressed),
                ("cold_scan", "trace:rdma.bytes", Verdict::Exact),
                ("warm_hot", "remote_mb", Verdict::Ok),
            ]
        );
        let change = sets(vec![result("cold_scan", true, 1.0, counts(4097.0))]);
        assert_eq!(compare(&base, &change)[0].verdict, Verdict::Differs);
        assert!(
            Verdict::Differs.fails() && Verdict::Regressed.fails() && !Verdict::Unresolved.fails()
        );
    }
}
