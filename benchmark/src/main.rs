//! The repository benchmark. One process runs one workload closed-loop
//! (one client, the next batch is sent when the previous one returned)
//! and measures the d-HNSW crates from outside, through their public
//! functions only. See `benchmark/README.md`.

mod bench;
mod calib;
mod clock;
mod compare;
mod json;
mod replay;
mod report;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::RunOpts;
use report::{result_line, write_out, END_TO_END, PER_LAYER};
use workload::{Scale, WORKLOADS};

const USAGE: &str = "\
usage: dhnsw-benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
                       [--smoke] [--out <dir>]
       dhnsw-benchmark --compare <base.json|dir> <change.json|dir>
       dhnsw-benchmark --list";

struct Cli {
    opts: RunOpts,
    traced: bool,
    out: PathBuf,
}

enum Command {
    Run(Box<Cli>),
    Compare(PathBuf, PathBuf),
    List,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut scale = Scale::FULL;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}")),
                }
            }
            "--smoke" => scale = Scale::SMOKE,
            "--out" => out = PathBuf::from(value("a directory")?),
            "--compare" => {
                let base = PathBuf::from(value("two paths")?);
                let change = PathBuf::from(value("two paths")?);
                return Ok(Command::Compare(base, change));
            }
            "--list" => return Ok(Command::List),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::find(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    if scale == Scale::SMOKE {
        // The smoke scale is count-bound: it exists to be quick.
        seconds = 0.0;
    }
    Ok(Command::Run(Box::new(Cli {
        opts: RunOpts {
            spec,
            scale,
            seed: seed.ok_or("--seed is required")?,
            seconds,
        },
        traced,
        out,
    })))
}

fn run(cli: &Cli, out: &Path) -> Result<bool, bench::Error> {
    let calibration = calib::calibrate();
    let (tally, metrics, doc, table, file) = if cli.traced {
        let (t, m, d) = replay::run(&cli.opts, &calibration)?;
        (
            t,
            m,
            d,
            &PER_LAYER[..],
            format!("trace-{}.json", cli.opts.spec.name),
        )
    } else {
        let (t, m, d) = bench::run(&cli.opts, &calibration)?;
        (
            t,
            m,
            d,
            &END_TO_END[..],
            format!("{}.json", cli.opts.spec.name),
        )
    };
    write_out(out, &file, &doc)?;
    println!(
        "# {} seed {} scale {} {}",
        cli.opts.spec.name,
        cli.opts.seed,
        cli.opts.scale.name,
        if cli.traced { "traced" } else { "un-traced" }
    );
    metrics.print(table);
    for (name, m) in doc
        .get("ungated")
        .and_then(json::Json::as_obj)
        .unwrap_or_default()
    {
        let value = m
            .get("value")
            .and_then(json::Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(json::Json::as_str).unwrap_or("");
        println!("{name:<40} {value:>16.6} {unit} (not gated)");
    }
    println!("{:<40} {:>16.6} ratio", "fail_ratio", tally.fail_ratio());
    for broken in &tally.broken {
        println!("CHECK FAILED: {broken}");
    }
    println!("{}", result_line(&tally, &metrics, table));
    Ok(tally.correct())
}

fn main() -> ExitCode {
    // Stray configuration in the environment must not change a workload.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DHNSW_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::List) => {
            for w in &WORKLOADS {
                println!("{:<12} {}", w.name, w.why);
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(base, change)) => match compare::run(&base, &change) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(cli)) => match run(&cli, &cli.out) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark could not run: {e}");
                ExitCode::from(3)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let Ok(Command::Run(cli)) =
            parse(&args("--workload warm_hot --seed 7 --seconds 8 --trace 1"))
        else {
            panic!("should parse");
        };
        assert_eq!(cli.opts.spec.name, "warm_hot");
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.traced),
            (7, 8.0, true)
        );
        assert_eq!(cli.opts.scale, Scale::FULL);
        assert!(matches!(
            parse(&args("--compare a.json b.json")),
            Ok(Command::Compare(_, _))
        ));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload cold_scan",
            "--workload cold_scan --seed x",
            "--workload cold_scan --seed 1 --trace 2",
            "--workload cold_scan --seed 1 --seconds -1",
            "--workload cold_scan --seed 1 --bogus",
            "--compare only-one",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    /// Every workload end to end, un-traced and traced, at the smoke
    /// scale: the harness itself is what this tests. All runs share one
    /// test because the engine reports to a process-wide telemetry hub.
    #[test]
    fn smoke_scale_runs_every_workload() {
        let out =
            std::env::temp_dir().join(format!("dhnsw-benchmark-smoke-{}", std::process::id()));
        let calibration = calib::calibrate();
        for spec in WORKLOADS {
            let opts = RunOpts {
                spec,
                scale: Scale::SMOKE,
                seed: 11,
                seconds: 0.0,
            };
            let (tally, metrics, doc) = bench::run(&opts, &calibration).unwrap();
            assert!(tally.correct(), "{}: {:?}", spec.name, tally);
            assert!(tally.attempted > 0);
            let line = result_line(&tally, &metrics, &END_TO_END);
            let parsed = json::Json::parse(&line).unwrap();
            for def in &END_TO_END {
                let v = parsed.get("metrics").unwrap().get(def.name).unwrap();
                assert!(
                    v.get("value").unwrap().as_f64().unwrap() > 0.0,
                    "{} {}",
                    spec.name,
                    def.name
                );
            }
            write_out(&out, &format!("{}.json", spec.name), &doc).unwrap();

            let (tally, metrics, doc) = replay::run(&opts, &calibration).unwrap();
            assert!(tally.correct(), "{} traced: {:?}", spec.name, tally);
            let line = result_line(&tally, &metrics, &PER_LAYER);
            assert!(json::Json::parse(&line).is_ok());
            let rerank = metrics.get("engine.bytes_rerank_per_query").unwrap();
            assert_eq!(rerank > 0.0, spec.name == "sq8_cold", "{}", spec.name);
            let invalidated = metrics.get("store.invalidated_clusters_per_round").unwrap();
            assert_eq!(invalidated > 0.0, spec.name == "mixed_rw", "{}", spec.name);
            if spec.name == "warm_hot" {
                assert_eq!(metrics.get("rdma.bytes_per_query"), Some(0.0));
                assert_eq!(metrics.get("cache.hit_rate"), Some(1.0));
            }
            write_out(&out, &format!("trace-{}.json", spec.name), &doc).unwrap();
        }
        // A set of results agrees with itself.
        assert_eq!(compare::run(&out, &out), Ok(true));
        std::fs::remove_dir_all(&out).unwrap();
    }
}
