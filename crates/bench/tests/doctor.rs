//! `dhnsw_cli doctor` end to end, each run in a process of its own so
//! no other test's traffic lands in its process-global telemetry hub.

use std::path::Path;
use std::process::{Command, Output};

fn cli(args: &[&str], paths: &[(&str, &Path)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dhnsw_cli"));
    cmd.args(args);
    for (flag, path) in paths {
        cmd.arg(flag).arg(path);
    }
    cmd.output().expect("dhnsw_cli runs")
}

#[test]
fn doctor_judges_the_measured_passes_not_the_warm_up() {
    let dir = std::env::temp_dir().join(format!("dhnsw_doctor_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.dhnsw");
    let queries = dir.join("one.fvecs");
    // 32 partitions and a cache of 4 clusters, the fanout: one query's
    // clusters all stay resident once the warm-up has loaded them.
    let built = cli(&["build", "--synthetic", "sift:4000"], &[("--out", &store)]);
    assert!(
        built.status.success(),
        "{}",
        String::from_utf8_lossy(&built.stderr)
    );
    let one = vecsim::Dataset::from_rows(&[&[64.0f32; 128][..]]).unwrap();
    vecsim::io::write_fvecs(std::fs::File::create(&queries).unwrap(), &one).unwrap();
    let doctor = |budget: &[&str]| {
        let mut args = vec!["doctor", "--warmup-passes", "1", "--passes", "2", "--check"];
        args.extend_from_slice(budget);
        cli(&args, &[("--store", &store), ("--queries", &queries)])
    };

    // The warm-up's misses are not the measured passes' business: every
    // measured plan finds its clusters resident.
    let warm = doctor(&["--slo-min-hit-rate", "0.99"]);
    // A 1 µs p99 budget still trips, on the measured window.
    let slow = doctor(&["--slo-p99-us", "1"]);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        warm.status.success(),
        "doctor judged the warm-up:\n{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert!(!slow.status.success(), "a 1 us p99 budget must trip");
    let report = String::from_utf8_lossy(&slow.stdout);
    assert!(
        report.contains("\"budget\": \"p99_latency_us\""),
        "{report}"
    );
}

#[test]
fn doctor_judges_the_degraded_rate_on_the_measured_window() {
    let dir = std::env::temp_dir().join(format!("dhnsw_doctor_degraded_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.dhnsw");
    let built = cli(&["build", "--synthetic", "sift:4000"], &[("--out", &store)]);
    assert!(
        built.status.success(),
        "{}",
        String::from_utf8_lossy(&built.stderr)
    );
    // One clean warm-up pass over the meta-HNSW representatives, then one
    // measured pass with every verb dropped: the cache holds 4 of 32
    // clusters, so every measured query loses some of its clusters. Over
    // the window the degraded rate reads 1.0; over both passes it would
    // read 0.5, inside the 0.75 budget.
    let args = [
        "doctor",
        "--warmup-passes",
        "1",
        "--passes",
        "1",
        "--fault-rate",
        "1.0",
        "--degraded-ok",
        "--slo-max-degraded-rate",
        "0.75",
        "--check",
    ];
    let out = cli(&args, &[("--store", &store)]);
    std::fs::remove_dir_all(&dir).ok();

    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "a fully degraded window must trip the budget:\n{report}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        report
            .contains("{\"budget\": \"degraded_rate\", \"actual\": 1.000000, \"limit\": 0.750000"),
        "{report}"
    );
}
