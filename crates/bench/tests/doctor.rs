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
