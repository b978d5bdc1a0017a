//! `dhnsw-cli`: build, persist, and query d-HNSW stores from the command
//! line, against real `.fvecs` files or the synthetic generators.
//!
//! ```text
//! # Build a store from vectors and persist it:
//! dhnsw_cli build --input base.fvecs --out store.dhnsw --reps 500
//! dhnsw_cli build --synthetic sift:20000 --out store.dhnsw
//!
//! # Inspect it:
//! dhnsw_cli info --store store.dhnsw
//!
//! # Query it (prints ids + distances per query):
//! dhnsw_cli query --store store.dhnsw --queries q.fvecs --k 10 --ef 48
//!
//! # Insert more vectors and persist the mutated store:
//! dhnsw_cli insert --store store.dhnsw --input new.fvecs --out store2.dhnsw
//!
//! # Run a workload and dump the telemetry registry (run1.prom, run1.json):
//! dhnsw_cli query --store store.dhnsw --queries q.fvecs --metrics-out run1
//!
//! # Health check: probe the store, print the HealthReport JSON, and
//! # exit non-zero when an SLO budget is violated (latency and hit rate
//! # over the measured passes, the rest over the report):
//! dhnsw_cli doctor --store store.dhnsw --check --slo-max-overflow 0.9
//!
//! # Serve the live telemetry plane (first stdout line is the URL):
//! dhnsw_cli serve --store store.dhnsw --port 0
//! curl http://127.0.0.1:<port>/metrics
//!
//! # Watch a serving node live (sparklines + anomaly banner); the node
//! # renders each frame and answers it on /top:
//! dhnsw_cli top --url http://127.0.0.1:<port>
//! dhnsw_cli top --url http://127.0.0.1:<port> --once
//! ```
//!
//! Every subcommand runs on the simulated RDMA fabric and reports what
//! moved (round trips, bytes, virtual network time). `query` and `insert`
//! accept `--metrics-out <base>` to write the process-wide telemetry
//! registry to `<base>.prom` (Prometheus text format) and `<base>.json`.
//!
//! Workload subcommands accept `--trace-spans` and `--slow-query-us <n>`
//! (a nonzero budget turns capture on); without them no span is captured.
//!
//! Reliability knobs: `--fault-rate <p>` (with `--fault-seed <s>`) arms
//! seeded substrate fault injection on the session's queue pair;
//! `--read-retry-limit <n>` bounds the engine-level retries above the
//! substrate's retransmission budget, and `--degraded-ok` lets queries
//! answer from the clusters that arrived instead of failing the batch.
//!
//! A flag no subcommand reads, or a word where a flag belongs, is an
//! error (exit 2): a mistyped flag must not run the default.

use std::collections::HashMap;

use dhnsw::{
    snapshot, DHnswConfig, QuantizeMode, SearchMode, SeriesPoint, SloBudgets, Telemetry,
    VectorStore,
};
use vecsim::Dataset;

type AnyResult<T> = Result<T, Box<dyn std::error::Error>>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> AnyResult<()> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "build" => cmd_build(&flags),
        "info" => cmd_info(&flags),
        "query" => cmd_query(&flags),
        "insert" => cmd_insert(&flags),
        "doctor" => cmd_doctor(&flags),
        "serve" => cmd_serve(&flags),
        "top" => cmd_top(&flags),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand {other}").into())
        }
    }
}

/// Every flag some subcommand reads, and whether it takes a value: the
/// one list [`parse_flags`] accepts, each spelled in [`print_usage`]'s
/// text.
const FLAGS: [(&str, bool); 36] = [
    ("check", false),
    ("degraded-ok", false),
    ("ef", true),
    ("explain", false),
    ("fanout", true),
    ("fault-rate", true),
    ("fault-seed", true),
    ("input", true),
    ("interval-ms", true),
    ("k", true),
    ("limit", true),
    ("metrics-out", true),
    ("once", false),
    ("out", true),
    ("passes", true),
    ("port", true),
    ("quantize", true),
    ("queries", true),
    ("read-retry-limit", true),
    ("reps", true),
    ("rerank-k", true),
    ("retrans-budget", true),
    ("seed", true),
    ("series-tick-ms", true),
    ("slo-max-degraded-rate", true),
    ("slo-max-overflow", true),
    ("slo-max-route-gini", true),
    ("slo-min-hit-rate", true),
    ("slo-p99-us", true),
    ("slow-query-us", true),
    ("store", true),
    ("synthetic", true),
    ("trace-spans", false),
    ("url", true),
    ("warmup-passes", true),
    ("why-slow", false),
];

fn print_usage() {
    eprintln!("{USAGE}");
}

const USAGE: &str = "usage: dhnsw_cli <build|info|query|insert|doctor|serve|top> [flags]\n\
         build:   --input <fvecs> | --synthetic <sift|gist>:<n>   --out <snapshot> [--reps N] [--fanout B] [--seed S]\n\
                  [--quantize off|sq8] [--rerank-k N]\n\
         info:    --store <snapshot>\n\
         query:   --store <snapshot> --queries <fvecs> [--k K] [--ef EF] [--limit N] [--metrics-out <base>] [--explain]\n\
         insert:  --store <snapshot> --input <fvecs> --out <snapshot> [--limit N] [--metrics-out <base>]\n\
         serve:   --store <snapshot> [--queries <fvecs>] [--port P] [--k K] [--ef EF] [--series-tick-ms N]\n\
                  (endpoints: /metrics /health /traces /explain/last /profile/folded /exemplars /whyslow/<id>\n\
                   /timeseries?window=S&step=N /anomalies /top /shutdown)\n\
         top:     --url http://host:port [--once] [--interval-ms N]   (prints the node's /top frame)\n\
         doctor:  --store <snapshot> [--queries <fvecs>] [--passes N] [--warmup-passes N] [--out <path>] [--check] [--why-slow]\n\
                  [--slo-p99-us X] [--slo-min-hit-rate X] [--slo-max-overflow X] [--slo-max-route-gini X]\n\
                  [--slo-max-degraded-rate X]\n\
         all workload commands: [--quantize off|sq8] [--rerank-k N] [--trace-spans] [--slow-query-us N]\n\
                  [--fault-rate P] [--fault-seed S] [--retrans-budget N] [--read-retry-limit N] [--degraded-ok]";

/// Parses the flags after the subcommand: `--key value` for a valued
/// flag of [`FLAGS`], a bare `--key` (stored as `"1"`) for a boolean one
/// — e.g. `--check`, `--trace-spans`. Any other flag, a valued flag
/// without its value, and a word where a flag belongs are errors.
fn parse_flags(args: &[String]) -> AnyResult<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {arg}"))?;
        let (_, valued) = FLAGS
            .iter()
            .find(|(name, _)| *name == key)
            .ok_or_else(|| format!("unknown flag {arg}"))?;
        let value = if *valued {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value"))?
                .clone()
        } else {
            "1".to_string()
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn flag_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> AnyResult<usize> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => Ok(v.parse()?),
    }
}

fn flag_f64_opt(flags: &HashMap<String, String>, key: &str) -> AnyResult<Option<f64>> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => Ok(Some(v.parse()?)),
    }
}

/// Applies `--slow-query-us` / `--trace-spans` to the span tracer. A
/// nonzero slow-query budget turns capture on: it judges span trees.
fn apply_trace_flags(flags: &HashMap<String, String>, telemetry: &Telemetry) -> AnyResult<()> {
    if let Some(v) = flags.get("slow-query-us") {
        telemetry.spans().set_slow_threshold_us(v.parse()?);
    }
    if flags.contains_key("trace-spans") || telemetry.spans().slow_threshold_us() > 0 {
        telemetry.spans().set_enabled(true);
    }
    Ok(())
}

/// Arms seeded substrate fault injection on a connected node's queue
/// pair (`--fault-rate`, `--fault-seed`). Call after `connect()`.
fn apply_fault_flags(flags: &HashMap<String, String>, node: &dhnsw::ComputeNode) -> AnyResult<()> {
    if let Some(rate) = flag_f64_opt(flags, "fault-rate")? {
        let seed = flag_usize(flags, "fault-seed", 42)? as u64;
        node.queue_pair().set_fault_rate(rate, seed);
        eprintln!("fault injection armed: rate {rate}, seed {seed}");
    }
    // Mirrors the RC QP `retry_cnt` attribute (0–7 on real NICs): a
    // smaller budget surfaces drops to the engine's own retry loop
    // instead of absorbing them in silent retransmissions.
    if let Some(n) = flags.get("retrans-budget") {
        node.queue_pair().set_retry_limit(n.parse()?);
        eprintln!("retransmission budget set to {n}");
    }
    Ok(())
}

fn load_vectors(flags: &HashMap<String, String>) -> AnyResult<Dataset> {
    if let Some(path) = flags.get("input") {
        let file = std::fs::File::open(path)?;
        let ds = vecsim::io::read_fvecs(std::io::BufReader::new(file))?;
        eprintln!("loaded {} vectors x {}d from {path}", ds.len(), ds.dim());
        return Ok(ds);
    }
    if let Some(spec) = flags.get("synthetic") {
        let (kind, n) = spec
            .split_once(':')
            .ok_or("--synthetic wants <sift|gist>:<count>")?;
        let n: usize = n.parse()?;
        let seed = flag_usize(flags, "seed", 42)? as u64;
        let ds = match kind {
            "sift" => vecsim::gen::sift_like(n, seed)?,
            "gist" => vecsim::gen::gist_like(n, seed)?,
            other => return Err(format!("unknown synthetic kind {other}").into()),
        };
        eprintln!("generated {} synthetic {kind}-like vectors", ds.len());
        return Ok(ds);
    }
    Err("need --input <fvecs> or --synthetic <kind>:<n>".into())
}

/// Applies the wire-format knobs (`--quantize`, `--rerank-k`). SQ8 is
/// the default: builds emit the layout-v3 compressed copies and opened
/// stores prefer them on the wire when the snapshot carries them (a v2
/// snapshot without SQ spans falls back to full precision untouched).
/// `--quantize off` restores the uncompressed wire format.
fn apply_quantize_flags(
    flags: &HashMap<String, String>,
    config: DHnswConfig,
) -> AnyResult<DHnswConfig> {
    let mode = match flags.get("quantize") {
        Some(v) => QuantizeMode::parse(v)?,
        None => QuantizeMode::Sq8,
    };
    let mut config = config.with_quantize_mode(mode);
    if let Some(v) = flags.get("rerank-k") {
        config = config.with_rerank_k(v.parse()?);
    }
    Ok(config)
}

fn config_from(flags: &HashMap<String, String>, n: usize) -> AnyResult<DHnswConfig> {
    let reps = flag_usize(flags, "reps", (n / 2_000).clamp(32, 500))?;
    let fanout = flag_usize(flags, "fanout", 4)?;
    let slots = (n / reps / 8).max(16);
    apply_quantize_flags(
        flags,
        DHnswConfig::paper()
            .with_representatives(reps)
            .with_fanout(fanout)
            .with_overflow_slots(slots)
            .with_seed(flag_usize(flags, "seed", 0x5EED)? as u64),
    )
}

fn open_store(flags: &HashMap<String, String>) -> AnyResult<VectorStore> {
    let path = flags.get("store").ok_or("--store <snapshot> required")?;
    let file = std::fs::File::open(path)?;
    // The snapshot carries the data; runtime knobs come from flags.
    let mut config = DHnswConfig::paper()
        .with_fanout(flag_usize(flags, "fanout", 4)?)
        .with_representatives(500); // not used by restore
    if let Some(n) = flags.get("read-retry-limit") {
        config = config.with_read_retry_limit(n.parse()?);
    }
    if flags.contains_key("degraded-ok") {
        config = config.with_degraded_ok(true);
    }
    config = apply_quantize_flags(flags, config)?;
    let store = snapshot::read_snapshot(std::io::BufReader::new(file), &config)?;
    eprintln!(
        "restored store: {} base vectors, {} partitions, {:.1} MB remote",
        store.base_len(),
        store.partitions(),
        store.remote_bytes() as f64 / 1e6
    );
    Ok(store)
}

fn save_store(store: &VectorStore, flags: &HashMap<String, String>) -> AnyResult<()> {
    let path = flags.get("out").ok_or("--out <snapshot> required")?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    snapshot::write_snapshot(store, &mut file)?;
    use std::io::Write;
    file.flush()?;
    eprintln!("wrote snapshot to {path}");
    Ok(())
}

fn cmd_build(flags: &HashMap<String, String>) -> AnyResult<()> {
    let data = load_vectors(flags)?;
    let config = config_from(flags, data.len())?;
    let t = std::time::Instant::now();
    let store = VectorStore::build(data, &config)?;
    eprintln!(
        "built {} partitions over {} vectors in {:.1}s ({:.1} MB remote, meta {:.3} MB)",
        store.partitions(),
        store.base_len(),
        t.elapsed().as_secs_f64(),
        store.remote_bytes() as f64 / 1e6,
        store.meta().footprint_bytes() as f64 / 1e6
    );
    save_store(&store, flags)
}

fn cmd_info(flags: &HashMap<String, String>) -> AnyResult<()> {
    let store = open_store(flags)?;
    println!("partitions:   {}", store.partitions());
    println!("base vectors: {}", store.base_len());
    println!("dimension:    {}", store.dim());
    println!("remote bytes: {}", store.remote_bytes());
    println!("dir epoch:    {}", store.directory().epoch());
    println!(
        "meta-HNSW:    {} reps, {} layers, {:.3} MB",
        store.meta().partitions(),
        store.meta().max_level() + 1,
        store.meta().footprint_bytes() as f64 / 1e6
    );
    let mut sizes: Vec<usize> = (0..store.partitions() as u32)
        .map(|p| store.partition_size(p).unwrap_or(0))
        .collect();
    sizes.sort_unstable();
    println!(
        "cluster size: min {} / median {} / max {}",
        sizes.first().unwrap_or(&0),
        sizes.get(sizes.len() / 2).unwrap_or(&0),
        sizes.last().unwrap_or(&0)
    );
    Ok(())
}

fn load_queries(flags: &HashMap<String, String>) -> AnyResult<Dataset> {
    let qpath = flags.get("queries").ok_or("--queries <fvecs> required")?;
    let file = std::fs::File::open(qpath)?;
    let mut queries = vecsim::io::read_fvecs(std::io::BufReader::new(file))?;
    let limit = flag_usize(flags, "limit", queries.len())?;
    if queries.len() > limit {
        let ids: Vec<u32> = (0..limit as u32).collect();
        queries = queries.select(&ids);
    }
    Ok(queries)
}

/// The probe workload of `doctor` and `serve`: the `--queries`, or the
/// meta-HNSW representatives (one per partition, capped) when none are
/// given.
fn probe_queries(flags: &HashMap<String, String>, store: &VectorStore) -> AnyResult<Dataset> {
    if flags.contains_key("queries") {
        return load_queries(flags);
    }
    let n = store.meta().partitions().min(256);
    let rows: Vec<&[f32]> = (0..n as u32)
        .map(|p| store.meta().representative(p))
        .collect();
    Ok(Dataset::from_rows(&rows)?)
}

/// Dumps the process-wide telemetry registry to `<base>.prom` and
/// `<base>.json`. Both files land via temp-file + rename so a scraper
/// tailing them never reads a torn write.
fn write_metrics(base: &str) -> AnyResult<()> {
    let telemetry = Telemetry::global();
    let prom = format!("{base}.prom");
    dhnsw_bench::write_atomic(&prom, &telemetry.render_prometheus())?;
    let json = format!("{base}.json");
    dhnsw_bench::write_atomic(&json, &telemetry.snapshot_json())?;
    eprintln!("wrote metrics to {prom} and {json}");
    Ok(())
}

fn cmd_query(flags: &HashMap<String, String>) -> AnyResult<()> {
    let store = open_store(flags)?;
    let queries = load_queries(flags)?;
    let k = flag_usize(flags, "k", 10)?;
    let ef = flag_usize(flags, "ef", 48)?;

    let node = store.connect(SearchMode::Full)?;
    apply_trace_flags(flags, &Telemetry::global())?;
    apply_fault_flags(flags, &node)?;
    let (results, report) = node.query_batch(&queries, k, ef)?;
    for (i, hits) in results.iter().enumerate() {
        let row: Vec<String> = hits
            .iter()
            .map(|n| format!("{}:{:.4}", n.id, n.dist))
            .collect();
        println!("q{i}\t{}", row.join(" "));
    }
    eprintln!(
        "{} queries | {:.2} us/query ({:.1} us network total) | {} round trips | {:.2} MB read",
        report.queries,
        report.per_query_latency_us(),
        report.breakdown.network_us,
        report.round_trips,
        report.bytes_read as f64 / 1e6
    );
    if report.degraded_queries > 0 {
        eprintln!(
            "{} of {} queries degraded ({} engine read retries; mean coverage {:.3})",
            report.degraded_queries,
            report.queries,
            report.read_retries,
            report.coverage.iter().sum::<f64>() / report.coverage.len().max(1) as f64
        );
    }
    if flags.contains_key("explain") {
        eprintln!("read-cost ledger (bytes by cause):");
        eprint!("{}", report.ledger.render());
        if let Some(dominant) = report.ledger.dominant_cause() {
            eprintln!("dominant cause: {}", dominant.as_str());
        }
    }
    if let Some(base) = flags.get("metrics-out") {
        write_metrics(base)?;
    }
    Ok(())
}

fn cmd_insert(flags: &HashMap<String, String>) -> AnyResult<()> {
    let store = open_store(flags)?;
    let data = load_vectors(flags)?;
    let limit = flag_usize(flags, "limit", data.len())?;
    let take: Vec<u32> = (0..data.len().min(limit) as u32).collect();
    let batch = data.select(&take);

    let node = store.connect(SearchMode::Full)?;
    apply_trace_flags(flags, &Telemetry::global())?;
    apply_fault_flags(flags, &node)?;
    let results = node.insert_batch(&batch)?;
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let rejected = results.len() - ok;
    let stats = node.queue_pair().stats().snapshot();
    eprintln!(
        "inserted {ok}/{} vectors ({rejected} rejected: overflow full) | {} round trips, {} atomics",
        results.len(),
        stats.round_trips,
        stats.atomics
    );
    if rejected > 0 {
        eprintln!("hint: rebuild the store to fold overflow in and free space");
    }
    if let Some(base) = flags.get("metrics-out") {
        write_metrics(base)?;
    }
    save_store(&store, flags)
}

/// Resolves SLO budgets from the `--slo-*` flags; an absent flag leaves
/// its check off.
fn budgets_from(flags: &HashMap<String, String>) -> AnyResult<SloBudgets> {
    let mut b = SloBudgets::default();
    if let Some(v) = flag_f64_opt(flags, "slo-p99-us")? {
        b.max_p99_us = Some(v);
    }
    if let Some(v) = flag_f64_opt(flags, "slo-min-hit-rate")? {
        b.min_cache_hit_rate = Some(v);
    }
    if let Some(v) = flag_f64_opt(flags, "slo-max-overflow")? {
        b.max_overflow_occupancy = Some(v);
    }
    if let Some(v) = flag_f64_opt(flags, "slo-max-route-gini")? {
        b.max_route_gini = Some(v);
    }
    if let Some(v) = flag_f64_opt(flags, "slo-max-degraded-rate")? {
        b.max_degraded_rate = Some(v);
    }
    Ok(b)
}

/// Probes the store with a query workload, prints the machine-readable
/// [`dhnsw::HealthReport`] (heatmap, layout occupancy/fragmentation,
/// routing skew, cache and latency health), and evaluates the SLO
/// budgets: p99 latency and cache hit rate over the window of the
/// measured passes, the state budgets over the report, in that order.
/// With `--check`, any violated budget makes the process exit non-zero;
/// violations are also published to telemetry as counters and
/// structured span-trace warning events. With
/// `--why-slow`, the probe's slowest retained batch is diffed against
/// the reservoir baseline and the ranked diagnosis (retry-storm,
/// cache-cold, network-bound, …) prints as JSON on stdout after the
/// report.
///
/// The first `--warmup-passes` passes (default 1) run before fault
/// injection is armed and are discarded from the SLO window, the
/// tail-exemplar store and the profile: doctor diagnoses steady-state
/// behavior, and the one-off cold batch (cache fill + first
/// materialization) would otherwise sit at the top of the K-slowest set
/// forever and fail a hit-rate budget with its misses, masking the tail
/// the probe is trying to explain. `--warmup-passes 0` keeps the cold
/// batch in the measurement.
fn cmd_doctor(flags: &HashMap<String, String>) -> AnyResult<()> {
    let store = open_store(flags)?;
    let k = flag_usize(flags, "k", 10)?;
    let ef = flag_usize(flags, "ef", 48)?;

    let telemetry = Telemetry::global();
    let node = store.connect(SearchMode::Full)?;
    apply_trace_flags(flags, &telemetry)?;
    // The watchdog reports through the span ring; doctor always listens.
    telemetry.spans().set_enabled(true);

    let probes = probe_queries(flags, &store)?;
    let warmup = flag_usize(flags, "warmup-passes", 1)?;
    for _ in 0..warmup {
        node.query_batch(&probes, k, ef)?;
    }
    if warmup > 0 {
        // Drop the cold-start batches from the tail plane so the
        // measured passes below define both exemplars and baseline.
        telemetry.exemplars().clear();
        telemetry.profile().clear();
    }
    // Faults arm only for the measured passes: the warm-up must fill
    // the cache deterministically, not fight the injected drops.
    apply_fault_flags(flags, &node)?;
    // The windowed budgets judge the measured passes alone: one window
    // bracketed by two samples of this node, cut without ticking the
    // hub's shared recorder.
    let passes = flag_usize(flags, "passes", 2)?.max(1);
    let before = node.sample(0);
    for _ in 0..passes {
        node.query_batch(&probes, k, ef)?;
    }
    let window = SeriesPoint::between(&before, &node.sample(1_000_000));
    eprintln!(
        "probed with {} queries x {passes} passes (+{warmup} warm-up) (k={k}, ef={ef})",
        probes.len()
    );
    eprintln!("kernel: {}", vecsim::simd::active());
    // The report's own counter probe is measurement infrastructure,
    // not the data path under test: disarm injected faults so the
    // diagnosis always lands even after a destructive fault sweep.
    if flags.contains_key("fault-rate") || flags.contains_key("retrans-budget") {
        node.queue_pair().set_fault_rate(0.0, 1);
        node.queue_pair()
            .set_retry_limit(rdma_sim::DEFAULT_RETRY_LIMIT);
    }

    let mut health = node.health_report()?;
    let budgets = budgets_from(flags)?;
    health.violations = dhnsw::evaluate_slo_point(&window, &budgets, health.tail.slowest_trace_id);
    health
        .violations
        .extend(dhnsw::evaluate_slo(&health, &budgets));
    dhnsw::health::watchdog::emit(&telemetry, &health.violations);

    let text = health.to_json();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text)?;
            eprintln!("wrote health report to {path}");
        }
        None => println!("{text}"),
    }
    for v in &health.violations {
        match v.exemplar {
            Some(id) => eprintln!(
                "SLO violation: {} = {:.6} (limit {:.6}; exemplar trace_id={id})",
                v.budget, v.actual, v.limit
            ),
            None => eprintln!(
                "SLO violation: {} = {:.6} (limit {:.6})",
                v.budget, v.actual, v.limit
            ),
        }
    }
    if flags.contains_key("why-slow") {
        match telemetry.exemplars().diagnose_slowest() {
            Some((id, verdict, json)) => {
                eprintln!("why-slow: trace_id={id} verdict={verdict}");
                println!("{json}");
            }
            None => println!("{{\"verdict\": \"no_exemplars\"}}"),
        }
    }
    if flags.contains_key("check") && !health.violations.is_empty() {
        return Err(format!("{} SLO budget(s) violated", health.violations.len()).into());
    }
    Ok(())
}

/// Serves the live telemetry plane over HTTP: `GET /metrics`
/// (Prometheus text exposition), `/health` (a fresh [`dhnsw::HealthReport`]
/// probed from the node per request), `/traces` (chrome-trace JSON of
/// the recent span ring), `/explain/last` (the read-cost ledger of the
/// last query batch), `/profile/folded` (the always-on collapsed-stack
/// profile), `/exemplars` (the tail exemplar store), `/whyslow/<id>`
/// (ranked diagnosis of a retained exemplar), `/timeseries` (the
/// recorder's derived per-window points), `/anomalies` (online-detector
/// records), `/top` (the dashboard frame rendered from the recorder's
/// records, headed by the URL printed below) and `/shutdown` (graceful
/// stop).
///
/// Binds `127.0.0.1:<--port>` (default 0 = ephemeral) and prints the
/// resolved URL as the first stdout line so scripts can scrape it. A
/// probe batch runs before serving (the given `--queries`, or the
/// meta-HNSW representatives) so the ledger and latency series carry
/// real traffic from the first scrape.
///
/// A background sampler thread ticks the time-series recorder every
/// `--series-tick-ms` (default 1000) — the only place in the system
/// that feeds the recorder from the wall clock — and evaluates each
/// derived window against the SLO budgets (`--slo-*`),
/// publishing violations through the watchdog.
fn cmd_serve(flags: &HashMap<String, String>) -> AnyResult<()> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let store = open_store(flags)?;
    let k = flag_usize(flags, "k", 10)?;
    let ef = flag_usize(flags, "ef", 48)?;

    let telemetry = Telemetry::global();
    telemetry.spans().set_enabled(true);
    let node = Arc::new(store.connect(SearchMode::Full)?);
    apply_trace_flags(flags, &telemetry)?;
    apply_fault_flags(flags, &node)?;

    let probes = probe_queries(flags, &store)?;
    let (_, report) = node.query_batch(&probes, k, ef)?;
    eprintln!(
        "probed with {} queries (k={k}, ef={ef}); serving",
        probes.len()
    );
    let explain = format!(
        "read-cost ledger, last batch ({} queries):\n{}",
        report.queries,
        report.ledger.render()
    );

    let port = flag_usize(flags, "port", 0)?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", port as u16))?;
    let url = format!("http://{}", listener.local_addr()?);
    // First stdout line is the scrape URL; scripts depend on it.
    println!("{url}");
    use std::io::Write;
    std::io::stdout().flush()?;

    let sources = dhnsw_bench::serve::ServeSources {
        metrics: Box::new({
            let t = Arc::clone(&telemetry);
            move || t.render_prometheus()
        }),
        health: Box::new({
            let node = Arc::clone(&node);
            move || {
                node.health_report()
                    .map(|h| h.to_json())
                    .map_err(|e| e.to_string())
            }
        }),
        traces: Box::new({
            let t = Arc::clone(&telemetry);
            move || dhnsw::chrome_trace_json(&t.spans().recent())
        }),
        explain: Box::new(move || explain.clone()),
        profile: Box::new({
            let t = Arc::clone(&telemetry);
            move || t.profile().render_folded()
        }),
        exemplars: Box::new({
            let t = Arc::clone(&telemetry);
            move || t.exemplars().render_json()
        }),
        whyslow: Box::new({
            let t = Arc::clone(&telemetry);
            move |id: &str| {
                id.parse::<u64>()
                    .ok()
                    .and_then(|id| t.exemplars().whyslow_json(id))
            }
        }),
        timeseries: Box::new({
            let t = Arc::clone(&telemetry);
            move |window_s, step| t.series().render_json(window_s, step)
        }),
        anomalies: Box::new({
            let t = Arc::clone(&telemetry);
            move || t.series().anomalies_json()
        }),
        top: Box::new({
            let t = Arc::clone(&telemetry);
            move || {
                let series = t.series();
                dhnsw_bench::top::render_dashboard(
                    &series.points(),
                    &series.anomalies(),
                    series.anomaly_count(),
                    &url,
                    48,
                )
            }
        }),
    };

    // The sampler is the only wall-clock feeder the recorder has: the
    // core's tick() is timestamp-driven so every other caller stays
    // deterministic. Each derived window is also checked against the
    // SLO budgets, so a p99 or hit-rate breach shows up in the span
    // ring and the violation counters without waiting for a /health
    // probe.
    let tick_ms = flag_usize(flags, "series-tick-ms", 1_000)? as u64;
    let budgets = budgets_from(flags)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let sampler = std::thread::spawn({
        let node = Arc::clone(&node);
        let t = Arc::clone(&telemetry);
        let shutdown = Arc::clone(&shutdown);
        let start = std::time::Instant::now();
        move || {
            while !shutdown.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(tick_ms));
                let now_us = start.elapsed().as_micros() as u64;
                if let Some(point) = node.sample_series(now_us) {
                    let exemplar = t.exemplars().slowest().first().map(|r| r.trace_id);
                    let violations = dhnsw::evaluate_slo_point(&point, &budgets, exemplar);
                    if !violations.is_empty() {
                        dhnsw::health::watchdog::emit(&t, &violations);
                    }
                }
            }
        }
    });
    let served = dhnsw_bench::serve::serve_loop(listener, &sources, &shutdown)?;
    shutdown.store(true, Ordering::Relaxed);
    sampler.join().map_err(|_| "series sampler panicked")?;
    eprintln!("served {served} requests; bye");
    Ok(())
}

/// Live `top`-style dashboard against a serving node: GETs the frame the
/// node renders on `--url`'s `/top` (sparklines for QPS, windowed p99,
/// bytes/s in total and by read cause, cache hit rate, plus an anomaly
/// banner) and prints it, refreshing every `--interval-ms` (default
/// 1000). With `--once` it prints a single frame without clearing the
/// screen and exits — exactly the `/top` body, which is what
/// `scripts/check.sh` holds it to.
fn cmd_top(flags: &HashMap<String, String>) -> AnyResult<()> {
    let url = flags
        .get("url")
        .ok_or("--url http://host:port required")?
        .trim_end_matches('/');
    let once = flags.contains_key("once");
    let interval =
        std::time::Duration::from_millis(flag_usize(flags, "interval-ms", 1_000)? as u64);
    loop {
        let frame =
            dhnsw_bench::top::http_get(&format!("{url}/top"), std::time::Duration::from_secs(5))?;
        if once {
            print!("{frame}");
            return Ok(());
        }
        // ANSI clear + home, then the fresh frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        std::io::stdout().flush()?;
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flags_handles_boolean_and_valued_flags() {
        let f = parse_flags(&s(&[
            "--store",
            "x",
            "--check",
            "--slo-min-hit-rate",
            "2.0",
        ]))
        .unwrap();
        assert_eq!(f.get("store").unwrap(), "x");
        assert_eq!(f.get("check").unwrap(), "1");
        assert_eq!(f.get("slo-min-hit-rate").unwrap(), "2.0");
        // Trailing boolean flag, and a bare word where a flag belongs.
        assert_eq!(
            parse_flags(&s(&["--trace-spans"]))
                .unwrap()
                .get("trace-spans")
                .unwrap(),
            "1"
        );
        assert!(parse_flags(&s(&["store"])).is_err());
    }

    #[test]
    fn a_flag_no_subcommand_reads_is_refused() {
        assert!(parse_flags(&s(&["--no-such-flag", "1"])).is_err());
        assert!(parse_flags(&s(&["--store", "x", "--no-such-flag"])).is_err());
        // `--format` went with the `metrics` subcommand, its one reader.
        assert!(parse_flags(&s(&["--format", "prom"])).is_err());
        // A second positional argument, after a boolean flag or not.
        assert!(parse_flags(&s(&["--check", "extra"])).is_err());
        assert!(run(&s(&["info", "extra"])).is_err());
        // A valued flag without its value.
        assert!(parse_flags(&s(&["--k"])).is_err());
    }

    #[test]
    fn the_flag_list_is_the_usage_texts() {
        let mut spelled: Vec<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| {
                rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .next()
                    .unwrap()
            })
            .collect();
        spelled.sort_unstable();
        spelled.dedup();
        let listed: Vec<&str> = FLAGS.iter().map(|(name, _)| *name).collect();
        assert_eq!(spelled, listed);
    }

    #[test]
    fn doctor_check_trips_watchdog_and_exits_nonzero() {
        let dir = std::env::temp_dir().join(format!("dhnsw_cli_doctor_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.dhnsw");
        let data = vecsim::gen::sift_like(1_200, 11).unwrap();
        let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
        {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&snap).unwrap());
            snapshot::write_snapshot(&store, &mut file).unwrap();
            use std::io::Write;
            file.flush().unwrap();
        }

        // A cache hit rate above 1.0 is unsatisfiable, so the budget
        // must always trip and --check must fail.
        let out = dir.join("health.json");
        let args = s(&[
            "doctor",
            "--store",
            snap.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--check",
            "--slo-min-hit-rate",
            "2.0",
        ]);
        let err = run(&args).expect_err("unsatisfiable budget must fail --check");
        assert!(err.to_string().contains("SLO"), "got: {err}");

        // The report on disk carries the violation...
        let report = std::fs::read_to_string(&out).unwrap();
        assert!(report.contains("\"violations\""));
        assert!(report.contains("\"cache_hit_rate\""));
        assert!(report.contains("\"heatmap\""));
        assert!(report.contains("\"occupancy\""));

        // ...and the watchdog left a structured warning in the span ring.
        let traces = Telemetry::global().spans().recent();
        assert!(
            traces
                .iter()
                .any(|t| t.label == "watchdog"
                    && t.spans.iter().any(|sp| sp.name == "slo_violation")),
            "no watchdog trace found"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
