//! Regenerates every table and figure of the d-HNSW paper.
//!
//! ```text
//! cargo run -p dhnsw-bench --bin repro --release -- all
//! cargo run -p dhnsw-bench --bin repro --release -- fig6a
//! ```
//!
//! Subcommands: `fig6a` `fig6b` `fig6c` `fig6d` `table1` `table2`
//! `metasize` `ablations` `faults` `all`, and `scale`
//! and `subsearch` (not part of `all`). Scale via `DHNSW_SIFT_N`, `DHNSW_GIST_N`,
//! `DHNSW_QUERIES`, `DHNSW_REPS` (see crate docs); one that does not
//! parse exits 2 before anything is measured at the wrong size.
//! `faults` sweeps seeded substrate fault rates and reports recall,
//! retransmissions, engine retries, and degraded-query coverage.
//! `scale` builds the standard SIFT workload's store on the
//! full-precision and on the SQ8 wire and gates the compressed wire's
//! byte and recall claims at that size. `subsearch` times one resident
//! cluster's walk against its block scan by size — the measurement
//! `dhnsw::cluster::SCAN_ROWS_PER_EF` is read off.
//!
//! Pass `--metrics-out <base>` to additionally dump the process-wide
//! telemetry registry (every query the run issued) to `<base>.prom`
//! (Prometheus text format 0.0.4, the registry's one exposition) after
//! the run.
//!
//! `repro` captures no span tree: nothing it prints renders one.
//!
//! Any other flag, or a second subcommand, is a usage error (exit 2):
//! a mistyped flag must not run the default.

use std::process::ExitCode;

use dhnsw::cluster::{scans, LoadedCluster, ProbeScratch, SqCluster, SubCluster};
use dhnsw::snapshot::{read_snapshot, write_snapshot};
use dhnsw::{DHnswConfig, QuantizeMode, SearchMode, Telemetry, VectorStore};
use dhnsw_bench::{
    breakdown_rows, env_usize, print_breakdown_table, print_sweep_table, sweep, DatasetKind,
    Workload,
};
use rdma_sim::NetworkModel;

type AnyResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("Error: {e}");
            // A setting that does not parse or validate is a usage
            // error, like an unknown subcommand.
            let usage = matches!(e.downcast_ref(), Some(dhnsw::Error::InvalidParameter(_)));
            ExitCode::from(if usage { 2 } else { 1 })
        }
    }
}

/// What the command line asks for.
#[derive(Debug, Default, PartialEq)]
struct Args {
    cmd: Option<String>,
    metrics_out: Option<String>,
}

fn print_usage() {
    eprintln!(
        "usage: repro [fig6a|fig6b|fig6c|fig6d|table1|table2|metasize|ablations|faults|scale|\
         subsearch|all] [--metrics-out <base>]"
    );
}

/// Parses the command line: at most one subcommand and the flags
/// [`print_usage`] lists, each read here and nowhere else.
fn parse_args(args: impl IntoIterator<Item = String>) -> AnyResult<Args> {
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--metrics-out" => out.metrics_out = Some(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            _ if out.cmd.is_some() => return Err(format!("a second subcommand {arg}").into()),
            _ => out.cmd = Some(arg),
        }
    }
    Ok(out)
}

fn run() -> AnyResult {
    let telemetry = Telemetry::global();
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        print_usage();
        std::process::exit(2);
    });
    // A time taken at one kernel width is not comparable with one at another.
    println!("kernel: {}", vecsim::simd::active());
    run_cmd(args.cmd.as_deref().unwrap_or("all"))?;
    if let Some(base) = args.metrics_out {
        // Temp-file + rename: a scraper tailing this path mid-run sees
        // the previous dump or this one, never a torn write.
        let prom = format!("{base}.prom");
        dhnsw_bench::write_atomic(&prom, &telemetry.render_prometheus())?;
        eprintln!("[metrics] {prom}");
    }
    Ok(())
}

fn run_cmd(cmd: &str) -> AnyResult {
    match cmd {
        "fig6a" => fig6(DatasetKind::SiftLike, 10, "Fig 6(a): SIFT, top-10"),
        "fig6b" => fig6(DatasetKind::SiftLike, 1, "Fig 6(b): SIFT, top-1"),
        "fig6c" => fig6(DatasetKind::GistLike, 10, "Fig 6(c): GIST, top-10"),
        "fig6d" => fig6(DatasetKind::GistLike, 1, "Fig 6(d): GIST, top-1"),
        "table1" => table(DatasetKind::SiftLike, "Table 1: SIFT1M@1, efSearch 48"),
        "table2" => table(DatasetKind::GistLike, "Table 2: GIST1M@1, efSearch 48"),
        "metasize" => metasize(),
        "ablations" => ablations(),
        "faults" => fault_sweep(),
        "scale" => scale(),
        "subsearch" => subsearch(),
        "all" => {
            // Each dataset's workload + store are reused across its
            // figure and table so `all` builds each store once.
            let sift = Workload::standard(DatasetKind::SiftLike)?;
            let sift_store = sift.build_store()?;
            run_fig6(&sift, &sift_store, 10, "Fig 6(a): SIFT, top-10")?;
            run_fig6(&sift, &sift_store, 1, "Fig 6(b): SIFT, top-1")?;
            run_table(&sift, &sift_store, "Table 1: SIFT1M@1, efSearch 48")?;
            let gist = Workload::standard(DatasetKind::GistLike)?;
            let gist_store = gist.build_store()?;
            run_fig6(&gist, &gist_store, 10, "Fig 6(c): GIST, top-10")?;
            run_fig6(&gist, &gist_store, 1, "Fig 6(d): GIST, top-1")?;
            run_table(&gist, &gist_store, "Table 2: GIST1M@1, efSearch 48")?;
            metasize()?;
            ablations()?;
            fault_sweep()
        }
        other => {
            eprintln!("unknown subcommand {other}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn fig6(kind: DatasetKind, k: usize, title: &str) -> AnyResult {
    let w = Workload::standard(kind)?;
    let store = w.build_store()?;
    run_fig6(&w, &store, k, title)
}

fn run_fig6(w: &Workload, store: &VectorStore, k: usize, title: &str) -> AnyResult {
    let mut schemes = Vec::new();
    for mode in [SearchMode::Naive, SearchMode::NoDoorbell, SearchMode::Full] {
        eprintln!("[sweep] {title}: {mode}");
        schemes.push((mode, sweep(store, mode, w, k)?));
    }
    print_sweep_table(
        &format!(
            "{title} | {} queries, fanout {}",
            w.queries.len(),
            store.config().fanout()
        ),
        &schemes,
    );
    let slug = title
        .split(':')
        .next()
        .unwrap_or(title)
        .to_lowercase()
        .replace([' ', '(', ')'], "");
    let path = dhnsw_bench::csv::write_sweep_csv("results", &slug, &schemes)?;
    eprintln!("[csv] {}", path.display());
    Ok(())
}

fn table(kind: DatasetKind, title: &str) -> AnyResult {
    let w = Workload::standard(kind)?;
    let store = w.build_store()?;
    run_table(&w, &store, title)
}

fn run_table(w: &Workload, store: &VectorStore, title: &str) -> AnyResult {
    let rows = breakdown_rows(store, w)?;
    print_breakdown_table(
        &format!(
            "{title} | batch {} (latencies are per batch, as in the paper)",
            w.queries.len()
        ),
        &rows,
    );
    let slug = title
        .split(':')
        .next()
        .unwrap_or(title)
        .to_lowercase()
        .replace(' ', "");
    let path = dhnsw_bench::csv::write_breakdown_csv("results", &slug, &rows)?;
    eprintln!("[csv] {}", path.display());
    Ok(())
}

/// The compressed wire's claims at the standard SIFT workload's size,
/// under the configuration every figure uses ([`Workload::config`]): the
/// query set in 128-query batches against a node that starts cold, once
/// per wire format, the two stores built one after the other so only one
/// layout is resident. Gated: SQ8 moves under 0.30x the full-precision
/// bytes (u8 codes are 4x smaller than f32 rows; the rerank reads and
/// quantization parameters must not eat the win) and exact rerank holds
/// recall@10 within 0.005. Reported beside them, not gated: the host's
/// sub-search time per query (`breakdown.sub_hnsw_us`, wall clock, SQ8's
/// rerank included) — what a wire costs once its bytes are resident —
/// with what decides it: the base rows of the cluster a probe lands on,
/// and the share of probes that scan their cluster whole instead of
/// walking it (every SQ8 probe; a full-precision one where [`scans`]
/// says so at efSearch).
fn scale() -> AnyResult {
    let w = Workload::standard(DatasetKind::SiftLike)?;
    let base = w.config()?;
    println!("\n=== Scale: full-precision vs SQ8 wire, cold node, top-10, efSearch 48 ===");
    println!(
        "{:<5} {:>9} {:>10} {:>7} {:>6} {:>8} {:>14} {:>10} {:>11} {:>11} {:>8} {:>8}",
        "wire",
        "n",
        "partitions",
        "M/efC",
        "b",
        "queries",
        "bytes",
        "recall@10",
        "sub us/q",
        "rows/probe",
        "scanned",
        "build s"
    );
    let query_rows: Vec<u32> = (0..w.queries.len() as u32).collect();
    let mut rows = Vec::new();
    for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
        let t0 = std::time::Instant::now();
        let store = VectorStore::build(w.data.clone(), &base.clone().with_quantize_mode(wire))?;
        let build_s = t0.elapsed().as_secs_f64();
        let node = store.connect(SearchMode::Full)?;
        let (mut bytes, mut sub_us, mut ids) = (0u64, 0.0, Vec::with_capacity(w.queries.len()));
        for batch in query_rows.chunks(128) {
            let (results, r) = node.query_batch(&w.queries.select(batch), 10, 48)?;
            bytes += r.bytes_read;
            sub_us += r.breakdown.sub_hnsw_us;
            ids.extend(
                results
                    .iter()
                    .map(|x| x.iter().map(|n| n.id).collect::<Vec<u32>>()),
            );
        }
        let rec = vecsim::recall::mean_recall(&ids, w.truth(10));
        let sub = store.config().sub_params();
        let routes = w
            .queries
            .iter()
            .flat_map(|q| store.meta().route(q, store.config().fanout()));
        let probed: Vec<usize> = routes
            .map(|r| store.partition_sizes()[r.id as usize])
            .collect();
        let scanned = |rows: usize| wire == QuantizeMode::Sq8 || scans(rows, 48);
        println!(
            "{:<5} {:>9} {:>10} {:>7} {:>6} {:>8} {:>14} {:>10.4} {:>11.1} {:>11.1} {:>7.1}% {:>8.1}",
            wire.as_str(),
            w.data.len(),
            store.partitions(),
            format!("{}/{}", sub.m(), sub.ef_construction()),
            store.config().fanout(),
            w.queries.len(),
            bytes,
            rec,
            sub_us / w.queries.len() as f64,
            probed.iter().sum::<usize>() as f64 / probed.len() as f64,
            100.0 * probed.iter().filter(|&&rows| scanned(rows)).count() as f64 / probed.len() as f64,
            build_s
        );
        rows.push((bytes, rec));
    }
    let ((full_bytes, full_rec), (sq_bytes, sq_rec)) = (rows[0], rows[1]);
    println!(
        "sq8 / full bytes: {:.3}",
        sq_bytes as f64 / full_bytes as f64
    );
    if sq_bytes as f64 >= 0.30 * full_bytes as f64 {
        return Err(format!(
            "scale gate: sq8 moved {sq_bytes} bytes, not under 0.30x of the uncompressed {full_bytes}"
        )
        .into());
    }
    if sq_rec + 0.005 < full_rec {
        return Err(format!(
            "scale gate: sq8 recall {sq_rec} fell more than 0.005 below the uncompressed {full_rec}"
        )
        .into());
    }
    Ok(())
}

/// A resident cluster's two sub-searches by size: the sub-HNSW walk (the
/// owning index's `search_in`, the walk a loaded cluster runs over the
/// same rows and adjacency) against the block scan over its
/// full-precision rows and over its SQ8 codes ([`LoadedCluster::probe`]
/// with a beam wide enough that the rule scans), for blocks of 1, 4, 6, 8
/// and 16 queries; a walk shares no work with its block, only the cache lines
/// the probes before it pulled in. As in a worker's cluster-major run,
/// consecutive blocks land on different clusters — 16 MiB of rows in
/// rotation, so a block finds its cluster in L3, not where the previous
/// probe left it. The lone-probe rows are what
/// [`dhnsw::cluster::SCAN_ROWS_PER_EF`] is read off: the scan must be no
/// slower than the walk at every size up to the cut-off, 1 000–1 500 rows
/// in steps of 100 around it. `seeded` is the f32 scan with each query
/// carrying, as the engine's probes do, the k-th distance a prior probe
/// found: here that of its nearest cluster (the one holding its nearest
/// row). `admitted` is the share of a scan's (row, query) pairs its
/// collector holds rather than refuses, unseeded / seeded, query i against
/// cluster i of the rotation. Wall clock: run it under `taskset -c <cpu>`.
fn subsearch() -> AnyResult {
    const K: usize = 10;
    const EF: usize = 48;
    const SLACK: usize = 32; // DHnswConfig::paper()'s rerank pool
    const ROUNDS: usize = 7;
    const QUERIES: usize = 512;
    let cut = (1..)
        .take_while(|&rows| scans(rows, EF))
        .last()
        .unwrap_or(0);
    println!("\n=== Sub-search: walk vs block scan, 128-d, M 16, top-{K}, efSearch {EF} (scan up to {cut} rows) ===");
    println!(
        "us per probe, median of {ROUNDS} rounds of {QUERIES} probes over clusters in rotation"
    );
    println!(
        "{:>6} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9} {:>13}",
        "rows", "clusters", "block", "walk", "f32 scan", "seeded", "sq8 scan", "admitted %"
    );
    for rows in [100, 300, 600, cut, 1_000, 1_100, 1_200, 1_300, 1_500, 2_000] {
        let count = (16 << 20) / (rows * 128 * 4);
        let data = vecsim::gen::sift_like(count * rows, 7)?;
        let batch = vecsim::gen::perturbed_queries(&data, QUERIES, 0.03, 8)?;
        let queries: Vec<&[f32]> = batch.iter().collect();
        let mut clusters = Vec::with_capacity(count);
        for c in 0..count {
            let ids: Vec<u32> = (c * rows..(c + 1) * rows).map(|i| i as u32).collect();
            let slice = data.select(&ids);
            let sq = SqCluster::build(0, &slice, ids.clone())?.to_bytes();
            let sub = SubCluster::build(0, slice, ids, &hnsw::HnswParams::new(16, 100))?;
            let full = LoadedCluster::adopt(sub.to_bytes(), 0, false, None)?;
            clusters.push((sub, full, LoadedCluster::adopt(sq, 0, true, None)?));
        }
        let nearest = vecsim::ground_truth::exact_batch(&data, &batch, 1, vecsim::Metric::L2);
        let seeds: Vec<f32> = (queries.iter().zip(&nearest))
            .map(|(q, row)| clusters[row[0].id as usize / rows].1.search(q, K, rows)[K - 1].dist)
            .collect();
        let admitted = |seeded: bool| {
            let (mut held, mut top) = (0, vecsim::TopK::new(K));
            for (i, q) in queries.iter().enumerate() {
                let full = &clusters[i % count].1;
                top.reset_below(K, if seeded { seeds[i] } else { f32::INFINITY });
                let row = |local| full.base_vector(local).expect("a base row");
                held += (0..rows as u32)
                    .filter(|&local| top.push(local, vecsim::l2_sq(q, row(local))))
                    .count();
            }
            100.0 * held as f64 / (QUERIES * rows) as f64
        };
        let admitted = format!("{:.1} / {:.1}", admitted(false), admitted(true));
        let mut scratch = ProbeScratch::default();
        let mut walk = hnsw::SearchScratch::default();
        let mut stats = hnsw::SearchStats::default();
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        for block in [1, 4, 6, 8, 16] {
            type Cluster = (SubCluster, LoadedCluster, LoadedCluster);
            type Probe<'a> = dyn FnMut(&Cluster, &[&[f32]], &[f32]) + 'a;
            // One rotation across rounds: a round of few blocks must not
            // keep meeting the same few clusters.
            let mut rotation = clusters.iter().cycle();
            let mut time = |probe: &mut Probe<'_>| {
                let mut rounds: Vec<f64> = (0..ROUNDS)
                    .map(|_| {
                        let t0 = std::time::Instant::now();
                        let blocks = queries.chunks(block).zip(seeds.chunks(block));
                        for ((qs, bounds), cluster) in blocks.zip(rotation.by_ref()) {
                            probe(cluster, qs, bounds);
                        }
                        t0.elapsed().as_secs_f64() * 1e6 / QUERIES as f64
                    })
                    .collect();
                rounds.sort_by(f64::total_cmp);
                rounds[ROUNDS / 2]
            };
            let walked = time(&mut |(sub, ..), qs, _| {
                for q in qs {
                    std::hint::black_box(sub.hnsw().search_in(q, K, EF, &mut walk, &mut stats));
                }
            });
            let mut scan_of = |sq: bool, slack, seeded: bool| {
                time(&mut |(_, full, codes), qs, bounds| {
                    out.clear();
                    ends.clear();
                    let cluster = if sq { codes } else { full };
                    cluster.probe(
                        qs,
                        if seeded { bounds } else { &[] },
                        K,
                        slack,
                        rows,
                        &mut scratch,
                        &mut stats,
                        &mut out,
                        &mut ends,
                    );
                    std::hint::black_box(&out);
                })
            };
            let (exact, seeded) = (scan_of(false, 0, false), scan_of(false, 0, true));
            let codes = scan_of(true, SLACK, false);
            println!("{rows:>6} {count:>9} {block:>6} {walked:>9.1} {exact:>9.1} {seeded:>9.1} {codes:>9.1} {admitted:>13}");
        }
    }
    // The kernel under every row above: its body at this build's width
    // against the entry the rows went through.
    use std::hint::black_box;
    let data = &vecsim::gen::sift_like(2_048, 7)?;
    let ns_per = |per: usize, kernel: &mut dyn FnMut(&[f32])| {
        let rounds = (0..ROUNDS).map(|_| {
            let t0 = std::time::Instant::now();
            data.iter().for_each(&mut *kernel);
            t0.elapsed().as_secs_f64() * 1e9 / (data.len() * per) as f64
        });
        rounds.fold(f64::INFINITY, f64::min)
    };
    let l2 = |kernel: fn(&[f32], &[f32]) -> f32| {
        move |row: &[f32]| _ = black_box(kernel(black_box(data.get(0)), row))
    };
    let (portable, dispatched) = (
        ns_per(data.dim(), &mut l2(vecsim::distance::l2_sq_portable)),
        ns_per(data.dim(), &mut l2(vecsim::l2_sq)),
    );
    println!(
        "l2_sq ns/dim: portable {portable:.3}, dispatched ({}) {dispatched:.3}",
        vecsim::simd::active()
    );
    // The block kernel, ns per (row, query), laid out as a scan lays it out
    // (up to 5 queries one at a time, 6 a padded tile, 8 and 16 whole tiles);
    // vecsim's padding rule is read off `a tile`: 8 queries against 5.
    let queries = vecsim::gen::perturbed_queries(data, 16, 0.03, 8)?;
    let mut layout = vecsim::QueryBlock::default();
    let ns = [1, 2, 5, 6, 8, 16].map(|n| {
        let qs: Vec<&[f32]> = queries.iter().take(n).collect();
        layout.load(vecsim::Metric::L2, &qs);
        ns_per(n, &mut |row| _ = black_box(layout.distances(row, &qs)))
    });
    let tile = 8.0 * ns[4] / ns[2];
    println!("block kernel ns per (row, query), blocks of 1 2 5 6 8 16: {ns:.2?}; a tile {tile:.2} queries one at a time");
    Ok(())
}

/// Resilience characterization: seeded substrate fault rates against
/// the default retransmission budget and the engine's read-retry layer.
/// At realistic drop rates the budget absorbs everything (recall holds,
/// zero degradation); the final row caps retransmissions at zero with
/// degradation allowed, showing the graceful-degradation floor.
fn fault_sweep() -> AnyResult {
    let w = Workload::sized(
        DatasetKind::SiftLike,
        env_usize("DHNSW_ABLATION_N", 10_000)?,
        env_usize("DHNSW_ABLATION_Q", 500)?,
    )?;
    let base = DHnswConfig::paper().with_representatives(200);
    println!("\n=== Fault sweep: seeded verb drops vs retransmission + engine retries ===");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "rate", "recall@10", "faults", "retries", "degraded", "coverage", "net us"
    );
    // One batch collapses into a couple of doorbell verbs, so each rate
    // runs several cold-cache rounds to give the drop rate something to
    // bite on.
    const ROUNDS: usize = 8;
    let run = |rate: f64, degraded: bool| -> Result<(f64, usize), Box<dyn std::error::Error>> {
        let cfg = if degraded {
            base.clone().with_degraded_ok(true)
        } else {
            base.clone()
        };
        let store = VectorStore::build(w.data.clone(), &cfg)?;
        let node = store.connect(SearchMode::Full)?;
        node.queue_pair().set_fault_rate(rate, 1234);
        if degraded {
            node.queue_pair().set_retry_limit(0);
        }
        let (mut recall_sum, mut coverage_sum, mut net_us) = (0.0f64, 0.0f64, 0.0f64);
        let (mut retries, mut degraded_total) = (0u64, 0usize);
        for _ in 0..ROUNDS {
            node.drop_cache();
            let (results, r) = node.query_batch(&w.queries, 10, 48)?;
            recall_sum += w.recall(&results, 10);
            coverage_sum += if r.coverage.is_empty() {
                1.0
            } else {
                r.coverage.iter().sum::<f64>() / r.coverage.len() as f64
            };
            retries += r.read_retries;
            degraded_total += r.degraded_queries;
            net_us += r.breakdown.network_us;
        }
        let rec = recall_sum / ROUNDS as f64;
        println!(
            "{:>6.0}% {:>10.3} {:>10} {:>10} {:>10} {:>10.3} {:>10.1}",
            rate * 100.0,
            rec,
            node.queue_pair().stats().faults(),
            retries,
            degraded_total,
            coverage_sum / ROUNDS as f64,
            net_us / ROUNDS as f64
        );
        Ok((rec, degraded_total))
    };
    // Gate: under the default retransmission budget every faulted row
    // must match the clean row's recall exactly, with zero degradation.
    let (clean_recall, _) = run(0.0, false)?;
    for rate in [0.01, 0.05, 0.10, 0.15] {
        let (rec, degraded) = run(rate, false)?;
        if rec != clean_recall || degraded > 0 {
            return Err(format!(
                "fault gate: rate {rate} changed results \
                 (recall {rec} vs {clean_recall}, degraded {degraded})"
            )
            .into());
        }
    }
    // No retransmissions at all: only the engine layer stands, and it
    // degrades instead of failing (a half-lossy fabric makes the
    // coverage loss visible).
    run(0.5, true)?;
    Ok(())
}

/// §3.1's meta-HNSW footprint claim: 0.373 MB for SIFT1M, 1.960 MB for
/// GIST1M with 500 representatives.
fn metasize() -> AnyResult {
    println!("\n=== Meta-HNSW footprint (paper: 0.373 MB SIFT1M, 1.960 MB GIST1M) ===");
    for (kind, n) in [
        (DatasetKind::SiftLike, 4_000usize),
        (DatasetKind::GistLike, 4_000),
    ] {
        let data = kind.generate(n, 1)?;
        let cfg = DHnswConfig::paper().with_representatives(500);
        let meta = dhnsw::MetaIndex::build(&data, &cfg)?;
        println!(
            "{:<32} {} reps, {} layers, {:.3} MB",
            kind.name(),
            meta.partitions(),
            meta.max_level() + 1,
            meta.footprint_bytes() as f64 / 1e6
        );
    }
    Ok(())
}

/// Ablations over the design choices §3 calls out: doorbell batch size,
/// cache fraction, per-query fan-out, and representative count.
fn ablations() -> AnyResult {
    let w = Workload::sized(
        DatasetKind::SiftLike,
        env_usize("DHNSW_ABLATION_N", 10_000)?,
        env_usize("DHNSW_ABLATION_Q", 500)?,
    )?;
    let base = DHnswConfig::paper().with_representatives(200);
    // One build serves every sweep, the representative count's at 200 only.
    // The doorbell limit and the cache fraction are read at connect, so their
    // rows restore its image under its resolved config with theirs changed.
    let store = VectorStore::build(w.data.clone(), &base)?;
    let mut image = Vec::new();
    write_snapshot(&store, &mut image)?;
    let restore = |cfg: DHnswConfig| read_snapshot(&image[..], &cfg)?.connect(SearchMode::Full);

    println!("\n=== Ablation: doorbell batch limit (§3.2 NIC-scalability tradeoff) ===");
    println!(
        "{:>8} {:>14} {:>12} {:>14}",
        "limit", "network us", "trips", "trips/query"
    );
    for limit in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let network = NetworkModel::connectx6().with_doorbell_limit(limit)?;
        let node = restore(store.config().clone().with_network(network))?;
        node.query_batch(&w.queries, 10, 48)?;
        let (_, r) = node.query_batch(&w.queries, 10, 48)?;
        // A baseline node is priced at limit 1: that row is the scheme.
        let scheme = if limit == 1 { "  (= w/o doorbell)" } else { "" };
        println!(
            "{:>8} {:>14.1} {:>12} {:>14.4}{scheme}",
            limit,
            r.breakdown.network_us,
            r.round_trips,
            r.round_trips_per_query()
        );
    }

    println!("\n=== Ablation: compute-side cache fraction (§3.3, paper uses 10%) ===");
    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>12}",
        "cache", "loads", "hits", "network us", "MB read"
    );
    for frac in [0.0, 0.05, 0.10, 0.25, 0.50, 1.0] {
        let node = restore(store.config().clone().with_cache_fraction(frac))?;
        node.query_batch(&w.queries, 10, 48)?;
        let (_, r) = node.query_batch(&w.queries, 10, 48)?;
        println!(
            "{:>7.0}% {:>10} {:>10} {:>14.1} {:>12.2}",
            frac * 100.0,
            r.clusters_loaded,
            r.cache_hits,
            r.breakdown.network_us,
            r.bytes_read as f64 / 1e6
        );
    }

    println!("\n=== Ablation: cache under Zipf query skew (hot partitions stay resident) ===");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>14}",
        "skew", "loads", "hits", "hit rate", "network us"
    );
    for skew in [0.0f64, 0.5, 1.0, 1.5] {
        let node = store.connect(SearchMode::Full)?;
        let zq = vecsim::gen::zipf_queries(&w.data, w.queries.len(), 0.03, skew, 0xBEEF)?;
        node.query_batch(&zq, 10, 48)?;
        let (_, r) = node.query_batch(&zq, 10, 48)?;
        println!(
            "{:>6.1} {:>10} {:>10} {:>11.0}% {:>14.1}",
            skew,
            r.clusters_loaded,
            r.cache_hits,
            r.cache_hit_rate() * 100.0,
            r.breakdown.network_us
        );
    }

    println!("\n=== Ablation: partitions probed per query (fan-out b) ===");
    println!(
        "{:>4} {:>10} {:>14} {:>12}",
        "b", "recall@10", "network us", "MB read"
    );
    for b in [1usize, 2, 4, 8, 16] {
        let node = store.connect(SearchMode::Full)?;
        let opts = dhnsw::QueryOptions::new(10, 48).with_fanout(b);
        node.query_batch_opts(&w.queries, &opts)?;
        let (results, r) = node.query_batch_opts(&w.queries, &opts)?;
        let rec = w.recall(&results, 10);
        println!(
            "{:>4} {:>10.3} {:>14.1} {:>12.2}",
            b,
            rec,
            r.breakdown.network_us,
            r.bytes_read as f64 / 1e6
        );
    }

    println!("\n=== Ablation: representative count (paper fixes 500) ===");
    println!(
        "{:>6} {:>12} {:>10} {:>14} {:>12}",
        "reps", "meta MB", "recall@10", "network us", "MB read"
    );
    for reps in [50usize, 100, 200, 400, 800] {
        let cfg = base.clone().with_representatives(reps);
        let built = (reps != 200)
            .then(|| VectorStore::build(w.data.clone(), &cfg))
            .transpose()?;
        let store_r = built.as_ref().unwrap_or(&store);
        let node = store_r.connect(SearchMode::Full)?;
        node.query_batch(&w.queries, 10, 48)?;
        let (results, r) = node.query_batch(&w.queries, 10, 48)?;
        let rec = w.recall(&results, 10);
        println!(
            "{:>6} {:>12.3} {:>10.3} {:>14.1} {:>12.2}",
            reps,
            store_r.meta().footprint_bytes() as f64 / 1e6,
            rec,
            r.breakdown.network_us,
            r.bytes_read as f64 / 1e6
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> AnyResult<Args> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_flag_no_subcommand_reads_and_a_second_subcommand_are_refused() {
        let args = parse(&["table1", "--metrics-out", "run"]).unwrap();
        assert_eq!(
            args,
            Args {
                cmd: Some("table1".into()),
                metrics_out: Some("run".into()),
            }
        );
        assert_eq!(parse(&[]).unwrap(), Args::default());
        assert!(parse(&["--no-such-flag"]).is_err());
        assert!(parse(&["--no-such-flag", "2", "table1"]).is_err());
        assert!(parse(&["table1", "fig6a"]).is_err());
        // Span capture is `dhnsw_cli serve`'s alone: neither tracing
        // flag exists.
        assert!(parse(&["--trace-spans", "table1"]).is_err());
        assert!(parse(&["--slow-query-us", "1", "table1"]).is_err());
    }
}
