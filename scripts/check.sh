#!/usr/bin/env bash
# Full local gate: release build, every test, lint-clean clippy, the
# line-count ratchet, the one-definition greps, a clean-clone build of
# HEAD, the repository benchmark (benchmark/) at smoke scale, and the
# repro and serve smokes. It takes no flags: counts are held by the three
# ledgers under crates/core/tests/golden/ (re-bless with BLESS=1, see
# README), time by benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP_ROOT=$(mktemp -d)
trap 'rm -rf "$TMP_ROOT"' EXIT

# What this workspace writes (the --metrics-out exposition, the serving
# plane's JSON documents) is checked by jq below; nothing in the workspace
# parses it back, so a missing jq is a missing gate, not a skipped one.
command -v jq > /dev/null || {
  echo "check.sh: jq is required (the JSON validity gates of the repro and serve smokes)" >&2
  exit 1
}

echo "==> cargo build --release"
cargo build --release --workspace

# The block kernel's AVX2 twin must be vector code where it matters: a tile
# loop the compiler stops unrolling, or vectorizes across the wrong axis,
# runs six to nine times slower and still returns every bit, so no test
# notices. Some innermost loop of the twin (a backward branch with no other
# inside it) must hold at least 4 each of ymm vbroadcastss, vsubps, vmulps
# and vaddps -- one pass of the tile's 4 accumulators (vecsim
# distance::PASS), each over a broadcast row dimension; the one-query loop
# beside it broadcasts nothing -- and no lane shuffle and no stack access: a
# loop that transposes its operands or spills its accumulators in every
# iteration is the slow shape, however many ymm adds it holds.
if [[ $(uname -m) == x86_64 ]]; then
  echo "==> the block kernel's AVX2 twin holds the tile loop in ymm"
  widest=$(objdump -d -C --no-show-raw-insn target/release/repro |
    awk '/^[0-9a-f]+ <vecsim::simd::block_distances::twin>:$/ { on = 1; next }
      on && /^$/ { on = 0 }
      on && /^ +[0-9a-f]+:/ {
        n++; at[$1] = n; text[n] = $0
        if (!match($0, /\tj[a-z]+ +[0-9a-f]+ </)) next
        split(substr($0, RSTART + 1), jump, / +/)
        from = at[jump[2] ":"]
        if (from && from > inner) {
          b = s = m = a = x = 0
          for (i = from; i <= n; i++) {
            b += text[i] ~ /\tvbroadcastss .*%ymm/
            s += text[i] ~ /\tvsubps .*%ymm/
            m += text[i] ~ /\tvmulps .*%ymm/
            a += text[i] ~ /\tvaddps .*%ymm/
            x += text[i] ~ /\tv(unpck|shuf|perm|blend|insert|extract)|%rsp/
          }
          low = s < m ? s : m; low = low < a ? low : a; low = low < b ? low : b
          if (!x && low > widest) widest = low
        }
        if (from) inner = n
      }
      END { print widest + 0 }')
  if ((widest < 4)); then
    echo "check.sh: vecsim::simd::block_distances::twin has no shuffle- and spill-free loop of 4 ymm vbroadcastss/vsubps/vmulps/vaddps ($widest)" >&2
    exit 1
  fi
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

# The search-thread knob must not change any observable result: the
# whole suite runs at each thread count (the baseline run above already
# covered threads=auto). An odd thread count cuts the cluster-major probe
# list in the middle of a cluster's run of queries.
for threads in 1 3 4; do
  echo "==> cargo test --workspace --release (DHNSW_SEARCH_THREADS=$threads)"
  DHNSW_SEARCH_THREADS=$threads cargo test --workspace --release -q
done

# Concurrency stress gate: 100 seeded iterations of readers + writer
# under fault injection (plain `cargo test` runs a 4-iteration smoke).
echo "==> stress gate (DHNSW_STRESS_ITERS=100)"
DHNSW_STRESS_ITERS=100 cargo test --release -q --test stress

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The formatter, over the whole workspace (benchmark/ is a workspace of
# its own and is not formatted here).
echo "==> cargo fmt --check"
cargo fmt --check

# Size ratchet: non-test lines under crates/core/src — per file, in
# total, and in the telemetry plane — under crates/bench/src and under
# the three leaf crates (hnsw, vecsim, rdma-sim) may not grow past what
# the deletions recorded in scripts/loc.sh reached.
echo "==> scripts/loc.sh --check"
scripts/loc.sh --check

# One definition per metric: a family is named in the metric table and
# nowhere else, so its help and kind cannot drift between registration
# sites (non-test code only: no tests/ directory, and each file cut at
# its first #[cfg(test)] as scripts/loc.sh does).
echo "==> metric names live in telemetry/metrics.rs only"
stray=$(find crates -name '*.rs' ! -path '*/tests/*' \
  ! -path 'crates/core/src/telemetry/metrics.rs' | sort |
  while IFS= read -r file; do
    awk -v f="$file" '/#!?\[cfg\(test\)\]/ { exit }
      /"dhnsw_[a-z0-9_]+"/ { print f ":" FNR ": " $0 }' "$file"
  done)
if [[ -n "$stray" ]]; then
  echo "$stray"
  echo "check.sh: metric-name literals outside crates/core/src/telemetry/metrics.rs" >&2
  exit 1
fi

# One clock per phase, one table of phases: the engine times nothing
# itself -- each host phase is the wall its span measured, the span
# handle being the batch's one clock -- and the phases' spellings (span
# names, stage labels, root-span arguments, why-slow keys) live in
# crates/core/src/breakdown.rs's `Phase` table and nowhere else in
# non-test code (each file cut at its first #[cfg(test)]).
echo "==> no clock in engine/; phase spellings live in breakdown.rs only"
if grep -rn 'Instant::now' crates/core/src/engine/; then
  echo "check.sh: Instant::now under crates/core/src/engine/ (time a phase by its span)" >&2
  exit 1
fi
stray=$(find crates src examples -name '*.rs' ! -path '*/tests/*' \
  ! -path 'crates/core/src/breakdown.rs' | sort |
  while IFS= read -r file; do
    awk -v f="$file" '/#!?\[cfg\(test\)\]/ { exit }
      /"(meta_hnsw|meta_route|sub_hnsw|sub_hnsw_search|meta_us|sub_us|network_vt_us)"/ {
        print f ":" FNR ": " $0 }' "$file"
  done)
if [[ -n "$stray" ]]; then
  echo "$stray"
  echo "check.sh: phase spellings outside crates/core/src/breakdown.rs (iterate Phase::ALL)" >&2
  exit 1
fi

# One layout: which end of its group a cluster occupies, and every remote
# address that follows from it, are read in crates/core/src/layout.rs alone;
# readers and writers ask it (ClusterLocation, Directory::load_span) or the
# loader's one request planner (loader::plan_load). Non-test code only
# (each file cut at its first #[cfg(test)]).
echo "==> GroupSlot is matched in layout.rs only"
stray=$(find crates src examples -name '*.rs' ! -path '*/tests/*' \
  ! -path 'crates/core/src/layout.rs' | sort |
  while IFS= read -r file; do
    awk -v f="$file" '/#!?\[cfg\(test\)\]/ { exit }
      /GroupSlot::/ { print f ":" FNR ": " $0 }' "$file"
  done)
if [[ -n "$stray" ]]; then
  echo "$stray"
  echo "check.sh: GroupSlot:: outside crates/core/src/layout.rs (ask the layout or loader::plan_load)" >&2
  exit 1
fi

# One fork-join: every CPU fan-out in the core goes through
# engine::run_indexed (the caller plus threads - 1 helpers, each claiming
# items one at a time), so no other file of crates/core/src scopes or
# spawns a thread. Non-test code only (each file cut at its first
# #[cfg(test)]).
echo "==> threads are scoped in engine/mod.rs only"
stray=$(find crates/core/src -name '*.rs' ! -path 'crates/core/src/engine/mod.rs' | sort |
  while IFS= read -r file; do
    awk -v f="$file" '/#!?\[cfg\(test\)\]/ { exit }
      /thread::(scope|spawn)/ { print f ":" FNR ": " $0 }' "$file"
  done)
if [[ -n "$stray" ]]; then
  echo "$stray"
  echo "check.sh: a thread scoped or spawned outside crates/core/src/engine/mod.rs (use engine::run_indexed)" >&2
  exit 1
fi

# One channel per knob: the library reads two environment variables, the
# ones this script sets (the thread matrix above, the SQ8 fault smoke
# below), and reads them in crates/core/src/config.rs alone; every other
# knob is a DHnswConfig builder or a CLI flag, never a variable beside one.
# Non-test code only (each file cut at its first #[cfg(test)]).
echo "==> the library names two DHNSW_ variables, in config.rs only"
stray=$(find crates/core/src -name '*.rs' | sort |
  while IFS= read -r file; do
    awk -v f="$file" -v cfg="$([[ $file == crates/core/src/config.rs ]] && echo 1)" '
      /#!?\[cfg\(test\)\]/ { exit }
      { code = $0 }
      cfg { gsub(/"DHNSW_(SEARCH_THREADS|QUANTIZE_MODE)([^A-Z0-9_]|$)/, "", code) }
      code ~ /"DHNSW_/ { print f ":" FNR ": " $0 }' "$file"
  done)
if [[ -n "$stray" ]]; then
  echo "$stray"
  echo "check.sh: a DHNSW_ variable beyond the two config.rs reads (give the knob a builder or a flag)" >&2
  exit 1
fi

# One scan-or-walk rule: the cut-off (SCAN_ROWS_PER_EF times ef) is
# computed in crates/core/src/cluster.rs's `scans` and nowhere else; every
# other site, tests and repro included, asks `cluster::scans`.
echo "==> the scan/walk cut-off is computed in cluster.rs only"
if grep -rnE 'SCAN_ROWS_PER_EF *(\*|\.saturating_mul)|\* *SCAN_ROWS_PER_EF' \
  crates src tests examples | grep -v '^crates/core/src/cluster.rs:'; then
  echo "check.sh: SCAN_ROWS_PER_EF multiplied outside crates/core/src/cluster.rs (ask cluster::scans)" >&2
  exit 1
fi

# Two unsafe modules, each allowed one thing: the keyword may appear in
# non-test code (each file cut at its first #[cfg(test)], line comments
# dropped) only in crates/vecsim/src/cast.rs — the checked reinterpretation
# of fetched bytes as words — and crates/vecsim/src/simd.rs — the call of a
# #[target_feature] twin of a safe kernel body, sound exactly when the CPU
# has the feature: there, every line holding the keyword must sit within
# two lines of the is_x86_feature_detected test that makes it so. Every
# other crate root keeps forbidding it outright — vecsim's denies it, so
# that those two can opt back in.
echo "==> unsafe lives in crates/vecsim/src/{cast,simd}.rs only, and in simd.rs only under its detection"
stray=$(find crates/*/src src -name '*.rs' ! -path 'crates/vecsim/src/cast.rs' | sort |
  while IFS= read -r file; do
    awk -v f="$file" -v simd="$([[ $file == crates/vecsim/src/simd.rs ]] && echo 1)" '
      /#!?\[cfg\(test\)\]/ { exit }
      { code = $0; sub(/\/\/.*/, "", code) }
      code ~ /is_x86_feature_detected/ { detected = FNR }
      code ~ /(^|[^_[:alnum:]])unsafe([^_[:alnum:]]|$)/ && !(simd && detected && FNR - detected <= 2) {
        print f ":" FNR ": " $0 }' "$file"
  done)
if [[ -n "$stray" ]]; then
  echo "$stray"
  echo "check.sh: unsafe outside crates/vecsim/src/cast.rs, or in simd.rs away from its detection" >&2
  exit 1
fi
for root in crates/*/src/lib.rs src/lib.rs; do
  want='#![forbid(unsafe_code)]'
  [[ "$root" == crates/vecsim/src/lib.rs ]] && want='#![deny(unsafe_code)]'
  grep -qxF "$want" "$root" || { echo "check.sh: $root lost $want" >&2; exit 1; }
done

# The casts are the one thing no test can show sound (nothing here
# detects undefined behaviour in general; Miri is not installed), so
# where the installed nightly can build with AddressSanitizer without
# downloading anything, the differential and mutation tests that drive
# every cast — aligned, converted once, and refused — run under it, and
# so do vecsim's simd:: differentials, which run every AVX2 twin. The
# filter takes view_oracle's three tests by name (a_landed_cluster_...,
# corner_clusters_..., a_block_probe_of_the_view_...): the block scan
# over borrowed full-precision rows, the brute-force oracle on both
# sides of the scan cut-off and the walked corner one row past it are cases
# inside them, not tests a second filter would have to find.
echo "==> view tests under AddressSanitizer (if the installed nightly can)"
asan_rt=$(find "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib" \
  -name 'librustc-nightly_rt.asan.a' 2>/dev/null | head -n1)
if [[ -n "$asan_rt" ]]; then
  host=$(rustc +nightly -vV | sed -n 's/^host: //p')
  RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR="$TMP_ROOT/asan" \
    cargo +nightly test --offline -q --target "$host" \
    -p vecsim -p hnsw -p dhnsw --lib --test view_oracle --test decoder_mutation \
    -- cast:: simd:: view cluster:: resident corruption landed corner
  echo "    ran under -Zsanitizer=address ($host)"
else
  echo "    not available: no nightly AddressSanitizer runtime installed (skipped, not downloaded)"
fi

# One of each: the per-batch copies BatchReport replaced, the second
# regression harness with its baseline, the pool-sharding wrappers
# nothing measured, the leaf-crate modules nothing called (the
# completion-queue sugar, the brute-force index, the dataset statistics,
# the verdict code), the registry mirrors of what a document derives
# (the health report's gauges, the exemplar store's tail families, the
# LRU lookup pair that could never count a miss, and the milli-unit
# encoding and flush delta that fed them), the health report's second
# window state, repro tail's own workload definition, the memory node's
# counter mirror, rdma-sim's per-kind verb bodies and span emitters (one
# executor now) and its writes-only doorbell (the mixed `doorbell` of
# writes and atomics replaced it), the API nothing outside tests called
# (the graph report, the flat-buffer and bvecs / ivecs-writer conversions,
# the region count, the filtered search, the ivecs reader), the series
# recorder's second resolution of a node's instruments (and the health
# report's window cursor, its window fields and `series::Window`: a window
# is a series point), the environment
# channels beside a builder or a flag (the tracer switches, the SLO
# budgets' variables), the anomaly detector's one-value tuning struct, the
# store's second partition classifier, and the micro-batch pipeline and
# heatmap prefetcher with their knobs, setters, metric family, series
# ratio, sweep and read cause, the bench crate's JSON parser with the
# dashboard's parsed-back snapshot (the node renders `top` from its typed
# records), the two HNSW selection knobs that had one value each, the
# heatmap's EWMA hotness that only the prefetcher ranked by, the
# `dhnsw_cli metrics` subcommand beside `query --metrics-out`, and the
# span trees' second and third homes (the slow-query log with its
# threshold and plain-text renderer, the K-slowest set's trees, the
# tracing flags' helper, the phase fold beside the span fold, and the
# bucket exemplars that named ids nothing resolved), and the plane's
# second copies of a number (the registry's JSON snapshot, the profile's
# own accumulator, the heatmap's route-hit column, the health report's
# cache, latency, reliability and tail sections, and the total-bytes and
# transfers-saved families that are sums of other families), and the
# doorbell as a code path (the engine's read-policy struct with its
# doorbell bit, and the two single-verb reads it alone posted: a baseline
# node is priced at doorbell limit 1 and posts the one doorbell read),
# and the store build's second thread pool (its work queue over per-
# partition result slots; the build claims partitions from run_indexed),
# and the bridge from the substrate to the trace (rdma-sim's trace sink
# with its span and fault event types and chunk splitter, core's sink
# and the thread-local scope stack it and the cache searched: the reader
# and the batch body hold the trace and write the spans), and virtual
# time in f64 microseconds (the clock's truncating mutator, the model's
# microsecond price, the backoff's microsecond charge and constant: time
# is whole picoseconds and only rendered in microseconds)
# stay gone (four roots, so the guard does not match itself; identifiers
# only, so the refusal tests may still spell the deleted flags).
echo "==> no deleted duplicate is back"
if grep -rnE 'QueryTrace|TailRecord|TraceRing|ShardedStore|ShardedSession|LoadBalancer|DispatchPolicy|bench_regress|BENCH_baseline|DHNSW_BENCH_1M|poll_cq|ring_doorbell|BruteForceIndex|clustering_tendency|verdict_index|set_milli|take_flush_delta|dhnsw_health_|dhnsw_heat_|dhnsw_tail_|dhnsw_cache_hits_total|dhnsw_cache_misses_total|WindowState|TraceSpec|service_stats|\bexecute_reads\b|\bexecute_writes\b|emit_plain|emit_verb|write_doorbell|graph_report|GraphReport|into_flat|read_bvecs|write_ivecs|region_count|window_handles|tick_series|tracer_env|from_env|AnomalyConfig|classify_all|search_filtered|read_ivecs|prefetch_hot|set_pipeline_depth|with_pipeline_depth|set_prefetch_budget_bytes|with_prefetch_budget_bytes|stage_loads|PIPELINE_HIDDEN_US|hidden_ratio|pipeline_sweep|ReadCause::Prefetch|JsonParser|parse_snapshot|TopSnapshot|extend_candidates|keep_pruned|window_start|Window::between|window_p99_us|window_hit_rate|begin_batch|DECAY_PER_BATCH|hotness|cmd_metrics|set_slow_threshold_us|slow_threshold_us|slow_log|render_tree|render_plain|finish_trace|SlowEntry|has_spans|fold_phases|BucketExemplar|bucket_exemplars|apply_trace_flags|snapshot_json|ProfileAccumulator|fold_trace|route_hit_counts|CacheHealth|LatencyHealth|ReliabilityHealth|TailHealth|dhnsw_rdma_bytes_read_total|dhnsw_loader_transfers_saved_total|ReadPolicy|\bread_into\b|read_with_cause|policy\.doorbell|build_clusters|ClusterBlobs|TraceSink|QpSpanSink|VerbSpan|WqeSpan|FaultEvent|set_trace_sink|enter_scope|emit_scope_instant|split_chunk_intervals|advance_us|round_trip_cost_us|charge_backoff_us|RETRY_BACKOFF_US' \
  crates src tests examples || [[ -e scripts/bench.sh ]]; then
  echo "check.sh: a deleted duplicate is back (the lines above, or scripts/bench.sh)" >&2
  exit 1
fi

# The cluster cache is a plain data structure: the batch body that calls
# it writes its hit and eviction instants.
echo "==> the cluster cache names nothing from telemetry"
if grep -n 'telemetry::' crates/core/src/cache.rs; then
  echo "check.sh: crates/core/src/cache.rs names telemetry (trace where the trace is held)" >&2
  exit 1
fi

# Every table of EXPERIMENTS.md is filled (PR 18, from a complete `repro
# all` run via scripts/fill_experiments.py); a MEAS_* placeholder may
# not come back without its numbers.
echo "==> no unfilled placeholder in EXPERIMENTS.md"
if grep -n MEAS_ EXPERIMENTS.md; then
  echo "check.sh: unfilled MEAS_ placeholders in EXPERIMENTS.md" >&2
  exit 1
fi

# Every committed trajectory record (scripts/pairs.sh --record) is whole:
# its keys, all five workloads with all seven end-to-end metrics, numeric
# medians on both sides, and a parent commit this history holds.
echo "==> committed benchmark records are whole"
for rec in $(git ls-files 'results/BENCH_pr*.json'); do
  jq -e '
    (["pr", "parent", "head", "dirty", "cpu", "nproc", "seconds", "pairs", "seeds", "workloads"]
      - keys | length == 0)
    and (.workloads | length == 5)
    and all(.workloads[];
      (keys | sort) == (["batch_ms_p50", "insert_ms_p50", "peak_rss_mb", "qps",
                         "recall_at_10", "remote_mb", "setup_s"])
      and all(.[]; (.parent.median | type == "number") and (.change.median | type == "number")))
  ' "$rec" > /dev/null || { echo "check.sh: $rec is not a whole record" >&2; exit 1; }
  git cat-file -e "$(jq -r .parent "$rec")^{commit}" ||
    { echo "check.sh: $rec names a parent this history lacks" >&2; exit 1; }
done

# Clean-clone gate: tier-1 on what is actually committed. A file that is
# ignored or merely untracked here does not exist there, so it can never
# again be load-bearing (vendor/criterion was, for nine PRs). It tests
# HEAD: commit first, then run the gate.
echo "==> clean clone of HEAD: cargo build --release && cargo test -q"
git clone --quiet . "$TMP_ROOT/clone"
(cd "$TMP_ROOT/clone" && cargo build --release && cargo test -q)

# The repository benchmark is a frozen package of its own that reaches
# the crates only through their public API (LoadedCluster::from_remote,
# search_sq_with_stats, SqParams::asymmetric_l2, plan_batch, ...): its
# tests and one smoke pass over all five workloads, un-traced and traced,
# keep it compiling and its result checks passing against this tree.
echo "==> benchmark: cargo test --release --offline"
(cd benchmark && cargo test --release --offline -q)
echo "==> benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke > "$TMP_ROOT/benchmark_smoke.log" 2>&1 \
  || { tail -n 40 "$TMP_ROOT/benchmark_smoke.log"; exit 1; }

# Compressed-wire smoke gate under the configuration every figure uses
# (DHnswConfig::paper(), 32 partitions of 625 vectors here): the run
# exits non-zero unless SQ8 moves under 0.30x the full-precision bytes
# (0.237 measured at this size) at recall@10 within 0.005.
echo "==> repro scale (SQ8 bytes and recall smoke gate)"
DHNSW_SIFT_N=20000 DHNSW_QUERIES=128 target/release/repro scale

# Fault-injection smoke gate: the seeded sweep must keep recall
# identical to the clean run under the default retransmission budget
# (it exits non-zero if any faulted row degrades or errors). The run's
# --metrics-out file, the registry's one exposition, must be the
# Prometheus text it claims to be: every sample line `name{labels} integer`,
# exactly one byte counter per read cause -- the causes of rdma-sim's
# ReadCause::ALL, in index order; a ninth cause fails the count until it
# is named here -- and every histogram series with its `le="+Inf"`
# bucket, its `_sum` and its `_count`.
echo "==> repro faults (fault-injection smoke gate)"
DHNSW_ABLATION_N=4000 DHNSW_ABLATION_Q=100 target/release/repro faults \
  --metrics-out "$TMP_ROOT/faults"
echo "==> the --metrics-out exposition has the registry's shape"
jq -Rse --arg causes "stage_load version_check retry health_probe overflow_scan naive rerank other" '
  ($causes | split(" ")) as $causes
  | split("\n") | map(select(length > 0)) as $lines
  | [$lines[] | select(startswith("#") | not)] as $samples
  | [$lines[] | select(startswith("# TYPE ")) | split(" ") | select(.[3] == "histogram") | .[2]] as $hists
  | def count(p): [$samples[] | select(p)] | length;
    ($samples | length > 0)
    and all($samples[]; test("^[a-z0-9_:]+(\\{[^ ]*\\})? [0-9]+$"))
    and count(startswith("dhnsw_rdma_read_bytes_by_cause_total{")) == ($causes | length)
    and all($causes[]; . as $c
      | count(startswith("dhnsw_rdma_read_bytes_by_cause_total{cause=\"" + $c + "\"} ")) == 1)
    and ($hists | length > 0)
    and all($hists[]; . as $h
      | count(startswith($h + "_bucket{") and contains("le=\"+Inf\"}")) as $inf
      | $inf > 0
      and count(startswith($h + "_sum ") or startswith($h + "_sum{")) == $inf
      and count(startswith($h + "_count ") or startswith($h + "_count{")) == $inf)
' "$TMP_ROOT/faults.prom" > /dev/null

# Same sweep over the compressed wire format: SQ8 stage loads, the
# overflow follow-up reads, and the exact-rerank doorbells must survive
# seeded verb drops just like the full-precision path does.
echo "==> repro faults with DHNSW_QUANTIZE_MODE=sq8 (quantized fault smoke)"
DHNSW_QUANTIZE_MODE=sq8 DHNSW_ABLATION_N=4000 DHNSW_ABLATION_Q=100 \
  target/release/repro faults

# Serving-plane smoke gate: build a tiny store, serve it on an
# ephemeral port, scrape the live endpoints over bash's /dev/tcp (no
# curl dependency in CI), and shut the server down gracefully. Gates
# that /metrics carries the per-cause byte provenance end to end and that
# /health is read-only: the sampler ticking between two scrapes changes
# not a byte of it.
echo "==> dhnsw_cli serve (metrics serving-plane smoke gate)"
SMOKE_DIR="$TMP_ROOT/serve"
mkdir "$SMOKE_DIR"
target/release/dhnsw_cli build --synthetic sift:3000 \
  --out "$SMOKE_DIR/store.dhnsw" 2>/dev/null
target/release/dhnsw_cli serve --store "$SMOKE_DIR/store.dhnsw" \
  > "$SMOKE_DIR/serve.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/serve.out" ]] && break
  sleep 0.1
done
URL=$(head -n1 "$SMOKE_DIR/serve.out")   # first stdout line is the URL
HOSTPORT=${URL#http://}
HOST=${HOSTPORT%:*}
PORT=${HOSTPORT##*:}
scrape() {
  exec 3<>"/dev/tcp/$HOST/$PORT"
  printf 'GET %s HTTP/1.1\r\nHost: smoke\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&-
}
# The response body: everything after the blank line that ends the head.
body() { scrape "$1" | sed '1,/^\r$/d'; }
scrape /metrics > "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE dhnsw_rdma_read_bytes_by_cause_total counter' "$SMOKE_DIR/metrics.prom"
grep -q '^dhnsw_rdma_read_bytes_by_cause_total{cause="stage_load"} [1-9]' "$SMOKE_DIR/metrics.prom"
# A captured batch's read-cost ledger rides its root span: a /traces root
# carries the stage-load bytes.
body /traces | jq -e '[.traceEvents[] | select(.name == "query_batch")
  | .args.bytes_stage_load | numbers] | length > 0' > /dev/null ||
  { echo "check.sh: no /traces root span carries bytes_stage_load" >&2; exit 1; }
# Tail-anatomy plane: the folded profile must carry at least one batch
# root frame (serve captures span trees with no flag: it folds the span
# ring) and the exemplar store must report its occupancy.
scrape /profile/folded | grep -q '^query_batch'
scrape /exemplars | grep -q '"occupancy"'
# Every JSON document the plane serves parses, and /whyslow diagnoses an
# exemplar /exemplars lists.
for doc in /health /traces /exemplars /timeseries /anomalies; do
  body "$doc" | jq -e 'type == "object"' > /dev/null ||
    { echo "check.sh: $doc is not a JSON object" >&2; exit 1; }
done
ID=$(body /exemplars | jq -er '.slowest[0].trace_id')
body "/whyslow/$ID" | jq -e --argjson id "$ID" '.trace_id == $id and (.verdict | type == "string")' > /dev/null
# Every trace id /exemplars names, in any of its views, resolves there.
for id in $(body /exemplars | jq -r '[.. | .trace_id? | numbers] | unique | .[]'); do
  body "/whyslow/$id" | jq -e --argjson id "$id" '.trace_id == $id' > /dev/null ||
    { echo "check.sh: /exemplars names trace_id $id, /whyslow/$id does not resolve it" >&2; exit 1; }
done
# Time-series plane: every response is marked no-store, the ring serves
# (window, step)-thinned points, the anomaly log answers, and the live
# `top` dashboard renders a frame against the node. Give the background
# sampler a bit over two ticks so at least one derived window exists; no
# batch runs meanwhile, so /health must read the same on either side.
scrape /metrics | grep -q 'Cache-Control: no-store'
body /health > "$SMOKE_DIR/health.before"
sleep 2.5
body /health > "$SMOKE_DIR/health.after"
cmp "$SMOKE_DIR/health.before" "$SMOKE_DIR/health.after" ||
  { echo "check.sh: two /health scrapes with no batch between differ" >&2; exit 1; }
scrape '/timeseries?window=60&step=1' | grep -q '"points"'
# A parameter the recorder cannot use -- zero, negative, not a number --
# is a client error, not an empty result or the whole ring.
for bad in 'step=0' 'window=abc' 'step=-1'; do
  scrape "/timeseries?$bad" | grep -q '^HTTP/1.1 400 Bad Request' ||
    { echo "check.sh: /timeseries?$bad did not answer 400" >&2; exit 1; }
done
scrape /anomalies | grep -q '"records"'
# The node renders the dashboard; `top --once` prints exactly its /top
# body. The sampler may tick between two requests, so the frame must
# equal the body scraped just before it or the one just after.
body /top > "$SMOKE_DIR/top.before"
target/release/dhnsw_cli top --once --url "$URL" > "$SMOKE_DIR/top.out"
body /top > "$SMOKE_DIR/top.after"
grep -q "^dhnsw top — $URL " "$SMOKE_DIR/top.out"
cmp -s "$SMOKE_DIR/top.out" "$SMOKE_DIR/top.before" ||
  cmp "$SMOKE_DIR/top.out" "$SMOKE_DIR/top.after"
scrape /shutdown > /dev/null
wait "$SERVE_PID"

# Doctor smoke gate: the SLO window is the measured passes alone. One
# query over 32 partitions with a cache of 4 clusters (the fanout) misses
# only in its warm-up pass, so a 0.99 hit-rate budget must hold; judged
# over the warm-up too it would read 0.666667 and exit non-zero.
echo "==> dhnsw_cli doctor (the SLO window excludes the warm-up)"
DOCTOR_DIR="$TMP_ROOT/doctor"
mkdir "$DOCTOR_DIR"
target/release/dhnsw_cli build --synthetic sift:4000 \
  --out "$DOCTOR_DIR/store.dhnsw" 2>/dev/null
# One 128-dimensional all-zero query: the fvecs dimension word, then the
# vector's 512 bytes.
{ printf '\x80\x00\x00\x00'; head -c 512 /dev/zero; } > "$DOCTOR_DIR/one.fvecs"
target/release/dhnsw_cli doctor --store "$DOCTOR_DIR/store.dhnsw" \
  --queries "$DOCTOR_DIR/one.fvecs" --warmup-passes 1 --passes 2 \
  --check --slo-min-hit-rate 0.99 > /dev/null

# Refusal smoke: span capture is `serve`'s alone, so neither binary
# takes a tracing flag; each must exit 2 before anything runs.
echo "==> the tracing flags are refused (exit 2)"
refused() {
  local code=0
  "$@" > /dev/null 2>&1 || code=$?
  [[ $code == 2 ]] || { echo "check.sh: '$*' exited $code, not 2" >&2; exit 1; }
}
refused target/release/dhnsw_cli query --store "$DOCTOR_DIR/store.dhnsw" \
  --queries "$DOCTOR_DIR/one.fvecs" --trace-spans
refused target/release/dhnsw_cli query --store "$DOCTOR_DIR/store.dhnsw" \
  --queries "$DOCTOR_DIR/one.fvecs" --slow-query-us 1
DHNSW_SIFT_N=2000 DHNSW_QUERIES=20 refused target/release/repro --slow-query-us 1 table1

echo "OK: build, tests, clippy, clean clone, benchmark smoke, scale, fault, serve, doctor and refusal smoke gates all green."
