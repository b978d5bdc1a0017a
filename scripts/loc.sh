#!/usr/bin/env bash
# Non-test lines per file under the five source roots (crates/core,
# crates/bench and the three leaf crates hnsw, vecsim, rdma-sim) — the
# lines before a file's first `#[cfg(test)]` (or `#![cfg(test)]`: a file
# that is all tests counts zero) — each root's total, and the subtotal of
# the telemetry plane (telemetry.rs, telemetry/, health/, breakdown.rs).
# Counted this way, moving code between files changes nothing; only
# writing or deleting it does.
#
#   scripts/loc.sh           # the table
#   scripts/loc.sh --check   # also fail past the ratchets below
#
# The ratchets are what ROADMAP items 2, 3 and 5 reached (PR 14: 11 334
# -> 11 056 with no file over 1 300; PR 17: the plane; PR 18: the
# plane and crates/bench figures below and 10 371 in total): engine.rs
# was once 2 900 non-test lines of hand-copied read paths, the plane once
# described a batch five times, and crates/bench once held a second
# regression harness, and this keeps any of them from growing back. PR 19
# raised the total by the loaded-cluster view's own lines and nothing
# else (+147, inside the +150 its issue allowed; CHANGES.md says what
# they bought). PR 20 re-set it to what the block probe reached: +112 in
# cluster.rs and the loader (the per-block scan, its scratch, the
# landed-blob check), +4 in crates/bench (`repro scale`'s column). PR 21
# re-set it to what scanning small clusters reached: +144 in cluster.rs
# (the scan's two row sources behind one body, the walk as a function of
# its own, the cut-off and its reasons), +21 net in config.rs / store.rs
# (SQ8 refuses a non-L2 metric; the build's wire resolution moved beside
# the check that must follow it), +5 of `ef` documentation, +93 in
# crates/bench (`repro subsearch`, the sweep the cut-off is read off, and
# `repro scale`'s two columns). PR 22 lowered the total to what one write
# protocol gives back (engine/write.rs 255 -> 184, the plane's unused
# verdict code gone) and put the three leaf crates, which PRs 19-20 had
# grown by 445 lines outside any ratchet, under ratchets of their own at
# what deleting their uncalled modules (rdma-sim's cq.rs, vecsim's
# stats.rs, hnsw's bruteforce.rs) reached. PR 23 raised the total and
# vecsim's ratchet by 60 lines together (the +60 its issue allowed):
# +56 in engine/query.rs and cluster.rs (the rerank as a loop
# that ends with every reported distance exact, the exact-row arena and
# its lifetime rule, the merge's selection, the scan's compute-then-offer
# step; the stable-sort merge and the two `sweep` bodies paid for part)
# and +4 in vecsim (the threshold reservoir and its key, less the heap,
# `threshold`, `drain_sorted`, `l2_decoded`, `sq_diff` and the second
# lane count). PR 24 raised vecsim's ratchet by the 110 lines its issue
# allowed and not one more (+87 `simd.rs`: the workspace's second unsafe
# module, one macro that writes every kernel's entry and AVX2 twin, and
# `active`, `l2_sq` / `dot` / `cosine_distance` moving in with their docs;
# +23 net in distance.rs / quantize.rs / lib.rs: the kernels' `*_portable`
# bodies, the row x block kernel `Metric::distances` and its body) and crates/bench's by 16 (`kernel:` in
# `repro`'s header and `doctor`'s, `repro subsearch`'s portable-vs-
# dispatched ns/dim line: a time is now printed with the kernel width it
# was taken at); the total *fell* by 2 (`Block::offer` is one call of the
# block kernel instead of a closure per row). PR 25 lowered the plane,
# the total and crates/bench to what deleting the registry's mirrors
# reached: 25 of 57 metric families (the health report's gauges, the
# exemplar store's tail families, the LRU lookup pair), `Gauge`'s unused
# arithmetic and `HealthReport::publish` with them, the health report's
# own window state for the one window `/timeseries` cuts, the watchdog's
# second copy of its two windowed checks, and `repro tail` with its
# trace driver (crates/bench/src/trace.rs). PR 26 lowered rdma-sim's to
# what one verb executor reached (1 779 -> 1 690, +4 of them rustfmt's):
# reads, writes, CAS and FAA share one body, and the memory node's counter
# mirror and `TransferStats::record_read` are gone. The workspace-wide
# rustfmt pass then raised each ratchet by exactly the lines the formatter
# added and nothing else: crates/core/src +113 (the plane +19), crates/bench
# +49, hnsw +14, vecsim +2, and the largest file (cluster.rs) 1 300 -> 1 325.
# Committing every write in two doorbells raised rdma-sim's by the 74 lines
# the mixed doorbell and the work-request cut spend (1 690 -> 1 764: the
# write-or-atomic request type, `doorbell`, `cut_nth` and its bookkeeping,
# each work request's kind in the trace) and crates/core/src's by 17 (the
# plane +7: the counting rule in the two mutation counters' help text, a
# doorbell's child spans named by kind; engine/write.rs +9: the reserving
# doorbell's assembly and the cache dropped on the failure path too).
# The transposed 8-query tile kernel raised vecsim's by the 90 lines set
# aside for it (1 769 -> 1 859: `QueryBlock`, the block's layout built once
# per block, and its one body over whole tiles, padded tiles and queries
# left over, less `Metric::distances` and its body; nothing else in vecsim
# was deleted toward it), crates/bench's by 14 (`repro subsearch`'s blocks
# of 6 and 8, 1 500 rows, and the block kernel's ns per (row, query) by
# block size with the tile's cost read off them, sharing one timer with
# the ns/dim line) and crates/core/src's by 2 (`run_indexed` runs its first
# chunk on the calling thread); cluster.rs stays at 1 325, the block's
# kernel scratch having moved into vecsim.
# Writing the scan-or-walk rule once raised crates/core/src's and
# cluster.rs's by 6 (`cluster::scans`, which `probe`, repro and the tests
# now ask) and crates/bench's by 4 (`repro subsearch`'s 1 100 / 1 200 /
# 1 300-row sizes and its cut read off `scans`).
# One bound per query across its probes raised crates/core/src's by 50 (the
# seeded probe's `bounds` and its contract, the scan's seeded collectors,
# the clusters' order by mean route position, the bounds lowered after each
# probe, the merge's sort-based de-duplication net of the loop it replaced;
# cluster.rs 1 331 -> 1 344), vecsim's by 45 (`TopK::reset_below`, which
# `reset` folded into, and `SharedBound` with the total-order mapping they
# share) and crates/bench's by 26 (`repro subsearch`'s seeded column and the
# admitted shares beside it).
# One phase table raised crates/core/src's by 22 and the plane's by 35 and
# lowered crates/bench's by 10. What went: the engine's five private
# `Instant` pairs (a span's close returns the wall it measured), the four
# per-phase stage counters and their four `observe` lines, `fold_phases`'s
# hand-written paths, `diagnose`'s per-phase array and key list,
# `span_args`'s four phase lines, `Histogram::quantile`'s copy of the
# snapshot's bucket walk, `LatencyBreakdown`'s uncalled `Add`, the three
# copies of the span tracer's record lookup (now `update`), and the Table
# 1/2 printer's and both CSV rows' own folding of materialize into
# sub-HNSW. What came: `Phase`, its spelling table and accessors (about 60
# lines, more than the nine files' spellings it replaced), and
# `paper_columns`.
# One read planner lowered crates/core/src's to 10 700, the plane's to
# 4 424, hnsw's to 1 667, vecsim's to 1 863, rdma-sim's to 1 759 and the
# largest file (cluster.rs) to 1 337. What went: the loader's own copies
# of the §3.2 geometry (`load_span`, `version_req`, `cluster_cut`,
# `push_body`, decode's second cut of the overflow area, the SQ8
# follow-up's request), now `layout.rs`'s and `loader::plan_load`'s;
# `series::Handles` and `Telemetry::tick_series` (the node samples the
# families it already holds); and the public API nothing outside tests
# called: `hnsw::diagnostics::analyze` with its two report types,
# `MetaIndex::graph_report`, `hnsw::serialize::{write_to, read_from}`,
# `DHnswConfig::with_sub_params`, `Dataset::into_flat`,
# `vecsim::io::{read_bvecs, write_ivecs}`, `MemoryNode::region_count`, the
# cache's hit and miss counters, and `LoadedCluster::{from_sub,
# total_vectors}`. What came: the planner and its round type, the layout's
# cut, overflow and record-address rules, `EngineMetrics::sample`, and
# `cluster::full_row_at`.
# One channel per knob lowered crates/core/src's to 10 438, the plane's to
# 4 258, hnsw's to 1 653 and vecsim's to 1 839 (crates/bench, rdma-sim and
# cluster.rs unchanged). What went: eleven of the library's fifteen
# environment variables with their parsers (`tracer_env`, `flag_var`,
# `SloBudgets::from_env`) and connect's writes to the shared span tracer;
# the retry-backoff field, getter, builder and check (now a constant beside
# `Reader::again`); the heatmap's on/off switch and its five guards; the
# exemplar store's and series recorder's one-value tuning (`with_config`,
# `with_capacity`, `AnomalyConfig`: constants now); the store's own
# classifier threads (`classify_with_beam` on `run_indexed`),
# `MetaIndex::classify`, the plan-then-pin demotion branch,
# `Telemetry::{counter, gauge, histogram}`, `HnswIndex::search_filtered`
# and `vecsim::io::read_ivecs`. What came: the directory decoder's
# geometry checks, the snapshot reader's grow-as-read sections and the
# meta decoder's checked offsets.
# One load round per batch lowered crates/core/src's to 10 079, the
# plane's to 4 214, crates/bench's to 2 886 and rdma-sim's to 1 754
# (hnsw, vecsim and cluster.rs unchanged). What went: the micro-batch
# pipeline (`loader::stage_loads`, `run_batch`'s look-ahead and its
# NIC/CPU overlap accounting), the heatmap prefetcher (engine/prefetch.rs,
# 141 lines), their two config fields, builders, runtime setters and
# environment variables, four metric families, the series' hidden ratio,
# `top`'s column, the `prefetch` read cause, `repro pipeline` and the
# four CLI flags. What came: the two binaries' flag checks (`dhnsw_cli`'s
# one list of the flags its subcommands read, `repro`'s parser).
# One series schema lowered crates/bench's to 2 548 and hnsw's to 1 574
# (crates/core/src, the plane, vecsim, rdma-sim and cluster.rs
# unchanged). What went: crates/bench's JSON reader (json.rs, 252 lines)
# with `top`'s parsed-back snapshot, its row type and its two column
# readers (the node renders the frame from the recorder's typed records
# and `top` prints the body of `GET /top`), the serve closure's second
# parse of `/timeseries`' parameters and the lock around a string
# written once; the HNSW selection knobs that had one value each
# (`extend_candidates` off, `keep_pruned` on: two fields, their builders
# and getters, the extension branch, the backfill condition and the
# selection's graph, layer and query arguments).
# One window lowered crates/core/src's to 9 924, the plane's to 4 073 and
# crates/bench's to 2 508 (hnsw, vecsim, rdma-sim and cluster.rs
# unchanged). What went: the health report's window cursor on the node
# (`window_start`) and its seven `window_*` fields, `series::Window` and
# `derive` (one public `SeriesPoint::between` now), the watchdog's shared
# `windowed` helper and `SloBudgets::is_empty`, the heatmap's EWMA hotness
# (its decay constants, two per-cell stamps, the batch clock and
# `begin_batch`), exemplar.rs's copy of `chrome::json_num`,
# `DHnswConfig::with_meta_params` with the two checks only it could trip,
# the `dhnsw_cli metrics` subcommand and its `--format` flag, and the
# second copy of the probe workload. What came: `ComputeNode::sample`
# and `doctor`'s two-sample bracket.
# One home for span trees lowered crates/core/src's to 9 648, the plane's
# to 3 803 and crates/bench's to 2 475 (hnsw, vecsim, rdma-sim and
# cluster.rs unchanged). What went: the slow-query log (its threshold,
# ring, plain-text tree renderer and `finish_trace`'s second signature),
# the K-slowest set's copies of span trees, the bucket exemplars, the
# profile's phase fold, `SpanTracer::{clear, len, is_empty}`,
# `ProfileAccumulator::clear`, `SeriesRecorder::clear`, and both tracing
# flags of both binaries with `dhnsw_cli`'s helper that applied them
# (`serve`, the one surface that renders span trees, captures them).
# Nothing came.
# One surface per number lowered crates/core/src's to 9 327, the plane's
# to 3 493 and crates/bench's to 2 468 (hnsw, vecsim, rdma-sim and
# cluster.rs unchanged). What went: the health report's cache, latency,
# reliability and tail sections (copies of `/metrics` families and of
# `/exemplars`), the registry's JSON snapshot beside its Prometheus text,
# `Histogram::{min, quantile, observe}` and the min atomic, the total
# bytes-read and transfers-saved families (sums of other families) with
# their handles, the profile's own accumulator (`/profile/folded` folds
# the span ring), `SpanTracer::finish`'s copy for it, the heatmap's
# route-hit column, `ExemplarStore::occupancy` and `/explain/last`. What
# came: the windowed degraded rate (`Sample::degraded_queries`,
# `SeriesPoint::degraded_rate`, its judge in `evaluate_point`) and the
# serving plane's pure request-head parser.
# The doorbell as a price lowered crates/core/src's to 9 321 and
# rdma-sim's to 1 721 (the plane, crates/bench, hnsw, vecsim and
# cluster.rs unchanged). What went: the engine's read policy (its struct,
# the mode's mapping to it and the node's field; its one surviving bit is
# `SearchMode::reuses`), the post primitive's per-verb branch, and the two
# single-verb reads only it and `rebuild` posted (`read_into`,
# `read_with_cause`), and `check_scatter`, inlined into its one caller
# left. What came:
# the baseline node's queue pair priced at doorbell limit 1 in `connect`.
# One fork-join lowered crates/core/src's to 9 277 (the plane,
# crates/bench, hnsw, vecsim, rdma-sim and cluster.rs unchanged). What
# went: the store build's second thread pool (`build_clusters`, its
# `ClusterBlobs` slots behind mutexes and its atomic work queue; the
# cluster builds are a `run_indexed` call in `build_inner`) and
# materialize's mutex cell per fetch. What came: `run_indexed` over owned
# items, each claimed one at a time from one queue.
# Writing spans where the trace is held lowered crates/core/src's to
# 9 198, the plane's to 3 332, rdma-sim's to 1 553 and crates/bench's to
# 2 459 (hnsw, vecsim and cluster.rs unchanged). What went: rdma-sim's
# trace module (the sink trait, its span and fault event types, the
# chunk splitter), the queue pair's sink slot, flag and emitters, the
# per-request kind names, `doorbell_round_trips` (the schedule counts
# trips); core's sink bridge, the thread-local scope stack with its
# guard, and the cache's four emit sites; four copies of the bench
# crate's recall computation. What came: `NetworkModel::schedule` (the
# one chunking rule, which the executor prices by) and `timeout_us`, the
# reader's rendering of a traced post, the batch body's two cache
# instants and `Workload::recall`.
# Building each sub-HNSW from one pairwise distance table raised hnsw's by
# the 127 lines it added net (1 574 -> 1 701), for a `cold_scan` set-up of
# about 0.7x the parent's (CHANGES.md): the table and its fill by
# the block kernel, the distance source as a closure through the descent,
# the beam search, the selection and the shrink, and one per-thread build
# scratch; insert's own copy of the linking and the shrink's row copy and
# three collected vectors went. Routing the retry backoff's clock charge
# through the queue pair raised rdma-sim's by 6 (1 553 -> 1 559):
# `QueuePair::charge_backoff_us`, and the clock's doc saying who charges.
# Pricing virtual time in whole picoseconds lowered rdma-sim's to 1 553
# (1 559 -> 1 553): the f64 constructor and its checks, the clock's
# NaN / negative guard and the queue pair's timeout helper went; came the
# picosecond accessors, the one microsecond rendering (`ps_to_us`) and
# `QueuePair::reset_measurements`, the one writer of a reset.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_TOTAL=9198
MAX_PLANE=3332
MAX_BENCH=2459
MAX_HNSW=1701
MAX_VECSIM=1839
MAX_RDMA=1553
MAX_FILE=1337

total=0
plane=0
bench=0
hnsw=0
vecsim=0
rdma=0
worst=0
while IFS= read -r file; do
  n=$(awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
  printf '%6d  %s\n' "$n" "$file"
  case "$file" in
    crates/bench/*) bench=$((bench + n)) ;;
    crates/hnsw/*) hnsw=$((hnsw + n)) ;;
    crates/vecsim/*) vecsim=$((vecsim + n)) ;;
    crates/rdma-sim/*) rdma=$((rdma + n)) ;;
    *) total=$((total + n)) ;;
  esac
  case "$file" in
    */telemetry.rs | */telemetry/* | */health/* | */breakdown.rs) plane=$((plane + n)) ;;
  esac
  if ((n > worst)); then worst=$n; fi
done < <(find crates/core/src crates/bench/src crates/hnsw/src crates/vecsim/src \
  crates/rdma-sim/src -name '*.rs' | sort)
printf '%6d  telemetry plane (telemetry.rs + telemetry/ + health/ + breakdown.rs)\n' "$plane"
printf '%6d  crates/core/src total\n' "$total"
printf '%6d  crates/bench/src total\n' "$bench"
printf '%6d  crates/hnsw/src total\n' "$hnsw"
printf '%6d  crates/vecsim/src total\n' "$vecsim"
printf '%6d  crates/rdma-sim/src total\n' "$rdma"

if [[ "${1:-}" == "--check" ]]; then
  over() {
    echo "loc.sh: $1 holds $2 non-test lines, over the $3 ratchet" >&2
    exit 1
  }
  ((total <= MAX_TOTAL)) || over crates/core/src "$total" "$MAX_TOTAL"
  ((plane <= MAX_PLANE)) || over "the telemetry plane" "$plane" "$MAX_PLANE"
  ((bench <= MAX_BENCH)) || over crates/bench/src "$bench" "$MAX_BENCH"
  ((hnsw <= MAX_HNSW)) || over crates/hnsw/src "$hnsw" "$MAX_HNSW"
  ((vecsim <= MAX_VECSIM)) || over crates/vecsim/src "$vecsim" "$MAX_VECSIM"
  ((rdma <= MAX_RDMA)) || over crates/rdma-sim/src "$rdma" "$MAX_RDMA"
  ((worst <= MAX_FILE)) || over "a file" "$worst" "$MAX_FILE"
fi
