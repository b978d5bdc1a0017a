#!/usr/bin/env bash
# Non-test lines per file under crates/core/src and crates/bench/src —
# the lines before a file's first `#[cfg(test)]` (or `#![cfg(test)]`: a
# file that is all tests counts zero) — each root's total, and the
# subtotal of the telemetry plane (telemetry.rs, telemetry/, health/,
# breakdown.rs). Counted this way, moving code between files changes
# nothing; only writing or deleting it does.
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
# `repro scale`'s two columns).
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_TOTAL=10800
MAX_PLANE=4680
MAX_BENCH=3068
MAX_FILE=1300

total=0
plane=0
bench=0
worst=0
while IFS= read -r file; do
  n=$(awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
  printf '%6d  %s\n' "$n" "$file"
  case "$file" in
    crates/bench/*) bench=$((bench + n)) ;;
    *) total=$((total + n)) ;;
  esac
  case "$file" in
    */telemetry.rs | */telemetry/* | */health/* | */breakdown.rs) plane=$((plane + n)) ;;
  esac
  if ((n > worst)); then worst=$n; fi
done < <(find crates/core/src crates/bench/src -name '*.rs' | sort)
printf '%6d  telemetry plane (telemetry.rs + telemetry/ + health/ + breakdown.rs)\n' "$plane"
printf '%6d  crates/core/src total\n' "$total"
printf '%6d  crates/bench/src total\n' "$bench"

if [[ "${1:-}" == "--check" ]]; then
  over() {
    echo "loc.sh: $1 holds $2 non-test lines, over the $3 ratchet" >&2
    exit 1
  }
  ((total <= MAX_TOTAL)) || over crates/core/src "$total" "$MAX_TOTAL"
  ((plane <= MAX_PLANE)) || over "the telemetry plane" "$plane" "$MAX_PLANE"
  ((bench <= MAX_BENCH)) || over crates/bench/src "$bench" "$MAX_BENCH"
  ((worst <= MAX_FILE)) || over "a file" "$worst" "$MAX_FILE"
fi
