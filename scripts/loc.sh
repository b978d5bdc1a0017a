#!/usr/bin/env bash
# Non-test lines per file under crates/core/src — the lines before a
# file's first `#[cfg(test)]` (or `#![cfg(test)]`: a file that is all
# tests counts zero) — their total, and the subtotal of the telemetry
# plane (telemetry.rs, telemetry/, health/, breakdown.rs). Counted this
# way, moving code between files changes nothing; only writing or
# deleting it does.
#
#   scripts/loc.sh           # the table
#   scripts/loc.sh --check   # also fail past the ratchets below
#
# The ratchets are what ROADMAP items 3 and 5 reached (PR 14: 11 334 ->
# 11 056 with no file over 1 300; PR 17: the figures below): engine.rs
# was once 2 900 non-test lines of hand-copied read paths and the plane
# once described a batch five times, and this keeps either from growing
# back.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_TOTAL=10994
MAX_PLANE=4690
MAX_FILE=1300

total=0
plane=0
worst=0
while IFS= read -r file; do
  n=$(awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
  printf '%6d  %s\n' "$n" "$file"
  total=$((total + n))
  case "$file" in
    */telemetry.rs | */telemetry/* | */health/* | */breakdown.rs) plane=$((plane + n)) ;;
  esac
  if ((n > worst)); then worst=$n; fi
done < <(find crates/core/src -name '*.rs' | sort)
printf '%6d  telemetry plane (telemetry.rs + telemetry/ + health/ + breakdown.rs)\n' "$plane"
printf '%6d  total\n' "$total"

if [[ "${1:-}" == "--check" ]]; then
  if ((total > MAX_TOTAL)); then
    echo "loc.sh: crates/core/src holds $total non-test lines, over the $MAX_TOTAL ratchet" >&2
    exit 1
  fi
  if ((plane > MAX_PLANE)); then
    echo "loc.sh: the telemetry plane holds $plane non-test lines, over the $MAX_PLANE ratchet" >&2
    exit 1
  fi
  if ((worst > MAX_FILE)); then
    echo "loc.sh: a file holds $worst non-test lines, over the $MAX_FILE per-file ratchet" >&2
    exit 1
  fi
fi
