#!/usr/bin/env bash
# Non-test lines per file under crates/core/src — the lines before a
# file's first `#[cfg(test)]` (or `#![cfg(test)]`: a file that is all
# tests counts zero) — and their total. Counted this way, moving code
# between files changes nothing; only writing or deleting it does.
#
#   scripts/loc.sh           # the table
#   scripts/loc.sh --check   # also fail past the ratchet below
#
# The ratchet is what ROADMAP item 3 reached (PR 14, down from 11 334 with
# no file over 1 300): engine.rs was once 2 900
# non-test lines of hand-copied read paths, and this keeps a file like
# that from growing back.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_TOTAL=11056
MAX_FILE=1300

total=0
worst=0
while IFS= read -r file; do
  n=$(awk '/#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
  printf '%6d  %s\n' "$n" "$file"
  total=$((total + n))
  if ((n > worst)); then worst=$n; fi
done < <(find crates/core/src -name '*.rs' | sort)
printf '%6d  total\n' "$total"

if [[ "${1:-}" == "--check" ]]; then
  if ((total > MAX_TOTAL)); then
    echo "loc.sh: crates/core/src holds $total non-test lines, over the $MAX_TOTAL ratchet" >&2
    exit 1
  fi
  if ((worst > MAX_FILE)); then
    echo "loc.sh: a file holds $worst non-test lines, over the $MAX_FILE per-file ratchet" >&2
    exit 1
  fi
fi
