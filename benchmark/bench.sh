#!/usr/bin/env bash
# What BENCHMARK.json runs: the benchmark binary, built on first use,
# pinned to one CPU. How many cores this sandbox really has changes by
# the minute (two vCPUs that at times share one physical core), which
# moved two-thread batch latency by 35-75 % between identical runs; on
# one CPU the same runs agree within a few percent. Arguments are passed
# through to the binary.
set -euo pipefail
cd "$(dirname "$0")/.."
run=(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --)
if command -v taskset >/dev/null 2>&1; then
    # The first CPU this process may use, e.g. "0" from "0-1" or "0,2".
    cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
    exec taskset -c "$cpu" "${run[@]}" "$@"
fi
exec "${run[@]}" "$@"
