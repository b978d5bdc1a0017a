#!/usr/bin/env bash
# Runs every workload, un-traced then traced, through bench.sh (which
# builds the binary and pins it to one CPU), printing each metric by name
# with its unit.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--twice]
#
# --twice runs the whole set two times at the same seed into
# benchmark/out/a and benchmark/out/b and holds the two against the
# bounds of BENCHMARK.json with --compare (the counts of the traced runs
# must agree exactly).
set -uo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=10
twice=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --smoke) extra+=(--smoke); shift ;;
        --twice) twice=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

bench=(bash benchmark/bench.sh)
workloads=$("${bench[@]}" --list | cut -d' ' -f1) || exit 3

status=0
run_set() {
    for trace in 0 1; do
        for w in $workloads; do
            "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --out "$1" ${extra[@]+"${extra[@]}"} || status=1
        done
    done
}

if [ "$twice" = 1 ]; then
    run_set benchmark/out/a
    run_set benchmark/out/b
    "${bench[@]}" --compare benchmark/out/a benchmark/out/b || status=1
else
    run_set benchmark/out
fi
[ "$status" = 0 ] || echo "benchmark/run.sh: a run failed its checks" >&2
exit "$status"
