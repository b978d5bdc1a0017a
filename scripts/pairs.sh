#!/usr/bin/env bash
# Alternating parent / change pairs of the repository benchmark, the way
# every perf PR has to report them (choosing-metrics section 8): for each
# workload and seed one 10 s un-traced run of `benchmark/bench.sh` on a
# copy of the parent commit and one on this working tree, alternating
# which side goes first; then per pair the seven end-to-end values, and
# per metric each side's median and quartiles, wins / ties, and
# `unresolved` where the parent's own quartile spread exceeds the
# difference of the medians.
#
#   scripts/pairs.sh <parent-ref> [--workloads "sq8_cold mixed_rw"] \
#       [--seeds "8 9 10 11 12 13 14 15 16 17"] [--seconds 10] [--dir DIR] \
#       [--record N]
#
# `--record N` also writes results/BENCH_pr<N>.json, the trajectory's
# record of this comparison: both commits (and whether the working tree
# differed from HEAD), the CPU and its count, the seeds, and per workload
# and metric each side's median and quartiles, change / parent, wins,
# ties and the verdict. scripts/check.sh validates every committed record.
#
# The parent is unpacked once with `git archive` into DIR (default
# $TMPDIR/dhnsw-pairs-<sha>) and builds there on its first run; a DIR
# that exists is reused. One run at a time: the machine has two vCPUs
# and bench.sh pins itself to one.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,24p' "$0" >&2; exit 2; }
ref=$1; shift
workloads=$(bash benchmark/bench.sh --list | cut -d' ' -f1 | tr '\n' ' ')
seeds="8 9 10 11 12 13 14 15 16 17"
seconds=10
dir=
record=
while [ $# -gt 0 ]; do
    case "$1" in
        --record) record=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --seeds) seeds=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --dir) dir=$2; shift 2 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

parent=$(git rev-parse --verify "$ref^{commit}")
dir=${dir:-${TMPDIR:-/tmp}/dhnsw-pairs-${parent:0:12}}
if [ ! -d "$dir" ]; then
    mkdir -p "$dir"
    git archive "$parent" | tar -x -C "$dir"
fi
echo "# parent ${parent:0:12} in $dir, change $(git rev-parse --short HEAD)+worktree in $PWD"

metrics="setup_s qps batch_ms_p50 insert_ms_p50 recall_at_10 peak_rss_mb remote_mb"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run: "<workload> <seed> <side>" then the seven values, in `metrics` order.
run() {
    local side=$1 where=$2 w=$3 s=$4
    (cd "$where" && bash benchmark/bench.sh --workload "$w" --seed "$s" \
        --seconds "$seconds" --trace 0 --out "$out/$side") |
        awk -v names="$metrics" -v head="$w $s $side" '
            BEGIN { n = split(names, want, " ") }
            { for (i = 1; i <= n; i++) if ($1 == want[i]) got[i] = $2 }
            /^\{/ && !/"correct":true/ { bad = 1 }
            END {
                for (i = 1; i <= n; i++) head = head " " (i in got ? got[i] : "nan")
                print head (bad ? " INCORRECT" : "")
            }'
}

flip=0
for w in $workloads; do
    printf '\n## %s\n%-9s %4s %-6s %s\n' "$w" workload seed side "$metrics"
    for s in $seeds; do
        if [ $((flip % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
        flip=$((flip + 1))
        for side in $order; do
            if [ "$side" = parent ]; then where=$dir; else where=$PWD; fi
            run "$side" "$where" "$w" "$s" | tee -a "$out/runs"
        done
    done
done

# Per workload and metric: medians, quartiles, wins, verdict.
awk -v names="$metrics" '
    function sorted(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    # Linear interpolation between order statistics, as numpy does.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    BEGIN { m = split(names, name, " "); higher["qps"] = higher["recall_at_10"] = 1 }
    {
        if (!($1 in seen)) { seen[$1] = 1; order[++workloads] = $1 }
        for (i = 1; i <= m; i++) value[$1, $3, $2, i] = $(3 + i)
        seeds[$1, $2] = 1
        if ($NF == "INCORRECT") incorrect[$1]++
    }
    END {
        for (w = 1; w <= workloads; w++) {
            W = order[w]
            printf "\n## %s: parent median [q1, q3] -> change median [q1, q3], change ahead / ties / pairs\n", W
            for (i = 1; i <= m; i++) {
                n = wins = ties = 0
                for (key in seeds) {
                    split(key, part, SUBSEP)
                    if (part[1] != W) continue
                    p = value[W, "parent", part[2], i]; c = value[W, "change", part[2], i]
                    if (p == "" || c == "") continue
                    n++; P[n] = p + 0; C[n] = c + 0
                    if (c + 0 == p + 0) ties++
                    else if ((c + 0 < p + 0) != (name[i] in higher)) wins++
                }
                if (n == 0) continue
                sorted(P, n); sorted(C, n)
                pm = quantile(P, n, 0.5); cm = quantile(C, n, 0.5)
                spread = quantile(P, n, 0.75) - quantile(P, n, 0.25)
                diff = cm - pm; if (diff < 0) diff = -diff
                verdict = diff == 0 ? "same" : (spread >= diff ? "unresolved" : \
                    (((cm < pm) != (name[i] in higher)) ? "change ahead" : "change behind"))
                printf "%-14s %12.6f [%.6f, %.6f] -> %12.6f [%.6f, %.6f]  %+6.1f %%  %d / %d / %d  %s\n", \
                    name[i], pm, quantile(P, n, 0.25), quantile(P, n, 0.75), \
                    cm, quantile(C, n, 0.25), quantile(C, n, 0.75), \
                    pm == 0 ? 0 : 100 * (cm - pm) / pm, wins, ties, n, verdict
                printf "%s %s %.9g %.9g %.9g %.9g %.9g %.9g %s %d %d %d %s\n", W, name[i], \
                    pm, quantile(P, n, 0.25), quantile(P, n, 0.75), \
                    cm, quantile(C, n, 0.25), quantile(C, n, 0.75), \
                    pm == 0 ? "null" : sprintf("%.6f", cm / pm), wins, ties, n, verdict > summary
            }
            if (W in incorrect) printf "%d run(s) of %s did not end \"correct\":true\n", incorrect[W], W
        }
    }' summary="$out/summary" "$out/runs"

[ -n "$record" ] || exit 0
file=results/BENCH_pr$record.json
mkdir -p results
dirty=false
[ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true
jq -R -s -n \
    --argjson pr "$record" --arg parent "$parent" --arg head "$(git rev-parse HEAD)" \
    --argjson dirty "$dirty" --argjson seconds "$seconds" \
    --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)" \
    --argjson nproc "$(nproc)" --arg seeds "$seeds" '
    def side(m; q1; q3): {median: m, q1: q1, q3: q3};
    [inputs | split("\n")[] | select(length > 0) | split(" ")] as $rows
    | ($seeds | split(" ") | map(select(length > 0) | tonumber)) as $seeds
    | {pr: $pr, parent: $parent, head: $head, dirty: $dirty, cpu: $cpu, nproc: $nproc,
       seconds: $seconds, pairs: ($seeds | length), seeds: $seeds,
       workloads: (reduce $rows[] as $r ({};
         .[$r[0]][$r[1]] = {
           parent: side($r[2] | tonumber; $r[3] | tonumber; $r[4] | tonumber),
           change: side($r[5] | tonumber; $r[6] | tonumber; $r[7] | tonumber),
           ratio: ($r[8] | fromjson), wins: ($r[9] | tonumber), ties: ($r[10] | tonumber),
           n: ($r[11] | tonumber), verdict: ($r[12:] | join(" "))}))}' \
    "$out/summary" > "$file"
echo "# wrote $file"
