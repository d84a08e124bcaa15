#!/usr/bin/env bash
# Paired comparison of the repo benchmark between a parent revision and
# the working tree, on one workload, by the rule a claimed gain must
# meet.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seconds]
#
# Builds the benchmark package (benchmark/Cargo.toml) twice, each into
# a target directory of its own: once from <parent-rev>, unpacked into
# a temporary directory with `git archive` (so an interrupted run
# leaves nothing registered in the repository), and once from the
# working tree. Then runs <pairs> pairs (default 10) of `--trace 0`
# runs of <seconds> each (default 15), every pair on a fresh seed
# (time-based, printed), alternating which side runs first.
#
# For every end-to-end metric BENCHMARK.json declares it prints each
# side's median and quartiles and the number of pairs the change won
# (ties count for neither side), and calls a metric a gain only when
# the change won at least nine tenths of the pairs and the medians
# differ by more than the parent's interquartile range. Every run's
# numbers are kept in the temporary directory, whose path it prints.
# The benchmark's own files are not touched. The statistics need
# python3.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}
case "$pairs" in '' | *[!0-9]* | 0) echo "bench_pairs: bad pair count '$pairs'" >&2; exit 2 ;; esac
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
    { echo "bench_pairs: no such revision '$rev'" >&2; exit 2; }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
echo "bench_pairs: runs kept in $tmp"
mkdir -p "$tmp/parent" "$tmp/runs"
git archive "$rev" | tar -x -C "$tmp/parent"

# build <source root> <target dir>: the benchmark binary's path.
build() {
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
    echo "$2/release/mbtls-benchmark"
}
parent_bin=$(build "$tmp/parent" "$tmp/target-parent")
change_bin=$(build "$PWD" "$tmp/target-change")

# run <side> <binary> <pair> <seed>: one untraced run, its last line
# (the JSON summary) saved as runs/<side>-<pair>.json.
run() {
    "$2" --results-dir "$tmp/results" --workload "$workload" --seed "$4" \
        --seconds "$seconds" --trace 0 | tail -n 1 > "$tmp/runs/$1-$3.json"
}
base_seed=$(date +%s)
for ((i = 0; i < pairs; i++)); do
    seed=$((base_seed + i))
    echo "pair $((i + 1))/$pairs, seed $seed"
    if ((i % 2 == 0)); then
        run parent "$parent_bin" "$i" "$seed"
        run change "$change_bin" "$i" "$seed"
    else
        run change "$change_bin" "$i" "$seed"
        run parent "$parent_bin" "$i" "$seed"
    fi
done

python3 - "$tmp/runs" "$pairs" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs, pairs, manifest = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open(manifest))["end_to_end"]

def load(side, i):
    summary = json.load(open(f"{runs}/{side}-{i}.json"))
    if not summary["correct"]:
        sys.exit(f"bench_pairs: {side} run {i} delivered wrong bytes")
    return summary["metrics"]

parent = [load("parent", i) for i in range(pairs)]
change = [load("change", i) for i in range(pairs)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<18} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    if name not in parent[0]:
        continue
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    gap = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
    gain = wins * 10 >= 9 * pairs and gap > pq[2] - pq[0]
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<18} {fmt(pq):>32} {fmt(cq):>32} {wins:>3}/{pairs:<2}  "
          + ("gain" if gain else "no claim"))
EOF
