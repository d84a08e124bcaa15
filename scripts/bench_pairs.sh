#!/usr/bin/env bash
# Paired comparison of the repo benchmark between a parent revision and
# the working tree, on one or more workloads, by the rule a claimed
# gain must meet.
#
#   scripts/bench_pairs.sh <parent-rev> <workloads> [pairs] [seconds]
#
# <workloads> is one workload name, a comma-separated list of them, or
# `all` (every workload BENCHMARK.json declares, in its order).
#
# Builds the benchmark package (benchmark/Cargo.toml) twice, each into
# a target directory of its own: once from <parent-rev>, unpacked into
# a temporary directory with `git archive` (so an interrupted run
# leaves nothing registered in the repository), and once from the
# working tree. Then, workload by workload, runs <pairs> pairs
# (default 10) of `--trace 0` runs of <seconds> each (default 15),
# every pair on a fresh seed (time-based, printed), alternating which
# side runs first.
#
# Once a workload's pairs are done it prints that workload's table:
# for every end-to-end metric BENCHMARK.json declares, each side's
# median and quartiles and the number of pairs the change won (ties
# count for neither side), with one verdict:
#
#   gain        the change won at least nine tenths of the pairs and
#               the medians differ by more than the parent's
#               interquartile range;
#   worse       the change's median is worse than the parent's by more
#               than the metric's `bound` in BENCHMARK.json (a share of
#               the parent's median);
#   unresolved  the parent's interquartile range is wider than that
#               bound, so a regression within it could not be seen,
#               and not every change run beats every parent run;
#   no claim    none of these: no gain, and no regression past the
#               bound.
#
# Every run's numbers
# are kept in the temporary directory, whose path it prints. The
# benchmark's own files are not touched. The workload list and the
# statistics need python3.
#
# On a clean checkout (no uncommitted edits), `scripts/bench_pairs.sh
# HEAD <workloads>` is an A/A run: both sides are built from one
# source, so its table shows the gap this machine makes by itself,
# the noise any real comparison's medians and win counts sit in.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/bench_pairs.sh <parent-rev> <workload>[,<workload>...]|all [pairs] [seconds]" >&2
    exit 2
fi
rev=$1 pairs=${3:-10} seconds=${4:-15}
case "$pairs" in '' | *[!0-9]* | 0) echo "bench_pairs: bad pair count '$pairs'" >&2; exit 2 ;; esac
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
    { echo "bench_pairs: no such revision '$rev'" >&2; exit 2; }

# The workloads asked for, one per line, each one BENCHMARK.json declares.
workloads=$(python3 - "$2" BENCHMARK.json <<'EOF'
import json, sys

asked, manifest = sys.argv[1], sys.argv[2]
known = [w["name"] for w in json.load(open(manifest))["workloads"]]
names = known if asked == "all" else asked.split(",")
unknown = [n for n in names if n not in known]
if unknown:
    sys.exit(f"bench_pairs: no workload {', '.join(map(repr, unknown))}; "
             f"BENCHMARK.json declares {', '.join(known)}")
print("\n".join(names))
EOF
)

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

# run <workload> <side> <binary> <pair> <seed>: one untraced run, its
# last line (the JSON summary) saved as runs/<workload>/<side>-<pair>.json.
run() {
    "$3" --results-dir "$tmp/results" --workload "$1" --seed "$5" \
        --seconds "$seconds" --trace 0 | tail -n 1 > "$tmp/runs/$1/$2-$4.json"
}

# table <workload>: each end-to-end metric's verdict over its pairs.
table() {
    python3 - "$tmp/runs/$1" "$pairs" BENCHMARK.json "$1" <<'EOF'
import json, statistics, sys

runs, pairs, manifest, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
metrics = json.load(open(manifest))["end_to_end"]

def load(side, i):
    summary = json.load(open(f"{runs}/{side}-{i}.json"))
    if not summary["correct"]:
        sys.exit(f"bench_pairs: {workload}: {side} run {i} delivered wrong bytes")
    return summary["metrics"]

parent = [load("parent", i) for i in range(pairs)]
change = [load("change", i) for i in range(pairs)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"\n{workload} ({pairs} pairs)")
print(f"{'metric':<18} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict")
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    if name not in parent[0]:
        continue
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(cv, pv) for pv, cv in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    # How much better the change's median is; negative when worse.
    gap = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
    allowed = bound * abs(pq[1])
    if wins * 10 >= 9 * pairs and gap > pq[2] - pq[0]:
        verdict = "gain"
    elif -gap > allowed:
        verdict = "worse"
    elif pq[2] - pq[0] > allowed and not all(better(cv, pv) for cv in c for pv in p):
        verdict = "unresolved"
    else:
        verdict = "no claim"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<18} {fmt(pq):>32} {fmt(cq):>32} {wins:>3}/{pairs:<2}  {verdict}")
EOF
}

base_seed=$(date +%s)
for workload in $workloads; do
    mkdir -p "$tmp/runs/$workload"
    for ((i = 0; i < pairs; i++)); do
        seed=$((base_seed + i))
        echo "$workload: pair $((i + 1))/$pairs, seed $seed"
        if ((i % 2 == 0)); then
            run "$workload" parent "$parent_bin" "$i" "$seed"
            run "$workload" change "$change_bin" "$i" "$seed"
        else
            run "$workload" change "$change_bin" "$i" "$seed"
            run "$workload" parent "$parent_bin" "$i" "$seed"
        fi
    done
    table "$workload"
done
