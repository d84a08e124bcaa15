#!/usr/bin/env bash
# The repo benchmark's one command: build the benchmark package in
# release mode, then run it.
#
#   benchmark/run.sh [--repeat N] [--workload NAME] [--seed N] [--seconds N]
#                    [--trace 0|1] [--smoke]
#
# Without --workload all six workloads run (rounds interleaved);
# without --trace both the end-to-end and the per-layer pass run.
# --repeat N runs the same set N times in fresh processes and exits
# non-zero if any end-to-end metric differs between the runs by more
# than its bound or any round digest differs. Every other argument
# goes to the binary unchanged (see src/main.rs).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

repeat=1
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --repeat)
            [ $# -ge 2 ] || { echo "run.sh: --repeat needs a count" >&2; exit 2; }
            repeat="$2"
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done
case "$repeat" in
    '' | *[!0-9]* | 0) echo "run.sh: --repeat takes a positive count, not '$repeat'" >&2; exit 2 ;;
esac

# A relative CARGO_TARGET_DIR is relative to the caller's directory,
# for cargo and for the path below alike, so do not cd.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/mbtls-benchmark"

if [ "$repeat" -eq 1 ]; then
    exec "$bin" --results-dir "$here/results" ${args[@]+"${args[@]}"}
fi

mkdir -p "$here/results"
status=0
files=()
for i in $(seq 1 "$repeat"); do
    file="$here/results/run-$i.tsv"
    echo "## run $i of $repeat"
    "$bin" --results-dir "$here/results" --out "$file" ${args[@]+"${args[@]}"} || status=1
    files+=("$file")
done
"$bin" --compare "${files[@]}" || status=1
exit "$status"
