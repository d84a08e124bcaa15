#!/usr/bin/env bash
# Regenerate and check the four BENCH_*.json artifacts: one `report all`
# call over every suite of the binary (scale, handshake, chain, paper;
# `paper` is the paper's own evaluation). The binary checks each
# artifact's schema and floors (each suite's row table, then the few
# floors no row can express) before writing it, writes only an
# artifact that passes, and exits non-zero on the first one that
# fails, leaving that file as it was; `report check <suite> <file>`
# reruns the checks alone.
#
#   scripts/bench_report.sh           full run, ~1 min (scale ~45 s,
#                                     handshake ~3 s, the rest about a
#                                     second each, plus the first
#                                     build): writes the committed
#                                     artifacts at the repo root and
#                                     re-renders EXPERIMENTS.md's
#                                     tables from BENCH_paper.json
#   scripts/bench_report.sh --smoke   tiny budgets (seconds) writing to
#                                     target/; used by scripts/check.sh
#                                     as the gate
#
# One suite alone: cargo run --release -p mbtls-bench --bin report -- handshake
set -euo pipefail
cd "$(dirname "$0")/.."

report() {
    cargo run -q --release -p mbtls-bench --bin report -- "$@"
}

report all "$@" > /dev/null
if [[ "${1:-}" != "--smoke" ]]; then
    report render BENCH_paper.json EXPERIMENTS.md
    echo "OK: EXPERIMENTS.md rendered from BENCH_paper.json"
fi
