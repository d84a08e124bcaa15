#!/usr/bin/env bash
# Regenerate and check the five BENCH_*.json regression artifacts: one
# `report` suite each — dataplane (crypto primitives and the record
# path), scale (session-host capacity: a 10k-session fleet at
# 1/2/4/8 shards), handshake (batched verify, resumption storm), chain
# (read-only forward, service chains) and auth (delegated credentials
# vs SGX attestation vs key sharing). The binary checks each
# artifact's schema and floors after writing it and exits non-zero on
# the first one that fails; `report check <suite> <file>` reruns the
# checks alone.
#
#   scripts/bench_report.sh           full run, ~1 min; writes the
#                                     committed artifacts at the repo
#                                     root (scale ~45 s, handshake
#                                     ~7 s, the rest under a second
#                                     each, plus the first build)
#   scripts/bench_report.sh --smoke   tiny budgets (seconds) writing to
#                                     target/; used by scripts/check.sh
#                                     as the gate
#
# One suite alone: cargo run --release -p mbtls-bench --bin report -- handshake
set -euo pipefail
cd "$(dirname "$0")/.."

for suite in dataplane scale handshake chain auth; do
    ARGS=("$suite")
    if [[ "${1:-}" == "--smoke" ]]; then
        mkdir -p target
        ARGS+=(--smoke --out "target/BENCH_$suite.json")
    fi
    start=$SECONDS
    cargo run -q --release -p mbtls-bench --bin report -- "${ARGS[@]}" > /dev/null
    echo "OK: $suite ($((SECONDS - start))s)"
done
