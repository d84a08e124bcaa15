#!/usr/bin/env bash
# Full local gate, run as named stages with per-stage timing:
#
#   lint        mbtls-lint workspace invariants (sans-IO, secret
#               hygiene, panic-freedom, const-time, shard-isolation,
#               unsafe-confinement); JSON-lines report to
#               target/lint-report.jsonl. Any finding fails, one
#               annotated with `lint:allow` included: the tree holds
#               zero
#   clippy      cargo clippy --workspace --all-targets -D warnings
#   doc         cargo doc --no-deps --workspace with
#               rustdoc::broken_intra_doc_links and
#               rustdoc::private_intra_doc_links denied: a doc link to a
#               renamed or deleted item, or from public docs to a private
#               one, fails here; then again with --document-private-items
#               and broken links denied, so a stale link in a private
#               item's docs fails too
#   seam-build  cargo check of the repo benchmark's own package
#               (benchmark/Cargo.toml, --offline, against ../crates/*):
#               a reshaped public item that benchmark/src/seam.rs
#               compiles against fails here, in seconds, not after the
#               build, test and bench stages
#   build       cargo build --release --workspace
#   test        cargo test -q --workspace
#   examples    every examples/*.rs, run once in release: each step in
#               them `expect`s, so a construction path or flow they
#               show that stops working fails here (a file without its
#               [[example]] entry in crates/bench/Cargo.toml fails too)
#   crypto-release  cargo test -q -p mbtls-crypto --release: the
#               vectors again on the build that ships — field25519's
#               limb contract is an overflow argument, and a debug
#               build panics on u64 overflow where release wraps
#   telemetry   scripts/telemetry_smoke.sh
#   bench       scripts/bench_report.sh --smoke: every suite of the
#               `report` binary at tiny budgets, each artifact
#               checked against its schema and smoke-proof floors;
#               then one line naming the `aead_backend` and the
#               `sha512_backend` they ran on, and the three per-hop
#               ratios over the former
#   seam        benchmark/run.sh --smoke: the benchmark the driver
#               gates on, built and run end to end at tiny budgets
#
# CI-equivalent; run before pushing. Reads no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run one named stage, timing it so slow stages are visible in CI
# logs without profiling runs.
stage() {
    local name=$1
    shift
    local start=$SECONDS
    echo "--- stage: $name"
    "$@"
    echo "--- stage: $name ok ($((SECONDS - start))s)"
}

mkdir -p target
stage lint      cargo run -q -p mbtls-lint --release -- --json target/lint-report.jsonl
stage clippy    cargo clippy --workspace --all-targets -- -D warnings
# Two passes: `private_intra_doc_links` only fires while private items
# are left undocumented, and only the second pass reads their docs.
docs() {
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
        cargo doc --no-deps --workspace --offline -q
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
        cargo doc --no-deps --workspace --offline -q --document-private-items
}
stage doc       docs
stage seam-build cargo check --offline --quiet --manifest-path benchmark/Cargo.toml
stage build     cargo build --release --workspace
stage test      cargo test -q --workspace

run_examples() {
    local src
    for src in examples/*.rs; do
        cargo run -q --release -p mbtls-bench --example "$(basename "$src" .rs)" > /dev/null
    done
}
stage examples  run_examples
stage crypto-release cargo test -q -p mbtls-crypto --release
stage telemetry scripts/telemetry_smoke.sh
# Bench smoke: `report all --smoke` over the four suites (scale,
# handshake, chain, paper) proves each
# BENCH_*.json can be produced and passes its suite's `check` —
# schema, exact floors (zero allocations, determinism, byte counts,
# the paper's 20/20, 241/241 and survey counts) and the ratios that
# hold at any budget. Numbers from this run are noisy by design;
# the committed artifacts come from a full `scripts/bench_report.sh`
# run, and a tier-1 test runs `check` on them.
stage bench     scripts/bench_report.sh --smoke
# Which AES-GCM loops `crypto-release` and the bench floors ran on
# this machine (`vaes512-vpclmul`, `vaes-vpclmul`, `aesni-pclmul` or
# `bitsliced`), as the smoke chain artifact recorded them, and which
# SHA-512 core (`avx512vl-bmi2` or `portable`), as the smoke handshake
# artifact did; beside them each party's record path over the AES-GCM
# it runs (`per_hop_over_crypto`): a copy back on the record path shows
# here as a ratio falling. A smoke run times one batch per meter, so
# one preemption can move a ratio; the floors (0.70, 0.90, 0.90) bind
# on full runs.
{
    grep -oE '"(aead_backend|read_only_over_tag_verify|reseal_over_pair_bound|seal_over_aead_seal)": *[^,]*' \
        target/BENCH_chain.json
    grep -oE '"sha512_backend": *[^,]*' target/BENCH_handshake.json
} | paste -sd ' ' -
stage seam      bash benchmark/run.sh --smoke

echo "all checks passed"
