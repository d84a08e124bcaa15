#!/usr/bin/env bash
# Bench reporters: the seeded crypto-primitive/record-path benches
# (BENCH_dataplane.json), the session-host capacity benches
# (BENCH_scale.json), the handshake fast-path benches
# (BENCH_handshake.json), the read-only-forward / service-chain
# benches (BENCH_chain.json), and the middlebox-authorization
# comparison (BENCH_auth.json), each validated for shape so a
# silently-broken reporter fails loudly.
#
#   scripts/bench_report.sh           full run; writes BENCH_dataplane.json
#                                     (~40 s), BENCH_scale.json (hours:
#                                     the 10k/100k/1M × 1/2/4/8-shard
#                                     matrix, rewritten after every tier),
#                                     BENCH_handshake.json (~10 min),
#                                     BENCH_chain.json (~1 min), and
#                                     BENCH_auth.json (~1 min) at the
#                                     repo root — the committed artifacts
#   scripts/bench_report.sh --smoke   tiny budgets (seconds) writing to
#                                     target/; used by scripts/check.sh
#                                     as the gate
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    mkdir -p target
fi

# validate <file> <required-key>...: non-empty, every key present, and
# parseable as one JSON object (python3 is in the toolchain image;
# fall back to the key check alone if it ever is not).
validate() {
    local out="$1"
    shift
    if [[ ! -s "$out" ]]; then
        echo "FAIL: $out is missing or empty" >&2
        exit 1
    fi
    local key
    for key in "$@"; do
        if ! grep -q "\"$key\"" "$out"; then
            echo "FAIL: $out is malformed — missing \"$key\"" >&2
            exit 1
        fi
    done
    if command -v python3 > /dev/null; then
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out" || {
            echo "FAIL: $out is not valid JSON" >&2
            exit 1
        }
    fi
}

# Stage 1: data-plane fast path.
OUT="BENCH_dataplane.json"
ARGS=()
if [[ "$SMOKE" == 1 ]]; then
    OUT="target/BENCH_dataplane.json"
    ARGS+=(--smoke)
fi
cargo run -q --release -p mbtls-bench --bin bench_report -- "${ARGS[@]}" --out "$OUT" > /dev/null
validate "$OUT" aead_backend throughput_mb_s aes_gcm_seal aes_gcm_open \
         aes_gcm_bitsliced_seal aes_gcm_reference_seal \
         endpoint_seal_record middlebox_forward_record \
         allocs_per_record_endpoint allocs_per_record_middlebox
echo "OK: wrote $OUT"

# validate_scale <file>: structural checks specific to the sharded
# BENCH_scale.json schema — every fleet size must carry a
# cores-vs-throughput curve (per-shard walls included) and the
# double-run determinism verdict must be true.
validate_scale() {
    local out="$1"
    if ! command -v python3 > /dev/null; then
        return 0
    fi
    python3 - "$out" <<'PY' || exit 1
import json, sys

report = json.load(open(sys.argv[1]))
assert report.get("model") == "max_shard_wall", "missing throughput model tag"
tiers = report["sessions"]
assert tiers, "no fleet sizes measured"
for tier in tiers:
    curve = tier["curve"]
    assert curve, f"fleet n={tier['n']} has no shard curve"
    for run in curve:
        assert run["shards"] >= 1
        assert len(run["per_shard_wall_ms"]) == run["shards"], \
            f"n={tier['n']}: shard {run['shards']} row lacks per-shard walls"
        assert run["max_shard_wall_ms"] > 0
        assert run["handshakes_per_s"] > 0
        assert run["records_per_s"] > 0
    shard_counts = [run["shards"] for run in curve]
    assert shard_counts == sorted(shard_counts), "curve rows must ascend"
    assert 4 in shard_counts, f"n={tier['n']}: curve is missing the 4-shard row"
allocs = report["allocs_per_record_per_shard"]
assert allocs and all(a == 0.0 for a in allocs), \
    f"steady state allocates: {allocs} allocs/record per shard"
det = report["determinism"]
assert det["identical"] is True, "double-run determinism verdict is false"
assert det["shards"] >= 2, "determinism probe must cover multiple shards"
print(f"scale schema OK: {len(tiers)} fleet size(s), "
      f"curves {shard_counts}, determinism true")
PY
}

# Stage 2: session-host capacity under churn (sharded matrix).
OUT="BENCH_scale.json"
ARGS=()
if [[ "$SMOKE" == 1 ]]; then
    OUT="target/BENCH_scale.json"
    ARGS+=(--smoke)
fi
cargo run -q --release -p mbtls-bench --bin scale_report -- "${ARGS[@]}" --out "$OUT" > /dev/null
validate "$OUT" sessions model curve per_shard_wall_ms max_shard_wall_ms \
         handshakes_per_s records_per_s speedup_4_over_1 \
         p50_handshake_ms p99_handshake_ms bytes_per_session \
         allocs_per_record_steady allocs_per_record_per_shard determinism identical
validate_scale "$OUT"
echo "OK: wrote $OUT"

# validate_handshake <file>: structural checks for BENCH_handshake.json
# plus the regression floors — on full runs only, since smoke budgets
# are too small for stable ratios — batched verification must beat
# single by ≥2×, resumption must stay cheap, and the storm path must
# beat the all-full baseline at every shard count.
#
# "Resumption stays cheap" means it still skips every certificate,
# signature and key agreement. That is stated as two checks, neither
# of which a faster *full* handshake can trip:
#   * resumed_over_full ≤ 0.40, and
#   * resumed_us at most 20 % above the committed artifact's (read
#     from HEAD, so the run that regenerates the file is compared with
#     the one before it). This machine has slow phases that outlast a
#     whole reporter run and scale both numbers alike (full/resumed
#     457/117, 439/113, 760/171, 472/119, 466/124 µs over five runs),
#     so the allowance is scaled by full_us over the committed full_us
#     when that is above 1 — never when it is below, or a faster full
#     handshake would tighten the bound.
# The old ceiling of 0.25 encoded "a full handshake is slow": with the
# lazily-reduced field the same resumed handshake sits beside a full
# one of ~460 µs instead of ~1340, ratio 0.225–0.265 over those runs
# (committed: 466.1 / 115.0 µs, 0.247).
# One stray chain verification (~67 µs) or key agreement (2 × ~37 µs)
# in the resumed path breaks the second check; doing all of a full
# handshake's public-key work breaks both.
validate_handshake() {
    local out="$1"
    if ! command -v python3 > /dev/null; then
        return 0
    fi
    python3 - "$out" <<'PY' || exit 1
import json, subprocess, sys

report = json.load(open(sys.argv[1]))
smoke = report["smoke"]
verify = report["verify"]
assert verify, "no verification batch rows"
for row in verify:
    assert row["batch"] >= 2, "batch sizes below 2 measure nothing"
    assert row["single_verifies_per_s"] > 0
    assert row["batched_verifies_per_s"] > 0
batches = [row["batch"] for row in verify]
assert batches == sorted(batches), "verify rows must ascend by batch size"
best = report["best_batch_speedup"]
assert best == max(row["speedup"] for row in verify), \
    "best_batch_speedup disagrees with the verify rows"
cpu = report["handshake_cpu"]
assert cpu["full_us"] > 0 and cpu["resumed_us"] > 0
storm = report["storm"]
assert storm, "no storm curve rows"
shard_counts = [run["shards"] for run in storm]
assert shard_counts == sorted(shard_counts), "storm rows must ascend"
for run in storm:
    assert run["full_handshakes_per_s"] > 0
    assert run["storm_handshakes_per_s"] > 0
    assert 0.0 < run["storm_resumed_share"] <= 1.0
det = report["determinism"]
assert det["identical"] is True, "double-run determinism verdict is false"
assert det["batching"] is True, "determinism probe must run with batching on"
if not smoke:
    assert best >= 2.0, f"batched verify speedup regressed: {best}x < 2x floor"
    assert cpu["resumed_over_full"] <= 0.40, \
        f"resumed handshake too costly: {cpu['resumed_over_full']} of full"
    head = subprocess.run(["git", "show", "HEAD:BENCH_handshake.json"],
                          capture_output=True, text=True)
    if head.returncode == 0:
        committed = json.loads(head.stdout)["handshake_cpu"]
        slow_phase = max(1.0, cpu["full_us"] / committed["full_us"])
        assert cpu["resumed_us"] <= 1.2 * slow_phase * committed["resumed_us"], \
            f"resumed handshake regressed: {cpu['resumed_us']} us vs " \
            f"{committed['resumed_us']} us committed (full {cpu['full_us']} vs " \
            f"{committed['full_us']} us)"
    for run in storm:
        assert run["storm_handshakes_per_s"] > run["full_handshakes_per_s"], \
            f"storm loses to full baseline at {run['shards']} shard(s)"
print(f"handshake schema OK: batches {batches}, best speedup {best}x, "
      f"resumed/full {cpu['resumed_over_full']}, "
      f"storm shards {shard_counts}, determinism true"
      + (" (smoke: floors skipped)" if smoke else ""))
PY
}

# Stage 3: handshake fast path (batched verify, resumption storm).
OUT="BENCH_handshake.json"
ARGS=()
if [[ "$SMOKE" == 1 ]]; then
    OUT="target/BENCH_handshake.json"
    ARGS+=(--smoke)
fi
cargo run -q --release -p mbtls-bench --bin handshake_report -- "${ARGS[@]}" --out "$OUT" > /dev/null
validate "$OUT" verify best_batch_speedup handshake_cpu resumed_over_full \
         storm storm_handshakes_per_s storm_resumed_share determinism identical
validate_handshake "$OUT"
echo "OK: wrote $OUT"

# validate_chain <file>: structural checks for BENCH_chain.json plus
# the regression floors — the read-only forward must beat open+reseal
# by ≥1.5× (the whole point of the fast path; measured 3.6× on the
# aesni-pclmul backend, ~10× on the bitsliced one), its steady state
# must be allocation-free, and two same-seed chain runs must produce
# bit-identical byte streams.
# Unlike the throughput-ratio floors elsewhere, these hold even at
# smoke budgets: skipping a body decrypt wins at any record count,
# and allocs/determinism are exact, not statistical.
validate_chain() {
    local out="$1"
    if ! command -v python3 > /dev/null; then
        return 0
    fi
    python3 - "$out" <<'PY' || exit 1
import json, sys

report = json.load(open(sys.argv[1]))
hops = report["per_hop_mb_s"]
for key in ("endpoint_seal", "middlebox_open_reseal",
            "middlebox_read_only_forward", "raw_tag_verify"):
    assert hops.get(key, 0) > 0, f"per-hop metric {key} missing or zero"
speedup = report["read_only_speedup"]
assert speedup >= 1.5, \
    f"read-only fast path regressed: {speedup}x < 1.5x over open+reseal"
chains = report["chain_mb_s"]
for key in ("middleboxes_1", "middleboxes_2", "middleboxes_3",
            "middleboxes_3_read_only"):
    assert chains.get(key, 0) > 0, f"chain config {key} missing or zero"
amortized = report["amortized_mb_s"]
for key in ("middleboxes_3_resp_4k", "middleboxes_3_resp_64k",
            "middleboxes_3_resp_256k", "middleboxes_3_reuse_x1",
            "middleboxes_3_reuse_x16"):
    assert amortized.get(key, 0) > 0, f"amortized config {key} missing or zero"
# Structural floors (hold at smoke budgets too): the same exchange
# budget on one reused session strictly beats one handshake per
# exchange, and a 256k response strictly beats 4k per byte moved.
assert amortized["middleboxes_3_reuse_x16"] > amortized["middleboxes_3_reuse_x1"], \
    "session reuse does not amortize the handshake"
assert amortized["middleboxes_3_resp_256k"] > amortized["middleboxes_3_resp_4k"], \
    "large responses do not amortize per-record overhead"
allocs = report["allocs_per_record_read_only"]
assert allocs == 0.0, \
    f"read-only steady state allocates: {allocs} allocs/record"
assert report["determinism"] == "identical", \
    "double-run chain determinism verdict is not identical"
print(f"chain schema OK: read-only {speedup}x over reseal, "
      f"{allocs} allocs/record, determinism identical")
PY
}

# Stage 4: read-only forward fast path + service-function chains.
OUT="BENCH_chain.json"
ARGS=()
if [[ "$SMOKE" == 1 ]]; then
    OUT="target/BENCH_chain.json"
    ARGS+=(--smoke)
fi
cargo run -q --release -p mbtls-bench --bin chain_report -- "${ARGS[@]}" --out "$OUT" > /dev/null
validate "$OUT" aead_backend per_hop_mb_s endpoint_seal middlebox_open_reseal \
         middlebox_read_only_forward raw_tag_verify read_only_speedup \
         chain_mb_s amortized_mb_s allocs_per_record_read_only determinism
validate_chain "$OUT"
echo "OK: wrote $OUT"

# validate_auth <file>: structural checks for BENCH_auth.json plus the
# regression floors — delegated credentials must stay strictly cheaper
# than SGX attestation on both handshake bytes and CPU. The byte floor
# is exact (deterministic handshake transcripts) and the CPU floor is
# dominated by the modeled attestation round-trip (~1.75 virtual ms
# charged only to the sgx_attested row), so both hold at smoke budgets.
validate_auth() {
    local out="$1"
    if ! command -v python3 > /dev/null; then
        return 0
    fi
    python3 - "$out" <<'PY' || exit 1
import json, sys

report = json.load(open(sys.argv[1]))
modes = report["modes"]
for name in ("delegated", "sgx_attested", "key_shared"):
    row = modes.get(name)
    assert row, f"auth mode {name} missing"
    assert row["handshake_bytes"] > 0, f"{name}: no handshake bytes counted"
    assert row["cpu_us"] > 0, f"{name}: no CPU measured"
delegated = modes["delegated"]
attested = modes["sgx_attested"]
shared = modes["key_shared"]
assert delegated["handshake_bytes"] < attested["handshake_bytes"], \
    "delegated handshake is not smaller than SGX-attested"
assert delegated["cpu_us"] < attested["cpu_us"], \
    "delegated handshake is not cheaper than SGX-attested"
assert delegated["artifact_bytes"] > 0, "delegated credential has no encoding"
assert shared["artifact_bytes"] == 0, "key-shared mode should carry no artifact"
assert attested["modeled_attestation_us"] > 0, \
    "SGX row is missing the modeled attestation surcharge"
assert delegated["modeled_attestation_us"] == 0
assert shared["modeled_attestation_us"] == 0
assert 0.0 < report["delegated_bytes_ratio"] < 1.0, \
    f"bytes ratio out of range: {report['delegated_bytes_ratio']}"
assert 0.0 < report["delegated_cpu_ratio"] < 1.0, \
    f"CPU ratio out of range: {report['delegated_cpu_ratio']}"
assert report["determinism"] == "identical", \
    "double-run auth handshake determinism verdict is not identical"
print(f"auth schema OK: delegated/attested bytes "
      f"{report['delegated_bytes_ratio']}, cpu {report['delegated_cpu_ratio']}, "
      f"determinism identical")
PY
}

# Stage 5: middlebox-authorization comparison (delegated credentials
# vs SGX attestation vs naive key sharing).
OUT="BENCH_auth.json"
ARGS=()
if [[ "$SMOKE" == 1 ]]; then
    OUT="target/BENCH_auth.json"
    ARGS+=(--smoke)
fi
cargo run -q --release -p mbtls-bench --bin auth_report -- "${ARGS[@]}" --out "$OUT" > /dev/null
validate "$OUT" modes delegated sgx_attested key_shared handshake_bytes \
         artifact_bytes measured_cpu_us modeled_attestation_us cpu_us \
         delegated_bytes_ratio delegated_cpu_ratio determinism
validate_auth "$OUT"
echo "OK: wrote $OUT"
