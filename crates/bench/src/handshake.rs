//! The `handshake` suite (`BENCH_handshake.json`): the handshake fast
//! path.
//!
//! Three measurements back the precomputed/batched Ed25519 work and
//! the hash floor under the key schedule. The reconnect storm, which
//! exercises the host's batching, is a load of the `scale` suite.
//!
//! 1. **Verification throughput** — single [`VerifyingKey::verify`]
//!    calls against [`verify_batch`]'s random-linear-combination
//!    equation, at several batch sizes, plus the cost of one
//!    [`verify_batch`] call at the widths a handshake's own groups
//!    have (1, 2, 3, 4, 6). Both entry points run one multi-scalar
//!    core, so what a batch saves is the doubling chain its items
//!    share: the floors are 2× at the best batch size and a width-4
//!    call at no more than 2.5 single verifications.
//! 2. **Handshake CPU** — wall clock per full handshake (certificate
//!    transfer, two chain signature checks, one ServerKeyExchange
//!    check, X25519) against an abbreviated ticket-resumption
//!    handshake (no certificates, no signature checks) over
//!    zero-latency in-memory pipes, where wall ≈ CPU. The floors
//!    ([`check`]): resumed ≤ 0.25 of full, and resumed µs within
//!    20 % of the artifact the run replaces.
//! 3. **PRF floor** — the suite's 72-byte key block
//!    (`PRF(master, "key expansion", randoms)` over SHA-384) against
//!    one SHA-384 compression timed in the same run. P_SHA384 needs
//!    twelve compressions for it (two to key the HMAC once, then two
//!    per A(i) and three per output block, twice), so the floor is a
//!    count of block times, ≤ 16, which no slow phase of the machine
//!    moves. A resumed handshake, which expands one key block per
//!    side, may cost at most 6.56 of them. `sha512_backend` names the
//!    SHA-512 core the run hashed on ([`mbtls_crypto::sha2::backend_name`]),
//!    so a `sha384_block_us` reading can be traced to a core.

use std::sync::Arc;
use std::time::Instant;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::{MbClientConfig, MbClientSession};
use mbtls_core::driver::Chain;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::ed25519::{verify_batch, BatchItem, Signature, SigningKey, VerifyingKey};
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::sha2::Sha384;
use mbtls_telemetry::json::Value;
use mbtls_tls::keyschedule::key_block;
use mbtls_tls::suites::CipherSuite;

use crate::{time_handshakes, AllocCounter};

/// One verification-throughput row at one batch size.
#[derive(Debug, Clone)]
pub struct VerifyRow {
    /// Signatures per batch.
    pub batch: usize,
    /// Individual `verify` calls per second over the same items.
    pub single_verifies_per_s: f64,
    /// Verifications per second through `verify_batch`.
    pub batched_verifies_per_s: f64,
    /// `batched / single`.
    pub speedup: f64,
}

/// Widths of the per-width table: a plain TLS client's group (2: chain
/// and ServerKeyExchange), an attested middlebox's (4: those and the
/// quote's two), and what one handshake owes in all (6).
pub const GROUP_WIDTHS: [usize; 5] = [1, 2, 3, 4, 6];

/// Full-vs-resumed handshake CPU comparison.
#[derive(Debug, Clone)]
pub struct HandshakeCpu {
    /// Microseconds per full handshake (certificates + signatures).
    pub full_us: f64,
    /// Microseconds per abbreviated ticket-resumption handshake.
    pub resumed_us: f64,
    /// `resumed / full` (acceptance ceiling 0.25).
    pub resumed_over_full: f64,
}

/// The key-schedule PRF against the hash it is built from.
#[derive(Debug, Clone)]
pub struct PrfFloor {
    /// Microseconds per SHA-384 compression (one 128-byte block).
    pub sha384_block_us: f64,
    /// Microseconds per 72-byte AES-256-GCM key block.
    pub keyblock_us: f64,
    /// `keyblock_us / sha384_block_us` (acceptance ceiling 16).
    pub keyblock_over_block: f64,
}

/// Measure everything that goes into `BENCH_handshake.json`.
pub fn run(smoke: bool, _alloc_count: AllocCounter) -> Value {
    let batches: &[usize] = if smoke { &[4, 16] } else { &[4, 16, 32, 64] };
    let min_verifies = if smoke { 16 } else { 4096 };
    let cpu_iters = if smoke { 4 } else { 200 };
    let seed = 0x5EED_CAFE;

    eprintln!("verification throughput over batches {batches:?}...");
    let verify: Vec<_> =
        batches.iter().map(|&b| bench_verify_row(b, min_verifies, seed)).collect();
    let (verify_us, by_width) = bench_group_widths(if smoke { 8 } else { 512 }, seed);
    eprintln!("handshake CPU ({cpu_iters} iterations each)...");
    let cpu = bench_handshake_cpu(cpu_iters, seed);
    let prf = bench_prf_floor();

    let verify_rows = verify.iter().map(|row| {
        Value::object([
            ("batch", row.batch.into()),
            ("single_verifies_per_s", Value::Float(row.single_verifies_per_s, 1)),
            ("batched_verifies_per_s", Value::Float(row.batched_verifies_per_s, 1)),
            ("speedup", Value::Float(row.speedup, 2)),
        ])
    });
    let best = verify.iter().map(|r| r.speedup).fold(0.0, f64::max);
    Value::object([
        ("smoke", smoke.into()),
        ("verify", Value::Array(verify_rows.collect())),
        ("best_batch_speedup", Value::Float(best, 2)),
        (
            "verify_batch_us_by_width",
            Value::object(
                GROUP_WIDTHS.iter().zip(&by_width).map(|(w, us)| (format!("w{w}"), Value::Float(*us, 1))),
            ),
        ),
        ("verify_us", Value::Float(verify_us, 1)),
        ("width4_over_verify", Value::Float(by_width[3] / verify_us, 2)),
        (
            "handshake_cpu",
            Value::object([
                ("full_us", Value::Float(cpu.full_us, 1)),
                ("resumed_us", Value::Float(cpu.resumed_us, 1)),
                ("resumed_over_full", Value::Float(cpu.resumed_over_full, 3)),
            ]),
        ),
        (
            "prf_floor",
            Value::object([
                ("sha384_block_us", Value::Float(prf.sha384_block_us, 3)),
                ("keyblock_us", Value::Float(prf.keyblock_us, 3)),
                ("keyblock_over_block", Value::Float(prf.keyblock_over_block, 2)),
            ]),
        ),
        ("sha512_backend", mbtls_crypto::sha2::backend_name().into()),
    ])
}

/// Schema and floors of `BENCH_handshake.json`. On full runs only —
/// smoke budgets are too small for stable ratios — batched
/// verification must beat single by ≥2×, a width-4 batch must cost at
/// most 2.5 single verifications, resumption must stay cheap, and the
/// key block must cost at most 16 SHA-384 block times. On every run, `sha512_backend` names one of the two SHA-512 cores.
///
/// "Resumption stays cheap" means it still skips every certificate,
/// signature and key agreement. That is stated as two checks, neither
/// of which a faster *full* handshake can trip:
///
/// * `resumed_over_full` ≤ 0.25, and
/// * `resumed_us` at most 20 % above that of `replaced`, the artifact
///   at the output path before this run overwrote it, so the run that
///   regenerates the file is compared with the one before it. This
///   machine has slow phases that outlast a whole run and scale both
///   numbers alike (full/resumed 457/117, 439/113, 760/171, 472/119,
///   466/124 µs over five runs), so the allowance is scaled by
///   `full_us` over the replaced `full_us` when that is above 1 —
///   never when it is below, or a faster full handshake would tighten
///   the bound.
///
/// The ratio sat at 0.225–0.265 while two thirds of a resumed
/// handshake was hash bookkeeping (byte-at-a-time padding, an HMAC
/// re-keyed for every block of P_hash); with that gone it is ≈ 0.13.
/// One stray chain verification (~57 µs) or key agreement (2 × ~37 µs)
/// in the resumed path breaks both checks.
///
/// The PRF floor is the same-run ratio `keyblock_over_block` ≤ 16:
/// twelve compressions plus the HMAC clones and wipes around them. A
/// P_hash that keys per block (22 compressions) or pads through
/// `update` measures ≈ 36. It read 13.4–14.8 on the scalar SHA-512
/// core; on the AVX-512VL one, whose blocks cost two thirds as much,
/// the clones and wipes weigh more: 10.7–14.8 in 14 of 15 runs, once
/// 16.8.
///
/// `resumed_over_keyblock`, `resumed_us` over `prf_floor.keyblock_us`
/// (computed here, not stored), is at most 6.56. Each side of a
/// resumed handshake keys its PRF on the master secret once and runs
/// its key block (for both ciphers and the bridge-hop export) and both
/// Finished over it, hashing each message once into a running
/// transcript: 48 compressions in all, where the key block timed here
/// is 12 on its own. It read 10.2 when each side expanded the block
/// for each cipher and again for the export (six blocks), 5.4–7.0
/// with one on the scalar SHA-512 core and 6.7–7.7 on the AVX-512VL
/// one, which made the key block cheaper and left the rest as it was;
/// keyed once, with a running transcript, 5.57–5.96 in 13 runs of 16.
/// The ceiling is a tenth above the worst of those; one key block more
/// per side reads ≈ 7.7. The two numbers come from different meters
/// (a median, a fastest batch), so a slow phase that catches the
/// handshakes and spares the key blocks reads high (7.8–9.2 in four
/// runs of 36 on the scalar core, 7.85–12.5 in four of 16 on the
/// vector one, 8.1–8.6 in two of 16 now): re-run.
///
/// The batching floors are same-run ratios too, of fastest-of-rounds
/// times. A signature costs its own decode, tables and additions
/// (p ≈ 25 µs) plus a doubling chain, base-point term and final test
/// (c ≈ 32 µs) that a batch pays once. `best_batch_speedup` — singles
/// against the batch sizes of the `verify` rows — tends to
/// (c + p) / (p + c/16) ≈ 2.1–2.2, a chunk of sixteen sharing one
/// chain, and keeps its floor of 2.0. `width4_over_verify` — one
/// `verify_batch` call over four signatures against one
/// `VerifyingKey::verify` — is (c + 4p) / (c + p) ≈ 2.33, and the
/// ceiling is 2.5: a batch that stopped sharing its chain (each item
/// verified alone, a chunk per item) reads 4, a chunk per pair 2.9.
/// The ratio *rises* as the shared part gets cheaper — it was 1.98
/// over the parent's 48 µs masked-scan chain, which is where ISSUE
/// 21's 2.2 came from — so the ceiling moved with it, to a tenth
/// above what the vartime chain measures (2.29–2.36 in clean runs).
pub fn check(report: &Value, replaced: Option<&Value>) -> Result<String, String> {
    let smoke = report.flag("smoke")?;
    let verify = report.list("verify")?;
    floor!(!verify.is_empty(), "no verification batch rows");
    let mut batches = Vec::new();
    let mut best_row = 0.0f64;
    for row in verify {
        let batch = row.num("batch")?;
        floor!(batch >= 2.0, "batch sizes below 2 measure nothing");
        for key in ["single_verifies_per_s", "batched_verifies_per_s"] {
            floor!(row.num(key)? > 0.0, "batch {batch}: zero {key}");
        }
        best_row = best_row.max(row.num("speedup")?);
        batches.push(batch as u64);
    }
    floor!(batches.windows(2).all(|w| w[0] <= w[1]), "verify rows must ascend by batch size");
    let best = report.num("best_batch_speedup")?;
    floor!(best == best_row, "best_batch_speedup disagrees with the verify rows");
    let mut width_us = Vec::new();
    for w in GROUP_WIDTHS {
        let us = report.num(&format!("verify_batch_us_by_width.w{w}"))?;
        floor!(us > 0.0, "verify_batch at width {w} measured nothing");
        width_us.push(us);
    }
    floor!(width_us.windows(2).all(|w| w[0] < w[1]), "a wider batch must cost more");
    let verify_us = report.num("verify_us")?;
    floor!(verify_us > 0.0, "verify measured nothing");
    let width_ratio = report.num("width4_over_verify")?;
    let full_us = report.num("handshake_cpu.full_us")?;
    let resumed_us = report.num("handshake_cpu.resumed_us")?;
    let ratio = report.num("handshake_cpu.resumed_over_full")?;
    floor!(full_us > 0.0 && resumed_us > 0.0, "handshake CPU rows are zero");
    let block_us = report.num("prf_floor.sha384_block_us")?;
    let keyblock_us = report.num("prf_floor.keyblock_us")?;
    let prf_ratio = report.num("prf_floor.keyblock_over_block")?;
    floor!(block_us > 0.0 && keyblock_us > 0.0, "PRF floor rows are zero");
    let sha512_backend = report.text("sha512_backend")?;
    floor!(
        matches!(sha512_backend, "avx512vl-bmi2" | "portable"),
        "sha512_backend {sha512_backend:?} names no SHA-512 core"
    );
    let resumed_over_keyblock = resumed_us / keyblock_us;
    if !smoke {
        floor!(best >= 2.0, "batched verify speedup regressed: {best}x < 2x floor");
        floor!(
            width_ratio <= 2.5,
            "a width-4 batch costs {width_ratio} single verifications ({} / {verify_us} us), \
             above the 2.5 a shared doubling chain allows",
            width_us[3]
        );
        floor!(ratio <= 0.25, "resumed handshake too costly: {ratio} of full");
        floor!(
            prf_ratio <= 16.0,
            "key block costs {prf_ratio} SHA-384 block times ({keyblock_us} / {block_us} us), \
             above the 16 that 12 compressions allow"
        );
        floor!(
            resumed_over_keyblock <= 6.56,
            "a resumed handshake costs {resumed_over_keyblock:.2} key blocks ({resumed_us} / \
             {keyblock_us} us), above the 6.56 that one key block per side allows"
        );
        // A smoke artifact's four-iteration medians are no baseline.
        if let Some(old) = replaced.filter(|old| old.flag("smoke") == Ok(false)) {
            let old_full = old.num("handshake_cpu.full_us")?;
            let old_resumed = old.num("handshake_cpu.resumed_us")?;
            let slow_phase = (full_us / old_full).max(1.0);
            floor!(
                resumed_us <= 1.2 * slow_phase * old_resumed,
                "resumed handshake regressed: {resumed_us} us vs {old_resumed} us before \
                 (full {full_us} vs {old_full} us)"
            );
        }
    }
    Ok(format!(
        "handshake OK: batches {batches:?}, best speedup {best}x, width 4 / verify \
         {width_ratio}, resumed/full {ratio}, key block {prf_ratio} block times, resumed/key \
         block {resumed_over_keyblock:.2}{}",
        if smoke { " (smoke: floors skipped)" } else { "" }
    ))
}

/// Deterministic signature corpus: `n` distinct keys, messages, and
/// signatures.
fn signature_corpus(n: usize, seed: u64) -> (Vec<VerifyingKey>, Vec<Vec<u8>>, Vec<Signature>) {
    let mut rng = CryptoRng::from_seed(seed);
    let mut keys = Vec::with_capacity(n);
    let mut msgs = Vec::with_capacity(n);
    let mut sigs = Vec::with_capacity(n);
    for i in 0..n {
        let sk = SigningKey::generate(&mut rng);
        let msg = format!("handshake transcript {i}").into_bytes();
        sigs.push(sk.sign(&msg));
        keys.push(sk.verifying_key());
        msgs.push(msg);
    }
    (keys, msgs, sigs)
}

/// Measure single-vs-batched verification throughput at `batch`
/// signatures per call, over enough rounds that at least
/// `min_verifies` verifications are timed on each side. A round times
/// one pass of singles and one batch call back to back, and each side
/// reports its fastest round: both are fixed work that interference
/// only lengthens, and a mean over the whole loop moved the speedup
/// by ±0.5 from run to run on this machine.
pub fn bench_verify_row(batch: usize, min_verifies: usize, seed: u64) -> VerifyRow {
    let (keys, msgs, sigs) = signature_corpus(batch, seed);
    let items: Vec<BatchItem<'_>> = (0..batch)
        .map(|i| BatchItem { pubkey: keys[i], msg: &msgs[i], sig: sigs[i] })
        .collect();
    let rounds = min_verifies.div_ceil(batch).max(1);

    // Untimed warm-up: the first row measured in a process otherwise
    // absorbs cold-start costs (page faults, branch history, CPU
    // frequency ramp) into its single-verify baseline and reports an
    // inflated speedup.
    for i in 0..batch {
        keys[i].verify(&msgs[i], &sigs[i]).expect("corpus signature verifies");
    }
    assert!(verify_batch(&items).all_valid(), "corpus batch verifies");

    let (mut single_s, mut batched_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for i in 0..batch {
            keys[i].verify(&msgs[i], &sigs[i]).expect("corpus signature verifies");
        }
        single_s = single_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        assert!(verify_batch(&items).all_valid(), "corpus batch verifies");
        batched_s = batched_s.min(t0.elapsed().as_secs_f64());
    }

    let single_rate = batch as f64 / single_s;
    let batched_rate = batch as f64 / batched_s;
    VerifyRow {
        batch,
        single_verifies_per_s: single_rate,
        batched_verifies_per_s: batched_rate,
        speedup: batched_rate / single_rate,
    }
}

/// Microseconds per [`VerifyingKey::verify`] call, and per
/// [`verify_batch`] call at each of [`GROUP_WIDTHS`]: the fastest of
/// `rounds` single calls each, all from one corpus and interleaved, so
/// a slow phase of the machine scales the whole row alike and a burst
/// of interference has to hit every round of a column to move it.
pub fn bench_group_widths(rounds: usize, seed: u64) -> (f64, Vec<f64>) {
    let widest = GROUP_WIDTHS[GROUP_WIDTHS.len() - 1];
    let (keys, msgs, sigs) = signature_corpus(widest, seed);
    let items: Vec<BatchItem<'_>> = (0..widest)
        .map(|i| BatchItem { pubkey: keys[i], msg: &msgs[i], sig: sigs[i] })
        .collect();
    let us_since = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    let mut single = f64::INFINITY;
    let mut fastest = vec![f64::INFINITY; GROUP_WIDTHS.len()];
    for _ in 0..rounds {
        let t0 = Instant::now();
        keys[0].verify(&msgs[0], &sigs[0]).expect("corpus signature verifies");
        single = single.min(us_since(t0));
        for (best, &w) in fastest.iter_mut().zip(&GROUP_WIDTHS) {
            let t0 = Instant::now();
            assert!(verify_batch(&items[..w]).all_valid(), "corpus batch verifies");
            *best = best.min(us_since(t0));
        }
    }
    (single, fastest)
}

/// Full-vs-resumed handshake CPU over `iters` handshakes each, client
/// and server over zero-latency in-memory pipes, timed by
/// [`time_handshakes`]: once for full handshakes and once for
/// resumed ones, whose client config holds a ticket from a priming
/// handshake. The two runs do not take turns, because a resumed
/// handshake timed between full ones reads slower. The 20 %
/// resumed-cost floor in [`check`] rests on these medians.
pub fn bench_handshake_cpu(iters: usize, seed: u64) -> HandshakeCpu {
    let testbed = Testbed::new(seed);
    let server = Arc::new(testbed.server_config());
    let chain = |client: Arc<MbClientConfig>| {
        let server = server.clone();
        move |i| {
            let mut rng = CryptoRng::from_seed(seed ^ i);
            let client = MbClientSession::new(client.clone(), "server.example", rng.fork());
            let server = MbServerSession::new(server.clone(), rng.fork());
            Chain::new(Box::new(client), Vec::new(), Box::new(server))
        }
    };
    let full = chain(Arc::new(testbed.client_config()));
    let mut primer = full(0x9D1E);
    primer.run_handshake().expect("priming handshake completes");
    let mut resuming = testbed.client_config();
    let ticket = primer.client.resumption().expect("priming handshake yields a ticket");
    resuming.tls.resumption_cache.insert("server.example".to_string(), ticket);
    let [full_us] = time_handshakes(iters, false, [full]);
    let [resumed_us] = time_handshakes(iters, true, [chain(Arc::new(resuming))]);
    HandshakeCpu { full_us, resumed_us, resumed_over_full: resumed_us / full_us }
}

/// Time one SHA-384 compression and one 72-byte key block, each as
/// the fastest of several batches: both are fixed straight-line work,
/// so interference only adds time and the minimum is the cost.
pub fn bench_prf_floor() -> PrfFloor {
    fn fastest_us(mut batch: impl FnMut()) -> f64 {
        let round = |_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_secs_f64() * 1e6
        };
        (0..20).map(round).fold(f64::INFINITY, f64::min)
    }

    // 511 data blocks and the padding block: 512 compressions.
    let data = vec![0xA5u8; 511 * 128];
    let sha384_block_us = fastest_us(|| {
        std::hint::black_box(Sha384::digest(std::hint::black_box(&data)));
    }) / 512.0;

    const KEYBLOCKS: usize = 256;
    let (master, client_random, server_random) = ([7u8; 48], [1u8; 32], [2u8; 32]);
    let keyblock_us = fastest_us(|| {
        for _ in 0..KEYBLOCKS {
            std::hint::black_box(key_block(
                CipherSuite::EcdheAes256GcmSha384,
                std::hint::black_box(&master),
                &client_random,
                &server_random,
            ));
        }
    }) / KEYBLOCKS as f64;

    PrfFloor { sha384_block_us, keyblock_us, keyblock_over_block: keyblock_us / sha384_block_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_row_rates_are_positive_and_consistent() {
        let row = bench_verify_row(8, 16, 0xFEED);
        assert_eq!(row.batch, 8);
        assert!(row.single_verifies_per_s > 0.0);
        assert!(row.batched_verifies_per_s > 0.0);
        let ratio = row.batched_verifies_per_s / row.single_verifies_per_s;
        assert!((row.speedup - ratio).abs() < 1e-9);
    }

    #[test]
    fn resumed_handshake_is_cheaper_than_full() {
        let cpu = bench_handshake_cpu(3, 0xAB);
        assert!(cpu.full_us > 0.0);
        assert!(cpu.resumed_us > 0.0);
        assert!(
            cpu.resumed_over_full < 1.0,
            "resumption must be cheaper: {:.1} vs {:.1} µs",
            cpu.resumed_us,
            cpu.full_us
        );
    }

    #[test]
    fn smoke_run_passes_and_doctored_floors_fail() {
        let smoke = run(true, || 0);
        let rows = smoke.list("verify").unwrap();
        let descending = Value::Array(rows.iter().rev().cloned().collect()).to_pretty();
        crate::testing::assert_floors(
            check,
            &smoke,
            &[
                ("verify", "[]", "no verification batch rows"),
                ("verify", &descending, "ascend by batch size"),
                ("verify.0.batch", "1", "below 2"),
                ("verify.1.batched_verifies_per_s", "0.0", "zero batched_verifies_per_s"),
                ("best_batch_speedup", "99.00", "disagrees with the verify rows"),
                ("verify_us", "0.0", "verify measured nothing"),
                ("verify_batch_us_by_width.w3", "0.0", "width 3 measured nothing"),
                ("verify_batch_us_by_width.w2", "9999.0", "wider batch must cost more"),
                ("handshake_cpu.resumed_us", "0.0", "CPU rows are zero"),
                ("prf_floor.sha384_block_us", "0.000", "PRF floor rows are zero"),
                ("sha512_backend", "\"sha-ni\"", "names no SHA-512 core"),
                ("sha512_backend", "false", "sha512_backend"),
            ],
        );
    }

    #[test]
    fn full_run_floors_fail_on_doctored_committed_artifact() {
        use crate::testing::doctored;
        let full = crate::testing::committed("handshake");
        // One cipher per side expanding the key block again: two more.
        let rederived = full.num("handshake_cpu.resumed_us").unwrap()
            + 2.0 * full.num("prf_floor.keyblock_us").unwrap();
        let rederived = format!("{rederived:.1}");
        let cases = [
            ("handshake_cpu.resumed_over_full", "0.260", "too costly"),
            ("prf_floor.keyblock_over_block", "16.10", "above the 16"),
            ("handshake_cpu.resumed_us", &rederived, "above the 6.56"),
            ("width4_over_verify", "2.51", "above the 2.5"),
        ];
        crate::testing::assert_floors(check, &full, &cases);
        // 1.99 in every row and in the summary key: only the floor trips.
        let mut weak = doctored(&full, "best_batch_speedup", "1.99");
        for i in 0..full.list("verify").unwrap().len() {
            weak = doctored(&weak, &format!("verify.{i}.speedup"), "1.99");
        }
        assert!(check(&weak, None).unwrap_err().contains("speedup regressed"));

        // Against the artifact it replaces: 25 % more resumed µs fails,
        // unless the full handshake slowed by as much (a slow phase).
        // The key block slows with it, so the same-run ratio holds.
        let scaled = |key: &str| format!("{:.1}", full.num(key).unwrap() * 1.25);
        let slow = doctored(&full, "handshake_cpu.resumed_us", &scaled("handshake_cpu.resumed_us"));
        let slow = doctored(&slow, "prf_floor.keyblock_us", &scaled("prf_floor.keyblock_us"));
        assert!(check(&slow, None).is_ok(), "no baseline, no comparison");
        assert!(check(&slow, Some(&full)).unwrap_err().contains("resumed handshake regressed"));
        let slow_phase = doctored(&slow, "handshake_cpu.full_us", &scaled("handshake_cpu.full_us"));
        check(&slow_phase, Some(&full)).expect("both numbers scaled alike");
        check(&slow, Some(&doctored(&full, "smoke", "true")))
            .expect("a smoke artifact is not a baseline");
    }
}
