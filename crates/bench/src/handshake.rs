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
//!    ([`FLOORS`], [`check`]): resumed ≤ 0.25 of full, and resumed µs within
//!    20 % of the artifact the run replaces. A third cell prices a
//!    reconnect through one attested middlebox: the primary resumes
//!    from its ticket, and the middlebox, which issues none, joins
//!    with a full secondary handshake. A fourth holds mbTLS with no
//!    middlebox to what plain TLS costs: resumed mbTLS endpoints
//!    against `Legacy` ones built from the same configs, timed
//!    turn about, at most 1.05× (`mbtls_over_tls_resumed`).
//! 3. **PRF floor** — the suite's 72-byte key block
//!    (`PRF(master, "key expansion", randoms)` over SHA-384) against
//!    one SHA-384 compression, and a resumed handshake against the key
//!    block, all timed in the same interleaved rounds. P_SHA384 needs
//!    twelve compressions for the key block (two to key the HMAC once,
//!    then two per A(i) and three per output block, twice), so the
//!    floor is a count of block times, ≤ 15.75, which no slow phase of
//!    the machine moves. A resumed handshake, which expands one key
//!    block per side, may cost at most 5.76 key blocks. `sha512_backend` names the
//!    SHA-512 core the run hashed on ([`mbtls_crypto::sha2::backend_name`]),
//!    so a `sha384_block_us` reading can be traced to a core.

use std::sync::Arc;
use std::time::Instant;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::{MbClientConfig, MbClientSession};
use mbtls_core::driver::{Chain, LegacyClient, LegacyServer, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::ed25519::{verify_batch, BatchItem, Signature, SigningKey, VerifyingKey};
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::sha2::Sha384;
use mbtls_telemetry::json::Value;
use mbtls_tls::keyschedule::key_block;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, ServerConnection};

use crate::Bound::{Key, Num};
use crate::Rel::{Ge, Gt, Le};
use crate::{check_floors, full_row, median, row, time_handshakes, AllocCounter, Floor};

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
    /// Microseconds per ticket-resumed session through one attested
    /// middlebox (the middlebox joins with a full handshake).
    pub resumed_1mbox_us: f64,
    /// Microseconds per ticket-resumed plain TLS session, `Legacy`
    /// endpoints over the mbTLS endpoints' own TLS configs.
    pub tls_resumed_us: f64,
    /// Resumed mbTLS with no middlebox over `tls_resumed_us`, timed
    /// turn about with it (acceptance ceiling 1.05).
    pub mbtls_over_tls_resumed: f64,
}

/// SHA-384 compressions, and key blocks, each round of
/// [`bench_prf_floor`] times: a few microseconds each, so a round is
/// over before the scheduler is likely to preempt it.
pub const PRF_ROUND_BLOCKS: usize = 16;
pub const PRF_ROUND_KEYBLOCKS: usize = 2;

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
    let (cpu, prf) = bench_handshake_cpu(cpu_iters, seed);

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
                ("resumed_1mbox_us", Value::Float(cpu.resumed_1mbox_us, 1)),
                (
                    "resumed_1mbox_over_resumed",
                    Value::Float(cpu.resumed_1mbox_us / cpu.resumed_us, 2),
                ),
                ("tls_resumed_us", Value::Float(cpu.tls_resumed_us, 1)),
                ("mbtls_over_tls_resumed", Value::Float(cpu.mbtls_over_tls_resumed, 3)),
            ]),
        ),
        ("prf_floor", prf),
        ("sha512_backend", mbtls_crypto::sha2::backend_name().into()),
    ])
}

/// The rows of `BENCH_handshake.json`. On full runs only — smoke
/// budgets are too small for stable ratios — batched verification
/// must beat single by ≥2×, a width-4 batch must cost at most 2.5
/// single verifications, resumption must stay cheap, and the PRF must
/// cost what its compressions do.
pub const FLOORS: &[Floor] = &[
    row("verify.*.batch", Ge, Num(2.0), "a batch of 1 measures nothing"),
    row("verify.*.single_verifies_per_s", Gt, Num(0.0), "measured nothing"),
    row("verify.*.batched_verifies_per_s", Gt, Num(0.0), "measured nothing"),
    // Every width of `GROUP_WIDTHS`.
    row("verify_batch_us_by_width.w1", Gt, Num(0.0), "measured nothing"),
    row("verify_batch_us_by_width.w2", Gt, Num(0.0), "measured nothing"),
    row("verify_batch_us_by_width.w3", Gt, Num(0.0), "measured nothing"),
    row("verify_batch_us_by_width.w4", Gt, Num(0.0), "measured nothing"),
    row("verify_batch_us_by_width.w6", Gt, Num(0.0), "measured nothing"),
    row("verify_us", Gt, Num(0.0), "measured nothing"),
    row("handshake_cpu.full_us", Gt, Num(0.0), "measured nothing"),
    row("handshake_cpu.resumed_us", Gt, Num(0.0), "measured nothing"),
    row("handshake_cpu.resumed_1mbox_us", Gt, Key("handshake_cpu.resumed_us"), "untimed secondary"),
    row("handshake_cpu.tls_resumed_us", Gt, Num(0.0), "measured nothing"),
    row("prf_floor.sha384_block_us", Gt, Num(0.0), "measured nothing"),
    row("prf_floor.keyblock_us", Gt, Num(0.0), "measured nothing"),
    // The batching floors are same-run ratios of fastest-of-rounds
    // times. A signature costs its own decode, tables and additions
    // (p ≈ 25 µs) plus a doubling chain, base-point term and final test
    // (c ≈ 32 µs) that a batch pays once. `best_batch_speedup` —
    // singles against the batch sizes of the `verify` rows — tends to
    // (c + p) / (p + c/16) ≈ 2.1–2.2, a chunk of sixteen sharing one
    // chain.
    full_row("best_batch_speedup", Ge, Num(2.0), "batched verify speedup regressed"),
    // One `verify_batch` call over four signatures against one
    // `VerifyingKey::verify` is (c + 4p) / (c + p) ≈ 2.33: a batch that
    // stopped sharing its chain (each item verified alone, a chunk per
    // item) reads 4, a chunk per pair 2.9. The ratio *rises* as the
    // shared part gets cheaper — it was 1.98 over a 48 µs masked-scan
    // chain — so the ceiling is a tenth above what the vartime chain
    // measures: 2.29–2.36 in clean runs, 2.23–2.42 in the 31 quiet
    // runs and 2.26–2.39 in the 24 beside two busy loops below.
    full_row("width4_over_verify", Le, Num(2.5), "a batch shares one doubling chain"),
    // "Resumption stays cheap" means it still skips every certificate,
    // signature and key agreement; a faster *full* handshake cannot
    // trip this or the comparison with the replaced artifact (`check`).
    // The ratio sat at 0.225–0.265 while two thirds of a resumed
    // handshake was hash bookkeeping (byte-at-a-time padding, an HMAC
    // re-keyed for every block of P_hash), ≈ 0.13 with that gone and
    // 0.06–0.10 now. One stray chain verification (~57 µs) or key
    // agreement (2 × ~37 µs) in the resumed path breaks it.
    full_row("handshake_cpu.resumed_over_full", Le, Num(0.25), "resumed handshake too costly"),
    // With no middlebox an mbTLS session is a TLS session plus the
    // MiddleboxSupport extension, a record router and a data plane that
    // runs on the primary connection's own ciphers. It reads
    // 1.030–1.047 (25 of 26 runs; once 1.051 in a slow phase that
    // tripped other floors too: re-run). It read 1.081–1.093 (five
    // runs) while each session copied its endpoint config's TLS configs
    // and expanded the bridge keys a second time for its data plane,
    // and the server expanded its ticket key for every ticket it sealed
    // or opened.
    full_row("handshake_cpu.mbtls_over_tls_resumed", Le, Num(1.05), "mbTLS costs a TLS session"),
    // The two PRF ratios come from one meter (`bench_prf_floor`):
    // numerator and denominator are timed in the same interleaved
    // rounds and each reports its median, so neither a slow phase nor
    // two busy loops beside the run move them. Each ceiling is a tenth
    // above the worst of 31 quiet runs of that meter; 24 runs beside two
    // busy loops read inside the quiet ranges or just above them.
    //
    // The key block is twelve compressions plus the HMAC clones and
    // wipes around them: 13.85–14.32 block times quiet, 13.87–14.52
    // busy. A P_hash keyed afresh for every HMAC reads 20.0–20.5.
    full_row("prf_floor.keyblock_over_block", Le, Num(15.75), "a key block is 12 compressions"),
    // Each side of a resumed handshake keys its PRF on the master
    // secret once and runs its key block (for both ciphers and the
    // bridge-hop export) and both Finished over it, hashing each
    // message once into a running transcript: 48 compressions in all,
    // where the key block timed here is 12 on its own: 4.91–5.24 key
    // blocks quiet, 4.82–5.09 busy; one key block more per connection
    // end reads 6.35–6.95. On the meters this
    // replaced (a median of handshakes over a fastest key-block batch,
    // timed minutes apart) the ceiling was 6.56, and a slow phase that
    // caught the handshakes alone read up to 9.2.
    full_row("prf_floor.resumed_over_keyblock", Le, Num(5.76), "one key block per side"),
];

/// Schema and floors of `BENCH_handshake.json`: [`FLOORS`], then what
/// no row expresses — `verify` rows ascending by batch size,
/// `best_batch_speedup` the best of their speedups, a wider
/// `verify_batch` costing more, `sha512_backend` naming one of the two
/// SHA-512 cores, and, on full runs, a resumed handshake at most 20 %
/// dearer than in `replaced`, the artifact at the output path before
/// this run overwrote it, so the run that regenerates the file is
/// compared with the one before it. Both sides of that comparison come
/// from one meter, [`bench_prf_floor`]: a resumed handshake is
/// `resumed_over_keyblock × keyblock_us`, and the allowance is scaled
/// by `keyblock_us` over the replaced `keyblock_us` when that is above
/// 1, so a slow phase, which slows the key blocks timed in the same
/// rounds as much, moves both sides alike. Never scaled below 1, or a
/// faster key block would tighten the bound. (`handshake_cpu.resumed_us`,
/// the median of a run of its own, once served here: it jumped by half
/// in about one full run of eight while `full_us`, its scale then,
/// stayed put.)
pub fn check(report: &Value, replaced: Option<&Value>) -> Result<String, String> {
    check_floors(report, FLOORS)?;
    let smoke = report.flag("smoke")?;
    let verify = report.list("verify")?;
    let batches = verify.iter().map(|row| row.num("batch").map(|b| b as u64));
    let batches = batches.collect::<Result<Vec<_>, _>>()?;
    floor!(batches.windows(2).all(|w| w[0] <= w[1]), "verify rows must ascend by batch size");
    let speedups = verify.iter().map(|row| row.num("speedup")).collect::<Result<Vec<_>, _>>()?;
    let best_row = speedups.into_iter().fold(0.0, f64::max);
    let best = report.num("best_batch_speedup")?;
    floor!(best == best_row, "best_batch_speedup disagrees with the verify rows");
    let width = |w| report.num(&format!("verify_batch_us_by_width.w{w}"));
    let width_us = GROUP_WIDTHS.iter().map(width).collect::<Result<Vec<_>, _>>()?;
    floor!(width_us.windows(2).all(|w| w[0] < w[1]), "a wider batch must cost more");
    let sha512_backend = report.text("sha512_backend")?;
    floor!(
        matches!(sha512_backend, "avx512vl-bmi2" | "portable"),
        "sha512_backend {sha512_backend:?} names no SHA-512 core"
    );
    // A smoke artifact's four-iteration medians are no baseline.
    if let Some(old) = replaced.filter(|old| !smoke && old.flag("smoke") == Ok(false)) {
        let keyblock = |v: &Value| v.num("prf_floor.keyblock_us");
        let per_keyblock = |v: &Value| v.num("prf_floor.resumed_over_keyblock");
        let resumed = |v: &Value| Ok::<_, String>(per_keyblock(v)? * keyblock(v)?);
        let (resumed_us, old_resumed) = (resumed(report)?, resumed(old)?);
        let slow_phase = (keyblock(report)? / keyblock(old)?).max(1.0);
        floor!(
            resumed_us <= 1.2 * slow_phase * old_resumed,
            "resumed handshake regressed: {resumed_us:.1} us vs {old_resumed:.1} us before \
             (key blocks {slow_phase:.2}x as dear)"
        );
    }
    let num = |key: &str| report.num(key);
    Ok(format!(
        "handshake OK: batches {batches:?}, best speedup {best}x, width 4 / verify {}, \
         resumed/full {}, key block {} block times, resumed/key block {}, resumed through a \
         middlebox / resumed {}, resumed mbTLS / TLS {}{}",
        num("width4_over_verify")?,
        num("handshake_cpu.resumed_over_full")?,
        num("prf_floor.keyblock_over_block")?,
        num("prf_floor.resumed_over_keyblock")?,
        num("handshake_cpu.resumed_1mbox_over_resumed")?,
        num("handshake_cpu.mbtls_over_tls_resumed")?,
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
/// [`time_handshakes`]: once for full handshakes, once for resumed
/// ones, whose client config holds a ticket from a priming handshake,
/// and once for resumed ones through one attested middlebox. The runs
/// do not take turns, because a resumed handshake timed between
/// dearer ones reads slower. A fourth run times resumed mbTLS
/// and plain TLS endpoints turn about, both over the same TLS configs,
/// each shared by every session, for `mbtls_over_tls_resumed`. Last,
/// [`bench_prf_floor`] runs `4 * iters` rounds over the resumed
/// sessions with no middlebox; [`check`]'s comparison with the
/// replaced artifact reads those rounds.
pub fn bench_handshake_cpu(iters: usize, seed: u64) -> (HandshakeCpu, Value) {
    let testbed = Testbed::new(seed);
    let server = Arc::new(testbed.server_config());
    let chain = |client: Arc<MbClientConfig>, middleboxes: usize| {
        let server = server.clone();
        let testbed = &testbed;
        move |i| {
            let mut rng = CryptoRng::from_seed(seed ^ i);
            let client = MbClientSession::new(client.clone(), "server.example", rng.fork());
            let server = MbServerSession::new(server.clone(), rng.fork());
            let middles = (0..middleboxes)
                .map(|_| {
                    let config = testbed.middlebox_config(&testbed.mbox_code);
                    Box::new(Middlebox::new(config, rng.fork())) as Box<dyn Relay>
                })
                .collect();
            Chain::new(Box::new(client), middles, Box::new(server))
        }
    };
    let full = chain(Arc::new(testbed.client_config()), 0);
    let mut primer = full(0x9D1E);
    primer.run_handshake().expect("priming handshake completes");
    let mut resuming = testbed.client_config();
    let ticket = primer.client.resumption().expect("priming handshake yields a ticket");
    resuming.tls.resumption_cache.insert("server.example".to_string(), ticket);
    let client_tls = Arc::new(resuming.tls.clone());
    let server_tls = Arc::new(server.tls.clone());
    let resuming = Arc::new(resuming);
    let no_middlebox = chain(resuming.clone(), 0);
    let plain_or_mbtls = |plain: bool| {
        let (client_tls, server_tls) = (client_tls.clone(), server_tls.clone());
        let no_middlebox = &no_middlebox;
        move |i| {
            if !plain {
                return no_middlebox(i);
            }
            let mut rng = CryptoRng::from_seed(seed ^ i);
            let conn = ClientConnection::new(client_tls.clone(), "server.example", &mut rng);
            let client = LegacyClient::new(conn, rng.fork());
            let server = LegacyServer::new(ServerConnection::new(server_tls.clone()), rng.fork());
            Chain::new(Box::new(client), Vec::new(), Box::new(server))
        }
    };
    let [full_us] = time_handshakes(iters, false, [full]);
    let [resumed_us] = time_handshakes(iters, true, [chain(resuming.clone(), 0)]);
    let [resumed_1mbox_us] = time_handshakes(iters, true, [chain(resuming, 1)]);
    let [mbtls_us, tls_resumed_us] =
        time_handshakes(iters, true, [plain_or_mbtls(false), plain_or_mbtls(true)]);
    let cpu = HandshakeCpu {
        full_us,
        resumed_us,
        resumed_over_full: resumed_us / full_us,
        resumed_1mbox_us,
        tls_resumed_us,
        mbtls_over_tls_resumed: mbtls_us / tls_resumed_us,
    };
    (cpu, bench_prf_floor(4 * iters, no_middlebox))
}

/// The artifact's `prf_floor`: the key-schedule PRF against the hash
/// it is built from, and a resumed handshake against the PRF. One
/// meter times both ratios: `rounds` rounds (after one untimed), each
/// timing [`PRF_ROUND_BLOCKS`] SHA-384 compressions,
/// [`PRF_ROUND_KEYBLOCKS`] 72-byte AES-256-GCM key blocks and one
/// handshake of `resumed`, back to back, and every column reports its
/// median. A ratio's numerator and denominator then see the same
/// phases of the machine in the same proportions, and the median drops
/// the rounds a preemption lands in.
pub fn bench_prf_floor(rounds: usize, resumed: impl Fn(u64) -> Chain) -> Value {
    let data = vec![0xA5u8; (PRF_ROUND_BLOCKS - 1) * 128];
    let (master, client_random, server_random) = ([7u8; 48], [1u8; 32], [2u8; 32]);
    let us_since = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    let mut columns = [(); 3].map(|()| Vec::with_capacity(rounds));
    for i in 0..=rounds {
        let t0 = Instant::now();
        // `PRF_ROUND_BLOCKS - 1` data blocks and the padding block.
        std::hint::black_box(Sha384::digest(std::hint::black_box(&data)));
        let block_us = us_since(t0) / PRF_ROUND_BLOCKS as f64;
        let t0 = Instant::now();
        for _ in 0..PRF_ROUND_KEYBLOCKS {
            std::hint::black_box(key_block(
                CipherSuite::EcdheAes256GcmSha384,
                std::hint::black_box(&master),
                &client_random,
                &server_random,
            ));
        }
        let keyblock_us = us_since(t0) / PRF_ROUND_KEYBLOCKS as f64;
        let mut chain = resumed(i as u64);
        let t0 = Instant::now();
        chain.run_handshake().expect("timed handshake completes");
        let handshake_us = us_since(t0);
        assert!(chain.client.resumed(), "the PRF meter's handshake did not resume");
        if i > 0 {
            for (column, us) in columns.iter_mut().zip([block_us, keyblock_us, handshake_us]) {
                column.push(us);
            }
        }
    }
    let [block_us, keyblock_us, resumed_us] = columns.map(median);
    Value::object([
        ("sha384_block_us", Value::Float(block_us, 3)),
        ("keyblock_us", Value::Float(keyblock_us, 3)),
        ("keyblock_over_block", Value::Float(keyblock_us / block_us, 2)),
        ("resumed_over_keyblock", Value::Float(resumed_us / keyblock_us, 2)),
    ])
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
        let (cpu, _) = bench_handshake_cpu(3, 0xAB);
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
                ("verify", &descending, "ascend by batch size"),
                ("best_batch_speedup", "99.00", "disagrees with the verify rows"),
                ("verify_batch_us_by_width.w2", "9999.0", "wider batch must cost more"),
                ("sha512_backend", "\"sha-ni\"", "names no SHA-512 core"),
                ("sha512_backend", "false", "sha512_backend"),
            ],
        );
    }

    #[test]
    fn full_run_floors_fail_on_doctored_committed_artifact() {
        use crate::testing::doctored;
        let full = crate::testing::committed("handshake");
        let times = |v: &Value, key: &str, by: f64| {
            doctored(v, key, &format!("{:.3}", v.num(key).unwrap() * by))
        };
        // Against the artifact it replaces: a resumed handshake 25 %
        // dearer in key blocks of its own rounds fails ...
        let cheaper_before = times(&full, "prf_floor.resumed_over_keyblock", 0.8);
        assert!(check(&full, None).is_ok(), "no baseline, no comparison");
        let regressed = check(&full, Some(&cheaper_before)).unwrap_err();
        assert!(regressed.contains("resumed handshake regressed"), "{regressed}");
        // ... and 25 % more resumed µs passes when the key blocks timed
        // beside it slowed by as much (a slow phase).
        let slow_phase = times(&full, "prf_floor.keyblock_us", 1.25);
        check(&slow_phase, Some(&full)).expect("both numbers scaled alike");
        check(&full, Some(&doctored(&cheaper_before, "smoke", "true")))
            .expect("a smoke artifact is not a baseline");
    }
}
