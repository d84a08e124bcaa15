//! The `BENCH_handshake.json` handshake fast-path reporter.
//!
//! Three measurements back the precomputed/batched Ed25519 work:
//!
//! 1. **Verification throughput** — single [`VerifyingKey::verify`]
//!    calls (Strauss double-scalar over the precomputed base comb)
//!    against [`verify_batch`]'s random-linear-combination equation,
//!    at several batch sizes. The acceptance floor is 2× at the best
//!    batch size.
//! 2. **Handshake CPU** — wall clock per full handshake (certificate
//!    transfer, two chain signature checks, one ServerKeyExchange
//!    check, X25519) against an abbreviated ticket-resumption
//!    handshake (no certificates, no signature checks) over
//!    zero-latency in-memory pipes, where wall ≈ CPU. The floors
//!    (`scripts/bench_report.sh`): resumed ≤ 0.40 of full, and
//!    resumed µs within 20 % of the committed artifact's.
//! 3. **Reconnect storm** — the sharded host under the load
//!    generator's resumption-storm scenario (primed tickets, a stale
//!    cadence degrading to full handshakes, deferred checks batched
//!    per shard turn), measured with the same max-shard-wall model as
//!    `scale.rs`, against an all-full-handshake baseline at every
//!    shard count.
//!
//! A double-run determinism probe (storm config, batching on) proves
//! the merged telemetry trace stays bit-identical — batching changes
//! *when* checks are paid, never the outcome or the schedule.

use std::sync::Arc;
use std::time::Instant;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::Chain;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::ed25519::{verify_batch, BatchItem, Signature, SigningKey, VerifyingKey};
use mbtls_crypto::rng::CryptoRng;
use mbtls_host::{Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, Shard, Workload};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_telemetry::merge_shard_traces;

use crate::scale::trace_fingerprint;

/// Shard counts for the storm curve (matches `scale.rs`).
pub const STORM_SHARD_CURVE: &[u16] = &[1, 2, 4, 8];

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

/// Full-vs-resumed handshake CPU comparison.
#[derive(Debug, Clone)]
pub struct HandshakeCpu {
    /// Microseconds per full handshake (certificates + signatures).
    pub full_us: f64,
    /// Microseconds per abbreviated ticket-resumption handshake.
    pub resumed_us: f64,
    /// `resumed / full` (acceptance ceiling 0.40).
    pub resumed_over_full: f64,
}

/// One storm-vs-baseline row at one shard count.
#[derive(Debug, Clone)]
pub struct StormRun {
    /// Shards in this configuration.
    pub shards: u16,
    /// Modeled handshakes/s with every session doing a full
    /// handshake (max-shard-wall model).
    pub full_handshakes_per_s: f64,
    /// Modeled handshakes/s under the resumption storm (primed
    /// tickets, stale cadence, batched deferred checks).
    pub storm_handshakes_per_s: f64,
    /// Fraction of storm handshakes that actually resumed (the rest
    /// hit the stale cadence and degraded to full flights).
    pub storm_resumed_share: f64,
}

/// Everything that goes into `BENCH_handshake.json`.
#[derive(Debug, Clone)]
pub struct HandshakeReport {
    /// True when produced by a `--smoke` run (tiny iteration counts;
    /// numbers only prove the harness works).
    pub smoke: bool,
    /// Verification throughput, one row per batch size, ascending.
    pub verify: Vec<VerifyRow>,
    /// Full-vs-resumed handshake CPU.
    pub cpu: HandshakeCpu,
    /// Storm curve, one row per shard count, ascending.
    pub storm: Vec<StormRun>,
    /// Seed of the determinism replay.
    pub determinism_seed: u64,
    /// Fleet size of the determinism replay.
    pub determinism_sessions: usize,
    /// Shard count of the determinism replay.
    pub determinism_shards: u16,
    /// True iff two storm runs with batching enabled replayed a
    /// bit-identical merged trace and identical counters.
    pub determinism_identical: bool,
}

impl HandshakeReport {
    /// Best batched-over-single speedup across the measured batch
    /// sizes (the scalar the smoke gate checks against 2.0).
    pub fn best_batch_speedup(&self) -> f64 {
        self.verify.iter().map(|r| r.speedup).fold(0.0, f64::max)
    }

    /// Render as pretty-printed JSON (hand-rolled; the workspace has
    /// no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str("  \"model\": \"max_shard_wall\",\n");
        out.push_str("  \"verify\": [\n");
        for (i, row) in self.verify.iter().enumerate() {
            let comma = if i + 1 == self.verify.len() { "" } else { "," };
            out.push_str("    {\n");
            out.push_str(&format!("      \"batch\": {},\n", row.batch));
            out.push_str(&format!(
                "      \"single_verifies_per_s\": {:.1},\n",
                row.single_verifies_per_s
            ));
            out.push_str(&format!(
                "      \"batched_verifies_per_s\": {:.1},\n",
                row.batched_verifies_per_s
            ));
            out.push_str(&format!("      \"speedup\": {:.2}\n", row.speedup));
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"best_batch_speedup\": {:.2},\n", self.best_batch_speedup()));
        out.push_str("  \"handshake_cpu\": {\n");
        out.push_str(&format!("    \"full_us\": {:.1},\n", self.cpu.full_us));
        out.push_str(&format!("    \"resumed_us\": {:.1},\n", self.cpu.resumed_us));
        out.push_str(&format!(
            "    \"resumed_over_full\": {:.3}\n",
            self.cpu.resumed_over_full
        ));
        out.push_str("  },\n");
        out.push_str("  \"storm\": [\n");
        for (i, run) in self.storm.iter().enumerate() {
            let comma = if i + 1 == self.storm.len() { "" } else { "," };
            out.push_str("    {\n");
            out.push_str(&format!("      \"shards\": {},\n", run.shards));
            out.push_str(&format!(
                "      \"full_handshakes_per_s\": {:.1},\n",
                run.full_handshakes_per_s
            ));
            out.push_str(&format!(
                "      \"storm_handshakes_per_s\": {:.1},\n",
                run.storm_handshakes_per_s
            ));
            out.push_str(&format!(
                "      \"storm_resumed_share\": {:.3}\n",
                run.storm_resumed_share
            ));
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ],\n");
        out.push_str("  \"determinism\": {\n");
        out.push_str(&format!("    \"seed\": {},\n", self.determinism_seed));
        out.push_str(&format!("    \"sessions\": {},\n", self.determinism_sessions));
        out.push_str(&format!("    \"shards\": {},\n", self.determinism_shards));
        out.push_str("    \"batching\": true,\n");
        out.push_str(&format!("    \"identical\": {}\n", self.determinism_identical));
        out.push_str("  }\n");
        out.push('}');
        out
    }
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
/// signatures per call, repeating until at least `min_verifies`
/// verifications are timed on each side.
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

    let t0 = Instant::now();
    for _ in 0..rounds {
        for i in 0..batch {
            keys[i].verify(&msgs[i], &sigs[i]).expect("corpus signature verifies");
        }
    }
    let single_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..rounds {
        let outcome = verify_batch(&items);
        assert!(outcome.all_valid(), "corpus batch verifies");
    }
    let batched_s = t0.elapsed().as_secs_f64();

    let total = (rounds * batch) as f64;
    let single_rate = total / single_s;
    let batched_rate = total / batched_s;
    VerifyRow {
        batch,
        single_verifies_per_s: single_rate,
        batched_verifies_per_s: batched_rate,
        speedup: batched_rate / single_rate,
    }
}

/// Time `iters` handshakes over zero-latency in-memory pipes;
/// `resumed` primes the client's resumption cache first so every
/// timed handshake is abbreviated. Returns the median microseconds
/// per handshake: every iteration does the same work and interference
/// only adds time, so the median ignores the spikes a mean absorbs —
/// the 20 % resumed-cost floor in `scripts/bench_report.sh` rests on
/// this number.
pub fn bench_handshake_us(iters: usize, resumed: bool, seed: u64) -> f64 {
    let testbed = Testbed::new(seed);
    let server_cfg = Arc::new(testbed.server_config());
    let mut client_cfg = testbed.client_config();
    if resumed {
        let mut rng = CryptoRng::from_seed(seed ^ 0x9D1E);
        let primer = MbClientSession::new(
            Arc::new(testbed.client_config()),
            "server.example",
            rng.fork(),
        );
        let prime_server = MbServerSession::new(server_cfg.clone(), rng.fork());
        let mut chain = Chain::new(Box::new(primer), Vec::new(), Box::new(prime_server));
        chain.run_handshake().expect("priming handshake completes");
        let ticket = chain.client.resumption().expect("priming handshake yields a ticket");
        client_cfg.tls.resumption_cache.insert("server.example".to_string(), ticket);
    }
    let client_cfg = Arc::new(client_cfg);

    let mut rng = CryptoRng::from_seed(seed ^ 0xBEEF);
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let client = MbClientSession::new(client_cfg.clone(), "server.example", rng.fork());
        let server = MbServerSession::new(server_cfg.clone(), rng.fork());
        let mut chain = Chain::new(Box::new(client), Vec::new(), Box::new(server));
        let t0 = Instant::now();
        chain.run_handshake().expect("timed handshake completes");
        times.push(t0.elapsed());
        assert_eq!(
            chain.client.resumed(),
            resumed,
            "timed handshake must take the intended path"
        );
    }
    times.sort_unstable();
    times[iters / 2].as_secs_f64() * 1e6
}

/// Full-vs-resumed handshake CPU over `iters` handshakes each.
pub fn bench_handshake_cpu(iters: usize, seed: u64) -> HandshakeCpu {
    let full_us = bench_handshake_us(iters, false, seed);
    let resumed_us = bench_handshake_us(iters, true, seed);
    HandshakeCpu { full_us, resumed_us, resumed_over_full: resumed_us / full_us }
}

/// The storm scenario's load shape: handshake-dominated (one
/// exchange), no middleboxes, arrivals every 5 µs. `storm` switches
/// between the all-full baseline and the primed-ticket storm; both
/// defer signature checks so the host's batch seam is on the
/// measured path whenever checks exist.
pub fn storm_load(sessions: usize, seed: u64, storm: bool) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(5),
        middlebox_every: 0,
        latency: Duration::from_micros(200),
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 1 },
        seed,
        resumption_storm: storm,
        // Every 16th reconnect arrives with a ticket the server no
        // longer honors and degrades to a full handshake.
        stale_every: if storm { 16 } else { 0 },
        defer_verify: true,
        chain_mix: mbtls_host::ChainMix::PassThrough,
        read_only_path: false,
        auth_mode: mbtls_core::MiddleboxAuthMode::SgxAttested,
    }
}

/// Drain shard `k`'s residue-class slice of an `S`-shard storm (or
/// baseline) fleet, returning `(wall, resumed, full)`.
fn drain_storm_slice(
    n: usize,
    seed: u64,
    k: u16,
    shards: u16,
    storm: bool,
) -> (std::time::Duration, u64, u64) {
    let config = HostConfig::builder().shards(1).build().expect("storm shard config is valid");
    // Untimed warm-up, same rationale as `scale.rs`: every slice is
    // measured from an equally warm process state.
    {
        let warm = storm_load(64.min(n), seed ^ 0x0D15_CA4D, storm);
        let mut shard = Shard::new(k, NetSubstrate::new(seed ^ k as u64), config.clone());
        let mut generator = LoadGenerator::slice(warm, k, shards);
        generator
            .drive(&mut shard, SimTime::ZERO.plus(Duration::from_secs(3_600)))
            .expect("storm warm-up slice drains");
    }
    let mut shard = Shard::new(k, NetSubstrate::new(seed ^ k as u64), config);
    let mut generator = LoadGenerator::slice(storm_load(n, seed, storm), k, shards);
    let t0 = Instant::now();
    generator
        .drive(&mut shard, SimTime::ZERO.plus(Duration::from_secs(3_600)))
        .expect("storm shard slice drains");
    let wall = t0.elapsed();
    let counters = shard.counters();
    assert_eq!(
        counters.completed(),
        counters.opened(),
        "every storm session must complete"
    );
    (wall, counters.handshakes_resumed(), counters.handshakes_full())
}

/// Measure the storm curve: at each shard count, the all-full
/// baseline and the resumption storm under the max-shard-wall model.
pub fn bench_storm_curve(n: usize, seed: u64, curve: &[u16]) -> Vec<StormRun> {
    let mut runs = Vec::with_capacity(curve.len());
    for &shards in curve {
        let mut walls_full = Vec::with_capacity(shards as usize);
        let mut walls_storm = Vec::with_capacity(shards as usize);
        let mut resumed = 0u64;
        let mut full = 0u64;
        for k in 0..shards {
            let (wall, _, _) = drain_storm_slice(n, seed, k, shards, false);
            walls_full.push(wall.as_secs_f64());
            let (wall, res, f) = drain_storm_slice(n, seed, k, shards, true);
            walls_storm.push(wall.as_secs_f64());
            resumed += res;
            full += f;
        }
        assert_eq!((resumed + full) as usize, n);
        let max_full = walls_full.iter().copied().fold(0.0, f64::max);
        let max_storm = walls_storm.iter().copied().fold(0.0, f64::max);
        runs.push(StormRun {
            shards,
            full_handshakes_per_s: n as f64 / max_full,
            storm_handshakes_per_s: n as f64 / max_storm,
            storm_resumed_share: resumed as f64 / n as f64,
        });
    }
    runs
}

/// Replay one seeded storm fleet (batching enabled) twice through the
/// sharded [`Host`] and check the merged traces are bit-identical and
/// the merged counters equal.
pub fn storm_determinism_probe(sessions: usize, shards: u16, seed: u64) -> (u64, bool) {
    let run = || {
        let config = HostConfig::builder()
            .shards(shards as u32)
            .build()
            .expect("probe shard config is valid");
        let mut host = Host::new(config, |k| NetSubstrate::new(seed ^ k as u64));
        let recorders = host.record_telemetry();
        let mut generator = LoadGenerator::new(storm_load(sessions, seed, true));
        generator
            .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(3_600)))
            .expect("determinism storm drains");
        let merged = merge_shard_traces(recorders.iter().map(|r| r.snapshot()).collect());
        (trace_fingerprint(&merged), host.counters())
    };
    let (fingerprint_a, counters_a) = run();
    let (fingerprint_b, counters_b) = run();
    (fingerprint_a, fingerprint_a == fingerprint_b && counters_a == counters_b)
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
    fn storm_curve_smoke_beats_baseline() {
        let runs = bench_storm_curve(16, 0x57, &[1, 2]);
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert!(run.full_handshakes_per_s > 0.0);
            assert!(run.storm_handshakes_per_s > 0.0);
            assert!(run.storm_resumed_share > 0.5, "most storm sessions resume");
        }
    }

    #[test]
    fn storm_determinism_probe_is_identical() {
        let (fingerprint, identical) = storm_determinism_probe(8, 2, 0x77);
        assert!(identical, "seeded storm replay must be bit-identical");
        assert_ne!(fingerprint, 0);
    }

    #[test]
    fn report_json_shape_is_valid() {
        let report = HandshakeReport {
            smoke: true,
            verify: vec![bench_verify_row(4, 4, 1)],
            cpu: HandshakeCpu { full_us: 100.0, resumed_us: 20.0, resumed_over_full: 0.2 },
            storm: bench_storm_curve(8, 3, &[1]),
            determinism_seed: 3,
            determinism_sessions: 8,
            determinism_shards: 2,
            determinism_identical: true,
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"verify\"",
            "\"batch\"",
            "\"single_verifies_per_s\"",
            "\"batched_verifies_per_s\"",
            "\"best_batch_speedup\"",
            "\"handshake_cpu\"",
            "\"resumed_over_full\"",
            "\"storm\"",
            "\"full_handshakes_per_s\"",
            "\"storm_handshakes_per_s\"",
            "\"determinism\"",
            "\"batching\": true",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  }") && !json.contains(",\n}"));
    }
}
