//! Reconnect-storm workload tests: primed session tickets make
//! abbreviated handshakes the hot path, stale tickets degrade to
//! full handshakes (counted separately), and deferred/batched
//! signature verification preserves both outcomes and determinism.

use mbtls_host::{Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, Workload};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_telemetry::{merge_shard_traces, EventKind};

fn storm_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(400),
        // Abbreviated handshakes and middlebox announcement are
        // orthogonal machinery; the storm scenario models legacy
        // reconnect floods, so no middleboxes on the resumed path.
        middlebox_every: 0,
        latency: Duration::from_micros(50),
        workload: Workload { request_len: 256, response_len: 512, exchanges: 1 },
        seed,
        resumption_storm: true,
        stale_every: 0,
        defer_verify: false,
        chain_mix: mbtls_host::ChainMix::PassThrough,
        auth_mode: mbtls_core::MiddleboxAuthMode::SgxAttested,
        read_only_path: false,
    }
}

fn drive(config: LoadConfig, shards: u16) -> (Vec<mbtls_telemetry::Event>, mbtls_host::HostCounters) {
    let seed = config.seed;
    let mut generator = LoadGenerator::new(config);
    let host_config = HostConfig::builder().shards(shards.into()).build().expect("valid config");
    let mut host = Host::new(host_config, |k| NetSubstrate::new(seed ^ k as u64));
    let recorders = host.record_telemetry();
    generator
        .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
        .expect("storm drains");
    let trace = merge_shard_traces(recorders.iter().map(|r| r.snapshot()).collect());
    (trace, host.counters())
}

/// Every session resumes from the primed ticket: all handshakes
/// abbreviated, no certificate signature checks owed anywhere.
#[test]
fn fresh_storm_resumes_every_session() {
    let (_, counters) = drive(storm_load(10, 21), 1);
    assert_eq!(counters.opened(), 10);
    assert_eq!(counters.completed(), 10);
    assert_eq!(counters.handshakes_resumed(), 10);
    assert_eq!(counters.handshakes_full(), 0);
    // Abbreviated handshakes skip certificate verification entirely,
    // so even a batching-capable shard has nothing to batch.
    assert_eq!(counters.verify_checks(), 0);
}

/// Sessions on the stale cadence offer a corrupted ticket; the
/// server rejects the seal and falls back to a full handshake, which
/// the counters report separately.
#[test]
fn stale_tickets_degrade_to_full_handshakes() {
    let mut config = storm_load(12, 33);
    config.stale_every = 4; // sessions 0, 4, 8 go stale
    let (_, counters) = drive(config, 1);
    assert_eq!(counters.completed(), 12);
    assert_eq!(counters.handshakes_full(), 3);
    assert_eq!(counters.handshakes_resumed(), 9);
}

/// With `defer_verify` on, the degraded (full) handshakes park their
/// certificate checks for the shard's end-of-turn batch flush; the
/// storm still completes with identical resumed/full splits.
#[test]
fn batched_verification_matches_inline_outcome() {
    let mut inline_cfg = storm_load(12, 55);
    inline_cfg.stale_every = 3; // sessions 0, 3, 6, 9 go stale
    let mut deferred_cfg = inline_cfg.clone();
    deferred_cfg.defer_verify = true;

    let (_, inline) = drive(inline_cfg, 1);
    let (_, deferred) = drive(deferred_cfg, 1);

    assert_eq!(inline.completed(), 12);
    assert_eq!(deferred.completed(), 12);
    assert_eq!(inline.handshakes_full(), deferred.handshakes_full());
    assert_eq!(inline.handshakes_resumed(), deferred.handshakes_resumed());
    // Inline verification never reaches the batch path; deferred
    // verification pushes every full handshake's checks through it.
    assert_eq!(inline.verify_batches(), 0);
    assert!(deferred.verify_batches() > 0, "deferred checks must flush through batches");
    assert!(deferred.verify_checks() >= deferred.handshakes_full());
}

/// Same seed, batching enabled, two shards: double runs must replay
/// bit-identical merged traces and counters, and the trace must
/// carry the batch-size telemetry.
#[test]
fn storm_with_batching_is_bit_identical_across_runs() {
    let mut config = storm_load(14, 77);
    config.stale_every = 3;
    config.defer_verify = true;

    let (trace_a, counters_a) = drive(config.clone(), 2);
    let (trace_b, counters_b) = drive(config, 2);

    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "seeded storm must replay bit-identically");
    assert_eq!(counters_a, counters_b);
    let batch_events: Vec<_> = trace_a
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HostVerifyBatch { groups, checks } => Some((groups, checks)),
            _ => None,
        })
        .collect();
    assert!(!batch_events.is_empty(), "batched turns must be visible in telemetry");
    assert!(batch_events.iter().all(|&(g, c)| g > 0 && c >= g));
}

/// Deferred verification also covers the non-storm path: full
/// handshakes with middlebox chains screen their middlebox
/// certificates through the same batch seam.
#[test]
fn batched_verification_covers_middlebox_screening() {
    let config = LoadConfig {
        sessions: 6,
        arrival_spacing: Duration::from_micros(400),
        middlebox_every: 2,
        latency: Duration::from_micros(50),
        workload: Workload { request_len: 256, response_len: 512, exchanges: 1 },
        seed: 91,
        resumption_storm: false,
        stale_every: 0,
        defer_verify: true,
        chain_mix: mbtls_host::ChainMix::PassThrough,
        auth_mode: mbtls_core::MiddleboxAuthMode::SgxAttested,
        read_only_path: false,
    };
    let (_, counters) = drive(config, 1);
    assert_eq!(counters.completed(), 6);
    assert_eq!(counters.handshakes_full(), 6);
    assert!(counters.verify_batches() > 0);
    // Every session owes at least its primary chain's checks; the
    // middlebox sessions owe their screening checks on top.
    assert!(counters.verify_checks() > 6);
}

/// Cross-session batching pays where full handshakes arrive close
/// together: 100 fresh sessions (no tickets, no middlebox) 5 µs apart,
/// the spacing of the scale suite's full-handshake load, over 200 µs
/// links on one shard. Their deferred groups meet in the shard's
/// end-of-turn flushes, so the sessions finish with fewer batches than
/// full handshakes; one batch per session would mean the queue only
/// re-labels inline verification.
#[test]
fn close_full_handshakes_share_verify_batches() {
    let config = LoadConfig {
        sessions: 100,
        arrival_spacing: Duration::from_micros(5),
        middlebox_every: 0,
        latency: Duration::from_micros(200),
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 1 },
        seed: 0x16A,
        defer_verify: true,
        ..LoadConfig::default()
    };
    let (_, counters) = drive(config, 1);
    assert_eq!(counters.completed(), 100);
    assert_eq!(counters.handshakes_full(), 100);
    assert!(
        counters.verify_batches() < counters.handshakes_full(),
        "{} batches for {} full handshakes",
        counters.verify_batches(),
        counters.handshakes_full()
    );
}
