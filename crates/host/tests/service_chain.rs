//! Service-function-chain scenarios through the concurrent host:
//! Slick-style chains at fleet scale, read-only fast-path key reuse,
//! and the bit-identical replay guarantee with shared middlebox state
//! (the cache's deterministic eviction) in the loop.

use mbtls_host::{ChainMix, Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, Workload};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_telemetry::{fast_path_disabled, EventKind, Party, Recorder};

fn chain_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(400),
        middlebox_every: 2,
        latency: Duration::from_micros(50),
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 2 },
        seed,
        chain_mix: ChainMix::SlickWeb,
        ..LoadConfig::default()
    }
}

fn run(config: LoadConfig) -> (Vec<mbtls_telemetry::Event>, mbtls_host::HostCounters) {
    let recorder = Recorder::new();
    let seed = config.seed;
    let sessions = config.sessions;
    let mut generator = LoadGenerator::new(config);
    generator.set_telemetry(recorder.sink());
    let mut host = Host::new(HostConfig::default(), |_| NetSubstrate::new(seed));
    host.set_telemetry(recorder.sink());
    generator
        .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(120)))
        .expect("fleet drains");
    assert_eq!(host.counters().completed(), sessions as u64);
    (recorder.snapshot(), host.counters())
}

#[test]
fn service_chain_fleet_completes_and_replays() {
    // Three-middlebox chains on every other session, with the shared
    // cache (deterministic FIFO eviction) in the path: two identical
    // runs must produce bit-identical traces and counters.
    let (trace_a, counters_a) = run(chain_load(6, 21));
    let (trace_b, counters_b) = run(chain_load(6, 21));
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "chain runs must replay bit-identically");
    assert_eq!(counters_a, counters_b);
}

#[test]
fn seeded_chain_mix_varies_composition_and_replays() {
    // The seeded mix draws a per-session chain composition from the
    // global session index. It must actually vary across the fleet —
    // and two identical runs must still replay bit-identically, with
    // a shard slice agreeing on each session's chain by construction.
    let seed = 21;
    let lens: Vec<usize> = (0..6u64)
        .filter(|i| i % 2 == 0)
        .map(|i| ChainMix::Seeded.compose(seed, i).expect("seeded mix always composes").len())
        .collect();
    assert!(
        lens.iter().any(|&n| n != lens[0]),
        "seeded mix must not degenerate to a fixed chain: {lens:?}"
    );
    assert!(lens.iter().all(|&n| (1..=3).contains(&n)));

    let config = LoadConfig { chain_mix: ChainMix::Seeded, ..chain_load(6, seed) };
    let (trace_a, counters_a) = run(config.clone());
    let (trace_b, counters_b) = run(config);
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "seeded chain mix must replay bit-identically");
    assert_eq!(counters_a, counters_b);
}

#[test]
fn read_only_path_fast_forwards_at_scale() {
    // Aliased hop keys + pass-through middleboxes: records traverse
    // middleboxes via the tag-verify fast path, visible in telemetry
    // as RecordForwardedReadOnly instead of decrypt/encrypt pairs.
    let config = LoadConfig {
        sessions: 4,
        middlebox_every: 1,
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 2 },
        seed: 33,
        read_only_path: true,
        ..chain_load(4, 33)
    };
    let config = LoadConfig { chain_mix: ChainMix::PassThrough, ..config };
    let (trace, _) = run(config);
    let fast = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RecordForwardedReadOnly { .. }))
        .count();
    let resealed = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RecordEncrypt { .. }))
        .count();
    let disabled = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FastPathDisabled { .. }))
        .count();
    assert!(fast > 0, "read-only path must take the fast path");
    assert_eq!(resealed, 0, "no middlebox re-encryption on a read-only path");
    assert_eq!(disabled, 0, "no lane of a read-only chain leaves the fast path");
}

#[test]
fn modifying_chain_on_aliased_keys_opens_but_never_seals() {
    // The fast path is gated on the processor declaration, not just
    // the keys: a chain of undeclared (modification-capable)
    // processors under a read-only key distribution still opens every
    // record for them. Aliased hops hold no write key, so nothing is
    // sealed: these processors leave the raw workload bytes
    // untouched, and each record leaves as it arrived. An actual
    // modification on aliased keys is an error (see the dataplane
    // unit tests and `sticky_errors.rs`).
    let config = LoadConfig { read_only_path: true, ..chain_load(4, 55) };
    let (trace, _) = run(config);
    let count = |is: fn(&EventKind) -> bool| trace.iter().filter(|e| is(&e.kind)).count();
    let opened = count(|k| matches!(k, EventKind::RecordDecrypt { .. }));
    let sealed = count(|k| matches!(k, EventKind::RecordEncrypt { .. }));
    let fast = count(|k| matches!(k, EventKind::RecordForwardedReadOnly { .. }));
    assert!(opened > 0, "undeclared processors must see the plaintext");
    assert_eq!(sealed, 0, "an aliased hop has no key to seal under");
    assert_eq!(fast, 0, "modifying processors must never fast-forward");
    // Each lane says once, at its first record, why it opens instead
    // of verifying: as many events as middlebox lanes that opened a
    // record with sequence 0.
    let disabled: Vec<_> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::FastPathDisabled { hop, reason } => Some((e.party, hop, reason)),
            _ => None,
        })
        .collect();
    let first_opens = trace
        .iter()
        .filter(|e| matches!(e.party, Party::Middlebox(_)))
        .filter(|e| matches!(e.kind, EventKind::RecordDecrypt { seq: 0, .. }))
        .count();
    assert!(first_opens > 0);
    assert_eq!(disabled.len(), first_opens, "one event per opening lane: {disabled:?}");
    assert!(disabled.iter().all(|&(party, _, reason)| {
        matches!(party, Party::Middlebox(_))
            && reason == fast_path_disabled::PROCESSOR_NOT_READ_ONLY
    }));
}
