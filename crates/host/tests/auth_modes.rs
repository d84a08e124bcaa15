//! Fleet scenarios under each middlebox authorization mode
//! (`MiddleboxAuthMode`): SGX-attested (paper mbTLS), delegated
//! credentials (mdTLS-style, DESIGN.md §6j), and the naive key-shared
//! baseline. Same seed, same arrival schedule, same workload — only
//! the trust mechanism changes, which is exactly the axis the paper
//! suite's authorization ablation (`BENCH_paper.json`) measures.

use mbtls_core::MiddleboxAuthMode;
use mbtls_host::{Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, Workload};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_telemetry::{EventKind, Party, Recorder};

fn fleet(mode: MiddleboxAuthMode, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions: 6,
        arrival_spacing: Duration::from_micros(400),
        middlebox_every: 2,
        latency: Duration::from_micros(50),
        workload: Workload { request_len: 256, response_len: 512, exchanges: 2 },
        seed,
        auth_mode: mode,
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
fn delegated_fleet_completes_and_replays() {
    // Delegated middleboxes run the full secondary-handshake
    // authorization (credential verification on the client, key
    // delivery after approval), so reaching the data plane — visible
    // as middlebox decrypt events — proves the credentials verified.
    let (trace_a, counters_a) = run(fleet(MiddleboxAuthMode::Delegated, 61));
    let (trace_b, counters_b) = run(fleet(MiddleboxAuthMode::Delegated, 61));
    assert_eq!(trace_a, trace_b, "delegated fleet must replay bit-identically");
    assert_eq!(counters_a, counters_b);
    let mbox_decrypts = trace_a
        .iter()
        .filter(|e| {
            matches!(e.party, Party::Middlebox(_))
                && matches!(e.kind, EventKind::RecordDecrypt { .. })
        })
        .count();
    assert!(
        mbox_decrypts > 0,
        "delegated middleboxes must join the data plane (credential accepted)"
    );
}

#[test]
fn all_auth_modes_drain_the_same_schedule() {
    for mode in [
        MiddleboxAuthMode::SgxAttested,
        MiddleboxAuthMode::Delegated,
        MiddleboxAuthMode::KeyShared,
    ] {
        let (_, counters) = run(fleet(mode, 62));
        assert_eq!(counters.completed(), 6, "{} fleet must drain", mode.name());
    }
}

#[test]
fn key_shared_fleet_needs_no_authorization_handshake() {
    // The naive baseline's middleboxes are on-path relays with no
    // identity: no secondary handshakes, no middlebox crypto events —
    // the cheapness the bench measures and the security matrix
    // punishes.
    let (trace, counters) = run(fleet(MiddleboxAuthMode::KeyShared, 63));
    assert_eq!(counters.completed(), 6);
    let mbox_crypto = trace
        .iter()
        .filter(|e| {
            matches!(e.party, Party::Middlebox(_))
                && matches!(
                    e.kind,
                    EventKind::RecordDecrypt { .. } | EventKind::RecordEncrypt { .. }
                )
        })
        .count();
    assert_eq!(mbox_crypto, 0, "key-shared relays do no per-hop crypto");
}
