//! The host's trace and its counters are the same facts: replaying a
//! fleet's merged trace through [`HostCounters::observe`] reproduces
//! every lifecycle tally, and a session failed by a party error says
//! so in its close event.

use mbtls_core::MiddleboxAuthMode;
use mbtls_host::{
    ChainMix, Host, HostConfig, HostCounters, LoadConfig, LoadGenerator, NetSubstrate, Reactor,
    SessionOutcome, Workload,
};
use mbtls_netsim::net::Dir;
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;
use mbtls_telemetry::{close_outcome, merge_shard_traces, Event, EventKind, Recorder};

/// Every tally that is a fold of events: all of [`HostCounters`]
/// except the two data-path bumps (`bytes_moved`,
/// `exchanges_completed`). Latencies sorted — a merged trace replays
/// them in time order, `HostCounters::merge` lists them shard by shard.
fn lifecycle(c: &HostCounters) -> ([u64; 11], Vec<u64>) {
    let mut latencies = c.handshake_latencies_ns().to_vec();
    latencies.sort_unstable();
    let tallies = [
        c.opened(),
        c.completed(),
        c.timed_out(),
        c.evicted(),
        c.failed(),
        c.retries(),
        c.tickets_expired(),
        c.handshakes_full(),
        c.handshakes_resumed(),
        c.verify_batches(),
        c.verify_checks(),
    ];
    (tallies, latencies)
}

fn replay(trace: &[Event]) -> HostCounters {
    let mut counters = HostCounters::default();
    for event in trace {
        counters.observe(&event.kind);
    }
    counters
}

#[test]
fn trace_replays_into_the_counters() {
    let seed = 61;
    // A reconnect burst: every session arrives at once, so handshakes
    // on one shard finish — and their tickets expire — at the same
    // instants.
    let mut generator = LoadGenerator::new(LoadConfig {
        sessions: 16,
        arrival_spacing: Duration::ZERO,
        middlebox_every: 0,
        latency: Duration::from_micros(50),
        workload: Workload { request_len: 256, response_len: 512, exchanges: 1 },
        seed,
        resumption_storm: true,
        stale_every: 4,
        defer_verify: true,
        chain_mix: ChainMix::PassThrough,
        auth_mode: MiddleboxAuthMode::SgxAttested,
        read_only_path: false,
    });
    let config = HostConfig::builder()
        .shards(2)
        .handshake_timeout(Duration::from_millis(5))
        .handshake_attempts(3)
        .ticket_ttl(Duration::from_millis(2))
        .ticket_cache_cap(4)
        .build()
        .expect("valid config");
    let mut host = Host::new(config, |k| NetSubstrate::new(seed ^ k as u64));
    let recorders = host.record_telemetry();

    // Session 0 never hears back: two retries, then `TimedOut`.
    let mut spec = generator.make_spec();
    spec.faults = FaultConfig::blackhole_window(SimTime::ZERO, SimTime(u64::MAX));
    host.open(spec).expect("open");
    generator
        .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
        .expect("fleet drains");

    let trace = merge_shard_traces(recorders.iter().map(Recorder::snapshot).collect());
    let counters = host.counters();
    assert_eq!(lifecycle(&replay(&trace)), lifecycle(&counters));

    // The run did cover what the fold has to get right.
    assert_eq!(counters.opened(), 16);
    assert_eq!((counters.completed(), counters.timed_out()), (15, 1));
    assert_eq!(counters.retries(), 2);
    assert!(counters.handshakes_full() > 0 && counters.handshakes_resumed() > 0);
    assert!(counters.verify_batches() > 0);
    let drops: Vec<u64> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HostTicketExpired { dropped, .. } => Some(dropped),
            _ => None,
        })
        .collect();
    assert!(drops.contains(&1), "a ticket displaced by the cache cap: {drops:?}");
    assert!(drops.iter().any(|&d| d > 1), "several tickets in one expiry sweep: {drops:?}");
    // Every handshake cached a ticket, so the tally is known without
    // reading a single event. (Shard 1 drained first and keeps what
    // its cap let it hold; shard 0 outlived every expiry.)
    assert_eq!(counters.tickets_expired() + host.cached_tickets() as u64, 15);
    assert_eq!(host.shard(0).cached_tickets(), 0);
}

#[test]
fn corrupted_record_fails_one_session_and_says_so() {
    let mut generator = LoadGenerator::new(LoadConfig {
        sessions: 3,
        middlebox_every: 0,
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 3 },
        seed: 17,
        ..LoadConfig::default()
    });
    let mut host = Host::new(HostConfig::default(), |_| NetSubstrate::new(17));
    let recorder = Recorder::new();
    host.set_telemetry(recorder.sink());
    let ids: Vec<_> = (0..3).map(|_| host.open(generator.make_spec()).expect("open")).collect();
    let victim = ids[1];

    // Let every handshake finish (each session's first request is
    // already on the wire by then), then flip a bit in the next
    // client→server chunk of the victim: its second request.
    while host.counters().handshake_latencies_ns().len() < 3 {
        assert!(host.step().expect("step"), "handshakes complete");
    }
    let (net, conns) =
        host.substrate_mut().adversary(victim.local() as usize).expect("victim is live");
    net.tamper_next(conns[0], Dir::AtoB, |chunk| {
        let mid = chunk.len() / 2;
        chunk[mid] ^= 0x01;
    });
    host.run(SimTime::ZERO.plus(Duration::from_secs(60))).expect("host drains");

    let counters = host.counters();
    assert_eq!((counters.completed(), counters.failed()), (2, 1));
    assert_eq!(counters.timed_out() + counters.evicted(), 0);
    assert!(!host.shard(0).contains(victim), "the victim's id went stale with its slot");
    for (id, outcome) in host.take_results() {
        if id == victim {
            assert!(matches!(outcome, SessionOutcome::Failed(_)), "victim: {outcome:?}");
        } else {
            assert!(outcome.is_completed(), "sibling {id}: {outcome:?}");
        }
    }
    let closes: Vec<(u64, u64)> = recorder
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HostSessionClose { session, outcome } => Some((session, outcome)),
            _ => None,
        })
        .collect();
    assert_eq!(closes.len(), 3);
    let failed: Vec<_> = closes.iter().filter(|c| c.1 == close_outcome::FAILED).collect();
    assert_eq!(failed, [&(victim.index() as u64, close_outcome::FAILED)]);
    assert_eq!(closes.iter().filter(|c| c.1 == close_outcome::COMPLETED).count(), 2);
}
