//! End-to-end tests for the concurrent session host: fleet churn
//! over the network simulator, seeded determinism, stale-id
//! rejection, timeout surfacing under total loss, idle eviction, and
//! multi-shard equivalence.

use mbtls_core::MbError;
use mbtls_host::{
    Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, PipeSubstrate, Reactor,
    SessionOutcome, Workload,
};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;
use mbtls_telemetry::{merge_shard_traces, EventKind, Recorder};

fn small_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(400),
        middlebox_every: 3,
        latency: Duration::from_micros(50),
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 2 },
        seed,
        ..LoadConfig::default()
    }
}

#[test]
fn fleet_completes_over_netsim() {
    let config = small_load(9, 11);
    let mut generator = LoadGenerator::new(config.clone());
    let mut host = Host::new(HostConfig::default(), |_| NetSubstrate::new(config.seed));
    generator
        .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
        .expect("fleet drains");

    let counters = host.counters();
    assert_eq!(counters.opened(), 9);
    assert_eq!(counters.completed(), 9);
    assert_eq!(counters.timed_out() + counters.evicted() + counters.failed(), 0);
    assert_eq!(counters.exchanges_completed(), 18);
    assert_eq!(counters.handshake_latencies_ns().len(), 9);
    assert!(counters.bytes_moved() > 0);
    assert!(counters.handshake_latencies_ns().iter().all(|&ns| ns > 0));
    // Completed sessions cached their resumption tickets.
    assert_eq!(host.cached_tickets(), 9);
    assert!(host.shard(0).results().iter().all(|(_, outcome)| outcome.is_completed()));
}

#[test]
fn same_seed_same_trace_and_counters() {
    let run = |config: LoadConfig| {
        let recorder = Recorder::new();
        let seed = config.seed;
        let mut generator = LoadGenerator::new(config);
        let mut host = Host::new(HostConfig::default(), |_| NetSubstrate::new(seed));
        host.set_telemetry(recorder.sink());
        generator
            .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
            .expect("fleet drains");
        (recorder.snapshot(), host.counters())
    };
    let (trace_a, counters_a) = run(small_load(7, 42));
    let (trace_b, counters_b) = run(small_load(7, 42));
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same seed and schedule must replay bit-identically");
    assert_eq!(counters_a, counters_b);

    // A different churn schedule must not replay the same trace.
    let mut other = small_load(7, 42);
    other.arrival_spacing = Duration::from_micros(700);
    let (trace_c, _) = run(other);
    assert_ne!(trace_a, trace_c, "different schedule should differ");
}

#[test]
fn stale_ids_rejected_after_slot_reuse_under_churn() {
    // Two sequential batches: the second reuses the first batch's
    // slab slots, under bumped generations.
    let mut generator = LoadGenerator::new(small_load(6, 5));
    let mut host = Host::new(HostConfig::default(), |_| NetSubstrate::new(5));

    let mut first_batch = Vec::new();
    for _ in 0..3 {
        first_batch.push(host.open(generator.make_spec()).expect("open"));
    }
    host.run(SimTime::ZERO.plus(Duration::from_secs(60))).expect("first batch drains");

    let mut second_batch = Vec::new();
    for _ in 0..3 {
        second_batch.push(host.open(generator.make_spec()).expect("open"));
    }
    // LIFO slot reuse: same indices, new generations.
    let mut first_indices: Vec<u32> = first_batch.iter().map(|id| id.index()).collect();
    let mut second_indices: Vec<u32> = second_batch.iter().map(|id| id.index()).collect();
    first_indices.sort_unstable();
    second_indices.sort_unstable();
    assert_eq!(first_indices, second_indices, "slots are recycled");
    for new in &second_batch {
        let old = first_batch
            .iter()
            .find(|o| o.index() == new.index())
            .expect("every second-batch slot was recycled from the first batch");
        assert_ne!(old.generation(), new.generation(), "recycled slot must bump generation");
    }
    host.run(SimTime::ZERO.plus(Duration::from_secs(120))).expect("second batch drains");
    assert_eq!(host.counters().completed(), 6);
}

/// Regression: a handshake flight silently dropped by the network
/// used to stall the session forever with no error anywhere. The
/// host's timer wheel must retry with backoff, then surface
/// `MbError::Timeout`.
#[test]
fn blackholed_handshake_surfaces_timeout() {
    let recorder = Recorder::new();
    let mut generator = LoadGenerator::new(small_load(1, 3));
    let config = HostConfig::builder()
        .handshake_timeout(Duration::from_millis(10))
        .handshake_attempts(2)
        .build()
        .expect("valid config");
    let mut host = Host::new(config, |_| NetSubstrate::new(3));
    host.set_telemetry(recorder.sink());

    let mut spec = generator.make_spec();
    // 100% loss for the whole run: every flight is swallowed.
    spec.faults = FaultConfig::blackhole_window(SimTime::ZERO, SimTime(u64::MAX));
    let id = host.open(spec).expect("open");

    // Without the timer wheel this would spin to the deadline (the
    // old `NetChain::run_until` just reported a quiescent network).
    host.run(SimTime::ZERO.plus(Duration::from_secs(10))).expect("host stays live and drains");

    let results = host.take_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0, id);
    assert!(matches!(results[0].1, SessionOutcome::TimedOut));
    assert!(matches!(results[0].1.as_error(), Some(MbError::Timeout(_))));
    let counters = host.counters();
    assert_eq!(counters.timed_out(), 1);
    assert_eq!(counters.retries(), 1);
    assert_eq!(counters.completed(), 0);

    let trace = recorder.snapshot();
    let timeouts = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::HostTimeout { .. }))
        .count();
    let backoffs: Vec<u64> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HostRetryBackoff { backoff_ns, .. } => Some(backoff_ns),
            _ => None,
        })
        .collect();
    assert_eq!(timeouts, 2, "one HostTimeout per attempt");
    // One retry between the two attempts, after the handshake timeout
    // doubled once (attempt 1 waits timeout × 2^1).
    assert_eq!(backoffs, [Duration::from_millis(20).0]);
}

/// A session whose peer goes silent mid-workload is evicted by the
/// idle timer rather than held forever.
#[test]
fn mid_session_blackhole_leads_to_idle_eviction() {
    let recorder = Recorder::new();
    let mut generator = LoadGenerator::new(LoadConfig {
        sessions: 1,
        // Long workload so the blackhole window opens mid-transfer.
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 100_000 },
        ..small_load(1, 8)
    });
    let config = HostConfig::builder()
        .idle_timeout(Duration::from_millis(20))
        .build()
        .expect("valid config");
    let mut host = Host::new(config, |_| NetSubstrate::new(8));
    host.set_telemetry(recorder.sink());

    let mut spec = generator.make_spec();
    // Handshake (sub-millisecond at 50 µs latency) completes well
    // before the lights go out at 50 ms.
    spec.faults = FaultConfig::blackhole_window(
        SimTime::ZERO.plus(Duration::from_millis(50)),
        SimTime(u64::MAX),
    );
    host.open(spec).expect("open");
    host.run(SimTime::ZERO.plus(Duration::from_secs(10))).expect("host drains");

    let counters = host.counters();
    assert_eq!(counters.evicted(), 1, "session must be evicted, not hung");
    assert_eq!(counters.handshake_latencies_ns().len(), 1, "handshake did complete first");
    assert!(counters.exchanges_completed() > 0, "workload ran until the blackhole");
    assert!(matches!(host.shard(0).results()[0].1, SessionOutcome::Evicted));
    assert!(recorder
        .snapshot()
        .iter()
        .any(|e| matches!(e.kind, EventKind::HostEvict { .. })));
}

#[test]
fn pipe_substrate_completes_and_reuses_buffers() {
    let config = small_load(8, 21);
    let mut generator = LoadGenerator::new(config.clone());
    let mut host = Host::new(HostConfig::default(), |_| PipeSubstrate::new());
    generator
        .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
        .expect("fleet drains");
    assert_eq!(host.counters().completed(), 8);
    let (acquired, reused) = host.pool_stats();
    // One staging buffer is in flight at a time, so after the first
    // acquisition every later one is served from the pool.
    assert!(acquired > 1);
    assert_eq!(reused, acquired - 1, "steady state allocates no staging buffers");
}

/// A sharded fleet completes the same sessions with the same
/// virtual-time handshake latencies as a single-shard host: sessions
/// derive from the global index, shards share nothing, so slicing
/// the load is observationally equivalent.
#[test]
fn sharded_fleet_matches_single_shard_outcomes() {
    let run = |shards: u32| {
        let seed = 77;
        let config = small_load(12, seed);
        let host_cfg = HostConfig::builder().shards(shards).build().expect("valid config");
        let mut host = Host::new(host_cfg, |k| NetSubstrate::new(seed ^ k as u64));
        let mut generator = LoadGenerator::new(config);
        generator
            .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
            .expect("fleet drains");
        host.counters()
    };
    let single = run(1);
    let tri = run(3);
    assert_eq!(single.completed(), 12);
    assert_eq!(tri.completed(), 12);
    assert_eq!(single.opened(), tri.opened());
    assert_eq!(single.exchanges_completed(), tri.exchanges_completed());
    assert_eq!(single.bytes_moved(), tri.bytes_moved());
    // Per-session virtual-time latencies are identical; only the
    // completion order (shard-major when merged) differs.
    let mut a: Vec<u64> = single.handshake_latencies_ns().to_vec();
    let mut b: Vec<u64> = tri.handshake_latencies_ns().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "sharding must not change any session's virtual timing");
}

/// Double-run determinism for a multi-shard host: per-shard traces
/// merged by (virtual time, shard) are bit-identical across runs.
#[test]
fn sharded_double_run_merged_trace_is_bit_identical() {
    let run = || {
        let seed = 99;
        let config = small_load(10, seed);
        let host_cfg = HostConfig::builder().shards(4).build().expect("valid config");
        let mut host = Host::new(host_cfg, |k| NetSubstrate::new(seed ^ k as u64));
        let recorders = host.record_telemetry();
        let mut generator = LoadGenerator::new(config);
        generator
            .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(60)))
            .expect("fleet drains");
        merge_shard_traces(recorders.iter().map(|r| r.snapshot()).collect())
    };
    let trace_a = run();
    let trace_b = run();
    assert!(!trace_a.is_empty());
    // Events from every shard are present, tagged with their worker.
    for shard in 0..4u16 {
        assert!(trace_a.iter().any(|e| e.shard == shard), "shard {shard} emitted nothing");
    }
    // Merge order is (ts_ns, shard) — monotone by construction.
    assert!(trace_a.windows(2).all(|w| (w[0].ts_ns, w[0].shard) <= (w[1].ts_ns, w[1].shard)));
    assert_eq!(trace_a, trace_b, "sharded runs must replay bit-identically");
}
