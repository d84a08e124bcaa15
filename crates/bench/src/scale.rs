//! The `scale` suite (`BENCH_scale.json`): session-host capacity.
//!
//! Where the `chain` suite's per-hop rows measure the record path one
//! middlebox at a time, this module measures the *host*: how many full mbTLS
//! sessions per second a sharded [`Host`] can admit, handshake,
//! serve, and retire over the network simulator, with a
//! cores-vs-throughput curve at 1/2/4/8 shards for three loads: a fleet
//! of 10 000 sessions under open/close churn ([`scale_load`]), and a
//! reconnect storm of primed tickets ([`storm_load`]) beside the same
//! fleet doing only full handshakes ([`full_load`]).
//!
//! # The max-shard-wall throughput model
//!
//! Eight shards need eight cores to run at once, and the machines this
//! harness runs on have one or two, so the curve is modeled rather than
//! measured with threads. Shards share *nothing* — each owns
//! its slab, timer queue, buffer pool, substrate, and clock — so an
//! S-shard deployment's wall clock is the wall clock of its slowest
//! shard. [`bench_scale_point_over`] therefore drives each shard's slice
//! of the fleet to completion *sequentially*, times each slice
//! separately, and models S-core throughput as
//! `N / max(per-shard wall)`. The per-shard walls are published in
//! the artifact so the model is auditable, and the JSON names the
//! model explicitly (`"model": "max_shard_wall"`). The 2-shard point is
//! checked against real threads: [`measured_speedup_2_over_1`] drains
//! the churn fleet's two slices on two threads at once and is
//! published beside the modeled curve.
//!
//! [`run`] also pumps a [`SteadyStateShard`] per shard index under
//! the `report` binary's allocation counter to prove every shard's
//! per-record steady state is allocation-free, and replays the churn
//! fleet and the storm (whose deferred signature checks the host
//! batches per shard turn) twice each to prove the merged telemetry
//! trace is bit-identical: batching changes *when* checks are paid,
//! never the outcome or the schedule. `scripts/check.sh` runs the
//! suite in `--smoke` mode as a regression gate; see DESIGN.md
//! §6f–§6g for how to read the numbers.

use std::time::Instant;

use mbtls_host::{
    Host, HostConfig, HostCounters, LoadConfig, LoadGenerator, NetSubstrate, PipeSubstrate,
    Reactor, Shard, Workload,
};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_telemetry::json::Value;
use mbtls_telemetry::{merge_shard_traces, to_json_line};

use crate::Bound::{Flag, Key, Num, Text};
use crate::Rel::{Equal, Ge, Gt, Le};
use crate::{allocs_per_op, check_floors, fnv1a, full_row, row, AllocCounter, Floor, FNV1A_BASIS};

/// Every load run in this module serves the same per-session
/// workload: `exchanges` request/response round trips, so one session
/// moves `exchanges * 2` application records end to end.
pub const WORKLOAD: Workload = Workload { request_len: 256, response_len: 1024, exchanges: 2 };

/// Records one session contributes to the aggregate record count
/// (each exchange is one request record plus one response record).
pub const RECORDS_PER_SESSION: u64 = WORKLOAD.exchanges as u64 * 2;

/// The shard counts a full run measures.
pub const SHARD_CURVE: &[u16] = &[1, 2, 4, 8];

/// The fleet sizes a full run measures. One tier, because the whole
/// suite has to regenerate in minutes: each curve row drains the
/// fleet once (~20 s at 10 000 sessions), and the cost is linear in
/// the fleet, so a 1 000 000-session tier alone would take hours.
pub const FLEETS: &[usize] = &[10_000];

/// The seed of every load [`run`] measures.
const SEED: u64 = 0xC0_FFEE;

/// The churn profile measured at each fleet size: arrivals every 5 µs
/// of virtual time (far faster than a session's ~3 ms lifetime, so
/// hundreds of sessions are live at once per shard), one middlebox on
/// every *third* chain, 200 µs per-link latency.
///
/// The middlebox cadence is deliberately coprime to every shard count
/// in [`SHARD_CURVE`]: a cadence that shares a factor with the shard
/// stride would pin the expensive middlebox chains to a subset of
/// shards under round-robin placement (e.g. cadence 4 at 4 shards
/// puts *all* of them on shard 0), and the max-shard-wall model would
/// then measure that placement pathology instead of the architecture.
pub fn scale_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(5),
        middlebox_every: 3,
        latency: Duration::from_micros(200),
        workload: WORKLOAD,
        seed,
        ..LoadConfig::default()
    }
}

/// The reconnect-storm baseline: a handshake-dominated fleet (one
/// exchange), no middleboxes, arrivals every 5 µs, every session a
/// full handshake. Signature checks are deferred, so the host's batch
/// seam is on the measured path.
pub fn full_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(5),
        middlebox_every: 0,
        latency: Duration::from_micros(200),
        workload: Workload { request_len: 256, response_len: 1024, exchanges: 1 },
        seed,
        defer_verify: true,
        ..LoadConfig::default()
    }
}

/// The reconnect storm: [`full_load`] with tickets primed out of band,
/// and every 17th reconnect arriving with a ticket the server no
/// longer honors, so it degrades to a full handshake.
///
/// The stale cadence is prime and above every shard count in
/// [`SHARD_CURVE`], for the reason [`scale_load`]'s middlebox cadence
/// is 3: a cadence of 16 would put all 125 full handshakes of a
/// 2000-session storm on shard 0 at 2, 4 and 8 shards, and the curve
/// would measure that shard instead of the storm.
pub fn storm_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig { resumption_storm: true, stale_every: 17, ..full_load(sessions, seed) }
}

/// One shard-count configuration of one fleet size.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shards in this configuration.
    pub shards: u16,
    /// Wall-clock milliseconds each shard took to drain its slice,
    /// in shard order (measured sequentially; see the module docs).
    pub per_shard_wall_ms: Vec<f64>,
    /// The slowest shard's wall — the modeled S-core run time.
    pub max_shard_wall_ms: f64,
    /// Modeled completed handshakes per second:
    /// `n / max_shard_wall`.
    pub handshakes_per_s: f64,
    /// Modeled application records delivered end to end per second.
    pub records_per_s: f64,
}

/// Capacity numbers for one load at one fleet size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Sessions opened (and required to complete) in this run.
    pub n: usize,
    /// One entry per [`SHARD_CURVE`] configuration, ascending.
    pub curve: Vec<ShardRun>,
    /// Modeled 4-shard handshake throughput over the 1-shard figure
    /// (the acceptance floor is 2.5).
    pub speedup_4_over_1: f64,
    /// Median open→handshake-done latency in virtual milliseconds
    /// (virtual time is shard-invariant, so one number per fleet).
    pub p50_handshake_ms: f64,
    /// 99th-percentile handshake latency in virtual milliseconds.
    pub p99_handshake_ms: f64,
    /// Wire bytes pushed into the substrate per session.
    pub bytes_per_session: f64,
    /// Fraction of handshakes that resumed a session (the storm's
    /// reconnects less its stale ones; 0 for the other loads).
    pub resumed_share: f64,
}

/// Measure everything that goes into `BENCH_scale.json`.
pub fn run(smoke: bool, alloc_count: AllocCounter) -> Value {
    // Smoke proves the harness end to end on tiny fleets, over a
    // shortened shard curve that still crosses the 4-shard point the
    // speedup floor reads.
    let fleets: &[usize] = if smoke { &[8, 24] } else { FLEETS };
    let curve: &[u16] = if smoke { &[1, 2, 4] } else { SHARD_CURVE };
    let storm_n = if smoke { 16 } else { 2_000 };
    let probes = [
        ("churn", scale_load(if smoke { 16 } else { 10_000 }, SEED)),
        ("storm", storm_load(if smoke { 16 } else { 1_000 }, SEED)),
    ];
    let probe_shards: u16 = 4;
    let alloc_exchanges = if smoke { 8 } else { 256 };

    // Allocations per application record in each shard's established
    // steady state (an exchange is two records), once per shard index:
    // the property has to hold for every worker, not just shard 0.
    let allocs: Vec<f64> = (0..4)
        .map(|k| {
            let mut steady = SteadyStateShard::warmed_up(k, 8);
            allocs_per_op(alloc_count, alloc_exchanges, |n| steady.pump_exchanges(n)) / 2.0
        })
        .collect();
    let determinism = probes.iter().map(|(name, load)| {
        let (_, identical) = determinism_probe(load, probe_shards);
        Value::object([
            ("load", (*name).into()),
            ("seed", load.seed.into()),
            ("sessions", load.sessions.into()),
            ("shards", probe_shards.into()),
            ("batching", load.defer_verify.into()),
            ("identical", identical.into()),
        ])
    });
    let determinism = Value::Array(determinism.collect());

    let tiers = fleets.iter().map(|&n| {
        eprintln!("measuring fleet n={n} over shard curve {curve:?}...");
        let point = bench_scale_point_over(scale_load, n, SEED, curve);
        let measured = measured_speedup_2_over_1(n, SEED, point.curve[0].max_shard_wall_ms);
        let mut fields = point_fields(&point);
        // Beside the modeled `speedup_4_over_1`.
        fields.insert(3, ("measured_speedup_2_over_1", Value::Float(measured, 2)));
        Value::object(fields)
    });
    let tiers = Value::Array(tiers.collect());
    eprintln!("measuring the reconnect storm n={storm_n} and its full baseline...");
    let full = bench_scale_point_over(full_load, storm_n, SEED, curve);
    let storm = bench_scale_point_over(storm_load, storm_n, SEED, curve);
    Value::object([
        ("smoke", smoke.into()),
        ("model", "max_shard_wall".into()),
        ("sessions", tiers),
        ("full_baseline", Value::object(point_fields(&full))),
        ("storm", Value::object(point_fields(&storm))),
        // The worst shard's rate, then every shard's.
        ("allocs_per_record_steady", Value::Float(allocs.iter().copied().fold(0.0, f64::max), 3)),
        ("allocs_per_record_per_shard", Value::floats(&allocs, 3)),
        ("determinism", determinism),
    ])
}

/// One load's curve point as artifact fields.
fn point_fields(point: &ScalePoint) -> Vec<(&'static str, Value)> {
    let rows = point.curve.iter().map(|run| {
        Value::object([
            ("shards", run.shards.into()),
            ("per_shard_wall_ms", Value::floats(&run.per_shard_wall_ms, 1)),
            ("max_shard_wall_ms", Value::Float(run.max_shard_wall_ms, 1)),
            ("handshakes_per_s", Value::Float(run.handshakes_per_s, 1)),
            ("records_per_s", Value::Float(run.records_per_s, 1)),
        ])
    });
    vec![
        ("n", point.n.into()),
        ("curve", Value::Array(rows.collect())),
        ("speedup_4_over_1", Value::Float(point.speedup_4_over_1, 2)),
        ("p50_handshake_ms", Value::Float(point.p50_handshake_ms, 3)),
        ("p99_handshake_ms", Value::Float(point.p99_handshake_ms, 3)),
        ("bytes_per_session", Value::Float(point.bytes_per_session, 1)),
        ("resumed_share", Value::Float(point.resumed_share, 3)),
    ]
}

/// The rows of `BENCH_scale.json`: every load's curve rows carry
/// per-shard walls, one per shard, and positive rates; the churn fleet
/// publishes a positive measured 2-shard speedup (a wall-clock
/// reading, so no floor); the storm resumes a share in (0, 1]; no
/// shard allocates in steady state; and both double-run determinism
/// probes, the storm's with batching on, read identical. On full runs
/// only (smoke walls are too short for a stable ratio) the churn
/// fleet's modeled 4-shard throughput is at least 2.5× the 1-shard
/// figure and the storm beats its full baseline at every shard count.
pub const FLOORS: &[Floor] = &[
    row("model", Equal, Text("max_shard_wall"), "the throughput model tag is missing"),
    full_row("sessions.*.speedup_4_over_1", Ge, Num(2.5), "4-shard speedup regressed"),
    row("sessions.*.measured_speedup_2_over_1", Gt, Num(0.0), "two real threads measured nothing"),
    row("sessions.*.curve.*.shards", Ge, Num(1.0), "a curve row has no shards"),
    row("sessions.*.curve.*.per_shard_wall_ms.#", Equal, Key("sessions.*.curve.*.shards"), "a curve row lacks per-shard walls"),
    row("sessions.*.curve.*.max_shard_wall_ms", Gt, Num(0.0), "a curve row measured nothing"),
    row("sessions.*.curve.*.handshakes_per_s", Gt, Num(0.0), "a curve row measured nothing"),
    row("sessions.*.curve.*.records_per_s", Gt, Num(0.0), "a curve row measured nothing"),
    row("full_baseline.curve.*.shards", Ge, Num(1.0), "a curve row has no shards"),
    row("full_baseline.curve.*.per_shard_wall_ms.#", Equal, Key("full_baseline.curve.*.shards"), "a curve row lacks per-shard walls"),
    row("full_baseline.curve.*.max_shard_wall_ms", Gt, Num(0.0), "a curve row measured nothing"),
    row("full_baseline.curve.*.handshakes_per_s", Gt, Num(0.0), "a curve row measured nothing"),
    row("full_baseline.curve.*.records_per_s", Gt, Num(0.0), "a curve row measured nothing"),
    row("storm.curve.*.shards", Ge, Num(1.0), "a curve row has no shards"),
    row("storm.curve.*.per_shard_wall_ms.#", Equal, Key("storm.curve.*.shards"), "a curve row lacks per-shard walls"),
    row("storm.curve.*.max_shard_wall_ms", Gt, Num(0.0), "a curve row measured nothing"),
    row("storm.curve.*.handshakes_per_s", Gt, Num(0.0), "a curve row measured nothing"),
    row("storm.curve.*.records_per_s", Gt, Num(0.0), "a curve row measured nothing"),
    row("storm.resumed_share", Gt, Num(0.0), "the storm resumed nothing"),
    row("storm.resumed_share", Le, Num(1.0), "a share is at most 1"),
    full_row("storm.curve.*.handshakes_per_s", Gt, Key("full_baseline.curve.*.handshakes_per_s"), "the storm loses to its full baseline"),
    row("allocs_per_record_per_shard.*", Equal, Num(0.0), "steady state allocates"),
    row("determinism.#", Equal, Num(2.0), "determinism probes cover churn and storm"),
    row("determinism.0.load", Equal, Text("churn"), "determinism probes cover churn and storm"),
    row("determinism.1.load", Equal, Text("storm"), "determinism probes cover churn and storm"),
    row("determinism.*.identical", Equal, Flag(true), "double-run determinism verdict is false"),
    row("determinism.*.shards", Ge, Num(2.0), "a determinism probe must cover multiple shards"),
    row("determinism.1.batching", Equal, Flag(true), "the storm's probe must run with batching on"),
];

/// Schema and floors of `BENCH_scale.json`: [`FLOORS`], then what no
/// row expresses — every load's curve ascends through the 4-shard row
/// (`check_curve`), and the storm and its full baseline cover the same
/// shard counts.
pub fn check(report: &Value, _replaced: Option<&Value>) -> Result<String, String> {
    check_floors(report, FLOORS)?;
    let smoke = report.flag("smoke")?;
    let tiers = report.list("sessions")?;
    let mut shard_counts = Vec::new();
    for (i, tier) in tiers.iter().enumerate() {
        shard_counts = check_curve(&format!("sessions.{i}"), tier)?;
    }
    let (full, storm) = (report.at("full_baseline")?, report.at("storm")?);
    floor!(
        check_curve("full_baseline", full)? == check_curve("storm", storm)?,
        "the storm and its full baseline cover different shard counts"
    );
    report.num("allocs_per_record_steady")?;
    Ok(format!(
        "scale OK: {} fleet size(s), curves {shard_counts:?}, storm resumed share {}, \
         determinism true{}",
        tiers.len(),
        storm.num("resumed_share")?,
        if smoke { " (smoke: speedup floors skipped)" } else { "" }
    ))
}

/// The shard counts of one load's curve point at `path`, which must
/// ascend through the 4-shard row.
fn check_curve(path: &str, point: &Value) -> Result<Vec<u64>, String> {
    let curve = point.list("curve")?;
    let shard_counts =
        curve.iter().map(|run| run.num("shards").map(|s| s as u64)).collect::<Result<Vec<_>, _>>()?;
    floor!(shard_counts.windows(2).all(|w| w[0] <= w[1]), "{path}: curve rows must ascend");
    floor!(shard_counts.contains(&4), "{path}: curve is missing the 4-shard row");
    for key in
        ["n", "speedup_4_over_1", "p50_handshake_ms", "p99_handshake_ms", "bytes_per_session", "resumed_share"]
    {
        point.num(key)?;
    }
    Ok(shard_counts)
}

/// Virtual percentile (`p` in 0..=100) over handshake latencies,
/// reported in milliseconds.
fn percentile_ms(sorted_ns: &[u64], p: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ns.len() - 1) * p / 100;
    sorted_ns[idx] as f64 / 1e6
}

/// Drain shard `k` of an `S`-shard deployment of the `n`-session
/// fleet `load(n, seed)`: a standalone [`Shard`] reactor over its own
/// simulator, driven by the load generator's residue-class slice.
/// Returns the shard's wall clock plus its counters for aggregation.
fn drain_slice(
    load: impl Fn(usize, u64) -> LoadConfig,
    n: usize,
    seed: u64,
    k: u16,
    shards: u16,
) -> (std::time::Duration, HostCounters) {
    let config = HostConfig::builder()
        .shards(1)
        .build()
        .expect("default shard config is valid");
    // Untimed warm-up: a miniature drain of the same shape, discarded
    // before the timer starts. Slices are measured sequentially in
    // one process, so without this the first-measured slice pays the
    // whole process's cold-start bill (first-touch page faults,
    // allocator arena growth, CPU frequency ramp) and its wall reads
    // up to 2× the others' — an artifact of measurement order, not of
    // the architecture. A prior BENCH_scale.json 8-shard row showed
    // exactly that: [6010, 3421, 2947, …] decaying to a ~2950 plateau.
    {
        let warm = load(64.min(n), seed ^ 0x0D15_CA4D);
        let mut shard = Shard::new(k, NetSubstrate::new(seed ^ k as u64), config.clone());
        let mut generator = LoadGenerator::slice(warm, k, shards);
        generator
            .drive(&mut shard, SimTime::ZERO.plus(Duration::from_secs(3_600)))
            .expect("warm-up slice drains");
    }
    let mut shard = Shard::new(k, NetSubstrate::new(seed ^ k as u64), config);
    let mut generator = LoadGenerator::slice(load(n, seed), k, shards);
    let t0 = Instant::now();
    generator
        .drive(&mut shard, SimTime::ZERO.plus(Duration::from_secs(3_600)))
        .expect("shard slice drains");
    let wall = t0.elapsed();
    let counters = shard.counters().clone();
    assert_eq!(counters.completed(), counters.opened(), "every session must complete");
    (wall, counters)
}

/// Run the `n`-session fleet `load(n, seed)` at every shard count of
/// `curve` ([`SHARD_CURVE`] on full runs, a shorter one on smoke runs)
/// and report the modeled cores-vs-throughput curve (see the module
/// docs for the max-shard-wall model).
pub fn bench_scale_point_over(
    load: impl Fn(usize, u64) -> LoadConfig,
    n: usize,
    seed: u64,
    curve: &[u16],
) -> ScalePoint {
    let mut runs = Vec::with_capacity(curve.len());
    let mut latencies: Vec<u64> = Vec::new();
    let mut bytes_per_session = 0.0;
    let mut resumed = 0;
    for &shards in curve {
        let mut walls = Vec::with_capacity(shards as usize);
        let mut completed = 0u64;
        let mut exchanges = 0u64;
        let mut bytes = 0u64;
        let mut curve_resumed = 0u64;
        let mut curve_latencies: Vec<u64> = Vec::with_capacity(n);
        for k in 0..shards {
            let (wall, counters) = drain_slice(&load, n, seed, k, shards);
            walls.push(wall.as_secs_f64() * 1e3);
            completed += counters.completed();
            exchanges += counters.exchanges_completed();
            bytes += counters.bytes_moved();
            curve_resumed += counters.handshakes_resumed();
            curve_latencies.extend_from_slice(counters.handshake_latencies_ns());
        }
        assert_eq!(completed as usize, n, "every session must complete its workload");
        assert_eq!(curve_latencies.len(), n);
        let max_wall_ms = walls.iter().copied().fold(0.0, f64::max);
        let max_wall_s = max_wall_ms / 1e3;
        runs.push(ShardRun {
            shards,
            per_shard_wall_ms: walls,
            max_shard_wall_ms: max_wall_ms,
            handshakes_per_s: n as f64 / max_wall_s,
            records_per_s: (exchanges * 2) as f64 / max_wall_s,
        });
        if latencies.is_empty() {
            curve_latencies.sort_unstable();
            latencies = curve_latencies;
            bytes_per_session = bytes as f64 / n as f64;
            resumed = curve_resumed;
        }
    }
    let rate_at = |s: u16| {
        runs.iter().find(|r| r.shards == s).map(|r| r.handshakes_per_s).unwrap_or(0.0)
    };
    let base = rate_at(curve[0]);
    let speedup_4_over_1 = if base > 0.0 { rate_at(4) / base } else { 0.0 };
    ScalePoint {
        n,
        curve: runs,
        speedup_4_over_1,
        p50_handshake_ms: percentile_ms(&latencies, 50),
        p99_handshake_ms: percentile_ms(&latencies, 99),
        bytes_per_session,
        resumed_share: resumed as f64 / n as f64,
    }
}

/// The model's 2-shard point, measured: the churn fleet's two 2-shard
/// slices drained on two threads at once, the slower thread's wall
/// against `one_shard_wall_ms`, the 1-shard row of the modeled curve.
pub fn measured_speedup_2_over_1(n: usize, seed: u64, one_shard_wall_ms: f64) -> f64 {
    let slowest = std::thread::scope(|scope| {
        let threads: Vec<_> =
            (0..2).map(|k| scope.spawn(move || drain_slice(scale_load, n, seed, k, 2).0)).collect();
        threads.into_iter().map(|t| t.join().expect("slice thread drains")).max()
    });
    one_shard_wall_ms / (slowest.expect("two slices").as_secs_f64() * 1e3)
}

/// FNV-1a over every telemetry event's JSON line — a trace
/// fingerprint that is equal iff the traces are bit-identical.
fn trace_fingerprint(events: &[mbtls_telemetry::Event]) -> u64 {
    let mut hash = FNV1A_BASIS;
    for event in events {
        fnv1a(&mut hash, to_json_line(event).as_bytes());
    }
    hash
}

/// Replay the seeded fleet `load` twice through a `shards`-shard
/// [`Host`] and check that the merged telemetry traces are
/// bit-identical and the merged counters equal. Returns the
/// merged-trace fingerprint and the verdict.
pub fn determinism_probe(load: &LoadConfig, shards: u16) -> (u64, bool) {
    let seed = load.seed;
    let run = || {
        let config = HostConfig::builder()
            .shards(shards as u32)
            .build()
            .expect("probe shard config is valid");
        let mut host = Host::new(config, |k| NetSubstrate::new(seed ^ k as u64));
        let recorders = host.record_telemetry();
        let mut generator = LoadGenerator::new(load.clone());
        generator
            .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(3_600)))
            .expect("determinism fleet drains");
        let merged = merge_shard_traces(recorders.iter().map(|r| r.snapshot()).collect());
        (trace_fingerprint(&merged), host.counters())
    };
    let (fingerprint_a, counters_a) = run();
    let (fingerprint_b, counters_b) = run();
    (fingerprint_a, fingerprint_a == fingerprint_b && counters_a == counters_b)
}

/// A warmed-up single-session shard over in-memory pipes, parked in
/// its established phase with a deep exchange quota. `max_pump_passes
/// = 1` makes every [`Shard::step`] one bounded pump, so [`run`] can
/// count allocations around [`Self::pump_exchanges`] and report
/// event-loop allocations per record at steady state.
pub struct SteadyStateShard {
    shard: Shard<PipeSubstrate>,
}

impl SteadyStateShard {
    /// Build a one-session shard `k` and drive it through the
    /// handshake plus `warm_exchanges` round trips, so the slab,
    /// timer queue, buffer pool, ready queue, and every party's record
    /// buffers reach their final capacities.
    pub fn warmed_up(k: u16, warm_exchanges: u64) -> Self {
        let mut generator = LoadGenerator::new(LoadConfig {
            sessions: 1,
            middlebox_every: 0,
            workload: Workload { request_len: 256, response_len: 1024, exchanges: u32::MAX },
            ..scale_load(1, 0x5CA1E)
        });
        let config = HostConfig::builder()
            .max_pump_passes(1)
            .build()
            .expect("steady-state config is valid");
        let mut shard = Shard::new(k, PipeSubstrate::new(), config);
        shard.open(generator.make_spec()).expect("open steady-state session");
        let mut steady = SteadyStateShard { shard };
        steady.pump_exchanges(warm_exchanges);
        steady
    }

    /// Drive the event loop until `more` additional exchanges
    /// complete (each is one request record and one response record).
    pub fn pump_exchanges(&mut self, more: u64) {
        let target = self.shard.counters().exchanges_completed() + more;
        while self.shard.counters().exchanges_completed() < target {
            let progressed = self.shard.step().expect("steady-state step");
            assert!(progressed, "steady-state session parked before its exchange quota");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_and_doctored_floors_fail() {
        let smoke = run(true, || 0);
        let reversed = |path| {
            let rows = smoke.list(path).unwrap();
            Value::Array(rows.iter().rev().cloned().collect()).to_pretty()
        };
        let rows = smoke.list("sessions.0.curve").unwrap();
        let without_4 = Value::Array(rows[..2].to_vec()).to_pretty();
        let (descending, storm_descending) = (reversed("sessions.0.curve"), reversed("storm.curve"));
        crate::testing::assert_floors(
            check,
            &smoke,
            &[
                ("sessions.0.curve", &without_4, "missing the 4-shard row"),
                ("sessions.0.curve", &descending, "must ascend"),
                ("storm.curve", &storm_descending, "storm: curve rows must ascend"),
            ],
        );
    }

    #[test]
    fn scale_point_curve_covers_every_shard_count() {
        for load in [scale_load, storm_load] {
            let point = bench_scale_point_over(load, 6, 17, &[1, 2]);
            assert_eq!(point.curve.len(), 2);
            assert_eq!(point.curve[0].shards, 1);
            assert_eq!(point.curve[0].per_shard_wall_ms.len(), 1);
            assert_eq!(point.curve[1].shards, 2);
            assert_eq!(point.curve[1].per_shard_wall_ms.len(), 2);
            for run in &point.curve {
                assert!(run.max_shard_wall_ms > 0.0);
                assert!(run.handshakes_per_s > 0.0);
                assert!(
                    run.per_shard_wall_ms.iter().all(|&w| w <= run.max_shard_wall_ms),
                    "max wall dominates every shard"
                );
            }
        }
    }

    #[test]
    fn storm_curve_smoke_beats_baseline() {
        let full = bench_scale_point_over(full_load, 16, 0x57, &[1, 2]);
        let storm = bench_scale_point_over(storm_load, 16, 0x57, &[1, 2]);
        for point in [&full, &storm] {
            assert_eq!(point.curve.len(), 2);
            assert!(point.curve.iter().all(|run| run.handshakes_per_s > 0.0));
        }
        assert_eq!(full.resumed_share, 0.0, "the baseline never resumes");
        assert!(storm.resumed_share > 0.5, "most storm sessions resume");
    }

    #[test]
    fn every_curve_load_cadence_is_coprime_to_every_shard_count() {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 { a } else { gcd(b, a % b) }
        }
        for load in [scale_load, full_load, storm_load] {
            let config = load(1, 0);
            // A cadence of 0 is off: nothing to pin to a shard.
            for cadence in [config.middlebox_every, config.stale_every].into_iter().filter(|&c| c > 0) {
                for &shards in SHARD_CURVE {
                    assert_eq!(
                        gcd(cadence, shards as usize),
                        1,
                        "cadence {cadence} pins its sessions to a subset of {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn determinism_probe_verdict_holds_multi_shard() {
        let (fingerprint, identical) = determinism_probe(&scale_load(6, 29), 2);
        assert!(identical, "seeded sharded replay must be bit-identical");
        assert_ne!(fingerprint, 0);
    }

    #[test]
    fn storm_determinism_probe_is_identical() {
        let (fingerprint, identical) = determinism_probe(&storm_load(8, 0x77), 2);
        assert!(identical, "seeded storm replay must be bit-identical");
        assert_ne!(fingerprint, 0);
    }

    #[test]
    fn steady_state_shard_keeps_exchanging_on_any_worker() {
        for k in [0u16, 3] {
            let mut steady = SteadyStateShard::warmed_up(k, 4);
            steady.pump_exchanges(3);
        }
    }
}
