//! The two measurement passes: end-to-end (tracing off) and per-layer
//! (probes plus the traced pass).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::estimator::{median, percentile, tail_percentile, Estimator};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::seam::{
    self, FleetStats, Kind, Mode, Probe, ProbeUnit, RoundCounts, RoundOutput, WorkloadSpec,
    KIND_STEP,
};
use crate::spans::{self, budget_per_op, Layer, OpBudget, Span};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measurement per workload and pass.
    pub seconds: f64,
    /// Two rounds of a tenth of the operations: does it run at all.
    pub smoke: bool,
    /// Where `trace-<workload>.json` goes.
    pub results_dir: String,
}

/// One workload's numbers from one pass.
#[derive(Debug, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Metric values, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra facts for the human-readable report.
    pub notes: Vec<(&'static str, String)>,
    /// Digest every round of the workload agreed on.
    pub digest: u64,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations that failed, plus failed checks.
    pub failed: u64,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
}

/// Fewest timed rounds a workload gets, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Fewest and most cycles of the traced pass (each cycle runs every
/// mode once); between them it stops at half of `--seconds`, leaving
/// the other half to the probes.
const TRACE_CYCLES: (usize, usize) = (4, 12);
/// Shortest and longest probe phase, whatever `--seconds` leaves once
/// the traced pass is done: each of the 33 probes wants about 0.1 s
/// to find its fastest batch, and gains nothing beyond 0.3 s.
const PROBE_SECONDS: (f64, f64) = (3.0, 10.0);
/// Most spans written to a trace file.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// Rounds of one workload folded together, whatever pass they serve.
struct Rounds<'a> {
    spec: &'a WorkloadSpec,
    est: Estimator,
    setup_ns: Vec<f64>,
    peak_heap: Vec<f64>,
    digest: Option<u64>,
    app_bytes: u64,
    units: u64,
    alloc: (u64, u64),
    /// Time spent running rounds.
    wall: Duration,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> Rounds<'a> {
    fn new(spec: &'a WorkloadSpec) -> Self {
        Rounds {
            spec,
            est: Estimator::new(),
            setup_ns: Vec::new(),
            peak_heap: Vec::new(),
            digest: None,
            app_bytes: 0,
            units: 0,
            alloc: (0, 0),
            wall: Duration::ZERO,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// Account for a round of any mode: failures, and the digest every
    /// round of a workload must share. Returns false if the round is
    /// unusable.
    fn admit(&mut self, out: &RoundOutput) -> bool {
        self.attempted += out.units;
        self.failed += out.failed;
        if let Some(e) = &out.error {
            self.errors.push(e.clone());
        }
        if out.failed > 0 {
            return false;
        }
        match self.digest {
            None => {
                self.digest = Some(out.digest);
                self.app_bytes = out.app_bytes;
                self.units = out.units;
            }
            Some(d) if d != out.digest || self.app_bytes != out.app_bytes => {
                self.fail(format!(
                    "round delivered different bytes: digest {:016x} ({} B) where earlier rounds had {d:016x} ({} B)",
                    out.digest, out.app_bytes, self.app_bytes
                ));
                return false;
            }
            Some(_) => {}
        }
        true
    }

    /// Fold a timed round into the estimator.
    fn absorb_timed(&mut self, out: &RoundOutput) {
        if !self.admit(out) {
            return;
        }
        if let Err(e) = self.est.add_round(&out.kinds, &out.times_ns) {
            self.fail(e);
            return;
        }
        self.setup_ns.push(out.setup_ns as f64);
        self.peak_heap.push(out.peak_heap_bytes as f64);
        self.alloc = out.alloc;
    }

    fn run(&mut self, opts: &Options, mode: Mode) -> RoundOutput {
        let t = Instant::now();
        let out = seam::run_round(self.spec, opts.seed, opts.smoke, mode);
        self.wall += t.elapsed();
        out
    }

    fn total_s(&self) -> f64 {
        self.est.total_ns() as f64 / 1e9
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The record-path check of a counted or traced round: on
/// `bulk_readonly` every middlebox record must take the read-only
/// fast path, on `bulk_reseal` none may.
fn check_fast_path(spec: &WorkloadSpec, counts: &RoundCounts) -> Result<(), String> {
    match spec.fast_path() {
        Some(true) if counts.mbox_records_opened != 0 || counts.records_forwarded_readonly == 0 => {
            Err(format!(
                "{} middlebox records left the read-only fast path ({} took it)",
                counts.mbox_records_opened, counts.records_forwarded_readonly
            ))
        }
        Some(false) if counts.records_forwarded_readonly != 0 => Err(format!(
            "{} records were forwarded read-only on a re-sealing path",
            counts.records_forwarded_readonly
        )),
        _ => Ok(()),
    }
}

/// Measure the end-to-end metrics of `specs` with tracing off. The
/// workloads' rounds are interleaved round-robin, so a noisy phase of
/// the machine costs every workload a round or two instead of one
/// workload all of its rounds.
pub fn end_to_end_pass(specs: &[&WorkloadSpec], opts: &Options) -> Vec<WorkloadReport> {
    let mut all: Vec<Rounds<'_>> = specs.iter().map(|s| Rounds::new(s)).collect();
    loop {
        let mut progressed = false;
        for rounds in &mut all {
            let done = rounds.est.rounds();
            let wants = if opts.smoke {
                done < 2
            } else {
                done < MIN_ROUNDS || rounds.wall.as_secs_f64() < opts.seconds
            };
            // A workload that failed once is not measured further.
            if !wants || rounds.failed > 0 {
                continue;
            }
            progressed = true;
            let out = rounds.run(opts, Mode::Timed);
            rounds.absorb_timed(&out);
            // One more fixture build per round, for nothing but a
            // second sample of set-up time taken under the same
            // conditions as the round's own.
            let built = rounds.run(opts, Mode::SetupOnly);
            match built.error {
                Some(e) => rounds.fail(e),
                None => rounds.setup_ns.push(built.setup_ns as f64),
            }
        }
        if !progressed {
            break;
        }
    }

    all.into_iter()
        .map(|mut rounds| {
            let mut wire_bytes = 0u64;
            if rounds.failed == 0 {
                let out = seam::run_round(rounds.spec, opts.seed, opts.smoke, Mode::Counted);
                if rounds.admit(&out) {
                    wire_bytes = out.wire_bytes.unwrap_or(0);
                    if let Err(e) = check_fast_path(rounds.spec, &out.counts) {
                        rounds.fail(e);
                    }
                }
            }
            end_to_end_report(rounds, wire_bytes)
        })
        .collect()
}

fn end_to_end_report(rounds: Rounds<'_>, wire_bytes: u64) -> WorkloadReport {
    let spec = rounds.spec;
    // The fleet's latencies are the reactor's turns: how long one
    // `step` holds the event loop. Its sessions' own latencies are
    // virtual time, set by the configuration and not by performance.
    let latency_kind = (spec.kind == Kind::Fleet).then_some(KIND_STEP);
    let mut latencies = rounds.est.minima(latency_kind);
    latencies.sort_unstable();
    let tail_at = tail_percentile(latencies.len());
    let (p50, tail) = if latencies.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&latencies, 50.0) as f64 / 1e3,
            percentile(&latencies, tail_at) as f64 / 1e3,
        )
    };
    let total_s = rounds.total_s();
    let units = rounds.units as f64;
    let values = [
        ratio(units, total_s),
        ratio(rounds.app_bytes as f64 / 1e6, total_s),
        p50,
        tail,
        ratio(wire_bytes as f64, units),
        median(&rounds.peak_heap) / 1024.0,
        // The fastest build, like the fastest run of an operation:
        // interference only ever adds time. (The median of the same
        // samples moved by 25–35 % between runs.)
        rounds
            .setup_ns
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(0.0)
            / 1e9,
    ];
    WorkloadReport {
        name: spec.name,
        metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
        notes: vec![
            ("rounds", rounds.est.rounds().to_string()),
            ("noise_ratio", format!("{:.3}", rounds.est.noise_ratio())),
            ("ops_per_round", format!("{} {}s", rounds.units, spec.unit)),
            ("latency_samples", latencies.len().to_string()),
            ("latency_tail_percentile", format!("p{tail_at:.1}")),
            ("setup_samples", rounds.setup_ns.len().to_string()),
            ("digest", format!("{:016x}", rounds.digest.unwrap_or(0))),
        ],
        digest: rounds.digest.unwrap_or(0),
        attempted: rounds.attempted,
        failed: rounds.failed,
        errors: rounds.errors,
    }
}

/// Run every probe for an equal share of `seconds` and return the
/// metric values by name: the fastest batch, turned into the unit.
fn run_probes(probes: Vec<Probe>, seconds: f64, smoke: bool) -> HashMap<&'static str, f64> {
    let slice = Duration::from_secs_f64(seconds / probes.len().max(1) as f64);
    let mut values = HashMap::new();
    for mut probe in probes {
        let started = Instant::now();
        let mut best = u64::MAX;
        let mut batches = 0;
        while batches < 3 || (!smoke && started.elapsed() < slice) {
            best = best.min((probe.batch)().max(1));
            batches += 1;
        }
        let ns = best as f64;
        let value = match probe.unit {
            // bytes per ns × 1000 = 10⁶ bytes per second
            ProbeUnit::MbPerS => probe.work / ns * 1e3,
            ProbeUnit::Us => ns / probe.work / 1e3,
            ProbeUnit::Ns => ns / probe.work,
        };
        values.insert(probe.name, value);
    }
    values
}

/// What the traced pass of one workload collected, before the probe
/// values turn it into metrics.
struct Traced<'a> {
    timed: Rounds<'a>,
    /// Rounds with the telemetry recorder and nothing else (fleet).
    recorded: Estimator,
    /// Per operation, the budget of the round in which the traced
    /// operation ran fastest — so the layers of one operation always
    /// come from one execution and add up to it.
    best: Vec<OpBudget>,
    counts: RoundCounts,
    fleet: Option<FleetStats>,
}

/// Run the traced pass of `spec`: cycles of an untraced round, a
/// traced round and (for the fleet) a recorder-only round.
fn traced_pass<'a>(spec: &'a WorkloadSpec, opts: &Options) -> Traced<'a> {
    let fleet = spec.kind == Kind::Fleet;
    let mut traced = Traced {
        timed: Rounds::new(spec),
        recorded: Estimator::new(),
        best: Vec::new(),
        counts: RoundCounts::default(),
        fleet: None,
    };
    let mut last_spans: Vec<Span> = Vec::new();
    for cycle in 0..if opts.smoke { 1 } else { TRACE_CYCLES.1 } {
        let in_time = traced.timed.wall.as_secs_f64() < opts.seconds / 2.0;
        if traced.timed.failed > 0 || (cycle >= TRACE_CYCLES.0 && !in_time) {
            break;
        }
        let out = traced.timed.run(opts, Mode::Timed);
        traced.timed.absorb_timed(&out);

        let out = traced.timed.run(opts, Mode::Traced);
        if traced.timed.admit(&out) {
            // The fleet is traced as one operation: the whole drive.
            let ops = if fleet { 1 } else { out.times_ns.len() };
            let budgets = budget_per_op(&out.spans, ops);
            let root: u64 = budgets.iter().map(|b| b.root_ns).sum();
            let layers: u64 = budgets.iter().flat_map(|b| b.self_ns).sum();
            if root.abs_diff(layers) as f64 > 0.01 * root as f64 {
                traced.timed.fail(format!(
                    "layer self times sum to {layers} ns, operations to {root} ns"
                ));
            }
            if let Err(e) = check_fast_path(spec, &out.counts) {
                traced.timed.fail(e);
            }
            if traced.best.is_empty() {
                traced.best = budgets;
            } else {
                for (best, new) in traced.best.iter_mut().zip(budgets) {
                    if new.root_ns < best.root_ns {
                        *best = new;
                    }
                }
            }
            traced.counts = out.counts;
            traced.fleet = out.fleet;
            last_spans = out.spans;
        }

        if fleet {
            let out = traced.timed.run(opts, Mode::Recorded);
            if traced.timed.admit(&out) {
                if let Err(e) = traced.recorded.add_round(&out.kinds, &out.times_ns) {
                    traced.timed.fail(e);
                }
            }
        }
    }
    write_trace(spec.name, &last_spans, &opts.results_dir, &mut traced.timed);
    traced
}

/// Write the last traced round's spans (the first `MAX_SPANS_WRITTEN`
/// of them) to `<results_dir>/trace-<workload>.json`.
fn write_trace(workload: &str, all: &[Span], dir: &str, rounds: &mut Rounds<'_>) {
    let kept = &all[..all.len().min(MAX_SPANS_WRITTEN)];
    let path = format!("{dir}/trace-{workload}.json");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(workload, kept, all.len())));
    if let Err(e) = written {
        rounds.fail(format!("writing {path}: {e}"));
    }
}

impl Traced<'_> {
    /// Time this pass took so far.
    fn spent(&self) -> Duration {
        self.timed.wall
    }

    /// Turn the collected rounds into the per-layer metrics, using the
    /// probes' values for the modeled crypto share.
    fn report(self, probes: &HashMap<&'static str, f64>) -> WorkloadReport {
        let spec = self.timed.spec;
        let units = self.timed.units as f64;
        let layer_us = |layer: Layer| {
            let ns: u64 = self.best.iter().map(|b| b.self_ns[layer as usize]).sum();
            ratio(ns as f64 / 1e3, units)
        };
        let calls = |layer: Layer| -> f64 {
            self.best
                .iter()
                .map(|b| b.calls[layer as usize] as f64)
                .sum()
        };
        let per_op = |count: u64| ratio(count as f64, units);
        let timed_ns = self.timed.est.total_ns() as f64;
        let traced_ns: u64 = self.best.iter().map(|b| b.root_ns).sum();
        let overhead = |ns: f64| {
            if timed_ns > 0.0 && ns > 0.0 {
                ns / timed_ns - 1.0
            } else {
                0.0
            }
        };
        let c = &self.counts;
        let fleet = self.fleet.clone().unwrap_or_default();

        let mut values: HashMap<&'static str, f64> = probes.clone();
        values.extend([
            ("core.client_us_per_op", layer_us(Layer::Client)),
            ("core.server_us_per_op", layer_us(Layer::Server)),
            ("core.mbox_us_per_op", layer_us(Layer::Mbox)),
            ("mboxes.process_us_per_op", layer_us(Layer::Processor)),
            ("core.driver_us_per_op", layer_us(Layer::Driver)),
            ("http.codec_us_per_op", layer_us(Layer::HttpCodec)),
            ("harness.self_us_per_op", layer_us(Layer::Harness)),
            (
                "core.party_calls_per_op",
                ratio(
                    calls(Layer::Client) + calls(Layer::Server) + calls(Layer::Mbox),
                    units,
                ),
            ),
            ("core.records_sealed_per_op", per_op(c.records_sealed)),
            ("core.records_opened_per_op", per_op(c.records_opened)),
            (
                "core.records_forwarded_readonly_per_op",
                per_op(c.records_forwarded_readonly),
            ),
            (
                "core.fastpath_share",
                ratio(
                    c.records_forwarded_readonly as f64,
                    (c.records_forwarded_readonly + c.mbox_records_opened) as f64,
                ),
            ),
            (
                "crypto.modeled_share",
                ratio(modeled_crypto_ns(spec, c, units, probes), timed_ns),
            ),
            ("alloc.calls_per_op", per_op(self.timed.alloc.0)),
            ("alloc.bytes_per_op", per_op(self.timed.alloc.1)),
            ("trace.overhead_share", overhead(traced_ns as f64)),
            ("host.open_us_per_session", layer_us(Layer::HostOpen)),
            ("host.step_self_us_per_session", layer_us(Layer::HostStep)),
            (
                "host.substrate_pump_us_per_session",
                layer_us(Layer::SubstratePump),
            ),
            ("host.loadgen_us_per_session", layer_us(Layer::Loadgen)),
            ("host.steps_per_session", per_op(fleet.steps)),
            (
                "host.pool_hit_rate",
                ratio(fleet.pool.1 as f64, fleet.pool.0 as f64),
            ),
            (
                "host.verify_batch_mean_width",
                ratio(fleet.verify.1 as f64, fleet.verify.0 as f64),
            ),
            (
                "host.resumed_share",
                ratio(
                    fleet.handshakes.0 as f64,
                    (fleet.handshakes.0 + fleet.handshakes.1) as f64,
                ),
            ),
            ("host.retries", fleet.retries as f64),
            ("host.timed_out", fleet.timed_out as f64),
            (
                "telemetry.recording_overhead_share",
                overhead(self.recorded.total_ns() as f64),
            ),
        ]);

        let layer_sum: f64 = Layer::ALL.iter().map(|&l| layer_us(l)).sum();
        WorkloadReport {
            name: spec.name,
            metrics: PER_LAYER
                .iter()
                .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
                .collect(),
            notes: vec![
                ("traced_rounds", self.timed.est.rounds().to_string()),
                (
                    "untraced_us_per_op",
                    format!("{:.3}", ratio(timed_ns / 1e3, units)),
                ),
                (
                    "traced_us_per_op",
                    format!("{:.3}", ratio(traced_ns as f64 / 1e3, units)),
                ),
                ("layer_sum_us_per_op", format!("{layer_sum:.3}")),
                (
                    "telemetry_events_per_op",
                    format!("{:.1}", per_op(c.events)),
                ),
            ],
            digest: self.timed.digest.unwrap_or(0),
            attempted: self.timed.attempted,
            failed: self.timed.failed,
            errors: self.timed.errors,
        }
    }
}

/// The operation time AES-GCM and the handshake primitives alone
/// would take, per round: record counts and sizes times the probes'
/// costs. A record's cost is a fixed part (the 64-byte probe) plus a
/// per-byte slope fitted through the 16 KiB probe; handshake
/// primitives are counted by [`seam::HandshakeOps`]. A model, not a
/// measurement: it is reported on its own and never summed with the
/// measured layers.
fn modeled_crypto_ns(
    spec: &WorkloadSpec,
    counts: &RoundCounts,
    units: f64,
    probes: &HashMap<&'static str, f64>,
) -> f64 {
    let get = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let (big, small) = (seam::PROBE_BIG as f64, seam::PROBE_SMALL as f64);
    let small_ns = get("crypto.aes_gcm_seal_small_us") * 1e3;
    let record_ns = |records: u64, bytes: u64, mb_s: f64| {
        if mb_s <= 0.0 {
            return 0.0;
        }
        let slope = ((big * 1e3 / mb_s - small_ns) / (big - small)).max(0.0);
        records as f64 * small_ns + (bytes as f64 - records as f64 * small).max(0.0) * slope
    };
    let records = record_ns(
        counts.records_sealed,
        counts.sealed_bytes,
        get("crypto.aes_gcm_seal_mb_s"),
    ) + record_ns(
        counts.records_opened,
        counts.opened_bytes,
        get("crypto.aes_gcm_open_mb_s"),
    ) + record_ns(
        counts.records_forwarded_readonly,
        counts.forwarded_bytes,
        get("crypto.aes_gcm_verify_mb_s"),
    );
    let h = spec.handshake;
    let handshake_us = h.x25519 * get("crypto.x25519_us")
        + h.sign * get("crypto.ed25519_sign_us")
        + h.verify * get("crypto.ed25519_verify_us")
        + h.prf * get("crypto.prf_keyblock_us");
    records + handshake_us * 1e3 * units
}

/// Run the per-layer pass of every workload in `specs`: traced passes
/// first, then the probes once with the time that is left.
pub fn per_layer_pass(specs: &[&WorkloadSpec], opts: &Options) -> Vec<WorkloadReport> {
    let traced: Vec<Traced<'_>> = specs.iter().map(|s| traced_pass(s, opts)).collect();
    let used: f64 = traced.iter().map(|t| t.spent().as_secs_f64()).sum();
    let budget = (opts.seconds * specs.len() as f64 - used).clamp(PROBE_SECONDS.0, PROBE_SECONDS.1);
    let probes = run_probes(seam::probes(), budget, opts.smoke);
    traced.into_iter().map(|t| t.report(&probes)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_is_a_per_layer_metric_and_named_once() {
        let names: Vec<&str> = seam::probes().iter().map(|p| p.name).collect();
        for name in &names {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in PER_LAYER"
            );
            assert_eq!(
                names.iter().filter(|n| n == &name).count(),
                1,
                "{name} twice"
            );
        }
    }

    #[test]
    fn smoke_rounds_agree_and_fill_every_metric() {
        let opts = Options {
            seed: 11,
            seconds: 0.0,
            smoke: true,
            results_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/results/test").to_string(),
        };
        // The cheapest workload: resumed handshakes, no middlebox.
        let spec = seam::WORKLOADS
            .iter()
            .find(|w| w.name == "handshake_resumed")
            .unwrap();
        let report = &end_to_end_pass(&[spec], &opts)[0];
        assert_eq!((report.failed, &report.errors), (0, &Vec::new()));
        assert_eq!(report.metrics.len(), END_TO_END.len());
        assert!(
            report.metrics.iter().all(|(_, v)| *v > 0.0),
            "{:?}",
            report.metrics
        );
        let layers = &per_layer_pass(&[spec], &opts)[0];
        assert_eq!((layers.failed, &layers.errors), (0, &Vec::new()));
        assert_eq!(layers.digest, report.digest);
        let get = |name: &str| layers.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("crypto.aes_gcm_seal_mb_s") > 0.0);
        assert!(get("core.client_us_per_op") > 0.0 && get("core.server_us_per_op") > 0.0);
        assert_eq!(get("core.mbox_us_per_op"), 0.0, "no middlebox on this path");
    }
}
