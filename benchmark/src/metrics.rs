//! The metric tables: names, units, directions, regression bounds —
//! and the `BENCHMARK.json` rendered from them, so the manifest at the
//! repo root and the numbers the binary prints cannot drift apart.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as keyed in the JSON result.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; per-layer
    /// metrics carry none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The end-to-end metrics, printed by every `--trace 0` run.
///
/// The bounds are sized to the machine the benchmark was written on,
/// a 2-vCPU shared VM: over ten runs with ten seeds the timed metrics
/// spread (quartile distance over median) by 1–3 % when the machine
/// is quiet, but by up to 9 % (21 % for the tail) during phases of
/// several minutes when it is not, and a bound has to hold in both.
/// README.md has the measurements.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.2),
    e2e("goodput_mb_s", "MB/s", Better::Higher, 0.2),
    e2e("latency_p50_us", "us", Better::Lower, 0.2),
    e2e("latency_tail_us", "us", Better::Lower, 0.25),
    e2e("wire_bytes_per_op", "B", Better::Lower, 0.01),
    e2e("peak_heap_kb", "KiB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer metrics, printed by every `--trace 1` run: the
/// probes first, then the traced pass, then the fleet's host rows. A
/// metric that does not apply to a workload (host rows off the fleet,
/// party rows on it) reads 0 there.
pub const PER_LAYER: [MetricDef; 60] = [
    // Probes: one public function at a time, workload-independent.
    layer("crypto.aes_gcm_seal_mb_s", "MB/s", Higher),
    layer("crypto.aes_gcm_open_mb_s", "MB/s", Higher),
    layer("crypto.aes_gcm_verify_mb_s", "MB/s", Higher),
    layer("crypto.aes_gcm_seal_small_us", "us", Lower),
    layer("crypto.x25519_us", "us", Lower),
    layer("crypto.prf_keyblock_us", "us", Lower),
    layer("crypto.ed25519_sign_us", "us", Lower),
    layer("crypto.ed25519_verify_us", "us", Lower),
    layer("crypto.ed25519_batch16_us_per_sig", "us", Lower),
    layer("crypto.sha256_mb_s", "MB/s", Higher),
    layer("tls.record_seal_mb_s", "MB/s", Higher),
    layer("tls.record_open_mb_s", "MB/s", Higher),
    layer("tls.record_verify_mb_s", "MB/s", Higher),
    layer("tls.record_seal_small_us", "us", Lower),
    layer("tls.record_open_small_us", "us", Lower),
    layer("tls.record_reader_us_per_record", "us", Lower),
    layer("tls.handshake_plain_us", "us", Lower),
    layer("core.endpoint_send_mb_s", "MB/s", Higher),
    layer("core.endpoint_recv_mb_s", "MB/s", Higher),
    layer("core.mbox_reseal_mb_s", "MB/s", Higher),
    layer("core.mbox_reseal_small_us", "us", Lower),
    layer("core.mbox_readonly_mb_s", "MB/s", Higher),
    layer("core.mbox_readonly_small_us", "us", Lower),
    layer("pki.chain_verify_us", "us", Lower),
    layer("sgx.quote_us", "us", Lower),
    layer("sgx.quote_verify_us", "us", Lower),
    layer("http.request_parse_us", "us", Lower),
    layer("http.response_parse_mb_s", "MB/s", Higher),
    layer("http.response_encode_mb_s", "MB/s", Higher),
    layer("mboxes.compress_mb_s", "MB/s", Higher),
    layer("netsim.segment_us", "us", Lower),
    layer("telemetry.emit_null_ns", "ns", Lower),
    layer("telemetry.emit_recording_ns", "ns", Lower),
    // Traced pass: self time per operation, by layer.
    layer("core.client_us_per_op", "us", Lower),
    layer("core.server_us_per_op", "us", Lower),
    layer("core.mbox_us_per_op", "us", Lower),
    layer("mboxes.process_us_per_op", "us", Lower),
    layer("core.driver_us_per_op", "us", Lower),
    layer("http.codec_us_per_op", "us", Lower),
    layer("harness.self_us_per_op", "us", Lower),
    layer("core.party_calls_per_op", "count", Lower),
    layer("core.records_sealed_per_op", "count", Lower),
    layer("core.records_opened_per_op", "count", Lower),
    layer("core.records_forwarded_readonly_per_op", "count", Higher),
    layer("core.fastpath_share", "ratio", Higher),
    layer("crypto.modeled_share", "ratio", Higher),
    layer("alloc.calls_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "B", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    // Traced pass, fleet workload: per session.
    layer("host.open_us_per_session", "us", Lower),
    layer("host.step_self_us_per_session", "us", Lower),
    layer("host.substrate_pump_us_per_session", "us", Lower),
    layer("host.loadgen_us_per_session", "us", Lower),
    layer("host.steps_per_session", "count", Lower),
    layer("host.pool_hit_rate", "ratio", Higher),
    layer("host.verify_batch_mean_width", "count", Higher),
    layer("host.resumed_share", "ratio", Higher),
    layer("host.retries", "count", Lower),
    layer("host.timed_out", "count", Lower),
    layer("telemetry.recording_overhead_share", "ratio", Lower),
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above and the workload
/// list.
pub fn manifest_json(workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 == workloads.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
