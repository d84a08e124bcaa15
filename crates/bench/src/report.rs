//! The `dataplane` suite (`BENCH_dataplane.json`).
//!
//! Measures the data-plane fast path end to end — bulk AEAD
//! throughput for the selected AES-GCM backend and the bitsliced one,
//! record-layer throughput per hop, and two steady-state loops run
//! under the `report` binary's allocation counter to prove the
//! per-record path is allocation-free. `scripts/check.sh` runs it in
//! `--smoke` mode as a regression gate. See DESIGN.md §"Data-plane
//! fast path" for how to read the numbers.

use std::time::Instant;

use mbtls_core::dataplane::{
    fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane,
};
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::rng::CryptoRng;
use mbtls_telemetry::json::Value;
use mbtls_tls::suites::CipherSuite;

use crate::{allocs_per_op, AllocCounter};

/// Message size for the bulk-primitive benchmarks. 16 KiB is the TLS
/// maximum record payload and the size the ISSUE's speedup target is
/// defined at.
pub const BULK_LEN: usize = 16 * 1024;

/// Record payload used on the record path (just under the TLS
/// fragment ceiling so one send is one record).
pub const RECORD_LEN: usize = 16 * 1024 - 64;

/// One measured throughput number.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Stable snake_case metric name (JSON key).
    pub name: &'static str,
    /// Megabytes (1e6 bytes) of plaintext processed per second (for
    /// an end-to-end chain row: application bytes, both directions).
    pub mb_per_s: f64,
}

/// The `(name, MB/s)` rows as one JSON object.
pub(crate) fn throughput_object(rows: &[Throughput], decimals: usize) -> Value {
    Value::object(rows.iter().map(|t| (t.name, Value::Float(t.mb_per_s, decimals))))
}

/// Measure everything that goes into `BENCH_dataplane.json`.
pub fn run(smoke: bool, alloc_count: AllocCounter) -> Value {
    // Measurement budgets: smoke proves the harness; full runs give
    // stable numbers (~64 MiB per metric ≈ a few seconds total).
    let budget = if smoke { 4 * BULK_LEN } else { 64 * 1024 * 1024 };
    let alloc_records = if smoke { 4 } else { 64 };

    let mut throughputs = bench_primitives(budget);
    throughputs.extend(bench_record_path(budget));

    // Allocations per record over the endpoint-only loop (client seal
    // + server open) and the full loop through a middlebox; the
    // middlebox's share is the difference.
    let mut endpoint = SteadyStateEndpoint::warmed_up();
    let allocs_endpoint = allocs_per_op(alloc_count, alloc_records, |n| endpoint.pump(n as usize));
    let mut full = SteadyStatePipeline::warmed_up();
    let allocs_full = allocs_per_op(alloc_count, alloc_records, |n| full.pump(n as usize));

    Value::object([
        ("smoke", smoke.into()),
        // The backend every number except the `bitsliced` row was
        // measured on.
        ("aead_backend", mbtls_crypto::gcm::backend_name().into()),
        ("bulk_len", BULK_LEN.into()),
        ("record_len", RECORD_LEN.into()),
        ("throughput_mb_s", throughput_object(&throughputs, 2)),
        ("allocs_per_record_endpoint", Value::Float(allocs_endpoint, 3)),
        ("allocs_per_record_middlebox", Value::Float((allocs_full - allocs_endpoint).max(0.0), 3)),
    ])
}

/// Schema and floors of `BENCH_dataplane.json`: every throughput row
/// present and positive, and both steady-state allocation rates
/// exactly zero — a count, not a timing, so it holds at any budget.
pub fn check(report: &Value, _replaced: Option<&Value>) -> Result<String, String> {
    let backend = report.text("aead_backend")?;
    for key in [
        "aes_gcm_seal",
        "aes_gcm_bitsliced_seal",
        "aes_gcm_open",
        "endpoint_seal_record",
        "middlebox_forward_record",
    ] {
        floor!(report.num(&format!("throughput_mb_s.{key}"))? > 0.0, "throughput {key} is zero");
    }
    for key in ["allocs_per_record_endpoint", "allocs_per_record_middlebox"] {
        let allocs = report.num(key)?;
        floor!(allocs == 0.0, "steady state allocates: {key} is {allocs} allocs/record");
    }
    Ok(format!("dataplane OK: backend {backend}, 0 allocs/record on both paths"))
}

fn mb_per_s(bytes: usize, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Bulk AEAD throughput at `BULK_LEN`-byte messages: seal and open on
/// the backend `AesGcm::new` selects on this machine (named by the
/// report's `aead_backend`) and seal on the bitsliced backend.
/// `total_bytes` is the measurement budget per metric.
pub fn bench_primitives(total_bytes: usize) -> Vec<Throughput> {
    let mut rng = CryptoRng::from_seed(0xBE9C);
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    let selected = AesGcm::new(&key).expect("key");
    let bitsliced = AesGcm::portable(&key).expect("key");
    let nonce = [0x24u8; 12];
    let aad = [0u8; 13];
    let iters = (total_bytes / BULK_LEN).max(1);
    let warmup = (iters / 16).max(1);

    // Seal in place over a reused buffer, like the record layer
    // drives it. Each timed loop is preceded by an untimed warm-up so
    // the first metric doesn't absorb cold caches and frequency
    // ramp-up.
    let mut buf = vec![0u8; BULK_LEN];
    rng.fill(&mut buf);
    let mut seal_mb_per_s = |gcm: &AesGcm| {
        for _ in 0..warmup {
            let _tag = gcm.seal_in_place(&nonce, &aad, &mut buf).expect("seal");
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            let _tag = gcm.seal_in_place(&nonce, &aad, &mut buf).expect("seal");
        }
        mb_per_s(iters * BULK_LEN, t0.elapsed())
    };
    let mut out = vec![
        Throughput {
            name: "aes_gcm_seal",
            mb_per_s: seal_mb_per_s(&selected),
        },
        Throughput {
            name: "aes_gcm_bitsliced_seal",
            mb_per_s: seal_mb_per_s(&bitsliced),
        },
    ];

    // Open: seal once, then repeatedly verify+decrypt a scratch copy
    // (decrypting restores the plaintext, so re-copy the ciphertext
    // each round; the copy is a memcpy against two cipher passes).
    let mut ct = vec![0u8; BULK_LEN];
    rng.fill(&mut ct);
    let tag = selected.seal_in_place(&nonce, &aad, &mut ct).expect("seal");
    let mut scratch = vec![0u8; BULK_LEN];
    for _ in 0..warmup {
        scratch.copy_from_slice(&ct);
        selected.open_in_place(&nonce, &aad, &mut scratch, &tag).expect("open");
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        scratch.copy_from_slice(&ct);
        selected.open_in_place(&nonce, &aad, &mut scratch, &tag).expect("open");
    }
    out.push(Throughput {
        name: "aes_gcm_open",
        mb_per_s: mb_per_s(iters * BULK_LEN, t0.elapsed()),
    });

    out
}

/// Record-path throughput per hop: endpoint seal (client encrypting
/// records) and middlebox forward (open + reseal). `total_bytes` is
/// the plaintext budget per metric.
pub fn bench_record_path(total_bytes: usize) -> Vec<Throughput> {
    let mut rng = CryptoRng::from_seed(0xF0B7);
    let suite = CipherSuite::EcdheAes256GcmSha384;
    let left = fresh_hop_keys(suite, &mut rng);
    let right = fresh_hop_keys(suite, &mut rng);
    let payload = vec![0xA5u8; RECORD_LEN];
    let iters = (total_bytes / RECORD_LEN).max(1);
    let warmup = (iters / 16).max(1);

    let mut out = Vec::new();

    // Endpoint seal path: send() into the internal wire buffer, then
    // drain it into a reused Vec.
    let mut client = EndpointDataPlane::for_client(&left).expect("keys");
    let mut wire = Vec::new();
    for _ in 0..warmup {
        client.send(&payload).expect("send");
        wire.clear();
        client.drain_outgoing_into(&mut wire);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        client.send(&payload).expect("send");
        wire.clear();
        client.drain_outgoing_into(&mut wire);
    }
    out.push(Throughput {
        name: "endpoint_seal_record",
        mb_per_s: mb_per_s(iters * RECORD_LEN, t0.elapsed()),
    });

    // Middlebox forward path: one pre-sealed record opened and
    // resealed per iteration, draining into a reused Vec. Records
    // must be sealed fresh each iteration (sequence numbers), so a
    // sender runs in the loop; its cost is subtracted structurally by
    // reporting the endpoint number separately.
    let mut sender = EndpointDataPlane::for_client(&left).expect("keys");
    let mut mbox = MiddleboxDataPlane::new(&left, &right).expect("keys");
    let mut fwd = Vec::new();
    let mut total = std::time::Duration::ZERO;
    for _ in 0..iters {
        sender.send(&payload).expect("send");
        wire.clear();
        sender.drain_outgoing_into(&mut wire);
        let t0 = Instant::now();
        mbox.feed(FlowDirection::ClientToServer, &wire, |_, _p| {})
            .expect("forward");
        fwd.clear();
        mbox.drain_toward_server_into(&mut fwd);
        total += t0.elapsed();
    }
    out.push(Throughput {
        name: "middlebox_forward_record",
        mb_per_s: mb_per_s(iters * RECORD_LEN, total),
    });

    out
}

/// A warmed-up client → server pipeline (no middlebox) whose buffers
/// have reached steady-state capacity. [`run`] counts allocations
/// around [`Self::pump`] for the endpoint allocations per record.
pub struct SteadyStateEndpoint {
    client: EndpointDataPlane,
    server: EndpointDataPlane,
    payload: Vec<u8>,
    wire: Vec<u8>,
    plain: Vec<u8>,
}

impl SteadyStateEndpoint {
    /// Build and warm up until buffer capacities stop growing.
    pub fn warmed_up() -> Self {
        let mut rng = CryptoRng::from_seed(0xA111);
        let suite = CipherSuite::EcdheAes256GcmSha384;
        let hop = fresh_hop_keys(suite, &mut rng);
        let mut pipeline = SteadyStateEndpoint {
            client: EndpointDataPlane::for_client(&hop).expect("keys"),
            server: EndpointDataPlane::for_server(&hop).expect("keys"),
            payload: vec![0x5Au8; RECORD_LEN],
            wire: Vec::new(),
            plain: Vec::new(),
        };
        for _ in 0..8 {
            pipeline.pump(1);
        }
        pipeline
    }

    /// Seal and deliver `records` full-size records through reused
    /// buffers.
    pub fn pump(&mut self, records: usize) {
        for _ in 0..records {
            self.client.send(&self.payload).expect("send");
            self.wire.clear();
            self.client.drain_outgoing_into(&mut self.wire);
            self.server.feed(&self.wire).expect("deliver");
            self.plain.clear();
            self.server.drain_plaintext_into(&mut self.plain);
            assert_eq!(self.plain.len(), RECORD_LEN, "record did not round-trip");
        }
    }
}

/// A warmed-up client → middlebox → server pipeline whose buffers
/// have reached their steady-state capacities. [`run`] counts
/// allocations around [`Self::pump`].
pub struct SteadyStatePipeline {
    client: EndpointDataPlane,
    mbox: MiddleboxDataPlane,
    server: EndpointDataPlane,
    payload: Vec<u8>,
    wire: Vec<u8>,
    fwd: Vec<u8>,
    plain: Vec<u8>,
}

impl SteadyStatePipeline {
    /// Build the pipeline and run enough records through it for every
    /// internal buffer to reach its final capacity.
    pub fn warmed_up() -> Self {
        let mut rng = CryptoRng::from_seed(0xA110);
        let suite = CipherSuite::EcdheAes256GcmSha384;
        let left = fresh_hop_keys(suite, &mut rng);
        let right = fresh_hop_keys(suite, &mut rng);
        let mut pipeline = SteadyStatePipeline {
            client: EndpointDataPlane::for_client(&left).expect("keys"),
            mbox: MiddleboxDataPlane::new(&left, &right).expect("keys"),
            server: EndpointDataPlane::for_server(&right).expect("keys"),
            payload: vec![0x5Au8; RECORD_LEN],
            wire: Vec::new(),
            fwd: Vec::new(),
            plain: Vec::new(),
        };
        for _ in 0..8 {
            pipeline.pump(1);
        }
        pipeline
    }

    /// Push `records` full-size records client → middlebox → server
    /// and drain the server's plaintext, all through reused buffers.
    pub fn pump(&mut self, records: usize) {
        for _ in 0..records {
            self.client.send(&self.payload).expect("send");
            self.wire.clear();
            self.client.drain_outgoing_into(&mut self.wire);
            self.mbox
                .feed(FlowDirection::ClientToServer, &self.wire, |_, _p| {})
                .expect("forward");
            self.fwd.clear();
            self.mbox.drain_toward_server_into(&mut self.fwd);
            self.server.feed(&self.fwd).expect("deliver");
            self.plain.clear();
            self.server.drain_plaintext_into(&mut self.plain);
            assert_eq!(self.plain.len(), RECORD_LEN, "record did not round-trip");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_and_doctored_floors_fail() {
        crate::testing::assert_floors(
            check,
            &run(true, || 0),
            &[
                ("allocs_per_record_endpoint", "0.016", "allocs_per_record_endpoint is 0.016"),
                ("allocs_per_record_middlebox", "1.000", "allocs_per_record_middlebox is 1"),
                ("throughput_mb_s.aes_gcm_open", "0.00", "aes_gcm_open is zero"),
                ("throughput_mb_s", "{\"aes_gcm_seal\": 1.00}", "aes_gcm_bitsliced_seal"),
                ("aead_backend", "3", "aead_backend"),
            ],
        );
    }

    #[test]
    fn steady_state_pipeline_round_trips() {
        let mut p = SteadyStatePipeline::warmed_up();
        p.pump(3);
    }
}
