//! The `BENCH_dataplane.json` regression reporter.
//!
//! Measures the data-plane fast path end to end — bulk AEAD
//! throughput for the selected AES-GCM backend, the bitsliced one and
//! the reference oracle, record-layer throughput per hop, and a
//! steady-state loop the `bench_report` binary wraps with a counting
//! allocator to prove the per-record path is allocation-free. The
//! binary serialises a [`DataplaneReport`] to `BENCH_dataplane.json`;
//! `scripts/check.sh` runs it in `--smoke` mode as a regression gate.
//! See DESIGN.md §"Data-plane fast path" for how to read the numbers.

use std::time::Instant;

use mbtls_core::dataplane::{
    fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane,
};
use mbtls_crypto::gcm::{AesGcm, AesGcmRef};
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::suites::CipherSuite;

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
    /// Megabytes (1e6 bytes) of plaintext processed per second.
    pub mb_per_s: f64,
}

/// Everything that goes into `BENCH_dataplane.json`.
#[derive(Debug, Clone)]
pub struct DataplaneReport {
    /// True when produced by a `--smoke` run (numbers are noisy and
    /// only prove the harness works).
    pub smoke: bool,
    /// `gcm::backend_name()`: the AES-GCM backend every number except
    /// the `bitsliced` and `reference` rows was measured on.
    pub aead_backend: &'static str,
    /// Bulk message size the primitive numbers were measured at.
    pub bulk_len: usize,
    /// Record payload size for the per-hop numbers.
    pub record_len: usize,
    /// Primitive and record-path throughputs.
    pub throughputs: Vec<Throughput>,
    /// Heap allocations per record on the endpoint seal path at
    /// steady state (counted by the binary's global allocator).
    pub allocs_per_record_endpoint: f64,
    /// Heap allocations per record on the middlebox open+reseal path.
    pub allocs_per_record_middlebox: f64,
}

impl DataplaneReport {
    /// Render as pretty-printed JSON. Hand-rolled (the workspace has
    /// no serde) but round-trips through any JSON parser.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str(&format!("  \"aead_backend\": \"{}\",\n", self.aead_backend));
        out.push_str(&format!("  \"bulk_len\": {},\n", self.bulk_len));
        out.push_str(&format!("  \"record_len\": {},\n", self.record_len));
        out.push_str("  \"throughput_mb_s\": {\n");
        for (i, t) in self.throughputs.iter().enumerate() {
            let comma = if i + 1 == self.throughputs.len() { "" } else { "," };
            out.push_str(&format!("    \"{}\": {:.2}{}\n", t.name, t.mb_per_s, comma));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"allocs_per_record_endpoint\": {:.3},\n",
            self.allocs_per_record_endpoint
        ));
        out.push_str(&format!(
            "  \"allocs_per_record_middlebox\": {:.3}\n",
            self.allocs_per_record_middlebox
        ));
        out.push('}');
        out
    }
}

fn mb_per_s(bytes: usize, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Bulk AEAD throughput at `BULK_LEN`-byte messages: seal and open on
/// the backend `AesGcm::new` selects on this machine (named by the
/// report's `aead_backend`), seal on the bitsliced backend, and seal
/// on the reference oracle. `total_bytes` is the measurement budget
/// per metric.
pub fn bench_primitives(total_bytes: usize) -> Vec<Throughput> {
    let mut rng = CryptoRng::from_seed(0xBE9C);
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    let selected = AesGcm::new(&key).expect("key");
    let bitsliced = AesGcm::portable(&key).expect("key");
    let slow = AesGcmRef::new(&key).expect("key");
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

    // Reference oracle seal, for the speedup ratio in the report.
    let mut pt = vec![0u8; BULK_LEN];
    rng.fill(&mut pt);
    for _ in 0..warmup {
        let _sealed = slow.seal(&nonce, &aad, &pt).expect("seal");
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let _sealed = slow.seal(&nonce, &aad, &pt).expect("seal");
    }
    out.push(Throughput {
        name: "aes_gcm_reference_seal",
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
/// have reached steady-state capacity. The `bench_report` binary
/// snapshots its allocation counter around [`Self::pump`] to count
/// endpoint allocations per record.
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
/// have reached their steady-state capacities. The `bench_report`
/// binary snapshots its allocation counter around [`Self::pump`] to
/// count allocations per record.
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
    fn smoke_report_is_valid_json_shape() {
        let mut throughputs = bench_primitives(BULK_LEN);
        throughputs.extend(bench_record_path(RECORD_LEN));
        let report = DataplaneReport {
            smoke: true,
            aead_backend: mbtls_crypto::gcm::backend_name(),
            bulk_len: BULK_LEN,
            record_len: RECORD_LEN,
            throughputs,
            allocs_per_record_endpoint: 0.0,
            allocs_per_record_middlebox: 0.0,
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"aead_backend\": \""));
        for key in ["aes_gcm_seal", "aes_gcm_open", "aes_gcm_bitsliced_seal", "aes_gcm_reference_seal"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(json.contains("\"middlebox_forward_record\""));
        // Balanced braces and no trailing commas before closers.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  }") && !json.contains(",\n}"));
    }

    #[test]
    fn steady_state_pipeline_round_trips() {
        let mut p = SteadyStatePipeline::warmed_up();
        p.pump(3);
    }
}
