//! Figure 7 — middlebox throughput with/without encryption and
//! with/without SGX, across buffer sizes.
//!
//! Two complementary measurements:
//!
//! * [`model_sweep`] — the calibrated SGX cost model
//!   ([`mbtls_sgx::SgxCostModel`]) evaluated over the paper's buffer
//!   sizes; this reproduces the figure's absolute shape (plateaus,
//!   crossovers, enclave-vs-native deltas).
//! * [`measured_crypto_throughput`] — real AES-GCM open+seal
//!   throughput of this workspace's data plane at each buffer size,
//!   showing the record-crypto cost component with actual cycles.

use std::time::Instant;

use mbtls_core::dataplane::{fresh_hop_keys, FlowDirection, MiddleboxDataPlane};
use mbtls_crypto::rng::CryptoRng;
use mbtls_sgx::cost::{DataPathConfig, SgxCostModel, SyscallMode};
use mbtls_tls::record::{ContentType, DirectionState};
use mbtls_tls::suites::CipherSuite;

/// The paper's buffer-size sweep.
pub const BUFFER_SIZES: [usize; 6] = [512, 1024, 2048, 4096, 8192, 12 * 1024];

/// One row of the model sweep.
#[derive(Debug, Clone, Copy)]
pub struct ModelRow {
    /// Chunk size in bytes.
    pub buffer: usize,
    /// Forwarding, no enclave (Gbps).
    pub fwd_native: f64,
    /// Forwarding, enclave.
    pub fwd_enclave: f64,
    /// Decrypt+re-encrypt, no enclave.
    pub enc_native: f64,
    /// Decrypt+re-encrypt, enclave.
    pub enc_enclave: f64,
}

/// Evaluate the cost model over the sweep.
pub fn model_sweep() -> Vec<ModelRow> {
    let model = SgxCostModel::default();
    BUFFER_SIZES
        .iter()
        .map(|&buffer| ModelRow {
            buffer,
            fwd_native: model.throughput_gbps(
                buffer,
                DataPathConfig { reencrypt: false, enclave: false },
            ),
            fwd_enclave: model.throughput_gbps(
                buffer,
                DataPathConfig { reencrypt: false, enclave: true },
            ),
            enc_native: model.throughput_gbps(
                buffer,
                DataPathConfig { reencrypt: true, enclave: false },
            ),
            enc_enclave: model.throughput_gbps(
                buffer,
                DataPathConfig { reencrypt: true, enclave: true },
            ),
        })
        .collect()
}

/// The SCONE-style syscall micro-comparison the paper discusses
/// (§5.3): latency of a small-payload syscall under each strategy.
pub fn syscall_comparison(payload: usize) -> (f64, f64, f64) {
    let model = SgxCostModel::default();
    (
        model.syscall_latency_ns(payload, SyscallMode::Native),
        model.syscall_latency_ns(payload, SyscallMode::SyncEnclave),
        model.syscall_latency_ns(payload, SyscallMode::AsyncEnclave),
    )
}

/// Measure the real record decrypt+re-encrypt throughput of this
/// workspace's middlebox data plane for one chunk size, in Gbit/s.
/// `total_bytes` controls the measurement length.
pub fn measured_crypto_throughput(chunk: usize, total_bytes: usize) -> f64 {
    let mut rng = CryptoRng::from_seed(0xF17);
    let left = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let right = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut sender = left.seal_client_to_server().expect("keys");
    let mut mbox = MiddleboxDataPlane::new(&left, &right).expect("dataplane");

    let payload = vec![0xA5u8; chunk];
    let n_chunks = (total_bytes / chunk).max(1);
    // Pre-encrypt the sender records so only middlebox work is timed.
    let mut records = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let mut record = Vec::new();
        sender
            .seal_record_into(ContentType::ApplicationData, &payload, &mut record)
            .expect("seal");
        records.push(record);
    }

    let t0 = Instant::now();
    for rec in &records {
        mbox.feed(FlowDirection::ClientToServer, rec, |_, _p| {})
            .expect("process");
        let _ = mbox.take_toward_server();
    }
    let elapsed = t0.elapsed();
    (n_chunks * chunk) as f64 * 8.0 / elapsed.as_nanos() as f64
}

/// Measure raw one-directional AES-GCM record sealing throughput
/// (Gbit/s) — the encryption cost floor.
pub fn measured_seal_throughput(chunk: usize, total_bytes: usize) -> f64 {
    let mut rng = CryptoRng::from_seed(0xF18);
    let keys = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut tx: DirectionState = keys.seal_client_to_server().expect("keys");
    let payload = vec![0x5Au8; chunk];
    let n_chunks = (total_bytes / chunk).max(1);
    let mut record = Vec::new();
    let t0 = Instant::now();
    for _ in 0..n_chunks {
        record.clear();
        tx.seal_record_into(ContentType::ApplicationData, &payload, &mut record)
            .expect("seal");
    }
    let elapsed = t0.elapsed();
    (n_chunks * chunk) as f64 * 8.0 / elapsed.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sweep_has_paper_shape() {
        let rows = model_sweep();
        assert_eq!(rows.len(), BUFFER_SIZES.len());
        let last = rows.last().unwrap();
        // Forward > encrypt at the plateau.
        assert!(last.fwd_native > last.enc_native);
        // Enclave within 6% of native everywhere.
        for row in &rows {
            assert!((row.fwd_native - row.fwd_enclave) / row.fwd_native < 0.06);
            assert!((row.enc_native - row.enc_enclave) / row.enc_native < 0.06);
        }
        // Monotone growth with buffer size.
        for pair in rows.windows(2) {
            assert!(pair[1].enc_enclave > pair[0].enc_enclave);
        }
    }

    #[test]
    fn measured_crypto_runs() {
        // Tiny volume to keep tests fast; the `paper` suite uses more.
        let gbps = measured_crypto_throughput(4096, 1 << 20);
        assert!(gbps > 0.0);
        let seal = measured_seal_throughput(4096, 1 << 20);
        assert!(seal > 0.0);
    }

    #[test]
    fn syscall_comparison_ordering() {
        let (native, sync, asynch) = syscall_comparison(64);
        assert!(sync > asynch, "async must beat sync from the enclave");
        assert!(asynch >= native, "async still costs at least native");
    }
}
