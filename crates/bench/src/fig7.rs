//! Figure 7 — middlebox throughput with/without encryption and
//! with/without SGX, across buffer sizes.
//!
//! Two complementary measurements:
//!
//! * [`model_sweep`] — the calibrated SGX cost model
//!   ([`mbtls_sgx::SgxCostModel`]) evaluated over the paper's buffer
//!   sizes; this reproduces the figure's absolute shape (plateaus,
//!   crossovers, enclave-vs-native deltas).
//! * [`measured_sweep`] — this workspace's data plane at each buffer
//!   size, open + re-seal and seal alone, showing the record-crypto
//!   cost component with actual cycles. It calls the record path's
//!   one pair of meters, [`crate::chain::relay_mb_s`] and
//!   [`crate::chain::seal_mb_s`].

use mbtls_sgx::cost::{DataPathConfig, SgxCostModel, SyscallMode};

use crate::chain::{relay_mb_s, seal_mb_s, KeyShape};

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

/// One row of the measured sweep, in Gbit/s (MB/s × 0.008).
#[derive(Debug, Clone, Copy)]
pub struct MeasuredRow {
    /// Record payload in bytes.
    pub buffer: usize,
    /// A middlebox opening and re-sealing on per-hop keys.
    pub open_reseal: f64,
    /// An endpoint sealing.
    pub seal: f64,
}

/// Measure this machine's record path over the sweep, `budget` bytes
/// per cell.
pub fn measured_sweep(budget: usize) -> Vec<MeasuredRow> {
    BUFFER_SIZES
        .iter()
        .map(|&buffer| MeasuredRow {
            buffer,
            open_reseal: relay_mb_s(KeyShape::PerHop, buffer, budget) * 0.008,
            seal: seal_mb_s(buffer, budget) * 0.008,
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
        let rows = measured_sweep(1 << 16);
        assert_eq!(rows.len(), BUFFER_SIZES.len());
        for row in rows {
            assert!(row.open_reseal > 0.0 && row.seal > 0.0, "{row:?}");
        }
    }

    #[test]
    fn syscall_comparison_ordering() {
        let (native, sync, asynch) = syscall_comparison(64);
        assert!(sync > asynch, "async must beat sync from the enclave");
        assert!(asynch >= native, "async still costs at least native");
    }
}
