//! The SGX transition / I/O cost model behind the Figure 7
//! reproduction ("Network I/O in SGX").
//!
//! The paper's finding is *structural*: for I/O-heavy middlebox
//! workloads, per-chunk syscall and interrupt-handling overhead
//! dominates, so adding enclave boundary crossings does not measurably
//! reduce throughput, while record decrypt/re-encrypt caps throughput
//! around 7 Gbps on their testbed. This module encodes those cost
//! components in virtual nanoseconds so the simulated experiment
//! reproduces the *shape*: throughput grows with buffer size, the
//! encryption configurations plateau well below the forwarding
//! configurations, and the enclave/no-enclave pairs stay within a few
//! percent of each other at every buffer size.
//!
//! Default constants are calibrated to the figures reported for the
//! paper's testbed class (Intel i7-6700 @ 4 GHz, 40 GbE):
//!
//! * fixed per-chunk cost (recv+send syscalls, TCP processing)
//! * per-byte I/O cost (copies, NIC DMA, record assembly)
//! * per-byte AEAD cost per pass (AES-NI-class GCM)
//! * an *effective* ECALL/OCALL pair cost — small, because on an
//!   interrupt-saturated receive path most enclave exits coincide
//!   with asynchronous exits (AEX) the core pays anyway; this is the
//!   paper's explanation for why the enclave lines sit on top of the
//!   native ones
//! * a per-packet AEX surcharge when running inside the enclave.

/// Which middlebox data-path is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPathConfig {
    /// True if the middlebox decrypts and re-encrypts each chunk
    /// (the mbTLS middlebox case); false if it blindly forwards.
    pub reencrypt: bool,
    /// True if the processing happens inside an SGX enclave.
    pub enclave: bool,
}

/// How an enclave thread issues syscalls (the SCONE distinction the
/// paper discusses in §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallMode {
    /// Ordinary process, no enclave.
    Native,
    /// Exit the enclave, run the syscall, re-enter (synchronous).
    SyncEnclave,
    /// Hand the request to an untrusted thread through a shared queue
    /// (asynchronous); the enclave thread keeps running.
    AsyncEnclave,
}

/// Calibrated cost constants (all virtual nanoseconds).
#[derive(Debug, Clone)]
pub struct SgxCostModel {
    /// Fixed cost per received-then-forwarded chunk: two syscalls,
    /// TCP/IP processing, scheduling.
    pub fixed_per_chunk_ns: f64,
    /// Per-byte cost of moving data through the host (copies, DMA).
    pub io_per_byte_ns: f64,
    /// Per-byte AEAD cost for one pass (decrypt *or* encrypt).
    pub crypto_per_byte_ns: f64,
    /// Effective cost of an ECALL/OCALL pair on the saturated receive
    /// path (mostly hidden under interrupt exits).
    pub transition_pair_ns: f64,
    /// Extra cost per network packet when inside the enclave
    /// (asynchronous exit + resume).
    pub aex_per_packet_ns: f64,
    /// Full, unamortized cost of one enclave transition pair (used by
    /// the syscall microbenchmark model where there is no interrupt
    /// pressure to hide it).
    pub full_transition_pair_ns: f64,
    /// Base kernel syscall cost (used by the syscall micro-model).
    pub syscall_base_ns: f64,
    /// Async-queue handoff cost (used by the syscall micro-model).
    pub async_queue_ns: f64,
    /// Path MTU: packets per chunk = ceil(chunk / mtu).
    pub mtu: usize,
    /// Quote generation inside the enclave: EREPORT plus the quoting
    /// enclave's EPID group signature (the dominant term of a remote
    /// attestation round on real hardware — millisecond scale, where
    /// everything else in the handshake is microseconds).
    pub quote_generate_ns: f64,
    /// Relying-party verification of the quote's group signature and
    /// endorsement chain.
    pub quote_verify_ns: f64,
}

impl Default for SgxCostModel {
    fn default() -> Self {
        SgxCostModel {
            fixed_per_chunk_ns: 2_300.0,
            io_per_byte_ns: 0.65,
            crypto_per_byte_ns: 0.15,
            transition_pair_ns: 100.0,
            aex_per_packet_ns: 20.0,
            full_transition_pair_ns: 1_750.0,
            syscall_base_ns: 300.0,
            async_queue_ns: 110.0,
            mtu: 1_500,
            quote_generate_ns: 1_300_000.0,
            quote_verify_ns: 450_000.0,
        }
    }
}

impl SgxCostModel {
    /// Virtual time to receive, (optionally) re-encrypt, and forward
    /// one chunk of `chunk_bytes`.
    pub fn chunk_time_ns(&self, chunk_bytes: usize, config: DataPathConfig) -> f64 {
        let bytes = chunk_bytes as f64;
        let packets = chunk_bytes.div_ceil(self.mtu) as f64;
        let mut t = self.fixed_per_chunk_ns + bytes * self.io_per_byte_ns;
        if config.reencrypt {
            // One decrypt pass + one encrypt pass.
            t += 2.0 * bytes * self.crypto_per_byte_ns;
        }
        if config.enclave {
            t += self.transition_pair_ns + packets * self.aex_per_packet_ns;
        }
        t
    }

    /// Saturated middlebox throughput in Gbit/s for a given chunk size
    /// and configuration (the Figure 7 y-axis).
    pub fn throughput_gbps(&self, chunk_bytes: usize, config: DataPathConfig) -> f64 {
        let bits = (chunk_bytes as f64) * 8.0;
        bits / self.chunk_time_ns(chunk_bytes, config)
    }

    /// Virtual cost of one complete remote-attestation round for one
    /// middlebox join: quote generation in the enclave plus the
    /// endpoint's verification. The paper suite's authorization
    /// ablation reports it beside the measured handshakes, in a cell
    /// of its own and added to none of them: the simulated quote is
    /// two Ed25519 operations, and real EPID attestation is not.
    pub fn attestation_round_ns(&self) -> f64 {
        self.quote_generate_ns + self.quote_verify_ns
    }

    /// Latency of one `pwrite`-style syscall carrying `payload_bytes`,
    /// under each syscall strategy — the SCONE-style microbenchmark
    /// the paper contrasts with its throughput result.
    pub fn syscall_latency_ns(&self, payload_bytes: usize, mode: SyscallMode) -> f64 {
        let copy = payload_bytes as f64 * self.io_per_byte_ns;
        match mode {
            SyscallMode::Native => self.syscall_base_ns + copy,
            SyscallMode::SyncEnclave => {
                // Copy args out, full exit/enter pair, then the call.
                self.syscall_base_ns + copy * 2.0 + self.full_transition_pair_ns
            }
            SyscallMode::AsyncEnclave => {
                // Queue handoff; the syscall itself overlaps with
                // enclave-thread progress, so the observed latency is
                // the handoff plus the call.
                self.syscall_base_ns + copy + self.async_queue_ns
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FWD: DataPathConfig = DataPathConfig { reencrypt: false, enclave: false };
    const FWD_E: DataPathConfig = DataPathConfig { reencrypt: false, enclave: true };
    const ENC: DataPathConfig = DataPathConfig { reencrypt: true, enclave: false };
    const ENC_E: DataPathConfig = DataPathConfig { reencrypt: true, enclave: true };

    #[test]
    fn throughput_grows_with_buffer_size() {
        let m = SgxCostModel::default();
        for cfg in [FWD, FWD_E, ENC, ENC_E] {
            let small = m.throughput_gbps(512, cfg);
            let large = m.throughput_gbps(12 * 1024, cfg);
            assert!(large > 2.0 * small, "{cfg:?}: {small} !<< {large}");
        }
    }

    #[test]
    fn encryption_plateaus_below_forwarding() {
        let m = SgxCostModel::default();
        let fwd = m.throughput_gbps(12 * 1024, FWD);
        let enc = m.throughput_gbps(12 * 1024, ENC);
        assert!(enc < fwd, "{enc} !< {fwd}");
        // Paper shape: ~7 vs ~9.5 Gbps.
        assert!((6.0..8.0).contains(&enc), "encrypt plateau {enc}");
        assert!((8.5..11.0).contains(&fwd), "forward plateau {fwd}");
    }

    #[test]
    fn enclave_overhead_is_within_noise() {
        // The paper: "the enclave did not have a noticeable impact on
        // throughput" (differences within 1-5% confidence intervals).
        let m = SgxCostModel::default();
        for size in [512, 1024, 2048, 4096, 8192, 12 * 1024] {
            for (native, enclaved) in [(FWD, FWD_E), (ENC, ENC_E)] {
                let t0 = m.throughput_gbps(size, native);
                let t1 = m.throughput_gbps(size, enclaved);
                let penalty = (t0 - t1) / t0;
                assert!(
                    (0.0..0.06).contains(&penalty),
                    "size {size}: enclave penalty {penalty:.3} out of range"
                );
            }
        }
    }

    #[test]
    fn async_syscalls_win_big_for_small_buffers() {
        // SCONE's observation the paper cites: "for small buffer
        // sizes, asynchronous calls can be up to an order of magnitude
        // faster".
        let m = SgxCostModel::default();
        let sync = m.syscall_latency_ns(32, SyscallMode::SyncEnclave);
        let asynch = m.syscall_latency_ns(32, SyscallMode::AsyncEnclave);
        let speedup = sync / asynch;
        assert!((4.0..12.0).contains(&speedup), "speedup {speedup}");
        // For large buffers the gap narrows (copy cost dominates).
        let sync_big = m.syscall_latency_ns(64 * 1024, SyscallMode::SyncEnclave);
        let asynch_big = m.syscall_latency_ns(64 * 1024, SyscallMode::AsyncEnclave);
        assert!(sync_big / asynch_big < 2.5);
    }

    #[test]
    fn attestation_round_is_millisecond_scale() {
        // The whole point of the delegated-auth comparison: a remote
        // attestation round costs milliseconds while the rest of the
        // handshake costs microseconds.
        let m = SgxCostModel::default();
        assert_eq!(
            m.attestation_round_ns(),
            m.quote_generate_ns + m.quote_verify_ns
        );
        assert!(m.attestation_round_ns() >= 1_000_000.0);
    }

    #[test]
    fn chunk_time_monotone_in_bytes() {
        let m = SgxCostModel::default();
        let mut prev = 0.0;
        for bytes in (512..=12_288).step_by(512) {
            let t = m.chunk_time_ns(bytes, ENC_E);
            assert!(t > prev);
            prev = t;
        }
    }
}
