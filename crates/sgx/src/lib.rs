//! # mbtls-sgx
//!
//! A behavioural simulation of the two Intel SGX features mbTLS relies
//! on (paper §3.3): **secure execution environments** and **remote
//! attestation** — plus sealing and a calibrated **transition cost
//! model** used to reproduce the paper's Figure 7 ("Network I/O in
//! SGX").
//!
//! ## What the simulation guarantees (and how)
//!
//! * **Isolation** — enclave state lives behind [`enclave::Enclave`],
//!   whose public surface is exactly the ECALL interface the enclave
//!   author exposes. The *host's* view of enclave memory is the
//!   encrypted page image kept in [`memory::MachineMemory`]; tests
//!   (and the Table 1
//!   security-matrix experiments) assert that session keys never
//!   appear in any host-visible byte. A malicious infrastructure
//!   provider is modelled by [`memory::HostInspector`], which can scan
//!   and tamper with every *unprotected* byte on the machine.
//! * **Measurement** — an enclave is measured at creation
//!   ([`measurement::Measurement`], the MRENCLAVE analogue): the
//!   SHA-256 of its code identity. A tampered binary yields a
//!   different measurement, which is how endpoints detect an MIP that
//!   ran modified middlebox code (property P3B).
//! * **Remote attestation** — [`attest::Quote`]s are signed by a
//!   per-platform attestation key which is in turn certified by the
//!   (simulated) Intel attestation root
//!   ([`attest::AttestationService`]). A quote binds 64 bytes of
//!   caller-chosen report data; mbTLS puts the running handshake's
//!   transcript hash there so quotes cannot be replayed across
//!   handshakes (paper §3.4, "Secure Environment Attestation").
//! * **Sealing** — [`enclave::Enclave::seal`] encrypts data under a
//!   key derived from the platform sealing secret and the enclave
//!   measurement, so only the same code on the same platform can
//!   unseal (used for mbTLS session-resumption tickets).
//! * **Costs** — [`cost::SgxCostModel`] charges ECALL/OCALL
//!   transitions, asynchronous exits (interrupts), per-byte memory
//!   encryption, and syscall overheads in virtual nanoseconds, with
//!   defaults calibrated to the SCONE / SGX literature the paper
//!   cites. Figure 7's result — enclave transitions do *not* reduce
//!   I/O-heavy middlebox throughput because interrupt handling and
//!   record crypto dominate — falls out of this model.

#![warn(missing_docs)]
// Sans-IO (DESIGN.md §6d): no wall clock, thread or socket; the
// methods and types are listed in the workspace's clippy.toml.
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
// Panic-freedom (DESIGN.md §6d): a peer's quote or a failed seal
// surfaces as an error, never as an abort of the sessions on the
// thread.
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod attest;
pub mod cost;
pub mod enclave;
pub mod measurement;
pub mod memory;

pub use attest::{AttestationError, AttestationService, PlatformAttestationKey, Quote};
pub use cost::SgxCostModel;
pub use enclave::{Enclave, EnclaveState, Platform, SealError};
pub use measurement::{CodeIdentity, Measurement};
pub use memory::HostInspector;
