//! # mbtls-core
//!
//! **Middlebox TLS (mbTLS)** — the protocol from *"And Then There Were
//! More: Secure Communication for More Than Two Parties"* (Naylor et
//! al., CoNEXT 2017) — implemented over this workspace's from-scratch
//! TLS 1.2 substrate.
//!
//! mbTLS lets endpoints add application-layer middleboxes to a TLS
//! session while providing (paper §3.2):
//!
//! * **P1 data secrecy** — third parties and untrusted middlebox
//!   *infrastructure* providers never see plaintext or keys; each hop
//!   is encrypted under its own key, so an observer cannot even tell
//!   whether a middlebox modified a record (P1C).
//! * **P2 data authentication** — per-hop AEAD; only endpoints and
//!   authorized middlebox *software* hold keys.
//! * **P3 entity authentication** — certificates for operator
//!   identity, SGX remote attestation for code identity.
//! * **P4 path integrity** — unique per-hop keys make skipping or
//!   reordering middleboxes detectable.
//! * **P5 legacy interop** — one endpoint can be stock TLS 1.2.
//! * **P6 in-band discovery** — on-path middleboxes join during the
//!   handshake without adding round trips (P7).
//!
//! ## Architecture
//!
//! Everything is sans-IO. The three party types are:
//!
//! * [`client::MbClientSession`] — an mbTLS client endpoint: primary
//!   TLS connection to the server plus one interleaved secondary
//!   connection per client-side middlebox, multiplexed over the same
//!   byte stream in `Encapsulated` records.
//! * [`server::MbServerSession`] — an mbTLS server endpoint that
//!   accepts `MiddleboxAnnouncement`s and runs secondary handshakes
//!   (playing the TLS *client* role) with its middleboxes.
//! * [`middlebox::Middlebox`] — an on-path middlebox that joins the
//!   client side when the ClientHello carries the MiddleboxSupport
//!   extension, or announces itself to the server otherwise; after key
//!   delivery it re-encrypts records hop to hop, running its
//!   [`middlebox::DataProcessor`] in between.
//!
//! [`driver`] wires sessions together over in-memory pipes or the
//! deterministic network simulator; [`baseline`] implements the
//! comparison points (plain TLS relay, Split TLS, naive end-to-end key
//! sharing); [`attacks`] holds [`attacks::Testbed`], the seeded
//! fixture tests, examples and benchmarks build sessions from. The
//! executable Table 1 adversaries live in `mbtls_bench::table1`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Panic-freedom (DESIGN.md §6d): attacker bytes and impossible states
// surface as errors, never as an abort of every session on the thread.
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Sans-IO (DESIGN.md §6d): no wall clock, thread or socket; the
// methods and types are listed in the workspace's clippy.toml.
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod attacks;
pub mod baseline;
pub mod client;
pub mod dataplane;
pub mod delegation;
pub mod driver;
pub mod messages;
pub mod middlebox;
pub mod server;
pub mod session;

pub use client::{MbClientConfig, MbClientSession};
pub use dataplane::HopKeys;
pub use delegation::EndpointCredentialProvider;
pub use driver::{Chain, ChainLinks, Endpoint, NetChain, Relay, SessionTiming};
pub use middlebox::{DataProcessor, ForwardProcessor, Middlebox, MiddleboxConfig};
pub use server::{MbServerConfig, MbServerSession};

/// How an endpoint authenticates the middleboxes it admits to a
/// session — the axis the security matrix and the paper suite's
/// authorization ablation (`BENCH_paper.json`) compare head to head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MiddleboxAuthMode {
    /// Paper mbTLS: certificate chain for operator identity plus an
    /// SGX quote over the transcript for code identity.
    SgxAttested,
    /// mdTLS-style delegation: the endpoint issues a short-lived,
    /// session-bound credential naming the middlebox verifying key;
    /// the middlebox presents no certificate chain of its own.
    Delegated,
    /// The naive baseline: endpoints hand the session key to every
    /// middlebox; no per-middlebox identity at all.
    KeyShared,
}

impl MiddleboxAuthMode {
    /// Stable label used in benchmark artifacts and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            MiddleboxAuthMode::SgxAttested => "sgx_attested",
            MiddleboxAuthMode::Delegated => "delegated",
            MiddleboxAuthMode::KeyShared => "key_shared",
        }
    }
}

/// How an mbTLS control message (or the control flow around it)
/// violated the protocol.
///
/// Each variant carries a human-readable detail string; `Display`
/// prints only that string, so error text is identical to the earlier
/// stringly-typed representation while callers can now match on the
/// violation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// A record or tagged message had a type this implementation does
    /// not recognize.
    UnknownMessageType(&'static str),
    /// A payload was truncated, had trailing bytes, or failed to
    /// decode.
    BadLength(&'static str),
    /// A message arrived in a state where it is not allowed, or the
    /// session could not make progress.
    UnexpectedState(&'static str),
    /// A subchannel / hop identifier was out of range or unknown.
    BadHopId(&'static str),
}

impl ProtocolViolation {
    /// The human-readable detail string.
    pub fn message(&self) -> &'static str {
        match self {
            ProtocolViolation::UnknownMessageType(m)
            | ProtocolViolation::BadLength(m)
            | ProtocolViolation::UnexpectedState(m)
            | ProtocolViolation::BadHopId(m) => m,
        }
    }
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

/// Errors from the mbTLS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MbError {
    /// The underlying TLS machinery failed.
    Tls(mbtls_tls::TlsError),
    /// An mbTLS control message or exchange violated the protocol.
    Protocol(ProtocolViolation),
    /// A middlebox was rejected by the approval policy.
    MiddleboxRejected(String),
    /// Operation needs a completed session.
    NotReady,
    /// The network connection died.
    Network(mbtls_netsim::net::NetError),
    /// A deadline passed with no progress (e.g. the session host's
    /// handshake timer fired after exhausting its retry budget).
    Timeout(String),
}

impl MbError {
    /// A [`ProtocolViolation::UnknownMessageType`] error.
    pub fn unknown_message(what: &'static str) -> Self {
        MbError::Protocol(ProtocolViolation::UnknownMessageType(what))
    }

    /// A [`ProtocolViolation::BadLength`] error.
    pub fn bad_length(what: &'static str) -> Self {
        MbError::Protocol(ProtocolViolation::BadLength(what))
    }

    /// A [`ProtocolViolation::UnexpectedState`] error.
    pub fn unexpected_state(what: &'static str) -> Self {
        MbError::Protocol(ProtocolViolation::UnexpectedState(what))
    }

    /// A [`ProtocolViolation::BadHopId`] error.
    pub fn bad_hop(what: &'static str) -> Self {
        MbError::Protocol(ProtocolViolation::BadHopId(what))
    }
}

impl std::fmt::Display for MbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MbError::Tls(e) => write!(f, "tls: {e}"),
            MbError::Protocol(what) => write!(f, "mbTLS protocol error: {what}"),
            MbError::MiddleboxRejected(name) => write!(f, "middlebox rejected: {name}"),
            MbError::NotReady => write!(f, "session not ready"),
            MbError::Network(e) => write!(f, "network: {e}"),
            MbError::Timeout(what) => write!(f, "timed out: {what}"),
        }
    }
}

impl std::error::Error for MbError {}

impl From<mbtls_tls::TlsError> for MbError {
    fn from(e: mbtls_tls::TlsError) -> Self {
        MbError::Tls(e)
    }
}

impl From<mbtls_netsim::net::NetError> for MbError {
    fn from(e: mbtls_netsim::net::NetError) -> Self {
        MbError::Network(e)
    }
}
