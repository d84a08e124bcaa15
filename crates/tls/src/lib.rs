//! # mbtls-tls
//!
//! A from-scratch, sans-IO TLS 1.2 implementation — the substrate the
//! mbTLS protocol (crate `mbtls-core`) extends, standing in for the
//! paper's OpenSSL base.
//!
//! The design is deliberately sans-IO (per this session's Rust
//! networking guides): a [`Connection`] consumes bytes via
//! `feed_incoming`, produces bytes via `take_outgoing`, and never
//! touches a socket. That makes the state machines directly drivable
//! by in-memory pipes, the deterministic network simulator, and the
//! mbTLS middlebox code that interleaves extra records into the
//! stream.
//!
//! There is one connection type. [`ClientConnection`] and
//! [`ServerConnection`] are aliases for `Connection<ClientHandshake>`
//! and `Connection<ServerHandshake>`: everything but the handshake
//! state machine — the record layer, the transcript, the secrets, the
//! whole `feed_incoming` / `take_outgoing` / `send_data` surface — is
//! written once on `Connection<H>`, and the sealed [`Handshake`] trait
//! bounds what a role may add.
//!
//! ## Scope
//!
//! * TLS 1.2 only (the paper's prototype targets 1.2; §3.5 sketches a
//!   1.3 adaptation, discussed in this repo's README).
//! * AEAD cipher suites only: ECDHE (X25519) or DHE (ffdhe2048) key
//!   exchange, Ed25519 certificate signatures (see DESIGN.md
//!   substitutions), AES-128/256-GCM record protection, SHA-256/384
//!   PRF.
//! * Session resumption by ID and by ticket (RFC 5077 shape).
//! * Extension points used by mbTLS: arbitrary extra ClientHello
//!   extensions, visibility of peer extensions, non-standard record
//!   types surfaced to the caller instead of being fatal, raw-record
//!   injection, key-block export/import, and an optional SGX
//!   attestation handshake message bound to the transcript hash.
//!
//! Hooks exist because mbTLS *is* a set of hooks into TLS: the paper's
//! Figure 3 handshake is standard TLS handshakes interleaved with a
//! few new messages.

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

pub mod alert;
pub mod client;
pub mod codec;
pub mod config;
pub mod keyschedule;
pub mod messages;
pub mod record;
pub mod server;
pub mod session;
mod shell;
pub mod suites;
pub mod transcript;

pub use alert::{AlertDescription, AlertLevel};
pub use client::{ClientConnection, ClientHandshake};
pub use config::{AttestationPolicy, Attestor, ClientConfig, ServerConfig};
pub use record::ContentType;
pub use server::{ServerConnection, ServerHandshake};
pub use session::{ConnectionSecrets, SessionKeys};
pub use shell::{Connection, Handshake};
pub use suites::CipherSuite;

/// Everything that can go wrong in a TLS connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// Wire-format decoding failed.
    Decode(&'static str),
    /// A record is longer than TLS allows: a protected plaintext past
    /// 2^14 bytes, or a ciphertext past 2^14 + 2048 (RFC 5246
    /// §6.2.1, §6.2.3).
    RecordOverflow,
    /// A cryptographic operation failed (bad MAC, bad signature...).
    Crypto(mbtls_crypto::CryptoError),
    /// Certificate validation failed.
    Certificate(mbtls_pki::CertError),
    /// Attestation was required and failed.
    Attestation(mbtls_sgx::AttestationError),
    /// A delegated credential was required and missing, or rejected.
    Credential(mbtls_pki::CredentialError),
    /// The peer sent a fatal alert.
    PeerAlert(AlertDescription),
    /// A message arrived that is not legal in the current state.
    UnexpectedMessage(&'static str),
    /// No mutually acceptable cipher suite / parameters.
    NegotiationFailed(&'static str),
    /// Data operations attempted before the handshake completed.
    HandshakeNotDone,
    /// A direction's record sequence number would wrap (RFC 5246
    /// §6.1): the connection must end rather than reuse a nonce.
    SequenceExhausted,
    /// An internal state-machine invariant was broken. Reaching this
    /// is a bug, but it surfaces as an error rather than a panic so a
    /// malformed connection can never take the process down.
    Internal(&'static str),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::Decode(what) => write!(f, "decode error: {what}"),
            TlsError::RecordOverflow => write!(f, "record too long"),
            TlsError::Crypto(e) => write!(f, "crypto error: {e}"),
            TlsError::Certificate(e) => write!(f, "certificate error: {e}"),
            TlsError::Attestation(e) => write!(f, "attestation error: {e}"),
            TlsError::Credential(e) => write!(f, "credential error: {e}"),
            TlsError::PeerAlert(d) => write!(f, "peer sent fatal alert: {d}"),
            TlsError::UnexpectedMessage(what) => write!(f, "unexpected message: {what}"),
            TlsError::NegotiationFailed(what) => write!(f, "negotiation failed: {what}"),
            TlsError::HandshakeNotDone => write!(f, "handshake not complete"),
            TlsError::SequenceExhausted => write!(f, "record sequence number exhausted"),
            TlsError::Internal(what) => write!(f, "internal invariant broken: {what}"),
        }
    }
}

impl std::error::Error for TlsError {}

impl From<mbtls_crypto::CryptoError> for TlsError {
    fn from(e: mbtls_crypto::CryptoError) -> Self {
        TlsError::Crypto(e)
    }
}

impl From<mbtls_pki::CertError> for TlsError {
    fn from(e: mbtls_pki::CertError) -> Self {
        TlsError::Certificate(e)
    }
}

impl From<mbtls_sgx::AttestationError> for TlsError {
    fn from(e: mbtls_sgx::AttestationError) -> Self {
        TlsError::Attestation(e)
    }
}

impl From<crate::codec::CodecError> for TlsError {
    fn from(_: crate::codec::CodecError) -> Self {
        TlsError::Decode("truncated or malformed structure")
    }
}
