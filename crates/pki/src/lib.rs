//! # mbtls-pki
//!
//! Certificate infrastructure for the mbTLS reproduction.
//!
//! The paper's prototype rides on the X.509/WebPKI ecosystem; what
//! mbTLS actually *needs* from certificates is (a) a CA-signed binding
//! between a name and a public key, (b) chain building to a trust
//! root, and (c) validity/name checking — those are the ingredients of
//! property **P3A** (entity authentication) and of the §5.1 legacy
//! interop failure taxonomy ("19 had invalid or expired certificates").
//! This crate implements exactly that over a compact custom encoding
//! with Ed25519 signatures; ASN.1 parsing is irrelevant to every claim
//! in the paper (see DESIGN.md, Substitutions).
//!
//! Module map: [`wire`] (codec), [`cert`] (certificates and CAs),
//! [`verify`] (trust stores, chain verification, revocation),
//! [`delegation`] (mdTLS-style delegated middlebox credentials).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Sans-IO (DESIGN.md §6d): no wall clock, thread or socket; the
// methods and types are listed in the workspace's clippy.toml.
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod cert;
pub mod delegation;
pub mod verify;
pub mod wire;

pub use cert::{Certificate, CertificateAuthority, CertificatePayload, KeyUsage};
pub use delegation::{
    CredentialError, CredentialIssuer, CredentialVerifier, DelegatedCredential,
    DelegatedDirection, DelegatedKeyPair, DelegatedRole,
};
pub use verify::{CertError, RevocationList, SignatureCheck, TrustStore};
