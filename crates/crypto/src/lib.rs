//! # mbtls-crypto
//!
//! From-scratch cryptographic primitives backing the mbTLS reproduction.
//!
//! Everything in this crate is implemented directly from the relevant
//! specifications (FIPS 180-4, FIPS 197, NIST SP 800-38D, RFC 2104,
//! RFC 5246 §5, RFC 5869, RFC 7748, RFC 8032, RFC 7919) and validated
//! against their published test vectors. The crate is sans-IO and
//! allocation-light; primitives are plain state machines over byte
//! slices so the TLS and mbTLS layers above can stay deterministic.
//!
//! ## Security disclaimer
//!
//! This is a clean-room implementation written for protocol research.
//! It follows basic constant-time discipline (see [`ct`]) but has not
//! been audited and must not be used to protect real data.
//!
//! ## Module map
//!
//! * [`sha2`] — SHA-256 / SHA-384 / SHA-512.
//! * `sha512_x86` — SHA-512's compression with an AVX-512VL message
//!   schedule and BMI2 rounds, reachable only through [`sha2`] after
//!   runtime detection.
//! * [`hmac`] — HMAC over any [`sha2`] hash.
//! * [`kdf`] — the TLS 1.2 PRF and HKDF.
//! * [`aes`] — constant-time bitsliced AES (128/256-bit keys, 4-wide CTR).
//! * `aesni` — the x86_64 AES-NI + PCLMULQDQ AES-GCM backend, reachable
//!   only through [`gcm::AesGcm`] after runtime detection.
//! * [`gcm`] — AES-GCM AEAD (GHASH + CTR) over whichever of the two
//!   backends the CPU supports.
//! * [`x25519`] — Diffie-Hellman over Curve25519.
//! * [`ed25519`] — Ed25519 signatures (used by the PKI).
//! * [`bignum`] — minimal arbitrary-precision unsigned arithmetic.
//! * [`dh`] — classic finite-field DH over the RFC 7919 ffdhe2048 group.
//! * [`ct`] — constant-time comparison and selection helpers.
//! * [`rng`] — seedable CSPRNG handle used across the workspace.
//! * [`secret`] — the self-wiping buffer key material is held in.

#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
pub mod bignum;
pub mod ct;
pub mod dh;
pub mod ed25519;
mod field25519;
pub mod gcm;
pub mod hmac;
pub mod kdf;
pub mod rng;
pub mod secret;
pub mod sha2;
#[cfg(target_arch = "x86_64")]
mod sha512_x86;
pub mod x25519;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// An AEAD open failed authentication (tag mismatch).
    BadTag,
    /// A signature failed to verify.
    BadSignature,
    /// Key material had the wrong length for the algorithm.
    BadKeyLength,
    /// A peer's public value was structurally invalid (wrong length,
    /// out of range, small-order point, identity element, ...).
    BadPublicValue,
    /// The plaintext/ciphertext length is not supported (e.g. exceeds
    /// the GCM counter space).
    BadLength,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "AEAD authentication tag mismatch"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::BadKeyLength => write!(f, "invalid key length"),
            CryptoError::BadPublicValue => write!(f, "invalid peer public value"),
            CryptoError::BadLength => write!(f, "unsupported message length"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Infallible fixed-size slice conversion for sites where the length
/// is a static invariant (chunk iterators, length-checked inputs,
/// padded bignum output). Unlike `try_into().unwrap()` this cannot
/// panic: a contract violation zero-fills instead (and trips the
/// debug assertion under test), which is the fail-closed behaviour we
/// want in record-processing paths.
pub(crate) fn fixed<const N: usize>(s: &[u8]) -> [u8; N] {
    debug_assert_eq!(s.len(), N, "fixed::<{N}> caller broke its length contract");
    let mut out = [0u8; N];
    let n = s.len().min(N);
    out[..n].copy_from_slice(&s[..n]);
    out
}
