//! The AEAD abstraction used by the TLS record layer.
//!
//! TLS 1.2 AES-GCM record protection (RFC 5288): the per-record nonce
//! is `fixed_iv (4 bytes, from the key block) || explicit_nonce
//! (8 bytes, carried on the wire)`. We expose exactly that shape so
//! the record layer stays algorithm-agnostic.

use crate::gcm::AesGcm;
use crate::CryptoError;

/// Length of the implicit (salt) part of the nonce.
pub const FIXED_IV_LEN: usize = 4;
/// Length of the explicit per-record nonce.
pub const EXPLICIT_NONCE_LEN: usize = 8;
/// GCM tag length.
pub const TAG_LEN: usize = 16;

/// Supported bulk algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BulkAlgorithm {
    /// AES-128 in GCM mode.
    Aes128Gcm,
    /// AES-256 in GCM mode.
    Aes256Gcm,
}

impl BulkAlgorithm {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            BulkAlgorithm::Aes128Gcm => 16,
            BulkAlgorithm::Aes256Gcm => 32,
        }
    }
}

/// One direction of record protection: an AEAD key plus its implicit
/// IV salt.
pub struct AeadKey {
    gcm: AesGcm,
    fixed_iv: [u8; FIXED_IV_LEN],
    algorithm: BulkAlgorithm,
}

impl AeadKey {
    /// Build from raw key material.
    pub fn new(
        algorithm: BulkAlgorithm,
        key: &[u8],
        fixed_iv: &[u8],
    ) -> Result<Self, CryptoError> {
        if key.len() != algorithm.key_len() || fixed_iv.len() != FIXED_IV_LEN {
            return Err(CryptoError::BadKeyLength);
        }
        Ok(AeadKey {
            gcm: AesGcm::new(key)?,
            fixed_iv: crate::fixed(fixed_iv),
            algorithm,
        })
    }

    /// The algorithm this key is for.
    pub fn algorithm(&self) -> BulkAlgorithm {
        self.algorithm
    }

    fn nonce(&self, explicit: &[u8; EXPLICIT_NONCE_LEN]) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..FIXED_IV_LEN].copy_from_slice(&self.fixed_iv);
        nonce[FIXED_IV_LEN..].copy_from_slice(explicit);
        nonce
    }

    /// Seal: returns ciphertext || tag.
    pub fn seal(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        self.gcm.seal(&self.nonce(explicit_nonce), aad, plaintext)
    }

    /// Open ciphertext || tag; errors on authentication failure.
    pub fn open(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        self.gcm.open(&self.nonce(explicit_nonce), aad, sealed)
    }

    /// Encrypt `data` in place and return the 16-byte tag. The
    /// allocation-free half of [`AeadKey::seal`]: the caller owns the
    /// buffer and appends the tag where its framing wants it.
    pub fn seal_in_place(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> Result<[u8; TAG_LEN], CryptoError> {
        self.gcm.seal_in_place(&self.nonce(explicit_nonce), aad, data)
    }

    /// Seal `plaintext` onto the end of `out` (ciphertext, then tag),
    /// encrypting straight into its spare capacity: the append form of
    /// [`AeadKey::seal`], with nothing copied first.
    pub fn seal_into(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.gcm.seal_into(&self.nonce(explicit_nonce), aad, plaintext, out)
    }

    /// Verify `tag` over `ciphertext`, then append the plaintext to
    /// `out`, decrypted straight into its spare capacity. On failure
    /// `out` is untouched.
    pub fn open_into(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.gcm.open_into(&self.nonce(explicit_nonce), aad, ciphertext, tag, out)
    }

    /// Verify `tag` over `ciphertext` without decrypting — the
    /// authentication half of [`AeadKey::open_in_place`]. Used by the
    /// read-only middlebox forward path, where the record bytes pass
    /// through unchanged and only the tag check is needed.
    pub fn verify(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        self.gcm.verify_tag(&self.nonce(explicit_nonce), aad, ciphertext, tag)
    }

    /// [`AeadKey::verify`], appending `ciphertext || tag` to `out` in
    /// the same pass once the tag holds: the read-only forward. On
    /// failure `out` is untouched.
    pub fn verify_into(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.gcm.verify_tag_into(&self.nonce(explicit_nonce), aad, ciphertext, tag, out)
    }

    /// Verify `tag` and decrypt `data` (ciphertext without the tag) in
    /// place. On failure the buffer keeps the untouched ciphertext and
    /// must not be used.
    pub fn open_in_place(
        &self,
        explicit_nonce: &[u8; EXPLICIT_NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        self.gcm.open_in_place(&self.nonce(explicit_nonce), aad, data, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_both_algorithms() {
        for alg in [BulkAlgorithm::Aes128Gcm, BulkAlgorithm::Aes256Gcm] {
            let key = vec![0x42u8; alg.key_len()];
            let iv = [1u8, 2, 3, 4];
            let k = AeadKey::new(alg, &key, &iv).unwrap();
            let nonce = [9u8; 8];
            let sealed = k.seal(&nonce, b"aad", b"hello").unwrap();
            assert_eq!(sealed.len(), 5 + TAG_LEN);
            assert_eq!(k.open(&nonce, b"aad", &sealed).unwrap(), b"hello");
        }
    }

    #[test]
    fn nonce_mismatch_fails() {
        let k = AeadKey::new(BulkAlgorithm::Aes128Gcm, &[7u8; 16], &[0u8; 4]).unwrap();
        let sealed = k.seal(&[1u8; 8], b"", b"data").unwrap();
        assert!(k.open(&[2u8; 8], b"", &sealed).is_err());
    }

    #[test]
    fn bad_lengths_rejected() {
        assert!(AeadKey::new(BulkAlgorithm::Aes128Gcm, &[0u8; 32], &[0u8; 4]).is_err());
        assert!(AeadKey::new(BulkAlgorithm::Aes256Gcm, &[0u8; 16], &[0u8; 4]).is_err());
        assert!(AeadKey::new(BulkAlgorithm::Aes128Gcm, &[0u8; 16], &[0u8; 8]).is_err());
    }

    #[test]
    fn verify_matches_open_verdicts() {
        let k = AeadKey::new(BulkAlgorithm::Aes256Gcm, &[6u8; 32], &[2u8; 4]).unwrap();
        let nonce = [4u8; 8];
        let sealed = k.seal(&nonce, b"seq", b"payload").unwrap();
        let (ct_part, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        k.verify(&nonce, b"seq", ct_part, tag).unwrap();
        assert!(k.verify(&nonce, b"other", ct_part, tag).is_err());
        assert!(k.verify(&[5u8; 8], b"seq", ct_part, tag).is_err());
        let mut tampered = ct_part.to_vec();
        tampered[0] ^= 0x80;
        assert!(k.verify(&nonce, b"seq", &tampered, tag).is_err());
    }

    #[test]
    fn sender_receiver_pair() {
        // Different directions use different keys; a receiver keyed
        // with the sender's write key opens successfully.
        let send = AeadKey::new(BulkAlgorithm::Aes256Gcm, &[3u8; 32], &[9u8; 4]).unwrap();
        let recv = AeadKey::new(BulkAlgorithm::Aes256Gcm, &[3u8; 32], &[9u8; 4]).unwrap();
        let sealed = send.seal(&[5u8; 8], b"seq", b"record").unwrap();
        assert_eq!(recv.open(&[5u8; 8], b"seq", &sealed).unwrap(), b"record");
    }
}
