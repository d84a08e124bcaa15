//! The TLS 1.2 key schedule (RFC 5246 §8.1, §6.3) over the suite's
//! PRF hash, plus the Finished verify-data computation (§7.4.9).

use crate::suites::{CipherSuite, PrfHash};
use mbtls_crypto::aead::FIXED_IV_LEN;
use mbtls_crypto::kdf::tls12_prf;
use mbtls_crypto::secret::Secret;
use mbtls_crypto::sha2::{Sha256, Sha384};

/// Length of the master secret.
pub const MASTER_SECRET_LEN: usize = 48;
/// Length of Finished verify_data.
pub const VERIFY_DATA_LEN: usize = 12;

/// Run the suite's PRF.
pub fn prf(suite: CipherSuite, secret: &[u8], label: &[u8], seed: &[u8], out_len: usize) -> Secret {
    match suite.prf_hash() {
        PrfHash::Sha256 => tls12_prf::<Sha256>(secret, label, seed, out_len),
        PrfHash::Sha384 => tls12_prf::<Sha384>(secret, label, seed, out_len),
    }
}

/// The pre-master secret of a finite-field DH exchange: the shared
/// secret with its leading zeros stripped (see
/// [`strip_leading_zeros`]). The shared secret is adopted and wiped.
/// An X25519 output is used whole: `Secret::from(shared)`.
pub fn dhe_pre_master(shared: Vec<u8>) -> Secret {
    let shared = Secret::from(shared);
    Secret::from(strip_leading_zeros(&shared))
}

/// master_secret = PRF(pre_master, "master secret",
///                     client_random || server_random)[0..48]
pub fn master_secret(
    suite: CipherSuite,
    pre_master: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> Secret {
    let seed = concat(client_random, server_random);
    prf(suite, pre_master, b"master secret", &seed, MASTER_SECRET_LEN)
}

/// `first || second`: a derivation's seed of two randoms, on the
/// stack.
fn concat(first: &[u8; 32], second: &[u8; 32]) -> [u8; 64] {
    let mut seed = [0; 64];
    seed[..32].copy_from_slice(first);
    seed[32..].copy_from_slice(second);
    seed
}

/// The expanded key block for an AEAD suite: write keys and implicit
/// IVs for both directions (no MAC keys, RFC 5288).
#[derive(Clone)]
pub struct KeyBlock {
    /// Client-write AEAD key.
    pub client_write_key: Secret,
    /// Server-write AEAD key.
    pub server_write_key: Secret,
    /// Client-write implicit IV (4 bytes).
    pub client_write_iv: Secret,
    /// Server-write implicit IV (4 bytes).
    pub server_write_iv: Secret,
}

// A key block is nothing but live AEAD keys; the derived formatter
// would print all of them. Show only the layout.
impl std::fmt::Debug for KeyBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KeyBlock(key_len={}, iv_len={}, ..)",
            self.client_write_key.len(),
            self.client_write_iv.len()
        )
    }
}

/// key_block = PRF(master, "key expansion",
///                 server_random || client_random)
pub fn key_block(
    suite: CipherSuite,
    master: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> KeyBlock {
    let block = expand_key_block(suite, master, client_random, server_random);
    let [client_key, server_key, client_iv, server_iv] = split_key_block(&block);
    KeyBlock {
        client_write_key: client_key.into(),
        server_write_key: server_key.into(),
        client_write_iv: client_iv.into(),
        server_write_iv: server_iv.into(),
    }
}

/// The key block's bytes in one allocation, as [`split_key_block`]
/// reads them: what a connection expands once and keeps.
pub(crate) fn expand_key_block(
    suite: CipherSuite,
    master: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> Secret {
    let needed = 2 * suite.bulk().key_len() + 2 * FIXED_IV_LEN;
    let seed = concat(server_random, client_random);
    prf(suite, master, b"key expansion", &seed, needed)
}

/// An expanded key block's four parts in RFC 5246 §6.3 order:
/// client-write key, server-write key, client-write IV, server-write
/// IV. The key length is what the two IVs leave; a block too short
/// for them yields parts no cipher accepts, not a panic.
pub(crate) fn split_key_block(block: &[u8]) -> [&[u8]; 4] {
    let key_len = block.len().saturating_sub(2 * FIXED_IV_LEN) / 2;
    let (keys, ivs) = block.split_at(2 * key_len);
    let (client_key, server_key) = keys.split_at(key_len);
    let (client_iv, server_iv) = ivs.split_at(ivs.len().min(FIXED_IV_LEN));
    [client_key, server_key, client_iv, server_iv]
}

/// verify_data = PRF(master, label, Hash(handshake_messages))[0..12]
pub fn verify_data(suite: CipherSuite, master: &[u8], label: &[u8], transcript: &[u8]) -> Secret {
    // The transcript hash is the suite's PRF hash, by value.
    match suite.prf_hash() {
        PrfHash::Sha256 => {
            tls12_prf::<Sha256>(master, label, &Sha256::digest(transcript), VERIFY_DATA_LEN)
        }
        PrfHash::Sha384 => {
            tls12_prf::<Sha384>(master, label, &Sha384::digest(transcript), VERIFY_DATA_LEN)
        }
    }
}

/// Strip leading zero bytes from a DHE shared secret (RFC 5246
/// §8.1.2: the negotiated key is the positive integer with leading
/// zeros removed).
pub fn strip_leading_zeros(z: &[u8]) -> &[u8] {
    let first = z.iter().position(|&b| b != 0).unwrap_or(z.len().saturating_sub(1));
    &z[first..]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;

    #[test]
    fn master_secret_is_48_bytes_and_deterministic() {
        let ms1 = master_secret(SUITE, b"premaster", &[1; 32], &[2; 32]);
        let ms2 = master_secret(SUITE, b"premaster", &[1; 32], &[2; 32]);
        assert_eq!(ms1.len(), 48);
        assert_eq!(ms1, ms2);
        // Randoms matter.
        assert_ne!(ms1, master_secret(SUITE, b"premaster", &[1; 32], &[3; 32]));
        // Premaster matters.
        assert_ne!(ms1, master_secret(SUITE, b"other", &[1; 32], &[2; 32]));
    }

    #[test]
    fn key_block_layout() {
        let kb = key_block(SUITE, &[7; 48], &[1; 32], &[2; 32]);
        assert_eq!(kb.client_write_key.len(), 32);
        assert_eq!(kb.server_write_key.len(), 32);
        assert_eq!(kb.client_write_iv.len(), 4);
        assert_eq!(kb.server_write_iv.len(), 4);
        assert_ne!(kb.client_write_key, kb.server_write_key);

        let kb128 = key_block(CipherSuite::EcdheAes128GcmSha256, &[7; 48], &[1; 32], &[2; 32]);
        assert_eq!(kb128.client_write_key.len(), 16);
    }

    #[test]
    fn verify_data_binds_transcript_and_label() {
        let master = [9u8; 48];
        let v1 = verify_data(SUITE, &master, b"client finished", b"transcript");
        let v2 = verify_data(SUITE, &master, b"server finished", b"transcript");
        let v3 = verify_data(SUITE, &master, b"client finished", b"transcript2");
        assert_eq!(v1.len(), VERIFY_DATA_LEN);
        assert_ne!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn prf_hash_depends_on_suite() {
        let a = prf(CipherSuite::EcdheAes128GcmSha256, b"s", b"l", b"x", 16);
        let b = prf(CipherSuite::EcdheAes256GcmSha384, b"s", b"l", b"x", 16);
        assert_ne!(a, b);
    }

    #[test]
    fn dhe_pre_master_loses_its_leading_zeros() {
        // RFC 5246 §8.1.2.
        assert_eq!(*dhe_pre_master(vec![0, 0, 7, 1]), [7, 1]);
        assert_eq!(*dhe_pre_master(vec![9, 0]), [9, 0]);
    }

    #[test]
    fn strip_leading_zeros_works() {
        assert_eq!(strip_leading_zeros(&[0, 0, 1, 2]), &[1, 2]);
        assert_eq!(strip_leading_zeros(&[5, 0]), &[5, 0]);
        assert_eq!(strip_leading_zeros(&[0, 0]), &[0]);
    }
}
