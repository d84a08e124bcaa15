//! The TLS 1.2 key schedule (RFC 5246 §8.1, §6.3) over the suite's
//! PRF hash, plus the Finished verify-data computation (§7.4.9).

use crate::record::FIXED_IV_LEN;
use crate::suites::{CipherSuite, PrfHash};
use mbtls_crypto::hmac::Hmac;
use mbtls_crypto::kdf::{tls12_prf, tls12_prf_keyed};
use mbtls_crypto::secret::Secret;
use mbtls_crypto::sha2::{Sha256, Sha384};

/// Length of the master secret.
pub const MASTER_SECRET_LEN: usize = 48;
/// Length of Finished verify_data.
pub const VERIFY_DATA_LEN: usize = 12;

/// The suite's PRF keyed on one secret: the HMAC every block of every
/// expansion over that secret runs under (RFC 5246 §5), keyed once.
/// A connection keys one on its master secret and runs its key block
/// and both Finished messages over it, until its handshake ends. Out
/// of line, as an `Hmac<Sha384>` is 448 bytes; like every `Hmac` it
/// wipes itself on drop.
pub(crate) enum KeyedPrf {
    /// The PRF of a *_SHA256 suite.
    Sha256(Box<Hmac<Sha256>>),
    /// The PRF of a *_SHA384 suite.
    Sha384(Box<Hmac<Sha384>>),
}

impl KeyedPrf {
    /// The PRF of `suite`, keyed on `secret`.
    pub(crate) fn new(suite: CipherSuite, secret: &[u8]) -> Self {
        match suite.prf_hash() {
            PrfHash::Sha256 => KeyedPrf::Sha256(Box::new(Hmac::new(secret))),
            PrfHash::Sha384 => KeyedPrf::Sha384(Box::new(Hmac::new(secret))),
        }
    }

    /// `PRF(secret, label, seed)`, filling `out`.
    fn fill(&self, label: &[u8], seed: &[u8], out: &mut [u8]) {
        match self {
            KeyedPrf::Sha256(keyed) => tls12_prf_keyed(keyed, label, seed, out),
            KeyedPrf::Sha384(keyed) => tls12_prf_keyed(keyed, label, seed, out),
        }
    }

    /// [`expand_key_block`] over this keyed PRF.
    pub(crate) fn key_block(
        &self,
        suite: CipherSuite,
        client_random: &[u8; 32],
        server_random: &[u8; 32],
    ) -> Secret {
        let mut block = vec![0; key_block_len(suite)];
        self.fill(b"key expansion", &concat(server_random, client_random), &mut block);
        block.into()
    }

    /// verify_data = PRF(master, label, Hash(handshake_messages))[0..12],
    /// on the stack: the caller wipes it once used.
    pub(crate) fn verify_data(
        &self,
        label: &[u8],
        transcript_hash: &[u8],
    ) -> [u8; VERIFY_DATA_LEN] {
        let mut out = [0; VERIFY_DATA_LEN];
        self.fill(label, transcript_hash, &mut out);
        out
    }
}

/// Run the suite's PRF, keyed for this one call.
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
/// reads them, keyed for this one expansion (a connection expands its
/// own over its [`KeyedPrf`]).
pub(crate) fn expand_key_block(
    suite: CipherSuite,
    master: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> Secret {
    let seed = concat(server_random, client_random);
    prf(suite, master, b"key expansion", &seed, key_block_len(suite))
}

/// The key block's length under `suite`: both write keys and both
/// implicit IVs.
fn key_block_len(suite: CipherSuite) -> usize {
    2 * suite.key_len() + 2 * FIXED_IV_LEN
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
        let keyed = KeyedPrf::new(SUITE, &[9u8; 48]);
        let v1 = keyed.verify_data(b"client finished", b"transcript hash");
        let v2 = keyed.verify_data(b"server finished", b"transcript hash");
        let v3 = keyed.verify_data(b"client finished", b"transcript hash2");
        assert_ne!(v1, v2);
        assert_ne!(v1, v3);
        // The keyed form is the PRF over the master secret, for the
        // Finished and for the key block after it.
        assert_eq!(*prf(SUITE, &[9u8; 48], b"client finished", b"transcript hash", 12), v1);
        let block = prf(SUITE, &[9u8; 48], b"key expansion", &concat(&[2; 32], &[1; 32]), 72);
        assert_eq!(keyed.key_block(SUITE, &[1; 32], &[2; 32]), block);
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
