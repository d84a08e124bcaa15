//! Reference AES (FIPS 197) — the original table-lookup
//! implementation, kept as the cross-check oracle for the bitsliced
//! fast path in [`crate::aes`].
//!
//! SubBytes here indexes `SBOX` with a state byte: a data-dependent
//! memory access whose cache footprint leaks information about the
//! key schedule and plaintext (the classic AES cache-timing channel).
//! That is exactly why this path is *reference-only*: it never
//! protects live traffic, and the whole module is compiled out of
//! production builds — it exists only under `cfg(test)` or the
//! `reference-oracle` cargo feature (enabled only by this crate's own
//! integration tests). The record layer and all
//! bulk benches run the constant-time bitsliced implementation; this
//! module exists so tests can differentially validate it against an
//! independent, easily-audited formulation of the cipher.

#![cfg(any(test, feature = "reference-oracle"))]

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// The reference S-box value for one byte — exposed so the bitsliced
/// implementation's tests can exhaustively cross-check its Boyar–
/// Peralta circuit against the published table.
#[cfg(test)]
pub(crate) fn sbox_lookup(b: u8) -> u8 {
    SBOX[b as usize]
}

/// An expanded AES key for the reference (table-lookup) cipher.
///
/// Decryption of blocks is not implemented: GCM (the only mode this
/// workspace uses) needs the forward direction only.
#[derive(Clone)]
pub struct AesRef {
    round_keys: Vec<[u8; 16]>,
    rounds: usize,
}

impl AesRef {
    /// Expand a 16-byte (AES-128) or 32-byte (AES-256) key.
    pub fn new(key: &[u8]) -> Result<Self, crate::CryptoError> {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8usize, 14usize),
            _ => return Err(crate::CryptoError::BadKeyLength),
        };
        let nwords = 4 * (rounds + 1);
        let mut w = vec![[0u8; 4]; nwords];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                rk[0..4].copy_from_slice(&c[0]);
                rk[4..8].copy_from_slice(&c[1]);
                rk[8..12].copy_from_slice(&c[2]);
                rk[12..16].copy_from_slice(&c[3]);
                rk
            })
            .collect();
        Ok(AesRef { round_keys, rounds })
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Encrypt one block out of place (convenience for CTR keystream).
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

impl Drop for AesRef {
    fn drop(&mut self) {
        for rk in self.round_keys.iter_mut() {
            crate::ct::zeroize(rk);
        }
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State is column-major: byte index = 4*col + row.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let i = 4 * col;
        let a0 = state[i];
        let a1 = state[i + 1];
        let a2 = state[i + 2];
        let a3 = state[i + 3];
        let all = a0 ^ a1 ^ a2 ^ a3;
        state[i] = a0 ^ all ^ xtime(a0 ^ a1);
        state[i + 1] = a1 ^ all ^ xtime(a1 ^ a2);
        state[i + 2] = a2 ^ all ^ xtime(a2 ^ a3);
        state[i + 3] = a3 ^ all ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // FIPS 197 Appendix C.1: AES-128.
    #[test]
    fn fips197_aes128() {
        let key = unhex("000102030405060708090a0b0c0d0e0f");
        let aes = AesRef::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    // FIPS 197 Appendix C.3: AES-256.
    #[test]
    fn fips197_aes256() {
        let key = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = AesRef::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("8ea2b7ca516745bfeafc49904b496089"));
    }

    // NIST SP 800-38A F.1.1 ECB-AES128 first block.
    #[test]
    fn sp800_38a_ecb128() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = AesRef::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn rejects_bad_key_lengths() {
        assert!(AesRef::new(&[0; 15]).is_err());
        assert!(AesRef::new(&[0; 24]).is_err()); // AES-192 intentionally unsupported
        assert!(AesRef::new(&[0; 33]).is_err());
        assert!(AesRef::new(&[]).is_err());
    }

    #[test]
    fn key_expansion_round_counts() {
        assert_eq!(AesRef::new(&[0; 16]).unwrap().rounds, 10);
        assert_eq!(AesRef::new(&[0; 32]).unwrap().rounds, 14);
    }
}
