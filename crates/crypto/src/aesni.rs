//! AES-GCM on the x86_64 AES-NI and PCLMULQDQ instructions.
//!
//! The hardware backend behind [`crate::gcm::AesGcm`]: the same
//! SP 800-38D computation as the bitsliced path, carried by the
//! instructions the CPU has for it.
//!
//! * **Key expansion** runs through `AESKEYGENASSIST`, so SubWord is
//!   the hardware S-box and the schedule never touches a table.
//! * **CTR** encrypts eight counter blocks per pass with interleaved
//!   `AESENC`s — eight independent dependency chains, enough to keep
//!   the AES units busy through the instruction's latency. The 32-bit
//!   counter lives little-endian in the top lane of one register so
//!   `inc32` is a single `PADDD` (wrapping inside its lane, exactly
//!   the SP 800-38D semantics) and `PSHUFB` puts it in wire order.
//! * **GHASH** multiplies with `PCLMULQDQ` over precomputed H¹..H⁸:
//!
//!   ```text
//!   Y' = (Y ^ C1)·H⁸ ^ C2·H⁷ ^ … ^ C8·H
//!   ```
//!
//!   The eight 256-bit carry-less products are summed unreduced and
//!   reduced once. Blocks are byte-reversed on load, which turns
//!   GHASH into POLYVAL with the key multiplied by `x` (RFC 8452
//!   appendix A): products need no bit-reflection fix-up and the
//!   reduction is two more `PCLMULQDQ`s by a constant. There is no
//!   keyed table and no secret-indexed memory access anywhere in
//!   this module, so unlike the portable GHASH this one is
//!   constant-time without qualification.
//!
//! # Soundness
//!
//! Every function that executes an AES-NI, PCLMULQDQ or SSSE3
//! instruction is private and carries `#[target_feature]` for exactly
//! the features [`available`] tests. The only way to obtain an
//! [`AesNiGcm`] is [`AesNiGcm::new`], which returns `None` unless
//! [`available`] is true, and the value cannot be cloned, so holding
//! a `&AesNiGcm` is proof that detection succeeded on this CPU. The
//! `unsafe` blocks that enter the feature-gated functions rely on
//! that and nothing else; the remaining two are unaligned SSE2
//! loads/stores through 16-byte array references.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

use crate::ct;

/// Round keys AES-256 needs (14 rounds plus the whitening key);
/// AES-128 uses the first 11 slots.
const MAX_ROUND_KEYS: usize = 15;

/// Blocks per interleaved CTR pass and per GHASH reduction.
const WIDE: usize = 8;

/// Does this CPU have everything the backend executes? (SSE2, which
/// the rest of the intrinsics need, is part of the x86_64 baseline.)
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// One AES-GCM key expanded for the hardware path: the AES round keys
/// and the GHASH key powers, stored inline as plain bytes.
// lint:secret
pub(crate) struct AesNiGcm {
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    /// 10 (AES-128) or 14 (AES-256).
    rounds: usize,
    /// `h_pow[k]` is H^(k+1) in the byte-reversed (POLYVAL) domain.
    h_pow: [[u8; 16]; WIDE],
}

impl AesNiGcm {
    /// Expand a 16- or 32-byte key. `None` when the CPU lacks AES-NI,
    /// PCLMULQDQ or SSSE3, or the key is neither length — the caller
    /// falls back to the portable backend, which reports the latter.
    pub(crate) fn new(key: &[u8]) -> Option<Self> {
        if !available() {
            return None;
        }
        let mut this = AesNiGcm {
            round_keys: [[0; 16]; MAX_ROUND_KEYS],
            rounds: 0,
            h_pow: [[0; 16]; WIDE],
        };
        // SAFETY: `available()` returned true just above, so the CPU
        // has every feature `expand` and `derive_h_powers` enable.
        unsafe {
            this.expand(key)?;
            this.derive_h_powers();
        }
        Some(this)
    }

    /// XOR the GCM CTR keystream into `data`; same contract as
    /// [`crate::aes::Aes::ctr_xor`].
    pub(crate) fn ctr_xor(&self, nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
        // SAFETY: `self` exists, so `AesNiGcm::new` saw `available()`
        // return true on this CPU (see the module's soundness note).
        unsafe { self.ctr_xor_hw(nonce, counter0, data) }
    }

    /// The GCM tag over `aad` and `ciphertext`:
    /// `GHASH(aad, ciphertext) ^ E(nonce || 1)`.
    pub(crate) fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists, so `AesNiGcm::new` saw `available()`
        // return true on this CPU (see the module's soundness note).
        unsafe { self.tag_hw(nonce, aad, ciphertext) }
    }

    fn wipe(&mut self) {
        ct::zeroize(self.round_keys.as_flattened_mut());
        ct::zeroize(self.h_pow.as_flattened_mut());
    }

    /// FIPS 197 key expansion, SubWord/RotWord/Rcon by
    /// `AESKEYGENASSIST`. `None` for an unsupported key length.
    #[target_feature(enable = "aes")]
    fn expand(&mut self, key: &[u8]) -> Option<()> {
        /// `prev ^ prev<<32 ^ prev<<64 ^ prev<<96`, plus the assist
        /// word (lane `LANE` of `AESKEYGENASSIST(src, RCON)`)
        /// broadcast to all four columns.
        #[target_feature(enable = "aes")]
        fn next<const RCON: i32, const LANE: i32>(prev: __m128i, src: __m128i) -> __m128i {
            let assist = _mm_shuffle_epi32::<LANE>(_mm_aeskeygenassist_si128::<RCON>(src));
            let k = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
            let k = _mm_xor_si128(k, _mm_slli_si128::<8>(k));
            _mm_xor_si128(k, assist)
        }
        // Lane 3 is SubWord(RotWord(w)) ^ Rcon, lane 2 the bare
        // SubWord(w) that AES-256 uses for its odd round keys.
        const ROT: i32 = 0xff;
        const SUB: i32 = 0xaa;

        let mut k = [_mm_setzero_si128(); MAX_ROUND_KEYS];
        match key.len() {
            16 => {
                self.rounds = 10;
                k[0] = load(&crate::fixed(key));
                k[1] = next::<0x01, ROT>(k[0], k[0]);
                k[2] = next::<0x02, ROT>(k[1], k[1]);
                k[3] = next::<0x04, ROT>(k[2], k[2]);
                k[4] = next::<0x08, ROT>(k[3], k[3]);
                k[5] = next::<0x10, ROT>(k[4], k[4]);
                k[6] = next::<0x20, ROT>(k[5], k[5]);
                k[7] = next::<0x40, ROT>(k[6], k[6]);
                k[8] = next::<0x80, ROT>(k[7], k[7]);
                k[9] = next::<0x1b, ROT>(k[8], k[8]);
                k[10] = next::<0x36, ROT>(k[9], k[9]);
            }
            32 => {
                self.rounds = 14;
                k[0] = load(&crate::fixed(&key[..16]));
                k[1] = load(&crate::fixed(&key[16..]));
                k[2] = next::<0x01, ROT>(k[0], k[1]);
                k[3] = next::<0x00, SUB>(k[1], k[2]);
                k[4] = next::<0x02, ROT>(k[2], k[3]);
                k[5] = next::<0x00, SUB>(k[3], k[4]);
                k[6] = next::<0x04, ROT>(k[4], k[5]);
                k[7] = next::<0x00, SUB>(k[5], k[6]);
                k[8] = next::<0x08, ROT>(k[6], k[7]);
                k[9] = next::<0x00, SUB>(k[7], k[8]);
                k[10] = next::<0x10, ROT>(k[8], k[9]);
                k[11] = next::<0x00, SUB>(k[9], k[10]);
                k[12] = next::<0x20, ROT>(k[10], k[11]);
                k[13] = next::<0x00, SUB>(k[11], k[12]);
                k[14] = next::<0x40, ROT>(k[12], k[13]);
            }
            _ => return None,
        }
        for (slot, rk) in self.round_keys.iter_mut().zip(k) {
            store(slot, rk);
        }
        Some(())
    }

    /// H = E(0¹²⁸), moved to the POLYVAL domain, and its powers.
    #[target_feature(enable = "aes,pclmulqdq")]
    fn derive_h_powers(&mut self) {
        let mut h = [0u8; 16];
        store(&mut h, self.encrypt_block(_mm_setzero_si128()));
        // Byte-reversing a GHASH element gives the POLYVAL element of
        // the same polynomial; GHASH's multiply-by-H is then POLYVAL's
        // dot product with H·x (RFC 8452 appendix A). Reading the
        // bytes big-endian is the byte reversal; the doubling folds
        // bit 127 back through x¹²⁸ = x¹²⁷ + x¹²⁶ + x¹²¹ + 1 under a
        // mask, not a branch, because H is secret.
        let h = u128::from_be_bytes(h);
        let carry_mask = 0u128.wrapping_sub(h >> 127);
        let hx = (h << 1) ^ (carry_mask & 0xc200_0000_0000_0000_0000_0000_0000_0001);
        self.h_pow[0] = hx.to_le_bytes();
        let h1 = load(&self.h_pow[0]);
        let mut acc = h1;
        for slot in self.h_pow.iter_mut().skip(1) {
            let mut product = Product::zero();
            product.add_mul(acc, h1);
            acc = product.reduce();
            store(slot, acc);
        }
    }

    /// Encrypt one block (H and the tag mask; bulk work goes through
    /// [`Self::keystream8`]).
    #[target_feature(enable = "aes")]
    fn encrypt_block(&self, block: __m128i) -> __m128i {
        let mut b = _mm_xor_si128(block, load(&self.round_keys[0]));
        for rk in &self.round_keys[1..self.rounds] {
            b = _mm_aesenc_si128(b, load(rk));
        }
        _mm_aesenclast_si128(b, load(&self.round_keys[self.rounds]))
    }

    /// Eight keystream blocks for the counters in `*ctr`, which is
    /// advanced by eight. `*ctr` holds the counter block with its
    /// last four bytes little-endian.
    #[target_feature(enable = "aes,ssse3")]
    fn keystream8(&self, ctr: &mut __m128i) -> [__m128i; WIDE] {
        // Identity on the nonce bytes, byte swap of the counter lane.
        let to_wire = _mm_set_epi8(12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let one = _mm_set_epi32(1, 0, 0, 0);
        let rk0 = load(&self.round_keys[0]);
        let mut b = [_mm_setzero_si128(); WIDE];
        for x in b.iter_mut() {
            *x = _mm_xor_si128(_mm_shuffle_epi8(*ctr, to_wire), rk0);
            *ctr = _mm_add_epi32(*ctr, one);
        }
        for rk in &self.round_keys[1..self.rounds] {
            let rk = load(rk);
            for x in b.iter_mut() {
                *x = _mm_aesenc_si128(*x, rk);
            }
        }
        let last = load(&self.round_keys[self.rounds]);
        for x in b.iter_mut() {
            *x = _mm_aesenclast_si128(*x, last);
        }
        b
    }

    #[target_feature(enable = "aes,ssse3")]
    fn ctr_xor_hw(&self, nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[12..].copy_from_slice(&counter0.to_le_bytes());
        let mut ctr = load(&block);

        let mut chunks = data.chunks_exact_mut(16 * WIDE);
        for chunk in &mut chunks {
            let ks = self.keystream8(&mut ctr);
            for (seg, k) in chunk.as_chunks_mut::<16>().0.iter_mut().zip(ks) {
                store(seg, _mm_xor_si128(load(seg), k));
            }
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            // A full eight-wide pass costs about one block's latency,
            // so the tail takes it too instead of a serial loop.
            let mut ks = [[0u8; 16]; WIDE];
            for (slot, k) in ks.iter_mut().zip(self.keystream8(&mut ctr)) {
                store(slot, k);
            }
            for (b, k) in tail.iter_mut().zip(ks.as_flattened()) {
                *b ^= k;
            }
        }
    }

    /// One aggregated GHASH step over up to eight blocks:
    /// `(y ^ B1)·Hⁿ ^ B2·Hⁿ⁻¹ ^ … ^ Bn·H`, reduced once.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn fold(&self, mut y: __m128i, blocks: &[[u8; 16]]) -> __m128i {
        let mut product = Product::zero();
        for (block, h) in blocks.iter().zip(self.h_pow[..blocks.len()].iter().rev()) {
            // The running digest joins the first block only.
            let x = _mm_xor_si128(byte_reverse(load(block)), y);
            y = _mm_setzero_si128();
            product.add_mul(x, load(h));
        }
        product.reduce()
    }

    /// Fold `data`, zero-padded to a block boundary, into the GHASH
    /// accumulator `y`.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb(&self, mut y: __m128i, data: &[u8]) -> __m128i {
        let (blocks, partial) = data.as_chunks::<16>();
        for group in blocks.chunks(WIDE) {
            y = self.fold(y, group);
        }
        if !partial.is_empty() {
            let mut padded = [0u8; 16];
            padded[..partial.len()].copy_from_slice(partial);
            y = self.fold(y, &[padded]);
        }
        y
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn tag_hw(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut y = self.absorb(_mm_setzero_si128(), aad);
        y = self.absorb(y, ciphertext);
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64 * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64 * 8).to_be_bytes());
        let s = byte_reverse(self.fold(y, &[lengths]));

        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        let mut tag = [0u8; 16];
        store(&mut tag, _mm_xor_si128(s, self.encrypt_block(load(&j0))));
        tag
    }
}

impl Drop for AesNiGcm {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// An unreduced 256-bit carry-less product (or a sum of them), kept
/// as the three partial products of the schoolbook split.
struct Product {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

impl Product {
    #[target_feature(enable = "pclmulqdq")]
    fn zero() -> Self {
        let z = _mm_setzero_si128();
        Product {
            lo: z,
            mid: z,
            hi: z,
        }
    }

    /// `self += a · b` over GF(2)[x], no reduction.
    #[target_feature(enable = "pclmulqdq")]
    fn add_mul(&mut self, a: __m128i, b: __m128i) {
        self.lo = _mm_xor_si128(self.lo, _mm_clmulepi64_si128::<0x00>(a, b));
        self.hi = _mm_xor_si128(self.hi, _mm_clmulepi64_si128::<0x11>(a, b));
        self.mid = _mm_xor_si128(self.mid, _mm_clmulepi64_si128::<0x10>(a, b));
        self.mid = _mm_xor_si128(self.mid, _mm_clmulepi64_si128::<0x01>(a, b));
    }

    /// POLYVAL's Montgomery reduction: the product times x⁻¹²⁸ modulo
    /// x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1, as two folds of the low half by
    /// the polynomial's top word.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(self) -> __m128i {
        let poly = _mm_set_epi64x(0, 0xc200_0000_0000_0000_u64 as i64);
        let lo = _mm_xor_si128(self.lo, _mm_slli_si128::<8>(self.mid));
        let hi = _mm_xor_si128(self.hi, _mm_srli_si128::<8>(self.mid));
        let fold = |v: __m128i| {
            _mm_xor_si128(
                _mm_shuffle_epi32::<0x4e>(v),
                _mm_clmulepi64_si128::<0x00>(v, poly),
            )
        };
        _mm_xor_si128(hi, fold(fold(lo)))
    }
}

/// Reverse the 16 bytes: GHASH's block order to POLYVAL's and back.
#[target_feature(enable = "ssse3")]
fn byte_reverse(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: SSE2 is part of the x86_64 baseline, so this needs no
    // detection; `bytes` is 16 readable bytes and the load is the
    // unaligned form.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

#[inline(always)]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: SSE2 is part of the x86_64 baseline, so this needs no
    // detection; `bytes` is 16 writable bytes and the store is the
    // unaligned form.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;

    /// The backend under test, or `None` (test passes vacuously, with
    /// a note) on a CPU without the instructions.
    fn hw(key: &[u8]) -> Option<AesNiGcm> {
        let hw = AesNiGcm::new(key);
        if hw.is_none() {
            eprintln!("skipped: no AES-NI/PCLMULQDQ/SSSE3 on this CPU");
        }
        hw
    }

    #[test]
    fn unsupported_key_lengths_fall_through() {
        for len in [0usize, 15, 17, 24, 31, 33] {
            assert!(AesNiGcm::new(&vec![1u8; len]).is_none(), "len {len}");
        }
    }

    // FIPS 197 appendix C.1 / C.3 through the hardware schedule.
    #[test]
    fn fips197_single_block() {
        let pt: [u8; 16] = std::array::from_fn(|i| (i * 0x11) as u8);
        let cases: [(usize, [u8; 16]); 2] = [
            (
                16,
                [
                    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                    0xb4, 0xc5, 0x5a,
                ],
            ),
            (
                32,
                [
                    0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b,
                    0x49, 0x60, 0x89,
                ],
            ),
        ];
        for (key_len, expected) in cases {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let Some(hw) = hw(&key) else { return };
            let mut out = [0u8; 16];
            // SAFETY: `hw` exists, so detection succeeded.
            store(&mut out, unsafe { hw.encrypt_block(load(&pt)) });
            assert_eq!(out, expected, "AES-{}", key_len * 8);
        }
    }

    // inc32 wraps inside the low 32 bits and never carries into the
    // nonce; both backends must agree across the wrap, on the
    // eight-wide path and on the tail.
    #[test]
    fn ctr_inc32_wraps_like_the_portable_path() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0001_AC32);
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let Some(hw) = hw(&key) else { return };
            let portable = Aes::new(&key).unwrap();
            let nonce = [0xffu8; 12];
            for counter0 in [u32::MAX - 11, u32::MAX - 7, u32::MAX - 3, u32::MAX, 0, 2] {
                for len in [0usize, 1, 16, 100, 128, 129, 8 * 128 + 17] {
                    let mut a = vec![0u8; len];
                    rng.fill(&mut a);
                    let mut b = a.clone();
                    hw.ctr_xor(&nonce, counter0, &mut a);
                    portable.ctr_xor(&nonce, counter0, &mut b);
                    assert_eq!(a, b, "AES-{} counter0 {counter0:#x} len {len}", key_len * 8);
                }
            }
        }
    }

    #[test]
    fn drop_wipes_round_keys_and_h_powers() {
        let Some(hw) = hw(&[0x5au8; 32]) else { return };
        ct::assert_wipes(hw, AesNiGcm::wipe, |k| {
            vec![
                k.round_keys.as_flattened().to_vec(),
                k.h_pow.as_flattened().to_vec(),
            ]
        });
    }
}
