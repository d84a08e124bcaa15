//! AES-GCM on the x86_64 AES-NI and PCLMULQDQ instructions, and on
//! their 256-bit VAES and VPCLMULQDQ forms where the CPU has them.
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
//! * **The wide loops** ([`Width::Sixteen`]) run the same two bulk
//!   loops on 256-bit registers, two blocks to a register: CTR as
//!   eight chains of `VAESENC`, sixteen counter blocks per pass, and
//!   GHASH as `VPCLMULQDQ` over H¹..H¹⁶, sixteen blocks per
//!   reduction — the GHASH chain is latency-bound, and folding sixteen
//!   blocks at a time halves the reductions on it. Only H¹..H⁸ are
//!   stored: an input of sixteen blocks or more derives H⁹..H¹⁶ as
//!   H⁸·Hᵏ on the stack for that call and wipes them before it
//!   returns, so a key is no larger than on the eight-wide loops.
//!   Everything else is shared: key expansion, the stored powers, tag
//!   finalisation, and every input shorter than one wide pass (the
//!   tail of a longer one included), which takes the eight-wide loops
//!   with the counter advanced past the blocks already done.
//!
//! # Soundness
//!
//! Every function that executes an AES-NI, PCLMULQDQ, SSSE3, AVX2,
//! VAES or VPCLMULQDQ instruction is private and carries
//! `#[target_feature]` for features [`detect`] tests. The only way to
//! obtain an [`AesNiGcm`] is [`AesNiGcm::with_width`] (which
//! [`AesNiGcm::new`] calls), which returns `None` unless [`detect`]
//! reports the width asked for or a wider one, and the value cannot
//! be cloned, so holding a `&AesNiGcm` is proof that detection
//! succeeded on this CPU. Its `width` field is private, set only
//! there, after that check, and never changed, and it guards every
//! call into the 256-bit loops: a key holds [`Width::Sixteen`] only
//! if the CPU reported VAES, VPCLMULQDQ and AVX2. The `unsafe` blocks
//! that enter the feature-gated functions rely on that and nothing
//! else; the remaining four are unaligned SSE2 and AVX loads/stores
//! through 16- and 32-byte array references.

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_aesenc_epi128, _mm256_aesenclast_epi128,
    _mm256_broadcastsi128_si256, _mm256_castsi256_si128, _mm256_clmulepi64_epi128,
    _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_set_epi32, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_storeu_si256, _mm256_xor_si256, _mm256_zextsi128_si256,
    _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

use crate::ct;

/// Round keys AES-256 needs (14 rounds plus the whitening key);
/// AES-128 uses the first 11 slots.
const MAX_ROUND_KEYS: usize = 15;

/// Blocks per interleaved CTR pass and per GHASH reduction of the
/// eight-wide loops; the stored GHASH key powers; and the 256-bit
/// registers, two blocks each, of one wide pass.
const WIDE: usize = 8;

/// Bytes per pass of the 256-bit loops.
const WIDE_PASS: usize = 2 * WIDE * 16;

/// Which pair of bulk loops (CTR and GHASH) a key runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd)]
pub(crate) enum Width {
    /// 128-bit `AESENC` and `PCLMULQDQ`, eight blocks per pass.
    Eight,
    /// 256-bit `VAESENC` and `VPCLMULQDQ`, sixteen blocks per pass.
    Sixteen,
}

/// The widest loops this CPU runs: `None` without AES-NI, PCLMULQDQ
/// or SSSE3, [`Width::Sixteen`] when it also has VAES, VPCLMULQDQ and
/// AVX2. (SSE2, which the rest of the intrinsics need, is part of the
/// x86_64 baseline.)
pub(crate) fn detect() -> Option<Width> {
    use std::arch::is_x86_feature_detected;
    if !(is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("ssse3"))
    {
        return None;
    }
    if is_x86_feature_detected!("vaes")
        && is_x86_feature_detected!("vpclmulqdq")
        && is_x86_feature_detected!("avx2")
    {
        Some(Width::Sixteen)
    } else {
        Some(Width::Eight)
    }
}

/// One AES-GCM key expanded for the hardware path: the AES round keys
/// and the GHASH key powers, stored inline as plain bytes.
// lint:secret
pub(crate) struct AesNiGcm {
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    /// `h_pow[k]` is H^(k+1) in the byte-reversed (POLYVAL) domain.
    h_pow: [[u8; 16]; WIDE],
    /// 10 (AES-128) or 14 (AES-256).
    rounds: u8,
    /// The bulk loops; see the module's soundness note.
    width: Width,
}

impl AesNiGcm {
    /// Expand a 16- or 32-byte key for the widest loops this CPU runs.
    /// `None` when the CPU lacks AES-NI, PCLMULQDQ or SSSE3, or the key
    /// is neither length — the caller falls back to the portable
    /// backend, which reports the latter.
    pub(crate) fn new(key: &[u8]) -> Option<Self> {
        Self::with_width(key, detect()?)
    }

    /// [`AesNiGcm::new`] on the loops of `width`: `None` as there, and
    /// also when this CPU cannot run that width.
    pub(crate) fn with_width(key: &[u8], width: Width) -> Option<Self> {
        if detect()? < width {
            return None;
        }
        let mut this = AesNiGcm {
            round_keys: [[0; 16]; MAX_ROUND_KEYS],
            h_pow: [[0; 16]; WIDE],
            rounds: 0,
            width,
        };
        // SAFETY: `detect()` returned a width just above, so the CPU
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
        let wide_len = match self.width {
            Width::Sixteen => data.len() - data.len() % WIDE_PASS,
            Width::Eight => 0,
        };
        let (wide, tail) = data.split_at_mut(wide_len);
        if matches!(self.width, Width::Sixteen) && !wide.is_empty() {
            // SAFETY: `with_width` builds a `Width::Sixteen` key only
            // after `detect()` reported VAES, VPCLMULQDQ and AVX2 on
            // this CPU.
            unsafe { self.ctr_xor_wide(nonce, counter0, wide) }
        }
        // inc32 counts modulo 2³², so truncating the block count is
        // exactly the counter the tail starts from.
        let counter = counter0.wrapping_add((wide_len / 16) as u32);
        // SAFETY: `self` exists, so `with_width` saw `detect()` report
        // AES-NI on this CPU (see the module's soundness note).
        unsafe { self.ctr_xor_hw(nonce, counter, tail) }
    }

    /// The GCM tag over `aad` and `ciphertext`:
    /// `GHASH(aad, ciphertext) ^ E(nonce || 1)`.
    pub(crate) fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists, so `with_width` saw `detect()` report
        // AES-NI on this CPU (see the module's soundness note).
        unsafe { self.tag_hw(nonce, aad, ciphertext) }
    }

    fn wipe(&mut self) {
        ct::zeroize(self.round_keys.as_flattened_mut());
        ct::zeroize(self.h_pow.as_flattened_mut());
    }

    /// The last round key's index.
    fn rounds(&self) -> usize {
        usize::from(self.rounds)
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
    /// [`Self::keystream8`] and [`Self::ctr_xor_wide`]).
    #[target_feature(enable = "aes")]
    fn encrypt_block(&self, block: __m128i) -> __m128i {
        let mut b = _mm_xor_si128(block, load(&self.round_keys[0]));
        for rk in &self.round_keys[1..self.rounds()] {
            b = _mm_aesenc_si128(b, load(rk));
        }
        _mm_aesenclast_si128(b, load(&self.round_keys[self.rounds()]))
    }

    /// Eight keystream blocks for the counters in `*ctr`, which is
    /// advanced by eight. `*ctr` holds the counter block with its
    /// last four bytes little-endian.
    #[target_feature(enable = "aes,ssse3")]
    fn keystream8(&self, ctr: &mut __m128i) -> [__m128i; WIDE] {
        let one = _mm_set_epi32(1, 0, 0, 0);
        let rk0 = load(&self.round_keys[0]);
        let mut b = [_mm_setzero_si128(); WIDE];
        for x in b.iter_mut() {
            *x = _mm_xor_si128(_mm_shuffle_epi8(*ctr, to_wire()), rk0);
            *ctr = _mm_add_epi32(*ctr, one);
        }
        for rk in &self.round_keys[1..self.rounds()] {
            let rk = load(rk);
            for x in b.iter_mut() {
                *x = _mm_aesenc_si128(*x, rk);
            }
        }
        let last = load(&self.round_keys[self.rounds()]);
        for x in b.iter_mut() {
            *x = _mm_aesenclast_si128(*x, last);
        }
        b
    }

    #[target_feature(enable = "aes,ssse3")]
    fn ctr_xor_hw(&self, nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
        let mut ctr = load(&counter_block(nonce, counter0));
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

    /// CTR over `data`, a whole number of [`WIDE_PASS`]-byte passes,
    /// sixteen counter blocks per pass: eight registers of two
    /// consecutive counters, each an independent `VAESENC` chain.
    #[target_feature(enable = "aes,ssse3,avx2,vaes")]
    fn ctr_xor_wide(&self, nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
        let to_wire = _mm256_broadcastsi128_si256(to_wire());
        // The upper lane runs one counter ahead of the lower one, and
        // both step by two: `inc32` wraps inside each lane's top word.
        let mut ctr = _mm256_add_epi32(
            _mm256_broadcastsi128_si256(load(&counter_block(nonce, counter0))),
            _mm256_set_epi32(1, 0, 0, 0, 0, 0, 0, 0),
        );
        let step = _mm256_set_epi32(2, 0, 0, 0, 2, 0, 0, 0);
        let round_key = |i: usize| _mm256_broadcastsi128_si256(load(&self.round_keys[i]));
        for pass in data.as_chunks_mut::<WIDE_PASS>().0 {
            let mut b = [_mm256_setzero_si256(); WIDE];
            let rk0 = round_key(0);
            for x in b.iter_mut() {
                *x = _mm256_xor_si256(_mm256_shuffle_epi8(ctr, to_wire), rk0);
                ctr = _mm256_add_epi32(ctr, step);
            }
            for i in 1..self.rounds() {
                let rk = round_key(i);
                for x in b.iter_mut() {
                    *x = _mm256_aesenc_epi128(*x, rk);
                }
            }
            let last = round_key(self.rounds());
            for (seg, x) in pass.as_chunks_mut::<32>().0.iter_mut().zip(b) {
                let ks = _mm256_aesenclast_epi128(x, last);
                store256(seg, _mm256_xor_si256(load256(seg), ks));
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
    fn absorb(&self, mut y: __m128i, mut data: &[u8]) -> __m128i {
        let (passes, rest) = data.as_chunks::<WIDE_PASS>();
        if matches!(self.width, Width::Sixteen) && !passes.is_empty() {
            // SAFETY: a `Width::Sixteen` key exists only where
            // `detect()` reported VAES, VPCLMULQDQ and AVX2 (see the
            // module's soundness note).
            y = unsafe { self.absorb_wide(y, passes) };
            data = rest;
        }
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

    /// Fold whole [`WIDE_PASS`]-byte passes into `y`, sixteen blocks
    /// per reduction: `(y ^ B1)·H¹⁶ ^ B2·H¹⁵ ^ … ^ B16·H`, two blocks
    /// to a register. H⁹..H¹⁶ are derived for this call only and wiped
    /// before it returns.
    #[target_feature(enable = "pclmulqdq,ssse3,avx2,vpclmulqdq")]
    fn absorb_wide(&self, mut y: __m128i, passes: &[[u8; WIDE_PASS]]) -> __m128i {
        // `powers[i]` is H^(16-i), so register `j` of a pass — blocks
        // 2j+1 and 2j+2 — meets H^(16-2j) and H^(15-2j) in the same
        // lanes.
        let mut powers = [[0u8; 16]; 2 * WIDE];
        let (derived, stored) = powers.split_at_mut(WIDE);
        let h8 = load(&self.h_pow[WIDE - 1]);
        for ((high, low), h) in derived.iter_mut().zip(stored).zip(self.h_pow.iter().rev()) {
            let mut product = Product::zero();
            product.add_mul(h8, load(h));
            store(high, product.reduce());
            *low = *h;
        }
        let reverse = _mm256_broadcastsi128_si256(reverse_bytes());
        let (h_pairs, _) = powers.as_flattened().as_chunks::<32>();
        for pass in passes {
            let mut product = WideProduct::zero();
            // The running digest joins the first block only.
            let mut digest = _mm256_zextsi128_si256(y);
            for (pair, h) in pass.as_chunks::<32>().0.iter().zip(h_pairs) {
                let x = _mm256_xor_si256(_mm256_shuffle_epi8(load256(pair), reverse), digest);
                digest = _mm256_setzero_si256();
                product.add_mul(x, load256(h));
            }
            y = product.sum_lanes().reduce();
        }
        ct::zeroize(powers.as_flattened_mut());
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

/// The counter block `nonce || counter` with the counter's four bytes
/// little-endian, as the CTR loops keep it (`PSHUFB` by [`to_wire`]
/// gives the wire form).
fn counter_block(nonce: &[u8; 12], counter: u32) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(nonce);
    block[12..].copy_from_slice(&counter.to_le_bytes());
    block
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

/// [`Product`] in each 128-bit lane of a 256-bit register: two sums of
/// products side by side, added together only at the end.
struct WideProduct {
    lo: __m256i,
    mid: __m256i,
    hi: __m256i,
}

impl WideProduct {
    #[target_feature(enable = "avx2")]
    fn zero() -> Self {
        let z = _mm256_setzero_si256();
        WideProduct {
            lo: z,
            mid: z,
            hi: z,
        }
    }

    /// `self += a · b` lane by lane, no reduction.
    #[target_feature(enable = "avx2,vpclmulqdq")]
    fn add_mul(&mut self, a: __m256i, b: __m256i) {
        self.lo = _mm256_xor_si256(self.lo, _mm256_clmulepi64_epi128::<0x00>(a, b));
        self.hi = _mm256_xor_si256(self.hi, _mm256_clmulepi64_epi128::<0x11>(a, b));
        self.mid = _mm256_xor_si256(self.mid, _mm256_clmulepi64_epi128::<0x10>(a, b));
        self.mid = _mm256_xor_si256(self.mid, _mm256_clmulepi64_epi128::<0x01>(a, b));
    }

    /// The two lanes' products added into one.
    #[target_feature(enable = "avx2")]
    fn sum_lanes(self) -> Product {
        #[target_feature(enable = "avx2")]
        fn sum(v: __m256i) -> __m128i {
            _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
        }
        Product {
            lo: sum(self.lo),
            mid: sum(self.mid),
            hi: sum(self.hi),
        }
    }
}

/// `PSHUFB` mask from the CTR loops' counter block to the wire's:
/// identity on the nonce bytes, byte swap of the counter lane.
#[target_feature(enable = "ssse3")]
fn to_wire() -> __m128i {
    _mm_set_epi8(12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
}

/// `PSHUFB` mask reversing all 16 bytes: GHASH's block order to
/// POLYVAL's and back.
#[target_feature(enable = "ssse3")]
fn reverse_bytes() -> __m128i {
    _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
}

#[target_feature(enable = "ssse3")]
fn byte_reverse(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(v, reverse_bytes())
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

#[target_feature(enable = "avx")]
fn load256(bytes: &[u8; 32]) -> __m256i {
    // SAFETY: the caller runs with AVX enabled (the target feature
    // above); `bytes` is 32 readable bytes and the load is the
    // unaligned form.
    unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
}

#[target_feature(enable = "avx")]
fn store256(bytes: &mut [u8; 32], v: __m256i) {
    // SAFETY: the caller runs with AVX enabled (the target feature
    // above); `bytes` is 32 writable bytes and the store is the
    // unaligned form.
    unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;
    use crate::gcm::AesGcm;

    const WIDTHS: [Width; 2] = [Width::Eight, Width::Sixteen];

    /// The backend under test on the loops of `width`, or `None` (test
    /// passes vacuously, with a note) on a CPU without the
    /// instructions.
    fn hw(key: &[u8], width: Width) -> Option<AesNiGcm> {
        let hw = AesNiGcm::with_width(key, width);
        if hw.is_none() {
            eprintln!("skipped: this CPU cannot run the {width:?} loops");
        }
        hw
    }

    #[test]
    fn unsupported_key_lengths_fall_through() {
        for len in [0usize, 15, 17, 24, 31, 33] {
            assert!(AesNiGcm::new(&vec![1u8; len]).is_none(), "len {len}");
        }
    }

    // `new` runs the widest loops detection reports, and the key is no
    // larger than the eight-wide backend's was (15 round keys, H¹..H⁸
    // and one word for the round count): H⁹..H¹⁶ are derived per call,
    // and storing them would grow every key.
    #[test]
    fn new_runs_the_detected_width_on_an_eight_power_key() {
        assert_eq!(AesNiGcm::new(&[7u8; 16]).map(|k| k.width), detect());
        assert!(size_of::<AesNiGcm>() <= 16 * (MAX_ROUND_KEYS + WIDE) + size_of::<usize>());
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
            let Some(hw) = hw(&key, Width::Eight) else { return };
            let mut out = [0u8; 16];
            // SAFETY: `hw` exists, so detection succeeded.
            store(&mut out, unsafe { hw.encrypt_block(load(&pt)) });
            assert_eq!(out, expected, "AES-{}", key_len * 8);
        }
    }

    // inc32 wraps inside the low 32 bits and never carries into the
    // nonce; every width must agree with the portable path across the
    // wrap, whether it falls in a wide pass, an eight-wide pass or
    // the tail.
    #[test]
    fn ctr_inc32_wraps_like_the_portable_path() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0001_AC32);
        let nonce = [0xffu8; 12];
        let max = u32::MAX;
        let counters = [max - 255, max - 15, max - 11, max - 7, max - 3, max, 0, 2];
        let lens = [0usize, 1, 16, 100, 128, 129, 256, 257, 8 * 128 + 17, 16 * 256 + 17];
        for width in WIDTHS {
            for key_len in [16usize, 32] {
                let mut key = vec![0u8; key_len];
                rng.fill(&mut key);
                let Some(hw) = hw(&key, width) else { continue };
                let portable = Aes::new(&key).unwrap();
                for counter0 in counters {
                    for len in lens {
                        let mut a = vec![0u8; len];
                        rng.fill(&mut a);
                        let mut b = a.clone();
                        hw.ctr_xor(&nonce, counter0, &mut a);
                        portable.ctr_xor(&nonce, counter0, &mut b);
                        assert_eq!(
                            a,
                            b,
                            "{width:?} AES-{} counter0 {counter0:#x} len {len}",
                            key_len * 8
                        );
                    }
                }
            }
        }
    }

    // Each width seals what the portable backend seals: ciphertext
    // against `Aes::ctr_xor`'s keystream and tag against
    // `AesGcm::portable`, at lengths around one and many wide passes
    // up to a full record, and with AAD and ciphertext lengths on each
    // side of every 16-block boundary up to three passes.
    #[test]
    fn each_width_matches_the_portable_backend() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0016_B10C);
        let nonce = [0x5cu8; 12];
        let lens = [0usize, 255, 256, 257, 511, 512, 513, 4096 + 17, 16_320, 16_384];
        let mut cases: Vec<(usize, usize)> = lens.map(|len| (13, len)).to_vec();
        let around = |pass: usize| [pass * WIDE_PASS - 1, pass * WIDE_PASS, pass * WIDE_PASS + 1];
        let boundaries: Vec<usize> = (1..=3).flat_map(around).chain([0, 1]).collect();
        for &aad_len in &boundaries {
            cases.extend(boundaries.iter().map(|&len| (aad_len, len)));
        }
        for width in WIDTHS {
            for key_len in [16usize, 32] {
                let mut key = vec![0u8; key_len];
                rng.fill(&mut key);
                let Some(hw) = hw(&key, width) else { continue };
                let portable = AesGcm::portable(&key).unwrap();
                for &(aad_len, len) in &cases {
                    let mut aad = vec![0u8; aad_len];
                    let mut data = vec![0u8; len];
                    rng.fill(&mut aad);
                    rng.fill(&mut data);
                    let expected = portable.seal(&nonce, &aad, &data).unwrap();
                    hw.ctr_xor(&nonce, 2, &mut data);
                    let tag = hw.tag(&nonce, &aad, &data);
                    let case = format!("{width:?} AES-{} aad {aad_len} len {len}", key_len * 8);
                    assert_eq!(data[..], expected[..len], "{case}: ciphertext");
                    assert_eq!(tag[..], expected[len..], "{case}: tag");
                }
            }
        }
    }

    #[test]
    fn drop_wipes_round_keys_and_h_powers() {
        let Some(hw) = hw(&[0x5au8; 32], Width::Eight) else { return };
        ct::assert_wipes(hw, AesNiGcm::wipe, |k| {
            vec![
                k.round_keys.as_flattened().to_vec(),
                k.h_pow.as_flattened().to_vec(),
            ]
        });
    }
}
