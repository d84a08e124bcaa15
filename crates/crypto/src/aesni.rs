//! AES-GCM on the x86_64 AES-NI and PCLMULQDQ instructions, and on
//! their 256- and 512-bit VAES and VPCLMULQDQ forms where the CPU has
//! them.
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
//!   Each pass reads its blocks from a source and stores them XOR
//!   keystream to a destination ([`crate::gcm::Blocks`]); in place
//!   the two are one buffer, so each width has one CTR loop.
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
//! * **The stitched loop** ([`Width::ThirtyTwo`]) runs CTR and GHASH
//!   as one loop on 512-bit registers, four blocks to a register, for
//!   a seal or an open ([`AesNiGcm::crypt`]): each pass encrypts
//!   thirty-two counter blocks as eight chains of `VAESENC` and, in
//!   the same loop, folds the previous pass's ciphertext (a seal's
//!   output, an open's input) into GHASH as two sixteen-block
//!   reductions over the same derived H¹..H¹⁶. The AES rounds and the
//!   carry-less multiplies run on different execution ports, so the
//!   hash is nearly free beside the cipher, and each byte is read
//!   once. The last, partial pass of an input takes its keystream from
//!   one more pass of the same loop and is hashed as one or two
//!   zero-padded sixteen-block groups: falling through to the
//!   narrower loops instead cost a 16 KiB record a sixth of its time.
//!   An input shorter than one pass takes the sixteen-wide loops, as
//!   two passes, so a short record never wakes the 512-bit units.
//! * **The tag-only loop** ([`Width::ThirtyTwo`]) hashes a tag check
//!   without decryption ([`AesNiGcm::tag`]) on 512-bit registers, four
//!   blocks to a register: each 512-byte group of thirty-two blocks
//!   meets H³²..H¹ and is reduced once, so the digest → reduction
//!   chain, which bounds a GHASH with nothing to stitch it to, runs
//!   once per 512 bytes. H⁹..H³² are derived per call on 512-bit
//!   registers and wiped. Given a destination ([`Apart`]), the loop
//!   stores each register it loads there, so a verified record is
//!   forwarded in the pass that hashes it. AAD, an input shorter than
//!   one group and the tail after the last whole group take the
//!   sixteen- and eight-wide GHASH loops.
//!
//! # Soundness
//!
//! Every function that executes an AES-NI, PCLMULQDQ, SSSE3, AVX2,
//! VAES, VPCLMULQDQ or AVX-512 instruction is private and carries
//! `#[target_feature]` for features [`detect`] tests. The only way to
//! obtain an [`AesNiGcm`] is [`AesNiGcm::with_width`] (which
//! [`AesNiGcm::new`] calls), which returns `None` unless [`detect`]
//! reports the width asked for or a wider one, and the value cannot
//! be cloned, so holding a `&AesNiGcm` is proof that detection
//! succeeded on this CPU. Its `width` field is private, set only
//! there, after that check, and never changed, and it guards every
//! call into the wider loops: a key holds [`Width::Sixteen`] or wider
//! only if the CPU reported VAES, VPCLMULQDQ and AVX2 (the `unsafe`
//! blocks entering `ctr_wide` and `absorb_wide` rely on that), and
//! [`Width::ThirtyTwo`] only if it also reported AVX-512F and
//! AVX-512BW (the ones entering `crypt_stitched` and `absorb_groups`
//! rely on that). The
//! other blocks that enter feature-gated functions (`with_width`,
//! `ctr`, `crypt`, `tag`) rely only on the key existing; the remaining
//! six are unaligned SSE2, AVX and AVX-512 loads/stores through 16-,
//! 32- and 64-byte array references.

use core::arch::x86_64::{
    __m128i, __m256i, __m512i, _mm256_add_epi32, _mm256_aesenc_epi128, _mm256_aesenclast_epi128,
    _mm256_broadcastsi128_si256, _mm256_castsi256_si128, _mm256_clmulepi64_epi128,
    _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_set_epi32, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_storeu_si256, _mm256_xor_si256, _mm256_zextsi128_si256,
    _mm512_add_epi32, _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4,
    _mm512_bslli_epi128, _mm512_bsrli_epi128, _mm512_castsi512_si128, _mm512_castsi512_si256,
    _mm512_clmulepi64_epi128, _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_set_epi32,
    _mm512_setzero_si512, _mm512_shuffle_epi32, _mm512_shuffle_epi8, _mm512_storeu_si512,
    _mm512_xor_si512, _mm512_zextsi128_si512, _mm_add_epi32,
    _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_clmulepi64_si128,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

use crate::ct;
use crate::gcm::{Apart, Blocks, Direction};

/// Round keys AES-256 needs (14 rounds plus the whitening key);
/// AES-128 uses the first 11 slots.
const MAX_ROUND_KEYS: usize = 15;

/// Blocks per interleaved CTR pass and per GHASH reduction of the
/// eight-wide loops; the stored GHASH key powers; and the registers,
/// two or four blocks each, of one pass of the wider loops.
const WIDE: usize = 8;

/// Bytes per pass of the 256-bit loops.
const WIDE_PASS: usize = 2 * WIDE * 16;

/// Bytes per pass of the 512-bit stitched loop, and per group (one
/// reduction) of the 512-bit tag-only loop.
const STITCHED_PASS: usize = 4 * WIDE * 16;

/// Which bulk loops (CTR and GHASH) a key runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd)]
pub(crate) enum Width {
    /// 128-bit `AESENC` and `PCLMULQDQ`, eight blocks per pass.
    Eight,
    /// 256-bit `VAESENC` and `VPCLMULQDQ`, sixteen blocks per pass.
    Sixteen,
    /// 512-bit `VAESENC` and `VPCLMULQDQ` stitched into one loop,
    /// thirty-two blocks per pass, for seals and opens of at least one
    /// pass, and 512-bit `VPCLMULQDQ` alone, thirty-two blocks per
    /// reduction, for tag checks of at least one pass; shorter ones and
    /// CTR alone as [`Width::Sixteen`].
    ThirtyTwo,
}

/// The widest loops this CPU runs: `None` without AES-NI, PCLMULQDQ
/// or SSSE3, [`Width::Sixteen`] when it also has VAES, VPCLMULQDQ and
/// AVX2, [`Width::ThirtyTwo`] when it has AVX-512F and AVX-512BW on
/// top. (SSE2, which the rest of the intrinsics need, is part of the
/// x86_64 baseline.)
pub(crate) fn detect() -> Option<Width> {
    use std::arch::is_x86_feature_detected;
    if !(is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("ssse3"))
    {
        return None;
    }
    if !(is_x86_feature_detected!("vaes")
        && is_x86_feature_detected!("vpclmulqdq")
        && is_x86_feature_detected!("avx2"))
    {
        return Some(Width::Eight);
    }
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
        Some(Width::ThirtyTwo)
    } else {
        Some(Width::Sixteen)
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

    /// The GCM CTR keystream from `counter0` over `blocks`, in place or
    /// from a source into a destination: whole 256-bit passes first on
    /// a [`Width::Sixteen`] or wider key, the rest on the eight-wide
    /// loop.
    pub(crate) fn ctr(&self, nonce: &[u8; 12], counter0: u32, blocks: &mut impl Blocks) {
        let wide_len = match self.width {
            Width::Sixteen | Width::ThirtyTwo => blocks.len() - blocks.len() % WIDE_PASS,
            Width::Eight => 0,
        };
        if wide_len > 0 {
            // SAFETY: `with_width` builds a `Width::Sixteen` or wider
            // key only after `detect()` reported VAES, VPCLMULQDQ and
            // AVX2 on this CPU, and only such a key has a nonzero
            // `wide_len`.
            unsafe { self.ctr_wide(nonce, counter0, blocks, wide_len) }
        }
        // inc32 counts modulo 2³², so truncating the block count is
        // exactly the counter the tail starts from.
        let counter = counter0.wrapping_add((wide_len / 16) as u32);
        // SAFETY: `self` exists, so `with_width` saw `detect()` report
        // AES-NI on this CPU (see the module's soundness note).
        unsafe { self.ctr_hw(nonce, counter, blocks, wide_len) }
    }

    /// Seal or open `blocks` (CTR from `counter0`) and return the tag
    /// over `aad` and the ciphertext — the destination when sealing,
    /// the source when opening: `GHASH(aad, ciphertext) ^ E(nonce ||
    /// 1)`, GCM's own when `counter0` is 2. A [`Width::ThirtyTwo`] key
    /// runs an input of one 512-byte pass or more through the stitched
    /// loop, which reads each byte once; anything else is a CTR pass
    /// and a GHASH pass.
    pub(crate) fn crypt(
        &self,
        nonce: &[u8; 12],
        counter0: u32,
        aad: &[u8],
        blocks: &mut impl Blocks,
        dir: Direction,
    ) -> [u8; 16] {
        // SAFETY: `self` exists, so `with_width` saw `detect()` report
        // AES-NI on this CPU (see the module's soundness note).
        unsafe { self.crypt_hw(nonce, counter0, aad, blocks, dir) }
    }

    /// The GCM tag over `aad` and `ciphertext`:
    /// `GHASH(aad, ciphertext) ^ E(nonce || 1)`. With `copy`, an
    /// [`Apart`] from `ciphertext`, also write `ciphertext` through it:
    /// on a [`Width::ThirtyTwo`] key, each whole 512-byte group as the
    /// hash loads it.
    pub(crate) fn tag(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        copy: Option<&mut Apart>,
    ) -> [u8; 16] {
        // SAFETY: `self` exists, so `with_width` saw `detect()` report
        // AES-NI on this CPU (see the module's soundness note).
        unsafe { self.tag_hw(nonce, aad, ciphertext, copy) }
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
            let mut product = Product::<__m128i>::zero();
            product.add_mul(acc, h1);
            acc = product.reduce();
            store(slot, acc);
        }
    }

    /// H¹⁶ down to H¹ into `powers`, for the sixteen-block folds:
    /// H⁹..H¹⁶ derived as H⁸·Hᵏ, H¹..H⁸ copied from the key. The caller
    /// wipes them when it is done.
    #[target_feature(enable = "pclmulqdq")]
    fn powers16(&self, powers: &mut [[u8; 16]; 2 * WIDE]) {
        let (derived, stored) = powers.split_at_mut(WIDE);
        let h8 = load(&self.h_pow[WIDE - 1]);
        for ((high, low), h) in derived.iter_mut().zip(stored).zip(self.h_pow.iter().rev()) {
            let mut product = Product::<__m128i>::zero();
            product.add_mul(h8, load(h));
            store(high, product.reduce());
            *low = *h;
        }
    }

    /// H³² down to H¹ into `rows`, four to a row, for the tag-only
    /// loop: H¹..H⁸ copied from the key, then H⁹..H¹⁶ as H⁸·Hᵏ and
    /// H¹⁷..H³² as H¹⁶·Hᵏ, four products to a 512-bit multiply. The
    /// caller wipes them when it is done.
    #[target_feature(enable = "pclmulqdq,avx2,avx512f,avx512bw,vpclmulqdq")]
    fn powers32(&self, rows: &mut [[u8; 64]; WIDE]) {
        // Rows 0..4 take H³²..H¹⁷, rows 4..6 H¹⁶..H⁹, rows 6..8 H⁸..H¹.
        let (upper, stored) = rows.split_at_mut(WIDE - 2);
        let (slots, _) = stored.as_flattened_mut().as_chunks_mut::<16>();
        for (slot, h) in slots.iter_mut().zip(self.h_pow.iter().rev()) {
            *slot = *h;
        }
        mul_rows(load(&self.h_pow[WIDE - 1]), stored, &mut upper[WIDE - 4..]);
        let (upper, lower) = rows.split_at_mut(WIDE - 4);
        let h16 = _mm512_castsi512_si128(load512(&lower[0]));
        mul_rows(h16, lower, upper);
    }

    /// Encrypt one block (H and the tag mask; bulk work goes through
    /// the CTR loops).
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

    /// The eight-wide CTR loop over `blocks` from byte `from` to the
    /// end, eight blocks per pass.
    #[target_feature(enable = "aes,ssse3")]
    fn ctr_hw(&self, nonce: &[u8; 12], counter0: u32, blocks: &mut impl Blocks, from: usize) {
        let mut ctr = load(&counter_block(nonce, counter0));
        let whole = from + (blocks.len() - from) / (16 * WIDE) * (16 * WIDE);
        for pass in (from..whole).step_by(16 * WIDE) {
            let ks = self.keystream8(&mut ctr);
            blocks.pass::<{ 16 * WIDE }, 16>(pass, |i, block| {
                let mut out = [0u8; 16];
                store(&mut out, _mm_xor_si128(load(block), ks[i]));
                out
            });
        }
        if whole < blocks.len() {
            // A full eight-wide pass costs about one block's latency,
            // so the tail takes it too instead of a serial loop.
            let mut ks = [[0u8; 16]; WIDE];
            for (slot, k) in ks.iter_mut().zip(self.keystream8(&mut ctr)) {
                store(slot, k);
            }
            blocks.xor_tail(whole, ks.as_flattened());
        }
    }

    /// The sixteen-wide CTR loop over the first `len` bytes of `blocks`,
    /// a whole number of [`WIDE_PASS`]-byte passes, sixteen counter
    /// blocks per pass: eight registers of two consecutive counters,
    /// each an independent `VAESENC` chain.
    #[target_feature(enable = "aes,ssse3,avx2,vaes")]
    fn ctr_wide(&self, nonce: &[u8; 12], counter0: u32, blocks: &mut impl Blocks, len: usize) {
        let to_wire = _mm256_broadcastsi128_si256(to_wire());
        // The upper lane runs one counter ahead of the lower one, and
        // both step by two: `inc32` wraps inside each lane's top word.
        let mut ctr = _mm256_add_epi32(
            _mm256_broadcastsi128_si256(load(&counter_block(nonce, counter0))),
            _mm256_set_epi32(1, 0, 0, 0, 0, 0, 0, 0),
        );
        let step = _mm256_set_epi32(2, 0, 0, 0, 2, 0, 0, 0);
        let round_key = |i: usize| _mm256_broadcastsi128_si256(load(&self.round_keys[i]));
        for pass in (0..len).step_by(WIDE_PASS) {
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
            blocks.pass::<WIDE_PASS, 32>(pass, |i, pair| {
                let ks = _mm256_aesenclast_epi128(b[i], last);
                let mut out = [0u8; 32];
                store256(&mut out, _mm256_xor_si256(load256(pair), ks));
                out
            });
        }
    }

    /// The stitched loop over `blocks`, thirty-two counter blocks per
    /// [`STITCHED_PASS`]-byte pass from `counter0` on: eight registers
    /// of four consecutive counters, each an independent `VAESENC`
    /// chain, and between their rounds the previous pass's ciphertext
    /// folded into `y`. A last, partial pass takes its keystream from
    /// one more pass of the loop, and its ciphertext is folded as one
    /// or two zero-padded sixteen-block groups. Returns `y` with all
    /// the ciphertext folded in. H⁹..H¹⁶ are derived for this call
    /// only and wiped before it returns.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,avx2,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn crypt_stitched(
        &self,
        nonce: &[u8; 12],
        counter0: u32,
        blocks: &mut impl Blocks,
        dir: Direction,
        mut y: __m128i,
    ) -> __m128i {
        let mut powers = [[0u8; 16]; 2 * WIDE];
        self.powers16(&mut powers);
        let (h, _) = powers.as_flattened().as_chunks::<64>();
        let to_wire = _mm512_broadcast_i32x4(to_wire());
        // Lane k runs k counters ahead of lane 0 and all four step by
        // four: `inc32` wraps inside each lane's top word.
        let mut ctr = _mm512_add_epi32(
            _mm512_broadcast_i32x4(load(&counter_block(nonce, counter0))),
            _mm512_set_epi32(3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
        );
        let step = _mm512_set_epi32(4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0);
        let round_key = |i: usize| _mm512_broadcast_i32x4(load(&self.round_keys[i]));
        let len = blocks.len();
        let whole = len - len % STITCHED_PASS;
        // The keystream of a last, partial pass.
        let mut tail = [[0u8; 64]; WIDE];
        // The ciphertext of the pass before, which this pass hashes.
        let mut pending: Option<[__m512i; WIDE]> = None;
        for pass in (0..len).step_by(STITCHED_PASS) {
            let mut b = [_mm512_setzero_si512(); WIDE];
            let rk0 = round_key(0);
            for x in b.iter_mut() {
                *x = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, to_wire), rk0);
                ctr = _mm512_add_epi32(ctr, step);
            }
            for i in 1..self.rounds() {
                let rk = round_key(i);
                for x in b.iter_mut() {
                    *x = _mm512_aesenc_epi128(*x, rk);
                }
                let half = FOLD_AFTER_ROUND.iter().position(|&round| round == i);
                if let (Some(ciphertext), Some(half)) = (&pending, half) {
                    y = fold_quads(y, &ciphertext[4 * half..4 * half + 4], h);
                }
            }
            let last = round_key(self.rounds());
            if pass == whole {
                for (slot, x) in tail.iter_mut().zip(b) {
                    store512(slot, _mm512_aesenclast_epi128(x, last));
                }
                pending = None;
                break;
            }
            let mut ciphertext = [_mm512_setzero_si512(); WIDE];
            blocks.pass::<STITCHED_PASS, 64>(pass, |i, quad| {
                let input = load512(quad);
                let output = _mm512_xor_si512(input, _mm512_aesenclast_epi128(b[i], last));
                ciphertext[i] = match dir {
                    Direction::Seal => output,
                    Direction::Open => input,
                };
                let mut out = [0u8; 64];
                store512(&mut out, output);
                out
            });
            pending = Some(ciphertext);
        }
        for half in pending.iter().flat_map(|last| last.chunks(4)) {
            y = fold_quads(y, half, h);
        }
        let y = blocks.ctr_then_hash(
            dir,
            whole,
            |all| all.xor_tail(whole, tail.as_flattened()),
            |ciphertext| fold_tail(y, ciphertext, h),
        );
        ct::zeroize(powers.as_flattened_mut());
        y
    }

    /// One aggregated GHASH step over up to eight blocks:
    /// `(y ^ B1)·Hⁿ ^ B2·Hⁿ⁻¹ ^ … ^ Bn·H`, reduced once.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn fold(&self, mut y: __m128i, blocks: &[[u8; 16]]) -> __m128i {
        let mut product = Product::<__m128i>::zero();
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
        if self.width >= Width::Sixteen && !passes.is_empty() {
            // SAFETY: a `Width::Sixteen` or wider key exists only where
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
        self.powers16(&mut powers);
        let reverse = _mm256_broadcastsi128_si256(reverse_bytes());
        let (h_pairs, _) = powers.as_flattened().as_chunks::<32>();
        for pass in passes {
            let mut product = Product::<__m256i>::zero();
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

    /// Fold whole [`STITCHED_PASS`]-byte groups into `y`, thirty-two
    /// blocks per reduction: `(y ^ B1)·H³² ^ B2·H³¹ ^ … ^ B32·H`, four
    /// blocks to a register. With `copy`, an [`Apart`] from these same
    /// bytes, each register loaded is also stored through it. H⁹..H³²
    /// are derived for this call only and wiped before it returns.
    #[target_feature(enable = "pclmulqdq,ssse3,avx2,avx512f,avx512bw,vpclmulqdq")]
    fn absorb_groups(
        &self,
        mut y: __m128i,
        groups: &[[u8; STITCHED_PASS]],
        mut copy: Option<&mut Apart>,
    ) -> __m128i {
        let mut powers = [[0u8; 64]; WIDE];
        self.powers32(&mut powers);
        for (at, group) in (0..).step_by(STITCHED_PASS).zip(groups) {
            let mut quads = [_mm512_setzero_si512(); WIDE];
            match copy.as_deref_mut() {
                Some(copy) => copy.pass::<STITCHED_PASS, 64>(at, |i, quad| {
                    quads[i] = load512(quad);
                    let mut out = [0u8; 64];
                    store512(&mut out, quads[i]);
                    out
                }),
                None => {
                    for (x, quad) in quads.iter_mut().zip(group.as_chunks::<64>().0) {
                        *x = load512(quad);
                    }
                }
            }
            y = fold_quads(y, &quads, &powers);
        }
        ct::zeroize(powers.as_flattened_mut());
        y
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn crypt_hw(
        &self,
        nonce: &[u8; 12],
        counter0: u32,
        aad: &[u8],
        blocks: &mut impl Blocks,
        dir: Direction,
    ) -> [u8; 16] {
        let y = self.absorb(_mm_setzero_si128(), aad);
        let y = match self.width {
            // SAFETY: `with_width` builds a `Width::ThirtyTwo` key only
            // after `detect()` reported AVX-512F, AVX-512BW, VAES,
            // VPCLMULQDQ and AVX2 on this CPU.
            Width::ThirtyTwo if blocks.len() >= STITCHED_PASS => unsafe {
                self.crypt_stitched(nonce, counter0, blocks, dir, y)
            },
            _ => blocks.ctr_then_hash(
                dir,
                0,
                |all| self.ctr(nonce, counter0, all),
                |ciphertext| self.absorb(y, ciphertext),
            ),
        };
        self.finish(nonce, y, aad.len(), blocks.len())
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn tag_hw(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        mut copy: Option<&mut Apart>,
    ) -> [u8; 16] {
        let mut y = self.absorb(_mm_setzero_si128(), aad);
        let (groups, rest) = match self.width {
            Width::ThirtyTwo => ciphertext.as_chunks::<STITCHED_PASS>(),
            Width::Eight | Width::Sixteen => (&[][..], ciphertext),
        };
        if !groups.is_empty() {
            // SAFETY: only a `Width::ThirtyTwo` key has whole groups
            // here, and `with_width` builds one only after `detect()`
            // reported AVX-512F, AVX-512BW, VPCLMULQDQ and AVX2 on this
            // CPU.
            y = unsafe { self.absorb_groups(y, groups, copy.as_deref_mut()) };
        }
        let y = self.absorb(y, rest);
        if let Some(copy) = copy {
            copy.copy_rest();
        }
        self.finish(nonce, y, aad.len(), ciphertext.len())
    }

    /// The tag from `y`, the digest of `aad_len` bytes of AAD and
    /// `ct_len` of ciphertext: the lengths block folded in, the result
    /// back in GHASH's byte order and masked with `E(nonce || 1)`.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn finish(&self, nonce: &[u8; 12], y: __m128i, aad_len: usize, ct_len: usize) -> [u8; 16] {
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad_len as u64 * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&(ct_len as u64 * 8).to_be_bytes());
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

/// The AES rounds after which the stitched loop folds the first and
/// the second sixteen blocks of the pass before: one fold early, one
/// late, each within both key sizes' rounds, so the carry-less
/// multiplies issue between the `VAESENC`s instead of ahead of or
/// after all of them. (In-place 16 KiB AES-256 seals on a Sapphire
/// Rapids core, against the two-pass 256-bit loops: all thirty-two
/// blocks folded ahead of the rounds, 1.08×; after them, 1.24×; one
/// register's multiply per round, 1.28×; split like this, 1.35–1.47×.)
const FOLD_AFTER_ROUND: [usize; 2] = [4, 9];

/// Fold n = 4·`quads.len()` blocks, four to a register, into `y`:
/// `(y ^ B1)·Hⁿ ^ B2·Hⁿ⁻¹ ^ … ^ Bn·H`, reduced once. `h` holds Hⁿ down
/// to H¹, four to a 64-byte row, so register `j` meets its four powers
/// in the same lanes: sixteen blocks for the stitched loop, thirty-two
/// for the tag-only one.
#[target_feature(enable = "pclmulqdq,ssse3,avx2,avx512f,avx512bw,vpclmulqdq")]
fn fold_quads(y: __m128i, quads: &[__m512i], h: &[[u8; 64]]) -> __m128i {
    let reverse = _mm512_broadcast_i32x4(reverse_bytes());
    let mut product = Product::<__m512i>::zero();
    // The running digest joins the first block only.
    let mut digest = _mm512_zextsi128_si512(y);
    for (quad, h) in quads.iter().zip(h) {
        let x = _mm512_xor_si512(_mm512_shuffle_epi8(*quad, reverse), digest);
        digest = _mm512_setzero_si512();
        product.add_mul(x, load512(h));
    }
    product.sum_lanes().sum_lanes().reduce()
}

/// Fold `tail`, less than a stitched pass and zero-padded to a block
/// boundary, into `y`: in groups of up to sixteen blocks, each
/// right-aligned in sixteen zero blocks so that a group of m blocks
/// meets H^m..H¹ in [`fold_quads`], with the digest joining its first
/// block.
#[target_feature(enable = "pclmulqdq,ssse3,avx2,avx512f,avx512bw,vpclmulqdq")]
fn fold_tail(mut y: __m128i, tail: &[u8], h: &[[u8; 64]]) -> __m128i {
    for group in tail.chunks(WIDE_PASS) {
        let mut padded = [[0u8; 64]; 4];
        let bytes = padded.as_flattened_mut();
        let at = WIDE_PASS - group.len().div_ceil(16) * 16;
        bytes[at..at + group.len()].copy_from_slice(group);
        let mut digest = [0u8; 16];
        store(&mut digest, byte_reverse(y));
        for (byte, d) in bytes[at..at + 16].iter_mut().zip(digest) {
            *byte ^= d;
        }
        y = fold_quads(_mm_setzero_si128(), &padded.map(|quad| load512(&quad)), h);
    }
    y
}

/// `to[k] = h · from[k]`, four GHASH elements to a row, each product
/// reduced in its own lane.
#[target_feature(enable = "pclmulqdq,avx2,avx512f,avx512bw,vpclmulqdq")]
fn mul_rows(h: __m128i, from: &[[u8; 64]], to: &mut [[u8; 64]]) {
    let h = _mm512_broadcast_i32x4(h);
    for (src, dst) in from.iter().zip(to) {
        let mut product = Product::<__m512i>::zero();
        product.add_mul(load512(src), h);
        store512(dst, product.reduce_lanes());
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
/// as the three partial products of the schoolbook split; on 256- or
/// 512-bit registers, one such sum per 128-bit lane, added together
/// only at the end.
struct Product<V = __m128i> {
    lo: V,
    mid: V,
    hi: V,
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

impl Product<__m256i> {
    #[target_feature(enable = "avx2")]
    fn zero() -> Self {
        let z = _mm256_setzero_si256();
        Product {
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

impl Product<__m512i> {
    #[target_feature(enable = "avx512f")]
    fn zero() -> Self {
        let z = _mm512_setzero_si512();
        Product {
            lo: z,
            mid: z,
            hi: z,
        }
    }

    /// `self += a · b` lane by lane, no reduction.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn add_mul(&mut self, a: __m512i, b: __m512i) {
        self.lo = _mm512_xor_si512(self.lo, _mm512_clmulepi64_epi128::<0x00>(a, b));
        self.hi = _mm512_xor_si512(self.hi, _mm512_clmulepi64_epi128::<0x11>(a, b));
        self.mid = _mm512_xor_si512(self.mid, _mm512_clmulepi64_epi128::<0x10>(a, b));
        self.mid = _mm512_xor_si512(self.mid, _mm512_clmulepi64_epi128::<0x01>(a, b));
    }

    /// [`Product::reduce`] in each of the four lanes.
    #[target_feature(enable = "avx512f,avx512bw,vpclmulqdq")]
    fn reduce_lanes(self) -> __m512i {
        let poly = _mm512_broadcast_i32x4(_mm_set_epi64x(0, 0xc200_0000_0000_0000_u64 as i64));
        let lo = _mm512_xor_si512(self.lo, _mm512_bslli_epi128::<8>(self.mid));
        let hi = _mm512_xor_si512(self.hi, _mm512_bsrli_epi128::<8>(self.mid));
        let fold = |v: __m512i| {
            _mm512_xor_si512(
                _mm512_shuffle_epi32::<0x4e>(v),
                _mm512_clmulepi64_epi128::<0x00>(v, poly),
            )
        };
        _mm512_xor_si512(hi, fold(fold(lo)))
    }

    /// The upper two lanes' products added into the lower two.
    #[target_feature(enable = "avx512f")]
    fn sum_lanes(self) -> Product<__m256i> {
        #[target_feature(enable = "avx512f")]
        fn sum(v: __m512i) -> __m256i {
            _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v))
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

#[target_feature(enable = "avx512f")]
fn load512(bytes: &[u8; 64]) -> __m512i {
    // SAFETY: the caller runs with AVX-512F enabled (the target
    // feature above); `bytes` is 64 readable bytes and the load is the
    // unaligned form.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
fn store512(bytes: &mut [u8; 64], v: __m512i) {
    // SAFETY: the caller runs with AVX-512F enabled (the target
    // feature above); `bytes` is 64 writable bytes and the store is
    // the unaligned form.
    unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), v) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;
    use crate::gcm::{AesGcm, InPlace};

    const WIDTHS: [Width; 3] = [Width::Eight, Width::Sixteen, Width::ThirtyTwo];

    impl AesNiGcm {
        /// XOR the GCM CTR keystream into `data`, in place, through the
        /// loops a seal runs (the stitched one on a
        /// [`Width::ThirtyTwo`] key); same contract as
        /// [`Aes::ctr_xor`], which these tests hold it against.
        fn ctr_xor(&self, nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
            self.crypt(nonce, counter0, &[], &mut InPlace(data), Direction::Seal);
        }
    }

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

    /// `pass`-byte passes: one byte short of, exactly and one byte past
    /// one, two and three of them.
    fn around(pass: usize) -> impl Iterator<Item = usize> {
        (1..=3).flat_map(move |k| [k * pass - 1, k * pass, k * pass + 1])
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
    // wrap, whether it falls in a stitched pass (the first or a later
    // one), a sixteen- or eight-wide pass or the tail.
    #[test]
    fn ctr_inc32_wraps_like_the_portable_path() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0001_AC32);
        let nonce = [0xffu8; 12];
        let max = u32::MAX;
        let counters = [max - 255, max - 47, max - 15, max - 11, max - 7, max - 3, max, 0, 2];
        let lens: Vec<usize> = [0usize, 1, 16, 100, 128, 129, 256, 257, 8 * 128 + 17, 16 * 256 + 17]
            .into_iter()
            .chain(around(STITCHED_PASS))
            .collect();
        for width in WIDTHS {
            for key_len in [16usize, 32] {
                let mut key = vec![0u8; key_len];
                rng.fill(&mut key);
                let Some(hw) = hw(&key, width) else { continue };
                let portable = Aes::new(&key).unwrap();
                for counter0 in counters {
                    for &len in &lens {
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

    // Each width seals what the portable backend seals, and opens it
    // back with the same tag: ciphertext and tag against
    // `AesGcm::portable`, at lengths around one and many passes up to
    // a full record, with AAD lengths on each side of every 16-block
    // boundary up to three 256-bit passes, and ciphertext lengths on
    // each side of every 256- and 512-byte boundary up to three
    // passes, and of a 256-bit pass after each 512-bit one.
    #[test]
    fn each_width_matches_the_portable_backend() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0016_B10C);
        let nonce = [0x5cu8; 12];
        let lens = [0usize, 255, 256, 257, 511, 512, 513, 4096 + 17, 16_320, 16_384];
        let mut cases: Vec<(usize, usize)> = lens.map(|len| (13, len)).to_vec();
        let aad_lens: Vec<usize> = around(WIDE_PASS).chain([0, 1]).collect();
        let after_stitched = (1..=3).flat_map(|k| [k * STITCHED_PASS + 255, k * STITCHED_PASS + 257]);
        let ct_lens: Vec<usize> =
            aad_lens.iter().copied().chain(around(STITCHED_PASS)).chain(after_stitched).collect();
        for &aad_len in &aad_lens {
            cases.extend(ct_lens.iter().map(|&len| (aad_len, len)));
        }
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let portable = AesGcm::portable(&key).unwrap();
            let widths: Vec<AesNiGcm> = WIDTHS.iter().filter_map(|&width| hw(&key, width)).collect();
            for &(aad_len, len) in &cases {
                let mut aad = vec![0u8; aad_len];
                let mut plaintext = vec![0u8; len];
                rng.fill(&mut aad);
                rng.fill(&mut plaintext);
                let expected = portable.seal(&nonce, &aad, &plaintext).unwrap();
                for hw in &widths {
                    let case = format!("{:?} AES-{} aad {aad_len} len {len}", hw.width, key_len * 8);
                    let mut data = plaintext.clone();
                    let tag = hw.crypt(&nonce, 2, &aad, &mut InPlace(&mut data), Direction::Seal);
                    assert_eq!(data[..], expected[..len], "{case}: ciphertext");
                    assert_eq!(tag[..], expected[len..], "{case}: tag");
                    assert_eq!(hw.tag(&nonce, &aad, &data, None), tag, "{case}: tag alone");
                    let opened = hw.crypt(&nonce, 2, &aad, &mut InPlace(&mut data), Direction::Open);
                    assert_eq!(data, plaintext, "{case}: open");
                    assert_eq!(opened, tag, "{case}: open's tag");
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
