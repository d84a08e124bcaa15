//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the bulk data-plane cipher. [`AesGcm`] has two backends
//! and picks one per key from what the CPU reports, nothing else:
//!
//! * **AES-NI + PCLMULQDQ** (`crate::aesni`) wherever x86_64 has
//!   them: hardware AES rounds, carry-less-multiply GHASH, no tables.
//!   Its bulk loops run thirty-two blocks per pass on 512-bit VAES and
//!   VPCLMULQDQ, CTR and GHASH stitched into one loop, where the CPU
//!   also reports those, AVX2, AVX-512F and AVX-512BW; sixteen blocks
//!   per pass on 256-bit registers without the AVX-512 pair; eight on
//!   128-bit registers without VAES. The choice is made per key,
//!   inside the backend, and nothing here sees it.
//! * **Bitsliced**, everywhere else and as the differential oracle
//!   for the hardware path ([`AesGcm::portable`]). CTR runs through
//!   the bitsliced [`Aes`] eight counter blocks per invocation
//!   ([`Aes::ctr_xor`]); GHASH multiplies by the stored powers
//!   H¹..H⁴ of the hash subkey (64 bytes per key, wiped through
//!   [`ct::zeroize`]), four blocks per aggregated reduction:
//!
//!   ```text
//!   Y' = (Y ^ C1)·H⁴  ^  C2·H³  ^  C3·H²  ^  C4·H
//!   ```
//!
//!   Each product is three 64-bit carry-less multiplies (Karatsuba),
//!   each built from integer multiplies of operands whose bits sit
//!   five apart, holes masked out (`clmul`), so GHASH is constant-time
//!   like the AES beside it: no table, and no index or branch that
//!   depends on H or the accumulator. That rests on the CPU's integer
//!   multiply taking the same time for every operand, as it does on
//!   the x86_64 and AArch64 cores this runs on.
//!
//! A seal or an open is one backend call over `Blocks`, the CTR pass
//! with the tag over the ciphertext (`AesGcm::crypt`): the hardware
//! backend's 512-bit loop hashes each pass as it encrypts it, the
//! others run a CTR pass and a GHASH pass. Each CTR loop reads a block
//! of a source and stores that block XOR keystream at the same offset
//! of a destination. In place (`InPlace`) the two are one buffer; the
//! append forms ([`AesGcm::seal_into`], [`AesGcm::open_into`]) read
//! the caller's bytes and write straight into a `Vec`'s spare capacity
//! (`Apart`), so nothing is copied before it is encrypted or
//! decrypted. An open therefore decrypts before its tag is known, and
//! a failed one undoes that: `open_into` zeroes what it wrote and
//! appends nothing, `open_in_place` runs the keystream over the buffer
//! again. [`AesGcm::verify_tag`] alone decrypts nothing.

use std::mem::MaybeUninit;

use crate::aes::Aes;
#[cfg(target_arch = "x86_64")]
use crate::aesni::AesNiGcm;
use crate::{ct, CryptoError};

/// GCM tag length used by TLS (full 16 bytes).
pub const TAG_LEN: usize = 16;

/// Which way a pass over [`Blocks`] runs, and so which of its sides is
/// the ciphertext GHASH reads: the destination when sealing, the
/// source when opening.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Seal,
    Open,
}

/// What one CTR pass runs over. The pass reads each block of a source
/// and writes it, XORed with keystream, at the same offset of a
/// destination, front to back; both backends' CTR loops are written
/// once over this trait.
pub(crate) trait Blocks {
    /// Bytes in the source (the destination is as long).
    fn len(&self) -> usize;
    /// Run the `P`-byte pass at `at`: each `N`-byte block of the
    /// source, with its index in the pass, goes through `f`, and what
    /// `f` returns lands at the same offset of the destination.
    fn pass<const P: usize, const N: usize>(
        &mut self,
        at: usize,
        f: impl FnMut(usize, &[u8; N]) -> [u8; N],
    );
    /// Store the source's bytes from `at` to its end, XORed with as
    /// much of `keystream`, at the same offsets of the destination.
    fn xor_tail(&mut self, at: usize, keystream: &[u8]);
    /// The ciphertext side, as far as it holds bytes: the source when
    /// opening, the destination's bytes written so far when sealing.
    fn ciphertext(&self, dir: Direction) -> &[u8];

    /// The two-pass form of a seal or open from byte `from` on: the
    /// CTR pass `ctr`, and `hash` over the ciphertext — the source,
    /// before the pass, when opening; the destination, after it, when
    /// sealing.
    fn ctr_then_hash<T>(
        &mut self,
        dir: Direction,
        from: usize,
        ctr: impl FnOnce(&mut Self),
        hash: impl FnOnce(&[u8]) -> T,
    ) -> T {
        match dir {
            Direction::Seal => {
                ctr(self);
                hash(&self.ciphertext(dir)[from..])
            }
            Direction::Open => {
                let digest = hash(&self.ciphertext(dir)[from..]);
                ctr(self);
                digest
            }
        }
    }
}

/// A CTR pass whose source and destination are one buffer.
pub(crate) struct InPlace<'a>(pub(crate) &'a mut [u8]);

impl Blocks for InPlace<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn pass<const P: usize, const N: usize>(
        &mut self,
        at: usize,
        mut f: impl FnMut(usize, &[u8; N]) -> [u8; N],
    ) {
        for (i, block) in self.0[at..at + P].as_chunks_mut::<N>().0.iter_mut().enumerate() {
            *block = f(i, block);
        }
    }

    fn xor_tail(&mut self, at: usize, keystream: &[u8]) {
        for (b, k) in self.0[at..].iter_mut().zip(keystream) {
            *b ^= k;
        }
    }

    fn ciphertext(&self, _: Direction) -> &[u8] {
        self.0
    }
}

/// A CTR pass that reads `src` and initialises the front of `dst`,
/// uninitialised memory at least as long (a `Vec`'s spare capacity).
pub(crate) struct Apart<'a> {
    src: &'a [u8],
    dst: &'a mut [MaybeUninit<u8>],
    /// How many bytes at the front of `dst` have been written. Writes
    /// land exactly there, so every byte below it is initialised.
    filled: usize,
}

impl<'a> Apart<'a> {
    fn new(src: &'a [u8], dst: &'a mut [MaybeUninit<u8>]) -> Self {
        Apart { src, dst, filled: 0 }
    }

    /// Copy the source from where the writes stand to its end.
    pub(crate) fn copy_rest(&mut self) {
        let rest = &self.src[self.filled..];
        let dst = &mut self.dst[self.filled..self.filled + rest.len()];
        dst.write_copy_of_slice(rest);
        self.filled += rest.len();
    }
}

impl Blocks for Apart<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.src.len()
    }

    #[inline(always)]
    fn pass<const P: usize, const N: usize>(
        &mut self,
        at: usize,
        mut f: impl FnMut(usize, &[u8; N]) -> [u8; N],
    ) {
        // The loops write front to back; `filled`, not `at`, says where,
        // so a loop that skipped a pass could not leave a hole below it.
        debug_assert_eq!(at, self.filled, "CTR writes out of order");
        const { assert!(P.is_multiple_of(N), "a pass is whole blocks") };
        let src = self.src[at..at + P].as_chunks::<N>().0;
        let dst = self.dst[self.filled..self.filled + P].as_chunks_mut::<N>().0;
        for (i, (s, d)) in src.iter().zip(dst).enumerate() {
            *d = f(i, s).map(MaybeUninit::new);
        }
        self.filled += P;
    }

    fn xor_tail(&mut self, at: usize, keystream: &[u8]) {
        debug_assert_eq!(at, self.filled, "CTR writes out of order");
        let len = keystream.len().min(self.src.len() - at);
        let dst = &mut self.dst[self.filled..self.filled + len];
        for ((d, s), k) in dst.iter_mut().zip(&self.src[at..at + len]).zip(keystream) {
            d.write(s ^ k);
        }
        self.filled += len;
    }

    fn ciphertext(&self, dir: Direction) -> &[u8] {
        match dir {
            Direction::Open => self.src,
            // SAFETY: every byte of `dst` below `filled` has been
            // written (see the field).
            Direction::Seal => unsafe { self.dst[..self.filled].assume_init_ref() },
        }
    }
}

/// `CLASSES[r]` has bit `k` set for each `k ≡ r (mod 5)`: the five
/// classes of bit positions [`clmul`] splits operands and products into.
const CLASSES: [u128; 5] = {
    let mut masks = [0u128; 5];
    let mut k = 0;
    while k < 128 {
        masks[k % 5] |= 1 << k;
        k += 1;
    }
    masks
};

/// Carry-less product of two 64-bit words from integer multiplies.
///
/// Each operand is split by [`CLASSES`] into five words whose set bits
/// are five positions apart. An integer product of class `i` of `x` and
/// class `j` of `y` puts every partial product at a position of class
/// `i + j`, at most 13 of them on any one position (no class of a
/// 64-bit word has more bits), and 13 < 2⁵: read in five-bit digits
/// from that class, no digit carries into the next. So the product's bit at each position
/// of its class is the XOR of the partial products there, and the five
/// products of one class XORed and masked to it are that class of the
/// carry-less product. (Bits four apart would let a digit reach 16 and
/// carry.) Memory access and control flow are the same for every input.
#[inline(always)]
fn clmul(x: u64, y: u64) -> u128 {
    let xs = CLASSES.map(|m| u128::from(x) & m);
    let ys = CLASSES.map(|m| u128::from(y) & m);
    let mut z = 0;
    for r in 0..5 {
        let mut class = 0;
        for i in 0..5 {
            class ^= xs[i] * ys[(5 + r - i) % 5];
        }
        z |= class & CLASSES[r];
    }
    z
}

/// The unreduced product, or XOR of products, of GHASH elements, as
/// the three Karatsuba parts over 64-bit halves. Elements are
/// big-endian `u128`s: GCM's reflected bit order puts the coefficient
/// of `x^k` at bit `127 - k`.
#[derive(Default)]
struct Wide {
    lo: u128,
    mid: u128,
    hi: u128,
}

impl Wide {
    /// XOR `a · b` in, unreduced.
    #[inline(always)]
    fn add_mul(&mut self, a: u128, b: u128) {
        let (a1, a0) = ((a >> 64) as u64, a as u64);
        let (b1, b0) = ((b >> 64) as u64, b as u64);
        self.lo ^= clmul(a0, b0);
        self.hi ^= clmul(a1, b1);
        self.mid ^= clmul(a0 ^ a1, b0 ^ b1);
    }

    /// Reduce modulo `x¹²⁸ + x⁷ + x² + x + 1`.
    #[inline(always)]
    fn reduce(self) -> u128 {
        let mid = self.mid ^ self.lo ^ self.hi;
        // Reflected operands put the coefficient of `x^k` in the product
        // at bit 254 - k; shifted left once, at 255 - k, so `hi` holds
        // x⁰..x¹²⁷ and `lo` x¹²⁸..x²⁵⁵, each in the element layout.
        let hi = self.hi ^ (mid >> 64);
        let lo = self.lo ^ (mid << 64);
        let (hi, lo) = ((hi << 1) | (lo >> 127), lo << 1);
        // x¹²⁸ = 1 + x + x² + x⁷, and a right shift by `s` multiplies by
        // `x^s`: fold `lo` into `hi` as `lo ^ lo>>1 ^ lo>>2 ^ lo>>7`. The
        // bits those shifts push past x¹²⁷ (x¹²⁸..x¹³⁴, the left shifts
        // below) are folded with them; their own fold stays below x¹²⁸.
        let d = lo ^ (lo << 127) ^ (lo << 126) ^ (lo << 121);
        hi ^ d ^ (d >> 1) ^ (d >> 2) ^ (d >> 7)
    }
}

/// `a · b` in GHASH's field.
fn gf_mul(a: u128, b: u128) -> u128 {
    let mut product = Wide::default();
    product.add_mul(a, b);
    product.reduce()
}

/// GHASH state for one key: the powers H¹..H⁴ of the hash subkey.
struct GhashKey {
    /// `powers[k]` is `H^(k+1)`, big-endian. Bytes, not `u128`s: a
    /// 16-byte-aligned field would pad every `AesGcm`, hardware ones
    /// included.
    powers: [[u8; 16]; 4],
}

impl GhashKey {
    fn new(h: &[u8; 16]) -> Self {
        let h1 = u128::from_be_bytes(*h);
        let h2 = gf_mul(h1, h1);
        let h3 = gf_mul(h2, h1);
        GhashKey {
            powers: [h1, h2, h3, gf_mul(h3, h1)].map(u128::to_be_bytes),
        }
    }

    /// Fold `data` (zero-padded to a block boundary) into `y`,
    /// four blocks per aggregated reduction.
    fn absorb(&self, mut y: u128, data: &[u8]) -> u128 {
        let [h1, h2, h3, h4] = self.powers.map(u128::from_be_bytes);
        let mut quads = data.chunks_exact(64);
        for quad in &mut quads {
            let c = |i: usize| u128::from_be_bytes(crate::fixed(&quad[16 * i..16 * i + 16]));
            // The regrouped form of ((((y^c1)·H ^ c2)·H ^ c3)·H ^ c4)·H:
            // four products, one reduction.
            let mut sum = Wide::default();
            sum.add_mul(y ^ c(0), h4);
            sum.add_mul(c(1), h3);
            sum.add_mul(c(2), h2);
            sum.add_mul(c(3), h1);
            y = sum.reduce();
        }
        for chunk in quads.remainder().chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gf_mul(y ^ u128::from_be_bytes(block), h1);
        }
        y
    }

    fn wipe(&mut self) {
        ct::zeroize(self.powers.as_flattened_mut());
    }
}

impl Drop for GhashKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// GHASH over padded AAD and ciphertext, per SP 800-38D §6.4.
fn ghash(key: &GhashKey, aad: &[u8], ct_data: &[u8]) -> [u8; 16] {
    let y = key.absorb(0, aad);
    let y = key.absorb(y, ct_data);
    let bits = |len: usize| u128::from(len as u64 * 8);
    let lengths = bits(aad.len()) << 64 | bits(ct_data.len());
    key.absorb(y, &lengths.to_be_bytes()).to_be_bytes()
}

fn counter_block(nonce: &[u8; 12], counter: u32) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(nonce);
    block[12..].copy_from_slice(&counter.to_be_bytes());
    block
}

/// Reject plaintexts that would wrap the 32-bit block counter
/// (counter 1 is the tag mask, data starts at 2).
fn check_len(len: usize) -> Result<(), CryptoError> {
    let nblocks = len.div_ceil(16);
    if nblocks as u64 > u64::from(u32::MAX) - 1 {
        return Err(CryptoError::BadLength);
    }
    Ok(())
}

/// Which backend, and which loops of it, [`AesGcm::new`] selects on
/// this machine: `"vaes512-vpclmul"` (the hardware backend's stitched
/// 512-bit loop), `"vaes-vpclmul"` (its 256-bit loops),
/// `"aesni-pclmul"` (its 128-bit ones) or `"bitsliced"`. For
/// labelling measurements.
pub fn backend_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    match crate::aesni::detect() {
        Some(crate::aesni::Width::ThirtyTwo) => return "vaes512-vpclmul",
        Some(crate::aesni::Width::Sixteen) => return "vaes-vpclmul",
        Some(crate::aesni::Width::Eight) => return "aesni-pclmul",
        None => {}
    }
    "bitsliced"
}

// The large variant is the one live traffic uses; it stays inline so
// a key costs no allocation and a record no pointer chase.
#[allow(clippy::large_enum_variant)]
enum Backend {
    #[cfg(target_arch = "x86_64")]
    AesNi(AesNiGcm),
    Bitsliced { aes: Aes, ghash_key: GhashKey },
}

/// Run `write` over an [`Apart`] from `src` into `out`'s spare
/// capacity (reserved here), and append what it wrote, which must be
/// all of `src`: a seal's or open's CTR pass, or a tag check's copy.
fn append<T>(src: &[u8], out: &mut Vec<u8>, write: impl FnOnce(&mut Apart) -> T) -> T {
    out.reserve(src.len());
    let start = out.len();
    let mut blocks = Apart::new(src, out.spare_capacity_mut());
    let result = write(&mut blocks);
    let filled = blocks.filled;
    debug_assert_eq!(filled, src.len());
    // SAFETY: `Apart` writes only at `filled` and advances it by what
    // it wrote, so the first `filled` bytes of the spare capacity
    // (which starts at `start`) are initialised, and `filled` is at
    // most that capacity because every write is a bounds-checked
    // slice of it.
    unsafe { out.set_len(start + filled) }
    result
}

/// AES-GCM with a fixed 12-byte nonce size (the TLS case).
pub struct AesGcm {
    backend: Backend,
}

impl AesGcm {
    /// Create from a 16- or 32-byte AES key, on the AES-NI +
    /// PCLMULQDQ backend when the CPU reports `aes`, `pclmulqdq` and
    /// `ssse3` (on its 256-bit loops when it also reports `vaes`,
    /// `vpclmulqdq` and `avx2`, on its stitched 512-bit loop when it
    /// reports `avx512f` and `avx512bw` on top), on the bitsliced one
    /// otherwise.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = AesNiGcm::new(key) {
            return Ok(AesGcm { backend: Backend::AesNi(hw) });
        }
        Self::portable(key)
    }

    /// Create on the bitsliced backend whatever the CPU offers: the
    /// fallback [`AesGcm::new`] takes without AES-NI, constructible
    /// anywhere so tests and benches can hold the hardware path
    /// against it.
    pub fn portable(key: &[u8]) -> Result<Self, CryptoError> {
        let aes = Aes::new(key)?;
        let h = aes.encrypt_block_copy(&[0u8; 16]);
        Ok(AesGcm {
            backend: Backend::Bitsliced {
                ghash_key: GhashKey::new(&h),
                aes,
            },
        })
    }

    /// Run the CTR keystream for the message body (counter 2 on;
    /// counter 1 masks the tag) over `blocks`, alone: what a failed
    /// [`AesGcm::open_in_place`] runs to restore the ciphertext.
    fn ctr(&self, nonce: &[u8; 12], blocks: &mut impl Blocks) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.ctr(nonce, 2, blocks),
            Backend::Bitsliced { aes, .. } => aes.ctr(nonce, 2, blocks),
        }
    }

    /// Seal or open `blocks` — the keystream from counter 2 — and
    /// return the tag over `aad` and the ciphertext: one pass over the
    /// bytes on the hardware backend's 512-bit loops, a CTR pass and a
    /// GHASH pass on the others.
    fn crypt(&self, nonce: &[u8; 12], aad: &[u8], blocks: &mut impl Blocks, dir: Direction) -> [u8; 16] {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.crypt(nonce, 2, aad, blocks, dir),
            Backend::Bitsliced { aes, .. } => blocks.ctr_then_hash(
                dir,
                0,
                |all| aes.ctr(nonce, 2, all),
                |ciphertext| self.tag(nonce, aad, ciphertext, None),
            ),
        }
    }

    /// The tag over `aad` and `ciphertext`; with `copy`, an [`Apart`]
    /// from `ciphertext`, also the ciphertext written through it (in
    /// the pass that hashes it, on the hardware backend's 512-bit
    /// loops).
    fn tag(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        copy: Option<&mut Apart>,
    ) -> [u8; 16] {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.tag(nonce, aad, ciphertext, copy),
            Backend::Bitsliced { aes, ghash_key } => {
                let s = ghash(ghash_key, aad, ciphertext);
                let e = aes.encrypt_block_copy(&counter_block(nonce, 1));
                let mut tag = [0u8; 16];
                for i in 0..16 {
                    tag[i] = s[i] ^ e[i];
                }
                if let Some(copy) = copy {
                    copy.copy_rest();
                }
                tag
            }
        }
    }

    /// Encrypt `plaintext` in place and return the 16-byte tag.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
    ) -> Result<[u8; 16], CryptoError> {
        check_len(data.len())?;
        Ok(self.crypt(nonce, aad, &mut InPlace(data), Direction::Seal))
    }

    /// Seal `plaintext` onto the end of `out`: its ciphertext, then the
    /// 16-byte tag. The ciphertext is written straight into `out`'s
    /// spare capacity (reserved here), so the plaintext is read once
    /// and never copied first. Appends nothing on error.
    pub fn seal_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        check_len(plaintext.len())?;
        out.reserve(plaintext.len() + TAG_LEN);
        let tag = append(plaintext, out, |blocks| self.crypt(nonce, aad, blocks, Direction::Seal));
        out.extend_from_slice(&tag);
        Ok(())
    }

    /// Verify the tag over `ciphertext` without decrypting it.
    ///
    /// The authentication half of [`AesGcm::open_in_place`]: GHASH over
    /// AAD and ciphertext plus the single counter-1 keystream block,
    /// skipping the CTR pass over the body entirely. A forwarder that
    /// shares the sender's key can use this to authenticate a record
    /// and pass the ciphertext through unchanged — the read-only
    /// middlebox fast path.
    pub fn verify_tag(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        check_len(ciphertext.len())?;
        let expected = self.tag(nonce, aad, ciphertext, None);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// [`AesGcm::verify_tag`], appending `ciphertext || tag` to `out`
    /// once it holds: the forward of a verified record. The ciphertext
    /// is written into `out`'s spare capacity by the same pass that
    /// hashes it, so it is read once. On a tag mismatch `out` is left
    /// exactly as it was.
    pub fn verify_tag_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        check_len(ciphertext.len())?;
        let start = out.len();
        out.reserve(ciphertext.len() + TAG_LEN);
        let expected = append(ciphertext, out, |copy| self.tag(nonce, aad, ciphertext, Some(copy)));
        if !ct::eq(&expected, tag) {
            out.truncate(start);
            return Err(CryptoError::BadTag);
        }
        out.extend_from_slice(tag);
        Ok(())
    }

    /// Decrypt `data` in place and verify the tag.
    ///
    /// On tag mismatch the buffer holds the ciphertext again (the pass
    /// that hashed it also decrypted it, so the keystream is run over
    /// it a second time) and `BadTag` is returned.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        check_len(data.len())?;
        let expected = self.crypt(nonce, aad, &mut InPlace(data), Direction::Open);
        if !ct::eq(&expected, tag) {
            self.ctr(nonce, &mut InPlace(data));
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// Decrypt `ciphertext` straight into `out`'s spare capacity and
    /// verify `tag`; append the plaintext only if it holds. On a tag
    /// mismatch `out` is left exactly as it was, and the unverified
    /// plaintext written past its end is zeroed.
    pub fn open_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        check_len(ciphertext.len())?;
        let start = out.len();
        let expected = append(ciphertext, out, |blocks| self.crypt(nonce, aad, blocks, Direction::Open));
        if !ct::eq(&expected, tag) {
            ct::zeroize(out.get_mut(start..).unwrap_or_default());
            out.truncate(start);
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// Convenience: allocate-and-seal, returning ciphertext || tag.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out)?;
        Ok(out)
    }

    /// Convenience: split ciphertext || tag, verify and decrypt.
    pub fn open(&self, nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::BadTag);
        }
        let (ct_part, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut out = Vec::with_capacity(ct_part.len());
        self.open_into(nonce, aad, ct_part, tag, &mut out)?;
        Ok(out)
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST GCM spec test case 1: empty plaintext, zero key.
    #[test]
    fn gcm_testcase1_empty() {
        let gcm = AesGcm::new(&[0u8; 16]).unwrap();
        let nonce = [0u8; 12];
        let tag = gcm.seal_in_place(&nonce, &[], &mut []).unwrap();
        assert_eq!(hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    // NIST GCM spec test case 2: one zero block.
    #[test]
    fn gcm_testcase2_one_block() {
        let gcm = AesGcm::new(&[0u8; 16]).unwrap();
        let nonce = [0u8; 12];
        let mut data = [0u8; 16];
        let tag = gcm.seal_in_place(&nonce, &[], &mut data).unwrap();
        assert_eq!(hex(&data), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    // NIST GCM spec test case 3: 4 blocks, real key/nonce.
    #[test]
    fn gcm_testcase3_four_blocks() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let gcm = AesGcm::new(&key).unwrap();
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let mut data = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let tag = gcm.seal_in_place(&nonce, &[], &mut data).unwrap();
        assert_eq!(
            hex(&data),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
    }

    // NIST GCM spec test case 4: with AAD and partial final block.
    #[test]
    fn gcm_testcase4_aad() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let gcm = AesGcm::new(&key).unwrap();
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let mut data = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let tag = gcm.seal_in_place(&nonce, &aad, &mut data).unwrap();
        assert_eq!(
            hex(&data),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    }

    // NIST GCM spec test case 13/14 style: AES-256 zero key.
    #[test]
    fn gcm_aes256_empty() {
        let gcm = AesGcm::new(&[0u8; 32]).unwrap();
        let nonce = [0u8; 12];
        let tag = gcm.seal_in_place(&nonce, &[], &mut []).unwrap();
        assert_eq!(hex(&tag), "530f8afbc74536b9a963b4f1c4cb738b");
    }

    // AES-256 GCM with real data (NIST test case 16 without IV tricks).
    #[test]
    fn gcm_aes256_four_blocks() {
        let key = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let gcm = AesGcm::new(&key).unwrap();
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let mut data = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let tag = gcm.seal_in_place(&nonce, &aad, &mut data).unwrap();
        assert_eq!(
            hex(&data),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
        );
        assert_eq!(hex(&tag), "76fc6ece0f4e1768cddf8853bb2d551b");
    }

    #[test]
    fn roundtrip_and_tamper_detection() {
        let gcm = AesGcm::new(&[7u8; 32]).unwrap();
        let nonce = [9u8; 12];
        let aad = b"header";
        let sealed = gcm.seal(&nonce, aad, b"secret payload").unwrap();
        assert_eq!(gcm.open(&nonce, aad, &sealed).unwrap(), b"secret payload");

        // Flip each byte in turn: every change must be detected.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert_eq!(gcm.open(&nonce, aad, &bad), Err(CryptoError::BadTag), "byte {i}");
        }
        // Wrong AAD must be detected.
        assert_eq!(gcm.open(&nonce, b"other", &sealed), Err(CryptoError::BadTag));
        // Wrong nonce must be detected.
        assert_eq!(gcm.open(&[0u8; 12], aad, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn open_rejects_short_input() {
        let gcm = AesGcm::new(&[7u8; 16]).unwrap();
        assert_eq!(gcm.open(&[0; 12], &[], &[0u8; 15]), Err(CryptoError::BadTag));
    }

    // The reference implementation — the portable backend, whatever
    // `new` selects on this machine — must reproduce the NIST vectors
    // by itself (it shares no cipher or GHASH code with the hardware
    // path it is the differential oracle for).
    #[test]
    fn reference_impl_matches_nist_vectors() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let gcm = AesGcm::portable(&key).unwrap();
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let mut data = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let tag = gcm.seal_in_place(&nonce, &aad, &mut data).unwrap();
        assert_eq!(
            hex(&data),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    }

    #[test]
    fn verify_tag_agrees_with_open() {
        let key = [0x21u8; 16];
        let gcm = AesGcm::new(&key).unwrap();
        let nonce = [7u8; 12];
        let sealed = gcm.seal(&nonce, b"aad", b"read-only payload").unwrap();
        let (ct_part, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        // Tag-only verification accepts what open accepts...
        gcm.verify_tag(&nonce, b"aad", ct_part, tag).unwrap();
        // ...without consuming state: both still work afterwards.
        assert_eq!(gcm.open(&nonce, b"aad", &sealed).unwrap(), b"read-only payload");
        // And rejects everything open rejects.
        let mut bad_ct = ct_part.to_vec();
        bad_ct[0] ^= 1;
        assert!(gcm.verify_tag(&nonce, b"aad", &bad_ct, tag).is_err());
        let mut bad_tag = tag.to_vec();
        bad_tag[15] ^= 1;
        assert!(gcm.verify_tag(&nonce, b"aad", ct_part, &bad_tag).is_err());
        assert!(gcm.verify_tag(&nonce, b"wrong aad", ct_part, tag).is_err());
        assert!(gcm.verify_tag(&[8u8; 12], b"aad", ct_part, tag).is_err());
    }

    #[test]
    fn verify_tag_leaves_ciphertext_untouched() {
        let gcm = AesGcm::new(&[0x55u8; 32]).unwrap();
        let nonce = [1u8; 12];
        let sealed = gcm.seal(&nonce, b"", b"forward me").unwrap();
        let (ct_part, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let before = ct_part.to_vec();
        gcm.verify_tag(&nonce, b"", ct_part, tag).unwrap();
        assert_eq!(ct_part, before, "verification must not decrypt");
    }

    // The selected backend must agree with its reference — the
    // portable bitsliced backend, itself pinned by the NIST vectors —
    // across AAD/plaintext length combinations that exercise the
    // aggregated absorbs (four blocks bitsliced, eight or sixteen in
    // hardware), several wide passes, their remainder paths, and
    // padding (the seeded differential hammer lives in
    // tests/gcm_vectors.rs).
    #[test]
    fn fast_and_reference_agree_on_boundary_lengths() {
        let key = [0x42u8; 32];
        let fast = AesGcm::new(&key).unwrap();
        let reference = AesGcm::portable(&key).unwrap();
        let nonce = [3u8; 12];
        let payload: Vec<u8> = (0u32..1100).map(|i| (i * 7 + 1) as u8).collect();
        for pt_len in [
            0usize, 1, 15, 16, 17, 48, 63, 64, 65, 127, 128, 129, 200, 256, 257, 383, 511, 512,
            513, 767, 768, 769, 1024 + 17,
        ] {
            for aad_len in [0usize, 1, 16, 64, 65, 128, 129, 255, 256, 257] {
                let sealed_fast = fast
                    .seal(&nonce, &payload[..aad_len], &payload[..pt_len])
                    .unwrap();
                let sealed_reference = reference
                    .seal(&nonce, &payload[..aad_len], &payload[..pt_len])
                    .unwrap();
                assert_eq!(sealed_fast, sealed_reference, "pt {pt_len} aad {aad_len}");
            }
        }
    }

    /// Every backend this CPU runs under `key`, named: the one `new`
    /// selects, the portable one, and the hardware one at each width.
    fn every_backend(key: &[u8]) -> Vec<(String, AesGcm)> {
        let mut backends = vec![
            ("new".to_string(), AesGcm::new(key).unwrap()),
            ("portable".to_string(), AesGcm::portable(key).unwrap()),
        ];
        #[cfg(target_arch = "x86_64")]
        for width in [
            crate::aesni::Width::Eight,
            crate::aesni::Width::Sixteen,
            crate::aesni::Width::ThirtyTwo,
        ] {
            match AesNiGcm::with_width(key, width) {
                Some(hw) => {
                    let gcm = AesGcm { backend: Backend::AesNi(hw) };
                    backends.push((format!("{width:?}"), gcm));
                }
                None => eprintln!("skipped: this CPU cannot run the {width:?} loops"),
            }
        }
        backends
    }

    // The append forms run the same loops as the in-place ones, from a
    // source into a `Vec`'s spare capacity: on every backend this CPU
    // runs, and at every length up to one 512-byte pass and a bit,
    // they must produce the same bytes, append after what the `Vec`
    // already held, and append nothing when the tag fails.
    #[test]
    fn out_of_place_equals_in_place_and_a_failed_open_appends_nothing() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0A9E_D0C5);
        let nonce = [0x3cu8; 12];
        let aad = [0x17u8; 13];
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            for (name, gcm) in &every_backend(&key) {
                for len in (0..=2 * 256 + 17).chain([16_384]) {
                    let case = format!("{name} AES-{} len {len}", key_len * 8);
                    let mut plaintext = vec![0u8; len];
                    rng.fill(&mut plaintext);
                    let mut in_place = plaintext.clone();
                    let tag = gcm.seal_in_place(&nonce, &aad, &mut in_place).unwrap();

                    let prefix = [0xEEu8; 3];
                    let mut sealed = prefix.to_vec();
                    gcm.seal_into(&nonce, &aad, &plaintext, &mut sealed).unwrap();
                    assert_eq!(sealed[..3], prefix, "{case}: seal kept the prefix");
                    assert_eq!(sealed[3..3 + len], in_place[..], "{case}: ciphertext");
                    assert_eq!(sealed[3 + len..], tag, "{case}: tag");

                    let mut opened = prefix.to_vec();
                    gcm.open_into(&nonce, &aad, &in_place, &tag, &mut opened).unwrap();
                    assert_eq!(opened[3..], plaintext[..], "{case}: open");
                    let mut back = in_place.clone();
                    gcm.open_in_place(&nonce, &aad, &mut back, &tag).unwrap();
                    assert_eq!(back, plaintext, "{case}: open in place");

                    let mut bad_tag = tag;
                    bad_tag[rng.gen_range(16) as usize] ^= 1 << rng.gen_range(8);
                    let mut bad_ct = in_place.clone();
                    if len > 0 {
                        bad_ct[rng.gen_range(len as u64) as usize] ^= 1 << rng.gen_range(8);
                    }
                    let tampered: [(&[u8], &[u8]); 2] = [(&in_place, &bad_tag), (&bad_ct, &tag)];
                    for (ciphertext, tag) in tampered.into_iter().take(1 + usize::from(len > 0)) {
                        let mut out = opened.clone();
                        let err = gcm.open_into(&nonce, &aad, ciphertext, tag, &mut out);
                        assert_eq!(err, Err(CryptoError::BadTag), "{case}");
                        assert_eq!(out, opened, "{case}: a failed open appended");
                    }
                }
            }
        }
    }

    // The tag check alone and its appending form give the portable
    // backend's verdicts on every backend this CPU runs, at ciphertext
    // lengths on each side of one, two and three 512-byte groups (the
    // 512-bit tag loop's whole groups, then the narrower loops' tail)
    // and at a record's 16 320 and 16 384 bytes, under AAD of 0, 13 and
    // 257 bytes: a genuine message appends exactly `ciphertext || tag`
    // after what `out` held, and one flipped bit appends nothing.
    #[test]
    fn verify_tag_and_its_appending_form_agree_with_the_portable_backend() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x7A6_0512);
        let nonce = [0x6du8; 12];
        let lens: Vec<usize> = (1..=3)
            .flat_map(|k| [k * 512 - 1, k * 512, k * 512 + 1])
            .chain([16_320, 16_384])
            .collect();
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let portable = AesGcm::portable(&key).unwrap();
            let backends = every_backend(&key);
            for aad_len in [0usize, 13, 257] {
                for &len in &lens {
                    let mut aad = vec![0u8; aad_len];
                    let mut plaintext = vec![0u8; len];
                    rng.fill(&mut aad);
                    rng.fill(&mut plaintext);
                    let sealed = portable.seal(&nonce, &aad, &plaintext).unwrap();
                    let (ciphertext, tag) = sealed.split_at(len);
                    let mut bad = ciphertext.to_vec();
                    bad[rng.gen_range(len as u64) as usize] ^= 1 << rng.gen_range(8);
                    for (name, gcm) in &backends {
                        let case = format!("{name} AES-{} aad {aad_len} len {len}", key_len * 8);
                        assert_eq!(gcm.verify_tag(&nonce, &aad, ciphertext, tag), Ok(()), "{case}");
                        let err = gcm.verify_tag(&nonce, &aad, &bad, tag);
                        assert_eq!(err, Err(CryptoError::BadTag), "{case}");
                        let mut out = vec![0xEEu8; 3];
                        gcm.verify_tag_into(&nonce, &aad, ciphertext, tag, &mut out).unwrap();
                        assert_eq!(out[..3], [0xEE; 3], "{case}: kept what out held");
                        assert_eq!(out[3..], sealed[..], "{case}: appended");
                        let before = out.clone();
                        let err = gcm.verify_tag_into(&nonce, &aad, &bad, tag, &mut out);
                        assert_eq!(err, Err(CryptoError::BadTag), "{case}");
                        assert_eq!(out, before, "{case}: a failed check appended");
                    }
                }
            }
        }
    }

    // An open decrypts as it hashes, before its tag is known, so a
    // failed one must undo that: `open_into` zeroes what it wrote past
    // `out`'s end and appends nothing, and `open_in_place` runs the
    // keystream again, so the buffer holds the ciphertext. One bit
    // flipped in the first block, in a block in the middle of the
    // second 512-byte pass, in the tail, in the tag or in the AAD, on
    // every backend and both key sizes: `BadTag`, and both buffers as
    // they were before the call.
    #[test]
    fn a_failed_open_leaves_both_buffers_as_they_were() {
        let mut rng = crate::rng::CryptoRng::from_seed(0xBAD7_A600);
        let nonce = [0x0fu8; 12];
        // Two 512-byte passes, one 256-byte pass and a ragged tail.
        let len = 2 * 512 + 256 + 40;
        let mut aad = [0u8; 13];
        let mut plaintext = vec![0u8; len];
        rng.fill(&mut aad);
        rng.fill(&mut plaintext);
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            for (name, gcm) in &every_backend(&key) {
                let mut sealed = plaintext.clone();
                let tag = gcm.seal_in_place(&nonce, &aad, &mut sealed).unwrap();
                let mut cases = Vec::new();
                for (place, byte) in [("first block", 3), ("mid-pass", 512 + 300), ("tail", len - 5)] {
                    let mut ciphertext = sealed.clone();
                    ciphertext[byte] ^= 0x10;
                    cases.push((place, ciphertext, tag, aad));
                }
                let (mut bad_tag, mut bad_aad) = (tag, aad);
                bad_tag[7] ^= 0x01;
                bad_aad[2] ^= 0x01;
                cases.push(("tag", sealed.clone(), bad_tag, aad));
                cases.push(("aad", sealed.clone(), tag, bad_aad));
                for (place, ciphertext, tag, aad) in &cases {
                    let case = format!("{name} AES-{} flip in the {place}", key_len * 8);
                    let mut out = vec![0xEEu8; 3];
                    let before = out.clone();
                    let err = gcm.open_into(&nonce, aad, ciphertext, tag, &mut out);
                    assert_eq!(err, Err(CryptoError::BadTag), "{case}");
                    assert_eq!(out, before, "{case}: open_into appended");
                    // SAFETY: the failed open wrote these bytes, then
                    // zeroed them, and nothing has reallocated since.
                    let spare = unsafe { out.spare_capacity_mut()[..len].assume_init_ref() };
                    assert!(spare.iter().all(|&b| b == 0), "{case}: plaintext left behind");

                    let mut buffer = ciphertext.clone();
                    let err = gcm.open_in_place(&nonce, aad, &mut buffer, tag);
                    assert_eq!(err, Err(CryptoError::BadTag), "{case}");
                    assert_eq!(&buffer, ciphertext, "{case}: open_in_place left plaintext");
                }
            }
        }
    }

    /// SP 800-38D Algorithm 1, bit by bit: the multiply GHASH is
    /// defined by, with the branches and shifts the constant-time one
    /// does without.
    fn algorithm_1(x: u128, y: u128) -> u128 {
        let (mut z, mut v) = (0u128, y);
        for i in 0..128 {
            if x >> (127 - i) & 1 == 1 {
                z ^= v;
            }
            v = if v & 1 == 0 { v >> 1 } else { (v >> 1) ^ (0xe1 << 120) };
        }
        z
    }

    // The multiply against its definition: the zero element, the one
    // (`0x80…`), x¹²⁷ (the last bit), all-ones, and seeded random
    // elements, every pair both ways round.
    #[test]
    fn gf_mul_matches_sp800_38d_algorithm_1() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x6A5E_0001);
        let mut operands = vec![0, 1 << 127, 1, u128::MAX];
        for _ in 0..24 {
            let mut bytes = [0u8; 16];
            rng.fill(&mut bytes);
            operands.push(u128::from_be_bytes(bytes));
        }
        for &a in &operands {
            for &b in &operands {
                assert_eq!(gf_mul(a, b), algorithm_1(a, b), "{a:032x} · {b:032x}");
            }
        }
    }

    // The four-block aggregated absorb against Algorithm 1 one block at
    // a time, at every length through three aggregated groups, a
    // ragged tail and a nonzero starting accumulator.
    #[test]
    fn aggregated_absorb_matches_algorithm_1_block_by_block() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x6A5E_0002);
        for _ in 0..4 {
            let mut h = [0u8; 16];
            let mut y0 = [0u8; 16];
            rng.fill(&mut h);
            rng.fill(&mut y0);
            let key = GhashKey::new(&h);
            let (h, y0) = (u128::from_be_bytes(h), u128::from_be_bytes(y0));
            let mut data = vec![0u8; 3 * 64 + 17];
            rng.fill(&mut data);
            for len in 0..=data.len() {
                let mut expected = y0;
                for chunk in data[..len].chunks(16) {
                    let mut block = [0u8; 16];
                    block[..chunk.len()].copy_from_slice(chunk);
                    expected = algorithm_1(expected ^ u128::from_be_bytes(block), h);
                }
                assert_eq!(key.absorb(y0, &data[..len]), expected, "len {len}");
            }
        }
    }

    // The portable key's H powers are wiped in place when it drops.
    #[test]
    fn ghash_key_wipe_zeroes_the_powers_of_h() {
        let key = GhashKey::new(&[0x5au8; 16]);
        ct::assert_wipes(key, GhashKey::wipe, |k| {
            vec![k.powers.as_flattened().to_vec()]
        });
    }

    // `new` must land on the hardware backend exactly when the CPU
    // reports the three features, and `portable` never; the label
    // names the 256-bit loops exactly when it reports three more, and
    // the stitched 512-bit loop when it reports two more on top.
    #[test]
    fn backend_selection_follows_detection() {
        let key = [1u8; 16];
        let selected = AesGcm::new(&key).unwrap();
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            let aesni = is_x86_feature_detected!("aes")
                && is_x86_feature_detected!("pclmulqdq")
                && is_x86_feature_detected!("ssse3");
            let wide = aesni
                && is_x86_feature_detected!("vaes")
                && is_x86_feature_detected!("vpclmulqdq")
                && is_x86_feature_detected!("avx2");
            let stitched = wide
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw");
            assert_eq!(matches!(selected.backend, Backend::AesNi(_)), aesni);
            let expected = match (aesni, wide, stitched) {
                (_, _, true) => "vaes512-vpclmul",
                (_, true, false) => "vaes-vpclmul",
                (true, false, false) => "aesni-pclmul",
                (false, false, false) => "bitsliced",
            };
            assert_eq!(backend_name(), expected);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            assert!(matches!(selected.backend, Backend::Bitsliced { .. }));
            assert_eq!(backend_name(), "bitsliced");
        }
        assert!(matches!(
            AesGcm::portable(&key).unwrap().backend,
            Backend::Bitsliced { .. }
        ));
        // Bad key lengths are reported the same way on both routes.
        for len in [0usize, 15, 24, 33] {
            assert_eq!(AesGcm::new(&vec![0u8; len]).err(), Some(CryptoError::BadKeyLength));
            assert_eq!(AesGcm::portable(&vec![0u8; len]).err(), Some(CryptoError::BadKeyLength));
        }
    }
}
