//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the bulk data-plane cipher. [`AesGcm`] has two backends
//! and picks one per key from what the CPU reports, nothing else:
//!
//! * **AES-NI + PCLMULQDQ** (`crate::aesni`) wherever x86_64 has
//!   them: hardware AES rounds, carry-less-multiply GHASH, no tables.
//!   Its bulk loops run sixteen blocks per pass on 256-bit VAES and
//!   VPCLMULQDQ where the CPU also reports those and AVX2, eight on
//!   128-bit registers otherwise; the choice is made per key, inside
//!   the backend, and nothing here sees it.
//! * **Bitsliced**, everywhere else and as the differential oracle
//!   for the hardware path ([`AesGcm::portable`]). CTR runs through
//!   the bitsliced [`Aes`] eight counter blocks per invocation
//!   ([`Aes::ctr_xor`]); GHASH uses 8-bit Shoup tables over H¹..H⁴
//!   of the hash subkey, four blocks per aggregated reduction:
//!
//!   ```text
//!   Y' = (Y ^ C1)·H⁴  ^  C2·H³  ^  C3·H²  ^  C4·H
//!   ```
//!
//!   Those tables are keyed (derived from `H`), so indexing them is
//!   a data-dependent memory access the hardware path does not have;
//!   see DESIGN.md for why it is accepted here.
//!
//! Each backend has one CTR loop per width, written over `Blocks`: it
//! reads a block of a source and stores that block XOR keystream at
//! the same offset of a destination. In place (`InPlace`) the two are
//! one buffer; the append forms ([`AesGcm::seal_into`],
//! [`AesGcm::open_into`]) read the caller's bytes and write straight
//! into a `Vec`'s spare capacity (`Apart`), so nothing is copied
//! before it is encrypted or decrypted.

use std::mem::MaybeUninit;

use crate::aes::Aes;
#[cfg(target_arch = "x86_64")]
use crate::aesni::AesNiGcm;
use crate::{ct, CryptoError};

/// GCM tag length used by TLS (full 16 bytes).
pub const TAG_LEN: usize = 16;

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
        let dst = &mut self.dst[self.filled..self.src.len()];
        for ((d, s), k) in dst.iter_mut().zip(&self.src[at..]).zip(keystream) {
            d.write(s ^ k);
            self.filled += 1;
        }
    }
}

/// A 128-bit GHASH element, kept as two big-endian u64 halves.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
struct Block128 {
    hi: u64,
    lo: u64,
}

impl Block128 {
    fn from_bytes(b: &[u8; 16]) -> Self {
        Block128 {
            hi: u64::from_be_bytes(crate::fixed(&b[0..8])),
            lo: u64::from_be_bytes(crate::fixed(&b[8..16])),
        }
    }

    fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.hi.to_be_bytes());
        out[8..16].copy_from_slice(&self.lo.to_be_bytes());
        out
    }

    fn xor(self, other: Block128) -> Block128 {
        Block128 {
            hi: self.hi ^ other.hi,
            lo: self.lo ^ other.lo,
        }
    }

    /// Right shift by one bit (toward the least significant bit in the
    /// GCM reflected-bit convention).
    fn shr1(self) -> Block128 {
        Block128 {
            hi: self.hi >> 1,
            lo: (self.lo >> 1) | (self.hi << 63),
        }
    }

    /// Multiply by x in GF(2^128): shift right with the GCM reduction
    /// polynomial folded back in on carry.
    fn mul_x(self) -> Block128 {
        let carry = self.lo & 1;
        let mut next = self.shr1();
        if carry == 1 {
            next.hi ^= 0xe100_0000_0000_0000;
        }
        next
    }
}

/// Reduction constants for one whole byte shifted out of the
/// accumulator: `R8[b]` is the value XORed into the high half after
/// shifting right by 8 with low byte `b`. Built at compile time by
/// replaying eight single-bit reduction steps; the shifted-out bits
/// never propagate into the low half (the reduction polynomial only
/// touches the top 16 bits, which eight right-shifts cannot carry past
/// bit 40), so a single `u64` per entry is exact.
const R8: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut hi = 0u64;
        let mut lo = b as u64;
        let mut i = 0;
        while i < 8 {
            let carry = lo & 1;
            lo = (lo >> 1) | (hi << 63);
            hi >>= 1;
            if carry == 1 {
                hi ^= 0xe100_0000_0000_0000;
            }
            i += 1;
        }
        table[b] = hi;
        b += 1;
    }
    table
};

/// One 8-bit Shoup table: `t[b] = b · H` with the byte's MSB mapping
/// to the lowest-degree coefficient (GCM's reflected convention, so
/// `t[0x80] = H`).
fn build_table(h: Block128) -> [Block128; 256] {
    let mut t = [Block128::default(); 256];
    t[0x80] = h;
    let mut i = 0x80;
    while i > 1 {
        t[i >> 1] = t[i].mul_x();
        i >>= 1;
    }
    let mut i = 2;
    while i < 256 {
        for j in 1..i {
            t[i + j] = t[i].xor(t[j]);
        }
        i <<= 1;
    }
    t
}

/// Multiply `x` by the table's key using byte-wide steps.
#[inline]
fn mul_table(table: &[Block128; 256], x: Block128) -> Block128 {
    let bytes = x.to_bytes();
    let mut z = Block128::default();
    for i in (0..16).rev() {
        // Multiply accumulated z by x^8 (no-op on the first step).
        let rem = (z.lo & 0xff) as usize;
        z = Block128 {
            hi: z.hi >> 8,
            lo: (z.lo >> 8) | (z.hi << 56),
        };
        z.hi ^= R8[rem];
        // lint:allow(const-time) -- GHASH 8-bit-table index is a byte of the ciphertext/AAD (public on the record path); the keyed content is the table values, not which entry is read. Trade-off documented in DESIGN.md §data-plane fast path.
        z = z.xor(table[bytes[i] as usize]);
    }
    z
}

/// Precomputed GHASH state for one key: 8-bit tables for H¹..H⁴.
struct GhashKey {
    /// `tables[k]` multiplies by `H^(k+1)`.
    tables: Box<[[Block128; 256]; 4]>,
}

impl GhashKey {
    fn new(h: &[u8; 16]) -> Self {
        let h1 = Block128::from_bytes(h);
        let t1 = build_table(h1);
        let h2 = mul_table(&t1, h1);
        let h3 = mul_table(&t1, h2);
        let h4 = mul_table(&t1, h3);
        GhashKey {
            tables: Box::new([t1, build_table(h2), build_table(h3), build_table(h4)]),
        }
    }

    /// Fold `data` (zero-padded to a block boundary) into `y`,
    /// four blocks per aggregated reduction.
    fn absorb(&self, mut y: Block128, data: &[u8]) -> Block128 {
        let [t1, t2, t3, t4] = &*self.tables;
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            let c1 = Block128::from_bytes(&crate::fixed(&chunk[0..16]));
            let c2 = Block128::from_bytes(&crate::fixed(&chunk[16..32]));
            let c3 = Block128::from_bytes(&crate::fixed(&chunk[32..48]));
            let c4 = Block128::from_bytes(&crate::fixed(&chunk[48..64]));
            // Four independent multiplications — the regrouped form of
            // ((((y^c1)·H ^ c2)·H ^ c3)·H ^ c4)·H.
            y = mul_table(t4, y.xor(c1))
                .xor(mul_table(t3, c2))
                .xor(mul_table(t2, c3))
                .xor(mul_table(t1, c4));
        }
        for chunk in chunks.remainder().chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = mul_table(t1, y.xor(Block128::from_bytes(&block)));
        }
        y
    }
}

impl Drop for GhashKey {
    fn drop(&mut self) {
        for table in self.tables.iter_mut() {
            for entry in table.iter_mut() {
                // Safety: writing a valid Block128 through a valid
                // &mut reference (volatile so the wipe is not elided).
                unsafe { std::ptr::write_volatile(entry, Block128::default()) };
            }
        }
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// GHASH over padded AAD and ciphertext, per SP 800-38D §6.4.
fn ghash(key: &GhashKey, aad: &[u8], ct_data: &[u8]) -> [u8; 16] {
    let mut y = Block128::default();
    y = key.absorb(y, aad);
    y = key.absorb(y, ct_data);
    let mut len_block = [0u8; 16];
    len_block[0..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..16].copy_from_slice(&((ct_data.len() as u64) * 8).to_be_bytes());
    y = key.absorb(y, &len_block);
    y.to_bytes()
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
/// this machine: `"vaes-vpclmul"` (the hardware backend's 256-bit
/// loops), `"aesni-pclmul"` (its 128-bit ones) or `"bitsliced"`. For
/// labelling measurements.
pub fn backend_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    match crate::aesni::detect() {
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

/// AES-GCM with a fixed 12-byte nonce size (the TLS case).
pub struct AesGcm {
    backend: Backend,
}

impl AesGcm {
    /// Create from a 16- or 32-byte AES key, on the AES-NI +
    /// PCLMULQDQ backend when the CPU reports `aes`, `pclmulqdq` and
    /// `ssse3` (on its 256-bit loops when it also reports `vaes`,
    /// `vpclmulqdq` and `avx2`), on the bitsliced one otherwise.
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
    /// counter 1 masks the tag) over `blocks`.
    fn ctr(&self, nonce: &[u8; 12], blocks: &mut impl Blocks) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.ctr(nonce, 2, blocks),
            Backend::Bitsliced { aes, .. } => aes.ctr(nonce, 2, blocks),
        }
    }

    /// Append `src` XOR the message keystream to `out`, written
    /// straight into its spare capacity.
    fn ctr_append(&self, nonce: &[u8; 12], src: &[u8], out: &mut Vec<u8>) {
        out.reserve(src.len());
        let start = out.len();
        let mut blocks = Apart::new(src, out.spare_capacity_mut());
        self.ctr(nonce, &mut blocks);
        let filled = blocks.filled;
        debug_assert_eq!(filled, src.len());
        // SAFETY: `Apart` writes only at `filled` and advances it by what
        // it wrote, so the first `filled` bytes of the spare capacity
        // (which starts at `start`) are initialised, and `filled` is at
        // most that capacity because every write is a bounds-checked
        // slice of it.
        unsafe { out.set_len(start + filled) }
    }

    fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.tag(nonce, aad, ciphertext),
            Backend::Bitsliced { aes, ghash_key } => {
                let s = ghash(ghash_key, aad, ciphertext);
                let e = aes.encrypt_block_copy(&counter_block(nonce, 1));
                let mut tag = [0u8; 16];
                for i in 0..16 {
                    tag[i] = s[i] ^ e[i];
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
        self.ctr(nonce, &mut InPlace(data));
        Ok(self.tag(nonce, aad, data))
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
        let start = out.len();
        self.ctr_append(nonce, plaintext, out);
        let tag = self.tag(nonce, aad, out.get(start..).unwrap_or_default());
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
        let expected = self.tag(nonce, aad, ciphertext);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// Verify the tag and decrypt `ciphertext` in place.
    ///
    /// On tag mismatch the buffer is left as (untouched) ciphertext and
    /// `BadTag` is returned — callers must not use the contents.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        self.verify_tag(nonce, aad, data, tag)?;
        self.ctr(nonce, &mut InPlace(data));
        Ok(())
    }

    /// Verify `tag` over `ciphertext`, then append the plaintext to
    /// `out`, decrypted straight into its spare capacity. On a tag
    /// mismatch `out` is left exactly as it was.
    pub fn open_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.verify_tag(nonce, aad, ciphertext, tag)?;
        self.ctr_append(nonce, ciphertext, out);
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

    // The append forms run the same CTR loops as the in-place ones,
    // from a source into a `Vec`'s spare capacity: on every backend
    // this CPU runs, and at every length around one and two wide
    // passes, they must produce the same bytes, append after what the
    // `Vec` already held, and append nothing when the tag fails.
    #[test]
    fn out_of_place_equals_in_place_and_a_failed_open_appends_nothing() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x0A9E_D0C5);
        let nonce = [0x3cu8; 12];
        let aad = [0x17u8; 13];
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let mut backends = vec![
                ("new".to_string(), AesGcm::new(&key).unwrap()),
                ("portable".to_string(), AesGcm::portable(&key).unwrap()),
            ];
            #[cfg(target_arch = "x86_64")]
            for width in [crate::aesni::Width::Eight, crate::aesni::Width::Sixteen] {
                match AesNiGcm::with_width(&key, width) {
                    Some(hw) => {
                        let gcm = AesGcm { backend: Backend::AesNi(hw) };
                        backends.push((format!("{width:?}"), gcm));
                    }
                    None => eprintln!("skipped: this CPU cannot run the {width:?} loops"),
                }
            }
            for (name, gcm) in &backends {
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

    // `new` must land on the hardware backend exactly when the CPU
    // reports the three features, and `portable` never; the label
    // names the 256-bit loops exactly when it reports three more.
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
            assert_eq!(matches!(selected.backend, Backend::AesNi(_)), aesni);
            let expected = match (aesni, wide) {
                (_, true) => "vaes-vpclmul",
                (true, false) => "aesni-pclmul",
                (false, false) => "bitsliced",
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
