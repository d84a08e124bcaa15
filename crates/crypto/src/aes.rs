//! Constant-time bitsliced AES (FIPS 197), 128- and 256-bit keys.
//!
//! This is the workspace's bulk-encryption fast path. The cipher is
//! evaluated as a boolean circuit over eight 128-bit bit-planes, each
//! holding eight blocks side by side — BearSSL's `aes_ct64` layout
//! widened to two independent 64-bit lanes per plane:
//!
//! * **No S-box tables.** SubBytes is the Boyar–Peralta 113-gate
//!   circuit applied to the bit-planes, so there are no
//!   data-dependent memory accesses anywhere in the cipher — the
//!   classic AES cache-timing channel does not exist on this path.
//! * **Eight blocks per invocation.** One pass through the circuit
//!   encrypts 128 bytes; [`Aes::ctr_xor`] drives it as a CTR
//!   keystream generator for GCM, which is where the bulk throughput
//!   of the record layer comes from.
//! * **One circuit, two word types.** The round functions are generic
//!   over [`Word`], whose only exotic requirement is per-64-bit-lane
//!   shifts. On x86_64 the word is an SSE2 `__m128i` (the planes live
//!   in XMM registers and `PSLLQ`/`PSRLQ` give the lane-local shifts
//!   directly); elsewhere it is a plain `u128` with masked shifts.
//!   Both compute bit-identical results and the portable type is
//!   cross-checked against the SIMD type in tests.
//!
//! Representation: a block is decoded into four little-endian `u32`
//! words; `interleave_in` spreads one block's words across a `u64`
//! pair, four blocks fill each 64-bit lane, and `ortho` transposes
//! the per-lane 8×8 bit matrices so that `q[i]` holds bit `i` of
//! every byte of all eight blocks.

use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::gcm::{Blocks, InPlace};
use crate::CryptoError;

/// Round constants for key expansion (enough for AES-128 and
/// AES-256; AES-192 is intentionally unsupported).
const RCON: [u32; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Replicate a four-lane `u64` plane into both halves of a `u128`.
#[inline]
fn dup(v: u64) -> u128 {
    u128::from(v) | (u128::from(v) << 64)
}

/// A 128-bit plane the cipher circuit can run on: two independent
/// 64-bit lanes with bitwise logic and lane-local shifts. The shift
/// amount is a const generic so the SSE2 implementation can use
/// immediate-form `PSLLQ`/`PSRLQ`.
trait Word:
    Copy
    + BitXor<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
{
    fn from_u128(x: u128) -> Self;
    fn to_u128(self) -> u128;
    /// Shift each 64-bit lane left by `N` (bits do not cross lanes).
    fn shl64<const N: i32>(self) -> Self;
    /// Shift each 64-bit lane right by `N`.
    fn shr64<const N: i32>(self) -> Self;
}

impl Word for u128 {
    #[inline]
    fn from_u128(x: u128) -> Self {
        x
    }

    #[inline]
    fn to_u128(self) -> u128 {
        self
    }

    #[inline]
    fn shl64<const N: i32>(self) -> Self {
        // Mask off the bits a full-width shift would leak across the
        // lane boundary.
        (self << N) & dup(u64::MAX << N)
    }

    #[inline]
    fn shr64<const N: i32>(self) -> Self {
        (self >> N) & dup(u64::MAX >> N)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_or_si128, _mm_set1_epi64x, _mm_slli_epi64,
        _mm_srli_epi64, _mm_xor_si128,
    };
    use std::ops::{BitAnd, BitOr, BitXor, Not};

    /// Two 64-bit lanes in one XMM register. SSE2 is part of the
    /// x86_64 baseline, so these intrinsics are statically available;
    /// none of them touch memory (register-only), which makes the
    /// `unsafe` blocks below trivially sound.
    #[derive(Clone, Copy)]
    pub(super) struct X2(__m128i);

    impl BitXor for X2 {
        type Output = Self;
        #[inline]
        fn bitxor(self, rhs: Self) -> Self {
            // SAFETY: SSE2 is statically enabled on every x86_64 target;
            // register-only intrinsic, no memory access.
            X2(unsafe { _mm_xor_si128(self.0, rhs.0) })
        }
    }

    impl BitAnd for X2 {
        type Output = Self;
        #[inline]
        fn bitand(self, rhs: Self) -> Self {
            // SAFETY: as in `BitXor`: SSE2 baseline, register-only.
            X2(unsafe { _mm_and_si128(self.0, rhs.0) })
        }
    }

    impl BitOr for X2 {
        type Output = Self;
        #[inline]
        fn bitor(self, rhs: Self) -> Self {
            // SAFETY: as in `BitXor`: SSE2 baseline, register-only.
            X2(unsafe { _mm_or_si128(self.0, rhs.0) })
        }
    }

    impl Not for X2 {
        type Output = Self;
        #[inline]
        fn not(self) -> Self {
            // SAFETY: as in `BitXor`: SSE2 baseline, register-only.
            X2(unsafe { _mm_xor_si128(self.0, _mm_set1_epi64x(-1)) })
        }
    }

    impl super::Word for X2 {
        #[inline]
        fn from_u128(x: u128) -> Self {
            // SAFETY: `u128` and `__m128i` are both plain 128-bit
            // data with every bit pattern valid; this compiles to a
            // plain 16-byte move (unlike `_mm_set_epi64x`, which
            // reassembles the value from two 64-bit halves on every
            // round-key load).
            X2(unsafe { core::mem::transmute::<u128, __m128i>(x) })
        }

        #[inline]
        fn to_u128(self) -> u128 {
            // SAFETY: as in `from_u128` — same size, no invalid bit
            // patterns on either side.
            unsafe { core::mem::transmute::<__m128i, u128>(self.0) }
        }

        #[inline]
        fn shl64<const N: i32>(self) -> Self {
            // SAFETY: as in `BitXor`: SSE2 baseline, register-only.
            X2(unsafe { _mm_slli_epi64::<N>(self.0) })
        }

        #[inline]
        fn shr64<const N: i32>(self) -> Self {
            // SAFETY: as in `BitXor`: SSE2 baseline, register-only.
            X2(unsafe { _mm_srli_epi64::<N>(self.0) })
        }
    }
}

/// The word type the bulk path runs on.
#[cfg(target_arch = "x86_64")]
type Lanes = x86::X2;
#[cfg(not(target_arch = "x86_64"))]
type Lanes = u128;

/// An expanded AES key, usable for block encryption.
///
/// Decryption of blocks is not implemented: GCM (the only mode this
/// workspace uses) needs the forward direction only.
#[derive(Clone)]
pub struct Aes {
    /// Bitsliced round keys, 8 planes per round, replicated across
    /// all eight block lanes (stored architecture-neutrally).
    skey: Vec<u128>,
    rounds: usize,
}

impl Aes {
    /// Expand a 16-byte (AES-128) or 32-byte (AES-256) key.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8usize, 14usize),
            _ => return Err(CryptoError::BadKeyLength),
        };
        // Standard 32-bit word expansion over little-endian words
        // (the convention the interleave step consumes). SubWord runs
        // through the bitsliced S-box, so key expansion is itself
        // free of table lookups.
        let nwords = 4 * (rounds + 1);
        let mut w = vec![0u32; nwords];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_le_bytes(crate::fixed(chunk));
        }
        let mut tmp = w[nk - 1];
        for i in nk..nwords {
            if i % nk == 0 {
                // RotWord on a little-endian word is a right rotation
                // by one byte; Rcon lands in the low (first) byte.
                tmp = tmp.rotate_right(8);
                tmp = sub_word(tmp) ^ RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                tmp = sub_word(tmp);
            }
            tmp ^= w[i - nk];
            w[i] = tmp;
        }
        // Bitslice each round key and replicate it across the eight
        // block lanes so one copy serves the whole batch.
        let mut skey = vec![0u128; 8 * (rounds + 1)];
        for (round, chunk) in w.chunks_exact(4).enumerate() {
            let mut q = [0u128; 8];
            let (q0, q4) = interleave_in([chunk[0], chunk[1], chunk[2], chunk[3]]);
            for lane in 0..4 {
                q[lane] = dup(q0);
                q[lane + 4] = dup(q4);
            }
            ortho(&mut q);
            // The input was replicated across all lanes, so the
            // transposed planes are already the round key in the form
            // `add_round_key` consumes for an eight-block batch.
            skey[8 * round..8 * round + 8].copy_from_slice(&q);
        }
        crate::ct::zeroize(&mut w);
        Ok(Aes { skey, rounds })
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypt eight 16-byte blocks in parallel, in place.
    pub fn encrypt8(&self, blocks: &mut [[u8; 16]; 8]) {
        self.encrypt8_with::<Lanes>(blocks);
    }

    fn encrypt8_with<W: Word>(&self, blocks: &mut [[u8; 16]; 8]) {
        let mut q = [W::from_u128(0); 8];
        for i in 0..4 {
            let (lo0, lo1) = interleave_in(decode_words(&blocks[i]));
            let (hi0, hi1) = interleave_in(decode_words(&blocks[i + 4]));
            q[i] = W::from_u128(u128::from(lo0) | (u128::from(hi0) << 64));
            q[i + 4] = W::from_u128(u128::from(lo1) | (u128::from(hi1) << 64));
        }
        ortho(&mut q);
        self.encrypt_sliced(&mut q);
        ortho(&mut q);
        for i in 0..4 {
            let a = q[i].to_u128();
            let b = q[i + 4].to_u128();
            blocks[i] = encode_words(interleave_out(a as u64, b as u64));
            blocks[i + 4] = encode_words(interleave_out((a >> 64) as u64, (b >> 64) as u64));
        }
    }

    /// Encrypt one 16-byte block in place. Runs the circuit on the
    /// portable word type with seven idle lanes — used once per GCM
    /// message (H, E(J0)); use [`Aes::encrypt8`] or [`Aes::ctr_xor`]
    /// for bulk work.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut q = [0u128; 8];
        let (q0, q4) = interleave_in(decode_words(block));
        q[0] = u128::from(q0);
        q[4] = u128::from(q4);
        ortho(&mut q);
        self.encrypt_sliced(&mut q);
        ortho(&mut q);
        *block = encode_words(interleave_out(q[0] as u64, q[4] as u64));
    }

    /// Encrypt one block out of place (convenience for CTR keystream).
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// XOR the GCM CTR keystream into `data`: counter block `i` is
    /// `nonce || be32(counter0 + i)` (32-bit wrapping increment, per
    /// SP 800-38D inc32). Eight counter blocks are generated per pass
    /// through the cipher circuit.
    pub fn ctr_xor(&self, nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
        self.ctr(nonce, counter0, &mut InPlace(data));
    }

    /// The one CTR loop: [`Aes::ctr_xor`]'s keystream over `blocks`,
    /// in place or from a source into a destination.
    pub(crate) fn ctr(&self, nonce: &[u8; 12], counter0: u32, blocks: &mut impl Blocks) {
        let mut counter = counter0;
        let whole = blocks.len() - blocks.len() % 128;
        for at in (0..whole).step_by(128) {
            let ks = self.ctr_keystream(nonce, counter);
            counter = counter.wrapping_add(8);
            blocks.pass::<128, 16>(at, |i, block| {
                (u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(ks[i])).to_ne_bytes()
            });
        }
        if whole < blocks.len() {
            blocks.xor_tail(whole, self.ctr_keystream(nonce, counter).as_flattened());
        }
    }

    /// Generate 128 bytes of keystream for counters `counter..counter+8`.
    fn ctr_keystream(&self, nonce: &[u8; 12], counter: u32) -> [[u8; 16]; 8] {
        let mut blocks = [[0u8; 16]; 8];
        for (i, block) in blocks.iter_mut().enumerate() {
            block[..12].copy_from_slice(nonce);
            block[12..].copy_from_slice(&counter.wrapping_add(i as u32).to_be_bytes());
        }
        self.encrypt8(&mut blocks);
        blocks
    }

    /// The round function over the bitsliced state.
    fn encrypt_sliced<W: Word>(&self, q: &mut [W; 8]) {
        add_round_key(q, &self.skey[0..8]);
        for round in 1..self.rounds {
            sbox(q);
            shift_rows(q);
            mix_columns(q);
            add_round_key(q, &self.skey[8 * round..8 * round + 8]);
        }
        sbox(q);
        shift_rows(q);
        add_round_key(q, &self.skey[8 * self.rounds..8 * self.rounds + 8]);
    }
}

impl Drop for Aes {
    fn drop(&mut self) {
        crate::ct::zeroize(&mut self.skey);
    }
}

/// Decode a block into four little-endian words.
#[inline]
fn decode_words(block: &[u8; 16]) -> [u32; 4] {
    [
        u32::from_le_bytes(crate::fixed(&block[0..4])),
        u32::from_le_bytes(crate::fixed(&block[4..8])),
        u32::from_le_bytes(crate::fixed(&block[8..12])),
        u32::from_le_bytes(crate::fixed(&block[12..16])),
    ]
}

/// Encode four little-endian words back into a block.
#[inline]
fn encode_words(w: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&w[0].to_le_bytes());
    out[4..8].copy_from_slice(&w[1].to_le_bytes());
    out[8..12].copy_from_slice(&w[2].to_le_bytes());
    out[12..16].copy_from_slice(&w[3].to_le_bytes());
    out
}

/// Spread one block's four words over a `u64` pair: byte-interleaved,
/// ready for `ortho` to finish the bit transposition.
#[inline]
fn interleave_in(w: [u32; 4]) -> (u64, u64) {
    let mut x = [w[0] as u64, w[1] as u64, w[2] as u64, w[3] as u64];
    for v in x.iter_mut() {
        *v |= *v << 16;
        *v &= 0x0000_ffff_0000_ffff;
        *v |= *v << 8;
        *v &= 0x00ff_00ff_00ff_00ff;
    }
    (x[0] | (x[2] << 8), x[1] | (x[3] << 8))
}

/// Inverse of [`interleave_in`].
#[inline]
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let mut x = [
        q0 & 0x00ff_00ff_00ff_00ff,
        q1 & 0x00ff_00ff_00ff_00ff,
        (q0 >> 8) & 0x00ff_00ff_00ff_00ff,
        (q1 >> 8) & 0x00ff_00ff_00ff_00ff,
    ];
    let mut w = [0u32; 4];
    for (v, out) in x.iter_mut().zip(w.iter_mut()) {
        *v |= *v >> 8;
        *v &= 0x0000_ffff_0000_ffff;
        *out = (*v as u32) | ((*v >> 16) as u32);
    }
    w
}

/// Transpose the 8×8 bit matrix spread across the eight planes,
/// independently in each 64-bit lane (involution: applying it twice
/// restores the input). The masked shifts by 1/2/4 never move a bit
/// across a lane boundary.
fn ortho<W: Word>(q: &mut [W; 8]) {
    #[inline]
    fn swap_n<W: Word, const S: i32>(cl: u64, x: &mut W, y: &mut W) {
        let ml = W::from_u128(dup(cl));
        let mh = W::from_u128(dup(!cl));
        let a = *x;
        let b = *y;
        *x = (a & ml) | (b & ml).shl64::<S>();
        *y = (a & mh).shr64::<S>() | (b & mh);
    }

    let [mut q0, mut q1, mut q2, mut q3, mut q4, mut q5, mut q6, mut q7] = *q;
    swap_n::<W, 1>(0x5555_5555_5555_5555, &mut q0, &mut q1);
    swap_n::<W, 1>(0x5555_5555_5555_5555, &mut q2, &mut q3);
    swap_n::<W, 1>(0x5555_5555_5555_5555, &mut q4, &mut q5);
    swap_n::<W, 1>(0x5555_5555_5555_5555, &mut q6, &mut q7);

    swap_n::<W, 2>(0x3333_3333_3333_3333, &mut q0, &mut q2);
    swap_n::<W, 2>(0x3333_3333_3333_3333, &mut q1, &mut q3);
    swap_n::<W, 2>(0x3333_3333_3333_3333, &mut q4, &mut q6);
    swap_n::<W, 2>(0x3333_3333_3333_3333, &mut q5, &mut q7);

    swap_n::<W, 4>(0x0f0f_0f0f_0f0f_0f0f, &mut q0, &mut q4);
    swap_n::<W, 4>(0x0f0f_0f0f_0f0f_0f0f, &mut q1, &mut q5);
    swap_n::<W, 4>(0x0f0f_0f0f_0f0f_0f0f, &mut q2, &mut q6);
    swap_n::<W, 4>(0x0f0f_0f0f_0f0f_0f0f, &mut q3, &mut q7);
    *q = [q0, q1, q2, q3, q4, q5, q6, q7];
}

/// SubWord for the key schedule: one 32-bit word through the
/// bitsliced S-box (the idle lanes are zero and do not interfere).
fn sub_word(x: u32) -> u32 {
    let mut q = [0u128; 8];
    q[0] = u128::from(x);
    ortho(&mut q);
    sbox(&mut q);
    ortho(&mut q);
    q[0] as u32
}

/// The AES S-box as the Boyar–Peralta combinational circuit
/// (<https://eprint.iacr.org/2009/191>): 113 gates, no table, applied
/// to all eight lanes of all 16 bytes at once. Plane 7 is the least
/// significant bit of each byte.
#[allow(clippy::many_single_char_names)]
fn sbox<W: Word>(q: &mut [W; 8]) {
    let x0 = q[7];
    let x1 = q[6];
    let x2 = q[5];
    let x3 = q[4];
    let x4 = q[3];
    let x5 = q[2];
    let x6 = q[1];
    let x7 = q[0];

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    q[7] = s0;
    q[6] = s1;
    q[5] = s2;
    q[4] = s3;
    q[3] = s4;
    q[2] = s5;
    q[1] = s6;
    q[0] = s7;
}

/// ShiftRows over the bitsliced planes: each 64-bit lane carries the
/// 16 byte positions as 16-bit row groups; rows rotate within them.
/// Every masked shift stays inside its 16-bit group, so the same
/// masks serve both lanes.
#[inline]
fn shift_rows<W: Word>(q: &mut [W; 8]) {
    let m_keep = W::from_u128(dup(0x0000_0000_0000_ffff));
    let m_r1a = W::from_u128(dup(0x0000_0000_fff0_0000));
    let m_r1b = W::from_u128(dup(0x0000_0000_000f_0000));
    let m_r2a = W::from_u128(dup(0x0000_ff00_0000_0000));
    let m_r2b = W::from_u128(dup(0x0000_00ff_0000_0000));
    let m_r3a = W::from_u128(dup(0xf000_0000_0000_0000));
    let m_r3b = W::from_u128(dup(0x0fff_0000_0000_0000));
    for x in q.iter_mut() {
        let v = *x;
        *x = (v & m_keep)
            | (v & m_r1a).shr64::<4>()
            | (v & m_r1b).shl64::<12>()
            | (v & m_r2a).shr64::<8>()
            | (v & m_r2b).shl64::<8>()
            | (v & m_r3a).shr64::<12>()
            | (v & m_r3b).shl64::<4>();
    }
}

/// Rotate each 64-bit lane right by 16 (MixColumns' multiply-by-x).
#[inline]
fn rotr16<W: Word>(x: W) -> W {
    x.shr64::<16>() | x.shl64::<48>()
}

/// Rotate each 64-bit lane by 32.
#[inline]
fn rotr32<W: Word>(x: W) -> W {
    x.shr64::<32>() | x.shl64::<32>()
}

/// MixColumns over the bitsliced planes (multiplication by x becomes
/// a lane-local plane rotation plus the reduction feedback into
/// planes 0/1/3/4).
#[inline]
fn mix_columns<W: Word>(q: &mut [W; 8]) {
    let q0 = q[0];
    let q1 = q[1];
    let q2 = q[2];
    let q3 = q[3];
    let q4 = q[4];
    let q5 = q[5];
    let q6 = q[6];
    let q7 = q[7];
    let r0 = rotr16(q0);
    let r1 = rotr16(q1);
    let r2 = rotr16(q2);
    let r3 = rotr16(q3);
    let r4 = rotr16(q4);
    let r5 = rotr16(q5);
    let r6 = rotr16(q6);
    let r7 = rotr16(q7);

    q[0] = q7 ^ r7 ^ r0 ^ rotr32(q0 ^ r0);
    q[1] = q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ rotr32(q1 ^ r1);
    q[2] = q1 ^ r1 ^ r2 ^ rotr32(q2 ^ r2);
    q[3] = q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ rotr32(q3 ^ r3);
    q[4] = q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ rotr32(q4 ^ r4);
    q[5] = q4 ^ r4 ^ r5 ^ rotr32(q5 ^ r5);
    q[6] = q5 ^ r5 ^ r6 ^ rotr32(q6 ^ r6);
    q[7] = q6 ^ r6 ^ r7 ^ rotr32(q7 ^ r7);
}

#[inline]
fn add_round_key<W: Word>(q: &mut [W; 8], sk: &[u128]) {
    for (plane, k) in q.iter_mut().zip(sk.iter()) {
        *plane = *plane ^ W::from_u128(*k);
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
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    // FIPS 197 Appendix C.3: AES-256.
    #[test]
    fn fips197_aes256() {
        let key = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("8ea2b7ca516745bfeafc49904b496089"));
    }

    // NIST SP 800-38A F.1.1 ECB-AES128 first block.
    #[test]
    fn sp800_38a_ecb128() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn rejects_bad_key_lengths() {
        assert!(Aes::new(&[0; 15]).is_err());
        assert!(Aes::new(&[0; 24]).is_err()); // AES-192 intentionally unsupported
        assert!(Aes::new(&[0; 33]).is_err());
        assert!(Aes::new(&[]).is_err());
    }

    #[test]
    fn key_expansion_round_counts() {
        assert_eq!(Aes::new(&[0; 16]).unwrap().rounds, 10);
        assert_eq!(Aes::new(&[0; 32]).unwrap().rounds, 14);
    }

    #[test]
    fn ortho_is_involution() {
        let mut q = [0u128; 8];
        for (i, plane) in q.iter_mut().enumerate() {
            *plane = dup(0x0123_4567_89ab_cdef_u64.wrapping_mul(i as u64 + 1))
                ^ (u128::from(i as u64) << 64);
        }
        let orig = q;
        ortho(&mut q);
        assert_ne!(q, orig);
        ortho(&mut q);
        assert_eq!(q, orig);
    }

    // The two word types must implement identical lane semantics.
    #[test]
    fn word_types_agree() {
        let samples = [
            0u128,
            u128::MAX,
            dup(0x0123_4567_89ab_cdef),
            0xfedc_ba98_7654_3210_0f0f_0f0f_0f0f_0f0f,
        ];
        for &x in &samples {
            let w = Lanes::from_u128(x);
            assert_eq!(w.to_u128(), x);
            assert_eq!(w.shl64::<13>().to_u128(), x.shl64::<13>());
            assert_eq!(w.shr64::<13>().to_u128(), x.shr64::<13>());
            assert_eq!((!w).to_u128(), !x);
            for &y in &samples {
                let v = Lanes::from_u128(y);
                assert_eq!((w ^ v).to_u128(), x ^ y);
                assert_eq!((w & v).to_u128(), x & y);
                assert_eq!((w | v).to_u128(), x | y);
            }
        }
    }

    /// The S-box from its definition (FIPS 197 §5.1.1): the inverse
    /// in GF(2⁸) mod x⁸+x⁴+x³+x+1 (0 ↦ 0), then the affine map.
    fn sbox_by_definition(b: u8) -> u8 {
        let gf_mul = |mut a: u8, mut b: u8| {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 == 1 {
                    p ^= a;
                }
                a = (a << 1) ^ (((a >> 7) & 1) * 0x1b);
                b >>= 1;
            }
            p
        };
        // b⁻¹ = b²⁵⁴ = (b¹²⁷)², and b¹²⁷ is six rounds of e ↦ 2e + 1.
        let b127 = (0..6).fold(b, |acc, _| gf_mul(gf_mul(acc, acc), b));
        let inv = gf_mul(b127, b127);
        inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
    }

    // The bitsliced S-box circuit must match the reference table —
    // computed here from the S-box's definition, with the published
    // corner values pinned — for every input byte, in every byte
    // position of the word.
    #[test]
    fn sbox_matches_reference_table() {
        for (b, published) in [(0x00u8, 0x63u8), (0x01, 0x7c), (0x53, 0xed), (0xff, 0x16)] {
            assert_eq!(sbox_by_definition(b), published);
        }
        for b in 0u32..256 {
            let word = b | (b << 8) | (b << 16) | (b << 24);
            let out = sub_word(word);
            let expected = sbox_by_definition(b as u8);
            for byte in 0..4 {
                assert_eq!(((out >> (8 * byte)) & 0xff) as u8, expected, "byte {b:#x}");
            }
        }
    }

    // Differential: random blocks and keys through the eight-wide
    // path on both word types against the reference cipher — the
    // block-at-a-time path, which the FIPS 197 and SP 800-38A vectors
    // above pin and which shares neither the block packing nor the
    // lane type with the wide ones. (Against an independent
    // implementation the cipher is checked one level up: AES-NI
    // versus bitsliced in `gcm` and tests/gcm_vectors.rs.)
    #[test]
    fn matches_reference_cipher() {
        let mut rng = crate::rng::CryptoRng::from_seed(0xAE5);
        for key_len in [16usize, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            let aes = Aes::new(&key).unwrap();
            let mut blocks = [[0u8; 16]; 8];
            for _ in 0..64 {
                for b in blocks.iter_mut() {
                    rng.fill(b);
                }
                let expected: Vec<[u8; 16]> =
                    blocks.iter().map(|b| aes.encrypt_block_copy(b)).collect();
                // Eight-wide path (whatever word type the platform
                // selected).
                let mut batch = blocks;
                aes.encrypt8(&mut batch);
                assert_eq!(batch.to_vec(), expected);
                // Eight-wide portable path, explicitly (on x86_64
                // this cross-checks u128 against the SSE2 type).
                let mut batch = blocks;
                aes.encrypt8_with::<u128>(&mut batch);
                assert_eq!(batch.to_vec(), expected);
            }
        }
    }

    #[test]
    fn ctr_xor_roundtrips_and_matches_blockwise() {
        let mut rng = crate::rng::CryptoRng::from_seed(0xC7C7);
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        let aes = Aes::new(&key).unwrap();
        let nonce = [7u8; 12];
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 1024] {
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            let orig = data.clone();
            aes.ctr_xor(&nonce, 2, &mut data);
            // The keystream again, one block at a time.
            let mut expected = orig.clone();
            for (i, chunk) in expected.chunks_mut(16).enumerate() {
                let mut cb = [0u8; 16];
                cb[..12].copy_from_slice(&nonce);
                cb[12..].copy_from_slice(&(2u32.wrapping_add(i as u32)).to_be_bytes());
                let ks = aes.encrypt_block_copy(&cb);
                for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            assert_eq!(data, expected, "len {len}");
            // XOR is an involution: applying again restores.
            aes.ctr_xor(&nonce, 2, &mut data);
            assert_eq!(data, orig);
        }
    }
}
