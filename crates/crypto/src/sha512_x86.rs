//! SHA-512's compression function with its message schedule on
//! AVX-512VL and its rounds on BMI2.
//!
//! The same FIPS 180-4 computation as [`crate::sha2`]'s portable core,
//! split across the two kinds of execution unit:
//!
//! * **The schedule** runs on 128-bit registers, two words to a
//!   register: `PSHUFB` byte-swaps the block's sixteen big-endian
//!   words, and each later pair comes from one step of `VPRORQ`
//!   rotates, shifts and three-way `VPTERNLOGQ` XORs for σ0 and σ1,
//!   with `PALIGNR` building the pairs that straddle two registers.
//!   Each pair is stored with its round constants added, eight words
//!   ahead of the rounds that read them, into a ring of two
//!   eight-word slots.
//! * **The rounds** are [`crate::sha2`]'s eight-round unroll, compiled
//!   here with BMI2, so each of a round's six rotates is a `RORX`.
//!   They depend on the schedule only through the slot written one
//!   group earlier, so the out-of-order core overlaps the vector
//!   schedule of the next eight rounds with the scalar rounds of
//!   these.
//!
//! # Soundness
//!
//! Every function here that executes an AVX-512, BMI2 or SSSE3
//! instruction carries `#[target_feature]` for features
//! [`Kernel::detect`] tests and is private. The only way to obtain a
//! [`Kernel`] is [`Kernel::detect`], which returns `None` unless the
//! CPU reports all four, so holding one is proof that the unsafe call
//! in [`Kernel::compress`] is sound. The remaining unsafe blocks are
//! unaligned SSE2 loads and stores through 16-byte array references.

use core::arch::x86_64::{
    __m128i, _mm_add_epi64, _mm_alignr_epi8, _mm_loadu_si128, _mm_ror_epi64, _mm_set_epi8,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_srli_epi64, _mm_storeu_si128, _mm_ternarylogic_epi64,
};

use crate::sha2::{eight_rounds, K512};

/// Proof that this CPU runs the kernel: AVX-512F and AVX-512VL for
/// the 128-bit `VPRORQ` and `VPTERNLOGQ`, BMI2 for `RORX`, SSSE3 for
/// `PSHUFB` and `PALIGNR`.
#[derive(Clone, Copy)]
pub(crate) struct Kernel(());

impl Kernel {
    /// `Some` exactly when the CPU reports all four features. The
    /// standard library caches what it detected, so this is a few
    /// loads and tests.
    pub(crate) fn detect() -> Option<Kernel> {
        use std::arch::is_x86_feature_detected;
        let runs = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("bmi2")
            && is_x86_feature_detected!("ssse3");
        runs.then_some(Kernel(()))
    }

    /// One compression of `block` into `state`.
    #[inline(always)]
    pub(crate) fn compress(self, state: &mut [u64; 8], block: &[u8; 128]) {
        // SAFETY: `self` exists, so `detect` saw the CPU report every
        // feature `compress` enables.
        unsafe { compress(state, block) }
    }
}

#[target_feature(enable = "avx512f,avx512vl,bmi2,ssse3")]
fn compress(state: &mut [u64; 8], block: &[u8; 128]) {
    // Byte order within each 64-bit lane reversed: big-endian words.
    let swap = _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
    // `x[j]` holds schedule words 2j and 2j + 1 modulo 16.
    let mut x = [_mm_setzero_si128(); 8];
    for (x, bytes) in x.iter_mut().zip(block.as_chunks::<16>().0) {
        *x = _mm_shuffle_epi8(load(bytes), swap);
    }
    let (k, _) = K512.as_chunks::<8>();
    // Slot `g % 2` holds the words of rounds 8g..8g + 8 plus their
    // constants.
    let mut wk = [[0u64; 8]; 2];
    for (g, slot) in wk.iter_mut().enumerate() {
        for (i, pair) in slot.as_chunks_mut().0.iter_mut().enumerate() {
            store(pair, _mm_add_epi64(x[4 * g + i], load(&k[g].as_chunks::<2>().0[i])));
        }
    }
    let mut v = *state;
    eight_rounds(&mut v, &wk[0]);
    for n in 0..4 {
        // Groups 2n + 1 and 2n + 2, each beside the schedule of the
        // group after it.
        schedule(&mut x, 0, &k[2 * n + 2], &mut wk[0]);
        eight_rounds(&mut v, &wk[1]);
        schedule(&mut x, 4, &k[2 * n + 3], &mut wk[1]);
        eight_rounds(&mut v, &wk[0]);
    }
    eight_rounds(&mut v, &wk[1]);
    for (s, v) in state.iter_mut().zip(v) {
        *s = s.wrapping_add(v);
    }
}

/// The next eight schedule words in place of `x[first..first + 4]`
/// (the words sixteen back), and the same words plus their round
/// constants `k` into `slot`. Two words per step: W[t] and W[t + 1]
/// need W[t - 2] and W[t - 1] for σ1, both already computed, so a
/// pair never waits on its own first half.
#[target_feature(enable = "avx512f,avx512vl,ssse3")]
fn schedule(x: &mut [__m128i; 8], first: usize, k: &[u64; 8], slot: &mut [u64; 8]) {
    for (i, pair) in slot.as_chunks_mut().0.iter_mut().enumerate() {
        let j = first + i;
        // (W[t - 15], W[t - 14]) and (W[t - 7], W[t - 6]) straddle two
        // registers each; (W[t - 2], W[t - 1]) is one.
        let w15 = _mm_alignr_epi8::<8>(x[(j + 1) % 8], x[j]);
        let w7 = _mm_alignr_epi8::<8>(x[(j + 5) % 8], x[(j + 4) % 8]);
        let w2 = x[(j + 7) % 8];
        x[j] = _mm_add_epi64(_mm_add_epi64(x[j], sigma0(w15)), _mm_add_epi64(w7, sigma1(w2)));
        store(pair, _mm_add_epi64(x[j], load(&k.as_chunks::<2>().0[i])));
    }
}

/// σ0 of both words: two `VPRORQ`s and a shift, XORed by one
/// `VPTERNLOGQ`.
#[target_feature(enable = "avx512f,avx512vl")]
fn sigma0(w: __m128i) -> __m128i {
    let (r1, r8, s7) = (_mm_ror_epi64::<1>(w), _mm_ror_epi64::<8>(w), _mm_srli_epi64::<7>(w));
    _mm_ternarylogic_epi64::<0x96>(r1, r8, s7)
}

/// σ1 of both words, as [`sigma0`].
#[target_feature(enable = "avx512f,avx512vl")]
fn sigma1(w: __m128i) -> __m128i {
    let (r19, r61, s6) = (_mm_ror_epi64::<19>(w), _mm_ror_epi64::<61>(w), _mm_srli_epi64::<6>(w));
    _mm_ternarylogic_epi64::<0x96>(r19, r61, s6)
}

/// The 16 bytes of `v` (a block's two words, or two round constants)
/// as one register.
#[inline(always)]
fn load<T, const N: usize>(v: &[T; N]) -> __m128i {
    const { assert!(size_of::<[T; N]>() == 16) };
    // SAFETY: SSE2 is part of the x86_64 baseline, so this needs no
    // detection; `v` is 16 readable bytes (asserted when this
    // instance compiles) and the load is the unaligned form.
    unsafe { _mm_loadu_si128(v.as_ptr().cast()) }
}

#[inline(always)]
fn store(pair: &mut [u64; 2], v: __m128i) {
    // SAFETY: SSE2 is part of the x86_64 baseline, so this needs no
    // detection; `pair` is 16 writable bytes and the store is the
    // unaligned form.
    unsafe { _mm_storeu_si128(pair.as_mut_ptr().cast(), v) }
}
