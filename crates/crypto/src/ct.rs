//! Constant-time helpers and the volatile wipe.
//!
//! The comparison primitives here avoid data-dependent branches so MAC
//! and tag checks in the record layer do not leak match prefixes. The
//! `black_box` hints keep the optimizer from re-introducing early
//! exits. [`zeroize`] is the one volatile wipe every key-bearing type
//! goes through, over bytes and integer words alike (SHA-2 state,
//! bignum limbs, the AES key schedules, the GHASH powers of H): it
//! stores eight bytes at a time wherever the slice is 8-byte aligned,
//! and bytes only at its ends.

use std::hint::black_box;

/// Constant-time equality over equal-length byte slices.
///
/// Returns `false` immediately (and only) on a length mismatch — the
/// lengths of MACs and tags are public.
pub fn eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    black_box(diff) == 0
}

/// Constant-time conditional select over bytes: returns `a` when
/// `choice` is 1, `b` when 0. `choice` must be 0 or 1.
pub fn select_byte(choice: u8, a: u8, b: u8) -> u8 {
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg(); // 0x00 or 0xff
    (a & mask) | (b & !mask)
}

/// Constant-time equality mask over words: `u64::MAX` when `a == b`,
/// all-zero otherwise, with no branch. The building block for masked
/// table scans (see `ed25519::ct_lookup`).
pub fn mask_eq_u64(a: u64, b: u64) -> u64 {
    let diff = a ^ b;
    // `diff | diff.wrapping_neg()` has its top bit set iff diff != 0.
    ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// Constant-time conditional swap of two equal-length buffers when
/// `choice` is 1.
pub fn cond_swap(choice: u8, a: &mut [u8], b: &mut [u8]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(choice <= 1);
    let mask = choice.wrapping_neg();
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let t = (*x ^ *y) & mask;
        *x ^= t;
        *y ^= t;
    }
}

/// A primitive unsigned integer: no padding bytes, and every byte
/// pattern, all-zero included, is a valid value. That is what lets
/// [`zeroize`] wipe a slice of one through a byte view of its memory.
/// Sealed: the impls below, one per width the crate wipes, are the
/// whole list.
pub trait Integer: Copy + sealed::Sealed {}

mod sealed {
    pub trait Sealed {}
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Integer for $t {}
    )*};
}
integers!(u8, u32, u64, u128);

/// Best-effort zeroization of key material: bytes, or the words of an
/// expanded key schedule or a GHASH key.
///
/// Every store is volatile, so the compiler cannot elide the wipe of a
/// buffer that is about to be dropped, and the fence after them keeps
/// later code from being moved above them. The slice is wiped as bytes
/// up to its first 8-byte boundary, as 8-byte words from there, and as
/// bytes after its last whole word: a 256-byte key schedule is 32
/// stores, not 256. This is the crate's one volatile write.
pub fn zeroize<T: Integer>(buf: &mut [T]) {
    let len = std::mem::size_of_val(buf);
    // SAFETY: `T: Integer` is a primitive integer, so the `len` bytes
    // behind `buf` are initialised, belong to it alone for the
    // lifetime of the `&mut`, and any bytes written through the view
    // leave valid `T`s behind.
    let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
    // SAFETY: every bit pattern is a valid `u64`, and `align_to_mut`
    // hands out only whole, aligned words inside `bytes`.
    let (head, words, tail) = unsafe { bytes.align_to_mut::<u64>() };
    for b in head.iter_mut().chain(tail) {
        // SAFETY: a volatile write of a valid `u8` through a `&mut`.
        unsafe { std::ptr::write_volatile(b, 0) };
    }
    for w in words {
        // SAFETY: a volatile write of a valid `u64` through a `&mut`.
        unsafe { std::ptr::write_volatile(w, 0) };
    }
    std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
}

/// Test support for the secret-lifecycle invariant: prove that a
/// secret-bearing type's `wipe` routine — the body of its `Drop`
/// impl — zeroes every key byte while preserving buffer lengths.
///
/// `fields` extracts the secret byte slices from the value; the same
/// extractor runs before and after `wipe`, so a wipe that reallocates
/// or truncates a buffer (instead of scrubbing it in place) fails the
/// probe. The `needs_drop` assertion ties the probe to the type
/// actually having a destructor: a type whose `Drop` impl is removed
/// fails here even though its `wipe` method still compiles.
///
/// Panics (it is an assertion helper for `#[test]` code) when the
/// probe value starts all-zero — a degenerate probe proves nothing.
pub fn assert_wipes<T, F>(mut value: T, wipe: fn(&mut T), fields: F)
where
    F: Fn(&T) -> Vec<Vec<u8>>,
{
    assert!(
        std::mem::needs_drop::<T>(),
        "secret type has no destructor; `impl Drop` must call wipe()"
    );
    let before = fields(&value);
    assert!(
        before.iter().any(|f| f.iter().any(|&b| b != 0)),
        "drop probe must start with nonzero key bytes"
    );
    wipe(&mut value);
    let after = fields(&value);
    assert_eq!(
        after.iter().map(Vec::len).collect::<Vec<_>>(),
        before.iter().map(Vec::len).collect::<Vec<_>>(),
        "wipe must scrub in place, not truncate or reallocate"
    );
    for (i, field) in after.iter().enumerate() {
        assert!(
            field.iter().all(|&b| b == 0),
            "wipe left nonzero bytes in secret field {i}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basics() {
        assert!(eq(b"", b""));
        assert!(eq(b"abc", b"abc"));
        assert!(!eq(b"abc", b"abd"));
        assert!(!eq(b"abc", b"ab"));
        assert!(!eq(b"\x00\x00", b"\x00\x01"));
    }

    #[test]
    fn select_byte_works() {
        assert_eq!(select_byte(1, 0xaa, 0x55), 0xaa);
        assert_eq!(select_byte(0, 0xaa, 0x55), 0x55);
    }

    #[test]
    fn mask_eq_u64_works() {
        assert_eq!(mask_eq_u64(0, 0), u64::MAX);
        assert_eq!(mask_eq_u64(7, 7), u64::MAX);
        assert_eq!(mask_eq_u64(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(mask_eq_u64(0, 1), 0);
        assert_eq!(mask_eq_u64(1, u64::MAX), 0);
        assert_eq!(mask_eq_u64(1 << 63, 0), 0);
    }

    #[test]
    fn cond_swap_works() {
        let mut a = [1u8, 2, 3];
        let mut b = [9u8, 8, 7];
        cond_swap(0, &mut a, &mut b);
        assert_eq!(a, [1, 2, 3]);
        cond_swap(1, &mut a, &mut b);
        assert_eq!(a, [9, 8, 7]);
        assert_eq!(b, [1, 2, 3]);
    }

    #[test]
    fn zeroize_wipes() {
        let mut buf = vec![0xffu8; 32];
        zeroize(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    // Every length to 300 at every offset from an 8-byte boundary, so
    // each split into leading bytes, words and trailing bytes occurs:
    // the slice reads zero and the canaries on both sides are intact.
    #[test]
    fn zeroize_wipes_exactly_the_slice_at_every_length_and_offset() {
        #[repr(align(8))]
        struct Aligned([u8; 8 + 300 + 8]);
        for offset in 0..8 {
            for len in 0..=300 {
                let mut buf = Aligned([0xA5; 8 + 300 + 8]);
                zeroize(&mut buf.0[offset..offset + len]);
                let (before, rest) = buf.0.split_at(offset);
                let (wiped, after) = rest.split_at(len);
                assert!(wiped.iter().all(|&b| b == 0), "offset {offset} len {len}");
                assert!(
                    before.iter().chain(after).all(|&b| b == 0xA5),
                    "canary hit at offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn zeroize_words_wipe() {
        let mut w32 = vec![0xdead_beefu32; 8];
        zeroize(&mut w32);
        assert!(w32.iter().all(|&w| w == 0));
        let mut w64 = vec![0xdead_beef_dead_beefu64; 8];
        zeroize(&mut w64);
        assert!(w64.iter().all(|&w| w == 0));
        let mut w128 = vec![u128::MAX; 8];
        zeroize(&mut w128);
        assert!(w128.iter().all(|&w| w == 0));
    }
}
