//! Ed25519 signatures (RFC 8032), used by the PKI substrate to sign
//! certificates and by middleboxes/servers to prove key possession.
//!
//! Points are handled in extended homogeneous coordinates
//! (X : Y : Z : T) with the RFC's twisted-Edwards addition formulas;
//! table entries are kept in the precomputed forms those formulas
//! consume (`Affine`, `Cached`). Scalar arithmetic mod the group
//! order L runs on 64-bit limbs with Barrett reduction.
//!
//! There are two scalar-multiplication paths and no third. Secrets
//! (signing, key generation, fixed-base X25519) go through
//! `Point::mul_base`: a fixed-base comb whose every table fetch is
//! a masked scan. Verification touches public data only and goes
//! through `defect`: one variable-time multi-scalar pass that a
//! single signature and a batch share.

#[cfg(test)]
use crate::bignum::BigUint;
use crate::field25519::{sqrt_m1, Fe};
use crate::rng::CryptoRng;
use crate::sha2::{Hash, Sha512};
use crate::CryptoError;

/// Public key length.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Signature length.
pub const SIGNATURE_LEN: usize = 64;

/// d = -121665/121666 mod p (the curve constant), evaluated at
/// compile time so the `const` point formulas (and the table
/// builders) can use it.
const CURVE_D: Fe = Fe::from_bytes(&[
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70,
    0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c,
    0x03, 0x52,
]);

/// 2d, the factor every table entry carries on its T coordinate.
const CURVE_2D: Fe = CURVE_D.mul_small(2);

/// The group order L = 2^252 + 27742317777372353535851937790883648493.
/// Production scalar arithmetic runs on [`L_LIMBS`]/[`L_MU`]; this
/// bignum form survives as the test oracle's modulus.
#[cfg(test)]
fn order_l() -> BigUint {
    BigUint::from_bytes_be(&[
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x14, 0xde, 0xf9, 0xde, 0xa2, 0xf7, 0x9c, 0xd6, 0x58, 0x12, 0x63, 0x1a, 0x5c, 0xf5,
        0xd3, 0xed,
    ])
}

/// A point in extended homogeneous coordinates. Every coordinate is
/// *tight* in `field25519`'s limb contract: the constructors below
/// only store products, differences and parsed bytes.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A table entry with Z = 1, in the form the mixed addition
/// consumes: `(y+x, y−x, 2d·x·y)`. Precomputing the three saves the
/// addition its multiplication by `d`, a multiplication by `Z`, and
/// both small-constant multiplications.
#[derive(Clone, Copy)]
struct Affine {
    ypx: Fe,
    ymx: Fe,
    xy2d: Fe,
}

/// A table entry built at runtime (no inversion to reach Z = 1):
/// `(Y+X, Y−X, Z, 2d·T)`.
#[derive(Clone, Copy)]
struct Cached {
    ypx: Fe,
    ymx: Fe,
    z: Fe,
    t2d: Fe,
}

/// What a table of multiples holds: [`Affine`] or [`Cached`].
trait Entry: Copy {
    /// The entry for `−P`.
    fn neg(self) -> Self;
    /// `acc + P`.
    fn add_to(&self, acc: &Point) -> Point;
}

impl Affine {
    /// The neutral element.
    const IDENTITY: Affine = Affine { ypx: Fe::ONE, ymx: Fe::ONE, xy2d: Fe::ZERO };
}

impl Entry for Affine {
    fn neg(self) -> Affine {
        Affine { ypx: self.ymx, ymx: self.ypx, xy2d: self.xy2d.neg() }
    }
    fn add_to(&self, acc: &Point) -> Point {
        acc.add_affine(self)
    }
}

impl Entry for Cached {
    fn neg(self) -> Cached {
        Cached { ypx: self.ymx, ymx: self.ypx, z: self.z, t2d: self.t2d.neg() }
    }
    fn add_to(&self, acc: &Point) -> Point {
        acc.add_cached(self)
    }
}

impl Point {
    /// The neutral element (0, 1).
    const fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (RFC 8032 §5.1: y = 4/5, x even),
    /// with its extended coordinates precomputed as radix-2^51 limb
    /// constants — no decompression (and no square-root fallibility)
    /// at runtime. `base_point_constants_match_decompression` in the
    /// test module re-derives these from the compressed encoding.
    const fn base() -> Point {
        const BASE_X: Fe = Fe([
            0x62d608f25d51a,
            0x412a4b4f6592a,
            0x75b7171a4b31d,
            0x1ff60527118fe,
            0x216936d3cd6e5,
        ]);
        const BASE_Y: Fe = Fe([
            0x6666666666658,
            0x4cccccccccccc,
            0x1999999999999,
            0x3333333333333,
            0x6666666666666,
        ]);
        const BASE_T: Fe = Fe([
            0x68ab3a5b7dda3,
            0x00eea2a5eadbb,
            0x2af8df483c27e,
            0x332b375274732,
            0x67875f0fd78b7,
        ]);
        Point {
            x: BASE_X,
            y: BASE_Y,
            z: Fe::ONE,
            t: BASE_T,
        }
    }

    /// The tail every addition shares (RFC 8032 §5.1.4 /
    /// "add-2008-hwcd-3", complete for Ed25519: a = −1, d non-square,
    /// so doubling and identity inputs need no special casing), given
    /// the other operand as `(Y₂+X₂, Y₂−X₂, 2d·T₂)` and the product
    /// `zz = Z₁·Z₂`.
    ///
    /// Limb bounds: `self`'s coordinates are tight, so `Y₁+X₁` is
    /// below 2·TIGHT; a stored `ypx` is a sum of two tight values
    /// too. `d = zz + zz` is below 2·TIGHT and `g = d + c` below
    /// 3·TIGHT < 2^53 — all *loose*, which is what `mul` and `sub`
    /// accept; `a`, `b`, `c`, `e`, `f` are products or differences,
    /// hence tight, and `h = b + a` is below 2·TIGHT.
    const fn add_tail(&self, ypx: Fe, ymx: Fe, t2d: Fe, zz: Fe) -> Point {
        let a = self.y.sub(self.x).mul(ymx);
        let b = self.y.add(self.x).mul(ypx);
        let c = self.t.mul(t2d);
        let d = zz.add(zz);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Mixed addition with a Z = 1 table entry: 7 multiplications.
    const fn add_affine(&self, q: &Affine) -> Point {
        self.add_tail(q.ypx, q.ymx, q.xy2d, self.z)
    }

    /// Addition with a runtime table entry: 8 multiplications.
    const fn add_cached(&self, q: &Cached) -> Point {
        self.add_tail(q.ypx, q.ymx, q.t2d, self.z.mul(q.z))
    }

    /// General point addition. `const` so the tables evaluate at
    /// compile time.
    const fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.cached())
    }

    /// This point as a table entry.
    const fn cached(&self) -> Cached {
        Cached {
            ypx: self.y.add(self.x),
            ymx: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(CURVE_2D),
        }
    }

    /// Point doubling ("dbl-2008-hwcd"). `c = 2Z²` is formed by
    /// addition (below 2·TIGHT), so `f = c + g` stays below 3·TIGHT —
    /// loose, like `h` and `X+Y`.
    const fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        // H = A + B
        let h = a.add(b);
        // E = H - (X+Y)^2
        let e = h.sub(self.x.add(self.y).square());
        // G = A - B
        let g = a.sub(b);
        // F = C + G
        let f = c.add(g);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Compress to the 32-byte wire format (y with x-sign bit).
    fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress from wire format; `None` if not on the curve.
    fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7;
        let y = Fe::from_bytes(bytes); // from_bytes masks the sign bit
        // x^2 = (y^2 - 1) / (d*y^2 + 1)
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = y2.mul(CURVE_D).add(Fe::ONE);
        // candidate root: x = u * v^3 * (u * v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vx2 = v.mul(x.square());
        if !vx2.ct_eq(u) {
            if vx2.ct_eq(u.neg()) {
                x = x.mul(sqrt_m1());
            } else {
                return None;
            }
        }
        if x.is_zero() && sign == 1 {
            // x = 0 with sign bit set is invalid encoding.
            return None;
        }
        if (x.is_negative() as u8) != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    fn ct_eq(&self, other: &Point) -> bool {
        // (x1/z1 == x2/z2) && (y1/z1 == y2/z2), cross-multiplied.
        let x_eq = self.x.mul(other.z).ct_eq(other.x.mul(self.z));
        let y_eq = self.y.mul(other.z).ct_eq(other.y.mul(self.z));
        x_eq && y_eq
    }

    /// Negation: (x, y) -> (-x, y).
    const fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// True for the eight points of small order — those the cofactor
    /// annihilates.
    fn is_small_order(&self) -> bool {
        self.double().double().double().ct_eq(&Point::identity())
    }

    /// Fixed-base scalar multiplication `scalar · B` through the
    /// precomputed comb table — no doubling chain over the base
    /// point, just 64 constant-time window fetches, 65 additions,
    /// and 4 doubles.
    ///
    /// Splitting each byte into its low and high nibble gives
    /// `scalar = Σ lo_i·256^i + 16·Σ hi_i·256^i`, so the two
    /// accumulators share one table ([`BASE_COMB`]`[i][j] =
    /// j·256^i·B`) and the high-nibble sum is folded in with four
    /// doublings at the end. The scalar is secret (signing uses
    /// this path), so every window value is fetched with a masked
    /// full-table scan.
    fn mul_base(scalar: &[u8; 32]) -> Point {
        let mut lo = Point::identity();
        let mut hi = Point::identity();
        for (i, &byte) in scalar.iter().enumerate() {
            lo = lo.add_affine(&ct_lookup(&BASE_COMB[i], byte & 0xf));
            hi = hi.add_affine(&ct_lookup(&BASE_COMB[i], byte >> 4));
        }
        let mut acc = hi;
        for _ in 0..4 {
            acc = acc.double();
        }
        acc.add(&lo)
    }
}

/// The Montgomery u-coordinate of `scalar · B`: X25519's fixed-base
/// case (`scalar · 9`) on the constant-time comb instead of the
/// variable-base ladder. Curve25519 and edwards25519 are birationally
/// equivalent with B ↦ u = 9 and `u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y)`
/// (RFC 7748 §4.1). [`Point::mul_base`] consumes all 64 nibbles of
/// the scalar, so a clamped 255-bit scalar needs no reduction mod L.
/// `Z − Y = 0` only at the identity, i.e. for multiples of L; a
/// clamped scalar is 8m with 2^251 ≤ m < 2^252 < L, never one.
pub(crate) fn mul_base_montgomery_u(scalar: &[u8; 32]) -> [u8; 32] {
    let p = Point::mul_base(scalar);
    p.z.add(p.y).mul(p.z.sub(p.y).invert()).to_bytes()
}

/// Number of byte-indexed windows in the fixed-base comb table.
const COMB_WINDOWS: usize = 32;

/// Precomputed fixed-base comb table: `BASE_COMB[i][j] = j·256^i·B`
/// as [`Affine`] entries, evaluated entirely at compile time (the
/// field and point formulas are `const fn`), so the 60 KiB table
/// lives in read-only data with zero startup cost.
static BASE_COMB: [[Affine; 16]; COMB_WINDOWS] = build_base_comb();

/// Odd multiples `[B, 3B, 5B, …, 127B]`: the base point's digit table
/// for the width-8 wNAF of the verification pass.
static BASE_ODDS: [Affine; 64] = build_base_odds();

/// Bring `N` points to Z = 1 with one field inversion between them
/// (Montgomery's trick: invert the product of all Z, then peel one
/// factor off per point).
const fn normalize<const N: usize>(points: &[Point; N]) -> [Affine; N] {
    // prefix[i] = Z_0 · … · Z_{i−1}
    let mut prefix = [Fe::ONE; N];
    let mut product = Fe::ONE;
    let mut i = 0;
    while i < N {
        prefix[i] = product;
        product = product.mul(points[i].z);
        i += 1;
    }
    // suffix_inv = 1 / (Z_0 · … · Z_i) as i counts down.
    let mut suffix_inv = product.invert();
    let mut out = [Affine::IDENTITY; N];
    while i > 0 {
        i -= 1;
        let zinv = suffix_inv.mul(prefix[i]);
        suffix_inv = suffix_inv.mul(points[i].z);
        let x = points[i].x.mul(zinv);
        let y = points[i].y.mul(zinv);
        out[i] = Affine { ypx: y.add(x), ymx: y.sub(x), xy2d: x.mul(y).mul(CURVE_2D) };
    }
    out
}

const fn build_base_comb() -> [[Affine; 16]; COMB_WINDOWS] {
    let mut table = [[Affine::IDENTITY; 16]; COMB_WINDOWS];
    let mut power = Point::base();
    let mut i = 0;
    while i < COMB_WINDOWS {
        let mut row = [Point::identity(); 16];
        let mut j = 1;
        while j < 16 {
            row[j] = row[j - 1].add(&power);
            j += 1;
        }
        table[i] = normalize(&row);
        // power <- 256 · power for the next window.
        let mut k = 0;
        while k < 8 {
            power = power.double();
            k += 1;
        }
        i += 1;
    }
    table
}

const fn build_base_odds() -> [Affine; 64] {
    let twice = Point::base().double();
    let mut odds = [Point::base(); 64];
    let mut j = 1;
    while j < 64 {
        odds[j] = odds[j - 1].add(&twice);
        j += 1;
    }
    normalize(&odds)
}

/// Odd multiples `[P, 3P, 5P, …, 15P]` of a runtime point: its digit
/// table for a width-5 wNAF.
fn odd_multiples(p: &Point) -> [Cached; 8] {
    let twice = p.double().cached();
    let mut multiple = *p;
    let mut table = [p.cached(); 8];
    for entry in &mut table[1..] {
        multiple = multiple.add_cached(&twice);
        *entry = multiple.cached();
    }
    table
}

/// Constant-time window-table fetch: reads every entry and
/// mask-accumulates the one whose position equals `index` (< 16), so
/// the cache footprint is the whole table regardless of the secret
/// window value.
fn ct_lookup(table: &[Affine; 16], index: u8) -> Affine {
    let mut out = Affine { ypx: Fe::ZERO, ymx: Fe::ZERO, xy2d: Fe::ZERO };
    for (j, entry) in table.iter().enumerate() {
        let mask = crate::ct::mask_eq_u64(j as u64, u64::from(index));
        for k in 0..5 {
            out.ypx.0[k] |= entry.ypx.0[k] & mask;
            out.ymx.0[k] |= entry.ymx.0[k] & mask;
            out.xy2d.0[k] |= entry.xy2d.0[k] & mask;
        }
    }
    out
}

/// Digit count of a wNAF: one digit per bit position of the scalar.
const NAF_LEN: usize = 256;

/// Width-`w` non-adjacent form (`w` ≤ 8) of a little-endian scalar
/// below 2^253 — which every scalar reduced mod L is: signed odd
/// digits below `2^(w−1)` in magnitude, every nonzero digit followed
/// by at least `w − 1` zeros, so a 253-bit scalar averages one point
/// addition per `w + 1` bits. Digit `i` has weight `2^i`. The bound
/// on the scalar keeps the last carry inside the array: a negative
/// digit needs its window's top bit set, so it sits at least `w`
/// places below bit 253 and the carry it leaves is taken up by a
/// digit at position 253 at the latest. The recoding is
/// deterministic, which the batch verifier's replay guarantee
/// depends on.
fn wnaf(s: &[u8; 32], w: usize) -> [i8; NAF_LEN] {
    debug_assert!(s[31] < 0x20 && (2..=8).contains(&w));
    let mut x = [0u64; 5];
    x[..4].copy_from_slice(&limbs4_from_le(s));
    let width = 1u64 << w;
    let mut naf = [0i8; NAF_LEN];
    let mut carry = 0;
    let mut pos = 0;
    while pos < NAF_LEN {
        // The `w` bits at `pos`, plus what the digit below borrowed.
        let (limb, bit) = (pos / 64, pos % 64);
        let mut bits = x[limb] >> bit;
        if bit + w > 64 {
            bits |= x[limb + 1] << (64 - bit);
        }
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // Digit 0. An even window under a carry means the bit at
            // `pos` was set, so the carry moves up with it unchanged.
            pos += 1;
            continue;
        }
        // An odd window is the digit, or — past half the width — the
        // digit `window − 2^w` and a carry of one into bit `pos + w`.
        carry = u64::from(window >= width / 2);
        naf[pos] = (window as i64 - (carry << w) as i64) as i8;
        pos += w;
    }
    naf
}

/// `acc += digit·P`, where `odds[j] = (2j+1)·P` and `digit` is a wNAF
/// digit. The fetch is a direct load and the sign a branch: this is
/// the verifier's path, and everything a verifier touches — keys,
/// signatures, the hashes of both — is public.
fn add_digit<E: Entry>(acc: &mut Point, digit: i8, odds: &[E]) {
    if digit == 0 {
        return;
    }
    let slot = usize::from(digit.unsigned_abs() >> 1);
    let entry = odds[slot];
    *acc = if digit < 0 { entry.neg().add_to(acc) } else { entry.add_to(acc) };
}

/// L as little-endian 64-bit limbs.
const L_LIMBS: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0,
    0x1000_0000_0000_0000,
];

/// ⌊2^512 / L⌋, the Barrett constant for reducing 512-bit values
/// mod L (260 bits, five limbs).
const L_MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0xf,
];

/// Little-endian bytes (at most 64) into eight 64-bit limbs.
fn limbs_from_le(bytes: &[u8]) -> [u64; 8] {
    debug_assert!(bytes.len() <= 64);
    let mut limbs = [0u64; 8];
    for (i, &b) in bytes.iter().enumerate() {
        limbs[i / 8] |= u64::from(b) << (8 * (i % 8));
    }
    limbs
}

/// A 32-byte little-endian scalar into four 64-bit limbs.
fn limbs4_from_le(bytes: &[u8; 32]) -> [u64; 4] {
    let mut limbs = [0u64; 4];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        limbs[i] = u64::from_le_bytes(crate::fixed(chunk));
    }
    limbs
}

/// Schoolbook product of two little-endian limb slices into `out`,
/// which must hold exactly `a.len() + b.len()` limbs.
fn limb_mul(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = u128::from(ai) * u128::from(bj) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// Barrett reduction of a 512-bit value mod L with constant control
/// flow: the quotient estimate `q = ((t ≫ 192)·µ) ≫ 320` undershoots
/// the true quotient by at most 2, so two masked subtractions of L
/// finish the job without value-dependent branching (signing reduces
/// secret-derived scalars through this path, so branches on the
/// value are off the table).
fn barrett_mod_l(t: &[u64; 8]) -> [u8; 32] {
    // q = ((t >> 192) · µ) >> 320.
    let mut prod = [0u64; 10];
    limb_mul(&t[3..8], &L_MU, &mut prod);
    let q = &prod[5..10];

    // q·L mod 2^320 — the true remainder fits five limbs, so only
    // the low five limbs of the product matter.
    let mut ql = [0u64; 9];
    limb_mul(q, &L_LIMBS, &mut ql);

    // r = (t − q·L) mod 2^320 ∈ [0, 3L).
    let mut r = [0u64; 5];
    let mut borrow = 0u64;
    for i in 0..5 {
        let (d1, b1) = t[i].overflowing_sub(ql[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        r[i] = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }

    // Two constant-time conditional subtractions bring r below L.
    for _ in 0..2 {
        let mut diff = [0u64; 5];
        let mut borrow = 0u64;
        for i in 0..5 {
            let li = if i < 4 { L_LIMBS[i] } else { 0 };
            let (d1, b1) = r[i].overflowing_sub(li);
            let (d2, b2) = d1.overflowing_sub(borrow);
            diff[i] = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        // borrow == 0 ⇔ r ≥ L ⇔ keep the subtracted value.
        let keep = crate::ct::mask_eq_u64(borrow, 0);
        for i in 0..5 {
            r[i] = (diff[i] & keep) | (r[i] & !keep);
        }
    }

    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&r[i].to_le_bytes());
    }
    out
}

/// Reduce a little-endian byte string (at most 64 bytes) mod L, out
/// as exactly 32 little-endian bytes.
fn reduce_mod_l(le_bytes: &[u8]) -> [u8; 32] {
    barrett_mod_l(&limbs_from_le(le_bytes))
}

/// (a * b + c) mod L over little-endian 32-byte scalars.
fn muladd_mod_l(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let (a, b, c) = (limbs4_from_le(a), limbs4_from_le(b), limbs4_from_le(c));
    let mut t = [0u64; 8];
    limb_mul(&a, &b, &mut t);
    // Fold in c with an unconditional full carry sweep (a·b + c
    // stays below 2^512, so the top carry is always zero).
    let mut carry = 0u128;
    for i in 0..8 {
        let add = if i < 4 { u128::from(c[i]) } else { 0 };
        let s = u128::from(t[i]) + add + carry;
        t[i] = s as u64;
        carry = s >> 64;
    }
    debug_assert_eq!(carry, 0);
    barrett_mod_l(&t)
}

/// An Ed25519 signing key (the 32-byte seed plus cached expansions).
#[derive(Clone)]
pub struct SigningKey {
    /// Clamped scalar s.
    s: [u8; 32],
    /// Hash prefix used for nonce derivation.
    prefix: [u8; 32],
    /// Cached public key.
    public: VerifyingKey,
}

/// An Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct VerifyingKey(pub [u8; 32]);

/// A detached signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub [u8; 64]);

impl SigningKey {
    /// Derive from a 32-byte seed per RFC 8032 §5.1.5.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let mut h = Sha512::digest(seed);
        let mut s = [0u8; 32];
        s.copy_from_slice(&h[..32]);
        s[0] &= 248;
        s[31] &= 127;
        s[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        crate::ct::zeroize(&mut h);
        let a = Point::mul_base(&s);
        let public = VerifyingKey(a.compress());
        SigningKey { s, prefix, public }
    }

    /// Generate a fresh key.
    pub fn generate(rng: &mut CryptoRng) -> Self {
        let seed: [u8; 32] = rng.gen_array();
        Self::from_seed(&seed)
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Sign a message (RFC 8032 §5.1.6).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = reduce_mod_l(&h.finalize());
        let r_point = Point::mul_base(&r);
        let r_enc = r_point.compress();

        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.public.0);
        h.update(msg);
        let k = reduce_mod_l(&h.finalize());

        let s_out = muladd_mod_l(&k, &self.s, &r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s_out);
        Signature(sig)
    }

    /// Zero the scalar and the nonce prefix in place. What [`Drop`]
    /// runs.
    fn wipe(&mut self) {
        crate::ct::zeroize(&mut self.s);
        crate::ct::zeroize(&mut self.prefix);
    }
}

impl Drop for SigningKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// A signature verification job, decoded and hashed but not yet
/// checked.
struct DecodedSig {
    a: Point,
    r: Point,
    s_enc: [u8; 32],
    k: [u8; 32],
}

/// Decode one (key, msg, sig) triple: reject non-canonical `s`,
/// decompress `A` and `R`, and derive `k = H(R ‖ A ‖ M) mod L`.
fn decode_sig(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> Option<DecodedSig> {
    let r_enc: [u8; 32] = crate::fixed(&sig.0[..32]);
    let s_enc: [u8; 32] = crate::fixed(&sig.0[32..]);

    // s must be canonical (< L); s is public, so a vartime limb
    // compare is fine.
    if limbs4_from_le(&s_enc).iter().rev().cmp(L_LIMBS.iter().rev())
        != std::cmp::Ordering::Less
    {
        return None;
    }

    let a = Point::decompress(&key.0)?;
    let r = Point::decompress(&r_enc)?;

    let mut h = Sha512::new();
    h.update(&r_enc);
    h.update(&key.0);
    h.update(msg);
    let k = reduce_mod_l(&h.finalize());
    Some(DecodedSig { a, r, s_enc, k })
}

/// Signatures per pass of [`defect`]: the scratch one pass needs
/// (≈ 3 KiB a signature) lives on the stack, so a group of any width
/// is verified without touching the heap.
const CHUNK: usize = 16;

/// One signature's share of a multi-scalar pass.
struct Term {
    /// wNAF digits of `z·k mod L`: drives the `−A` additions.
    naf_zk: [i8; NAF_LEN],
    /// wNAF digits of `z` (128 bits): drives the `−R` additions.
    naf_z: [i8; NAF_LEN],
    neg_a_odds: [Cached; 8],
    neg_r_odds: [Cached; 8],
}

/// The verification core: `Σ zᵢ·(sᵢ·B − Rᵢ − kᵢ·Aᵢ)` over at most
/// `N` decoded signatures with their coefficients ([`CHUNK`] for a
/// batch, 1 for a signature checked alone, which then needs a
/// sixteenth of the stack), as
/// `(Σ zᵢsᵢ)·B − Σ zᵢ·Rᵢ − Σ (zᵢkᵢ)·Aᵢ` on one doubling chain. Every
/// signature satisfies RFC 8032's cofactored group equation
/// `[8][s]B == [8]R + [8][k]A` exactly when its own term has small
/// order, so the caller asks [`Point::is_small_order`] of the sum.
///
/// The cofactored form is chosen deliberately: multiplying the
/// defect by 8 annihilates small-order components *exactly*, so a
/// signature checked alone (`z = 1`) and the same signature inside a
/// random linear combination provably agree on every input,
/// including adversarial small-order points (the cofactor*less*
/// equation and a linear combination disagree on those, because
/// `z·k mod L` scrambles the defect's mod-8 residue).
///
/// Everything here is public, so the pass is variable-time
/// throughout: width-5 wNAF over odd-multiple tables of `−Aᵢ` and
/// `−Rᵢ` fetched by direct index (one addition per ~6 bits of the
/// 253-bit `zᵢkᵢ` and the 128-bit `zᵢ`), width-8 wNAF over the static
/// [`BASE_ODDS`] for the base-point term (~29 additions), and a
/// chain that starts at the highest nonzero digit.
fn defect<'a, const N: usize>(sigs: impl Iterator<Item = (&'a DecodedSig, [u8; 32])>) -> Point {
    let mut s_tilde = [0u8; 32];
    let mut terms: [Option<Term>; N] = [const { None }; N];
    for (slot, (sig, z)) in terms.iter_mut().zip(sigs) {
        s_tilde = muladd_mod_l(&z, &sig.s_enc, &s_tilde);
        *slot = Some(Term {
            naf_zk: wnaf(&muladd_mod_l(&z, &sig.k, &[0u8; 32]), 5),
            naf_z: wnaf(&z, 5),
            neg_a_odds: odd_multiples(&sig.a.neg()),
            neg_r_odds: odd_multiples(&sig.r.neg()),
        });
    }
    let naf_s = wnaf(&s_tilde, 8);
    let idle = |i: &usize| {
        naf_s[*i] == 0
            && terms.iter().flatten().all(|t| t.naf_zk[*i] == 0 && t.naf_z[*i] == 0)
    };
    let mut acc = Point::identity();
    for i in (0..NAF_LEN).rev().skip_while(idle) {
        acc = acc.double();
        add_digit(&mut acc, naf_s[i], &BASE_ODDS);
        for term in terms.iter().flatten() {
            add_digit(&mut acc, term.naf_zk[i], &term.neg_a_odds);
            add_digit(&mut acc, term.naf_z[i], &term.neg_r_odds);
        }
    }
    acc
}

impl DecodedSig {
    /// The signature checked alone: the width-1 case of [`defect`]
    /// with coefficient 1.
    fn valid(&self) -> bool {
        let mut one = [0u8; 32];
        one[0] = 1;
        defect::<1>(std::iter::once((self, one))).is_small_order()
    }
}

impl VerifyingKey {
    /// Verify a signature (RFC 8032 §5.1.7, cofactored group
    /// equation: multiplying by 8 annihilates small-order components,
    /// so this verdict and [`verify_batch`]'s agree on every input).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        match decode_sig(self, msg, sig) {
            Some(d) if d.valid() => Ok(()),
            _ => Err(CryptoError::BadSignature),
        }
    }

    /// Parse from bytes, checking the point decodes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let arr: [u8; 32] = bytes.try_into().map_err(|_| CryptoError::BadPublicValue)?;
        Point::decompress(&arr).ok_or(CryptoError::BadPublicValue)?;
        Ok(VerifyingKey(arr))
    }

    /// True when the encoding fails to decode or decodes to a point
    /// of small order (including non-canonical encodings of such
    /// points). The cofactored verification equation deliberately
    /// annihilates small-order components, so under a small-order
    /// "key" anyone can produce an accepted signature — layers that
    /// bind an identity to a key (certificate issuance, delegated
    /// credentials) must refuse these encodings.
    pub fn is_weak(&self) -> bool {
        Point::decompress(&self.0).is_none_or(|p| p.is_small_order())
    }
}

/// One signature-verification job for [`verify_batch`].
#[derive(Clone, Copy)]
pub struct BatchItem<'a> {
    /// The signer's public key.
    pub pubkey: VerifyingKey,
    /// The signed message.
    pub msg: &'a [u8],
    /// The signature to check.
    pub sig: Signature,
}

/// Result of a [`verify_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-item verdicts, index-aligned with the input slice.
    pub valid: Vec<bool>,
    /// True when the random-linear-combination equation was
    /// evaluated (at least one item decoded).
    pub batched: bool,
    /// True when the batch equation failed and the items were
    /// re-checked individually to identify the culprits.
    pub fell_back: bool,
}

impl BatchOutcome {
    /// True when every item verified.
    pub fn all_valid(&self) -> bool {
        self.valid.iter().all(|&v| v)
    }
}

/// One owed signature check that carries its own message: does `sig`
/// verify `msg` under `key`? The layers above run every structural
/// check of a certificate chain, a key exchange or an attestation
/// quote eagerly and hand the Ed25519 work they still owe around as
/// a list of these, to be discharged together by [`verify_checks`] —
/// by the connection that collected them, or by a driver batching
/// across many connections.
#[derive(Clone)]
pub struct SignatureCheck {
    /// The signer's public key.
    pub key: VerifyingKey,
    /// The signed bytes.
    pub msg: Vec<u8>,
    /// The signature to verify.
    pub sig: Signature,
}

impl SignatureCheck {
    /// Discharge the check alone.
    pub fn check(&self) -> bool {
        self.key.verify(&self.msg, &self.sig).is_ok()
    }
}

/// Discharge a group of owed checks as one batch.
pub fn verify_checks(checks: &[SignatureCheck]) -> BatchOutcome {
    verify_indexed(checks.len(), |i| {
        let c = &checks[i];
        BatchItem { pubkey: c.key, msg: &c.msg, sig: c.sig }
    })
}

/// Batch-verify N signatures with one multi-scalar multiplication
/// per chunk of `CHUNK` (16) of them.
///
/// Checks `Σ zᵢ·(sᵢ·B − Rᵢ − kᵢ·Aᵢ)` for small order,
/// with `z₀ = 1` and deterministic pseudo-random 128-bit coefficients
/// `zᵢ` for the rest, derived by hashing the whole batch (so two runs
/// over the same inputs take bit-identical paths — a host determinism
/// requirement). A random linear combination of the per-signature
/// defects vanishes for a batch containing an invalid signature with
/// probability ≈ 2⁻¹²⁸, the standard batch-verification argument;
/// small-order defects are annihilated exactly and large-order ones
/// survive the combination. One coefficient may be fixed: if only
/// item 0 is bad its defect stands alone in the sum, and if any other
/// item is bad that item's random `zᵢ` carries the argument. It spares
/// every batch the 128-bit `−R₀` term, and makes a batch of one the
/// same computation as [`VerifyingKey::verify`]. A batch wider than one chunk is the sum
/// of its chunks' defects — the same combination, split so that no
/// width needs heap scratch — and the sum is tested once. When it
/// fails, every item is re-checked individually
/// ([`BatchOutcome::fell_back`]) so culprits are identified with
/// exactly [`VerifyingKey::verify`]'s verdict.
pub fn verify_batch(items: &[BatchItem]) -> BatchOutcome {
    verify_indexed(items.len(), |i| items[i])
}

/// [`verify_batch`] over `n` items fetched by index.
fn verify_indexed<'a>(n: usize, item: impl Fn(usize) -> BatchItem<'a>) -> BatchOutcome {
    // Deterministic coefficient seed over the whole batch.
    let mut h = Sha512::new();
    h.update(b"mbtls-ed25519-batch-v1");
    h.update(&(n as u64).to_le_bytes());
    for it in (0..n).map(&item) {
        h.update(&it.pubkey.0);
        h.update(&it.sig.0);
        h.update(&(it.msg.len() as u64).to_le_bytes());
        h.update(it.msg);
    }
    let seed = h.finalize();
    let coefficient = |i: usize| {
        let mut z = [0u8; 32];
        if i == 0 {
            z[0] = 1;
            return z;
        }
        let mut zh = Sha512::new();
        zh.update(&seed);
        zh.update(&(i as u64).to_le_bytes());
        z[..16].copy_from_slice(&zh.finalize()[..16]);
        z
    };

    // Undecodable items are invalid outright and contribute no term.
    let mut valid = Vec::with_capacity(n);
    let mut sum = Point::identity();
    for start in (0..n).step_by(CHUNK) {
        let decoded: [Option<DecodedSig>; CHUNK] = std::array::from_fn(|j| {
            let it = (start + j < n).then(|| item(start + j))?;
            decode_sig(&it.pubkey, it.msg, &it.sig)
        });
        valid.extend(decoded.iter().take(n - start).map(Option::is_some));
        let sigs = decoded
            .iter()
            .enumerate()
            .filter_map(|(j, d)| Some((d.as_ref()?, coefficient(start + j))));
        sum = sum.add(&defect::<CHUNK>(sigs));
    }
    let batched = valid.contains(&true);
    if sum.is_small_order() {
        return BatchOutcome { valid, batched, fell_back: false };
    }
    // At least one bad signature: identify culprits individually.
    let valid = (0..n)
        .map(item)
        .map(|it| it.pubkey.verify(it.msg, &it.sig).is_ok())
        .collect();
    BatchOutcome { valid, batched, fell_back: true }
}

impl Signature {
    /// Parse from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let arr: [u8; 64] = bytes.try_into().map_err(|_| CryptoError::BadSignature)?;
        Ok(Signature(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Point {
        /// Scalar multiplication, 4-bit fixed windows: the plain
        /// textbook ladder, the oracle the comb, the tables and the
        /// multi-scalar pass are cross-checked against.
        fn scalar_mul(&self, scalar: &[u8; 32]) -> Point {
            let mut table = [Point::identity(); 16];
            for i in 1..16 {
                table[i] = table[i - 1].add(self);
            }
            let mut acc = Point::identity();
            for i in (0..64).rev() {
                for _ in 0..4 {
                    acc = acc.double();
                }
                let byte = scalar[i / 2];
                let nibble = if i % 2 == 1 { byte >> 4 } else { byte & 0xf };
                acc = acc.add(&table[usize::from(nibble)]);
            }
            acc
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // The precomputed base-point limb constants must equal what
    // decompressing the RFC 8032 encoding (y = 4/5, sign bit 0)
    // produces — this re-derives the constants the old runtime
    // `decompress(..).expect(..)` computed on every call.
    #[test]
    fn base_point_constants_match_decompression() {
        let mut compressed = [0x66u8; 32];
        compressed[0] = 0x58;
        compressed[31] &= 0x7f;
        let derived = Point::decompress(&compressed).unwrap();
        let base = Point::base();
        assert!(base.ct_eq(&derived));
        assert_eq!(base.compress(), compressed);
        // And t must really be x·y (z = 1), which `ct_eq` does not
        // check directly.
        assert!(base.t.ct_eq(base.x.mul(base.y)));
        assert!(base.z.ct_eq(Fe::ONE));
    }

    #[test]
    fn signing_key_wipes_on_drop() {
        let key = SigningKey::generate(&mut CryptoRng::from_seed(5));
        crate::ct::assert_wipes(key, SigningKey::wipe, |k| vec![k.s.to_vec(), k.prefix.to_vec()]);
    }

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed: [u8; 32] =
            unhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
                .try_into()
                .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            sk.verifying_key().0.to_vec(),
            unhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = sk.sign(b"");
        assert_eq!(
            sig.0.to_vec(),
            unhex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(sk.verifying_key().verify(b"", &sig).is_ok());
    }

    // RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test2() {
        let seed: [u8; 32] =
            unhex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
                .try_into()
                .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            sk.verifying_key().0.to_vec(),
            unhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.0.to_vec(),
            unhex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
    }

    // RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test3() {
        let seed: [u8; 32] =
            unhex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7")
                .try_into()
                .unwrap();
        let sk = SigningKey::from_seed(&seed);
        let msg = unhex("af82");
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.0.to_vec(),
            unhex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn rejects_tampered_message_and_signature() {
        let mut rng = CryptoRng::from_seed(21);
        let sk = SigningKey::generate(&mut rng);
        let sig = sk.sign(b"payload");
        assert!(sk.verifying_key().verify(b"payload", &sig).is_ok());
        assert!(sk.verifying_key().verify(b"payloae", &sig).is_err());
        let mut bad = sig;
        bad.0[0] ^= 1;
        assert!(sk.verifying_key().verify(b"payload", &bad).is_err());
        let mut bad = sig;
        bad.0[63] ^= 0x20;
        assert!(sk.verifying_key().verify(b"payload", &bad).is_err());
    }

    #[test]
    fn rejects_wrong_key() {
        let mut rng = CryptoRng::from_seed(22);
        let sk1 = SigningKey::generate(&mut rng);
        let sk2 = SigningKey::generate(&mut rng);
        let sig = sk1.sign(b"m");
        assert!(sk2.verifying_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn rejects_non_canonical_s() {
        let mut rng = CryptoRng::from_seed(23);
        let sk = SigningKey::generate(&mut rng);
        let sig = sk.sign(b"m");
        // Add L to s to make it non-canonical but algebraically valid.
        let l_le: [u8; 32] = {
            let mut v = order_l().to_bytes_be_padded(32);
            v.reverse();
            v.try_into().unwrap()
        };
        let mut s: [u8; 32] = sig.0[32..].try_into().unwrap();
        let mut carry = 0u16;
        for i in 0..32 {
            let t = u16::from(s[i]) + u16::from(l_le[i]) + carry;
            s[i] = t as u8;
            carry = t >> 8;
        }
        let mut forged = sig;
        forged.0[32..].copy_from_slice(&s);
        assert!(sk.verifying_key().verify(b"m", &forged).is_err());
    }

    #[test]
    fn public_key_parsing_validates_point() {
        // 32 bytes that do not decode to a curve point.
        let bad = [
            0x12u8, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc,
            0xde, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x12, 0x34, 0x56, 0x78,
            0x9a, 0xbc, 0xde, 0x70,
        ];
        // Either decodes or not — but a round-trip of a real key always works.
        let mut rng = CryptoRng::from_seed(24);
        let sk = SigningKey::generate(&mut rng);
        assert!(VerifyingKey::from_bytes(&sk.verifying_key().0).is_ok());
        assert!(VerifyingKey::from_bytes(&bad[..31]).is_err());
    }

    #[test]
    fn signing_is_deterministic() {
        let mut rng = CryptoRng::from_seed(25);
        let sk = SigningKey::generate(&mut rng);
        assert_eq!(sk.sign(b"abc").0.to_vec(), sk.sign(b"abc").0.to_vec());
        assert_ne!(sk.sign(b"abc").0.to_vec(), sk.sign(b"abd").0.to_vec());
    }

    // --- fast-path cross-checks against the generic ladder ---

    /// A table entry against the point it should hold: bring the
    /// point to Z = 1 and compare the three precomputed coordinates.
    fn assert_affine(entry: &Affine, expect: &Point, what: &str) {
        let zinv = expect.z.invert();
        let (x, y) = (expect.x.mul(zinv), expect.y.mul(zinv));
        assert!(entry.ypx.ct_eq(y.add(x)), "{what}: y+x");
        assert!(entry.ymx.ct_eq(y.sub(x)), "{what}: y-x");
        assert!(entry.xy2d.ct_eq(x.mul(y).mul(CURVE_D).mul_small(2)), "{what}: 2dxy");
    }

    /// The point a runtime table entry stands for.
    fn point_of(entry: &Cached) -> Point {
        Point::identity().add_cached(entry)
    }

    #[test]
    fn comb_table_matches_scalar_mul() {
        // BASE_COMB[i][j] must equal j·256^i·B, every entry: the
        // window's generator comes from the oracle ladder, the row
        // from repeated `Point::add`.
        for (i, row) in BASE_COMB.iter().enumerate() {
            let mut scalar = [0u8; 32];
            scalar[i] = 1;
            let generator = Point::base().scalar_mul(&scalar);
            let mut expect = Point::identity();
            for (j, entry) in row.iter().enumerate() {
                assert_affine(entry, &expect, &format!("comb window {i} entry {j}"));
                expect = expect.add(&generator);
            }
        }
        // BASE_ODDS[j] must equal (2j+1)·B, every entry.
        for (j, entry) in BASE_ODDS.iter().enumerate() {
            let mut scalar = [0u8; 32];
            scalar[0] = 2 * j as u8 + 1;
            let expect = Point::base().scalar_mul(&scalar);
            assert_affine(entry, &expect, &format!("odd multiple {j} of B"));
        }
        // A runtime table holds (2j+1)·P in cached form.
        let mut rng = CryptoRng::from_seed(0x0DD5);
        let p = Point::mul_base(&rng.gen_array());
        for (j, entry) in odd_multiples(&p).iter().enumerate() {
            let mut scalar = [0u8; 32];
            scalar[0] = 2 * j as u8 + 1;
            assert!(point_of(entry).ct_eq(&p.scalar_mul(&scalar)), "odd multiple {j}");
            assert!(point_of(&entry.neg()).ct_eq(&p.scalar_mul(&scalar).neg()), "negated {j}");
        }
    }

    // The three addition forms are one formula: each must agree with
    // the others on the same operands, the identity included.
    #[test]
    fn addition_forms_agree() {
        let mut rng = CryptoRng::from_seed(0xADD5);
        for _ in 0..4 {
            let p = Point::mul_base(&rng.gen_array());
            let q = Point::mul_base(&rng.gen_array());
            let [q_affine] = normalize(&[q]);
            let sum = p.add(&q);
            assert!(p.add_affine(&q_affine).ct_eq(&sum));
            assert!(p.add_cached(&q.cached()).ct_eq(&sum));
            assert!(p.add_affine(&q_affine.neg()).ct_eq(&p.add(&q.neg())));
            assert!(p.add_affine(&Affine::IDENTITY).ct_eq(&p));
            assert!(Point::identity().add_affine(&q_affine).ct_eq(&q));
            // Doubling through the addition formula (complete).
            assert!(p.add(&p).ct_eq(&p.double()));
        }
    }

    #[test]
    fn mul_base_matches_scalar_mul() {
        let mut rng = CryptoRng::from_seed(0xC0FB);
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut cases: Vec<[u8; 32]> = vec![[0u8; 32], one, [0xffu8; 32]];
        for _ in 0..3 {
            cases.push(rng.gen_array());
        }
        for s in &cases {
            assert!(Point::mul_base(s).ct_eq(&Point::base().scalar_mul(s)));
        }
    }

    // The double-scalar subtraction s·B − k·A (less R) that
    // verification is, against its components computed with separate
    // ladders: one multi-scalar pass Σ zᵢ·(sᵢ·B − Rᵢ − kᵢ·Aᵢ), at
    // width 1 with coefficient 1 and at width 3 with 128-bit
    // coefficients.
    #[test]
    fn double_scalar_sub_matches_components() {
        let mut rng = CryptoRng::from_seed(0x5172);
        let mut one = [0u8; 32];
        one[0] = 1;
        let sigs: Vec<DecodedSig> = (0..3)
            .map(|_| DecodedSig {
                a: Point::mul_base(&rng.gen_array()),
                r: Point::mul_base(&rng.gen_array()),
                s_enc: reduce_mod_l(&rng.gen_array::<32>()),
                k: reduce_mod_l(&rng.gen_array::<32>()),
            })
            .collect();
        let term = |d: &DecodedSig, z: &[u8; 32]| {
            let inner = Point::base()
                .scalar_mul(&d.s_enc)
                .add(&d.r.neg())
                .add(&d.a.scalar_mul(&d.k).neg());
            inner.scalar_mul(z)
        };
        assert!(defect::<1>(std::iter::once((&sigs[0], one))).ct_eq(&term(&sigs[0], &one)));
        let zs: Vec<[u8; 32]> = (0..3)
            .map(|_| {
                let mut z = [0u8; 32];
                z[..16].copy_from_slice(&rng.gen_array::<16>());
                z
            })
            .collect();
        let expect = sigs
            .iter()
            .zip(&zs)
            .fold(Point::identity(), |acc, (d, z)| acc.add(&term(d, z)));
        assert!(defect::<CHUNK>(sigs.iter().zip(zs.iter().copied())).ct_eq(&expect));
        // No terms at all: the empty sum.
        assert!(defect::<CHUNK>(std::iter::empty()).ct_eq(&Point::identity()));
    }

    #[test]
    fn wnaf_digits_are_odd_sparse_and_bounded() {
        let mut rng = CryptoRng::from_seed(0x0AF5);
        for w in [5usize, 8] {
            let bound = 1i16 << (w - 1);
            for _ in 0..8 {
                let s = reduce_mod_l(&rng.gen_array::<32>());
                let naf = wnaf(&s, w);
                for (i, &d) in naf.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d % 2 != 0, "digit {d} at {i} must be odd");
                    assert!(i16::from(d).abs() < bound, "digit {d} at {i} out of range");
                    // Width-w recoding: the next w − 1 positions are zero.
                    for &next in naf[i + 1..(i + w).min(NAF_LEN)].iter() {
                        assert_eq!(next, 0, "digit run after position {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn wnaf_chain_reconstructs_scalar_mul() {
        let mut rng = CryptoRng::from_seed(0x0AF6);
        let odds = odd_multiples(&Point::base());
        for _ in 0..4 {
            let s = reduce_mod_l(&rng.gen_array::<32>());
            let (narrow, wide) = (wnaf(&s, 5), wnaf(&s, 8));
            let mut via_cached = Point::identity();
            let mut via_affine = Point::identity();
            for i in (0..NAF_LEN).rev() {
                via_cached = via_cached.double();
                add_digit(&mut via_cached, narrow[i], &odds);
                via_affine = via_affine.double();
                add_digit(&mut via_affine, wide[i], &BASE_ODDS);
            }
            assert!(via_cached.ct_eq(&Point::mul_base(&s)));
            assert!(via_affine.ct_eq(&Point::mul_base(&s)));
        }
    }

    // The limb/Barrett scalar arithmetic must agree with the
    // general-purpose bignum it replaced, on hash-wide reductions
    // and on muladd over full-range scalars alike.
    #[test]
    fn barrett_matches_bignum_oracle() {
        let mut rng = CryptoRng::from_seed(0xBA88);
        let be = |x: &[u8]| {
            let mut v = x.to_vec();
            v.reverse();
            BigUint::from_bytes_be(&v)
        };
        let to_le32 = |n: &BigUint| {
            let mut out = n.to_bytes_be_padded(32);
            out.reverse();
            crate::fixed::<32>(&out)
        };
        for _ in 0..64 {
            let wide: [u8; 64] = rng.gen_array();
            let oracle = to_le32(&be(&wide).rem(&order_l()));
            assert_eq!(reduce_mod_l(&wide), oracle);

            let a: [u8; 32] = rng.gen_array();
            let b: [u8; 32] = rng.gen_array();
            let c: [u8; 32] = rng.gen_array();
            let oracle = to_le32(&be(&a).mul(&be(&b)).add(&be(&c)).rem(&order_l()));
            assert_eq!(muladd_mod_l(&a, &b, &c), oracle);
        }
        // Boundary cases: zero, one below L, and L itself (as the
        // 32-byte encoding) reduce exactly.
        let l_le = to_le32(&order_l());
        assert_eq!(reduce_mod_l(&l_le), [0u8; 32]);
        assert_eq!(reduce_mod_l(&[0u8; 32]), [0u8; 32]);
        let l_minus_1 = to_le32(&order_l().sub(&BigUint::one()));
        assert_eq!(reduce_mod_l(&l_minus_1), l_minus_1);
    }

    // --- batch verification ---

    fn batch_fixture(n: usize, seed: u64) -> (Vec<SigningKey>, Vec<Vec<u8>>, Vec<Signature>) {
        let mut rng = CryptoRng::from_seed(seed);
        let keys: Vec<SigningKey> = (0..n).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("message {i}").into_bytes()).collect();
        let sigs: Vec<Signature> = keys
            .iter()
            .zip(&msgs)
            .map(|(k, m)| k.sign(m))
            .collect();
        (keys, msgs, sigs)
    }

    fn batch_items<'a>(
        keys: &[SigningKey],
        msgs: &'a [Vec<u8>],
        sigs: &[Signature],
    ) -> Vec<BatchItem<'a>> {
        keys.iter()
            .zip(msgs)
            .zip(sigs)
            .map(|((k, m), s)| BatchItem { pubkey: k.verifying_key(), msg: m, sig: *s })
            .collect()
    }

    #[test]
    fn verify_batch_accepts_valid_batch() {
        let (keys, msgs, sigs) = batch_fixture(4, 31);
        let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
        assert!(out.batched && !out.fell_back);
        assert!(out.all_valid());
        assert_eq!(out.valid.len(), 4);
    }

    #[test]
    fn verify_batch_identifies_culprits() {
        let (keys, msgs, mut sigs) = batch_fixture(4, 32);
        // Flip the low bit of s: the item stays decodable (s stays
        // canonical) but the equation no longer holds, so the batch
        // must fail and fall back to identify the culprit. (A flipped
        // R byte would usually fail decompression and be excluded
        // before the equation runs.)
        sigs[2].0[32] ^= 1;
        let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
        assert!(out.batched && out.fell_back);
        assert_eq!(out.valid, vec![true, true, false, true]);
    }

    // Width 1 is the same equation (one chunk, one term); width 0
    // is the empty sum.
    #[test]
    fn verify_batch_width_one_and_empty() {
        let (keys, msgs, mut sigs) = batch_fixture(1, 33);
        let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
        assert!(out.batched && !out.fell_back);
        assert_eq!(out.valid, vec![true]);
        sigs[0].0[32] ^= 1;
        let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
        assert!(out.batched && out.fell_back);
        assert_eq!(out.valid, vec![false]);
        let out = verify_batch(&[]);
        assert!(!out.batched && !out.fell_back && out.valid.is_empty() && out.all_valid());
    }

    // The first coefficient is 1, so no other may be: two signatures
    // off by +δ and −δ in `s` have defects that cancel under equal
    // coefficients, and must not under the batch's.
    #[test]
    fn verify_batch_catches_cancelling_defects() {
        let (keys, msgs, mut sigs) = batch_fixture(2, 77);
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut delta = [0u8; 32];
        delta[0] = 5;
        let mut minus_one = [0u8; 32];
        for (bytes, limb) in minus_one.chunks_exact_mut(8).zip(L_LIMBS) {
            bytes.copy_from_slice(&limb.to_le_bytes());
        }
        minus_one[0] -= 1;
        let s0: [u8; 32] = crate::fixed(&sigs[0].0[32..]);
        let s1: [u8; 32] = crate::fixed(&sigs[1].0[32..]);
        sigs[0].0[32..].copy_from_slice(&muladd_mod_l(&one, &delta, &s0));
        sigs[1].0[32..].copy_from_slice(&muladd_mod_l(&minus_one, &delta, &s1));

        let items = batch_items(&keys, &msgs, &sigs);
        let decoded: Vec<DecodedSig> =
            items.iter().map(|it| decode_sig(&it.pubkey, it.msg, &it.sig).unwrap()).collect();
        assert!(defect::<CHUNK>(decoded.iter().map(|d| (d, one))).is_small_order());
        let out = verify_batch(&items);
        assert!(out.fell_back);
        assert_eq!(out.valid, vec![false, false]);
    }

    // Widths 1‥8 (one chunk), then widths that spill into a second
    // and third chunk: a bad item at every index is the only `false`
    // in `valid`, and the owned-message entry point agrees.
    #[test]
    fn verify_batch_pins_a_single_culprit_at_every_index() {
        for n in (1..=8).chain([9, 17]) {
            let (keys, msgs, sigs) = batch_fixture(n, 40 + n as u64);
            let good = verify_batch(&batch_items(&keys, &msgs, &sigs));
            assert!(good.all_valid() && good.batched && !good.fell_back, "width {n}");
            for bad in 0..n {
                let mut sigs = sigs.clone();
                sigs[bad].0[32] ^= 1;
                let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
                let expect: Vec<bool> = (0..n).map(|i| i != bad).collect();
                assert!(out.fell_back, "width {n}, bad item {bad}");
                assert_eq!(out.valid, expect, "width {n}, bad item {bad}");
                let checks: Vec<SignatureCheck> = (0..n)
                    .map(|i| SignatureCheck {
                        key: keys[i].verifying_key(),
                        msg: msgs[i].clone(),
                        sig: sigs[i],
                    })
                    .collect();
                assert_eq!(verify_checks(&checks).valid, expect);
                assert!(!checks[bad].check());
            }
        }
    }

    #[test]
    fn verify_batch_excludes_undecodable_items() {
        let (keys, msgs, mut sigs) = batch_fixture(3, 34);
        // Make item 1's s non-canonical (s + L): fails decode, the
        // other two still batch.
        let l_le: [u8; 32] = {
            let mut v = order_l().to_bytes_be_padded(32);
            v.reverse();
            v.try_into().unwrap()
        };
        let mut s: [u8; 32] = sigs[1].0[32..].try_into().unwrap();
        let mut carry = 0u16;
        for i in 0..32 {
            let t = u16::from(s[i]) + u16::from(l_le[i]) + carry;
            s[i] = t as u8;
            carry = t >> 8;
        }
        sigs[1].0[32..].copy_from_slice(&s);
        let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
        assert!(out.batched && !out.fell_back);
        assert_eq!(out.valid, vec![true, false, true]);
    }

    // --- Wycheproof-style edge vectors: single verification, the
    // --- reference (two separate ladders), a batch of one and a
    // --- batch of two must agree on every vector.

    /// The agreement oracle: canonical-s check, then the cofactored
    /// equation `[8][s]B == [8](R + [k]A)` computed with two separate
    /// scalar multiplications (no interleaving, no tables).
    fn reference_verify(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> bool {
        let r_enc: [u8; 32] = crate::fixed(&sig.0[..32]);
        let s_enc: [u8; 32] = crate::fixed(&sig.0[32..]);
        let mut s_be = s_enc.to_vec();
        s_be.reverse();
        if BigUint::from_bytes_be(&s_be).cmp_val(&order_l()) != std::cmp::Ordering::Less {
            return false;
        }
        let (Some(a), Some(r)) = (Point::decompress(&key.0), Point::decompress(&r_enc)) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&key.0);
        h.update(msg);
        let k = reduce_mod_l(&h.finalize());
        let lhs = Point::base().scalar_mul(&s_enc);
        let rhs = r.add(&a.scalar_mul(&k));
        lhs.add(&rhs.neg()).is_small_order()
    }

    #[test]
    fn edge_vectors_agree_across_all_paths() {
        // Small-order encodings: identity, the order-2 point
        // (0, -1), and the order-4 points (±sqrt(-1), 0).
        let identity_enc: [u8; 32] = {
            let mut b = [0u8; 32];
            b[0] = 1;
            b
        };
        let order2_enc: [u8; 32] = {
            // y = p - 1.
            let mut b = [0xffu8; 32];
            b[0] = 0xec;
            b[31] = 0x7f;
            b
        };
        let order4_enc = [0u8; 32]; // y = 0, sign 0
        let noncanonical_y: [u8; 32] = {
            // y = p + 1 ≡ 1: a non-canonical encoding of the identity.
            let mut b = [0xffu8; 32];
            b[0] = 0xee;
            b[31] = 0x7f;
            b
        };
        let l_le: [u8; 32] = {
            let mut v = order_l().to_bytes_be_padded(32);
            v.reverse();
            v.try_into().unwrap()
        };

        let mut rng = CryptoRng::from_seed(0xED9E);
        let good_key = SigningKey::generate(&mut rng);
        let good_pk = good_key.verifying_key();
        let good_sig = good_key.sign(b"control");

        let sig_from = |r: &[u8; 32], s: &[u8; 32]| {
            let mut raw = [0u8; 64];
            raw[..32].copy_from_slice(r);
            raw[32..].copy_from_slice(s);
            Signature(raw)
        };
        let zero = [0u8; 32];

        // (name, key bytes, msg, sig)
        let vectors: Vec<(&str, [u8; 32], &[u8], Signature)> = vec![
            ("control valid", good_pk.0, b"control", good_sig),
            ("control wrong msg", good_pk.0, b"contro1", good_sig),
            // s = 0, R = A = identity: 0·B == identity + k·identity
            // holds exactly — verification accepts it.
            ("all identity", identity_enc, b"m", sig_from(&identity_enc, &zero)),
            ("order-2 A, identity R", order2_enc, b"m", sig_from(&identity_enc, &zero)),
            ("order-4 A, identity R", order4_enc, b"m", sig_from(&identity_enc, &zero)),
            ("order-2 A and R", order2_enc, b"m", sig_from(&order2_enc, &zero)),
            ("small-order R under a real key", good_pk.0, b"m", sig_from(&order2_enc, &zero)),
            ("non-canonical s = L", good_pk.0, b"control", sig_from(&identity_enc, &l_le)),
            ("non-canonical y encoding of R", good_pk.0, b"m", sig_from(&noncanonical_y, &zero)),
            ("non-canonical y encoding of A", noncanonical_y, b"m", sig_from(&identity_enc, &zero)),
        ];

        for (name, key_bytes, msg, sig) in &vectors {
            let key = VerifyingKey(*key_bytes);
            let via_verify = key.verify(msg, sig).is_ok();
            let via_reference = reference_verify(&key, msg, sig);
            assert_eq!(via_verify, via_reference, "verify vs reference on {name:?}");

            // The same vector as a batch of one: the unified width-1
            // path, reached through the batch entry point.
            let alone = verify_batch(&[BatchItem { pubkey: key, msg, sig: *sig }]);
            assert_eq!(alone.valid, vec![via_verify], "width-1 batch vs verify on {name:?}");

            // Pair the vector with a known-good item so the linear
            // combination actually mixes it; the batch verdict
            // (fallback included) must match the single-verify
            // verdict.
            let out = verify_batch(&[
                BatchItem { pubkey: key, msg, sig: *sig },
                BatchItem { pubkey: good_pk, msg: b"control", sig: good_sig },
            ]);
            assert_eq!(out.valid[0], via_verify, "batch vs verify on {name:?}");
            assert!(out.valid[1], "good companion must stay valid on {name:?}");
        }
    }
}
