//! Ed25519 signatures (RFC 8032), used by the PKI substrate to sign
//! certificates and by middleboxes/servers to prove key possession.
//!
//! Points are handled in extended homogeneous coordinates
//! (X : Y : Z : T) with the RFC's twisted-Edwards addition formulas.
//! Scalar arithmetic mod the group order L reuses [`crate::bignum`].

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
/// compile time so the `const` point formulas (and the comb-table
/// builder) can use it.
const CURVE_D: Fe = Fe::from_bytes(&[
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70,
    0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c,
    0x03, 0x52,
]);

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

/// A point in extended homogeneous coordinates.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
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

    /// Point addition (RFC 8032 §5.1.4 / "add-2008-hwcd-3"). These
    /// formulas are complete for Ed25519 (a = -1, d non-square), so
    /// doubling and identity inputs need no special casing. `const`
    /// so the fixed-base comb table evaluates at compile time.
    const fn add(&self, other: &Point) -> Point {
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(other.t).mul_small(2).mul(CURVE_D);
        let d = self.z.mul(other.z).mul_small(2);
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

    /// Point doubling ("dbl-2008-hwcd").
    const fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
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

    /// Scalar multiplication, 4-bit fixed windows, constant sequence
    /// of doubles/adds for a fixed scalar width. The window value is
    /// a secret nibble, so the precomputed multiple is fetched with a
    /// masked scan over the whole table rather than a direct index —
    /// the memory access pattern never depends on the scalar.
    ///
    /// Since the fixed-base comb and the Strauss interleaving took
    /// over every production path, this generic ladder survives only
    /// as the reference oracle the comb/Strauss tests cross-check
    /// against.
    #[cfg(any(test, feature = "reference-oracle"))]
    #[cfg_attr(not(test), allow(dead_code))]
    fn scalar_mul(&self, scalar: &[u8; 32]) -> Point {
        // Precompute 0..15 multiples.
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
            acc = acc.add(&ct_lookup(&table, nibble));
        }
        acc
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
    /// this path), so every window value is fetched with the same
    /// masked full-table scan `scalar_mul` uses.
    fn mul_base(scalar: &[u8; 32]) -> Point {
        let mut lo = Point::identity();
        let mut hi = Point::identity();
        for (i, &byte) in scalar.iter().enumerate() {
            lo = lo.add(&ct_lookup(&BASE_COMB[i], byte & 0xf));
            hi = hi.add(&ct_lookup(&BASE_COMB[i], byte >> 4));
        }
        let mut acc = hi;
        for _ in 0..4 {
            acc = acc.double();
        }
        acc.add(&lo)
    }

    /// Strauss/Shamir interleaved double-scalar multiplication:
    /// `s·B − k·A` in one shared doubling chain. The base-point
    /// windows come from the comb table's first row (`j·B`); the
    /// `−A` windows are built on the fly. Both window values go
    /// through the masked constant-time fetch, so the access
    /// pattern is scalar-independent.
    fn double_scalar_sub(s: &[u8; 32], k: &[u8; 32], a: &Point) -> Point {
        let neg_a_table = window_table(&a.neg());
        let mut acc = Point::identity();
        for i in (0..64).rev() {
            for _ in 0..4 {
                acc = acc.double();
            }
            acc = acc.add(&ct_lookup(&BASE_COMB[0], nibble(s, i)));
            acc = acc.add(&ct_lookup(&neg_a_table, nibble(k, i)));
        }
        acc
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
/// in extended coordinates, evaluated entirely at compile time (the
/// field and point formulas are `const fn`), so the 80 KiB table
/// lives in read-only data with zero startup cost. Entry `[0][j]`
/// doubles as the Strauss window table for the base point.
static BASE_COMB: [[Point; 16]; COMB_WINDOWS] = build_base_comb();

const fn build_base_comb() -> [[Point; 16]; COMB_WINDOWS] {
    let mut table = [[Point::identity(); 16]; COMB_WINDOWS];
    let mut power = Point::base();
    let mut i = 0;
    while i < COMB_WINDOWS {
        let mut j = 1;
        while j < 16 {
            let prev = table[i][j - 1];
            table[i][j] = prev.add(&power);
            j += 1;
        }
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

/// The 16-entry window table `[identity, P, 2P, …, 15P]` used by the
/// Strauss and batch paths for runtime points.
fn window_table(p: &Point) -> [Point; 16] {
    let mut table = [Point::identity(); 16];
    for j in 1..16 {
        table[j] = table[j - 1].add(p);
    }
    table
}

/// Window `i` (4 bits, little-endian window order) of a 32-byte
/// scalar.
fn nibble(scalar: &[u8; 32], i: usize) -> u8 {
    let byte = scalar[i / 2];
    if i % 2 == 1 {
        byte >> 4
    } else {
        byte & 0xf
    }
}

/// Digit count of a width-5 wNAF covering a 256-bit scalar, with
/// headroom for the recoding carry to run past the top bit.
const NAF_LEN: usize = 260;

/// Width-5 non-adjacent form: recodes a little-endian scalar into
/// signed digits in `{0, ±1, ±3, …, ±15}` where every nonzero digit
/// is followed by at least four zeros, so a 256-bit scalar averages
/// one point addition per ~6 bits instead of one per 4-bit window.
/// Digit `i` has weight `2^i`. The recoding is deterministic, which
/// the batch verifier's replay guarantee depends on.
fn wnaf5(s: &[u8; 32]) -> [i8; NAF_LEN] {
    let mut bits = [0u8; NAF_LEN + 5];
    for (byte_idx, &byte) in s.iter().enumerate() {
        for bit in 0..8 {
            bits[byte_idx * 8 + bit] = (byte >> bit) & 1;
        }
    }
    let mut naf = [0i8; NAF_LEN];
    let mut i = 0;
    while i < NAF_LEN {
        if bits[i] == 0 {
            i += 1;
            continue;
        }
        let mut window = 0u8;
        for (j, &b) in bits[i..i + 5].iter().enumerate() {
            window |= b << j;
        }
        if window >= 16 {
            // Digit is window − 32; repay the borrowed 32 by
            // carrying a one into bit i+5 (and up through any run
            // of ones — bounded by the array headroom because the
            // scalar's top three bits are clear after mod-L
            // reduction).
            naf[i] = window as i8 - 32;
            let mut k = i + 5;
            while bits[k] == 1 {
                bits[k] = 0;
                k += 1;
            }
            bits[k] = 1;
        } else {
            naf[i] = window as i8;
        }
        bits[i..i + 5].fill(0);
        i += 5;
    }
    naf
}

/// Odd multiples `[P, 3P, 5P, …, 15P]` backing the wNAF digit fetch.
fn odd_multiples(p: &Point) -> [Point; 8] {
    let p2 = p.double();
    let mut table = [*p; 8];
    for j in 1..8 {
        table[j] = table[j - 1].add(&p2);
    }
    table
}

/// Variable-time fetch of `digit · P` from the odd-multiples table
/// of `P`. The direct load (no masked scan) is sound because the
/// batch verifier runs on public data only — signature points, hash
/// scalars, and coefficients derived from them by hashing the batch
/// — so there is no secret for the cache footprint to leak. Secret
/// scalars (signing, the single-verify Strauss pass shared with the
/// comb) never reach this path; they keep the [`ct_lookup`] scan.
fn naf_entry(digit: i8, odds: &[Point; 8]) -> Point {
    let slot = usize::from(digit.unsigned_abs() >> 1);
    let entry = odds[slot];
    if digit < 0 {
        entry.neg()
    } else {
        entry
    }
}

/// Constant-time window-table fetch: reads every entry and
/// mask-accumulates the one whose position equals `index` (< 16), so
/// the cache footprint is the whole table regardless of the secret
/// window value.
fn ct_lookup(table: &[Point; 16], index: u8) -> Point {
    let mut out = Point {
        x: Fe([0; 5]),
        y: Fe([0; 5]),
        z: Fe([0; 5]),
        t: Fe([0; 5]),
    };
    for (j, entry) in table.iter().enumerate() {
        let mask = crate::ct::mask_eq_u64(j as u64, u64::from(index));
        for k in 0..5 {
            out.x.0[k] |= entry.x.0[k] & mask;
            out.y.0[k] |= entry.y.0[k] & mask;
            out.z.0[k] |= entry.z.0[k] & mask;
            out.t.0[k] |= entry.t.0[k] & mask;
        }
    }
    out
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
        let h = Sha512::digest(seed);
        let mut s = [0u8; 32];
        s.copy_from_slice(&h[..32]);
        s[0] &= 248;
        s[31] &= 127;
        s[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
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
}

impl Drop for SigningKey {
    fn drop(&mut self) {
        crate::ct::zeroize(&mut self.s);
        crate::ct::zeroize(&mut self.prefix);
    }
}

/// A signature verification job, decoded and hashed but not yet
/// checked: the shared front half of the single and batched verify
/// paths.
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

impl DecodedSig {
    /// Check `[8][s]B == [8]R + [8][k]A` (RFC 8032's cofactored
    /// group equation), rearranged as `[8](s·B − k·A − R) ==
    /// identity` so the left side is one Strauss double-scalar pass
    /// plus three doublings.
    ///
    /// The cofactored form is chosen deliberately: multiplying the
    /// defect by 8 annihilates small-order components *exactly*, so
    /// the single-verify verdict and the random-linear-combination
    /// batch verdict provably agree on every input, including
    /// adversarial small-order points (the cofactor*less* equation
    /// and an RLC batch disagree on those, because `z·k mod L`
    /// scrambles the defect's mod-8 residue).
    fn valid(&self) -> bool {
        let diff = Point::double_scalar_sub(&self.s_enc, &self.k, &self.a).add(&self.r.neg());
        mul8(diff).ct_eq(&Point::identity())
    }
}

/// Multiply by the cofactor (three doublings).
fn mul8(p: Point) -> Point {
    p.double().double().double()
}

impl VerifyingKey {
    /// Verify a signature (RFC 8032 §5.1.7, cofactored group
    /// equation — see [`DecodedSig::valid`] for why).
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
        match Point::decompress(&self.0) {
            None => true,
            Some(p) => mul8(p).ct_eq(&Point::identity()),
        }
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
    /// evaluated (two or more decodable items).
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

/// Batch-verify N signatures with one multi-scalar multiplication.
///
/// Checks `(Σ zᵢ·sᵢ)·B − Σ zᵢ·Rᵢ − Σ (zᵢ·kᵢ)·Aᵢ == identity` for
/// deterministic pseudo-random 128-bit coefficients `zᵢ` derived by
/// hashing the whole batch (so two runs over the same inputs take
/// bit-identical paths — a host determinism requirement). A random
/// linear combination of the per-signature equations vanishes for a
/// batch containing an invalid signature with probability ≈ 2⁻¹²⁸,
/// the standard batch-verification argument. Like the single-verify
/// path, the combined equation is checked *cofactored* (the
/// accumulator is multiplied by 8 before the identity comparison):
/// reducing `zᵢ·kᵢ mod L` scrambles a defect's mod-8 residue, so a
/// cofactorless batch would disagree with single verification on
/// adversarial small-order points, while the cofactored pair
/// provably agree — ×8 annihilates small-order defects exactly and
/// large-order defects survive the linear combination except with
/// negligible probability. When the combined equation fails, every
/// item is re-checked individually ([`BatchOutcome::fell_back`]) so
/// culprits are identified with exactly [`VerifyingKey::verify`]'s
/// verdict.
///
/// Everything the batch touches is public (signatures under
/// verification), so unlike the signing and single-verify paths the
/// per-item terms use *variable-time* width-5 wNAF: odd-multiple
/// tables of `−Aᵢ`/`−Rᵢ` fetched by direct index, one sparse
/// addition per ~6 bits of `zᵢ·kᵢ mod L` (256 bits) and `zᵢ` (128
/// bits) on a doubling chain shared by the whole batch. That is
/// where the batch saves work over N separate dense-window Strauss
/// passes, which pay a masked full-table scan per 4-bit window.
pub fn verify_batch(items: &[BatchItem]) -> BatchOutcome {
    // Decode every item (index-aligned); undecodable ones are invalid
    // outright and excluded from the combined equation.
    let decoded: Vec<Option<DecodedSig>> = items
        .iter()
        .map(|it| decode_sig(&it.pubkey, it.msg, &it.sig))
        .collect();
    let n_decoded = decoded.iter().flatten().count();

    if n_decoded < 2 {
        let valid = decoded
            .iter()
            .map(|d| d.as_ref().is_some_and(|d| d.valid()))
            .collect();
        return BatchOutcome { valid, batched: false, fell_back: false };
    }

    // Deterministic coefficient seed over the whole batch.
    let mut h = Sha512::new();
    h.update(b"mbtls-ed25519-batch-v1");
    h.update(&(items.len() as u64).to_le_bytes());
    for it in items {
        h.update(&it.pubkey.0);
        h.update(&it.sig.0);
        h.update(&(it.msg.len() as u64).to_le_bytes());
        h.update(it.msg);
    }
    let seed = h.finalize();

    struct BatchTerm {
        /// wNAF digits of zᵢ (128 bits): drives the −Rᵢ additions.
        naf_z: [i8; NAF_LEN],
        /// wNAF digits of zᵢ·kᵢ mod L: drives the −Aᵢ additions.
        naf_zk: [i8; NAF_LEN],
        neg_a_odds: [Point; 8],
        neg_r_odds: [Point; 8],
    }

    let zero = [0u8; 32];
    let mut s_tilde = [0u8; 32];
    let mut terms = Vec::with_capacity(n_decoded);
    for (i, d) in decoded.iter().enumerate() {
        let Some(d) = d else { continue };
        let mut zh = Sha512::new();
        zh.update(&seed);
        zh.update(&(i as u64).to_le_bytes());
        let z_bytes = zh.finalize();
        let mut z = [0u8; 32];
        z[..16].copy_from_slice(&z_bytes[..16]);

        s_tilde = muladd_mod_l(&z, &d.s_enc, &s_tilde);
        terms.push(BatchTerm {
            naf_z: wnaf5(&z),
            naf_zk: wnaf5(&muladd_mod_l(&z, &d.k, &zero)),
            neg_a_odds: odd_multiples(&d.a.neg()),
            neg_r_odds: odd_multiples(&d.r.neg()),
        });
    }

    // One interleaved multi-scalar pass over the shared doubling
    // chain. The base term reuses the comb table's first row (one
    // window add every fourth bit position); each item contributes
    // a sparse variable-time wNAF addition roughly every sixth bit
    // — ~43 for the 256-bit zᵢ·kᵢ digit string, ~21 for the
    // 128-bit zᵢ string — which is where the batch saves work over
    // N separate dense-window Strauss passes.
    let mut acc = Point::identity();
    for i in (0..NAF_LEN).rev() {
        acc = acc.double();
        if i % 4 == 0 && i < 256 {
            acc = acc.add(&ct_lookup(&BASE_COMB[0], nibble(&s_tilde, i / 4)));
        }
        for term in &terms {
            let da = term.naf_zk[i];
            if da != 0 {
                acc = acc.add(&naf_entry(da, &term.neg_a_odds));
            }
            let dr = term.naf_z[i];
            if dr != 0 {
                acc = acc.add(&naf_entry(dr, &term.neg_r_odds));
            }
        }
    }

    if mul8(acc).ct_eq(&Point::identity()) {
        let valid = decoded.iter().map(|d| d.is_some()).collect();
        BatchOutcome { valid, batched: true, fell_back: false }
    } else {
        // At least one bad signature: identify culprits individually.
        let valid = decoded
            .iter()
            .map(|d| d.as_ref().is_some_and(|d| d.valid()))
            .collect();
        BatchOutcome { valid, batched: true, fell_back: true }
    }
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

    #[test]
    fn comb_table_matches_scalar_mul() {
        // BASE_COMB[i][j] must equal j·256^i·B; sample across the
        // table including both extremes of each axis.
        for &(i, j) in &[
            (0usize, 1u8),
            (0, 15),
            (1, 1),
            (7, 9),
            (15, 3),
            (12, 8),
            (31, 1),
            (31, 15),
        ] {
            let mut scalar = [0u8; 32];
            scalar[i] = j;
            let expect = Point::base().scalar_mul(&scalar);
            assert!(
                BASE_COMB[i][j as usize].ct_eq(&expect),
                "comb window {i} entry {j} mismatch"
            );
        }
        // Entry [i][0] is the identity for every window.
        for i in [0usize, 16, 31] {
            assert!(BASE_COMB[i][0].ct_eq(&Point::identity()));
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

    #[test]
    fn double_scalar_sub_matches_components() {
        let mut rng = CryptoRng::from_seed(0x5172);
        for _ in 0..3 {
            let s: [u8; 32] = rng.gen_array();
            let k: [u8; 32] = rng.gen_array();
            let a_key = SigningKey::generate(&mut rng);
            let a = Point::decompress(&a_key.verifying_key().0).unwrap();
            // (s·B − k·A) + k·A == s·B
            let got = Point::double_scalar_sub(&s, &k, &a);
            assert!(got.add(&a.scalar_mul(&k)).ct_eq(&Point::base().scalar_mul(&s)));
        }
    }

    #[test]
    fn wnaf_digits_are_odd_sparse_and_bounded() {
        let mut rng = CryptoRng::from_seed(0x0AF5);
        for _ in 0..8 {
            let s = reduce_mod_l(&rng.gen_array::<32>());
            let naf = wnaf5(&s);
            for (i, &d) in naf.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                assert!(d % 2 != 0, "digit {d} at {i} must be odd");
                assert!((-15..=15).contains(&d), "digit {d} at {i} out of range");
                // Width-5 recoding: the next four positions are zero.
                for &next in naf[i + 1..(i + 5).min(NAF_LEN)].iter() {
                    assert_eq!(next, 0, "digit run after position {i}");
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
            let naf = wnaf5(&s);
            let mut acc = Point::identity();
            for i in (0..NAF_LEN).rev() {
                acc = acc.double();
                let d = naf[i];
                if d != 0 {
                    acc = acc.add(&naf_entry(d, &odds));
                }
            }
            assert!(acc.ct_eq(&Point::mul_base(&s)));
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

    #[test]
    fn verify_batch_small_batches_skip_the_equation() {
        let (keys, msgs, sigs) = batch_fixture(1, 33);
        let out = verify_batch(&batch_items(&keys, &msgs, &sigs));
        assert!(!out.batched && !out.fell_back);
        assert_eq!(out.valid, vec![true]);
        let out = verify_batch(&[]);
        assert!(!out.batched && out.valid.is_empty() && out.all_valid());
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

    // --- Wycheproof-style edge vectors: the single-verify path, the
    // --- reference (two separate ladders) path, and the batch path
    // --- must agree on every vector.

    /// The agreement oracle: canonical-s check, then the cofactored
    /// equation `[8][s]B == [8](R + [k]A)` computed with two separate
    /// scalar multiplications (no Strauss interleaving, no comb
    /// table).
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
        mul8(lhs.add(&rhs.neg())).ct_eq(&Point::identity())
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

            // Pair the vector with a known-good item so the batch
            // equation actually runs; the batch verdict (fallback
            // included) must match the single-verify verdict.
            let out = verify_batch(&[
                BatchItem { pubkey: key, msg, sig: *sig },
                BatchItem { pubkey: good_pk, msg: b"control", sig: good_sig },
            ]);
            assert_eq!(out.valid[0], via_verify, "batch vs verify on {name:?}");
            assert!(out.valid[1], "good companion must stay valid on {name:?}");
        }
    }
}
