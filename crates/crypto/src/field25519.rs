//! Field arithmetic modulo p = 2^255 - 19, shared by [`crate::x25519`]
//! and [`crate::ed25519`].
//!
//! Elements are five 51-bit limbs in 64-bit words (the standard
//! radix-2^51 representation), multiplied with 128-bit intermediate
//! products. All arithmetic is branch-free on secret data.
//!
//! # Limb contract
//!
//! Reduction is lazy: a limb may run past 51 bits, and how far is
//! part of every operation's signature.
//!
//! * **tight** — every limb below [`TIGHT`] = 2^51 + 2^18. Returned
//!   by `mul`, `square`, `mul_small`, `sub`, `neg`, `invert`,
//!   `pow_p58` and `from_bytes`; the constants are tight too.
//! * **loose** — every limb below [`LOOSE`] = 2^54. Accepted by
//!   `mul`, `square`, `mul_small`, and by `sub` on both sides.
//!
//! `add` is five plain additions and carries nothing, so its result
//! is bounded by the sum of its operands' bounds: up to seven tight
//! values may be summed before the result must go through one of the
//! operations above. No formula in the two consumers stacks more
//! than three. The loose-accepting operations `debug_assert!` their
//! bound on entry and the two carry routines the tight bound on exit,
//! so every debug-built test run checks the contract.
//!
//! `to_bytes` (and `ct_eq`, `is_zero`, `is_negative` through it)
//! accepts any limbs at all and reduces fully to the canonical
//! representative.

/// A field element, limbs base 2^51, not necessarily fully reduced
/// (see the module's limb contract).
#[allow(clippy::unusual_byte_groupings)] // literals grouped as 51-bit limbs
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fe(pub [u64; 5]);

const MASK51: u64 = (1u64 << 51) - 1;

/// Exclusive limb bound of a tight element: a 51-bit limb plus the
/// largest carry a single pass can leave on top of it (19·(2^13 − 1)
/// into limb 0 when [`Fe::carry`] is fed arbitrary `u64` limbs).
const TIGHT: u64 = (1 << 51) + (1 << 18);

/// Exclusive limb bound of a loose element. 2^54 is what the wide
/// carry chain in [`Fe::carry_wide`] affords: the top column of a
/// product has five terms and no factor 19, so it stays below
/// 5·2^108 + 2^64, its carry below 2^59.4, and that carry times 19
/// still fits the `u64` it is folded into limb 0 with. (The other
/// columns carry the factor 19 and stay below 5·19·2^108 < 2^115,
/// far inside `u128`.)
const LOOSE: u64 = 1 << 54;

const fn m(x: u64, y: u64) -> u128 {
    (x as u128) * (y as u128)
}

impl Fe {
    pub const ZERO: Fe = Fe([0; 5]);
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Parse 32 little-endian bytes; the top bit is ignored (as both
    /// RFC 7748 and RFC 8032 require for field elements). `const` so
    /// curve constants (and the precomputed base-point comb table in
    /// `ed25519`) can be evaluated at compile time.
    pub const fn from_bytes(b: &[u8; 32]) -> Fe {
        const fn load(b: &[u8; 32], i: usize) -> u64 {
            let mut v = 0u64;
            let mut k = 0;
            while k < 8 {
                v |= (b[i + k] as u64) << (8 * k);
                k += 1;
            }
            v
        }
        Fe([
            load(b, 0) & MASK51,
            (load(b, 6) >> 3) & MASK51,
            (load(b, 12) >> 6) & MASK51,
            (load(b, 19) >> 1) & MASK51,
            (load(b, 24) >> 12) & MASK51,
        ])
    }

    /// Serialize to 32 little-endian bytes, fully reduced mod p.
    pub fn to_bytes(self) -> [u8; 32] {
        // Tight limbs put the value below 2^255 + 2^223 < 2p, so one
        // conditional subtraction of p finishes the reduction:
        // compute t + 19, propagate, and use the carry out of bit 255
        // to decide (branch-free) whether to subtract p.
        let mut t = self.carry();
        let mut q = (t.0[0].wrapping_add(19)) >> 51;
        q = (t.0[1].wrapping_add(q)) >> 51;
        q = (t.0[2].wrapping_add(q)) >> 51;
        q = (t.0[3].wrapping_add(q)) >> 51;
        q = (t.0[4].wrapping_add(q)) >> 51;
        // q is 1 iff t >= p.
        t.0[0] = t.0[0].wrapping_add(19u64.wrapping_mul(q));
        let mut carry = t.0[0] >> 51;
        t.0[0] &= MASK51;
        t.0[1] = t.0[1].wrapping_add(carry);
        carry = t.0[1] >> 51;
        t.0[1] &= MASK51;
        t.0[2] = t.0[2].wrapping_add(carry);
        carry = t.0[2] >> 51;
        t.0[2] &= MASK51;
        t.0[3] = t.0[3].wrapping_add(carry);
        carry = t.0[3] >> 51;
        t.0[3] &= MASK51;
        t.0[4] = t.0[4].wrapping_add(carry);
        t.0[4] &= MASK51;

        let mut out = [0u8; 32];
        let limbs = t.0;
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in limbs {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Every limb below `bound` ([`TIGHT`] or [`LOOSE`]).
    const fn below(&self, bound: u64) -> bool {
        let l = &self.0;
        l[0] < bound && l[1] < bound && l[2] < bound && l[3] < bound && l[4] < bound
    }

    /// One parallel carry pass: every limb keeps its low 51 bits and
    /// takes its lower neighbour's overflow (limb 4's wraps into limb
    /// 0 times 19, since 2^255 ≡ 19). Any limbs in, tight limbs out;
    /// the value mod p is unchanged. The passes do not chain — an
    /// incoming carry is not propagated further — which is what makes
    /// this five independent operations instead of a dependent
    /// sequence, and why the result is tight rather than canonical.
    const fn carry(self) -> Fe {
        let l = self.0;
        let out = Fe([
            (l[0] & MASK51) + (l[4] >> 51) * 19,
            (l[1] & MASK51) + (l[0] >> 51),
            (l[2] & MASK51) + (l[1] >> 51),
            (l[3] & MASK51) + (l[2] >> 51),
            (l[4] & MASK51) + (l[3] >> 51),
        ]);
        debug_assert!(out.below(TIGHT));
        out
    }

    /// Limb-wise sum, no carry: the result's bound is the sum of the
    /// operands' bounds (see the module's limb contract).
    pub const fn add(self, rhs: Fe) -> Fe {
        Fe([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
    }

    /// Loose operands in, tight result out.
    #[allow(clippy::unusual_byte_groupings)] // 16p written as 51-bit limbs
    pub const fn sub(self, rhs: Fe) -> Fe {
        // Bias by 16p, whose limbs (2^55 − 304, 2^55 − 16, …) exceed
        // any loose limb, so the limb-wise subtraction cannot
        // underflow. Each biased limb is below 2^54 + 2^55 < 2^56:
        // its overflow past 51 bits is under 2^5 (2^10 after the
        // wrap's factor 19), so a single parallel pass already lands
        // every limb below 2^51 + 2^10 — tight, with no second pass.
        const P16: [u64; 5] = [
            0x7f_ffff_ffff_fed0,
            0x7f_ffff_ffff_fff0,
            0x7f_ffff_ffff_fff0,
            0x7f_ffff_ffff_fff0,
            0x7f_ffff_ffff_fff0,
        ];
        debug_assert!(self.below(LOOSE));
        debug_assert!(rhs.below(LOOSE));
        Fe([
            self.0[0] + P16[0] - rhs.0[0],
            self.0[1] + P16[1] - rhs.0[1],
            self.0[2] + P16[2] - rhs.0[2],
            self.0[3] + P16[3] - rhs.0[3],
            self.0[4] + P16[4] - rhs.0[4],
        ])
        .carry()
    }

    /// Loose operands in, tight result out.
    pub const fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.below(LOOSE));
        debug_assert!(rhs.below(LOOSE));
        let a = self.0;
        let b = rhs.0;
        // 19·b < 2^58.3: the wrapped columns' factor, applied once.
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Loose operand in, tight result out: the 15 distinct limb
    /// products of a square (cross terms doubled) instead of `mul`'s
    /// 25. Column bounds are `mul`'s.
    pub const fn square(self) -> Fe {
        debug_assert!(self.below(LOOSE));
        let a = self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        let c0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let c1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let c2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let c3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let c4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// The one sequential carry chain of a product: columns 0→4,
    /// column 4's overflow times 19 back into limb 0, and limb 0's
    /// into limb 1 — which ends below 2^51 + 2^13, the others below
    /// 2^51 (see [`LOOSE`] for why nothing overflows on the way).
    const fn carry_wide(c: [u128; 5]) -> Fe {
        let c1 = c[1] + (c[0] >> 51);
        let c2 = c[2] + (c1 >> 51);
        let c3 = c[3] + (c2 >> 51);
        let c4 = c[4] + (c3 >> 51);
        let t0 = ((c[0] as u64) & MASK51) + ((c4 >> 51) as u64) * 19;
        let out = Fe([
            t0 & MASK51,
            ((c1 as u64) & MASK51) + (t0 >> 51),
            (c2 as u64) & MASK51,
            (c3 as u64) & MASK51,
            (c4 as u64) & MASK51,
        ]);
        debug_assert!(out.below(TIGHT));
        out
    }

    /// Multiply by a small constant; loose operand in, tight result
    /// out.
    pub const fn mul_small(self, k: u32) -> Fe {
        debug_assert!(self.below(LOOSE));
        let a = self.0;
        let k = k as u64;
        Fe::carry_wide([m(a[0], k), m(a[1], k), m(a[2], k), m(a[3], k), m(a[4], k)])
    }

    /// `self^(2^k)`: k squarings.
    const fn pow2k(self, k: u32) -> Fe {
        let mut acc = self;
        let mut i = 0;
        while i < k {
            acc = acc.square();
            i += 1;
        }
        acc
    }

    /// The addition chain both fixed exponents share: returns
    /// `(self^(2^250 − 1), self^11)` in 249 squarings and 10
    /// multiplications. The exponents are constants of the curve, so
    /// the schedule is public.
    const fn pow_2_250_minus_1(self) -> (Fe, Fe) {
        let x2 = self.square();
        let x9 = x2.pow2k(2).mul(self);
        let x11 = x9.mul(x2);
        let e5 = x11.square().mul(x9); // 2^5 − 1
        let e10 = e5.pow2k(5).mul(e5); // 2^10 − 1
        let e20 = e10.pow2k(10).mul(e10);
        let e40 = e20.pow2k(20).mul(e20);
        let e50 = e40.pow2k(10).mul(e10);
        let e100 = e50.pow2k(50).mul(e50);
        let e200 = e100.pow2k(100).mul(e100);
        let e250 = e200.pow2k(50).mul(e50);
        (e250, x11)
    }

    /// Multiplicative inverse via Fermat: x^(p−2), and
    /// p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11. Maps 0 to 0. `const`
    /// so `ed25519` can normalise its precomputed tables to affine
    /// form at compile time.
    pub const fn invert(self) -> Fe {
        let (e250, x11) = self.pow_2_250_minus_1();
        e250.pow2k(5).mul(x11)
    }

    /// x^((p-5)/8), the core of the Ed25519 square-root computation:
    /// (p − 5)/8 = 2^252 − 3 = (2^250 − 1)·2^2 + 1.
    pub fn pow_p58(self) -> Fe {
        let (e250, _) = self.pow_2_250_minus_1();
        e250.pow2k(2).mul(self)
    }

    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Low bit of the fully-reduced representation (the "sign" bit in
    /// Ed25519 point compression).
    pub fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Loose operand in, tight result out.
    pub const fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Constant-time swap of two elements when `choice` is 1.
    pub fn cswap(choice: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(choice <= 1);
        let mask = choice.wrapping_neg();
        for i in 0..5 {
            let t = (a.0[i] ^ b.0[i]) & mask;
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }

    pub fn ct_eq(self, rhs: Fe) -> bool {
        crate::ct::eq(&self.to_bytes(), &rhs.to_bytes())
    }
}

/// sqrt(-1) mod p, used during Ed25519 decompression.
pub(crate) fn sqrt_m1() -> Fe {
    Fe::from_bytes(&[
        0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43,
        0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24,
        0x83, 0x2b,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::BigUint;
    use crate::rng::CryptoRng;

    fn fe(n: u64) -> Fe {
        Fe([n & MASK51, 0, 0, 0, 0])
    }

    /// p = 2^255 - 19 in limb form.
    #[allow(clippy::unusual_byte_groupings)]
    const P: [u64; 5] = [
        0x7_ffff_ffff_ffed,
        0x7_ffff_ffff_ffff,
        0x7_ffff_ffff_ffff,
        0x7_ffff_ffff_ffff,
        0x7_ffff_ffff_ffff,
    ];

    #[test]
    fn roundtrip_bytes() {
        let mut b = [0u8; 32];
        for (i, x) in b.iter_mut().enumerate() {
            *x = (i * 7 + 1) as u8;
        }
        b[31] &= 0x7f;
        let e = Fe::from_bytes(&b);
        assert_eq!(e.to_bytes(), b);
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(1234567);
        let b = fe(7654321);
        assert_eq!(a.add(b).sub(b).to_bytes(), a.to_bytes());
    }

    #[test]
    fn mul_matches_small_numbers() {
        assert_eq!(fe(6).mul(fe(7)).to_bytes(), fe(42).to_bytes());
        assert_eq!(fe(1 << 25).mul(fe(1 << 26)).to_bytes(), Fe([0, 1, 0, 0, 0]).to_bytes());
    }

    #[test]
    fn invert_works() {
        let a = fe(987654321);
        let inv = a.invert();
        assert_eq!(a.mul(inv).to_bytes(), Fe::ONE.to_bytes());
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        let minus_one = Fe::ZERO.sub(Fe::ONE);
        assert_eq!(i.square().to_bytes(), minus_one.to_bytes());
    }

    #[test]
    fn strong_reduction_of_p_is_zero() {
        let p = Fe(P);
        assert_eq!(p.to_bytes(), [0u8; 32]);
        assert!(p.is_zero());
    }

    #[test]
    fn cswap_behaves() {
        let mut a = fe(1);
        let mut b = fe(2);
        Fe::cswap(0, &mut a, &mut b);
        assert_eq!(a.to_bytes(), fe(1).to_bytes());
        Fe::cswap(1, &mut a, &mut b);
        assert_eq!(a.to_bytes(), fe(2).to_bytes());
        assert_eq!(b.to_bytes(), fe(1).to_bytes());
    }

    #[test]
    fn neg_then_add_is_zero() {
        let a = fe(555);
        assert!(a.add(a.neg()).is_zero());
    }

    // --- the limb contract, checked against the bignum oracle ---

    fn modulus() -> BigUint {
        BigUint::one().shl(255).sub(&BigUint::from_u64(19))
    }

    /// The integer a limb vector denotes, reduced mod p.
    fn oracle_of(x: Fe) -> BigUint {
        let mut v = BigUint::zero();
        for (i, &limb) in x.0.iter().enumerate() {
            v = v.add(&BigUint::from_u64(limb).shl(51 * i));
        }
        v.rem(&modulus())
    }

    fn le_bytes(n: &BigUint) -> [u8; 32] {
        let mut out = n.to_bytes_be_padded(32);
        out.reverse();
        crate::fixed(&out)
    }

    fn max_limb(x: Fe) -> u64 {
        x.0.into_iter().max().unwrap()
    }

    /// What a caller stacking `add`s owes the contract: keep the sum
    /// loose, carrying an operand first when it would not be.
    fn loose_sum(mut a: Fe, mut b: Fe) -> Fe {
        if max_limb(a) + max_limb(b) >= LOOSE {
            a = a.carry();
        }
        if max_limb(a) + max_limb(b) >= LOOSE {
            b = b.carry();
        }
        a.add(b)
    }

    fn worst_cases() -> Vec<Fe> {
        let p_plus = |k: u64| Fe([P[0] + k, P[1], P[2], P[3], P[4]]);
        vec![
            Fe([TIGHT - 1; 5]),
            Fe([LOOSE - 1; 5]),
            Fe(P),
            p_plus(1),
            Fe([P[0] - 1, P[1], P[2], P[3], P[4]]),
            Fe(P).add(Fe(P)),
            Fe::ZERO,
            // One limb at the loose maximum at a time: the column
            // bounds in `carry_wide` are per-limb arguments.
            Fe([LOOSE - 1, 0, 0, 0, 0]),
            Fe([0, 0, 0, 0, LOOSE - 1]),
        ]
    }

    #[test]
    fn carry_is_tight_and_value_preserving_on_any_limbs() {
        for x in [Fe([u64::MAX; 5]), Fe([LOOSE - 1; 5]), Fe([0, u64::MAX, 0, u64::MAX, 1])] {
            let c = x.carry();
            assert!(c.below(TIGHT));
            assert_eq!(oracle_of(c).cmp_val(&oracle_of(x)), std::cmp::Ordering::Equal);
            assert_eq!(x.to_bytes(), le_bytes(&oracle_of(x)));
        }
    }

    // Seeded random chains of every operation, depth 12, started from
    // every worst case and from random canonical elements, with the
    // second operand drawn from the same pool; `to_bytes` is compared
    // with the oracle after every step and every loose-accepting
    // operation must hand back tight limbs.
    #[test]
    fn op_chains_match_bignum_oracle() {
        const DEPTH: usize = 12;
        let p = modulus();
        let p_minus_2 = p.sub(&BigUint::from_u64(2));
        let p58 = BigUint::one().shl(252).sub(&BigUint::from_u64(3));
        let mut rng = CryptoRng::from_seed(0xF1E1D);

        let mut pool = worst_cases();
        for _ in 0..24 {
            pool.push(Fe::from_bytes(&rng.gen_array()));
        }

        for (start_idx, &start) in pool.iter().enumerate() {
            let mut x = start;
            let mut ox = oracle_of(x);
            assert_eq!(x.to_bytes(), le_bytes(&ox), "start {start_idx}");
            for step in 0..DEPTH {
                let y = pool[rng.gen_range(pool.len() as u64) as usize];
                let oy = oracle_of(y);
                // The two exponentiations cost ~265 field operations
                // each; draw them less often than the cheap ones.
                let op = match rng.gen_range(20) {
                    n @ 0..=17 => n / 2,
                    n => n - 9,
                };
                let carried = match op {
                    0 => {
                        x = loose_sum(x, y);
                        ox = ox.add_mod(&oy, &p);
                        false
                    }
                    1 => {
                        x = x.sub(y);
                        ox = ox.add(&p).sub(&oy).rem(&p);
                        true
                    }
                    2 => {
                        x = y.sub(x);
                        ox = oy.add(&p).sub(&ox).rem(&p);
                        true
                    }
                    3 => {
                        x = x.mul(y);
                        ox = ox.mul_mod(&oy, &p);
                        true
                    }
                    4 => {
                        x = x.square();
                        ox = ox.mul_mod(&ox, &p);
                        true
                    }
                    5 => {
                        let k = [2, 121_665, u32::MAX][rng.gen_range(3) as usize];
                        x = x.mul_small(k);
                        ox = ox.mul_mod(&BigUint::from_u64(u64::from(k)), &p);
                        true
                    }
                    6 => {
                        x = x.neg();
                        ox = p.sub(&ox).rem(&p);
                        true
                    }
                    7 => {
                        // Sums of fresh products, the shape the
                        // point formulas feed back into `mul`.
                        x = x.mul(y).add(y.square()).add(x.square());
                        let squares = oy.mul_mod(&oy, &p).add(&ox.mul_mod(&ox, &p));
                        ox = ox.mul_mod(&oy, &p).add(&squares).rem(&p);
                        false
                    }
                    8 => {
                        x = x.mul(y).add(x.sub(y)).square();
                        let sum = ox.mul_mod(&oy, &p).add(&ox).add(&p).sub(&oy).rem(&p);
                        ox = sum.mul_mod(&sum, &p);
                        true
                    }
                    9 => {
                        x = x.invert();
                        ox = ox.pow_mod(&p_minus_2, &p);
                        true
                    }
                    _ => {
                        x = x.pow_p58();
                        ox = ox.pow_mod(&p58, &p);
                        true
                    }
                };
                assert!(x.below(LOOSE), "start {start_idx} step {step} op {op}: not loose");
                assert!(!carried || x.below(TIGHT), "start {start_idx} step {step} op {op}: not tight");
                assert_eq!(
                    x.to_bytes(),
                    le_bytes(&ox),
                    "start {start_idx} step {step} op {op}"
                );
            }
        }
    }

    // The loose bound is sharp enough to matter: all-limbs-at-maximum
    // operands through each product routine, where any column overflow
    // would show.
    #[test]
    fn products_of_loose_maxima_match_oracle() {
        let p = modulus();
        let big = Fe([LOOSE - 1; 5]);
        let ob = oracle_of(big);
        assert_eq!(big.mul(big).to_bytes(), le_bytes(&ob.mul_mod(&ob, &p)));
        assert_eq!(big.square().to_bytes(), le_bytes(&ob.mul_mod(&ob, &p)));
        assert_eq!(
            big.mul_small(u32::MAX).to_bytes(),
            le_bytes(&ob.mul_mod(&BigUint::from_u64(u64::from(u32::MAX)), &p))
        );
        assert!(big.sub(big).is_zero());
        assert_eq!(Fe::ZERO.sub(big).to_bytes(), le_bytes(&p.sub(&ob)));
        assert!(big.mul(big).below(TIGHT) && big.square().below(TIGHT) && big.sub(big).below(TIGHT));
    }
}
