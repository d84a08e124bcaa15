//! Minimal arbitrary-precision unsigned integer arithmetic.
#![allow(clippy::needless_range_loop)] // index-form loops mirror the textbook algorithms
//!
//! Supports exactly what the workspace needs: big-endian byte I/O,
//! add/sub/mul/compare, shift-subtract reduction, and Montgomery
//! modular exponentiation for odd moduli (the ffdhe2048 prime and the
//! Ed25519 group order are both odd). Limbs are little-endian u64.

/// An arbitrary-precision unsigned integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (canonical form).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: vec![] }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a u64.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Volatile-wipe the limb storage (for secret exponents whose
    /// containers zeroize on drop). The value becomes zero.
    pub fn zeroize(&mut self) {
        crate::ct::zeroize(&mut self.limbs);
        self.limbs.clear();
    }

    /// Parse big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (empty for
    /// zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padded with
    /// zeros. Panics if the value does not fit. The limbs are written
    /// straight into the result, so no other copy of a secret value
    /// is left behind.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        assert!(self.bits() <= len * 8, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len];
        // Least significant limb last; a short first chunk takes the
        // low bytes of a limb whose high bytes are zero.
        for (limb, chunk) in self.limbs.iter().zip(out.rchunks_mut(8)) {
            let bytes = limb.to_be_bytes();
            chunk.copy_from_slice(&bytes[8 - chunk.len()..]);
        }
        out
    }

    /// Overwrite the limbs with zeros, for a value that was secret.
    pub(crate) fn wipe(&mut self) {
        crate::ct::zeroize(&mut self.limbs);
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Bit length (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Comparison.
    pub fn cmp_val(&self, other: &BigUint) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// self + other.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// self - other. Panics if other > self.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_val(other) != std::cmp::Ordering::Less,
            "bignum subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// self * other (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = (a as u128) * (b as u128) + (out[i + j] as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = (out[k] as u128) + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// self mod m, via shift-subtract long reduction. Not
    /// constant-time; used only for setup computations (R^2 mod n) and
    /// public-value range checks, plus Ed25519 scalar reduction whose
    /// timing leaks only hash outputs.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "division by zero");
        if self.cmp_val(m) == std::cmp::Ordering::Less {
            return self.clone();
        }
        let shift = self.bits() - m.bits();
        let mut r = self.clone();
        let mut d = m.shl(shift);
        for _ in 0..=shift {
            if r.cmp_val(&d) != std::cmp::Ordering::Less {
                r = r.sub(&d);
            }
            d = d.shr1();
        }
        r
    }

    fn shr1(&self) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut carry = 0u64;
        for &limb in self.limbs.iter().rev() {
            out.push((limb >> 1) | (carry << 63));
            carry = limb & 1;
        }
        out.reverse();
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// (self + other) mod m, assuming self, other < m.
    pub fn add_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self.add(other);
        if s.cmp_val(m) == std::cmp::Ordering::Less {
            s
        } else {
            s.sub(m)
        }
    }

    /// (self * other) mod m.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` for odd `m`, via
    /// Montgomery multiplication with a 4-bit fixed window.
    pub fn pow_mod(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let ctx = Montgomery::new(m);
        ctx.pow(self, exp)
    }
}

/// Montgomery context for a fixed odd modulus.
pub struct Montgomery {
    n: Vec<u64>,
    /// -n^{-1} mod 2^64.
    n0inv: u64,
    /// R^2 mod n where R = 2^(64*len).
    rr: Vec<u64>,
}

impl Montgomery {
    /// Build a context. Panics if `m` is even or zero.
    pub fn new(m: &BigUint) -> Self {
        assert!(!m.is_zero() && m.limbs[0] & 1 == 1, "modulus must be odd");
        let n = m.limbs.clone();
        // Newton iteration for the inverse of n[0] mod 2^64.
        let mut inv = n[0]; // correct mod 2^3
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        // R^2 mod n computed with the generic reduction.
        let r2 = BigUint::one().shl(128 * n.len()).rem(m);
        let mut rr = r2.limbs;
        rr.resize(n.len(), 0);
        Montgomery { n, n0inv, rr }
    }

    /// CIOS Montgomery multiplication: returns a*b*R^{-1} mod n, all
    /// operands `len` limbs.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let len = self.n.len();
        let mut t = vec![0u64; len + 2];
        for i in 0..len {
            // t += a[i] * b
            let mut carry = 0u128;
            for j in 0..len {
                let v = (a[i] as u128) * (b[j] as u128) + (t[j] as u128) + carry;
                t[j] = v as u64;
                carry = v >> 64;
            }
            let v = (t[len] as u128) + carry;
            t[len] = v as u64;
            t[len + 1] = (v >> 64) as u64;

            // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0inv);
            let v = (m as u128) * (self.n[0] as u128) + (t[0] as u128);
            let mut carry = v >> 64;
            for j in 1..len {
                let v = (m as u128) * (self.n[j] as u128) + (t[j] as u128) + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = (t[len] as u128) + carry;
            t[len - 1] = v as u64;
            t[len] = t[len + 1] + ((v >> 64) as u64);
            t[len + 1] = 0;
        }
        // Final conditional subtraction.
        let mut out = t[..len].to_vec();
        let extra = t[len];
        if extra != 0 || cmp_slices(&out, &self.n) != std::cmp::Ordering::Less {
            let mut borrow = 0u64;
            for j in 0..len {
                let (d1, b1) = out[j].overflowing_sub(self.n[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out[j] = d2;
                borrow = u64::from(b1) + u64::from(b2);
            }
            debug_assert!(extra >= borrow);
        }
        out
    }

    /// base^exp mod n with a 4-bit window.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let len = self.n.len();
        let modulus = BigUint {
            limbs: self.n.clone(),
        };
        // Reduce the base into range and convert to Montgomery form.
        let mut base_limbs = base.rem(&modulus).limbs;
        base_limbs.resize(len, 0);
        let base_m = self.mont_mul(&base_limbs, &self.rr);

        // one in Montgomery form = R mod n = mont_mul(1, RR).
        let mut one = vec![0u64; len];
        one[0] = 1;
        let one_m = self.mont_mul(&one, &self.rr);

        // Window table: base^0 .. base^15 in Montgomery form.
        let mut table = Vec::with_capacity(16);
        table.push(one_m.clone());
        table.push(base_m.clone());
        for i in 2..16 {
            let prev: &Vec<u64> = &table[i - 1];
            table.push(self.mont_mul(prev, &base_m));
        }

        let nbits = exp.bits();
        if nbits == 0 {
            // base^0 = 1
            let mut r = BigUint {
                limbs: self.mont_mul(&one_m, &one),
            };
            r.normalize();
            return r;
        }
        let nwindows = nbits.div_ceil(4);
        let mut acc = one_m;
        for w in (0..nwindows).rev() {
            for _ in 0..4 {
                acc = self.mont_mul(&acc, &acc);
            }
            let mut idx = 0usize;
            for b in 0..4 {
                let bit_index = w * 4 + (3 - b);
                idx <<= 1;
                if exp.bit(bit_index) {
                    idx |= 1;
                }
            }
            if idx != 0 {
                acc = self.mont_mul(&acc, &table[idx]);
            }
        }
        // Convert out of Montgomery form.
        let mut out = BigUint {
            limbs: self.mont_mul(&acc, &one),
        };
        out.normalize();
        out
    }
}

fn cmp_slices(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => {}
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn bytes_roundtrip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        // Leading zeros are dropped.
        let m = BigUint::from_bytes_be(&[0, 0, 0x12, 0x34]);
        assert_eq!(m.to_bytes_be(), vec![0x12, 0x34]);
    }

    #[test]
    fn padded_serialization() {
        assert_eq!(big(0x1234).to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_bytes_be(&[0xff; 20]);
        let b = BigUint::from_bytes_be(&[0xab; 13]);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(big(u64::MAX).add(&big(1)).to_bytes_be(), vec![1, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn mul_small_numbers() {
        assert_eq!(big(123).mul(&big(456)), big(123 * 456));
        assert_eq!(big(0).mul(&big(456)), BigUint::zero());
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let max = big(u64::MAX);
        let sq = max.mul(&max);
        assert_eq!(sq.bits(), 128);
    }

    #[test]
    fn rem_works() {
        assert_eq!(big(100).rem(&big(7)), big(2));
        assert_eq!(big(5).rem(&big(7)), big(5));
        assert_eq!(big(49).rem(&big(7)), big(0));
        let a = BigUint::from_bytes_be(&[0x12; 40]);
        let m = BigUint::from_bytes_be(&[0x34; 17]);
        let r = a.rem(&m);
        assert!(r.cmp_val(&m) == std::cmp::Ordering::Less);
        // Verify: a - r divisible by m via reconstruction.
        let q_times_m = a.sub(&r);
        assert_eq!(q_times_m.rem(&m), BigUint::zero());
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(0x8000_0000_0000_0000).bits(), 64);
        let n = BigUint::one().shl(100);
        assert_eq!(n.bits(), 101);
        assert!(n.bit(100));
        assert!(!n.bit(99));
        assert!(!n.bit(101));
    }

    #[test]
    fn pow_mod_small() {
        // 3^5 mod 7 = 243 mod 7 = 5
        assert_eq!(big(3).pow_mod(&big(5), &big(7)), big(5));
        // Fermat: a^(p-1) = 1 mod p for prime p.
        let p = big(1_000_000_007);
        assert_eq!(big(123456).pow_mod(&big(1_000_000_006), &p), big(1));
        // x^0 = 1.
        assert_eq!(big(999).pow_mod(&BigUint::zero(), &p), big(1));
        // 0^x = 0.
        assert_eq!(BigUint::zero().pow_mod(&big(5), &p), BigUint::zero());
    }

    #[test]
    fn pow_mod_matches_naive_big() {
        // Random-ish 128-bit odd modulus; compare against naive
        // square-and-multiply using mul_mod.
        let m = BigUint::from_bytes_be(&[
            0xc3, 0x7a, 0x11, 0x95, 0x5e, 0x2d, 0x44, 0x09, 0x7f, 0x31, 0x28, 0x8a, 0xbc, 0xde,
            0xf0, 0x0b,
        ]);
        let base = BigUint::from_bytes_be(&[0x17; 16]);
        let exp = BigUint::from_bytes_be(&[0x2b, 0xcd, 0xef, 0x01, 0x23, 0x45]);
        let fast = base.pow_mod(&exp, &m);
        // Naive.
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_mod(&acc, &m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, &m);
            }
        }
        assert_eq!(fast, acc);
    }

    #[test]
    fn montgomery_requires_odd_modulus() {
        let result = std::panic::catch_unwind(|| Montgomery::new(&big(10)));
        assert!(result.is_err());
    }

    #[test]
    fn add_mod_stays_in_range() {
        let m = big(100);
        assert_eq!(big(60).add_mod(&big(70), &m), big(30));
        assert_eq!(big(10).add_mod(&big(20), &m), big(30));
    }
}
