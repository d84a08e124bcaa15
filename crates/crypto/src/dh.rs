//! Classic finite-field Diffie-Hellman over the RFC 7919 ffdhe2048
//! group — the "DHE" key-exchange path for the TLS substrate (the
//! paper's Fig. 5 notes results for both ECDHE and DHE).

use crate::bignum::BigUint;
use crate::rng::CryptoRng;
use crate::secret::Secret;
use crate::{ct, CryptoError};

/// Byte length of the ffdhe2048 prime.
pub const PRIME_LEN: usize = 256;

/// The ffdhe2048 prime from RFC 7919 Appendix A.1:
/// p = 2^2048 - 2^1984 + (floor(2^1918 * e) + 560316) * 2^64 - 1.
/// Stored as big-endian bytes.
const FFDHE2048_P: [u8; 256] = [
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xad, 0xf8, 0x54, 0x58, 0xa2, 0xbb, 0x4a, 0x9a,
    0xaf, 0xdc, 0x56, 0x20, 0x27, 0x3d, 0x3c, 0xf1, 0xd8, 0xb9, 0xc5, 0x83, 0xce, 0x2d, 0x36, 0x95,
    0xa9, 0xe1, 0x36, 0x41, 0x14, 0x64, 0x33, 0xfb, 0xcc, 0x93, 0x9d, 0xce, 0x24, 0x9b, 0x3e, 0xf9,
    0x7d, 0x2f, 0xe3, 0x63, 0x63, 0x0c, 0x75, 0xd8, 0xf6, 0x81, 0xb2, 0x02, 0xae, 0xc4, 0x61, 0x7a,
    0xd3, 0xdf, 0x1e, 0xd5, 0xd5, 0xfd, 0x65, 0x61, 0x24, 0x33, 0xf5, 0x1f, 0x5f, 0x06, 0x6e, 0xd0,
    0x85, 0x63, 0x65, 0x55, 0x3d, 0xed, 0x1a, 0xf3, 0xb5, 0x57, 0x13, 0x5e, 0x7f, 0x57, 0xc9, 0x35,
    0x98, 0x4f, 0x0c, 0x70, 0xe0, 0xe6, 0x8b, 0x77, 0xe2, 0xa6, 0x89, 0xda, 0xf3, 0xef, 0xe8, 0x72,
    0x1d, 0xf1, 0x58, 0xa1, 0x36, 0xad, 0xe7, 0x35, 0x30, 0xac, 0xca, 0x4f, 0x48, 0x3a, 0x79, 0x7a,
    0xbc, 0x0a, 0xb1, 0x82, 0xb3, 0x24, 0xfb, 0x61, 0xd1, 0x08, 0xa9, 0x4b, 0xb2, 0xc8, 0xe3, 0xfb,
    0xb9, 0x6a, 0xda, 0xb7, 0x60, 0xd7, 0xf4, 0x68, 0x1d, 0x4f, 0x42, 0xa3, 0xde, 0x39, 0x4d, 0xf4,
    0xae, 0x56, 0xed, 0xe7, 0x63, 0x72, 0xbb, 0x19, 0x0b, 0x07, 0xa7, 0xc8, 0xee, 0x0a, 0x6d, 0x70,
    0x9e, 0x02, 0xfc, 0xe1, 0xcd, 0xf7, 0xe2, 0xec, 0xc0, 0x34, 0x04, 0xcd, 0x28, 0x34, 0x2f, 0x61,
    0x91, 0x72, 0xfe, 0x9c, 0xe9, 0x85, 0x83, 0xff, 0x8e, 0x4f, 0x12, 0x32, 0xee, 0xf2, 0x81, 0x83,
    0xc3, 0xfe, 0x3b, 0x1b, 0x4c, 0x6f, 0xad, 0x73, 0x3b, 0xb5, 0xfc, 0xbc, 0x2e, 0xc2, 0x20, 0x05,
    0xc5, 0x8e, 0xf1, 0x83, 0x7d, 0x16, 0x83, 0xb2, 0xc6, 0xf3, 0x4a, 0x26, 0xc1, 0xb2, 0xef, 0xfa,
    0x88, 0x6b, 0x42, 0x38, 0x61, 0x28, 0x5c, 0x97, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
];

/// Access the group prime.
pub fn prime() -> BigUint {
    BigUint::from_bytes_be(&FFDHE2048_P)
}

/// The group generator, g = 2.
pub fn generator() -> BigUint {
    BigUint::from_u64(2)
}

/// A DH secret exponent.
pub struct DhSecret {
    x: BigUint,
}

impl Drop for DhSecret {
    fn drop(&mut self) {
        self.x.zeroize();
    }
}

/// A DH public value g^x mod p, serialized as 256 big-endian bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DhPublic(pub Vec<u8>);

impl DhSecret {
    /// Generate a secret exponent. RFC 7919 allows short exponents;
    /// we use 384 bits, comfortably above twice the ~112-bit group
    /// security level.
    pub fn generate(rng: &mut CryptoRng) -> Self {
        let mut buf = [0u8; 48];
        rng.fill(&mut buf);
        buf[0] |= 0x80; // force full bit length
        buf[47] |= 1; // non-zero
        let x = BigUint::from_bytes_be(&buf);
        ct::zeroize(&mut buf);
        DhSecret { x }
    }

    /// g^x mod p.
    pub fn public_value(&self) -> DhPublic {
        let y = generator().pow_mod(&self.x, &prime());
        DhPublic(y.to_bytes_be_padded(PRIME_LEN))
    }

    /// Shared secret Z = peer^x mod p, serialized to the full group
    /// length as a [`Secret`] (TLS 1.2 strips leading zeros of Z; we
    /// keep the padded form internally and strip at the key-schedule
    /// boundary).
    pub fn diffie_hellman(&self, peer: &DhPublic) -> Result<Secret, CryptoError> {
        let p = prime();
        let y = BigUint::from_bytes_be(&peer.0);
        // Reject out-of-range and degenerate values: y <= 1 or y >= p-1.
        let one = BigUint::one();
        let p_minus_1 = p.sub(&one);
        if y.cmp_val(&one) != std::cmp::Ordering::Greater
            || y.cmp_val(&p_minus_1) != std::cmp::Ordering::Less
        {
            return Err(CryptoError::BadPublicValue);
        }
        let mut z = y.pow_mod(&self.x, &p);
        let shared = if z.cmp_val(&one) == std::cmp::Ordering::Greater {
            Ok(Secret::from(z.to_bytes_be_padded(PRIME_LEN)))
        } else {
            Err(CryptoError::BadPublicValue)
        };
        z.wipe();
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_has_expected_shape() {
        let p = prime();
        assert_eq!(p.bits(), 2048);
        // p is odd and ends with the 64 one-bits from the formula.
        assert!(p.bit(0));
        assert!(p.bit(63));
    }

    #[test]
    fn key_agreement_matches() {
        let mut rng = CryptoRng::from_seed(11);
        let a = DhSecret::generate(&mut rng);
        let b = DhSecret::generate(&mut rng);
        let za = a.diffie_hellman(&b.public_value()).unwrap();
        let zb = b.diffie_hellman(&a.public_value()).unwrap();
        assert_eq!(za, zb);
        assert_eq!(za.len(), PRIME_LEN);
    }

    #[test]
    fn rejects_degenerate_public_values() {
        let mut rng = CryptoRng::from_seed(12);
        let a = DhSecret::generate(&mut rng);
        // y = 0
        assert!(a.diffie_hellman(&DhPublic(vec![0u8; PRIME_LEN])).is_err());
        // y = 1
        let mut one = vec![0u8; PRIME_LEN];
        one[PRIME_LEN - 1] = 1;
        assert!(a.diffie_hellman(&DhPublic(one)).is_err());
        // y = p - 1 (order-2 element)
        let p_minus_1 = prime().sub(&BigUint::one());
        assert!(a
            .diffie_hellman(&DhPublic(p_minus_1.to_bytes_be_padded(PRIME_LEN)))
            .is_err());
        // y = p
        assert!(a
            .diffie_hellman(&DhPublic(prime().to_bytes_be_padded(PRIME_LEN)))
            .is_err());
    }

    #[test]
    fn different_secrets_different_publics() {
        let mut rng = CryptoRng::from_seed(13);
        let a = DhSecret::generate(&mut rng);
        let b = DhSecret::generate(&mut rng);
        assert_ne!(a.public_value(), b.public_value());
    }

    #[test]
    fn public_value_is_padded_to_group_size() {
        let mut rng = CryptoRng::from_seed(14);
        let a = DhSecret::generate(&mut rng);
        assert_eq!(a.public_value().0.len(), PRIME_LEN);
    }
}
