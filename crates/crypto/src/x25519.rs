//! X25519 Diffie-Hellman (RFC 7748) — the ECDHE key exchange used by
//! the TLS substrate.

use crate::field25519::Fe;
use crate::rng::CryptoRng;
use crate::secret::Secret;
use crate::{ct, CryptoError};

/// Length of public keys, secret keys, and shared secrets.
pub const KEY_LEN: usize = 32;

/// An X25519 secret scalar (already clamped).
///
/// It has no `PartialEq`, so a variable-time `==` on one does not
/// compile, whatever the binding holding it is called:
///
/// ```compile_fail,E0369
/// use mbtls_crypto::{rng::CryptoRng, x25519::SecretKey};
/// let mut rng = CryptoRng::from_seed(1);
/// let (a, b) = (SecretKey::generate(&mut rng), SecretKey::generate(&mut rng));
/// let renamed = a;
/// let _ = renamed == b;
/// ```
#[derive(Clone)]
pub struct SecretKey([u8; 32]);

/// An X25519 public value (a u-coordinate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub [u8; 32]);

impl SecretKey {
    /// Generate a fresh secret key from the workspace RNG.
    pub fn generate(rng: &mut CryptoRng) -> Self {
        let mut sk = [0u8; 32];
        rng.fill(&mut sk);
        Self::from_bytes(sk)
    }

    /// Build from raw bytes, applying RFC 7748 clamping.
    pub fn from_bytes(mut sk: [u8; 32]) -> Self {
        sk[0] &= 248;
        sk[31] &= 127;
        sk[31] |= 64;
        SecretKey(sk)
    }

    /// Derive the corresponding public key: X25519(sk, 9), computed
    /// on the Ed25519 fixed-base comb (same masked table fetches as
    /// signing) rather than the ladder.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(crate::ed25519::mul_base_montgomery_u(&self.0))
    }

    /// Compute the shared secret with the peer's public value, as a
    /// [`Secret`] (the pre-master secret of an ECDHE exchange).
    ///
    /// Rejects the all-zero output that results from small-order peer
    /// points, as RFC 7748 §6.1 requires for TLS-like protocols.
    pub fn diffie_hellman(&self, peer: &PublicKey) -> Result<Secret, CryptoError> {
        let shared = Secret::from(scalar_mult(&self.0, &peer.0));
        if ct::eq(&shared, &[0u8; 32]) {
            return Err(CryptoError::BadPublicValue);
        }
        Ok(shared)
    }

    /// Expose the raw scalar (used by tests only).
    #[doc(hidden)]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Zero the scalar in place. What [`Drop`] runs.
    fn wipe(&mut self) {
        ct::zeroize(&mut self.0);
    }
}

impl Drop for SecretKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// The X25519 function: Montgomery-ladder scalar multiplication on the
/// u-coordinate, constant-time in the scalar.
pub fn scalar_mult(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((scalar[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        // a24 = (486662 - 2) / 4 = 121665.
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    x2.mul(z2.invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..64)
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        // Scalar is decoded with clamping per the RFC's decodeScalar25519.
        let sk = SecretKey::from_bytes(scalar);
        let out = scalar_mult(sk.as_bytes(), &u);
        assert_eq!(
            out,
            unhex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let sk = SecretKey::from_bytes(scalar);
        let out = scalar_mult(sk.as_bytes(), &u);
        assert_eq!(
            out,
            unhex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957")
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman vector.
    #[test]
    fn rfc7748_dh() {
        let alice_sk =
            SecretKey::from_bytes(unhex32(
                "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
            ));
        let bob_sk = SecretKey::from_bytes(unhex32(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        ));
        let alice_pk = alice_sk.public_key();
        let bob_pk = bob_sk.public_key();
        assert_eq!(
            alice_pk.0,
            unhex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pk.0,
            unhex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let k1 = alice_sk.diffie_hellman(&bob_pk).unwrap();
        let k2 = bob_sk.diffie_hellman(&alice_pk).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(
            *k1,
            unhex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
        );
    }

    const BASE_U: [u8; 32] = {
        let mut u = [0u8; 32];
        u[0] = 9;
        u
    };

    /// RFC 7748 §5.2's iteration: `k, u ← X25519(k, u), k`, starting
    /// from `k = u = 9`, with the scalar clamped on every round.
    fn iterate(rounds: usize) -> [u8; 32] {
        let (mut k, mut u) = (BASE_U, BASE_U);
        for _ in 0..rounds {
            let next = scalar_mult(SecretKey::from_bytes(k).as_bytes(), &u);
            u = k;
            k = next;
        }
        k
    }

    #[test]
    fn rfc7748_iterated_1_and_1000() {
        assert_eq!(
            iterate(1),
            unhex32("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079")
        );
        assert_eq!(
            iterate(1000),
            unhex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")
        );
    }

    #[test]
    #[ignore = "a million ladders: run with --release -- --ignored"]
    fn rfc7748_iterated_1_000_000() {
        assert_eq!(
            iterate(1_000_000),
            unhex32("7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424")
        );
    }

    // Key generation runs on the Ed25519 comb, everything else on the
    // Montgomery ladder: the two must name the same point.
    #[test]
    fn comb_public_key_matches_ladder() {
        let mut two_254 = [0u8; 32];
        two_254[31] = 0x40;
        let mut cases = vec![
            // The two RFC 7748 §6.1 secret keys.
            unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
            unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"),
            // The extreme clamped scalars, 2^254 and 2^255 − 8.
            two_254,
            [0xff; 32],
        ];
        let mut rng = CryptoRng::from_seed(0xC0B1);
        cases.resize_with(4 + 1000, || rng.gen_array());
        for raw in cases {
            let sk = SecretKey::from_bytes(raw);
            assert_eq!(
                sk.public_key().0,
                scalar_mult(sk.as_bytes(), &BASE_U),
                "scalar {:02x?}",
                sk.as_bytes()
            );
        }
        assert_eq!(SecretKey::from_bytes([0u8; 32]).as_bytes(), &two_254);
        let mut top = [0xff; 32];
        top[0] = 0xf8;
        top[31] = 0x7f;
        assert_eq!(SecretKey::from_bytes([0xff; 32]).as_bytes(), &top);
    }

    #[test]
    fn small_order_peer_values_are_rejected() {
        // p = 2^255 − 19, little-endian, then p − 1 and p + 1.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        let (mut p_minus_1, mut p_plus_1) = (p, p);
        p_minus_1[0] = 0xec;
        p_plus_1[0] = 0xee;
        let mut one = [0u8; 32];
        one[0] = 1;
        let small_order = [
            [0u8; 32],
            one,
            p_minus_1,
            p,
            p_plus_1,
            // The two points of order 8.
            unhex32("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
            unhex32("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
        ];
        let mut rng = CryptoRng::from_seed(0x5A11);
        for _ in 0..4 {
            let sk = SecretKey::generate(&mut rng);
            for u in &small_order {
                assert_eq!(
                    sk.diffie_hellman(&PublicKey(*u)),
                    Err(CryptoError::BadPublicValue),
                    "u = {u:02x?}"
                );
            }
        }
    }

    // RFC 7748 §5: bit 255 of a received u is masked off, and a
    // non-canonical u in [p, 2^255) is accepted and reduced.
    #[test]
    fn noncanonical_peer_values_reduce() {
        let mut rng = CryptoRng::from_seed(0x0C11);
        let sk = SecretKey::generate(&mut rng);
        let peer = SecretKey::generate(&mut rng).public_key();
        let expect = sk.diffie_hellman(&peer).unwrap();

        let mut high_bit = peer;
        high_bit.0[31] |= 0x80;
        assert_eq!(sk.diffie_hellman(&high_bit).unwrap(), expect);

        // p + 9 = 2^255 − 10 ≡ 9, with and without bit 255.
        let mut p_plus_9 = [0xffu8; 32];
        p_plus_9[0] = 0xf6;
        p_plus_9[31] = 0x7f;
        let via_base = sk.diffie_hellman(&PublicKey(BASE_U)).unwrap();
        assert_eq!(*via_base, sk.public_key().0);
        assert_eq!(sk.diffie_hellman(&PublicKey(p_plus_9)).unwrap(), via_base);
        p_plus_9[31] = 0xff;
        assert_eq!(sk.diffie_hellman(&PublicKey(p_plus_9)).unwrap(), via_base);
    }

    #[test]
    fn rejects_small_order_point() {
        let mut rng = CryptoRng::from_seed(42);
        let sk = SecretKey::generate(&mut rng);
        // The all-zero u-coordinate is a small-order point.
        assert_eq!(
            sk.diffie_hellman(&PublicKey([0u8; 32])),
            Err(CryptoError::BadPublicValue)
        );
    }

    #[test]
    fn distinct_keys_distinct_secrets() {
        let mut rng = CryptoRng::from_seed(1);
        let a = SecretKey::generate(&mut rng);
        let b = SecretKey::generate(&mut rng);
        let c = SecretKey::generate(&mut rng);
        let ab = a.diffie_hellman(&b.public_key()).unwrap();
        let ac = a.diffie_hellman(&c.public_key()).unwrap();
        assert_ne!(ab, ac);
    }

    #[test]
    fn secret_key_wipes_on_drop() {
        let sk = SecretKey::generate(&mut CryptoRng::from_seed(3));
        ct::assert_wipes(sk, SecretKey::wipe, |sk| vec![sk.0.to_vec()]);
    }

    #[test]
    fn clamping_applied() {
        let sk = SecretKey::from_bytes([0xff; 32]);
        assert_eq!(sk.as_bytes()[0] & 7, 0);
        assert_eq!(sk.as_bytes()[31] & 0x80, 0);
        assert_eq!(sk.as_bytes()[31] & 0x40, 0x40);
    }
}
