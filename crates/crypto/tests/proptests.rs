//! Property-based tests over the crypto substrate's core invariants.

use mbtls_crypto::aead::{AeadKey, BulkAlgorithm};
use mbtls_crypto::bignum::BigUint;
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::hmac::Hmac;
use mbtls_crypto::kdf::tls12_prf;
use mbtls_crypto::sha2::{Hash, Sha256, Sha384};
use proptest::prelude::*;

proptest! {
    /// Incremental hashing over an arbitrary chunking equals one-shot.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                 cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..8)) {
        let mut positions: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        positions.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &p in &positions {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// GCM seal/open are inverses for any key size, nonce, aad, and data.
    #[test]
    fn gcm_roundtrip(key256 in any::<bool>(),
                     key in proptest::collection::vec(any::<u8>(), 32),
                     nonce in proptest::array::uniform12(any::<u8>()),
                     aad in proptest::collection::vec(any::<u8>(), 0..64),
                     data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let klen = if key256 { 32 } else { 16 };
        let gcm = AesGcm::new(&key[..klen]).unwrap();
        let sealed = gcm.seal(&nonce, &aad, &data).unwrap();
        prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), data);
    }

    /// Any single-bit flip anywhere in a sealed GCM message is detected.
    #[test]
    fn gcm_tamper_detected(data in proptest::collection::vec(any::<u8>(), 1..128),
                           bit in any::<prop::sample::Index>()) {
        let gcm = AesGcm::new(&[0x5a; 16]).unwrap();
        let nonce = [3u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", &data).unwrap();
        let nbits = sealed.len() * 8;
        let b = bit.index(nbits);
        sealed[b / 8] ^= 1 << (b % 8);
        prop_assert!(gcm.open(&nonce, b"aad", &sealed).is_err());
    }

    /// HMAC differs whenever key or message differs (no trivial collisions
    /// in the sampled space).
    #[test]
    fn hmac_sensitivity(key in proptest::collection::vec(any::<u8>(), 1..64),
                        msg in proptest::collection::vec(any::<u8>(), 0..256),
                        flip in any::<prop::sample::Index>()) {
        let tag = Hmac::<Sha256>::mac(&key, &msg);
        prop_assert!(Hmac::<Sha256>::verify(&key, &msg, &tag));
        if !msg.is_empty() {
            let mut m2 = msg.clone();
            let i = flip.index(m2.len());
            m2[i] ^= 1;
            prop_assert!(!Hmac::<Sha256>::verify(&key, &m2, &tag));
        }
    }

    /// A keyed HMAC is reusable by clone: every clone of one keying
    /// gives the tag a fresh keying gives, whatever the other clones
    /// absorbed. Keys run past the 128-byte block so the hashed-down
    /// path is sampled too.
    #[test]
    fn hmac_clone_after_keying_equals_fresh_keying(
        key in proptest::collection::vec(any::<u8>(), 0..200),
        first in proptest::collection::vec(any::<u8>(), 0..200),
        second in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let keyed = Hmac::<Sha384>::new(&key);
        let mut a = keyed.clone();
        a.update(&first);
        let mut b = keyed.clone();
        b.update(&second);
        prop_assert_eq!(a.finalize(), Hmac::<Sha384>::mac(&key, &first));
        prop_assert_eq!(b.finalize(), Hmac::<Sha384>::mac(&key, &second));
        prop_assert_eq!(keyed.finalize(), Hmac::<Sha384>::mac(&key, &[]));
    }

    /// The TLS PRF is length-extensible: a longer output has the
    /// shorter output as a prefix (callers rely on this when carving
    /// the key block).
    #[test]
    fn prf_prefix_property(secret in proptest::collection::vec(any::<u8>(), 1..48),
                           seed in proptest::collection::vec(any::<u8>(), 0..64),
                           short in 1usize..64, extra in 0usize..64) {
        let a = tls12_prf::<Sha256>(&secret, b"key expansion", &seed, short);
        let b = tls12_prf::<Sha256>(&secret, b"key expansion", &seed, short + extra);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    /// BigUint add/sub/mul satisfy ring laws on random operands.
    #[test]
    fn bignum_ring_laws(a in proptest::collection::vec(any::<u8>(), 0..24),
                        b in proptest::collection::vec(any::<u8>(), 0..24),
                        c in proptest::collection::vec(any::<u8>(), 0..24)) {
        let a = BigUint::from_bytes_be(&a);
        let b = BigUint::from_bytes_be(&b);
        let c = BigUint::from_bytes_be(&c);
        // Commutativity.
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        // Associativity.
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        // Distributivity.
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        // Sub inverts add.
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    /// rem is a proper Euclidean remainder: result < m and
    /// (a - a mod m) is divisible by m.
    #[test]
    fn bignum_rem_invariant(a in proptest::collection::vec(any::<u8>(), 0..32),
                            m in proptest::collection::vec(any::<u8>(), 1..16)) {
        let a = BigUint::from_bytes_be(&a);
        let mut m = BigUint::from_bytes_be(&m);
        if m.is_zero() { m = BigUint::from_u64(1); }
        let r = a.rem(&m);
        prop_assert!(r.cmp_val(&m) == std::cmp::Ordering::Less);
        prop_assert_eq!(a.sub(&r).rem(&m), BigUint::zero());
    }

    /// pow_mod matches naive square-and-multiply built from mul_mod.
    #[test]
    fn bignum_powmod_matches_naive(base in proptest::collection::vec(any::<u8>(), 0..12),
                                   exp in proptest::collection::vec(any::<u8>(), 0..4),
                                   m in proptest::collection::vec(any::<u8>(), 1..12)) {
        let base = BigUint::from_bytes_be(&base);
        let exp = BigUint::from_bytes_be(&exp);
        let mut modulus = BigUint::from_bytes_be(&m);
        // Force odd, nonzero modulus > 1 for the Montgomery path.
        if modulus.is_zero() { modulus = BigUint::from_u64(3); }
        if !modulus.bit(0) { modulus = modulus.add(&BigUint::one()); }
        if modulus.cmp_val(&BigUint::one()) == std::cmp::Ordering::Equal {
            modulus = BigUint::from_u64(3);
        }
        let fast = base.pow_mod(&exp, &modulus);
        let mut acc = BigUint::one().rem(&modulus);
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_mod(&acc, &modulus);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, &modulus);
            }
        }
        prop_assert_eq!(fast, acc);
    }

    /// The AEAD wrapper round-trips and enforces the AAD binding.
    #[test]
    fn aead_roundtrip_and_aad_binding(data in proptest::collection::vec(any::<u8>(), 0..256),
                                      aad1 in proptest::collection::vec(any::<u8>(), 0..16),
                                      aad2 in proptest::collection::vec(any::<u8>(), 0..16)) {
        let k = AeadKey::new(BulkAlgorithm::Aes256Gcm, &[9u8; 32], &[1, 2, 3, 4]).unwrap();
        let nonce = [7u8; 8];
        let sealed = k.seal(&nonce, &aad1, &data).unwrap();
        prop_assert_eq!(k.open(&nonce, &aad1, &sealed).unwrap(), data);
        if aad1 != aad2 {
            prop_assert!(k.open(&nonce, &aad2, &sealed).is_err());
        }
    }
}

/// Ed25519 sign/verify round-trip over random seeds and messages
/// (plain #[test] with internal loop to bound the cost of the
/// scalar multiplications).
#[test]
fn ed25519_sign_verify_random() {
    use mbtls_crypto::ed25519::SigningKey;
    use mbtls_crypto::rng::CryptoRng;
    let mut rng = CryptoRng::from_seed(0xED25519);
    for i in 0..8 {
        let sk = SigningKey::generate(&mut rng);
        let msg: Vec<u8> = (0..i * 37).map(|j| (j % 256) as u8).collect();
        let sig = sk.sign(&msg);
        assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
        if !msg.is_empty() {
            let mut bad = msg.clone();
            bad[0] ^= 1;
            assert!(sk.verifying_key().verify(&bad, &sig).is_err());
        }
    }
}

/// X25519 commutativity over random key pairs.
#[test]
fn x25519_dh_commutes_random() {
    use mbtls_crypto::rng::CryptoRng;
    use mbtls_crypto::x25519::SecretKey;
    let mut rng = CryptoRng::from_seed(0x25519);
    for _ in 0..16 {
        let a = SecretKey::generate(&mut rng);
        let b = SecretKey::generate(&mut rng);
        assert_eq!(
            a.diffie_hellman(&b.public_key()).unwrap(),
            b.diffie_hellman(&a.public_key()).unwrap()
        );
    }
}
