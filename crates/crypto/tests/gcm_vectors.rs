//! AES-GCM test vectors (NIST SP 800-38D / Wycheproof-style cases)
//! run against the backend `AesGcm::new` selects on this machine
//! (AES-NI + PCLMULQDQ where the CPU has them) and the bitsliced
//! backend (`AesGcm::portable`), plus seed-deterministic differential
//! tests hammering random lengths across the two and the tamper cases
//! on the selected backend.

use mbtls_crypto::gcm::{AesGcm, TAG_LEN};
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::CryptoError;
use proptest::prelude::*;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// One known-answer vector: seal(key, nonce, aad, pt) = ct || tag.
struct Vector {
    name: &'static str,
    key: &'static str,
    nonce: &'static str,
    aad: &'static str,
    pt: &'static str,
    ct: &'static str,
    tag: &'static str,
}

/// NIST GCM spec vectors (Appendix B of the GCM submission, the same
/// cases SP 800-38D references) plus Wycheproof-style shapes: empty
/// everything, empty plaintext with AAD, AAD-only, long (>4 block)
/// AAD exercising the aggregated path, and partial final blocks.
const VECTORS: &[Vector] = &[
    Vector {
        name: "aes128/empty-pt/empty-aad",
        key: "00000000000000000000000000000000",
        nonce: "000000000000000000000000",
        aad: "",
        pt: "",
        ct: "",
        tag: "58e2fccefa7e3061367f1d57a4e7455a",
    },
    Vector {
        name: "aes128/one-zero-block",
        key: "00000000000000000000000000000000",
        nonce: "000000000000000000000000",
        aad: "",
        pt: "00000000000000000000000000000000",
        ct: "0388dace60b6a392f328c2b971b2fe78",
        tag: "ab6e47d42cec13bdf53a67b21257bddf",
    },
    Vector {
        name: "aes128/four-blocks",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
              1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
    },
    Vector {
        name: "aes128/aad-and-partial-block",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        tag: "5bc94fbc3221a5db94fae95ae7121a47",
    },
    // Wycheproof-style: empty plaintext but non-empty AAD (tag is
    // pure GHASH over AAD).
    Vector {
        name: "aes128/empty-pt/with-aad",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "",
        ct: "",
        tag: "346434fd51d5cd0c5887ec63e39b907a",
    },
    // Wycheproof-style: long AAD (76 bytes, 4 full blocks + partial)
    // so the aggregated 4-block absorb runs with an AAD remainder.
    Vector {
        name: "aes128/long-aad",
        key: "feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2feedfacedeadbeeffeedface\
              deadbeefabaddad2feedfacedeadbeeffeedfacedeadbeefabaddad2feedface\
              deadbeeffeedfacedeadbeef",
        pt: "d9313225f88406e5a55909c5aff5269a",
        ct: "42831ec2217774244b7221b784d0d49c",
        tag: "cab66ea31f022dfcdaca4252b19781d9",
    },
    Vector {
        name: "aes256/empty-pt/empty-aad",
        key: "0000000000000000000000000000000000000000000000000000000000000000",
        nonce: "000000000000000000000000",
        aad: "",
        pt: "",
        ct: "",
        tag: "530f8afbc74536b9a963b4f1c4cb738b",
    },
    Vector {
        name: "aes256/aad-and-partial-block",
        key: "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        nonce: "cafebabefacedbaddecaf888",
        aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        ct: "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        tag: "76fc6ece0f4e1768cddf8853bb2d551b",
    },
];

fn strip_ws(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Run one vector through a seal/open pair (shared between the two
/// implementations via closures so neither gets special-cased).
fn check_vector<S, O>(v: &Vector, seal: S, open: O)
where
    S: Fn(&[u8; 12], &[u8], &[u8]) -> Vec<u8>,
    O: Fn(&[u8; 12], &[u8], &[u8]) -> Result<Vec<u8>, CryptoError>,
{
    let nonce: [u8; 12] = unhex(&strip_ws(v.nonce)).try_into().unwrap();
    let aad = unhex(&strip_ws(v.aad));
    let pt = unhex(&strip_ws(v.pt));
    let mut expected = unhex(&strip_ws(v.ct));
    expected.extend_from_slice(&unhex(&strip_ws(v.tag)));

    let sealed = seal(&nonce, &aad, &pt);
    assert_eq!(sealed, expected, "{}: seal mismatch", v.name);
    assert_eq!(
        open(&nonce, &aad, &sealed).unwrap(),
        pt,
        "{}: open mismatch",
        v.name
    );

    // Truncated-tag rejection: GCM implementations must not accept a
    // prefix of the tag (Wycheproof's tag-truncation class). Check
    // every truncation point, including an entirely missing tag.
    for cut in 1..=TAG_LEN {
        let truncated = &sealed[..sealed.len() - cut];
        assert_eq!(
            open(&nonce, &aad, truncated),
            Err(CryptoError::BadTag),
            "{}: accepted tag truncated by {cut}",
            v.name
        );
    }
}

#[test]
fn nist_vectors_fast_path() {
    for v in VECTORS {
        let key = unhex(&strip_ws(v.key));
        let gcm = AesGcm::new(&key).unwrap();
        check_vector(
            v,
            |n, a, p| gcm.seal(n, a, p).unwrap(),
            |n, a, s| gcm.open(n, a, s),
        );
    }
}

#[test]
fn nist_vectors_portable_path() {
    for v in VECTORS {
        let key = unhex(&strip_ws(v.key));
        let gcm = AesGcm::portable(&key).unwrap();
        check_vector(
            v,
            |n, a, p| gcm.seal(n, a, p).unwrap(),
            |n, a, s| gcm.open(n, a, s),
        );
    }
}

/// Differential hammer: random keys, nonces, AAD and plaintext
/// lengths under a fixed seed, the selected backend against its
/// reference — the portable bitsliced backend, which the NIST vectors
/// above pin. The two share no cipher or GHASH code, so agreement
/// here is strong evidence both are computing GCM (and the run is
/// bit-reproducible: any failure reports the iteration for replay).
#[test]
fn differential_fast_vs_reference() {
    let mut rng = CryptoRng::from_seed(0x6CB1_D1FF);
    for iter in 0..200 {
        let key_len = if rng.gen_range(2) == 0 { 16 } else { 32 };
        let mut key = vec![0u8; key_len];
        rng.fill(&mut key);
        let fast = AesGcm::new(&key).unwrap();
        let reference = AesGcm::portable(&key).unwrap();

        let nonce: [u8; 12] = {
            let mut n = [0u8; 12];
            rng.fill(&mut n);
            n
        };
        // Lengths biased toward block/aggregation boundaries.
        let pt_len = match rng.gen_range(4) {
            0 => rng.gen_range(4) as usize * 16 + 48, // near the 64-byte groups
            1 => rng.gen_range(17) as usize,          // sub-block
            _ => rng.gen_range(600) as usize,
        };
        let aad_len = rng.gen_range(100) as usize;
        let mut pt = vec![0u8; pt_len];
        let mut aad = vec![0u8; aad_len];
        rng.fill(&mut pt);
        rng.fill(&mut aad);

        let sealed_fast = fast.seal(&nonce, &aad, &pt).unwrap();
        let sealed_reference = reference.seal(&nonce, &aad, &pt).unwrap();
        assert_eq!(
            sealed_fast, sealed_reference,
            "iter {iter}: seal divergence (pt {pt_len}, aad {aad_len})"
        );
        // Cross-open: each implementation must accept the other's output.
        assert_eq!(fast.open(&nonce, &aad, &sealed_reference).unwrap(), pt);
        assert_eq!(reference.open(&nonce, &aad, &sealed_fast).unwrap(), pt);

        // And a random single-bit flip must be rejected by both.
        if !sealed_fast.is_empty() {
            let mut bad = sealed_fast.clone();
            let pos = rng.gen_range(bad.len() as u64) as usize;
            bad[pos] ^= 1 << rng.gen_range(8);
            assert_eq!(fast.open(&nonce, &aad, &bad), Err(CryptoError::BadTag));
            assert_eq!(reference.open(&nonce, &aad, &bad), Err(CryptoError::BadTag));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The selected backend and the bitsliced one are the same
    /// function: identical ciphertext and tag from `seal_in_place`,
    /// identical verdicts from `open_in_place`, `verify_tag` and
    /// `verify_tag_into` on the genuine and on a corrupted message.
    /// Lengths reach past three 512-byte groups, so the 512-bit loops'
    /// whole groups and the wide, eight-wide, single-block and
    /// partial-tail paths after them all run. (Without
    /// AES-NI both sides are the bitsliced backend and the property
    /// holds trivially; the benchmark host has it.)
    #[test]
    fn hw_matches_portable(key256 in any::<bool>(),
                           key in proptest::collection::vec(any::<u8>(), 32),
                           nonce in proptest::array::uniform12(any::<u8>()),
                           aad in proptest::collection::vec(any::<u8>(), 0..=64),
                           data in proptest::collection::vec(any::<u8>(), 0..=3 * 512 + 17),
                           flip in any::<prop::sample::Index>()) {
        let key = &key[..if key256 { 32 } else { 16 }];
        let selected = AesGcm::new(key).unwrap();
        let portable = AesGcm::portable(key).unwrap();

        let mut ct = data.clone();
        let mut ct_portable = data.clone();
        let tag = selected.seal_in_place(&nonce, &aad, &mut ct).unwrap();
        let tag_portable = portable.seal_in_place(&nonce, &aad, &mut ct_portable).unwrap();
        prop_assert_eq!(&ct, &ct_portable, "ciphertext, {} bytes", data.len());
        prop_assert_eq!(tag, tag_portable, "tag, {} bytes", data.len());

        // One flipped bit somewhere in ciphertext || tag.
        let mut bad = ct.clone();
        bad.extend_from_slice(&tag);
        let bit = flip.index(bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        let (bad_ct, bad_tag) = bad.split_at(ct.len());

        for gcm in [&selected, &portable] {
            prop_assert_eq!(gcm.verify_tag(&nonce, &aad, &ct, &tag), Ok(()));
            prop_assert_eq!(gcm.verify_tag(&nonce, &aad, bad_ct, bad_tag), Err(CryptoError::BadTag));
            let mut out = aad.clone();
            prop_assert_eq!(gcm.verify_tag_into(&nonce, &aad, &ct, &tag, &mut out), Ok(()));
            prop_assert_eq!(&out[aad.len()..], &[&ct[..], &tag[..]].concat()[..]);
            out.truncate(aad.len());
            let err = gcm.verify_tag_into(&nonce, &aad, bad_ct, bad_tag, &mut out);
            prop_assert_eq!(err, Err(CryptoError::BadTag));
            prop_assert_eq!(&out, &aad);
            let mut buf = ct.clone();
            prop_assert_eq!(gcm.open_in_place(&nonce, &aad, &mut buf, &tag), Ok(()));
            prop_assert_eq!(&buf, &data);
            let mut buf = bad_ct.to_vec();
            prop_assert_eq!(gcm.open_in_place(&nonce, &aad, &mut buf, bad_tag), Err(CryptoError::BadTag));
            prop_assert_eq!(&buf[..], bad_ct);
        }
    }
}

/// Tampering on the backend live traffic uses: a flipped bit in the
/// ciphertext (in the eight-wide body, the single-block tail and the
/// partial block), in the tag, or in the AAD is `BadTag`, from
/// `open_in_place` and `verify_tag` alike, and `open_in_place` leaves
/// the buffer as the ciphertext it was given — no plaintext is
/// produced before the tag has been checked.
#[test]
fn tampering_is_rejected_and_leaves_ciphertext_untouched() {
    let mut rng = CryptoRng::from_seed(0x07A3_BE12);
    for key_len in [16usize, 32] {
        let mut key = vec![0u8; key_len];
        rng.fill(&mut key);
        let gcm = AesGcm::new(&key).unwrap();
        let nonce = [0x31u8; 12];
        let aad = *b"seq+type+ver+";
        for len in [1usize, 16, 100, 128, 300, 8 * 128 + 17] {
            let mut ct = vec![0u8; len];
            rng.fill(&mut ct);
            let tag = gcm.seal_in_place(&nonce, &aad, &mut ct).unwrap();

            let rejected = |aad: &[u8], ct: &[u8], tag: &[u8], what: &str| {
                assert_eq!(
                    gcm.verify_tag(&nonce, aad, ct, tag),
                    Err(CryptoError::BadTag),
                    "verify_tag accepted {what} (len {len})"
                );
                let mut buf = ct.to_vec();
                assert_eq!(
                    gcm.open_in_place(&nonce, aad, &mut buf, tag),
                    Err(CryptoError::BadTag),
                    "open_in_place accepted {what} (len {len})"
                );
                assert_eq!(buf, ct, "failed open modified the buffer: {what} (len {len})");
            };

            for pos in [0, len / 2, len - 1] {
                let mut bad = ct.clone();
                bad[pos] ^= 0x04;
                rejected(&aad, &bad, &tag, "a flipped ciphertext bit");
            }
            for pos in [0, 7, 15] {
                let mut bad = tag;
                bad[pos] ^= 0x80;
                rejected(&aad, &ct, &bad, "a flipped tag bit");
            }
            let mut bad_aad = aad;
            bad_aad[3] ^= 0x01;
            rejected(&bad_aad, &ct, &tag, "a flipped AAD bit");
            rejected(&aad[..12], &ct, &tag, "a truncated AAD");
        }
    }
}
