//! Key-derivation functions: the TLS 1.2 PRF (RFC 5246 §5) and HKDF
//! (RFC 5869).
//!
//! The PRF drives the TLS key schedule; HKDF is used by the SGX
//! simulator for sealing keys and by mbTLS per-hop key derivation.

use crate::ct;
use crate::hmac::Hmac;
use crate::secret::Secret;
use crate::sha2::Hash;

/// HMAC of the concatenation of `parts` under an already keyed MAC.
fn mac_parts<H: Hash>(keyed: &Hmac<H>, parts: &[&[u8]]) -> H::Output {
    let mut m = keyed.clone();
    for part in parts {
        m.update(part);
    }
    m.finalize()
}

/// The TLS 1.2 PRF: `PRF(secret, label, seed) = P_hash(secret, label || seed)`,
/// the HMAC-based expansion of RFC 5246 §5, over a MAC already keyed
/// on the secret, filling `out`.
///
/// The hash is the cipher suite's PRF hash (SHA-256 for *_SHA256
/// suites, SHA-384 for *_SHA384 suites). Every HMAC of the expansion
/// is keyed with the same secret, so a caller that runs several
/// expansions over one secret (a TLS connection: its key block and
/// both Finished messages over the master secret) keys once and
/// passes the same `keyed` to each; it is cloned per HMAC. `label ||
/// seed` is never joined, the chain stops at the last A(i) an output
/// block needs, and every A(i) and output block is wiped once used:
/// nothing is allocated and `out` is the only copy of the output.
pub fn tls12_prf_keyed<H: Hash>(keyed: &Hmac<H>, label: &[u8], seed: &[u8], out: &mut [u8]) {
    if out.is_empty() {
        return;
    }
    // A(1) = HMAC(secret, label || seed); A(i) = HMAC(secret, A(i-1)).
    let mut a = mac_parts(keyed, &[label, seed]);
    for (i, chunk) in out.chunks_mut(H::OUTPUT_LEN).enumerate() {
        if i > 0 {
            let next = mac_parts(keyed, &[a.as_ref()]);
            ct::zeroize(a.as_mut());
            a = next;
        }
        let mut block = mac_parts(keyed, &[a.as_ref(), label, seed]);
        chunk.copy_from_slice(&block.as_ref()[..chunk.len()]);
        ct::zeroize(block.as_mut());
    }
    ct::zeroize(a.as_mut());
}

/// [`tls12_prf_keyed`] keyed on `secret` for this one call, into a
/// [`Secret`] of `out_len` bytes (the call's only allocation).
pub fn tls12_prf<H: Hash>(secret: &[u8], label: &[u8], seed: &[u8], out_len: usize) -> Secret {
    let mut out = vec![0; out_len];
    tls12_prf_keyed(&Hmac::<H>::new(secret), label, seed, &mut out);
    out.into()
}

/// HKDF-Extract (RFC 5869 §2.2).
pub fn hkdf_extract<H: Hash>(salt: &[u8], ikm: &[u8]) -> H::Output {
    Hmac::<H>::mac(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3). Panics if `out_len > 255 * hash_len`
/// (a static misuse, not an input-dependent condition).
pub fn hkdf_expand<H: Hash>(prk: &[u8], info: &[u8], out_len: usize) -> Secret {
    assert!(out_len <= 255 * H::OUTPUT_LEN, "HKDF output too long");
    let mut out = Vec::with_capacity(out_len);
    let keyed = Hmac::<H>::new(prk);
    // T(i) = HMAC(prk, T(i-1) || info || i), and T(i-1) is the block
    // just emitted (nothing, for T(1)).
    let mut counter = 1u8;
    while out.len() < out_len {
        let prev = &out[out.len().saturating_sub(H::OUTPUT_LEN)..];
        let mut t = mac_parts(&keyed, &[prev, info, &[counter]]);
        let take = H::OUTPUT_LEN.min(out_len - out.len());
        out.extend_from_slice(&t.as_ref()[..take]);
        ct::zeroize(t.as_mut());
        counter = counter.wrapping_add(1);
    }
    out.into()
}

/// Convenience: HKDF extract-then-expand.
pub fn hkdf<H: Hash>(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Secret {
    let mut prk = hkdf_extract::<H>(salt, ikm);
    let out = hkdf_expand::<H>(prk.as_ref(), info, out_len);
    ct::zeroize(prk.as_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha2::{Sha256, Sha384};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // Published TLS 1.2 PRF (SHA-256) test vector
    // (widely circulated IETF TLS WG vector).
    #[test]
    fn tls12_prf_sha256_vector() {
        let secret = unhex("9bbe436ba940f017b17652849a71db35");
        let seed = unhex("a0ba9f936cda311827a6f796ffd5198c");
        let label = b"test label";
        let out = tls12_prf::<Sha256>(&secret, label, &seed, 100);
        assert_eq!(
            hex(&out),
            "e3f229ba727be17b8d122620557cd453c2aab21d07c3d495329b52d4e61edb5a\
             6b301791e90d35c9c9a46b4e14baf9af0fa022f7077def17abfd3797c0564bab\
             4fbc91666e9def9b97fce34f796789baa48082d122ee42c5a72e5a5110fff701\
             87347b66"
        );
    }

    // RFC 5869 Test Case 1.
    #[test]
    fn hkdf_rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract::<Sha256>(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand::<Sha256>(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 2 (longer inputs/outputs).
    #[test]
    fn hkdf_rfc5869_case2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm = hkdf::<Sha256>(&salt, &ikm, &info, 82);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn hkdf_rfc5869_case3() {
        let ikm = [0x0b; 22];
        let okm = hkdf::<Sha256>(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn prf_is_deterministic_and_length_exact() {
        let a = tls12_prf::<Sha256>(b"s", b"l", b"seed", 7);
        let b = tls12_prf::<Sha256>(b"s", b"l", b"seed", 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        // Prefix property: longer output extends shorter output.
        let c = tls12_prf::<Sha256>(b"s", b"l", b"seed", 64);
        assert_eq!(&c[..7], &a[..]);
    }

    // P_SHA256 / P_SHA384 known answers from this machine's Python,
    // name in ("sha256", "sha384"):
    //
    //   secret, seed = bytes(range(48)), b"key expansion" + bytes(range(100, 164))
    //   out, a = b"", seed
    //   while len(out) < 148:
    //       a = hmac.new(secret, a, name).digest()
    //       out += hmac.new(secret, a + seed, name).digest()
    //   print(out[:148].hex())
    //
    // The lengths sit on and around the digest-length multiples (32,
    // 64, 96 and 48, 96), where the PRF stops without the A(i+1) an
    // RFC-literal loop computes and discards, plus the 72-byte
    // AES-256-GCM key block; 0 must return empty.
    #[test]
    fn prf_known_answers_at_block_boundaries() {
        let secret: Vec<u8> = (0..48).collect();
        let seed: Vec<u8> = (100..164).collect();
        let p_sha256 = unhex(
            "28685edb204ecc92242de5440cbbaab263b26917badda780ffac162c8d5a190d\
             b504e2223d7549b8deb0af27d736ac5666527337fcb51c0d659d1398611083ca\
             e380cb76348f8fb5f66c1aaadfb43993d9bb3485d741c1cce3d3d9e99e2d1f3c\
             784fcd31c605272b3a42a795a99efb9daeea8ed83f075b83d3593da027c6a988\
             40704e40e461eaba7e10c8d704dec9e7c1eba835",
        );
        let p_sha384 = unhex(
            "1ef6cb01527c4d5a83d5dc42afa62a9c27b940128ab240da3008c18b191d6cb9\
             11854353158b4b09047f65222a9e79e2a9484d3fc2388fcec5cd7a5cf1323e93\
             599425a430ec6306b0d1eecd182873c98062cd0234258245fb5e21a3a99809f7\
             a863f4f67fd12016b917ea76b72b0468f1f6dd8e2d1b45f35a87953c5bc76ce8\
             62bccf1bc80138b3924d36444cd0b67c2b84606a",
        );
        for n in [0, 1, 31, 32, 33, 47, 48, 49, 64, 72, 96, 148] {
            let out = tls12_prf::<Sha256>(&secret, b"key expansion", &seed, n);
            assert_eq!(*out, p_sha256[..n], "P_SHA256 at {n}");
            let out = tls12_prf::<Sha384>(&secret, b"key expansion", &seed, n);
            assert_eq!(*out, p_sha384[..n], "P_SHA384 at {n}");
        }
    }

    // One keyed MAC serves every expansion over its secret: each call
    // clones it, so a second call (another label, another length)
    // reads as if it had keyed afresh.
    #[test]
    fn keyed_form_is_the_prf_and_reuses_its_key() {
        let secret = [0x3c; 48];
        let keyed = Hmac::<Sha384>::new(&secret);
        for (label, n) in [(&b"key expansion"[..], 72), (b"client finished", 12), (b"x", 0)] {
            let mut out = vec![0xee; n];
            tls12_prf_keyed(&keyed, label, b"seed", &mut out);
            assert_eq!(out, *tls12_prf::<Sha384>(&secret, label, b"seed", n), "{n}");
        }
    }

    #[test]
    fn hkdf_expand_zero_length_is_empty_and_multiples_are_prefixes() {
        let prk = [0x42; 32];
        assert!(hkdf_expand::<Sha256>(&prk, b"info", 0).is_empty());
        let long = hkdf_expand::<Sha256>(&prk, b"info", 96);
        for n in [1, 32, 33, 64] {
            assert_eq!(*hkdf_expand::<Sha256>(&prk, b"info", n), long[..n], "at {n}");
        }
    }
}
