//! HMAC (RFC 2104) over any hash in [`crate::sha2`].

use crate::ct;
use crate::sha2::Hash;

/// The largest [`Hash::BLOCK_LEN`] in the family (SHA-384/512), so the
/// key pads fit one stack block whatever `H` is.
const MAX_BLOCK_LEN: usize = 128;

/// Incremental HMAC computation, generic over the hash.
///
/// Keying costs two compressions (one per pad); a keyed `Hmac` is
/// reusable by `clone`, which is how [`crate::kdf`] pays for the key
/// once per expansion instead of once per block. Both hashers hold
/// the key in digested form from [`Hmac::new`] on, so every copy wipes
/// them when it is dropped.
// lint:secret
#[derive(Clone)]
pub struct Hmac<H: Hash> {
    inner: H,
    outer: H,
}

impl<H: Hash> Hmac<H> {
    /// Start a new MAC with `key`. Keys longer than the hash block are
    /// hashed down first, per the RFC.
    pub fn new(key: &[u8]) -> Self {
        const { assert!(H::OUTPUT_LEN <= H::BLOCK_LEN && H::BLOCK_LEN <= MAX_BLOCK_LEN) };
        // One stack block serves as the zero-padded key, then as
        // key ^ ipad, then as key ^ opad; all three are the key.
        let mut block = [0u8; MAX_BLOCK_LEN];
        let pad = &mut block[..H::BLOCK_LEN];
        if key.len() > H::BLOCK_LEN {
            let mut h = H::new();
            h.update(key);
            let mut digest = h.finalize();
            pad[..H::OUTPUT_LEN].copy_from_slice(digest.as_ref());
            ct::zeroize(digest.as_mut());
        } else {
            pad[..key.len()].copy_from_slice(key);
        }

        let mut mac = Hmac {
            inner: H::new(),
            outer: H::new(),
        };
        pad.iter_mut().for_each(|b| *b ^= 0x36);
        mac.inner.update(pad);
        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        mac.outer.update(pad);
        ct::zeroize(&mut block);
        mac
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and produce the tag.
    pub fn finalize(mut self) -> H::Output {
        let mut inner_digest = self.inner.finalize();
        self.outer.update(inner_digest.as_ref());
        ct::zeroize(inner_digest.as_mut());
        self.outer.finalize()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8], data: &[u8]) -> H::Output {
        let mut m = Self::new(key);
        m.update(data);
        m.finalize()
    }

    /// One-shot verify in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        ct::eq(Self::mac(key, data).as_ref(), tag)
    }

    /// Zero both hashers in place. This is the routine [`Drop`] runs.
    pub fn wipe(&mut self) {
        self.inner.wipe();
        self.outer.wipe();
    }
}

impl<H: Hash> Drop for Hmac<H> {
    fn drop(&mut self) {
        self.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha2::{Sha256, Sha384, Sha512};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&Hmac::<Sha384>::mac(&key, data)),
            "afd03944d84895626b0825f4ab46907f15f9dadbe4101ec682aa034c7cebc59c\
             faea9ea9076ede7f4af152e8b2fa9cb6"
        );
        assert_eq!(
            hex(&Hmac::<Sha512>::mac(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc4231_case2_short_key() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_ff_key() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        // Key longer than block size gets hashed first.
        let key = [0xaa; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // Cases 4 and 7 over the 128-byte-block hashes: a 25-byte key with
    // a 50-byte message, and key and message both longer than a block
    // (the key is hashed down first, the message spans two blocks).
    #[test]
    fn rfc4231_case4_and_case7_sha384_sha512() {
        let key4: Vec<u8> = (1..=25).collect();
        let data4 = [0xcd; 50];
        assert_eq!(
            hex(&Hmac::<Sha384>::mac(&key4, &data4)),
            "3e8a69b7783c25851933ab6290af6ca77a9981480850009cc5577c6e1f573b4e\
             6801dd23c4a7d679ccf8a386c674cffb"
        );
        assert_eq!(
            hex(&Hmac::<Sha512>::mac(&key4, &data4)),
            "b0ba465637458c6990e5a8c5f61d4af7e576d97ff94b872de76f8050361ee3db\
             a91ca5c11aa25eb4d679275cc5788063a5f19741120c4f2de2adebeb10a298dd"
        );
        let key7 = [0xaa; 131];
        let data7 = b"This is a test using a larger than block-size key and a larger \
                      than block-size data. The key needs to be hashed before being \
                      used by the HMAC algorithm.";
        assert_eq!(
            hex(&Hmac::<Sha384>::mac(&key7, data7)),
            "6617178e941f020d351e2f254e8fd32c602420feb0b8fb9adccebb82461e99c5\
             a678cc31e799176d3860e6110c46523e"
        );
        assert_eq!(
            hex(&Hmac::<Sha512>::mac(&key7, data7)),
            "e37b6a775dc87dbaa4dfa9f96e5e3ffddebd71f8867289865df5a32d20cdc944\
             b6022cac3c4982b10d5eeb55c3e4de15134676fb6de0446065c97440fa8c6a58"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"key material";
        let data: Vec<u8> = (0..500u32).map(|i| (i % 256) as u8).collect();
        let mut m = Hmac::<Sha256>::new(key);
        m.update(&data[..123]);
        m.update(&data[123..]);
        assert_eq!(m.finalize(), Hmac::<Sha256>::mac(key, &data));
    }

    #[test]
    fn verify_rejects_wrong_tag() {
        let tag = Hmac::<Sha256>::mac(b"k", b"m");
        assert!(Hmac::<Sha256>::verify(b"k", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!Hmac::<Sha256>::verify(b"k", b"m", &bad));
        assert!(!Hmac::<Sha256>::verify(b"k", b"x", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k2", b"m", &tag));
    }

    // Both hashers hold the digested key from `new` on; the inner one
    // also buffers the message tail.
    #[test]
    fn drop_wipes_both_hashers() {
        fn keyed_with_tail<H: Hash>() -> Hmac<H> {
            let mut m = Hmac::<H>::new(&[0x5a; 48]);
            m.update(&[0xc3; 77]);
            m
        }
        ct::assert_wipes(keyed_with_tail::<Sha256>(), Hmac::wipe, |m| {
            [m.inner.secret_fields(), m.outer.secret_fields()].concat()
        });
        ct::assert_wipes(keyed_with_tail::<Sha384>(), Hmac::wipe, |m| {
            [m.inner.secret_fields(), m.outer.secret_fields()].concat()
        });
    }
}
