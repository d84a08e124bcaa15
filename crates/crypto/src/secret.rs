//! Key bytes that wipe themselves.
//!
//! [`Secret`] is the one way key material is held or returned above
//! the primitives: the KDFs hand it back, the key-bearing structs of
//! the TLS and mbTLS layers are made of it, and the encoders of key
//! material build it. Whoever ends up owning one has nothing to
//! remember — the bytes are zeroed where they sit when it is dropped,
//! on every path, and a struct made of `Secret`s needs no destructor
//! of its own.

use crate::ct;

/// An owned byte buffer that is zeroed in place when dropped.
///
/// It reads as a `[u8]`, cannot grow (so no reallocation ever leaves
/// a stale copy behind), compares in constant time and prints only
/// its length.
///
/// Its only `PartialEq` is against another `Secret`, through
/// [`ct::eq`], so a variable-time `==` against plain bytes does not
/// compile, whatever the binding holding the secret is called:
///
/// ```compile_fail,E0277
/// use mbtls_crypto::secret::Secret;
/// let key: Secret = vec![7u8; 32].into();
/// let renamed = &key;
/// let probe: &[u8] = &[7u8; 32];
/// let _ = renamed == probe;
/// ```
#[derive(Clone)]
pub struct Secret(Vec<u8>);

impl Secret {
    /// Zero the bytes in place, length kept. What [`Drop`] runs.
    fn wipe(&mut self) {
        ct::zeroize(&mut self.0);
    }
}

impl Drop for Secret {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// Adopts the allocation: no copy is made, and the bytes are wiped
/// from then on. The buffer must not have been grown into place —
/// build it at its final capacity.
impl From<Vec<u8>> for Secret {
    fn from(bytes: Vec<u8>) -> Self {
        Secret(bytes)
    }
}

/// Copies into an allocation of exactly the slice's length.
impl From<&[u8]> for Secret {
    fn from(bytes: &[u8]) -> Self {
        Secret(bytes.to_vec())
    }
}

/// Copies a fixed-size secret (an X25519 output) and wipes the array
/// it was handed.
impl<const N: usize> From<[u8; N]> for Secret {
    fn from(mut bytes: [u8; N]) -> Self {
        let secret = Secret(bytes.to_vec());
        ct::zeroize(&mut bytes);
        secret
    }
}

impl std::ops::Deref for Secret {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq for Secret {
    fn eq(&self, other: &Self) -> bool {
        ct::eq(&self.0, &other.0)
    }
}

impl Eq for Secret {}

impl std::fmt::Debug for Secret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Secret({})", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wipes_in_place_on_drop() {
        ct::assert_wipes(Secret::from(vec![0x5a; 48]), Secret::wipe, |s| vec![s.to_vec()]);
        ct::assert_wipes(Secret::from([0x5a; 32]), Secret::wipe, |s| vec![s.to_vec()]);
    }

    #[test]
    fn debug_is_redacted() {
        assert_eq!(format!("{:?}", Secret::from(vec![0xAB; 48])), "Secret(48)");
    }

    #[test]
    fn eq_agrees_with_slice_equality() {
        let cases: [(&[u8], &[u8]); 5] = [
            (b"", b""),
            (b"key", b"key"),
            (b"key", b"kez"),
            (b"key", b"ke"),
            (b"\0\0", b"\0\0\0"),
        ];
        for (a, b) in cases {
            assert_eq!(Secret::from(a) == Secret::from(b), a == b, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn clone_survives_its_original() {
        let original = Secret::from(vec![7u8; 32]);
        let copy = original.clone();
        drop(original);
        assert_eq!(*copy, [7u8; 32]);
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let bytes = vec![1u8, 2, 3, 4];
        let at = bytes.as_ptr();
        let secret = Secret::from(bytes);
        assert_eq!(secret.as_ptr(), at);
        assert_eq!(*secret, [1, 2, 3, 4]);
    }
}
