//! Cipher suite definitions.
//!
//! All suites are AEAD (AES-GCM) with signed ephemeral key exchange.
//! Certificate signatures in this workspace are always Ed25519 (see
//! DESIGN.md substitutions), so a suite is identified by its key
//! exchange, bulk cipher, and PRF hash. The wire IDs reuse the IANA
//! code points for the analogous ECDSA/RSA suites so our handshakes
//! look shaped like the paper's (`ECDHE` vs `DHE`, AES-256-GCM
//! default).

/// Key-exchange families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyExchange {
    /// X25519 ephemeral ECDH.
    Ecdhe,
    /// ffdhe2048 ephemeral finite-field DH.
    Dhe,
}

/// PRF hash selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrfHash {
    /// SHA-256-based PRF.
    Sha256,
    /// SHA-384-based PRF.
    Sha384,
}

impl PrfHash {
    /// Length of this hash's output.
    pub fn output_len(self) -> usize {
        match self {
            PrfHash::Sha256 => 32,
            PrfHash::Sha384 => 48,
        }
    }
}

/// A negotiable cipher suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// ECDHE + AES-128-GCM + SHA-256 (wire 0xC02B).
    EcdheAes128GcmSha256,
    /// ECDHE + AES-256-GCM + SHA-384 (wire 0xC02C). The suite the
    /// paper's prototype supports.
    EcdheAes256GcmSha384,
    /// DHE + AES-256-GCM + SHA-384 (wire 0x009F analogue).
    DheAes256GcmSha384,
}

impl CipherSuite {
    /// All suites, preference order (strongest first).
    pub const ALL: [CipherSuite; 3] = [
        CipherSuite::EcdheAes256GcmSha384,
        CipherSuite::EcdheAes128GcmSha256,
        CipherSuite::DheAes256GcmSha384,
    ];

    /// Wire code point.
    pub fn id(self) -> u16 {
        match self {
            CipherSuite::EcdheAes128GcmSha256 => 0xC02B,
            CipherSuite::EcdheAes256GcmSha384 => 0xC02C,
            CipherSuite::DheAes256GcmSha384 => 0x009F,
        }
    }

    /// Reverse lookup.
    pub fn from_id(id: u16) -> Option<CipherSuite> {
        Self::ALL.into_iter().find(|s| s.id() == id)
    }

    /// Key-exchange family.
    pub fn key_exchange(self) -> KeyExchange {
        match self {
            CipherSuite::EcdheAes128GcmSha256 | CipherSuite::EcdheAes256GcmSha384 => {
                KeyExchange::Ecdhe
            }
            CipherSuite::DheAes256GcmSha384 => KeyExchange::Dhe,
        }
    }

    /// Length of the bulk cipher's key: 16 bytes for AES-128-GCM, 32
    /// for AES-256-GCM.
    pub fn key_len(self) -> usize {
        match self {
            CipherSuite::EcdheAes128GcmSha256 => 16,
            CipherSuite::EcdheAes256GcmSha384 | CipherSuite::DheAes256GcmSha384 => 32,
        }
    }

    /// PRF hash.
    pub fn prf_hash(self) -> PrfHash {
        match self {
            CipherSuite::EcdheAes128GcmSha256 => PrfHash::Sha256,
            CipherSuite::EcdheAes256GcmSha384 | CipherSuite::DheAes256GcmSha384 => PrfHash::Sha384,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        for s in CipherSuite::ALL {
            assert_eq!(CipherSuite::from_id(s.id()), Some(s));
        }
        assert_eq!(CipherSuite::from_id(0x0000), None);
        assert_eq!(CipherSuite::from_id(0x1301), None);
    }

    #[test]
    fn suite_properties() {
        let s = CipherSuite::EcdheAes256GcmSha384;
        assert_eq!(s.key_exchange(), KeyExchange::Ecdhe);
        assert_eq!(s.key_len(), 32);
        assert_eq!(s.prf_hash(), PrfHash::Sha384);
        assert_eq!(s.prf_hash().output_len(), 48);

        let d = CipherSuite::DheAes256GcmSha384;
        assert_eq!(d.key_exchange(), KeyExchange::Dhe);

        let weak = CipherSuite::EcdheAes128GcmSha256;
        assert_eq!(weak.key_len(), 16);
        assert_eq!(weak.prf_hash().output_len(), 32);
    }

    #[test]
    fn preference_order_prefers_aes256() {
        assert_eq!(CipherSuite::ALL[0], CipherSuite::EcdheAes256GcmSha384);
    }
}
