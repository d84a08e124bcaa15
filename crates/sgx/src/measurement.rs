//! Enclave measurement — the MRENCLAVE analogue.

use mbtls_crypto::sha2::Sha256;

/// The identity of an enclave binary: what gets hashed into the
/// measurement. In real SGX this is the initial contents of the code
/// and data pages; here it is a structured description of the build,
/// which preserves the property that matters — any change to the code
/// or its configuration changes the measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeIdentity {
    /// Vendor / software name, e.g. `"mbtls-proxy"`.
    pub name: String,
    /// Version string, e.g. `"2.4.25"`.
    pub version: String,
    /// Hash-like digest of the configuration (cipher suite policy,
    /// filter rules, ...). Any config change flips the measurement.
    pub config: Vec<u8>,
}

impl CodeIdentity {
    /// Convenience constructor.
    pub fn new(name: &str, version: &str, config: &[u8]) -> Self {
        CodeIdentity {
            name: name.to_string(),
            version: version.to_string(),
            config: config.to_vec(),
        }
    }

    /// Compute the measurement of this identity.
    pub fn measure(&self) -> Measurement {
        let mut h = <Sha256 as mbtls_crypto::sha2::Hash>::new();
        use mbtls_crypto::sha2::Hash;
        h.update(&(self.name.len() as u32).to_be_bytes());
        h.update(self.name.as_bytes());
        h.update(&(self.version.len() as u32).to_be_bytes());
        h.update(self.version.as_bytes());
        h.update(&(self.config.len() as u32).to_be_bytes());
        h.update(&self.config);
        Measurement(h.finalize())
    }
}

/// A 32-byte enclave measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Hex rendering for logs and error messages.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic() {
        let a = CodeIdentity::new("proxy", "1.0", b"cfg");
        let b = CodeIdentity::new("proxy", "1.0", b"cfg");
        assert_eq!(a.measure(), b.measure());
    }

    #[test]
    fn any_field_change_changes_measurement() {
        let base = CodeIdentity::new("proxy", "1.0", b"cfg");
        let m = base.measure();
        assert_ne!(CodeIdentity::new("proxy2", "1.0", b"cfg").measure(), m);
        assert_ne!(CodeIdentity::new("proxy", "1.1", b"cfg").measure(), m);
        assert_ne!(CodeIdentity::new("proxy", "1.0", b"cfg2").measure(), m);
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        // "ab" + "c" must differ from "a" + "bc" (length framing).
        let a = CodeIdentity::new("ab", "c", b"");
        let b = CodeIdentity::new("a", "bc", b"");
        assert_ne!(a.measure(), b.measure());
    }

    #[test]
    fn hex_rendering() {
        let m = CodeIdentity::new("x", "y", b"z").measure();
        let hex = m.to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
