//! Certificates and certificate authorities.
//!
//! A certificate binds a subject name (plus alternative names) to an
//! Ed25519 public key, carries a validity window in simulation time,
//! and is signed by its issuer. The encoding is the compact custom
//! format from [`crate::wire`] — see DESIGN.md for why this stands in
//! for X.509.

use crate::wire::{CodecError, Decoder, Encoder};
use mbtls_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use mbtls_crypto::rng::CryptoRng;

/// What the certified key may be used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyUsage {
    /// TLS/mbTLS endpoint authentication (servers, clients).
    Endpoint,
    /// Middlebox service authentication (the MSP's key).
    Middlebox,
    /// Certificate signing (CAs only).
    CertSign,
}

impl KeyUsage {
    fn to_u8(self) -> u8 {
        match self {
            KeyUsage::Endpoint => 0,
            KeyUsage::Middlebox => 1,
            KeyUsage::CertSign => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(KeyUsage::Endpoint),
            1 => Ok(KeyUsage::Middlebox),
            2 => Ok(KeyUsage::CertSign),
            _ => Err(CodecError::Malformed),
        }
    }
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificatePayload {
    /// Issuer-unique serial number (revocation references it).
    pub serial: u64,
    /// Subject common name, e.g. `"www.example.com"` or
    /// `"proxy.msp.example"`.
    pub subject: String,
    /// Additional names the certificate is valid for.
    pub alt_names: Vec<String>,
    /// Issuer common name.
    pub issuer: String,
    /// Validity start (inclusive), simulation seconds.
    pub not_before: u64,
    /// Validity end (exclusive), simulation seconds.
    pub not_after: u64,
    /// The certified Ed25519 public key.
    pub public_key: VerifyingKey,
    /// Whether the subject may itself sign certificates.
    pub is_ca: bool,
    /// Intended key usage.
    pub usage: KeyUsage,
}

impl CertificatePayload {
    /// Serialize the to-be-signed bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Encoder::new();
        w.u64(self.serial);
        w.string(&self.subject);
        w.u8(self.alt_names.len() as u8);
        for name in &self.alt_names {
            w.string(name);
        }
        w.string(&self.issuer);
        w.u64(self.not_before);
        w.u64(self.not_after);
        w.raw(&self.public_key.0);
        w.u8(u8::from(self.is_ca));
        w.u8(self.usage.to_u8());
        w.into_bytes()
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let serial = r.u64()?;
        let subject = r.string()?;
        let n_alt = r.u8()? as usize;
        let mut alt_names = Vec::with_capacity(n_alt);
        for _ in 0..n_alt {
            alt_names.push(r.string()?);
        }
        let issuer = r.string()?;
        let not_before = r.u64()?;
        let not_after = r.u64()?;
        let public_key = VerifyingKey(r.take_array()?);
        let is_ca = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Malformed),
        };
        let usage = KeyUsage::from_u8(r.u8()?)?;
        Ok(CertificatePayload {
            serial,
            subject,
            alt_names,
            issuer,
            not_before,
            not_after,
            public_key,
            is_ca,
            usage,
        })
    }

    /// Does this certificate cover `name` (exact match against the
    /// subject or any alternative name; `*.` prefix wildcards match
    /// one label)?
    pub fn matches_name(&self, name: &str) -> bool {
        std::iter::once(self.subject.as_str())
            .chain(self.alt_names.iter().map(String::as_str))
            .any(|covered| {
                if let Some(suffix) = covered.strip_prefix("*.") {
                    match name.split_once('.') {
                        Some((label, rest)) => !label.is_empty() && rest == suffix,
                        None => false,
                    }
                } else {
                    covered == name
                }
            })
    }
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The signed payload.
    pub payload: CertificatePayload,
    /// Issuer signature over `payload.encode()`.
    pub signature: Signature,
}

impl Certificate {
    /// Serialize payload + signature.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Encoder::new();
        let payload = self.payload.encode();
        w.vec16(&payload);
        w.raw(&self.signature.0);
        w.into_bytes()
    }

    /// Parse payload + signature. Does *not* verify the signature.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Decoder::new(bytes);
        let cert = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(cert)
    }

    /// Parse from a reader positioned at a certificate (for chains).
    pub fn decode_from(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let payload_bytes = r.vec16()?;
        let mut pr = Decoder::new(payload_bytes);
        let payload = CertificatePayload::decode(&mut pr)?;
        pr.expect_end()?;
        Ok(Certificate {
            payload,
            signature: Signature(r.take_array()?),
        })
    }

    /// Verify this certificate's signature against `issuer_key`.
    pub fn signature_valid_under(&self, issuer_key: &VerifyingKey) -> bool {
        issuer_key
            .verify(&self.payload.encode(), &self.signature)
            .is_ok()
    }

    /// Is `now` within the validity window?
    pub fn valid_at(&self, now: u64) -> bool {
        self.payload.not_before <= now && now < self.payload.not_after
    }
}

/// Serialize a leaf-first chain.
pub fn encode_chain(chain: &[Certificate]) -> Vec<u8> {
    let mut w = Encoder::new();
    w.u8(chain.len() as u8);
    for cert in chain {
        let enc = cert.encode();
        w.vec16(&enc);
    }
    w.into_bytes()
}

/// Parse a leaf-first chain.
pub fn decode_chain(bytes: &[u8]) -> Result<Vec<Certificate>, CodecError> {
    let mut r = Decoder::new(bytes);
    let n = r.u8()? as usize;
    let mut chain = Vec::with_capacity(n);
    for _ in 0..n {
        let cert_bytes = r.vec16()?;
        chain.push(Certificate::decode(cert_bytes)?);
    }
    r.expect_end()?;
    Ok(chain)
}

/// A certificate authority: a signing key plus its (usually
/// self-signed) certificate.
pub struct CertificateAuthority {
    key: SigningKey,
    cert: Certificate,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Create a self-signed root CA.
    pub fn new_root(name: &str, valid_from: u64, valid_until: u64, rng: &mut CryptoRng) -> Self {
        let key = SigningKey::generate(rng);
        let payload = CertificatePayload {
            serial: 0,
            subject: name.to_string(),
            alt_names: vec![],
            issuer: name.to_string(),
            not_before: valid_from,
            not_after: valid_until,
            public_key: key.verifying_key(),
            is_ca: true,
            usage: KeyUsage::CertSign,
        };
        let signature = key.sign(&payload.encode());
        CertificateAuthority {
            key,
            cert: Certificate { payload, signature },
            next_serial: 1,
        }
    }

    /// This CA's own certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Issue an end-entity certificate for `public_key`.
    pub fn issue(
        &mut self,
        subject: &str,
        alt_names: &[&str],
        public_key: VerifyingKey,
        not_before: u64,
        not_after: u64,
        usage: KeyUsage,
    ) -> Certificate {
        let payload = CertificatePayload {
            serial: self.next_serial,
            subject: subject.to_string(),
            alt_names: alt_names.iter().map(|s| s.to_string()).collect(),
            issuer: self.cert.payload.subject.clone(),
            not_before,
            not_after,
            public_key,
            is_ca: false,
            usage,
        };
        self.next_serial += 1;
        let signature = self.key.sign(&payload.encode());
        Certificate { payload, signature }
    }

    /// Issue a subordinate CA. Returns the new authority; its
    /// certificate chains to this one.
    pub fn issue_intermediate(
        &mut self,
        name: &str,
        not_before: u64,
        not_after: u64,
        rng: &mut CryptoRng,
    ) -> CertificateAuthority {
        let key = SigningKey::generate(rng);
        let payload = CertificatePayload {
            serial: self.next_serial,
            subject: name.to_string(),
            alt_names: vec![],
            issuer: self.cert.payload.subject.clone(),
            not_before,
            not_after,
            public_key: key.verifying_key(),
            is_ca: true,
            usage: KeyUsage::CertSign,
        };
        self.next_serial += 1;
        let signature = self.key.sign(&payload.encode());
        CertificateAuthority {
            key,
            cert: Certificate { payload, signature },
            next_serial: 1,
        }
    }
}

/// A subject key pair together with its certificate and the chain up
/// to (but excluding) the root — what a TLS server or middlebox
/// presents.
pub struct CertifiedKey {
    /// The private signing key.
    pub key: SigningKey,
    /// Leaf-first chain (leaf, then intermediates).
    pub chain: Vec<Certificate>,
}

impl CertifiedKey {
    /// Generate a key and have `ca` issue its certificate.
    pub fn issue(
        ca: &mut CertificateAuthority,
        subject: &str,
        alt_names: &[&str],
        not_before: u64,
        not_after: u64,
        usage: KeyUsage,
        rng: &mut CryptoRng,
    ) -> Self {
        let key = SigningKey::generate(rng);
        let cert = ca.issue(subject, alt_names, key.verifying_key(), not_before, not_after, usage);
        CertifiedKey {
            key,
            chain: vec![cert],
        }
    }

    /// The leaf certificate.
    pub fn leaf(&self) -> &Certificate {
        &self.chain[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> CryptoRng {
        CryptoRng::from_seed(0xCE27)
    }

    #[test]
    fn cert_encode_decode_roundtrip() {
        let mut rng = rng();
        let mut ca = CertificateAuthority::new_root("Test Root", 0, 1_000_000, &mut rng);
        let key = SigningKey::generate(&mut rng);
        let cert = ca.issue(
            "www.example.com",
            &["example.com", "*.cdn.example.com"],
            key.verifying_key(),
            10,
            500_000,
            KeyUsage::Endpoint,
        );
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn chain_roundtrip() {
        let mut rng = rng();
        let mut root = CertificateAuthority::new_root("Root", 0, 1000, &mut rng);
        let mut inter = root.issue_intermediate("Intermediate", 0, 1000, &mut rng);
        let ck = CertifiedKey::issue(&mut inter, "leaf.example", &[], 0, 1000, KeyUsage::Endpoint, &mut rng);
        let chain = vec![ck.leaf().clone(), inter.certificate().clone()];
        let decoded = decode_chain(&encode_chain(&chain)).unwrap();
        assert_eq!(decoded, chain);
    }

    #[test]
    fn signature_validates_under_issuer_only() {
        let mut rng = rng();
        let mut ca = CertificateAuthority::new_root("Root", 0, 1000, &mut rng);
        let other = CertificateAuthority::new_root("Evil Root", 0, 1000, &mut rng);
        let key = SigningKey::generate(&mut rng);
        let cert = ca.issue("a", &[], key.verifying_key(), 0, 1000, KeyUsage::Endpoint);
        assert!(cert.signature_valid_under(&ca.certificate().payload.public_key));
        assert!(!cert.signature_valid_under(&other.certificate().payload.public_key));
    }

    #[test]
    fn tampered_payload_fails_signature() {
        let mut rng = rng();
        let mut ca = CertificateAuthority::new_root("Root", 0, 1000, &mut rng);
        let key = SigningKey::generate(&mut rng);
        let mut cert = ca.issue("victim.example", &[], key.verifying_key(), 0, 1000, KeyUsage::Endpoint);
        cert.payload.subject = "attacker.example".to_string();
        assert!(!cert.signature_valid_under(&ca.certificate().payload.public_key));
    }

    #[test]
    fn validity_window() {
        let mut rng = rng();
        let mut ca = CertificateAuthority::new_root("Root", 0, 1000, &mut rng);
        let key = SigningKey::generate(&mut rng);
        let cert = ca.issue("a", &[], key.verifying_key(), 100, 200, KeyUsage::Endpoint);
        assert!(!cert.valid_at(99));
        assert!(cert.valid_at(100));
        assert!(cert.valid_at(199));
        assert!(!cert.valid_at(200));
    }

    #[test]
    fn name_matching() {
        let payload = CertificatePayload {
            serial: 1,
            subject: "www.example.com".into(),
            alt_names: vec!["example.com".into(), "*.api.example.com".into()],
            issuer: "Root".into(),
            not_before: 0,
            not_after: 1,
            public_key: VerifyingKey([0; 32]),
            is_ca: false,
            usage: KeyUsage::Endpoint,
        };
        assert!(payload.matches_name("www.example.com"));
        assert!(payload.matches_name("example.com"));
        assert!(payload.matches_name("v1.api.example.com"));
        assert!(!payload.matches_name("deep.v1.api.example.com"));
        assert!(!payload.matches_name("api.example.com"));
        assert!(!payload.matches_name("other.com"));
        assert!(!payload.matches_name(""));
    }

    #[test]
    fn serials_increment() {
        let mut rng = rng();
        let mut ca = CertificateAuthority::new_root("Root", 0, 1000, &mut rng);
        let key = SigningKey::generate(&mut rng);
        let c1 = ca.issue("a", &[], key.verifying_key(), 0, 1, KeyUsage::Endpoint);
        let c2 = ca.issue("b", &[], key.verifying_key(), 0, 1, KeyUsage::Endpoint);
        assert_ne!(c1.payload.serial, c2.payload.serial);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Certificate::decode(b"not a certificate").is_err());
        assert!(Certificate::decode(&[]).is_err());
        assert!(decode_chain(&[5]).is_err());
    }
}
