//! Remote attestation: quotes, platform attestation keys, and the
//! simulated Intel attestation root.
//!
//! The flow mirrors EPID/DCAP at the protocol level: the attestation
//! service (playing Intel) certifies one attestation key per physical
//! platform; an enclave asks its platform to sign a *quote* over its
//! measurement and 64 bytes of report data; a remote verifier checks
//! the quote against the service's root key and compares measurement
//! and report data against expectations. mbTLS binds report data to
//! the handshake transcript hash for freshness (paper §3.4).

// A quote arrives from a peer: its parse may not index out of range.
#![forbid(clippy::indexing_slicing)]

use crate::measurement::Measurement;
use mbtls_crypto::ed25519::{
    verify_checks, Signature, SignatureCheck, SigningKey, VerifyingKey,
};
use mbtls_crypto::rng::CryptoRng;

/// Report-data size (matches the SGX REPORTDATA field).
pub const REPORT_DATA_LEN: usize = 64;

/// Why attestation verification failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestationError {
    /// The platform certificate was not signed by the attestation root.
    UntrustedPlatform,
    /// The quote signature did not verify under the platform key.
    BadQuoteSignature,
    /// The measurement did not match any acceptable value.
    MeasurementMismatch,
    /// The report data did not match the expected binding (e.g. a
    /// replayed quote from a different handshake).
    ReportDataMismatch,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttestationError::UntrustedPlatform => "platform not certified by attestation root",
            AttestationError::BadQuoteSignature => "quote signature invalid",
            AttestationError::MeasurementMismatch => "enclave measurement mismatch",
            AttestationError::ReportDataMismatch => "report data mismatch (possible replay)",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for AttestationError {}

/// The simulated Intel attestation root: issues platform attestation
/// keys and publishes a root verifying key.
pub struct AttestationService {
    root_key: SigningKey,
    next_platform_id: u64,
}

impl AttestationService {
    /// Stand up the service.
    pub fn new(rng: &mut CryptoRng) -> Self {
        AttestationService {
            root_key: SigningKey::generate(rng),
            next_platform_id: 1,
        }
    }

    /// The root verifying key endpoints embed (the IAS trust anchor
    /// analogue).
    pub fn root_verifying_key(&self) -> VerifyingKey {
        self.root_key.verifying_key()
    }

    /// Provision an attestation key for a new platform (models the
    /// device key ceremony at manufacturing time).
    pub fn provision_platform(&mut self, rng: &mut CryptoRng) -> PlatformAttestationKey {
        let platform_id = self.next_platform_id;
        self.next_platform_id += 1;
        let key = SigningKey::generate(rng);
        let endorsement = self
            .root_key
            .sign(&Self::endorsement_message(platform_id, &key.verifying_key()));
        PlatformAttestationKey {
            platform_id,
            key,
            endorsement,
        }
    }

    fn endorsement_message(platform_id: u64, vk: &VerifyingKey) -> Vec<u8> {
        let mut msg = Vec::with_capacity(8 + 32 + 16);
        msg.extend_from_slice(b"sgx-platform-key");
        msg.extend_from_slice(&platform_id.to_be_bytes());
        msg.extend_from_slice(&vk.0);
        msg
    }
}

/// A platform's certified attestation key.
#[derive(Clone)]
pub struct PlatformAttestationKey {
    /// Stable platform identifier.
    pub platform_id: u64,
    key: SigningKey,
    endorsement: Signature,
}

impl PlatformAttestationKey {
    /// Sign a quote for an enclave on this platform.
    pub fn quote(&self, measurement: Measurement, report_data: [u8; REPORT_DATA_LEN]) -> Quote {
        let signature = self.key.sign(&Quote::signed_message(
            self.platform_id,
            &measurement,
            &report_data,
        ));
        Quote {
            platform_id: self.platform_id,
            platform_key: self.key.verifying_key(),
            endorsement: self.endorsement,
            measurement,
            report_data,
            signature,
        }
    }
}

/// A remote-attestation quote (the `sgx_quote_t` analogue carried in
/// the mbTLS `SGXAttestation` handshake message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Which platform produced the quote.
    pub platform_id: u64,
    /// The platform's attestation public key.
    pub platform_key: VerifyingKey,
    /// Attestation-root signature over (platform_id, platform_key).
    pub endorsement: Signature,
    /// The measured enclave identity.
    pub measurement: Measurement,
    /// 64 bytes chosen by the enclave (mbTLS: transcript-hash binding).
    pub report_data: [u8; REPORT_DATA_LEN],
    /// Platform signature over (platform_id, measurement, report_data).
    pub signature: Signature,
}

impl Quote {
    fn signed_message(
        platform_id: u64,
        measurement: &Measurement,
        report_data: &[u8; REPORT_DATA_LEN],
    ) -> Vec<u8> {
        let mut msg = Vec::with_capacity(8 + 32 + 64 + 16);
        msg.extend_from_slice(b"sgx-quote-v1");
        msg.extend_from_slice(&platform_id.to_be_bytes());
        msg.extend_from_slice(&measurement.0);
        msg.extend_from_slice(report_data);
        msg
    }

    /// Verify against the attestation root, an acceptable-measurement
    /// set, and the expected report data: [`Quote::verify_deferred`]'s
    /// two halves with the signatures discharged here — and first, so
    /// a quote that is both mis-signed and mis-measured reports its
    /// signature.
    pub fn verify(
        &self,
        root: &VerifyingKey,
        acceptable_measurements: &[Measurement],
        expected_report_data: &[u8; REPORT_DATA_LEN],
    ) -> Result<(), AttestationError> {
        match verify_checks(&self.signature_checks(root)).valid[..] {
            [true, true] => self.check_claims(acceptable_measurements, expected_report_data),
            [false, _] => Err(AttestationError::UntrustedPlatform),
            _ => Err(AttestationError::BadQuoteSignature),
        }
    }

    /// The structural half of [`Quote::verify`]: compares measurement
    /// and report data eagerly and returns the two Ed25519
    /// verifications still owed — the root's endorsement of the
    /// platform key (a failure there is
    /// [`AttestationError::UntrustedPlatform`]), then the platform's
    /// signature over the quote
    /// ([`AttestationError::BadQuoteSignature`]) — for the caller to
    /// discharge with whatever else its handshake flight owes. The
    /// quote is valid iff this returns `Ok` *and* both checks pass.
    pub fn verify_deferred(
        &self,
        root: &VerifyingKey,
        acceptable_measurements: &[Measurement],
        expected_report_data: &[u8; REPORT_DATA_LEN],
    ) -> Result<[SignatureCheck; 2], AttestationError> {
        self.check_claims(acceptable_measurements, expected_report_data)?;
        Ok(self.signature_checks(root))
    }

    /// Platform key endorsed by the root; quote signed by that key.
    fn signature_checks(&self, root: &VerifyingKey) -> [SignatureCheck; 2] {
        [
            SignatureCheck {
                key: *root,
                msg: AttestationService::endorsement_message(self.platform_id, &self.platform_key),
                sig: self.endorsement,
            },
            SignatureCheck {
                key: self.platform_key,
                msg: Self::signed_message(self.platform_id, &self.measurement, &self.report_data),
                sig: self.signature,
            },
        ]
    }

    /// Measurement acceptable; report data bound to this exchange.
    fn check_claims(
        &self,
        acceptable_measurements: &[Measurement],
        expected_report_data: &[u8; REPORT_DATA_LEN],
    ) -> Result<(), AttestationError> {
        if !acceptable_measurements.contains(&self.measurement) {
            return Err(AttestationError::MeasurementMismatch);
        }
        if !mbtls_crypto::ct::eq(&self.report_data, expected_report_data) {
            return Err(AttestationError::ReportDataMismatch);
        }
        Ok(())
    }

    /// Serialize for transport inside handshake messages.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 + 64 + 32 + 64 + 64);
        out.extend_from_slice(&self.platform_id.to_be_bytes());
        out.extend_from_slice(&self.platform_key.0);
        out.extend_from_slice(&self.endorsement.0);
        out.extend_from_slice(&self.measurement.0);
        out.extend_from_slice(&self.report_data);
        out.extend_from_slice(&self.signature.0);
        out
    }

    /// Parse a serialized quote: exactly the fields [`Quote::encode`]
    /// writes, in its order, and nothing after them.
    pub fn decode(bytes: &[u8]) -> Option<Quote> {
        let (platform_id, rest) = bytes.split_first_chunk::<8>()?;
        let (platform_key, rest) = rest.split_first_chunk::<32>()?;
        let (endorsement, rest) = rest.split_first_chunk::<64>()?;
        let (measurement, rest) = rest.split_first_chunk::<32>()?;
        let (report_data, rest) = rest.split_first_chunk::<REPORT_DATA_LEN>()?;
        let (signature, rest) = rest.split_first_chunk::<64>()?;
        if !rest.is_empty() {
            return None;
        }
        Some(Quote {
            platform_id: u64::from_be_bytes(*platform_id),
            platform_key: VerifyingKey(*platform_key),
            endorsement: Signature(*endorsement),
            measurement: Measurement(*measurement),
            report_data: *report_data,
            signature: Signature(*signature),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::CodeIdentity;

    fn setup() -> (AttestationService, PlatformAttestationKey, CryptoRng) {
        let mut rng = CryptoRng::from_seed(0xA77E);
        let mut svc = AttestationService::new(&mut rng);
        let platform = svc.provision_platform(&mut rng);
        (svc, platform, rng)
    }

    fn m(name: &str) -> Measurement {
        CodeIdentity::new(name, "1.0", b"").measure()
    }

    #[test]
    fn valid_quote_verifies() {
        let (svc, platform, _) = setup();
        let report = [7u8; 64];
        let quote = platform.quote(m("proxy"), report);
        assert_eq!(
            quote.verify(&svc.root_verifying_key(), &[m("proxy")], &report),
            Ok(())
        );
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (svc, platform, _) = setup();
        let report = [7u8; 64];
        let quote = platform.quote(m("evil-proxy"), report);
        assert_eq!(
            quote.verify(&svc.root_verifying_key(), &[m("proxy")], &report),
            Err(AttestationError::MeasurementMismatch)
        );
    }

    #[test]
    fn replayed_report_data_rejected() {
        let (svc, platform, _) = setup();
        let quote = platform.quote(m("proxy"), [1u8; 64]);
        // Verifier expects a different handshake binding.
        assert_eq!(
            quote.verify(&svc.root_verifying_key(), &[m("proxy")], &[2u8; 64]),
            Err(AttestationError::ReportDataMismatch)
        );
    }

    #[test]
    fn unprovisioned_platform_rejected() {
        let (svc, _platform, mut rng) = setup();
        // A rogue "platform" self-signs without provisioning.
        let rogue_key = SigningKey::generate(&mut rng);
        let rogue_endorsement = rogue_key.sign(b"i endorse myself");
        let measurement = m("proxy");
        let report = [0u8; 64];
        let signature = rogue_key.sign(&Quote::signed_message(99, &measurement, &report));
        let quote = Quote {
            platform_id: 99,
            platform_key: rogue_key.verifying_key(),
            endorsement: rogue_endorsement,
            measurement,
            report_data: report,
            signature,
        };
        assert_eq!(
            quote.verify(&svc.root_verifying_key(), &[measurement], &report),
            Err(AttestationError::UntrustedPlatform)
        );
    }

    #[test]
    fn tampered_quote_fields_rejected() {
        let (svc, platform, _) = setup();
        let report = [9u8; 64];
        let good = platform.quote(m("proxy"), report);
        // Tamper with the measurement after signing.
        let mut bad = good.clone();
        bad.measurement = m("other");
        assert_eq!(
            bad.verify(&svc.root_verifying_key(), &[m("other")], &report),
            Err(AttestationError::BadQuoteSignature)
        );
        // Tamper with report data after signing.
        let mut bad = good.clone();
        bad.report_data[0] ^= 1;
        assert_eq!(
            bad.verify(&svc.root_verifying_key(), &[m("proxy")], &bad.report_data.clone()),
            Err(AttestationError::BadQuoteSignature)
        );
    }

    // A quote that is wrong twice over reports its signature, whichever
    // signature it is — today's answer, pinned; the deferred split
    // reports the claim instead, because that half runs first there.
    #[test]
    fn mis_signed_and_mis_measured_quote_reports_the_signature() {
        let (svc, platform, _) = setup();
        let report = [5u8; 64];
        let root = svc.root_verifying_key();
        let good = platform.quote(m("evil-proxy"), report);
        let mut bad_signature = good.clone();
        bad_signature.signature.0[40] ^= 1;
        let mut bad_endorsement = good.clone();
        bad_endorsement.endorsement.0[40] ^= 1;
        for (quote, expect) in [
            (&bad_signature, AttestationError::BadQuoteSignature),
            (&bad_endorsement, AttestationError::UntrustedPlatform),
        ] {
            assert_eq!(quote.verify(&root, &[m("proxy")], &report), Err(expect));
            assert_eq!(quote.verify(&root, &[m("evil-proxy")], &[6u8; 64]), Err(expect));
            assert_eq!(
                quote.verify_deferred(&root, &[m("proxy")], &report).err(),
                Some(AttestationError::MeasurementMismatch)
            );
        }
        // Both signatures bad: the endorsement is checked first.
        let mut both = bad_signature.clone();
        both.endorsement = bad_endorsement.endorsement;
        assert_eq!(
            both.verify(&root, &[m("proxy")], &report),
            Err(AttestationError::UntrustedPlatform)
        );
        // The split agrees with the whole on every single fault.
        let honest = platform.quote(m("proxy"), report);
        let owed = honest.verify_deferred(&root, &[m("proxy")], &report).unwrap();
        assert!(owed.iter().all(SignatureCheck::check));
        let mut forged = honest.clone();
        forged.signature.0[40] ^= 1;
        let owed = forged.verify_deferred(&root, &[m("proxy")], &report).unwrap();
        assert!(owed[0].check() && !owed[1].check());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_, platform, _) = setup();
        let quote = platform.quote(m("proxy"), [3u8; 64]);
        let decoded = Quote::decode(&quote.encode()).unwrap();
        assert_eq!(decoded, quote);
        assert!(Quote::decode(&quote.encode()[1..]).is_none());
    }

    #[test]
    fn multiple_platforms_distinct() {
        let mut rng = CryptoRng::from_seed(0xBEEF);
        let mut svc = AttestationService::new(&mut rng);
        let p1 = svc.provision_platform(&mut rng);
        let p2 = svc.provision_platform(&mut rng);
        assert_ne!(p1.platform_id, p2.platform_id);
        // Quotes from both platforms verify under the same root.
        let report = [0u8; 64];
        for p in [&p1, &p2] {
            let q = p.quote(m("proxy"), report);
            assert!(q.verify(&svc.root_verifying_key(), &[m("proxy")], &report).is_ok());
        }
    }
}
