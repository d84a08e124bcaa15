//! Delegated middlebox credentials — mdTLS-style proxy authorization.
//!
//! An endpoint that owns a certified identity can *delegate* to a
//! middlebox by signing a short-lived credential naming the
//! middlebox's verifying key. The relying endpoint then authorizes
//! the middlebox by walking endpoint-cert → credential →
//! middlebox-key instead of requiring an in-handshake SGX
//! attestation: the same trust decision, made with one extra Ed25519
//! signature instead of a quote (mdTLS; see DESIGN.md §6j).
//!
//! Scope is carried *inside* the credential: a validity window on the
//! virtual clock (revocation is by expiry — credentials are too
//! short-lived to be worth a revocation list), a permitted role
//! (read-only vs read-write) and flow direction, and a
//! session-binding nonce so a credential observed on one session
//! cannot be replayed into another. The signature covers a versioned,
//! domain-separated transcript so credential bytes can never collide
//! with certificate payloads or TLS transcripts.

use std::fmt;

use mbtls_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use mbtls_crypto::rng::CryptoRng;

use crate::cert::{Certificate, KeyUsage};
use crate::verify::{CertError, SignatureCheck, TrustStore};
use crate::wire::{CodecError, Decoder, Encoder};

/// The only credential version this module issues or accepts.
pub const CREDENTIAL_VERSION: u8 = 1;

/// Domain-separation prefix for the signed transcript. Versioned so a
/// v2 credential can never be mistaken for (or truncated into) a v1
/// one, and disjoint from every other signed context in the
/// workspace.
const CONTEXT_V1: &[u8] = b"mbtls delegated credential v1\0";

/// What the credential authorizes the middlebox to do with records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegatedRole {
    /// May observe records (tag verify + forward) but not modify.
    ReadOnly,
    /// May decrypt, modify, and re-seal records.
    ReadWrite,
}

impl DelegatedRole {
    fn to_u8(self) -> u8 {
        match self {
            DelegatedRole::ReadOnly => 0,
            DelegatedRole::ReadWrite => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(DelegatedRole::ReadOnly),
            1 => Some(DelegatedRole::ReadWrite),
            _ => None,
        }
    }

    /// Does a credential carrying `self` satisfy a verifier that
    /// requires `required`? Read-write subsumes read-only.
    pub fn permits(self, required: DelegatedRole) -> bool {
        matches!(
            (self, required),
            (DelegatedRole::ReadWrite, _) | (DelegatedRole::ReadOnly, DelegatedRole::ReadOnly)
        )
    }
}

/// Which flow direction(s) the delegation covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegatedDirection {
    /// Client-to-server records only.
    ClientToServer,
    /// Server-to-client records only.
    ServerToClient,
    /// Both directions.
    Both,
}

impl DelegatedDirection {
    fn to_u8(self) -> u8 {
        match self {
            DelegatedDirection::ClientToServer => 0,
            DelegatedDirection::ServerToClient => 1,
            DelegatedDirection::Both => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(DelegatedDirection::ClientToServer),
            1 => Some(DelegatedDirection::ServerToClient),
            2 => Some(DelegatedDirection::Both),
            _ => None,
        }
    }
}

/// Why a credential was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CredentialError {
    /// The version byte is not [`CREDENTIAL_VERSION`].
    BadVersion(u8),
    /// `now` is before the validity window opens.
    NotYetValid,
    /// `now` is at or past the end of the validity window (the
    /// revocation-by-expiry semantics: an expired credential is a
    /// revoked one).
    Expired,
    /// The session-binding nonce does not match this session — a
    /// credential replayed from another session.
    SessionMismatch,
    /// The credential's issuer name is not the endpoint this session
    /// expects delegations from.
    IssuerMismatch,
    /// The named middlebox key is small-order or non-canonical;
    /// cofactored Ed25519 verification would accept forgeries under
    /// it, so delegation to it is refused outright.
    WeakKey,
    /// The credential's role does not permit what the verifier
    /// requires.
    RoleNotPermitted,
    /// The credential signature (or a deferred check discharged
    /// inline) failed.
    BadSignature,
    /// The credential bytes did not parse.
    Wire(CodecError),
    /// The issuer's certificate chain was rejected.
    Chain(CertError),
}

impl fmt::Display for CredentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CredentialError::BadVersion(v) => write!(f, "unsupported credential version {v}"),
            CredentialError::NotYetValid => write!(f, "credential not yet valid"),
            CredentialError::Expired => write!(f, "credential expired"),
            CredentialError::SessionMismatch => {
                write!(f, "credential bound to a different session")
            }
            CredentialError::IssuerMismatch => write!(f, "credential issuer mismatch"),
            CredentialError::WeakKey => write!(f, "credential names a weak middlebox key"),
            CredentialError::RoleNotPermitted => {
                write!(f, "credential role does not permit the required role")
            }
            CredentialError::BadSignature => write!(f, "credential signature invalid"),
            CredentialError::Wire(e) => write!(f, "credential encoding: {e}"),
            CredentialError::Chain(e) => write!(f, "credential issuer chain: {e}"),
        }
    }
}

impl std::error::Error for CredentialError {}

impl From<CodecError> for CredentialError {
    fn from(e: CodecError) -> Self {
        CredentialError::Wire(e)
    }
}

impl From<CertError> for CredentialError {
    fn from(e: CertError) -> Self {
        CredentialError::Chain(e)
    }
}

/// An endpoint-signed delegation: "the key below may act as
/// middlebox `subject` on my sessions, within this window, in this
/// role, on the session bound by this nonce."
///
/// All fields are public data (the secret state lives in
/// [`CredentialIssuer`] and [`DelegatedKeyPair`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegatedCredential {
    /// Format version ([`CREDENTIAL_VERSION`]).
    pub version: u8,
    /// The middlebox name the delegation is for (approval policies
    /// match on this, like a certificate subject).
    pub subject: String,
    /// The delegating endpoint's certified name.
    pub issuer: String,
    /// The middlebox verifying key being delegated to.
    pub middlebox_key: VerifyingKey,
    /// Window start (virtual clock, inclusive).
    pub not_before: u64,
    /// Window end (virtual clock, exclusive) — expiry is revocation.
    pub not_after: u64,
    /// Permitted role.
    pub role: DelegatedRole,
    /// Permitted flow direction(s).
    pub direction: DelegatedDirection,
    /// Binds the credential to one session (derived from the
    /// session's transcript binding); replay across sessions fails.
    pub session_nonce: [u8; 32],
    /// Ed25519 signature by the issuer's certified key over
    /// [`DelegatedCredential::signed_transcript`].
    pub signature: Signature,
}

impl DelegatedCredential {
    fn write_signed_fields(&self, w: &mut Encoder) {
        w.string(&self.subject);
        w.string(&self.issuer);
        w.raw(&self.middlebox_key.0);
        w.u64(self.not_before);
        w.u64(self.not_after);
        w.u8(self.role.to_u8());
        w.u8(self.direction.to_u8());
        w.raw(&self.session_nonce);
    }

    /// The domain-separated bytes the issuer signs: context prefix,
    /// version, then every field except the signature.
    pub fn signed_transcript(&self) -> Vec<u8> {
        let mut w = Encoder::new();
        w.raw(CONTEXT_V1);
        w.u8(self.version);
        self.write_signed_fields(&mut w);
        w.into_bytes()
    }

    /// Wire encoding (version, fields, signature).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Encoder::new();
        w.u8(self.version);
        self.write_signed_fields(&mut w);
        w.raw(&self.signature.0);
        w.into_bytes()
    }

    /// Parse a wire encoding. Rejects unknown versions, truncated
    /// input, and trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CredentialError> {
        let mut r = Decoder::new(bytes);
        let version = r.u8()?;
        if version != CREDENTIAL_VERSION {
            return Err(CredentialError::BadVersion(version));
        }
        let subject = r.string()?;
        let issuer = r.string()?;
        let key = r.take_array()?;
        let not_before = r.u64()?;
        let not_after = r.u64()?;
        let role = DelegatedRole::from_u8(r.u8()?).ok_or(CodecError::Malformed)?;
        let direction = DelegatedDirection::from_u8(r.u8()?).ok_or(CodecError::Malformed)?;
        let session_nonce = r.take_array()?;
        let sig = r.take_array()?;
        r.expect_end()?;
        Ok(DelegatedCredential {
            version,
            subject,
            issuer,
            middlebox_key: VerifyingKey(key),
            not_before,
            not_after,
            role,
            direction,
            session_nonce,
            signature: Signature(sig),
        })
    }

    /// True inside the validity window (same semantics as
    /// [`Certificate::valid_at`](crate::cert::Certificate::valid_at)).
    pub fn valid_at(&self, now: u64) -> bool {
        self.not_before <= now && now < self.not_after
    }
}

/// The endpoint-side issuing handle: the endpoint's certified signing
/// key plus the chain relying parties anchor it to. Secret state —
/// the [`SigningKey`] wipes itself on drop and `Debug` is redacted.
// lint:secret
pub struct CredentialIssuer {
    key: SigningKey,
    name: String,
    chain: Vec<Certificate>,
}

impl CredentialIssuer {
    /// Build an issuer from the endpoint key's 32-byte seed, the
    /// endpoint's certified name, and its leaf-first chain.
    pub fn new(seed: [u8; 32], name: impl Into<String>, chain: Vec<Certificate>) -> Self {
        CredentialIssuer {
            key: SigningKey::from_seed(&seed),
            name: name.into(),
            chain,
        }
    }

    /// The endpoint's certified name (the credential `issuer` field).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The leaf-first chain presented alongside credentials.
    pub fn issuer_chain(&self) -> &[Certificate] {
        &self.chain
    }

    /// The issuing (endpoint) verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Sign a delegation for `middlebox_key` acting as `subject`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        &self,
        subject: &str,
        middlebox_key: VerifyingKey,
        not_before: u64,
        not_after: u64,
        role: DelegatedRole,
        direction: DelegatedDirection,
        session_nonce: [u8; 32],
    ) -> DelegatedCredential {
        let mut cred = DelegatedCredential {
            version: CREDENTIAL_VERSION,
            subject: subject.to_string(),
            issuer: self.name.clone(),
            middlebox_key,
            not_before,
            not_after,
            role,
            direction,
            session_nonce,
            signature: Signature([0u8; 64]),
        };
        cred.signature = self.key.sign(&cred.signed_transcript());
        cred
    }
}

impl fmt::Debug for CredentialIssuer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CredentialIssuer(..)")
    }
}

/// The middlebox-side delegated key pair. Secret state — the
/// [`SigningKey`] wipes itself on drop and `Debug` is redacted.
// lint:secret
pub struct DelegatedKeyPair {
    key: SigningKey,
}

impl DelegatedKeyPair {
    /// Derive the pair from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        DelegatedKeyPair { key: SigningKey::from_seed(&seed) }
    }

    /// Generate a fresh pair (one 32-byte draw from `rng`).
    pub fn generate(rng: &mut CryptoRng) -> Self {
        DelegatedKeyPair::from_seed(rng.gen_array())
    }

    /// The verifying key a credential names.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// A signing handle for the middlebox's handshakes (the clone
    /// zeroizes itself independently on drop).
    pub fn signing_key(&self) -> SigningKey {
        self.key.clone()
    }
}

impl fmt::Debug for DelegatedKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DelegatedKeyPair(..)")
    }
}

/// Walks endpoint-cert → credential → middlebox-key for one session.
///
/// Structural scope checks (version, window, nonce, role, names,
/// weak-key screen) run eagerly; the Ed25519 work — the issuer chain
/// walk plus the credential signature — is returned as
/// [`SignatureCheck`]s so callers can discharge it with the rest of
/// what their handshake flight owes, or inline via
/// [`CredentialVerifier::verify`].
pub struct CredentialVerifier<'a> {
    /// Roots the issuer chain must anchor to.
    pub trust: &'a TrustStore,
    /// The endpoint name delegations must come from.
    pub expected_issuer: &'a str,
    /// Current virtual time.
    pub now: u64,
    /// This session's binding nonce (replay screen).
    pub session_nonce: [u8; 32],
    /// When set, the credential's role must permit this role.
    pub required_role: Option<DelegatedRole>,
}

impl CredentialVerifier<'_> {
    /// Run the structural checks and return the outstanding
    /// signature checks (issuer chain pairs, then the credential
    /// signature under the chain's leaf key).
    pub fn verify_deferred(
        &self,
        issuer_chain: &[Certificate],
        cred: &DelegatedCredential,
    ) -> Result<Vec<SignatureCheck>, CredentialError> {
        if cred.version != CREDENTIAL_VERSION {
            return Err(CredentialError::BadVersion(cred.version));
        }
        if self.now < cred.not_before {
            return Err(CredentialError::NotYetValid);
        }
        if !cred.valid_at(self.now) {
            return Err(CredentialError::Expired);
        }
        if cred.session_nonce != self.session_nonce {
            return Err(CredentialError::SessionMismatch);
        }
        if cred.issuer != self.expected_issuer {
            return Err(CredentialError::IssuerMismatch);
        }
        if cred.middlebox_key.is_weak() {
            return Err(CredentialError::WeakKey);
        }
        if let Some(required) = self.required_role {
            if !cred.role.permits(required) {
                return Err(CredentialError::RoleNotPermitted);
            }
        }
        let mut checks = self.trust.verify_chain_deferred(
            issuer_chain,
            &cred.issuer,
            self.now,
            Some(KeyUsage::Endpoint),
        )?;
        let leaf = issuer_chain.first().ok_or(CredentialError::Chain(CertError::EmptyChain))?;
        checks.push(SignatureCheck {
            key: leaf.payload.public_key,
            msg: cred.signed_transcript(),
            sig: cred.signature,
        });
        Ok(checks)
    }

    /// [`CredentialVerifier::verify_deferred`] with the signature
    /// checks discharged inline.
    pub fn verify(
        &self,
        issuer_chain: &[Certificate],
        cred: &DelegatedCredential,
    ) -> Result<(), CredentialError> {
        let checks = self.verify_deferred(issuer_chain, cred)?;
        if mbtls_crypto::ed25519::verify_checks(&checks).all_valid() {
            Ok(())
        } else {
            Err(CredentialError::BadSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    const NB: u64 = 1_000;
    const NA: u64 = 2_000;
    const NOW: u64 = 1_500;

    struct Fixture {
        issuer: CredentialIssuer,
        mbox: DelegatedKeyPair,
        trust: TrustStore,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = CryptoRng::from_seed(seed);
        let mut ca = CertificateAuthority::new_root("Web Root CA", 0, 10_000_000, &mut rng);
        let endpoint_seed: [u8; 32] = rng.gen_array();
        let endpoint_key = SigningKey::from_seed(&endpoint_seed);
        let cert = ca.issue(
            "server.example",
            &[],
            endpoint_key.verifying_key(),
            0,
            10_000_000,
            KeyUsage::Endpoint,
        );
        let issuer = CredentialIssuer::new(endpoint_seed, "server.example", vec![cert]);
        let mbox = DelegatedKeyPair::generate(&mut rng);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        Fixture { issuer, mbox, trust }
    }

    fn issue(f: &Fixture, nonce: [u8; 32]) -> DelegatedCredential {
        f.issuer.issue(
            "proxy.msp.example",
            f.mbox.verifying_key(),
            NB,
            NA,
            DelegatedRole::ReadWrite,
            DelegatedDirection::Both,
            nonce,
        )
    }

    fn verifier<'a>(f: &'a Fixture, now: u64, nonce: [u8; 32]) -> CredentialVerifier<'a> {
        CredentialVerifier {
            trust: &f.trust,
            expected_issuer: "server.example",
            now,
            session_nonce: nonce,
            required_role: None,
        }
    }

    #[test]
    fn issue_verify_roundtrip_inline_and_deferred() {
        let f = fixture(1);
        let cred = issue(&f, [7u8; 32]);
        let v = verifier(&f, NOW, [7u8; 32]);
        v.verify(f.issuer.issuer_chain(), &cred).expect("inline verify");
        let checks = v.verify_deferred(f.issuer.issuer_chain(), &cred).expect("deferred");
        // One anchor check for the single-cert chain, plus the
        // credential signature itself.
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.check()));
    }

    #[test]
    fn wire_roundtrip() {
        let f = fixture(2);
        let cred = issue(&f, [9u8; 32]);
        let bytes = cred.encode();
        assert_eq!(DelegatedCredential::decode(&bytes).expect("decode"), cred);
    }

    #[test]
    fn truncated_and_overlong_encodings_rejected() {
        let f = fixture(3);
        let cred = issue(&f, [9u8; 32]);
        let bytes = cred.encode();
        for n in 0..bytes.len() {
            assert!(
                DelegatedCredential::decode(&bytes[..n]).is_err(),
                "truncation to {n} bytes must not decode"
            );
        }
        let mut overlong = bytes.clone();
        overlong.push(0);
        assert_eq!(
            DelegatedCredential::decode(&overlong),
            Err(CredentialError::Wire(CodecError::TrailingBytes))
        );
    }

    #[test]
    fn bad_version_and_bad_scope_bytes_rejected() {
        let f = fixture(4);
        let cred = issue(&f, [9u8; 32]);
        let mut bytes = cred.encode();
        bytes[0] = 2;
        assert_eq!(DelegatedCredential::decode(&bytes), Err(CredentialError::BadVersion(2)));
        // Corrupt the role byte (offset: version + 2 strings + key + 2 windows).
        let role_at = 1 + (2 + cred.subject.len()) + (2 + cred.issuer.len()) + 32 + 16;
        let mut bytes = cred.encode();
        bytes[role_at] = 9;
        assert_eq!(
            DelegatedCredential::decode(&bytes),
            Err(CredentialError::Wire(CodecError::Malformed))
        );
    }

    #[test]
    fn window_boundaries_on_the_virtual_clock() {
        let f = fixture(5);
        let nonce = [3u8; 32];
        let cred = issue(&f, nonce);
        let chain = f.issuer.issuer_chain();
        assert_eq!(
            verifier(&f, NB - 1, nonce).verify(chain, &cred),
            Err(CredentialError::NotYetValid)
        );
        verifier(&f, NB, nonce).verify(chain, &cred).expect("valid at window open");
        verifier(&f, NA - 1, nonce).verify(chain, &cred).expect("valid at last tick");
        // Expiry is revocation: the boundary tick itself is rejected.
        assert_eq!(verifier(&f, NA, nonce).verify(chain, &cred), Err(CredentialError::Expired));
    }

    #[test]
    fn cross_session_replay_rejected() {
        let f = fixture(6);
        let cred = issue(&f, [0xAA; 32]);
        assert_eq!(
            verifier(&f, NOW, [0xBB; 32]).verify(f.issuer.issuer_chain(), &cred),
            Err(CredentialError::SessionMismatch)
        );
    }

    #[test]
    fn issuer_mismatch_and_unknown_issuer_rejected() {
        let f = fixture(7);
        let nonce = [1u8; 32];
        let cred = issue(&f, nonce);
        let v = CredentialVerifier { expected_issuer: "other.example", ..verifier(&f, NOW, nonce) };
        assert_eq!(
            v.verify(f.issuer.issuer_chain(), &cred),
            Err(CredentialError::IssuerMismatch)
        );

        // Substitution: a self-made issuer with the right name but no
        // anchor in the relying party's trust store.
        let mut rng = CryptoRng::from_seed(0xBAD);
        let mut rogue_ca = CertificateAuthority::new_root("Rogue CA", 0, 10_000_000, &mut rng);
        let rogue_seed: [u8; 32] = rng.gen_array();
        let rogue_issuer = CredentialIssuer::new(
            rogue_seed,
            "server.example",
            vec![rogue_ca.issue(
                "server.example",
                &[],
                SigningKey::from_seed(&rogue_seed).verifying_key(),
                0,
                10_000_000,
                KeyUsage::Endpoint,
            )],
        );
        let forged = rogue_issuer.issue(
            "proxy.msp.example",
            f.mbox.verifying_key(),
            NB,
            NA,
            DelegatedRole::ReadWrite,
            DelegatedDirection::Both,
            nonce,
        );
        assert_eq!(
            verifier(&f, NOW, nonce).verify(rogue_issuer.issuer_chain(), &forged),
            Err(CredentialError::Chain(CertError::UnknownIssuer))
        );
    }

    #[test]
    fn tampered_fields_fail_the_signature() {
        let f = fixture(8);
        let nonce = [4u8; 32];
        let mut cred = issue(&f, nonce);
        // Wrong-key credential: swap the named middlebox key after
        // signing — the transcript no longer matches.
        let mut rng = CryptoRng::from_seed(0x5151);
        cred.middlebox_key = DelegatedKeyPair::generate(&mut rng).verifying_key();
        assert_eq!(
            verifier(&f, NOW, nonce).verify(f.issuer.issuer_chain(), &cred),
            Err(CredentialError::BadSignature)
        );
        let mut cred = issue(&f, nonce);
        cred.role = DelegatedRole::ReadOnly;
        assert_eq!(
            verifier(&f, NOW, nonce).verify(f.issuer.issuer_chain(), &cred),
            Err(CredentialError::BadSignature)
        );
    }

    #[test]
    fn small_order_and_edge_middlebox_keys_refused() {
        // The Wycheproof-style encodings from the ed25519 suite: the
        // identity, the order-2 point, an order-4 point, and a
        // non-canonical identity encoding. Cofactored verification
        // accepts trivial signatures under all of them, so the
        // structural screen must refuse to delegate to them.
        let identity_enc: [u8; 32] = {
            let mut b = [0u8; 32];
            b[0] = 1;
            b
        };
        let order2_enc: [u8; 32] = {
            let mut b = [0xffu8; 32];
            b[0] = 0xec;
            b[31] = 0x7f;
            b
        };
        let order4_enc = [0u8; 32];
        let noncanonical_y: [u8; 32] = {
            let mut b = [0xffu8; 32];
            b[0] = 0xee;
            b[31] = 0x7f;
            b
        };

        let f = fixture(9);
        let nonce = [2u8; 32];
        for enc in [identity_enc, order2_enc, order4_enc, noncanonical_y] {
            let cred = f.issuer.issue(
                "proxy.msp.example",
                VerifyingKey(enc),
                NB,
                NA,
                DelegatedRole::ReadWrite,
                DelegatedDirection::Both,
                nonce,
            );
            assert_eq!(
                verifier(&f, NOW, nonce).verify(f.issuer.issuer_chain(), &cred),
                Err(CredentialError::WeakKey),
                "edge key {enc:02x?} must be refused"
            );
        }
        // A genuine key passes the same screen.
        assert!(!f.mbox.verifying_key().is_weak());
    }

    #[test]
    fn role_scope_enforced() {
        let f = fixture(10);
        let nonce = [6u8; 32];
        let ro = f.issuer.issue(
            "proxy.msp.example",
            f.mbox.verifying_key(),
            NB,
            NA,
            DelegatedRole::ReadOnly,
            DelegatedDirection::Both,
            nonce,
        );
        let require_rw = CredentialVerifier {
            required_role: Some(DelegatedRole::ReadWrite),
            ..verifier(&f, NOW, nonce)
        };
        assert_eq!(
            require_rw.verify(f.issuer.issuer_chain(), &ro),
            Err(CredentialError::RoleNotPermitted)
        );
        let require_ro = CredentialVerifier {
            required_role: Some(DelegatedRole::ReadOnly),
            ..verifier(&f, NOW, nonce)
        };
        require_ro.verify(f.issuer.issuer_chain(), &ro).expect("read-only satisfies read-only");
        assert!(DelegatedRole::ReadWrite.permits(DelegatedRole::ReadOnly));
        assert!(!DelegatedRole::ReadOnly.permits(DelegatedRole::ReadWrite));
    }

    #[test]
    fn secret_debug_is_redacted() {
        let f = fixture(13);
        assert_eq!(format!("{:?}", f.issuer), "CredentialIssuer(..)");
        let mut rng = CryptoRng::from_seed(14);
        assert_eq!(format!("{:?}", DelegatedKeyPair::generate(&mut rng)), "DelegatedKeyPair(..)");
    }
}
