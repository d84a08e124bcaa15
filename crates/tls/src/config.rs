//! Client and server configuration.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mbtls_crypto::ct;
use mbtls_crypto::ed25519::VerifyingKey;
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::secret::Secret;
use mbtls_pki::cert::{Certificate, CertifiedKey};
use mbtls_pki::delegation::{DelegatedCredential, DelegatedRole};
use mbtls_pki::TrustStore;
use mbtls_sgx::{Measurement, Quote};

use crate::messages::Extension;
use crate::session::ResumptionData;
use crate::suites::CipherSuite;

/// Something that can produce SGX quotes — implemented by the glue
/// that runs a TLS endpoint inside a simulated enclave.
pub trait Attestor: Send + Sync {
    /// Produce a quote binding `report_data` (the transcript hash).
    fn quote(&self, report_data: [u8; 64]) -> Quote;
}

/// What a verifier demands of a peer's attestation.
#[derive(Clone)]
pub struct AttestationPolicy {
    /// The attestation service root of trust.
    pub root: VerifyingKey,
    /// Acceptable enclave measurements (e.g. the published hash of
    /// "mbtls-proxy v1.0 with strong ciphers only").
    pub acceptable: Vec<Measurement>,
}

/// Something that can produce delegated credentials bound to a
/// session — implemented by the glue that connects a middlebox to its
/// delegating endpoint (DESIGN.md §6j). Called once per handshake
/// with that handshake's transcript binding.
pub trait CredentialProvider: Send + Sync {
    /// A credential whose session nonce is bound to `session_binding`
    /// (the transcript's attestation binding; the nonce is its first
    /// 32 bytes).
    fn credential(&self, session_binding: [u8; 64]) -> DelegatedCredential;
    /// The delegating endpoint's leaf-first certificate chain.
    fn issuer_chain(&self) -> Vec<Certificate>;
}

/// What a verifier demands of a peer's delegated credential
/// (the mdTLS-style alternative to [`AttestationPolicy`]).
#[derive(Clone)]
pub struct DelegationPolicy {
    /// Roots the credential's issuer chain must anchor to.
    pub trust_store: Arc<TrustStore>,
    /// The endpoint name delegations must come from.
    pub issuer: String,
    /// When set, the credential's role must permit this role.
    pub required_role: Option<DelegatedRole>,
}

/// What a verifier demands of its peer: the certificate chain alone,
/// or that plus an attestation, or a delegated credential in its place.
/// One value, so no verifier can demand both.
#[derive(Clone)]
pub enum PeerProof {
    /// The certificate chain alone.
    Certificate,
    /// An SGX quote over the transcript, verified against this policy
    /// (paper §3.3).
    Attestation(AttestationPolicy),
    /// A delegated credential, verified against this policy, in place
    /// of a certificate chain: the peer may present an empty chain,
    /// and its identity is the credential (DESIGN.md §6j).
    Delegation(DelegationPolicy),
}

/// What a server presents beyond its certificate chain. A configured
/// proof goes into every full handshake's flight whether or not the
/// client asked: a middlebox's secondary ClientHello is the client's
/// primary one, which carries no request (DESIGN.md §6j).
#[derive(Clone)]
pub enum Proof {
    /// Nothing beyond the certificate chain.
    None,
    /// An SGXAttestation message with a quote from this attestor.
    Attestor(Arc<dyn Attestor>),
    /// A DelegatedCredential message from this provider.
    Credential(Arc<dyn CredentialProvider>),
}

/// Client-side configuration. Cheap to clone via `Arc`.
#[derive(Clone)]
pub struct ClientConfig {
    /// Trusted roots for server (and middlebox) certificates.
    pub trust_store: Arc<TrustStore>,
    /// Offered suites, preference order.
    pub suites: Vec<CipherSuite>,
    /// "Current time" for certificate validation (virtual seconds).
    pub current_time: u64,
    /// Extra extensions appended to the ClientHello (mbTLS adds
    /// MiddleboxSupport here).
    pub extra_extensions: Vec<Extension>,
    /// What the peer must prove beyond its certificate chain, if
    /// anything; the ClientHello requests it.
    pub peer_proof: PeerProof,
    /// Offer a SessionTicket extension (empty or cached) to signal
    /// RFC 5077 support.
    pub enable_tickets: bool,
    /// Allow sending application data immediately after the client
    /// Finished (TLS False Start, RFC 7918) without waiting for the
    /// server's.
    pub enable_false_start: bool,
    /// Skip certificate verification entirely (used to model the
    /// broken "trust the proxy blindly" deployments §2.2 criticizes,
    /// and for tests).
    pub danger_disable_cert_verify: bool,
    /// Park the server flight's signature checks — certificate chain
    /// or delegated credential, ServerKeyExchange, and an attestation
    /// quote's two — as one [`mbtls_pki::SignatureCheck`] group
    /// instead of verifying them as a batch on the spot. The driver
    /// must drain `ClientConnection::take_pending_verify` and deliver
    /// the verdict via `resolve_verify`; the connection does not
    /// report established until it does. Lets a multi-session host
    /// batch Ed25519 verification across concurrent handshakes, and
    /// an mbTLS endpoint add a middlebox's chain checks to the group
    /// its secondary connection owes.
    pub defer_verify: bool,
    /// Cached resumption state per server name.
    pub resumption_cache: HashMap<String, ResumptionData>,
}

impl ClientConfig {
    /// A sane default config over the given trust store.
    pub fn new(trust_store: Arc<TrustStore>) -> Self {
        ClientConfig {
            trust_store,
            suites: CipherSuite::ALL.to_vec(),
            current_time: 0,
            extra_extensions: Vec::new(),
            peer_proof: PeerProof::Certificate,
            enable_tickets: true,
            enable_false_start: false,
            danger_disable_cert_verify: false,
            defer_verify: false,
            resumption_cache: HashMap::new(),
        }
    }
}

/// Shared session-ID resumption cache: id → (suite, master secret).
pub type SessionIdCache = Arc<Mutex<HashMap<Vec<u8>, (CipherSuite, Secret)>>>;

/// The key RFC 5077 session tickets are sealed and opened under: an
/// AES-256-GCM key, expanded once when it is made, which every clone
/// of the config shares. The expansion is the only form kept; it wipes
/// itself when the last clone drops.
#[derive(Clone)]
pub struct TicketKey(pub(crate) Arc<AesGcm>);

impl TicketKey {
    /// Expand `key`, wiping the array once it is expanded.
    pub fn new(mut key: [u8; 32]) -> Result<Self, crate::TlsError> {
        let gcm = AesGcm::new(&key);
        ct::zeroize(&mut key);
        Ok(TicketKey(Arc::new(gcm?)))
    }
}

/// Server-side configuration. Cheap to clone via `Arc`.
#[derive(Clone)]
pub struct ServerConfig {
    /// The server's key and certificate chain.
    pub certified_key: Arc<CertifiedKey>,
    /// Acceptable suites, preference order.
    pub suites: Vec<CipherSuite>,
    /// Key under which RFC 5077 session tickets are sealed and opened.
    /// `None`: the server issues no ticket and opens none offered.
    pub ticket_key: Option<TicketKey>,
    /// What this server proves beyond its certificate chain, in
    /// every full handshake.
    pub proof: Proof,
    /// Session-ID resumption cache (id → (suite, master secret)),
    /// shared across all connections of this server.
    pub session_cache: SessionIdCache,
    /// Assign session IDs in full handshakes (enables RFC 5246
    /// session-ID resumption alongside RFC 5077 tickets).
    pub assign_session_ids: bool,
    /// If true, the server aborts the handshake when it sees a
    /// MiddleboxAnnouncement record it does not understand (models
    /// strict legacy stacks; tolerant ones ignore it — paper §3.4
    /// discusses both behaviours).
    pub strict_unknown_records: bool,
}

impl ServerConfig {
    /// A sane default config for the given identity; tickets are on
    /// when `ticket_key` is a key, which is expanded here, once.
    pub fn new(certified_key: Arc<CertifiedKey>, ticket_key: impl Into<Option<[u8; 32]>>) -> Self {
        ServerConfig {
            certified_key,
            suites: CipherSuite::ALL.to_vec(),
            // A 32-byte key always expands.
            ticket_key: ticket_key.into().and_then(|key| TicketKey::new(key).ok()),
            proof: Proof::None,
            session_cache: Arc::new(Mutex::new(HashMap::new())),
            assign_session_ids: false,
            strict_unknown_records: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_crypto::rng::CryptoRng;
    use mbtls_pki::cert::CertificateAuthority;
    use mbtls_pki::KeyUsage;

    #[test]
    fn default_configs_are_reasonable() {
        let mut rng = CryptoRng::from_seed(1);
        let mut ca = CertificateAuthority::new_root("R", 0, 100, &mut rng);
        let ck = CertifiedKey::issue(&mut ca, "s", &[], 0, 100, KeyUsage::Endpoint, &mut rng);

        let cc = ClientConfig::new(Arc::new(TrustStore::new()));
        assert_eq!(cc.suites, CipherSuite::ALL.to_vec());
        assert!(cc.enable_tickets);
        assert!(!cc.danger_disable_cert_verify);
        assert!(cc.extra_extensions.is_empty());

        let sc = ServerConfig::new(Arc::new(ck), [0u8; 32]);
        assert!(sc.ticket_key.is_some());
        assert!(matches!(sc.proof, Proof::None));
        assert!(!sc.strict_unknown_records);
    }
}
