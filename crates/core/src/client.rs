//! The mbTLS client endpoint.
//!
//! Runs the primary TLS handshake with the server and, multiplexed
//! over the same byte stream in Encapsulated records, one secondary
//! TLS handshake per client-side middlebox (pre-configured or
//! discovered in-band). After all handshakes complete it generates
//! unique per-hop keys, distributes them over the secondary sessions,
//! and switches to the per-hop data plane (paper §3.4, Figures 3-4).

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::TrustStore;
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::config::{AttestationPolicy, ClientConfig, DelegationPolicy};
use mbtls_tls::messages::{extension_type, Extension};
use mbtls_tls::session::ResumptionData;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, ClientHandshake, TlsError};

use crate::dataplane::{EndpointDataPlane, HopKeys};
use crate::messages::{KeyMaterial, MiddleboxSupport};
use crate::session::{Admission, MbSession, Role};
use crate::MbError;

/// How the client decides whether a (verified) middlebox may join.
#[derive(Clone)]
pub enum ApprovalPolicy {
    /// Any middlebox with a valid certificate (and attestation, if
    /// required) may join — the "pre-configured to trust a known set"
    /// deployment (paper §3.5 Trust).
    AllVerified,
    /// Only middleboxes whose certificate subject is in this list.
    AllowList(Vec<String>),
    /// Refuse all middleboxes (they fall back to pure relays).
    DenyAll,
}

impl ApprovalPolicy {
    /// Reject empty allow-lists and duplicate allow-list entries.
    pub(crate) fn validate(&self) -> Result<(), MbError> {
        if let ApprovalPolicy::AllowList(names) = self {
            if names.is_empty() {
                return Err(MbError::Config(
                    "approval allow-list is empty (use DenyAll to refuse all middleboxes)".into(),
                ));
            }
            for (i, name) in names.iter().enumerate() {
                if names[..i].contains(name) {
                    return Err(MbError::Config(format!("duplicate allow-list entry `{name}`")));
                }
            }
        }
        Ok(())
    }
}

/// mbTLS client configuration. An mbTLS client always sends the
/// MiddleboxSupport extension; one that should behave as a legacy TLS
/// client is a [`crate::driver::LegacyClient`].
pub struct MbClientConfig {
    /// Configuration for the primary connection (server trust, suites,
    /// server attestation policy, resumption cache, ...).
    pub tls: ClientConfig,
    /// Trust roots for middlebox certificates.
    pub middlebox_trust: Arc<TrustStore>,
    /// Attestation policy middleboxes must satisfy (None = attestation
    /// not required — e.g. middleboxes on trusted in-house hardware).
    pub middlebox_attestation: Option<AttestationPolicy>,
    /// Delegated-credential policy middleboxes must satisfy (the
    /// mdTLS-style alternative to attestation, DESIGN.md §6j). When
    /// set, middleboxes present an endpoint-issued session-bound
    /// credential instead of a certificate chain; mutually exclusive
    /// with `middlebox_attestation`.
    pub middlebox_delegation: Option<DelegationPolicy>,
    /// Approval policy applied after verification.
    pub approval: ApprovalPolicy,
    /// Names of middleboxes known a priori (sent in the
    /// MiddleboxSupport extension).
    pub preconfigured: Vec<String>,
    /// Declare every approved middlebox non-modifying and reuse the
    /// bridge (endpoint) keys for all hops instead of generating fresh
    /// per-hop keys (mbTLS §3.4 key reuse). With aliased keys a
    /// middlebox whose processor declares itself read-only can verify
    /// tags and forward records unchanged — the fast path. Only
    /// enable when *every* middlebox on the path leaves application
    /// data untouched: on aliased keys the data plane permits a
    /// reseal only when it is byte-identical to the inbound record,
    /// and errors out (failing the session) on any actual
    /// modification — re-sealing different plaintext there would
    /// reuse an AES-GCM nonce the endpoint already spent.
    pub read_only_middleboxes: bool,
    /// Telemetry sink for structured events (None = telemetry off).
    pub telemetry: Option<SharedSink>,
}

impl MbClientConfig {
    /// Defaults over the given server and middlebox trust stores.
    pub fn new(server_trust: Arc<TrustStore>, middlebox_trust: Arc<TrustStore>) -> Self {
        MbClientConfig {
            tls: ClientConfig::new(server_trust),
            middlebox_trust,
            middlebox_attestation: None,
            middlebox_delegation: None,
            approval: ApprovalPolicy::AllVerified,
            preconfigured: Vec::new(),
            read_only_middleboxes: false,
            telemetry: None,
        }
    }

    /// Start a validating builder over the given trust stores —
    /// the preferred construction path (struct-literal construction
    /// skips validation).
    pub fn builder(
        server_trust: Arc<TrustStore>,
        middlebox_trust: Arc<TrustStore>,
    ) -> MbClientConfigBuilder {
        MbClientConfigBuilder { cfg: MbClientConfig::new(server_trust, middlebox_trust) }
    }
}

/// Validating builder for [`MbClientConfig`].
pub struct MbClientConfigBuilder {
    cfg: MbClientConfig,
}

impl MbClientConfigBuilder {
    /// Replace the primary-connection TLS configuration.
    pub fn tls(mut self, tls: ClientConfig) -> Self {
        self.cfg.tls = tls;
        self
    }

    /// Require middleboxes to satisfy this attestation policy.
    pub fn middlebox_attestation(mut self, policy: AttestationPolicy) -> Self {
        self.cfg.middlebox_attestation = Some(policy);
        self
    }

    /// Require middleboxes to present a delegated credential under
    /// this policy instead of a certificate chain (mutually exclusive
    /// with [`MbClientConfigBuilder::middlebox_attestation`]).
    pub fn middlebox_delegation(mut self, policy: DelegationPolicy) -> Self {
        self.cfg.middlebox_delegation = Some(policy);
        self
    }

    /// Set the post-verification approval policy.
    pub fn approval(mut self, approval: ApprovalPolicy) -> Self {
        self.cfg.approval = approval;
        self
    }

    /// Add a middlebox known a priori (sent in MiddleboxSupport).
    pub fn preconfigured(mut self, name: impl Into<String>) -> Self {
        self.cfg.preconfigured.push(name.into());
        self
    }

    /// Reuse the bridge keys for every hop so read-only middleboxes
    /// can forward records without re-encryption (mbTLS §3.4). Only
    /// safe when no middlebox on the path modifies application data:
    /// a modification on aliased keys is rejected by the middlebox
    /// data plane (the session errors) rather than re-sealed.
    pub fn read_only_middleboxes(mut self, read_only: bool) -> Self {
        self.cfg.read_only_middleboxes = read_only;
        self
    }

    /// Attach a telemetry sink.
    pub fn telemetry(mut self, sink: SharedSink) -> Self {
        self.cfg.telemetry = Some(sink);
        self
    }

    /// Validate and build. Rejects empty or duplicate middlebox names
    /// and empty allow-lists (use [`ApprovalPolicy::DenyAll`] to
    /// refuse every middlebox explicitly).
    pub fn build(self) -> Result<MbClientConfig, MbError> {
        if self.cfg.middlebox_attestation.is_some() && self.cfg.middlebox_delegation.is_some() {
            return Err(MbError::Config(
                "middlebox attestation and delegation are mutually exclusive auth modes".into(),
            ));
        }
        for (i, name) in self.cfg.preconfigured.iter().enumerate() {
            if name.is_empty() {
                return Err(MbError::Config("preconfigured middlebox name is empty".into()));
            }
            if self.cfg.preconfigured[..i].contains(name) {
                return Err(MbError::Config(format!(
                    "duplicate preconfigured middlebox `{name}`"
                )));
            }
        }
        self.cfg.approval.validate()?;
        Ok(self.cfg)
    }
}

/// Information about a middlebox that joined (or tried to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiddleboxInfo {
    /// Subchannel ID.
    pub subchannel: u8,
    /// Certificate subject, once verified.
    pub name: Option<String>,
    /// Whether it received session keys.
    pub approved: bool,
}

/// The mbTLS client session: [`MbSession`] in the client role.
pub type MbClientSession = MbSession<ClientRole>;

/// What makes an [`MbSession`] the client end.
pub struct ClientRole {
    config: Arc<MbClientConfig>,
    hello_reported: bool,
}

impl Role for ClientRole {
    type Handshake = ClientHandshake;
    const PARTY: Party = Party::Client;

    fn admission(&self) -> Admission<'_> {
        Admission {
            trust: &self.config.middlebox_trust,
            delegated: self.config.middlebox_delegation.is_some(),
            deferred: self.config.tls.defer_verify,
            approval: &self.config.approval,
            now: self.config.tls.current_time,
        }
    }

    /// A middlebox announcing itself: its secondary ServerHello
    /// responds to our (shared) primary ClientHello.
    fn unknown_subchannel(session: &mut MbSession<Self>, id: u8) -> Result<(), MbError> {
        if session.is_ready() {
            return Err(MbError::unexpected_state("middlebox announced after key distribution"));
        }
        let config = &session.role.config;
        let mut sec_cfg = ClientConfig::new(config.middlebox_trust.clone());
        sec_cfg.suites = config.tls.suites.clone();
        sec_cfg.current_time = config.tls.current_time;
        // Name is unknown until the certificate arrives; the chain
        // is checked by the session, which is this connection's
        // driver: the signature checks its server flight owes are
        // parked for `MbSession::collect_owed` to add the chain's to.
        sec_cfg.danger_disable_cert_verify = true;
        sec_cfg.defer_verify = true;
        sec_cfg.attestation_policy = config.middlebox_attestation.clone();
        // Delegated mode: the TLS layer checks the credential (and
        // its issuer chain) and sources the peer key from it.
        sec_cfg.delegation_policy = config.middlebox_delegation.clone();
        sec_cfg.enable_tickets = config.tls.enable_tickets;
        let conn = ClientConnection::with_reused_hello(
            Arc::new(sec_cfg),
            "",
            session.primary.hello().clone(),
        );
        session.open_secondary(id, conn);
        Ok(())
    }

    /// Client outward: the middlebox nearest the client claimed the
    /// *highest* subchannel ID (IDs are assigned nearest-server-first
    /// as the ServerHello travels back — §3.4).
    fn order_path(ids: &mut [u8]) {
        ids.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// When the path is declared read-only, every hop aliases the
    /// bridge keys so middleboxes can take the tag-verify-and-forward
    /// fast path. Aliasing is a declaration with teeth: a middlebox
    /// that actually modifies data on an aliased hop is refused by its
    /// data plane (the session fails) instead of re-sealing —
    /// different plaintext under an already-spent nonce would be
    /// catastrophic GCM nonce reuse.
    fn alias_hops(&self) -> bool {
        self.config.read_only_middleboxes
    }

    fn key_material(near: &HopKeys, far: &HopKeys) -> KeyMaterial {
        KeyMaterial {
            toward_client_hop: near.clone(),
            toward_server_hop: far.clone(),
        }
    }

    fn data_plane(hop: &HopKeys) -> Result<EndpointDataPlane, TlsError> {
        EndpointDataPlane::for_client(hop)
    }

    fn flushed(session: &mut MbSession<Self>, bytes: u64) {
        if !session.role.hello_reported {
            session.role.hello_reported = true;
            session.emit(EventKind::ClientHelloSent { bytes });
        }
    }
}

impl MbSession<ClientRole> {
    /// Open a session toward `server_name`. The ClientHello (with the
    /// MiddleboxSupport extension) is queued immediately.
    pub fn new(config: Arc<MbClientConfig>, server_name: &str, mut rng: CryptoRng) -> Self {
        // Primary TLS config plus the MiddleboxSupport extension.
        let mut tls_config = config.tls.clone();
        tls_config.extra_extensions.push(Extension {
            typ: extension_type::MIDDLEBOX_SUPPORT,
            data: MiddleboxSupport {
                preconfigured: config.preconfigured.clone(),
            }
            .encode(),
        });
        let primary = ClientConnection::new(Arc::new(tls_config), server_name, &mut rng);
        let telemetry = config.telemetry.clone();
        let role = ClientRole { config, hello_reported: false };
        MbSession::around(role, primary, rng, telemetry)
    }

    /// Resumption data for the server (cache under the server name).
    pub fn resumption_data(&self) -> Option<ResumptionData> {
        self.primary.resumption_data()
    }

    /// The primary connection's negotiated suite (once known).
    pub fn suite(&self) -> Option<CipherSuite> {
        self.primary.secrets().map(|s| s.suite)
    }
}
