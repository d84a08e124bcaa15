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
use mbtls_pki::{SignatureCheck, TrustStore};
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::config::{AttestationPolicy, ClientConfig, DelegationPolicy};
use mbtls_tls::messages::{extension_type, Extension};
use mbtls_tls::session::ResumptionData;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, ClientHandshake, TlsError};

use crate::dataplane::{EndpointDataPlane, HopKeys};
use crate::driver::PendingVerify;
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

/// mbTLS client configuration.
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
    /// Send the MiddleboxSupport extension at all (false = behave as
    /// a legacy TLS client).
    pub mbtls_enabled: bool,
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
            mbtls_enabled: true,
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

    /// Enable or disable mbTLS (false = behave as legacy TLS client).
    pub fn mbtls_enabled(mut self, enabled: bool) -> Self {
        self.cfg.mbtls_enabled = enabled;
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
    /// Deferred signature-check groups awaiting pickup by the driver
    /// (token 0 = primary connection, 1 + id = middlebox subchannel).
    pending_verifies: Vec<PendingVerify>,
}

impl Role for ClientRole {
    type Handshake = ClientHandshake;
    const PARTY: Party = Party::Client;

    fn admission(&self) -> Admission<'_> {
        Admission {
            trust: &self.config.middlebox_trust,
            delegated: self.config.middlebox_delegation.is_some(),
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
        // Name is unknown until the certificate arrives; chain and
        // name policy are enforced post-handshake by the core's
        // screening.
        sec_cfg.danger_disable_cert_verify = true;
        sec_cfg.attestation_policy = config.middlebox_attestation.clone();
        // Delegated mode: the TLS layer verifies the credential
        // (and its issuer chain) itself and sources the peer key
        // from it; under `defer_verify` those checks surface via
        // `take_pending_verify` and are routed to the driver.
        sec_cfg.delegation_policy = config.middlebox_delegation.clone();
        if config.middlebox_delegation.is_some() {
            sec_cfg.defer_verify = config.tls.defer_verify;
        }
        sec_cfg.enable_tickets = config.tls.enable_tickets;
        let conn = ClientConnection::with_reused_hello(
            Arc::new(sec_cfg),
            "",
            session.primary.hello().clone(),
        );
        session.open_secondary(id, conn);
        Ok(())
    }

    fn surface_deferred(session: &mut MbSession<Self>) {
        // Surface the primary connection's deferred checks.
        if let Some(checks) = session.primary.take_pending_verify() {
            session.role.pending_verifies.push(PendingVerify { token: 0, checks });
        }
        // Surface deferred checks raised *inside* secondary
        // connections (delegated-credential mode under
        // `defer_verify`): the connection withholds `is_established`
        // until the driver resolves them, so these must reach the
        // same batch seam as the primary's.
        for (&id, sec) in session.secondaries.iter_mut() {
            if let Some(checks) = sec.conn.take_pending_verify() {
                sec.deferred_checks = checks.len() as u64;
                session.role
                    .pending_verifies
                    .push(PendingVerify { token: 1 + u32::from(id), checks });
            }
        }
    }

    /// Verify inline (the default), or under `defer_verify` park the
    /// checks for the driver to batch.
    fn discharge(
        session: &mut MbSession<Self>,
        id: u8,
        checks: Vec<SignatureCheck>,
    ) -> Option<bool> {
        if !session.role.config.tls.defer_verify || checks.is_empty() {
            return Some(checks.iter().all(|c| c.check()));
        }
        session.role
            .pending_verifies
            .push(PendingVerify { token: 1 + u32::from(id), checks });
        None
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

    fn take_pending_verifies(session: &mut MbSession<Self>, out: &mut Vec<PendingVerify>) {
        out.append(&mut session.role.pending_verifies);
    }

    fn resolve_verify(session: &mut MbSession<Self>, token: u32, valid: bool) {
        if token == 0 {
            session.primary.resolve_verify(valid);
        } else {
            let id = (token - 1) as u8;
            let subject = session
                .secondaries
                .get_mut(&id)
                .and_then(|sec| sec.pending_subject.take());
            match (subject, valid) {
                (Some(name), true) => session.approve(id, name),
                (Some(_), false) => session.reject(id),
                (None, valid) => {
                    // No screening subject outstanding: the deferred
                    // group came from inside the secondary connection
                    // itself (delegated-credential checks under
                    // `defer_verify`) — forward the verdict there.
                    if let Some(sec) = session.secondaries.get_mut(&id) {
                        sec.conn.resolve_verify(valid);
                        if !valid {
                            session.emit(EventKind::CredentialRejected {
                                subchannel: id as u64,
                            });
                            session.reject(id);
                        }
                    }
                }
            }
        }
        session.pump();
    }
}

impl MbSession<ClientRole> {
    /// Open a session toward `server_name`. The ClientHello (with the
    /// MiddleboxSupport extension) is queued immediately.
    pub fn new(config: Arc<MbClientConfig>, server_name: &str, mut rng: CryptoRng) -> Self {
        // Primary TLS config plus the MiddleboxSupport extension.
        let mut tls_config = config.tls.clone();
        if config.mbtls_enabled {
            tls_config.extra_extensions.push(Extension {
                typ: extension_type::MIDDLEBOX_SUPPORT,
                data: MiddleboxSupport {
                    preconfigured: config.preconfigured.clone(),
                }
                .encode(),
            });
        }
        let primary = ClientConnection::new(Arc::new(tls_config), server_name, &mut rng);
        let telemetry = config.telemetry.clone();
        let role = ClientRole {
            config,
            hello_reported: false,
            pending_verifies: Vec::new(),
        };
        MbSession::around(role, primary, rng, telemetry)
    }

    /// Drain deferred signature-check groups (token 0 = primary, 1 +
    /// subchannel id = middlebox approval); the caller must deliver
    /// each verdict through [`MbClientSession::resolve_verify`].
    pub fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        ClientRole::take_pending_verifies(self, out)
    }

    /// Deliver the verdict for a deferred group. A failed primary
    /// verdict fails the session; a failed middlebox verdict demotes
    /// that middlebox to a relay (same as an inline chain failure).
    pub fn resolve_verify(&mut self, token: u32, valid: bool) {
        ClientRole::resolve_verify(self, token, valid)
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
