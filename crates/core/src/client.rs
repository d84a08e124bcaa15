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
use mbtls_tls::config::{ClientConfig, PeerProof};
use mbtls_tls::messages::{extension_type, Extension};
use mbtls_tls::record::DirectionState;
use mbtls_tls::session::ResumptionData;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, ClientHandshake, TlsError};

use crate::dataplane::{EndpointDataPlane, HopKeys};
use crate::messages::{KeyMaterial, MiddleboxSupport};
use crate::session::{Admission, MbSession, Role, SharedTls};
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

/// mbTLS client configuration. An mbTLS client always sends the
/// MiddleboxSupport extension; one that should behave as a legacy TLS
/// client is a [`crate::driver::LegacyClient`]. Every session built
/// from one config shares its TLS configs ([`SharedTls`]), so set its
/// fields before building the first.
pub struct MbClientConfig {
    /// Configuration for the primary connection (server trust, suites,
    /// the server's `peer_proof`, resumption cache, ...), read and
    /// written as a [`ClientConfig`].
    pub tls: SharedTls<ClientConfig>,
    /// Trust roots for middlebox certificates.
    pub middlebox_trust: Arc<TrustStore>,
    /// What middleboxes must prove: an attestation on top of their
    /// certificate, or an endpoint-issued session-bound credential in
    /// its place (the mdTLS-style mode, DESIGN.md §6j), or neither —
    /// e.g. middleboxes on trusted in-house hardware.
    pub middlebox_proof: PeerProof,
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
    /// data untouched: an aliased hop gives a middlebox no key to seal
    /// with, so every record leaves as it arrived, and a modification
    /// is an error that fails the middlebox — sealing it would reuse an
    /// AES-GCM nonce the endpoint already spent.
    pub read_only_middleboxes: bool,
    /// Telemetry sink for structured events (None = telemetry off).
    pub telemetry: Option<SharedSink>,
}

impl MbClientConfig {
    /// Defaults over the given server and middlebox trust stores.
    pub fn new(server_trust: Arc<TrustStore>, middlebox_trust: Arc<TrustStore>) -> Self {
        MbClientConfig {
            tls: ClientConfig::new(server_trust).into(),
            middlebox_trust,
            middlebox_proof: PeerProof::Certificate,
            approval: ApprovalPolicy::AllVerified,
            preconfigured: Vec::new(),
            read_only_middleboxes: false,
            telemetry: None,
        }
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
            proof: &self.config.middlebox_proof,
            deferred: self.config.tls.defer_verify,
            approval: &self.config.approval,
            now: self.config.tls.current_time,
        }
    }

    fn secondary_config(&self) -> Arc<ClientConfig> {
        let suites = &self.config.tls.suites;
        self.config.tls.secondary(|| self.admission().secondary_config(suites))
    }

    /// A middlebox announcing itself: its secondary ServerHello
    /// responds to our (shared) primary ClientHello.
    fn unknown_subchannel(session: &mut MbSession<Self>, id: u8) -> Result<(), MbError> {
        let sec_cfg = session.role.secondary_config();
        let conn = ClientConnection::with_reused_hello(sec_cfg, "", session.primary.hello().clone());
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
    /// fast path. Aliasing is a declaration with teeth: an aliased hop
    /// leaves a middlebox no key to seal with, so one that actually
    /// modifies data there fails instead — different plaintext under
    /// an already-spent nonce would be catastrophic GCM nonce reuse.
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

    fn inherit(write: DirectionState, read: DirectionState) -> EndpointDataPlane {
        EndpointDataPlane::client(write, read)
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
        let support = Extension {
            typ: extension_type::MIDDLEBOX_SUPPORT,
            data: MiddleboxSupport {
                preconfigured: config.preconfigured.clone(),
            }
            .encode(),
        };
        let primary =
            ClientConnection::with_extension(config.tls.shared(), server_name, support, &mut rng);
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
