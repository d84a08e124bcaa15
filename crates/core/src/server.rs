//! The mbTLS server endpoint.
//!
//! Accepts the primary TLS handshake from the client and, upon
//! receiving MiddleboxAnnouncement records from on-path server-side
//! middleboxes, initiates one secondary TLS handshake per middlebox —
//! with the *server playing the TLS client role*, which is why each
//! additional server-side middlebox costs roughly a client handshake
//! (~20% of a server handshake; paper §5.2). After all handshakes it
//! distributes per-hop keys exactly like the client side.

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::TrustStore;
use mbtls_telemetry::{Party, SharedSink};
use mbtls_tls::config::{ClientConfig, PeerProof, ServerConfig};
use mbtls_tls::record::{ContentType, DirectionState};
use mbtls_tls::{ClientConnection, ServerConnection, ServerHandshake, TlsError};

use crate::client::ApprovalPolicy;
use crate::dataplane::{EndpointDataPlane, HopKeys};
use crate::messages::KeyMaterial;
use crate::session::{Admission, MbSession, Role, SharedTls};
use crate::MbError;

/// mbTLS server configuration. An mbTLS server always accepts
/// MiddleboxAnnouncements; one that should tolerate but ignore them,
/// as a legacy TLS server does, is a [`crate::driver::LegacyServer`].
/// Every session built from one config shares its TLS configs
/// ([`SharedTls`]), so set its fields before building the first.
pub struct MbServerConfig {
    /// Configuration for the primary connection (certificate, suites,
    /// tickets, proof, ...), read and written as a [`ServerConfig`].
    pub tls: SharedTls<ServerConfig>,
    /// Trust roots for middlebox certificates.
    pub middlebox_trust: Arc<TrustStore>,
    /// What middleboxes must prove (see
    /// [`crate::client::MbClientConfig::middlebox_proof`]).
    pub middlebox_proof: PeerProof,
    /// Approval policy for announced middleboxes.
    pub approval: ApprovalPolicy,
    /// "Current time" for middlebox certificate validation.
    pub current_time: u64,
    /// Telemetry sink for structured events (None = telemetry off).
    pub telemetry: Option<SharedSink>,
}

impl MbServerConfig {
    /// Defaults over the given identity and middlebox trust store.
    pub fn new(tls: ServerConfig, middlebox_trust: Arc<TrustStore>) -> Self {
        MbServerConfig {
            tls: tls.into(),
            middlebox_trust,
            middlebox_proof: PeerProof::Certificate,
            approval: ApprovalPolicy::AllVerified,
            current_time: 0,
            telemetry: None,
        }
    }
}

/// The mbTLS server session: [`MbSession`] in the server role.
pub type MbServerSession = MbSession<ServerRole>;

/// What makes an [`MbSession`] the server end.
pub struct ServerRole {
    config: Arc<MbServerConfig>,
    next_subchannel: u8,
}

impl Role for ServerRole {
    type Handshake = ServerHandshake;
    const PARTY: Party = Party::Server;

    fn admission(&self) -> Admission<'_> {
        Admission {
            trust: &self.config.middlebox_trust,
            proof: &self.config.middlebox_proof,
            deferred: false,
            approval: &self.config.approval,
            now: self.config.current_time,
        }
    }

    fn secondary_config(&self) -> Arc<ClientConfig> {
        let suites = &self.config.tls.suites;
        self.config.tls.secondary(|| self.admission().secondary_config(suites))
    }

    /// A middlebox announced itself: start a secondary handshake with
    /// the server in the TLS-client role.
    fn claim_record(
        session: &mut MbSession<Self>,
        content_type: Option<ContentType>,
    ) -> Result<bool, MbError> {
        if content_type != Some(ContentType::MbtlsMiddleboxAnnouncement) {
            return Ok(false);
        }
        if session.is_ready() {
            return Err(MbError::unexpected_state("announcement after key distribution"));
        }
        let id = session.role.next_subchannel;
        let next = id.checked_add(1).ok_or(MbError::bad_hop("too many middleboxes"))?;
        let sec_cfg = session.role.secondary_config();
        session.role.next_subchannel = next;
        let conn = ClientConnection::new(sec_cfg, "", &mut session.rng);
        session.open_secondary(id, conn);
        Ok(true)
    }

    fn unknown_subchannel(_: &mut MbSession<Self>, _id: u8) -> Result<(), MbError> {
        Err(MbError::bad_hop("encapsulated record on unknown subchannel"))
    }

    /// Server outward: the middlebox at subchannel 1 is adjacent to
    /// the server (it claimed the first Encapsulated ClientHello),
    /// ascending IDs march toward the bridge.
    fn order_path(ids: &mut [u8]) {
        ids.sort_unstable();
    }

    fn key_material(near: &HopKeys, far: &HopKeys) -> KeyMaterial {
        KeyMaterial {
            toward_server_hop: near.clone(),
            toward_client_hop: far.clone(),
        }
    }

    fn data_plane(hop: &HopKeys) -> Result<EndpointDataPlane, TlsError> {
        EndpointDataPlane::for_server(hop)
    }

    fn inherit(write: DirectionState, read: DirectionState) -> EndpointDataPlane {
        EndpointDataPlane::server(write, read)
    }

    /// The primary connection receives nothing post-handshake, so its
    /// take is a free swap at steady state.
    fn primary_plaintext(session: &mut MbSession<Self>) -> Vec<u8> {
        session.primary.take_plaintext()
    }
}

impl MbSession<ServerRole> {
    /// New session awaiting a ClientHello.
    pub fn new(config: Arc<MbServerConfig>, rng: CryptoRng) -> Self {
        let primary = ServerConnection::new(config.tls.shared());
        let telemetry = config.telemetry.clone();
        let role = ServerRole {
            config,
            next_subchannel: 1,
        };
        MbSession::around(role, primary, rng, telemetry)
    }
}
