//! The mbTLS endpoint session, written once for both ends.
//!
//! mbTLS is symmetric by construction (paper §3.4, Figures 3-4): each
//! endpoint runs one primary handshake, one secondary handshake per
//! middlebox on its own side — always in the TLS *client* role — and
//! then hands per-hop keys to that side. [`MbSession`] is that
//! endpoint: it owns the primary connection, the secondary sessions
//! (each only until key delivery), the record router, approval,
//! rejection, key distribution and the data plane. What differs
//! between the two ends is spelled out by the crate-private `Role`
//! trait and nothing else; the shared code
//! never asks which end it is. [`crate::client::MbClientSession`] and
//! [`crate::server::MbServerSession`] are `MbSession` in its two
//! roles.
//!
//! The session is generic over the role (which names the primary
//! connection's TLS role), so every call on the path from
//! [`Endpoint::feed`] to the data plane's open is
//! statically dispatched and inlines exactly as the two hand-written
//! copies did.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use mbtls_crypto::ed25519::verify_checks;
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::{KeyUsage, SignatureCheck, TrustStore};
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::alert::{Alert, AlertDescription};
use mbtls_tls::config::{ClientConfig, PeerProof};
use mbtls_tls::record::{frame_plaintext, ContentType, DirectionState, Record, RecordReader};
use mbtls_tls::session::ResumptionData;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, Connection, Handshake, TlsError};

use crate::client::{ApprovalPolicy, MiddleboxInfo};
use crate::dataplane::{fresh_hop_keys, EndpointDataPlane, HopKeys};
use crate::driver::{Endpoint, PendingVerify};
use crate::messages::{Encapsulated, KeyMaterial, SecondaryMessage};
use crate::MbError;

/// An endpoint config's primary TLS config
/// ([`crate::client::MbClientConfig::tls`],
/// [`crate::server::MbServerConfig::tls`]), read and written as the
/// config itself and held behind an `Arc` that every primary
/// connection built from the endpoint config shares. A write while
/// connections share it copies it first, so they keep what they were
/// built with. Beside it is the config every secondary connection of
/// the endpoint config shares, built by the first session that needs
/// one from the whole endpoint config. A write through this wrapper
/// drops that one, but the endpoint config's other fields are read by
/// that build only: set them before building sessions.
pub struct SharedTls<T> {
    config: Arc<T>,
    secondary: OnceLock<Arc<ClientConfig>>,
}

impl<T: Clone> SharedTls<T> {
    /// The config itself, copied if primary connections still share it.
    pub fn into_inner(self) -> T {
        Arc::unwrap_or_clone(self.config)
    }

    /// The primary connections' config.
    pub(crate) fn shared(&self) -> Arc<T> {
        self.config.clone()
    }

    /// The secondary connections' config: `build`'s, on first use.
    pub(crate) fn secondary(&self, build: impl FnOnce() -> ClientConfig) -> Arc<ClientConfig> {
        self.secondary.get_or_init(|| Arc::new(build())).clone()
    }
}

impl<T> From<T> for SharedTls<T> {
    fn from(config: T) -> Self {
        SharedTls { config: Arc::new(config), secondary: OnceLock::new() }
    }
}

impl<T> Deref for SharedTls<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.config
    }
}

impl<T: Clone> DerefMut for SharedTls<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.secondary.take();
        Arc::make_mut(&mut self.config)
    }
}

/// How an endpoint verifies and approves its middleboxes, borrowed
/// from the role's configuration.
pub(crate) struct Admission<'a> {
    /// Trust roots for middlebox certificates.
    pub(crate) trust: &'a Arc<TrustStore>,
    /// What middleboxes must prove beyond their certificate, if
    /// anything.
    pub(crate) proof: &'a PeerProof,
    /// Park owed signature checks for the driver to batch across
    /// sessions instead of verifying each group here.
    pub(crate) deferred: bool,
    /// Approval policy applied after verification.
    pub(crate) approval: &'a ApprovalPolicy,
    /// "Current time" for middlebox certificate validation.
    pub(crate) now: u64,
}

impl Admission<'_> {
    /// Delegated mode: the middlebox's identity is its credential,
    /// whose checks the TLS layer owes; there is no chain to add.
    fn delegated(&self) -> bool {
        matches!(self.proof, PeerProof::Delegation(_))
    }

    /// The TLS config of a secondary session, in the client role,
    /// offering `suites`. The session is the connection's driver: it
    /// checks the middlebox's chain itself and discharges the
    /// signature checks the server flight owes together with the
    /// chain's ([`MbSession::collect_owed`]), so the connection skips
    /// the chain and parks its checks. In delegated mode the TLS layer
    /// checks the credential (and its issuer chain) and keys the
    /// handshake off it. Middleboxes issue no tickets, so the
    /// connection offers none. The name is unknown until the
    /// certificate arrives.
    pub(crate) fn secondary_config(&self, suites: &[CipherSuite]) -> ClientConfig {
        ClientConfig {
            suites: suites.to_vec(),
            current_time: self.now,
            peer_proof: self.proof.clone(),
            enable_tickets: false,
            danger_disable_cert_verify: true,
            defer_verify: true,
            ..ClientConfig::new(self.trust.clone())
        }
    }
}

impl ApprovalPolicy {
    fn admits(&self, subject: &str) -> bool {
        match self {
            ApprovalPolicy::AllVerified => true,
            ApprovalPolicy::AllowList(names) => names.iter().any(|n| n == subject),
            ApprovalPolicy::DenyAll => false,
        }
    }
}

/// Everything that differs between the client and the server end of
/// an mbTLS session. Hooks take the whole session; the role's own
/// state is `session.role`.
pub(crate) trait Role: Sized + 'static {
    /// The TLS role of the primary session.
    type Handshake: Handshake;
    /// The party this end reports telemetry as.
    const PARTY: Party;

    /// How this end verifies and approves middleboxes.
    fn admission(&self) -> Admission<'_>;

    /// The TLS config every secondary session of this endpoint config
    /// runs under ([`Admission::secondary_config`]), built once.
    fn secondary_config(&self) -> Arc<ClientConfig>;

    /// A record arrived that is neither Encapsulated nor data-plane
    /// traffic. Returns true if the role consumed it; otherwise it
    /// belongs to the primary connection.
    fn claim_record(_: &mut MbSession<Self>, _: Option<ContentType>) -> Result<bool, MbError> {
        Ok(false)
    }

    /// An Encapsulated record arrived on a subchannel no secondary
    /// session owns: open one with [`MbSession::open_secondary`], or
    /// refuse.
    fn unknown_subchannel(session: &mut MbSession<Self>, id: u8) -> Result<(), MbError>;

    /// Put approved subchannel IDs in path order, this end outward.
    fn order_path(ids: &mut [u8]);

    /// Whether every hop reuses the bridge keys instead of drawing
    /// fresh ones.
    fn alias_hops(&self) -> bool {
        false
    }

    /// The KeyMaterial for a middlebox between `near` (the hop toward
    /// this end) and `far` (the hop toward the bridge).
    fn key_material(near: &HopKeys, far: &HopKeys) -> KeyMaterial;

    /// This end's data plane over fresh adjacent-hop keys.
    fn data_plane(hop: &HopKeys) -> Result<EndpointDataPlane, TlsError>;

    /// This end's data plane over the bridge hop, on the ciphers the
    /// primary connection gave up: `write` seals what this end sends,
    /// `read` opens what it receives.
    fn inherit(write: DirectionState, read: DirectionState) -> EndpointDataPlane;

    /// `bytes` wire bytes were just flushed (`BytesOut` not yet
    /// reported).
    fn flushed(_: &mut MbSession<Self>, _bytes: u64) {}

    /// Application data the primary connection received before the
    /// data plane took over.
    fn primary_plaintext(_: &mut MbSession<Self>) -> Vec<u8> {
        Vec::new()
    }
}

/// State of one running secondary (endpoint ↔ middlebox) session.
struct Secondary {
    conn: ClientConnection,
    /// What [`MbSession::middleboxes`] reports: the subchannel, the
    /// subject once verified, and whether it is approved for keys.
    info: MiddleboxInfo,
    /// Explicitly rejected (alert sent).
    rejected: bool,
    /// The signature checks this session owes — its flight's and its
    /// certificate chain's, one group — came back verified.
    authenticated: bool,
    /// Signature checks this secondary routed through the driver's
    /// batch seam (0 = the group was verified here). Telemetry only.
    deferred_checks: u64,
}

impl Secondary {
    /// Approved or refused: nothing left to screen.
    fn settled(&self) -> bool {
        self.info.name.is_some() || self.rejected
    }

    /// Wrap whatever this session has queued for the wire into
    /// Encapsulated records on its subchannel, appended to `out`.
    fn flush_wrapped(&mut self, out: &mut Vec<u8>) {
        let bytes = self.conn.take_outgoing();
        if !bytes.is_empty() {
            wrap_records(self.info.subchannel, &bytes, out);
        }
    }
}

/// One middlebox's subchannel at this end. Its secondary session
/// exists only to deliver the middlebox's keys, so it lives until key
/// delivery and no longer. While it runs it is boxed: a
/// `ClientConnection` is ~2.4 KB, and a session holds one small slot
/// per middlebox rather than a connection-sized one.
enum Subchannel {
    /// The secondary handshake is running, or its keys are not yet
    /// sent.
    Running(Box<Secondary>),
    /// Keys delivered; the connection is gone.
    Done(MiddleboxInfo),
}

impl Subchannel {
    fn info(&self) -> &MiddleboxInfo {
        match self {
            Subchannel::Running(sec) => &sec.info,
            Subchannel::Done(info) => info,
        }
    }

    fn running(&self) -> Option<&Secondary> {
        match self {
            Subchannel::Running(sec) => Some(sec),
            Subchannel::Done(_) => None,
        }
    }

    fn running_mut(&mut self) -> Option<&mut Secondary> {
        match self {
            Subchannel::Running(sec) => Some(sec),
            Subchannel::Done(_) => None,
        }
    }
}

/// The running secondary session on subchannel `id`.
fn find(secondaries: &[Subchannel], id: u8) -> Option<&Secondary> {
    secondaries.iter().filter_map(Subchannel::running).find(|sec| sec.info.subchannel == id)
}

fn find_mut(secondaries: &mut [Subchannel], id: u8) -> Option<&mut Secondary> {
    secondaries
        .iter_mut()
        .filter_map(Subchannel::running_mut)
        .find(|sec| sec.info.subchannel == id)
}

/// One end of an mbTLS session; which end is the role `R`
/// ([`crate::client::ClientRole`] or [`crate::server::ServerRole`]).
// `Role` is crate-private on purpose: a session has two ends and no
// third can be added from outside.
#[allow(private_bounds)]
pub struct MbSession<R: Role> {
    /// The role's own state.
    pub(crate) role: R,
    pub(crate) rng: CryptoRng,

    pub(crate) primary: Connection<R::Handshake>,
    /// One entry per middlebox, in ascending subchannel order.
    secondaries: Vec<Subchannel>,
    reader: RecordReader,
    out: Vec<u8>,

    /// Signature-check groups parked for the driver (token 0 = the
    /// primary connection, 1 + id = middlebox subchannel `id`).
    pending_verifies: Vec<PendingVerify>,

    /// Present once keys are distributed.
    dataplane: Option<EndpointDataPlane>,
    error: Option<MbError>,

    telemetry: Option<SharedSink>,
}

#[allow(private_bounds)]
impl<R: Role> MbSession<R> {
    /// A session around `primary`, no middleboxes yet.
    pub(crate) fn around(
        role: R,
        primary: Connection<R::Handshake>,
        rng: CryptoRng,
        telemetry: Option<SharedSink>,
    ) -> Self {
        MbSession {
            role,
            rng,
            primary,
            secondaries: Vec::new(),
            reader: RecordReader::new(),
            out: Vec::new(),
            pending_verifies: Vec::new(),
            dataplane: None,
            error: None,
            telemetry,
        }
    }

    pub(crate) fn emit(&self, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.emit(R::PARTY, kind);
        }
    }

    /// Route one record: a post-handshake data record is opened from
    /// where it sits onto the received plaintext, anything else is fed
    /// onward byte for byte.
    fn route(&mut self, record: Record<'_>) -> Result<(), MbError> {
        match (record.content_type(), &mut self.dataplane) {
            // Post-handshake records (data and close alerts) are
            // protected under the adjacent hop's keys.
            (Some(ContentType::ApplicationData | ContentType::Alert), Some(dp)) => {
                Ok(dp.feed_record(record)?)
            }
            _ => self.route_record(record),
        }
    }

    fn route_record(&mut self, record: Record<'_>) -> Result<(), MbError> {
        let content_type = record.content_type();
        if content_type == Some(ContentType::MbtlsEncapsulated) {
            let (id, inner) = Encapsulated::split(record.body())?;
            return self.handle_encapsulated(id, inner);
        }
        if R::claim_record(self, content_type)? {
            return Ok(());
        }
        // Primary-session record (handshake, CCS, alert, or
        // pre-dataplane application data).
        self.primary
            .feed_incoming(record.wire(), &mut self.rng)
            .map_err(MbError::Tls)?;
        // Anything the primary surfaced as non-standard (e.g. a stray
        // announcement) is ignored.
        let _ = self.primary.take_nonstandard_records();
        Ok(())
    }

    /// One inner record for the secondary session on subchannel `id`.
    /// Key delivery ended every secondary session, so after it an
    /// Encapsulated record is a protocol violation, on any subchannel.
    fn handle_encapsulated(&mut self, id: u8, inner: &[u8]) -> Result<(), MbError> {
        if self.ready() {
            return Err(MbError::bad_hop("encapsulated record after key delivery"));
        }
        if find(&self.secondaries, id).is_none() {
            R::unknown_subchannel(self, id)?;
        }
        let sec = find_mut(&mut self.secondaries, id)
            .ok_or_else(|| MbError::unexpected_state("secondary session vanished"))?;
        if sec.rejected {
            return Ok(());
        }
        if let Err(e) = sec.conn.feed_incoming(inner, &mut self.rng) {
            // A failed secondary demotes the middlebox to a relay; the
            // session as a whole survives.
            sec.rejected = true;
            if matches!(e, TlsError::Credential(_)) {
                self.emit(EventKind::CredentialRejected { subchannel: id as u64 });
            }
        }
        Ok(())
    }

    /// Start tracking a secondary session on subchannel `id`, and
    /// wrap whatever it has queued at once (a server end's fresh
    /// ClientHello, which the announcing middlebox claims).
    pub(crate) fn open_secondary(&mut self, id: u8, conn: ClientConnection) {
        let at = self.secondaries.partition_point(|sub| sub.info().subchannel < id);
        let info = MiddleboxInfo { subchannel: id, name: None, approved: false };
        let mut sec = Secondary {
            conn,
            info,
            rejected: false,
            authenticated: false,
            deferred_checks: 0,
        };
        sec.flush_wrapped(&mut self.out);
        self.secondaries.insert(at, Subchannel::Running(Box::new(sec)));
        self.emit(EventKind::MiddleboxAnnouncement {
            count: self.secondaries.len() as u64,
        });
        self.emit(EventKind::SecondaryHandshakeStart { subchannel: id as u64 });
    }

    /// Advance internal state: drain secondary outputs, verify and
    /// approve established secondaries, distribute keys when ready.
    pub(crate) fn pump(&mut self) {
        for sec in self.secondaries.iter_mut().filter_map(Subchannel::running_mut) {
            sec.flush_wrapped(&mut self.out);
        }

        self.collect_owed();

        // Approval for newly established secondaries, lowest
        // subchannel first; either outcome settles the one it found.
        while let Some(id) = self
            .secondaries
            .iter()
            .filter_map(Subchannel::running)
            .find(|sec| sec.conn.is_established() && !sec.settled())
            .map(|sec| sec.info.subchannel)
        {
            match self.screen(id) {
                Ok(name) => self.approve(id, name),
                Err(_) => self.reject(id),
            }
        }

        // Key distribution once everything is established.
        if !self.ready() && self.primary.is_established() {
            let all_done = self
                .secondaries
                .iter()
                .filter_map(Subchannel::running)
                .all(|s| s.rejected || (s.conn.is_established() && s.info.approved));
            if all_done {
                if let Err(e) = self.distribute_keys() {
                    self.error = Some(e);
                }
            }
        }
    }

    /// Pick up the signature checks the TLS connections parked with
    /// their server flights and discharge each group once: the
    /// primary's as soon as it is parked, a secondary's when its
    /// handshake has run to its end, with the checks its certificate
    /// chain owes added. The session is the driver of its own
    /// secondaries, so attested and delegated middleboxes, verified
    /// here or deferred further, all take this one route.
    fn collect_owed(&mut self) {
        if let Some(checks) = self.primary.take_pending_verify() {
            self.discharge(0, checks);
        }
        while let Some((id, mut checks)) = self
            .secondaries
            .iter_mut()
            .filter_map(Subchannel::running_mut)
            .filter(|sec| sec.conn.awaiting_verdict() && !sec.rejected)
            .find_map(|sec| Some((sec.info.subchannel, sec.conn.take_pending_verify()?)))
        {
            match self.chain_checks(id) {
                Ok(chain) => {
                    checks.extend(chain);
                    self.discharge(1 + u32::from(id), checks);
                }
                Err(_) => self.reject(id),
            }
        }
    }

    /// The one discharge point: verify the group here as one batch,
    /// or park it for the driver, whose verdict comes back through
    /// [`Endpoint::resolve_verify`].
    fn discharge(&mut self, token: u32, checks: Vec<SignatureCheck>) {
        if !self.role.admission().deferred {
            let valid = verify_checks(&checks).all_valid();
            return self.deliver(token, valid);
        }
        if let Some((_, sec)) = self.by_token(token) {
            sec.deferred_checks = checks.len() as u64;
        }
        self.pending_verifies.push(PendingVerify { token, checks });
    }

    /// The secondary session a middlebox token (1 + subchannel id)
    /// names, with that id.
    fn by_token(&mut self, token: u32) -> Option<(u8, &mut Secondary)> {
        let id = u8::try_from(token.checked_sub(1)?).ok()?;
        Some((id, find_mut(&mut self.secondaries, id)?))
    }

    /// Hand group `token`'s verdict to the connection that parked it.
    /// A failed primary fails the session; a failed secondary fails
    /// alone — its fatal alert goes out on its subchannel and the
    /// middlebox is left a relay.
    fn deliver(&mut self, token: u32, valid: bool) {
        if token == 0 {
            return self.primary.resolve_verify(valid);
        }
        let Some((id, sec)) = self.by_token(token) else { return };
        sec.conn.resolve_verify(valid);
        sec.authenticated = valid;
        if !valid {
            sec.rejected = true;
            if self.role.admission().delegated() {
                self.emit(EventKind::CredentialRejected { subchannel: u64::from(id) });
            }
        }
    }

    /// The signature checks middlebox `id`'s certificate chain owes,
    /// its structural checks done (none in delegated mode, where the
    /// credential stands in for the chain).
    fn chain_checks(&self, id: u8) -> Result<Vec<SignatureCheck>, MbError> {
        let admission = self.role.admission();
        if admission.delegated() {
            return Ok(Vec::new());
        }
        let chain = find(&self.secondaries, id)
            .ok_or_else(|| MbError::unexpected_state("secondary session vanished"))?
            .conn
            .peer_certificates();
        let leaf = chain
            .first()
            .ok_or_else(|| MbError::unexpected_state("middlebox sent no certificate"))?;
        admission
            .trust
            .verify_chain_deferred(
                chain,
                &leaf.payload.subject,
                admission.now,
                Some(KeyUsage::Middlebox),
            )
            .map_err(|e| MbError::Tls(TlsError::Certificate(e)))
    }

    /// The approval policy for an established middlebox, whose
    /// signatures [`MbSession::collect_owed`] has already seen
    /// verified. Returns the subject it was approved under: the
    /// credential's in delegated mode, the certificate's otherwise.
    fn screen(&self, id: u8) -> Result<String, MbError> {
        let sec = find(&self.secondaries, id)
            .ok_or_else(|| MbError::unexpected_state("secondary session vanished"))?;
        let admission = self.role.admission();
        if !sec.authenticated {
            return Err(MbError::unexpected_state("middlebox established unverified"));
        }
        let subject = if admission.delegated() {
            let cred = sec.conn.peer_credential().ok_or_else(|| {
                MbError::unexpected_state("delegated middlebox presented no credential")
            })?;
            cred.subject.clone()
        } else {
            let leaf = sec.conn.peer_certificates().first().ok_or_else(|| {
                MbError::unexpected_state("middlebox sent no certificate")
            })?;
            leaf.payload.subject.clone()
        };
        if !admission.approval.admits(&subject) {
            if admission.delegated() {
                self.emit(EventKind::CredentialRejected { subchannel: id as u64 });
            }
            return Err(MbError::MiddleboxRejected(subject));
        }
        if admission.delegated() {
            self.emit(EventKind::CredentialVerified {
                subchannel: id as u64,
                checks: sec.deferred_checks,
            });
        }
        Ok(subject)
    }

    /// Middlebox `id` passed verification and the approval policy.
    pub(crate) fn approve(&mut self, id: u8, name: String) {
        if let Some(sec) = find_mut(&mut self.secondaries, id) {
            sec.info.name = Some(name);
            sec.info.approved = true;
        }
        self.emit(EventKind::SecondaryHandshakeFinish {
            subchannel: id as u64,
        });
    }

    /// Send a fatal alert on the subchannel; the middlebox becomes a
    /// pure relay.
    pub(crate) fn reject(&mut self, id: u8) {
        let alert = Alert::fatal(AlertDescription::HandshakeFailure);
        let inner = frame_plaintext(ContentType::Alert, &alert.encode());
        Encapsulated::wrap_into(id, &inner, &mut self.out);
        if let Some(sec) = find_mut(&mut self.secondaries, id) {
            sec.rejected = true;
            sec.info.approved = false;
        }
    }

    /// Generate per-hop keys, send KeyMaterial to each approved
    /// middlebox, end every secondary session, and activate the data
    /// plane (paper Fig. 4). The primary connection's part ends here
    /// too: it gives up its ciphers and its key block. When this end's
    /// adjacent hop is the bridge hop — no middlebox on this side, or
    /// every hop aliased — the data plane runs on those ciphers, so
    /// each bridge key is expanded once at each end. Middleboxes are
    /// sent the bridge keys as bytes, exported before the primary lets
    /// them go.
    fn distribute_keys(&mut self) -> Result<(), MbError> {
        let mut order: Vec<u8> = self
            .secondaries
            .iter()
            .filter_map(Subchannel::running)
            .filter(|s| s.info.approved)
            .map(|s| s.info.subchannel)
            .collect();
        R::order_path(&mut order);

        let bridge = if order.is_empty() {
            None
        } else {
            Some(self.primary.export_session_keys().ok_or(MbError::NotReady)?)
        };
        let (write, read) = self.primary.take_ciphers().ok_or(MbError::NotReady)?;
        let fresh = match bridge {
            Some(bridge) => self.send_hop_keys(&order, bridge)?,
            None => None,
        };

        // Every secondary session has done its job: send what each
        // still holds (a refused one's fatal alert), lowest subchannel
        // first, then keep only what `middleboxes()` reports.
        for sub in &mut self.secondaries {
            if let Subchannel::Running(sec) = sub {
                sec.flush_wrapped(&mut self.out);
                let info = MiddleboxInfo { name: sec.info.name.take(), ..sec.info };
                *sub = Subchannel::Done(info);
            }
        }

        let mut dp = match fresh {
            Some(hop) => R::data_plane(&hop).map_err(MbError::Tls)?,
            None => R::inherit(write, read),
        };
        if let Some(t) = &self.telemetry {
            dp.set_telemetry(t.clone(), R::PARTY);
        }
        self.dataplane = Some(dp);
        self.emit(EventKind::HandshakeComplete);
        Ok(())
    }

    /// Send each middlebox in path `order` the keys of its two hops:
    /// this end ↔ m_1, m_1 ↔ m_2, ..., m_k ↔ `bridge`, each under fresh
    /// keys (change secrecy, P1C) unless the role aliases them to the
    /// bridge keys. Returns the adjacent hop's keys when they are
    /// fresh; `None` when it is the bridge hop.
    fn send_hop_keys(&mut self, order: &[u8], bridge: HopKeys) -> Result<Option<HopKeys>, MbError> {
        let alias = self.role.alias_hops();
        let mut hops: Vec<HopKeys> = Vec::with_capacity(order.len() + 1);
        for _ in order {
            if alias {
                hops.push(bridge.clone());
            } else {
                hops.push(fresh_hop_keys(bridge.suite, &mut self.rng));
            }
        }
        hops.push(bridge);

        for (i, &id) in order.iter().enumerate() {
            let msg = SecondaryMessage::Keys(R::key_material(&hops[i], &hops[i + 1])).encode();
            let sec = find_mut(&mut self.secondaries, id)
                .ok_or_else(|| MbError::unexpected_state("secondary session vanished"))?;
            sec.conn.send_data(&msg).map_err(MbError::Tls)?;
            sec.flush_wrapped(&mut self.out);
            self.emit(EventKind::KeyDelivery { subchannel: id as u64 });
        }
        Ok((!alias).then(|| hops.swap_remove(0)))
    }

    /// Gracefully close the session (send close_notify under the
    /// adjacent hop's keys; middleboxes re-encrypt it hop by hop).
    pub fn close(&mut self) -> Result<(), MbError> {
        let dp = self.dataplane.as_mut().ok_or(MbError::NotReady)?;
        dp.send_close().map_err(MbError::Tls)
    }

    /// True once the peer's close_notify arrived.
    pub fn peer_closed(&self) -> bool {
        self.dataplane.as_ref().is_some_and(|dp| dp.peer_closed())
    }

    /// Joined middleboxes, in ascending subchannel order.
    pub fn middleboxes(&self) -> Vec<MiddleboxInfo> {
        self.secondaries.iter().map(|sub| sub.info().clone()).collect()
    }
}

/// Both ends drive the same way; what differs per end is behind
/// `Role`.
impl<R: Role> Endpoint for MbSession<R> {
    fn feed(&mut self, data: &[u8]) -> Result<(), MbError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if !data.is_empty() {
            self.emit(EventKind::BytesIn { bytes: data.len() as u64 });
        }
        // The reader moves aside so the records it frames out of `data`
        // can be routed into the session's other fields.
        let mut reader = std::mem::take(&mut self.reader);
        let result = reader.for_each_record(data, |record| self.route(record));
        self.reader = reader;
        if let Err(e) = result {
            self.error = Some(e.clone());
            return Err(e);
        }
        self.pump();
        Ok(())
    }

    /// Once the data plane is active its records are all there is to
    /// drain, and an empty `dst` takes them by trading buffers with
    /// the data plane ([`EndpointDataPlane::drain_outgoing_into`]): no
    /// copy, and no allocation once both buffers are warm.
    fn take_into(&mut self, dst: &mut Vec<u8>) {
        self.pump();
        let start = dst.len();
        // Primary-session records flush first (the paper's Fig. 3
        // shows secondary flights following the primary ones within a
        // flight), then mbTLS control records, then data-plane
        // records. The primary produces nothing post-handshake, so
        // its take is a free swap of empty vectors at steady state.
        let primary = self.primary.take_outgoing();
        dst.extend_from_slice(&primary);
        dst.extend_from_slice(&self.out);
        self.out.clear();
        if let Some(dp) = &mut self.dataplane {
            dp.drain_outgoing_into(dst);
        }
        let n = (dst.len() - start) as u64;
        if n > 0 {
            R::flushed(self, n);
            self.emit(EventKind::BytesOut { bytes: n });
        }
    }

    /// True once application data can flow: keys are distributed and
    /// the data plane is up (no middlebox can join after this).
    fn ready(&self) -> bool {
        self.dataplane.is_some()
    }

    fn send_app(&mut self, data: &[u8]) -> Result<(), MbError> {
        let dp = self.dataplane.as_mut().ok_or(MbError::NotReady)?;
        dp.send(data).map_err(MbError::Tls)
    }

    /// Received application data, including any that arrived on the
    /// primary connection before the data plane activated; an empty
    /// `dst` trades buffers with the data plane.
    fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
        let early = R::primary_plaintext(self);
        dst.extend_from_slice(&early);
        if let Some(dp) = &mut self.dataplane {
            dp.drain_plaintext_into(dst);
        }
    }

    fn failed(&self) -> Option<MbError> {
        self.error
            .clone()
            .or_else(|| self.primary.error().cloned().map(MbError::Tls))
    }

    fn resumption(&self) -> Option<ResumptionData> {
        self.primary.resumption_data()
    }

    /// Did the primary handshake resume a cached session?
    fn resumed(&self) -> bool {
        self.primary.resumed()
    }

    /// Token 0 is the primary, 1 + subchannel id a middlebox.
    fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        out.append(&mut self.pending_verifies);
    }

    /// A failed primary verdict fails the session; a failed middlebox
    /// verdict demotes that middlebox to a relay, as when the group is
    /// verified here.
    fn resolve_verify(&mut self, token: u32, valid: bool) {
        self.deliver(token, valid);
        self.pump();
    }
}

/// Wrap a byte stream of complete TLS records into Encapsulated
/// records on `subchannel`, appending the framed bytes to `out`.
pub(crate) fn wrap_records(subchannel: u8, stream: &[u8], out: &mut Vec<u8>) {
    // A party's own output: whole records, so nothing is buffered, and
    // a malformed tail is dropped rather than wrapped.
    let _ = RecordReader::new().for_each_record(stream, |record| {
        Encapsulated::wrap_into(subchannel, record.wire(), out);
        Ok::<_, mbtls_tls::TlsError>(())
    });
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    use mbtls_crypto::rng::CryptoRng;

    use crate::attacks::Testbed;
    use crate::driver::{Chain, Endpoint, Relay};
    use crate::middlebox::Middlebox;
    use crate::{MbClientSession, MbError, MbServerSession};

    /// An endpoint a chain drives while the test keeps a handle on it.
    struct Held<E>(Rc<RefCell<E>>);

    impl<E: Endpoint> Endpoint for Held<E> {
        fn feed(&mut self, data: &[u8]) -> Result<(), MbError> {
            self.0.borrow_mut().feed(data)
        }
        fn take_into(&mut self, dst: &mut Vec<u8>) {
            self.0.borrow_mut().take_into(dst)
        }
        fn ready(&self) -> bool {
            self.0.borrow().ready()
        }
        fn send_app(&mut self, data: &[u8]) -> Result<(), MbError> {
            self.0.borrow_mut().send_app(data)
        }
        fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
            self.0.borrow_mut().recv_app_into(dst)
        }
    }

    // Key delivery ends the primary connection's part: it keeps no
    // cipher and no key block, whether the data plane took its ciphers
    // over (no middlebox) or runs on fresh hop keys (one).
    #[test]
    fn key_delivery_leaves_the_primary_no_keys() {
        for middleboxes in [0, 1] {
            let tb = Testbed::new(0x4A0D);
            let mut rng = CryptoRng::from_seed(0x4A0D);
            let client_config = Arc::new(tb.client_config());
            let client = MbClientSession::new(client_config, "server.example", rng.fork());
            let server = MbServerSession::new(Arc::new(tb.server_config()), rng.fork());
            let (client, server) = (Rc::new(RefCell::new(client)), Rc::new(RefCell::new(server)));
            let middles = (0..middleboxes)
                .map(|_| {
                    let config = tb.middlebox_config(&tb.mbox_code);
                    Box::new(Middlebox::new(config, rng.fork())) as Box<dyn Relay>
                })
                .collect();
            let mut chain =
                Chain::new(Box::new(Held(client.clone())), middles, Box::new(Held(server.clone())));
            chain.run_handshake().expect("handshake");
            let exported = (
                client.borrow().primary.export_session_keys(),
                server.borrow().primary.export_session_keys(),
            );
            assert!(exported == (None, None), "{middleboxes} middleboxes");
            assert_eq!(chain.client_to_server(b"ping", 4).expect("request"), b"ping");
            assert_eq!(chain.server_to_client(b"pong", 4).expect("response"), b"pong");
        }
    }
}
