//! The mbTLS endpoint session, written once for both ends.
//!
//! mbTLS is symmetric by construction (paper §3.4, Figures 3-4): each
//! endpoint runs one primary handshake, one secondary handshake per
//! middlebox on its own side — always in the TLS *client* role — and
//! then hands per-hop keys to that side. [`MbSession`] is that
//! endpoint: it owns the primary connection, the secondary sessions,
//! the record router, approval, rejection, key distribution and the
//! data plane. What differs between the two ends is spelled out by
//! the crate-private `Role` trait and nothing else; the shared code
//! never asks which end it is. [`crate::client::MbClientSession`] and
//! [`crate::server::MbServerSession`] are `MbSession` in its two
//! roles.
//!
//! The session is generic over the role (which names the primary
//! connection's TLS role), so every call on the path from
//! [`MbSession::feed_incoming`] to the data plane's open is
//! statically dispatched and inlines exactly as the two hand-written
//! copies did.

use std::collections::BTreeMap;

use mbtls_crypto::ed25519::verify_checks;
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::{KeyUsage, SignatureCheck, TrustStore};
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::alert::{Alert, AlertDescription};
use mbtls_tls::record::{frame_plaintext, ContentType, Record, RecordReader};
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, Connection, Handshake, TlsError};

use crate::client::{ApprovalPolicy, MiddleboxInfo};
use crate::dataplane::{fresh_hop_keys, EndpointDataPlane, HopKeys};
use crate::driver::PendingVerify;
use crate::messages::{Encapsulated, KeyMaterial, SecondaryMessage};
use crate::MbError;

/// The negotiated suite, with the bridge-hop keys at their current
/// sequence numbers.
fn bridge<H: Handshake>(primary: &Connection<H>) -> Option<(CipherSuite, HopKeys)> {
    Some((primary.secrets()?.suite, primary.export_session_keys()?))
}

/// How an endpoint verifies and approves its middleboxes, borrowed
/// from the role's configuration.
pub(crate) struct Admission<'a> {
    /// Trust roots for middlebox certificates.
    pub(crate) trust: &'a TrustStore,
    /// Delegated mode: the middlebox's identity is its credential,
    /// whose checks the TLS layer owes; there is no chain to add.
    pub(crate) delegated: bool,
    /// Park owed signature checks for the driver to batch across
    /// sessions instead of verifying each group here.
    pub(crate) deferred: bool,
    /// Approval policy applied after verification.
    pub(crate) approval: &'a ApprovalPolicy,
    /// "Current time" for middlebox certificate validation.
    pub(crate) now: u64,
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
pub(crate) trait Role: Sized {
    /// The TLS role of the primary session.
    type Handshake: Handshake;
    /// The party this end reports telemetry as.
    const PARTY: Party;

    /// How this end verifies and approves middleboxes.
    fn admission(&self) -> Admission<'_>;

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

    /// This end's data plane over its adjacent hop.
    fn data_plane(hop: &HopKeys) -> Result<EndpointDataPlane, TlsError>;

    /// `bytes` wire bytes were just flushed (`BytesOut` not yet
    /// reported).
    fn flushed(_: &mut MbSession<Self>, _bytes: u64) {}

    /// Application data the primary connection received before the
    /// data plane took over.
    fn primary_plaintext(_: &mut MbSession<Self>) -> Vec<u8> {
        Vec::new()
    }
}

/// State of one secondary (endpoint ↔ middlebox) session.
pub(crate) struct Secondary {
    pub(crate) conn: ClientConnection,
    /// Subject name from the verified certificate.
    verified_name: Option<String>,
    /// Approved to receive keys.
    approved: bool,
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
        self.verified_name.is_some() || self.rejected
    }

    /// Wrap whatever this session has queued for the wire into
    /// Encapsulated records on subchannel `id`, appended to `out`.
    fn flush_wrapped(&mut self, id: u8, out: &mut Vec<u8>) {
        let bytes = self.conn.take_outgoing();
        if !bytes.is_empty() {
            wrap_records(id, &bytes, out);
        }
    }
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
    pub(crate) secondaries: BTreeMap<u8, Secondary>,
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
            secondaries: BTreeMap::new(),
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

    /// Wire bytes to send.
    pub fn take_outgoing(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.drain_outgoing_into(&mut out);
        out
    }

    /// Move pending wire bytes to the end of `dst` — the steady-state
    /// alternative to [`MbSession::take_outgoing`]. Once the data
    /// plane is active its records are all there is to drain, and an
    /// empty `dst` takes them by trading buffers with the data plane
    /// ([`EndpointDataPlane::drain_outgoing_into`]): no copy, and no
    /// allocation once both buffers are warm.
    pub fn drain_outgoing_into(&mut self, dst: &mut Vec<u8>) {
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

    /// Feed bytes from the wire.
    pub fn feed_incoming(&mut self, data: &[u8]) -> Result<(), MbError> {
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
    fn handle_encapsulated(&mut self, id: u8, inner: &[u8]) -> Result<(), MbError> {
        if !self.secondaries.contains_key(&id) {
            R::unknown_subchannel(self, id)?;
        }
        let sec = self
            .secondaries
            .get_mut(&id)
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

    /// Start tracking a secondary session on subchannel `id`.
    pub(crate) fn open_secondary(&mut self, id: u8, conn: ClientConnection) {
        self.secondaries.insert(
            id,
            Secondary {
                conn,
                verified_name: None,
                approved: false,
                rejected: false,
                authenticated: false,
                deferred_checks: 0,
            },
        );
        self.emit(EventKind::MiddleboxAnnouncement {
            count: self.secondaries.len() as u64,
        });
        self.emit(EventKind::SecondaryHandshakeStart { subchannel: id as u64 });
    }

    /// Wrap whatever secondary `id` has queued for the wire into
    /// Encapsulated records.
    pub(crate) fn flush_secondary(&mut self, id: u8) {
        if let Some(sec) = self.secondaries.get_mut(&id) {
            sec.flush_wrapped(id, &mut self.out);
        }
    }

    /// Advance internal state: drain secondary outputs, verify and
    /// approve established secondaries, distribute keys when ready.
    pub(crate) fn pump(&mut self) {
        for (&id, sec) in &mut self.secondaries {
            sec.flush_wrapped(id, &mut self.out);
        }

        self.collect_owed();

        // Approval for newly established secondaries, lowest
        // subchannel first; either outcome settles the one it found.
        while let Some(id) = self
            .secondaries
            .iter()
            .find(|(_, sec)| sec.conn.is_established() && !sec.settled())
            .map(|(&id, _)| id)
        {
            match self.screen(id) {
                Ok(name) => self.approve(id, name),
                Err(_) => self.reject(id),
            }
        }

        // Key distribution once everything is established.
        if !self.is_ready() && self.primary.is_established() {
            let all_done = self
                .secondaries
                .values()
                .all(|s| s.rejected || (s.conn.is_established() && s.approved));
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
            .filter(|(_, sec)| sec.conn.awaiting_verdict() && !sec.rejected)
            .find_map(|(&id, sec)| Some((id, sec.conn.take_pending_verify()?)))
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
    /// [`MbSession::resolve_verify`].
    fn discharge(&mut self, token: u32, checks: Vec<SignatureCheck>) {
        if !self.role.admission().deferred {
            let valid = verify_checks(&checks).all_valid();
            return self.deliver(token, valid);
        }
        if let Some((_, sec)) = self.secondary_mut(token) {
            sec.deferred_checks = checks.len() as u64;
        }
        self.pending_verifies.push(PendingVerify { token, checks });
    }

    /// The secondary session a middlebox token (1 + subchannel id)
    /// names, with that id.
    fn secondary_mut(&mut self, token: u32) -> Option<(u8, &mut Secondary)> {
        let id = u8::try_from(token.checked_sub(1)?).ok()?;
        Some((id, self.secondaries.get_mut(&id)?))
    }

    /// Hand group `token`'s verdict to the connection that parked it.
    /// A failed primary fails the session; a failed secondary fails
    /// alone — its fatal alert goes out on its subchannel and the
    /// middlebox is left a relay.
    fn deliver(&mut self, token: u32, valid: bool) {
        if token == 0 {
            return self.primary.resolve_verify(valid);
        }
        let Some((id, sec)) = self.secondary_mut(token) else { return };
        sec.conn.resolve_verify(valid);
        sec.authenticated = valid;
        if !valid {
            sec.rejected = true;
            if self.role.admission().delegated {
                self.emit(EventKind::CredentialRejected { subchannel: u64::from(id) });
            }
        }
    }

    /// Drain the signature-check groups parked for the driver (token
    /// 0 = primary, 1 + subchannel id = middlebox); the caller must
    /// deliver each verdict through [`MbSession::resolve_verify`].
    pub fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        out.append(&mut self.pending_verifies);
    }

    /// Deliver the verdict for a parked group. A failed primary
    /// verdict fails the session; a failed middlebox verdict demotes
    /// that middlebox to a relay, as when the group is verified here.
    pub fn resolve_verify(&mut self, token: u32, valid: bool) {
        self.deliver(token, valid);
        self.pump();
    }

    /// The signature checks middlebox `id`'s certificate chain owes,
    /// its structural checks done (none in delegated mode, where the
    /// credential stands in for the chain).
    fn chain_checks(&self, id: u8) -> Result<Vec<SignatureCheck>, MbError> {
        let admission = self.role.admission();
        if admission.delegated {
            return Ok(Vec::new());
        }
        let chain = self.secondaries[&id].conn.peer_certificates();
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
        let sec = &self.secondaries[&id];
        let admission = self.role.admission();
        if !sec.authenticated {
            return Err(MbError::unexpected_state("middlebox established unverified"));
        }
        let subject = if admission.delegated {
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
            if admission.delegated {
                self.emit(EventKind::CredentialRejected { subchannel: id as u64 });
            }
            return Err(MbError::MiddleboxRejected(subject));
        }
        if admission.delegated {
            self.emit(EventKind::CredentialVerified {
                subchannel: id as u64,
                checks: sec.deferred_checks,
            });
        }
        Ok(subject)
    }

    /// Middlebox `id` passed verification and the approval policy.
    pub(crate) fn approve(&mut self, id: u8, name: String) {
        if let Some(sec) = self.secondaries.get_mut(&id) {
            sec.verified_name = Some(name);
            sec.approved = true;
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
        if let Some(sec) = self.secondaries.get_mut(&id) {
            sec.rejected = true;
            sec.approved = false;
        }
    }

    /// Generate per-hop keys, send KeyMaterial to each approved
    /// middlebox, and activate the data plane (paper Fig. 4).
    fn distribute_keys(&mut self) -> Result<(), MbError> {
        let (suite, bridge) = bridge(&self.primary).ok_or(MbError::NotReady)?;

        let mut order: Vec<u8> = self
            .secondaries
            .iter()
            .filter(|(_, s)| s.approved)
            .map(|(&id, _)| id)
            .collect();
        R::order_path(&mut order);

        // Hops: this end ↔ m_1, m_1 ↔ m_2, ..., m_k ↔ bridge, each
        // under fresh keys (change secrecy, P1C) unless the role
        // aliases them to the bridge keys.
        let mut hops: Vec<HopKeys> = Vec::with_capacity(order.len() + 1);
        for _ in 0..order.len() {
            if self.role.alias_hops() {
                hops.push(bridge.clone());
            } else {
                hops.push(fresh_hop_keys(suite, &mut self.rng));
            }
        }
        hops.push(bridge);

        for (i, &id) in order.iter().enumerate() {
            let msg = SecondaryMessage::Keys(R::key_material(&hops[i], &hops[i + 1])).encode();
            let sec = self
                .secondaries
                .get_mut(&id)
                .ok_or_else(|| MbError::unexpected_state("secondary session vanished"))?;
            sec.conn.send_data(&msg).map_err(MbError::Tls)?;
            self.flush_secondary(id);
            self.emit(EventKind::KeyDelivery { subchannel: id as u64 });
        }

        let mut dp = R::data_plane(&hops[0]).map_err(MbError::Tls)?;
        if let Some(t) = &self.telemetry {
            dp.set_telemetry(t.clone(), R::PARTY);
        }
        self.dataplane = Some(dp);
        self.emit(EventKind::HandshakeComplete);
        Ok(())
    }

    /// True once application data can flow: keys are distributed and
    /// the data plane is up (no middlebox can join after this).
    pub fn is_ready(&self) -> bool {
        self.dataplane.is_some()
    }

    /// True if the session failed.
    pub fn is_failed(&self) -> bool {
        self.error.is_some() || self.primary.error().is_some()
    }

    /// The failure, if any.
    pub fn error(&self) -> Option<MbError> {
        self.error
            .clone()
            .or_else(|| self.primary.error().cloned().map(MbError::Tls))
    }

    /// Did the primary handshake resume a cached session?
    pub fn resumed(&self) -> bool {
        self.primary.resumed()
    }

    /// Queue application data.
    pub fn send(&mut self, data: &[u8]) -> Result<(), MbError> {
        let dp = self.dataplane.as_mut().ok_or(MbError::NotReady)?;
        dp.send(data).map_err(MbError::Tls)
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

    /// Received application data (including any that arrived on the
    /// primary connection before the data plane activated).
    pub fn recv(&mut self) -> Vec<u8> {
        let early = R::primary_plaintext(self);
        let late = self
            .dataplane
            .as_mut()
            .map(|dp| dp.take_plaintext())
            .unwrap_or_default();
        if early.is_empty() {
            late
        } else {
            [early, late].concat()
        }
    }

    /// Move received application data to the end of `dst` (the
    /// steady-state alternative to [`MbSession::recv`]); an empty
    /// `dst` trades buffers with the data plane instead of being
    /// copied into.
    pub fn recv_into(&mut self, dst: &mut Vec<u8>) {
        let early = R::primary_plaintext(self);
        dst.extend_from_slice(&early);
        if let Some(dp) = &mut self.dataplane {
            dp.drain_plaintext_into(dst);
        }
    }

    /// Joined middleboxes.
    pub fn middleboxes(&self) -> Vec<MiddleboxInfo> {
        self.secondaries
            .iter()
            .map(|(&id, s)| MiddleboxInfo {
                subchannel: id,
                name: s.verified_name.clone(),
                approved: s.approved,
            })
            .collect()
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
