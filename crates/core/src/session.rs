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
//! [`MbSession::feed_incoming`] to the data plane's in-place open is
//! statically dispatched and inlines exactly as the two hand-written
//! copies did.

use std::collections::BTreeMap;

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
    /// Delegated mode: the TLS layer verifies the middlebox's
    /// credential itself, and only the approval policy remains.
    pub(crate) delegated: bool,
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

    /// Called on every pump before approvals: hand deferred signature
    /// checks raised inside the TLS connections to the driver.
    fn surface_deferred(_: &mut MbSession<Self>) {}

    /// Discharge the chain-signature checks screening left owed for
    /// middlebox `id`: `Some(verdict)` when verified here, `None` when
    /// parked for the driver (the verdict then arrives through
    /// [`Role::resolve_verify`]).
    fn discharge(_: &mut MbSession<Self>, _id: u8, checks: Vec<SignatureCheck>) -> Option<bool> {
        Some(checks.iter().all(|c| c.check()))
    }

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

    /// [`crate::driver::Endpoint::take_pending_verifies`] for this
    /// end.
    fn take_pending_verifies(_: &mut MbSession<Self>, _out: &mut Vec<PendingVerify>) {}

    /// [`crate::driver::Endpoint::resolve_verify`] for this end.
    fn resolve_verify(_: &mut MbSession<Self>, _token: u32, _valid: bool) {}
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
    /// Subject awaiting a deferred chain-signature verdict; approval
    /// completes on resolution.
    pub(crate) pending_subject: Option<String>,
    /// Signature checks this secondary routed through the driver's
    /// batch seam (0 = all checks discharged inline at the TLS
    /// layer). Telemetry only.
    pub(crate) deferred_checks: u64,
}

impl Secondary {
    /// Verification already ran (or is parked with the driver), or
    /// the middlebox was refused: nothing left to screen.
    fn settled(&self) -> bool {
        self.verified_name.is_some() || self.rejected || self.pending_subject.is_some()
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
        self.reader.feed(data);
        // The reader moves aside so records borrowed from its buffer
        // can be routed into the session's other fields.
        let mut reader = std::mem::take(&mut self.reader);
        let result = self.route_buffered(&mut reader);
        self.reader = reader;
        if let Err(e) = result {
            self.error = Some(e.clone());
            return Err(e);
        }
        self.pump();
        Ok(())
    }

    /// Route every complete record `reader` holds, each where it sits
    /// in the reader's buffer: post-handshake data records are opened
    /// there, everything else is fed onward byte for byte.
    fn route_buffered(&mut self, reader: &mut RecordReader) -> Result<(), MbError> {
        while let Some(record) = reader.next_record_inplace().map_err(MbError::Tls)? {
            match (record.content_type(), &mut self.dataplane) {
                // Post-handshake records (data and close alerts) are
                // protected under the adjacent hop's keys.
                (Some(ContentType::ApplicationData | ContentType::Alert), Some(dp)) => {
                    dp.feed_record_in_place(record).map_err(MbError::Tls)?;
                }
                _ => self.route_record(record)?,
            }
        }
        Ok(())
    }

    fn route_record(&mut self, mut record: Record<'_>) -> Result<(), MbError> {
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
                pending_subject: None,
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

        R::surface_deferred(self);

        // Verification/approval for newly established secondaries.
        // Once every secondary is settled this collects nothing, so
        // the per-record feeds and drains that pump allocate nothing.
        let fresh: Vec<u8> = self
            .secondaries
            .iter()
            .filter(|(_, sec)| sec.conn.is_established() && !sec.settled())
            .map(|(&id, _)| id)
            .collect();
        let mut to_reject = Vec::new();
        for id in fresh {
            match self.screen(id) {
                Ok((name, checks)) => match R::discharge(self, id, checks) {
                    Some(true) => self.approve(id, name),
                    Some(false) => to_reject.push(id),
                    // Deferred: approval completes when the driver
                    // resolves the chain-signature checks.
                    None => {
                        if let Some(sec) = self.secondaries.get_mut(&id) {
                            sec.pending_subject = Some(name);
                        }
                    }
                },
                Err(_) => to_reject.push(id),
            }
        }
        for id in to_reject {
            self.reject(id);
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

    /// Structural chain checks + approval policy for an established
    /// middlebox. Returns the subject and the chain-signature checks
    /// still owed (none in delegated mode).
    fn screen(&self, id: u8) -> Result<(String, Vec<SignatureCheck>), MbError> {
        let sec = &self.secondaries[&id];
        let admission = self.role.admission();
        if admission.delegated {
            // Delegated mode: the TLS layer already verified the
            // credential (window, session binding, issuer chain,
            // signature) against the policy and keyed the handshake
            // off `credential.middlebox_key` — an established
            // connection implies a valid credential. Only the
            // approval policy remains, applied to the credential
            // subject instead of a certificate subject.
            let cred = sec.conn.peer_credential().ok_or_else(|| {
                MbError::unexpected_state("delegated middlebox presented no credential")
            })?;
            let subject = cred.subject.clone();
            if !admission.approval.admits(&subject) {
                self.emit(EventKind::CredentialRejected { subchannel: id as u64 });
                return Err(MbError::MiddleboxRejected(subject));
            }
            self.emit(EventKind::CredentialVerified {
                subchannel: id as u64,
                checks: sec.deferred_checks,
            });
            return Ok((subject, Vec::new()));
        }
        let chain = sec.conn.peer_certificates();
        if chain.is_empty() {
            return Err(MbError::unexpected_state("middlebox sent no certificate"));
        }
        let subject = chain[0].payload.subject.clone();
        let checks = admission
            .trust
            .verify_chain_deferred(chain, &subject, admission.now, Some(KeyUsage::Middlebox))
            .map_err(|e| MbError::Tls(TlsError::Certificate(e)))?;
        if !admission.approval.admits(&subject) {
            return Err(MbError::MiddleboxRejected(subject));
        }
        Ok((subject, checks))
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
    let mut reader = RecordReader::new();
    reader.feed(stream);
    while let Ok(Some(record)) = reader.next_record_inplace() {
        Encapsulated::wrap_into(subchannel, record.wire(), out);
    }
}
