//! The mbTLS data plane: unique per-hop keys (paper §3.4, Fig. 4) and
//! the record-processing state each party runs after the handshake.
//!
//! Conventions: data flowing client→server is always protected with a
//! hop's "client write" key; server→client with its "server write"
//! key. The *bridge* hop (between the innermost client-side and
//! server-side middleboxes, or an endpoint if a side has none) uses
//! the primary session's keys — an endpoint on it runs on the primary
//! connection's own ciphers, a middlebox on the keys its endpoint
//! exports; all other hops use fresh keys generated by their side's
//! endpoint — this is what yields path integrity (P4) and change
//! secrecy (P1C).

use mbtls_crypto::ct;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_telemetry::{fast_path_disabled, EventKind, Party, SharedSink};
use mbtls_tls::record::{fragment, ContentType, DirectionState, Record, RecordReader, FIXED_IV_LEN};
use mbtls_tls::session::SessionKeys;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::TlsError;

use crate::MbError;

/// Index of a middlebox's client side in per-side and per-direction
/// arrays.
pub(crate) const CLIENT_SIDE: usize = 0;
/// Index of a middlebox's server side.
pub(crate) const SERVER_SIDE: usize = 1;

/// Party-relative hop label in telemetry record events: the hop on
/// the emitting party's *client* side.
pub const HOP_TOWARD_CLIENT: u64 = CLIENT_SIDE as u64;

/// Party-relative hop label in telemetry record events: the hop on
/// the emitting party's *server* side.
pub const HOP_TOWARD_SERVER: u64 = SERVER_SIDE as u64;

/// Telemetry handle a data plane emits record-flow events through.
#[derive(Clone)]
struct PlaneTelemetry {
    sink: SharedSink,
    party: Party,
}

impl PlaneTelemetry {
    fn emit(&self, kind: EventKind) {
        self.sink.emit(self.party, kind);
    }
}

/// One direction of record protection on one hop, with what its
/// application-data record events report: the party-relative hop label
/// and how many such records have passed (the events' `seq`). Every
/// open, seal and verify of application data by an endpoint or a
/// middlebox goes through here.
struct Flow {
    state: DirectionState,
    hop: u64,
    records: u64,
}

impl Flow {
    fn new(state: DirectionState, hop: u64) -> Self {
        Flow { state, hop, records: 0 }
    }

    /// Count one application-data record, reporting `event(hop, seq)`.
    fn count(
        &mut self,
        telemetry: Option<&PlaneTelemetry>,
        event: impl FnOnce(u64, u64) -> EventKind,
    ) {
        if let Some(t) = telemetry {
            t.emit(event(self.hop, self.records));
        }
        self.records += 1;
    }

    /// Open an application-data record body onto the end of `out`.
    fn open_into(
        &mut self,
        body: &[u8],
        out: &mut Vec<u8>,
        telemetry: Option<&PlaneTelemetry>,
    ) -> Result<(), TlsError> {
        let bytes = self.state.open_record_into(ContentType::ApplicationData, body, out)? as u64;
        self.count(telemetry, |hop, seq| EventKind::RecordDecrypt { hop, bytes, seq });
        Ok(())
    }

    /// Seal `data` onto `out` as application-data records, one per
    /// fragment.
    fn seal(
        &mut self,
        data: &[u8],
        out: &mut Vec<u8>,
        telemetry: Option<&PlaneTelemetry>,
    ) -> Result<(), TlsError> {
        for frag in fragment(data) {
            self.state.seal_record_into(ContentType::ApplicationData, frag, out)?;
            let bytes = frag.len() as u64;
            self.count(telemetry, |hop, seq| EventKind::RecordEncrypt { hop, bytes, seq });
        }
        Ok(())
    }
}

/// The keys for one hop (both directions).
pub type HopKeys = SessionKeys;

/// Generate fresh hop keys for `suite` (sequence numbers start at 0).
pub fn fresh_hop_keys(suite: CipherSuite, rng: &mut CryptoRng) -> HopKeys {
    let key_len = suite.key_len();
    let mut gen = |n: usize| -> Secret {
        let mut v = vec![0u8; n];
        rng.fill(&mut v);
        v.into()
    };
    HopKeys {
        suite,
        client_write_key: gen(key_len),
        client_write_iv: gen(FIXED_IV_LEN),
        server_write_key: gen(key_len),
        server_write_iv: gen(FIXED_IV_LEN),
        client_to_server_seq: 0,
        server_to_client_seq: 0,
    }
}

/// Move everything pending in `src` to the end of `dst`, leaving `src`
/// empty: the one hand-over every `*_into` drain goes through.
///
/// * `dst` holds bytes already: the pending bytes are appended.
/// * `dst` is empty: it takes `src`'s buffer whole and leaves its own
///   behind for `src` to fill next — no copy, and no allocation once
///   both buffers have grown to the traffic's size.
/// * Nothing is pending and `src` has no buffer at all (it handed its
///   own over on an earlier drain): `src` takes the empty `dst`'s, so
///   whoever consumed the bytes gives the buffer back on the next idle
///   drain instead of leaving its producer to allocate a second one.
///
/// What `dst` holds afterwards is the same bytes in all three cases.
/// Which allocation it holds is not, so a caller that drains into one
/// buffer from sources with different traffic (requests and responses,
/// say) walks the larger capacity into every source: give each
/// direction its own `dst`.
pub(crate) fn hand_over(src: &mut Vec<u8>, dst: &mut Vec<u8>) {
    if !dst.is_empty() {
        dst.extend_from_slice(src);
        src.clear();
    } else if !src.is_empty() || src.capacity() == 0 {
        std::mem::swap(src, dst);
    }
}

/// Direction of travel through the session path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDirection {
    /// Client toward server.
    ClientToServer,
    /// Server toward client.
    ServerToClient,
}

/// Both directions of travel, in [`arrival`] order.
pub(crate) const DIRECTIONS: [FlowDirection; 2] =
    [FlowDirection::ClientToServer, FlowDirection::ServerToClient];

/// The side of a middlebox a direction of travel arrives on — and the
/// index of everything a middlebox keeps per direction.
pub(crate) fn arrival(dir: FlowDirection) -> usize {
    match dir {
        FlowDirection::ClientToServer => CLIENT_SIDE,
        FlowDirection::ServerToClient => SERVER_SIDE,
    }
}

/// The side a direction of travel leaves through.
pub(crate) fn departure(dir: FlowDirection) -> usize {
    SERVER_SIDE - arrival(dir)
}

/// An endpoint's data plane over its adjacent hop.
pub struct EndpointDataPlane {
    write: Flow,
    read: Flow,
    reader: RecordReader,
    incoming_plain: Vec<u8>,
    outgoing_wire: Vec<u8>,
    peer_closed: bool,
    telemetry: Option<PlaneTelemetry>,
}

impl EndpointDataPlane {
    /// Build for the client endpoint (writes client→server).
    pub fn for_client(hop: &HopKeys) -> Result<Self, TlsError> {
        Ok(Self::client(hop.seal_client_to_server()?, hop.open_server_to_client()?))
    }

    /// Build for the server endpoint (writes server→client).
    pub fn for_server(hop: &HopKeys) -> Result<Self, TlsError> {
        Ok(Self::server(hop.seal_server_to_client()?, hop.open_client_to_server()?))
    }

    /// The client endpoint's data plane on ciphers it already holds:
    /// `write` seals client→server records, `read` opens server→client
    /// ones.
    pub(crate) fn client(write: DirectionState, read: DirectionState) -> Self {
        Self::new(write, read, HOP_TOWARD_SERVER)
    }

    /// The server endpoint's data plane on ciphers it already holds:
    /// `write` seals server→client records, `read` opens client→server
    /// ones.
    pub(crate) fn server(write: DirectionState, read: DirectionState) -> Self {
        Self::new(write, read, HOP_TOWARD_CLIENT)
    }

    fn new(write: DirectionState, read: DirectionState, hop: u64) -> Self {
        EndpointDataPlane {
            write: Flow::new(write, hop),
            read: Flow::new(read, hop),
            reader: RecordReader::new(),
            incoming_plain: Vec::new(),
            outgoing_wire: Vec::new(),
            peer_closed: false,
            telemetry: None,
        }
    }

    /// Attach a telemetry sink; record events carry `party` and the
    /// endpoint's party-relative hop label.
    pub fn set_telemetry(&mut self, sink: SharedSink, party: Party) {
        self.telemetry = Some(PlaneTelemetry { sink, party });
    }

    /// Queue a close_notify alert (graceful shutdown).
    pub fn send_close(&mut self) -> Result<(), TlsError> {
        let alert = mbtls_tls::alert::Alert::close_notify();
        self.write
            .state
            .seal_record_into(ContentType::Alert, &alert.encode(), &mut self.outgoing_wire)
    }

    /// Queue application data. Records are sealed from `data` straight
    /// into the outgoing buffer — no copy, and no per-record allocation
    /// once that buffer reaches steady-state capacity.
    pub fn send(&mut self, data: &[u8]) -> Result<(), TlsError> {
        self.write.seal(data, &mut self.outgoing_wire, self.telemetry.as_ref())
    }

    /// Feed wire bytes from the adjacent hop. Each whole record is
    /// opened from `data` straight onto the received plaintext; only a
    /// record split across feeds is buffered.
    pub fn feed(&mut self, data: &[u8]) -> Result<(), TlsError> {
        // The reader moves aside so the records it frames can be
        // opened into the other fields.
        let mut reader = std::mem::take(&mut self.reader);
        let result = reader.for_each_record(data, |record| self.feed_record(record));
        self.reader = reader;
        result
    }

    /// Open one already-framed record and apply it (append plaintext /
    /// mark close / raise alert), bypassing the internal reassembly
    /// reader: the entry the session layer uses once it has split the
    /// wire stream with its own [`RecordReader`].
    pub fn feed_record(&mut self, record: Record<'_>) -> Result<(), TlsError> {
        match record.content_type() {
            Some(ContentType::ApplicationData) => {
                let telemetry = self.telemetry.as_ref();
                self.read.open_into(record.body(), &mut self.incoming_plain, telemetry)?;
            }
            Some(ContentType::Alert) => {
                // Decode the alert and dispatch on its *description*: only
                // close_notify(0) is a clean peer close. (Matching on the
                // first byte would test the severity level instead — a
                // warning-level unrecognized_name would silently read as a
                // close.) Non-close alerts surface to the caller whatever
                // their level; on this data plane nothing else is
                // recoverable.
                // Opened onto the end of the received plaintext and taken
                // back off once decoded.
                let plain = &mut self.incoming_plain;
                let received = plain.len();
                self.read.state.open_record_into(ContentType::Alert, record.body(), plain)?;
                let alert =
                    mbtls_tls::alert::Alert::decode(plain.get(received..).unwrap_or_default());
                plain.truncate(received);
                let alert = alert?;
                if alert.description == mbtls_tls::alert::AlertDescription::CloseNotify {
                    self.peer_closed = true;
                } else {
                    return Err(TlsError::PeerAlert(alert.description));
                }
            }
            _ => return Err(TlsError::UnexpectedMessage("non-data record on data plane")),
        }
        Ok(())
    }

    /// Move received plaintext to the end of `dst`, leaving the
    /// internal buffer empty. An empty `dst` trades buffers with it
    /// instead of being copied into, so a caller that drains into the
    /// same cleared buffer every turn copies and allocates nothing.
    pub fn drain_plaintext_into(&mut self, dst: &mut Vec<u8>) {
        hand_over(&mut self.incoming_plain, dst);
    }

    /// Move pending wire bytes to the end of `dst`, leaving the
    /// internal buffer empty; an empty `dst` trades buffers with it.
    pub fn drain_outgoing_into(&mut self, dst: &mut Vec<u8>) {
        hand_over(&mut self.outgoing_wire, dst);
    }

    /// True if the peer signalled close.
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }
}

/// One direction of travel through a middlebox: records arriving on
/// one hop are checked with `read` and leave through `out`.
struct Lane {
    /// Opens or verifies arriving records (this direction's write key
    /// of the hop they arrive on).
    read: Flow,
    /// Seals departing records under the same direction's key of the
    /// hop they leave on. `None` when the two hops share that key, IV
    /// and starting sequence number (an aliased lane): the lane then
    /// has nothing to seal with, and every record leaves as it arrived.
    write: Option<Flow>,
    /// Splits bytes arriving through [`MiddleboxDataPlane::feed`].
    reader: RecordReader,
    /// Records ready to leave.
    out: Vec<u8>,
}

/// A middlebox's data plane: open on one hop, process, re-seal on the
/// other — in both directions.
pub struct MiddleboxDataPlane {
    /// Indexed by [`arrival`].
    lanes: [Lane; 2],
    /// Reusable scratch buffer handed to the record processor; holds
    /// one record's plaintext at a time.
    plain_buf: Vec<u8>,
    /// What an aliased lane opened into `plain_buf` before its
    /// processor ran, to check it came back unchanged.
    opened: Vec<u8>,
    /// Records processed (for accounting).
    pub records_forwarded: u64,
    /// Of those, records forwarded unchanged via the read-only fast
    /// path (tag verified, no decrypt, no re-encrypt).
    pub records_fast_forwarded: u64,
    /// The attached processor declared itself non-modifying
    /// ([`crate::middlebox::DataProcessor::is_read_only`]), so an
    /// aliased lane verifies its records instead of opening them (see
    /// [`MiddleboxDataPlane::feed_record`]).
    read_only: bool,
    telemetry: Option<PlaneTelemetry>,
}

/// How two hops' protection states relate in one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirectionAlias {
    /// Independent key material: the ordinary fresh-keys hop pair.
    Distinct,
    /// Key, implicit IV, and starting sequence number all identical:
    /// the lane gets no write state and forwards records as they
    /// arrived.
    Full,
    /// Key and IV identical but starting sequence numbers diverge.
    /// Unusable: any record sealed here would burn a nonce the key's
    /// other user already spent or still owns, so construction must
    /// reject this shape outright.
    Partial,
}

/// Classify two hops' protection states for one direction. Key and IV
/// are secrets, so each component comparison is `ct::eq`; the results
/// are combined with non-short-circuiting `&` so timing cannot reveal
/// *which* component mismatched.
fn direction_alias(a: &HopKeys, b: &HopKeys, dir: FlowDirection) -> DirectionAlias {
    let (key, iv, seq) = match dir {
        FlowDirection::ClientToServer => (
            ct::eq(&a.client_write_key, &b.client_write_key),
            ct::eq(&a.client_write_iv, &b.client_write_iv),
            ct::eq(
                &a.client_to_server_seq.to_be_bytes(),
                &b.client_to_server_seq.to_be_bytes(),
            ),
        ),
        FlowDirection::ServerToClient => (
            ct::eq(&a.server_write_key, &b.server_write_key),
            ct::eq(&a.server_write_iv, &b.server_write_iv),
            ct::eq(
                &a.server_to_client_seq.to_be_bytes(),
                &b.server_to_client_seq.to_be_bytes(),
            ),
        ),
    };
    let keys_alias = key & iv;
    if keys_alias & seq {
        DirectionAlias::Full
    } else if keys_alias {
        DirectionAlias::Partial
    } else {
        DirectionAlias::Distinct
    }
}

impl MiddleboxDataPlane {
    /// Build from the middlebox's two hop keys. Key aliasing (mbTLS
    /// §3.4 key reuse for non-modifying middleboxes) is detected here,
    /// per direction, and an aliased direction gets no write state:
    /// only a lane whose outbound key differs from its inbound one may
    /// seal. The fast path additionally requires the processor's
    /// read-only declaration ([`MiddleboxDataPlane::set_read_only`]).
    ///
    /// Hop pairs whose keys alias but whose sequence numbers diverge
    /// are rejected: every record such a middlebox re-sealed would
    /// reuse a GCM nonce the shared key's other users already spent
    /// or still own.
    pub fn new(toward_client_hop: &HopKeys, toward_server_hop: &HopKeys) -> Result<Self, TlsError> {
        let hops = [toward_client_hop, toward_server_hop];
        let lane = |dir| -> Result<Lane, TlsError> {
            // The hop on `side` in this direction, labelled by its side.
            let flow = |side: usize| -> Result<Flow, TlsError> {
                let state = match dir {
                    FlowDirection::ClientToServer => hops[side].open_client_to_server()?,
                    FlowDirection::ServerToClient => hops[side].open_server_to_client()?,
                };
                Ok(Flow::new(state, side as u64))
            };
            let write = match direction_alias(toward_client_hop, toward_server_hop, dir) {
                DirectionAlias::Full => None,
                DirectionAlias::Distinct => Some(flow(departure(dir))?),
                DirectionAlias::Partial => {
                    return Err(TlsError::NegotiationFailed(
                        "hop keys alias but sequence numbers diverge",
                    ))
                }
            };
            Ok(Lane {
                read: flow(arrival(dir))?,
                write,
                reader: RecordReader::new(),
                out: Vec::new(),
            })
        };
        Ok(MiddleboxDataPlane {
            lanes: [lane(FlowDirection::ClientToServer)?, lane(FlowDirection::ServerToClient)?],
            plain_buf: Vec::new(),
            opened: Vec::new(),
            records_forwarded: 0,
            records_fast_forwarded: 0,
            read_only: false,
            telemetry: None,
        })
    }

    /// Declare whether the attached processor is non-modifying. Only a
    /// read-only declaration enables the tag-verify forward fast path
    /// (and only on directions whose keys alias); any other processor
    /// is handed every record's plaintext.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// Is the read-only forward fast path enabled for `dir`? True when
    /// the processor declared itself read-only and the lane has no
    /// write state (its hop keys alias).
    pub fn fast_path_active(&self, dir: FlowDirection) -> bool {
        self.read_only && self.lanes[arrival(dir)].write.is_none()
    }

    /// Attach a telemetry sink; record events carry `party` and
    /// party-relative hop labels ([`HOP_TOWARD_CLIENT`] for the hop
    /// the client-side traffic arrives on, [`HOP_TOWARD_SERVER`] for
    /// the other).
    pub fn set_telemetry(&mut self, sink: SharedSink, party: Party) {
        self.telemetry = Some(PlaneTelemetry { sink, party });
    }

    /// Process bytes arriving on one side; `process` receives each
    /// record's plaintext in a reusable scratch buffer and mutates it
    /// in place to change what is forwarded.
    ///
    /// The whole per-record path is allocation-free at steady state
    /// and copies nothing on a re-sealing lane: each whole record is
    /// read where it sits in `data`, decrypted straight into the
    /// scratch buffer for the processor, and re-encrypted straight
    /// into the (reused) output buffer. Only a record split across
    /// feeds is buffered first (see
    /// [`MiddleboxDataPlane::feed_record`] for aliased keys).
    pub fn feed(
        &mut self,
        dir: FlowDirection,
        data: &[u8],
        mut process: impl FnMut(FlowDirection, &mut Vec<u8>),
    ) -> Result<(), MbError> {
        let lane = arrival(dir);
        // The reader moves aside so the records it frames can be
        // relayed through the other fields.
        let mut reader = std::mem::take(&mut self.lanes[lane].reader);
        let result =
            reader.for_each_record(data, |record| self.feed_record(dir, record, &mut process));
        self.lanes[lane].reader = reader;
        result
    }

    /// Relay one already-framed record travelling in `dir`, bypassing
    /// the internal reassembly readers — the counterpart of
    /// [`EndpointDataPlane::feed_record`], used by the
    /// middlebox once it splits the wire stream with its own
    /// [`RecordReader`].
    ///
    /// * **Distinct keys**: open the record, hand its plaintext to
    ///   `process`, and seal what comes back under the leaving hop's
    ///   own key, so a modification never rides out under the inbound
    ///   record's authentication tag.
    /// * **Aliased keys**: the lane has no write state, so the record
    ///   leaves as it arrived, header included, once it is checked. A
    ///   read-only processor's records, and every alert, only have
    ///   their AEAD tag verified (GHASH plus one AES block, no CTR pass
    ///   over the body), in the pass that appends them to the lane's
    ///   output, and `process` is not called. Any other processor is
    ///   handed the plaintext (the lane's first such record emits
    ///   [`EventKind::FastPathDisabled`]), and a record it changes is
    ///   an error with nothing forwarded: the change could only leave
    ///   sealed under the nonce its sender already spent on the
    ///   original, which is catastrophic GCM nonce reuse (keystream
    ///   reuse plus GHASH-key recovery).
    pub fn feed_record(
        &mut self,
        dir: FlowDirection,
        record: Record<'_>,
        mut process: impl FnMut(FlowDirection, &mut Vec<u8>),
    ) -> Result<(), MbError> {
        let telemetry = self.telemetry.as_ref();
        let lane = &mut self.lanes[arrival(dir)];
        let content_type = record
            .content_type()
            .ok_or(MbError::unknown_message("unknown record type on data plane"))?;
        match (content_type, lane.write.as_mut()) {
            (ContentType::ApplicationData, write) if write.is_some() || !self.read_only => {
                // The flow has counted no record until its first opens.
                if write.is_none() && lane.read.records == 0 {
                    if let Some(t) = telemetry {
                        t.emit(EventKind::FastPathDisabled {
                            hop: lane.read.hop,
                            reason: fast_path_disabled::PROCESSOR_NOT_READ_ONLY,
                        });
                    }
                }
                self.plain_buf.clear();
                lane.read.open_into(record.body(), &mut self.plain_buf, telemetry)?;
                match write {
                    Some(write) => {
                        process(dir, &mut self.plain_buf);
                        write.seal(&self.plain_buf, &mut lane.out, telemetry)?;
                    }
                    None => {
                        // No key to seal with: the record can only leave
                        // as it arrived, so it must come back from
                        // `process` as it was.
                        self.opened.clone_from(&self.plain_buf);
                        process(dir, &mut self.plain_buf);
                        if self.plain_buf != self.opened {
                            return Err(MbError::unexpected_state(
                                "record modified on aliased hop keys, which have no key to seal it under",
                            ));
                        }
                        lane.out.extend_from_slice(record.wire());
                    }
                }
                self.records_forwarded += 1;
            }
            (ContentType::Alert, Some(write)) => {
                // Alerts are never handed to the processor.
                self.plain_buf.clear();
                let plain = &mut self.plain_buf;
                lane.read.state.open_record_into(ContentType::Alert, record.body(), plain)?;
                write.state.seal_record_into(ContentType::Alert, &self.plain_buf, &mut lane.out)?;
            }
            (ContentType::ApplicationData | ContentType::Alert, None) => {
                // Forward the record in the pass that verifies its tag.
                let state = &mut lane.read.state;
                let bytes = state.verify_record_into(content_type, record.wire(), &mut lane.out)? as u64;
                if content_type == ContentType::ApplicationData {
                    lane.read.count(telemetry, |hop, seq| EventKind::RecordForwardedReadOnly {
                        hop,
                        bytes,
                        seq,
                    });
                    self.records_forwarded += 1;
                    self.records_fast_forwarded += 1;
                }
            }
            _ => return Err(MbError::unexpected_state("unexpected record type on data plane")),
        }
        Ok(())
    }

    /// Move pending server-bound bytes to the end of `dst`, leaving
    /// the internal buffer empty; an empty `dst` trades buffers with
    /// it.
    pub fn drain_toward_server_into(&mut self, dst: &mut Vec<u8>) {
        self.drain_into(FlowDirection::ClientToServer, dst);
    }

    /// Move pending client-bound bytes to the end of `dst`, leaving
    /// the internal buffer empty; an empty `dst` trades buffers with
    /// it.
    pub fn drain_toward_client_into(&mut self, dst: &mut Vec<u8>) {
        self.drain_into(FlowDirection::ServerToClient, dst);
    }

    /// Move the records travelling in `dir` that are ready to leave to
    /// the end of `dst` (see [`hand_over`]).
    pub(crate) fn drain_into(&mut self, dir: FlowDirection, dst: &mut Vec<u8>) {
        hand_over(&mut self.lanes[arrival(dir)].out, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;

    #[test]
    fn endpoint_to_endpoint_over_one_hop() {
        let mut rng = CryptoRng::from_seed(1);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();

        let (mut wire, mut plain) = (Vec::new(), Vec::new());
        client.send(b"request").unwrap();
        client.drain_outgoing_into(&mut wire);
        server.feed(&wire).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"request");

        let (mut wire, mut plain) = (Vec::new(), Vec::new());
        server.send(b"response").unwrap();
        server.drain_outgoing_into(&mut wire);
        client.feed(&wire).unwrap();
        client.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"response");
    }

    #[test]
    fn middlebox_reencrypts_between_hops() {
        let mut rng = CryptoRng::from_seed(2);
        let left = fresh_hop_keys(SUITE, &mut rng);
        let right = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&left).unwrap();
        let mut server = EndpointDataPlane::for_server(&right).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&left, &right).unwrap();

        let (mut wire1, mut wire2, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        client.send(b"hello via mbox").unwrap();
        client.drain_outgoing_into(&mut wire1);
        mbox.feed(FlowDirection::ClientToServer, &wire1, |_, _p| {})
            .unwrap();
        mbox.drain_toward_server_into(&mut wire2);
        // Unique per-hop keys: ciphertexts differ (P1C building block).
        assert_ne!(wire1, wire2);
        server.feed(&wire2).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"hello via mbox");

        // Reverse direction with modification.
        let (mut back1, mut back2, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        server.send(b"data-v1").unwrap();
        server.drain_outgoing_into(&mut back1);
        mbox.feed(FlowDirection::ServerToClient, &back1, |_, p| {
            // Header-insertion-style modification.
            p.extend_from_slice(b"+mbox");
        })
        .unwrap();
        mbox.drain_toward_client_into(&mut back2);
        client.feed(&back2).unwrap();
        client.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"data-v1+mbox");
        assert_eq!(mbox.records_forwarded, 2);
    }

    #[test]
    fn path_integrity_skipping_middlebox_detected() {
        // P4: a record sealed for hop A cannot be delivered on hop B.
        let mut rng = CryptoRng::from_seed(3);
        let left = fresh_hop_keys(SUITE, &mut rng);
        let right = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&left).unwrap();
        let mut server = EndpointDataPlane::for_server(&right).unwrap();

        client.send(b"skip the middlebox").unwrap();
        // Adversary splices client bytes directly to the server.
        let mut wire = Vec::new();
        client.drain_outgoing_into(&mut wire);
        let result = server.feed(&wire);
        assert!(result.is_err(), "skipped-hop record must not authenticate");
    }

    #[test]
    fn bridge_keys_with_nonzero_seq() {
        // The bridge hop starts at the primary session's post-
        // handshake sequence numbers.
        let mut rng = CryptoRng::from_seed(4);
        let mut bridge = fresh_hop_keys(SUITE, &mut rng);
        bridge.client_to_server_seq = 1;
        bridge.server_to_client_seq = 1;
        let mut client = EndpointDataPlane::for_client(&bridge).unwrap();
        let mut server = EndpointDataPlane::for_server(&bridge).unwrap();
        let (mut wire, mut plain) = (Vec::new(), Vec::new());
        client.send(b"post-handshake").unwrap();
        client.drain_outgoing_into(&mut wire);
        server.feed(&wire).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"post-handshake");
    }

    #[test]
    fn fresh_keys_differ_every_call() {
        let mut rng = CryptoRng::from_seed(5);
        let a = fresh_hop_keys(SUITE, &mut rng);
        let b = fresh_hop_keys(SUITE, &mut rng);
        assert_ne!(a.client_write_key, b.client_write_key);
        assert_ne!(a.server_write_key, b.server_write_key);
    }

    #[test]
    fn replay_across_hop_detected() {
        let mut rng = CryptoRng::from_seed(6);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let (mut wire, mut plain) = (Vec::new(), Vec::new());
        client.send(b"pay $1").unwrap();
        client.drain_outgoing_into(&mut wire);
        server.feed(&wire).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"pay $1");
        // Replaying the same record fails (sequence number advanced).
        assert!(server.feed(&wire).is_err());
        // Reflecting it fails too: the client's own read direction, at
        // the sequence number the record was sealed under, is keyed
        // apart from its write direction, so the record never opens
        // for its sender.
        let mut sender = EndpointDataPlane::for_client(&hop).unwrap();
        assert!(sender.feed(&wire).is_err(), "a reflected record opened");
        plain.clear();
        sender.drain_plaintext_into(&mut plain);
        assert!(plain.is_empty());
    }

    #[test]
    fn read_only_fast_path_forwards_bytes_unchanged() {
        // Aliased keys + read-only declaration: records are verified
        // and forwarded byte-for-byte without touching the processor.
        let mut rng = CryptoRng::from_seed(7);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();
        mbox.set_read_only(true);
        assert!(mbox.fast_path_active(FlowDirection::ClientToServer));
        assert!(mbox.fast_path_active(FlowDirection::ServerToClient));

        let (mut wire1, mut wire2, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        client.send(b"GET /index.html").unwrap();
        client.drain_outgoing_into(&mut wire1);
        mbox.feed(FlowDirection::ClientToServer, &wire1, |_, _| {
            panic!("processor must not run on the fast path")
        })
        .unwrap();
        mbox.drain_toward_server_into(&mut wire2);
        assert_eq!(wire1, wire2, "fast path must not rewrite the record");
        server.feed(&wire2).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"GET /index.html");

        let (mut back1, mut back2, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        server.send(b"200 OK").unwrap();
        server.drain_outgoing_into(&mut back1);
        mbox.feed(FlowDirection::ServerToClient, &back1, |_, _| {
            panic!("processor must not run on the fast path")
        })
        .unwrap();
        mbox.drain_toward_client_into(&mut back2);
        assert_eq!(back1, back2);
        client.feed(&back2).unwrap();
        client.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"200 OK");

        assert_eq!(mbox.records_forwarded, 2);
        assert_eq!(mbox.records_fast_forwarded, 2);
    }

    #[test]
    fn undeclared_pass_through_on_aliased_keys_forwards_as_arrived() {
        // A processor that does not declare itself read-only still sees
        // the plaintext on aliased keys. The lane holds no write key, so
        // a record the processor leaves untouched is forwarded as it
        // arrived, and nothing new is ever sealed under the shared key.
        let mut rng = CryptoRng::from_seed(8);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();
        // Default: read_only is false — the fast path stays off.
        assert!(!mbox.fast_path_active(FlowDirection::ClientToServer));

        let (mut wire, mut forwarded, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        client.send(b"value=1").unwrap();
        client.drain_outgoing_into(&mut wire);
        let mut ran = false;
        mbox.feed(FlowDirection::ClientToServer, &wire, |_, _| ran = true)
            .unwrap();
        assert!(ran, "slow path must invoke the processor");
        mbox.drain_toward_server_into(&mut forwarded);
        assert_eq!(wire, forwarded, "the record leaves as it arrived");
        server.feed(&forwarded).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"value=1");
        assert_eq!(mbox.records_forwarded, 1);
        assert_eq!(mbox.records_fast_forwarded, 0);
    }

    #[test]
    fn modifying_processor_on_aliased_keys_rejected() {
        // A modification can never be sealed on aliased keys: it could
        // only go out under the very nonce the client already spent on
        // this record (GCM nonce reuse). The relay must error out and
        // forward nothing.
        let mut rng = CryptoRng::from_seed(8);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();

        let (mut wire, mut forwarded) = (Vec::new(), Vec::new());
        client.send(b"value=1").unwrap();
        client.drain_outgoing_into(&mut wire);
        let err = mbox
            .feed(FlowDirection::ClientToServer, &wire, |_, p| {
                p.extend_from_slice(b"&mbox=2");
            })
            .unwrap_err();
        assert!(matches!(err, MbError::Protocol(_)), "got {err:?}");
        mbox.drain_toward_server_into(&mut forwarded);
        assert!(forwarded.is_empty(), "nothing may be forwarded");
        assert_eq!(mbox.records_forwarded, 0);
    }

    #[test]
    fn tampered_record_never_fast_forwarded() {
        // On-path tampering is caught by the tag-only verify; nothing
        // reaches the output buffer.
        let mut rng = CryptoRng::from_seed(9);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();
        mbox.set_read_only(true);

        let (mut wire, mut forwarded) = (Vec::new(), Vec::new());
        client.send(b"authentic").unwrap();
        client.drain_outgoing_into(&mut wire);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(mbox.feed(FlowDirection::ClientToServer, &wire, |_, _| {}).is_err());
        mbox.drain_toward_server_into(&mut forwarded);
        assert!(forwarded.is_empty());
        assert_eq!(mbox.records_fast_forwarded, 0);
    }

    #[test]
    fn aliased_hop_fails_closed_after_rejected_modification() {
        // A rejected modification forwards nothing, not even the
        // record as it arrived. Refusing later records is the
        // middlebox's sticky error (`sticky_errors.rs`), not this
        // plane's.
        let mut rng = CryptoRng::from_seed(10);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();

        let (mut wire, mut forwarded) = (Vec::new(), Vec::new());
        client.send(b"grow me").unwrap();
        client.drain_outgoing_into(&mut wire);
        assert!(mbox
            .feed(FlowDirection::ClientToServer, &wire, |_, p| {
                p.resize(mbtls_tls::record::MAX_FRAGMENT_LEN + 1, 0x61);
            })
            .is_err());
        mbox.drain_toward_server_into(&mut forwarded);
        assert!(forwarded.is_empty());
        assert_eq!(mbox.records_forwarded, 0);

        // The other direction is untouched and keeps working.
        let (mut back, mut returned) = (Vec::new(), Vec::new());
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        server.send(b"unaffected").unwrap();
        server.drain_outgoing_into(&mut back);
        mbox.feed(FlowDirection::ServerToClient, &back, |_, _| {})
            .unwrap();
        mbox.drain_toward_client_into(&mut returned);
        assert!(!returned.is_empty());
    }

    #[test]
    fn oversized_record_refused_on_an_aliased_lane() {
        // One byte of plaintext past 2^14 (RFC 5246 §6.2.1), sealed by
        // hand under the shared key because `fragment` never builds
        // such a record. An aliased lane forwards records as they
        // arrived, so it must refuse this one by its length, and before
        // any GHASH (a broken tag changes nothing), whether it would
        // verify the record or open it. The error maps to the
        // record_overflow alert.
        use mbtls_crypto::gcm::AesGcm;
        use mbtls_tls::alert::{Alert, AlertDescription};
        use mbtls_tls::record::MAX_FRAGMENT_LEN;
        let mut rng = CryptoRng::from_seed(17);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let gcm = AesGcm::new(&hop.client_write_key).unwrap();
        let explicit = hop.client_to_server_seq.to_be_bytes();
        let nonce: [u8; 12] = [&hop.client_write_iv[..], &explicit].concat().try_into().unwrap();
        let len = MAX_FRAGMENT_LEN + 1;
        let aad = [&explicit[..], &[23, 3, 3], &(len as u16).to_be_bytes()].concat();
        let mut body = vec![0x61; len];
        let tag = gcm.seal_in_place(&nonce, &aad, &mut body).unwrap();
        let wire_len = (explicit.len() + len + tag.len()) as u16;
        let record = [&[23, 3, 3][..], &wire_len.to_be_bytes(), &explicit, &body, &tag].concat();
        let mut bad_tag = record.clone();
        *bad_tag.last_mut().unwrap() ^= 1;

        for read_only in [true, false] {
            for wire in [&record, &bad_tag] {
                let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();
                mbox.set_read_only(read_only);
                let err = mbox
                    .feed(FlowDirection::ClientToServer, wire, |_, _| {
                        panic!("an oversized record must not reach the processor")
                    })
                    .unwrap_err();
                assert!(matches!(err, MbError::Tls(TlsError::RecordOverflow)), "got {err:?}");
                let mut forwarded = Vec::new();
                mbox.drain_toward_server_into(&mut forwarded);
                assert!(forwarded.is_empty(), "nothing may be forwarded");
                assert_eq!(mbox.records_forwarded, 0);
            }
        }
        assert_eq!(
            Alert::for_error(&TlsError::RecordOverflow),
            Alert::fatal(AlertDescription::RecordOverflow)
        );
    }

    #[test]
    fn partial_key_alias_rejected_at_construction() {
        // Same key and IV but diverged starting sequence numbers:
        // every reseal would burn a nonce the key's other users
        // already spent or still own, so the data plane refuses to
        // come up at all.
        let mut rng = CryptoRng::from_seed(14);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut shifted = hop.clone();
        shifted.client_to_server_seq = 5;
        assert!(MiddleboxDataPlane::new(&hop, &shifted).is_err());
        assert!(MiddleboxDataPlane::new(&shifted, &hop).is_err());
    }

    #[test]
    fn hop_keys_near_the_sequence_limit_fail_closed() {
        // Key material crosses the wire with each direction's starting
        // sequence number. One at 2^64 − 2 leaves the hop one record:
        // the middlebox reseals the first, refuses the second rather
        // than wrap to nonce 0, and forwards nothing for it.
        let mut rng = CryptoRng::from_seed(16);
        let left = fresh_hop_keys(SUITE, &mut rng);
        let mut near_limit = fresh_hop_keys(SUITE, &mut rng);
        near_limit.client_to_server_seq = u64::MAX - 1;
        let right = SessionKeys::decode(&near_limit.encode()).unwrap();
        assert_eq!(right.client_to_server_seq, u64::MAX - 1);
        let mut client = EndpointDataPlane::for_client(&left).unwrap();
        let mut server = EndpointDataPlane::for_server(&right).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&left, &right).unwrap();

        let (mut wire, mut forwarded, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        client.send(b"first").unwrap();
        client.send(b"second").unwrap();
        client.drain_outgoing_into(&mut wire);
        let err = mbox
            .feed(FlowDirection::ClientToServer, &wire, |_, _| {})
            .unwrap_err();
        assert!(matches!(err, MbError::Tls(TlsError::SequenceExhausted)), "got {err:?}");
        mbox.drain_toward_server_into(&mut forwarded);
        server.feed(&forwarded).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"first");

        // An endpoint on the same keys stops at the same record.
        let mut sender = EndpointDataPlane::for_client(&right).unwrap();
        sender.send(b"first").unwrap();
        assert_eq!(sender.send(b"second"), Err(TlsError::SequenceExhausted));
    }

    #[test]
    fn fast_path_echoes_wire_version() {
        // The reader accepts any 3.x record version, and the AEAD tag
        // pins (3,3) in its AAD regardless of the wire bytes — so a
        // record arriving as 3.1 still verifies. The fast path must
        // echo the header it received, not rewrite it to 3.3.
        let mut rng = CryptoRng::from_seed(15);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();
        mbox.set_read_only(true);

        let (mut wire, mut forwarded, mut plain) = (Vec::new(), Vec::new(), Vec::new());
        client.send(b"legacy version").unwrap();
        client.drain_outgoing_into(&mut wire);
        wire[2] = 0x01; // version 3.1 on the wire
        mbox.feed(FlowDirection::ClientToServer, &wire, |_, _| {
            panic!("processor must not run on the fast path")
        })
        .unwrap();
        mbox.drain_toward_server_into(&mut forwarded);
        assert_eq!(wire, forwarded, "header must be echoed verbatim");
        server.feed(&forwarded).unwrap();
        server.drain_plaintext_into(&mut plain);
        assert_eq!(plain, b"legacy version");
        assert_eq!(mbox.records_fast_forwarded, 1);
    }

    #[test]
    fn warning_non_close_alert_does_not_close() {
        // Regression: the old code matched on the alert's first byte
        // (the *level*; warning = 1) and treated every warning-level
        // alert as close_notify. A warning that is not close_notify
        // must surface as PeerAlert and must not mark the peer closed.
        use mbtls_tls::alert::{Alert, AlertDescription, AlertLevel};
        let mut rng = CryptoRng::from_seed(11);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let mut writer = hop.seal_client_to_server().unwrap();
        let alert = Alert {
            level: AlertLevel::Warning,
            description: AlertDescription::UnexpectedMessage,
        };
        let mut wire = Vec::new();
        writer.seal_record_into(ContentType::Alert, &alert.encode(), &mut wire).unwrap();

        let err = server.feed(&wire).unwrap_err();
        assert!(matches!(
            err,
            TlsError::PeerAlert(AlertDescription::UnexpectedMessage)
        ));
        assert!(!server.peer_closed(), "warning alert is not a close");
    }

    #[test]
    fn close_notify_and_fatal_alert_dispatch_on_description() {
        use mbtls_tls::alert::{Alert, AlertDescription, AlertLevel};
        let mut rng = CryptoRng::from_seed(12);
        let hop = fresh_hop_keys(SUITE, &mut rng);

        // close_notify (warning level, description 0) still closes.
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let mut writer = hop.seal_client_to_server().unwrap();
        let mut wire = Vec::new();
        writer
            .seal_record_into(ContentType::Alert, &Alert::close_notify().encode(), &mut wire)
            .unwrap();
        server.feed(&wire).unwrap();
        assert!(server.peer_closed());

        // A fatal alert surfaces its description.
        let mut server2 = EndpointDataPlane::for_server(&hop).unwrap();
        let mut writer2 = hop.seal_client_to_server().unwrap();
        let fatal = Alert {
            level: AlertLevel::Fatal,
            description: AlertDescription::BadRecordMac,
        };
        let mut wire2 = Vec::new();
        writer2.seal_record_into(ContentType::Alert, &fatal.encode(), &mut wire2).unwrap();
        let err = server2.feed(&wire2).unwrap_err();
        assert!(matches!(err, TlsError::PeerAlert(AlertDescription::BadRecordMac)));
        assert!(!server2.peer_closed());
    }

    #[test]
    fn alert_forwarded_unchanged_on_fast_path() {
        let mut rng = CryptoRng::from_seed(13);
        let hop = fresh_hop_keys(SUITE, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop).unwrap();
        let mut server = EndpointDataPlane::for_server(&hop).unwrap();
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).unwrap();
        mbox.set_read_only(true);

        let (mut wire, mut forwarded) = (Vec::new(), Vec::new());
        client.send_close().unwrap();
        client.drain_outgoing_into(&mut wire);
        mbox.feed(FlowDirection::ClientToServer, &wire, |_, _| {
            panic!("processor must not see alerts")
        })
        .unwrap();
        mbox.drain_toward_server_into(&mut forwarded);
        assert_eq!(wire, forwarded);
        server.feed(&forwarded).unwrap();
        assert!(server.peer_closed());
    }
}
