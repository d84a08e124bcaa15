//! The mbTLS middlebox.
//!
//! A middlebox sits on the path between client and server ("left" is
//! toward the client, "right" toward the server). On seeing the
//! primary ClientHello it decides its role (paper §3.4):
//!
//! * **Client-side**: the ClientHello carries the MiddleboxSupport
//!   extension → optimistically split the connection and join the
//!   client's session. The middlebox plays the TLS *server* role in
//!   the secondary handshake, reusing the primary ClientHello as its
//!   own first message; it waits for the primary ServerHello to pass,
//!   assigns itself the next free subchannel ID, injects its
//!   secondary flight, then forwards the ServerHello.
//! * **Server-side**: no extension → forward the ClientHello and send
//!   a MiddleboxAnnouncement toward the server, then wait to claim
//!   the first Encapsulated secondary ClientHello the server emits.
//!   If the server never responds (legacy server), fall back to pure
//!   relaying and remember the failure.
//!
//! Once the owning endpoint delivers per-hop keys over the secondary
//! session, the middlebox switches to the data plane: open each
//! record on one hop, run the [`DataProcessor`], re-seal on the other
//! hop. Application data that arrives before the keys (the paper's
//! §3.5 False-Start discussion) is buffered, not dropped.

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_pki::cert::CertifiedKey;
use mbtls_sgx::EnclaveState;
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::config::{Proof, ServerConfig};
use mbtls_tls::messages::{extension_type, ClientHello, HandshakeReader};
use mbtls_tls::record::{frame_plaintext_into, ContentType, Record, RecordReader};
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::ServerConnection;

use crate::dataplane::{
    arrival, departure, FlowDirection, MiddleboxDataPlane, CLIENT_SIDE, DIRECTIONS, SERVER_SIDE,
};
use crate::messages::{Encapsulated, KeyMaterial, SecondaryMessage};
use crate::session::wrap_records;
use crate::MbError;

/// Application logic run over each record's plaintext.
pub trait DataProcessor: Send {
    /// Process one record's plaintext; the return value is forwarded.
    fn process(&mut self, dir: FlowDirection, data: Vec<u8>) -> Vec<u8>;

    /// Whether this processor never modifies the data it sees.
    ///
    /// A `true` here is a contract, not a hint: combined with aliased
    /// per-hop keys it enables the read-only forward fast path, where
    /// records are tag-verified and forwarded unchanged *without*
    /// invoking [`DataProcessor::process`] at all (mbTLS §3.4 key
    /// reuse for non-modifying middleboxes). A processor that inspects
    /// traffic (IDS in detect mode, metering, logging) should override
    /// this only if it can tolerate seeing no plaintext; one that ever
    /// rewrites data must leave it `false`.
    fn is_read_only(&self) -> bool {
        false
    }
}

/// The identity processor (forwards unchanged).
pub struct ForwardProcessor;

impl DataProcessor for ForwardProcessor {
    fn process(&mut self, _dir: FlowDirection, data: Vec<u8>) -> Vec<u8> {
        data
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Middlebox configuration.
pub struct MiddleboxConfig {
    /// The middlebox service's certified key.
    pub certified_key: Arc<CertifiedKey>,
    /// What every secondary handshake presents: a quote when running
    /// in a (simulated) enclave, or an endpoint-issued delegated
    /// credential (mdTLS-style, DESIGN.md §6j) — `certified_key` then
    /// holds the delegated key with an *empty* chain, the credential
    /// being the middlebox's identity.
    pub proof: Proof,
    /// Suites acceptable in the secondary handshake.
    pub suites: Vec<CipherSuite>,
    /// Cached knowledge that this server does not speak mbTLS (the
    /// paper's announcement-failure cache): skip announcing.
    pub cached_no_support: bool,
    /// Telemetry sink for structured events (None = telemetry off).
    pub telemetry: Option<SharedSink>,
    /// The party label this middlebox emits telemetry under (its
    /// chain position: 0 = nearest the client).
    pub telemetry_party: Party,
}

impl MiddleboxConfig {
    /// Defaults for the given identity.
    pub fn new(certified_key: Arc<CertifiedKey>) -> Self {
        MiddleboxConfig {
            certified_key,
            proof: Proof::None,
            suites: CipherSuite::ALL.to_vec(),
            cached_no_support: false,
            telemetry: None,
            telemetry_party: Party::Middlebox(0),
        }
    }
}

/// Where the middlebox is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiddleboxPhase {
    /// Waiting for the primary ClientHello.
    AwaitClientHello,
    /// Joined the client side; secondary handshake in progress.
    ClientSideJoining,
    /// Announced to the server; waiting to claim a subchannel.
    ServerSideAwaitClaim,
    /// Claimed a subchannel; secondary handshake with the server.
    ServerSideJoining,
    /// Keys received; processing data.
    DataPlane,
    /// Pure relay (legacy peer, rejection, or failure).
    Relay,
}

/// One of the middlebox's two sides: everything it keeps per
/// neighbour.
#[derive(Default)]
struct Side {
    /// Splits the bytes arriving from this side into records.
    reader: RecordReader,
    /// Bytes queued toward this side.
    out: Vec<u8>,
    /// Early application-data records that arrived from this side
    /// before the keys, whole — header and all — so they re-enter the
    /// record path as they came.
    early: RecordReader,
}

/// The middlebox state machine.
pub struct Middlebox {
    config: MiddleboxConfig,
    rng: CryptoRng,

    /// Indexed by [`arrival`].
    sides: [Side; 2],

    phase: MiddleboxPhase,
    /// The secondary session with the owning endpoint, from the join
    /// until key delivery.
    secondary: Option<ServerConnection>,
    /// Our subchannel ID once assigned/claimed.
    pub subchannel: Option<u8>,
    max_subchannel_seen: u8,
    saw_primary_server_hello: bool,
    announced: bool,

    dataplane: Option<MiddleboxDataPlane>,
    processor: Box<dyn DataProcessor>,
    /// Hop keys received (retained so enclave snapshots cover them).
    keys: Option<KeyMaterial>,

    /// Records blindly relayed (accounting).
    pub records_relayed: u64,
    error: Option<MbError>,

    telemetry: Option<SharedSink>,
    telemetry_party: Party,
}

impl Middlebox {
    /// Create with the identity-forwarding processor.
    pub fn new(config: MiddleboxConfig, rng: CryptoRng) -> Self {
        Self::with_processor(config, rng, Box::new(ForwardProcessor))
    }

    /// Create with a custom data processor.
    pub fn with_processor(
        config: MiddleboxConfig,
        rng: CryptoRng,
        processor: Box<dyn DataProcessor>,
    ) -> Self {
        let telemetry = config.telemetry.clone();
        let telemetry_party = config.telemetry_party;
        Middlebox {
            config,
            rng,
            sides: Default::default(),
            phase: MiddleboxPhase::AwaitClientHello,
            secondary: None,
            subchannel: None,
            max_subchannel_seen: 0,
            saw_primary_server_hello: false,
            announced: false,
            dataplane: None,
            processor,
            keys: None,
            records_relayed: 0,
            error: None,
            telemetry,
            telemetry_party,
        }
    }

    fn emit(&self, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.emit(self.telemetry_party, kind);
        }
    }

    /// The failure that wedged this middlebox, if any.
    pub fn error(&self) -> Option<MbError> {
        self.error.clone()
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> MiddleboxPhase {
        self.phase
    }

    /// Did this middlebox announce itself to the server?
    pub fn announced(&self) -> bool {
        self.announced
    }

    /// Whether the middlebox holds session keys (joined successfully).
    pub fn has_keys(&self) -> bool {
        self.keys.is_some()
    }

    /// Records processed on the data plane.
    pub fn records_processed(&self) -> u64 {
        self.dataplane.as_ref().map(|d| d.records_forwarded).unwrap_or(0)
    }

    /// Bytes to send toward the client.
    pub fn take_toward_client(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.drain_toward_client_into(&mut out);
        out
    }

    /// Bytes to send toward the server.
    pub fn take_toward_server(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.drain_toward_server_into(&mut out);
        out
    }

    /// Move pending client-bound bytes to the end of `dst` — the
    /// steady-state alternative to [`Middlebox::take_toward_client`].
    /// In the data-plane phase an empty `dst` takes the records by
    /// trading buffers with the data plane instead of being copied
    /// into.
    pub fn drain_toward_client_into(&mut self, dst: &mut Vec<u8>) {
        self.drain(FlowDirection::ServerToClient, dst)
    }

    /// Move pending server-bound bytes to the end of `dst`; see
    /// [`Middlebox::drain_toward_client_into`].
    pub fn drain_toward_server_into(&mut self, dst: &mut Vec<u8>) {
        self.drain(FlowDirection::ClientToServer, dst)
    }

    /// Move everything travelling in `dir` that is ready to leave to
    /// the end of `dst`: relayed handshake records first (appended),
    /// then the data plane's (handed over, see
    /// [`MiddleboxDataPlane::drain_toward_server_into`]).
    fn drain(&mut self, dir: FlowDirection, dst: &mut Vec<u8>) {
        self.pump_secondary();
        let start = dst.len();
        let out = &mut self.sides[departure(dir)].out;
        dst.extend_from_slice(out);
        out.clear();
        if let Some(dp) = &mut self.dataplane {
            dp.drain_into(dir, dst);
        }
        let n = (dst.len() - start) as u64;
        if n > 0 {
            self.emit(EventKind::BytesOut { bytes: n });
        }
    }

    /// Feed bytes arriving from the client side.
    pub fn feed_from_client(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.feed(FlowDirection::ClientToServer, data)
    }

    /// Feed bytes arriving from the server side.
    pub fn feed_from_server(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.feed(FlowDirection::ServerToClient, data)
    }

    /// Feed bytes travelling in `dir`.
    fn feed(&mut self, dir: FlowDirection, data: &[u8]) -> Result<(), MbError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if !data.is_empty() {
            self.emit(EventKind::BytesIn { bytes: data.len() as u64 });
        }
        let side = arrival(dir);
        // The reader moves aside so the records it frames out of `data`
        // can be routed into the middlebox's other fields.
        let mut reader = std::mem::take(&mut self.sides[side].reader);
        let result = reader.for_each_record(data, |record| self.route(dir, record));
        self.sides[side].reader = reader;
        if let Err(e) = result {
            return self.fail(e);
        }
        self.pump_secondary();
        Ok(())
    }

    /// Route one record arriving in `dir`. In the data-plane phase,
    /// data records are opened, processed, and re-sealed; everything
    /// else takes the phase state machine.
    fn route(&mut self, dir: FlowDirection, record: Record<'_>) -> Result<(), MbError> {
        let is_data = matches!(
            record.content_type(),
            Some(ContentType::ApplicationData | ContentType::Alert)
        );
        if self.phase == MiddleboxPhase::DataPlane && is_data {
            self.dataplane_feed(dir, record)
        } else {
            self.on_record(dir, record)
        }
    }

    fn fail(&mut self, e: MbError) -> Result<(), MbError> {
        self.error = Some(e.clone());
        Err(e)
    }

    /// Relay a record travelling in `dir` exactly as it arrived.
    fn forward(&mut self, dir: FlowDirection, record: &Record<'_>) {
        self.records_relayed += 1;
        self.sides[departure(dir)].out.extend_from_slice(record.wire());
    }

    /// One record travelling in `dir` that the data plane did not
    /// take. Whatever no arm below claims is relayed unchanged.
    fn on_record(&mut self, dir: FlowDirection, record: Record<'_>) -> Result<(), MbError> {
        use MiddleboxPhase::{ClientSideJoining, ServerSideAwaitClaim, ServerSideJoining};
        let from_server = dir == FlowDirection::ServerToClient;
        match (self.phase, record.content_type()) {
            // (A server that speaks first is just relayed.)
            (MiddleboxPhase::AwaitClientHello, _) if !from_server => {
                return self.handle_first_record(record);
            }
            (
                ClientSideJoining | ServerSideAwaitClaim | ServerSideJoining,
                Some(ContentType::ApplicationData),
            ) => {
                // Keys should arrive first (in-order stream), but
                // early data from a False-Starting client can overtake
                // them: hold it until our keys arrive (§3.5).
                self.sides[arrival(dir)].early.feed(record.wire());
                return Ok(());
            }
            (ServerSideAwaitClaim, Some(ContentType::MbtlsEncapsulated)) if from_server => {
                let (id, inner) = Encapsulated::split(record.body())?;
                if self.subchannel.is_none() && is_client_hello_record(inner) {
                    // Claim it: this secondary ClientHello is
                    // ours (first unclaimed one to reach us).
                    self.subchannel = Some(id);
                    self.secondary = Some(self.new_secondary());
                    self.phase = ServerSideJoining;
                    self.emit(EventKind::SecondaryHandshakeStart {
                        subchannel: id as u64,
                    });
                    self.feed_secondary(inner);
                    return Ok(());
                }
            }
            // Our own subchannel can only be spoken to from the side
            // we joined; a client-side join also watches the server
            // side for the IDs other middleboxes claimed.
            (ClientSideJoining | ServerSideJoining, Some(ContentType::MbtlsEncapsulated))
                if from_server || self.phase == ClientSideJoining =>
            {
                let (id, inner) = Encapsulated::split(record.body())?;
                if Some(id) == self.subchannel {
                    self.feed_secondary(inner);
                    return Ok(());
                }
                if from_server && self.phase == ClientSideJoining {
                    self.max_subchannel_seen = self.max_subchannel_seen.max(id);
                }
            }
            (ClientSideJoining, Some(ContentType::Handshake))
                if from_server && !self.saw_primary_server_hello =>
            {
                // The primary ServerHello is passing: claim the
                // next subchannel, inject our flight first
                // (§3.4), then forward it.
                self.saw_primary_server_hello = true;
                let id = self.max_subchannel_seen + 1;
                self.subchannel = Some(id);
                self.emit(EventKind::SecondaryHandshakeStart {
                    subchannel: id as u64,
                });
                let flight = self
                    .secondary
                    .as_mut()
                    .map(|s| s.take_outgoing())
                    .unwrap_or_default();
                wrap_records(id, &flight, &mut self.sides[CLIENT_SIDE].out);
            }
            (ServerSideAwaitClaim, Some(ContentType::ChangeCipherSpec | ContentType::Alert))
                if from_server =>
            {
                // CCS: the server is finishing the primary handshake
                // without claiming us — it does not speak mbTLS.
                // Alert: a strict legacy server aborted on our
                // announcement. Either way, remember and relay.
                self.give_up_to_relay();
            }
            _ => {}
        }
        self.forward(dir, &record);
        Ok(())
    }

    /// A fresh secondary session with this middlebox in the TLS
    /// server role. It has no ticket key: it issues no ticket, and the
    /// primary's ticket in a shared ClientHello is not its to open.
    /// Every session delivers keys anew (DESIGN.md §6b).
    fn new_secondary(&self) -> ServerConnection {
        let mut server_cfg = ServerConfig::new(self.config.certified_key.clone(), None);
        server_cfg.suites = self.config.suites.clone();
        server_cfg.proof = self.config.proof.clone();
        ServerConnection::new(Arc::new(server_cfg))
    }

    /// The very first record from the client decides our role.
    fn handle_first_record(&mut self, record: Record<'_>) -> Result<(), MbError> {
        // Forward it onward in all cases.
        self.forward(FlowDirection::ClientToServer, &record);
        if record.content_type() != Some(ContentType::Handshake) {
            // Not a TLS handshake start — relay everything.
            self.phase = MiddleboxPhase::Relay;
            return Ok(());
        }
        if parse_hello_for_mbtls_support(record.body()) {
            // Join client-side: we play the TLS server; the primary
            // ClientHello is also our secondary ClientHello.
            let mut conn = self.new_secondary();
            if conn.feed_incoming(record.wire(), &mut self.rng).is_err() {
                // Cannot serve this client (e.g. no common cipher
                // suite in the shared ClientHello): stay out of the
                // session and relay instead of breaking it.
                self.phase = MiddleboxPhase::Relay;
                return Ok(());
            }
            self.secondary = Some(conn);
            self.phase = MiddleboxPhase::ClientSideJoining;
        } else if !self.config.cached_no_support {
            // Announce toward the server (optimistically — §3.4).
            frame_plaintext_into(
                ContentType::MbtlsMiddleboxAnnouncement,
                &[],
                &mut self.sides[SERVER_SIDE].out,
            );
            self.announced = true;
            self.emit(EventKind::MiddleboxAnnouncement { count: 1 });
            self.phase = MiddleboxPhase::ServerSideAwaitClaim;
        } else {
            self.phase = MiddleboxPhase::Relay;
        }
        Ok(())
    }

    fn feed_secondary(&mut self, inner_record: &[u8]) {
        let Some(sec) = self.secondary.as_mut() else {
            return;
        };
        if sec.feed_incoming(inner_record, &mut self.rng).is_err() {
            // Endpoint rejected us (or the handshake failed): become a
            // relay and flush anything we were holding.
            self.give_up_to_relay();
        }
    }

    /// Drain secondary output and plaintext; handle key delivery.
    fn pump_secondary(&mut self) {
        // A client-side join has no subchannel — and so holds its
        // flight — until the primary ServerHello has passed.
        let Some(id) = self.subchannel else { return };
        let Some(sec) = self.secondary.as_mut() else { return };
        let bytes = sec.take_outgoing();
        let plain = Secret::from(sec.take_plaintext());
        if !bytes.is_empty() {
            // Secondary traffic (the handshake, which ends before the
            // keys arrive) goes toward whichever endpoint owns us.
            // We joined the client side iff we never announced.
            let owner = if self.announced { SERVER_SIDE } else { CLIENT_SIDE };
            wrap_records(id, &bytes, &mut self.sides[owner].out);
        }
        // Key delivery over the secondary session.
        if !plain.is_empty() {
            match SecondaryMessage::decode(&plain) {
                Ok(SecondaryMessage::Keys(km)) => {
                    if let Err(e) = self.activate_dataplane(km) {
                        self.error = Some(e);
                    }
                }
                Err(_) => {
                    self.give_up_to_relay();
                }
            }
        }
    }

    fn activate_dataplane(&mut self, km: KeyMaterial) -> Result<(), MbError> {
        let mut dp = MiddleboxDataPlane::new(&km.toward_client_hop, &km.toward_server_hop)
            .map_err(MbError::Tls)?;
        if let Some(t) = &self.telemetry {
            dp.set_telemetry(t.clone(), self.telemetry_party);
        }
        dp.set_read_only(self.processor.is_read_only());
        self.dataplane = Some(dp);
        self.keys = Some(km);
        // Key delivery was the secondary session's one job: in this
        // phase Encapsulated records are relayed, never fed to it.
        self.secondary = None;
        self.phase = MiddleboxPhase::DataPlane;
        let sub = self.subchannel.unwrap_or_default() as u64;
        self.emit(EventKind::SecondaryHandshakeFinish { subchannel: sub });
        self.emit(EventKind::KeyDelivery { subchannel: sub });
        self.emit(EventKind::HandshakeComplete);
        // Flush buffered early data through the data plane, in arrival
        // order.
        for dir in DIRECTIONS {
            let mut early = std::mem::take(&mut self.sides[arrival(dir)].early);
            while let Some(record) = early.next_record_inplace().map_err(MbError::Tls)? {
                self.dataplane_feed(dir, record)?;
            }
        }
        Ok(())
    }

    /// Run one data-plane record through the data plane and the
    /// processor, from where it sits (the arriving bytes, the arrival
    /// reader's buffer, or the early-data one).
    fn dataplane_feed(
        &mut self,
        dir: FlowDirection,
        record: Record<'_>,
    ) -> Result<(), MbError> {
        let dp = self
            .dataplane
            .as_mut()
            .ok_or_else(|| MbError::unexpected_state("dataplane active but missing"))?;
        let processor = &mut self.processor;
        dp.feed_record(dir, record, |d, plain| {
            *plain = processor.process(d, std::mem::take(plain));
        })
    }

    fn give_up_to_relay(&mut self) {
        self.phase = MiddleboxPhase::Relay;
        self.secondary = None;
        // Flush any buffered records as plain forwards.
        for dir in DIRECTIONS {
            let mut early = std::mem::take(&mut self.sides[arrival(dir)].early);
            while let Ok(Some(record)) = early.next_record_inplace() {
                self.forward(dir, &record);
            }
        }
    }

    /// The sensitive state a host inspector would look for: the hop
    /// keys. A non-enclave deployment leaves these in ordinary memory;
    /// an enclave deployment keeps them inside (Table 1's "data read
    /// in MS application memory by MIP" row).
    pub fn sensitive_snapshot(&self) -> Vec<u8> {
        self.keys.as_ref().map(|k| k.encode().to_vec()).unwrap_or_default()
    }
}

impl EnclaveState for Middlebox {
    fn snapshot_bytes(&self) -> Vec<u8> {
        self.sensitive_snapshot()
    }

    fn wipe(&mut self) {
        // Release the key-bearing members: the delivered hop keys,
        // the data-plane AEAD states and the secondary session's
        // secrets all zero themselves on drop.
        self.keys = None;
        self.dataplane = None;
        self.secondary = None;
    }
}

/// Does a handshake-record body start a ClientHello?
fn is_client_hello_record(record: &[u8]) -> bool {
    record.len() > 5 && record[0] == 22 && record[5] == 1
}

/// Parse a handshake record body far enough to see whether the
/// ClientHello carries the MiddleboxSupport extension.
fn parse_hello_for_mbtls_support(record_body: &[u8]) -> bool {
    let mut hs = HandshakeReader::new();
    hs.feed(record_body);
    let Ok(Some((1, frame))) = hs.next_message() else {
        return false;
    };
    ClientHello::decode_body(frame.get(4..).unwrap_or_default())
        .is_ok_and(|ch| ch.find_extension(extension_type::MIDDLEBOX_SUPPORT).is_some())
}
