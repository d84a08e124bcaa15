//! The one TLS connection under both roles.
//!
//! A TLS 1.2 client and server differ in their handshake — which
//! messages they expect, in which phase, and what they send back —
//! and in nothing below or around it: both split the byte stream into
//! records, decrypt once the peer's ChangeCipherSpec has passed,
//! dispatch alerts, reassemble handshake messages across records, keep
//! a transcript, derive the same secrets, seal application data, and
//! fail by queueing one fatal alert. [`Connection`] is that common
//! part, written once; [`Handshake`] is what a role adds to it.
//!
//! The connection is generic over the handshake rather than holding a
//! `dyn` one: every record a connection sees passes through
//! [`Connection::feed_incoming`], and the compiler specialises that
//! path per role exactly as it did the two hand-written copies.

use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_crypto::{ct, CryptoError};
use mbtls_pki::SignatureCheck;

use crate::alert::{Alert, AlertDescription, AlertLevel};
use crate::keyschedule::{self, KeyedPrf, VERIFY_DATA_LEN};
use crate::messages::{handshake_header, handshake_type, HandshakeReader};
use crate::record::{
    fragment, frame_plaintext_into, ContentType, DirectionState, Record, RecordReader,
};
use crate::session::{ConnectionSecrets, ResumptionData, SessionKeys};
use crate::suites::CipherSuite;
use crate::transcript::Transcript;
use crate::TlsError;

/// The record layer's state.
#[derive(Default)]
pub(crate) struct RecordShell {
    record_reader: RecordReader,
    pub(crate) hs_reader: HandshakeReader,
    /// Bytes queued for the wire.
    out: Vec<u8>,
    peer_change_cipher_seen: bool,
    read_cipher: Option<DirectionState>,
    pub(crate) write_cipher: Option<DirectionState>,
    /// Records of non-TLS content types, surfaced to the caller.
    nonstandard_in: Vec<(u8, Vec<u8>)>,
    plaintext_in: Vec<u8>,
    /// The plaintext of the protected alert or handshake record being
    /// processed (application data opens straight into `plaintext_in`).
    opened: Vec<u8>,
    /// The error that failed the connection.
    error: Option<TlsError>,
    closed_by_peer: bool,
}

/// One of a connection's two record flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Records the client seals and the server opens.
    ClientToServer,
    /// Records the server seals and the client opens.
    ServerToClient,
}

impl Flow {
    fn reverse(self) -> Flow {
        match self {
            Flow::ClientToServer => Flow::ServerToClient,
            Flow::ServerToClient => Flow::ClientToServer,
        }
    }

    /// The Finished label of the side that writes this flow.
    fn finished_label(self) -> &'static [u8] {
        match self {
            Flow::ClientToServer => b"client finished",
            Flow::ServerToClient => b"server finished",
        }
    }

    /// Record protection for this flow from sequence number zero,
    /// out of the connection's expanded key `block`.
    fn cipher(self, suite: CipherSuite, block: &[u8]) -> Result<DirectionState, TlsError> {
        let [client_key, server_key, client_iv, server_iv] = keyschedule::split_key_block(block);
        let (key, iv) = match self {
            Flow::ClientToServer => (client_key, client_iv),
            Flow::ServerToClient => (server_key, server_iv),
        };
        DirectionState::new(suite.bulk(), key, iv, 0)
    }
}

/// A TLS role — [`crate::ClientHandshake`] or
/// [`crate::ServerHandshake`] — which is to say everything that
/// differs between a TLS client and a TLS server:
///
/// 1. the handshake state machine: which message it expects in which
///    phase, and the flights it sends back;
/// 2. which way it writes: the client seals client→server records,
///    opens server→client ones and signs off with `"client finished"`;
///    the server the reverse;
/// 3. the peer's ChangeCipherSpec: a client may commit a pending
///    resumption on it;
/// 4. when it is established: a client also waits for deferred
///    signature verification;
/// 5. when application data may be sent: the client's False Start
///    window;
/// 6. when application data may be received;
/// 7. non-TLS record types: a server may be strict about them.
///
/// A client also has things to give a driver that a server does not —
/// resumption data, deferred signature checks — which the server
/// leaves at "nothing owed".
///
/// Public so that code above this crate can be written once over
/// `H: Handshake`; sealed — each item above is a hook on `Hooks`, a
/// supertrait this crate does not export — so there are two roles and
/// no third can be added from outside.
pub trait Handshake: Hooks {}

/// The hooks behind [`Handshake`], numbered as in its list. Hooks take
/// the whole connection; the role's own state is `conn.hs`.
/// [`Connection`] never asks which role it is.
pub trait Hooks: Sized {
    /// (1) The handshake state machine: one reassembled message, its
    /// type and whole frame (the body follows the 4-byte header),
    /// already in the transcript unless it is a Finished. The frame
    /// is borrowed from the connection's handshake reader.
    fn handle_handshake(
        conn: &mut Connection<Self>,
        typ: u8,
        frame: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError>;

    /// (2) The flow this role seals; it opens the reverse. Decides both
    /// ciphers, both Finished labels and which sequence number is
    /// which in [`Connection::export_session_keys`].
    const WRITES: Flow;

    /// (3) The peer's ChangeCipherSpec arrived, before its cipher is
    /// derived.
    fn peer_change_cipher(_: &mut Connection<Self>) -> Result<(), TlsError> {
        Ok(())
    }

    /// (4) Whether the handshake is complete.
    fn established(conn: &Connection<Self>) -> bool;

    /// (5) Whether application data may be sent before the handshake
    /// is established.
    fn may_send_early(_: &Connection<Self>) -> bool {
        false
    }

    /// (6) Whether application data may be received in the current
    /// phase.
    fn admit_application_data(conn: &Connection<Self>) -> Result<(), TlsError>;

    /// (7) Whether a record whose content type is unknown (`None`) or
    /// one of mbTLS's may be surfaced to the caller. Tolerant by
    /// default (mbTLS relies on this).
    fn admit_nonstandard(_: &Connection<Self>, _: Option<ContentType>) -> Result<(), TlsError> {
        Ok(())
    }

    /// [`Connection::resumption_data`] for this role.
    fn resumption_data(_: &Connection<Self>) -> Option<ResumptionData> {
        None
    }

    /// [`Connection::take_pending_verify`] for this role.
    fn take_pending_verify(_: &mut Connection<Self>) -> Option<Vec<SignatureCheck>> {
        None
    }

    /// [`Connection::resolve_verify`] for this role.
    fn resolve_verify(_: &mut Connection<Self>, _valid: bool) {}
}

/// A sans-IO TLS 1.2 connection in the role `H`:
/// [`crate::ClientConnection`] or [`crate::ServerConnection`].
pub struct Connection<H> {
    /// The role's handshake state.
    pub(crate) hs: H,
    pub(crate) shell: RecordShell,
    pub(crate) transcript: Transcript,
    pub(crate) client_random: [u8; 32],
    pub(crate) server_random: [u8; 32],
    pub(crate) suite: Option<CipherSuite>,
    pub(crate) secrets: Option<ConnectionSecrets>,
    /// `secrets`' key block, expanded once by
    /// [`Connection::install_secrets`] for both ciphers and
    /// [`Connection::export_session_keys`]; empty until then.
    key_block: Secret,
    /// The suite's PRF keyed on the master secret: the key block and
    /// both Finished messages run over it. From
    /// [`Connection::install_secrets`] to the handshake's second
    /// Finished.
    prf: Option<KeyedPrf>,
    pub(crate) resumed: bool,
}

impl<H: Handshake> Connection<H> {
    /// A connection about to start the handshake `hs`.
    pub(crate) fn starting(hs: H) -> Self {
        Connection {
            hs,
            shell: RecordShell::default(),
            transcript: Transcript::new(),
            client_random: [0; 32],
            server_random: [0; 32],
            suite: None,
            secrets: None,
            key_block: Secret::from(Vec::new()),
            prf: None,
            resumed: false,
        }
    }

    /// Bytes queued for the wire; call after every feed/send.
    pub fn take_outgoing(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.shell.out)
    }

    /// True once the handshake completed — for a client, including
    /// resolution of any deferred signature checks.
    pub fn is_established(&self) -> bool {
        !self.is_failed() && H::established(self)
    }

    /// True if the connection failed fatally.
    pub fn is_failed(&self) -> bool {
        self.shell.error.is_some()
    }

    /// The error that failed the connection, if any.
    pub fn error(&self) -> Option<&TlsError> {
        self.shell.error.as_ref()
    }

    /// Did this handshake resume a cached session?
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The negotiated secrets (available once the key exchange is
    /// done; mbTLS uses this to derive per-hop key material).
    pub fn secrets(&self) -> Option<&ConnectionSecrets> {
        self.secrets.as_ref()
    }

    /// Export the session keys and current sequence numbers — what an
    /// mbTLS endpoint hands to its middleboxes for the bridge hop. The
    /// two ends of an established connection export equal keys.
    pub fn export_session_keys(&self) -> Option<SessionKeys> {
        let secrets = self.secrets.as_ref()?;
        let written = self.shell.write_cipher.as_ref()?.seq();
        let read = self.shell.read_cipher.as_ref()?.seq();
        let (c2s, s2c) = match H::WRITES {
            Flow::ClientToServer => (written, read),
            Flow::ServerToClient => (read, written),
        };
        Some(SessionKeys::from_key_block(secrets.suite, &self.key_block, c2s, s2c))
    }

    /// Give up record protection: the write and read ciphers, at their
    /// current sequence numbers, leave the connection, and the key
    /// block they came from is wiped — what an mbTLS endpoint does at
    /// key delivery, when its data plane takes the record stream over.
    /// From then on the connection seals and opens nothing, and
    /// [`Connection::export_session_keys`] is `None`. `None` unless
    /// both ciphers were installed; the key block goes either way.
    pub fn take_ciphers(&mut self) -> Option<(DirectionState, DirectionState)> {
        self.key_block = Secret::from(Vec::new());
        let write = self.shell.write_cipher.take();
        let read = self.shell.read_cipher.take();
        Some((write?, read?))
    }

    /// Queue application data (fragmenting as needed). Requires an
    /// established session, or — for a client with False Start
    /// enabled — a sent Finished.
    pub fn send_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if self.is_failed() || !(H::established(self) || H::may_send_early(self)) {
            return Err(TlsError::HandshakeNotDone);
        }
        for frag in fragment(data) {
            let cipher = self
                .shell
                .write_cipher
                .as_mut()
                .ok_or(TlsError::Internal("write cipher active but missing"))?;
            cipher.seal_record_into(ContentType::ApplicationData, frag, &mut self.shell.out)?;
        }
        Ok(())
    }

    /// Received application data.
    pub fn take_plaintext(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.shell.plaintext_in)
    }

    /// Records with non-standard content types received (mbTLS
    /// subchannel records land here).
    pub fn take_nonstandard_records(&mut self) -> Vec<(u8, Vec<u8>)> {
        std::mem::take(&mut self.shell.nonstandard_in)
    }

    /// Send a raw plaintext-framed record of the given content type
    /// (mbTLS Encapsulated / KeyMaterial records).
    pub fn send_raw_record(&mut self, content_type: ContentType, payload: &[u8]) {
        frame_plaintext_into(content_type, &[payload], &mut self.shell.out);
    }

    /// True if the peer sent close_notify.
    pub fn peer_closed(&self) -> bool {
        self.shell.closed_by_peer
    }

    /// Resumption data to cache for the next connection to this peer,
    /// once established. A client's to give; a server has none.
    pub fn resumption_data(&self) -> Option<ResumptionData> {
        H::resumption_data(self)
    }

    /// The server flight's signature checks, parked under
    /// `ClientConfig::defer_verify` (identity, ServerKeyExchange,
    /// attestation quote). Taking them obliges the caller to
    /// deliver a verdict via [`Connection::resolve_verify`]; until
    /// then the connection does not report established. A server
    /// defers nothing.
    pub fn take_pending_verify(&mut self) -> Option<Vec<SignatureCheck>> {
        H::take_pending_verify(self)
    }

    /// Deliver the verdict for checks taken with
    /// [`Connection::take_pending_verify`]: `true` (every check
    /// passed) unblocks establishment; `false` fails the connection
    /// with a bad-signature error. A no-op when nothing is
    /// outstanding.
    pub fn resolve_verify(&mut self, valid: bool) {
        H::resolve_verify(self, valid)
    }

    /// Feed bytes from the wire; processes as many records as
    /// possible. On error the connection fails and a fatal alert is
    /// queued.
    pub fn feed_incoming(&mut self, data: &[u8], rng: &mut CryptoRng) -> Result<(), TlsError> {
        if let Some(e) = &self.shell.error {
            return Err(e.clone());
        }
        // The reader moves aside so the records it frames out of `data`
        // can be handed to the handshake and the connection's other
        // fields. It goes back on every path.
        let mut reader = std::mem::take(&mut self.shell.record_reader);
        let result = reader.for_each_record(data, |record| self.process_record(record, rng));
        self.shell.record_reader = reader;
        if let Err(e) = &result {
            self.fail(e.clone());
        }
        result
    }

    /// Fail the connection (once): queue the fatal alert for `e` and
    /// remember it.
    pub(crate) fn fail(&mut self, e: TlsError) {
        if self.shell.error.is_none() {
            self.send_raw_record(ContentType::Alert, &Alert::for_error(&e).encode());
            self.shell.error = Some(e);
        }
    }

    /// Install the session's secrets: `master_secret` under `suite`
    /// and this connection's randoms, with the PRF keyed on it and the
    /// key block that expands to.
    pub(crate) fn install_secrets(&mut self, suite: CipherSuite, master_secret: Secret) {
        let prf = KeyedPrf::new(suite, &master_secret);
        self.key_block = prf.key_block(suite, &self.client_random, &self.server_random);
        self.prf = Some(prf);
        self.secrets = Some(ConnectionSecrets {
            suite,
            master_secret,
            client_random: self.client_random,
            server_random: self.server_random,
        });
    }

    /// Absorb a handshake message of ours into the transcript and
    /// queue it in the clear: header and body go straight into the
    /// running hash and the outgoing record.
    pub(crate) fn queue_handshake(&mut self, typ: u8, body: &[u8]) {
        let header = handshake_header(typ, body.len());
        self.transcript.add(&[&header, body]);
        frame_plaintext_into(ContentType::Handshake, &[&header, body], &mut self.shell.out);
    }

    /// The Finished verify_data of the side that writes `flow`, over
    /// the transcript so far; `unkeyed` before the PRF is keyed.
    fn verify_data(
        &self,
        flow: Flow,
        unkeyed: TlsError,
    ) -> Result<[u8; VERIFY_DATA_LEN], TlsError> {
        let prf = self.prf.as_ref().ok_or(unkeyed)?;
        Ok(prf.verify_data(flow.finished_label(), &self.transcript.hash()?))
    }

    /// Queue ChangeCipherSpec, switch on the write cipher, and queue
    /// our Finished under it: a 16-byte frame on the stack, wiped once
    /// sealed.
    pub(crate) fn send_ccs_and_finished(&mut self) -> Result<(), TlsError> {
        self.send_raw_record(ContentType::ChangeCipherSpec, &[1]);
        let unkeyed = TlsError::Internal("secrets derived before Finished");
        let suite = self.secrets.as_ref().ok_or(unkeyed.clone())?.suite;
        let mut verify_data = self.verify_data(H::WRITES, unkeyed)?;
        let mut frame = [0; 4 + VERIFY_DATA_LEN];
        frame[..4].copy_from_slice(&handshake_header(handshake_type::FINISHED, VERIFY_DATA_LEN));
        frame[4..].copy_from_slice(&verify_data);
        ct::zeroize(&mut verify_data);
        let cipher = self.shell.write_cipher.insert(H::WRITES.cipher(suite, &self.key_block)?);
        let sealed = cipher.seal_record_into(ContentType::Handshake, &frame, &mut self.shell.out);
        if sealed.is_ok() {
            self.absorb_finished(&frame);
        }
        ct::zeroize(&mut frame);
        sealed
    }

    /// Check the peer's Finished `frame` against the transcript so far
    /// in constant time, then absorb it.
    pub(crate) fn verify_peer_finished(&mut self, frame: &[u8]) -> Result<(), TlsError> {
        let unkeyed = TlsError::UnexpectedMessage("Finished before keys");
        let mut expected = self.verify_data(H::WRITES.reverse(), unkeyed)?;
        let valid = ct::eq(&expected, frame.get(4..).unwrap_or_default());
        ct::zeroize(&mut expected);
        if !valid {
            return Err(TlsError::Crypto(CryptoError::BadTag));
        }
        self.absorb_finished(frame);
        Ok(())
    }

    /// A Finished, sent or checked, joins the transcript — unless it is
    /// the handshake's second, after which nothing hashes the
    /// transcript or runs the PRF again: both are freed instead. Each
    /// side installs its write cipher just before its Finished and its
    /// read cipher on the peer's ChangeCipherSpec, just before the
    /// peer's, so the second is the one that finds both installed.
    fn absorb_finished(&mut self, frame: &[u8]) {
        if self.shell.read_cipher.is_some() && self.shell.write_cipher.is_some() {
            self.prf = None;
            self.transcript.end();
        } else {
            self.transcript.add(&[frame]);
        }
    }

    /// Hand each complete message `reader` holds to the handshake.
    fn handle_messages(
        &mut self,
        reader: &mut HandshakeReader,
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        while let Some((typ, frame)) = reader.next_message()? {
            // Every message joins the transcript as it arrives, except
            // a Finished, which `verify_peer_finished` absorbs once it
            // has checked it against the transcript before it.
            if typ != handshake_type::FINISHED {
                self.transcript.add(&[frame]);
            }
            H::handle_handshake(self, typ, frame, rng)?;
        }
        Ok(())
    }

    fn process_record(&mut self, record: Record<'_>, rng: &mut CryptoRng) -> Result<(), TlsError> {
        let known = record.content_type();
        let content_type = match known {
            Some(standard) if !standard.is_mbtls() => standard,
            _ => {
                H::admit_nonstandard(self, known)?;
                let stored = (record.content_type_byte(), record.body().to_vec());
                self.shell.nonstandard_in.push(stored);
                return Ok(());
            }
        };
        let shell = &mut self.shell;
        // Open the record if the peer has activated its cipher:
        // application data straight onto the received plaintext,
        // anything else into `opened`.
        let received = shell.plaintext_in.len();
        let protected =
            shell.peer_change_cipher_seen && content_type != ContentType::ChangeCipherSpec;
        if protected {
            let cipher = shell
                .read_cipher
                .as_mut()
                .ok_or(TlsError::UnexpectedMessage("protected record with no read cipher"))?;
            let plain = if content_type == ContentType::ApplicationData {
                &mut shell.plaintext_in
            } else {
                shell.opened.clear();
                &mut shell.opened
            };
            cipher.open_record_into(content_type, record.body(), plain)?;
        } else if content_type == ContentType::ApplicationData {
            shell.plaintext_in.extend_from_slice(record.body());
        }
        let payload: &[u8] = if protected { &shell.opened } else { record.body() };
        match content_type {
            ContentType::Alert => {
                shell.closed_by_peer |= peer_alert(payload)?;
                Ok(())
            }
            ContentType::ChangeCipherSpec => {
                if payload != [1] {
                    return Err(TlsError::Decode("bad ChangeCipherSpec"));
                }
                H::peer_change_cipher(self)?;
                let secrets = self
                    .secrets
                    .as_ref()
                    .ok_or(TlsError::UnexpectedMessage("CCS before key exchange"))?;
                let cipher = H::WRITES.reverse().cipher(secrets.suite, &self.key_block)?;
                self.shell.read_cipher = Some(cipher);
                self.shell.peer_change_cipher_seen = true;
                Ok(())
            }
            ContentType::Handshake => {
                shell.hs_reader.feed(payload);
                // The reader moves aside so the frames it hands out,
                // borrowed from its buffer, can go to the handshake
                // with the whole connection. It goes back on every
                // path.
                let mut reader = std::mem::take(&mut self.shell.hs_reader);
                let result = self.handle_messages(&mut reader, rng);
                self.shell.hs_reader = reader;
                result
            }
            ContentType::ApplicationData => {
                // Already appended; taken back if it may not be received.
                H::admit_application_data(self).inspect_err(|_| {
                    self.shell.plaintext_in.truncate(received);
                })
            }
            _ => Err(TlsError::Internal("content type handled in an earlier match arm")),
        }
    }
}

/// Act on a peer's alert: `true` for close_notify, an error for a
/// fatal alert, `false` (ignored) for any other warning.
fn peer_alert(payload: &[u8]) -> Result<bool, TlsError> {
    let alert = Alert::decode(payload)?;
    if alert.description == AlertDescription::CloseNotify {
        return Ok(true);
    }
    if alert.level == AlertLevel::Fatal {
        return Err(TlsError::PeerAlert(alert.description));
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use crate::{ClientConnection, ServerConnection};

    // Connections are held by value in every session, middlebox and
    // host slot, so their size is heap. The hashing state a handshake
    // needs (a running `Sha384`, 224 bytes; an `Hmac<Sha384>`, 448)
    // lives out of line and only while the handshake runs: 24 bytes
    // of pointers and tags over the 2360 / 1272 bytes these were
    // before, where holding both inline read +18 % `peak_heap_kb` on
    // the benchmark's `handshake_full` (a 64-bit target). A new inline
    // field of that kind fails here first.
    #[test]
    fn connection_sizes_are_pinned() {
        let sizes = (size_of::<ClientConnection>(), size_of::<ServerConnection>());
        assert_eq!(sizes, (2384, 1296));
    }
}
