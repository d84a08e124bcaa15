//! The record shell both connection roles share.
//!
//! A TLS 1.2 client and server differ in their handshake — which
//! messages they expect, in which phase, and what they send back —
//! and in nothing below it: both split the byte stream into records,
//! decrypt once the peer's ChangeCipherSpec has passed, dispatch
//! alerts, reassemble handshake messages across records, seal
//! application data, and fail by queueing one fatal alert. That
//! common part lives here once; [`ConnectionRole`] is what a role
//! adds to it.

use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::{ct, CryptoError};

use crate::alert::{Alert, AlertDescription, AlertLevel};
use crate::keyschedule;
use crate::messages::{frame_handshake, handshake_type, HandshakeReader};
use crate::record::{
    fragment, frame_plaintext_into, ContentType, DirectionState, Record, RecordReader,
};
use crate::session::ConnectionSecrets;
use crate::transcript::Transcript;
use crate::TlsError;

/// The role-independent state of a connection.
#[derive(Default)]
pub(crate) struct RecordShell {
    record_reader: RecordReader,
    pub(crate) hs_reader: HandshakeReader,
    /// Bytes queued for the wire.
    pub(crate) out: Vec<u8>,
    peer_change_cipher_seen: bool,
    pub(crate) read_cipher: Option<DirectionState>,
    pub(crate) write_cipher: Option<DirectionState>,
    /// Records of non-TLS content types, surfaced to the caller.
    pub(crate) nonstandard_in: Vec<(u8, Vec<u8>)>,
    pub(crate) plaintext_in: Vec<u8>,
    /// The error that failed the connection; set together with the
    /// role's failed phase.
    pub(crate) error: Option<TlsError>,
    pub(crate) closed_by_peer: bool,
}

/// What a connection role adds to the shell: its handshake state
/// machine and the few per-record decisions that depend on it.
pub(crate) trait ConnectionRole {
    /// The role's shell.
    fn shell(&mut self) -> &mut RecordShell;

    /// Move the handshake to its failed phase.
    fn enter_failed(&mut self);

    /// Whether a record whose content type is unknown (`None`) or one
    /// of mbTLS's may be surfaced to the caller. Tolerant by default
    /// (mbTLS relies on this).
    fn admit_nonstandard(&self, _content_type: Option<ContentType>) -> Result<(), TlsError> {
        Ok(())
    }

    /// The peer's ChangeCipherSpec arrived: the cipher state that
    /// opens its records from here on.
    fn peer_cipher(&mut self) -> Result<DirectionState, TlsError>;

    /// One reassembled handshake message: its type and whole frame
    /// (the body follows the 4-byte header).
    fn handle_handshake(
        &mut self,
        typ: u8,
        frame: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError>;

    /// Whether application data is legal in the current phase.
    fn admit_application_data(&self) -> Result<(), TlsError>;
}

impl RecordShell {
    /// Seal `data` as application-data records (fragmenting as
    /// needed) and queue them.
    pub(crate) fn seal_application_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        for frag in fragment(data) {
            let cipher = self
                .write_cipher
                .as_mut()
                .ok_or(TlsError::Internal("write cipher active but missing"))?;
            cipher.seal_record_into(ContentType::ApplicationData, frag, &mut self.out)?;
        }
        Ok(())
    }

    /// Queue a plaintext-framed record.
    pub(crate) fn queue_plaintext(&mut self, content_type: ContentType, payload: &[u8]) {
        frame_plaintext_into(content_type, &[payload], &mut self.out);
    }

    /// Queue this side's Finished (`label` over the transcript so
    /// far), sealed under the already-activated write cipher.
    pub(crate) fn send_finished(
        &mut self,
        secrets: Option<&ConnectionSecrets>,
        label: &[u8],
        transcript: &mut Transcript,
    ) -> Result<(), TlsError> {
        let secrets = secrets.ok_or(TlsError::Internal("secrets derived before Finished"))?;
        let vd = keyschedule::verify_data(
            secrets.suite,
            &secrets.master_secret,
            label,
            transcript.bytes(),
        );
        let frame = frame_handshake(handshake_type::FINISHED, &vd);
        transcript.add(&frame);
        self.write_cipher
            .as_mut()
            .ok_or(TlsError::Internal("write cipher activated above"))?
            .seal_record_into(ContentType::Handshake, &frame, &mut self.out)
    }

    fn handle_alert(&mut self, payload: &[u8]) -> Result<(), TlsError> {
        let alert = Alert::decode(payload)?;
        if alert.description == AlertDescription::CloseNotify {
            self.closed_by_peer = true;
            return Ok(());
        }
        if alert.level == AlertLevel::Fatal {
            return Err(TlsError::PeerAlert(alert.description));
        }
        Ok(())
    }
}

/// Check the peer's Finished `body` (`label` over the transcript so
/// far) in constant time, then absorb its `frame`.
pub(crate) fn verify_finished(
    secrets: Option<&ConnectionSecrets>,
    label: &[u8],
    transcript: &mut Transcript,
    body: &[u8],
    frame: &[u8],
) -> Result<(), TlsError> {
    let secrets = secrets.ok_or(TlsError::UnexpectedMessage("Finished before keys"))?;
    let expected = keyschedule::verify_data(
        secrets.suite,
        &secrets.master_secret,
        label,
        transcript.bytes(),
    );
    if !ct::eq(&expected, body) {
        return Err(TlsError::Crypto(CryptoError::BadTag));
    }
    transcript.add(frame);
    Ok(())
}

/// Feed bytes from the wire; processes as many records as possible.
/// On error the connection fails and a fatal alert is queued.
pub(crate) fn feed<R: ConnectionRole>(
    conn: &mut R,
    data: &[u8],
    rng: &mut CryptoRng,
) -> Result<(), TlsError> {
    if let Some(e) = &conn.shell().error {
        return Err(e.clone());
    }
    conn.shell().record_reader.feed(data);
    // The reader moves aside so each record is opened where it sits in
    // its buffer while the role and the shell's other fields take the
    // result. It goes back on every path: a failed connection keeps
    // whatever followed the record that failed it, unread.
    let mut reader = std::mem::take(&mut conn.shell().record_reader);
    let result = process_buffered(conn, &mut reader, rng);
    conn.shell().record_reader = reader;
    if let Err(e) = &result {
        fail(conn, e.clone());
    }
    result
}

/// Fail the connection (once): queue the fatal alert for `e` and
/// remember it.
pub(crate) fn fail<R: ConnectionRole>(conn: &mut R, e: TlsError) {
    let shell = conn.shell();
    if shell.error.is_none() {
        let alert = Alert::for_error(&e);
        shell.queue_plaintext(ContentType::Alert, &alert.encode());
        shell.error = Some(e);
        conn.enter_failed();
    }
}

/// Process every complete record `reader` holds.
fn process_buffered<R: ConnectionRole>(
    conn: &mut R,
    reader: &mut RecordReader,
    rng: &mut CryptoRng,
) -> Result<(), TlsError> {
    while let Some(record) = reader.next_record_inplace()? {
        process_record(conn, record, rng)?;
    }
    Ok(())
}

fn process_record<R: ConnectionRole>(
    conn: &mut R,
    mut record: Record<'_>,
    rng: &mut CryptoRng,
) -> Result<(), TlsError> {
    let known = record.content_type();
    let content_type = match known {
        Some(standard) if !standard.is_mbtls() => standard,
        _ => {
            conn.admit_nonstandard(known)?;
            let stored = (record.content_type_byte(), record.body().to_vec());
            conn.shell().nonstandard_in.push(stored);
            return Ok(());
        }
    };
    let shell = conn.shell();
    // Decrypt, where the record sits, if the peer has activated its
    // cipher.
    let payload: &[u8] = if shell.peer_change_cipher_seen
        && content_type != ContentType::ChangeCipherSpec
    {
        shell
            .read_cipher
            .as_mut()
            .ok_or(TlsError::UnexpectedMessage("ciphertext before keys"))?
            .open_record_in_place(content_type, record.body())?
    } else {
        record.body()
    };
    match content_type {
        ContentType::Alert => shell.handle_alert(payload),
        ContentType::ChangeCipherSpec => {
            if payload != [1] {
                return Err(TlsError::Decode("bad ChangeCipherSpec"));
            }
            let cipher = conn.peer_cipher()?;
            let shell = conn.shell();
            shell.read_cipher = Some(cipher);
            shell.peer_change_cipher_seen = true;
            Ok(())
        }
        ContentType::Handshake => {
            shell.hs_reader.feed(payload);
            while let Some((typ, frame)) = conn.shell().hs_reader.next_message()? {
                conn.handle_handshake(typ, &frame, rng)?;
            }
            Ok(())
        }
        ContentType::ApplicationData => {
            conn.admit_application_data()?;
            conn.shell().plaintext_in.extend_from_slice(payload);
            Ok(())
        }
        _ => Err(TlsError::Internal("content type handled in an earlier match arm")),
    }
}
