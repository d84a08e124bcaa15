//! The TLS record layer: framing, fragmentation, and AEAD protection.
//!
//! Content types include the three mbTLS additions (paper Appendix
//! A.1) so middlebox code can frame and recognize them; the base TLS
//! state machines treat them as "non-standard" records and surface
//! them to the caller instead of aborting — the hook mbTLS's
//! subchannel multiplexing is built on.

// A wire file (DESIGN.md §6d): its buffers hold a peer's bytes, and no
// slice here is indexed.
#![forbid(clippy::indexing_slicing)]

use crate::codec::StreamBuf;
use crate::suites::CipherSuite;
use crate::TlsError;
use mbtls_crypto::gcm::{AesGcm, TAG_LEN};
use mbtls_crypto::CryptoError;

/// Maximum plaintext fragment length (RFC 5246 §6.2.1).
pub const MAX_FRAGMENT_LEN: usize = 1 << 14;
/// Maximum ciphertext length we accept (plaintext + AEAD expansion,
/// RFC 5246 §6.2.3).
pub const MAX_WIRE_LEN: usize = MAX_FRAGMENT_LEN + 2048;
/// TLS 1.2 wire version.
pub const VERSION_TLS12: (u8, u8) = (3, 3);
/// Length of the implicit part of a record's nonce: the salt each
/// direction takes from the key block (RFC 5288 §3).
pub const FIXED_IV_LEN: usize = 4;
/// Length of the explicit part of a record's nonce, carried on the
/// wire before the ciphertext: the record's sequence number.
pub const EXPLICIT_NONCE_LEN: usize = 8;

/// Record content types, including the mbTLS additions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    /// change_cipher_spec(20)
    ChangeCipherSpec,
    /// alert(21)
    Alert,
    /// handshake(22)
    Handshake,
    /// application_data(23)
    ApplicationData,
    /// mbtls_encapsulated(30) — wraps secondary-session records.
    MbtlsEncapsulated,
    /// mbtls_key_material(31) — per-hop key delivery.
    MbtlsKeyMaterial,
    /// mbtls_middlebox_announcement(32) — server-side discovery.
    MbtlsMiddleboxAnnouncement,
}

impl ContentType {
    /// Wire byte.
    pub fn to_u8(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
            ContentType::MbtlsEncapsulated => 30,
            ContentType::MbtlsKeyMaterial => 31,
            ContentType::MbtlsMiddleboxAnnouncement => 32,
        }
    }

    /// Parse a wire byte.
    pub fn from_u8(v: u8) -> Option<ContentType> {
        match v {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            30 => Some(ContentType::MbtlsEncapsulated),
            31 => Some(ContentType::MbtlsKeyMaterial),
            32 => Some(ContentType::MbtlsMiddleboxAnnouncement),
            _ => None,
        }
    }

    /// Is this one of the mbTLS extension types?
    pub fn is_mbtls(self) -> bool {
        matches!(
            self,
            ContentType::MbtlsEncapsulated
                | ContentType::MbtlsKeyMaterial
                | ContentType::MbtlsMiddleboxAnnouncement
        )
    }
}

/// Length of the record header: content type, version, body length.
const HEADER_LEN: usize = 5;

/// Append the header of a record whose body is `body_len` bytes. The
/// header's layout is written here and parsed in [`record_len`],
/// nowhere else.
fn push_header(out: &mut Vec<u8>, content_type: ContentType, body_len: usize) {
    debug_assert!(body_len <= MAX_WIRE_LEN);
    out.extend_from_slice(&[
        content_type.to_u8(),
        VERSION_TLS12.0,
        VERSION_TLS12.1,
        (body_len >> 8) as u8,
        body_len as u8,
    ]);
}

/// Frame a plaintext record (no protection).
pub fn frame_plaintext(content_type: ContentType, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    frame_plaintext_into(content_type, &[payload], &mut out);
    out
}

/// Append one plaintext-framed record to `out`; its payload is
/// `parts` back to back (so a caller with a prefix and a body need not
/// join them first).
pub fn frame_plaintext_into(content_type: ContentType, parts: &[&[u8]], out: &mut Vec<u8>) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    debug_assert!(len <= MAX_FRAGMENT_LEN);
    out.reserve(HEADER_LEN + len);
    push_header(out, content_type, len);
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// One direction of record protection state: the AES-GCM key, the
/// implicit IV and the sequence number, which together give every
/// record its nonce.
pub struct DirectionState {
    gcm: AesGcm,
    fixed_iv: [u8; FIXED_IV_LEN],
    seq: u64,
}

impl DirectionState {
    /// Build from raw key material: a write key of `suite`'s length
    /// and a [`FIXED_IV_LEN`]-byte implicit IV, or
    /// [`CryptoError::BadKeyLength`].
    pub fn new(
        suite: CipherSuite,
        key: &[u8],
        fixed_iv: &[u8],
        initial_seq: u64,
    ) -> Result<Self, TlsError> {
        if key.len() != suite.key_len() {
            return Err(CryptoError::BadKeyLength.into());
        }
        let fixed_iv =
            <[u8; FIXED_IV_LEN]>::try_from(fixed_iv).map_err(|_| CryptoError::BadKeyLength)?;
        Ok(DirectionState {
            gcm: AesGcm::new(key)?,
            fixed_iv,
            seq: initial_seq,
        })
    }

    /// The record nonce of RFC 5288 §3: the implicit IV, then the
    /// explicit nonce the record carries.
    fn nonce(&self, explicit: &[u8; EXPLICIT_NONCE_LEN]) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..FIXED_IV_LEN].copy_from_slice(&self.fixed_iv);
        nonce[FIXED_IV_LEN..].copy_from_slice(explicit);
        nonce
    }

    /// Current sequence number (mbTLS key-material messages carry it).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn aad(seq: u64, content_type: ContentType, plain_len: usize) -> [u8; 13] {
        let mut aad = [0u8; 13];
        aad[..8].copy_from_slice(&seq.to_be_bytes());
        aad[8] = content_type.to_u8();
        aad[9] = VERSION_TLS12.0;
        aad[10] = VERSION_TLS12.1;
        aad[11..13].copy_from_slice(&(plain_len as u16).to_be_bytes());
        aad
    }

    /// Protect a fragment, appending the full wire record
    /// (header || explicit_nonce || ciphertext || tag, RFC 5288) to
    /// `out`.
    ///
    /// The payload is read where the caller holds it and encrypted
    /// straight into `out`'s spare capacity — never copied first — so
    /// a caller that reuses `out` across records does no per-record
    /// allocation once the buffer has grown to its steady-state
    /// capacity. A payload over [`MAX_FRAGMENT_LEN`] bytes, whose
    /// lengths the header and AAD could not carry, is refused as
    /// [`TlsError::RecordOverflow`]; a refused record writes nothing
    /// and leaves the sequence number where it was.
    pub fn seal_record_into(
        &mut self,
        content_type: ContentType,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), TlsError> {
        if payload.len() > MAX_FRAGMENT_LEN {
            return Err(TlsError::RecordOverflow);
        }
        let next = self.next_seq()?;
        let explicit: [u8; EXPLICIT_NONCE_LEN] = self.seq.to_be_bytes();
        let aad = Self::aad(self.seq, content_type, payload.len());
        let wire_len = EXPLICIT_NONCE_LEN + payload.len() + TAG_LEN;
        let start = out.len();
        out.reserve(HEADER_LEN + wire_len);
        push_header(out, content_type, wire_len);
        out.extend_from_slice(&explicit);
        if let Err(e) = self.gcm.seal_into(&self.nonce(&explicit), &aad, payload, out) {
            out.truncate(start);
            return Err(e.into());
        }
        self.seq = next;
        Ok(())
    }

    /// Authenticate a record body without decrypting it, returning
    /// the plaintext length. `body` holds `explicit_nonce ||
    /// ciphertext || tag` and is left untouched — the record can be
    /// forwarded on the wire exactly as it arrived. Advances the
    /// sequence number like [`DirectionState::open_record_into`], so
    /// the two are interchangeable per record.
    ///
    /// This is the read-only middlebox fast path's check: a hop whose
    /// inbound and outbound keys are identical verifies the tag (GHASH
    /// plus one AES block) and skips both the CTR decryption and the
    /// re-encryption. A hop that forwards the record calls
    /// [`DirectionState::verify_record_into`], which runs the same
    /// check and appends the record in the same pass.
    pub fn verify_record(
        &mut self,
        content_type: ContentType,
        body: &[u8],
    ) -> Result<usize, TlsError> {
        let sealed = self.sealed(content_type, body)?;
        let nonce = self.nonce(&sealed.explicit);
        self.gcm.verify_tag(&nonce, &sealed.aad, sealed.ciphertext(body), sealed.tag(body))?;
        self.seq = sealed.next;
        Ok(sealed.plain_len)
    }

    /// [`DirectionState::verify_record`] over a whole record, `wire`
    /// (header and body as they arrived, of type `content_type`),
    /// appending it to `out` in the pass that authenticates it: the
    /// read-only forward, which reads the record once. On any error
    /// `out` is left exactly as it was and the sequence number where it
    /// was.
    pub fn verify_record_into(
        &mut self,
        content_type: ContentType,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, TlsError> {
        let (head, body) = wire.split_at_checked(HEADER_LEN).unwrap_or((wire, &[]));
        if head.first() != Some(&content_type.to_u8()) {
            return Err(TlsError::Decode("record header does not carry its content type"));
        }
        let sealed = self.sealed(content_type, body)?;
        let start = out.len();
        out.reserve(wire.len());
        out.extend_from_slice(head);
        out.extend_from_slice(&sealed.explicit);
        let (ciphertext, tag) = (sealed.ciphertext(body), sealed.tag(body));
        let nonce = self.nonce(&sealed.explicit);
        if let Err(e) = self.gcm.verify_tag_into(&nonce, &sealed.aad, ciphertext, tag, out) {
            out.truncate(start);
            return Err(e.into());
        }
        self.seq = sealed.next;
        Ok(sealed.plain_len)
    }

    /// Unprotect a record body onto the end of `out` and return the
    /// plaintext length. `body` holds `explicit_nonce || ciphertext ||
    /// tag` and is only read: the plaintext is decrypted straight into
    /// `out`'s spare capacity, after the tag has verified. On any
    /// error `out` is left exactly as it was.
    pub fn open_record_into(
        &mut self,
        content_type: ContentType,
        body: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, TlsError> {
        let sealed = self.sealed(content_type, body)?;
        let (ciphertext, tag) = (sealed.ciphertext(body), sealed.tag(body));
        self.gcm.open_into(&self.nonce(&sealed.explicit), &sealed.aad, ciphertext, tag, out)?;
        self.seq = sealed.next;
        Ok(sealed.plain_len)
    }

    /// What opening or verifying `body` needs, or why it is refused:
    /// by its length, before its tag is computed, so a malformed record
    /// costs no GHASH — too short to hold the explicit nonce and the
    /// tag, or carrying more than [`MAX_FRAGMENT_LEN`] bytes of
    /// plaintext (RFC 5246 §6.2.1), which no honest sender produces
    /// ([`fragment`] caps it) — or by the sequence number.
    fn sealed(&self, content_type: ContentType, body: &[u8]) -> Result<Sealed, TlsError> {
        if body.len() < EXPLICIT_NONCE_LEN + TAG_LEN {
            return Err(TlsError::Decode("record too short for AEAD"));
        }
        if body.len() > EXPLICIT_NONCE_LEN + MAX_FRAGMENT_LEN + TAG_LEN {
            return Err(TlsError::RecordOverflow);
        }
        let next = self.next_seq()?;
        let explicit = body
            .first_chunk::<EXPLICIT_NONCE_LEN>()
            .copied()
            .ok_or(TlsError::Decode("record too short for AEAD"))?;
        let plain_len = body.len() - EXPLICIT_NONCE_LEN - TAG_LEN;
        Ok(Sealed {
            next,
            explicit,
            aad: Self::aad(self.seq, content_type, plain_len),
            plain_len,
        })
    }

    /// The sequence number after this record's. TLS sequence numbers
    /// never wrap (RFC 5246 §6.1): a record at 2^64 − 1, which has no
    /// successor, is refused before it is sealed, opened or counted,
    /// so no nonce repeats.
    fn next_seq(&self) -> Result<u64, TlsError> {
        self.seq.checked_add(1).ok_or(TlsError::SequenceExhausted)
    }

    /// Unprotect a record body in place and return the plaintext as a
    /// subslice of `body` (which holds `explicit_nonce || ciphertext
    /// || tag` on entry). No allocation; on authentication failure the
    /// buffer keeps the untouched ciphertext and must not be used.
    pub fn open_record_in_place<'a>(
        &mut self,
        content_type: ContentType,
        body: &'a mut [u8],
    ) -> Result<&'a mut [u8], TlsError> {
        let sealed = self.sealed(content_type, body)?;
        let (ciphertext, tag) = body
            .get_mut(EXPLICIT_NONCE_LEN..)
            .unwrap_or_default()
            .split_at_mut(sealed.plain_len);
        self.gcm.open_in_place(&self.nonce(&sealed.explicit), &sealed.aad, ciphertext, tag)?;
        self.seq = sealed.next;
        Ok(ciphertext)
    }
}

/// A protected record body that passed [`DirectionState::sealed`]'s
/// length and sequence checks: its nonce, AAD and split, and the
/// sequence number to advance to once its tag verifies.
struct Sealed {
    next: u64,
    explicit: [u8; EXPLICIT_NONCE_LEN],
    aad: [u8; 13],
    plain_len: usize,
}

impl Sealed {
    fn ciphertext<'a>(&self, body: &'a [u8]) -> &'a [u8] {
        body.get(EXPLICIT_NONCE_LEN..EXPLICIT_NONCE_LEN + self.plain_len).unwrap_or_default()
    }

    fn tag<'a>(&self, body: &'a [u8]) -> &'a [u8] {
        body.get(EXPLICIT_NONCE_LEN + self.plain_len..).unwrap_or_default()
    }
}

/// One framed record: the header and the body exactly as they arrived,
/// borrowed from wherever the reader found them — the caller's bytes
/// ([`RecordReader::for_each_record`]) or the reader's buffer.
///
/// This is the only form a received record takes between the wire and
/// whoever handles it, and it is read-only. [`Record::wire`] is what a
/// relay forwards (or a session feeds onward) byte for byte, header
/// included, so a record nobody opened leaves as it arrived;
/// [`Record::body`] is what [`DirectionState::open_record_into`] reads
/// to append the plaintext wherever the caller wants it.
pub struct Record<'a> {
    content_type_byte: u8,
    /// Header and body; at least [`HEADER_LEN`] bytes.
    wire: &'a [u8],
}

impl<'a> Record<'a> {
    /// A record over `wire`, whose header [`record_len`] has checked
    /// and whose length it announced.
    fn framed(wire: &'a [u8]) -> Self {
        Record {
            content_type_byte: wire.first().copied().unwrap_or_default(),
            wire,
        }
    }
}

impl Record<'_> {
    /// The content-type byte (may be an unknown value — the caller
    /// decides whether that is fatal).
    pub fn content_type_byte(&self) -> u8 {
        self.content_type_byte
    }

    /// The content type, if it is one this crate knows.
    pub fn content_type(&self) -> Option<ContentType> {
        ContentType::from_u8(self.content_type_byte)
    }

    /// The whole record, header included, as it arrived (the reader
    /// accepts any 3.x version, and this is where it survives).
    pub fn wire(&self) -> &[u8] {
        self.wire
    }

    /// Everything after the header: still protected if the sender had
    /// activated its cipher.
    pub fn body(&self) -> &[u8] {
        self.wire.get(HEADER_LEN..).unwrap_or_default()
    }
}

/// The whole length of the record `bytes` starts with, header
/// included, once its header is there (`None` before): the one place a
/// record header is parsed. A header with a version other than 3.x, or
/// announcing more than [`MAX_WIRE_LEN`] bytes, is refused before its
/// body arrives.
fn record_len(bytes: &[u8]) -> Result<Option<usize>, TlsError> {
    let Some(&[_content_type, ver_major, _ver_minor, len_hi, len_lo]) =
        bytes.first_chunk::<HEADER_LEN>()
    else {
        return Ok(None);
    };
    // Accept 3.x for the ClientHello's legacy version field.
    if ver_major != 3 {
        return Err(TlsError::Decode("bad record version"));
    }
    let len = usize::from(u16::from_be_bytes([len_hi, len_lo]));
    if len > MAX_WIRE_LEN {
        return Err(TlsError::RecordOverflow);
    }
    Ok(Some(HEADER_LEN + len))
}

/// A reassembling record reader. [`RecordReader::for_each_record`]
/// frames whole records straight from the caller's bytes and buffers
/// only a record split across calls; [`RecordReader::feed`] and
/// [`RecordReader::next_record_inplace`] buffer everything and pull
/// records from the buffer. Consumed records advance a cursor and the
/// buffer compacts lazily, so N coalesced records cost O(total bytes).
#[derive(Default)]
pub struct RecordReader {
    stream: StreamBuf,
}

impl RecordReader {
    /// Fresh reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append stream bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.stream.feed(data);
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.stream.unread().len()
    }

    /// Pull the next complete buffered record, if any, where it sits
    /// (see [`Record`]).
    // Every party's per-record loop lives in another crate; without
    // the hint each record pays an out-of-line call here.
    #[inline]
    pub fn next_record_inplace(&mut self) -> Result<Option<Record<'_>>, TlsError> {
        let Some(len) = record_len(self.stream.unread())? else {
            return Ok(None);
        };
        // `None` until the whole record is buffered.
        Ok(self.stream.consume(len).map(Record::framed))
    }

    /// Hand `f` every whole record of the stream so far followed by
    /// `data`, in order, copying only what spans calls:
    ///
    /// 1. records already buffered go first, and a partial one is
    ///    completed by copying only its missing bytes out of `data`;
    /// 2. every whole record after that is borrowed straight from
    ///    `data`;
    /// 3. only the trailing partial record is buffered.
    ///
    /// Stops at the first error, from framing or from `f`; the party
    /// that gets it fails closed, so what the reader holds afterwards
    /// is never read again.
    #[inline]
    pub fn for_each_record<E: From<TlsError>>(
        &mut self,
        mut data: &[u8],
        mut f: impl FnMut(Record<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        while !self.stream.unread().is_empty() {
            if let Some(record) = self.next_record_inplace()? {
                f(record)?;
                continue;
            }
            // A partial record: its header's missing bytes first, then
            // (next time round) its body's.
            let buffered = self.stream.unread();
            let want = record_len(buffered)?.unwrap_or(HEADER_LEN);
            let (missing, rest) = data.split_at((want - buffered.len()).min(data.len()));
            self.stream.feed(missing);
            data = rest;
            if self.stream.unread().len() < want {
                return Ok(());
            }
        }
        while let Some(len) = record_len(data)? {
            let Some((wire, rest)) = data.split_at_checked(len) else {
                break;
            };
            f(Record::framed(wire))?;
            data = rest;
        }
        self.stream.feed(data);
        Ok(())
    }
}

/// Split a payload into MAX_FRAGMENT_LEN-sized fragments.
pub fn fragment(payload: &[u8]) -> impl Iterator<Item = &[u8]> {
    payload.chunks(MAX_FRAGMENT_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const APP: ContentType = ContentType::ApplicationData;
    const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;

    /// A writer and a reader of one direction under `suite`, built
    /// apart from the same key material at `initial_seq`, as the two
    /// ends of a hop build them.
    fn pair_at(suite: CipherSuite, initial_seq: u64) -> (DirectionState, DirectionState) {
        let key = vec![0x11u8; suite.key_len()];
        let state = || DirectionState::new(suite, &key, &[0x22; FIXED_IV_LEN], initial_seq);
        (state().unwrap(), state().unwrap())
    }

    fn pair() -> (DirectionState, DirectionState) {
        pair_at(SUITE, 0)
    }

    /// One sealed record's wire bytes.
    fn seal(tx: &mut DirectionState, content_type: ContentType, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        tx.seal_record_into(content_type, payload, &mut wire).unwrap();
        wire
    }

    /// Frame the next record `reader` holds and open it as `claimed`.
    fn open_next(
        reader: &mut RecordReader,
        rx: &mut DirectionState,
        claimed: ContentType,
    ) -> Result<Vec<u8>, TlsError> {
        let record = reader.next_record_inplace().unwrap().expect("a whole record");
        let mut plain = Vec::new();
        rx.open_record_into(claimed, record.body(), &mut plain).map(|_| plain)
    }

    /// `open_next` over a reader holding exactly `wire`.
    fn open(rx: &mut DirectionState, claimed: ContentType, wire: &[u8]) -> Result<Vec<u8>, TlsError> {
        let mut reader = RecordReader::new();
        reader.feed(wire);
        open_next(&mut reader, rx, claimed)
    }

    /// The next record's (content-type byte, body), copied out.
    fn next(reader: &mut RecordReader) -> Option<(u8, Vec<u8>)> {
        let record = reader.next_record_inplace().unwrap()?;
        Some((record.content_type_byte(), record.body().to_vec()))
    }

    #[test]
    fn seal_open_roundtrip() {
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"hello world");
        let mut reader = RecordReader::new();
        reader.feed(&wire);
        let record = reader.next_record_inplace().unwrap().unwrap();
        assert_eq!(record.content_type_byte(), 23);
        assert_eq!(record.content_type(), Some(APP));
        assert_eq!(record.wire(), wire);
        let mut plain = b"kept".to_vec();
        assert_eq!(rx.open_record_into(APP, record.body(), &mut plain), Ok(11));
        assert_eq!(plain, b"kepthello world");
    }

    #[test]
    fn every_suite_roundtrips() {
        // AES-128-GCM and AES-256-GCM: a record is its header, the
        // explicit nonce, the ciphertext and the tag, and opens again.
        for suite in CipherSuite::ALL {
            let (mut tx, mut rx) = pair_at(suite, 0);
            let wire = seal(&mut tx, APP, b"hello world");
            assert_eq!(wire.len(), HEADER_LEN + EXPLICIT_NONCE_LEN + 11 + TAG_LEN, "{suite:?}");
            let mut plain = Vec::new();
            assert_eq!(rx.open_record_into(APP, &wire[HEADER_LEN..], &mut plain), Ok(11));
            assert_eq!(plain, b"hello world", "{suite:?}");
        }
    }

    #[test]
    fn a_reader_built_apart_opens_only_its_writers_records() {
        // The two ends of a direction build their states apart from the
        // same key and IV; a reader keyed for the other direction of the
        // hop refuses the record.
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"record");
        let body = &wire[HEADER_LEN..];
        let mut other = DirectionState::new(SUITE, &[0x33; 32], &[0x22; FIXED_IV_LEN], 0).unwrap();
        assert!(other.open_record_into(APP, body, &mut Vec::new()).is_err());
        let mut plain = Vec::new();
        assert_eq!(rx.open_record_into(APP, body, &mut plain), Ok(6));
        assert_eq!(plain, b"record");
    }

    #[test]
    fn keys_and_ivs_of_the_wrong_length_are_refused() {
        let refused = |suite, key_len, iv_len| {
            DirectionState::new(suite, &vec![0; key_len], &vec![0; iv_len], 0).err()
                == Some(TlsError::Crypto(CryptoError::BadKeyLength))
        };
        assert!(refused(CipherSuite::EcdheAes128GcmSha256, 32, FIXED_IV_LEN));
        assert!(refused(CipherSuite::EcdheAes256GcmSha384, 16, FIXED_IV_LEN));
        assert!(refused(CipherSuite::EcdheAes128GcmSha256, 16, 8));
        assert!(refused(CipherSuite::EcdheAes256GcmSha384, 32, FIXED_IV_LEN - 1));
        assert!(!refused(CipherSuite::EcdheAes128GcmSha256, 16, FIXED_IV_LEN));
    }

    proptest! {
        /// A sealed record is the AES-GCM of RFC 5288 over RFC 5246
        /// §6.2.3.3's AAD and nothing else: its ciphertext and tag open
        /// under the bare cipher with the nonce `fixed_iv || seq` and the
        /// AAD `seq || type || version || length`, and under the nonce
        /// of a neighbouring sequence number or implicit IV they do not. A
        /// change to how a record's nonce is formed fails here, not only
        /// in the pinned wire digests.
        #[test]
        fn sealed_record_opens_under_the_rfc5288_nonce(
            seq in 0..u64::MAX,
            iv in any::<u32>(),
            len in 0usize..600,
            suite in 0usize..CipherSuite::ALL.len(),
        ) {
            let suite = CipherSuite::ALL[suite];
            let key: Vec<u8> = (0..suite.key_len() as u8).collect();
            let iv = iv.to_be_bytes();
            let mut tx = DirectionState::new(suite, &key, &iv, seq).unwrap();
            let payload = vec![0xA5u8; len];
            let wire = seal(&mut tx, APP, &payload);
            let (explicit, sealed) = wire[HEADER_LEN..].split_at(EXPLICIT_NONCE_LEN);
            prop_assert_eq!(explicit, seq.to_be_bytes());
            let (ciphertext, tag) = sealed.split_at(len);
            let aad = [&seq.to_be_bytes()[..], &[23, 3, 3], &(len as u16).to_be_bytes()].concat();
            let gcm = AesGcm::new(&key).unwrap();
            let open = |iv: [u8; FIXED_IV_LEN], seq: u64| {
                let nonce: [u8; 12] = [&iv[..], &seq.to_be_bytes()].concat().try_into().unwrap();
                let mut plain = Vec::new();
                gcm.open_into(&nonce, &aad, ciphertext, tag, &mut plain).map(|()| plain)
            };
            prop_assert_eq!(open(iv, seq), Ok(payload));
            prop_assert!(open(iv, seq ^ 1).is_err(), "another sequence number's nonce");
            prop_assert!(open((u32::from_be_bytes(iv) ^ 1).to_be_bytes(), seq).is_err());
        }
    }

    #[test]
    fn sequence_numbers_advance() {
        let (mut tx, mut rx) = pair();
        for i in 0..5u8 {
            let wire = seal(&mut tx, APP, &[i]);
            assert_eq!(open(&mut rx, APP, &wire).unwrap(), vec![i]);
        }
        assert_eq!(tx.seq(), 5);
        assert_eq!(rx.seq(), 5);
    }

    #[test]
    fn replay_detected() {
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"once");
        let mut r = RecordReader::new();
        r.feed(&wire);
        r.feed(&wire); // replayed copy
        assert!(open_next(&mut r, &mut rx, APP).is_ok());
        // Receiver seq advanced; the replay fails authentication.
        assert!(open_next(&mut r, &mut rx, APP).is_err());
    }

    #[test]
    fn reorder_detected() {
        let (mut tx, mut rx) = pair();
        let _w1 = seal(&mut tx, APP, b"first");
        let w2 = seal(&mut tx, APP, b"second");
        assert!(open(&mut rx, APP, &w2).is_err());
    }

    #[test]
    fn content_type_is_authenticated() {
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"data");
        // Claim it was a handshake record: AAD mismatch.
        assert!(open(&mut rx, ContentType::Handshake, &wire).is_err());
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let (mut tx, mut rx) = pair();
        let mut wire = seal(&mut tx, APP, b"data");
        let n = wire.len();
        wire[n - 1] ^= 1;
        assert!(open(&mut rx, APP, &wire).is_err());
    }

    #[test]
    fn reader_handles_partial_and_multiple_records() {
        let r1 = frame_plaintext(ContentType::Handshake, b"aaa");
        let r2 = frame_plaintext(ContentType::Alert, b"bb");
        let mut all = r1.clone();
        all.extend_from_slice(&r2);
        let mut reader = RecordReader::new();
        reader.feed(&all[..4]);
        assert!(next(&mut reader).is_none());
        reader.feed(&all[4..]);
        assert_eq!(next(&mut reader), Some((22, b"aaa".to_vec())));
        assert_eq!(next(&mut reader), Some((21, b"bb".to_vec())));
        assert!(next(&mut reader).is_none());
    }

    #[test]
    fn in_place_seal_open_roundtrip() {
        let (mut tx, mut rx) = pair();
        let (mut wire, mut plain) = (Vec::new(), Vec::new());
        let mut reader = RecordReader::new();
        // One output buffer, one plaintext buffer and one reader reused
        // across records.
        for i in 0..4u8 {
            wire.clear();
            tx.seal_record_into(APP, &[i; 100], &mut wire).unwrap();
            reader.feed(&wire);
            let record = reader.next_record_inplace().unwrap().unwrap();
            assert_eq!(record.content_type_byte(), 23);
            assert_eq!(record.wire()[1..3], [VERSION_TLS12.0, VERSION_TLS12.1]);
            plain.clear();
            rx.open_record_into(APP, record.body(), &mut plain).unwrap();
            assert_eq!(plain, [i; 100]);
            // The in-place form opens the same record the same way.
            let mut body = wire[HEADER_LEN..].to_vec();
            let mut again = pair_at(SUITE, i.into()).1;
            assert_eq!(again.open_record_in_place(APP, &mut body).unwrap(), &[i; 100]);
        }
    }

    #[test]
    fn record_wire_keeps_the_version_that_arrived() {
        // The reader accepts any 3.x version; `wire()` is what a relay
        // forwards, so the bytes that came in are the bytes it holds.
        let mut reader = RecordReader::new();
        reader.feed(&[22, 3, 1, 0, 2, 0xAA, 0xBB]);
        let record = reader.next_record_inplace().unwrap().unwrap();
        assert_eq!(record.wire(), [22, 3, 1, 0, 2, 0xAA, 0xBB]);
        assert_eq!(record.body(), [0xAA, 0xBB]);
    }

    #[test]
    fn frame_plaintext_into_joins_parts_under_one_header() {
        let mut out = vec![0xEE];
        frame_plaintext_into(ContentType::MbtlsEncapsulated, &[&[7], b"abc"], &mut out);
        assert_eq!(out, [0xEE, 30, 3, 3, 0, 4, 7, b'a', b'b', b'c']);
        assert_eq!(out[1..], frame_plaintext(ContentType::MbtlsEncapsulated, &[7, b'a', b'b', b'c']));
    }

    #[test]
    fn verify_record_interchangeable_with_open() {
        let (mut tx, mut rx) = pair();
        // Verifier and opener must agree record-by-record: verify one,
        // open the next, with one shared sequence counter.
        let w1 = seal(&mut tx, APP, b"first");
        let w2 = seal(&mut tx, APP, b"second!");
        let body1 = &w1[5..];
        let before = body1.to_vec();
        assert_eq!(rx.verify_record(APP, body1).unwrap(), 5);
        assert_eq!(body1, before, "verify must leave the record untouched");
        assert_eq!(open(&mut rx, APP, &w2).unwrap(), b"second!");
        assert_eq!(rx.seq(), 2);
    }

    #[test]
    fn verify_record_rejects_tamper_replay_and_type_confusion() {
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"payload");
        let body = &wire[5..];
        // Wrong claimed content type: AAD mismatch.
        assert!(rx.verify_record(ContentType::Handshake, body).is_err());
        // Tampered ciphertext.
        let mut bad = body.to_vec();
        bad[EXPLICIT_NONCE_LEN] ^= 1;
        assert!(rx.verify_record(APP, &bad).is_err());
        // Failed attempts must not advance the sequence number.
        assert_eq!(rx.seq(), 0);
        assert!(rx.verify_record(APP, body).is_ok());
        // Replay: seq advanced, the same record no longer verifies.
        assert!(rx.verify_record(APP, body).is_err());
        // Short body.
        assert!(rx
            .verify_record(APP, &[0u8; EXPLICIT_NONCE_LEN + TAG_LEN - 1])
            .is_err());
    }

    #[test]
    fn verify_and_open_agree_on_every_record() {
        // The tag check alone gives the verdict a full open gives: on
        // the genuine record, under a wrong claimed type, at another
        // sequence number, and with a bit flipped in the explicit
        // nonce, the ciphertext or the tag.
        let wire = seal(&mut pair().0, APP, b"payload");
        let body = &wire[HEADER_LEN..];
        let flipped = |at: usize| {
            let mut bad = body.to_vec();
            bad[at] ^= 0x80;
            bad
        };
        let cases = [
            (APP, 0, body.to_vec()),
            (ContentType::Handshake, 0, body.to_vec()),
            (APP, 1, body.to_vec()),
            (APP, 0, flipped(0)),
            (APP, 0, flipped(EXPLICIT_NONCE_LEN)),
            (APP, 0, flipped(body.len() - 1)),
        ];
        for (i, (claimed, seq, body)) in cases.into_iter().enumerate() {
            let (mut verifier, mut opener) = pair_at(SUITE, seq);
            let verdict = verifier.verify_record(claimed, &body);
            let opened = opener.open_record_into(claimed, &body, &mut Vec::new());
            assert_eq!(verdict, opened, "case {i}");
            assert_eq!(verdict.is_ok(), i == 0, "case {i}");
        }
    }

    // The forward appends a genuine record as it arrived, header
    // included, after whatever `out` held: at lengths below one
    // 512-byte group, at whole groups, with a tail, and at the
    // fragment ceiling.
    #[test]
    fn verify_record_into_appends_exactly_the_wire() {
        let (mut tx, mut rx) = pair();
        let mut out = b"held".to_vec();
        for len in [0usize, 100, 511, 512, 1024 + 300, MAX_FRAGMENT_LEN] {
            let wire = seal(&mut tx, APP, &vec![0x5au8; len]);
            let before = out.clone();
            assert_eq!(rx.verify_record_into(APP, &wire, &mut out), Ok(len));
            assert_eq!(out[..before.len()], before[..], "len {len}: what out held");
            assert_eq!(out[before.len()..], wire[..], "len {len}: the record");
        }
        assert_eq!(rx.seq(), 6);
    }

    // The forward is fail-closed: one bit flipped in each 64-byte lane
    // of both whole 512-byte groups, in the tail after them, in the
    // tag, or in the AAD (the content type, which the header and the
    // claimed type both carry) is an error that appends nothing, to an
    // empty `out` or a prefilled one, and spends no sequence number:
    // the genuine record still verifies after all of them.
    #[test]
    fn verify_record_into_is_fail_closed() {
        let (mut tx, mut rx) = pair();
        let first = seal(&mut tx, APP, b"first");
        assert_eq!(rx.verify_record(APP, &first[HEADER_LEN..]), Ok(5));
        let wire = seal(&mut tx, APP, &[0xC3u8; 2 * 512 + 300]);
        let ciphertext = HEADER_LEN + EXPLICIT_NONCE_LEN;
        let mut flips: Vec<(ContentType, usize, u8)> = (0..2 * 8)
            .map(|lane| (APP, ciphertext + lane * 64 + lane, 1u8 << (lane % 8)))
            .collect();
        flips.push((APP, ciphertext + 2 * 512 + 7, 0x80));
        flips.push((APP, ciphertext + 2 * 512 + 299, 0x02));
        flips.push((APP, wire.len() - 1, 0x01));
        flips.push((APP, wire.len() - TAG_LEN, 0x40));
        flips.push((ContentType::Handshake, 0, 0x01));
        for (claimed, at, bit) in flips {
            let mut bad = wire.clone();
            bad[at] ^= bit;
            for held in [&b""[..], b"prefilled"] {
                let mut out = held.to_vec();
                let err = rx.verify_record_into(claimed, &bad, &mut out);
                assert!(err.is_err(), "bit {bit:#04x} of byte {at} as {claimed:?}");
                assert_eq!(out, held, "byte {at}: a failed verify appended");
                assert_eq!(rx.seq(), 1, "byte {at}: a failed verify spent a sequence number");
            }
        }
        let mut out = Vec::new();
        assert_eq!(rx.verify_record_into(APP, &wire, &mut out), Ok(2 * 512 + 300));
        assert_eq!(out, wire);
    }

    #[test]
    fn sequence_number_never_wraps() {
        // Wrapping would seal the next records under nonces 2^64 − 1,
        // then 0, 1, … — the ones this key's first records used.
        let (mut tx, mut rx) = pair_at(SUITE, u64::MAX - 1);
        let wire = seal(&mut tx, APP, b"last");
        assert_eq!(wire[5..13], (u64::MAX - 1).to_be_bytes(), "explicit nonce");
        let mut out = Vec::new();
        assert_eq!(tx.seal_record_into(APP, b"next", &mut out), Err(TlsError::SequenceExhausted));
        assert!(out.is_empty(), "a refused record writes nothing");
        assert_eq!(tx.seq(), u64::MAX);

        assert_eq!(open(&mut rx, APP, &wire).unwrap(), b"last");
        // The reader is spent too: the next record is refused before
        // its tag is looked at, even this record replayed.
        assert_eq!(open(&mut rx, APP, &wire), Err(TlsError::SequenceExhausted));
        assert_eq!(rx.verify_record(APP, &wire[5..]), Err(TlsError::SequenceExhausted));
        assert_eq!(rx.seq(), u64::MAX);
        // A session that hits it fails closed with a fatal alert.
        let alert = crate::alert::Alert::for_error(&TlsError::SequenceExhausted);
        assert_eq!(alert.level, crate::alert::AlertLevel::Fatal);
    }

    #[test]
    fn oversized_payload_refused_before_anything_is_written() {
        // The header and the AAD carry the length in 16 bits and the
        // fragment limit is 2^14: one byte more is refused outright, in
        // release as in debug, rather than sealed under truncated
        // lengths. Nothing is written and the nonce is not spent.
        let (mut tx, mut rx) = pair();
        let mut out = vec![0xEE];
        let refused = tx.seal_record_into(APP, &[0x61; MAX_FRAGMENT_LEN + 1], &mut out);
        assert_eq!(refused, Err(TlsError::RecordOverflow));
        assert_eq!(out, [0xEE], "a refused record writes nothing");
        assert_eq!(tx.seq(), 0, "a refused record spends no sequence number");
        // The limit itself seals, under the sequence number the refused
        // record did not take, and opens.
        tx.seal_record_into(APP, &[0x62; MAX_FRAGMENT_LEN], &mut out).unwrap();
        assert_eq!(out[1..6], [23, 3, 3, 0x40, 0x18]);
        assert_eq!(open(&mut rx, APP, &out[1..]).unwrap(), [0x62; MAX_FRAGMENT_LEN]);
        let alert = crate::alert::Alert::for_error(&TlsError::RecordOverflow);
        assert_eq!(alert.level, crate::alert::AlertLevel::Fatal);
    }

    #[test]
    fn failed_open_into_appends_nothing() {
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"payload");
        let mut out = b"before".to_vec();
        for at in [HEADER_LEN, HEADER_LEN + EXPLICIT_NONCE_LEN, wire.len() - 1] {
            let mut bad = wire[HEADER_LEN..].to_vec();
            bad[at - HEADER_LEN] ^= 0x10;
            assert!(rx.open_record_into(APP, &bad, &mut out).is_err());
            assert_eq!(out, b"before");
        }
        let short = [0; EXPLICIT_NONCE_LEN + TAG_LEN - 1];
        let refused = rx.open_record_into(APP, &short, &mut out);
        assert_eq!(refused, Err(TlsError::Decode("record too short for AEAD")));
        assert_eq!(rx.seq(), 0, "failed opens spend no sequence number");
        assert_eq!(rx.open_record_into(APP, &wire[HEADER_LEN..], &mut out), Ok(7));
        assert_eq!(out, b"beforepayload");
    }

    #[test]
    fn for_each_record_frames_every_split_alike() {
        // Whole records come straight from the caller's bytes; only a
        // record that spans calls is buffered, and only until it is
        // whole, so the reader never holds more than one record.
        let records: Vec<Vec<u8>> = (0..6u8)
            .map(|i| frame_plaintext(ContentType::Handshake, &vec![i; 37 * usize::from(i)]))
            .collect();
        let stream = records.concat();
        let collect = |cuts: &[usize]| {
            let mut reader = RecordReader::new();
            let mut got = Vec::new();
            let bounds: Vec<usize> =
                [0].into_iter().chain(cuts.iter().copied()).chain([stream.len()]).collect();
            for piece in bounds.windows(2).map(|w| &stream[w[0]..w[1]]) {
                reader
                    .for_each_record(piece, |record| {
                        got.push(record.wire().to_vec());
                        Ok::<_, TlsError>(())
                    })
                    .unwrap();
                assert!(reader.buffered() < HEADER_LEN + 37 * 5, "more than one partial record");
            }
            assert_eq!(reader.buffered(), 0);
            got
        };
        assert_eq!(collect(&[]), records);
        assert_eq!(collect(&(1..stream.len()).collect::<Vec<_>>()), records);
        for cut in 1..stream.len() {
            assert_eq!(collect(&[cut]), records, "cut at {cut}");
        }

        // Records fed earlier go first; a bad header stops the walk
        // before its body arrives.
        let mut reader = RecordReader::new();
        reader.feed(&records[1]);
        let mut seen = Vec::new();
        let then_bad_header = [&records[2][..], &[23, 9, 9, 0, 1]].concat();
        let result = reader.for_each_record(&then_bad_header, |record| {
            seen.push(record.content_type_byte());
            Ok::<_, TlsError>(())
        });
        assert_eq!(result, Err(TlsError::Decode("bad record version")));
        assert_eq!(seen, [22, 22]);
        // `f`'s error stops the walk too.
        let mut reader = RecordReader::new();
        let mut calls = 0;
        let result = reader.for_each_record(&stream, |_| {
            calls += 1;
            Err(TlsError::Decode("stop"))
        });
        assert_eq!((result, calls), (Err(TlsError::Decode("stop")), 1));
    }

    #[test]
    fn in_place_open_rejects_tamper_and_short_bodies() {
        let (mut tx, mut rx) = pair();
        let wire = seal(&mut tx, APP, b"payload");
        let mut body = wire[5..].to_vec();
        let n = body.len();
        body[n - 1] ^= 1;
        assert!(rx.open_record_in_place(APP, &mut body).is_err());
        let mut short = vec![0u8; EXPLICIT_NONCE_LEN + TAG_LEN - 1];
        assert!(rx.open_record_in_place(APP, &mut short).is_err());
    }

    #[test]
    fn reader_cursor_compacts_lazily() {
        // Many coalesced records in one feed: all must come out, and
        // the consumed prefix must be reclaimed by later feeds.
        let mut stream = Vec::new();
        for i in 0..50u8 {
            stream.extend_from_slice(&frame_plaintext(APP, &[i; 32]));
        }
        let mut reader = RecordReader::new();
        reader.feed(&stream);
        for i in 0..50u8 {
            assert_eq!(next(&mut reader), Some((23, vec![i; 32])));
        }
        assert!(next(&mut reader).is_none());
        assert_eq!(reader.buffered(), 0);
        // After full consumption a feed resets the buffer in place.
        reader.feed(&frame_plaintext(ContentType::Alert, b"zz"));
        assert_eq!(reader.buffered(), 7);
        assert_eq!(next(&mut reader), Some((21, b"zz".to_vec())));

        // Partial-record boundary: consumed prefix + incomplete tail,
        // completed by a later feed (exercises the compaction memmove).
        let r1 = frame_plaintext(ContentType::Handshake, &[7; 200]);
        let r2 = frame_plaintext(ContentType::Handshake, &[8; 200]);
        let mut both = r1;
        both.extend_from_slice(&r2);
        reader.feed(&both[..both.len() - 10]);
        assert_eq!(next(&mut reader), Some((22, vec![7; 200])));
        assert!(next(&mut reader).is_none());
        reader.feed(&both[both.len() - 10..]);
        assert_eq!(next(&mut reader), Some((22, vec![8; 200])));
    }

    #[test]
    fn mbtls_content_types_roundtrip() {
        for ct in [
            ContentType::MbtlsEncapsulated,
            ContentType::MbtlsKeyMaterial,
            ContentType::MbtlsMiddleboxAnnouncement,
        ] {
            assert_eq!(ContentType::from_u8(ct.to_u8()), Some(ct));
            assert!(ct.is_mbtls());
        }
        assert!(!ContentType::Handshake.is_mbtls());
        assert_eq!(ContentType::from_u8(99), None);
    }

    #[test]
    fn oversized_record_rejected() {
        // A header announcing more than 2^14 + 2048 bytes is
        // record_overflow (RFC 5246 §6.2.3) before its body arrives; at
        // the limit the reader waits for the rest.
        let header = |len: usize| {
            let mut reader = RecordReader::new();
            reader.feed(&[23, 3, 3, (len >> 8) as u8, len as u8]);
            reader.next_record_inplace().map(|r| r.is_some())
        };
        assert_eq!(header(MAX_WIRE_LEN), Ok(false));
        assert_eq!(header(MAX_WIRE_LEN + 1), Err(TlsError::RecordOverflow));
        assert_eq!(header(usize::from(u16::MAX)), Err(TlsError::RecordOverflow));
    }

    #[test]
    fn bad_version_rejected() {
        let mut reader = RecordReader::new();
        reader.feed(&[23, 9, 0, 0, 0]);
        assert!(reader.next_record_inplace().is_err());
    }

    #[test]
    fn fragmentation_bounds() {
        let big = vec![0u8; MAX_FRAGMENT_LEN * 2 + 5];
        let frags: Vec<&[u8]> = fragment(&big).collect();
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].len(), MAX_FRAGMENT_LEN);
        assert_eq!(frags[2].len(), 5);
    }
}
