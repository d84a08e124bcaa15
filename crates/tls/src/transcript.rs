//! The handshake transcript, as a running hash.
//!
//! Each Finished is a PRF over the hash of every handshake message
//! before it (RFC 5246 §7.4.9), under the suite's PRF hash. So each
//! message is hashed once, as it is sent or received, and a Finished
//! finalises a copy of the running state. Two things are not known
//! from the first message on, and each is what some bytes are kept
//! for, only as long as it is:
//!
//! 1. The PRF hash is only known once the suite is chosen. Until
//!    [`Transcript::start`] the messages so far (a ClientHello, and on
//!    a client the ServerHello) are buffered, and `start` absorbs
//!    them.
//! 2. mbTLS binds attestation quotes and delegated credentials to the
//!    transcript up to ServerKeyExchange (paper §3.4), as its SHA-256
//!    — not the running hash, which is SHA-384 under two suites of
//!    three. So the raw bytes stay while such a binding can still be
//!    taken (the caller says so at `start`) and go once it has been
//!    ([`Transcript::drop_bytes`]). A binding asked for after that is
//!    an internal error, never a digest of part of the transcript.

use mbtls_crypto::sha2::{Hash, Sha256, Sha384};

use crate::suites::PrfHash;
use crate::TlsError;

/// The handshake messages so far (full frames, header included), in
/// order, excluding HelloRequest and the Finished of the *other* side
/// where the spec says so: their running hash, and their raw bytes
/// while a caller may still need them.
pub struct Transcript {
    /// The suite's PRF hash over every message so far; `None` before
    /// [`Transcript::start`] and after [`Transcript::end`]. Boxed: a
    /// `Sha384` is 224 bytes, and only a handshake in progress needs
    /// one.
    running: Option<Box<RunningHash>>,
    /// Every message so far, while they are buffered for `start` or
    /// kept for an attestation binding.
    bytes: Option<Vec<u8>>,
}

/// The running state of the suite's PRF hash.
enum RunningHash {
    Sha256(Sha256),
    Sha384(Sha384),
}

impl RunningHash {
    fn update(&mut self, data: &[u8]) {
        match self {
            RunningHash::Sha256(h) => h.update(data),
            RunningHash::Sha384(h) => h.update(data),
        }
    }
}

/// A transcript hash, by value: the first `len` bytes of `bytes`.
pub struct TranscriptHash {
    bytes: [u8; 48],
    len: usize,
}

impl std::ops::Deref for TranscriptHash {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes.get(..self.len).unwrap_or_default()
    }
}

/// `hasher`'s digest so far, leaving it running.
fn digest_of<H: Hash>(hasher: &H) -> TranscriptHash {
    let digest = hasher.clone().finalize();
    let mut hash = TranscriptHash { bytes: [0; 48], len: H::OUTPUT_LEN };
    hash.bytes[..H::OUTPUT_LEN].copy_from_slice(digest.as_ref());
    hash
}

impl Default for Transcript {
    fn default() -> Self {
        Transcript { running: None, bytes: Some(Vec::new()) }
    }
}

impl Transcript {
    /// Empty transcript, buffering until [`Transcript::start`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one complete handshake frame, given as the parts it is
    /// written in (a header and a body need not be joined first).
    pub fn add(&mut self, parts: &[&[u8]]) {
        if let Some(bytes) = &mut self.bytes {
            bytes.reserve(parts.iter().map(|part| part.len()).sum());
        }
        for part in parts {
            if let Some(running) = &mut self.running {
                running.update(part);
            }
            if let Some(bytes) = &mut self.bytes {
                bytes.extend_from_slice(part);
            }
        }
    }

    /// The suite is chosen: run its PRF hash from here on, over the
    /// messages buffered so far first. The raw bytes are kept only if
    /// `keep_bytes` — an attestation binding may still be taken.
    pub fn start(&mut self, hash: PrfHash, keep_bytes: bool) {
        let mut running = Box::new(match hash {
            PrfHash::Sha256 => RunningHash::Sha256(Sha256::new()),
            PrfHash::Sha384 => RunningHash::Sha384(Sha384::new()),
        });
        running.update(self.bytes.as_deref().unwrap_or_default());
        self.running = Some(running);
        if !keep_bytes {
            self.drop_bytes();
        }
    }

    /// The running hash of every message so far: what a Finished
    /// signs off on. An internal error before [`Transcript::start`]
    /// and after [`Transcript::end`].
    pub fn hash(&self) -> Result<TranscriptHash, TlsError> {
        match self.running.as_deref() {
            Some(RunningHash::Sha256(h)) => Ok(digest_of(h)),
            Some(RunningHash::Sha384(h)) => Ok(digest_of(h)),
            None => Err(TlsError::Internal("transcript hash outside the handshake")),
        }
    }

    /// SHA-256 of the transcript so far, padded to 64 bytes — the
    /// report-data binding mbTLS puts in attestation quotes (the
    /// quote's REPORTDATA field is 64 bytes; we place the 32-byte
    /// hash in the first half, zeros in the second). An internal
    /// error once the bytes are dropped.
    pub fn attestation_binding(&self) -> Result<[u8; 64], TlsError> {
        let bytes = self
            .bytes
            .as_deref()
            .ok_or(TlsError::Internal("attestation binding after the transcript was dropped"))?;
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&Sha256::digest(bytes));
        Ok(out)
    }

    /// Free the raw bytes: no attestation binding is taken from here
    /// on.
    pub fn drop_bytes(&mut self) {
        self.bytes = None;
    }

    /// The handshake is over: free the running hash and any bytes.
    pub fn end(&mut self) {
        self.running = None;
        self.bytes = None;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mbtls_crypto::rng::CryptoRng;
    use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
    use mbtls_pki::{KeyUsage, TrustStore};

    use super::*;
    use crate::config::{ClientConfig, ServerConfig};
    use crate::messages::HandshakeReader;
    use crate::record::{ContentType, RecordReader};
    use crate::session::SessionKeys;
    use crate::suites::CipherSuite;
    use crate::{ClientConnection, ServerConnection};

    /// Every handshake frame of a full and then a ticket-resumed
    /// handshake under `suite`, in transcript order, recorded off the
    /// wire: both Finished included, opened with the session's keys.
    fn recorded_handshakes(suite: CipherSuite) -> [Vec<Vec<u8>>; 2] {
        let mut rng = CryptoRng::from_seed(41);
        let mut ca = CertificateAuthority::new_root("Root", 0, 1_000_000, &mut rng);
        let key = CertifiedKey::issue(
            &mut ca,
            "server.example",
            &[],
            0,
            1_000_000,
            KeyUsage::Endpoint,
            &mut rng,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let mut cc = ClientConfig::new(Arc::new(trust));
        cc.suites = vec![suite];
        let sc = Arc::new(ServerConfig::new(Arc::new(key), [7; 32]));
        [(); 2].map(|()| {
            let mut client =
                ClientConnection::new(Arc::new(cc.clone()), "server.example", &mut rng);
            let mut server = ServerConnection::new(sc.clone());
            // Flights in the order they were sent: client first.
            let mut flights = Vec::new();
            loop {
                let to_server = client.take_outgoing();
                server.feed_incoming(&to_server, &mut rng).unwrap();
                let to_client = server.take_outgoing();
                client.feed_incoming(&to_client, &mut rng).unwrap();
                if to_server.is_empty() && to_client.is_empty() {
                    break;
                }
                flights.extend([(0, to_server), (1, to_client)]);
            }
            assert!(client.is_established() && server.is_established());
            let keys = SessionKeys::from_secrets(client.secrets().unwrap(), 0, 0);
            let mut ciphers = [keys.open_client_to_server(), keys.open_server_to_client()]
                .map(|cipher| (false, cipher.unwrap()));
            let mut readers = [HandshakeReader::new(), HandshakeReader::new()];
            let mut frames = Vec::new();
            for (side, flight) in flights {
                let (encrypted, cipher) = &mut ciphers[side];
                let mut records = RecordReader::new();
                records.feed(&flight);
                while let Some(record) = records.next_record_inplace().unwrap() {
                    match record.content_type() {
                        Some(ContentType::ChangeCipherSpec) => *encrypted = true,
                        Some(ContentType::Handshake) if *encrypted => {
                            let mut plain = Vec::new();
                            cipher
                                .open_record_into(ContentType::Handshake, record.body(), &mut plain)
                                .unwrap();
                            readers[side].feed(&plain);
                        }
                        Some(ContentType::Handshake) => readers[side].feed(record.body()),
                        _ => {}
                    }
                }
                while let Some((_, frame)) = readers[side].next_message().unwrap() {
                    frames.push(frame.to_vec());
                }
            }
            cc.resumption_cache.insert("server.example".into(), client.resumption_data().unwrap());
            frames
        })
    }

    /// The parent's binding: SHA-256 of the raw bytes, zero-padded.
    fn binding_of(bytes: &[u8]) -> [u8; 64] {
        let mut out = [0; 64];
        out[..32].copy_from_slice(&Sha256::digest(bytes));
        out
    }

    // The running hash replaces re-hashing the raw bytes: replayed
    // frame by frame, started where a server starts (after the
    // ClientHello) or a client does (after the ServerHello), its
    // digest after every `add` is the PRF hash of everything so far.
    // A binding is the SHA-256 of the bytes while they are kept, and
    // an error once they are dropped (here after ServerKeyExchange).
    #[test]
    fn running_hash_matches_the_bytes_it_replaces() {
        for (suite, hash) in [
            (CipherSuite::EcdheAes128GcmSha256, PrfHash::Sha256),
            (CipherSuite::EcdheAes256GcmSha384, PrfHash::Sha384),
        ] {
            let [full, resumed] = recorded_handshakes(suite);
            assert_eq!((full.len(), resumed.len()), (9, 5), "{suite:?}");
            for (frames, start_at, keep) in
                [(&full, 1, true), (&full, 2, false), (&resumed, 1, false), (&resumed, 2, true)]
            {
                let case =
                    format!("{suite:?}, {} frames, start at {start_at}, keep {keep}", frames.len());
                let mut t = Transcript::new();
                let mut bytes = Vec::new();
                for (i, frame) in frames.iter().enumerate() {
                    let (header, body) = frame.split_at(4);
                    t.add(&[header, body]);
                    bytes.extend_from_slice(frame);
                    if i + 1 == start_at {
                        t.start(hash, keep);
                    }
                    if i + 1 == 4 {
                        t.drop_bytes();
                    }
                    if i + 1 < start_at {
                        assert!(t.hash().is_err(), "{case}: hash before start");
                        continue;
                    }
                    let expected = match hash {
                        PrfHash::Sha256 => Sha256::digest(&bytes).to_vec(),
                        PrfHash::Sha384 => Sha384::digest(&bytes).to_vec(),
                    };
                    assert_eq!(*t.hash().unwrap(), expected, "{case}: after frame {i}");
                    match t.attestation_binding() {
                        Ok(binding) => {
                            assert!(keep && i + 1 < 4, "{case}: binding after frame {i}");
                            assert_eq!(binding, binding_of(&bytes), "{case}: after frame {i}");
                        }
                        Err(e) => assert!(matches!(e, TlsError::Internal(_)), "{case}: {e:?}"),
                    }
                }
                t.end();
                assert!(t.hash().is_err() && t.attestation_binding().is_err(), "{case}: ended");
            }
        }
    }

    #[test]
    fn accumulates_in_order() {
        let mut t = Transcript::new();
        t.add(&[b"one"]);
        t.add(&[b"tw", b"o"]);
        assert_eq!(t.attestation_binding().unwrap(), binding_of(b"onetwo"));
        t.start(PrfHash::Sha256, false);
        assert_eq!(*t.hash().unwrap(), Sha256::digest(b"onetwo"));
    }

    #[test]
    fn binding_changes_with_content() {
        let mut t1 = Transcript::new();
        t1.add(&[b"hello-a"]);
        let mut t2 = Transcript::new();
        t2.add(&[b"hello-b"]);
        let b1 = t1.attestation_binding().unwrap();
        assert_ne!(b1, t2.attestation_binding().unwrap());
        // Deterministic.
        assert_eq!(b1, t1.attestation_binding().unwrap());
        // Upper half zero-padded.
        assert_eq!(&b1[32..], &[0u8; 32]);
    }

    #[test]
    fn binding_changes_as_handshake_progresses() {
        let mut t = Transcript::new();
        t.add(&[b"client hello"]);
        let b1 = t.attestation_binding().unwrap();
        t.add(&[b"server hello"]);
        let b2 = t.attestation_binding().unwrap();
        assert_ne!(b1, b2);
    }
}
