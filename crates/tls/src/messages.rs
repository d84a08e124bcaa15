//! Handshake message definitions and codecs (RFC 5246 §7.4, plus the
//! mbTLS `sgx_attestation(17)` message from the paper's Appendix A.2).

use crate::codec::{CodecError, Decoder, Encoder, StreamBuf};
use crate::suites::CipherSuite;
use crate::TlsError;

/// Handshake message type bytes.
pub mod handshake_type {
    /// client_hello(1)
    pub const CLIENT_HELLO: u8 = 1;
    /// server_hello(2)
    pub const SERVER_HELLO: u8 = 2;
    /// new_session_ticket(4), RFC 5077
    pub const NEW_SESSION_TICKET: u8 = 4;
    /// certificate(11)
    pub const CERTIFICATE: u8 = 11;
    /// server_key_exchange(12)
    pub const SERVER_KEY_EXCHANGE: u8 = 12;
    /// server_hello_done(14)
    pub const SERVER_HELLO_DONE: u8 = 14;
    /// client_key_exchange(16)
    pub const CLIENT_KEY_EXCHANGE: u8 = 16;
    /// sgx_attestation(17) — mbTLS addition (paper Appendix A.2).
    pub const SGX_ATTESTATION: u8 = 17;
    /// delegated_credential(18) — mdTLS-style delegated middlebox
    /// authorization (DESIGN.md §6j).
    pub const DELEGATED_CREDENTIAL: u8 = 18;
    /// finished(20)
    pub const FINISHED: u8 = 20;
}

/// Extension type code points.
pub mod extension_type {
    /// RFC 5077 SessionTicket.
    pub const SESSION_TICKET: u16 = 35;
    /// The mbTLS MiddleboxSupport extension (private-range id).
    pub const MIDDLEBOX_SUPPORT: u16 = 0xFF77;
    /// Request/acknowledge an SGX attestation in the handshake
    /// (private-range id; independent of mbTLS per the paper).
    pub const ATTESTATION_REQUEST: u16 = 0xFF78;
    /// Request a delegated credential in the handshake (private-range
    /// id; the mdTLS-style alternative to attestation).
    pub const DELEGATION_REQUEST: u16 = 0xFF79;
}

/// A raw (type, payload) extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    /// Extension type code point.
    pub typ: u16,
    /// Opaque payload.
    pub data: Vec<u8>,
}

/// The encoded length of an extension block: a u16 length, then each
/// (type, u16 length, data); nothing at all without extensions.
fn extensions_len(exts: &[Extension]) -> usize {
    let len: usize = exts.iter().map(|ext| 4 + ext.data.len()).sum();
    if exts.is_empty() {
        0
    } else {
        2 + len
    }
}

fn encode_extensions(e: &mut Encoder, exts: &[Extension]) {
    if let Some(len) = extensions_len(exts).checked_sub(2) {
        e.u16(len as u16);
        for ext in exts {
            e.u16(ext.typ);
            e.vec16(&ext.data);
        }
    }
}

fn decode_extensions(d: &mut Decoder<'_>) -> Result<Vec<Extension>, CodecError> {
    if d.remaining() == 0 {
        return Ok(Vec::new());
    }
    let block = d.vec16()?;
    let mut inner = Decoder::new(block);
    let mut out = Vec::new();
    while inner.remaining() > 0 {
        let typ = inner.u16()?;
        let data = inner.vec16()?.to_vec();
        out.push(Extension { typ, data });
    }
    Ok(out)
}

/// ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// 32 bytes of client randomness.
    pub random: [u8; 32],
    /// Session id offered for ID-based resumption (empty = none).
    pub session_id: Vec<u8>,
    /// Offered cipher suites, preference order.
    pub cipher_suites: Vec<u16>,
    /// Extensions, including any mbTLS additions.
    pub extensions: Vec<Extension>,
}

impl ClientHello {
    /// Encode the handshake body (without the 4-byte header).
    pub fn encode_body(&self) -> Vec<u8> {
        // Version, random, two length prefixes, null compression.
        let suites_len = 2 * self.cipher_suites.len();
        let len = 2 + 32 + 1 + 2 + 2 + self.session_id.len() + suites_len;
        let mut e = Encoder::with_capacity(len + extensions_len(&self.extensions));
        e.u8(3);
        e.u8(3); // client_version = TLS 1.2
        e.raw(&self.random);
        e.vec8(&self.session_id);
        e.u16(suites_len as u16);
        self.cipher_suites.iter().for_each(|s| e.u16(*s));
        e.vec8(&[0]); // null compression only
        encode_extensions(&mut e, &self.extensions);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(body);
        let major = d.u8()?;
        let _minor = d.u8()?;
        if major != 3 {
            return Err(TlsError::Decode("bad client version"));
        }
        let random: [u8; 32] = d.take_array()?;
        let session_id = d.vec8()?.to_vec();
        if session_id.len() > 32 {
            return Err(TlsError::Decode("session id too long"));
        }
        let suites_raw = d.vec16()?;
        if suites_raw.len() % 2 != 0 || suites_raw.is_empty() {
            return Err(TlsError::Decode("bad cipher suite list"));
        }
        let cipher_suites = suites_raw
            .chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect();
        let compressions = d.vec8()?;
        if !compressions.contains(&0) {
            return Err(TlsError::Decode("null compression not offered"));
        }
        let extensions = decode_extensions(&mut d)?;
        d.expect_end()?;
        Ok(ClientHello {
            random,
            session_id,
            cipher_suites,
            extensions,
        })
    }

    /// Find an extension by type.
    pub fn find_extension(&self, typ: u16) -> Option<&Extension> {
        self.extensions.iter().find(|e| e.typ == typ)
    }
}

/// ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// 32 bytes of server randomness.
    pub random: [u8; 32],
    /// Session id assigned/echoed (ID resumption).
    pub session_id: Vec<u8>,
    /// The selected cipher suite.
    pub cipher_suite: u16,
    /// Extensions (must be a subset of what the client offered).
    pub extensions: Vec<Extension>,
}

impl ServerHello {
    /// Encode the handshake body.
    pub fn encode_body(&self) -> Vec<u8> {
        // Version, random, a length prefix, the suite, no compression.
        let len = 2 + 32 + 1 + 2 + 1 + self.session_id.len();
        let mut e = Encoder::with_capacity(len + extensions_len(&self.extensions));
        e.u8(3);
        e.u8(3);
        e.raw(&self.random);
        e.vec8(&self.session_id);
        e.u16(self.cipher_suite);
        e.u8(0); // null compression
        encode_extensions(&mut e, &self.extensions);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(body);
        let major = d.u8()?;
        let minor = d.u8()?;
        if (major, minor) != (3, 3) {
            return Err(TlsError::Decode("server chose unsupported version"));
        }
        let random: [u8; 32] = d.take_array()?;
        let session_id = d.vec8()?.to_vec();
        let cipher_suite = d.u16()?;
        let compression = d.u8()?;
        if compression != 0 {
            return Err(TlsError::Decode("server chose compression"));
        }
        let extensions = decode_extensions(&mut d)?;
        d.expect_end()?;
        Ok(ServerHello {
            random,
            session_id,
            cipher_suite,
            extensions,
        })
    }
}

/// Key-exchange parameters carried in ServerKeyExchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerKeyExchangeParams {
    /// ECDHE over X25519: named curve 29 + public point.
    Ecdhe {
        /// 32-byte X25519 public value.
        public: Vec<u8>,
    },
    /// Classic DHE: explicit group + public value.
    Dhe {
        /// Prime modulus, big-endian.
        p: Vec<u8>,
        /// Generator, big-endian.
        g: Vec<u8>,
        /// Server public value, big-endian.
        ys: Vec<u8>,
    },
}

impl ServerKeyExchangeParams {
    /// Encode just the params portion (the part that gets signed,
    /// together with the randoms).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            ServerKeyExchangeParams::Ecdhe { public } => {
                e.u8(3); // curve_type = named_curve
                e.u16(29); // x25519
                e.vec8(public);
            }
            ServerKeyExchangeParams::Dhe { p, g, ys } => {
                e.u8(1); // our tag for explicit FFDHE params
                e.vec16(p);
                e.vec16(g);
                e.vec16(ys);
            }
        }
        e.into_bytes()
    }

    /// Decode the params portion, returning (params, bytes consumed).
    pub fn decode(data: &[u8]) -> Result<(Self, usize), TlsError> {
        let mut d = Decoder::new(data);
        let tag = d.u8()?;
        let params = match tag {
            3 => {
                let curve = d.u16()?;
                if curve != 29 {
                    return Err(TlsError::Decode("unsupported named curve"));
                }
                let public = d.vec8()?.to_vec();
                if public.len() != 32 {
                    return Err(TlsError::Decode("bad x25519 public length"));
                }
                ServerKeyExchangeParams::Ecdhe { public }
            }
            1 => {
                let p = d.vec16()?.to_vec();
                let g = d.vec16()?.to_vec();
                let ys = d.vec16()?.to_vec();
                ServerKeyExchangeParams::Dhe { p, g, ys }
            }
            _ => return Err(TlsError::Decode("unknown key exchange tag")),
        };
        let consumed = data.len() - d.remaining();
        Ok((params, consumed))
    }
}

/// ServerKeyExchange: params + Ed25519 signature over
/// client_random || server_random || params.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerKeyExchange {
    /// The ephemeral parameters.
    pub params: ServerKeyExchangeParams,
    /// Signature by the certified key.
    pub signature: Vec<u8>,
}

impl ServerKeyExchange {
    /// Encode the handshake body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.raw(&self.params.encode());
        e.u16(0x0807); // signature scheme: ed25519
        e.vec16(&self.signature);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let (params, consumed) = ServerKeyExchangeParams::decode(body)?;
        let tail = body
            .get(consumed..)
            .ok_or(TlsError::Decode("server key exchange truncated"))?;
        let mut d = Decoder::new(tail);
        let scheme = d.u16()?;
        if scheme != 0x0807 {
            return Err(TlsError::Decode("unsupported signature scheme"));
        }
        let signature = d.vec16()?.to_vec();
        d.expect_end()?;
        Ok(ServerKeyExchange { params, signature })
    }

    /// The bytes covered by the signature.
    pub fn signed_payload(
        client_random: &[u8; 32],
        server_random: &[u8; 32],
        params: &ServerKeyExchangeParams,
    ) -> Vec<u8> {
        [&client_random[..], server_random, &params.encode()].concat()
    }
}

/// ClientKeyExchange: the client's ephemeral public value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientKeyExchange {
    /// X25519 public (32 bytes) or DHE Yc (group-sized).
    pub public: Vec<u8>,
}

impl ClientKeyExchange {
    /// Encode the handshake body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.vec16(&self.public);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(body);
        let public = d.vec16()?.to_vec();
        d.expect_end()?;
        Ok(ClientKeyExchange { public })
    }
}

/// NewSessionTicket (RFC 5077 §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewSessionTicket {
    /// Lifetime hint, seconds.
    pub lifetime_hint: u32,
    /// Opaque ticket.
    pub ticket: Vec<u8>,
}

impl NewSessionTicket {
    /// Encode the handshake body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(4 + 2 + self.ticket.len());
        e.u32(self.lifetime_hint);
        e.vec16(&self.ticket);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(body);
        let lifetime_hint = d.u32()?;
        let ticket = d.vec16()?.to_vec();
        d.expect_end()?;
        Ok(NewSessionTicket {
            lifetime_hint,
            ticket,
        })
    }
}

/// The mbTLS SGXAttestation handshake message: an opaque quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgxAttestationMsg {
    /// Serialized quote (`sgx_quote_t` analogue).
    pub quote: Vec<u8>,
}

impl SgxAttestationMsg {
    /// Encode the handshake body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.vec16(&self.quote);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(body);
        let quote = d.vec16()?.to_vec();
        d.expect_end()?;
        Ok(SgxAttestationMsg { quote })
    }
}

/// The DelegatedCredential handshake message: the issuer's encoded
/// certificate chain plus the opaque credential bytes (both parsed by
/// `mbtls-pki`; this layer treats them as payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegatedCredentialMsg {
    /// The delegating endpoint's chain (`pki::cert::encode_chain`).
    pub issuer_chain: Vec<u8>,
    /// The encoded `pki::delegation::DelegatedCredential`.
    pub credential: Vec<u8>,
}

impl DelegatedCredentialMsg {
    /// Encode the handshake body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.vec16(&self.issuer_chain);
        e.vec16(&self.credential);
        e.into_bytes()
    }

    /// Decode a handshake body.
    pub fn decode_body(body: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(body);
        let issuer_chain = d.vec16()?.to_vec();
        let credential = d.vec16()?.to_vec();
        d.expect_end()?;
        Ok(DelegatedCredentialMsg { issuer_chain, credential })
    }
}

/// A handshake message's 4-byte header: its type, its body's u24 length.
pub fn handshake_header(typ: u8, body_len: usize) -> [u8; 4] {
    debug_assert!(body_len < 1 << 24);
    let [_, hi, mid, lo] = (body_len as u32).to_be_bytes();
    [typ, hi, mid, lo]
}

/// An iterator-style splitter for concatenated handshake messages
/// inside record payloads, with cross-record reassembly.
#[derive(Default)]
pub struct HandshakeReader {
    stream: StreamBuf,
}

impl HandshakeReader {
    /// Fresh reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a handshake-record payload.
    pub fn feed(&mut self, data: &[u8]) {
        self.stream.feed(data);
    }

    /// Pull the next complete message: its type and its full frame
    /// (4-byte header, then the body), borrowed from this reader's
    /// buffer. The frame is what transcript hashing consumes.
    pub fn next_message(&mut self) -> Result<Option<(u8, &[u8])>, TlsError> {
        let Some(&[typ, len_hi, len_mid, len_lo]) = self.stream.unread().first_chunk::<4>() else {
            return Ok(None);
        };
        let len = usize::from(len_hi) << 16 | usize::from(len_mid) << 8 | usize::from(len_lo);
        if len > (1 << 20) {
            return Err(TlsError::Decode("handshake message too long"));
        }
        Ok(self.stream.consume(4 + len).map(|frame| (typ, frame)))
    }

    /// True if partial data is buffered.
    pub fn has_partial(&self) -> bool {
        !self.stream.unread().is_empty()
    }
}

/// Helper: negotiate a suite from client offer and server preference.
pub fn choose_suite(client_offer: &[u16], server_prefs: &[CipherSuite]) -> Option<CipherSuite> {
    server_prefs
        .iter()
        .copied()
        .find(|s| client_offer.contains(&s.id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_roundtrip() {
        let ch = ClientHello {
            random: [7u8; 32],
            session_id: vec![1, 2, 3],
            cipher_suites: vec![0xC02C, 0xC02B],
            extensions: vec![
                Extension {
                    typ: extension_type::MIDDLEBOX_SUPPORT,
                    data: vec![9, 9],
                },
                Extension {
                    typ: extension_type::SESSION_TICKET,
                    data: vec![],
                },
            ],
        };
        let decoded = ClientHello::decode_body(&ch.encode_body()).unwrap();
        assert_eq!(decoded, ch);
        assert!(decoded.find_extension(extension_type::MIDDLEBOX_SUPPORT).is_some());
        assert!(decoded.find_extension(0x1234).is_none());
    }

    #[test]
    fn client_hello_no_extensions() {
        let ch = ClientHello {
            random: [0u8; 32],
            session_id: vec![],
            cipher_suites: vec![0xC02C],
            extensions: vec![],
        };
        assert_eq!(ClientHello::decode_body(&ch.encode_body()).unwrap(), ch);
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = ServerHello {
            random: [9u8; 32],
            session_id: vec![0xAA; 32],
            cipher_suite: 0xC02C,
            extensions: vec![Extension {
                typ: extension_type::ATTESTATION_REQUEST,
                data: vec![1],
            }],
        };
        assert_eq!(ServerHello::decode_body(&sh.encode_body()).unwrap(), sh);
    }

    #[test]
    fn server_key_exchange_roundtrip_both_kex() {
        for params in [
            ServerKeyExchangeParams::Ecdhe {
                public: vec![5u8; 32],
            },
            ServerKeyExchangeParams::Dhe {
                p: vec![0xFF; 256],
                g: vec![2],
                ys: vec![0xAB; 256],
            },
        ] {
            let ske = ServerKeyExchange {
                params: params.clone(),
                signature: vec![0x55; 64],
            };
            assert_eq!(ServerKeyExchange::decode_body(&ske.encode_body()).unwrap(), ske);
        }
    }

    #[test]
    fn signed_payload_binds_randoms() {
        let params = ServerKeyExchangeParams::Ecdhe {
            public: vec![1u8; 32],
        };
        let p1 = ServerKeyExchange::signed_payload(&[1; 32], &[2; 32], &params);
        let p2 = ServerKeyExchange::signed_payload(&[1; 32], &[3; 32], &params);
        assert_ne!(p1, p2);
    }

    #[test]
    fn handshake_reader_reassembles() {
        let m1 = [&handshake_header(handshake_type::CLIENT_HELLO, 6), &b"body-1"[..]].concat();
        let m2 = [&handshake_header(handshake_type::FINISHED, 2), &b"xy"[..]].concat();
        let mut all = m1.clone();
        all.extend_from_slice(&m2);
        let mut r = HandshakeReader::new();
        r.feed(&all[..5]);
        assert!(r.next_message().unwrap().is_none());
        assert!(r.has_partial());
        r.feed(&all[5..]);
        assert_eq!(r.next_message().unwrap(), Some((handshake_type::CLIENT_HELLO, &m1[..])));
        assert_eq!(r.next_message().unwrap(), Some((handshake_type::FINISHED, &m2[..])));
        assert!(r.next_message().unwrap().is_none());
        assert!(!r.has_partial());
    }

    #[test]
    fn ticket_and_attestation_roundtrip() {
        let t = NewSessionTicket {
            lifetime_hint: 3600,
            ticket: vec![1, 2, 3, 4],
        };
        assert_eq!(NewSessionTicket::decode_body(&t.encode_body()).unwrap(), t);
        let a = SgxAttestationMsg {
            quote: vec![9; 100],
        };
        assert_eq!(SgxAttestationMsg::decode_body(&a.encode_body()).unwrap(), a);
        let c = DelegatedCredentialMsg {
            issuer_chain: vec![7; 80],
            credential: vec![8; 120],
        };
        assert_eq!(DelegatedCredentialMsg::decode_body(&c.encode_body()).unwrap(), c);
        assert!(DelegatedCredentialMsg::decode_body(&c.encode_body()[..5]).is_err());
    }

    #[test]
    fn choose_suite_respects_server_preference() {
        let offer = vec![CipherSuite::EcdheAes128GcmSha256.id(), CipherSuite::EcdheAes256GcmSha384.id()];
        assert_eq!(
            choose_suite(&offer, &CipherSuite::ALL),
            Some(CipherSuite::EcdheAes256GcmSha384)
        );
        assert_eq!(
            choose_suite(&offer, &[CipherSuite::EcdheAes128GcmSha256]),
            Some(CipherSuite::EcdheAes128GcmSha256)
        );
        assert_eq!(choose_suite(&[0x0001], &CipherSuite::ALL), None);
    }

    #[test]
    fn malformed_bodies_rejected() {
        assert!(ClientHello::decode_body(&[]).is_err());
        assert!(ServerHello::decode_body(&[3, 3]).is_err());
        assert!(ServerKeyExchange::decode_body(&[9]).is_err());
        assert!(ClientKeyExchange::decode_body(&[0]).is_err());
        // Trailing garbage.
        let ch = ClientHello {
            random: [0; 32],
            session_id: vec![],
            cipher_suites: vec![0xC02C],
            extensions: vec![],
        };
        let mut bytes = ch.encode_body();
        bytes.push(0);
        assert!(ClientHello::decode_body(&bytes).is_err());
    }

    #[test]
    fn unknown_extensions_are_preserved_not_fatal() {
        let ch = ClientHello {
            random: [0; 32],
            session_id: vec![],
            cipher_suites: vec![0xC02C],
            extensions: vec![Extension {
                typ: 0xABCD,
                data: vec![1, 2, 3],
            }],
        };
        let decoded = ClientHello::decode_body(&ch.encode_body()).unwrap();
        assert_eq!(decoded.extensions[0].typ, 0xABCD);
    }
}
