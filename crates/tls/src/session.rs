//! Established-session types: connection secrets, exportable key
//! material, and the resumption data model.
//!
//! The exportable [`SessionKeys`] struct is the heart of mbTLS's key
//! distribution: it is exactly the content of the paper's
//! `MBTLSKeyMaterial` record (Appendix A.1) — directional AEAD keys +
//! implicit IVs + current sequence numbers — so a middlebox that
//! receives one can join an existing record stream mid-flight.

use crate::codec::{Decoder, Encoder};
use crate::keyschedule;
use crate::record::DirectionState;
use crate::suites::CipherSuite;
use crate::TlsError;
use mbtls_crypto::secret::Secret;

// The public values that sit next to key bytes in the structs below.
// All three cross the wire in the clear, so they are plain buffers —
// under their RFC names, because a key-bearing struct that spells a
// raw `Vec<u8>` or `[u8; N]` is what the `secret-hygiene` lint reads
// as key bytes nothing wipes: in these structs a byte field is a
// `Secret` or says which public value it is.

/// A hello's random (RFC 5246 §7.4.1.2).
pub type Random = [u8; 32];
/// A session id (RFC 5246 §7.4.1.2), chosen by the server.
pub type SessionId = Vec<u8>;
/// A session ticket (RFC 5077 §3.3), sealed by the server.
pub type Ticket = Vec<u8>;

/// The secrets of a completed (or resumed) handshake.
#[derive(Clone)]
pub struct ConnectionSecrets {
    /// Negotiated suite.
    pub suite: CipherSuite,
    /// 48-byte master secret.
    pub master_secret: Secret,
    /// Client random.
    pub client_random: Random,
    /// Server random.
    pub server_random: Random,
}

impl std::fmt::Debug for ConnectionSecrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConnectionSecrets(suite=0x{:04x}, ..)", self.suite.id())
    }
}

/// Exportable (and wire-encodable) session key material — the
/// `MBTLSKeyMaterial` payload.
#[derive(Clone, PartialEq, Eq)]
pub struct SessionKeys {
    /// The cipher suite these keys belong to.
    pub suite: CipherSuite,
    /// Client-write AEAD key.
    pub client_write_key: Secret,
    /// Client-write implicit IV.
    pub client_write_iv: Secret,
    /// Server-write AEAD key.
    pub server_write_key: Secret,
    /// Server-write implicit IV.
    pub server_write_iv: Secret,
    /// Next sequence number, client-to-server direction.
    pub client_to_server_seq: u64,
    /// Next sequence number, server-to-client direction.
    pub server_to_client_seq: u64,
}

impl SessionKeys {
    /// Derive from connection secrets and the current record-layer
    /// sequence numbers.
    pub fn from_secrets(secrets: &ConnectionSecrets, c2s_seq: u64, s2c_seq: u64) -> Self {
        let block = keyschedule::expand_key_block(
            secrets.suite,
            &secrets.master_secret,
            &secrets.client_random,
            &secrets.server_random,
        );
        Self::from_key_block(secrets.suite, &block, c2s_seq, s2c_seq)
    }

    /// The keys of an expanded key `block` under `suite`, at these
    /// sequence numbers.
    pub(crate) fn from_key_block(
        suite: CipherSuite,
        block: &[u8],
        c2s_seq: u64,
        s2c_seq: u64,
    ) -> Self {
        let [client_key, server_key, client_iv, server_iv] = keyschedule::split_key_block(block);
        SessionKeys {
            suite,
            client_write_key: client_key.into(),
            client_write_iv: client_iv.into(),
            server_write_key: server_key.into(),
            server_write_iv: server_iv.into(),
            client_to_server_seq: c2s_seq,
            server_to_client_seq: s2c_seq,
        }
    }

    /// Record-protection state for reading the client→server flow.
    pub fn open_client_to_server(&self) -> Result<DirectionState, TlsError> {
        DirectionState::new(
            self.suite.bulk(),
            &self.client_write_key,
            &self.client_write_iv,
            self.client_to_server_seq,
        )
    }

    /// Record-protection state for writing the client→server flow.
    pub fn seal_client_to_server(&self) -> Result<DirectionState, TlsError> {
        self.open_client_to_server()
    }

    /// Record-protection state for reading the server→client flow.
    pub fn open_server_to_client(&self) -> Result<DirectionState, TlsError> {
        DirectionState::new(
            self.suite.bulk(),
            &self.server_write_key,
            &self.server_write_iv,
            self.server_to_client_seq,
        )
    }

    /// Record-protection state for writing the server→client flow.
    pub fn seal_server_to_client(&self) -> Result<DirectionState, TlsError> {
        self.open_server_to_client()
    }

    /// Wire encoding (the MBTLSKeyMaterial body, paper Appendix A.1:
    /// version, sequences, cipher suite, then key/IV material).
    pub fn encode(&self) -> Secret {
        // 28 header bytes: version 2, sequences 8 + 8, suite 2, lengths 4 + 4.
        let keys_len = 2 * (self.client_write_key.len() + self.client_write_iv.len());
        let mut e = Encoder::with_capacity(28 + keys_len);
        e.u8(3);
        e.u8(3); // negotiated client/server version
        e.u64(self.client_to_server_seq);
        e.u64(self.server_to_client_seq);
        e.u16(self.suite.id());
        e.u32(self.client_write_key.len() as u32);
        e.u32(self.client_write_iv.len() as u32);
        e.raw(&self.client_write_key);
        e.raw(&self.client_write_iv);
        e.raw(&self.server_write_key);
        e.raw(&self.server_write_iv);
        e.into_bytes().into()
    }

    /// Parse a wire encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(bytes);
        let major = d.u8()?;
        let minor = d.u8()?;
        if (major, minor) != (3, 3) {
            return Err(TlsError::Decode("bad key material version"));
        }
        let client_to_server_seq = d.u64()?;
        let server_to_client_seq = d.u64()?;
        let suite =
            CipherSuite::from_id(d.u16()?).ok_or(TlsError::Decode("unknown suite in key material"))?;
        let key_len = d.u32()? as usize;
        let iv_len = d.u32()? as usize;
        if key_len != suite.bulk().key_len() || iv_len != 4 {
            return Err(TlsError::Decode("key material length mismatch"));
        }
        let client_write_key = d.take(key_len)?.into();
        let client_write_iv = d.take(iv_len)?.into();
        let server_write_key = d.take(key_len)?.into();
        let server_write_iv = d.take(iv_len)?.into();
        d.expect_end()?;
        Ok(SessionKeys {
            suite,
            client_write_key,
            client_write_iv,
            server_write_key,
            server_write_iv,
            client_to_server_seq,
            server_to_client_seq,
        })
    }
}

/// What a client caches per server for resumption.
#[derive(Clone, PartialEq, Eq)]
pub struct ResumptionData {
    /// The suite of the original session.
    pub suite: CipherSuite,
    /// The original master secret.
    pub master_secret: Secret,
    /// Ticket issued by the server (RFC 5077), if any.
    pub ticket: Option<Ticket>,
    /// Session id assigned by the server, if any.
    pub session_id: SessionId,
}

/// Server-side plaintext content of a session ticket, sealed under
/// the server's ticket key: what an abbreviated handshake needs to
/// resume the session. Middleboxes issue no tickets (DESIGN.md §6b),
/// so no ticket carries anything beyond this.
#[derive(Clone, PartialEq, Eq)]
pub struct TicketPlaintext {
    /// Suite of the ticketed session.
    pub suite: CipherSuite,
    /// Master secret of the ticketed session.
    pub master_secret: Secret,
}

impl TicketPlaintext {
    /// Encode for sealing.
    pub fn encode(&self) -> Secret {
        let mut e = Encoder::with_capacity(4 + self.master_secret.len());
        e.u16(self.suite.id());
        e.vec16(&self.master_secret);
        e.into_bytes().into()
    }

    /// Decode after unsealing.
    pub fn decode(bytes: &[u8]) -> Result<Self, TlsError> {
        let mut d = Decoder::new(bytes);
        let suite =
            CipherSuite::from_id(d.u16()?).ok_or(TlsError::Decode("unknown suite in ticket"))?;
        let master_secret = d.vec16()?.into();
        d.expect_end()?;
        Ok(TicketPlaintext { suite, master_secret })
    }
}

// Redacted Debug impls: these structs carry live key material, so the
// derived formatter would leak it into logs and panic messages. Only
// public/structural fields are printed.

impl std::fmt::Debug for SessionKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SessionKeys(suite=0x{:04x}, c2s_seq={}, s2c_seq={}, ..)",
            self.suite.id(),
            self.client_to_server_seq,
            self.server_to_client_seq
        )
    }
}

impl std::fmt::Debug for ResumptionData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResumptionData(suite=0x{:04x}, ticket={}, session_id_len={}, ..)",
            self.suite.id(),
            self.ticket.is_some(),
            self.session_id.len()
        )
    }
}

impl std::fmt::Debug for TicketPlaintext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TicketPlaintext(suite=0x{:04x}, ..)", self.suite.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_secrets() -> ConnectionSecrets {
        ConnectionSecrets {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![0x42; 48].into(),
            client_random: [1; 32],
            server_random: [2; 32],
        }
    }

    #[test]
    fn session_keys_roundtrip() {
        let keys = SessionKeys::from_secrets(&sample_secrets(), 1, 1);
        let wire = keys.encode();
        // The length `encode` reserves: no growth, so no stale copy.
        assert_eq!(wire.len(), 28 + 2 * (32 + 4));
        assert_eq!(SessionKeys::decode(&wire).unwrap(), keys);
    }

    #[test]
    fn session_keys_decode_validates_lengths() {
        let keys = SessionKeys::from_secrets(&sample_secrets(), 0, 0);
        let bytes = keys.encode();
        assert!(SessionKeys::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn exported_keys_can_protect_records() {
        let keys = SessionKeys::from_secrets(&sample_secrets(), 5, 9);
        let mut tx = keys.seal_client_to_server().unwrap();
        let mut rx = keys.open_client_to_server().unwrap();
        assert_eq!(tx.seq(), 5);
        let mut wire = Vec::new();
        tx.seal_record_into(crate::record::ContentType::ApplicationData, b"mid-session join", &mut wire)
            .unwrap();
        let mut body = wire[5..].to_vec();
        assert_eq!(
            rx.open_record_in_place(crate::record::ContentType::ApplicationData, &mut body)
                .unwrap(),
            b"mid-session join"
        );
    }

    #[test]
    fn directions_use_distinct_keys() {
        let keys = SessionKeys::from_secrets(&sample_secrets(), 0, 0);
        assert_ne!(keys.client_write_key, keys.server_write_key);
        let mut c2s_tx = keys.seal_client_to_server().unwrap();
        let mut s2c_rx = keys.open_server_to_client().unwrap();
        let mut wire = Vec::new();
        c2s_tx
            .seal_record_into(crate::record::ContentType::ApplicationData, b"x", &mut wire)
            .unwrap();
        // Opening client→server traffic with the server-write state fails.
        assert!(s2c_rx
            .open_record_into(crate::record::ContentType::ApplicationData, &wire[5..], &mut vec![])
            .is_err());
    }

    #[test]
    fn ticket_roundtrip() {
        let plain = TicketPlaintext {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![7; 48].into(),
        };
        assert_eq!(plain.encode().len(), 4 + 48);
        assert_eq!(TicketPlaintext::decode(&plain.encode()).unwrap(), plain);
    }
}
