//! mbTLS wire formats (paper Appendix A): the MiddleboxSupport
//! extension, Encapsulated records, key-material payloads, and
//! middlebox announcements.

// A wire file (DESIGN.md §6d): its buffers hold a peer's bytes, and no
// slice here is indexed.
#![forbid(clippy::indexing_slicing)]

use mbtls_crypto::secret::Secret;
use mbtls_tls::codec::{Decoder, Encoder};
use mbtls_tls::record::{frame_plaintext_into, ContentType};
use mbtls_tls::session::SessionKeys;

use crate::MbError;

/// The MiddleboxSupport ClientHello extension payload.
///
/// The paper's format carries optimistic secondary ClientHellos plus
/// a list of a-priori-known middleboxes; in this implementation the
/// primary ClientHello itself serves as every secondary ClientHello
/// (exactly the double-duty trick of §3.4), so the extension carries
/// only the pre-configured middlebox names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MiddleboxSupport {
    /// Names of middleboxes the client knows a priori (may be empty —
    /// the extension's presence alone invites on-path discovery).
    pub preconfigured: Vec<String>,
}

impl MiddleboxSupport {
    /// Encode the extension payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(self.preconfigured.len() as u8);
        for name in &self.preconfigured {
            e.vec16(name.as_bytes());
        }
        e.into_bytes()
    }

    /// Decode the extension payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, MbError> {
        let mut d = Decoder::new(bytes);
        let n = d.u8().map_err(|_| MbError::bad_length("truncated MiddleboxSupport"))? as usize;
        let mut preconfigured = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = d
                .vec16()
                .map_err(|_| MbError::bad_length("truncated middlebox name"))?;
            let name = String::from_utf8(raw.to_vec())
                .map_err(|_| MbError::bad_length("middlebox name not UTF-8"))?;
            preconfigured.push(name);
        }
        d.expect_end()
            .map_err(|_| MbError::bad_length("trailing bytes in MiddleboxSupport"))?;
        Ok(MiddleboxSupport { preconfigured })
    }
}

/// An Encapsulated record payload: subchannel ID + one complete inner
/// TLS record (paper Appendix A.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encapsulated {
    /// Which secondary session this belongs to.
    pub subchannel: u8,
    /// The complete inner record (header + body).
    pub record: Vec<u8>,
}

impl Encapsulated {
    /// Encode: 1 byte subchannel, then the inner record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.record.len());
        out.push(self.subchannel);
        out.extend_from_slice(&self.record);
        out
    }

    /// Decode an Encapsulated payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, MbError> {
        let (subchannel, record) = Self::split(bytes)?;
        Ok(Encapsulated {
            subchannel,
            record: record.to_vec(),
        })
    }

    /// Decode an Encapsulated payload where it sits: the subchannel
    /// and the inner record, borrowed.
    pub fn split(bytes: &[u8]) -> Result<(u8, &[u8]), MbError> {
        let (&subchannel, record) = bytes
            .split_first()
            .ok_or_else(|| MbError::bad_length("empty Encapsulated record"))?;
        Ok((subchannel, record))
    }

    /// Append the Encapsulated record carrying `inner` (one complete
    /// TLS record) on `subchannel` to `out`.
    pub fn wrap_into(subchannel: u8, inner: &[u8], out: &mut Vec<u8>) {
        frame_plaintext_into(ContentType::MbtlsEncapsulated, &[&[subchannel], inner], out);
    }
}

/// The key material an endpoint sends each of its middleboxes over
/// the (encrypted) secondary session: the AEAD states for the
/// middlebox's two adjacent hops.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyMaterial {
    /// Keys for the hop on the middlebox's client side.
    pub toward_client_hop: SessionKeys,
    /// Keys for the hop on the middlebox's server side.
    pub toward_server_hop: SessionKeys,
}

impl KeyMaterial {
    /// Encode.
    pub fn encode(&self) -> Secret {
        let left = self.toward_client_hop.encode();
        let right = self.toward_server_hop.encode();
        let mut e = Encoder::with_capacity(4 + left.len() + right.len());
        e.vec16(&left);
        e.vec16(&right);
        e.into_bytes().into()
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<Self, MbError> {
        let mut d = Decoder::new(bytes);
        let left = d
            .vec16()
            .map_err(|_| MbError::bad_length("truncated key material"))?;
        let right = d
            .vec16()
            .map_err(|_| MbError::bad_length("truncated key material"))?;
        d.expect_end()
            .map_err(|_| MbError::bad_length("trailing bytes in key material"))?;
        Ok(KeyMaterial {
            toward_client_hop: SessionKeys::decode(left)
                .map_err(|_| MbError::bad_length("bad hop keys"))?,
            toward_server_hop: SessionKeys::decode(right)
                .map_err(|_| MbError::bad_length("bad hop keys"))?,
        })
    }
}

// KeyMaterial is two hops' worth of live AEAD keys; the derived
// formatter would leak them. Print nothing but the type name.
impl std::fmt::Debug for KeyMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyMaterial(..)")
    }
}

/// Secondary-session application messages (sent as encrypted data on
/// the endpoint↔middlebox session). Tagged union so the channel can
/// carry key material and, in the future, policy updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecondaryMessage {
    /// Per-hop keys (the paper's MiddleboxKeyExchange).
    Keys(KeyMaterial),
}

impl SecondaryMessage {
    /// Encode with a 1-byte tag.
    pub fn encode(&self) -> Secret {
        match self {
            SecondaryMessage::Keys(km) => {
                let km = km.encode();
                let mut out = Vec::with_capacity(1 + km.len());
                out.push(1u8);
                out.extend_from_slice(&km);
                out.into()
            }
        }
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<Self, MbError> {
        match bytes.split_first() {
            Some((1, rest)) => Ok(SecondaryMessage::Keys(KeyMaterial::decode(rest)?)),
            _ => Err(MbError::unknown_message("unknown secondary message")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_tls::session::ConnectionSecrets;
    use mbtls_tls::suites::CipherSuite;

    fn keys(tag: u8) -> SessionKeys {
        SessionKeys::from_secrets(
            &ConnectionSecrets {
                suite: CipherSuite::EcdheAes256GcmSha384,
                master_secret: vec![tag; 48].into(),
                client_random: [tag; 32],
                server_random: [tag.wrapping_add(1); 32],
            },
            1,
            1,
        )
    }

    #[test]
    fn middlebox_support_roundtrip() {
        for ext in [
            MiddleboxSupport::default(),
            MiddleboxSupport {
                preconfigured: vec!["proxy.isp.example".into(), "ids.corp.example".into()],
            },
        ] {
            assert_eq!(MiddleboxSupport::decode(&ext.encode()).unwrap(), ext);
        }
    }

    #[test]
    fn middlebox_support_rejects_garbage() {
        assert!(MiddleboxSupport::decode(&[5]).is_err());
        assert!(MiddleboxSupport::decode(&[1, 0, 2, 0xff, 0xfe]).is_err());
        let mut valid = MiddleboxSupport::default().encode();
        valid.push(9);
        assert!(MiddleboxSupport::decode(&valid).is_err());
    }

    #[test]
    fn encapsulated_roundtrip() {
        let enc = Encapsulated {
            subchannel: 3,
            record: vec![22, 3, 3, 0, 2, 0xAA, 0xBB],
        };
        assert_eq!(Encapsulated::decode(&enc.encode()).unwrap(), enc);
        assert!(Encapsulated::decode(&[]).is_err());
    }

    #[test]
    fn key_material_roundtrip() {
        let km = KeyMaterial {
            toward_client_hop: keys(1),
            toward_server_hop: keys(2),
        };
        assert_eq!(km.encode().len(), 4 + 2 * 100);
        assert_eq!(KeyMaterial::decode(&km.encode()).unwrap(), km);
    }

    #[test]
    fn secondary_message_roundtrip() {
        let msg = SecondaryMessage::Keys(KeyMaterial {
            toward_client_hop: keys(3),
            toward_server_hop: keys(4),
        });
        assert_eq!(msg.encode().len(), 1 + 4 + 2 * 100);
        assert_eq!(SecondaryMessage::decode(&msg.encode()).unwrap(), msg);
        assert!(SecondaryMessage::decode(&[9, 1, 2]).is_err());
        assert!(SecondaryMessage::decode(&[]).is_err());
    }
}
