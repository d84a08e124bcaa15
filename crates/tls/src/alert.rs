//! TLS alerts (RFC 5246 §7.2).

use crate::codec::{Decoder, Encoder};
use crate::TlsError;

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertLevel {
    /// warning(1)
    Warning,
    /// fatal(2)
    Fatal,
}

/// Alert descriptions (the subset this stack emits or interprets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertDescription {
    /// close_notify(0)
    CloseNotify,
    /// unexpected_message(10)
    UnexpectedMessage,
    /// bad_record_mac(20)
    BadRecordMac,
    /// record_overflow(22)
    RecordOverflow,
    /// handshake_failure(40)
    HandshakeFailure,
    /// bad_certificate(42)
    BadCertificate,
    /// certificate_expired(45)
    CertificateExpired,
    /// certificate_unknown(46)
    CertificateUnknown,
    /// illegal_parameter(47)
    IllegalParameter,
    /// unknown_ca(48)
    UnknownCa,
    /// decode_error(50)
    DecodeError,
    /// decrypt_error(51)
    DecryptError,
    /// protocol_version(70)
    ProtocolVersion,
    /// internal_error(80)
    InternalError,
    /// Any description byte we do not model.
    Unknown(u8),
}

impl AlertLevel {
    fn to_u8(self) -> u8 {
        match self {
            AlertLevel::Warning => 1,
            AlertLevel::Fatal => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(AlertLevel::Warning),
            2 => Some(AlertLevel::Fatal),
            _ => None,
        }
    }
}

impl AlertDescription {
    fn to_u8(self) -> u8 {
        match self {
            AlertDescription::CloseNotify => 0,
            AlertDescription::UnexpectedMessage => 10,
            AlertDescription::BadRecordMac => 20,
            AlertDescription::RecordOverflow => 22,
            AlertDescription::HandshakeFailure => 40,
            AlertDescription::BadCertificate => 42,
            AlertDescription::CertificateExpired => 45,
            AlertDescription::CertificateUnknown => 46,
            AlertDescription::IllegalParameter => 47,
            AlertDescription::UnknownCa => 48,
            AlertDescription::DecodeError => 50,
            AlertDescription::DecryptError => 51,
            AlertDescription::ProtocolVersion => 70,
            AlertDescription::InternalError => 80,
            AlertDescription::Unknown(v) => v,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => AlertDescription::CloseNotify,
            10 => AlertDescription::UnexpectedMessage,
            20 => AlertDescription::BadRecordMac,
            22 => AlertDescription::RecordOverflow,
            40 => AlertDescription::HandshakeFailure,
            42 => AlertDescription::BadCertificate,
            45 => AlertDescription::CertificateExpired,
            46 => AlertDescription::CertificateUnknown,
            47 => AlertDescription::IllegalParameter,
            48 => AlertDescription::UnknownCa,
            50 => AlertDescription::DecodeError,
            51 => AlertDescription::DecryptError,
            70 => AlertDescription::ProtocolVersion,
            80 => AlertDescription::InternalError,
            other => AlertDescription::Unknown(other),
        }
    }
}

impl std::fmt::Display for AlertDescription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AlertDescription::CloseNotify => "close_notify",
            AlertDescription::UnexpectedMessage => "unexpected_message",
            AlertDescription::BadRecordMac => "bad_record_mac",
            AlertDescription::RecordOverflow => "record_overflow",
            AlertDescription::HandshakeFailure => "handshake_failure",
            AlertDescription::BadCertificate => "bad_certificate",
            AlertDescription::CertificateExpired => "certificate_expired",
            AlertDescription::CertificateUnknown => "certificate_unknown",
            AlertDescription::IllegalParameter => "illegal_parameter",
            AlertDescription::UnknownCa => "unknown_ca",
            AlertDescription::DecodeError => "decode_error",
            AlertDescription::DecryptError => "decrypt_error",
            AlertDescription::ProtocolVersion => "protocol_version",
            AlertDescription::InternalError => "internal_error",
            AlertDescription::Unknown(v) => return write!(f, "unknown_alert({v})"),
        };
        f.write_str(name)
    }
}

/// A parsed alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Severity.
    pub level: AlertLevel,
    /// What happened.
    pub description: AlertDescription,
}

impl Alert {
    /// A fatal alert.
    pub fn fatal(description: AlertDescription) -> Self {
        Alert {
            level: AlertLevel::Fatal,
            description,
        }
    }

    /// The warning-level close_notify.
    pub fn close_notify() -> Self {
        Alert {
            level: AlertLevel::Warning,
            description: AlertDescription::CloseNotify,
        }
    }

    /// Encode the 2-byte alert payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(self.level.to_u8());
        e.u8(self.description.to_u8());
        e.into_bytes()
    }

    /// Parse an alert payload.
    pub fn decode(payload: &[u8]) -> Result<Alert, TlsError> {
        let mut d = Decoder::new(payload);
        let level =
            AlertLevel::from_u8(d.u8()?).ok_or(TlsError::Decode("bad alert level"))?;
        let description = AlertDescription::from_u8(d.u8()?);
        d.expect_end()?;
        Ok(Alert { level, description })
    }

    /// Pick an alert appropriate for an error we generated.
    pub fn for_error(err: &TlsError) -> Alert {
        let description = match err {
            TlsError::Decode(_) => AlertDescription::DecodeError,
            TlsError::Crypto(mbtls_crypto::CryptoError::BadTag) => AlertDescription::BadRecordMac,
            TlsError::RecordOverflow => AlertDescription::RecordOverflow,
            TlsError::Crypto(_) => AlertDescription::DecryptError,
            TlsError::Certificate(mbtls_pki::CertError::Expired) => {
                AlertDescription::CertificateExpired
            }
            TlsError::Certificate(mbtls_pki::CertError::UnknownIssuer) => {
                AlertDescription::UnknownCa
            }
            TlsError::Certificate(_) => AlertDescription::BadCertificate,
            TlsError::Attestation(_) => AlertDescription::BadCertificate,
            TlsError::UnexpectedMessage(_) => AlertDescription::UnexpectedMessage,
            TlsError::NegotiationFailed(_) => AlertDescription::HandshakeFailure,
            _ => AlertDescription::InternalError,
        };
        Alert::fatal(description)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for alert in [
            Alert::close_notify(),
            Alert::fatal(AlertDescription::BadRecordMac),
            Alert::fatal(AlertDescription::Unknown(123)),
        ] {
            assert_eq!(Alert::decode(&alert.encode()).unwrap(), alert);
        }
    }

    #[test]
    fn bad_payloads_rejected() {
        assert!(Alert::decode(&[]).is_err());
        assert!(Alert::decode(&[1]).is_err());
        assert!(Alert::decode(&[9, 0]).is_err());
        assert!(Alert::decode(&[1, 0, 0]).is_err());
    }

    #[test]
    fn error_mapping() {
        assert_eq!(
            Alert::for_error(&TlsError::Decode("x")).description,
            AlertDescription::DecodeError
        );
        assert_eq!(
            Alert::for_error(&TlsError::Crypto(mbtls_crypto::CryptoError::BadTag)).description,
            AlertDescription::BadRecordMac
        );
        let overflow = Alert::for_error(&TlsError::RecordOverflow);
        assert_eq!(overflow, Alert::fatal(AlertDescription::RecordOverflow));
        assert_eq!(overflow.encode(), [2, 22]);
        assert_eq!(
            Alert::for_error(&TlsError::Certificate(mbtls_pki::CertError::Expired)).description,
            AlertDescription::CertificateExpired
        );
    }
}
