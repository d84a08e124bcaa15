//! The workspace's wire codec: big-endian integers (including the
//! 24-bit lengths TLS handshake messages use) and length-prefixed
//! vectors with u8, u16 or u24 prefixes, following RFC 5246
//! presentation-language conventions. Certificates, delegated
//! credentials, TLS handshake messages and mbTLS records are all
//! written with it (`mbtls_tls::codec` re-exports these names).
//!
//! Decoding is strict: trailing bytes, truncated fields and oversized
//! lengths are errors — everything decoded here crosses a trust
//! boundary, so the parser must be total.

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ran out mid-field.
    Truncated,
    /// Trailing bytes after a complete structure.
    TrailingBytes,
    /// A value violated a structural constraint.
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CodecError::Truncated => "truncated",
            CodecError::TrailingBytes => "trailing bytes",
            CodecError::Malformed => "malformed",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for CodecError {}

/// Encoder.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh encoder with room for `n` bytes: an encoding that
    /// reserves its whole length never reallocates, so the buffer it
    /// finishes into is the only copy of it.
    pub fn with_capacity(n: usize) -> Self {
        Encoder { buf: Vec::with_capacity(n) }
    }

    /// Finish.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Big-endian 24-bit integer. Panics if it does not fit (encoding
    /// bug, not input-dependent).
    pub fn u24(&mut self, v: usize) {
        assert!(v < (1 << 24), "u24 overflow");
        self.buf.push((v >> 16) as u8);
        self.buf.push((v >> 8) as u8);
        self.buf.push(v as u8);
    }

    /// Big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Raw bytes.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// u8-length-prefixed vector.
    pub fn vec8(&mut self, v: &[u8]) {
        assert!(v.len() <= u8::MAX as usize);
        self.u8(v.len() as u8);
        self.raw(v);
    }

    /// u16-length-prefixed vector.
    pub fn vec16(&mut self, v: &[u8]) {
        assert!(v.len() <= u16::MAX as usize);
        self.u16(v.len() as u16);
        self.raw(v);
    }

    /// u24-length-prefixed vector.
    pub fn vec24(&mut self, v: &[u8]) {
        self.u24(v.len());
        self.raw(v);
    }

    /// u16-length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.vec16(s.as_bytes());
    }
}

/// Decoder over a borrowed slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Unconsumed byte count.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Take exactly `N` bytes as a fixed array.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let b = self.take(N)?;
        b.try_into().map_err(|_| CodecError::Truncated)
    }

    /// Remaining bytes, consuming them.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        out
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Big-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    /// Big-endian 24-bit integer.
    pub fn u24(&mut self) -> Result<usize, CodecError> {
        let b = self.take_array::<3>()?;
        Ok(usize::from(b[0]) << 16 | usize::from(b[1]) << 8 | usize::from(b[2]))
    }

    /// Big-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Big-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// u8-length-prefixed vector.
    pub fn vec8(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u8()? as usize;
        self.take(n)
    }

    /// u16-length-prefixed vector.
    pub fn vec16(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u16()? as usize;
        self.take(n)
    }

    /// u24-length-prefixed vector.
    pub fn vec24(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u24()?;
        self.take(n)
    }

    /// u16-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let raw = self.vec16()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Encoder::new();
        w.u8(7);
        w.u16(0x1234);
        w.u32(0xdeadbeef);
        w.u64(0x0123456789abcdef);
        w.vec16(b"hello");
        w.string("world");
        let bytes = w.into_bytes();

        let mut r = Decoder::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.u64().unwrap(), 0x0123456789abcdef);
        assert_eq!(r.vec16().unwrap(), b"hello");
        assert_eq!(r.string().unwrap(), "world");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Encoder::new();
        w.vec16(b"abc");
        let mut bytes = w.into_bytes();
        bytes.pop();
        let mut r = Decoder::new(&bytes);
        assert_eq!(r.vec16(), Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = Decoder::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Encoder::new();
        w.vec16(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert_eq!(r.string(), Err(CodecError::Malformed));
    }

    #[test]
    fn empty_read_fails_cleanly() {
        let mut r = Decoder::new(&[]);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert!(r.expect_end().is_ok());
    }
}
