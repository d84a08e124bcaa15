//! TLS wire codec: big-endian integers (including the 24-bit lengths
//! TLS handshake messages use) and length-prefixed vectors with u8,
//! u16, or u24 prefixes, following RFC 5246 presentation-language
//! conventions. Strict: truncation and trailing bytes are errors.

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

    /// Finish.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length (used for patching lengths).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
}

/// The reassembly buffer under the record reader and the handshake
/// reader: stream bytes are appended at the back and whole units are
/// consumed from the front.
///
/// Consuming advances a read cursor instead of draining the buffer, so
/// pulling N coalesced units out of one feed is O(total bytes), not
/// O(N · total bytes). The consumed prefix is reclaimed lazily on the
/// next [`StreamBuf::feed`] once it outgrows the unread remainder
/// (amortized O(1) per byte).
#[derive(Default)]
pub(crate) struct StreamBuf {
    buf: Vec<u8>,
    /// Start of unread data in `buf`.
    pos: usize,
}

impl StreamBuf {
    /// Append stream bytes, lazily compacting the consumed prefix.
    pub(crate) fn feed(&mut self, data: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > self.buf.len() - self.pos {
            // The dead prefix outgrew the live remainder: one memmove
            // now is amortized O(1) per fed byte.
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The bytes fed but not yet consumed.
    pub(crate) fn unread(&self) -> &[u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    /// Consume the next `n` unread bytes and hand them out where they
    /// sit (valid until the next call); `None` if fewer are buffered.
    pub(crate) fn consume(&mut self, n: usize) -> Option<&mut [u8]> {
        let end = self.pos.checked_add(n)?;
        let taken = self.buf.get_mut(self.pos..end)?;
        self.pos = end;
        Some(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut e = Encoder::new();
        e.u8(1);
        e.u16(0x0203);
        e.u24(0x040506);
        e.u32(0x0708090a);
        e.u64(0x0b0c0d0e0f101112);
        e.vec8(b"a");
        e.vec16(b"bc");
        e.vec24(b"def");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 1);
        assert_eq!(d.u16().unwrap(), 0x0203);
        assert_eq!(d.u24().unwrap(), 0x040506);
        assert_eq!(d.u32().unwrap(), 0x0708090a);
        assert_eq!(d.u64().unwrap(), 0x0b0c0d0e0f101112);
        assert_eq!(d.vec8().unwrap(), b"a");
        assert_eq!(d.vec16().unwrap(), b"bc");
        assert_eq!(d.vec24().unwrap(), b"def");
        d.expect_end().unwrap();
    }

    #[test]
    fn u24_bounds() {
        let mut e = Encoder::new();
        e.u24((1 << 24) - 1);
        let bytes = e.into_bytes();
        assert_eq!(bytes, vec![0xff, 0xff, 0xff]);
        assert_eq!(Decoder::new(&bytes).u24().unwrap(), (1 << 24) - 1);
    }

    #[test]
    fn truncation_and_trailing() {
        let mut d = Decoder::new(&[0, 2, 0xaa]);
        assert_eq!(d.vec16(), Err(CodecError::Truncated));
        let mut d = Decoder::new(&[1, 2]);
        d.u8().unwrap();
        assert_eq!(d.expect_end(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn rest_consumes_everything() {
        let mut d = Decoder::new(&[1, 2, 3]);
        d.u8().unwrap();
        assert_eq!(d.rest(), &[2, 3]);
        assert_eq!(d.remaining(), 0);
        d.expect_end().unwrap();
    }
}
