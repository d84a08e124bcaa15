//! TLS wire codec. The encoder, decoder and their error are the
//! workspace's one codec, [`mbtls_pki::wire`], re-exported under the
//! names this crate and `mbtls-core` use; what lives here is
//! `StreamBuf`, the reassembly buffer under both stream readers.

// A wire file (DESIGN.md §6d): its buffers hold a peer's bytes, and no
// slice here is indexed.
#![forbid(clippy::indexing_slicing)]

pub use mbtls_pki::wire::{CodecError, Decoder, Encoder};

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
    pub(crate) fn consume(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let taken = self.buf.get(self.pos..end)?;
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
