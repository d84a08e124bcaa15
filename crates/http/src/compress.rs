//! A self-contained LZSS codec — the compression workload for the
//! Flywheel-style proxy middlebox.
//!
//! Format: a stream of flag bytes, each covering the next 8 tokens
//! (LSB first). Flag bit 1 = literal byte; 0 = a back-reference of
//! two bytes encoding (offset: 12 bits, length-3: 4 bits) against a
//! 4096-byte sliding window. Match lengths are 3..=18.

use crate::message::MAX_BODY;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
/// Buckets of the 3-byte-prefix hash.
const HASH_SIZE: usize = 1 << 13;
/// Candidates the match walk visits per position.
const MAX_TRIES: usize = 32;
/// Longest slice matched as one body, so its positions fit in `u32`.
/// Only inputs above 2 GiB are split; no reference crosses a split.
const MAX_PIECE: usize = 1 << 31;

fn hash(b0: u8, b1: u8, b2: u8) -> usize {
    ((usize::from(b0) << 6) ^ (usize::from(b1) << 3) ^ usize::from(b2)) & (HASH_SIZE - 1)
}

/// Compress `input` with a fresh [`Lzss`].
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    Lzss::default().compress(input)
}

/// The LZSS match finder, kept across bodies so its tables are
/// allocated once (48 KiB, on the first body) instead of per call.
///
/// Hash chains link every earlier position with the same 3-byte-prefix
/// hash, newest first; the walk visits up to 32 of them within the
/// window and keeps the first longest match. Positions are global
/// (`base` + offset into the body), which is what lets both tables
/// outlive a body without being cleared:
///
/// * `head` maps a hash to its newest position. An entry below `base`
///   was written by an earlier body and reads as empty, so a new body
///   only bumps `base`; `head` is zeroed only when `u32` positions
///   would wrap.
/// * `prev` is a ring of `WINDOW` links indexed by position mod
///   `WINDOW`. The walk reads a position's link only while it is at
///   most `WINDOW` bytes back, and the next position to reuse that
///   slot is `WINDOW` later, i.e. not yet inserted: every link read is
///   the one that position wrote.
///
/// So each body sees exactly the candidates, in exactly the order, a
/// fresh finder would: the output does not depend on what was
/// compressed before.
#[derive(Default)]
pub struct Lzss {
    tables: Option<Box<Tables>>,
    /// Global position of the current body's first byte: 0 before the
    /// first body, then at least 1, so a zeroed `head` entry is empty.
    base: u32,
}

struct Tables {
    head: [u32; HASH_SIZE],
    prev: [u32; WINDOW],
}

impl Lzss {
    /// Compress `input`.
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Tokens {
            // The longest stream: every byte a literal, plus a flag
            // byte per eight. So the stream is one allocation.
            bytes: Vec::with_capacity(input.len() + input.len() / 8 + 1),
            flag_at: 0,
            flag_bit: 8,
        };
        for piece in input.chunks(MAX_PIECE) {
            self.compress_body(piece, &mut out);
        }
        out.bytes
    }

    fn compress_body(&mut self, input: &[u8], out: &mut Tokens) {
        let n = input.len();
        // `MAX_PIECE` bounds a body, so its length fits.
        let len = n as u32;
        let t = self.tables.get_or_insert_with(|| {
            Box::new(Tables {
                head: [0; HASH_SIZE],
                prev: [0; WINDOW],
            })
        });
        if self.base == 0 || len > u32::MAX - self.base {
            t.head.fill(0);
            self.base = 1;
        }
        let base = self.base;
        let mut pos = 0;
        while pos < n {
            let here = base + pos as u32;
            let max_len = MAX_MATCH.min(n - pos);
            let (mut best_len, mut best_off) = (0, 0);
            if let [b0, b1, b2, ..] = input[pos..] {
                // Candidates are this body's and at most `WINDOW` back;
                // anything an earlier body left is below `base`.
                let floor = base.max(here.saturating_sub(WINDOW as u32));
                let mut candidate = t.head[hash(b0, b1, b2)];
                let mut tries = 0;
                while candidate >= floor && tries < MAX_TRIES {
                    let at = (candidate - base) as usize;
                    // A candidate that differs at `best_len` cannot beat
                    // the best match so far.
                    if input[at + best_len] == input[pos + best_len] {
                        let len = match_len(&input[at..], &input[pos..pos + max_len]);
                        if len > best_len {
                            best_len = len;
                            best_off = here - candidate;
                            if len == max_len {
                                break;
                            }
                        }
                    }
                    candidate = t.prev[candidate as usize % WINDOW];
                    tries += 1;
                }
            }

            let step = if best_len >= MIN_MATCH {
                out.reference(best_off, best_len);
                best_len
            } else {
                out.literal(input[pos]);
                1
            };
            // Insert every covered position that starts a 3-byte prefix.
            for (i, w) in input[pos..].windows(MIN_MATCH).take(step).enumerate() {
                let at = here + i as u32;
                let h = hash(w[0], w[1], w[2]);
                t.prev[at as usize % WINDOW] = t.head[h];
                t.head[h] = at;
            }
            pos += step;
        }
        self.base += len;
    }
}

/// Length of the common prefix of `a` and `b` (`b` the shorter),
/// compared a word at a time.
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    while let (Some(x), Some(y)) = (a[len..].first_chunk::<8>(), b[len..].first_chunk::<8>()) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..].iter().zip(&b[len..]).take_while(|(x, y)| x == y).count()
}

/// The compressed stream being written.
struct Tokens {
    bytes: Vec<u8>,
    /// Index of the flag byte announcing the current group of tokens.
    flag_at: usize,
    /// Tokens in the current group; 8 means the next token opens a new
    /// flag byte.
    flag_bit: u8,
}

impl Tokens {
    fn flag(&mut self, literal: bool) {
        if self.flag_bit == 8 {
            self.flag_at = self.bytes.len();
            self.bytes.push(0);
            self.flag_bit = 0;
        }
        if literal {
            self.bytes[self.flag_at] |= 1 << self.flag_bit;
        }
        self.flag_bit += 1;
    }

    fn literal(&mut self, byte: u8) {
        self.flag(true);
        self.bytes.push(byte);
    }

    fn reference(&mut self, offset: u32, len: usize) {
        debug_assert!((1..=WINDOW as u32).contains(&offset));
        self.flag(false);
        let token = (((offset - 1) as u16) << 4) | ((len - MIN_MATCH) as u16);
        self.bytes.extend_from_slice(&token.to_be_bytes());
    }
}

/// Decompression failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzssError {
    /// Input ended inside a token.
    Truncated,
    /// A back-reference pointed before the start of output.
    BadReference,
    /// The output would exceed [`MAX_BODY`], the largest body the HTTP
    /// parser accepts.
    TooLarge,
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "truncated LZSS stream"),
            LzssError::BadReference => write!(f, "invalid LZSS back-reference"),
            LzssError::TooLarge => write!(f, "LZSS output exceeds {MAX_BODY} bytes"),
        }
    }
}

impl std::error::Error for LzssError {}

/// One token of a stream.
enum Token {
    Literal(u8),
    /// Repeat the `len` bytes that start `offset` bytes back.
    Copy { offset: usize, len: usize },
}

/// The one reader of the format: a stream's tokens, in order. A
/// stream that ends inside a reference yields `Truncated` once and
/// stops; one that ends between tokens (a trailing flag byte
/// included) just stops.
struct Reader<'a> {
    rest: &'a [u8],
    /// The current group's flag bits not yet used, lowest next.
    flags: u8,
    /// Tokens left in the current group.
    left: u8,
}

impl<'a> Reader<'a> {
    fn new(stream: &'a [u8]) -> Self {
        Reader {
            rest: stream,
            flags: 0,
            left: 0,
        }
    }
}

impl Iterator for Reader<'_> {
    type Item = Result<Token, LzssError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            let (&flags, rest) = self.rest.split_first()?;
            (self.flags, self.left, self.rest) = (flags, 8, rest);
        }
        let literal = self.flags & 1 != 0;
        self.flags >>= 1;
        self.left -= 1;
        if literal {
            let (&byte, rest) = self.rest.split_first()?;
            self.rest = rest;
            return Some(Ok(Token::Literal(byte)));
        }
        match self.rest.split_first_chunk::<2>() {
            Some((&token, rest)) => {
                self.rest = rest;
                let token = u16::from_be_bytes(token);
                Some(Ok(Token::Copy {
                    offset: usize::from(token >> 4) + 1,
                    len: usize::from(token & 0xF) + MIN_MATCH,
                }))
            }
            None if self.rest.is_empty() => None,
            None => {
                self.rest = &[];
                Some(Err(LzssError::Truncated))
            }
        }
    }
}

/// Decompress an LZSS stream. The stream is a peer's choice, so the
/// output is bounded: past [`MAX_BODY`] bytes it is refused.
pub fn lzss_decompress(input: &[u8]) -> Result<Vec<u8>, LzssError> {
    let mut out = Vec::with_capacity((input.len() * 2).min(MAX_BODY));
    for token in Reader::new(input) {
        match token? {
            Token::Literal(byte) => {
                if out.len() == MAX_BODY {
                    return Err(LzssError::TooLarge);
                }
                out.push(byte);
            }
            Token::Copy { offset, len } => {
                if offset > out.len() {
                    return Err(LzssError::BadReference);
                }
                if out.len() + len > MAX_BODY {
                    return Err(LzssError::TooLarge);
                }
                let start = out.len() - offset;
                if offset >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping: the copy reads bytes it has just written.
                    for i in 0..len {
                        let byte = out[start + i];
                        out.push(byte);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Whether `stream` decompresses to exactly `body`:
/// `lzss_decompress(stream) == Ok(body)`, decided without allocating.
/// The stream is decoded against `body` itself and the walk stops at
/// the first byte that differs.
pub fn lzss_expands_to(stream: &[u8], body: &[u8]) -> bool {
    if body.len() > MAX_BODY {
        return false;
    }
    // `body[..done]` is what the stream has decoded to so far.
    let mut done = 0;
    for token in Reader::new(stream) {
        match token {
            Ok(Token::Literal(byte)) => {
                if body.get(done) != Some(&byte) {
                    return false;
                }
                done += 1;
            }
            Ok(Token::Copy { offset, len }) => {
                let Some(start) = done.checked_sub(offset) else {
                    return false;
                };
                // The copy reads decoded bytes, which equal `body`'s,
                // an overlapping copy's own output included.
                match body.get(done..done + len) {
                    Some(want) if *want == body[start..start + len] => done += len,
                    _ => return false,
                }
            }
            Err(_) => return false,
        }
    }
    done == body.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for input in [
            b"".to_vec(),
            b"a".to_vec(),
            b"hello world".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"abcabcabcabcabcabcabcabc".to_vec(),
        ] {
            let compressed = lzss_compress(&input);
            assert_eq!(lzss_decompress(&compressed).unwrap(), input, "{input:?}");
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let input: Vec<u8> = b"The quick brown fox. ".repeat(100);
        let compressed = lzss_compress(&input);
        assert!(
            compressed.len() < input.len() / 3,
            "{} !< {}",
            compressed.len(),
            input.len() / 3
        );
        assert_eq!(lzss_decompress(&compressed).unwrap(), input);
    }

    #[test]
    fn handles_incompressible_data() {
        // Pseudo-random bytes: output grows slightly (flag overhead)
        // but round-trips.
        let mut x = 12345u64;
        let input: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let compressed = lzss_compress(&input);
        assert!(compressed.len() <= input.len() + input.len() / 8 + 2);
        assert_eq!(lzss_decompress(&compressed).unwrap(), input);
    }

    #[test]
    fn long_range_matches() {
        // Repetition separated by filler within the window.
        let mut input = b"0123456789abcdefghij".to_vec();
        input.extend(vec![b'x'; 3000]);
        input.extend_from_slice(b"0123456789abcdefghij");
        let compressed = lzss_compress(&input);
        assert_eq!(lzss_decompress(&compressed).unwrap(), input);
    }

    #[test]
    fn rejects_corrupt_streams() {
        // Reference before start of output.
        let bad = vec![0b0000_0000u8, 0xFF, 0xF5];
        assert_eq!(lzss_decompress(&bad), Err(LzssError::BadReference));
        // Truncated token.
        let bad = vec![0b0000_0000u8, 0x00];
        assert_eq!(lzss_decompress(&bad), Err(LzssError::Truncated));
    }

    #[test]
    fn large_html_like_payload() {
        let page: Vec<u8> = (0..200)
            .flat_map(|i| {
                format!(
                    "<div class=\"row\"><span id=\"cell-{i}\">value {i}</span></div>\n"
                )
                .into_bytes()
            })
            .collect();
        let compressed = lzss_compress(&page);
        assert!(compressed.len() < page.len() / 2);
        assert_eq!(lzss_decompress(&compressed).unwrap(), page);
    }

    #[test]
    fn reuse_across_the_position_wrap_matches_a_fresh_finder() {
        let inputs: Vec<Vec<u8>> = (0..12u8)
            .map(|i| {
                let unit = [b'a' + i % 3, b'b', b'c' + i % 2, i];
                unit.iter().cycle().take(700 + 450 * usize::from(i)).copied().collect()
            })
            .collect();
        let mut lzss = Lzss::default();
        lzss.compress(b"allocate the tables");
        // A few bodies before `u32` positions run out: one of the inputs
        // below cannot fit and zeroes `head` instead.
        lzss.base = u32::MAX - 9000;
        let mut wrapped = false;
        for input in &inputs {
            let before = lzss.base;
            assert_eq!(lzss.compress(input), lzss_compress(input));
            wrapped |= lzss.base < before;
        }
        assert!(wrapped, "no body crossed the wrap");
    }

    #[test]
    fn output_is_held_to_max_body() {
        // A literal, references at offset 1 up to `out_len` bytes, then
        // `tail` literals: a byte of stream expands about 8.5-fold.
        let bomb = |out_len: usize, tail: &[u8]| {
            let mut tokens: Vec<Vec<u8>> = vec![vec![b'x']];
            let mut left = out_len - 1;
            while left > 0 {
                // Never leave a remainder shorter than a match.
                let len = match left {
                    l if l > MAX_MATCH && l - MAX_MATCH < MIN_MATCH => l - MIN_MATCH,
                    l => l.min(MAX_MATCH),
                };
                tokens.push(((len - MIN_MATCH) as u16).to_be_bytes().to_vec());
                left -= len;
            }
            tokens.extend(tail.iter().map(|&b| vec![b]));
            let mut stream = Vec::new();
            for group in tokens.chunks(8) {
                let literals = group.iter().enumerate().filter(|(_, t)| t.len() == 1);
                stream.push(literals.fold(0u8, |flags, (i, _)| flags | 1 << i));
                group.iter().for_each(|t| stream.extend_from_slice(t));
            }
            stream
        };
        let at_bound = lzss_decompress(&bomb(MAX_BODY, b"")).unwrap();
        assert_eq!(at_bound.len(), MAX_BODY);
        assert!(at_bound.iter().all(|&b| b == b'x'));
        assert_eq!(lzss_decompress(&bomb(MAX_BODY + 1, b"")), Err(LzssError::TooLarge));
        assert_eq!(lzss_decompress(&bomb(MAX_BODY - 1, b"y")).map(|o| o.len()), Ok(MAX_BODY));
        assert_eq!(lzss_decompress(&bomb(MAX_BODY, b"y")), Err(LzssError::TooLarge));
    }
}
