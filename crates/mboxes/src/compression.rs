//! A Flywheel-style compression proxy: compresses response bodies on
//! the server→client direction. This is the "arbitrary computation
//! that changes payload size" middlebox class — the one searchable
//! encryption (BlindBox) cannot support and mbTLS can (§2.2).

use std::borrow::Cow;

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::compress::{lzss_decompress, lzss_expands_to, Lzss};
use mbtls_http::message::Response;

use crate::rewrite::{HttpStream, RESPONSES};

/// The content-encoding token this proxy uses.
pub const ENCODING: &str = "x-lzss";

/// Compresses HTTP response bodies above a size threshold.
pub struct CompressionProxy {
    responses: HttpStream,
    min_size: usize,
    /// The match finder, reused for every body this proxy compresses.
    lzss: Lzss,
    /// Streams this proxy has emitted, so a body is compressed once.
    memo: Memo,
    /// Total plaintext body bytes seen.
    pub bytes_in: u64,
    /// Total compressed body bytes emitted.
    pub bytes_out: u64,
    /// Responses compressed.
    pub compressed_count: u64,
    /// Responses among `compressed_count` whose stream came from the
    /// memo instead of the match finder.
    pub memo_hits: u64,
}

impl CompressionProxy {
    /// Compress bodies of at least `min_size` bytes.
    pub fn new(min_size: usize) -> Self {
        CompressionProxy {
            responses: HttpStream::default(),
            min_size,
            lzss: Lzss::default(),
            memo: Memo::default(),
            bytes_in: 0,
            bytes_out: 0,
            compressed_count: 0,
            memo_hits: 0,
        }
    }

    /// Compression ratio so far (output/input).
    pub fn ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }
}

impl DataProcessor for CompressionProxy {
    fn process(&mut self, dir: FlowDirection, data: Vec<u8>) -> Vec<u8> {
        if dir == FlowDirection::ClientToServer {
            return data;
        }
        self.responses.rewrite_with(&RESPONSES, data, &mut self.memo, |memo, resp| {
            let body = resp.body();
            if body.len() < self.min_size || resp.header("Content-Encoding").is_some() {
                return;
            }
            self.bytes_in += body.len() as u64;
            let key = Key::of(body);
            let stream = if memo.reuse(key, body) {
                self.memo_hits += 1;
                Cow::Borrowed(memo.newest())
            } else {
                let stream = self.lzss.compress(body);
                if stream.len() >= body.len() {
                    self.bytes_out += body.len() as u64;
                    return;
                }
                memo.insert(key, &stream);
                Cow::Owned(stream)
            };
            self.bytes_out += stream.len() as u64;
            self.compressed_count += 1;
            resp.set_header("Content-Encoding", ENCODING);
            resp.set_body(stream);
        })
    }
}

/// Bytes of streams, plus their entries, the memo may hold.
const MEMO_BUDGET: usize = 16 * 1024;

/// What an entry holding `stream` costs against [`MEMO_BUDGET`].
fn cost(stream: &[u8]) -> usize {
    std::mem::size_of::<Entry>() + stream.len()
}

/// The compressed streams a proxy has emitted, least recently used
/// first, held to [`MEMO_BUDGET`].
///
/// A stream is reused only after [`lzss_expands_to`] has decoded it
/// against the body at hand, and LZSS output is a pure function of
/// its input (see [`Lzss`]), so a reused stream is exactly the one
/// the match finder would emit: no wire byte depends on the memo.
/// [`Key`] only picks the candidate. The memo belongs to one proxy,
/// i.e. one session: shared between sessions, the time a response
/// takes would tell one user whether another fetched the same body.
#[derive(Default)]
struct Memo {
    entries: Vec<Entry>,
    /// What `entries` costs against the budget.
    bytes: usize,
}

struct Entry {
    key: Key,
    stream: Box<[u8]>,
}

/// A body's memo key: its length and eight bytes sampled across it,
/// so a miss costs the same whatever the body's length. Bodies that
/// share a key are told apart by verification.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    len: usize,
    sample: [u8; 8],
}

impl Key {
    fn of(body: &[u8]) -> Self {
        let len = body.len();
        let mut sample = [0; 8];
        for (k, byte) in sample.iter_mut().enumerate() {
            *byte = body.get((2 * k + 1) * len / 16).copied().unwrap_or(0);
        }
        Key { len, sample }
    }
}

impl Memo {
    /// Is there a stream for `body` under `key`? If so it becomes the
    /// most recently used, [`Memo::newest`]. An entry under `key` that
    /// does not expand to `body` is dropped.
    fn reuse(&mut self, key: Key, body: &[u8]) -> bool {
        let Some(at) = self.entries.iter().position(|e| e.key == key) else {
            return false;
        };
        let entry = self.entries.remove(at);
        if !lzss_expands_to(&entry.stream, body) {
            self.bytes -= cost(&entry.stream);
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// The most recently used stream: the one [`Memo::reuse`] found.
    fn newest(&self) -> &[u8] {
        self.entries.last().map_or(&[], |e| &e.stream)
    }

    /// Remember `stream` under `key` if it fits the budget, evicting
    /// the least recently used entries to make room.
    fn insert(&mut self, key: Key, stream: &[u8]) {
        let added = cost(stream);
        if added > MEMO_BUDGET {
            return;
        }
        while self.bytes + added > MEMO_BUDGET && !self.entries.is_empty() {
            let evicted = self.entries.remove(0);
            self.bytes -= cost(&evicted.stream);
        }
        self.bytes += added;
        self.entries.push(Entry {
            key,
            stream: stream.into(),
        });
    }
}

/// Client-side helper that undoes the proxy's compression — what a
/// Flywheel-aware browser does.
#[derive(Default)]
pub struct DecompressingClient {
    responses: HttpStream,
}

impl DecompressingClient {
    /// Fresh helper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed response bytes; returns fully decoded responses.
    pub fn feed(&mut self, data: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        self.responses.messages(&RESPONSES, data, |resp| {
            let decoded = match resp.header("Content-Encoding") {
                Some(encoding) if encoding == ENCODING => lzss_decompress(resp.body()).ok(),
                _ => None,
            };
            out.push(match decoded {
                Some(body) => resp
                    .to_response_with(body, |name| !name.eq_ignore_ascii_case("Content-Encoding")),
                None => resp.to_response(),
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::compress::lzss_compress;
    use mbtls_http::message::ResponseParser;
    use mbtls_http::workload::html_body;

    fn html_page() -> Vec<u8> {
        (0..100)
            .flat_map(|i| format!("<p class=\"para\">paragraph number {i}</p>\n").into_bytes())
            .collect()
    }

    #[test]
    fn compresses_large_response() {
        let mut proxy = CompressionProxy::new(256);
        let body = html_page();
        let wire = Response::ok(&body).encode();
        let out = proxy.process(FlowDirection::ServerToClient, wire.clone());
        assert!(out.len() < wire.len(), "{} !< {}", out.len(), wire.len());
        assert_eq!(proxy.compressed_count, 1);
        assert!(proxy.ratio() < 0.6);

        // Client recovers the original body.
        let mut client = DecompressingClient::new();
        let responses = client.feed(&out);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].body, body);
        assert!(responses[0].header("Content-Encoding").is_none());
    }

    #[test]
    fn small_responses_untouched() {
        let mut proxy = CompressionProxy::new(256);
        let wire = Response::ok(b"tiny").encode();
        let out = proxy.process(FlowDirection::ServerToClient, wire);
        let mut parser = ResponseParser::new();
        parser.feed(&out);
        let resp = parser.next_response().unwrap().unwrap();
        assert_eq!(resp.body, b"tiny");
        assert!(resp.header("Content-Encoding").is_none());
        assert_eq!(proxy.compressed_count, 0);
    }

    #[test]
    fn requests_pass_through() {
        let mut proxy = CompressionProxy::new(0);
        let data = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        assert_eq!(
            proxy.process(FlowDirection::ClientToServer, data.clone()),
            data
        );
    }

    #[test]
    fn already_encoded_not_recompressed() {
        let mut proxy = CompressionProxy::new(0);
        let mut resp = Response::ok(&html_page());
        resp.set_header("Content-Encoding", "gzip");
        let out = proxy.process(FlowDirection::ServerToClient, resp.encode());
        let mut parser = ResponseParser::new();
        parser.feed(&out);
        let parsed = parser.next_response().unwrap().unwrap();
        assert_eq!(parsed.header("Content-Encoding"), Some("gzip"));
    }

    #[test]
    fn incompressible_body_left_alone() {
        let mut proxy = CompressionProxy::new(0);
        let mut x = 99u64;
        let noise: Vec<u8> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 30) as u8
            })
            .collect();
        let out = proxy.process(FlowDirection::ServerToClient, Response::ok(&noise).encode());
        let mut parser = ResponseParser::new();
        parser.feed(&out);
        let parsed = parser.next_response().unwrap().unwrap();
        assert_eq!(parsed.body, noise, "incompressible body must be unchanged");
        assert!(parsed.header("Content-Encoding").is_none());
    }

    /// The body of one response through `proxy`.
    fn body_out(proxy: &mut CompressionProxy, body: &[u8]) -> Vec<u8> {
        let out = proxy.process(FlowDirection::ServerToClient, Response::ok(body).encode());
        let mut parser = ResponseParser::new();
        parser.feed(&out);
        parser.next_response().unwrap().unwrap().body
    }

    #[test]
    fn a_repeated_body_is_served_from_the_memo() {
        let mut proxy = CompressionProxy::new(0);
        let body = html_page();
        let first = body_out(&mut proxy, &body);
        assert_eq!(first, lzss_compress(&body));
        assert_eq!(body_out(&mut proxy, &body), first);
        assert_eq!((proxy.compressed_count, proxy.memo_hits), (2, 1));
        assert_eq!(proxy.bytes_out, 2 * first.len() as u64);
    }

    #[test]
    fn an_entry_that_expands_to_another_body_is_replaced() {
        let mut proxy = CompressionProxy::new(0);
        let body = html_page();
        // Same length, different text, planted under `body`'s key.
        let other = String::from_utf8(body.clone()).unwrap().replace("number 1", "number 7");
        assert_eq!(other.len(), body.len());
        assert!(other.as_bytes() != body);
        let key = Key::of(&body);
        proxy.memo.insert(key, &lzss_compress(other.as_bytes()));

        assert_eq!(body_out(&mut proxy, &body), lzss_compress(&body));
        assert_eq!((proxy.compressed_count, proxy.memo_hits), (1, 0));
        let [entry] = proxy.memo.entries.as_slice() else {
            panic!("{} entries", proxy.memo.entries.len());
        };
        assert!(entry.key == key && *entry.stream == *lzss_compress(&body));
        assert_eq!(proxy.memo.bytes, cost(&entry.stream));
    }

    #[test]
    fn the_memo_holds_at_most_its_budget() {
        let mut proxy = CompressionProxy::new(0);
        for i in 0..10_000 {
            let mut body = html_body(i, 500);
            body.extend_from_slice(&i.to_le_bytes());
            body_out(&mut proxy, &body);
            let held: usize = proxy.memo.entries.iter().map(|e| cost(&e.stream)).sum();
            assert_eq!(proxy.memo.bytes, held);
            assert!(held <= MEMO_BUDGET, "{held} bytes held after {i} bodies");
        }
        assert_eq!((proxy.compressed_count, proxy.memo_hits), (10_000, 0));
        assert!(proxy.memo.entries.len() > 10, "{} entries", proxy.memo.entries.len());

        // A stream the budget cannot hold is not kept, and evicts nothing.
        let entries = proxy.memo.entries.len();
        let large = html_body(1, 256 * 1024);
        assert!(lzss_compress(&large).len() > MEMO_BUDGET);
        body_out(&mut proxy, &large);
        assert_eq!(proxy.memo.entries.len(), entries);
    }
}
