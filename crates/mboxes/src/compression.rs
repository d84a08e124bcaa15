//! A Flywheel-style compression proxy: compresses response bodies on
//! the server→client direction. This is the "arbitrary computation
//! that changes payload size" middlebox class — the one searchable
//! encryption (BlindBox) cannot support and mbTLS can (§2.2).

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::compress::{lzss_decompress, Lzss};
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
    /// Total plaintext body bytes seen.
    pub bytes_in: u64,
    /// Total compressed body bytes emitted.
    pub bytes_out: u64,
    /// Responses compressed.
    pub compressed_count: u64,
}

impl CompressionProxy {
    /// Compress bodies of at least `min_size` bytes.
    pub fn new(min_size: usize) -> Self {
        CompressionProxy {
            responses: HttpStream::default(),
            min_size,
            lzss: Lzss::default(),
            bytes_in: 0,
            bytes_out: 0,
            compressed_count: 0,
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
        self.responses.rewrite(&RESPONSES, data, |resp| {
            let already_encoded = resp.header("Content-Encoding").is_some();
            if resp.body.len() >= self.min_size && !already_encoded {
                self.bytes_in += resp.body.len() as u64;
                let compressed = self.lzss.compress(&resp.body);
                if compressed.len() < resp.body.len() {
                    self.bytes_out += compressed.len() as u64;
                    resp.body = compressed;
                    resp.set_header("Content-Encoding", ENCODING);
                    self.compressed_count += 1;
                } else {
                    self.bytes_out += resp.body.len() as u64;
                }
            }
        })
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
        self.responses.messages(&RESPONSES, data, |mut resp| {
            if resp.header("Content-Encoding") == Some(ENCODING) {
                if let Ok(body) = lzss_decompress(&resp.body) {
                    resp.body = body;
                    resp.headers
                        .retain(|(n, _)| !n.eq_ignore_ascii_case("Content-Encoding"));
                }
            }
            out.push(resp);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::message::ResponseParser;

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
}
