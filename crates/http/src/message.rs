//! HTTP/1.1 messages, one incremental parser and one encoder.
//!
//! Scope: what middlebox applications need — request/response lines,
//! headers, Content-Length bodies. Chunked transfer encoding and
//! HTTP/2 are out of scope (the paper's prototype proxy speaks plain
//! HTTP/1.1).
//!
//! Requests and responses differ by their start line and by when the
//! encoder writes `Content-Length`; everything else — finding the end
//! of the head, the header block, the body length and its bounds, the
//! cursor over the receive buffer, the header-block encoder — is
//! written once, in [`Parser`] and `encode_after_start_line`. The
//! bytes parsed here come from the peer: nothing in this file indexes
//! a buffer or adds lengths unchecked.

// A wire file (DESIGN.md §6d): its buffers hold a peer's bytes, and no
// slice here is indexed.
#![forbid(clippy::indexing_slicing)]

use std::io::Write as _;

/// Parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed start line, header or `Content-Length`.
    Malformed,
    /// Head or declared body exceeded its size bound.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed => write!(f, "malformed HTTP message"),
            HttpError::TooLarge => write!(f, "HTTP head or body too large"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Most bytes a head may occupy, its blank line included.
const MAX_HEAD: usize = 64 * 1024;

/// Largest `Content-Length` accepted. A parser buffers a whole body,
/// so this bounds what one peer can make a middlebox hold per
/// direction. `lzss_decompress` holds its output to the same bound.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

const HEAD_END: &[u8] = b"\r\n\r\n";

/// Is one of `data` and `token` a prefix of the other? (A first chunk
/// may be shorter than the token it starts.)
fn prefix_compatible(data: &[u8], token: &[u8]) -> bool {
    !data.is_empty() && (data.starts_with(token) || token.starts_with(data))
}

/// Quick sniff: does this look like the start of an HTTP/1.x request?
/// Middlebox processors bypass parsing for non-HTTP streams.
pub fn looks_like_http_request(data: &[u8]) -> bool {
    const METHODS: [&[u8]; 7] = [
        b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"PATCH ",
    ];
    METHODS.iter().any(|m| prefix_compatible(data, m))
}

/// Quick sniff: does this look like the start of an HTTP/1.x response?
pub fn looks_like_http_response(data: &[u8]) -> bool {
    prefix_compatible(data, b"HTTP/1.")
}

/// Header fields, in wire order.
pub type Headers = Vec<(String, String)>;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (GET, POST, ...).
    pub method: String,
    /// Request target (path).
    pub target: String,
    /// Header fields in order.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header fields in order.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Convenience GET with a Host header.
    pub fn get(target: &str, host: &str) -> Request {
        Request {
            method: "GET".into(),
            target: target.into(),
            headers: vec![("Host".into(), host.into())],
            body: Vec::new(),
        }
    }

    /// First value of a header (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Insert or replace a header.
    pub fn set_header(&mut self, name: &str, value: &str) {
        set_header(&mut self.headers, name, value);
    }

    /// Serialize to wire form (sets Content-Length when a body is
    /// present).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "{} {} HTTP/1.1\r\n", self.method, self.target);
        let with_length = !self.body.is_empty() || self.method == "POST" || self.method == "PUT";
        encode_after_start_line(out, &self.headers, &self.body, with_length);
    }
}

impl Response {
    /// Convenience 200 with a body.
    pub fn ok(body: &[u8]) -> Response {
        Response {
            status: 200,
            reason: "OK".into(),
            headers: vec![("Content-Type".into(), "text/html".into())],
            body: body.to_vec(),
        }
    }

    /// Convenience status-only response.
    pub fn status(status: u16, reason: &str) -> Response {
        Response {
            status,
            reason: reason.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// First value of a header (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Insert or replace a header.
    pub fn set_header(&mut self, name: &str, value: &str) {
        set_header(&mut self.headers, name, value);
    }

    /// Serialize to wire form (always sets Content-Length).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason);
        encode_after_start_line(out, &self.headers, &self.body, true);
    }
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn set_header(headers: &mut Headers, name: &str, value: &str) {
    if let Some(entry) = headers.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
        entry.1 = value.to_string();
    } else {
        headers.push((name.to_string(), value.to_string()));
    }
}

/// Everything after the start line: header block, blank line, body.
/// `Content-Length` belongs to the encoder: while `length_due`, the
/// body's length is written over the first such header, where it
/// stands, or appended when there is none.
fn encode_after_start_line(
    out: &mut Vec<u8>,
    headers: &[(String, String)],
    body: &[u8],
    mut length_due: bool,
) {
    for (name, value) in headers {
        if length_due && name.eq_ignore_ascii_case("Content-Length") {
            length_due = false;
            let _ = write!(out, "{name}: {}\r\n", body.len());
        } else {
            let _ = write!(out, "{name}: {value}\r\n");
        }
    }
    if length_due {
        let _ = write!(out, "Content-Length: {}\r\n", body.len());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Parse a header block (after the start line, up to the blank line).
fn parse_headers(lines: &str) -> Result<Headers, HttpError> {
    let mut headers = Vec::new();
    for line in lines.split("\r\n") {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(headers)
}

/// The body length the headers declare: 0 without a `Content-Length`,
/// an error for one that is not a decimal number within [`MAX_BODY`].
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let Some(value) = header_lookup(headers, "Content-Length") else {
        return Ok(0);
    };
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed);
    }
    match value.parse() {
        Ok(len) if len <= MAX_BODY => Ok(len),
        // All digits, so a failed parse is a number beyond `usize`.
        _ => Err(HttpError::TooLarge),
    }
}

/// Incremental parser: feed stream bytes, pull complete messages.
/// Framing is the same in both directions; which start line to expect
/// is the caller's choice of [`Parser::next_request`] or
/// [`Parser::next_response`].
#[derive(Default)]
pub struct Parser {
    buf: Vec<u8>,
    /// Where the bytes not yet returned as a message begin.
    cursor: usize,
    /// How many of those bytes hold no blank line (the scan for one
    /// resumes there).
    scanned: usize,
    /// Length of the message at the cursor, once its head has parsed:
    /// a body arriving in many chunks waits without re-parsing it.
    needed: usize,
}

/// Incremental request parser: feed bytes, pull complete requests.
pub type RequestParser = Parser;

/// Incremental response parser.
pub type ResponseParser = Parser;

impl Parser {
    /// Fresh parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append stream bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet parsed.
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.cursor)
    }

    /// Take the bytes buffered but not yet parsed, leaving the parser
    /// as `new()` made it.
    pub fn take_buffered(&mut self) -> Vec<u8> {
        self.compact();
        std::mem::take(self).buf
    }

    /// Drop the bytes before the cursor: once per feed, not once per
    /// message.
    fn compact(&mut self) {
        if self.cursor > 0 {
            let rest = self.buffered();
            self.buf.copy_within(self.cursor.., 0);
            self.buf.truncate(rest);
            self.cursor = 0;
        }
    }

    /// The next complete message as (start line, headers, body), the
    /// start line parsed by `start_line`.
    fn next_message<S>(
        &mut self,
        start_line: impl FnOnce(&str) -> Result<S, HttpError>,
    ) -> Result<Option<(S, Headers, Vec<u8>)>, HttpError> {
        let pending = self.buf.get(self.cursor..).unwrap_or_default();
        if pending.len() < self.needed {
            return Ok(None);
        }
        let window = pending.get(..MAX_HEAD).unwrap_or(pending);
        // A blank line may straddle the end of the last scan.
        let from = self.scanned.saturating_sub(HEAD_END.len() - 1);
        let found = window
            .get(from..)
            .and_then(|tail| tail.windows(HEAD_END.len()).position(|w| w == HEAD_END));
        let Some(head_len) = found.map(|at| from + at) else {
            self.scanned = window.len();
            return if pending.len() < MAX_HEAD { Ok(None) } else { Err(HttpError::TooLarge) };
        };
        let head = pending.get(..head_len).ok_or(HttpError::Malformed)?;
        let head = std::str::from_utf8(head).map_err(|_| HttpError::Malformed)?;
        let (first, header_block) = head.split_once("\r\n").unwrap_or((head, ""));
        let start = start_line(first)?;
        let headers = parse_headers(header_block)?;
        // `head_len` is within `MAX_HEAD`; the peer's number is the
        // term that could overflow.
        let body_at = head_len + HEAD_END.len();
        let total = content_length(&headers)?.checked_add(body_at).ok_or(HttpError::TooLarge)?;
        let Some(body) = pending.get(body_at..total) else {
            self.needed = total;
            return Ok(None);
        };
        let body = body.to_vec();
        self.cursor += total;
        self.scanned = 0;
        self.needed = 0;
        Ok(Some((start, headers, body)))
    }

    /// Pull the next complete request, if any.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let message = self.next_message(|line| {
            let mut parts = line.split(' ');
            let method = parts.next().ok_or(HttpError::Malformed)?;
            let target = parts.next().ok_or(HttpError::Malformed)?;
            let version = parts.next().ok_or(HttpError::Malformed)?;
            if !version.starts_with("HTTP/1.") || method.is_empty() {
                return Err(HttpError::Malformed);
            }
            Ok((method.to_string(), target.to_string()))
        })?;
        Ok(message.map(|((method, target), headers, body)| Request {
            method,
            target,
            headers,
            body,
        }))
    }

    /// Pull the next complete response, if any.
    pub fn next_response(&mut self) -> Result<Option<Response>, HttpError> {
        let message = self.next_message(|line| {
            let mut parts = line.splitn(3, ' ');
            let version = parts.next().ok_or(HttpError::Malformed)?;
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::Malformed);
            }
            let status: u16 = parts
                .next()
                .ok_or(HttpError::Malformed)?
                .parse()
                .map_err(|_| HttpError::Malformed)?;
            Ok((status, parts.next().unwrap_or("").to_string()))
        })?;
        Ok(message.map(|((status, reason), headers, body)| Response {
            status,
            reason,
            headers,
            body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = Request::get("/index.html", "example.com");
        req.set_header("User-Agent", "mbtls-test");
        let wire = req.encode();
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        let parsed = parser.next_request().unwrap().unwrap();
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.target, "/index.html");
        assert_eq!(parsed.header("host"), Some("example.com"));
        assert_eq!(parsed.header("USER-AGENT"), Some("mbtls-test"));
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn request_with_body() {
        let req = Request {
            method: "POST".into(),
            target: "/submit".into(),
            headers: vec![("Host".into(), "x".into())],
            body: b"name=value&x=1".to_vec(),
        };
        let wire = req.encode();
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        let parsed = parser.next_request().unwrap().unwrap();
        assert_eq!(parsed.body, b"name=value&x=1");
        assert_eq!(parsed.header("content-length"), Some("14"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(b"<html>hi</html>");
        let wire = resp.encode();
        let mut parser = ResponseParser::new();
        parser.feed(&wire);
        let parsed = parser.next_response().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.reason, "OK");
        assert_eq!(parsed.body, b"<html>hi</html>");
    }

    #[test]
    fn incremental_parsing_across_chunks() {
        let resp = Response::ok(&vec![7u8; 1000]);
        let wire = resp.encode();
        let mut parser = ResponseParser::new();
        for chunk in wire.chunks(13) {
            parser.feed(chunk);
        }
        let parsed = parser.next_response().unwrap().unwrap();
        assert_eq!(parsed.body.len(), 1000);
        assert!(parser.next_response().unwrap().is_none());
    }

    #[test]
    fn pipelined_requests() {
        let mut parser = RequestParser::new();
        parser.feed(&Request::get("/a", "h").encode());
        parser.feed(&Request::get("/b", "h").encode());
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/a");
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/b");
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn malformed_rejected() {
        let mut parser = RequestParser::new();
        parser.feed(b"NOT_A_REQUEST\r\n\r\n");
        assert_eq!(parser.next_request(), Err(HttpError::Malformed));

        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n");
        assert_eq!(parser.next_request(), Err(HttpError::Malformed));

        let mut parser = ResponseParser::new();
        parser.feed(b"HTTP/1.1 abc OK\r\n\r\n");
        assert_eq!(parser.next_response(), Err(HttpError::Malformed));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_HEAD + 10];
        parser.feed(&filler);
        assert_eq!(parser.next_request(), Err(HttpError::TooLarge));
    }

    #[test]
    fn hostile_content_length_is_an_error_not_a_panic() {
        let max = usize::MAX;
        for (value, expected) in [
            (max.to_string(), HttpError::TooLarge),
            ((max - 3).to_string(), HttpError::TooLarge),
            ((MAX_BODY + 1).to_string(), HttpError::TooLarge),
            ("99999999999999999999999999".to_string(), HttpError::TooLarge),
            ("abc".to_string(), HttpError::Malformed),
            ("-1".to_string(), HttpError::Malformed),
            ("+1".to_string(), HttpError::Malformed),
            ("1 1".to_string(), HttpError::Malformed),
            (String::new(), HttpError::Malformed),
        ] {
            let head = format!("Content-Length: {value}\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n");
            let mut requests = RequestParser::new();
            requests.feed(format!("POST /x HTTP/1.1\r\n{head}").as_bytes());
            assert_eq!(requests.next_request(), Err(expected), "request, {value:?}");
            let mut responses = ResponseParser::new();
            responses.feed(format!("HTTP/1.1 200 OK\r\n{head}").as_bytes());
            assert_eq!(responses.next_response(), Err(expected), "response, {value:?}");
        }
    }

    #[test]
    fn largest_body_is_accepted_and_awaited() {
        let mut parser = ResponseParser::new();
        parser.feed(format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_BODY}\r\n\r\n").as_bytes());
        assert_eq!(parser.next_response(), Ok(None));
    }

    #[test]
    fn head_bound_does_not_depend_on_chunking() {
        // The blank line ends exactly at the bound: accepted whole or
        // byte by byte. One byte later: refused either way.
        for (pad, expected) in [(0, true), (1, false)] {
            let start = "GET / HTTP/1.1\r\nX-Pad: ";
            let filler = "a".repeat(MAX_HEAD - start.len() - HEAD_END.len() + pad);
            let wire = format!("{start}{filler}\r\n\r\n").into_bytes();
            for chunk in [wire.len(), 1, 4093] {
                let mut parser = RequestParser::new();
                let mut verdict = Ok(None);
                for piece in wire.chunks(chunk) {
                    parser.feed(piece);
                    verdict = parser.next_request();
                    if verdict != Ok(None) {
                        break;
                    }
                }
                match verdict {
                    Ok(Some(_)) => assert!(expected, "pad {pad}, chunk {chunk}"),
                    other => {
                        assert!(!expected, "pad {pad}, chunk {chunk}: {other:?}");
                        assert_eq!(other, Err(HttpError::TooLarge));
                    }
                }
            }
        }
    }

    #[test]
    fn take_buffered_returns_the_unparsed_bytes_and_resets() {
        let mut parser = RequestParser::new();
        let mut wire = Request::get("/a", "h").encode();
        wire.extend_from_slice(b"GET /b HTTP/1.1\r\nHo");
        parser.feed(&wire);
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/a");
        assert_eq!(parser.next_request(), Ok(None));
        assert_eq!(parser.buffered(), 19);
        assert_eq!(parser.take_buffered(), b"GET /b HTTP/1.1\r\nHo");
        assert_eq!(parser.buffered(), 0);
        parser.feed(&Request::get("/c", "h").encode());
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/c");
    }

    #[test]
    fn encode_into_appends_what_encode_returns() {
        let mut req = Request::get("/x", "h");
        req.body = b"payload".to_vec();
        let resp = Response::ok(b"body");
        let mut out = b"prefix".to_vec();
        req.encode_into(&mut out);
        resp.encode_into(&mut out);
        assert_eq!(out, [b"prefix".as_slice(), &req.encode(), &resp.encode()].concat());
    }

    #[test]
    fn header_replacement() {
        let mut resp = Response::ok(b"x");
        resp.set_header("Content-Type", "application/json");
        assert_eq!(resp.header("content-type"), Some("application/json"));
        // Only one entry remains.
        let n = resp
            .headers
            .iter()
            .filter(|(k, _)| k.eq_ignore_ascii_case("content-type"))
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn status_response() {
        let wire = Response::status(404, "Not Found").encode();
        let mut parser = ResponseParser::new();
        parser.feed(&wire);
        let parsed = parser.next_response().unwrap().unwrap();
        assert_eq!(parsed.status, 404);
        assert_eq!(parsed.reason, "Not Found");
    }
}
