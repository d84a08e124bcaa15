//! HTTP/1.1 messages, one incremental parser and one encoder.
//!
//! Scope: what middlebox applications need — request/response lines,
//! headers, Content-Length bodies. Chunked transfer encoding and
//! HTTP/2 are out of scope (the paper's prototype proxy speaks plain
//! HTTP/1.1).
//!
//! The parser reads each message once, in place: [`Parser::next_view`]
//! returns a [`View`] whose start line, header fields and body are
//! slices of the parser's buffer, and `next_request` / `next_response`
//! build the owned [`Request`] / [`Response`] from that view. Framing
//! — finding the end of the head, the header block, the body length
//! and its bounds, the cursor over the receive buffer — is written
//! once, in [`Parser::next_view`].
//!
//! The encoder is one header-block writer (`write_fields`) under both
//! the owned messages' `encode_into` and [`View::encode_into`], which
//! writes a view with [`HeaderEdits`] and a body of the caller's: a
//! middlebox rewrites a message without owning a copy of it. The two
//! paths emit the same bytes for the same message and the same edits.
//!
//! The bytes parsed here come from the peer: nothing in this file
//! indexes a buffer or adds lengths unchecked.

// A wire file (DESIGN.md §6d): its buffers hold a peer's bytes, and no
// slice here is indexed.
#![forbid(clippy::indexing_slicing)]

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
        f.write_str(match self {
            HttpError::Malformed => "malformed HTTP message",
            HttpError::TooLarge => "HTTP head or body too large",
        })
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

/// The longest `Content-Length` line the encoder writes.
const MAX_LENGTH_LINE: usize = "Content-Length: ".len() + 20 + "\r\n".len();

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
        let line = self.method.len() + 1 + self.target.len() + " HTTP/1.1\r\n".len();
        out.reserve(encoded_len_bound(line, &self.headers, self.body.len()));
        write_request_line(out, &self.method, &self.target);
        let length_due = request_length_due(&self.method, self.body.len());
        write_fields(out, owned_fields(&self.headers), length_due, self.body.len());
        out.extend_from_slice(&self.body);
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
        let line = "HTTP/1.1 65535 \r\n".len() + self.reason.len();
        out.reserve(encoded_len_bound(line, &self.headers, self.body.len()));
        write_status_line(out, self.status, &self.reason);
        write_fields(out, owned_fields(&self.headers), true, self.body.len());
        out.extend_from_slice(&self.body);
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

fn owned_fields(headers: &[(String, String)]) -> impl Iterator<Item = (&str, &str)> {
    headers.iter().map(|(n, v)| (n.as_str(), v.as_str()))
}

/// The most bytes an owned message encodes to, so `encode_into`
/// allocates once.
fn encoded_len_bound(start_line: usize, headers: &[(String, String)], body: usize) -> usize {
    let fields: usize = headers.iter().map(|(n, v)| n.len() + v.len() + ": \r\n".len()).sum();
    start_line + fields + MAX_LENGTH_LINE + "\r\n".len() + body
}

fn write_request_line(out: &mut Vec<u8>, method: &str, target: &str) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
}

fn write_status_line(out: &mut Vec<u8>, status: u16, reason: &str) {
    out.extend_from_slice(b"HTTP/1.1 ");
    write_decimal(out, status.into());
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Does a request carry `Content-Length`? When it has a body, or when
/// its method is one that sends one.
fn request_length_due(method: &str, body_len: usize) -> bool {
    body_len > 0 || method == "POST" || method == "PUT"
}

/// Everything after the start line but the body: the header block and
/// the blank line. `Content-Length` belongs to the encoder: while
/// `length_due`, `content_length` is written over the first such
/// header, where it stands, or appended when there is none.
fn write_fields<'h>(
    out: &mut Vec<u8>,
    fields: impl Iterator<Item = (&'h str, &'h str)>,
    mut length_due: bool,
    content_length: usize,
) {
    for (name, value) in fields {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        if length_due && name.eq_ignore_ascii_case("Content-Length") {
            length_due = false;
            write_decimal(out, content_length);
        } else {
            out.extend_from_slice(value.as_bytes());
        }
        out.extend_from_slice(b"\r\n");
    }
    if length_due {
        out.extend_from_slice(b"Content-Length: ");
        write_decimal(out, content_length);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Append `n` in decimal.
fn write_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut len = 0;
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(digits.len() - len..).unwrap_or_default());
}

/// Where a piece of a head sits in it.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// The span of `piece`, which starts `at` bytes into the head.
    fn at(at: usize, piece: &str) -> Span {
        Span {
            start: at,
            end: at + piece.len(),
        }
    }

    fn of(self, head: &str) -> &str {
        head.get(self.start..self.end).unwrap_or_default()
    }
}

/// One header field: where its name and its trimmed value sit.
#[derive(Clone, Copy, Debug)]
struct Field {
    name: Span,
    value: Span,
}

fn field_lookup<'h>(head: &'h str, fields: &[Field], name: &str) -> Option<&'h str> {
    fields
        .iter()
        .find(|f| f.name.of(head).eq_ignore_ascii_case(name))
        .map(|f| f.value.of(head))
}

/// Read a header block — the lines after the start line, up to the
/// blank line, starting `at` bytes into the head — into `fields`.
fn parse_fields(block: &str, mut at: usize, fields: &mut Vec<Field>) -> Result<(), HttpError> {
    fields.clear();
    let mut rest = Some(block);
    while let Some(text) = rest {
        let (line, next) = match split_crlf(text) {
            Some((line, next)) => (line, Some(next)),
            None => (text, None),
        };
        rest = next;
        if !line.is_empty() {
            let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed);
            }
            // Within the head, which is at most `MAX_HEAD` bytes.
            let value_at = at + name.len() + 1 + (value.len() - value.trim_start().len());
            fields.push(Field {
                name: Span::at(at, name),
                value: Span::at(value_at, value.trim()),
            });
        }
        at += line.len() + "\r\n".len();
    }
    Ok(())
}

/// Where the first blank line in `bytes` starts. A Horspool scan: in
/// text without CR or LF it reads one byte in four.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    let mut at = 0;
    while let Some(&[a, b, c, d]) = bytes.get(at..at + HEAD_END.len()) {
        at += match d {
            b'\n' if [a, b, c] == *b"\r\n\r" => return Some(at),
            // Shift the window to the needle's last CR or LF before
            // its end, or past it.
            b'\n' => 2,
            b'\r' => 1,
            _ => 4,
        };
    }
    None
}

/// `text` split around its first CRLF. (A lone CR or LF is part of
/// a line, as it is to `str::split("\r\n")`.)
fn split_crlf(text: &str) -> Option<(&str, &str)> {
    let at = text.as_bytes().windows(2).position(|w| matches!(w, b"\r\n"))?;
    Some((text.get(..at)?, text.get(at + "\r\n".len()..)?))
}

/// The body length a `Content-Length` value declares (0 without one),
/// an error for one that is not a decimal number within [`MAX_BODY`].
fn content_length(value: Option<&str>) -> Result<usize, HttpError> {
    let Some(value) = value else {
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

/// A start line as the parser reads it and the encoder writes it:
/// [`RequestLine`] or [`ResponseLine`]. Its pieces are spans of the
/// head it was read from.
pub trait StartLine: Copy {
    /// Read the head's first line.
    fn parse(line: &str) -> Result<Self, HttpError>;

    /// Write the start line the encoder emits for this one, read from
    /// `head`, and say whether `Content-Length` is due with a body of
    /// `body_len` bytes.
    fn write(&self, head: &str, body_len: usize, out: &mut Vec<u8>) -> bool;
}

/// A request's start line: where its method and target sit.
#[derive(Clone, Copy, Debug)]
pub struct RequestLine {
    method: Span,
    target: Span,
}

impl StartLine for RequestLine {
    fn parse(line: &str) -> Result<Self, HttpError> {
        let (method, rest) = line.split_once(' ').ok_or(HttpError::Malformed)?;
        let (target, version) = rest.split_once(' ').ok_or(HttpError::Malformed)?;
        if !version.starts_with("HTTP/1.") || method.is_empty() {
            return Err(HttpError::Malformed);
        }
        Ok(RequestLine {
            method: Span::at(0, method),
            target: Span::at(method.len() + 1, target),
        })
    }

    fn write(&self, head: &str, body_len: usize, out: &mut Vec<u8>) -> bool {
        let method = self.method.of(head);
        write_request_line(out, method, self.target.of(head));
        request_length_due(method, body_len)
    }
}

/// A response's start line: its status, and where its reason sits.
#[derive(Clone, Copy, Debug)]
pub struct ResponseLine {
    status: u16,
    reason: Span,
}

impl StartLine for ResponseLine {
    fn parse(line: &str) -> Result<Self, HttpError> {
        let (version, rest) = line.split_once(' ').ok_or(HttpError::Malformed)?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed);
        }
        let (status, reason) = match rest.split_once(' ') {
            Some((status, reason)) => (status, Span::at(line.len() - reason.len(), reason)),
            None => (rest, Span::default()),
        };
        let status = status.parse().map_err(|_| HttpError::Malformed)?;
        Ok(ResponseLine { status, reason })
    }

    fn write(&self, head: &str, _body_len: usize, out: &mut Vec<u8>) -> bool {
        write_status_line(out, self.status, self.reason.of(head));
        true
    }
}

/// A message parsed in place: its start line, header fields and body
/// are slices of the [`Parser`]'s buffer, valid until the parser is
/// next fed or asked for a message.
#[derive(Clone, Copy, Debug)]
pub struct View<'a, L> {
    line: L,
    /// The start line and the header block, without the blank line.
    head: &'a str,
    fields: &'a [Field],
    body: &'a [u8],
}

impl<'a, L> View<'a, L> {
    /// Header fields in wire order, values trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let head = self.head;
        self.fields.iter().map(move |f| (f.name.of(head), f.value.of(head)))
    }

    /// First value of a header (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        field_lookup(self.head, self.fields, name)
    }

    /// Body bytes.
    pub fn body(&self) -> &'a [u8] {
        self.body
    }

    /// The header fields `keep` takes, owned, with room for one more:
    /// a holder of an owned copy often marks it (the cache's
    /// `X-Cache`), and a full `Vec` would double to take it.
    fn owned_headers(&self, keep: impl Fn(&str) -> bool) -> Headers {
        let mut headers = Vec::with_capacity(self.fields.len() + 1);
        let kept = self.headers().filter(|(name, _)| keep(name));
        headers.extend(kept.map(|(n, v)| (n.to_string(), v.to_string())));
        headers
    }
}

impl<L: StartLine> View<'_, L> {
    /// Append the wire form of this message after `edits`, with `body`
    /// in place of its own: the bytes the owned message encodes to
    /// after the same `set_header` calls and the same body.
    pub fn encode_into(&self, edits: &HeaderEdits, body: &[u8], out: &mut Vec<u8>) {
        let head = self.head.len() + self.fields.len() + edits.added_len();
        out.reserve(head + MAX_LENGTH_LINE + HEAD_END.len() + body.len());
        let length_due = self.line.write(self.head, body.len(), out);
        let earlier = |i, name: &str| self.headers().take(i).any(|(n, _)| n.eq_ignore_ascii_case(name));
        let fields = self.headers().enumerate().map(|(i, (name, value))| match edits.get(name) {
            // An edit lands on the first field of its name.
            Some(new) if !earlier(i, name) => (name, new),
            _ => (name, value),
        });
        let added = edits.iter().filter(|(name, _)| self.header(name).is_none());
        write_fields(out, fields.chain(added), length_due, body.len());
        out.extend_from_slice(body);
    }
}

impl<'a> View<'a, RequestLine> {
    /// Method (GET, POST, ...).
    pub fn method(&self) -> &'a str {
        self.line.method.of(self.head)
    }

    /// Request target (path).
    pub fn target(&self) -> &'a str {
        self.line.target.of(self.head)
    }

    /// The owned request.
    pub fn to_request(&self) -> Request {
        Request {
            method: self.method().to_string(),
            target: self.target().to_string(),
            headers: self.owned_headers(|_| true),
            body: self.body.to_vec(),
        }
    }
}

impl<'a> View<'a, ResponseLine> {
    /// Status code.
    pub fn status(&self) -> u16 {
        self.line.status
    }

    /// Reason phrase.
    pub fn reason(&self) -> &'a str {
        self.line.reason.of(self.head)
    }

    /// The owned response, with `body` for its body and without the
    /// headers `keep` refuses.
    pub fn to_response_with(&self, body: Vec<u8>, keep: impl Fn(&str) -> bool) -> Response {
        Response {
            status: self.status(),
            reason: self.reason().to_string(),
            headers: self.owned_headers(keep),
            body,
        }
    }

    /// The owned response.
    pub fn to_response(&self) -> Response {
        self.to_response_with(self.body.to_vec(), |_| true)
    }
}

/// Header edits for [`View::encode_into`]: each [`HeaderEdits::set`]
/// does to the encoded view what `set_header` does to the owned
/// message. Names and values are copied into one buffer, which
/// [`HeaderEdits::clear`] keeps for the next message.
#[derive(Debug, Default)]
pub struct HeaderEdits {
    text: String,
    /// Each edit's name and value, as spans of `text`.
    edits: Vec<Field>,
}

impl HeaderEdits {
    /// Insert or replace a header.
    pub fn set(&mut self, name: &str, value: &str) {
        let value_at = self.text.len();
        self.text.push_str(value);
        let value = Span::at(value_at, value);
        match self.edits.iter_mut().find(|e| e.name.of(&self.text).eq_ignore_ascii_case(name)) {
            Some(edit) => edit.value = value,
            None => {
                let name_at = self.text.len();
                self.text.push_str(name);
                self.edits.push(Field {
                    name: Span::at(name_at, name),
                    value,
                });
            }
        }
    }

    /// The value set for a header (case-insensitive name).
    fn get(&self, name: &str) -> Option<&str> {
        field_lookup(&self.text, &self.edits, name)
    }

    /// The edits, each header once, in the order first set.
    fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.edits.iter().map(|e| (e.name.of(&self.text), e.value.of(&self.text)))
    }

    /// Forget every edit.
    pub fn clear(&mut self) {
        self.text.clear();
        self.edits.clear();
    }

    /// The most bytes the edits add to a head.
    fn added_len(&self) -> usize {
        self.text.len() + self.edits.len() * ": \r\n".len()
    }
}

/// Incremental parser: feed stream bytes, pull complete messages.
/// Framing is the same in both directions; which start line to expect
/// is the caller's choice of [`Parser::next_request`],
/// [`Parser::next_response`] or the [`StartLine`] of
/// [`Parser::next_view`].
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
    /// The header fields of the last message read, kept from message
    /// to message.
    fields: Vec<Field>,
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

    /// Append stream bytes the caller no longer needs: when nothing is
    /// buffered, `data` becomes the buffer instead of being copied.
    pub fn feed_owned(&mut self, data: Vec<u8>) {
        if self.buffered() == 0 {
            self.buf = data;
            self.cursor = 0;
        } else {
            self.feed(&data);
        }
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

    /// The next complete message, read in place.
    pub fn next_view<L: StartLine>(&mut self) -> Result<Option<View<'_, L>>, HttpError> {
        let pending = self.buf.get(self.cursor..).unwrap_or_default();
        if pending.len() < self.needed {
            return Ok(None);
        }
        let window = pending.get(..MAX_HEAD).unwrap_or(pending);
        // A blank line may straddle the end of the last scan.
        let from = self.scanned.saturating_sub(HEAD_END.len() - 1);
        let found = window.get(from..).and_then(find_head_end);
        let Some(head_len) = found.map(|at| from + at) else {
            self.scanned = window.len();
            return if pending.len() < MAX_HEAD { Ok(None) } else { Err(HttpError::TooLarge) };
        };
        let head = pending.get(..head_len).ok_or(HttpError::Malformed)?;
        let head = std::str::from_utf8(head).map_err(|_| HttpError::Malformed)?;
        let (first, block) = split_crlf(head).unwrap_or((head, ""));
        let line = L::parse(first)?;
        parse_fields(block, head.len() - block.len(), &mut self.fields)?;
        // `head_len` is within `MAX_HEAD`; the peer's number is the
        // term that could overflow.
        let body_at = head_len + HEAD_END.len();
        let declared = content_length(field_lookup(head, &self.fields, "Content-Length"))?;
        let total = declared.checked_add(body_at).ok_or(HttpError::TooLarge)?;
        let Some(body) = pending.get(body_at..total) else {
            self.needed = total;
            return Ok(None);
        };
        self.cursor += total;
        self.scanned = 0;
        self.needed = 0;
        Ok(Some(View {
            line,
            head,
            fields: &self.fields,
            body,
        }))
    }

    /// Pull the next complete request, if any.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        Ok(self.next_view::<RequestLine>()?.map(|view| view.to_request()))
    }

    /// Pull the next complete response, if any.
    pub fn next_response(&mut self) -> Result<Option<Response>, HttpError> {
        Ok(self.next_view::<ResponseLine>()?.map(|view| view.to_response()))
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
