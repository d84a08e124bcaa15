//! The rewrite loop's borrowed path emits what the owned path emits.
//!
//! Messages in forms the encoder does not write itself — `HTTP/1.0`,
//! values padded with spaces or tabs, no space after the colon,
//! lowercase, zero-padded or duplicate `Content-Length`, empty or
//! many-word reasons, extra words after a request's version, bodies
//! holding a blank line — go through `HttpStream::rewrite` under one
//! policy (identity, `set_header`, `set_body` or `replace`), whole or
//! in 1-, 7- and 4096-byte chunks. What comes out must be what
//! `next_request` / `next_response`, the same edit on the owned
//! message and `encode_into` make of the same bytes.

use mbtls_http::message::{Parser, Request, Response, StartLine};
use mbtls_mboxes::rewrite::{HttpStream, Kind, REQUESTS, RESPONSES};
use proptest::prelude::*;

const CHUNKINGS: [usize; 3] = [1, 7, 4096];

/// Draws choices from a fixed run of random words.
struct Picks {
    words: Vec<u32>,
    at: usize,
}

impl Picks {
    fn below(&mut self, n: usize) -> usize {
        let word = self
            .words
            .get(self.at % self.words.len())
            .copied()
            .unwrap_or(0);
        self.at += 1;
        word as usize % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let len = self.below(max + 1);
        (0..len)
            .map(|_| self.pick(b"ab<>\r\n\r\n \x00\xff"))
            .collect()
    }
}

/// One header block, a blank line and a body, in a form a peer may
/// send: the body's length is declared by the first `Content-Length`.
fn rest_of_message(p: &mut Picks) -> Vec<u8> {
    let mut body = p.bytes(40);
    if p.below(4) == 0 {
        body.extend_from_slice(b"\r\n\r\nGET / HTTP/1.1\r\n\r\n");
    }
    let length_name = p.pick(&[
        None,
        Some("Content-Length"),
        Some("content-length"),
        Some("CONTENT-length"),
    ]);
    if length_name.is_none() {
        body.clear();
    }
    let mut head = String::new();
    let fields = p.below(5);
    let length_at = p.below(fields + 1);
    for i in 0..=fields {
        if i == length_at {
            if let Some(name) = length_name {
                let zeros = "0".repeat(p.below(3));
                head.push_str(&format!(
                    "{name}:{}{zeros}{}\r\n",
                    p.pick(&["", " ", "  "]),
                    body.len()
                ));
            }
        }
        if i == fields {
            break;
        }
        let name = p.pick(&[
            "Host",
            "host",
            "X-Trace",
            "x-trace",
            "Accept",
            "Via",
            "content-length",
        ]);
        let value = if name == "content-length" {
            // A second one, after the first, which framing reads.
            if length_name.is_none() || i < length_at {
                continue;
            }
            "999".to_string()
        } else {
            p.pick(&["", "v", "a, b", "text/html; q=1", "x  y"])
                .to_string()
        };
        let (before, after) = (p.pick(&["", " ", "   ", "\t"]), p.pick(&["", " ", " \t"]));
        head.push_str(&format!("{name}:{before}{value}{after}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&body);
    out
}

fn request(p: &mut Picks) -> Vec<u8> {
    let method = p.pick(&["GET", "POST", "PUT", "HEAD", "DELETE", "OPTIONS", "PATCH"]);
    let target = p.pick(&["/", "/a/b.html", "*", "/q?x=1&y=2"]);
    let version = p.pick(&["HTTP/1.1", "HTTP/1.0", "HTTP/1.1 trailing words"]);
    let mut out = format!("{method} {target} {version}\r\n").into_bytes();
    out.extend(rest_of_message(p));
    out
}

fn response(p: &mut Picks) -> Vec<u8> {
    let status = p.pick(&["200", "204", "404", "500"]);
    let version = p.pick(&["HTTP/1.1", "HTTP/1.0"]);
    let line = match p.below(4) {
        0 => format!("{version} {status}"),
        1 => format!("{version} {status} "),
        2 => format!("{version} {status} OK"),
        _ => format!("{version} {status} Not  Found  at all"),
    };
    let mut out = format!("{line}\r\n").into_bytes();
    out.extend(rest_of_message(p));
    out
}

/// The edit a policy makes to every message.
#[derive(Debug)]
enum Edit {
    Identity,
    SetHeader(&'static str, &'static str),
    SetBody(Vec<u8>),
    Replace,
}

fn edit(p: &mut Picks) -> Edit {
    match p.below(4) {
        0 => Edit::Identity,
        1 => Edit::SetHeader(
            p.pick(&["X-New", "host", "HOST", "Via", "Content-Length", "x-trace"]),
            p.pick(&["", "1", "mbtls-proxy/1.0", "12"]),
        ),
        2 => Edit::SetBody(p.bytes(30)),
        _ => Edit::Replace,
    }
}

/// What the owned path does: an owned message and its edits.
trait Owned: Sized {
    fn next(parser: &mut Parser) -> Option<Self>;
    fn set_header(&mut self, name: &str, value: &str);
    fn set_body(&mut self, body: Vec<u8>);
    fn encode_into(&self, out: &mut Vec<u8>);
    fn replacement() -> Self;
}

impl Owned for Request {
    fn next(parser: &mut Parser) -> Option<Self> {
        parser.next_request().expect("generated requests parse")
    }
    fn set_header(&mut self, name: &str, value: &str) {
        Request::set_header(self, name, value);
    }
    fn set_body(&mut self, body: Vec<u8>) {
        self.body = body;
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        Request::encode_into(self, out);
    }
    fn replacement() -> Self {
        let mut page = Request::get("/blocked", "filter.local");
        page.set_header("X-Filtered-By", "parental-filter");
        page
    }
}

impl Owned for Response {
    fn next(parser: &mut Parser) -> Option<Self> {
        parser.next_response().expect("generated responses parse")
    }
    fn set_header(&mut self, name: &str, value: &str) {
        Response::set_header(self, name, value);
    }
    fn set_body(&mut self, body: Vec<u8>) {
        self.body = body;
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        Response::encode_into(self, out);
    }
    fn replacement() -> Self {
        Response::ok(b"<p>replaced</p>")
    }
}

fn owned_path<M: Owned>(wire: &[u8], edit: &Edit) -> Vec<u8> {
    let mut parser = Parser::new();
    parser.feed(wire);
    let mut out = Vec::new();
    while let Some(mut message) = M::next(&mut parser) {
        match edit {
            Edit::Identity => {}
            Edit::SetHeader(name, value) => message.set_header(name, value),
            Edit::SetBody(body) => message.set_body(body.clone()),
            Edit::Replace => message = M::replacement(),
        }
        message.encode_into(&mut out);
    }
    assert_eq!(
        parser.buffered(),
        0,
        "the generated stream is whole messages"
    );
    out
}

fn view_path<L: StartLine, M: Owned>(
    kind: &Kind<L, M>,
    wire: &[u8],
    edit: &Edit,
    chunk: usize,
) -> Vec<u8> {
    let mut stream = HttpStream::default();
    let mut out = Vec::new();
    for piece in wire.chunks(chunk) {
        out.extend(match edit {
            Edit::Identity => stream.rewrite(kind, piece.to_vec(), |_| {}),
            Edit::SetHeader(name, value) => {
                stream.rewrite(kind, piece.to_vec(), |m| m.set_header(name, value))
            }
            // Borrowed from the policy's state, as the compression
            // proxy's memo hits are.
            Edit::SetBody(body) => {
                let mut body = body.clone();
                stream.rewrite_with(kind, piece.to_vec(), &mut body, |body, m| {
                    m.set_body(body.as_slice())
                })
            }
            Edit::Replace => stream.rewrite(kind, piece.to_vec(), |m| m.replace(M::replacement())),
        });
    }
    out
}

fn check<L: StartLine, M: Owned>(kind: &Kind<L, M>, wire: &[u8], edit: &Edit) {
    let expected = owned_path::<M>(wire, edit);
    for chunk in CHUNKINGS.into_iter().chain([wire.len()]) {
        let got = view_path(kind, wire, edit, chunk);
        assert!(
            got == expected,
            "{edit:?}, chunk {chunk}, input {:?}\nview:  {:?}\nowned: {:?}",
            String::from_utf8_lossy(wire),
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_rewrite_from_the_view_as_from_the_owned_message(words in prop::collection::vec(any::<u32>(), 64)) {
        let mut p = Picks { words, at: 0 };
        let wire: Vec<u8> = (0..=p.below(3)).flat_map(|_| request(&mut p)).collect();
        let edit = edit(&mut p);
        check(&REQUESTS, &wire, &edit);
    }

    #[test]
    fn responses_rewrite_from_the_view_as_from_the_owned_message(words in prop::collection::vec(any::<u32>(), 64)) {
        let mut p = Picks { words, at: 0 };
        let wire: Vec<u8> = (0..=p.below(3)).flat_map(|_| response(&mut p)).collect();
        let edit = edit(&mut p);
        check(&RESPONSES, &wire, &edit);
    }
}
