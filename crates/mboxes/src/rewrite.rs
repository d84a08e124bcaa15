//! The one loop under every HTTP processor: sniff the direction's
//! first bytes, feed the chunk to the parser, hand each completed
//! message to the processor's policy, encode it straight into the
//! output.
//!
//! A message is parsed once, in place: the policy reads a [`View`]
//! over the parser's buffer and records edits on a [`Message`] —
//! `set_header`, `set_body`, or `replace` for a whole new message —
//! and the loop writes the view with those edits into the output. No
//! owned message is built on the way through; a policy that keeps one
//! (the cache's stored response) builds it from the view. A new HTTP
//! processor is a policy over [`HttpStream::rewrite`], never another
//! feed/parse/encode loop.
//!
//! The loop owns the three things a middlebox on a byte stream must
//! get right, so a processor is only its policy:
//!
//! * **Not HTTP** — the verdict of the first non-empty chunk. The
//!   caller's `Vec` goes back untouched, never copied or buffered.
//! * **Partial message** — held in the parser until the rest arrives.
//! * **Parse error** — the bytes not yet forwarded are emitted once,
//!   in order, behind the messages the chunk completed; the parser is
//!   left empty and the direction is pass-through from then on. (With
//!   framing lost there is no later message to resynchronise on, and
//!   failing the session would decide for the endpoint that bytes it
//!   may well accept are fatal — DESIGN.md §6m.)

use std::borrow::Cow;
use std::ops::Deref;

use mbtls_http::message::{
    looks_like_http_request, looks_like_http_response, HeaderEdits, Request, RequestLine, Response,
    ResponseLine, StartLine, View,
};
use mbtls_http::Parser;

use crate::sniff::Sniffer;

/// What differs between the two directions: what the first bytes
/// must look like, which start line the parser expects (`L`), and how
/// a message a policy replaced (`M`) goes on the wire.
pub struct Kind<L, M> {
    looks_like: fn(&[u8]) -> bool,
    start: std::marker::PhantomData<L>,
    encode_into: fn(&M, &mut Vec<u8>),
}

/// The client→server direction.
pub const REQUESTS: Kind<RequestLine, Request> = Kind {
    looks_like: looks_like_http_request,
    start: std::marker::PhantomData,
    encode_into: Request::encode_into,
};

/// The server→client direction.
pub const RESPONSES: Kind<ResponseLine, Response> = Kind {
    looks_like: looks_like_http_response,
    start: std::marker::PhantomData,
    encode_into: Response::encode_into,
};

/// One message as a policy sees it. Reads go to the message as parsed
/// (the [`View`] it derefs to); `set_header`, `set_body` and `replace`
/// record edits, and the loop encodes the view with them into the
/// output once the policy returns.
pub struct Message<'a, L, M> {
    view: View<'a, L>,
    headers: &'a mut HeaderEdits,
    body: Option<Cow<'a, [u8]>>,
    replacement: Option<M>,
}

impl<'a, L, M> Deref for Message<'a, L, M> {
    type Target = View<'a, L>;

    fn deref(&self) -> &View<'a, L> {
        &self.view
    }
}

impl<'a, L: StartLine, M> Message<'a, L, M> {
    /// Insert or replace a header, as the owned message's
    /// `set_header` would.
    pub fn set_header(&mut self, name: &str, value: &str) {
        self.headers.set(name, value);
    }

    /// Send `body` in place of the parsed one; `Content-Length`
    /// follows it. A borrowed body is copied once, into the output.
    pub fn set_body(&mut self, body: impl Into<Cow<'a, [u8]>>) {
        self.body = Some(body.into());
    }

    /// Send `message` in place of this one. Edits made before or after
    /// do not apply to it.
    pub fn replace(&mut self, message: M) {
        self.replacement = Some(message);
    }

    fn encode_into(&self, kind: &Kind<L, M>, out: &mut Vec<u8>) {
        match &self.replacement {
            Some(message) => (kind.encode_into)(message, out),
            None => {
                let body = self.body.as_deref().unwrap_or(self.view.body());
                self.view.encode_into(self.headers, body, out);
            }
        }
    }
}

/// One direction of one session's byte stream, as a middlebox that
/// speaks HTTP sees it.
#[derive(Default)]
pub struct HttpStream {
    parser: Parser,
    sniff: Sniffer,
    /// The edits of the message being rewritten, kept from message to
    /// message so that recording one allocates nothing.
    edits: HeaderEdits,
}

impl HttpStream {
    /// Feed one chunk and hand `each` every message it completes, read
    /// in place. `None`: the direction is not parsed, forward the
    /// chunk itself. `Some(rest)`: forward `rest` behind whatever
    /// `each` produced — empty unless parsing just failed.
    pub fn messages<L: StartLine, M>(
        &mut self,
        kind: &Kind<L, M>,
        data: &[u8],
        mut each: impl FnMut(View<'_, L>),
    ) -> Option<Vec<u8>> {
        if !self.sniff.is_http(data, kind.looks_like) {
            return None;
        }
        self.parser.feed(data);
        Some(self.drain(|view, _| each(view)))
    }

    /// Feed one chunk and return what to forward in its place: every
    /// message it completes, as `policy` edited it.
    pub fn rewrite<L: StartLine, M>(
        &mut self,
        kind: &Kind<L, M>,
        data: Vec<u8>,
        mut policy: impl FnMut(&mut Message<'_, L, M>),
    ) -> Vec<u8> {
        self.rewrite_with(kind, data, &mut (), |(), message| policy(message))
    }

    /// [`HttpStream::rewrite`] for a policy whose edits borrow from
    /// `state` (a body kept there is copied once, into the output).
    pub fn rewrite_with<T, L: StartLine, M>(
        &mut self,
        kind: &Kind<L, M>,
        data: Vec<u8>,
        state: &mut T,
        mut policy: impl for<'a> FnMut(&'a mut T, &mut Message<'a, L, M>),
    ) -> Vec<u8> {
        if !self.sniff.is_http(&data, kind.looks_like) {
            return data;
        }
        self.parser.feed_owned(data);
        let mut out = Vec::new();
        let rest = self.drain(|view, headers| {
            headers.clear();
            let mut message = Message {
                view,
                headers,
                body: None,
                replacement: None,
            };
            policy(&mut *state, &mut message);
            message.encode_into(kind, &mut out);
        });
        if out.is_empty() {
            return rest;
        }
        out.extend_from_slice(&rest);
        out
    }

    /// Hand `each` every complete message buffered, with the stream's
    /// edit buffer; return the bytes to forward behind them: none
    /// unless parsing failed, and then every byte not yet forwarded.
    fn drain<L: StartLine>(
        &mut self,
        mut each: impl FnMut(View<'_, L>, &mut HeaderEdits),
    ) -> Vec<u8> {
        loop {
            match self.parser.next_view::<L>() {
                Ok(Some(view)) => each(view, &mut self.edits),
                Ok(None) => return Vec::new(),
                Err(_) => {
                    self.sniff.give_up();
                    return self.parser.take_buffered();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::workload::{response_for, RequestMix};

    /// Tails that stop parsing once their blank line arrives.
    const MALFORMED_TAILS: [&[u8]; 6] = [
        b"NOT_A_MESSAGE\r\n\r\n",
        b"GET /a HTTP/1.1\r\nHost h\r\n\r\n",
        b"GET /a HTTP/1.1\r\nBad Header Name: x\r\n\r\n",
        b"POST /a HTTP/1.1\r\nContent-Length: abc\r\n\r\nabc",
        b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n",
        b"HTTP/1.1 \xff\xfe OK\r\n\r\n",
    ];

    /// Feed `input` in `chunk`-byte pieces through an identity policy;
    /// returns the concatenated output and how many messages the
    /// policy saw.
    fn identity<L: StartLine, M>(kind: &Kind<L, M>, stream: &mut HttpStream, input: &[u8], chunk: usize) -> (Vec<u8>, usize) {
        let (mut out, mut seen) = (Vec::new(), 0);
        for piece in input.chunks(chunk) {
            out.extend(stream.rewrite(kind, piece.to_vec(), |_| seen += 1));
        }
        (out, seen)
    }

    /// Canonical messages, then a malformed tail, then more bytes —
    /// some of them well-formed messages that must no longer be parsed.
    fn check_identity<L: StartLine, M>(kind: &Kind<L, M>, good: &[Vec<u8>]) {
        for tail in MALFORMED_TAILS {
            let mut input = good.concat();
            input.extend_from_slice(tail);
            input.extend_from_slice(b"\x00raw bytes after the failure\r\n\r\n");
            input.extend_from_slice(&good[0]);
            for chunk in [input.len(), 1, 2, 3, 7, 64, 4096] {
                let mut stream = HttpStream::default();
                let (out, seen) = identity(kind, &mut stream, &input, chunk);
                let tail = String::from_utf8_lossy(tail);
                assert_eq!(out, input, "chunk {chunk}, tail {tail:?}");
                assert_eq!(seen, good.len(), "chunk {chunk}, tail {tail:?}");
                assert_eq!(stream.parser.buffered(), 0, "parser left empty");
            }
        }
    }

    #[test]
    fn canonical_requests_then_a_malformed_tail_come_out_as_they_went_in() {
        let mut mix = RequestMix::new(24);
        let mut good: Vec<Vec<u8>> = (0..20).map(|_| mix.next_request().encode()).collect();
        let mut post = Request::get("/submit", "h");
        post.method = "POST".into();
        post.body = b"a=1\r\n\r\nb=2".to_vec();
        good.push(post.encode());
        check_identity(&REQUESTS, &good);
    }

    #[test]
    fn canonical_responses_then_a_malformed_tail_come_out_as_they_went_in() {
        let mut mix = RequestMix::new(24);
        let mut good: Vec<Vec<u8>> = (0..6)
            .map(|_| response_for(&mix.next_request()).encode())
            .collect();
        good.push(Response::status(404, "Not Found").encode());
        check_identity(&RESPONSES, &good);
    }

    #[test]
    fn not_http_hands_back_the_callers_buffer() {
        let mut stream = HttpStream::default();
        for _ in 0..3 {
            let data = b"\x16\x03\x03 not http".to_vec();
            let ptr = data.as_ptr();
            let out = stream.rewrite(&REQUESTS, data, |_| panic!("nothing to parse"));
            assert_eq!(out.as_ptr(), ptr, "forwarded without a copy");
            assert_eq!(out, b"\x16\x03\x03 not http");
        }
        assert_eq!(stream.parser.buffered(), 0);
    }

    #[test]
    fn partial_message_is_held_until_complete() {
        let wire = response_for(&Request::get("/index.html", "h")).encode();
        let (a, b) = wire.split_at(wire.len() - 1);
        let mut stream = HttpStream::default();
        let held = stream.rewrite(&RESPONSES, a.to_vec(), |_| panic!("incomplete"));
        assert!(held.is_empty());
        assert_eq!(stream.parser.buffered(), a.len());
        let mut seen = 0;
        assert_eq!(stream.rewrite(&RESPONSES, b.to_vec(), |_| seen += 1), wire);
        assert_eq!((seen, stream.parser.buffered()), (1, 0));
    }

    #[test]
    fn messages_reports_raw_streams_and_the_unparsed_rest() {
        let mut stream = HttpStream::default();
        assert_eq!(stream.messages(&RESPONSES, b"SSH-2.0-OpenSSH", |_| panic!("not http")), None);

        let mut stream = HttpStream::default();
        let mut wire = Response::ok(b"one").encode();
        wire.extend_from_slice(b"HTTP/1.1 abc\r\n\r\nrest");
        let mut bodies = Vec::new();
        let rest = stream.messages(&RESPONSES, &wire, |resp| bodies.push(resp.body().to_vec()));
        assert_eq!(bodies, [b"one"]);
        assert_eq!(rest.as_deref(), Some(b"HTTP/1.1 abc\r\n\r\nrest".as_slice()));
        let later = stream.messages(&RESPONSES, &Response::ok(b"two").encode(), |_| panic!("gave up"));
        assert_eq!(later, None);
    }
}
