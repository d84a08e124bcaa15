//! Seeded, structure-aware mutation of valid HTTP encodings: the
//! parser reads bytes a peer chose, so whatever it is fed it must not
//! panic, must never hold more than it was given, must reach the same
//! verdict however the bytes were chunked, and whatever it accepts the
//! encoder must be able to say back.
//!
//! Mutants are made from a small corpus of valid requests and
//! responses: every truncation point, every single-bit flip in the
//! head, edits of the `Content-Length` digits (each digit replaced,
//! dropped, doubled, plus hostile values), every two-way split, and a
//! fixed budget of seeded compound mutations.
//!
//! The LZSS decoder gets the same treatment: `DecompressingClient`
//! runs it on bodies a middlebox chose, so from every truncation,
//! every bit flip and seeded compound mutations of valid compressed
//! bodies it must return without panicking, and never more than
//! `MAX_BODY` bytes. The compression proxy's verifying decoder reads
//! the same format, so on every mutant it must agree with it:
//! `lzss_expands_to(m, body)` exactly when `lzss_decompress(m)` is
//! `Ok(body)`.

use std::fmt::Debug;

use mbtls_http::compress::{lzss_compress, lzss_decompress, lzss_expands_to, LzssError};
use mbtls_http::message::{HttpError, Parser, Request, Response, MAX_BODY};
use mbtls_http::workload::{html_body, response_for, splitmix64, RequestMix};

const SEED: u64 = 0x4854_5450_2F31_2E31;
const COMPOUND_MUTANTS_PER_MESSAGE: usize = 300;

/// What the mutation driver needs of a message kind.
trait Kind: Sized + Clone + Debug + PartialEq {
    fn next(parser: &mut Parser) -> Result<Option<Self>, HttpError>;
    fn encode(&self) -> Vec<u8>;
    fn headers_mut(&mut self) -> &mut Vec<(String, String)>;
}

impl Kind for Request {
    fn next(parser: &mut Parser) -> Result<Option<Self>, HttpError> {
        parser.next_request()
    }
    fn encode(&self) -> Vec<u8> {
        Request::encode(self)
    }
    fn headers_mut(&mut self) -> &mut Vec<(String, String)> {
        &mut self.headers
    }
}

impl Kind for Response {
    fn next(parser: &mut Parser) -> Result<Option<Self>, HttpError> {
        parser.next_response()
    }
    fn encode(&self) -> Vec<u8> {
        Response::encode(self)
    }
    fn headers_mut(&mut self) -> &mut Vec<(String, String)> {
        &mut self.headers
    }
}

/// Where a parser ended up after being fed `pieces`: the messages it
/// accepted, its last verdict, and what it still holds.
#[derive(Debug, PartialEq)]
struct Outcome<M> {
    accepted: Vec<M>,
    failure: Option<HttpError>,
    buffered: usize,
}

fn parse<M: Kind>(pieces: &[&[u8]]) -> Outcome<M> {
    let mut parser = Parser::new();
    let mut accepted = Vec::new();
    let mut failure = None;
    let mut fed = 0;
    for piece in pieces {
        parser.feed(piece);
        fed += piece.len();
        failure = loop {
            assert!(parser.buffered() <= fed, "holds {} of {fed} fed", parser.buffered());
            match M::next(&mut parser) {
                Ok(Some(message)) => accepted.push(message),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
    }
    Outcome {
        accepted,
        failure,
        buffered: parser.buffered(),
    }
}

/// `message` without the header the encoder owns.
fn sans_length<M: Kind>(mut message: M) -> M {
    message
        .headers_mut()
        .retain(|(name, _)| !name.eq_ignore_ascii_case("Content-Length"));
    message
}

/// The checks every mutant gets. Returns whether anything was accepted.
fn check<M: Kind>(bytes: &[u8], state: &mut u64) -> bool {
    let whole = parse::<M>(&[bytes]);
    // The same bytes in two pieces reach the same end.
    let cut = splitmix64(state) as usize % (bytes.len() + 1);
    let (a, b) = bytes.split_at(cut);
    assert_eq!(parse::<M>(&[a, b]), whole, "split at {cut} of {:?}", String::from_utf8_lossy(bytes));
    // Whatever was accepted, the encoder says back: the reparse is the
    // same message but for `Content-Length` (rewritten canonically, or
    // added), and encoding that is a fixed point.
    for message in &whole.accepted {
        let wire = message.encode();
        let again = parse::<M>(&[&wire]);
        assert_eq!((again.failure, again.buffered), (None, 0), "{message:?}");
        let [reparsed] = again.accepted.as_slice() else {
            panic!("{message:?} re-encoded to {} messages", again.accepted.len());
        };
        assert_eq!(sans_length(reparsed.clone()), sans_length(message.clone()));
        assert_eq!(reparsed.encode(), wire, "{message:?}");
    }
    !whole.accepted.is_empty()
}

/// One seeded compound mutation: one to three of truncate, bit flip,
/// span written twice, blank line inserted.
fn compound(wire: &[u8], state: &mut u64) -> Vec<u8> {
    let mut bytes = wire.to_vec();
    for _ in 0..1 + splitmix64(state) % 3 {
        if bytes.is_empty() {
            break;
        }
        let at = splitmix64(state) as usize % bytes.len();
        match splitmix64(state) % 4 {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << (splitmix64(state) % 8),
            2 => {
                let end = at + 1 + splitmix64(state) as usize % (bytes.len() - at);
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
            _ => {
                bytes.splice(at..at, *b"\r\n\r\n");
            }
        }
    }
    bytes
}

/// Run the whole mutation schedule over one valid message. Returns
/// (mutants that yielded a message, mutants that did not).
fn mutate<M: Kind>(message: &M, state: &mut u64) -> (usize, usize) {
    let wire = message.encode();
    let head_len = wire.windows(4).position(|w| w == b"\r\n\r\n").expect("a head") + 4;
    let valid = parse::<M>(&[&wire]);
    assert_eq!(sans_length(valid.accepted[0].clone()), sans_length(message.clone()));
    assert_eq!((valid.accepted.len(), valid.failure, valid.buffered), (1, None, 0));

    let mut mutants: Vec<Vec<u8>> = Vec::new();
    // Every truncation point: a strict prefix is held, never refused
    // and never mistaken for a message.
    for cut in 0..wire.len() {
        let prefix = parse::<M>(&[&wire[..cut]]);
        assert_eq!((prefix.accepted.len(), prefix.failure, prefix.buffered), (0, None, cut));
    }
    // Every two-way split of the valid encoding parses to the message.
    for cut in 0..=wire.len() {
        assert_eq!(parse::<M>(&[&wire[..cut], &wire[cut..]]), valid, "split at {cut}");
    }
    // Every single-bit flip in the head.
    for at in 0..head_len {
        for bit in 0..8 {
            let mut flipped = wire.clone();
            flipped[at] ^= 1 << bit;
            mutants.push(flipped);
        }
    }
    // Content-Length edits.
    let needle = b"Content-Length: ";
    if let Some(name_at) = wire.windows(needle.len()).position(|w| w == needle) {
        let digits_at = name_at + needle.len();
        let digits = wire[digits_at..].iter().take_while(|b| b.is_ascii_digit()).count();
        let with_value = |value: &[u8]| {
            let mut edited = wire.clone();
            edited.splice(digits_at..digits_at + digits, value.iter().copied());
            edited
        };
        for at in 0..digits {
            for digit in b'0'..=b'9' {
                let mut value = wire[digits_at..digits_at + digits].to_vec();
                value[at] = digit;
                mutants.push(with_value(&value));
                value.insert(at, digit);
                mutants.push(with_value(&value));
            }
            let mut value = wire[digits_at..digits_at + digits].to_vec();
            value.remove(at);
            mutants.push(with_value(&value));
        }
        let max = usize::MAX;
        for hostile in [
            max.to_string(),
            (max - 3).to_string(),
            (max / 2).to_string(),
            "340282366920938463463374607431768211456".to_string(),
            "-1".to_string(),
            "+1".to_string(),
            "abc".to_string(),
            "0x10".to_string(),
            "1e3".to_string(),
        ] {
            let edited = with_value(hostile.as_bytes());
            let refused = parse::<M>(&[&edited]);
            assert!(refused.accepted.is_empty() && refused.failure.is_some(), "{hostile}: {refused:?}");
            mutants.push(edited);
        }
    }
    for _ in 0..COMPOUND_MUTANTS_PER_MESSAGE {
        mutants.push(compound(&wire, state));
    }

    let accepted = mutants.iter().filter(|bytes| check::<M>(bytes, state)).count();
    (accepted, mutants.len() - accepted)
}

fn body_request(method: &str, target: &str, body: &[u8]) -> Request {
    Request {
        method: method.into(),
        target: target.into(),
        headers: vec![("Host".into(), "h".into()), ("X-Empty".into(), String::new())],
        body: body.to_vec(),
    }
}

#[test]
fn mutated_requests_never_panic_overfill_or_desync() {
    let mut state = SEED;
    let mut mix = RequestMix::new(SEED);
    let corpus = [
        mix.next_request(),
        mix.next_request(),
        body_request("POST", "/submit", b"name=value&x=1"),
        body_request("PUT", "/empty", b""),
        body_request("DELETE", "/binary", b"\x00\xff\r\n\r\nGET "),
        body_request("POST", "/long", &[b'x'; 1234]),
    ];
    let (mut accepted, mut refused) = (0, 0);
    for request in &corpus {
        let (a, r) = mutate(request, &mut state);
        accepted += a;
        refused += r;
    }
    // Both outcomes were exercised, not one of them thousands of times.
    assert!(accepted > 500 && refused > 500, "{accepted} accepted, {refused} refused");
}

#[test]
fn mutated_responses_never_panic_overfill_or_desync() {
    let mut state = SEED ^ 1;
    let mut with_headers = Response::ok(b"<html>hi</html>");
    with_headers.set_header("Cache-Control", "max-age=60");
    with_headers.set_header("X-Empty", "");
    let corpus = [
        with_headers,
        Response::status(404, "Not Found"),
        Response::status(500, ""),
        Response::ok(b"\r\n\r\nHTTP/1."),
        response_for(&Request::get("/api/session", "chain.example")),
    ];
    let (mut accepted, mut refused) = (0, 0);
    for response in &corpus {
        let (a, r) = mutate(response, &mut state);
        accepted += a;
        refused += r;
    }
    assert!(accepted > 500 && refused > 500, "{accepted} accepted, {refused} refused");
}

/// Decode one mutant of `body`'s stream: no panic, no more output than
/// the bound and the format allow (a 17-byte group of eight 18-byte
/// references is the most a stream expands), and the verifying decoder
/// accepts it as `body` exactly when it decodes to `body`.
fn decompress_bounded(stream: &[u8], body: &[u8]) -> Result<Vec<u8>, LzssError> {
    let result = lzss_decompress(stream);
    if let Ok(out) = &result {
        assert!(out.len() <= MAX_BODY, "{} bytes out", out.len());
        assert!(out.len() * 17 <= stream.len() * 144, "{} from {}", out.len(), stream.len());
    }
    let decodes_to_body = result.as_deref() == Ok(body);
    assert_eq!(lzss_expands_to(stream, body), decodes_to_body, "{stream:?}");
    result
}

#[test]
fn mutated_lzss_streams_never_panic_or_overflow() {
    let mut state = SEED ^ 2;
    let small = response_for(&Request::get("/api/session", "chain.example")).body;
    let corpus: [Vec<u8>; 5] = [
        b"abcabcabcabc, abcabc!".to_vec(),
        html_body(7, 900),
        small,
        vec![b'z'; 300],
        (0..200).map(|_| splitmix64(&mut state) as u8).collect(),
    ];
    let (mut accepted, mut refused) = (0, 0);
    for input in &corpus {
        let stream = lzss_compress(input);
        assert_eq!(&decompress_bounded(&stream, input).unwrap(), input);
        let mut mutants: Vec<Vec<u8>> = Vec::new();
        // Every truncation: a cut between tokens decodes to a prefix
        // of the input, a cut inside a reference is refused.
        for cut in 0..stream.len() {
            match decompress_bounded(&stream[..cut], input) {
                Ok(out) => assert!(input.starts_with(&out), "cut at {cut}"),
                Err(e) => assert_eq!(e, LzssError::Truncated, "cut at {cut}"),
            }
        }
        // Every single-bit flip.
        for at in 0..stream.len() {
            for bit in 0..8 {
                let mut flipped = stream.clone();
                flipped[at] ^= 1 << bit;
                mutants.push(flipped);
            }
        }
        for _ in 0..COMPOUND_MUTANTS_PER_MESSAGE {
            mutants.push(compound(&stream, &mut state));
        }
        for mutant in &mutants {
            match decompress_bounded(mutant, input) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(accepted > 500 && refused > 500, "{accepted} accepted, {refused} refused");
}
