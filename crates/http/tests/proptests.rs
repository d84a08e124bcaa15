//! Property-based tests for the HTTP substrate.

use mbtls_http::compress::{lzss_compress, lzss_decompress, lzss_expands_to, Lzss};
use mbtls_http::message::{Request, RequestParser, Response, ResponseParser};
use mbtls_http::patterns::PatternMatcher;
use proptest::prelude::*;

fn arb_token() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}"
}

fn arb_header_value() -> impl Strategy<Value = String> {
    "[ -~&&[^\r\n]]{0,40}".prop_map(|s| s.trim().to_string())
}

proptest! {
    /// LZSS round-trips arbitrary binary data.
    #[test]
    fn lzss_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
        let compressed = lzss_compress(&data);
        prop_assert_eq!(lzss_decompress(&compressed).unwrap(), data);
    }

    /// LZSS round-trips highly repetitive data (match-heavy paths).
    #[test]
    fn lzss_roundtrip_repetitive(unit in proptest::collection::vec(any::<u8>(), 1..20),
                                 reps in 1usize..300) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let compressed = lzss_compress(&data);
        prop_assert_eq!(lzss_decompress(&compressed).unwrap(), data);
    }

    /// One match finder reused over a run of bodies emits what a fresh
    /// one emits for each: nothing an earlier body left in its tables
    /// is ever taken as a candidate. Small alphabets make every body's
    /// prefixes collide with the last one's.
    #[test]
    fn lzss_reuse_matches_fresh(bodies in proptest::collection::vec(
                                    (proptest::collection::vec(any::<u8>(), 0..3000), 1u8..=255),
                                    1..8)) {
        let mut lzss = Lzss::default();
        for (bytes, alphabet) in &bodies {
            let body: Vec<u8> = bytes.iter().map(|b| b % alphabet).collect();
            prop_assert_eq!(lzss.compress(&body), lzss_compress(&body));
        }
    }

    /// The verifying decoder accepts a stream as the expansion of its
    /// own input and of nothing one edit away from it: one byte
    /// flipped, the input cut short, or bytes appended.
    #[test]
    fn lzss_expands_to_exactly_its_input(bytes in proptest::collection::vec(any::<u8>(), 0..3000),
                                         alphabet in 1u8..=255,
                                         at in any::<prop::sample::Index>(),
                                         edit in 0u8..3,
                                         mask in 1u8..=255,
                                         tail in proptest::collection::vec(any::<u8>(), 1..20)) {
        let x: Vec<u8> = bytes.iter().map(|b| b % alphabet).collect();
        let stream = lzss_compress(&x);
        prop_assert!(lzss_expands_to(&stream, &x));
        let mut y = x.clone();
        match edit {
            0 if !y.is_empty() => y[at.index(x.len())] ^= mask,
            1 if !y.is_empty() => y.truncate(at.index(x.len())),
            _ => y.extend_from_slice(&tail),
        }
        prop_assert_eq!(lzss_expands_to(&stream, &y), x == y);
    }

    /// Decompression never panics on arbitrary (usually invalid) input.
    #[test]
    fn lzss_decompress_total(garbage in proptest::collection::vec(any::<u8>(), 0..500)) {
        let _ = lzss_decompress(&garbage);
    }

    /// Requests round-trip through encode/parse for arbitrary headers
    /// and bodies, across arbitrary chunkings.
    #[test]
    fn request_roundtrip(target in "/[a-z0-9/._-]{0,30}",
                         headers in proptest::collection::vec((arb_token(), arb_header_value()), 0..6),
                         body in proptest::collection::vec(any::<u8>(), 0..500),
                         chunk in 1usize..64) {
        // Unique-ify header names (duplicates legal in HTTP but our
        // set_header-based encode collapses them).
        let mut seen = std::collections::HashSet::new();
        let headers: Vec<(String, String)> = headers
            .into_iter()
            .filter(|(n, _)| {
                !n.eq_ignore_ascii_case("content-length") && seen.insert(n.to_ascii_lowercase())
            })
            .collect();
        let req = Request {
            method: "POST".into(),
            target: target.clone(),
            headers,
            body,
        };
        let wire = req.encode();
        let mut parser = RequestParser::new();
        for piece in wire.chunks(chunk) {
            parser.feed(piece);
        }
        let parsed = parser.next_request().unwrap().expect("complete");
        prop_assert_eq!(&parsed.method, "POST");
        prop_assert_eq!(&parsed.target, &target);
        prop_assert_eq!(&parsed.body, &req.body);
        for (name, value) in &req.headers {
            prop_assert_eq!(parsed.header(name), Some(value.as_str()));
        }
    }

    /// Responses round-trip similarly.
    #[test]
    fn response_roundtrip(status in 100u16..600,
                          body in proptest::collection::vec(any::<u8>(), 0..800),
                          chunk in 1usize..64) {
        let resp = Response {
            status,
            reason: "Because".into(),
            headers: vec![("Content-Type".into(), "application/octet-stream".into())],
            body,
        };
        let wire = resp.encode();
        let mut parser = ResponseParser::new();
        for piece in wire.chunks(chunk) {
            parser.feed(piece);
        }
        let parsed = parser.next_response().unwrap().expect("complete");
        prop_assert_eq!(parsed.status, status);
        prop_assert_eq!(&parsed.body, &resp.body);
    }

    /// Streaming pattern matching equals one-shot matching for any
    /// chunking of the input.
    #[test]
    fn streaming_equals_oneshot(haystack in proptest::collection::vec(any::<u8>(), 0..800),
                                cut in any::<prop::sample::Index>()) {
        let patterns: [&[u8]; 3] = [b"abc", b"\x00\x01", b"needle"];
        let matcher = PatternMatcher::new(&patterns);
        let oneshot = matcher.find_all(&haystack);
        let mut streaming = PatternMatcher::new(&patterns);
        let mid = cut.index(haystack.len() + 1);
        let mut got = streaming.scan(&haystack[..mid.min(haystack.len())]);
        got.extend(streaming.scan(&haystack[mid.min(haystack.len())..]));
        prop_assert_eq!(got, oneshot);
    }
}
