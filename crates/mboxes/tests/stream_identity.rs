//! Stream-identity pin: on well-formed HTTP, the bytes leaving every
//! HTTP processor are a function of the bytes that entered it — not of
//! how the record layer happened to chunk them — and do not move when
//! the parser or the processors' rewrite loop is restructured.
//!
//! A seeded exchange stream (the first [`EXCHANGES`] requests of
//! `RequestMix::new(SEED)` answered by `response_for`, then a handful
//! of hand-built POST / PUT / empty-body / status-only exchanges) runs
//! through `ServiceChain::slick_web()` and through
//! `HeaderInsertionProxy::tagging_responses()`. Everything leaving each
//! position in each direction is folded into an FNV-1a digest. Each
//! position is fed whole messages and 1-, 7- and 4096-byte chunks; the
//! digests must agree across chunkings and with the constants below,
//! which were captured at the commit before the two parsers and the
//! six rewrite loops were each collapsed into one copy.

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::message::{Request, RequestParser, Response};
use mbtls_http::workload::{response_for, RequestMix};
use mbtls_mboxes::{HeaderInsertionProxy, ServiceChain};

const SEED: u64 = 0x57EA_A11D;
const EXCHANGES: usize = 500;

/// Chunk sizes each stream is fed in (`usize::MAX`: whole messages).
const CHUNKINGS: [usize; 4] = [usize::MAX, 1, 7, 4096];

/// Bytes leaving each slick_web position, client side first, on the
/// request direction (equal: only the filter rewrites requests, and
/// it is first) …
const CHAIN_C2S: [u64; 3] = [
    0xa471_b87b_480a_a35c,
    0xa471_b87b_480a_a35c,
    0xa471_b87b_480a_a35c,
];
/// … and on the response direction (same position order).
const CHAIN_S2C: [u64; 3] = [
    0x38e7_cf43_8354_0e35,
    0x38e7_cf43_8354_0e35,
    0xc528_c00b_c530_d3a1,
];
/// Bytes leaving the tagging header proxy: requests, responses.
const HEADER_PROXY: [u64; 2] = [0x6353_c6f3_6eec_4809, 0xeb3f_2b05_93f4_dc4c];
/// The hand-built encodings themselves, concatenated.
const HAND_BUILT_WIRE: u64 = 0xc972_3599_9fa5_066d;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn absorb(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One request and, for the hand-built ones, the response the origin
/// gives it (`None`: `response_for` whatever request arrives).
struct Exchange {
    request: Request,
    response: Option<Response>,
}

fn hand_built() -> Vec<Exchange> {
    let request = |method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]| Request {
        method: method.into(),
        target: target.into(),
        headers: headers
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect(),
        body: body.to_vec(),
    };
    let compressible: Vec<u8> = (0..120)
        .flat_map(|i| format!("<li class=\"row\">row number {i}</li>\n").into_bytes())
        .collect();
    let mut pre_encoded = Response::ok(&compressible);
    pre_encoded.set_header("Content-Encoding", "gzip");
    let mut stale_length = Response::ok(b"the encoder owns Content-Length");
    stale_length.set_header("content-length", "3");
    vec![
        Exchange {
            request: request("POST", "/submit", &[("Host", "h")], b"name=value&x=1"),
            response: Some(Response::status(204, "No Content")),
        },
        Exchange {
            request: request("PUT", "/upload/empty", &[("Host", "h"), ("X-Trace", "")], b""),
            response: Some(Response::status(404, "Not Found")),
        },
        Exchange {
            request: request("POST", "/empty-post", &[], b""),
            response: Some(Response::ok(b"")),
        },
        Exchange {
            request: request("DELETE", "/item/7", &[("Host", "h")], b""),
            response: Some(Response::status(500, "")),
        },
        Exchange {
            request: request(
                "GET",
                "/with-body",
                &[("Host", "h"), ("content-length", "999")],
                b"a GET that carries a body",
            ),
            response: Some(stale_length),
        },
        Exchange {
            request: request("HEAD", "/", &[], b""),
            response: Some(Response::status(304, "Not Modified")),
        },
        Exchange {
            request: Request::get("/forbidden/page", "h"),
            response: None,
        },
        Exchange {
            request: Request::get("/malware/dropper.exe", "h"),
            response: Some(pre_encoded),
        },
        Exchange {
            request: Request::get("/hand/compressible", "h"),
            response: Some(Response::ok(&compressible)),
        },
        Exchange {
            request: Request::get("/hand/compressible", "h"),
            response: Some(Response::ok(&compressible)),
        },
        Exchange {
            request: request("OPTIONS", "*", &[("Host", "h")], &[0, 255, b'\r', b'\n', b'\r', b'\n']),
            response: Some(Response {
                status: 200,
                reason: "OK with spaces".into(),
                headers: vec![("Allow".into(), "GET, POST".into()), ("X-Empty".into(), "".into())],
                body: vec![b'\r', b'\n', b'\r', b'\n', 0, 1, 2],
            }),
        },
    ]
}

fn exchanges() -> Vec<Exchange> {
    let mut mix = RequestMix::new(SEED);
    let mut all: Vec<Exchange> = (0..EXCHANGES)
        .map(|_| Exchange {
            request: mix.next_request(),
            response: None,
        })
        .collect();
    all.extend(hand_built());
    all
}

/// Feed `input` to `proc` in `chunk`-byte pieces and return everything
/// it emitted, concatenated.
fn feed(proc: &mut dyn DataProcessor, dir: FlowDirection, input: &[u8], chunk: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for piece in input.chunks(chunk.max(1)) {
        out.extend(proc.process(dir, piece.to_vec()));
    }
    out
}

/// Run every exchange through `procs` (client side first) and return
/// the per-position digests: requests, then responses.
fn run(mut procs: Vec<Box<dyn DataProcessor>>, chunk: usize) -> (Vec<u64>, Vec<u64>) {
    let mut c2s = vec![Fnv::new(); procs.len()];
    let mut s2c = vec![Fnv::new(); procs.len()];
    let mut origin = RequestParser::new();
    for exchange in exchanges() {
        let mut data = exchange.request.encode();
        for (p, digest) in procs.iter_mut().zip(&mut c2s) {
            data = feed(p.as_mut(), FlowDirection::ClientToServer, &data, chunk);
            digest.absorb(&data);
        }
        origin.feed(&data);
        let arrived = origin
            .next_request()
            .expect("chain output parses")
            .expect("one whole request per exchange");
        assert_eq!(origin.buffered(), 0, "nothing trails the request");
        let mut data = exchange
            .response
            .unwrap_or_else(|| response_for(&arrived))
            .encode();
        for (p, digest) in procs.iter_mut().zip(&mut s2c).rev() {
            data = feed(p.as_mut(), FlowDirection::ServerToClient, &data, chunk);
            digest.absorb(&data);
        }
    }
    let finish = |digests: Vec<Fnv>| digests.into_iter().map(|d| d.0).collect();
    (finish(c2s), finish(s2c))
}

#[test]
fn slick_web_positions_emit_the_pinned_bytes_under_any_chunking() {
    for chunk in CHUNKINGS {
        let (c2s, s2c) = run(ServiceChain::slick_web().build_processors(), chunk);
        assert_eq!(c2s, CHAIN_C2S, "request direction, chunk {chunk}: {c2s:#018x?}");
        assert_eq!(s2c, CHAIN_S2C, "response direction, chunk {chunk}: {s2c:#018x?}");
    }
}

#[test]
fn tagging_header_proxy_emits_the_pinned_bytes_under_any_chunking() {
    for chunk in CHUNKINGS {
        let proxy = HeaderInsertionProxy::new("Via", "mbtls-proxy/1.0").tagging_responses();
        let (c2s, s2c) = run(vec![Box::new(proxy)], chunk);
        let got = [c2s[0], s2c[0]];
        assert_eq!(got, HEADER_PROXY, "chunk {chunk}: {got:#018x?}");
    }
}

#[test]
fn hand_built_messages_encode_to_the_pinned_bytes() {
    let mut digest = Fnv::new();
    for exchange in hand_built() {
        digest.absorb(&exchange.request.encode());
        if let Some(response) = exchange.response {
            digest.absorb(&response.encode());
        }
    }
    assert_eq!(digest.0, HAND_BUILT_WIRE, "{:#018x}", digest.0);
}
