//! Cross-crate integration: the entire stack — crypto, PKI, SGX,
//! netsim, TLS, mbTLS, HTTP, middlebox apps — in single scenarios.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, NetChain, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_http::message::{Request, RequestParser, Response, ResponseParser};
use mbtls_mboxes::ids::IdsMode;
use mbtls_mboxes::{HeaderInsertionProxy, IntrusionDetector};
use mbtls_netsim::time::Duration;
use mbtls_netsim::{FaultConfig, Network};

/// A full "enterprise" deployment: the client's traffic traverses an
/// attested IDS and an attested header proxy (both client-side),
/// over lossy virtual links, to an mbTLS server. HTTP flows through;
/// the IDS sees plaintext and blocks an attack; headers get inserted;
/// everything survives 1% packet loss.
#[test]
fn enterprise_chain_over_lossy_network() {
    let tb = Testbed::new(0xE57A);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(1),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(2));
    let sigs: [&[u8]; 1] = [b"' OR 1=1 --"];
    let ids = Middlebox::with_processor(
        tb.middlebox_config(&tb.mbox_code),
        CryptoRng::from_seed(3),
        Box::new(IntrusionDetector::new(&sigs, IdsMode::Block)),
    );
    let proxy = Middlebox::with_processor(
        tb.middlebox_config(&tb.mbox_code),
        CryptoRng::from_seed(4),
        Box::new(HeaderInsertionProxy::new("Via", "1.1 enterprise-proxy")),
    );
    // Proxy first (parses/serializes HTTP), IDS innermost so its
    // block-page replacement goes straight to the server.
    let middles: Vec<Box<dyn Relay>> = vec![Box::new(proxy), Box::new(ids)];
    let chain = Chain::new(Box::new(client), middles, Box::new(server));

    let mut net = Network::new(0xE57A);
    let latencies = vec![Duration::from_millis(3); 3];
    let faults = vec![FaultConfig::lossy(0.01); 3];
    let mut nc = NetChain::new(&mut net, chain, &latencies, &faults);
    nc.run_until(Duration::from_secs(60), |c| {
        c.client.ready() && c.server.ready()
    })
    .expect("handshake over lossy links");

    // Clean request: passes the IDS, gains the Via header.
    nc.chain
        .client
        .send_app(&Request::get("/report", "server.example").encode())
        .unwrap();
    let mut got = Vec::new();
    for _ in 0..500 {
        let progressed = nc.tick().expect("tick");
        got.extend(nc.chain.server.recv_app());
        if got.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if !progressed {
            break;
        }
    }
    let mut parser = RequestParser::new();
    parser.feed(&got);
    let req = parser.next_request().unwrap().expect("request parsed");
    assert_eq!(req.target, "/report");
    assert_eq!(req.header("Via"), Some("1.1 enterprise-proxy"));

    // Attack request: a well-formed POST whose body carries the
    // signature; the IDS replaces the payload before the origin.
    let attack = Request {
        method: "POST".into(),
        target: "/login".into(),
        headers: vec![("Host".into(), "server.example".into())],
        body: b"user=x' OR 1=1 --&pw=y".to_vec(),
    };
    nc.chain.client.send_app(&attack.encode()).unwrap();
    let mut got = Vec::new();
    for _ in 0..500 {
        let progressed = nc.tick().expect("tick");
        got.extend(nc.chain.server.recv_app());
        if got.ends_with(b"]") || !progressed {
            break;
        }
    }
    assert_eq!(got, b"[blocked by IDS]");
}

/// Client-side and server-side middleboxes in one session: a legacy
/// client, a filtering box announcing to the server, plus the full
/// HTTP request/response cycle with body rewriting on the way back.
#[test]
fn mixed_http_roundtrip() {
    use mbtls_core::driver::LegacyClient;
    let tb = Testbed::new(0x111);
    let mut rng = CryptoRng::from_seed(5);
    let client = LegacyClient::new(
        mbtls_tls::ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(6));
    let mb = Middlebox::with_processor(
        tb.middlebox_config(&tb.mbox_code),
        CryptoRng::from_seed(7),
        Box::new(HeaderInsertionProxy::new("X-Edge", "pop-syd").tagging_responses()),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));

    chain.run_handshake().unwrap();
    let mb = chain.party::<Middlebox>(1).unwrap();
    assert!(mb.has_keys(), "server-side middlebox joined");

    // Request gains X-Edge; response gains X-Proxied.
    chain
        .client
        .send_app(&Request::get("/asset.js", "server.example").encode())
        .unwrap();
    chain.pump().unwrap();
    let got = chain.server.recv_app();
    let mut parser = RequestParser::new();
    parser.feed(&got);
    let req = parser.next_request().unwrap().expect("request");
    assert_eq!(req.header("X-Edge"), Some("pop-syd"));

    chain
        .server
        .send_app(&Response::ok(b"console.log('hi')").encode())
        .unwrap();
    chain.pump().unwrap();
    let got = chain.client.recv_app();
    let mut parser = ResponseParser::new();
    parser.feed(&got);
    let resp = parser.next_response().unwrap().expect("response");
    assert_eq!(resp.header("X-Proxied"), Some("1"));
    assert_eq!(resp.body, b"console.log('hi')");
}

/// The whole stack across 5 parties: mbTLS client, 3 middleboxes,
/// mbTLS server; 1 MB of data each way; per-hop ciphertexts all
/// distinct.
#[test]
fn five_party_megabyte_transfer() {
    let tb = Testbed::new(0x5EAF);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(11),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(12));
    let middles: Vec<Box<dyn Relay>> = (0..3)
        .map(|i| {
            Box::new(Middlebox::new(
                tb.middlebox_config(&tb.mbox_code),
                CryptoRng::from_seed(20 + i),
            )) as Box<dyn Relay>
        })
        .collect();
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
    chain.run_handshake().expect("5-party handshake");

    let blob: Vec<u8> = (0..1_000_000u32).map(|i| (i % 249) as u8).collect();
    let got = chain.client_to_server(&blob, blob.len()).unwrap();
    assert_eq!(got, blob);
    let got = chain.server_to_client(&blob, blob.len()).unwrap();
    assert_eq!(got, blob);
}
