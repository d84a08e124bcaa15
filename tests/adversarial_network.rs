//! Cross-crate adversarial scenarios over the network simulator:
//! the paper's §3.1 on-path adversary exercising its capabilities
//! against live mbTLS sessions (complements the unit-level attacks in
//! `mbtls-core::attacks`).

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::Endpoint;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::net::{Dir, Network};
use mbtls_netsim::time::{Duration, SimTime};

/// Drive a two-party session over one netsim connection until both
/// ready; returns the network + handles for adversarial follow-up.
struct LiveSession {
    net: Network,
    client: MbClientSession,
    server: MbServerSession,
    conn: mbtls_netsim::net::ConnId,
    client_node: mbtls_netsim::net::NodeId,
    server_node: mbtls_netsim::net::NodeId,
}

fn establish(seed: u64) -> LiveSession {
    let tb = Testbed::new(seed);
    let mut net = Network::new(seed);
    let client_node = net.add_node("client");
    let server_node = net.add_node("server");
    let conn = net.connect_with(
        client_node,
        server_node,
        Duration::from_millis(5),
        None,
        mbtls_netsim::FaultConfig::none(),
    );
    let mut client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(seed + 1),
    );
    let mut server =
        MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(seed + 2));

    for _ in 0..100 {
        let mut b = Vec::new();
        client.take_into(&mut b);
        if !b.is_empty() {
            net.send(conn, client_node, &b).unwrap();
        }
        let mut b = Vec::new();
        server.take_into(&mut b);
        if !b.is_empty() {
            net.send(conn, server_node, &b).unwrap();
        }
        if let Some(t) = net.next_event_time() {
            net.advance_to(t);
        }
        let b = net.recv(conn, server_node).unwrap();
        if !b.is_empty() {
            server.feed(&b).unwrap();
        }
        let b = net.recv(conn, client_node).unwrap();
        if !b.is_empty() {
            client.feed(&b).unwrap();
        }
        if client.ready() && server.ready() {
            break;
        }
    }
    assert!(client.ready() && server.ready(), "session established");
    LiveSession {
        net,
        client,
        server,
        conn,
        client_node,
        server_node,
    }
}

#[test]
fn tap_sees_only_ciphertext() {
    let mut s = establish(0xAD01);
    s.net.tap(s.conn, Dir::AtoB);
    s.client.send_app(b"SECRET-SESSION-PAYLOAD").unwrap();
    let mut b = Vec::new();
    s.client.take_into(&mut b);
    s.net.send(s.conn, s.client_node, &b).unwrap();
    s.net.advance_to(SimTime(10_000_000_000));
    let b = s.net.recv(s.conn, s.server_node).unwrap();
    s.server.feed(&b).unwrap();
    let mut plain = Vec::new();
    s.server.recv_app_into(&mut plain);
    assert_eq!(plain, b"SECRET-SESSION-PAYLOAD");
    // The adversary's capture never contains the plaintext.
    for (_, chunk) in s.net.tap_contents(s.conn, Dir::AtoB) {
        assert!(
            !chunk.windows(6).any(|w| w == b"SECRET"),
            "plaintext leaked to the wire"
        );
    }
}

#[test]
fn in_flight_tamper_detected_by_receiver() {
    let mut s = establish(0xAD02);
    s.net.tamper_next(s.conn, Dir::AtoB, |data| {
        let n = data.len();
        data[n - 2] ^= 0x01;
    });
    s.client.send_app(b"integrity matters").unwrap();
    let mut b = Vec::new();
    s.client.take_into(&mut b);
    s.net.send(s.conn, s.client_node, &b).unwrap();
    s.net.advance_to(SimTime(10_000_000_000));
    let b = s.net.recv(s.conn, s.server_node).unwrap();
    let result = s.server.feed(&b);
    assert!(result.is_err(), "tampered record must fail authentication");
}

#[test]
fn injected_garbage_kills_session_not_process() {
    let mut s = establish(0xAD03);
    // The adversary injects a syntactically valid record with garbage
    // ciphertext into the stream.
    let mut forged = vec![23u8, 3, 3, 0, 32];
    forged.extend(vec![0xEE; 32]);
    s.net.inject(s.conn, Dir::AtoB, &forged).unwrap();
    s.net.advance_to(SimTime(10_000_000_000));
    let b = s.net.recv(s.conn, s.server_node).unwrap();
    let result = s.server.feed(&b);
    assert!(result.is_err(), "forged record rejected");
    // Subsequent legitimate client data is also rejected (the session
    // is dead — fail-closed, no silent recovery that could mask the
    // injection).
    s.client.send_app(b"after the attack").unwrap();
    let mut b = Vec::new();
    s.client.take_into(&mut b);
    s.net.send(s.conn, s.client_node, &b).unwrap();
    s.net.advance_to(SimTime(20_000_000_000));
    let b = s.net.recv(s.conn, s.server_node).unwrap();
    assert!(s.server.feed(&b).is_err());
}

#[test]
fn connection_reset_surfaces_cleanly() {
    let mut s = establish(0xAD04);
    s.net.reset(s.conn);
    s.client.send_app(b"into the void").unwrap();
    let mut b = Vec::new();
    s.client.take_into(&mut b);
    let send_result = s.net.send(s.conn, s.client_node, &b);
    assert!(send_result.is_err(), "writes to a reset connection fail");
}

#[test]
fn observed_handshake_reveals_middlebox_support_but_not_keys() {
    // The MiddleboxSupport extension is visible in the clear (like any
    // ClientHello extension); the adversary learns the client speaks
    // mbTLS — by design — but nothing else.
    let tb = Testbed::new(0xAD05);
    let mut net = Network::new(0xAD05);
    let c = net.add_node("client");
    let sv = net.add_node("server");
    let conn = net.connect(c, sv);
    net.tap(conn, Dir::AtoB);
    let mut client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(0xAD06),
    );
    let mut hello_bytes = Vec::new();
    client.take_into(&mut hello_bytes);
    net.send(conn, c, &hello_bytes).unwrap();
    let tapped = net.tap_contents(conn, Dir::AtoB);
    let all: Vec<u8> = tapped.into_iter().flat_map(|(_, d)| d).collect();
    // Extension code point 0xFF77 (MiddleboxSupport) appears.
    assert!(
        all.windows(2).any(|w| w == [0xFF, 0x77]),
        "extension visible to on-path observers (enables discovery)"
    );
}
