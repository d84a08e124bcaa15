//! End-to-end mbTLS session tests: every middlebox topology, legacy
//! interop in both directions, rejection, discovery, and attestation.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::PureRelay;
use mbtls_core::client::{ApprovalPolicy, MbClientSession};
use mbtls_core::dataplane::FlowDirection;
use mbtls_core::driver::{Chain, LegacyClient, LegacyServer};
use mbtls_core::middlebox::{DataProcessor, Middlebox, MiddleboxPhase};
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_sgx::CodeIdentity;
use mbtls_tls::{ClientConnection, ServerConnection};

fn mb_client(tb: &Testbed, seed: u64) -> MbClientSession {
    MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        mbtls_crypto::rng::CryptoRng::from_seed(seed),
    )
}

fn mb_server(tb: &Testbed, seed: u64) -> MbServerSession {
    MbServerSession::new(
        Arc::new(tb.server_config()),
        mbtls_crypto::rng::CryptoRng::from_seed(seed),
    )
}

fn mbox(tb: &Testbed, seed: u64) -> Middlebox {
    Middlebox::new(
        tb.middlebox_config(&tb.mbox_code),
        mbtls_crypto::rng::CryptoRng::from_seed(seed),
    )
}

/// The one middlebox of a client → middlebox → server chain.
fn middlebox(chain: &mut Chain) -> &mut Middlebox {
    chain.party(1).expect("party 1 is a middlebox")
}

/// The server of a chain through one middlebox, as an mbTLS server.
fn server_of(chain: &mut Chain) -> &mut MbServerSession {
    chain.party(2).expect("party 2 is an mbTLS server")
}

fn exchange(chain: &mut Chain) {
    chain.run_handshake().expect("handshake completes");
    let got = chain
        .client_to_server(b"GET /index.html", 15)
        .expect("request should arrive");
    assert_eq!(got, b"GET /index.html");
    let got = chain
        .server_to_client(b"200 OK payload", 14)
        .expect("response should arrive");
    assert_eq!(got, b"200 OK payload");
}

#[test]
fn no_middlebox_session() {
    let tb = Testbed::new(1);
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 11)),
        vec![],
        Box::new(mb_server(&tb, 12)),
    );
    exchange(&mut chain);
}

#[test]
fn one_client_side_middlebox() {
    let tb = Testbed::new(2);
    let mb = mbox(&tb, 23);
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 21)),
        vec![Box::new(mb)],
        Box::new(mb_server(&tb, 22)),
    );
    exchange(&mut chain);
}

#[test]
fn three_client_side_middleboxes() {
    let tb = Testbed::new(3);
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 31)),
        vec![
            Box::new(mbox(&tb, 33)),
            Box::new(mbox(&tb, 34)),
            Box::new(mbox(&tb, 35)),
        ],
        Box::new(mb_server(&tb, 32)),
    );
    exchange(&mut chain);
}

#[test]
fn middlebox_gets_keys_and_processes_records() {
    let tb = Testbed::new(4);
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 41)),
        vec![Box::new(mbox(&tb, 43))],
        Box::new(mb_server(&tb, 42)),
    );
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let mb = middlebox(&mut chain);
    assert_eq!(mb.phase(), MiddleboxPhase::DataPlane);
    assert!(mb.has_keys());
    let client = chain.party::<MbClientSession>(0).unwrap();
    assert_eq!(client.middleboxes().len(), 1);
    assert!(client.middleboxes()[0].approved);
    assert_eq!(
        client.middleboxes()[0].name.as_deref(),
        Some("proxy.msp.example")
    );

    chain.client.send_app(b"probe").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"probe");
    assert_eq!(middlebox(&mut chain).records_processed(), 1);
}

/// A processor that rewrites request/response payloads.
struct Tagger;
impl DataProcessor for Tagger {
    fn process(&mut self, dir: FlowDirection, mut data: Vec<u8>) -> Vec<u8> {
        match dir {
            FlowDirection::ClientToServer => data.extend_from_slice(b"[c2s]"),
            FlowDirection::ServerToClient => data.extend_from_slice(b"[s2c]"),
        }
        data
    }
}

#[test]
fn middlebox_can_modify_data() {
    let tb = Testbed::new(5);
    let mb = Middlebox::with_processor(
        tb.middlebox_config(&tb.mbox_code),
        mbtls_crypto::rng::CryptoRng::from_seed(53),
        Box::new(Tagger),
    );
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 51)),
        vec![Box::new(mb)],
        Box::new(mb_server(&tb, 52)),
    );
    chain.run_handshake().unwrap();
    let got = chain.client_to_server(b"hello", 10).unwrap();
    assert_eq!(got, b"hello[c2s]");
    let got = chain.server_to_client(b"world", 10).unwrap();
    assert_eq!(got, b"world[s2c]");
}

#[test]
fn one_server_side_middlebox() {
    // Legacy client (no MiddleboxSupport extension) → the middlebox
    // announces to the mbTLS server and joins server-side.
    let tb = Testbed::new(6);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(61);
    let tls_cfg = {
        let mut c = mbtls_tls::config::ClientConfig::new(tb.server_trust.clone());
        c.enable_tickets = true;
        c
    };
    let legacy = LegacyClient::new(
        ClientConnection::new(Arc::new(tls_cfg), "server.example", &mut rng),
        rng,
    );
    let mut chain = Chain::new(
        Box::new(legacy),
        vec![Box::new(mbox(&tb, 63))],
        Box::new(mb_server(&tb, 62)),
    );
    chain.run_handshake().unwrap();
    assert!(chain.client.ready(), "legacy client established");
    assert!(chain.server.ready(), "mbTLS server ready");
    let mb = middlebox(&mut chain);
    assert!(mb.announced());
    assert_eq!(mb.phase(), MiddleboxPhase::DataPlane);
    let server = server_of(&mut chain);
    assert_eq!(server.middleboxes().len(), 1);
    assert!(server.middleboxes()[0].approved);

    // Data both ways.
    chain.client.send_app(b"from legacy client").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"from legacy client");
    chain.server.send_app(b"from mbtls server").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.client.recv_app(), b"from mbtls server");
}

#[test]
fn two_server_side_middleboxes() {
    let tb = Testbed::new(7);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(71);
    let tls_cfg = mbtls_tls::config::ClientConfig::new(tb.server_trust.clone());
    let legacy = LegacyClient::new(
        ClientConnection::new(Arc::new(tls_cfg), "server.example", &mut rng),
        rng,
    );
    let mut chain = Chain::new(
        Box::new(legacy),
        vec![Box::new(mbox(&tb, 73)), Box::new(mbox(&tb, 74))],
        Box::new(mb_server(&tb, 72)),
    );
    chain.run_handshake().unwrap();
    let got = chain.client_to_server(b"payload", 7).unwrap();
    assert_eq!(got, b"payload");
    let got = chain.server_to_client(b"reply!!", 7).unwrap();
    assert_eq!(got, b"reply!!");
}

#[test]
fn both_sides_have_middleboxes() {
    // A middlebox joins the server's side only when the ClientHello
    // lacks MiddleboxSupport: behind an mbTLS client every on-path box
    // joins the client's. So this drives a legacy client through two
    // boxes: the first has the server cached as not speaking mbTLS
    // (`cached_no_support`) and relays without announcing, the second
    // announces itself and joins the mbTLS server's side.
    let tb = Testbed::new(8);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(81);
    let tls_cfg = mbtls_tls::config::ClientConfig::new(tb.server_trust.clone());
    let legacy = LegacyClient::new(
        ClientConnection::new(Arc::new(tls_cfg), "server.example", &mut rng),
        rng,
    );
    let mut silent_cfg = tb.middlebox_config(&tb.mbox_code);
    silent_cfg.cached_no_support = true; // relays only
    let silent = Middlebox::new(silent_cfg, mbtls_crypto::rng::CryptoRng::from_seed(83));
    let active = mbox(&tb, 84);
    let mut chain = Chain::new(
        Box::new(legacy),
        vec![Box::new(silent), Box::new(active)],
        Box::new(mb_server(&tb, 82)),
    );
    chain.run_handshake().unwrap();
    let got = chain.client_to_server(b"mixed", 5).unwrap();
    assert_eq!(got, b"mixed");
}

#[test]
fn legacy_server_with_client_side_middlebox() {
    // P5: mbTLS client + middlebox with a stock TLS server.
    let tb = Testbed::new(9);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(91);
    let server_cfg =
        mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [9u8; 32]);
    let legacy = LegacyServer::new(
        ServerConnection::new(Arc::new(server_cfg)),
        rng.fork(),
    );
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 92)),
        vec![Box::new(mbox(&tb, 93))],
        Box::new(legacy),
    );
    chain.run_handshake().unwrap();
    let got = chain.client_to_server(b"to legacy", 9).unwrap();
    assert_eq!(got, b"to legacy");
    let got = chain.server_to_client(b"from legacy", 11).unwrap();
    assert_eq!(got, b"from legacy");
}

#[test]
fn fully_legacy_pair_through_relay() {
    // Sanity: two legacy endpoints with a passive relay — vanilla TLS.
    let tb = Testbed::new(10);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(101);
    let client = LegacyClient::new(
        ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let server = LegacyServer::new(
        ServerConnection::new(Arc::new(mbtls_tls::config::ServerConfig::new(
            tb.server_key.clone(),
            [3u8; 32],
        ))),
        rng.fork(),
    );
    let mut chain = Chain::new(
        Box::new(client),
        vec![Box::new(PureRelay::new())],
        Box::new(server),
    );
    exchange(&mut chain);
}

#[test]
fn denied_middlebox_falls_back_to_relay() {
    let tb = Testbed::new(11);
    let mut cfg = tb.client_config();
    cfg.approval = ApprovalPolicy::DenyAll;
    let client = MbClientSession::new(
        Arc::new(cfg),
        "server.example",
        mbtls_crypto::rng::CryptoRng::from_seed(111),
    );
    let mut chain = Chain::new(
        Box::new(client),
        vec![Box::new(mbox(&tb, 113))],
        Box::new(mb_server(&tb, 112)),
    );
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let mb = middlebox(&mut chain);
    assert_eq!(mb.phase(), MiddleboxPhase::Relay, "denied box relays");
    assert!(!mb.has_keys());
    // Data still flows end to end.
    chain.client.send_app(b"direct").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"direct");
}

#[test]
fn allowlist_approves_by_name() {
    let tb = Testbed::new(12);
    let mut cfg = tb.client_config();
    cfg.approval = ApprovalPolicy::AllowList(vec!["proxy.msp.example".into()]);
    let client = MbClientSession::new(
        Arc::new(cfg),
        "server.example",
        mbtls_crypto::rng::CryptoRng::from_seed(121),
    );
    let mut chain = Chain::new(
        Box::new(client),
        vec![Box::new(mbox(&tb, 123))],
        Box::new(mb_server(&tb, 122)),
    );
    exchange(&mut chain);
}

#[test]
fn wrong_code_middlebox_rejected_by_attestation() {
    let tb = Testbed::new(13);
    // Middlebox attests backdoored code; the client requires the
    // published measurement.
    let evil_code = CodeIdentity::new("mbtls-proxy", "1.0-backdoored", b"strong-ciphers-only");
    let mb = Middlebox::new(
        tb.middlebox_config(&evil_code),
        mbtls_crypto::rng::CryptoRng::from_seed(133),
    );
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 131)),
        vec![Box::new(mb)],
        Box::new(mb_server(&tb, 132)),
    );
    chain.run_handshake().unwrap();
    // The session completes but the middlebox was demoted to a relay
    // and received no keys.
    assert!(chain.client.ready() && chain.server.ready());
    let mb = middlebox(&mut chain);
    assert!(!mb.has_keys(), "unattested middlebox must not get keys");
    assert_eq!(mb.phase(), MiddleboxPhase::Relay);
}

#[test]
fn strict_legacy_server_kills_announcement_handshake() {
    // A legacy server that treats unknown record types as fatal: the
    // handshake fails and the client must retry (paper §3.4).
    let tb = Testbed::new(14);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(141);
    let mut server_cfg =
        mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [9u8; 32]);
    server_cfg.strict_unknown_records = true;
    let legacy = LegacyServer::new(ServerConnection::new(Arc::new(server_cfg)), rng.fork());
    let legacy_client = LegacyClient::new(
        ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let mut chain = Chain::new(
        Box::new(legacy_client),
        vec![Box::new(mbox(&tb, 143))],
        Box::new(legacy),
    );
    let result = chain.run_handshake();
    assert!(result.is_err(), "strict server aborts on announcement");
}

#[test]
fn tolerant_legacy_server_ignores_announcement() {
    // The default legacy server ignores the announcement; the
    // middlebox gives up and relays; the handshake succeeds without it.
    let tb = Testbed::new(15);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(151);
    let server_cfg =
        mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [9u8; 32]);
    let legacy_server = LegacyServer::new(ServerConnection::new(Arc::new(server_cfg)), rng.fork());
    let legacy_client = LegacyClient::new(
        ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let mut chain = Chain::new(
        Box::new(legacy_client),
        vec![Box::new(mbox(&tb, 153))],
        Box::new(legacy_server),
    );
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let mb = middlebox(&mut chain);
    assert!(mb.announced());
    assert_eq!(mb.phase(), MiddleboxPhase::Relay);
    // Data flows as plain TLS through the relay.
    chain.client.send_app(b"vanilla").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"vanilla");
}

#[test]
fn mbtls_client_against_legacy_server_no_middleboxes() {
    // Reverse-compat core case: mbTLS client, nothing in the path,
    // stock TLS server ignoring the MiddleboxSupport extension.
    let tb = Testbed::new(16);
    let rng = mbtls_crypto::rng::CryptoRng::from_seed(161);
    let server_cfg =
        mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [9u8; 32]);
    let legacy = LegacyServer::new(ServerConnection::new(Arc::new(server_cfg)), rng);
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 162)),
        vec![],
        Box::new(legacy),
    );
    exchange(&mut chain);
}

#[test]
fn large_transfer_through_middlebox() {
    let tb = Testbed::new(17);
    let mut chain = Chain::new(
        Box::new(mb_client(&tb, 171)),
        vec![Box::new(mbox(&tb, 173))],
        Box::new(mb_server(&tb, 172)),
    );
    chain.run_handshake().unwrap();
    let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let got = chain.client_to_server(&big, big.len()).unwrap();
    assert_eq!(got, big);
}

#[test]
fn session_error_reported_cleanly() {
    // Wrong server name → certificate name mismatch surfaces as a
    // session error, not a panic.
    let tb = Testbed::new(18);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "wrong.example",
        mbtls_crypto::rng::CryptoRng::from_seed(181),
    );
    let mut chain = Chain::new(Box::new(client), vec![], Box::new(mb_server(&tb, 182)));
    let result = chain.run_handshake();
    assert!(matches!(result, Err(MbError::Tls(_))));
}

// ---------------------------------------------------------------------------
// Delegated middlebox authorization (mdTLS-style, DESIGN.md §6j)
// ---------------------------------------------------------------------------

#[test]
fn delegated_client_side_middlebox_session() {
    // The middlebox presents no certificate chain of its own: its
    // identity is a short-lived, session-bound credential signed by
    // the server's endpoint key.
    let tb = Testbed::new(40);
    let client = MbClientSession::new(
        Arc::new(tb.client_config_delegated()),
        "server.example",
        mbtls_crypto::rng::CryptoRng::from_seed(401),
    );
    let server = MbServerSession::new(
        Arc::new(tb.server_config_delegated()),
        mbtls_crypto::rng::CryptoRng::from_seed(402),
    );
    let mb = Middlebox::new(
        tb.middlebox_config_delegated(),
        mbtls_crypto::rng::CryptoRng::from_seed(403),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let mb = middlebox(&mut chain);
    assert_eq!(mb.phase(), MiddleboxPhase::DataPlane);
    assert!(mb.has_keys());
    let client = chain.party::<MbClientSession>(0).unwrap();
    assert_eq!(client.middleboxes().len(), 1);
    assert!(client.middleboxes()[0].approved);
    assert_eq!(
        client.middleboxes()[0].name.as_deref(),
        Some("proxy.msp.example")
    );

    chain.client.send_app(b"delegated probe").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"delegated probe");
    assert_eq!(middlebox(&mut chain).records_processed(), 1);
}

#[test]
fn delegated_chain_full_exchange() {
    let tb = Testbed::new(41);
    let client = MbClientSession::new(
        Arc::new(tb.client_config_delegated()),
        "server.example",
        mbtls_crypto::rng::CryptoRng::from_seed(411),
    );
    let server = MbServerSession::new(
        Arc::new(tb.server_config_delegated()),
        mbtls_crypto::rng::CryptoRng::from_seed(412),
    );
    let mb = Middlebox::new(
        tb.middlebox_config_delegated(),
        mbtls_crypto::rng::CryptoRng::from_seed(413),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    exchange(&mut chain);
}

#[test]
fn delegated_server_side_middlebox_session() {
    // Legacy client → the delegated middlebox announces to the mbTLS
    // server, which verifies the credential it minted itself.
    let tb = Testbed::new(42);
    let mut rng = mbtls_crypto::rng::CryptoRng::from_seed(421);
    let tls_cfg = mbtls_tls::config::ClientConfig::new(tb.server_trust.clone());
    let legacy = LegacyClient::new(
        ClientConnection::new(Arc::new(tls_cfg), "server.example", &mut rng),
        rng,
    );
    let server = MbServerSession::new(
        Arc::new(tb.server_config_delegated()),
        mbtls_crypto::rng::CryptoRng::from_seed(422),
    );
    let mb = Middlebox::new(
        tb.middlebox_config_delegated(),
        mbtls_crypto::rng::CryptoRng::from_seed(423),
    );
    let mut chain = Chain::new(Box::new(legacy), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.client.ready(), "legacy client established");
    assert!(chain.server.ready(), "mbTLS server ready");
    let mb = middlebox(&mut chain);
    assert!(mb.announced());
    assert_eq!(mb.phase(), MiddleboxPhase::DataPlane);
    let server = server_of(&mut chain);
    assert_eq!(server.middleboxes().len(), 1);
    assert!(server.middleboxes()[0].approved);
    assert_eq!(
        server.middleboxes()[0].name.as_deref(),
        Some("proxy.msp.example")
    );

    chain.client.send_app(b"via delegated box").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"via delegated box");
}

#[test]
fn delegated_middlebox_denied_falls_back_to_relay() {
    // Valid credential, but the client's approval policy says no:
    // the box is demoted to a blind relay and the session survives.
    let tb = Testbed::new(43);
    let mut cfg = tb.client_config_delegated();
    cfg.approval = ApprovalPolicy::DenyAll;
    let client = MbClientSession::new(
        Arc::new(cfg),
        "server.example",
        mbtls_crypto::rng::CryptoRng::from_seed(431),
    );
    let server = MbServerSession::new(
        Arc::new(tb.server_config_delegated()),
        mbtls_crypto::rng::CryptoRng::from_seed(432),
    );
    let mb = Middlebox::new(
        tb.middlebox_config_delegated(),
        mbtls_crypto::rng::CryptoRng::from_seed(433),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let mb = middlebox(&mut chain);
    assert_eq!(mb.phase(), MiddleboxPhase::Relay, "denied box relays");
    assert!(!mb.has_keys());
    chain.client.send_app(b"direct").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"direct");
}
