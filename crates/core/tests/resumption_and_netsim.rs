//! mbTLS session resumption (paper §3.5) and virtual-time sessions
//! over the network simulator (the machinery behind Figure 6 and
//! Table 2).

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, NetChain};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::time::Duration;
use mbtls_netsim::{FaultConfig, Network};

#[test]
fn mbtls_session_resumes_with_ticket() {
    let tb = Testbed::new(40);
    // First session: full handshakes, collect the ticket.
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(401),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(402));
    let mut chain = Chain::new(Box::new(client), vec![], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let resumption = chain.client.resumption().expect("ticket issued");
    assert!(resumption.ticket.is_some());

    // Second session offering the ticket: abbreviated handshake.
    let mut cfg = tb.client_config();
    cfg.tls
        .resumption_cache
        .insert("server.example".to_string(), resumption);
    let client2 = MbClientSession::new(Arc::new(cfg), "server.example", CryptoRng::from_seed(403));
    let server2 = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(404));
    let mut chain2 = Chain::new(Box::new(client2), vec![], Box::new(server2));
    chain2.run_handshake().unwrap();
    let got = chain2.client_to_server(b"resumed data", 12).unwrap();
    assert_eq!(got, b"resumed data");
}

#[test]
fn resumed_session_with_middlebox_gets_fresh_hop_keys() {
    let tb = Testbed::new(41);
    // Session 1 with a middlebox.
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(411),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(412));
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(413));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    assert!(chain.party::<Middlebox>(1).unwrap().has_keys());
    let resumption = chain.client.resumption().expect("ticket issued");

    // Session 2: abbreviated primary handshake, middlebox re-joins
    // with a full secondary handshake and receives *fresh* hop keys
    // (per-session keys preserve P1B/P4 across resumptions).
    let mut cfg = tb.client_config();
    cfg.tls
        .resumption_cache
        .insert("server.example".to_string(), resumption);
    let client2 =
        MbClientSession::new(Arc::new(cfg), "server.example", CryptoRng::from_seed(414));
    let server2 = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(415));
    let mb2 = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(416));
    let mut chain2 = Chain::new(Box::new(client2), vec![Box::new(mb2)], Box::new(server2));
    chain2.run_handshake().unwrap();
    let got = chain2.client_to_server(b"resumed through middlebox", 25).unwrap();
    assert_eq!(got, b"resumed through middlebox");
}

fn sim_chain_session(n_mboxes: usize, latency_ms: u64, seed: u64) -> mbtls_core::driver::SessionTiming {
    let tb = Testbed::new(seed);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(seed + 1),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(seed + 2));
    let mut middles: Vec<Box<dyn mbtls_core::driver::Relay>> = Vec::new();
    for i in 0..n_mboxes {
        middles.push(Box::new(Middlebox::new(
            tb.middlebox_config(&tb.mbox_code),
            CryptoRng::from_seed(seed + 10 + i as u64),
        )));
    }
    let chain = Chain::new(Box::new(client), middles, Box::new(server));
    let n_links = n_mboxes + 1;
    let latencies = vec![Duration::from_millis(latency_ms); n_links];
    let faults = vec![FaultConfig::none(); n_links];
    let mut net = Network::new(seed);
    let mut nc = NetChain::new(&mut net, chain, &latencies, &faults);
    nc.run_session(b"GET /", 1000, Duration::from_secs(60))
        .expect("session completes in virtual time")
}

#[test]
fn virtual_time_handshake_is_two_rtt_plus_tcp() {
    // No middlebox, 10ms per link one-way: TCP setup (1 RTT = 20ms)
    // + TLS 1.2 handshake (2 RTT = 40ms) ≈ 60ms.
    let t = sim_chain_session(0, 10, 50);
    let hs_ms = t.handshake.as_millis_f64();
    assert!(
        (55.0..70.0).contains(&hs_ms),
        "handshake took {hs_ms}ms, expected ~60ms"
    );
}

#[test]
fn middlebox_adds_no_round_trips() {
    // P7: the mbTLS handshake keeps the same flight structure; with a
    // middlebox splitting the path into two 5ms links (same end-to-end
    // 10ms), the handshake time should stay ≈ the no-middlebox case.
    let direct = sim_chain_session(0, 10, 60).handshake.as_millis_f64();
    let with_mbox = sim_chain_session(1, 5, 61).handshake.as_millis_f64();
    let inflation = with_mbox / direct;
    assert!(
        inflation < 1.10,
        "middlebox inflated handshake by {:.1}% (direct {direct}ms, mbox {with_mbox}ms)",
        (inflation - 1.0) * 100.0
    );
}

#[test]
fn lossy_links_still_complete() {
    let tb = Testbed::new(70);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(701),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(702));
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(703));
    let chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    let mut net = Network::new(70);
    let mut nc = NetChain::new(
        &mut net,
        chain,
        &[Duration::from_millis(5), Duration::from_millis(5)],
        &[FaultConfig::lossy(0.05), FaultConfig::lossy(0.05)],
    );
    let timing = nc
        .run_session(b"GET /lossy", 5000, Duration::from_secs(120))
        .expect("session completes despite loss");
    assert!(timing.handshake > Duration::ZERO);
}
