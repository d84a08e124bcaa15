//! Driver-layer behaviour: chains, relays, and virtual-time ticks.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::PureRelay;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, LegacyClient, LegacyServer, NetChain, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::time::Duration;
use mbtls_netsim::{FaultConfig, Network};
use mbtls_tls::config::{ClientConfig, ServerConfig};
use mbtls_tls::{ClientConnection, ServerConnection};

fn endpoints(seed: u64) -> (MbClientSession, MbServerSession) {
    let tb = Testbed::new(seed);
    (
        MbClientSession::new(
            Arc::new(tb.client_config()),
            "server.example",
            CryptoRng::from_seed(seed + 1),
        ),
        MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(seed + 2)),
    )
}

#[test]
fn chain_through_stacked_relays() {
    // Five dumb relays in a row are transparent to mbTLS.
    let (client, server) = endpoints(0xD1);
    let middles: Vec<Box<dyn Relay>> = (0..5)
        .map(|_| Box::new(PureRelay::new()) as Box<dyn Relay>)
        .collect();
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
    chain.run_handshake().unwrap();
    let got = chain.client_to_server(b"through relays", 14).unwrap();
    assert_eq!(got, b"through relays");
}

#[test]
fn chain_hands_each_party_back_as_its_type() {
    // No middlebox: mbTLS endpoints at 0 and 1.
    let (client, server) = endpoints(0xD6);
    let mut chain = Chain::new(Box::new(client), vec![], Box::new(server));
    assert!(chain.party::<MbClientSession>(0).is_some());
    assert!(chain.party::<MbServerSession>(1).is_some());
    assert!(chain.party::<MbServerSession>(0).is_none(), "the client is no server");
    assert!(chain.party::<MbClientSession>(1).is_none(), "the server is no client");
    assert!(chain.party::<MbServerSession>(2).is_none(), "past the server");

    // Two middleboxes, of two types, between legacy endpoints.
    let tb = Testbed::new(0xD7);
    let mut rng = CryptoRng::from_seed(0xD7);
    let tls = Arc::new(ClientConfig::new(tb.server_trust.clone()));
    let conn = ClientConnection::new(tls, "server.example", &mut rng);
    let client = LegacyClient::new(conn, rng.fork());
    let tls = Arc::new(ServerConfig::new(tb.server_key.clone(), [7u8; 32]));
    let server = LegacyServer::new(ServerConnection::new(tls), rng.fork());
    let mbox = Middlebox::new(tb.middlebox_config(&tb.mbox_code), rng.fork());
    let middles: Vec<Box<dyn Relay>> = vec![Box::new(mbox), Box::new(PureRelay::new())];
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
    assert_eq!(chain.parties(), 4);
    assert!(chain.party::<LegacyClient>(0).is_some());
    assert!(chain.party::<Middlebox>(1).is_some());
    assert!(chain.party::<PureRelay>(2).is_some());
    assert!(chain.party::<LegacyServer>(3).is_some());
    assert!(chain.party::<Middlebox>(2).is_none(), "a PureRelay is no Middlebox");
    assert!(chain.party::<PureRelay>(1).is_none(), "a Middlebox is no PureRelay");
    assert!(chain.party::<LegacyServer>(0).is_none(), "a legacy client is no legacy server");
    assert!(chain.party::<MbClientSession>(0).is_none(), "a legacy client is no mbTLS one");
    assert!(chain.party::<LegacyServer>(4).is_none(), "past the server");
}

#[test]
fn handshake_stall_is_reported_not_hung() {
    // A relay that silently eats all client→server traffic: the
    // handshake can never complete, and run_handshake must return an
    // error rather than loop forever.
    struct BlackHole {
        toward_client: Vec<u8>,
    }
    impl Relay for BlackHole {
        fn feed_left(&mut self, _data: &[u8]) -> Result<(), MbError> {
            Ok(()) // dropped
        }
        fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
            self.toward_client.extend_from_slice(data);
            Ok(())
        }
        fn take_left_into(&mut self, dst: &mut Vec<u8>) {
            dst.extend_from_slice(&std::mem::take(&mut self.toward_client));
        }
        fn take_right_into(&mut self, _dst: &mut Vec<u8>) {}
    }
    let (client, server) = endpoints(0xD2);
    let mut chain = Chain::new(
        Box::new(client),
        vec![Box::new(BlackHole {
            toward_client: Vec::new(),
        })],
        Box::new(server),
    );
    let result = chain.run_handshake();
    assert!(matches!(result, Err(MbError::Protocol(_))));
}

#[test]
fn netchain_tick_reports_quiescence() {
    let (client, server) = endpoints(0xD3);
    let chain = Chain::new(Box::new(client), vec![], Box::new(server));
    let mut net = Network::new(0xD3);
    let mut nc = NetChain::new(
        &mut net,
        chain,
        &[Duration::from_millis(1)],
        &[FaultConfig::none()],
    );
    // Tick until the handshake completes and the network drains.
    let mut ticks = 0;
    while nc.tick().unwrap() {
        ticks += 1;
        assert!(ticks < 100, "handshake should quiesce quickly");
    }
    assert!(nc.chain.client.ready());
    assert!(nc.chain.server.ready());
    // Once quiescent, tick keeps returning false.
    assert!(!nc.tick().unwrap());
}

#[test]
fn netchain_deadline_enforced() {
    let (client, server) = endpoints(0xD4);
    let chain = Chain::new(Box::new(client), vec![], Box::new(server));
    let mut net = Network::new(0xD4);
    let mut nc = NetChain::new(
        &mut net,
        chain,
        &[Duration::from_millis(500)],
        &[FaultConfig::none()],
    );
    // A deadline far below the handshake's 3-RTT cost trips cleanly.
    let result = nc.run_until(Duration::from_millis(10), |c| c.client.ready() && c.server.ready());
    assert!(matches!(result, Err(MbError::Protocol(_))));
}

#[test]
fn compute_delays_slow_the_session() {
    let run = |delay_us: u64| {
        let (client, server) = endpoints(0xD5);
        let chain = Chain::new(
            Box::new(client),
            vec![Box::new(PureRelay::new())],
            Box::new(server),
        );
        let mut net = Network::new(0xD5);
        let mut nc = NetChain::new(
            &mut net,
            chain,
            &[Duration::from_millis(5), Duration::from_millis(5)],
            &[FaultConfig::none(), FaultConfig::none()],
        );
        nc.set_compute_delay(1, Duration::from_micros(delay_us));
        nc.run_session(b"x", 8, Duration::from_secs(30))
            .unwrap()
            .handshake
    };
    let fast = run(0);
    let slow = run(2_000);
    assert!(slow > fast, "compute charge must show up in virtual time");
    // 2ms per flush × a handful of forwarded flights: small and bounded.
    assert!(slow.0 - fast.0 < 40_000_000, "delta {}", slow.0 - fast.0);
}
