//! Full mbTLS sessions over the finite-field DHE suite (the paper's
//! Fig. 5 note: "results were similar for DHE-RSA") and over the
//! AES-128 suite — the protocol is cipher-suite agnostic.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::Chain;
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::suites::CipherSuite;

fn run_with_suite(suite: CipherSuite, seed: u64) {
    let tb = Testbed::new(seed);
    let mut ccfg = tb.client_config();
    ccfg.tls.suites = vec![suite];
    let client = MbClientSession::new(
        Arc::new(ccfg),
        "server.example",
        CryptoRng::from_seed(seed + 1),
    );
    let mut scfg = tb.server_config();
    scfg.tls.suites = vec![suite];
    let server = MbServerSession::new(Arc::new(scfg), CryptoRng::from_seed(seed + 2));
    let mut mcfg = tb.middlebox_config(&tb.mbox_code);
    mcfg.suites = vec![suite];
    let mb = Middlebox::new(mcfg, CryptoRng::from_seed(seed + 3));

    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().expect("handshake");
    let got = chain.client_to_server(b"suite-agnostic", 14).unwrap();
    assert_eq!(got, b"suite-agnostic");
    let got = chain.server_to_client(b"indeed", 6).unwrap();
    assert_eq!(got, b"indeed");
}

#[test]
fn mbtls_session_over_dhe() {
    run_with_suite(CipherSuite::DheAes256GcmSha384, 0xD4E);
}

#[test]
fn mbtls_session_over_aes128() {
    run_with_suite(CipherSuite::EcdheAes128GcmSha256, 0xAE5);
}

#[test]
fn suite_mismatch_between_client_and_middlebox_demotes_to_relay() {
    // The middlebox only speaks DHE; the client offers only ECDHE.
    // The secondary handshake cannot negotiate, so the middlebox
    // relays and the end-to-end session still completes.
    let tb = Testbed::new(0x5111);
    let mut ccfg = tb.client_config();
    ccfg.tls.suites = vec![CipherSuite::EcdheAes256GcmSha384];
    let client = MbClientSession::new(
        Arc::new(ccfg),
        "server.example",
        CryptoRng::from_seed(1),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(2));
    let mut mcfg = tb.middlebox_config(&tb.mbox_code);
    mcfg.suites = vec![CipherSuite::DheAes256GcmSha384];
    let mb = Middlebox::new(mcfg, CryptoRng::from_seed(3));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));

    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    let mb = chain.party::<Middlebox>(1).unwrap();
    assert!(!mb.has_keys(), "negotiation failure demotes the middlebox");
    // Data still flows end to end.
    chain.client.send_app(b"direct anyway").unwrap();
    chain.pump().unwrap();
    assert_eq!(chain.server.recv_app(), b"direct anyway");
}
