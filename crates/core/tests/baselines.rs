//! The paper's comparison points behave as described — including the
//! security failure that motivates mbTLS in the first place (§2.2).

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::{NaiveKeyShare, PureRelay, SplitTlsMiddlebox};
use mbtls_core::dataplane::{fresh_hop_keys, EndpointDataPlane};
use mbtls_core::driver::{Chain, LegacyClient, LegacyServer, Relay};
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, ServerConnection};

/// Split TLS works operationally: client → interceptor → server, data
/// flows — but the client's "server certificate" is the forged one,
/// not the real server's (the §2.2 weakness, demonstrated).
#[test]
fn split_tls_intercepts_and_forges_identity() {
    let tb = Testbed::new(0xB1);
    let mut rng = CryptoRng::from_seed(0xB11);
    // The enterprise provisioning: client trusts the corp root.
    let mut corp_ca = CertificateAuthority::new_root("Corp Root", 0, 10_000_000, &mut rng);
    let forged = Arc::new(CertifiedKey::issue(
        &mut corp_ca,
        "server.example",
        &[],
        0,
        10_000_000,
        KeyUsage::Endpoint,
        &mut rng,
    ));
    let forged_pubkey = forged.leaf().payload.public_key;
    let mut client_trust = TrustStore::new();
    client_trust.add_root(corp_ca.certificate().clone());

    let client = LegacyClient::new(
        ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(Arc::new(client_trust))),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let split = SplitTlsMiddlebox::new(
        Arc::new(mbtls_tls::config::ServerConfig::new(forged, [2u8; 32])),
        Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
        "server.example",
        rng.fork(),
    );
    let server = LegacyServer::new(
        ServerConnection::new(Arc::new(mbtls_tls::config::ServerConfig::new(
            tb.server_key.clone(),
            [1u8; 32],
        ))),
        rng.fork(),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(split)], Box::new(server));
    chain.run_handshake().unwrap();
    let got = chain.client_to_server(b"intercepted request", 19).unwrap();
    assert_eq!(got, b"intercepted request");

    // The weakness: re-run the client leg and inspect what the client
    // authenticated — it is the FORGED key, not the real server's.
    let real_pubkey = tb.server_key.leaf().payload.public_key;
    assert_ne!(
        forged_pubkey, real_pubkey,
        "the client never saw the real server's certificate"
    );
}

/// Split TLS against a client that does NOT trust the corp root:
/// interception fails (this is why deployments must provision the
/// custom root).
#[test]
fn split_tls_fails_without_provisioned_root() {
    let tb = Testbed::new(0xB2);
    let mut rng = CryptoRng::from_seed(0xB21);
    let mut corp_ca = CertificateAuthority::new_root("Corp Root", 0, 10_000_000, &mut rng);
    let forged = Arc::new(CertifiedKey::issue(
        &mut corp_ca,
        "server.example",
        &[],
        0,
        10_000_000,
        KeyUsage::Endpoint,
        &mut rng,
    ));
    // Client trusts only the real web root.
    let client = LegacyClient::new(
        ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let split = SplitTlsMiddlebox::new(
        Arc::new(mbtls_tls::config::ServerConfig::new(forged, [2u8; 32])),
        Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
        "server.example",
        rng.fork(),
    );
    let server = LegacyServer::new(
        ServerConnection::new(Arc::new(mbtls_tls::config::ServerConfig::new(
            tb.server_key.clone(),
            [1u8; 32],
        ))),
        rng.fork(),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(split)], Box::new(server));
    assert!(chain.run_handshake().is_err(), "unknown CA must be rejected");
}

/// The naive key share relays handshakes, then processes data with
/// the shared key after delivery (Fig. 1 flow).
#[test]
fn naive_key_share_full_flow() {
    let mut rng = CryptoRng::from_seed(0xB3);
    let shared = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut client = EndpointDataPlane::for_client(&shared).unwrap();
    let mut server = EndpointDataPlane::for_server(&shared).unwrap();
    let mut mbox = NaiveKeyShare::new();

    // Before key delivery: pure relay.
    let (mut wire_in, mut wire_out, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    client.send(b"pre-keys record").unwrap();
    client.drain_outgoing_into(&mut wire_in);
    mbox.feed_left(&wire_in).unwrap();
    mbox.take_right_into(&mut wire_out);
    server.feed(&wire_out).unwrap();
    server.drain_plaintext_into(&mut plain);
    assert_eq!(plain, b"pre-keys record");
    assert!(!mbox.has_keys());

    // Key delivery (the out-of-band TLS channel of Fig. 1). Like the
    // real mechanism, the delivered state carries the *current*
    // sequence numbers, not zeros.
    let mut delivered = shared.clone();
    delivered.client_to_server_seq = 1; // one record already relayed
    mbox.install_keys(&delivered).unwrap();
    assert!(mbox.has_keys());

    // After: the middlebox decrypts under the key both hops share, so
    // an unmodified record leaves with identical bytes.
    let (mut wire_in, mut wire_out, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    client.send(b"post-keys record").unwrap();
    client.drain_outgoing_into(&mut wire_in);
    mbox.feed_left(&wire_in).unwrap();
    mbox.take_right_into(&mut wire_out);
    assert_eq!(wire_in, wire_out, "shared key ⇒ identical ciphertext (the P1C leak)");
    server.feed(&wire_out).unwrap();
    server.drain_plaintext_into(&mut plain);
    assert_eq!(plain, b"post-keys record");
}

/// PureRelay accounting.
#[test]
fn pure_relay_counts_bytes() {
    let mut relay = PureRelay::new();
    relay.feed_left(&[0u8; 100]).unwrap();
    relay.feed_right(&[0u8; 50]).unwrap();
    assert_eq!(relay.bytes_forwarded, 150);
    let (mut rightward, mut leftward) = (Vec::new(), Vec::new());
    relay.take_right_into(&mut rightward);
    relay.take_left_into(&mut leftward);
    assert_eq!((rightward.len(), leftward.len()), (100, 50));
}
