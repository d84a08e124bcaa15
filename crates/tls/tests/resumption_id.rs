//! RFC 5246 session-ID resumption (the second resumption mechanism
//! the paper's §3.5 covers, alongside tickets).

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_tls::config::{ClientConfig, ServerConfig};
use mbtls_tls::{ClientConnection, ServerConnection};

fn fixture() -> (Arc<TrustStore>, Arc<CertifiedKey>, CryptoRng) {
    let mut rng = CryptoRng::from_seed(0x1D);
    let mut ca = CertificateAuthority::new_root("Root", 0, 1_000_000, &mut rng);
    let key = CertifiedKey::issue(&mut ca, "s.example", &[], 0, 1_000_000, KeyUsage::Endpoint, &mut rng);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    (Arc::new(trust), Arc::new(key), rng)
}

fn pump(client: &mut ClientConnection, server: &mut ServerConnection, rng: &mut CryptoRng) {
    for _ in 0..20 {
        let b = client.take_outgoing();
        if !b.is_empty() {
            server.feed_incoming(&b, rng).unwrap();
        }
        let b = server.take_outgoing();
        if !b.is_empty() {
            client.feed_incoming(&b, rng).unwrap();
        }
        if client.is_established() && server.is_established() {
            return;
        }
    }
    panic!("handshake did not complete");
}

#[test]
fn session_id_resumption_roundtrip() {
    let (trust, key, mut rng) = fixture();
    // Tickets off on both sides; IDs on.
    let mut server_config = ServerConfig::new(key, None);
    server_config.assign_session_ids = true;
    let server_config = Arc::new(server_config);

    let mut client_config = ClientConfig::new(trust.clone());
    client_config.enable_tickets = false;

    // Session 1: full handshake; the server assigns an ID.
    let mut client = ClientConnection::new(Arc::new(client_config), "s.example", &mut rng);
    // Clone of the shared-cache config for connection 2.
    let mut server = ServerConnection::new(server_config.clone());
    pump(&mut client, &mut server, &mut rng);
    assert!(!client.resumed());
    let resumption = client.resumption_data().expect("resumption data");
    assert!(!resumption.session_id.is_empty(), "server assigned an ID");
    assert!(resumption.ticket.is_none(), "tickets were off");

    // Session 2: offer the ID; abbreviated handshake.
    let mut client_config = ClientConfig::new(trust);
    client_config.enable_tickets = false;
    client_config
        .resumption_cache
        .insert("s.example".into(), resumption);
    let mut client2 = ClientConnection::new(Arc::new(client_config), "s.example", &mut rng);
    let mut server2 = ServerConnection::new(server_config);
    pump(&mut client2, &mut server2, &mut rng);
    assert!(client2.resumed(), "client resumed by session ID");
    assert!(server2.resumed(), "server resumed by session ID");

    // Data flows on the resumed session.
    client2.send_data(b"id-resumed").unwrap();
    server2
        .feed_incoming(&client2.take_outgoing(), &mut rng)
        .unwrap();
    assert_eq!(server2.take_plaintext(), b"id-resumed");
}

#[test]
fn unknown_session_id_falls_back_to_full() {
    let (trust, key, mut rng) = fixture();
    let mut server_config = ServerConfig::new(key, None);
    server_config.assign_session_ids = true;
    let server_config = Arc::new(server_config);

    let mut client_config = ClientConfig::new(trust);
    client_config.enable_tickets = false;
    client_config.resumption_cache.insert(
        "s.example".into(),
        mbtls_tls::session::ResumptionData {
            suite: mbtls_tls::suites::CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![1; 48].into(),
            ticket: None,
            session_id: vec![0xAB; 32], // the server has never seen this
        },
    );
    let mut client = ClientConnection::new(Arc::new(client_config), "s.example", &mut rng);
    let mut server = ServerConnection::new(server_config);
    pump(&mut client, &mut server, &mut rng);
    assert!(!client.resumed());
    assert!(!server.resumed());
}

#[test]
fn cache_is_shared_across_connections() {
    let (trust, key, mut rng) = fixture();
    let mut server_config = ServerConfig::new(key, None);
    server_config.assign_session_ids = true;
    let server_config = Arc::new(server_config);
    let mut client_config = ClientConfig::new(trust.clone());
    client_config.enable_tickets = false;
    let mut c1 = ClientConnection::new(Arc::new(client_config), "s.example", &mut rng);
    let mut s1 = ServerConnection::new(server_config.clone());
    pump(&mut c1, &mut s1, &mut rng);
    assert_eq!(
        server_config.session_cache.lock().unwrap().len(),
        1,
        "master secret cached under the assigned ID"
    );
}
