//! Robustness: the TLS state machines must never panic on hostile
//! input — malformed bytes produce errors and alerts, not crashes.

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_tls::config::{ClientConfig, ServerConfig};
use mbtls_tls::record::{frame_plaintext, ContentType, RecordReader};
use mbtls_tls::{ClientConnection, ServerConnection};
use proptest::prelude::*;

fn fixture() -> (Arc<ClientConfig>, Arc<ServerConfig>, CryptoRng) {
    let mut rng = CryptoRng::from_seed(0x20B);
    let mut ca = CertificateAuthority::new_root("Root", 0, 1_000_000, &mut rng);
    let key = CertifiedKey::issue(&mut ca, "s", &[], 0, 1_000_000, KeyUsage::Endpoint, &mut rng);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    (
        Arc::new(ClientConfig::new(Arc::new(trust))),
        Arc::new(ServerConfig::new(Arc::new(key), [1u8; 32])),
        rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes fed to a fresh server: never panics.
    #[test]
    fn server_survives_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..600)) {
        let (_, sc, mut rng) = fixture();
        let mut server = ServerConnection::new(sc);
        let _ = server.feed_incoming(&garbage, &mut rng);
    }

    /// Random bytes fed to a client mid-handshake: never panics.
    #[test]
    fn client_survives_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..600)) {
        let (cc, _, mut rng) = fixture();
        let mut client = ClientConnection::new(cc, "s", &mut rng);
        let _ = client.take_outgoing();
        let _ = client.feed_incoming(&garbage, &mut rng);
    }

    /// Structurally valid records with garbage payloads: never panics.
    #[test]
    fn valid_framing_garbage_payloads(ct in 20u8..33, payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let (_, sc, mut rng) = fixture();
        let mut server = ServerConnection::new(sc);
        let mut rec = vec![ct, 3, 3];
        rec.extend((payload.len() as u16).to_be_bytes());
        rec.extend(&payload);
        let _ = server.feed_incoming(&rec, &mut rng);
    }

    /// Mutating a single byte anywhere in the client's first flight:
    /// the server errors or ignores — never panics, never establishes.
    #[test]
    fn mutated_client_hello(idx in any::<prop::sample::Index>(), xor in 1u8..=255) {
        let (cc, sc, mut rng) = fixture();
        let mut client = ClientConnection::new(cc, "s", &mut rng);
        let mut hello = client.take_outgoing();
        let i = idx.index(hello.len());
        hello[i] ^= xor;
        let mut server = ServerConnection::new(sc);
        let _ = server.feed_incoming(&hello, &mut rng);
        prop_assert!(!server.is_established());
    }
}

#[test]
fn handshake_messages_fragmented_across_records() {
    // A ClientHello split over several tiny handshake records must
    // still be reassembled (RFC 5246 §6.2.1 allows arbitrary
    // fragmentation of the handshake stream).
    let (cc, sc, mut rng) = fixture();
    let mut client = ClientConnection::new(cc, "s", &mut rng);
    let hello_record = client.take_outgoing();
    // Strip the record header; re-frame the handshake bytes as many
    // 10-byte records.
    let payload = &hello_record[5..];
    let mut refragmented = Vec::new();
    for piece in payload.chunks(10) {
        refragmented.extend(frame_plaintext(ContentType::Handshake, piece));
    }
    let mut server = ServerConnection::new(sc);
    server.feed_incoming(&refragmented, &mut rng).unwrap();
    // The server responded with its flight — reassembly worked.
    assert!(!server.take_outgoing().is_empty());
}

#[test]
fn full_handshake_byte_by_byte() {
    // Deliver every byte of both directions one at a time.
    let (cc, sc, mut rng) = fixture();
    let mut client = ClientConnection::new(cc, "s", &mut rng);
    let mut server = ServerConnection::new(sc);
    for _ in 0..10 {
        for byte in client.take_outgoing() {
            server.feed_incoming(&[byte], &mut rng).unwrap();
        }
        for byte in server.take_outgoing() {
            client.feed_incoming(&[byte], &mut rng).unwrap();
        }
        if client.is_established() && server.is_established() {
            break;
        }
    }
    assert!(client.is_established() && server.is_established());
}

#[test]
fn failed_connection_stays_failed() {
    let (_, sc, mut rng) = fixture();
    let mut server = ServerConnection::new(sc);
    assert!(server.feed_incoming(&[22, 9, 9, 0, 0], &mut rng).is_err());
    assert!(server.is_failed());
    // Subsequent valid input still errors (fail-closed).
    assert!(server
        .feed_incoming(&frame_plaintext(ContentType::Handshake, b""), &mut rng)
        .is_err());
    // An alert was queued for the peer.
    let out = server.take_outgoing();
    assert_eq!(out[0], 21, "fatal alert queued");
}

#[test]
fn bad_tag_mid_flight_fails_at_that_record_and_stays_failed() {
    // Three protected records in one feed, the second with a flipped
    // tag byte: the shell opens records in its reader's buffer with the
    // reader taken aside, so this is the state that must be left behind
    // when the loop stops early.
    let (cc, sc, mut rng) = fixture();
    let mut client = ClientConnection::new(cc, "s", &mut rng);
    let mut server = ServerConnection::new(sc);
    for _ in 0..10 {
        server.feed_incoming(&client.take_outgoing(), &mut rng).unwrap();
        client.feed_incoming(&server.take_outgoing(), &mut rng).unwrap();
    }
    assert!(client.is_established() && server.is_established());

    let mut records = [&b"one"[..], b"two", b"three"].map(|payload| {
        client.send_data(payload).unwrap();
        client.take_outgoing()
    });
    *records[1].last_mut().unwrap() ^= 1;

    let error = server.feed_incoming(&records.concat(), &mut rng).unwrap_err();
    assert!(server.is_failed());
    // The record before the bad one was applied; nothing after it was.
    assert_eq!(server.take_plaintext(), b"one");
    // Exactly one fatal alert is queued.
    let mut alerts = RecordReader::new();
    alerts.feed(&server.take_outgoing());
    assert_eq!(alerts.next_record_inplace().unwrap().unwrap().content_type_byte(), 21);
    assert!(alerts.next_record_inplace().unwrap().is_none());
    assert_eq!(alerts.buffered(), 0);
    // Every later feed — empty, or the record that was never reached —
    // returns the same error and interprets nothing.
    for later in [&[][..], &records[2]] {
        assert_eq!(server.feed_incoming(later, &mut rng), Err(error.clone()));
        assert!(server.take_plaintext().is_empty());
        assert!(server.take_outgoing().is_empty());
    }
}
