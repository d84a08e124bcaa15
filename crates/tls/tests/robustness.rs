//! Robustness: the TLS state machines must never panic on hostile
//! input — malformed bytes produce errors and alerts, not crashes.

use std::sync::Arc;

use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_tls::alert::Alert;
use mbtls_tls::config::{ClientConfig, ServerConfig};
use mbtls_tls::record::{frame_plaintext, ContentType, RecordReader, MAX_FRAGMENT_LEN};
use mbtls_tls::{ClientConnection, Connection, Handshake, ServerConnection, TlsError};
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

/// A client and server that finished their handshake.
fn established(rng: &mut CryptoRng) -> (ClientConnection, ServerConnection) {
    let (cc, sc, _) = fixture();
    let mut client = ClientConnection::new(cc, "s", rng);
    let mut server = ServerConnection::new(sc);
    for _ in 0..10 {
        server.feed_incoming(&client.take_outgoing(), rng).unwrap();
        client.feed_incoming(&server.take_outgoing(), rng).unwrap();
    }
    assert!(client.is_established() && server.is_established());
    (client, server)
}

/// The fail-closed contract, written once for both roles: `conn` has
/// just failed a feed with `error`. `is_failed()` and `error()` agree
/// with it, exactly one alert is queued — the one `error` maps to —
/// and every later feed returns the same error and interprets nothing.
fn stays_failed<H: Handshake>(
    mut conn: Connection<H>,
    error: TlsError,
    later: &[&[u8]],
    rng: &mut CryptoRng,
) {
    assert!(conn.is_failed() && !conn.is_established());
    assert_eq!(conn.error(), Some(&error));
    let mut alerts = RecordReader::new();
    alerts.feed(&conn.take_outgoing());
    let alert = alerts.next_record_inplace().unwrap().unwrap();
    assert_eq!(alert.content_type_byte(), 21);
    assert_eq!(Alert::decode(alert.body()), Ok(Alert::for_error(&error)));
    assert!(alerts.next_record_inplace().unwrap().is_none());
    assert_eq!(alerts.buffered(), 0);
    for bytes in later {
        assert_eq!(conn.feed_incoming(bytes, rng), Err(error.clone()));
        assert_eq!(conn.error(), Some(&error));
        assert!(conn.take_plaintext().is_empty());
        assert!(conn.take_outgoing().is_empty());
        assert_eq!(conn.send_data(b"x"), Err(TlsError::HandshakeNotDone));
    }
}

#[test]
fn failed_connection_stays_failed() {
    fn poisoned<H: Handshake>(mut conn: Connection<H>, rng: &mut CryptoRng) {
        let _ = conn.take_outgoing();
        let bad_version = [22, 9, 9, 0, 0];
        let error = conn.feed_incoming(&bad_version, rng).unwrap_err();
        // Subsequent valid input still errors (fail-closed).
        let valid = frame_plaintext(ContentType::Handshake, b"");
        stays_failed(conn, error, &[&valid, &[], &bad_version], rng);
    }
    let (cc, sc, mut rng) = fixture();
    poisoned(ClientConnection::new(cc, "s", &mut rng), &mut rng);
    poisoned(ServerConnection::new(sc), &mut rng);
}

#[test]
fn bad_tag_mid_flight_fails_at_that_record_and_stays_failed() {
    // Three protected records in one feed, the second with a flipped
    // tag byte: the connection opens records in its reader's buffer
    // with the reader taken aside, so this is the state that must be
    // left behind when the loop stops early.
    fn poisoned<S: Handshake, R: Handshake>(
        sender: &mut Connection<S>,
        mut receiver: Connection<R>,
        rng: &mut CryptoRng,
    ) {
        let mut records = [&b"one"[..], b"two", b"three"].map(|payload| {
            sender.send_data(payload).unwrap();
            sender.take_outgoing()
        });
        *records[1].last_mut().unwrap() ^= 1;

        let error = receiver.feed_incoming(&records.concat(), rng).unwrap_err();
        // The record before the bad one was applied; nothing after it
        // was, and the record that was never reached never will be.
        assert_eq!(receiver.take_plaintext(), b"one");
        stays_failed(receiver, error, &[&[], &records[2]], rng);
    }
    let (_, _, mut rng) = fixture();
    let (mut client, server) = established(&mut rng);
    poisoned(&mut client, server, &mut rng);
    let (client, mut server) = established(&mut rng);
    poisoned(&mut server, client, &mut rng);
}

#[test]
fn oversized_record_fails_with_record_overflow() {
    // One byte of plaintext past 2^14 (RFC 5246 §6.2.1) under a valid
    // tag, sealed by hand with the client's live write key because
    // `fragment` never builds such a record: the server refuses it by
    // its length and sends record_overflow.
    let (_, _, mut rng) = fixture();
    let (client, mut server) = established(&mut rng);
    let keys = client.export_session_keys().unwrap();
    let gcm = AesGcm::new(&keys.client_write_key).unwrap();
    let explicit = keys.client_to_server_seq.to_be_bytes();
    let nonce: [u8; 12] = [&keys.client_write_iv[..], &explicit].concat().try_into().unwrap();
    let len = MAX_FRAGMENT_LEN + 1;
    let aad = [&explicit[..], &[23, 3, 3], &(len as u16).to_be_bytes()].concat();
    let mut body = vec![0x61; len];
    let tag = gcm.seal_in_place(&nonce, &aad, &mut body).unwrap();
    let wire_len = (explicit.len() + len + tag.len()) as u16;
    let record = [&[23, 3, 3][..], &wire_len.to_be_bytes(), &explicit, &body, &tag].concat();

    let error = server.feed_incoming(&record, &mut rng).unwrap_err();
    assert_eq!(error, TlsError::RecordOverflow);
    assert!(server.take_plaintext().is_empty());
    stays_failed(server, error, &[&[], &record], &mut rng);
}
