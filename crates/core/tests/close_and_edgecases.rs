//! Graceful close through middleboxes, plus protocol edge cases.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::FlowDirection;
use mbtls_core::driver::{Chain, LegacyClient, Relay};
use mbtls_core::messages::{Encapsulated, MiddleboxSupport};
use mbtls_core::middlebox::{DataProcessor, Middlebox, MiddleboxPhase};
use mbtls_core::server::MbServerSession;
use mbtls_core::{MbError, ProtocolViolation};
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::config::ClientConfig;
use mbtls_tls::record::{frame_plaintext, ContentType};
use mbtls_tls::ClientConnection;

#[test]
fn close_notify_traverses_middlebox() {
    let tb = Testbed::new(0xC105E);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(1),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(2));
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(3));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.party::<Middlebox>(1).unwrap().has_keys());

    // Interleave data and close in the same flush: the close arrives
    // after the data, re-encrypted at each hop.
    let client = chain.party::<MbClientSession>(0).unwrap();
    client.send(b"last words").unwrap();
    client.close().unwrap();
    chain.pump().unwrap();
    let server = chain.party::<MbServerSession>(2).unwrap();
    assert_eq!(server.recv(), b"last words");
    assert!(server.peer_closed(), "close_notify delivered through the hop chain");

    // The server can close back.
    server.close().unwrap();
    chain.pump().unwrap();
    assert!(chain.party::<MbClientSession>(0).unwrap().peer_closed());
}

#[test]
fn close_notify_direct_session() {
    let tb = Testbed::new(0xC106);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(4),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(5));
    let mut chain = Chain::new(Box::new(client), vec![], Box::new(server));
    chain.run_handshake().unwrap();
    let client = chain.party::<MbClientSession>(0).unwrap();
    client.close().unwrap();
    // One hop by hand: the close reaches the server and nothing comes
    // back, so the client has not seen a close of its own.
    let close = client.take_outgoing();
    let server = chain.party::<MbServerSession>(1).unwrap();
    server.feed_incoming(&close).unwrap();
    assert!(server.peer_closed());
    assert!(!chain.party::<MbClientSession>(0).unwrap().peer_closed());
}

/// An Encapsulated record on `subchannel` carrying one handshake
/// record (a HelloRequest).
fn late_encapsulated(subchannel: u8) -> Vec<u8> {
    let record = frame_plaintext(ContentType::Handshake, &[0, 0, 0, 0]);
    frame_plaintext(ContentType::MbtlsEncapsulated, &Encapsulated { subchannel, record }.encode())
}

#[test]
fn encapsulated_records_after_key_delivery_fail_the_session() {
    // Key delivery ends every secondary session, so a later
    // Encapsulated record has no session to go to: one on the approved
    // middlebox's own subchannel fails the session as surely as one
    // on a subchannel nobody owns, at either end.
    let tb = Testbed::new(0xC10B);
    let bad_hop = |e: &MbError| matches!(e, MbError::Protocol(ProtocolViolation::BadHopId(_)));
    for (case, own) in [("approved subchannel", true), ("unknown subchannel", false)] {
        // Client end, one client-side middlebox.
        let client = MbClientSession::new(
            Arc::new(tb.client_config()),
            "server.example",
            CryptoRng::from_seed(11),
        );
        let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(12));
        let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(13));
        let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
        chain.run_handshake().unwrap();
        assert!(chain.party::<Middlebox>(1).unwrap().has_keys(), "{case}");
        // The late record is injected straight into the client.
        let client = chain.party::<MbClientSession>(0).unwrap();
        let joined = client.middleboxes();
        assert!(joined.len() == 1 && joined[0].approved, "{case}: {joined:?}");
        let id = if own { joined[0].subchannel } else { 200 };
        let error = client.feed_incoming(&late_encapsulated(id)).expect_err(case);
        assert!(bad_hop(&error), "client, {case}: {error:?}");
        assert_eq!(client.error(), Some(error), "client, {case}");
        assert_eq!(client.middleboxes(), joined, "client, {case}");

        // Server end, one server-side middlebox (a legacy client, so
        // the middlebox announces itself to the server).
        let mut rng = CryptoRng::from_seed(14);
        let tls = Arc::new(ClientConfig::new(tb.server_trust.clone()));
        let conn = ClientConnection::new(tls, "server.example", &mut rng);
        let client = LegacyClient::new(conn, rng);
        let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(15));
        let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(16));
        let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
        chain.run_handshake().unwrap();
        assert!(chain.party::<Middlebox>(1).unwrap().has_keys(), "{case}");
        let server = chain.party::<MbServerSession>(2).unwrap();
        let joined = server.middleboxes();
        assert!(joined.len() == 1 && joined[0].approved, "{case}: {joined:?}");
        let id = if own { joined[0].subchannel } else { 200 };
        let error = server.feed_incoming(&late_encapsulated(id)).expect_err(case);
        assert!(bad_hop(&error), "server, {case}: {error:?}");
        assert_eq!(server.error(), Some(error), "server, {case}");
        assert_eq!(server.middleboxes(), joined, "server, {case}");
    }
}

#[test]
fn preconfigured_names_travel_in_extension() {
    // The MiddleboxSupport extension carries pre-configured middlebox
    // names; the middlebox (and any observer) can decode them.
    let tb = Testbed::new(0xC107);
    let mut cfg = tb.client_config();
    cfg.preconfigured = vec!["proxy.msp.example".into(), "ids.corp.example".into()];
    let mut client =
        MbClientSession::new(Arc::new(cfg), "server.example", CryptoRng::from_seed(6));
    let hello_bytes = client.take_outgoing();

    // Find the extension payload on the wire.
    let needle = [0xFFu8, 0x77];
    let pos = hello_bytes
        .windows(2)
        .position(|w| w == needle)
        .expect("MiddleboxSupport extension present");
    let len = u16::from_be_bytes([hello_bytes[pos + 2], hello_bytes[pos + 3]]) as usize;
    let payload = &hello_bytes[pos + 4..pos + 4 + len];
    let decoded = MiddleboxSupport::decode(payload).expect("decodable");
    assert_eq!(
        decoded.preconfigured,
        vec!["proxy.msp.example".to_string(), "ids.corp.example".to_string()]
    );
}

#[test]
fn send_before_ready_is_rejected() {
    let tb = Testbed::new(0xC108);
    let mut client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(7),
    );
    assert!(client.send(b"too early").is_err());
    assert!(client.close().is_err());
    assert!(client.recv().is_empty());
}

#[test]
fn many_middleboxes_unique_subchannels() {
    // Six middleboxes: all join, all get distinct subchannel IDs, data
    // traverses all of them in order.
    let tb = Testbed::new(0xC109);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(8),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(9));
    let mboxes: Vec<Box<dyn Relay>> = (0..6)
        .map(|i| {
            Box::new(Middlebox::new(
                tb.middlebox_config(&tb.mbox_code),
                CryptoRng::from_seed(100 + i),
            )) as Box<dyn Relay>
        })
        .collect();
    let mut chain = Chain::new(Box::new(client), mboxes, Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.client.ready() && chain.server.ready());
    assert!((1..=6).all(|i| chain.party::<Middlebox>(i).unwrap().has_keys()));
    let mut ids: Vec<u8> =
        (1..=6).map(|i| chain.party::<Middlebox>(i).unwrap().subchannel.unwrap()).collect();
    let orig = ids.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6, "subchannel IDs unique: {orig:?}");
    assert_eq!(chain.party::<MbClientSession>(0).unwrap().middleboxes().len(), 6);

    let got = chain.client_to_server(b"through six boxes", 17).unwrap();
    assert_eq!(got, b"through six boxes");
    for i in 1..=6 {
        assert_eq!(chain.party::<Middlebox>(i).unwrap().records_processed(), 1);
    }
}

#[test]
fn middlebox_relays_non_tls_streams() {
    // A middlebox that sees something other than TLS becomes a relay.
    let tb = Testbed::new(0xC10A);
    let mut mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(10));
    // SSH banner, definitely not a TLS record (version byte wrong) —
    // record parsing fails, the middlebox reports an error rather
    // than corrupting the stream.
    let result = mb.feed_from_client(b"SSH-2.0-OpenSSH_9.7\r\n");
    assert!(result.is_err(), "non-TLS bytes are a record-layer error");
}

/// A record-layer version no in-repo sender writes but every real TLS
/// client puts on its ClientHello; the reader accepts any 3.x.
const LEGACY_MINOR: u8 = 1;

/// An application-data record framed `03 01`.
fn legacy_framed_data() -> Vec<u8> {
    vec![23, 3, LEGACY_MINOR, 0, 3, 9, 9, 9]
}

fn middlebox(tb: &Testbed, seed: u64) -> Middlebox {
    Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(seed))
}

/// (what the middlebox was fed, what it forwarded). The rows feed the
/// middlebox one hop at a time by hand: each crafts, rewrites or holds
/// back the bytes of one hop, which a `Chain` would carry on as sent.
type Relayed = (Vec<u8>, Vec<u8>);
/// One row of the relay table: what it covers, and the scenario.
type RelayRow = (&'static str, fn() -> Relayed);

fn non_handshake_first_record() -> Relayed {
    let tb = Testbed::new(0xC10B);
    let mut mb = middlebox(&tb, 11);
    let fed = legacy_framed_data();
    mb.feed_from_client(&fed).unwrap();
    assert_eq!(mb.phase(), MiddleboxPhase::Relay);
    (fed, mb.take_toward_server())
}

fn client_hello_while_deciding() -> Relayed {
    let tb = Testbed::new(0xC10C);
    let mut client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(12),
    );
    let mut mb = middlebox(&tb, 13);
    let mut fed = client.take_outgoing();
    fed[2] = LEGACY_MINOR;
    mb.feed_from_client(&fed).unwrap();
    assert_eq!(mb.phase(), MiddleboxPhase::ClientSideJoining);
    (fed, mb.take_toward_server())
}

fn early_data_flushed_on_give_up() -> Relayed {
    let tb = Testbed::new(0xC10D);
    let mut rng = CryptoRng::from_seed(14);
    let tls_cfg = mbtls_tls::config::ClientConfig::new(tb.server_trust.clone());
    let mut legacy =
        mbtls_tls::ClientConnection::new(Arc::new(tls_cfg), "server.example", &mut rng);
    let mut mb = middlebox(&tb, 15);
    // No MiddleboxSupport extension: the middlebox announces itself
    // and waits for the server to claim it.
    mb.feed_from_client(&legacy.take_outgoing()).unwrap();
    assert_eq!(mb.phase(), MiddleboxPhase::ServerSideAwaitClaim);
    let _hello_and_announcement = mb.take_toward_server();
    let fed = legacy_framed_data();
    mb.feed_from_client(&fed).unwrap();
    assert!(mb.take_toward_server().is_empty(), "held until the keys arrive");
    // A ChangeCipherSpec from a server that never claimed us: give up.
    mb.feed_from_server(&[20, 3, 3, 0, 1, 1]).unwrap();
    assert_eq!(mb.phase(), MiddleboxPhase::Relay);
    (fed, mb.take_toward_server())
}

fn early_data_reentering_a_read_only_hop() -> Relayed {
    let tb = Testbed::new(0xC10E);
    let mut client_cfg = tb.client_config();
    client_cfg.read_only_middleboxes = true;
    let mut client =
        MbClientSession::new(Arc::new(client_cfg), "server.example", CryptoRng::from_seed(16));
    let mut server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(17));
    let mut mb = middlebox(&tb, 18);
    let mut fed = Vec::new();
    // Driven by hand: the response has its header rewritten on its
    // hop and must reach the middlebox before the keys do.
    for _ in 0..60 {
        mb.feed_from_client(&client.take_outgoing()).unwrap();
        server.feed_incoming(&mb.take_toward_server()).unwrap();
        mb.feed_from_server(&server.take_outgoing()).unwrap();
        if server.is_ready() && fed.is_empty() {
            // The server is done before the client has even seen its
            // Finished, let alone keyed the middlebox: its first
            // response overtakes the keys.
            server.send(b"early response").unwrap();
            fed = server.take_outgoing();
            fed[2] = LEGACY_MINOR;
            client.feed_incoming(&mb.take_toward_client()).unwrap();
            mb.feed_from_server(&fed).unwrap();
            assert!(!mb.has_keys());
            assert!(mb.take_toward_client().is_empty(), "held until the keys arrive");
        }
        if mb.has_keys() {
            break;
        }
        client.feed_incoming(&mb.take_toward_client()).unwrap();
    }
    assert!(!fed.is_empty() && mb.has_keys());
    let forwarded = mb.take_toward_client();
    // The hop is aliased, so the middlebox holds no key to re-seal it
    // under: the record left as it arrived, and it still opens at the
    // client.
    client.feed_incoming(&forwarded).unwrap();
    assert_eq!(client.recv(), b"early response");
    (fed, forwarded)
}

/// Reads every record and declares nothing, so it is handed the
/// plaintext even on an aliased hop.
struct Inspector;

impl DataProcessor for Inspector {
    fn process(&mut self, _dir: FlowDirection, data: Vec<u8>) -> Vec<u8> {
        data
    }
}

fn data_through_an_aliased_inspecting_hop() -> Relayed {
    let tb = Testbed::new(0xC10F);
    let mut client_cfg = tb.client_config();
    client_cfg.read_only_middleboxes = true;
    let client =
        MbClientSession::new(Arc::new(client_cfg), "server.example", CryptoRng::from_seed(19));
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(20));
    let cfg = tb.middlebox_config(&tb.mbox_code);
    let mb = Middlebox::with_processor(cfg, CryptoRng::from_seed(21), Box::new(Inspector));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().unwrap();
    assert!(chain.party::<Middlebox>(1).unwrap().has_keys());
    // The record goes hop by hop: its header is rewritten on the way
    // in, and both sides of the middlebox are kept for the row.
    let client = chain.party::<MbClientSession>(0).unwrap();
    client.send(b"inspected").unwrap();
    let mut fed = client.take_outgoing();
    fed[2] = LEGACY_MINOR;
    let mb = chain.party::<Middlebox>(1).unwrap();
    mb.feed_from_client(&fed).unwrap();
    let forwarded = mb.take_toward_server();
    let server = chain.party::<MbServerSession>(2).unwrap();
    server.feed_incoming(&forwarded).unwrap();
    assert_eq!(server.recv(), b"inspected");
    (fed, forwarded)
}

#[test]
fn a_relayed_record_leaves_byte_for_byte_as_it_arrived() {
    // Whatever the middlebox does not open it passes on untouched,
    // header included: a transparent relay must not rewrite the
    // record-layer version (§3.5; the §5.1 legacy-interop survey).
    let rows: [RelayRow; 5] = [
        ("non-handshake first record, to Relay", non_handshake_first_record),
        ("ClientHello framed 03 01, middlebox deciding", client_hello_while_deciding),
        ("early data held before keys, flushed on give-up", early_data_flushed_on_give_up),
        ("early data re-entering an aliased read-only hop", early_data_reentering_a_read_only_hop),
        ("data framed 03 01, aliased hop, undeclared processor", data_through_an_aliased_inspecting_hop),
    ];
    for (name, row) in rows {
        let (fed, forwarded) = row();
        assert_eq!(forwarded, fed, "{name}");
    }
}
