//! Figure 3 — the mbTLS handshake message flow, captured record by
//! record on each link and asserted against the paper's diagram.

use std::sync::Arc;

use mbtls_core::attacks::{settle, Testbed};
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, LegacyClient, TapLinks};
use mbtls_core::messages::Encapsulated;
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::record::RecordReader;

/// Parse a captured stream into (content-type, first-handshake-byte)
/// pairs; Encapsulated records are labelled with their subchannel.
fn record_log(stream: &[u8]) -> Vec<String> {
    let mut reader = RecordReader::new();
    reader.feed(stream);
    let mut out = Vec::new();
    while let Ok(Some(rec)) = reader.next_record_inplace() {
        let label = match rec.content_type_byte() {
            20 => "CCS".to_string(),
            21 => "Alert".to_string(),
            22 => match rec.body().first() {
                Some(1) => "HS:ClientHello".to_string(),
                Some(2) => "HS:ServerHello".to_string(),
                Some(4) => "HS:NewSessionTicket".to_string(),
                Some(11) => "HS:Certificate".to_string(),
                Some(12) => "HS:ServerKeyExchange".to_string(),
                Some(14) => "HS:ServerHelloDone".to_string(),
                Some(16) => "HS:ClientKeyExchange".to_string(),
                Some(17) => "HS:SgxAttestation".to_string(),
                _ => "HS:<encrypted>".to_string(),
            },
            23 => "AppData".to_string(),
            30 => {
                let enc = Encapsulated::decode(rec.body()).unwrap();
                format!("Encap[{}]", enc.subchannel)
            }
            31 => "KeyMaterial".to_string(),
            32 => "Announcement".to_string(),
            other => format!("CT{other}"),
        };
        out.push(label);
    }
    out
}

/// Run `chain`'s handshake (client, one middlebox, server) to
/// quiescence and return what crossed each hop: client → middlebox,
/// middlebox → server, server → middlebox, middlebox → client.
fn capture(chain: &mut Chain) -> [Vec<u8>; 4] {
    let mut hops: [Vec<u8>; 4] = Default::default();
    let mut links = TapLinks::new(2, |link, rightward, bytes: &[u8]| {
        let hop = if rightward { link } else { 3 - link };
        hops[hop].extend_from_slice(bytes);
    });
    settle(chain, &mut links).unwrap();
    hops
}

#[test]
fn transcript_matches_figure3_client_side() {
    let tb = Testbed::new(0xF13);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(1),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(2));
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(3));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));

    let [client_to_mbox, mbox_to_server, _, mbox_to_client] = capture(&mut chain);
    assert!(chain.client.ready() && chain.server.ready());
    assert!(chain.party::<Middlebox>(1).unwrap().has_keys());

    // --- Link client→mbox (top half of Fig. 3) -------------------
    let log = record_log(&client_to_mbox);
    // First flight: the primary ClientHello (with MiddleboxSupport).
    assert_eq!(log[0], "HS:ClientHello");
    // Second flight: primary CKE+CCS+Finished interleaved with
    // secondary-handshake Encapsulated records, then KeyMaterial on
    // the secondary channel.
    assert!(log.contains(&"HS:ClientKeyExchange".to_string()), "{log:?}");
    assert!(log.contains(&"CCS".to_string()));
    let encap_count = log.iter().filter(|l| l.starts_with("Encap[")).count();
    assert!(encap_count >= 2, "secondary CKE/CCS/Fin + KeyMaterial: {log:?}");
    // KeyMaterial rides *inside* Encapsulated records (encrypted
    // secondary data), never as a bare record on this link.
    assert!(!log.contains(&"KeyMaterial".to_string()));

    // --- Link mbox→client ----------------------------------------
    let log = record_log(&mbox_to_client);
    // The middlebox injects its Encapsulated secondary ServerHello
    // *before* forwarding the primary ServerHello (§3.4).
    let first_encap = log.iter().position(|l| l.starts_with("Encap[")).unwrap();
    let primary_sh = log.iter().position(|l| l == "HS:ServerHello").unwrap();
    assert!(
        first_encap < primary_sh,
        "secondary flight must precede the primary ServerHello: {log:?}"
    );

    // --- Link mbox→server ----------------------------------------
    let log = record_log(&mbox_to_server);
    // The ClientHello is forwarded verbatim; no Encapsulated records
    // leak past the middlebox toward the server; no announcement
    // (this box joined the client side).
    assert_eq!(log[0], "HS:ClientHello");
    assert!(!log.iter().any(|l| l.starts_with("Encap[")), "{log:?}");
    assert!(!log.contains(&"Announcement".to_string()));
}

#[test]
fn transcript_server_side_announcement_flow() {
    let tb = Testbed::new(0xF14);
    let mut rng = CryptoRng::from_seed(4);
    let client = LegacyClient::new(
        mbtls_tls::ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut rng,
        ),
        rng.fork(),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(5));
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(6));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));

    let [_, mbox_to_server, server_to_mbox, _] = capture(&mut chain);
    assert!(chain.party::<Middlebox>(1).unwrap().has_keys());

    // mbox→server: ClientHello forwarded, then the announcement, then
    // the middlebox's secondary flight in Encapsulated records.
    let log = record_log(&mbox_to_server);
    assert_eq!(log[0], "HS:ClientHello");
    assert_eq!(log[1], "Announcement", "{log:?}");
    assert!(log.iter().any(|l| l.starts_with("Encap[")));

    // server→mbox: the server's primary flight, then its Encapsulated
    // secondary ClientHello (the server plays the TLS client role).
    let log = record_log(&server_to_mbox);
    assert_eq!(log[0], "HS:ServerHello");
    let first_encap = log.iter().position(|l| l.starts_with("Encap[")).unwrap();
    let done = log.iter().position(|l| l == "HS:ServerHelloDone").unwrap();
    assert!(first_encap > done, "secondary CH follows the primary flight: {log:?}");
}
