//! Single-fault table over the six signatures a fresh session through
//! one SGX-attested middlebox verifies: the server's certificate and
//! ServerKeyExchange, the middlebox's certificate and
//! ServerKeyExchange, and the two in its quote (the attestation
//! root's endorsement of the platform key, the platform's signature
//! over the quote).
//!
//! Each row breaks one signature at its source — a bit flipped in a
//! certificate or quote signature, a ServerKeyExchange signed with a
//! key the certificate does not name — so that nothing but the
//! signature check can notice (a flip in flight would trip the
//! quote's transcript binding or the Finished first), and states
//! where the failure surfaces. The two primary signatures fail the
//! session from inside the TLS client, before its ClientKeyExchange
//! is queued, with the error and alert of the check that failed; the
//! four middlebox signatures are one group, discharged by the
//! endpoint that runs the secondary handshake, and a failure anywhere
//! in it fails that secondary connection alone: one fatal alert on
//! its subchannel, the middlebox left a relay with no KeyMaterial,
//! the session established around it.
//!
//! The table runs with the middlebox on the client's side (the
//! client verifies all six) and on the server's (a plain TLS client
//! verifies the primary two, the server the middlebox's four), each
//! with the checks verified where they are collected and with
//! `defer_verify` parking them for a driver, which this test plays.

use std::sync::Arc;

use mbtls_core::attacks::{PakAttestor, Testbed};
use mbtls_core::client::MbClientSession;
use mbtls_core::messages::Encapsulated;
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::ed25519::{verify_checks, SigningKey};
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::CryptoError;
use mbtls_pki::cert::CertifiedKey;
use mbtls_pki::CertError;
use mbtls_sgx::Quote;
use mbtls_tls::alert::{Alert, AlertDescription};
use mbtls_tls::config::Attestor;
use mbtls_tls::record::ContentType;
use mbtls_tls::{ClientConnection, TlsError};

const SEED: u64 = 0x516_FA17;

/// The six signatures, in the order a client collects them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    ServerCertificate,
    ServerKeyExchange,
    MiddleboxCertificate,
    MiddleboxKeyExchange,
    QuoteEndorsement,
    QuoteSignature,
}

const FAULTS: [Fault; 6] = [
    Fault::ServerCertificate,
    Fault::ServerKeyExchange,
    Fault::MiddleboxCertificate,
    Fault::MiddleboxKeyExchange,
    Fault::QuoteEndorsement,
    Fault::QuoteSignature,
];

impl Fault {
    fn on_the_primary(self) -> bool {
        matches!(self, Fault::ServerCertificate | Fault::ServerKeyExchange)
    }
}

/// `key` with its leaf certificate's signature one bit off.
fn forged_certificate(key: &CertifiedKey) -> CertifiedKey {
    let mut forged = CertifiedKey { key: key.key.clone(), chain: key.chain.clone() };
    forged.chain[0].signature.0[40] ^= 1;
    forged
}

/// `key`'s chain over a signing key it does not certify: every
/// ServerKeyExchange it signs fails under the certificate's key.
fn forged_key_exchange(key: &CertifiedKey, rng: &mut CryptoRng) -> CertifiedKey {
    CertifiedKey { key: SigningKey::generate(rng), chain: key.chain.clone() }
}

/// An attestor whose quotes carry one signature one bit off.
struct ForgingAttestor {
    inner: PakAttestor,
    fault: Option<Fault>,
}

impl Attestor for ForgingAttestor {
    fn quote(&self, report_data: [u8; 64]) -> Quote {
        let mut quote = self.inner.quote(report_data);
        match self.fault {
            Some(Fault::QuoteEndorsement) => quote.endorsement.0[40] ^= 1,
            Some(Fault::QuoteSignature) => quote.signature.0[40] ^= 1,
            _ => {}
        }
        quote
    }
}

/// The records of `stream`, as `(content type, body)`.
fn records(stream: &[u8]) -> Vec<(u8, &[u8])> {
    let mut out = Vec::new();
    let mut rest = stream;
    while let [typ, _, _, hi, lo, tail @ ..] = rest {
        let (body, tail) = tail.split_at(usize::from(u16::from_be_bytes([*hi, *lo])));
        out.push((*typ, body));
        rest = tail;
    }
    assert!(rest.is_empty(), "parties emit whole records");
    out
}

/// Every alert in `stream`: `(subchannel it was encapsulated on, alert)`.
fn alerts(stream: &[u8]) -> Vec<(Option<u8>, Alert)> {
    let mut out = Vec::new();
    for (typ, body) in records(stream) {
        if typ == ContentType::Alert.to_u8() {
            out.push((None, Alert::decode(body).expect("alert")));
        } else if typ == ContentType::MbtlsEncapsulated.to_u8() {
            let (id, inner) = Encapsulated::split(body).expect("encapsulated");
            if let [(typ, body)] = records(inner)[..] {
                if typ == ContentType::Alert.to_u8() {
                    out.push((Some(id), Alert::decode(body).expect("alert")));
                }
            }
        }
    }
    out
}

/// The party at the client end: an mbTLS client, or plain TLS.
enum Client {
    Mbtls(Box<MbClientSession>),
    Plain(Box<ClientConnection>, CryptoRng),
}

impl Client {
    fn feed(&mut self, data: &[u8]) {
        // A failed feed is what some rows are about; the failure is
        // read back from the party afterwards.
        let _ = match self {
            Client::Mbtls(c) => c.feed_incoming(data).map_err(|_| ()),
            Client::Plain(c, rng) => c.feed_incoming(data, rng).map_err(|_| ()),
        };
    }
    fn take(&mut self) -> Vec<u8> {
        match self {
            Client::Mbtls(c) => c.take_outgoing(),
            Client::Plain(c, _) => c.take_outgoing(),
        }
    }
    fn error(&self) -> Option<TlsError> {
        match self {
            Client::Mbtls(c) => match c.error() {
                Some(MbError::Tls(e)) => Some(e),
                Some(other) => panic!("client failed outside TLS: {other:?}"),
                None => None,
            },
            Client::Plain(c, _) => c.error().cloned(),
        }
    }
    fn ready(&self) -> bool {
        match self {
            Client::Mbtls(c) => c.is_ready(),
            Client::Plain(c, _) => c.is_established(),
        }
    }
}

struct Session {
    client: Client,
    mbox: Middlebox,
    server: MbServerSession,
    /// Deliver deferred verdicts, as a batching driver would.
    deferred: bool,
    /// Everything the two endpoints put on their links, for the alert
    /// assertions.
    from_client: Vec<u8>,
    from_server: Vec<u8>,
}

impl Session {
    /// Client, middlebox and server from one seeded testbed, with
    /// `fault` (if any) built into the party that signs it.
    fn new(server_side: bool, deferred: bool, fault: Option<Fault>) -> Session {
        let tb = Testbed::new(SEED);
        let mut rng = CryptoRng::from_seed(SEED ^ 0xFA);
        let mut client_cfg = tb.client_config();
        client_cfg.tls.defer_verify = deferred;
        let client = if server_side {
            // A plain TLS client: the middlebox finds no
            // MiddleboxSupport extension and announces itself to the
            // server instead.
            let mut client_rng = rng.fork();
            let conn =
                ClientConnection::new(Arc::new(client_cfg.tls), "server.example", &mut client_rng);
            Client::Plain(Box::new(conn), client_rng)
        } else {
            let session = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
            Client::Mbtls(Box::new(session))
        };

        let mut server_cfg = tb.server_config();
        match fault {
            Some(Fault::ServerCertificate) => {
                server_cfg.tls.certified_key = Arc::new(forged_certificate(&tb.server_key));
            }
            Some(Fault::ServerKeyExchange) => {
                server_cfg.tls.certified_key =
                    Arc::new(forged_key_exchange(&tb.server_key, &mut rng));
            }
            _ => {}
        }

        let mbox_key = match fault {
            Some(Fault::MiddleboxCertificate) => Arc::new(forged_certificate(&tb.mbox_key)),
            Some(Fault::MiddleboxKeyExchange) => {
                Arc::new(forged_key_exchange(&tb.mbox_key, &mut rng))
            }
            _ => tb.mbox_key.clone(),
        };
        let attestor = ForgingAttestor {
            inner: PakAttestor { pak: tb.pak.clone(), measurement: tb.mbox_code.measure() },
            fault,
        };
        let mbox_cfg = MiddleboxConfig::builder("proxy.msp.example", mbox_key)
            .attestor(Arc::new(attestor))
            .build()
            .expect("middlebox config");

        Session {
            client,
            server: MbServerSession::new(Arc::new(server_cfg), rng.fork()),
            mbox: Middlebox::new(mbox_cfg, rng.fork()),
            deferred,
            from_client: Vec::new(),
            from_server: Vec::new(),
        }
    }

    /// One pass: every party's output moves one link.
    fn pass(&mut self) -> bool {
        let to_mbox = self.client.take();
        self.from_client.extend_from_slice(&to_mbox);
        let _ = self.mbox.feed_from_client(&to_mbox);
        let to_server = self.mbox.take_toward_server();
        let _ = self.server.feed_incoming(&to_server);
        let from_server = self.server.take_outgoing();
        self.from_server.extend_from_slice(&from_server);
        let _ = self.mbox.feed_from_server(&from_server);
        let to_client = self.mbox.take_toward_client();
        self.client.feed(&to_client);
        [to_mbox, to_server, from_server, to_client].iter().any(|bytes| !bytes.is_empty())
    }

    /// Pump to quiescence, delivering deferred verdicts in between.
    fn settle(&mut self) {
        for _ in 0..100 {
            while self.pass() {}
            if !self.deliver_verdicts() {
                return;
            }
        }
        panic!("session never went quiet");
    }

    fn deliver_verdicts(&mut self) -> bool {
        if !self.deferred {
            return false;
        }
        match &mut self.client {
            Client::Mbtls(c) => {
                let mut pending = Vec::new();
                c.take_pending_verifies(&mut pending);
                for group in &pending {
                    c.resolve_verify(group.token, verify_checks(&group.checks).all_valid());
                }
                !pending.is_empty()
            }
            Client::Plain(c, _) => match c.take_pending_verify() {
                Some(checks) => {
                    c.resolve_verify(verify_checks(&checks).all_valid());
                    true
                }
                None => false,
            },
        }
    }
}

fn run_row(server_side: bool, deferred: bool, fault: Fault) {
    let row = format!(
        "{fault:?} / middlebox on the {} side / {}",
        if server_side { "server's" } else { "client's" },
        if deferred { "deferred" } else { "inline" },
    );
    let mut s = Session::new(server_side, deferred, Some(fault));
    s.settle();
    let client_alerts = alerts(&s.from_client);
    let server_alerts = alerts(&s.from_server);

    if fault.on_the_primary() {
        // The session fails at the TLS client. Verified there, the
        // error names the check that failed, its alert goes out, and
        // no ClientKeyExchange was ever queued; parked for a driver,
        // the verdict is one bit and the failure a bad signature.
        let expect = match (deferred, fault) {
            (false, Fault::ServerCertificate) => TlsError::Certificate(CertError::BadSignature),
            _ => TlsError::Crypto(CryptoError::BadSignature),
        };
        assert_eq!(s.client.error(), Some(expect.clone()), "{row}");
        assert_eq!(client_alerts, vec![(None, Alert::for_error(&expect))], "{row}");
        assert!(!s.client.ready(), "{row}");
        if !deferred {
            // Hello, then the alert and nothing else (a secondary
            // handshake on a subchannel goes its own way).
            let primary_records = records(&s.from_client)
                .iter()
                .filter(|(typ, _)| *typ != ContentType::MbtlsEncapsulated.to_u8())
                .count();
            assert_eq!(primary_records, 2, "{row}: no ClientKeyExchange was queued");
            assert!(!s.server.is_ready(), "{row}");
        }
        return;
    }

    // A middlebox fault: the secondary connection that owed the group
    // fails with a bad signature — whichever of the four it was — and
    // says so once on its subchannel. The session stands; the
    // middlebox got no keys.
    let alert = Alert::fatal(AlertDescription::DecryptError);
    assert_eq!(alert, Alert::for_error(&TlsError::Crypto(CryptoError::BadSignature)));
    let (verifier_alerts, other_alerts, boxes) = match &s.client {
        Client::Mbtls(c) => (&client_alerts, &server_alerts, c.middleboxes()),
        Client::Plain(..) => (&server_alerts, &client_alerts, s.server.middleboxes()),
    };
    assert_eq!(boxes.len(), 1, "{row}");
    assert!(!boxes[0].approved && boxes[0].name.is_none(), "{row}: {boxes:?}");
    assert_eq!(verifier_alerts, &vec![(Some(boxes[0].subchannel), alert)], "{row}");
    assert!(other_alerts.is_empty(), "{row}: {other_alerts:?}");
    assert!(s.client.error().is_none() && s.server.error().is_none(), "{row}");
    assert!(s.client.ready() && s.server.is_ready(), "{row}: session established");
    assert!(!s.mbox.has_keys(), "{row}: no KeyMaterial for a rejected middlebox");

    // And it carries data, through the middlebox as a relay.
    match &mut s.client {
        Client::Mbtls(c) => c.send(b"ping").expect("send"),
        Client::Plain(c, _) => c.send_data(b"ping").expect("send"),
    }
    s.settle();
    assert_eq!(s.server.recv(), b"ping", "{row}");
    s.server.send(b"pong").expect("send");
    s.settle();
    let got = match &mut s.client {
        Client::Mbtls(c) => c.recv(),
        Client::Plain(c, _) => c.take_plaintext(),
    };
    assert_eq!(got, b"pong", "{row}");
}

#[test]
fn each_of_the_six_signatures_fails_where_the_table_says() {
    for server_side in [false, true] {
        for deferred in [false, true] {
            for fault in FAULTS {
                run_row(server_side, deferred, fault);
            }
        }
    }
}

// The unforged session, same harness: all six verify, the middlebox
// is approved and keyed. (Guards the table against passing because the
// harness itself breaks sessions.)
#[test]
fn the_unforged_session_approves_the_middlebox() {
    for server_side in [false, true] {
        for deferred in [false, true] {
            let mut s = Session::new(server_side, deferred, None);
            s.settle();
            assert!(s.client.ready() && s.server.is_ready());
            assert!(s.mbox.has_keys());
            assert!(alerts(&s.from_client).is_empty() && alerts(&s.from_server).is_empty());
            let boxes = match &s.client {
                Client::Mbtls(c) => c.middleboxes(),
                Client::Plain(..) => s.server.middleboxes(),
            };
            assert!(boxes[0].approved, "{boxes:?}");
            assert_eq!(boxes[0].name.as_deref(), Some("proxy.msp.example"));
        }
    }
}
