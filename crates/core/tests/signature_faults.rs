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
//! A delegated middlebox (DESIGN.md §6j) owes a different group: its
//! credential's issuer chain, the credential's own signature, and a
//! ServerKeyExchange under the key the credential names. Two more rows
//! forge the latter two — a credential with its signature one bit off,
//! a ServerKeyExchange signed by a key the credential does not name —
//! and must fail exactly as the attested middlebox rows do, with one
//! `CredentialRejected` event besides.
//!
//! The table runs with the middlebox on the client's side (the
//! client verifies every group) and on the server's (a plain TLS
//! client verifies the primary two, the server the middlebox's), each
//! with the checks verified where they are collected and with
//! `defer_verify` parking them for a driver, which this test plays.

use std::sync::Arc;

use mbtls_core::attacks::{settle, PakAttestor, Testbed};
use mbtls_core::client::{MbClientSession, MiddleboxInfo};
use mbtls_core::driver::{Chain, Endpoint, LegacyClient, TapLinks};
use mbtls_core::messages::Encapsulated;
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_core::server::MbServerSession;
use mbtls_core::{MbError, MiddleboxAuthMode};
use mbtls_crypto::ed25519::SigningKey;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::CryptoError;
use mbtls_pki::cert::{Certificate, CertifiedKey};
use mbtls_pki::delegation::DelegatedCredential;
use mbtls_pki::CertError;
use mbtls_sgx::Quote;
use mbtls_telemetry::{EventKind, Recorder};
use mbtls_tls::alert::{Alert, AlertDescription};
use mbtls_tls::config::{Attestor, CredentialProvider, Proof};
use mbtls_tls::record::ContentType;
use mbtls_tls::{ClientConnection, TlsError};

const SEED: u64 = 0x516_FA17;

/// The signatures a client collects: the six of an attested session,
/// in order, then the two a delegated middlebox's group adds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    ServerCertificate,
    ServerKeyExchange,
    MiddleboxCertificate,
    MiddleboxKeyExchange,
    QuoteEndorsement,
    QuoteSignature,
    CredentialSignature,
    DelegatedKeyExchange,
}

const FAULTS: [Fault; 6] = [
    Fault::ServerCertificate,
    Fault::ServerKeyExchange,
    Fault::MiddleboxCertificate,
    Fault::MiddleboxKeyExchange,
    Fault::QuoteEndorsement,
    Fault::QuoteSignature,
];

const DELEGATED_FAULTS: [Fault; 2] = [Fault::CredentialSignature, Fault::DelegatedKeyExchange];

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

/// A credential provider whose credentials carry a signature one bit
/// off.
struct ForgingProvider(Arc<dyn CredentialProvider>);

impl CredentialProvider for ForgingProvider {
    fn credential(&self, session_binding: [u8; 64]) -> DelegatedCredential {
        let mut cred = self.0.credential(session_binding);
        cred.signature.0[40] ^= 1;
        cred
    }

    fn issuer_chain(&self) -> Vec<Certificate> {
        self.0.issuer_chain()
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

struct Session {
    /// Client, middlebox (party 1), server.
    chain: Chain,
    /// Everything the two endpoints put on their links, for the alert
    /// assertions.
    from_client: Vec<u8>,
    from_server: Vec<u8>,
    /// Both endpoints' telemetry.
    recorder: Recorder,
}

impl Session {
    /// Client, middlebox and server from one seeded testbed, the
    /// middlebox authenticated by `auth`, with `fault` (if any) built
    /// into the party that signs it.
    fn new(
        auth: MiddleboxAuthMode,
        server_side: bool,
        deferred: bool,
        fault: Option<Fault>,
    ) -> Session {
        let tb = Testbed::new(SEED);
        let mut rng = CryptoRng::from_seed(SEED ^ 0xFA);
        let recorder = Recorder::new();
        let (mut client_cfg, mut server_cfg) = match auth {
            MiddleboxAuthMode::Delegated => {
                (tb.client_config_delegated(), tb.server_config_delegated())
            }
            _ => (tb.client_config(), tb.server_config()),
        };
        client_cfg.tls.defer_verify = deferred;
        client_cfg.telemetry = Some(recorder.sink());
        let client: Box<dyn Endpoint> = if server_side {
            // A plain TLS client: the middlebox finds no
            // MiddleboxSupport extension and announces itself to the
            // server instead.
            let mut client_rng = rng.fork();
            let tls = Arc::new(client_cfg.tls.into_inner());
            let conn = ClientConnection::new(tls, "server.example", &mut client_rng);
            Box::new(LegacyClient::new(conn, client_rng))
        } else {
            Box::new(MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork()))
        };

        server_cfg.telemetry = Some(recorder.sink());
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

        let mut mbox_cfg = match auth {
            MiddleboxAuthMode::Delegated => tb.middlebox_config_delegated(),
            _ => {
                let attestor = ForgingAttestor {
                    inner: PakAttestor { pak: tb.pak.clone(), measurement: tb.mbox_code.measure() },
                    fault,
                };
                MiddleboxConfig {
                    proof: Proof::Attestor(Arc::new(attestor)),
                    ..MiddleboxConfig::new(tb.mbox_key.clone())
                }
            }
        };
        match fault {
            Some(Fault::MiddleboxCertificate) => {
                mbox_cfg.certified_key = Arc::new(forged_certificate(&mbox_cfg.certified_key));
            }
            Some(Fault::MiddleboxKeyExchange | Fault::DelegatedKeyExchange) => {
                mbox_cfg.certified_key =
                    Arc::new(forged_key_exchange(&mbox_cfg.certified_key, &mut rng));
            }
            Some(Fault::CredentialSignature) => {
                let forging = ForgingProvider(tb.credential_provider());
                mbox_cfg.proof = Proof::Credential(Arc::new(forging));
            }
            _ => {}
        }

        let server = MbServerSession::new(Arc::new(server_cfg), rng.fork());
        let mbox = Middlebox::new(mbox_cfg, rng.fork());
        let mut chain = Chain::new(client, vec![Box::new(mbox)], Box::new(server));
        // Deferred checks wait for this test, playing the batching
        // driver, to deliver their verdicts.
        chain.set_defer_verify_to_driver(deferred);
        Session { chain, from_client: Vec::new(), from_server: Vec::new(), recorder }
    }

    /// How many middleboxes the endpoints refused a credential.
    fn credential_rejections(&self) -> usize {
        let events = self.recorder.snapshot();
        events.iter().filter(|e| matches!(e.kind, EventKind::CredentialRejected { .. })).count()
    }

    /// Carry every byte to quiescence, capturing what the two
    /// endpoints send. A failed party is what some rows are about; the
    /// failure is read back from the party afterwards, so an error here
    /// must be one a party still reports; any other (a chain that never
    /// went quiet) fails the row.
    fn carry(&mut self) {
        let (from_client, from_server) = (&mut self.from_client, &mut self.from_server);
        let mut links = TapLinks::new(2, |link, rightward, bytes: &[u8]| match (link, rightward) {
            (0, true) => from_client.extend_from_slice(bytes),
            (1, false) => from_server.extend_from_slice(bytes),
            _ => {}
        });
        if let Err(e) = settle(&mut self.chain, &mut links) {
            let chain = &self.chain;
            let mut reported = std::iter::once(chain.client.failed())
                .chain(chain.middles.iter().map(|m| m.failed()))
                .chain([chain.server.failed()]);
            assert!(reported.any(|f| f.as_ref() == Some(&e)), "no party reports {e:?}");
        }
    }

    /// The client's failure, which is always a TLS one.
    fn client_error(&self) -> Option<TlsError> {
        match self.chain.client.failed() {
            Some(MbError::Tls(e)) => Some(e),
            Some(other) => panic!("client failed outside TLS: {other:?}"),
            None => None,
        }
    }

    /// The endpoint that verified the middlebox: the mbTLS client, or
    /// the server behind a plain TLS client.
    fn middleboxes(&mut self) -> Vec<MiddleboxInfo> {
        match self.chain.party::<MbClientSession>(0) {
            Some(client) => client.middleboxes(),
            None => self.chain.party::<MbServerSession>(2).expect("server").middleboxes(),
        }
    }

    fn mbox_has_keys(&mut self) -> bool {
        self.chain.party::<Middlebox>(1).expect("middlebox").has_keys()
    }
}

fn run_row(auth: MiddleboxAuthMode, server_side: bool, deferred: bool, fault: Fault) {
    let row = format!(
        "{fault:?} / middlebox on the {} side / {}",
        if server_side { "server's" } else { "client's" },
        if deferred { "deferred" } else { "inline" },
    );
    let mut s = Session::new(auth, server_side, deferred, Some(fault));
    s.carry();
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
        assert_eq!(s.client_error(), Some(expect.clone()), "{row}");
        assert_eq!(client_alerts, vec![(None, Alert::for_error(&expect))], "{row}");
        assert!(!s.chain.client.ready(), "{row}");
        if !deferred {
            // Hello, then the alert and nothing else (a secondary
            // handshake on a subchannel goes its own way).
            let primary_records = records(&s.from_client)
                .iter()
                .filter(|(typ, _)| *typ != ContentType::MbtlsEncapsulated.to_u8())
                .count();
            assert_eq!(primary_records, 2, "{row}: no ClientKeyExchange was queued");
            assert!(!s.chain.server.ready(), "{row}");
        }
        return;
    }

    // A middlebox fault: the secondary connection that owed the group
    // fails with a bad signature — whichever of its checks it was — and
    // says so once on its subchannel. The session stands; the
    // middlebox got no keys. A refused credential is reported once.
    let alert = Alert::fatal(AlertDescription::DecryptError);
    assert_eq!(alert, Alert::for_error(&TlsError::Crypto(CryptoError::BadSignature)));
    let boxes = s.middleboxes();
    let (verifier_alerts, other_alerts) = if server_side {
        (&server_alerts, &client_alerts)
    } else {
        (&client_alerts, &server_alerts)
    };
    assert_eq!(boxes.len(), 1, "{row}");
    assert!(!boxes[0].approved && boxes[0].name.is_none(), "{row}: {boxes:?}");
    assert_eq!(verifier_alerts, &vec![(Some(boxes[0].subchannel), alert)], "{row}");
    assert!(other_alerts.is_empty(), "{row}: {other_alerts:?}");
    assert!(s.client_error().is_none() && s.chain.server.failed().is_none(), "{row}");
    assert!(s.chain.client.ready() && s.chain.server.ready(), "{row}: session established");
    assert!(!s.mbox_has_keys(), "{row}: no KeyMaterial for a rejected middlebox");
    let delegated = auth == MiddleboxAuthMode::Delegated;
    assert_eq!(s.credential_rejections(), usize::from(delegated), "{row}");

    // And it carries data, through the middlebox as a relay.
    s.chain.client.send_app(b"ping").expect("send");
    s.carry();
    assert_eq!(s.chain.server.recv_app(), b"ping", "{row}");
    s.chain.server.send_app(b"pong").expect("send");
    s.carry();
    assert_eq!(s.chain.client.recv_app(), b"pong", "{row}");
}

#[test]
fn each_of_the_six_signatures_fails_where_the_table_says() {
    for server_side in [false, true] {
        for deferred in [false, true] {
            for fault in FAULTS {
                run_row(MiddleboxAuthMode::SgxAttested, server_side, deferred, fault);
            }
        }
    }
}

#[test]
fn each_delegated_middlebox_signature_fails_like_an_attested_one() {
    for server_side in [false, true] {
        for deferred in [false, true] {
            for fault in DELEGATED_FAULTS {
                run_row(MiddleboxAuthMode::Delegated, server_side, deferred, fault);
            }
        }
    }
}

// The unforged session, same harness, in both modes: every signature
// verifies, the middlebox is approved and keyed. (Guards the table
// against passing because the harness itself breaks sessions.)
#[test]
fn the_unforged_session_approves_the_middlebox() {
    for auth in [MiddleboxAuthMode::SgxAttested, MiddleboxAuthMode::Delegated] {
        for server_side in [false, true] {
            for deferred in [false, true] {
                let mut s = Session::new(auth, server_side, deferred, None);
                s.carry();
                assert!(s.chain.client.ready() && s.chain.server.ready(), "{auth:?}");
                assert!(s.mbox_has_keys(), "{auth:?}");
                assert!(alerts(&s.from_client).is_empty() && alerts(&s.from_server).is_empty());
                assert_eq!(s.credential_rejections(), 0, "{auth:?}");
                let boxes = s.middleboxes();
                assert!(boxes[0].approved, "{auth:?}: {boxes:?}");
                assert_eq!(boxes[0].name.as_deref(), Some("proxy.msp.example"));
            }
        }
    }
}
