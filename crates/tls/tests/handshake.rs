//! End-to-end TLS handshake tests over an in-memory pipe.

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_sgx::{AttestationService, CodeIdentity, Enclave, Platform, Quote};
use mbtls_tls::config::{
    AttestationPolicy, Attestor, ClientConfig, PeerProof, Proof, ServerConfig, TicketKey,
};
use mbtls_tls::messages::{handshake_type, HandshakeReader};
use mbtls_tls::record::RecordReader;
use mbtls_tls::session::SessionKeys;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::{ClientConnection, ContentType, ServerConnection, TlsError};

/// Test fixture: a CA, a server identity, and matching configs.
struct Fixture {
    trust: Arc<TrustStore>,
    server_key: Arc<CertifiedKey>,
    rng: CryptoRng,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = CryptoRng::from_seed(seed);
    let mut ca = CertificateAuthority::new_root("Test Root", 0, 1_000_000, &mut rng);
    let server_key = CertifiedKey::issue(
        &mut ca,
        "server.example",
        &["*.server.example"],
        0,
        1_000_000,
        KeyUsage::Endpoint,
        &mut rng,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    Fixture {
        trust: Arc::new(trust),
        server_key: Arc::new(server_key),
        rng,
    }
}

/// Pump bytes between client and server until quiescent.
fn run_to_completion(
    client: &mut ClientConnection,
    server: &mut ServerConnection,
    rng: &mut CryptoRng,
) -> Result<(), TlsError> {
    for _ in 0..20 {
        let c_out = client.take_outgoing();
        if !c_out.is_empty() {
            server.feed_incoming(&c_out, rng)?;
        }
        let s_out = server.take_outgoing();
        if !s_out.is_empty() {
            client.feed_incoming(&s_out, rng)?;
        }
        if c_out.is_empty() && s_out.is_empty() {
            break;
        }
    }
    Ok(())
}

#[test]
fn full_handshake_all_suites() {
    for suite in CipherSuite::ALL {
        let mut f = fixture(100 + suite.id() as u64);
        let mut cc = ClientConfig::new(f.trust.clone());
        cc.suites = vec![suite];
        let sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
        let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
        let mut server = ServerConnection::new(Arc::new(sc));
        run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
        assert!(client.is_established(), "{suite:?} client");
        assert!(server.is_established(), "{suite:?} server");
        assert!(!client.resumed());
        // Both sides agree on the master secret.
        assert_eq!(
            client.secrets().unwrap().master_secret,
            server.secrets().unwrap().master_secret
        );
    }
}

#[test]
fn application_data_both_directions() {
    let mut f = fixture(2);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();

    client.send_data(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    server
        .feed_incoming(&client.take_outgoing(), &mut f.rng)
        .unwrap();
    assert_eq!(server.take_plaintext(), b"GET / HTTP/1.1\r\n\r\n");

    server.send_data(b"HTTP/1.1 200 OK\r\n\r\nhello").unwrap();
    client
        .feed_incoming(&server.take_outgoing(), &mut f.rng)
        .unwrap();
    assert_eq!(client.take_plaintext(), b"HTTP/1.1 200 OK\r\n\r\nhello");
}

#[test]
fn large_data_fragments_and_reassembles() {
    let mut f = fixture(3);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();

    let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    client.send_data(&big).unwrap();
    let wire = client.take_outgoing();
    // Feed in awkward chunks to exercise reassembly.
    for chunk in wire.chunks(4096) {
        server.feed_incoming(chunk, &mut f.rng).unwrap();
    }
    assert_eq!(server.take_plaintext(), big);
}

#[test]
fn wrong_name_rejected() {
    let mut f = fixture(4);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "other.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    let result = run_to_completion(&mut client, &mut server, &mut f.rng);
    assert!(matches!(
        result,
        Err(TlsError::Certificate(mbtls_pki::CertError::NameMismatch))
    ));
    assert!(client.is_failed());
}

#[test]
fn wildcard_name_accepted() {
    let mut f = fixture(5);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "www.server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.is_established());
}

#[test]
fn untrusted_ca_rejected() {
    let mut f = fixture(6);
    // Client trusts a different root.
    let mut other_ca = CertificateAuthority::new_root("Other Root", 0, 1_000_000, &mut f.rng);
    let _ = other_ca; // name emphasises the mismatch
    let mut empty_trust = TrustStore::new();
    empty_trust.add_root(other_ca.issue_intermediate("x", 0, 10, &mut f.rng).certificate().clone());
    let cc = Arc::new(ClientConfig::new(Arc::new(empty_trust)));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    let result = run_to_completion(&mut client, &mut server, &mut f.rng);
    assert!(matches!(result, Err(TlsError::Certificate(_))));
}

#[test]
fn expired_certificate_rejected() {
    let mut f = fixture(7);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.current_time = 2_000_000; // past not_after
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    let result = run_to_completion(&mut client, &mut server, &mut f.rng);
    assert!(matches!(
        result,
        Err(TlsError::Certificate(mbtls_pki::CertError::Expired))
    ));
}

#[test]
fn no_common_suite_fails_cleanly() {
    let mut f = fixture(8);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.suites = vec![CipherSuite::EcdheAes128GcmSha256];
    let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
    sc.suites = vec![CipherSuite::DheAes256GcmSha384];
    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    let result = run_to_completion(&mut client, &mut server, &mut f.rng);
    assert!(matches!(result, Err(TlsError::NegotiationFailed(_))));
    assert!(server.is_failed());
}

#[test]
fn ticket_resumption_works() {
    let mut f = fixture(9);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc.clone());
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.issued_ticket().is_some(), "server should issue a ticket");
    let resumption = client.resumption_data().unwrap();

    // Second connection offering the ticket.
    let mut cc2 = ClientConfig::new(f.trust.clone());
    cc2.resumption_cache
        .insert("server.example".to_string(), resumption.clone());
    let mut client2 = ClientConnection::new(Arc::new(cc2), "server.example", &mut f.rng);
    let mut server2 = ServerConnection::new(sc);
    run_to_completion(&mut client2, &mut server2, &mut f.rng).unwrap();
    assert!(client2.is_established());
    assert!(server2.is_established());
    assert!(client2.resumed(), "client should resume");
    assert!(server2.resumed(), "server should resume");
    // Fresh randoms → fresh key block, same master secret.
    assert_eq!(
        client2.secrets().unwrap().master_secret,
        resumption.master_secret
    );

    // Data still flows.
    client2.send_data(b"resumed!").unwrap();
    server2
        .feed_incoming(&client2.take_outgoing(), &mut f.rng)
        .unwrap();
    assert_eq!(server2.take_plaintext(), b"resumed!");
}

#[test]
fn bogus_ticket_falls_back_to_full_handshake() {
    let mut f = fixture(10);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.resumption_cache.insert(
        "server.example".to_string(),
        mbtls_tls::session::ResumptionData {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![0xEE; 48].into(),
            ticket: Some(vec![0xAB; 60]),
            session_id: vec![],
        },
    );
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.is_established());
    assert!(!server.resumed());
    assert!(!client.resumed());
}

#[test]
fn tampered_record_fails_connection() {
    let mut f = fixture(11);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();

    client.send_data(b"sensitive").unwrap();
    let mut wire = client.take_outgoing();
    let n = wire.len();
    wire[n - 3] ^= 0x01; // flip a ciphertext bit
    let result = server.feed_incoming(&wire, &mut f.rng);
    assert!(matches!(
        result,
        Err(TlsError::Crypto(mbtls_crypto::CryptoError::BadTag))
    ));
    assert!(server.is_failed());
}

/// Quotes from an enclave on a simulated SGX platform.
struct EnclaveAttestor {
    platform: Platform,
    enclave: Enclave<Vec<u8>>,
}

impl Attestor for EnclaveAttestor {
    fn quote(&self, report_data: [u8; 64]) -> Quote {
        self.enclave.quote(&self.platform, report_data)
    }
}

/// The handshake message types in a flight, in order, up to its
/// ChangeCipherSpec (what follows that is encrypted).
fn flight_types(flight: &[u8]) -> Vec<u8> {
    let mut records = RecordReader::new();
    records.feed(flight);
    let mut messages = HandshakeReader::new();
    let mut types = Vec::new();
    while let Some(record) = records.next_record_inplace().unwrap() {
        if record.content_type() == Some(ContentType::ChangeCipherSpec) {
            break;
        }
        if record.content_type() == Some(ContentType::Handshake) {
            messages.feed(record.body());
            while let Some((typ, _)) = messages.next_message().unwrap() {
                types.push(typ);
            }
        }
    }
    types
}

#[test]
fn attestation_verified_when_required() {
    let mut f = fixture(12);
    // Stand up a simulated SGX platform running the server.
    let mut svc = AttestationService::new(&mut f.rng);
    let pak = svc.provision_platform(&mut f.rng);
    let mut platform = Platform::new(pak, &mut f.rng);
    let code = CodeIdentity::new("mbtls-server", "1.0", b"strong-ciphers-only");
    let enclave = Enclave::create(&mut platform, &code, Vec::new());

    let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
    sc.proof = Proof::Attestor(Arc::new(EnclaveAttestor { platform, enclave }));
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Attestation(AttestationPolicy {
        root: svc.root_verifying_key(),
        acceptable: vec![code.measure()],
    });

    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.is_established());
    let quote = client.peer_quote().expect("quote captured");
    assert_eq!(quote.measurement, code.measure());
}

#[test]
fn attestation_with_wrong_measurement_rejected() {
    let mut f = fixture(13);
    let mut svc = AttestationService::new(&mut f.rng);
    let pak = svc.provision_platform(&mut f.rng);
    let mut platform = Platform::new(pak, &mut f.rng);
    let evil_code = CodeIdentity::new("mbtls-server-evil", "1.0", b"");
    let enclave = Enclave::create(&mut platform, &evil_code, Vec::new());

    let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
    sc.proof = Proof::Attestor(Arc::new(EnclaveAttestor { platform, enclave }));
    let expected = CodeIdentity::new("mbtls-server", "1.0", b"strong-ciphers-only");
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Attestation(AttestationPolicy {
        root: svc.root_verifying_key(),
        acceptable: vec![expected.measure()],
    });

    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    let result = run_to_completion(&mut client, &mut server, &mut f.rng);
    assert!(matches!(
        result,
        Err(TlsError::Attestation(
            mbtls_sgx::AttestationError::MeasurementMismatch
        ))
    ));
}

// A quote's two signatures leave the server flight in the same group
// as the chain and the ServerKeyExchange. Verified by the client
// itself, a forged one is named: the endorsement as an untrusted
// platform, the quote's own as a bad quote signature. Parked under
// `defer_verify`, the quote's two are in the parked group — they no
// longer bypass the seam — and the forged one is the check that fails.
#[test]
fn forged_quote_signatures_are_named_inline_and_parked_when_deferred() {
    struct ForgingAttestor {
        platform: Platform,
        enclave: Enclave<Vec<u8>>,
        forge_endorsement: bool,
    }
    impl Attestor for ForgingAttestor {
        fn quote(&self, report_data: [u8; 64]) -> Quote {
            let mut quote = self.enclave.quote(&self.platform, report_data);
            if self.forge_endorsement {
                quote.endorsement.0[40] ^= 1;
            } else {
                quote.signature.0[40] ^= 1;
            }
            quote
        }
    }

    for (forge_endorsement, expect) in [
        (true, mbtls_sgx::AttestationError::UntrustedPlatform),
        (false, mbtls_sgx::AttestationError::BadQuoteSignature),
    ] {
        for defer in [false, true] {
            let mut f = fixture(15);
            let mut svc = AttestationService::new(&mut f.rng);
            let pak = svc.provision_platform(&mut f.rng);
            let mut platform = Platform::new(pak, &mut f.rng);
            let code = CodeIdentity::new("mbtls-server", "1.0", b"strong-ciphers-only");
            let enclave = Enclave::create(&mut platform, &code, Vec::new());
            let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
            let attestor = ForgingAttestor { platform, enclave, forge_endorsement };
            sc.proof = Proof::Attestor(Arc::new(attestor));
            let mut cc = ClientConfig::new(f.trust.clone());
            cc.defer_verify = defer;
            cc.peer_proof = PeerProof::Attestation(AttestationPolicy {
                root: svc.root_verifying_key(),
                acceptable: vec![code.measure()],
            });
            let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
            let mut server = ServerConnection::new(Arc::new(sc));
            let result = run_to_completion(&mut client, &mut server, &mut f.rng);
            if !defer {
                assert_eq!(result, Err(TlsError::Attestation(expect)));
                continue;
            }
            // The handshake ran on; the verdict is what is missing.
            result.unwrap();
            assert!(client.awaiting_verdict() && !client.is_established());
            let checks = client.take_pending_verify().expect("parked group");
            // Chain, ServerKeyExchange, endorsement, quote signature.
            let verdicts: Vec<bool> = checks.iter().map(|c| c.check()).collect();
            assert_eq!(verdicts, [true, true, !forge_endorsement, forge_endorsement]);
            client.resolve_verify(false);
            assert_eq!(
                client.error(),
                Some(&TlsError::Crypto(mbtls_crypto::CryptoError::BadSignature))
            );
        }
    }
}

#[test]
fn attestation_required_but_server_cannot_attest() {
    let mut f = fixture(14);
    let mut svc = AttestationService::new(&mut f.rng);
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Attestation(AttestationPolicy {
        root: svc.root_verifying_key(),
        acceptable: vec![],
    });
    let _ = svc.provision_platform(&mut f.rng);
    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    let result = run_to_completion(&mut client, &mut server, &mut f.rng);
    assert!(matches!(result, Err(TlsError::UnexpectedMessage(_))));
}

/// Run a full handshake from a client that asks for no proof against
/// `sc`, and return the message types of the server's first flight.
/// The client must establish: an unrequested proof is carried in the
/// transcript and not checked.
fn unasked_flight(f: &mut Fixture, sc: ServerConfig) -> (ClientConnection, Vec<u8>) {
    let cc = ClientConfig::new(f.trust.clone());
    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    server.feed_incoming(&client.take_outgoing(), &mut f.rng).unwrap();
    let flight = server.take_outgoing();
    client.feed_incoming(&flight, &mut f.rng).unwrap();
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.is_established() && server.is_established());
    (client, flight_types(&flight))
}

// A configured proof is always presented: a server holding an
// attestor puts its SGXAttestation message in every full flight,
// asked for or not.
#[test]
fn configured_attestor_attests_unasked() {
    let mut f = fixture(16);
    let mut svc = AttestationService::new(&mut f.rng);
    let pak = svc.provision_platform(&mut f.rng);
    let mut platform = Platform::new(pak, &mut f.rng);
    let code = CodeIdentity::new("mbtls-server", "1.0", b"strong-ciphers-only");
    let enclave = Enclave::create(&mut platform, &code, Vec::new());
    let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
    sc.proof = Proof::Attestor(Arc::new(EnclaveAttestor { platform, enclave }));

    let (client, types) = unasked_flight(&mut f, sc);
    assert!(types.contains(&handshake_type::SGX_ATTESTATION), "{types:?}");
    assert!(client.peer_quote().is_none());
}

#[test]
fn false_start_data_arrives_with_finished() {
    let mut f = fixture(15);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.enable_false_start = true;
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);

    // Flight 1: CH -> server.
    server
        .feed_incoming(&client.take_outgoing(), &mut f.rng)
        .unwrap();
    // Flight 2: server flight -> client.
    client
        .feed_incoming(&server.take_outgoing(), &mut f.rng)
        .unwrap();
    // Client now has CKE+CCS+Finished queued; send early data too.
    client.send_data(b"early request").unwrap();
    server
        .feed_incoming(&client.take_outgoing(), &mut f.rng)
        .unwrap();
    // Server is established after the client Finished; data that
    // followed in the same flight is delivered.
    assert!(server.is_established());
    assert_eq!(server.take_plaintext(), b"early request");
    // Complete the handshake on the client side.
    client
        .feed_incoming(&server.take_outgoing(), &mut f.rng)
        .unwrap();
    assert!(client.is_established());
}

#[test]
fn false_start_disabled_blocks_early_send() {
    let mut f = fixture(16);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    server
        .feed_incoming(&client.take_outgoing(), &mut f.rng)
        .unwrap();
    client
        .feed_incoming(&server.take_outgoing(), &mut f.rng)
        .unwrap();
    assert!(matches!(
        client.send_data(b"too early"),
        Err(TlsError::HandshakeNotDone)
    ));
}

#[test]
fn exported_keys_match_between_peers() {
    // What `MbSession::bridge` relies on: the two ends of an
    // established pair export the same keys at the same sequence
    // numbers, however the handshake ran and under either suite; those
    // are the keys the secrets expand to; and nothing is exported
    // before the handshake is done.
    for suite in [CipherSuite::EcdheAes128GcmSha256, CipherSuite::EcdheAes256GcmSha384] {
        for (case, tickets, resume, ticket_key) in [
            ("full", true, false, 7),
            ("ticket-resumed", true, true, 7),
            ("id-resumed", false, true, 7),
            // The server's ticket key changed since the ticket was
            // issued: it does not open, and both ends run a full
            // handshake instead.
            ("stale ticket", true, true, 8),
        ] {
            let case = format!("{suite:?} {case}");
            let mut f = fixture(17);
            let mut sc = ServerConfig::new(f.server_key.clone(), tickets.then_some([7u8; 32]));
            sc.assign_session_ids = !tickets;
            let mut cc = ClientConfig::new(f.trust.clone());
            cc.enable_tickets = tickets;
            cc.suites = vec![suite];
            let mut client =
                ClientConnection::new(Arc::new(cc.clone()), "server.example", &mut f.rng);
            let mut server = ServerConnection::new(Arc::new(sc.clone()));
            run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
            if resume {
                let resumption = client.resumption_data().expect(&case);
                assert_eq!(resumption.ticket.is_some(), tickets, "{case}");
                cc.resumption_cache.insert("server.example".to_string(), resumption);
                sc.ticket_key = sc.ticket_key.map(|_| TicketKey::new([ticket_key; 32]).unwrap());
                client = ClientConnection::new(Arc::new(cc), "server.example", &mut f.rng);
                server = ServerConnection::new(Arc::new(sc));
                // Flight by flight, checking each end in between.
                for _ in 0..3 {
                    server.feed_incoming(&client.take_outgoing(), &mut f.rng).unwrap();
                    client.feed_incoming(&server.take_outgoing(), &mut f.rng).unwrap();
                    for (established, exported) in [
                        (client.is_established(), client.export_session_keys()),
                        (server.is_established(), server.export_session_keys()),
                    ] {
                        assert!(established || exported.is_none(), "{case}: exported too early");
                    }
                }
            }
            assert!(client.is_established() && server.is_established(), "{case}");
            let resumed = resume && ticket_key == 7;
            assert_eq!((client.resumed(), server.resumed()), (resumed, resumed), "{case}");
            // Three records client → server and two back, so that an
            // end reporting its two sequence numbers the wrong way
            // round shows.
            for n in 1..=3u8 {
                client.send_data(&vec![n; 100 * n as usize]).unwrap();
                server.feed_incoming(&client.take_outgoing(), &mut f.rng).unwrap();
                assert_eq!(server.take_plaintext(), vec![n; 100 * n as usize], "{case}");
            }
            for n in 1..=2u8 {
                server.send_data(&vec![n; 700 * n as usize]).unwrap();
                client.feed_incoming(&server.take_outgoing(), &mut f.rng).unwrap();
                assert_eq!(client.take_plaintext(), vec![n; 700 * n as usize], "{case}");
            }

            // Each direction's Finished was its record zero.
            let ck = client.export_session_keys().expect(&case);
            assert_eq!((ck.client_to_server_seq, ck.server_to_client_seq), (4, 3), "{case}");
            let expanded = SessionKeys::from_secrets(client.secrets().unwrap(), 4, 3);
            assert_eq!(ck, expanded, "{case}: client");
            let expanded = SessionKeys::from_secrets(server.secrets().unwrap(), 4, 3);
            assert_eq!(server.export_session_keys().as_ref(), Some(&expanded), "{case}: server");
            assert_eq!(Some(&ck), server.export_session_keys().as_ref(), "{case}");
        }
    }
}

#[test]
fn ticket_offered_with_a_proof_configured() {
    // A client that offers a ticket hashes from ServerHello on, before
    // it knows whether the server resumes; the raw bytes a proof binds
    // must outlive that. With a stale ticket the server falls back to
    // a full handshake and presents its proof, bound to the transcript
    // up to ServerKeyExchange, which the client must verify. With a
    // fresh one it resumes and sends no proof. Both proof kinds.
    for proof in ["attestation", "credential"] {
        for (case, ticket_key) in [("stale ticket", 8), ("ticket-resumed", 7)] {
            let case = format!("{proof} {case}");
            let (mut cc, mut sc, name, mut rng) = proof_configs(proof);
            let mut client = ClientConnection::new(Arc::new(cc.clone()), name, &mut rng);
            let mut server = ServerConnection::new(Arc::new(sc.clone()));
            run_to_completion(&mut client, &mut server, &mut rng).unwrap();
            let resumption = client.resumption_data().expect(&case);
            assert!(resumption.ticket.is_some(), "{case}");
            cc.resumption_cache.insert(name.to_string(), resumption);
            sc.ticket_key = Some(TicketKey::new([ticket_key; 32]).unwrap());

            let mut client = ClientConnection::new(Arc::new(cc), name, &mut rng);
            let mut server = ServerConnection::new(Arc::new(sc));
            server.feed_incoming(&client.take_outgoing(), &mut rng).unwrap();
            let flight = server.take_outgoing();
            client.feed_incoming(&flight, &mut rng).unwrap();
            run_to_completion(&mut client, &mut server, &mut rng).unwrap();
            assert!(client.is_established() && server.is_established(), "{case}");
            let resumed = ticket_key == 7;
            assert_eq!((client.resumed(), server.resumed()), (resumed, resumed), "{case}");
            let verified = client.peer_quote().is_some() || client.peer_credential().is_some();
            assert_eq!(verified, !resumed, "{case}: proof verified");
            let types = flight_types(&flight);
            let proof_sent = types.contains(&handshake_type::SGX_ATTESTATION)
                || types.contains(&handshake_type::DELEGATED_CREDENTIAL);
            assert_eq!(proof_sent, !resumed, "{case}: {types:?}");
        }
    }
}

/// Configs of a client that asks for `proof` ("attestation" or
/// "credential") and a server that presents it, the name the client
/// connects to, and the rng the fixture left.
fn proof_configs(proof: &str) -> (ClientConfig, ServerConfig, &'static str, CryptoRng) {
    if proof == "attestation" {
        let mut f = fixture(22);
        let mut svc = AttestationService::new(&mut f.rng);
        let pak = svc.provision_platform(&mut f.rng);
        let mut platform = Platform::new(pak, &mut f.rng);
        let code = CodeIdentity::new("mbtls-server", "1.0", b"strong-ciphers-only");
        let enclave = Enclave::create(&mut platform, &code, Vec::new());
        let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
        sc.proof = Proof::Attestor(Arc::new(EnclaveAttestor { platform, enclave }));
        let mut cc = ClientConfig::new(f.trust.clone());
        cc.peer_proof = PeerProof::Attestation(AttestationPolicy {
            root: svc.root_verifying_key(),
            acceptable: vec![code.measure()],
        });
        (cc, sc, "server.example", f.rng)
    } else {
        let f = delegation_fixture(72);
        let mut cc = ClientConfig::new(f.trust.clone());
        cc.peer_proof = PeerProof::Delegation(f.policy(None));
        let mut sc = ServerConfig::new(f.mbox_identity(), [7u8; 32]);
        sc.proof = Proof::Credential(f.provider(DelegatedRole::ReadWrite, None));
        (cc, sc, "proxy.msp.example", f.rng)
    }
}

#[test]
fn nonstandard_records_surfaced_not_fatal() {
    let mut f = fixture(18);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(cc, "server.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    // Inject an mbTLS MiddleboxAnnouncement record ahead of the CH.
    let announce = mbtls_tls::record::frame_plaintext(
        mbtls_tls::ContentType::MbtlsMiddleboxAnnouncement,
        b"",
    );
    server.feed_incoming(&announce, &mut f.rng).unwrap();
    let surfaced = server.take_nonstandard_records();
    assert_eq!(surfaced.len(), 1);
    assert_eq!(surfaced[0].0, 32);
    // Handshake still completes afterwards.
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(server.is_established());
}

#[test]
fn strict_server_rejects_nonstandard_records() {
    let mut f = fixture(19);
    let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
    sc.strict_unknown_records = true;
    let mut server = ServerConnection::new(Arc::new(sc));
    let announce = mbtls_tls::record::frame_plaintext(
        mbtls_tls::ContentType::MbtlsMiddleboxAnnouncement,
        b"",
    );
    let result = server.feed_incoming(&announce, &mut f.rng);
    assert!(matches!(result, Err(TlsError::Decode(_))));
    assert!(server.is_failed());
}

#[test]
fn danger_disable_cert_verify_accepts_anything() {
    let mut f = fixture(20);
    // Client with empty trust store but verification disabled.
    let mut cc = ClientConfig::new(Arc::new(TrustStore::new()));
    cc.danger_disable_cert_verify = true;
    let sc = Arc::new(ServerConfig::new(f.server_key.clone(), [7u8; 32]));
    let mut client = ClientConnection::new(Arc::new(cc), "whatever.example", &mut f.rng);
    let mut server = ServerConnection::new(sc);
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.is_established());
}

#[test]
fn reused_hello_transcripts_agree() {
    // The mbTLS secondary-handshake construction: a second client
    // connection built from the same ClientHello completes against a
    // different server that received those same CH bytes.
    let mut f = fixture(21);
    let cc = Arc::new(ClientConfig::new(f.trust.clone()));
    let hello = ClientConnection::build_hello(&cc, "server.example", &mut f.rng);

    // "Middlebox" server identity.
    let mut ca2 = CertificateAuthority::new_root("Test Root 2", 0, 1_000_000, &mut f.rng);
    let mbox_key = CertifiedKey::issue(
        &mut ca2,
        "mbox.example",
        &[],
        0,
        1_000_000,
        KeyUsage::Middlebox,
        &mut f.rng,
    );
    let mut trust2 = TrustStore::new();
    trust2.add_root(ca2.certificate().clone());
    let cc2 = Arc::new(ClientConfig::new(Arc::new(trust2)));

    let mut secondary =
        ClientConnection::with_reused_hello(cc2, "mbox.example", hello.clone());
    // Nothing is sent by the secondary connection itself.
    assert!(secondary.take_outgoing().is_empty());

    let mut mbox_server = ServerConnection::new(Arc::new(ServerConfig::new(
        Arc::new(mbox_key),
        [9u8; 32],
    )));
    // Deliver the shared CH bytes to the middlebox's server side.
    let body = hello.encode_body();
    let header = mbtls_tls::messages::handshake_header(handshake_type::CLIENT_HELLO, body.len());
    let ch_record = mbtls_tls::record::frame_plaintext(
        mbtls_tls::ContentType::Handshake,
        &[&header[..], &body].concat(),
    );
    mbox_server.feed_incoming(&ch_record, &mut f.rng).unwrap();
    run_to_completion(&mut secondary, &mut mbox_server, &mut f.rng).unwrap();
    assert!(secondary.is_established());
    assert!(mbox_server.is_established());
}

// ---------------------------------------------------------------------------
// Delegated middlebox credentials (mdTLS-style, DESIGN.md §6j)
// ---------------------------------------------------------------------------

use mbtls_pki::cert::Certificate;
use mbtls_pki::delegation::{
    CredentialError, CredentialIssuer, DelegatedCredential, DelegatedDirection, DelegatedKeyPair,
    DelegatedRole,
};
use mbtls_tls::config::{CredentialProvider, DelegationPolicy};

/// Test double: an endpoint that delegates to one middlebox key,
/// issuing a fresh credential bound to each handshake's transcript.
struct TestProvider {
    issuer: CredentialIssuer,
    mbox_key: mbtls_crypto::ed25519::VerifyingKey,
    role: DelegatedRole,
    /// When set, ignore the session binding and always use this nonce
    /// (models a replayed credential from another session).
    fixed_nonce: Option<[u8; 32]>,
}

impl CredentialProvider for TestProvider {
    fn credential(&self, session_binding: [u8; 64]) -> DelegatedCredential {
        let nonce = self.fixed_nonce.unwrap_or_else(|| {
            let mut n = [0u8; 32];
            n.copy_from_slice(&session_binding[..32]);
            n
        });
        self.issuer.issue(
            "proxy.msp.example",
            self.mbox_key,
            0,
            1_000_000,
            self.role,
            DelegatedDirection::Both,
            nonce,
        )
    }

    fn issuer_chain(&self) -> Vec<Certificate> {
        self.issuer.issuer_chain().to_vec()
    }
}

/// Fixture for delegation tests: a CA-certified endpoint that acts as
/// credential issuer, plus a delegated middlebox keypair.
struct DelegationFixture {
    trust: Arc<TrustStore>,
    issuer_seed: [u8; 32],
    issuer_chain: Vec<Certificate>,
    mbox: DelegatedKeyPair,
    rng: CryptoRng,
}

fn delegation_fixture(seed: u64) -> DelegationFixture {
    let mut rng = CryptoRng::from_seed(seed);
    let mut ca = CertificateAuthority::new_root("Test Root", 0, 1_000_000, &mut rng);
    let issuer_seed: [u8; 32] = rng.gen_array();
    let issuer_key = mbtls_crypto::ed25519::SigningKey::from_seed(&issuer_seed);
    let cert = ca.issue(
        "server.example",
        &[],
        issuer_key.verifying_key(),
        0,
        1_000_000,
        KeyUsage::Endpoint,
    );
    let mbox = DelegatedKeyPair::generate(&mut rng);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    DelegationFixture {
        trust: Arc::new(trust),
        issuer_seed,
        issuer_chain: vec![cert],
        mbox,
        rng,
    }
}

impl DelegationFixture {
    fn provider(&self, role: DelegatedRole, fixed_nonce: Option<[u8; 32]>) -> Arc<TestProvider> {
        Arc::new(TestProvider {
            issuer: CredentialIssuer::new(
                self.issuer_seed,
                "server.example",
                self.issuer_chain.clone(),
            ),
            mbox_key: self.mbox.verifying_key(),
            role,
            fixed_nonce,
        })
    }

    /// The delegated middlebox's server-side identity: its delegated
    /// key with an *empty* chain — the credential is its identity.
    fn mbox_identity(&self) -> Arc<CertifiedKey> {
        Arc::new(CertifiedKey {
            key: self.mbox.signing_key(),
            chain: vec![],
        })
    }

    fn policy(&self, required_role: Option<DelegatedRole>) -> DelegationPolicy {
        DelegationPolicy {
            trust_store: self.trust.clone(),
            issuer: "server.example".to_string(),
            required_role,
        }
    }
}

#[test]
fn delegated_handshake_establishes_with_empty_chain() {
    let mut f = delegation_fixture(70);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Delegation(f.policy(Some(DelegatedRole::ReadOnly)));
    let mut sc = ServerConfig::new(f.mbox_identity(), [7u8; 32]);
    sc.proof = Proof::Credential(f.provider(DelegatedRole::ReadWrite, None));

    let mut client = ClientConnection::new(Arc::new(cc), "proxy.msp.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(client.is_established());
    assert!(server.is_established());

    let cred = client.peer_credential().expect("credential retained");
    assert_eq!(cred.subject, "proxy.msp.example");
    assert_eq!(cred.issuer, "server.example");
    assert_eq!(cred.middlebox_key, f.mbox.verifying_key());

    // Application data flows normally under the delegated identity.
    client.send_data(b"ping").unwrap();
    server
        .feed_incoming(&client.take_outgoing(), &mut f.rng)
        .unwrap();
    assert_eq!(server.take_plaintext(), b"ping");
}

#[test]
fn delegated_handshake_feeds_deferred_verify_seam() {
    let mut f = delegation_fixture(71);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Delegation(f.policy(None));
    cc.defer_verify = true;
    let mut sc = ServerConfig::new(f.mbox_identity(), [7u8; 32]);
    sc.proof = Proof::Credential(f.provider(DelegatedRole::ReadWrite, None));

    let mut client = ClientConnection::new(Arc::new(cc), "proxy.msp.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();

    // Not established until the deferred batch is resolved.
    assert!(!client.is_established());
    let checks = client.take_pending_verify().expect("deferred checks");
    // Chain anchor + credential signature + ServerKeyExchange signature.
    assert!(checks.len() >= 3, "got {} checks", checks.len());
    assert!(checks.iter().all(|c| c.check()));
    client.resolve_verify(true);
    assert!(client.is_established());
    run_to_completion(&mut client, &mut server, &mut f.rng).unwrap();
    assert!(server.is_established());
}

#[test]
fn delegation_required_but_absent_fails() {
    let mut f = delegation_fixture(72);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Delegation(f.policy(None));
    // Server has a normal CA-issued identity and no credential provider.
    let mut rng2 = CryptoRng::from_seed(720);
    let mut ca2 = CertificateAuthority::new_root("Test Root", 0, 1_000_000, &mut rng2);
    let plain_key = CertifiedKey::issue(
        &mut ca2,
        "proxy.msp.example",
        &[],
        0,
        1_000_000,
        KeyUsage::Endpoint,
        &mut rng2,
    );
    let sc = ServerConfig::new(Arc::new(plain_key), [7u8; 32]);

    let mut client = ClientConnection::new(Arc::new(cc), "proxy.msp.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    let err = run_to_completion(&mut client, &mut server, &mut f.rng).unwrap_err();
    assert!(matches!(err, TlsError::UnexpectedMessage(_)), "{err:?}");
}

#[test]
fn delegated_credential_replayed_from_other_session_rejected() {
    // Provider that replays a credential minted for a *different*
    // session nonce: the client must reject it (SessionMismatch).
    let mut f = delegation_fixture(73);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Delegation(f.policy(None));
    let mut sc = ServerConfig::new(f.mbox_identity(), [7u8; 32]);
    sc.proof = Proof::Credential(f.provider(DelegatedRole::ReadWrite, Some([0xAB; 32])));

    let mut client = ClientConnection::new(Arc::new(cc), "proxy.msp.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    let err = run_to_completion(&mut client, &mut server, &mut f.rng).unwrap_err();
    assert_eq!(
        err,
        TlsError::Credential(CredentialError::SessionMismatch)
    );
}

#[test]
fn delegated_credential_insufficient_role_rejected() {
    let mut f = delegation_fixture(74);
    let mut cc = ClientConfig::new(f.trust.clone());
    // Client demands write capability; credential only grants read.
    cc.peer_proof = PeerProof::Delegation(f.policy(Some(DelegatedRole::ReadWrite)));
    let mut sc = ServerConfig::new(f.mbox_identity(), [7u8; 32]);
    sc.proof = Proof::Credential(f.provider(DelegatedRole::ReadOnly, None));

    let mut client = ClientConnection::new(Arc::new(cc), "proxy.msp.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    let err = run_to_completion(&mut client, &mut server, &mut f.rng).unwrap_err();
    assert_eq!(
        err,
        TlsError::Credential(CredentialError::RoleNotPermitted)
    );
}

#[test]
fn delegated_key_mismatch_breaks_key_exchange_signature() {
    // Credential names a different key than the one the server signs
    // its ServerKeyExchange with: verification of the SKE must fail.
    let mut f = delegation_fixture(75);
    let other = DelegatedKeyPair::generate(&mut f.rng);
    let mut cc = ClientConfig::new(f.trust.clone());
    cc.peer_proof = PeerProof::Delegation(f.policy(None));
    let mut sc = ServerConfig::new(f.mbox_identity(), [7u8; 32]);
    sc.proof = Proof::Credential(Arc::new(TestProvider {
        issuer: CredentialIssuer::new(f.issuer_seed, "server.example", f.issuer_chain.clone()),
        mbox_key: other.verifying_key(),
        role: DelegatedRole::ReadWrite,
        fixed_nonce: None,
    }));

    let mut client = ClientConnection::new(Arc::new(cc), "proxy.msp.example", &mut f.rng);
    let mut server = ServerConnection::new(Arc::new(sc));
    let err = run_to_completion(&mut client, &mut server, &mut f.rng).unwrap_err();
    assert!(
        matches!(err, TlsError::Crypto(_) | TlsError::Credential(_)),
        "{err:?}"
    );
}

// The credential provider's half of `configured_attestor_attests_unasked`:
// a server holding one presents its DelegatedCredential to a client
// that asked for nothing, which establishes on the certificate alone.
#[test]
fn configured_credential_provider_delegates_unasked() {
    let mut f = fixture(17);
    let d = delegation_fixture(76);
    let mut sc = ServerConfig::new(f.server_key.clone(), [7u8; 32]);
    sc.proof = Proof::Credential(d.provider(DelegatedRole::ReadWrite, None));

    let (client, types) = unasked_flight(&mut f, sc);
    assert!(types.contains(&handshake_type::DELEGATED_CREDENTIAL), "{types:?}");
    assert!(client.peer_credential().is_none());
}
