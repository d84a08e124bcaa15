//! Table 1 — the paper's security analysis (§4) as executed attacks.
//!
//! Each threat/defense row is a deterministic function returning
//! `Result<AttackReport, MbError>`: an `Err` means the harness itself
//! failed (a session would not pump, a data plane rejected its own
//! keys), never that the attack succeeded; verdicts live in
//! [`AttackReport::blocked`]. Sixteen rows are the paper's, four are
//! the delegated-credential rows of DESIGN.md §6j. [`full_matrix`]
//! runs all twenty for the `paper` suite's `table1`, and
//! `tests/security_matrix.rs` asserts every verdict.

use std::sync::Arc;

use mbtls_core::attacks::{settle, Testbed};
use mbtls_core::baseline::NaiveKeyShare;
use mbtls_core::client::{MbClientConfig, MbClientSession};
use mbtls_core::dataplane::{fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane};
use mbtls_core::driver::{Chain, Relay, TapLinks};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::{MbServerConfig, MbServerSession};
use mbtls_core::MbError;
use mbtls_crypto::ct;
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::delegation::{
    CredentialError, CredentialIssuer, CredentialVerifier, DelegatedCredential, DelegatedDirection,
    DelegatedKeyPair, DelegatedRole,
};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_sgx::{AttestationService, CodeIdentity, Enclave, HostInspector, Platform};
use mbtls_tls::record::{ContentType, RecordReader};
use mbtls_tls::suites::CipherSuite;

/// Which protocol a verdict applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Full mbTLS with enclaves.
    MbTls,
    /// mbTLS with delegated middlebox credentials instead of SGX
    /// attestation (mdTLS-style, DESIGN.md §6j).
    MbTlsDelegated,
    /// The naive key-sharing strawman (Fig. 1).
    NaiveKeyShare,
    /// An mbTLS middlebox deployed *without* an enclave.
    MbTlsNoEnclave,
}

impl Protocol {
    const ALL: [Protocol; 4] = [
        Protocol::MbTls,
        Protocol::MbTlsDelegated,
        Protocol::NaiveKeyShare,
        Protocol::MbTlsNoEnclave,
    ];

    /// The variant's name in the `table1` rows of `BENCH_paper.json`.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::MbTls => "mbTLS",
            Protocol::MbTlsDelegated => "mbTLS delegated",
            Protocol::NaiveKeyShare => "naive key share",
            Protocol::MbTlsNoEnclave => "mbTLS w/o enclave",
        }
    }

    /// The variant whose [`Protocol::label`] is `label`.
    pub fn from_label(label: &str) -> Result<Protocol, String> {
        Protocol::ALL
            .into_iter()
            .find(|protocol| protocol.label() == label)
            .ok_or_else(|| format!("table1: unknown protocol {label:?}"))
    }

    /// Whether Table 1 claims the variant stops its attack: the
    /// naive-key-share and no-enclave strawmen are there to lose.
    pub fn defends(self) -> bool {
        matches!(self, Protocol::MbTls | Protocol::MbTlsDelegated)
    }
}

/// Outcome of one executed attack.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Table 1 threat description.
    pub threat: &'static str,
    /// The property at stake (P1A, P1B, ...).
    pub property: &'static str,
    /// The paper's listed defense.
    pub defense: &'static str,
    /// Which protocol variant was attacked.
    pub protocol: Protocol,
    /// True if the attack was prevented/detected.
    pub blocked: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// Extract application-data record bodies from a raw stream.
pub fn app_data_records(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut reader = RecordReader::new();
    reader.feed(stream);
    let mut out = Vec::new();
    while let Ok(Some(rec)) = reader.next_record_inplace() {
        if rec.content_type() == Some(ContentType::ApplicationData) {
            out.push(rec.body().to_vec());
        }
    }
    out
}

/// What one tapped session leaves behind.
struct Tapped {
    /// An on-path adversary's capture of each hop: 0 client →
    /// middlebox, 1 middlebox → server, 2 server → middlebox, 3
    /// middlebox → client.
    hops: [Vec<u8>; 4],
    /// The session; its middlebox (party 1) holds its key material.
    chain: Chain,
    /// The plaintext the server received.
    server_got: Vec<u8>,
}

/// One attested session on `Testbed::new(seed)` (client, one
/// client-side middlebox, server) in which the client sends `secret`.
fn tapped_session(seed: u64, secret: &[u8]) -> Result<Tapped, MbError> {
    let mut tb = Testbed::new(seed);
    let client =
        MbClientSession::new(Arc::new(tb.client_config()), "server.example", tb.rng.fork());
    let server = MbServerSession::new(Arc::new(tb.server_config()), tb.rng.fork());
    let mbox = Middlebox::new(tb.middlebox_config(&tb.mbox_code), tb.rng.fork());
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mbox)], Box::new(server));
    let mut hops: [Vec<u8>; 4] = Default::default();
    let mut links = TapLinks::new(2, |link, rightward, bytes: &[u8]| {
        let hop = if rightward { link } else { 3 - link };
        hops[hop].extend_from_slice(bytes);
    });

    settle(&mut chain, &mut links)?;
    if !(chain.client.ready() && chain.server.ready()) {
        return Err(MbError::unexpected_state("tapped session handshake did not complete"));
    }
    chain.client.send_app(secret)?;
    settle(&mut chain, &mut links)?;
    let server_got = chain.server.recv_app();
    Ok(Tapped { hops, chain, server_got })
}

/// P1A: a third party taps every link and greps for the plaintext.
pub fn attack_wire_eavesdrop() -> Result<AttackReport, MbError> {
    let secret = b"CREDIT-CARD-4242424242424242";
    let Tapped { hops, server_got, .. } = tapped_session(0xA1, secret)?;
    let leaked =
        hops.iter().any(|stream| stream.windows(secret.len()).any(|w| ct::eq(w, secret)));
    Ok(AttackReport {
        threat: "Data read on-the-wire by third party",
        property: "P1A",
        defense: "Encryption (per-hop AEAD)",
        protocol: Protocol::MbTls,
        blocked: !leaked && ct::eq(&server_got, secret),
        detail: format!(
            "secret delivered ({} bytes) and absent from all 4 link captures",
            server_got.len()
        ),
    })
}

/// P1A (MIP): the infrastructure provider scans middlebox memory.
/// With an enclave the keys are unreadable; without one they leak.
pub fn attack_mip_memory_scan(enclave: bool) -> Result<AttackReport, MbError> {
    let mut tapped = tapped_session(0xA2, b"payload")?;
    let keys = tapped
        .chain
        .party::<Middlebox>(1)
        .ok_or_else(|| MbError::unexpected_state("party 1 is not a Middlebox"))?
        .sensitive_snapshot();
    if keys.is_empty() {
        return Err(MbError::unexpected_state(
            "middlebox holds no key material after an established session",
        ));
    }
    // A recognizable 16-byte slice of key material to scan for.
    let needle = keys[keys.len() - 16..].to_vec();

    let mut rng = CryptoRng::from_seed(0xA2A2);
    let mut svc = AttestationService::new(&mut rng);
    let pak = svc.provision_platform(&mut rng);
    let mut platform = Platform::new(pak, &mut rng);

    let _enclave = if enclave {
        let code = CodeIdentity::new("mbtls-proxy", "1.0", b"");
        Some(Enclave::create(&mut platform, &code, keys))
    } else {
        platform.memory.write_unprotected("mbox-heap", keys);
        None
    };
    let found = !HostInspector::new(&mut platform.memory).scan_for(&needle).is_empty();
    Ok(AttackReport {
        threat: "Data/keys read in MS application memory by MIP",
        property: "P1A",
        defense: "Secure execution environment",
        protocol: if enclave {
            Protocol::MbTls
        } else {
            Protocol::MbTlsNoEnclave
        },
        blocked: !found,
        detail: if enclave {
            "host memory scan saw only the encrypted enclave image".into()
        } else {
            "host memory scan found the session keys in the clear".into()
        },
    })
}

/// P1C: the adversary compares ciphertext entering and leaving the
/// middlebox to learn whether it modified the data. Under mbTLS the
/// per-hop keys make the two sides incomparable; under naive key
/// sharing an unmodified record re-encrypts to identical bytes.
pub fn attack_change_secrecy(naive: bool) -> Result<AttackReport, MbError> {
    if !naive {
        let hops = tapped_session(0xA3, b"unchanged payload....")?.hops;
        let in_recs = app_data_records(&hops[0]);
        let out_recs = app_data_records(&hops[1]);
        let comparable = in_recs
            .iter()
            .zip(out_recs.iter())
            .any(|(a, b)| a == b);
        return Ok(AttackReport {
            threat: "TP compares records entering/leaving MS to detect modification",
            property: "P1C",
            defense: "Unique per-hop keys",
            protocol: Protocol::MbTls,
            blocked: !comparable,
            detail: "forwarded-unchanged record produced different ciphertext on each hop".into(),
        });
    }
    // Naive key share: build the Fig. 1 data plane directly.
    let mut rng = CryptoRng::from_seed(0xA3A3);
    let shared = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut client = EndpointDataPlane::for_client(&shared)?;
    let mut naive_mbox = NaiveKeyShare::new();
    naive_mbox.install_keys(&shared)?;
    let wire_in = sealed(&mut client, b"unchanged payload....")?;
    naive_mbox.feed_left(&wire_in)?;
    let mut wire_out = Vec::new();
    naive_mbox.take_right_into(&mut wire_out);
    let identical = ct::eq(&wire_in, &wire_out);
    Ok(AttackReport {
        threat: "TP compares records entering/leaving MS to detect modification",
        property: "P1C",
        defense: "(none — single shared key)",
        protocol: Protocol::NaiveKeyShare,
        blocked: !identical,
        detail: "identical ciphertext reveals the middlebox made no change".into(),
    })
}

/// The records `plane` puts on the wire for `data`.
fn sealed(plane: &mut EndpointDataPlane, data: &[u8]) -> Result<Vec<u8>, MbError> {
    plane.send(data)?;
    let mut wire = Vec::new();
    plane.drain_outgoing_into(&mut wire);
    Ok(wire)
}

/// P2: in-flight bit flip on a data record.
pub fn attack_record_tamper() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA4);
    let hop = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut client = EndpointDataPlane::for_client(&hop)?;
    let mut server = EndpointDataPlane::for_server(&hop)?;
    let mut wire = sealed(&mut client, b"transfer $10 to alice")?;
    let n = wire.len();
    wire[n - 5] ^= 0x80;
    let blocked = server.feed(&wire).is_err();
    Ok(AttackReport {
        threat: "Records modified on-the-wire",
        property: "P2",
        defense: "AEAD authentication",
        protocol: Protocol::MbTls,
        blocked,
        detail: "flipped ciphertext bit caused authentication failure".into(),
    })
}

/// P2: the adversary injects a forged record.
pub fn attack_record_inject() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA5);
    let hop = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut server = EndpointDataPlane::for_server(&hop)?;
    // Forge with a key the adversary made up.
    let forged_hop = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut forger = EndpointDataPlane::for_client(&forged_hop)?;
    let blocked = server.feed(&sealed(&mut forger, b"evil injected data")?).is_err();
    Ok(AttackReport {
        threat: "Records injected on-the-wire",
        property: "P2",
        defense: "AEAD authentication",
        protocol: Protocol::MbTls,
        blocked,
        detail: "record sealed under an unknown key was rejected".into(),
    })
}

/// P2: replay of a legitimate record.
pub fn attack_record_replay() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA6);
    let hop = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut client = EndpointDataPlane::for_client(&hop)?;
    let mut server = EndpointDataPlane::for_server(&hop)?;
    let (wire, mut plain) = (sealed(&mut client, b"pay $1")?, Vec::new());
    server.feed(&wire)?;
    server.drain_plaintext_into(&mut plain);
    let first_ok = ct::eq(&plain, b"pay $1");
    let blocked = server.feed(&wire).is_err();
    Ok(AttackReport {
        threat: "Records replayed on-the-wire",
        property: "P2",
        defense: "AEAD sequence numbers",
        protocol: Protocol::MbTls,
        blocked: first_ok && blocked,
        detail: "second delivery of the same record failed authentication".into(),
    })
}

/// P2 (MIP): tampering with enclave memory is detected.
pub fn attack_mip_ram_tamper() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA7);
    let mut svc = AttestationService::new(&mut rng);
    let pak = svc.provision_platform(&mut rng);
    let mut platform = Platform::new(pak, &mut rng);
    let code = CodeIdentity::new("mbtls-proxy", "1.0", b"");
    let mut enclave = Enclave::create(&mut platform, &code, b"hop keys".to_vec());
    {
        let mut inspector = HostInspector::new(&mut platform.memory);
        inspector.tamper("enclave-1", 0, 0xFF);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        enclave.ecall(&mut platform, |_| ())
    }));
    Ok(AttackReport {
        threat: "Data modified in RAM by MIP",
        property: "P2",
        defense: "Secure execution environment (memory integrity)",
        protocol: Protocol::MbTls,
        blocked: result.is_err(),
        detail: "enclave integrity check aborted execution after host tampering".into(),
    })
}

/// P3A: a machine with a certificate from an untrusted CA poses as
/// the server.
pub fn attack_impersonate_server() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA8);
    let mut real_ca = CertificateAuthority::new_root("Real Root", 0, 1_000_000, &mut rng);
    let mut rogue_ca = CertificateAuthority::new_root("Rogue Root", 0, 1_000_000, &mut rng);
    let rogue_key = Arc::new(CertifiedKey::issue(
        &mut rogue_ca,
        "server.example",
        &[],
        0,
        1_000_000,
        KeyUsage::Endpoint,
        &mut rng,
    ));
    let mut trust = TrustStore::new();
    trust.add_root(real_ca.certificate().clone());
    let _ = &mut real_ca;

    let client_cfg = MbClientConfig::new(Arc::new(trust), Arc::new(TrustStore::new()));
    let client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
    let server_cfg = MbServerConfig::new(
        mbtls_tls::config::ServerConfig::new(rogue_key, [1u8; 32]),
        Arc::new(TrustStore::new()),
    );
    let server = MbServerSession::new(Arc::new(server_cfg), rng.fork());
    let mut chain = Chain::new(Box::new(client), vec![], Box::new(server));
    let failed = chain.run_handshake().is_err();
    Ok(AttackReport {
        threat: "C establishes key with machine operated by someone other than S",
        property: "P3A",
        defense: "Certificate verification",
        protocol: Protocol::MbTls,
        blocked: failed,
        detail: "rogue-CA certificate rejected during primary handshake".into(),
    })
}

/// P3B: the MIP runs modified middlebox code; attestation catches it.
pub fn attack_wrong_middlebox_code() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA9);
    let mut svc = AttestationService::new(&mut rng);
    let pak = svc.provision_platform(&mut rng);
    let expected_code = CodeIdentity::new("mbtls-proxy", "1.0", b"strong");
    let evil_code = CodeIdentity::new("mbtls-proxy", "1.0-backdoored", b"strong");
    let quote = pak.quote(evil_code.measure(), [0u8; 64]);
    let verdict = quote.verify(
        &svc.root_verifying_key(),
        &[expected_code.measure()],
        &[0u8; 64],
    );
    Ok(AttackReport {
        threat: "C or S establishes key with wrong MS software",
        property: "P3B",
        defense: "Remote attestation",
        protocol: Protocol::MbTls,
        blocked: verdict.is_err(),
        detail: match &verdict {
            Ok(_) => "attestation unexpectedly verified".into(),
            Err(e) => format!("measurement mismatch: {e}"),
        },
    })
}

/// P3B (freshness): a quote captured from an old handshake is
/// replayed into a new one.
pub fn attack_attestation_replay() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xAA);
    let mut svc = AttestationService::new(&mut rng);
    let pak = svc.provision_platform(&mut rng);
    let code = CodeIdentity::new("mbtls-proxy", "1.0", b"");
    // Quote bound to handshake #1's transcript hash.
    let old_binding = [0x11u8; 64];
    let replayed = pak.quote(code.measure(), old_binding);
    // The verifier expects handshake #2's binding.
    let new_binding = [0x22u8; 64];
    let verdict = replayed.verify(&svc.root_verifying_key(), &[code.measure()], &new_binding);
    Ok(AttackReport {
        threat: "Stale attestation replayed into a new handshake",
        property: "P3B",
        defense: "Transcript-hash binding in report data",
        protocol: Protocol::MbTls,
        blocked: verdict.is_err(),
        detail: match &verdict {
            Ok(_) => "stale quote unexpectedly verified".into(),
            Err(e) => format!("report-data binding mismatch: {e}"),
        },
    })
}

/// P4: the adversary lifts a record from one hop and delivers it on
/// another (skipping the middlebox). Under mbTLS the per-hop keys
/// reject it; under naive key sharing it is accepted.
pub fn attack_path_skip(naive: bool) -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xAB);
    let suite = CipherSuite::EcdheAes256GcmSha384;
    if naive {
        // One shared key on both hops: splice succeeds.
        let shared = fresh_hop_keys(suite, &mut rng);
        let mut client = EndpointDataPlane::for_client(&shared)?;
        let mut server = EndpointDataPlane::for_server(&shared)?;
        // Adversary delivers the hop-1 record directly on hop 2.
        let (wire, mut plain) = (sealed(&mut client, b"bypass the filter")?, Vec::new());
        let spliced_ok = server.feed(&wire).is_ok() && {
            server.drain_plaintext_into(&mut plain);
            ct::eq(&plain, b"bypass the filter")
        };
        Ok(AttackReport {
            threat: "Records skip a middlebox (path violation)",
            property: "P4",
            defense: "(none — single shared key)",
            protocol: Protocol::NaiveKeyShare,
            blocked: !spliced_ok,
            detail: "shared-key record accepted on the wrong hop".into(),
        })
    } else {
        let hop1 = fresh_hop_keys(suite, &mut rng);
        let hop2 = fresh_hop_keys(suite, &mut rng);
        let mut client = EndpointDataPlane::for_client(&hop1)?;
        let mut server = EndpointDataPlane::for_server(&hop2)?;
        let _mbox = MiddleboxDataPlane::new(&hop1, &hop2)?;
        let blocked = server.feed(&sealed(&mut client, b"bypass the filter")?).is_err();
        Ok(AttackReport {
            threat: "Records skip a middlebox (path violation)",
            property: "P4",
            defense: "Unique per-hop keys",
            protocol: Protocol::MbTls,
            blocked,
            detail: "hop-1 record failed authentication on hop 2".into(),
        })
    }
}

/// P4: out-of-order middlebox traversal (two middleboxes, the
/// adversary routes around the first).
pub fn attack_path_reorder() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xAC);
    let suite = CipherSuite::EcdheAes256GcmSha384;
    let hop1 = fresh_hop_keys(suite, &mut rng);
    let hop2 = fresh_hop_keys(suite, &mut rng);
    let hop3 = fresh_hop_keys(suite, &mut rng);
    let mut client = EndpointDataPlane::for_client(&hop1)?;
    let mut mbox2 = MiddleboxDataPlane::new(&hop2, &hop3)?;
    let _mbox1 = MiddleboxDataPlane::new(&hop1, &hop2)?;
    let wire = sealed(&mut client, b"must visit mbox1 first")?;
    // Deliver the client's hop-1 record directly to mbox2 (as if it
    // arrived on hop 2).
    let result = mbox2.feed(FlowDirection::ClientToServer, &wire, |_, _p| {});
    Ok(AttackReport {
        threat: "Records passed to middleboxes in the wrong order",
        property: "P4",
        defense: "Unique per-hop keys",
        protocol: Protocol::MbTls,
        blocked: result.is_err(),
        detail: "out-of-order delivery failed hop authentication".into(),
    })
}

/// P1B (forward secrecy): after recording the session, the adversary
/// compromises the server's long-term private key and tries to
/// decrypt the capture with everything derivable from it.
pub fn attack_forward_secrecy() -> Result<AttackReport, MbError> {
    let hops = tapped_session(0xAD, b"old secret traffic")?.hops;
    // The long-term key signs; it neither contains nor determines the
    // ephemeral exchange. Mechanically: try using the (now known)
    // signing-key bytes as a master secret and decrypt the capture.
    let mut rng = CryptoRng::from_seed(0xAD01);
    let stolen_longterm: [u8; 32] = rng.gen_array(); // stand-in bytes; any value fails identically
    let fake_secrets = mbtls_tls::session::ConnectionSecrets {
        suite: CipherSuite::EcdheAes256GcmSha384,
        master_secret: {
            let mut m = stolen_longterm.to_vec();
            m.extend_from_slice(&stolen_longterm[..16]);
            m.into()
        },
        client_random: [0; 32],
        server_random: [0; 32],
    };
    let keys = mbtls_tls::session::SessionKeys::from_secrets(&fake_secrets, 0, 0);
    let mut opener = keys.open_client_to_server()?;
    let mut decrypted_any = false;
    for mut body in app_data_records(&hops[1]) {
        if opener
            .open_record_in_place(ContentType::ApplicationData, &mut body)
            .is_ok()
        {
            decrypted_any = true;
        }
    }
    Ok(AttackReport {
        threat: "Old data decrypted after long-term key compromise",
        property: "P1B",
        defense: "Ephemeral key exchange (ECDHE/DHE)",
        protocol: Protocol::MbTls,
        blocked: !decrypted_any,
        detail: "long-term key yields no decryption of recorded traffic \
                 (session keys derive from discarded ephemeral secrets)"
            .into(),
    })
}

// ---------------------------------------------------------------
// Delegated-credential attacks (mdTLS-style auth mode, §6j).
// ---------------------------------------------------------------

/// The verifier a delegated-mode endpoint runs: bound to the
/// testbed's trust anchors, `now`, and this session's nonce.
fn delegated_verifier(tb: &Testbed, now: u64, session_nonce: [u8; 32]) -> CredentialVerifier<'_> {
    CredentialVerifier {
        trust: &tb.server_trust,
        expected_issuer: "server.example",
        now,
        session_nonce,
        required_role: None,
    }
}

/// A credential the testbed's endpoint issues its delegated
/// middlebox: valid from 0 until `not_after`, bound to session `nonce`.
fn credential(tb: &Testbed, not_after: u64, nonce: [u8; 32]) -> DelegatedCredential {
    tb.credential_issuer().issue(
        "proxy.msp.example",
        tb.delegated_mbox.verifying_key(),
        0,
        not_after,
        DelegatedRole::ReadWrite,
        DelegatedDirection::Both,
        nonce,
    )
}

/// A delegated-credential row: what the endpoint's verifier said, as
/// evidence.
fn credential_row(
    threat: &'static str,
    property: &'static str,
    defense: &'static str,
    verdict: &Result<(), CredentialError>,
    blocked: bool,
) -> AttackReport {
    AttackReport {
        threat,
        property,
        defense,
        protocol: Protocol::MbTlsDelegated,
        blocked,
        detail: match verdict {
            Ok(()) => "credential unexpectedly verified".into(),
            Err(e) => format!("verifier refused: {e}"),
        },
    }
}

/// P3B (delegated): a credential whose validity window has lapsed is
/// presented in a new handshake — revocation-by-expiry must refuse
/// it.
pub fn attack_expired_credential() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD1);
    let nonce = [0x21u8; 32];
    let cred = credential(&tb, 1_000, nonce);
    // The endpoint verifies long after not_after.
    let verdict = delegated_verifier(&tb, 2_000, nonce).verify(tb.server_issuer_chain(), &cred);
    Ok(credential_row(
        "Expired delegated credential presented by MS",
        "P3B",
        "Credential validity window (revocation by expiry)",
        &verdict,
        verdict == Err(CredentialError::Expired),
    ))
}

/// P3B (delegated): an attacker swaps its own key into a captured
/// credential — the endpoint signature must break.
pub fn attack_wrong_key_credential() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD2);
    let nonce = [0x22u8; 32];
    let mut cred = credential(&tb, 10_000_000, nonce);
    // The attacker substitutes a key it controls.
    let mut attacker_rng = CryptoRng::from_seed(0xD2D2);
    cred.middlebox_key = DelegatedKeyPair::generate(&mut attacker_rng).verifying_key();
    let verdict = delegated_verifier(&tb, 500, nonce).verify(tb.server_issuer_chain(), &cred);
    Ok(credential_row(
        "Credential altered to name an attacker-controlled key",
        "P3B",
        "Ed25519 signature over the credential transcript",
        &verdict,
        verdict == Err(CredentialError::BadSignature),
    ))
}

/// P3B (delegated, freshness): a credential minted for one session is
/// replayed into another — the transcript-bound session nonce must
/// mismatch.
pub fn attack_credential_replay() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD3);
    // Credential bound to session #1's nonce; the verifier sits in
    // session #2.
    let cred = credential(&tb, 10_000_000, [0x31u8; 32]);
    let verdict =
        delegated_verifier(&tb, 500, [0x32u8; 32]).verify(tb.server_issuer_chain(), &cred);
    Ok(credential_row(
        "Delegated credential replayed across sessions",
        "P3B",
        "Transcript-bound session nonce in the credential",
        &verdict,
        verdict == Err(CredentialError::SessionMismatch),
    ))
}

/// A rogue endpoint's delegation apparatus: a credential issuer
/// certified by a CA outside the testbed trust store (claiming the
/// honest endpoint's name) and the middlebox keypair it delegates to.
fn rogue_delegation() -> (CredentialIssuer, DelegatedKeyPair) {
    let mut rng = CryptoRng::from_seed(0xD4D4);
    let mut ca = CertificateAuthority::new_root("Rogue Root", 0, 10_000_000, &mut rng);
    let seed: [u8; 32] = rng.gen_array();
    let signing = mbtls_crypto::ed25519::SigningKey::from_seed(&seed);
    let cert = ca.issue(
        "server.example", // even claiming the right name
        &[],
        signing.verifying_key(),
        0,
        10_000_000,
        KeyUsage::Endpoint,
    );
    let issuer = CredentialIssuer::new(seed, "server.example", vec![cert]);
    (issuer, DelegatedKeyPair::generate(&mut rng))
}

/// P3A (delegated): a rogue endpoint — certified by a CA the client
/// does not trust — delegates to its own middlebox and substitutes it
/// onto the path. The issuer-chain walk must refuse the anchor.
pub fn attack_middlebox_substitution() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD4);
    let (rogue_issuer, rogue_mbox) = rogue_delegation();
    let nonce = [0x41u8; 32];
    let cred = rogue_issuer.issue(
        "proxy.msp.example",
        rogue_mbox.verifying_key(),
        0,
        10_000_000,
        DelegatedRole::ReadWrite,
        DelegatedDirection::Both,
        nonce,
    );
    let verdict =
        delegated_verifier(&tb, 500, nonce).verify(rogue_issuer.issuer_chain(), &cred);
    Ok(credential_row(
        "MS substituted under a rogue delegating endpoint",
        "P3A",
        "Issuer-chain anchoring to trusted roots",
        &verdict,
        matches!(verdict, Err(CredentialError::Chain(_))),
    ))
}

/// Run the complete Table 1 matrix (the paper's 16 rows plus the four
/// delegated-credential rows from DESIGN.md §6j).
pub fn full_matrix() -> Result<Vec<AttackReport>, MbError> {
    Ok(vec![
        attack_wire_eavesdrop()?,
        attack_mip_memory_scan(true)?,
        attack_mip_memory_scan(false)?,
        attack_forward_secrecy()?,
        attack_change_secrecy(false)?,
        attack_change_secrecy(true)?,
        attack_record_tamper()?,
        attack_record_inject()?,
        attack_record_replay()?,
        attack_mip_ram_tamper()?,
        attack_impersonate_server()?,
        attack_wrong_middlebox_code()?,
        attack_attestation_replay()?,
        attack_path_skip(false)?,
        attack_path_skip(true)?,
        attack_path_reorder()?,
        attack_expired_credential()?,
        attack_wrong_key_credential()?,
        attack_credential_replay()?,
        attack_middlebox_substitution()?,
    ])
}
