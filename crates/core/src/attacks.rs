//! Executable adversaries for every threat in the paper's Table 1,
//! plus the naive-key-share failure demonstrations.
//!
//! Each attack is a deterministic function returning
//! `Result<AttackReport, MbError>` — an `Err` means the experiment
//! harness itself failed (a session would not pump, a data plane
//! rejected its own keys), never that the attack succeeded; verdicts
//! live in [`AttackReport::blocked`]. The `paper` suite of the bench
//! crate's `report` binary records the full matrix as its `table1`
//! and the security test-suite asserts every verdict.

use std::sync::Arc;

use mbtls_crypto::ct;
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::delegation::{
    CredentialError, CredentialIssuer, CredentialVerifier, DelegatedDirection, DelegatedKeyPair,
    DelegatedRole,
};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_sgx::{AttestationService, CodeIdentity, Enclave, HostInspector, Platform, Quote};
use mbtls_tls::config::{AttestationPolicy, Attestor, DelegationPolicy};
use mbtls_tls::record::{ContentType, RecordReader};
use mbtls_tls::suites::CipherSuite;

use crate::baseline::NaiveKeyShare;
use crate::client::{MbClientConfig, MbClientSession};
use crate::delegation::EndpointCredentialProvider;
use crate::dataplane::{fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane};
use crate::driver::{Chain, Relay};
use crate::middlebox::{Middlebox, MiddleboxConfig};
use crate::server::{MbServerConfig, MbServerSession};
use crate::MbError;

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

/// A relay wrapper that records the byte stream in both directions —
/// the on-path adversary's view of one link.
pub struct TapRelay<R: Relay> {
    inner: R,
    /// Bytes observed client→server.
    pub c2s: Vec<u8>,
    /// Bytes observed server→client.
    pub s2c: Vec<u8>,
}

impl<R: Relay> TapRelay<R> {
    /// Wrap a relay.
    pub fn new(inner: R) -> Self {
        TapRelay {
            inner,
            c2s: Vec::new(),
            s2c: Vec::new(),
        }
    }
}

impl<R: Relay> Relay for TapRelay<R> {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.c2s.extend_from_slice(data);
        self.inner.feed_left(data)
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.s2c.extend_from_slice(data);
        self.inner.feed_right(data)
    }
    fn take_left(&mut self) -> Vec<u8> {
        self.inner.take_left()
    }
    fn take_right(&mut self) -> Vec<u8> {
        self.inner.take_right()
    }
}

/// Extract application-data record bodies from a raw stream.
pub fn app_data_records(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut reader = RecordReader::new();
    reader.feed(stream);
    let mut out = Vec::new();
    while let Ok(Some(mut rec)) = reader.next_record_inplace() {
        if rec.content_type() == Some(ContentType::ApplicationData) {
            out.push(rec.body().to_vec());
        }
    }
    out
}

/// The shared test environment: PKI, SGX, and party identities. Used
/// by the attack scenarios, the security test-suite, and the Table 1
/// harness.
pub struct Testbed {
    /// Seeded RNG (fork for each party).
    pub rng: CryptoRng,
    /// Server trust store.
    pub server_trust: Arc<TrustStore>,
    /// Middlebox trust store.
    pub middlebox_trust: Arc<TrustStore>,
    /// Server identity.
    pub server_key: Arc<CertifiedKey>,
    /// Middlebox identity.
    pub mbox_key: Arc<CertifiedKey>,
    /// Simulated attestation service root.
    pub attestation_root: mbtls_crypto::ed25519::VerifyingKey,
    /// The middlebox platform's certified attestation key.
    pub pak: mbtls_sgx::PlatformAttestationKey,
    /// An SGX platform (the MIP's machine).
    pub platform: Platform,
    /// The published middlebox code identity.
    pub mbox_code: CodeIdentity,
    /// The server endpoint's signing seed — lets the delegation
    /// subsystem stand up a [`CredentialIssuer`] over the same
    /// identity as `server_key`.
    pub server_seed: [u8; 32],
    /// The delegated middlebox keypair (delegated-auth mode). Drawn
    /// from a side RNG so the main stream is unchanged.
    pub delegated_mbox: DelegatedKeyPair,
}

/// Quote provider backed by a platform attestation key.
pub struct PakAttestor {
    /// The platform key.
    pub pak: mbtls_sgx::PlatformAttestationKey,
    /// The enclave measurement to report.
    pub measurement: mbtls_sgx::Measurement,
}

impl Attestor for PakAttestor {
    fn quote(&self, report_data: [u8; 64]) -> Quote {
        self.pak.quote(self.measurement, report_data)
    }
}

impl Testbed {
    /// Stand up the environment from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = CryptoRng::from_seed(seed);
        let mut server_ca = CertificateAuthority::new_root("Web Root CA", 0, 10_000_000, &mut rng);
        let mut mbox_ca = CertificateAuthority::new_root("MSP Root CA", 0, 10_000_000, &mut rng);
        // The server key is built from an explicit seed (one RNG draw,
        // exactly like `CertifiedKey::issue` makes internally, so the
        // stream every downstream fixture sees is unchanged): the
        // delegation subsystem needs the endpoint seed to stand up a
        // `CredentialIssuer` over the same identity.
        let server_seed: [u8; 32] = rng.gen_array();
        let server_signing = mbtls_crypto::ed25519::SigningKey::from_seed(&server_seed);
        let server_cert = server_ca.issue(
            "server.example",
            &[],
            server_signing.verifying_key(),
            0,
            10_000_000,
            KeyUsage::Endpoint,
        );
        let server_key = CertifiedKey {
            key: server_signing,
            chain: vec![server_cert],
        };
        let mbox_key = CertifiedKey::issue(
            &mut mbox_ca,
            "proxy.msp.example",
            &[],
            0,
            10_000_000,
            KeyUsage::Middlebox,
            &mut rng,
        );
        let mut server_trust = TrustStore::new();
        server_trust.add_root(server_ca.certificate().clone());
        let mut middlebox_trust = TrustStore::new();
        middlebox_trust.add_root(mbox_ca.certificate().clone());

        let mut svc = AttestationService::new(&mut rng);
        let pak = svc.provision_platform(&mut rng);
        let platform = Platform::new(pak.clone(), &mut rng);
        let mbox_code = CodeIdentity::new("mbtls-proxy", "1.0", b"strong-ciphers-only");

        // Side RNG: keeps the main stream (and thus every artifact
        // digest derived from pre-existing fixtures) unchanged.
        let mut side_rng = CryptoRng::from_seed(seed ^ 0xDE1E_6A7E_D00D);
        let delegated_mbox = DelegatedKeyPair::generate(&mut side_rng);

        Testbed {
            attestation_root: svc.root_verifying_key(),
            rng,
            server_trust: Arc::new(server_trust),
            middlebox_trust: Arc::new(middlebox_trust),
            server_key: Arc::new(server_key),
            mbox_key: Arc::new(mbox_key),
            pak,
            platform,
            mbox_code,
            server_seed,
            delegated_mbox,
        }
    }

    /// Client config with middlebox attestation required.
    pub fn client_config(&self) -> MbClientConfig {
        MbClientConfig::builder(self.server_trust.clone(), self.middlebox_trust.clone())
            .middlebox_attestation(AttestationPolicy {
                root: self.attestation_root,
                acceptable: vec![self.mbox_code.measure()],
            })
            .build()
            .expect("valid testbed client config") // lint:allow(panic-freedom) -- builder sees only hardcoded testbed literals; cannot fail
    }

    /// Server config with middlebox attestation required.
    pub fn server_config(&self) -> MbServerConfig {
        let tls = mbtls_tls::config::ServerConfig::new(self.server_key.clone(), [0x7E; 32]);
        MbServerConfig::builder(tls, self.middlebox_trust.clone())
            .middlebox_attestation(AttestationPolicy {
                root: self.attestation_root,
                acceptable: vec![self.mbox_code.measure()],
            })
            .build()
            .expect("valid testbed server config") // lint:allow(panic-freedom) -- builder sees only hardcoded testbed literals; cannot fail
    }

    /// Middlebox config attesting the given code identity.
    pub fn middlebox_config(&self, code: &CodeIdentity) -> MiddleboxConfig {
        MiddleboxConfig::builder("proxy.msp.example", self.mbox_key.clone())
            .attestor(Arc::new(PakAttestor {
                pak: self.pak.clone(),
                measurement: code.measure(),
            }))
            .build()
            .expect("valid testbed middlebox config") // lint:allow(panic-freedom) -- builder sees only hardcoded testbed literals; cannot fail
    }

    /// A [`CredentialIssuer`] over the server endpoint identity.
    pub fn credential_issuer(&self) -> CredentialIssuer {
        CredentialIssuer::new(
            self.server_seed,
            "server.example",
            self.server_key.chain.clone(),
        )
    }

    /// The delegating endpoint's certificate chain — public material
    /// (it is sent in the clear in every handshake), exposed through
    /// an accessor so verifier call sites do not route through the
    /// private-key binding.
    pub fn server_issuer_chain(&self) -> &[mbtls_pki::Certificate] {
        &self.server_key.chain
    }

    /// The delegation policy endpoints verify credentials under:
    /// anchored to the server CA, issued by the server endpoint.
    pub fn delegation_policy(&self) -> DelegationPolicy {
        DelegationPolicy {
            trust_store: self.server_trust.clone(),
            issuer: "server.example".to_string(),
            required_role: None,
        }
    }

    /// The provider a delegated middlebox presents credentials from.
    pub fn credential_provider(&self) -> Arc<dyn mbtls_tls::config::CredentialProvider> {
        EndpointCredentialProvider::new(
            self.credential_issuer(),
            "proxy.msp.example",
            self.delegated_mbox.verifying_key(),
            0,
            10_000_000,
            DelegatedRole::ReadWrite,
            DelegatedDirection::Both,
        )
        .shared()
    }

    /// Client config requiring delegated credentials from middleboxes
    /// (instead of attestation). Unlike the attested helpers this
    /// propagates the builder result: the delegation testbed helpers
    /// are also exercised from non-test crates, so they stay within
    /// the panic-freedom budget.
    pub fn client_config_delegated(&self) -> Result<MbClientConfig, MbError> {
        MbClientConfig::builder(self.server_trust.clone(), self.middlebox_trust.clone())
            .middlebox_delegation(self.delegation_policy())
            .build()
    }

    /// Server config requiring delegated credentials from middleboxes.
    pub fn server_config_delegated(&self) -> Result<MbServerConfig, MbError> {
        let tls = mbtls_tls::config::ServerConfig::new(self.server_key.clone(), [0x7E; 32]);
        MbServerConfig::builder(tls, self.middlebox_trust.clone())
            .middlebox_delegation(self.delegation_policy())
            .build()
    }

    /// Middlebox config presenting delegated credentials: its TLS
    /// identity is the delegated key with an *empty* chain — the
    /// credential is its identity.
    pub fn middlebox_config_delegated(&self) -> Result<MiddleboxConfig, MbError> {
        let identity = Arc::new(CertifiedKey {
            key: self.delegated_mbox.signing_key(),
            chain: vec![],
        });
        MiddleboxConfig::builder("proxy.msp.example", identity)
            .credential_provider(self.credential_provider())
            .build()
    }
}

/// Run a complete mbTLS session (client, one client-side middlebox,
/// server) over tapped links; the client sends `secret` and the
/// server echoes `reply`. Returns the two link taps (client↔mbox and
/// mbox↔server adversary views) and the middlebox's sensitive
/// snapshot.
pub struct SessionArtifacts {
    /// Adversary's view of the client↔middlebox link.
    pub tap_left_c2s: Vec<u8>,
    /// Adversary's view (reverse direction).
    pub tap_left_s2c: Vec<u8>,
    /// Adversary's view of the middlebox↔server link.
    pub tap_right_c2s: Vec<u8>,
    /// Reverse direction.
    pub tap_right_s2c: Vec<u8>,
    /// The middlebox's key material snapshot (what lives in MS
    /// memory).
    pub mbox_sensitive: Vec<u8>,
    /// Plaintext the server received.
    pub server_got: Vec<u8>,
    /// Plaintext the client received.
    pub client_got: Vec<u8>,
}

/// Build the standard one-middlebox session used by several attacks.
pub fn run_tapped_session(
    seed: u64,
    secret: &[u8],
    reply: &[u8],
) -> Result<SessionArtifacts, MbError> {
    let mut rng = CryptoRng::from_seed(seed);
    let mut server_ca = CertificateAuthority::new_root("Web Root CA", 0, 10_000_000, &mut rng);
    let mut mbox_ca = CertificateAuthority::new_root("MSP Root CA", 0, 10_000_000, &mut rng);
    let server_key = Arc::new(CertifiedKey::issue(
        &mut server_ca,
        "server.example",
        &[],
        0,
        10_000_000,
        KeyUsage::Endpoint,
        &mut rng,
    ));
    let mbox_key = Arc::new(CertifiedKey::issue(
        &mut mbox_ca,
        "proxy.msp.example",
        &[],
        0,
        10_000_000,
        KeyUsage::Middlebox,
        &mut rng,
    ));
    let mut server_trust = TrustStore::new();
    server_trust.add_root(server_ca.certificate().clone());
    let server_trust = Arc::new(server_trust);
    let mut middlebox_trust = TrustStore::new();
    middlebox_trust.add_root(mbox_ca.certificate().clone());
    let middlebox_trust = Arc::new(middlebox_trust);

    let client_cfg = MbClientConfig::new(server_trust, middlebox_trust.clone());
    let mut client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
    let server_cfg = MbServerConfig::new(
        mbtls_tls::config::ServerConfig::new(server_key, [0x7E; 32]),
        middlebox_trust,
    );
    let mut server = MbServerSession::new(Arc::new(server_cfg), rng.fork());
    let mut mbox =
        Middlebox::new(MiddleboxConfig::new("proxy.msp.example", mbox_key), rng.fork());
    let mut tap_left = TapRelay::new(PassThrough::default());
    let mut tap_right = TapRelay::new(PassThrough::default());

    // Manual pump over concrete types so the taps and middlebox state
    // stay accessible afterwards: client | tapL | mbox | tapR | server.
    let pump = |client: &mut MbClientSession,
                    tap_left: &mut TapRelay<PassThrough>,
                    mbox: &mut Middlebox,
                    tap_right: &mut TapRelay<PassThrough>,
                    server: &mut MbServerSession|
     -> Result<(), MbError> {
        // Client → server.
        let b = client.take_outgoing();
        tap_left.feed_left(&b)?;
        let b = tap_left.take_right();
        mbox.feed_from_client(&b)?;
        let b = mbox.take_toward_server();
        tap_right.feed_left(&b)?;
        let b = tap_right.take_right();
        server.feed_incoming(&b)?;
        // Server → client.
        let b = server.take_outgoing();
        tap_right.feed_right(&b)?;
        let b = tap_right.take_left();
        mbox.feed_from_server(&b)?;
        let b = mbox.take_toward_client();
        tap_left.feed_right(&b)?;
        let b = tap_left.take_left();
        client.feed_incoming(&b)?;
        Ok(())
    };

    for _ in 0..50 {
        pump(&mut client, &mut tap_left, &mut mbox, &mut tap_right, &mut server)?;
        if client.is_ready() && server.is_ready() {
            break;
        }
    }
    if !(client.is_ready() && server.is_ready()) {
        return Err(MbError::unexpected_state(
            "tapped session handshake did not complete within the pump budget",
        ));
    }

    client.send(secret)?;
    let mut server_got = Vec::new();
    for _ in 0..20 {
        pump(&mut client, &mut tap_left, &mut mbox, &mut tap_right, &mut server)?;
        server_got.extend(server.recv());
        if server_got.len() >= secret.len() {
            break;
        }
    }
    server.send(reply)?;
    let mut client_got = Vec::new();
    for _ in 0..20 {
        pump(&mut client, &mut tap_left, &mut mbox, &mut tap_right, &mut server)?;
        client_got.extend(client.recv());
        if client_got.len() >= reply.len() {
            break;
        }
    }

    Ok(SessionArtifacts {
        tap_left_c2s: tap_left.c2s,
        tap_left_s2c: tap_left.s2c,
        tap_right_c2s: tap_right.c2s,
        tap_right_s2c: tap_right.s2c,
        mbox_sensitive: mbox.sensitive_snapshot(),
        server_got,
        client_got,
    })
}

/// A trivially transparent relay (used inside taps).
#[derive(Default)]
pub struct PassThrough {
    left: Vec<u8>,
    right: Vec<u8>,
}

impl Relay for PassThrough {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.right.extend_from_slice(data);
        Ok(())
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.left.extend_from_slice(data);
        Ok(())
    }
    fn take_left(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.left)
    }
    fn take_right(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.right)
    }
}

// ---------------------------------------------------------------
// The Table 1 attacks.
// ---------------------------------------------------------------

/// P1A: a third party taps every link and greps for the plaintext.
pub fn attack_wire_eavesdrop() -> Result<AttackReport, MbError> {
    let secret = b"CREDIT-CARD-4242424242424242";
    let art = run_tapped_session(0xA1, secret, b"ok")?;
    let mut leaked = false;
    for stream in [
        &art.tap_left_c2s,
        &art.tap_left_s2c,
        &art.tap_right_c2s,
        &art.tap_right_s2c,
    ] {
        if stream.windows(secret.len()).any(|w| ct::eq(w, secret)) {
            leaked = true;
        }
    }
    Ok(AttackReport {
        threat: "Data read on-the-wire by third party",
        property: "P1A",
        defense: "Encryption (per-hop AEAD)",
        protocol: Protocol::MbTls,
        blocked: !leaked && ct::eq(&art.server_got, secret),
        detail: format!(
            "secret delivered ({} bytes) and absent from all 4 link captures",
            art.server_got.len()
        ),
    })
}

/// P1A (MIP): the infrastructure provider scans middlebox memory.
/// With an enclave the keys are unreadable; without one they leak.
pub fn attack_mip_memory_scan(enclave: bool) -> Result<AttackReport, MbError> {
    let art = run_tapped_session(0xA2, b"payload", b"resp")?;
    let keys = art.mbox_sensitive;
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

    let found = if enclave {
        let code = CodeIdentity::new("mbtls-proxy", "1.0", b"");
        let _enclave = Enclave::create(&mut platform, &code, keys);
        let inspector = HostInspector::new(&mut platform.memory);
        !inspector.scan_for(&needle).is_empty()
    } else {
        platform.memory.write_unprotected("mbox-heap", keys);
        let inspector = HostInspector::new(&mut platform.memory);
        !inspector.scan_for(&needle).is_empty()
    };
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
        let art = run_tapped_session(0xA3, b"unchanged payload....", b"r")?;
        let in_recs = app_data_records(&art.tap_left_c2s);
        let out_recs = app_data_records(&art.tap_right_c2s);
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
    client.send(b"unchanged payload....")?;
    let wire_in = client.take_outgoing();
    naive_mbox.feed_left(&wire_in)?;
    let wire_out = naive_mbox.take_right();
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

/// P2: in-flight bit flip on a data record.
pub fn attack_record_tamper() -> Result<AttackReport, MbError> {
    let mut rng = CryptoRng::from_seed(0xA4);
    let hop = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut client = EndpointDataPlane::for_client(&hop)?;
    let mut server = EndpointDataPlane::for_server(&hop)?;
    client.send(b"transfer $10 to alice")?;
    let mut wire = client.take_outgoing();
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
    forger.send(b"evil injected data")?;
    let blocked = server.feed(&forger.take_outgoing()).is_err();
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
    client.send(b"pay $1")?;
    let wire = client.take_outgoing();
    server.feed(&wire)?;
    let first_ok = ct::eq(&server.take_plaintext(), b"pay $1");
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
        client.send(b"bypass the filter")?;
        // Adversary delivers the hop-1 record directly on hop 2.
        let spliced_ok = server.feed(&client.take_outgoing()).is_ok()
            && ct::eq(&server.take_plaintext(), b"bypass the filter");
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
        client.send(b"bypass the filter")?;
        let blocked = server.feed(&client.take_outgoing()).is_err();
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
    client.send(b"must visit mbox1 first")?;
    // Deliver the client's hop-1 record directly to mbox2 (as if it
    // arrived on hop 2).
    let result = mbox2.feed(FlowDirection::ClientToServer, &client.take_outgoing(), |_, _p| {});
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
    let art = run_tapped_session(0xAD, b"old secret traffic", b"resp")?;
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
    for mut body in app_data_records(&art.tap_right_c2s) {
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
fn delegated_verifier<'a>(
    tb: &'a Testbed,
    now: u64,
    session_nonce: [u8; 32],
) -> CredentialVerifier<'a> {
    CredentialVerifier {
        trust: &tb.server_trust,
        expected_issuer: "server.example",
        now,
        session_nonce,
        required_role: None,
    }
}

/// P3B (delegated): a credential whose validity window has lapsed is
/// presented in a new handshake — revocation-by-expiry must refuse
/// it.
pub fn attack_expired_credential() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD1);
    let nonce = [0x21u8; 32];
    let cred = tb.credential_issuer().issue(
        "proxy.msp.example",
        tb.delegated_mbox.verifying_key(),
        0,
        1_000,
        DelegatedRole::ReadWrite,
        DelegatedDirection::Both,
        nonce,
    );
    // The endpoint verifies long after not_after.
    let verdict = delegated_verifier(&tb, 2_000, nonce).verify(tb.server_issuer_chain(), &cred);
    Ok(AttackReport {
        threat: "Expired delegated credential presented by MS",
        property: "P3B",
        defense: "Credential validity window (revocation by expiry)",
        protocol: Protocol::MbTlsDelegated,
        blocked: verdict == Err(CredentialError::Expired),
        detail: match &verdict {
            Ok(()) => "expired credential unexpectedly verified".into(),
            Err(e) => format!("verifier refused: {e}"),
        },
    })
}

/// P3B (delegated): an attacker swaps its own key into a captured
/// credential — the endpoint signature must break.
pub fn attack_wrong_key_credential() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD2);
    let nonce = [0x22u8; 32];
    let mut cred = tb.credential_issuer().issue(
        "proxy.msp.example",
        tb.delegated_mbox.verifying_key(),
        0,
        10_000_000,
        DelegatedRole::ReadWrite,
        DelegatedDirection::Both,
        nonce,
    );
    // The attacker substitutes a key it controls.
    let mut attacker_rng = CryptoRng::from_seed(0xD2D2);
    cred.middlebox_key = DelegatedKeyPair::generate(&mut attacker_rng).verifying_key();
    let verdict = delegated_verifier(&tb, 500, nonce).verify(tb.server_issuer_chain(), &cred);
    Ok(AttackReport {
        threat: "Credential altered to name an attacker-controlled key",
        property: "P3B",
        defense: "Ed25519 signature over the credential transcript",
        protocol: Protocol::MbTlsDelegated,
        blocked: verdict == Err(CredentialError::BadSignature),
        detail: match &verdict {
            Ok(()) => "tampered credential unexpectedly verified".into(),
            Err(e) => format!("verifier refused: {e}"),
        },
    })
}

/// P3B (delegated, freshness): a credential minted for one session is
/// replayed into another — the transcript-bound session nonce must
/// mismatch.
pub fn attack_credential_replay() -> Result<AttackReport, MbError> {
    let tb = Testbed::new(0xD3);
    // Credential bound to session #1's nonce.
    let old_nonce = [0x31u8; 32];
    let cred = tb.credential_issuer().issue(
        "proxy.msp.example",
        tb.delegated_mbox.verifying_key(),
        0,
        10_000_000,
        DelegatedRole::ReadWrite,
        DelegatedDirection::Both,
        old_nonce,
    );
    // The verifier sits in session #2.
    let new_nonce = [0x32u8; 32];
    let verdict = delegated_verifier(&tb, 500, new_nonce).verify(tb.server_issuer_chain(), &cred);
    Ok(AttackReport {
        threat: "Delegated credential replayed across sessions",
        property: "P3B",
        defense: "Transcript-bound session nonce in the credential",
        protocol: Protocol::MbTlsDelegated,
        blocked: verdict == Err(CredentialError::SessionMismatch),
        detail: match &verdict {
            Ok(()) => "replayed credential unexpectedly verified".into(),
            Err(e) => format!("verifier refused: {e}"),
        },
    })
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
    Ok(AttackReport {
        threat: "MS substituted under a rogue delegating endpoint",
        property: "P3A",
        defense: "Issuer-chain anchoring to trusted roots",
        protocol: Protocol::MbTlsDelegated,
        blocked: matches!(verdict, Err(CredentialError::Chain(_))),
        detail: match &verdict {
            Ok(()) => "rogue delegation unexpectedly verified".into(),
            Err(e) => format!("verifier refused: {e}"),
        },
    })
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
