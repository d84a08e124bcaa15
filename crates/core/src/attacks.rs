//! The seeded fixture every test, example, bench suite and the repo
//! benchmark stand a session up from: [`Testbed`] (PKI, SGX platform
//! and party identities from one seed) and the configs for each
//! middlebox authorization mode, plus [`settle`], the one loop that
//! drives a [`Chain`] over [`TapLinks`] to quiescence, playing the
//! batching driver for deferred signature checks on the way.
//!
//! The module kept its old name when the Table 1 attacks it used to
//! hold moved to `mbtls_bench::table1`: `benchmark/src/seam.rs`, the
//! examples and every test import `mbtls_core::attacks::Testbed`, and
//! the rename to `testbed` waits for the paired benchmark change.

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::delegation::{CredentialIssuer, DelegatedDirection, DelegatedKeyPair, DelegatedRole};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_sgx::{AttestationService, CodeIdentity, Platform, Quote};
use mbtls_tls::config::{AttestationPolicy, Attestor, DelegationPolicy, PeerProof, Proof};

use crate::client::MbClientConfig;
use crate::delegation::EndpointCredentialProvider;
use crate::driver::{Chain, TapLinks};
use crate::middlebox::MiddleboxConfig;
use crate::server::MbServerConfig;
use crate::MbError;

/// The shared test environment: PKI, SGX, and party identities.
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

    /// The attestation policy endpoints hold middleboxes to: quotes
    /// from the testbed's attestation service over its code identity.
    fn attestation_policy(&self) -> AttestationPolicy {
        AttestationPolicy {
            root: self.attestation_root,
            acceptable: vec![self.mbox_code.measure()],
        }
    }

    /// The server endpoint's primary-connection config.
    fn server_tls(&self) -> mbtls_tls::config::ServerConfig {
        mbtls_tls::config::ServerConfig::new(self.server_key.clone(), [0x7E; 32])
    }

    /// Client config with middlebox attestation required.
    pub fn client_config(&self) -> MbClientConfig {
        MbClientConfig {
            middlebox_proof: PeerProof::Attestation(self.attestation_policy()),
            ..MbClientConfig::new(self.server_trust.clone(), self.middlebox_trust.clone())
        }
    }

    /// Server config with middlebox attestation required.
    pub fn server_config(&self) -> MbServerConfig {
        MbServerConfig {
            middlebox_proof: PeerProof::Attestation(self.attestation_policy()),
            ..MbServerConfig::new(self.server_tls(), self.middlebox_trust.clone())
        }
    }

    /// Middlebox config attesting the given code identity.
    pub fn middlebox_config(&self, code: &CodeIdentity) -> MiddleboxConfig {
        let attestor = PakAttestor { pak: self.pak.clone(), measurement: code.measure() };
        MiddleboxConfig {
            proof: Proof::Attestor(Arc::new(attestor)),
            ..MiddleboxConfig::new(self.mbox_key.clone())
        }
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
    /// (instead of attestation).
    pub fn client_config_delegated(&self) -> MbClientConfig {
        MbClientConfig {
            middlebox_proof: PeerProof::Delegation(self.delegation_policy()),
            ..MbClientConfig::new(self.server_trust.clone(), self.middlebox_trust.clone())
        }
    }

    /// Server config requiring delegated credentials from middleboxes.
    pub fn server_config_delegated(&self) -> MbServerConfig {
        MbServerConfig {
            middlebox_proof: PeerProof::Delegation(self.delegation_policy()),
            ..MbServerConfig::new(self.server_tls(), self.middlebox_trust.clone())
        }
    }

    /// Middlebox config presenting delegated credentials: its TLS
    /// identity is the delegated key with an *empty* chain — the
    /// credential is its identity.
    pub fn middlebox_config_delegated(&self) -> MiddleboxConfig {
        let identity = Arc::new(CertifiedKey {
            key: self.delegated_mbox.signing_key(),
            chain: vec![],
        });
        MiddleboxConfig {
            proof: Proof::Credential(self.credential_provider()),
            ..MiddleboxConfig::new(identity)
        }
    }
}

/// Pump `chain` over `links` until nothing moves; then, if the chain
/// leaves deferred signature checks to its driver
/// ([`Chain::set_defer_verify_to_driver`]), play that driver: verify
/// every group it collects, deliver the verdicts, and pump again.
/// Returns the number of verdicts delivered.
///
/// A party that fails mid-pass still has an alert to send and its
/// peers still have bytes in flight, so a failed pass does not end the
/// loop: the first error is returned once the chain is quiet. A chain
/// that never goes quiet returns "chain never went quiet" instead,
/// an error no party reports (the parties' own failures stay readable
/// through [`Chain::failed`]), so a caller that expects party failures
/// can still tell a livelock apart. At quiescence no byte may be left
/// waiting on a link.
pub fn settle<F: FnMut(usize, bool, &[u8])>(
    chain: &mut Chain,
    links: &mut TapLinks<F>,
) -> Result<usize, MbError> {
    let mut first_error = None;
    let mut verdicts = 0;
    for _ in 0..10_000 {
        match chain.pump_with(links) {
            Ok(true) => {}
            Err(e) => {
                first_error.get_or_insert(e);
            }
            Ok(false) => {
                assert_eq!(links.buffered(), 0, "quiescent chain left bytes on a link");
                match chain.discharge_pending_verifies() {
                    0 => return first_error.map_or(Ok(verdicts), Err),
                    groups => verdicts += groups,
                }
            }
        }
    }
    Err(MbError::unexpected_state("chain never went quiet"))
}
