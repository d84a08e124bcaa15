//! Chain verification: trust stores, path building, revocation.

use crate::cert::{Certificate, KeyUsage};
use mbtls_crypto::ed25519::verify_checks;
use std::collections::HashSet;

/// One deferred signature check, re-exported from where the batch
/// verifier that discharges it lives.
/// [`TrustStore::verify_chain_deferred`] performs every *structural*
/// chain check eagerly and returns the expensive Ed25519
/// verifications as a list of these, so they can be discharged
/// together with whatever else the same handshake flight owes — by
/// the connection itself, or by a driver batching across many.
pub use mbtls_crypto::ed25519::SignatureCheck;

/// Why a chain was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertError {
    /// The chain was empty.
    EmptyChain,
    /// The chain was longer than the configured depth limit.
    ChainTooLong,
    /// A certificate in the chain is not yet valid.
    NotYetValid,
    /// A certificate in the chain has expired.
    Expired,
    /// A signature in the chain did not verify.
    BadSignature,
    /// The chain does not terminate at a trusted root.
    UnknownIssuer,
    /// The leaf does not cover the expected name.
    NameMismatch,
    /// An intermediate was not marked as a CA.
    NotACa,
    /// A certificate in the chain has been revoked.
    Revoked,
    /// The leaf's key usage did not match what the caller required.
    WrongUsage,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CertError::EmptyChain => "empty certificate chain",
            CertError::ChainTooLong => "certificate chain too long",
            CertError::NotYetValid => "certificate not yet valid",
            CertError::Expired => "certificate expired",
            CertError::BadSignature => "bad certificate signature",
            CertError::UnknownIssuer => "chain does not reach a trusted root",
            CertError::NameMismatch => "certificate name mismatch",
            CertError::NotACa => "intermediate certificate is not a CA",
            CertError::Revoked => "certificate revoked",
            CertError::WrongUsage => "certificate key usage mismatch",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for CertError {}

/// A revocation list: (issuer name, serial) pairs.
#[derive(Default, Clone)]
pub struct RevocationList {
    revoked: HashSet<(String, u64)>,
}

impl RevocationList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Revoke a certificate by issuer + serial.
    pub fn revoke(&mut self, issuer: &str, serial: u64) {
        self.revoked.insert((issuer.to_string(), serial));
    }

    /// Is this certificate revoked?
    pub fn is_revoked(&self, cert: &Certificate) -> bool {
        self.revoked
            .contains(&(cert.payload.issuer.clone(), cert.payload.serial))
    }
}

/// A set of trusted root certificates plus verification policy.
pub struct TrustStore {
    roots: Vec<Certificate>,
    revocation: RevocationList,
    max_chain_len: usize,
}

impl TrustStore {
    /// Empty store with the default depth limit (4: leaf + two
    /// intermediates + root).
    pub fn new() -> Self {
        TrustStore {
            roots: Vec::new(),
            revocation: RevocationList::new(),
            max_chain_len: 4,
        }
    }

    /// Trust a root certificate.
    pub fn add_root(&mut self, root: Certificate) {
        self.roots.push(root);
    }

    /// Install a revocation list.
    pub fn set_revocation_list(&mut self, rl: RevocationList) {
        self.revocation = rl;
    }

    /// Verify a leaf-first chain for `expected_name` at time `now`,
    /// requiring the leaf's usage to be `usage` (or pass `None` to
    /// accept any usage).
    ///
    /// The chain may or may not include the root itself; either way it
    /// must terminate at a certificate issued (or self-issued) by one
    /// of the stored roots.
    pub fn verify_chain(
        &self,
        chain: &[Certificate],
        expected_name: &str,
        now: u64,
        usage: Option<KeyUsage>,
    ) -> Result<(), CertError> {
        let checks = self.verify_chain_deferred(chain, expected_name, now, usage)?;
        if verify_checks(&checks).all_valid() {
            Ok(())
        } else {
            Err(CertError::BadSignature)
        }
    }

    /// The structural half of [`TrustStore::verify_chain`]: performs
    /// every non-signature check (shape, names, validity windows,
    /// revocation, CA bits, anchoring to a trusted root) eagerly and
    /// returns the Ed25519 verifications still owed as
    /// [`SignatureCheck`]s. The chain is valid iff this returns `Ok`
    /// *and* every returned check passes.
    ///
    /// Anchoring picks the candidate root by issuer name (plus CA bit
    /// and validity), so a chain whose last certificate names no
    /// trusted root fails here with [`CertError::UnknownIssuer`]; a
    /// name-matching root whose signature later fails surfaces as
    /// [`CertError::BadSignature`] from the caller's discharge.
    pub fn verify_chain_deferred(
        &self,
        chain: &[Certificate],
        expected_name: &str,
        now: u64,
        usage: Option<KeyUsage>,
    ) -> Result<Vec<SignatureCheck>, CertError> {
        if chain.is_empty() {
            return Err(CertError::EmptyChain);
        }
        if chain.len() > self.max_chain_len {
            return Err(CertError::ChainTooLong);
        }

        let leaf = &chain[0];
        if !leaf.payload.matches_name(expected_name) {
            return Err(CertError::NameMismatch);
        }
        if let Some(required) = usage {
            if leaf.payload.usage != required {
                return Err(CertError::WrongUsage);
            }
        }

        for (i, cert) in chain.iter().enumerate() {
            if now < cert.payload.not_before {
                return Err(CertError::NotYetValid);
            }
            if now >= cert.payload.not_after {
                return Err(CertError::Expired);
            }
            if self.revocation.is_revoked(cert) {
                return Err(CertError::Revoked);
            }
            // Every non-leaf element must be a CA.
            if i > 0 && !cert.payload.is_ca {
                return Err(CertError::NotACa);
            }
        }

        // Walk the chain: each certificate must be signed by the next,
        // and the last must be signed by a trusted root (or *be* one).
        let mut checks = Vec::with_capacity(chain.len());
        for pair in chain.windows(2) {
            let (child, parent) = (&pair[0], &pair[1]);
            checks.push(SignatureCheck {
                key: parent.payload.public_key,
                msg: child.payload.encode(),
                sig: child.signature,
            });
        }
        let last = chain.last().ok_or(CertError::EmptyChain)?;
        // Case 1: `last` *is* a trusted root (byte-identical) — no
        // further signature owed.
        if !self.roots.iter().any(|root| root == last) {
            // Case 2: `last` must be issued by a trusted root; select
            // the candidate by issuer name.
            let anchor = self
                .roots
                .iter()
                .find(|root| {
                    root.payload.is_ca
                        && root.valid_at(now)
                        && root.payload.subject == last.payload.issuer
                })
                .ok_or(CertError::UnknownIssuer)?;
            checks.push(SignatureCheck {
                key: anchor.payload.public_key,
                msg: last.payload.encode(),
                sig: last.signature,
            });
        }
        Ok(checks)
    }
}

impl Default for TrustStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertificateAuthority, CertifiedKey};
    use mbtls_crypto::rng::CryptoRng;

    struct Fixture {
        store: TrustStore,
        root: CertificateAuthority,
        rng: CryptoRng,
    }

    fn fixture() -> Fixture {
        let mut rng = CryptoRng::from_seed(0x7257);
        let root = CertificateAuthority::new_root("Root CA", 0, 1_000_000, &mut rng);
        let mut store = TrustStore::new();
        store.add_root(root.certificate().clone());
        Fixture { store, root, rng }
    }

    #[test]
    fn direct_chain_verifies() {
        let mut f = fixture();
        let ck = CertifiedKey::issue(&mut f.root, "site.example", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        assert_eq!(
            f.store.verify_chain(&ck.chain, "site.example", 500, Some(KeyUsage::Endpoint)),
            Ok(())
        );
    }

    #[test]
    fn intermediate_chain_verifies() {
        let mut f = fixture();
        let mut inter = f.root.issue_intermediate("Inter CA", 0, 1000, &mut f.rng);
        let ck = CertifiedKey::issue(&mut inter, "deep.example", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let chain = vec![ck.leaf().clone(), inter.certificate().clone()];
        assert_eq!(f.store.verify_chain(&chain, "deep.example", 10, None), Ok(()));
    }

    #[test]
    fn chain_including_root_verifies() {
        let mut f = fixture();
        let ck = CertifiedKey::issue(&mut f.root, "site.example", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let chain = vec![ck.leaf().clone(), f.root.certificate().clone()];
        assert_eq!(f.store.verify_chain(&chain, "site.example", 10, None), Ok(()));
    }

    #[test]
    fn untrusted_root_rejected() {
        let mut f = fixture();
        let mut rogue = CertificateAuthority::new_root("Rogue CA", 0, 1_000_000, &mut f.rng);
        let ck = CertifiedKey::issue(&mut rogue, "site.example", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        assert_eq!(
            f.store.verify_chain(&ck.chain, "site.example", 10, None),
            Err(CertError::UnknownIssuer)
        );
    }

    #[test]
    fn expired_and_not_yet_valid_rejected() {
        let mut f = fixture();
        let ck = CertifiedKey::issue(&mut f.root, "s", &[], 100, 200, KeyUsage::Endpoint, &mut f.rng);
        assert_eq!(f.store.verify_chain(&ck.chain, "s", 50, None), Err(CertError::NotYetValid));
        assert_eq!(f.store.verify_chain(&ck.chain, "s", 200, None), Err(CertError::Expired));
        assert_eq!(f.store.verify_chain(&ck.chain, "s", 150, None), Ok(()));
    }

    #[test]
    fn name_mismatch_rejected() {
        let mut f = fixture();
        let ck = CertifiedKey::issue(&mut f.root, "real.example", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        assert_eq!(
            f.store.verify_chain(&ck.chain, "fake.example", 10, None),
            Err(CertError::NameMismatch)
        );
    }

    #[test]
    fn revoked_rejected() {
        let mut f = fixture();
        let ck = CertifiedKey::issue(&mut f.root, "s", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let mut rl = RevocationList::new();
        rl.revoke("Root CA", ck.leaf().payload.serial);
        f.store.set_revocation_list(rl);
        assert_eq!(f.store.verify_chain(&ck.chain, "s", 10, None), Err(CertError::Revoked));
    }

    #[test]
    fn wrong_usage_rejected() {
        let mut f = fixture();
        let ck = CertifiedKey::issue(&mut f.root, "mb", &[], 0, 1000, KeyUsage::Middlebox, &mut f.rng);
        assert_eq!(
            f.store.verify_chain(&ck.chain, "mb", 10, Some(KeyUsage::Endpoint)),
            Err(CertError::WrongUsage)
        );
        assert_eq!(f.store.verify_chain(&ck.chain, "mb", 10, Some(KeyUsage::Middlebox)), Ok(()));
    }

    #[test]
    fn empty_chain_rejected() {
        let f = fixture();
        assert_eq!(f.store.verify_chain(&[], "x", 0, None), Err(CertError::EmptyChain));
    }

    #[test]
    fn non_ca_intermediate_rejected() {
        let mut f = fixture();
        // Issue an end-entity cert and try to use it as an intermediate.
        let fake_inter = CertifiedKey::issue(&mut f.root, "not-a-ca", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        // Hand-sign a leaf under the non-CA key.
        let leaf_key = mbtls_crypto::ed25519::SigningKey::generate(&mut f.rng);
        let payload = crate::cert::CertificatePayload {
            serial: 99,
            subject: "victim".into(),
            alt_names: vec![],
            issuer: "not-a-ca".into(),
            not_before: 0,
            not_after: 1000,
            public_key: leaf_key.verifying_key(),
            is_ca: false,
            usage: KeyUsage::Endpoint,
        };
        let signature = fake_inter.key.sign(&payload.encode());
        let leaf = Certificate { payload, signature };
        let chain = vec![leaf, fake_inter.leaf().clone()];
        assert_eq!(f.store.verify_chain(&chain, "victim", 10, None), Err(CertError::NotACa));
    }

    #[test]
    fn tampered_intermediate_signature_rejected() {
        let mut f = fixture();
        let mut inter = f.root.issue_intermediate("Inter", 0, 1000, &mut f.rng);
        let ck = CertifiedKey::issue(&mut inter, "x", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let mut inter_cert = inter.certificate().clone();
        inter_cert.signature.0[0] ^= 1;
        let chain = vec![ck.leaf().clone(), inter_cert];
        // Depending on validation order this surfaces as a bad
        // signature or an unknown issuer; either way it must fail.
        assert!(f.store.verify_chain(&chain, "x", 10, None).is_err());
    }

    #[test]
    fn deferred_checks_match_inline_verdict() {
        let mut f = fixture();
        let mut inter = f.root.issue_intermediate("Inter CA", 0, 1000, &mut f.rng);
        let ck = CertifiedKey::issue(&mut inter, "deep.example", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let chain = vec![ck.leaf().clone(), inter.certificate().clone()];

        // Good chain: structural pass yields one check per link
        // (leaf←inter, inter←root) and all discharge true.
        let checks = f
            .store
            .verify_chain_deferred(&chain, "deep.example", 10, None)
            .unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.check()));

        // A chain ending at the root itself owes one fewer check.
        let ck2 = CertifiedKey::issue(&mut f.root, "site", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let with_root = vec![ck2.leaf().clone(), f.root.certificate().clone()];
        let checks = f.store.verify_chain_deferred(&with_root, "site", 10, None).unwrap();
        assert_eq!(checks.len(), 1);

        // Tampered signature: structural pass still succeeds, the
        // discharge fails, and the inline wrapper reports it.
        let mut bad = chain.clone();
        bad[0].signature.0[0] ^= 1;
        let checks = f.store.verify_chain_deferred(&bad, "deep.example", 10, None).unwrap();
        assert!(!checks.iter().all(|c| c.check()));
        assert_eq!(
            f.store.verify_chain(&bad, "deep.example", 10, None),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn depth_limit_enforced() {
        let mut f = fixture();
        let mut c1 = f.root.issue_intermediate("i1", 0, 1000, &mut f.rng);
        let mut c2 = c1.issue_intermediate("i2", 0, 1000, &mut f.rng);
        let mut c3 = c2.issue_intermediate("i3", 0, 1000, &mut f.rng);
        let ck = CertifiedKey::issue(&mut c3, "leaf", &[], 0, 1000, KeyUsage::Endpoint, &mut f.rng);
        let chain = vec![
            ck.leaf().clone(),
            c3.certificate().clone(),
            c2.certificate().clone(),
            c1.certificate().clone(),
            f.root.certificate().clone(),
        ];
        assert_eq!(f.store.verify_chain(&chain, "leaf", 10, None), Err(CertError::ChainTooLong));
    }
}
