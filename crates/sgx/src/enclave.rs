//! Enclaves: isolated state containers with measurement, quoting, and
//! sealing.
//!
//! An [`Enclave<S>`] owns state `S` whose only access path is the
//! ECALL closure interface — the simulation's analogue of "only code
//! linked into the enclave touches enclave memory". The host-visible
//! page image is ciphertext produced under a per-platform memory
//! encryption key; [`crate::memory::HostInspector`] sees nothing else.

use crate::attest::{PlatformAttestationKey, Quote, REPORT_DATA_LEN};
use crate::measurement::{CodeIdentity, Measurement};
use crate::memory::MachineMemory;
use mbtls_crypto::ct;
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::kdf::hkdf;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_crypto::sha2::Sha256;
use mbtls_telemetry::{EventKind, Party, SharedSink};
use std::mem::ManuallyDrop;

/// Modeled cost of one full enclave boundary crossing (ECALL in +
/// return, or OCALL out + resume), matching
/// [`crate::cost::SgxCostModel::full_transition_pair_ns`].
const TRANSITION_PAIR_NS: u64 = 1_750;

/// Errors from seal/unseal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Sealed blob failed authentication (wrong platform, wrong
    /// enclave, or tampered blob).
    BadBlob,
    /// AES-GCM refused to seal the data, which can only mean it is
    /// over the 2^36-byte limit of one nonce (the key is always 32
    /// bytes).
    TooLong,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SealError::BadBlob => "sealed blob authentication failed",
            SealError::TooLong => "data too long to seal",
        })
    }
}

impl std::error::Error for SealError {}

/// State that can live inside an enclave must describe its in-memory
/// image so the simulator can maintain the host-visible (encrypted)
/// page snapshot.
pub trait EnclaveState {
    /// Serialize the sensitive in-memory representation. The bytes
    /// are never shown to the host in the clear — they are what gets
    /// memory-encrypted.
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// Scrub any key material held by the state, in place. The
    /// enclave's [`Drop`] runs this before the state's own
    /// destructor, so teardown never leaves secrets in freed memory.
    fn wipe(&mut self);
}

impl EnclaveState for Vec<u8> {
    fn snapshot_bytes(&self) -> Vec<u8> {
        self.clone()
    }

    fn wipe(&mut self) {
        ct::zeroize(self);
    }
}

/// One SGX-capable machine: its attestation key, its memory
/// encryption key, its sealing secret, and its RAM map.
// lint:secret
pub struct Platform {
    attestation: PlatformAttestationKey,
    /// Key the (simulated) memory encryption engine uses.
    mee_key: [u8; 32],
    /// Root of the sealing-key derivation.
    sealing_secret: [u8; 32],
    /// The machine's RAM.
    pub memory: MachineMemory,
    enclave_counter: u64,
    telemetry: Option<SharedSink>,
}

impl Platform {
    /// Boot a platform with a provisioned attestation key.
    pub fn new(attestation: PlatformAttestationKey, rng: &mut CryptoRng) -> Self {
        Platform {
            attestation,
            mee_key: rng.gen_array(),
            sealing_secret: rng.gen_array(),
            memory: MachineMemory::new(),
            enclave_counter: 0,
            telemetry: None,
        }
    }

    /// The platform id (public).
    pub fn platform_id(&self) -> u64 {
        self.attestation.platform_id
    }

    /// Attach a telemetry sink; enclave lifecycle and boundary-crossing
    /// events on this platform are emitted through it.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        self.telemetry = Some(sink);
    }

    fn emit(&self, enclave_id: u64, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.emit(Party::Enclave(enclave_id), kind);
        }
    }

    /// Zero the platform root keys in place (the attestation signing
    /// key zeroizes itself on drop). This is the routine [`Drop`]
    /// runs, exposed so a decommissioned platform can be scrubbed
    /// early.
    pub fn wipe(&mut self) {
        ct::zeroize(&mut self.mee_key);
        ct::zeroize(&mut self.sealing_secret);
    }
}

impl Drop for Platform {
    fn drop(&mut self) {
        self.wipe();
    }
}

// The MEE key and sealing secret are the platform's root secrets; a
// derived formatter would print both. Show only public identity.
impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Platform(id={}, enclaves={}, ..)",
            self.attestation.platform_id, self.enclave_counter
        )
    }
}

/// An enclave instance holding state `S`.
// lint:secret
pub struct Enclave<S: EnclaveState> {
    measurement: Measurement,
    region_name: String,
    /// Platform-local enclave id (also the suffix of `region_name`).
    id: u64,
    state: S,
    /// Nonce counter for the memory-encryption engine.
    mee_nonce: u64,
}

impl<S: EnclaveState> Enclave<S> {
    /// `ECREATE`+`EINIT`: measure `code` and place `initial_state`
    /// into protected memory on `platform`.
    pub fn create(platform: &mut Platform, code: &CodeIdentity, initial_state: S) -> Self {
        platform.enclave_counter += 1;
        let id = platform.enclave_counter;
        let region_name = format!("enclave-{id}");
        let mut enclave = Enclave {
            measurement: code.measure(),
            region_name,
            id,
            state: initial_state,
            mee_nonce: 0,
        };
        enclave.sync_page_image(platform);
        platform.emit(id, EventKind::EnclaveCreate { enclave: id });
        enclave
    }

    /// The enclave's measurement (public — anyone can measure the
    /// binary).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// ECALL: run enclave code against the protected state. After the
    /// call returns, the host-visible page image is refreshed (the
    /// MEE re-encrypts dirty cache lines as they spill to DRAM).
    ///
    /// Panics if the host tampered with the protected region — real
    /// SGX raises a machine check on integrity failure, which is
    /// similarly unrecoverable for the enclave.
    pub fn ecall<R>(
        &mut self,
        platform: &mut Platform,
        f: impl FnOnce(&mut S) -> R,
    ) -> R {
        if let Some((_, tampered)) = platform.memory.protected_image(&self.region_name) {
            assert!(
                !tampered,
                "enclave memory integrity check failed (host tampering detected)"
            );
        }
        let out = f(&mut self.state);
        self.sync_page_image(platform);
        platform.emit(self.id, EventKind::Ecall { enclave: self.id, cost_ns: TRANSITION_PAIR_NS });
        out
    }

    /// Read-only ECALL variant.
    pub fn ecall_ref<R>(&self, platform: &Platform, f: impl FnOnce(&S) -> R) -> R {
        if let Some((_, tampered)) = platform.memory.protected_image(&self.region_name) {
            assert!(
                !tampered,
                "enclave memory integrity check failed (host tampering detected)"
            );
        }
        platform.emit(self.id, EventKind::Ecall { enclave: self.id, cost_ns: TRANSITION_PAIR_NS });
        f(&self.state)
    }

    /// Produce a remote-attestation quote binding `report_data`.
    pub fn quote(&self, platform: &Platform, report_data: [u8; REPORT_DATA_LEN]) -> Quote {
        // Quoting leaves the enclave to talk to the quoting enclave —
        // modeled as one OCALL round trip.
        platform.emit(self.id, EventKind::Ocall { enclave: self.id, cost_ns: TRANSITION_PAIR_NS });
        platform.attestation.quote(self.measurement, report_data)
    }

    /// Seal `data` so only this enclave identity on this platform can
    /// recover it.
    pub fn seal(&self, platform: &Platform, data: &[u8]) -> Result<Vec<u8>, SealError> {
        let gcm = AesGcm::new(&self.sealing_key(platform)).map_err(|_| SealError::TooLong)?;
        // Deterministic sealing nonce derived from content would risk
        // nonce reuse; use a random nonce carried in the blob.
        // The sealing key is per-(platform, enclave) so a fixed
        // prefix + counter would also work; we use the snapshot hash
        // for entropy-free determinism plus a length guard.
        let mut nonce = [0u8; 12];
        let digest = Sha256::digest(data);
        nonce.copy_from_slice(&digest[..12]);
        let mut blob = nonce.to_vec();
        gcm.seal_into(&nonce, b"sgx-seal", data, &mut blob)
            .map_err(|_| SealError::TooLong)?;
        Ok(blob)
    }

    /// Recover sealed data.
    pub fn unseal(&self, platform: &Platform, blob: &[u8]) -> Result<Vec<u8>, SealError> {
        let (nonce, sealed) = blob.split_first_chunk::<12>().ok_or(SealError::BadBlob)?;
        let gcm = AesGcm::new(&self.sealing_key(platform)).map_err(|_| SealError::BadBlob)?;
        gcm.open(nonce, b"sgx-seal", sealed).map_err(|_| SealError::BadBlob)
    }

    fn sealing_key(&self, platform: &Platform) -> Secret {
        hkdf::<Sha256>(&platform.sealing_secret, &self.measurement.0, b"sgx-sealing-key", 32)
    }

    /// This enclave's memory-encryption key: the platform's MEE key
    /// expanded over the enclave id, as [`Enclave::sealing_key`] does
    /// over the measurement. Every enclave's nonce counter starts at
    /// 0, so under the one platform key two enclaves would seal their
    /// first images under the same (key, nonce), and the XOR of the
    /// two images would be the XOR of the two states: a host running
    /// an enclave of known state beside a victim would read the
    /// victim's. With a key per enclave, each (key, nonce) pair is one
    /// sync of one enclave.
    fn mee_key(&self, platform: &Platform) -> Secret {
        hkdf::<Sha256>(&platform.mee_key, &self.id.to_be_bytes(), b"sgx-mee-key", 32)
    }

    /// Re-encrypt the state snapshot into the host-visible region.
    fn sync_page_image(&mut self, platform: &mut Platform) {
        let snapshot = self.state.snapshot_bytes();
        self.mee_nonce += 1;
        let mut nonce = [0u8; 12];
        nonce[4..].copy_from_slice(&self.mee_nonce.to_be_bytes());
        let image = AesGcm::new(&self.mee_key(platform))
            .and_then(|gcm| gcm.seal(&nonce, self.region_name.as_bytes(), &snapshot));
        // Neither step fails: the key is 32 bytes, and a state is far
        // below GCM's 2^36-byte limit. Were one to, the host would
        // keep the last image, never see plaintext.
        if let Ok(image) = image {
            platform.memory.write_protected(&self.region_name, image);
        }
    }

    /// `EREMOVE` analogue: tear down the enclave, free its protected
    /// pages, and hand the state back to the caller — the
    /// simulation's stand-in for enclave code shipping its results
    /// out (sealed or over an attested channel) before exit.
    ///
    /// `Enclave` has a scrubbing [`Drop`], so `state` cannot be moved
    /// out of `self` directly (E0509). All fallible/panicking work
    /// happens first, while `self` is still armed — an early exit
    /// there drops the enclave normally, wiping the state. Only then
    /// does [`ManuallyDrop`] disarm the destructor so the state can
    /// be read out exactly once and the remaining owning field
    /// dropped by hand: no path double-drops, none leaks.
    ///
    /// Panics if the host tampered with the protected region, like
    /// [`Enclave::ecall`] (SGX raises a machine check on integrity
    /// failure).
    pub fn destroy(self, platform: &mut Platform) -> S {
        if let Some((_, tampered)) = platform.memory.protected_image(&self.region_name) {
            assert!(
                !tampered,
                "enclave memory integrity check failed (host tampering detected)"
            );
        }
        platform.memory.remove_protected(&self.region_name);
        platform.emit(self.id, EventKind::EnclaveDestroy { enclave: self.id });
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped, so `state` is read exactly
        // once and `region_name`'s destructor runs exactly once; the
        // other fields are Copy.
        let state = unsafe { std::ptr::read(&this.state) };
        unsafe { std::ptr::drop_in_place(&mut this.region_name) };
        state
    }
}

impl<S: EnclaveState> Drop for Enclave<S> {
    fn drop(&mut self) {
        // Scrub key material inside the state before its own
        // destructor frees the backing memory.
        self.state.wipe();
    }
}

// Enclave state is, by definition, the secret being protected; keep
// it out of the derived formatter.
impl<S: EnclaveState> std::fmt::Debug for Enclave<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Enclave(id={}, region={}, ..)", self.id, self.region_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::AttestationService;
    use crate::memory::HostInspector;

    fn setup() -> (Platform, CryptoRng, AttestationService) {
        let mut rng = CryptoRng::from_seed(0xE9C1);
        let mut svc = AttestationService::new(&mut rng);
        let pak = svc.provision_platform(&mut rng);
        let platform = Platform::new(pak, &mut rng);
        (platform, rng, svc)
    }

    #[test]
    fn state_is_not_host_visible() {
        let (mut platform, _, _) = setup();
        let code = CodeIdentity::new("proxy", "1.0", b"");
        let secret = b"HOP-KEY-0123456789abcdef".to_vec();
        let _enclave = Enclave::create(&mut platform, &code, secret.clone());
        let insp = HostInspector::new(&mut platform.memory);
        assert!(insp.scan_for(&secret).is_empty(), "enclave state leaked to host memory");
    }

    #[test]
    fn unprotected_state_is_host_visible() {
        let (mut platform, _, _) = setup();
        // A non-enclave middlebox keeps its keys in ordinary memory.
        platform
            .memory
            .write_unprotected("mbox-heap", b"HOP-KEY-0123456789abcdef".to_vec());
        let insp = HostInspector::new(&mut platform.memory);
        assert_eq!(insp.scan_for(b"HOP-KEY"), vec!["mbox-heap".to_string()]);
    }

    #[test]
    fn ecall_updates_and_reencrypts() {
        let (mut platform, _, _) = setup();
        let code = CodeIdentity::new("counter", "1.0", b"");
        let mut enclave = Enclave::create(&mut platform, &code, vec![0u8]);
        let before = {
            let insp = HostInspector::new(&mut platform.memory);
            insp.read_region("enclave-1").unwrap()
        };
        let result = enclave.ecall(&mut platform, |state| {
            state[0] += 1;
            state[0]
        });
        assert_eq!(result, 1);
        let after = {
            let insp = HostInspector::new(&mut platform.memory);
            insp.read_region("enclave-1").unwrap()
        };
        // Image changed (fresh nonce) but still reveals nothing.
        assert_ne!(before, after);
    }

    // Two enclaves on one platform each seal their first image under
    // nonce counter 1. The host runs one of them with state it knows;
    // XORing the two images and its own state must not give it the
    // victim's.
    #[test]
    fn colocated_enclave_of_known_state_does_not_reveal_its_neighbour() {
        let (mut platform, _, _) = setup();
        let secret = b"victim hop keys, 32 bytes long!!".to_vec();
        let known = vec![0u8; secret.len()];
        let code = CodeIdentity::new("proxy", "1.0", b"");
        let _victim = Enclave::create(&mut platform, &code, secret.clone());
        let _host_own = Enclave::create(&mut platform, &code, known.clone());
        let insp = HostInspector::new(&mut platform.memory);
        let victim = insp.read_region("enclave-1").unwrap();
        let own = insp.read_region("enclave-2").unwrap();
        let recovered: Vec<u8> =
            victim.iter().zip(&own).zip(&known).map(|((v, o), k)| v ^ o ^ k).collect();
        assert_ne!(recovered, secret, "enclaves share a keystream under the platform MEE key");
    }

    #[test]
    #[should_panic(expected = "integrity check failed")]
    fn tampering_with_enclave_memory_is_fatal() {
        let (mut platform, _, _) = setup();
        let code = CodeIdentity::new("proxy", "1.0", b"");
        let mut enclave = Enclave::create(&mut platform, &code, vec![1, 2, 3]);
        {
            let mut insp = HostInspector::new(&mut platform.memory);
            insp.tamper("enclave-1", 0, 0xFF);
        }
        enclave.ecall(&mut platform, |_| ());
    }

    #[test]
    fn quote_reflects_code_identity() {
        let (mut platform, _, svc) = setup();
        let good_code = CodeIdentity::new("proxy", "1.0", b"");
        let evil_code = CodeIdentity::new("proxy-evil", "1.0", b"");
        let good = Enclave::create(&mut platform, &good_code, vec![]);
        let evil = Enclave::create(&mut platform, &evil_code, vec![]);
        let report = [5u8; 64];
        let expected = [good_code.measure()];
        assert!(good
            .quote(&platform, report)
            .verify(&svc.root_verifying_key(), &expected, &report)
            .is_ok());
        assert!(evil
            .quote(&platform, report)
            .verify(&svc.root_verifying_key(), &expected, &report)
            .is_err());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let (mut platform, _, _) = setup();
        let code = CodeIdentity::new("proxy", "1.0", b"");
        let enclave = Enclave::create(&mut platform, &code, vec![]);
        let blob = enclave.seal(&platform, b"session ticket keys").unwrap();
        assert_eq!(enclave.unseal(&platform, &blob).unwrap(), b"session ticket keys");
    }

    #[test]
    fn seal_is_enclave_specific() {
        let (mut platform, _, _) = setup();
        let a = Enclave::create(&mut platform, &CodeIdentity::new("a", "1", b""), vec![]);
        let b = Enclave::create(&mut platform, &CodeIdentity::new("b", "1", b""), vec![]);
        let blob = a.seal(&platform, b"secret").unwrap();
        assert_eq!(b.unseal(&platform, &blob), Err(SealError::BadBlob));
        assert!(a.unseal(&platform, &blob).is_ok());
    }

    #[test]
    fn seal_is_platform_specific() {
        let (mut p1, mut rng, mut svc) = setup();
        let pak2 = svc.provision_platform(&mut rng);
        let mut p2 = Platform::new(pak2, &mut rng);
        let code = CodeIdentity::new("proxy", "1.0", b"");
        let e1 = Enclave::create(&mut p1, &code, vec![]);
        let e2 = Enclave::create(&mut p2, &code, vec![]);
        let blob = e1.seal(&p1, b"secret").unwrap();
        assert_eq!(e2.unseal(&p2, &blob), Err(SealError::BadBlob));
    }

    #[test]
    fn tampered_sealed_blob_rejected() {
        let (mut platform, _, _) = setup();
        let enclave = Enclave::create(&mut platform, &CodeIdentity::new("a", "1", b""), vec![]);
        let mut blob = enclave.seal(&platform, b"data").unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert_eq!(enclave.unseal(&platform, &blob), Err(SealError::BadBlob));
        assert_eq!(enclave.unseal(&platform, &[1, 2, 3]), Err(SealError::BadBlob));
    }

    /// Enclave state that records whether `wipe` ran, for proving the
    /// `Drop` impl actually reaches it.
    struct ProbeState {
        data: Vec<u8>,
        wiped: std::rc::Rc<std::cell::Cell<bool>>,
    }

    impl EnclaveState for ProbeState {
        fn snapshot_bytes(&self) -> Vec<u8> {
            self.data.clone()
        }
        fn wipe(&mut self) {
            ct::zeroize(&mut self.data);
            self.wiped.set(true);
        }
    }

    #[test]
    fn dropping_an_enclave_wipes_its_state() {
        let (mut platform, _, _) = setup();
        let wiped = std::rc::Rc::new(std::cell::Cell::new(false));
        let state = ProbeState {
            data: b"hop keys".to_vec(),
            wiped: wiped.clone(),
        };
        let enclave = Enclave::create(&mut platform, &CodeIdentity::new("p", "1", b""), state);
        assert!(!wiped.get());
        drop(enclave);
        assert!(wiped.get(), "Enclave::drop must run EnclaveState::wipe");
    }

    #[test]
    fn destroy_returns_state_intact_and_frees_pages() {
        let (mut platform, _, _) = setup();
        let wiped = std::rc::Rc::new(std::cell::Cell::new(false));
        let state = ProbeState {
            data: b"sealed results".to_vec(),
            wiped: wiped.clone(),
        };
        let mut enclave = Enclave::create(&mut platform, &CodeIdentity::new("p", "1", b""), state);
        enclave.ecall(&mut platform, |s| s.data.push(b'!'));
        let out = enclave.destroy(&mut platform);
        // The caller receives the live state — destroy hands results
        // out, it does not scrub them.
        assert_eq!(out.data, b"sealed results!");
        assert!(!wiped.get(), "destroy must not wipe the returned state");
        // ...but the protected pages are gone (EREMOVE).
        assert!(platform.memory.protected_image("enclave-1").is_none());
        let insp = HostInspector::new(&mut platform.memory);
        assert!(insp.scan_for(b"sealed results").is_empty());
    }

    #[test]
    fn destroy_after_tamper_panics_and_still_wipes() {
        let (mut platform, _, _) = setup();
        let wiped = std::rc::Rc::new(std::cell::Cell::new(false));
        let state = ProbeState {
            data: b"doomed keys".to_vec(),
            wiped: wiped.clone(),
        };
        let enclave = Enclave::create(&mut platform, &CodeIdentity::new("p", "1", b""), state);
        {
            let mut insp = HostInspector::new(&mut platform.memory);
            insp.tamper("enclave-1", 0, 0xFF);
        }
        // The integrity check runs before ManuallyDrop disarms the
        // destructor, so the unwinding path drops the enclave normally
        // — exactly once, wiping the state.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enclave.destroy(&mut platform)
        }));
        assert!(result.is_err());
        assert!(wiped.get(), "unwinding out of destroy must wipe the state");
    }

    #[test]
    fn platform_drop_zeroes_root_keys_in_place() {
        let (platform, _, _) = setup();
        let mut slot = ManuallyDrop::new(platform);
        let p: *mut Platform = &mut *slot;
        // SAFETY: the storage stays allocated inside `slot` for the
        // whole test; after drop_in_place only the inline key arrays
        // are read, which remain initialized bytes. `slot` is
        // ManuallyDrop, so nothing drops the platform a second time.
        unsafe {
            assert!((*p).mee_key.iter().any(|&b| b != 0));
            assert!((*p).sealing_secret.iter().any(|&b| b != 0));
            std::ptr::drop_in_place(p);
            assert!(
                (*p).mee_key.iter().all(|&b| b == 0),
                "Platform::drop left the MEE key in freed memory"
            );
            assert!(
                (*p).sealing_secret.iter().all(|&b| b == 0),
                "Platform::drop left the sealing secret in freed memory"
            );
        }
    }

    proptest::proptest! {
        /// Arbitrary interleavings of create / destroy / plain drop:
        /// no path may double-drop the state (an abort fails the
        /// test process) and destroyed state always comes back
        /// byte-identical.
        #[test]
        fn create_destroy_cycles_never_double_drop(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
                1..8,
            ),
            destroy_mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 8),
        ) {
            let (mut platform, _, _) = setup();
            for (i, payload) in payloads.iter().enumerate() {
                let code = CodeIdentity::new("cycle", "1.0", b"");
                let enclave = Enclave::create(&mut platform, &code, payload.clone());
                if destroy_mask[i] {
                    let state = enclave.destroy(&mut platform);
                    proptest::prop_assert_eq!(&state, payload);
                }
                // else: dropped while armed — Drop wipes in place.
            }
        }
    }
}
