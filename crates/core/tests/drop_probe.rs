//! Secret-lifecycle probes for the core crate. The hop-key types a
//! middlebox holds (`KeyMaterial`, `HopKeys`) are made of
//! `mbtls_crypto::secret::Secret`, whose own tests prove the in-place
//! wipe; what is left to prove here is that the types still have a
//! destructor (a field retyped to a plain buffer would lose it), that
//! `EnclaveState::wipe` on a live `Middlebox` leaves nothing for a
//! host-memory scan to find, and that the decoders of key material
//! hold up under corrupted input.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::{fresh_hop_keys, HopKeys};
use mbtls_core::driver::Chain;
use mbtls_core::messages::{KeyMaterial, SecondaryMessage};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_sgx::EnclaveState;
use mbtls_tls::suites::CipherSuite;
use proptest::prelude::*;

const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;

#[test]
fn key_material_zeroes_both_hops_on_drop() {
    assert!(std::mem::needs_drop::<KeyMaterial>());
}

#[test]
fn hop_keys_zero_on_drop() {
    assert!(std::mem::needs_drop::<HopKeys>());
    // Every key and IV is a self-wiping buffer, fresh from the RNG.
    let keys = fresh_hop_keys(SUITE, &mut CryptoRng::from_seed(0x40B5));
    let fields: [&Secret; 4] = [
        &keys.client_write_key,
        &keys.client_write_iv,
        &keys.server_write_key,
        &keys.server_write_iv,
    ];
    assert!(fields.iter().all(|f| f.iter().any(|&b| b != 0)));
}

/// Drive a real session until the middlebox holds delivered hop keys,
/// then invoke the `EnclaveState::wipe` an enclave teardown would run:
/// the sensitive snapshot must go empty and the middlebox must report
/// no key material left.
#[test]
fn middlebox_enclave_wipe_clears_delivered_keys() {
    let tb = Testbed::new(0xD20BE);
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(1),
    );
    let server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(2));
    let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(3));
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mb)], Box::new(server));
    chain.run_handshake().expect("handshake");
    let ready = chain.client.ready() && chain.server.ready();
    let mb = chain.party::<Middlebox>(1).expect("middlebox");
    assert!(ready && mb.has_keys());
    let snapshot = mb.sensitive_snapshot();
    assert!(
        snapshot.iter().any(|&b| b != 0),
        "established middlebox must hold real key material"
    );

    EnclaveState::wipe(mb);

    assert!(
        mb.sensitive_snapshot().is_empty(),
        "wipe left key material in the snapshot"
    );
    assert!(!mb.has_keys(), "wipe left the middlebox claiming keys");
}

/// Truncate `wire` at `cut` and flip one bit of it: `decode` must
/// error or give back a value of the valid encoding's length — and
/// whatever it built before bailing out must drop cleanly.
fn corrupt(
    wire: &[u8],
    cut: &prop::sample::Index,
    flip_at: &prop::sample::Index,
    flip_bit: u8,
    decode: impl Fn(&[u8]) -> Option<Secret>,
) {
    let cut = cut.index(wire.len());
    assert!(decode(&wire[..cut]).is_none(), "truncation at {cut} decoded");
    let mut flipped = wire.to_vec();
    flipped[flip_at.index(wire.len())] ^= 1 << flip_bit;
    if let Some(reencoded) = decode(&flipped) {
        assert_eq!(reencoded.len(), wire.len());
    }
}

proptest! {
    /// `KeyMaterial::decode` and `SecondaryMessage::decode` on
    /// corrupted wire bytes must error (or decode to an ordinary
    /// droppable value of the same size), never panic.
    #[test]
    fn corrupted_key_material_decodes_or_errors(
        left_seed in any::<u64>(),
        right_seed in any::<u64>(),
        cut in any::<prop::sample::Index>(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let km = KeyMaterial {
            toward_client_hop: fresh_hop_keys(SUITE, &mut CryptoRng::from_seed(left_seed)),
            toward_server_hop: fresh_hop_keys(SUITE, &mut CryptoRng::from_seed(right_seed)),
        };
        let wire = km.encode();
        prop_assert_eq!(
            &KeyMaterial::decode(&wire).expect("own encoding decodes"),
            &km
        );
        corrupt(&wire, &cut, &flip_at, flip_bit, |b| {
            KeyMaterial::decode(b).ok().map(|km| km.encode())
        });

        let msg = SecondaryMessage::Keys(km);
        let wire = msg.encode();
        prop_assert_eq!(
            &SecondaryMessage::decode(&wire).expect("own encoding decodes"),
            &msg
        );
        corrupt(&wire, &cut, &flip_at, flip_bit, |b| {
            SecondaryMessage::decode(b).ok().map(|m| m.encode())
        });
    }
}
