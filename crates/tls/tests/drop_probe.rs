//! Secret-lifecycle probes: every secret-bearing TLS type must scrub
//! its key bytes when dropped.
//!
//! Each probe drives the type's public `wipe()` — the exact routine
//! its `Drop` impl runs — through `ct::assert_wipes`, which also
//! asserts the type actually has a destructor (`needs_drop`), so
//! deleting an `impl Drop` fails these tests even though `wipe()`
//! still compiles. The proptests then exercise the move-out refactor:
//! `SessionKeys::from_secrets` transfers buffers out of a `KeyBlock`
//! with take-and-replace, and decode error paths must neither panic
//! nor double-free on corrupted encodings.

use mbtls_crypto::ct::assert_wipes;
use mbtls_tls::keyschedule::{key_block, KeyBlock, PreMasterSecret};
use mbtls_tls::session::{ConnectionSecrets, ResumptionData, SessionKeys, TicketPlaintext};
use mbtls_tls::suites::CipherSuite;
use proptest::prelude::*;

fn sample_secrets(fill: u8) -> ConnectionSecrets {
    ConnectionSecrets {
        suite: CipherSuite::EcdheAes256GcmSha384,
        master_secret: vec![fill; 48],
        client_random: [1; 32],
        server_random: [2; 32],
    }
}

#[test]
fn session_keys_zero_on_drop() {
    assert_wipes(
        SessionKeys::from_secrets(&sample_secrets(0x42), 3, 4),
        SessionKeys::wipe,
        |k| {
            vec![
                k.client_write_key.clone(),
                k.client_write_iv.clone(),
                k.server_write_key.clone(),
                k.server_write_iv.clone(),
            ]
        },
    );
}

#[test]
fn key_block_zeroes_on_drop() {
    let s = sample_secrets(0x17);
    assert_wipes(
        key_block(s.suite, &s.master_secret, &s.client_random, &s.server_random),
        KeyBlock::wipe,
        |kb| {
            vec![
                kb.client_write_key.clone(),
                kb.server_write_key.clone(),
                kb.client_write_iv.clone(),
                kb.server_write_iv.clone(),
            ]
        },
    );
}

#[test]
fn pre_master_secret_zeroes_on_drop() {
    assert_wipes(PreMasterSecret::from_ecdhe([0x5a; 32]), PreMasterSecret::wipe, |p| {
        vec![p.as_bytes().to_vec()]
    });
    assert_wipes(PreMasterSecret::from_dhe(vec![0, 0, 7, 1]), PreMasterSecret::wipe, |p| {
        vec![p.as_bytes().to_vec()]
    });
    // RFC 5246 §8.1.2: the DHE secret loses its leading zeros.
    assert_eq!(PreMasterSecret::from_dhe(vec![0, 0, 7, 1]).as_bytes(), &[7, 1]);
}

#[test]
fn connection_secrets_zero_on_drop() {
    assert_wipes(sample_secrets(0x99), ConnectionSecrets::wipe, |s| {
        vec![s.master_secret.clone()]
    });
}

#[test]
fn resumption_data_zeroes_on_drop() {
    assert_wipes(
        ResumptionData {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![0x55; 48],
            ticket: Some(vec![9; 16]),
            session_id: vec![3; 32],
        },
        ResumptionData::wipe,
        |r| vec![r.master_secret.clone()],
    );
}

#[test]
fn ticket_plaintext_zeroes_on_drop() {
    assert_wipes(
        TicketPlaintext {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![0x77; 48],
            primary_keys: Some(SessionKeys::from_secrets(&sample_secrets(0x11), 0, 0)),
        },
        TicketPlaintext::wipe,
        |t| vec![t.master_secret.clone()],
    );
}

#[test]
fn from_secrets_leaves_donor_key_block_droppable() {
    // The take-and-replace in `from_secrets` must leave the donor
    // `KeyBlock` in a state its own Drop can handle (empty buffers),
    // while the extracted keys still protect records.
    let keys = SessionKeys::from_secrets(&sample_secrets(0x21), 0, 0);
    assert_eq!(keys.client_write_key.len(), 32);
    assert!(keys.client_write_key.iter().any(|&b| b != 0));
    let mut tx = keys.seal_client_to_server().expect("direction state");
    tx.seal_record_into(mbtls_tls::ContentType::ApplicationData, b"probe", &mut Vec::new())
        .expect("sealing works with moved-out keys");
}

proptest! {
    /// Arbitrary master secrets and sequence numbers: derive, encode,
    /// decode, and compare — then wipe both copies. The encode/decode
    /// pair runs on every value, so an early return in `decode` (bad
    /// length, unknown suite) can never leave a half-built value that
    /// double-frees when dropped.
    #[test]
    fn from_secrets_encode_decode_roundtrip(
        master in proptest::collection::vec(any::<u8>(), 48..=48),
        c2s in any::<u64>(),
        s2c in any::<u64>(),
    ) {
        let secrets = ConnectionSecrets {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: master,
            client_random: [1; 32],
            server_random: [2; 32],
        };
        let keys = SessionKeys::from_secrets(&secrets, c2s, s2c);
        let decoded = SessionKeys::decode(&keys.encode()).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &keys);
        // Both copies (and `secrets`) drop here; a double-free or a
        // wipe that reads freed memory aborts the test process.
    }

    /// Corrupted encodings must error, never panic, and the error
    /// path must drop cleanly whatever it built before bailing out.
    #[test]
    fn corrupted_key_material_never_panics(
        master in proptest::collection::vec(any::<u8>(), 48..=48),
        cut in any::<prop::sample::Index>(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let keys = SessionKeys::from_secrets(
            &ConnectionSecrets {
                suite: CipherSuite::EcdheAes256GcmSha384,
                master_secret: master,
                client_random: [3; 32],
                server_random: [4; 32],
            },
            7,
            9,
        );
        let wire = keys.encode();
        // Truncation at every possible point.
        let truncated = &wire[..cut.index(wire.len())];
        let _ = SessionKeys::decode(truncated);
        // Single bit flip anywhere (header, lengths, key bytes).
        let mut flipped = wire.clone();
        let i = flip_at.index(flipped.len());
        flipped[i] ^= 1 << flip_bit;
        if let Ok(decoded) = SessionKeys::decode(&flipped) {
            // A flip inside key bytes still decodes; it must drop
            // cleanly like any other value.
            drop(decoded);
        }
        // Ticket wrapping of the same material exercises the nested
        // decode error path.
        let ticket = TicketPlaintext {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: vec![0xAB; 48],
            primary_keys: Some(keys),
        };
        let mut tw = ticket.encode();
        let j = flip_at.index(tw.len());
        tw[j] ^= 1 << flip_bit;
        let _ = TicketPlaintext::decode(&tw);
    }
}
