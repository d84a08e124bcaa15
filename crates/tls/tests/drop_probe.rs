//! Secret-lifecycle probes. Every key-bearing TLS type is made of
//! `mbtls_crypto::secret::Secret`, whose own tests prove the in-place
//! wipe; what is left to prove here is that each type still has a
//! destructor — a key field retyped to a plain buffer would lose it —
//! and that the decoders of key material neither panic nor leave a
//! half-built value behind on corrupted encodings.

use mbtls_crypto::secret::Secret;
use mbtls_tls::keyschedule::{key_block, KeyBlock};
use mbtls_tls::session::{ConnectionSecrets, ResumptionData, SessionKeys, TicketPlaintext};
use mbtls_tls::suites::CipherSuite;
use proptest::prelude::*;
use std::mem::needs_drop;

fn sample_secrets(fill: u8) -> ConnectionSecrets {
    ConnectionSecrets {
        suite: CipherSuite::EcdheAes256GcmSha384,
        master_secret: vec![fill; 48].into(),
        client_random: [1; 32],
        server_random: [2; 32],
    }
}

#[test]
fn session_keys_zero_on_drop() {
    assert!(needs_drop::<SessionKeys>());
    let k = SessionKeys::from_secrets(&sample_secrets(0x42), 3, 4);
    let _: [&Secret; 4] =
        [&k.client_write_key, &k.client_write_iv, &k.server_write_key, &k.server_write_iv];
}

#[test]
fn key_block_zeroes_on_drop() {
    assert!(needs_drop::<KeyBlock>());
    let s = sample_secrets(0x17);
    let kb = key_block(s.suite, &s.master_secret, &s.client_random, &s.server_random);
    let _: [&Secret; 4] =
        [&kb.client_write_key, &kb.server_write_key, &kb.client_write_iv, &kb.server_write_iv];
}

#[test]
fn connection_secrets_zero_on_drop() {
    assert!(needs_drop::<ConnectionSecrets>());
    let _: &Secret = &sample_secrets(0x99).master_secret;
}

#[test]
fn resumption_data_zeroes_on_drop() {
    assert!(needs_drop::<ResumptionData>());
    let _: fn(&ResumptionData) -> &Secret = |r| &r.master_secret;
}

#[test]
fn ticket_plaintext_zeroes_on_drop() {
    assert!(needs_drop::<TicketPlaintext>());
    let _: fn(&TicketPlaintext) -> &Secret = |t| &t.master_secret;
}

proptest! {
    /// Arbitrary master secrets and sequence numbers: derive, encode,
    /// decode, and compare — then drop both copies. The encode/decode
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
            master_secret: master.into(),
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
                master_secret: master.clone().into(),
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
        let mut flipped = wire.to_vec();
        let i = flip_at.index(flipped.len());
        flipped[i] ^= 1 << flip_bit;
        if let Ok(decoded) = SessionKeys::decode(&flipped) {
            // A flip inside key bytes still decodes; it must drop
            // cleanly like any other value.
            drop(decoded);
        }
        // A ticket over the same master secret takes the same flip
        // through its own decode.
        let ticket = TicketPlaintext {
            suite: CipherSuite::EcdheAes256GcmSha384,
            master_secret: master.into(),
        };
        let mut tw = ticket.encode().to_vec();
        let j = flip_at.index(tw.len());
        tw[j] ^= 1 << flip_bit;
        let _ = TicketPlaintext::decode(&tw);
    }
}
