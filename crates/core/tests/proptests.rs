//! Property-based tests over mbTLS invariants.

use mbtls_core::dataplane::{fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane};
use mbtls_core::messages::{Encapsulated, KeyMaterial, MiddleboxSupport, SecondaryMessage};
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::session::SessionKeys;
use mbtls_tls::suites::CipherSuite;
use proptest::prelude::*;

const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;

fn arb_keys() -> impl Strategy<Value = SessionKeys> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(seed, c2s, s2c)| {
        let mut rng = CryptoRng::from_seed(seed);
        let mut k = fresh_hop_keys(SUITE, &mut rng);
        k.client_to_server_seq = c2s;
        k.server_to_client_seq = s2c;
        k
    })
}

proptest! {
    /// MiddleboxSupport round-trips for arbitrary name lists.
    #[test]
    fn middlebox_support_roundtrip(names in proptest::collection::vec("[a-z0-9.-]{1,40}", 0..8)) {
        let ext = MiddleboxSupport { preconfigured: names };
        prop_assert_eq!(MiddleboxSupport::decode(&ext.encode()).unwrap(), ext);
    }

    /// Encapsulated round-trips for arbitrary subchannels and records.
    #[test]
    fn encapsulated_roundtrip(sub in any::<u8>(),
                              record in proptest::collection::vec(any::<u8>(), 0..256)) {
        let enc = Encapsulated { subchannel: sub, record };
        prop_assert_eq!(Encapsulated::decode(&enc.encode()).unwrap(), enc);
    }

    /// KeyMaterial round-trips for arbitrary key pairs.
    #[test]
    fn key_material_roundtrip(left in arb_keys(), right in arb_keys()) {
        let km = KeyMaterial { toward_client_hop: left, toward_server_hop: right };
        let msg = SecondaryMessage::Keys(km.clone());
        prop_assert_eq!(SecondaryMessage::decode(&msg.encode()).unwrap(), SecondaryMessage::Keys(km));
    }

    /// Data-plane invariant: any sequence of messages sent through an
    /// N-hop chain of middleboxes arrives intact and in order, and
    /// every hop's wire bytes differ from the previous hop's.
    #[test]
    fn chain_preserves_stream(seed in any::<u64>(),
                              n_hops in 1usize..4,
                              messages in proptest::collection::vec(
                                  proptest::collection::vec(any::<u8>(), 1..300), 1..6)) {
        let mut rng = CryptoRng::from_seed(seed);
        let hops: Vec<_> = (0..=n_hops).map(|_| fresh_hop_keys(SUITE, &mut rng)).collect();
        let mut client = EndpointDataPlane::for_client(&hops[0]).unwrap();
        let mut server = EndpointDataPlane::for_server(&hops[n_hops]).unwrap();
        let mut boxes: Vec<MiddleboxDataPlane> = (0..n_hops)
            .map(|i| MiddleboxDataPlane::new(&hops[i], &hops[i + 1]).unwrap())
            .collect();

        let mut expected = Vec::new();
        for msg in &messages {
            client.send(msg).unwrap();
            expected.extend_from_slice(msg);
        }
        let mut wire = Vec::new();
        client.drain_outgoing_into(&mut wire);
        for mb in boxes.iter_mut() {
            let prev = std::mem::take(&mut wire);
            mb.feed(FlowDirection::ClientToServer, &prev, |_, _p| {}).unwrap();
            mb.drain_toward_server_into(&mut wire);
            prop_assert_ne!(&prev, &wire, "per-hop ciphertexts must differ");
            prop_assert_eq!(prev.len(), wire.len(), "unchanged data keeps record sizes");
        }
        server.feed(&wire).unwrap();
        let mut plain = Vec::new();
        server.drain_plaintext_into(&mut plain);
        prop_assert_eq!(plain, expected);
    }

    /// Path-integrity invariant: a record from hop i never
    /// authenticates on hop j != i.
    #[test]
    fn cross_hop_always_rejected(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 1..100)) {
        let mut rng = CryptoRng::from_seed(seed);
        let hop_a = fresh_hop_keys(SUITE, &mut rng);
        let hop_b = fresh_hop_keys(SUITE, &mut rng);
        let mut sender = EndpointDataPlane::for_client(&hop_a).unwrap();
        let mut wrong_receiver = EndpointDataPlane::for_server(&hop_b).unwrap();
        sender.send(&msg).unwrap();
        let mut wire = Vec::new();
        sender.drain_outgoing_into(&mut wire);
        prop_assert!(wrong_receiver.feed(&wire).is_err());
    }
}
