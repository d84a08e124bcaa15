//! Property-based tests over the TLS message codecs and record layer.

use mbtls_tls::messages::{
    frame_handshake, ClientHello, Extension, HandshakeReader, NewSessionTicket, ServerHello,
    ServerKeyExchange, ServerKeyExchangeParams,
};
use mbtls_tls::record::{frame_plaintext, ContentType, RecordReader};
use proptest::prelude::*;

fn arb_extensions() -> impl Strategy<Value = Vec<Extension>> {
    proptest::collection::vec(
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(typ, data)| Extension { typ, data }),
        0..6,
    )
}

proptest! {
    /// ClientHello round-trips with arbitrary extensions, session ids,
    /// and suite lists.
    #[test]
    fn client_hello_roundtrip(random in proptest::array::uniform32(any::<u8>()),
                              session_id in proptest::collection::vec(any::<u8>(), 0..33),
                              suites in proptest::collection::vec(any::<u16>(), 1..16),
                              extensions in arb_extensions()) {
        let ch = ClientHello { random, session_id, cipher_suites: suites, extensions };
        prop_assert_eq!(ClientHello::decode_body(&ch.encode_body()).unwrap(), ch);
    }

    /// ServerHello round-trips.
    #[test]
    fn server_hello_roundtrip(random in proptest::array::uniform32(any::<u8>()),
                              session_id in proptest::collection::vec(any::<u8>(), 0..33),
                              suite in any::<u16>(),
                              extensions in arb_extensions()) {
        let sh = ServerHello { random, session_id, cipher_suite: suite, extensions };
        prop_assert_eq!(ServerHello::decode_body(&sh.encode_body()).unwrap(), sh);
    }

    /// ServerKeyExchange round-trips for both kex families.
    #[test]
    fn ske_roundtrip(ecdhe in any::<bool>(),
                     sig in proptest::collection::vec(any::<u8>(), 64..=64),
                     blob in proptest::collection::vec(any::<u8>(), 1..256)) {
        let params = if ecdhe {
            ServerKeyExchangeParams::Ecdhe { public: vec![7u8; 32] }
        } else {
            ServerKeyExchangeParams::Dhe { p: blob.clone(), g: vec![2], ys: blob }
        };
        let ske = ServerKeyExchange { params, signature: sig };
        prop_assert_eq!(ServerKeyExchange::decode_body(&ske.encode_body()).unwrap(), ske);
    }

    /// Ticket round-trips.
    #[test]
    fn ticket_roundtrip(hint in any::<u32>(), ticket in proptest::collection::vec(any::<u8>(), 0..512)) {
        let t = NewSessionTicket { lifetime_hint: hint, ticket };
        prop_assert_eq!(NewSessionTicket::decode_body(&t.encode_body()).unwrap(), t);
    }

    /// Decoding arbitrary bytes as any message type never panics.
    #[test]
    fn decoders_are_total(garbage in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = ClientHello::decode_body(&garbage);
        let _ = ServerHello::decode_body(&garbage);
        let _ = ServerKeyExchange::decode_body(&garbage);
        let _ = NewSessionTicket::decode_body(&garbage);
        let _ = mbtls_tls::alert::Alert::decode(&garbage);
    }

    /// The record reader reassembles any sequence of records from any
    /// chunking, preserving payloads and types — and, header included,
    /// every byte: the records' `wire()` views laid end to end are the
    /// stream that was fed.
    #[test]
    fn record_reader_invariant(records in proptest::collection::vec(
                                   (20u8..33, proptest::collection::vec(any::<u8>(), 0..512)), 1..6),
                               minor in 0u8..=4,
                               chunk in 1usize..128) {
        let mut stream = Vec::new();
        for (ct, payload) in &records {
            // frame_plaintext requires a known ContentType and writes
            // 3.3; frame manually so unknown types and the other 3.x
            // versions are covered too.
            stream.push(*ct);
            stream.push(3);
            stream.push(minor);
            stream.extend((payload.len() as u16).to_be_bytes());
            stream.extend(payload);
        }
        let mut reader = RecordReader::new();
        let mut got = Vec::new();
        let mut rejoined = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.feed(piece);
            while let Some(mut rec) = reader.next_record_inplace().unwrap() {
                rejoined.extend_from_slice(rec.wire());
                got.push((rec.content_type_byte(), rec.body().to_vec()));
            }
        }
        prop_assert_eq!(got, records);
        prop_assert_eq!(rejoined, stream);
    }

    /// The handshake reader reassembles any sequence of handshake
    /// messages carried in arbitrary record-sized slices.
    #[test]
    fn handshake_reader_invariant(messages in proptest::collection::vec(
                                      (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..300)), 1..5),
                                  chunk in 1usize..64) {
        let mut stream = Vec::new();
        for (typ, body) in &messages {
            stream.extend(frame_handshake(*typ, body));
        }
        let mut reader = HandshakeReader::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.feed(piece);
            while let Some((typ, frame)) = reader.next_message().unwrap() {
                got.push((typ, frame[4..].to_vec()));
            }
        }
        prop_assert_eq!(got, messages);
    }
}

#[test]
fn frame_plaintext_matches_manual_framing() {
    let rec = frame_plaintext(ContentType::Handshake, b"abc");
    assert_eq!(rec, vec![22, 3, 3, 0, 3, b'a', b'b', b'c']);
}
