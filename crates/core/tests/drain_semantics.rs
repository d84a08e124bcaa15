//! The `*_into` drain contract, stated once for every drain: whatever
//! `dst` held before, afterwards it holds that followed by exactly
//! the bytes the `Vec`-returning take of an identical source yields,
//! the source is empty (a second drain appends nothing), and a party
//! reports the same `BytesOut` count either way.
//!
//! An empty `dst` is handed the source's buffer and a pre-filled one
//! is appended to; this table is what says the two are
//! indistinguishable by content.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::{fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane};
use mbtls_core::driver::Chain;
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_telemetry::{EventKind, Party, Recorder};
use mbtls_tls::suites::CipherSuite;

const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;

/// Three records, the last one partial.
fn payload() -> Vec<u8> {
    (0..40_000u32).map(|i| (i * 13 + 5) as u8).collect()
}

/// A source with bytes pending, the drain under test, and what an
/// identical source's `Vec`-returning take yields.
struct Pending {
    drain: Drain,
    expected: Vec<u8>,
    /// The `BytesOut` counts the draining party has reported so far
    /// (parties only; the bare data planes emit none).
    bytes_out: Option<BytesOut>,
}

type Drain = Box<dyn FnMut(&mut Vec<u8>)>;
type BytesOut = Box<dyn Fn() -> Vec<u64>>;
type Build = fn() -> Pending;

fn endpoint_wire() -> Pending {
    let hop = fresh_hop_keys(SUITE, &mut CryptoRng::from_seed(1));
    let sender = || {
        let mut plane = EndpointDataPlane::for_client(&hop).expect("keys");
        plane.send(&payload()).expect("send");
        plane
    };
    let mut plane = sender();
    Pending {
        drain: Box::new(move |dst| plane.drain_outgoing_into(dst)),
        expected: sender().take_outgoing(),
        bytes_out: None,
    }
}

fn endpoint_plaintext() -> Pending {
    let hop = fresh_hop_keys(SUITE, &mut CryptoRng::from_seed(2));
    let mut client = EndpointDataPlane::for_client(&hop).expect("keys");
    client.send(&payload()).expect("send");
    let mut server = EndpointDataPlane::for_server(&hop).expect("keys");
    server.feed(&client.take_outgoing()).expect("feed");
    Pending {
        drain: Box::new(move |dst| server.drain_plaintext_into(dst)),
        expected: payload(),
        bytes_out: None,
    }
}

fn middlebox_plane(dir: FlowDirection) -> Pending {
    let mut rng = CryptoRng::from_seed(3);
    let left = fresh_hop_keys(SUITE, &mut rng);
    let right = fresh_hop_keys(SUITE, &mut rng);
    let relayed = || {
        let mut sender = match dir {
            FlowDirection::ClientToServer => EndpointDataPlane::for_client(&left),
            FlowDirection::ServerToClient => EndpointDataPlane::for_server(&right),
        }
        .expect("keys");
        sender.send(&payload()).expect("send");
        let mut mbox = MiddleboxDataPlane::new(&left, &right).expect("keys");
        mbox.feed(dir, &sender.take_outgoing(), |_, _| {}).expect("relay");
        mbox
    };
    let (mut mbox, mut twin) = (relayed(), relayed());
    match dir {
        FlowDirection::ClientToServer => Pending {
            drain: Box::new(move |dst| mbox.drain_toward_server_into(dst)),
            expected: twin.take_toward_server(),
            bytes_out: None,
        },
        FlowDirection::ServerToClient => Pending {
            drain: Box::new(move |dst| mbox.drain_toward_client_into(dst)),
            expected: twin.take_toward_client(),
            bytes_out: None,
        },
    }
}

/// An established client → middlebox → server chain whose parties
/// all report to `recorder`.
fn established(recorder: &Recorder) -> Chain {
    let tb = Testbed::new(0xD8A1);
    let mut rng = CryptoRng::from_seed(0xD8A1 ^ 0x57);
    let mut client_cfg = tb.client_config();
    client_cfg.telemetry = Some(recorder.sink());
    let mut server_cfg = tb.server_config();
    server_cfg.telemetry = Some(recorder.sink());
    let mut mbox_cfg = tb.middlebox_config(&tb.mbox_code);
    mbox_cfg.telemetry = Some(recorder.sink());
    let client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
    let server = MbServerSession::new(Arc::new(server_cfg), rng.fork());
    let mbox = Middlebox::new(mbox_cfg, rng.fork());
    let mut chain = Chain::new(Box::new(client), vec![Box::new(mbox)], Box::new(server));
    chain.run_handshake().expect("handshake");
    chain
}

fn bytes_out_of(recorder: Recorder, party: Party) -> Option<BytesOut> {
    Some(Box::new(move || {
        recorder
            .snapshot()
            .iter()
            .filter(|e| e.party == party)
            .filter_map(|e| match e.kind {
                EventKind::BytesOut { bytes } => Some(bytes),
                _ => None,
            })
            .collect()
    }))
}

fn session_wire() -> Pending {
    let sending = |recorder: &Recorder| {
        let mut chain = established(recorder);
        chain.client.send_app(&payload()).expect("send");
        recorder.take();
        chain
    };
    let recorder = Recorder::new();
    let mut chain = sending(&recorder);
    Pending {
        drain: Box::new(move |dst| chain.client.take_into(dst)),
        expected: sending(&Recorder::new()).client.take(),
        bytes_out: bytes_out_of(recorder, Party::Client),
    }
}

fn session_plaintext() -> Pending {
    let recorder = Recorder::new();
    let mut chain = established(&recorder);
    chain.client.send_app(&payload()).expect("send");
    chain.pump().expect("pump");
    Pending {
        drain: Box::new(move |dst| chain.server.recv_app_into(dst)),
        expected: payload(),
        bytes_out: None,
    }
}

fn middlebox_wire() -> Pending {
    let relaying = |recorder: &Recorder| {
        let mut chain = established(recorder);
        chain.client.send_app(&payload()).expect("send");
        let wire = chain.client.take();
        chain.middles[0].feed_left(&wire).expect("relay");
        recorder.take();
        chain
    };
    let recorder = Recorder::new();
    let mut chain = relaying(&recorder);
    Pending {
        drain: Box::new(move |dst| chain.middles[0].take_right_into(dst)),
        expected: relaying(&Recorder::new()).middles[0].take_right(),
        bytes_out: bytes_out_of(recorder, Party::Middlebox(0)),
    }
}

const DRAINS: &[(&str, Build)] = &[
    ("EndpointDataPlane::drain_outgoing_into", endpoint_wire),
    ("EndpointDataPlane::drain_plaintext_into", endpoint_plaintext),
    ("MiddleboxDataPlane::drain_toward_server_into", || {
        middlebox_plane(FlowDirection::ClientToServer)
    }),
    ("MiddleboxDataPlane::drain_toward_client_into", || {
        middlebox_plane(FlowDirection::ServerToClient)
    }),
    ("MbSession::drain_outgoing_into", session_wire),
    ("MbSession::recv_into", session_plaintext),
    ("Middlebox::drain", middlebox_wire),
];

#[test]
fn every_drain_appends_exactly_what_was_pending() {
    let prefilled = b"already here".to_vec();
    for (name, build) in DRAINS {
        for old in [Vec::new(), prefilled.clone()] {
            let mut pending = build();
            assert!(pending.expected.len() > 16_384, "{name}: more than one record pending");

            let mut dst = old.clone();
            (pending.drain)(&mut dst);
            assert_eq!(dst.len(), old.len() + pending.expected.len(), "{name}: length");
            assert!(dst.starts_with(&old), "{name}: what dst held is kept in front");
            assert!(dst[old.len()..] == pending.expected[..], "{name}: the pending bytes follow");

            // The source is empty now, into a used and a fresh buffer alike.
            (pending.drain)(&mut dst);
            assert_eq!(dst.len(), old.len() + pending.expected.len(), "{name}: second drain");
            let mut fresh = Vec::new();
            (pending.drain)(&mut fresh);
            assert!(fresh.is_empty(), "{name}: drain into a fresh buffer after the first");

            if let Some(bytes_out) = &pending.bytes_out {
                assert_eq!(
                    bytes_out(),
                    [pending.expected.len() as u64],
                    "{name}: one BytesOut for the drain that moved bytes, none for the idle ones"
                );
            }
        }
    }
}

#[test]
fn an_idle_drain_returns_the_buffer_to_its_producer() {
    // The hand-over rule's third case: a consumer that took the
    // producer's buffer gives it back on the next idle drain, so a
    // producer and a consumer share one allocation, not two.
    let hop = fresh_hop_keys(SUITE, &mut CryptoRng::from_seed(4));
    let mut plane = EndpointDataPlane::for_client(&hop).expect("keys");
    let mut link = Vec::new();
    plane.send(&payload()).expect("send");
    plane.drain_outgoing_into(&mut link);
    let handed_over = link.capacity();
    assert!(handed_over >= 40_000);
    link.clear();
    plane.drain_outgoing_into(&mut link);
    assert_eq!(link.capacity(), 0, "the consumed buffer went back");
    // An idle drain between two buffers that both exist moves nothing.
    let mut other = Vec::with_capacity(64);
    plane.drain_outgoing_into(&mut other);
    assert_eq!(other.capacity(), 64);
    // The producer fills the same allocation again and hands it over
    // again.
    plane.send(&payload()).expect("send");
    plane.drain_outgoing_into(&mut link);
    assert_eq!(link.capacity(), handed_over);
}
