//! Where a record stream is cut is invisible: every data plane gives
//! the same bytes, plaintext and counts however the stream is split
//! into feeds — whole, byte by byte, inside a 5-byte header, exactly on
//! record boundaries, or at seeded points — and a record that fails
//! its tag stops the stream at that record, whatever the split.

use mbtls_core::dataplane::{
    fresh_hop_keys, EndpointDataPlane, FlowDirection, HopKeys, MiddleboxDataPlane,
};
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::alert::Alert;
use mbtls_tls::record::ContentType;
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::TlsError;

const SUITE: CipherSuite = CipherSuite::EcdheAes256GcmSha384;
const LENGTHS: [usize; 5] = [0, 1, 255, 4096, 16384];
const HEADER_LEN: usize = 5;

/// A seeded stream: each of [`LENGTHS`] twice in a seeded order, with
/// seeded contents, then a close_notify alert. Returns the wire bytes,
/// each record's end offset, and the application payloads.
fn stream(hop: &HopKeys, seed: u64) -> (Vec<u8>, Vec<usize>, Vec<Vec<u8>>) {
    let mut rng = CryptoRng::from_seed(seed);
    let mut lengths: Vec<usize> = LENGTHS.iter().chain(&LENGTHS).copied().collect();
    for i in (1..lengths.len()).rev() {
        lengths.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    let mut sender = hop.seal_client_to_server().expect("keys");
    let (mut wire, mut ends, mut payloads) = (Vec::new(), Vec::new(), Vec::new());
    for len in lengths {
        let mut payload = vec![0u8; len];
        rng.fill(&mut payload);
        sender.seal_record_into(ContentType::ApplicationData, &payload, &mut wire).expect("seal");
        ends.push(wire.len());
        payloads.push(payload);
    }
    sender
        .seal_record_into(ContentType::Alert, &Alert::close_notify().encode(), &mut wire)
        .expect("seal");
    ends.push(wire.len());
    (wire, ends, payloads)
}

/// The feed patterns: cut points into a stream of `len` bytes whose
/// records end at `ends`.
fn splits(len: usize, ends: &[usize], seed: u64) -> Vec<(String, Vec<usize>)> {
    let mut rng = CryptoRng::from_seed(seed);
    let starts: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).collect();
    let mut patterns = vec![
        ("whole".to_string(), vec![]),
        ("byte by byte".to_string(), (1..len).collect()),
        ("record boundaries".to_string(), ends.to_vec()),
    ];
    for inside in 1..HEADER_LEN {
        let cuts = starts.iter().map(|s| s + inside).filter(|&c| c < len).collect();
        patterns.push((format!("header byte {inside}"), cuts));
    }
    for round in 0..4 {
        let mut cuts: Vec<usize> = (0..24).map(|_| 1 + rng.gen_range(len as u64 - 1) as usize).collect();
        cuts.sort_unstable();
        cuts.dedup();
        patterns.push((format!("seeded {round}"), cuts));
    }
    patterns
}

/// The pieces `cuts` split `wire` into.
fn pieces<'a>(wire: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let bounds: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).chain([wire.len()]).collect();
    bounds.windows(2).map(|w| &wire[w[0]..w[1]]).collect()
}

/// Everything a party produced from one stream.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    wire: Vec<u8>,
    plain: Vec<u8>,
    forwarded: u64,
    fast_forwarded: u64,
    closed: bool,
    failed: bool,
}

/// One party under test, fresh for every run.
#[derive(Clone, Copy, Debug)]
enum Party {
    Endpoint,
    PerHop,
    Shared,
    SharedReadOnly,
}

const PARTIES: [Party; 4] = [Party::Endpoint, Party::PerHop, Party::Shared, Party::SharedReadOnly];

/// Feed `pieces` to a fresh `party` on `left` (and `right` for the
/// per-hop middlebox), stopping at the first error, then drain it.
fn run(party: Party, left: &HopKeys, right: &HopKeys, pieces: &[&[u8]]) -> Outcome {
    let mut failed = false;
    if let Party::Endpoint = party {
        let mut plane = EndpointDataPlane::for_server(left).expect("keys");
        for piece in pieces {
            if plane.feed(piece).is_err() {
                failed = true;
                break;
            }
        }
        let (mut wire, mut plain) = (Vec::new(), Vec::new());
        plane.drain_outgoing_into(&mut wire);
        plane.drain_plaintext_into(&mut plain);
        return Outcome {
            wire,
            plain,
            forwarded: 0,
            fast_forwarded: 0,
            closed: plane.peer_closed(),
            failed,
        };
    }
    let outbound = if let Party::PerHop = party { right } else { left };
    let mut plane = MiddleboxDataPlane::new(left, outbound).expect("keys");
    plane.set_read_only(matches!(party, Party::SharedReadOnly));
    let (mut wire, mut plain) = (Vec::new(), Vec::new());
    for piece in pieces {
        let fed = plane.feed(FlowDirection::ClientToServer, piece, |_, p| plain.extend_from_slice(p));
        plane.drain_toward_server_into(&mut wire);
        if let Err(e) = fed {
            assert!(matches!(e, MbError::Tls(TlsError::Crypto(_))), "{party:?}: {e:?}");
            failed = true;
            break;
        }
    }
    Outcome {
        wire,
        plain,
        forwarded: plane.records_forwarded,
        fast_forwarded: plane.records_fast_forwarded,
        closed: false,
        failed,
    }
}

#[test]
fn every_split_gives_the_same_records() {
    let mut rng = CryptoRng::from_seed(0x5917_0001);
    let (left, right) = (fresh_hop_keys(SUITE, &mut rng), fresh_hop_keys(SUITE, &mut rng));
    let (wire, ends, payloads) = stream(&left, 0x5917_0002);
    let everything: Vec<u8> = payloads.concat();
    for party in PARTIES {
        let whole = run(party, &left, &right, &[&wire]);
        assert!(!whole.failed, "{party:?}");
        match party {
            Party::Endpoint => {
                assert_eq!(whole.plain, everything);
                assert!(whole.closed, "the alert closes the stream");
            }
            Party::Shared | Party::SharedReadOnly => assert_eq!(whole.wire, wire, "{party:?}"),
            Party::PerHop => {
                let mut server = EndpointDataPlane::for_server(&right).expect("keys");
                server.feed(&whole.wire).expect("the resealed stream opens");
                let mut plain = Vec::new();
                server.drain_plaintext_into(&mut plain);
                assert_eq!(plain, everything);
                assert!(server.peer_closed(), "the alert is relayed");
            }
        }
        for (name, cuts) in splits(wire.len(), &ends, 0x5917_0003) {
            let split = run(party, &left, &right, &pieces(&wire, &cuts));
            assert_eq!(split, whole, "{party:?} fed {name}");
        }
    }
}

#[test]
fn a_bad_record_stops_the_stream_at_that_record() {
    let mut rng = CryptoRng::from_seed(0x5917_0011);
    let (left, right) = (fresh_hop_keys(SUITE, &mut rng), fresh_hop_keys(SUITE, &mut rng));
    let (wire, ends, _) = stream(&left, 0x5917_0012);
    let starts: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).collect();
    for k in 0..ends.len() {
        // One bit of record k's body (nonce, ciphertext or tag), so its
        // framing is untouched and only its tag fails.
        let body = starts[k] + HEADER_LEN..ends[k];
        let at = body.start + rng.gen_range(body.len() as u64) as usize;
        let mut bad = wire.clone();
        bad[at] ^= 1 << rng.gen_range(8);
        for party in PARTIES {
            // What the records before k alone produce, fed whole.
            let mut before = run(party, &left, &right, &[&wire[..starts[k]]]);
            before.failed = true;
            for (name, cuts) in splits(bad.len(), &ends, 0x5917_0013 + k as u64) {
                let split = run(party, &left, &right, &pieces(&bad, &cuts));
                assert_eq!(split, before, "{party:?} record {k} fed {name}");
            }
        }
    }
}
