//! Wire-identity pin: the bytes a seeded session puts on its links do
//! not depend on which AES-GCM backend computed them.
//!
//! One client → three middleboxes → server exchange runs through
//! `Chain` over links that fold every byte placed on them (with the
//! link and direction it was placed on) into an FNV-1a digest, once
//! with unique per-hop keys (every middlebox opens and re-seals) and
//! once with aliased keys (every middlebox tag-verifies and forwards).
//! The expected digests were captured at the commit before the
//! AES-NI + PCLMULQDQ backend existed, when the bitsliced backend
//! produced every record: a backend that changes one handshake or
//! record byte on any link fails here. This is the test behind the
//! "bit-identical seeded traces" invariant in ROADMAP.md.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, ChainLinks, PipeLinks, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;

const SEED: u64 = 0x51DE_B17E;
const MIDDLEBOXES: usize = 3;

/// Captured at the parent commit (bitsliced AES-GCM only).
const RESEAL_DIGEST: u64 = 0xa988_99e7_1e76_d459;
const READ_ONLY_DIGEST: u64 = 0x47a2_887a_c232_19ee;

/// In-memory links that digest everything placed on them.
struct DigestLinks {
    inner: PipeLinks,
    digest: u64,
    bytes: usize,
}

impl DigestLinks {
    fn new(links: usize) -> Self {
        DigestLinks {
            inner: PipeLinks::new(links),
            digest: 0xCBF2_9CE4_8422_2325,
            bytes: 0,
        }
    }

    fn absorb(&mut self, rightward: bool, link: usize, data: &[u8]) {
        let header = [u8::from(rightward), link as u8];
        for &b in header.iter().chain(data) {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.bytes += data.len();
    }
}

impl ChainLinks for DigestLinks {
    fn recv_rightward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        self.inner.recv_rightward(link)
    }
    fn recv_leftward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        self.inner.recv_leftward(link)
    }
    fn send_rightward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.absorb(true, link, data);
        self.inner.send_rightward(link, from, data)
    }
    fn send_leftward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.absorb(false, link, data);
        self.inner.send_leftward(link, from, data)
    }
}

fn pump(chain: &mut Chain, links: &mut DigestLinks) {
    for _ in 0..10_000 {
        if !chain.pump_with(links).expect("pump") {
            return;
        }
    }
    panic!("chain never went quiet");
}

/// Handshake, one 300-byte request, one 40 000-byte response (three
/// records, the last one partial, so the eight-block, single-block
/// and partial-block paths of the cipher all put bytes on the wire).
/// Returns the link digest and the number of bytes digested.
fn run(read_only: bool) -> (u64, usize) {
    let tb = Testbed::new(SEED);
    let mut rng = CryptoRng::from_seed(SEED ^ 0x11D);
    let mut client_cfg = tb.client_config();
    client_cfg.read_only_middleboxes = read_only;
    let client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
    let server = MbServerSession::new(Arc::new(tb.server_config()), rng.fork());
    let middles: Vec<Box<dyn Relay>> = (0..MIDDLEBOXES)
        .map(|_| {
            let cfg = tb.middlebox_config(&tb.mbox_code);
            Box::new(Middlebox::new(cfg, rng.fork())) as Box<dyn Relay>
        })
        .collect();
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
    let mut links = DigestLinks::new(MIDDLEBOXES + 1);

    for _ in 0..200 {
        pump(&mut chain, &mut links);
        if chain.client.ready() && chain.server.ready() {
            break;
        }
    }
    assert!(
        chain.client.ready() && chain.server.ready(),
        "handshake did not complete"
    );
    pump(&mut chain, &mut links);
    let handshake_bytes = links.bytes;

    let request: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
    let response: Vec<u8> = (0..40_000u32).map(|i| (i * 13 + 5) as u8).collect();
    chain.client.send_app(&request).expect("send request");
    pump(&mut chain, &mut links);
    assert_eq!(chain.server.recv_app(), request);
    chain.server.send_app(&response).expect("send response");
    pump(&mut chain, &mut links);
    assert_eq!(chain.client.recv_app(), response);

    // Every link carried both payloads, plus record overhead.
    let data_bytes = links.bytes - handshake_bytes;
    assert!(data_bytes > (MIDDLEBOXES + 1) * (request.len() + response.len()));
    (links.digest, links.bytes)
}

#[test]
fn resealing_chain_wire_bytes_are_pinned() {
    let (digest, bytes) = run(false);
    assert_eq!(
        digest, RESEAL_DIGEST,
        "wire bytes of the seeded re-sealing chain changed ({bytes} bytes, digest {digest:#018x})"
    );
}

#[test]
fn read_only_chain_wire_bytes_are_pinned() {
    let (digest, bytes) = run(true);
    assert_eq!(
        digest, READ_ONLY_DIGEST,
        "wire bytes of the seeded read-only chain changed ({bytes} bytes, digest {digest:#018x})"
    );
    // Aliased keys and unique keys must not produce the same wire.
    assert_ne!(RESEAL_DIGEST, READ_ONLY_DIGEST);
}
