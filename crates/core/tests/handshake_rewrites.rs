//! Every plaintext handshake byte is bound by the Finished exchange.
//!
//! A seeded session runs once to list the body bytes of every
//! plaintext handshake message on every link, in the order they are
//! sent: the primary flights and, through a middlebox, the secondary
//! flights encapsulated inside them. It then runs again once per body
//! byte, over links that flip that one byte in transit, and must never
//! reach "both ends established, every middlebox admitted". A flip in
//! a primary flight must fail the session. A flip in a secondary
//! flight may instead cost the middlebox its admission: a failed
//! secondary demotes it to a relay that holds no keys, and the two
//! ends go on without it (`MbSession::handle_encapsulated`). Most of
//! these bytes are signed by nothing: a changed random, session id,
//! suite list or extension is caught only by the Finished check over
//! the transcript, so a Finished that accepts any `verify_data` fails
//! here. Record headers and the encrypted Finished messages are out
//! of scope.

use std::collections::BTreeSet;
use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, ChainLinks, LegacyClient, LegacyServer, PipeLinks, Relay};
use mbtls_core::MbError;
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::config::{ClientConfig, ServerConfig};
use mbtls_tls::{ClientConnection, ServerConnection};

const SEED: u64 = 0xF11B_5EED;

const CHANGE_CIPHER_SPEC: u8 = 20;
const HANDSHAKE: u8 = 22;
const ENCAPSULATED: u8 = 30;

/// One direction of one link, and the secondary subchannel when the
/// records ride inside an Encapsulated record.
type Stream = (usize, bool, Option<u8>);

/// Links that flip one handshake body byte in transit, counting body
/// bytes in the order they are sent.
struct FlipLinks {
    pipes: PipeLinks,
    /// The body byte to flip, counted over every body byte sent.
    target: Option<usize>,
    /// Body bytes sent so far.
    seen: usize,
    /// Streams past their ChangeCipherSpec: their handshake records
    /// are ciphertext.
    encrypted: BTreeSet<Stream>,
}

impl FlipLinks {
    fn new(links: usize, target: Option<usize>) -> Self {
        FlipLinks {
            pipes: PipeLinks::new(links),
            target,
            seen: 0,
            encrypted: BTreeSet::new(),
        }
    }

    /// Walk the whole records in `data` (a party's send is whole
    /// records), flipping the target byte where it passes.
    fn rewrite(&mut self, stream: Stream, data: &mut [u8]) {
        let mut rest = data;
        while !rest.is_empty() {
            let (header, tail) = std::mem::take(&mut rest)
                .split_first_chunk_mut::<5>()
                .expect("a send ended inside a record header");
            let len = usize::from(u16::from_be_bytes([header[3], header[4]]));
            assert!(tail.len() >= len, "a send ended inside a record");
            let (payload, next) = tail.split_at_mut(len);
            match header[0] {
                CHANGE_CIPHER_SPEC => {
                    self.encrypted.insert(stream);
                }
                HANDSHAKE if !self.encrypted.contains(&stream) => self.messages(payload),
                ENCAPSULATED => {
                    let (subchannel, inner) = payload.split_first_mut().expect("subchannel id");
                    self.rewrite((stream.0, stream.1, Some(*subchannel)), inner);
                }
                _ => {}
            }
            rest = next;
        }
    }

    /// The handshake messages of one plaintext record.
    fn messages(&mut self, mut payload: &mut [u8]) {
        while !payload.is_empty() {
            let (header, tail) = std::mem::take(&mut payload)
                .split_first_chunk_mut::<4>()
                .expect("a handshake message header spans records");
            let len = usize::from_be_bytes([0, 0, 0, 0, 0, header[1], header[2], header[3]]);
            assert!(tail.len() >= len, "a handshake message spans records");
            let (body, next) = tail.split_at_mut(len);
            let span = self.seen..self.seen + len;
            if let Some(t) = self.target.filter(|t| span.contains(t)) {
                body[t - span.start] ^= 0x01;
            }
            self.seen = span.end;
            payload = next;
        }
    }

    fn send(&mut self, link: usize, from: usize, right: bool, data: &[u8]) -> Result<(), MbError> {
        let mut data = data.to_vec();
        self.rewrite((link, right, None), &mut data);
        if right {
            self.pipes.send_rightward(link, from, &data)
        } else {
            self.pipes.send_leftward(link, from, &data)
        }
    }
}

impl ChainLinks for FlipLinks {
    fn send_rightward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.send(link, from, true, data)
    }
    fn send_leftward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.send(link, from, false, data)
    }
    fn recv_rightward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        self.pipes.recv_rightward_into(link, dst)
    }
    fn recv_leftward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        self.pipes.recv_leftward_into(link, dst)
    }
}

/// Both ends established, and (in mbTLS) every middlebox admitted.
fn established_with_every_party(chain: &mut Chain) -> bool {
    chain.client.ready()
        && chain.server.ready()
        && chain
            .party::<MbClientSession>(0)
            .is_none_or(|client| client.middleboxes().iter().all(|m| m.approved))
}

/// Pump `chain` over `links` until it goes quiet, past any party's
/// failure (so its alert travels), and report whether it was ever
/// established with every party. `attacks::settle` takes only
/// `TapLinks`, which show a send but cannot change it, hence this loop.
fn all_established(chain: &mut Chain, links: &mut FlipLinks) -> bool {
    for _ in 0..10_000 {
        let moved = chain.pump_with(links);
        if established_with_every_party(chain) {
            return true;
        }
        if let Ok(false) = moved {
            return false;
        }
    }
    panic!("chain never went quiet");
}

/// A plain TLS client and server.
fn plain_tls() -> Chain {
    let tb = Testbed::new(SEED);
    let mut rng = CryptoRng::from_seed(SEED ^ 0x7);
    let tls = Arc::new(ClientConfig::new(tb.server_trust.clone()));
    let mut client_rng = rng.fork();
    let conn = ClientConnection::new(tls, "server.example", &mut client_rng);
    let client = LegacyClient::new(conn, client_rng);
    let server_tls = Arc::new(ServerConfig::new(tb.server_key.clone(), [1u8; 32]));
    let server = LegacyServer::new(ServerConnection::new(server_tls), rng.fork());
    Chain::new(Box::new(client), Vec::new(), Box::new(server))
}

/// An mbTLS client, one attested middlebox on its side, and a server.
fn mbtls_one_middlebox() -> Chain {
    let tb = Testbed::new(SEED);
    let mut rng = CryptoRng::from_seed(SEED ^ 0x11D);
    let client = MbClientSession::new(Arc::new(tb.client_config()), "server.example", rng.fork());
    let server = MbServerSession::new(Arc::new(tb.server_config()), rng.fork());
    let middlebox = Middlebox::new(tb.middlebox_config(&tb.mbox_code), rng.fork());
    Chain::new(Box::new(client), vec![Box::new(middlebox) as Box<dyn Relay>], Box::new(server))
}

/// Run `build`'s session untouched to count the handshake body bytes
/// on its links, then once per body byte with that byte flipped.
/// Returns how many flips ran.
fn no_flip_establishes(build: fn() -> Chain) -> usize {
    let mut chain = build();
    let mut links = FlipLinks::new(chain.parties() - 1, None);
    assert!(all_established(&mut chain, &mut links), "the untouched session must establish");
    let total = links.seen;
    for target in 0..total {
        let mut chain = build();
        let mut links = FlipLinks::new(chain.parties() - 1, Some(target));
        assert!(
            !all_established(&mut chain, &mut links),
            "flipping handshake body byte {target} of {total} went unnoticed"
        );
    }
    total
}

#[test]
fn flipping_any_plain_tls_handshake_byte_fails_the_session() {
    let flips = no_flip_establishes(plain_tls);
    assert!(flips > 400, "only {flips} handshake body bytes seen");
}

#[test]
fn flipping_any_mbtls_handshake_byte_fails_the_session_or_the_middlebox() {
    let flips = no_flip_establishes(mbtls_one_middlebox);
    assert!(flips > 1500, "only {flips} handshake body bytes seen");
}
