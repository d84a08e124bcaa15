//! The sticky-error contract, stated once for all three mbTLS parties
//! and both plain-TLS endpoints: after a feed fails, every later feed
//! returns the same error, `failed()` reports it, and the party
//! produces nothing further — no wire bytes on any side, no
//! application data.
//!
//! Every row of the table runs through the same helper, whichever
//! party it poisons and whatever it poisons it with.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::FlowDirection;
use mbtls_core::driver::{Chain, Endpoint, LegacyClient, LegacyServer, Relay};
use mbtls_core::messages::Encapsulated;
use mbtls_core::middlebox::{DataProcessor, Middlebox};
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::record::{frame_plaintext, ContentType};
use mbtls_tls::{ClientConnection, ServerConnection};

/// Which party is poisoned, and (for the middlebox) from which side.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Victim {
    Client,
    MiddleboxFromClient,
    MiddleboxFromServer,
    Server,
}

/// How far the session got before the poison arrives.
#[derive(Debug, Clone, Copy)]
enum Setup {
    /// Only the ClientHello has reached the middlebox (it is joining).
    HelloOnly,
    /// Handshake complete, keys distributed, data plane active.
    Established,
    /// The same with no middlebox: the two mbTLS endpoints are each
    /// other's adjacent hop.
    Direct,
    /// Plain TLS 1.2, established: `LegacyClient` ↔ `LegacyServer`
    /// with no middlebox between them.
    PlainTls,
    /// Established on aliased hop keys (`read_only_middleboxes`),
    /// through a middlebox whose processor appends to every record.
    AliasedAppender,
}

#[derive(Debug, Clone, Copy)]
enum Poison {
    /// An Encapsulated record too short to name its subchannel.
    TruncatedEncapsulated,
    /// A record header announcing more than the wire limit.
    OversizedRecord,
    /// A valid data-plane record with its last tag byte flipped.
    BadTag,
    /// Three valid data-plane records in one feed, the second with its
    /// last tag byte flipped: the failure lands mid-loop, with the
    /// first record already relayed and the third still buffered.
    BadTagMidFeed,
    /// A middlebox trying to join after key distribution: an
    /// announcement (server) or an unknown subchannel (client).
    JoinAfterKeys,
    /// A valid data-plane record: the fault is what the victim would
    /// do with it.
    ValidRecord,
    /// A handshake record after key delivery, for the primary
    /// connection, whose handshake is over.
    HandshakeAfterKeys,
}

/// Appends to every record: a modification, which on aliased hop keys
/// has no key of its own to be sealed under.
struct Appender;

impl DataProcessor for Appender {
    fn process(&mut self, _dir: FlowDirection, mut data: Vec<u8>) -> Vec<u8> {
        data.extend_from_slice(b"+mbox");
        data
    }
}

const TABLE: &[(Victim, Setup, Poison)] = &[
    (Victim::Client, Setup::Established, Poison::TruncatedEncapsulated),
    (Victim::Client, Setup::Established, Poison::OversizedRecord),
    (Victim::Client, Setup::Established, Poison::BadTag),
    (Victim::Client, Setup::Established, Poison::JoinAfterKeys),
    (Victim::Server, Setup::Established, Poison::TruncatedEncapsulated),
    (Victim::Server, Setup::Established, Poison::OversizedRecord),
    (Victim::Server, Setup::Established, Poison::BadTag),
    (Victim::Server, Setup::Established, Poison::JoinAfterKeys),
    (Victim::MiddleboxFromClient, Setup::HelloOnly, Poison::TruncatedEncapsulated),
    (Victim::MiddleboxFromClient, Setup::Established, Poison::OversizedRecord),
    (Victim::MiddleboxFromClient, Setup::Established, Poison::BadTag),
    (Victim::MiddleboxFromServer, Setup::Established, Poison::OversizedRecord),
    (Victim::MiddleboxFromServer, Setup::Established, Poison::BadTag),
    (Victim::MiddleboxFromClient, Setup::Established, Poison::BadTagMidFeed),
    (Victim::MiddleboxFromClient, Setup::AliasedAppender, Poison::ValidRecord),
    (Victim::Client, Setup::PlainTls, Poison::OversizedRecord),
    (Victim::Client, Setup::PlainTls, Poison::BadTag),
    (Victim::Server, Setup::PlainTls, Poison::OversizedRecord),
    (Victim::Server, Setup::PlainTls, Poison::BadTag),
    (Victim::Client, Setup::Direct, Poison::HandshakeAfterKeys),
    (Victim::Server, Setup::Direct, Poison::HandshakeAfterKeys),
    (Victim::Client, Setup::Established, Poison::HandshakeAfterKeys),
    (Victim::Server, Setup::Established, Poison::HandshakeAfterKeys),
];

fn chain(seed: u64, setup: Setup) -> Chain {
    let tb = Testbed::new(seed);
    let mut rng = CryptoRng::from_seed(seed ^ 0x57);
    let mut chain = if let Setup::PlainTls = setup {
        let client_tls = Arc::new(tb.client_config().tls.into_inner());
        let client = ClientConnection::new(client_tls, "server.example", &mut rng);
        let server = ServerConnection::new(Arc::new(tb.server_config().tls.into_inner()));
        Chain::new(
            Box::new(LegacyClient::new(client, rng.fork())),
            vec![],
            Box::new(LegacyServer::new(server, rng.fork())),
        )
    } else {
        let aliased = matches!(setup, Setup::AliasedAppender);
        let mut client_cfg = tb.client_config();
        client_cfg.read_only_middleboxes = aliased;
        let client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
        let server = MbServerSession::new(Arc::new(tb.server_config()), rng.fork());
        let mbox_cfg = tb.middlebox_config(&tb.mbox_code);
        let mbox = if aliased {
            Middlebox::with_processor(mbox_cfg, rng.fork(), Box::new(Appender))
        } else {
            Middlebox::new(mbox_cfg, rng.fork())
        };
        let middles: Vec<Box<dyn Relay>> =
            if let Setup::Direct = setup { vec![] } else { vec![Box::new(mbox)] };
        Chain::new(Box::new(client), middles, Box::new(server))
    };
    match setup {
        Setup::HelloOnly => {
            let hello = chain.client.take();
            chain.middles[0].feed_left(&hello).expect("ClientHello");
        }
        Setup::Established | Setup::Direct | Setup::PlainTls | Setup::AliasedAppender => {
            chain.run_handshake().expect("handshake")
        }
    }
    chain
}

fn feed(chain: &mut Chain, victim: Victim, bytes: &[u8]) -> Result<(), MbError> {
    match victim {
        Victim::Client => chain.client.feed(bytes),
        Victim::MiddleboxFromClient => chain.middles[0].feed_left(bytes),
        Victim::MiddleboxFromServer => chain.middles[0].feed_right(bytes),
        Victim::Server => chain.server.feed(bytes),
    }
}

fn failed(chain: &Chain, victim: Victim) -> Option<MbError> {
    match victim {
        Victim::Client => chain.client.failed(),
        Victim::MiddleboxFromClient | Victim::MiddleboxFromServer => chain.middles[0].failed(),
        Victim::Server => chain.server.failed(),
    }
}

/// Everything the victim has to give: wire bytes on every side plus
/// received application data.
fn produced(chain: &mut Chain, victim: Victim) -> Vec<u8> {
    fn endpoint(e: &mut dyn Endpoint) -> Vec<u8> {
        [e.take(), e.recv_app()].concat()
    }
    match victim {
        Victim::Client => endpoint(chain.client.as_mut()),
        Victim::MiddleboxFromClient | Victim::MiddleboxFromServer => {
            let m: &mut dyn Relay = chain.middles[0].as_mut();
            [m.take_left(), m.take_right()].concat()
        }
        Victim::Server => endpoint(chain.server.as_mut()),
    }
}

/// What the victim's neighbour would legitimately send it next: one
/// valid data-plane record (or, before the handshake is done, one
/// well-formed handshake record).
fn next_valid_record(chain: &mut Chain, victim: Victim) -> Vec<u8> {
    if !chain.client.ready() {
        return frame_plaintext(ContentType::Handshake, &[0]);
    }
    match victim {
        Victim::Client => {
            chain.server.send_app(b"late").expect("send");
            let b = chain.server.take();
            let Some(mbox) = chain.middles.first_mut() else { return b };
            mbox.feed_right(&b).expect("healthy middlebox");
            mbox.take_left()
        }
        Victim::MiddleboxFromClient => {
            chain.client.send_app(b"late").expect("send");
            chain.client.take()
        }
        Victim::MiddleboxFromServer => {
            chain.server.send_app(b"late").expect("send");
            chain.server.take()
        }
        Victim::Server => {
            chain.client.send_app(b"late").expect("send");
            let b = chain.client.take();
            let Some(mbox) = chain.middles.first_mut() else { return b };
            mbox.feed_left(&b).expect("healthy middlebox");
            mbox.take_right()
        }
    }
}

fn poison_bytes(chain: &mut Chain, victim: Victim, poison: Poison) -> Vec<u8> {
    match poison {
        Poison::TruncatedEncapsulated => frame_plaintext(ContentType::MbtlsEncapsulated, &[]),
        Poison::OversizedRecord => vec![23, 3, 3, 0xFF, 0xFF],
        Poison::BadTag => {
            let mut record = next_valid_record(chain, victim);
            *record.last_mut().expect("non-empty record") ^= 1;
            record
        }
        Poison::BadTagMidFeed => {
            let mut records = [(); 3].map(|()| next_valid_record(chain, victim));
            *records[1].last_mut().expect("non-empty record") ^= 1;
            records.concat()
        }
        Poison::JoinAfterKeys if victim == Victim::Client => {
            let enc = Encapsulated {
                subchannel: 200,
                record: frame_plaintext(ContentType::Handshake, &[2, 0, 0, 0]),
            };
            frame_plaintext(ContentType::MbtlsEncapsulated, &enc.encode())
        }
        Poison::JoinAfterKeys => frame_plaintext(ContentType::MbtlsMiddleboxAnnouncement, &[]),
        Poison::ValidRecord => next_valid_record(chain, victim),
        Poison::HandshakeAfterKeys => frame_plaintext(ContentType::Handshake, &[0, 0, 0, 0]),
    }
}

#[test]
fn a_failed_feed_is_sticky_for_every_party() {
    for (row, &(victim, setup, poison)) in TABLE.iter().enumerate() {
        let case = format!("{victim:?} / {setup:?} / {poison:?}");
        let mut chain = chain(0x571C + row as u64, setup);
        assert_eq!(failed(&chain, victim), None, "{case}: healthy before");

        let bytes = poison_bytes(&mut chain, victim, poison);
        let error = feed(&mut chain, victim, &bytes).expect_err(&case);
        assert_eq!(failed(&chain, victim), Some(error.clone()), "{case}: failed()");
        // Whatever was already queued may still leave.
        let _ = produced(&mut chain, victim);

        // A valid record, an empty feed, the poison again: all the
        // same error, and nothing comes out.
        let valid = next_valid_record(&mut chain, victim);
        for later in [valid.as_slice(), &[], bytes.as_slice()] {
            assert_eq!(feed(&mut chain, victim, later), Err(error.clone()), "{case}: later feed");
            assert_eq!(failed(&chain, victim), Some(error.clone()), "{case}: failed() later");
            assert_eq!(produced(&mut chain, victim), Vec::<u8>::new(), "{case}: output");
        }
    }
}
