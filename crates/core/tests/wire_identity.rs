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
//!
//! The scenario pins below the two chain pins were captured at the
//! commit before the endpoint sessions, the middlebox sides and the
//! TLS record shell were each collapsed into one copy. They reach the
//! paths the chain pins do not — server-side middleboxes, delegated
//! credentials, refusal by approval policy, ticket resumption, and
//! deferred verification through `Chain`'s batch seam — and fold every
//! party's recorded `EventKind` sequence into the digest next to the
//! link bytes, so a refactor that moves a byte, an RNG draw or a
//! telemetry event on any of them fails here.
//!
//! Every pin was re-captured once, deliberately, when middleboxes
//! stopped issuing session tickets: each digest covers a middlebox's
//! secondary handshake or a primary ticket.

use std::sync::Arc;

use mbtls_core::attacks::{settle, Testbed};
use mbtls_core::client::{ApprovalPolicy, MbClientConfig, MbClientSession};
use mbtls_core::driver::{Chain, Endpoint, LegacyClient, Relay, TapLinks};
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_core::server::{MbServerConfig, MbServerSession};
use mbtls_crypto::rng::CryptoRng;
use mbtls_telemetry::{Event, Party, Recorder, SharedSink};
use mbtls_tls::config::ClientConfig;
use mbtls_tls::session::ResumptionData;
use mbtls_tls::ClientConnection;

const SEED: u64 = 0x51DE_B17E;
const MIDDLEBOXES: usize = 3;

/// Captured with the bitsliced AES-GCM backend only; re-captured
/// without middlebox tickets.
const RESEAL_DIGEST: u64 = 0x802c_3862_a8ca_57ab;
const READ_ONLY_DIGEST: u64 = 0x1038_e783_6ffa_3e44;

/// A running digest of everything placed on a chain's links.
struct Wire {
    digest: u64,
    bytes: usize,
    /// Deferred-verification verdicts delivered while playing the
    /// batching driver.
    verdicts: usize,
}

impl Wire {
    fn new() -> Self {
        Wire { digest: 0xCBF2_9CE4_8422_2325, bytes: 0, verdicts: 0 }
    }

    fn absorb(&mut self, rightward: bool, link: usize, data: &[u8]) {
        let header = [u8::from(rightward), link as u8];
        for &b in header.iter().chain(data) {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.bytes += data.len();
    }

    /// Settle `chain` over links that fold every send into this digest.
    fn settle(&mut self, chain: &mut Chain) {
        let mut links = TapLinks::new(chain.parties() - 1, |link, rightward, data: &[u8]| {
            self.absorb(rightward, link, data)
        });
        let verdicts = settle(chain, &mut links).expect("pump");
        self.verdicts += verdicts;
    }
}

/// Handshake, one 300-byte request, one 40 000-byte response (three
/// records, the last one partial, so the eight-block, single-block
/// and partial-block paths of the cipher all put bytes on the wire).
fn exchange(chain: &mut Chain, wire: &mut Wire) {
    wire.settle(chain);
    assert!(
        chain.client.ready() && chain.server.ready(),
        "handshake did not complete"
    );
    let handshake_bytes = wire.bytes;

    let request: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
    let response: Vec<u8> = (0..40_000u32).map(|i| (i * 13 + 5) as u8).collect();
    chain.client.send_app(&request).expect("send request");
    wire.settle(chain);
    assert_eq!(chain.server.recv_app(), request);
    chain.server.send_app(&response).expect("send response");
    wire.settle(chain);
    assert_eq!(chain.client.recv_app(), response);

    // Every link carried both payloads, plus record overhead.
    let data_bytes = wire.bytes - handshake_bytes;
    assert!(data_bytes > chain.parties().saturating_sub(1) * (request.len() + response.len()));
}

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
    let mut wire = Wire::new();
    exchange(&mut chain, &mut wire);
    (wire.digest, wire.bytes)
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

/// Captured before the endpoint-session, middlebox-side and
/// record-shell collapse; re-captured without middlebox tickets. Each
/// folds the link bytes and every party's telemetry event sequence.
const SERVER_SIDE_DIGEST: u64 = 0x5c93_7501_118e_4343;
const DELEGATED_CLIENT_SIDE_DIGEST: u64 = 0xce0d_ceb6_3c17_afeb;
const DELEGATED_SERVER_SIDE_DIGEST: u64 = 0xf396_a218_98c1_c9a1;
const CLIENT_REFUSAL_DIGEST: u64 = 0xf437_5caa_a4e7_f675;
const SERVER_REFUSAL_DIGEST: u64 = 0x79ef_3517_def6_47ec;
const RESUMED_DIGEST: u64 = 0xf871_1ee0_e18d_4359;
const DEFERRED_DIGEST: u64 = 0x4812_f1e1_4d9e_e07b;
const DELEGATED_DEFERRED_DIGEST: u64 = 0x6f86_c059_d2e2_665e;

/// The three party configurations of a scenario, telemetry attached.
struct Parties {
    client: MbClientConfig,
    server: MbServerConfig,
    middles: Vec<MiddleboxConfig>,
}

impl Parties {
    fn attested(tb: &Testbed, middleboxes: usize) -> Self {
        Parties {
            client: tb.client_config(),
            server: tb.server_config(),
            middles: (0..middleboxes).map(|_| tb.middlebox_config(&tb.mbox_code)).collect(),
        }
    }

    fn delegated(tb: &Testbed, middleboxes: usize) -> Self {
        Parties {
            client: tb.client_config_delegated(),
            server: tb.server_config_delegated(),
            middles: (0..middleboxes)
                .map(|_| tb.middlebox_config_delegated())
                .collect(),
        }
    }

    fn trace_into(&mut self, sink: &SharedSink) {
        self.client.telemetry = Some(sink.clone());
        self.server.telemetry = Some(sink.clone());
        for (i, cfg) in self.middles.iter_mut().enumerate() {
            cfg.telemetry = Some(sink.clone());
            cfg.telemetry_party = Party::Middlebox(i as u8);
        }
    }
}

/// Which client opens the session.
enum ClientKind {
    /// An mbTLS client: middleboxes join on its side.
    Mbtls,
    /// A plain TLS client: middleboxes announce themselves to the
    /// server and join on the server's side.
    Legacy,
}

/// What a traced scenario left behind.
struct Outcome {
    /// Link bytes and every party's event sequence, folded.
    digest: u64,
    /// The recorded events, in emission order.
    events: Vec<Event>,
    /// Deferred-verification verdicts the test delivered.
    verdicts: usize,
    /// Whether the client's primary handshake was abbreviated.
    resumed: bool,
    /// What the client would cache for a later session.
    resumption: Option<ResumptionData>,
}

impl Outcome {
    fn count(&self, party: Party, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.party == party && e.kind.name() == name)
            .count()
    }
}

/// Run one traced scenario: build the chain from `parties`, exchange
/// data, and fold every party's event sequence into the link digest
/// (which starts from `digest` when a scenario spans two sessions).
fn run_scenario(
    seed: u64,
    tb: &Testbed,
    mut parties: Parties,
    client_kind: ClientKind,
    defer_to_driver: bool,
    digest: Option<u64>,
) -> Outcome {
    let recorder = Recorder::new();
    parties.trace_into(&recorder.sink());
    let mut rng = CryptoRng::from_seed(seed);
    let client: Box<dyn Endpoint> = match client_kind {
        ClientKind::Mbtls => Box::new(MbClientSession::new(
            Arc::new(parties.client),
            "server.example",
            rng.fork(),
        )),
        ClientKind::Legacy => {
            let mut tls = ClientConfig::new(tb.server_trust.clone());
            tls.enable_tickets = true;
            let mut client_rng = rng.fork();
            let conn = ClientConnection::new(Arc::new(tls), "server.example", &mut client_rng);
            Box::new(LegacyClient::new(conn, client_rng))
        }
    };
    let server = MbServerSession::new(Arc::new(parties.server), rng.fork());
    let n = parties.middles.len();
    let middles: Vec<Box<dyn Relay>> = parties
        .middles
        .into_iter()
        .map(|cfg| Box::new(Middlebox::new(cfg, rng.fork())) as Box<dyn Relay>)
        .collect();
    let mut chain = Chain::new(client, middles, Box::new(server));
    chain.set_defer_verify_to_driver(defer_to_driver);
    let mut wire = Wire::new();
    if let Some(d) = digest {
        wire.digest = d;
    }
    exchange(&mut chain, &mut wire);

    // Each party's event sequence, client first, server last.
    let events = recorder.take();
    let order = [Party::Client]
        .into_iter()
        .chain((0..n as u8).map(Party::Middlebox))
        .chain([Party::Server]);
    for party in order {
        let label = party.label();
        for e in events.iter().filter(|e| e.party == party) {
            let line = format!("{label} {:?}", e.kind);
            wire.absorb(true, 0xFF, line.as_bytes());
        }
    }
    Outcome {
        digest: wire.digest,
        events,
        verdicts: wire.verdicts,
        resumed: chain.client.resumed(),
        resumption: chain.client.resumption(),
    }
}

fn assert_pinned(name: &str, digest: u64, expected: u64) {
    assert_eq!(
        digest, expected,
        "{name}: wire bytes or telemetry events changed (digest {digest:#018x})"
    );
}

#[test]
fn server_side_middleboxes_are_pinned() {
    // Legacy client: both middleboxes announce and the server opens a
    // secondary session per announcement.
    let tb = Testbed::new(SEED);
    let parties = Parties::attested(&tb, 2);
    let out = run_scenario(SEED ^ 0x5E, &tb, parties, ClientKind::Legacy, false, None);
    assert_eq!(out.count(Party::Server, "key_delivery"), 2);
    assert_pinned("server-side middleboxes", out.digest, SERVER_SIDE_DIGEST);
}

#[test]
fn delegated_mode_is_pinned() {
    let tb = Testbed::new(SEED);
    let parties = Parties::delegated(&tb, 2);
    let out = run_scenario(SEED ^ 0xDE1, &tb, parties, ClientKind::Mbtls, false, None);
    assert_eq!(out.count(Party::Client, "credential_verified"), 2);
    assert_pinned("delegated, client side", out.digest, DELEGATED_CLIENT_SIDE_DIGEST);

    let parties = Parties::delegated(&tb, 1);
    let out = run_scenario(SEED ^ 0xDE2, &tb, parties, ClientKind::Legacy, false, None);
    assert_eq!(out.count(Party::Server, "credential_verified"), 1);
    assert_pinned("delegated, server side", out.digest, DELEGATED_SERVER_SIDE_DIGEST);
}

#[test]
fn refusal_by_approval_policy_is_pinned() {
    // The refused middlebox gets a fatal alert on its subchannel and
    // demotes itself to a relay; the session completes without it.
    let tb = Testbed::new(SEED);
    let mut parties = Parties::attested(&tb, 1);
    parties.client.approval = ApprovalPolicy::DenyAll;
    let out = run_scenario(SEED ^ 0xA1, &tb, parties, ClientKind::Mbtls, false, None);
    assert_eq!(out.count(Party::Client, "secondary_handshake_start"), 1);
    assert_eq!(out.count(Party::Client, "key_delivery"), 0);
    assert_eq!(out.count(Party::Middlebox(0), "handshake_complete"), 0);
    assert_pinned("refused by the client", out.digest, CLIENT_REFUSAL_DIGEST);

    let mut parties = Parties::attested(&tb, 1);
    parties.server.approval = ApprovalPolicy::AllowList(vec!["other.msp.example".into()]);
    let out = run_scenario(SEED ^ 0xA2, &tb, parties, ClientKind::Legacy, false, None);
    assert_eq!(out.count(Party::Server, "secondary_handshake_start"), 1);
    assert_eq!(out.count(Party::Server, "key_delivery"), 0);
    assert_eq!(out.count(Party::Middlebox(0), "handshake_complete"), 0);
    assert_pinned("refused by the server", out.digest, SERVER_REFUSAL_DIGEST);
}

#[test]
fn ticket_resumed_session_is_pinned() {
    let tb = Testbed::new(SEED);
    let parties = Parties::attested(&tb, 1);
    let first = run_scenario(SEED ^ 0x71, &tb, parties, ClientKind::Mbtls, false, None);
    assert!(!first.resumed);
    let resumption = first.resumption.expect("first session issues a ticket");
    assert!(resumption.ticket.is_some());

    let mut parties = Parties::attested(&tb, 1);
    parties
        .client
        .tls
        .resumption_cache
        .insert("server.example".to_string(), resumption);
    // The second session's digest continues from the first's.
    let start = Some(first.digest);
    let out = run_scenario(SEED ^ 0x72, &tb, parties, ClientKind::Mbtls, false, start);
    assert!(out.resumed, "second session resumes from the ticket");
    assert_eq!(out.count(Party::Client, "key_delivery"), 1);
    assert_pinned("ticket-resumed session", out.digest, RESUMED_DIGEST);
}

#[test]
fn deferred_verification_through_the_batch_seam_is_pinned() {
    // Attested: the primary's checks and each middlebox's chain
    // checks park until this test, playing the batching driver,
    // delivers their verdicts.
    let tb = Testbed::new(SEED);
    let mut parties = Parties::attested(&tb, 2);
    parties.client.tls.defer_verify = true;
    let out = run_scenario(SEED ^ 0xDF1, &tb, parties, ClientKind::Mbtls, true, None);
    assert_eq!(out.verdicts, 3, "primary + one group per middlebox");
    assert_pinned("deferred verification", out.digest, DEFERRED_DIGEST);

    // Delegated: the credential checks are raised inside the
    // secondary connection and take the same seam.
    let mut parties = Parties::delegated(&tb, 1);
    parties.client.tls.defer_verify = true;
    let out = run_scenario(SEED ^ 0xDF2, &tb, parties, ClientKind::Mbtls, true, None);
    assert_eq!(out.verdicts, 2, "primary + the credential's group");
    assert_pinned("deferred delegated verification", out.digest, DELEGATED_DEFERRED_DIGEST);
}
