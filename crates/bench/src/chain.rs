//! The `chain` suite (`BENCH_chain.json`): read-only forward fast
//! path vs open+reseal per hop, and Slick-style
//! service-function-chain throughput end to end.
//!
//! Per-hop numbers isolate the record relay cost at one middlebox:
//! `endpoint_seal` (the producer baseline), `middlebox_open_reseal`
//! (the classic double-AEAD forward), `middlebox_read_only_forward`
//! (aliased keys + read-only declaration: tag verify only), and
//! `raw_tag_verify` (the record-layer primitive the fast path should
//! collapse toward). Chain numbers drive real mbTLS sessions —
//! client → [filter → cache → compression] → server — with the
//! seeded HTTP mix from `mbtls_http::workload`, at 1/2/3
//! middleboxes, plus a 3-tap read-only variant on aliased keys.
//! [`run`] also pumps the read-only steady state, and whole
//! asymmetric exchanges through a three-middlebox [`Chain`], under
//! the `report` binary's allocation counter; `scripts/check.sh` runs
//! the suite in `--smoke` mode as a regression gate.

use std::sync::Arc;
use std::time::Instant;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::{
    fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane,
};
use mbtls_core::driver::{Chain, ChainLinks, PipeLinks, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;
use mbtls_http::message::{RequestParser, ResponseParser};
use mbtls_http::workload::{response_for, RequestMix};
use mbtls_mboxes::{ChainFunction, ServiceChain};
use mbtls_telemetry::json::Value;
use mbtls_tls::record::ContentType;
use mbtls_tls::suites::CipherSuite;

use crate::report::{throughput_object, Throughput, RECORD_LEN};
use crate::{allocs_per_op, fnv1a, AllocCounter, FNV1A_BASIS};

/// The per-hop rows [`check`] requires.
const PER_HOP_KEYS: [&str; 4] =
    ["endpoint_seal", "middlebox_open_reseal", "middlebox_read_only_forward", "raw_tag_verify"];

/// Measure everything that goes into `BENCH_chain.json`.
pub fn run(smoke: bool, alloc_count: AllocCounter) -> Value {
    // Measurement budgets: smoke proves the harness; full runs give
    // stable numbers. Chain runs are bounded by handshake cost, so
    // the exchange count stays modest even in full mode.
    let per_hop_budget = if smoke { 4 * RECORD_LEN } else { 48 * 1024 * 1024 };
    let exchanges = if smoke { 2 } else { 64 };
    let alloc_records = if smoke { 4 } else { 64 };

    let per_hop = bench_per_hop(per_hop_budget);
    let rate = |name: &str| per_hop.iter().find(|t| t.name == name).map_or(0.0, |t| t.mb_per_s);
    // The fast-path win: tag verify only, against open + reseal.
    let read_only_speedup = match rate("middlebox_open_reseal") {
        reseal if reseal > 0.0 => rate("middlebox_read_only_forward") / reseal,
        _ => 0.0,
    };
    let (chains, chains_identical) = bench_chains(exchanges, 0xC8A1_2026);
    // Handshake-amortization rows: large-response size classes and
    // session-reuse configurations, all on the full 3-middlebox
    // chain, timed *including* handshakes.
    let (amortized, amortized_identical) = bench_amortized(smoke, 0xC8A1_2027);
    // The fast path touches only reused buffers, so this must be 0.
    let mut read_only = SteadyStateReadOnly::warmed_up();
    let allocs = allocs_per_op(alloc_count, alloc_records, |n| read_only.pump(n as usize));
    // Whole exchanges through the chain driver: the parties and the
    // links trade buffers, so once the ring is warm nothing allocates
    // and no link is left holding the other direction's capacity.
    // Counts, not timings: the same budget at smoke and full.
    let mut ring_allocs: f64 = 0.0;
    let mut request_capacity = 0;
    for read_only_keys in [true, false] {
        for lending in [true, false] {
            let mut ring = SteadyStateRing::warmed_up(read_only_keys, lending);
            let per_exchange = allocs_per_op(alloc_count, RING_EXCHANGES, |n| ring.exchange(n));
            ring_allocs = ring_allocs.max(per_exchange);
            request_capacity = request_capacity.max(ring.request_link_capacity());
        }
    }

    Value::object([
        ("smoke", smoke.into()),
        ("aead_backend", mbtls_crypto::gcm::backend_name().into()),
        ("record_len", RECORD_LEN.into()),
        ("per_hop_mb_s", throughput_object(&per_hop, 2)),
        ("read_only_speedup", Value::Float(read_only_speedup, 3)),
        ("chain_mb_s", throughput_object(&chains, 3)),
        ("amortized_mb_s", throughput_object(&amortized, 3)),
        ("allocs_per_record_read_only", Value::Float(allocs, 3)),
        ("allocs_per_exchange_steady", Value::Float(ring_allocs, 3)),
        ("request_link_capacity_bytes", request_capacity.into()),
        // Whether every same-seed double run produced bit-identical
        // application byte streams.
        (
            "determinism",
            if chains_identical && amortized_identical { "identical" } else { "diverged" }.into(),
        ),
    ])
}

/// Schema and floors of `BENCH_chain.json`: the read-only forward
/// must beat open+reseal by ≥1.5× (the whole point of the fast path;
/// measured ≈ 3.6× on the vaes-vpclmul loops, 3.3–4.3× on the
/// aesni-pclmul ones, ~10× on the bitsliced backend), its steady state
/// must be allocation-free, and two same-seed chain runs must produce
/// bit-identical byte streams.
///
/// Unlike the throughput-ratio floors elsewhere, these hold even at
/// smoke budgets: skipping a body decrypt wins at any record count,
/// and allocs/determinism are exact, not statistical.
pub fn check(report: &Value, _replaced: Option<&Value>) -> Result<String, String> {
    report.text("aead_backend")?;
    for key in PER_HOP_KEYS {
        floor!(report.num(&format!("per_hop_mb_s.{key}"))? > 0.0, "per-hop metric {key} is zero");
    }
    let speedup = report.num("read_only_speedup")?;
    floor!(
        speedup >= 1.5,
        "read-only fast path regressed: {speedup}x < 1.5x over open+reseal"
    );
    for (config, ..) in chain_configs() {
        floor!(report.num(&format!("chain_mb_s.{config}"))? > 0.0, "chain config {config} is zero");
    }
    let amortized = |key: &str| report.num(&format!("amortized_mb_s.{key}"));
    for (config, ..) in amortization_configs(true) {
        floor!(amortized(config)? > 0.0, "amortized config {config} is zero");
    }
    // Structural floors (hold at smoke budgets too): the same exchange
    // budget on one reused session strictly beats one handshake per
    // exchange, and a 256k response strictly beats 4k per byte moved.
    floor!(
        amortized("middleboxes_3_reuse_x16")? > amortized("middleboxes_3_reuse_x1")?,
        "session reuse does not amortize the handshake"
    );
    floor!(
        amortized("middleboxes_3_resp_256k")? > amortized("middleboxes_3_resp_4k")?,
        "large responses do not amortize per-record overhead"
    );
    let allocs = report.num("allocs_per_record_read_only")?;
    floor!(allocs == 0.0, "read-only steady state allocates: {allocs} allocs/record");
    let ring_allocs = report.num("allocs_per_exchange_steady")?;
    floor!(ring_allocs == 0.0, "warm chain exchange allocates: {ring_allocs} allocs/exchange");
    let parked = report.num("request_link_capacity_bytes")?;
    floor!(
        parked < RECORD_LEN as f64,
        "request-direction links hold {parked} bytes of capacity: response buffers are circulating"
    );
    floor!(
        report.text("determinism")? == "identical",
        "double-run chain determinism verdict is not identical"
    );
    Ok(format!(
        "chain OK: read-only {speedup}x over reseal, {allocs} allocs/record, determinism identical"
    ))
}

fn mb_per_s(bytes: usize, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Per-hop relay throughput at `RECORD_LEN`-byte records:
/// `endpoint_seal`, `middlebox_open_reseal` (unique hop keys, the
/// default data plane), `middlebox_read_only_forward` (aliased keys,
/// read-only declaration), and `raw_tag_verify` (the bare
/// record-layer primitive). `total_bytes` is the plaintext budget
/// per metric.
pub fn bench_per_hop(total_bytes: usize) -> Vec<Throughput> {
    let mut rng = CryptoRng::from_seed(0xC4A1);
    let suite = CipherSuite::EcdheAes256GcmSha384;
    let left = fresh_hop_keys(suite, &mut rng);
    let right = fresh_hop_keys(suite, &mut rng);
    let shared = fresh_hop_keys(suite, &mut rng);
    let payload = vec![0xA5u8; RECORD_LEN];
    let iters = (total_bytes / RECORD_LEN).max(1);
    let warmup = (iters / 16).max(1);

    let mut out = Vec::new();
    let mut wire = Vec::new();
    let mut fwd = Vec::new();

    // Endpoint seal baseline.
    let mut client = EndpointDataPlane::for_client(&left).expect("keys");
    for _ in 0..warmup {
        client.send(&payload).expect("send");
        wire.clear();
        client.drain_outgoing_into(&mut wire);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        client.send(&payload).expect("send");
        wire.clear();
        client.drain_outgoing_into(&mut wire);
    }
    out.push(Throughput {
        name: "endpoint_seal",
        mb_per_s: mb_per_s(iters * RECORD_LEN, t0.elapsed()),
    });

    // Open + reseal: unique per-hop keys, the default relay cost.
    // Records are sealed fresh each iteration (sequence numbers);
    // only the middlebox's work is timed.
    let mut sender = EndpointDataPlane::for_client(&left).expect("keys");
    let mut mbox = MiddleboxDataPlane::new(&left, &right).expect("keys");
    let mut total = std::time::Duration::ZERO;
    for _ in 0..iters + warmup {
        sender.send(&payload).expect("send");
        wire.clear();
        sender.drain_outgoing_into(&mut wire);
        let t0 = Instant::now();
        mbox.feed(FlowDirection::ClientToServer, &wire, |_, _p| {}).expect("forward");
        fwd.clear();
        mbox.drain_toward_server_into(&mut fwd);
        total += t0.elapsed();
    }
    out.push(Throughput {
        name: "middlebox_open_reseal",
        mb_per_s: mb_per_s((iters + warmup) * RECORD_LEN, total),
    });

    // Read-only forward: both hops share `shared`'s keys and the
    // processor declares itself non-modifying — tag verify only.
    let mut sender = EndpointDataPlane::for_client(&shared).expect("keys");
    let mut mbox = MiddleboxDataPlane::new(&shared, &shared).expect("keys");
    mbox.set_read_only(true);
    assert!(mbox.fast_path_active(FlowDirection::ClientToServer));
    let mut total = std::time::Duration::ZERO;
    for _ in 0..iters + warmup {
        sender.send(&payload).expect("send");
        wire.clear();
        sender.drain_outgoing_into(&mut wire);
        let t0 = Instant::now();
        mbox.feed(FlowDirection::ClientToServer, &wire, |_, _p| {}).expect("forward");
        fwd.clear();
        mbox.drain_toward_server_into(&mut fwd);
        total += t0.elapsed();
    }
    assert_eq!(mbox.records_fast_forwarded, (iters + warmup) as u64);
    out.push(Throughput {
        name: "middlebox_read_only_forward",
        mb_per_s: mb_per_s((iters + warmup) * RECORD_LEN, total),
    });

    // Raw tag verify: the record-layer primitive alone, no framing,
    // no buffer management — the ceiling the fast path approaches.
    let mut writer = shared.seal_client_to_server().expect("keys");
    let mut reader = shared.open_client_to_server().expect("keys");
    let mut total = std::time::Duration::ZERO;
    for _ in 0..iters + warmup {
        wire.clear();
        writer.seal_record_into(ContentType::ApplicationData, &payload, &mut wire).expect("seal");
        let body = &wire[5..];
        let t0 = Instant::now();
        reader.verify_record(ContentType::ApplicationData, body).expect("verify");
        total += t0.elapsed();
    }
    out.push(Throughput {
        name: "raw_tag_verify",
        mb_per_s: mb_per_s((iters + warmup) * RECORD_LEN, total),
    });

    out
}

/// Outcome of one end-to-end chain run.
pub struct ChainRunResult {
    /// Application megabytes per second through the chain.
    pub mb_per_s: f64,
    /// FNV-1a digest of every application byte the server received
    /// followed by every byte the client received — the determinism
    /// fingerprint.
    pub digest: u64,
}

/// A freshly handshaken mbTLS session with the given service functions
/// on the path. `read_only_keys` distributes aliased (bridge) keys to
/// every hop, as a client would for a declared-read-only path.
fn handshaken_chain(
    functions: &[ChainFunction],
    seed: u64,
    read_only_keys: bool,
) -> Result<Chain, MbError> {
    let testbed = Testbed::new(seed);
    let mut rng = CryptoRng::from_seed(seed ^ 0xC11A);
    let mut client_cfg = testbed.client_config();
    client_cfg.read_only_middleboxes = read_only_keys;
    let client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
    let server = MbServerSession::new(Arc::new(testbed.server_config()), rng.fork());
    let middles: Vec<Box<dyn Relay>> = functions
        .iter()
        .map(|f| {
            let cfg = testbed.middlebox_config(&testbed.mbox_code);
            Box::new(Middlebox::with_processor(cfg, rng.fork(), f.build())) as Box<dyn Relay>
        })
        .collect();
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
    chain.run_handshake()?;
    Ok(chain)
}

/// Drive `exchanges` HTTP request/response pairs through a
/// [`handshaken_chain`].
pub fn run_chain(
    functions: &[ChainFunction],
    exchanges: usize,
    seed: u64,
    read_only_keys: bool,
) -> Result<ChainRunResult, MbError> {
    let mut chain = handshaken_chain(functions, seed, read_only_keys)?;

    let mut mix = RequestMix::new(seed);
    let mut server_rx = RequestParser::new();
    let mut client_rx = ResponseParser::new();
    let mut digest = FNV1A_BASIS;
    let mut app_bytes = 0usize;
    let t0 = Instant::now();
    for _ in 0..exchanges {
        // Client → chain → server: pump until a full request arrives
        // (middleboxes may rewrite it, so parse rather than count).
        let req = mix.next_request().encode();
        app_bytes += req.len();
        chain.client.send_app(&req)?;
        let arrived = loop {
            chain.pump()?;
            let got = chain.server.recv_app();
            fnv1a(&mut digest, &got);
            server_rx.feed(&got);
            if let Some(r) = server_rx.next_request().map_err(|_| {
                MbError::unexpected_state("chain delivered an unparseable request")
            })? {
                break r;
            }
        };
        // Server answers canonically for whatever request it saw.
        let resp = response_for(&arrived).encode();
        app_bytes += resp.len();
        chain.server.send_app(&resp)?;
        loop {
            chain.pump()?;
            let got = chain.client.recv_app();
            fnv1a(&mut digest, &got);
            client_rx.feed(&got);
            if client_rx
                .next_response()
                .map_err(|_| MbError::unexpected_state("chain delivered an unparseable response"))?
                .is_some()
            {
                break;
            }
        }
    }
    Ok(ChainRunResult { mb_per_s: mb_per_s(app_bytes, t0.elapsed()), digest })
}

/// Drive `sessions` sequential mbTLS sessions — each freshly
/// handshaken, each carrying `exchanges_per_session` raw
/// request/response rounds with a `response_len`-byte response —
/// through the full Slick chain, timing handshakes *and* data. This
/// is the amortization probe: the per-hop HTTP rows above exclude
/// the handshake, which hides how handshake-bound short sessions
/// are; these rows make the trade visible (bigger responses and
/// reused sessions both spread the fixed handshake cost over more
/// application bytes). Raw (non-HTTP) payloads pass through every
/// chain processor unchanged, so byte counts are exact.
pub fn run_chain_sized(
    functions: &[ChainFunction],
    sessions: usize,
    exchanges_per_session: usize,
    response_len: usize,
    seed: u64,
) -> Result<ChainRunResult, MbError> {
    let testbed = Testbed::new(seed);
    let req = vec![0x42u8; 256];
    let resp: Vec<u8> = (0..response_len).map(|i| (i % 251) as u8).collect();
    let mut digest = FNV1A_BASIS;
    let mut app_bytes = 0usize;
    let t0 = Instant::now();
    for s in 0..sessions {
        let mut rng = CryptoRng::from_seed(seed ^ 0xA3_013 ^ ((s as u64) << 32));
        let client =
            MbClientSession::new(Arc::new(testbed.client_config()), "server.example", rng.fork());
        let server = MbServerSession::new(Arc::new(testbed.server_config()), rng.fork());
        let middles: Vec<Box<dyn Relay>> = functions
            .iter()
            .map(|f| {
                let cfg = testbed.middlebox_config(&testbed.mbox_code);
                Box::new(Middlebox::with_processor(cfg, rng.fork(), f.build())) as Box<dyn Relay>
            })
            .collect();
        let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
        chain.run_handshake()?;
        for _ in 0..exchanges_per_session {
            let got = chain.client_to_server(&req, req.len())?;
            app_bytes += got.len();
            fnv1a(&mut digest, &got);
            let got = chain.server_to_client(&resp, resp.len())?;
            app_bytes += got.len();
            fnv1a(&mut digest, &got);
        }
    }
    Ok(ChainRunResult { mb_per_s: mb_per_s(app_bytes, t0.elapsed()), digest })
}

/// The amortization configurations: `(name, sessions,
/// exchanges_per_session, response_len)`. Size classes hold the
/// session count fixed and grow the response; the reuse pair moves
/// the same exchange budget from one-handshake-per-exchange to one
/// session for all of them.
pub fn amortization_configs(smoke: bool) -> Vec<(&'static str, usize, usize, usize)> {
    let ex = if smoke { 2 } else { 16 };
    let reuse = if smoke { 4 } else { 16 };
    vec![
        ("middleboxes_3_resp_4k", 1, ex, 4 * 1024),
        ("middleboxes_3_resp_64k", 1, ex, 64 * 1024),
        ("middleboxes_3_resp_256k", 1, ex, 256 * 1024),
        ("middleboxes_3_reuse_x1", reuse, 1, 64 * 1024),
        ("middleboxes_3_reuse_x16", 1, reuse, 64 * 1024),
    ]
}

/// Measure every amortization configuration on the full Slick chain,
/// double-running each for the shared determinism verdict.
pub fn bench_amortized(smoke: bool, seed: u64) -> (Vec<Throughput>, bool) {
    let slick = ServiceChain::slick_web();
    let mut out = Vec::new();
    let mut identical = true;
    for (name, sessions, exchanges, resp) in amortization_configs(smoke) {
        let a = run_chain_sized(slick.functions(), sessions, exchanges, resp, seed)
            .expect("amortized chain run completes");
        let b = run_chain_sized(slick.functions(), sessions, exchanges, resp, seed)
            .expect("amortized chain run completes");
        identical &= a.digest == b.digest;
        out.push(Throughput { name, mb_per_s: a.mb_per_s.max(b.mb_per_s) });
    }
    (out, identical)
}

/// The chain configurations the report measures: the Slick web chain
/// at 1, 2, and 3 middleboxes, plus 3 read-only taps on aliased keys.
pub fn chain_configs() -> Vec<(&'static str, ServiceChain, bool)> {
    let slick = ServiceChain::slick_web();
    vec![
        ("middleboxes_1", slick.prefix(1), false),
        ("middleboxes_2", slick.prefix(2), false),
        ("middleboxes_3", slick.clone(), false),
        (
            "middleboxes_3_read_only",
            ServiceChain::new(vec![ChainFunction::Tap; 3]),
            true,
        ),
    ]
}

/// Measure every chain configuration and double-run the full Slick
/// chain for the determinism verdict.
pub fn bench_chains(exchanges: usize, seed: u64) -> (Vec<Throughput>, bool) {
    let mut out = Vec::new();
    let mut identical = true;
    for (name, chain, read_only) in chain_configs() {
        let a = run_chain(chain.functions(), exchanges, seed, read_only)
            .expect("chain run completes");
        let b = run_chain(chain.functions(), exchanges, seed, read_only)
            .expect("chain run completes");
        identical &= a.digest == b.digest;
        out.push(Throughput { name, mb_per_s: a.mb_per_s.max(b.mb_per_s) });
    }
    (out, identical)
}

/// A warmed-up client → read-only middlebox → server pipeline on
/// aliased keys. [`run`] counts allocations around [`Self::pump`] to
/// prove the fast path is allocation-free at steady state.
pub struct SteadyStateReadOnly {
    client: EndpointDataPlane,
    mbox: MiddleboxDataPlane,
    server: EndpointDataPlane,
    payload: Vec<u8>,
    wire: Vec<u8>,
    fwd: Vec<u8>,
    plain: Vec<u8>,
}

impl SteadyStateReadOnly {
    /// Build the pipeline and run enough records through it for every
    /// internal buffer to reach its final capacity.
    pub fn warmed_up() -> Self {
        let mut rng = CryptoRng::from_seed(0xFA57);
        let suite = CipherSuite::EcdheAes256GcmSha384;
        let hop = fresh_hop_keys(suite, &mut rng);
        let mut mbox = MiddleboxDataPlane::new(&hop, &hop).expect("keys");
        mbox.set_read_only(true);
        let mut pipeline = SteadyStateReadOnly {
            client: EndpointDataPlane::for_client(&hop).expect("keys"),
            mbox,
            server: EndpointDataPlane::for_server(&hop).expect("keys"),
            payload: vec![0x5Au8; RECORD_LEN],
            wire: Vec::new(),
            fwd: Vec::new(),
            plain: Vec::new(),
        };
        for _ in 0..8 {
            pipeline.pump(1);
        }
        pipeline
    }

    /// Push `records` full-size records client → middlebox → server
    /// through the fast path, all in reused buffers.
    pub fn pump(&mut self, records: usize) {
        let before = self.mbox.records_fast_forwarded;
        for _ in 0..records {
            self.client.send(&self.payload).expect("send");
            self.wire.clear();
            self.client.drain_outgoing_into(&mut self.wire);
            self.mbox
                .feed(FlowDirection::ClientToServer, &self.wire, |_, _p| {})
                .expect("forward");
            self.fwd.clear();
            self.mbox.drain_toward_server_into(&mut self.fwd);
            self.server.feed(&self.fwd).expect("deliver");
            self.plain.clear();
            self.server.drain_plaintext_into(&mut self.plain);
            assert_eq!(self.plain.len(), RECORD_LEN, "record did not round-trip");
        }
        assert_eq!(
            self.mbox.records_fast_forwarded - before,
            records as u64,
            "steady-state pump must stay on the fast path"
        );
    }
}

/// Exchanges [`run`] counts over on each [`SteadyStateRing`].
const RING_EXCHANGES: u64 = 64;

/// [`PipeLinks`] that keep their buffers to themselves, so [`Chain`]
/// stages every transfer the way it does under the network simulator.
struct OpaqueLinks(PipeLinks);

impl ChainLinks for OpaqueLinks {
    fn recv_rightward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        self.0.recv_rightward(link)
    }
    fn recv_leftward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        self.0.recv_leftward(link)
    }
    fn send_rightward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.0.send_rightward(link, from, data)
    }
    fn send_leftward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.0.send_leftward(link, from, data)
    }
    fn recv_rightward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        self.0.recv_rightward_into(link, dst)
    }
    fn recv_leftward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        self.0.recv_leftward_into(link, dst)
    }
}

/// A handshaken client → three taps → server [`Chain`] moving one
/// asymmetric exchange per turn (256 B up, 128 KiB down), either over
/// the chain's own lending links or over [`OpaqueLinks`]. [`run`]
/// counts allocations around [`Self::exchange`] and reads
/// [`Self::request_link_capacity`] afterwards.
pub struct SteadyStateRing {
    chain: Chain,
    /// `None`: [`Chain::pump`] over the chain's own links.
    opaque: Option<OpaqueLinks>,
    request: Vec<u8>,
    response: Vec<u8>,
    got_request: Vec<u8>,
    got_response: Vec<u8>,
}

impl SteadyStateRing {
    /// Handshake (over the chain's own links), then two exchanges so
    /// every buffer of the ring has been around once. `read_only_keys`
    /// puts the taps on aliased keys (tag-verify and forward);
    /// otherwise they open and re-seal.
    pub fn warmed_up(read_only_keys: bool, lending: bool) -> Self {
        let taps = [ChainFunction::Tap; 3];
        let chain = handshaken_chain(&taps, 0x51E4_D151, read_only_keys).expect("handshake");
        let mut ring = SteadyStateRing {
            opaque: (!lending).then(|| OpaqueLinks(PipeLinks::new(chain.middles.len() + 1))),
            chain,
            request: vec![0x42; 256],
            response: (0..128 * 1024).map(|i| (i % 251) as u8).collect(),
            got_request: Vec::new(),
            got_response: Vec::new(),
        };
        ring.exchange(2);
        ring
    }

    fn pump(&mut self) {
        match &mut self.opaque {
            None => {
                self.chain.pump().expect("pump");
            }
            Some(links) => while self.chain.pump_with(links).expect("pump") {},
        }
    }

    /// Run `exchanges` request/response turns, checking every byte.
    pub fn exchange(&mut self, exchanges: u64) {
        for _ in 0..exchanges {
            self.chain.client.send_app(&self.request).expect("send request");
            self.pump();
            self.got_request.clear();
            self.chain.server.recv_app_into(&mut self.got_request);
            assert!(self.got_request == self.request, "request did not arrive intact");
            self.chain.server.send_app(&self.response).expect("send response");
            self.pump();
            self.got_response.clear();
            self.chain.client.recv_app_into(&mut self.got_response);
            assert!(self.got_response == self.response, "response did not arrive intact");
        }
    }

    /// Capacity parked on the request-direction (client→server) links:
    /// the chain's own buffers, which it also stages through under
    /// [`OpaqueLinks`], plus the opaque links' own.
    pub fn request_link_capacity(&self) -> usize {
        self.chain.link_capacity(true) + self.opaque.as_ref().map_or(0, |l| l.0.capacity(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_and_doctored_floors_fail() {
        // The per-hop ratio comes from a few records timed in tens of
        // microseconds; one preemption under `cargo test` would sink
        // it, so pin it. The release-mode bench gate checks the real one.
        let smoke = crate::testing::doctored(&run(true, || 0), "read_only_speedup", "3.000");
        crate::testing::assert_floors(
            check,
            &smoke,
            &[
                ("read_only_speedup", "1.400", "read-only fast path regressed"),
                ("allocs_per_record_read_only", "0.500", "read-only steady state allocates"),
                ("allocs_per_exchange_steady", "0.016", "warm chain exchange allocates"),
                ("request_link_capacity_bytes", "16320", "response buffers are circulating"),
                ("determinism", "\"diverged\"", "not identical"),
                ("per_hop_mb_s.raw_tag_verify", "0.00", "raw_tag_verify is zero"),
                ("chain_mb_s.middleboxes_3_read_only", "0.000", "middleboxes_3_read_only is zero"),
                ("amortized_mb_s.middleboxes_3_resp_64k", "0.000", "resp_64k is zero"),
                ("amortized_mb_s.middleboxes_3_reuse_x1", "1000000.000", "session reuse does not"),
                ("amortized_mb_s.middleboxes_3_resp_4k", "1000000.000", "large responses do not"),
                ("aead_backend", "false", "aead_backend"),
            ],
        );
    }

    #[test]
    fn session_reuse_amortizes_handshakes() {
        // Same exchange budget, same bytes: one handshake for all
        // exchanges must beat one handshake per exchange — the floor
        // is structural, not statistical.
        let slick = ServiceChain::slick_web();
        let per_exchange = run_chain_sized(slick.functions(), 3, 1, 16 * 1024, 7).expect("run");
        let reused = run_chain_sized(slick.functions(), 1, 3, 16 * 1024, 7).expect("run");
        assert!(
            reused.mb_per_s > per_exchange.mb_per_s,
            "reuse {} !> per-exchange {}",
            reused.mb_per_s,
            per_exchange.mb_per_s
        );
    }

    #[test]
    fn read_only_steady_state_round_trips() {
        let mut p = SteadyStateReadOnly::warmed_up();
        p.pump(3);
    }

    #[test]
    fn chain_runs_are_deterministic_and_tap_chain_fast_forwards() {
        let taps = ServiceChain::new(vec![ChainFunction::Tap; 2]);
        let a = run_chain(taps.functions(), 3, 42, true).expect("run");
        let b = run_chain(taps.functions(), 3, 42, true).expect("run");
        assert_eq!(a.digest, b.digest);
    }
}
