//! The `chain` suite (`BENCH_chain.json`): what the record path costs
//! per hop, and Slick-style service-function-chain throughput end to
//! end.
//!
//! Every per-hop number comes from one of two meters over batches of
//! records: [`seal_mb_s`] (an endpoint sealing) and [`relay_mb_s`] (a
//! middlebox relaying, keyed as one of the three [`KeyShape`]s);
//! `paper`'s Figure 7 and data-plane ablation call the same two. The
//! rows: `endpoint_seal`, `middlebox_open_reseal` (per-hop keys),
//! `middlebox_read_only_forward` (one shared key and a read-only
//! declaration: tag verify only), `raw_tag_verify` (the record-layer
//! primitive the fast path should collapse toward), and bulk AES-GCM
//! on the selected backend and the bitsliced one (`aead_mb_s`). Chain
//! numbers drive real mbTLS sessions — client → [filter → cache →
//! compression] → server — with the seeded HTTP mix from
//! `mbtls_http::workload`, at 1/2/3 middleboxes, plus a 3-tap
//! read-only variant on aliased keys. [`run`] also pumps a
//! [`SteadyState`] pipeline per gated key shape, and whole asymmetric
//! exchanges through a three-middlebox [`Chain`], under the `report`
//! binary's allocation counter; `scripts/check.sh` runs the suite in
//! `--smoke` mode as a regression gate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mbtls_core::attacks::{settle, Testbed};
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::{
    fresh_hop_keys, EndpointDataPlane, FlowDirection, HopKeys, MiddleboxDataPlane,
};
use mbtls_core::driver::{Chain, Relay, TapLinks};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::rng::CryptoRng;
use mbtls_http::message::{RequestParser, ResponseParser};
use mbtls_http::workload::{response_for, RequestMix};
use mbtls_mboxes::{ChainFunction, ServiceChain};
use mbtls_telemetry::json::Value;
use mbtls_tls::record::ContentType;
use mbtls_tls::suites::CipherSuite;

use crate::Bound::{Key, Num, Text};
use crate::Rel::{Equal, Ge, Gt, Lt};
use crate::{allocs_per_op, check_floors, fnv1a, full_row, row, AllocCounter, Floor, FNV1A_BASIS};

/// Record payload of the per-hop rows: just under the TLS fragment
/// ceiling, so one send is one record.
pub const RECORD_LEN: usize = 16 * 1024 - 64;

/// Message size of the bulk AES-GCM rows: the TLS maximum record
/// payload.
pub const AEAD_LEN: usize = 16 * 1024;

/// Bytes per timed batch of the meters: a TCP receive window's worth,
/// which stays in cache.
const BATCH_BYTES: usize = 64 * 1024;

/// A named rate, one JSON key of an `*_mb_s` object.
pub type Rate = (&'static str, f64);

fn rates_object(rows: &[Rate], decimals: usize) -> Value {
    Value::object(rows.iter().map(|&(name, mb_s)| (name, Value::Float(mb_s, decimals))))
}

/// Measure everything that goes into `BENCH_chain.json`.
pub fn run(smoke: bool, alloc_count: AllocCounter) -> Value {
    // Measurement budgets: smoke proves the harness; full runs give
    // stable numbers. Chain runs are bounded by handshake cost, so
    // the exchange count stays modest even in full mode.
    let budget = if smoke { 4 * RECORD_LEN } else { 48 * 1024 * 1024 };
    let exchanges = if smoke { 2 } else { 64 };
    let alloc_records = if smoke { 4 } else { 64 };

    // Each row is timed beside the primitive it is held to (see
    // `rates`): the seal and the relay against seal and open, the
    // forward against the tag check.
    let [seal, open, bitsliced_seal] = aead_meters();
    let [seal, open, endpoint_seal, reseal] = rates(
        budget,
        [seal, open, seal_meter(RECORD_LEN), relay_meter(KeyShape::PerHop, RECORD_LEN)],
    );
    let [read_only, tag_verify] = rates(
        budget,
        [relay_meter(KeyShape::SharedReadOnly, RECORD_LEN), tag_verify_meter(RECORD_LEN)],
    );
    let [bitsliced_seal] = rates(budget, [bitsliced_seal]);
    let aead = [("seal", seal), ("open", open), ("bitsliced_seal", bitsliced_seal)];
    let per_hop = [
        ("endpoint_seal", endpoint_seal),
        ("middlebox_open_reseal", reseal),
        ("middlebox_read_only_forward", read_only),
        ("raw_tag_verify", tag_verify),
    ];
    let over_crypto = [
        ("read_only_over_tag_verify", read_only / tag_verify),
        ("reseal_over_pair_bound", reseal / pair_bound(seal, open)),
        ("seal_over_aead_seal", endpoint_seal / seal),
    ];
    let (chains, chains_identical) = bench_chains(exchanges, 0xC8A1_2026);
    // Handshake-amortization rows: large-response size classes and
    // session-reuse configurations, all on the full 3-middlebox
    // chain, timed *including* handshakes.
    let (amortized, amortized_identical) = bench_amortized(smoke, 0xC8A1_2027);
    // Both relays touch only reused buffers, so these must be 0. A
    // pipeline includes the endpoints' seal and open, so 0 here is
    // 0 for every party on the record path.
    let allocs_per_record = |shape| {
        let mut pipeline = SteadyState::warmed_up(shape);
        Value::Float(allocs_per_op(alloc_count, alloc_records, |n| pipeline.pump(n as usize)), 3)
    };
    let allocs_reseal = allocs_per_record(KeyShape::PerHop);
    let allocs_read_only = allocs_per_record(KeyShape::SharedReadOnly);
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
        // The backend every AES number except `bitsliced_seal` ran on.
        ("aead_backend", mbtls_crypto::gcm::backend_name().into()),
        ("aead_len", AEAD_LEN.into()),
        ("record_len", RECORD_LEN.into()),
        ("aead_mb_s", rates_object(&aead, 2)),
        ("per_hop_mb_s", rates_object(&per_hop, 2)),
        // Each party's record path against the AES-GCM it has to do,
        // from the same run: what framing and buffers cost on top.
        ("per_hop_over_crypto", rates_object(&over_crypto, 3)),
        // The fast-path win: tag verify only, against open + reseal.
        ("read_only_speedup", Value::Float(read_only / reseal, 3)),
        ("chain_mb_s", rates_object(&chains, 3)),
        ("amortized_mb_s", rates_object(&amortized, 3)),
        ("allocs_per_record_reseal", allocs_reseal),
        ("allocs_per_record_read_only", allocs_read_only),
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

/// The seal/open pair bound: MB/s of one seal plus one open of every
/// byte, the AES-GCM a re-sealing middlebox cannot avoid.
fn pair_bound(seal_mb_s: f64, open_mb_s: f64) -> f64 {
    1.0 / (1.0 / seal_mb_s + 1.0 / open_mb_s)
}

/// The rows of `BENCH_chain.json`: every rate positive, the read-only
/// forward ≥1.5× open+reseal (the whole point of the fast path), both
/// relays' steady state allocation-free, and two same-seed chain runs
/// bit-identical.
///
/// Unlike the throughput-ratio floors elsewhere, these hold even at
/// smoke budgets: skipping a body decrypt wins at any record count,
/// and allocs/determinism are exact, not statistical. The exception is
/// `per_hop_over_crypto`'s floors, which a smoke run's few records
/// cannot measure.
pub const FLOORS: &[Floor] = &[
    row("aead_mb_s.seal", Gt, Num(0.0), "AEAD rate is zero"),
    row("aead_mb_s.open", Gt, Num(0.0), "AEAD rate is zero"),
    row("aead_mb_s.bitsliced_seal", Gt, Num(0.0), "AEAD rate is zero"),
    row("per_hop_mb_s.endpoint_seal", Gt, Num(0.0), "per-hop metric is zero"),
    row("per_hop_mb_s.middlebox_open_reseal", Gt, Num(0.0), "per-hop metric is zero"),
    row("per_hop_mb_s.middlebox_read_only_forward", Gt, Num(0.0), "per-hop metric is zero"),
    row("per_hop_mb_s.raw_tag_verify", Gt, Num(0.0), "per-hop metric is zero"),
    // Each party's record path against the primitive it runs, timed
    // side by side. Since records are framed from the caller's bytes
    // and sealed and opened out of place, a hop copies nothing but a
    // read-only forward's one copy of each record to its output. That
    // copy is most of what the forward pays over its tag check: it
    // reads 0.76–0.82 on `vaes-vpclmul` and `vaes512-vpclmul`, lower
    // when the machine runs fast (the hash speeds up and the copy does
    // not), so its floor sits under that and above where a second copy
    // would put it (0.61–0.70). The re-seal and the endpoint seal read
    // 0.95–0.99.
    full_row("per_hop_over_crypto.read_only_over_tag_verify", Ge, Num(0.70), "little over AES-GCM"),
    full_row("per_hop_over_crypto.reseal_over_pair_bound", Ge, Num(0.90), "little over AES-GCM"),
    full_row("per_hop_over_crypto.seal_over_aead_seal", Ge, Num(0.90), "little over AES-GCM"),
    // ≈ 3.3× on the vaes-vpclmul loops, ≈ 2.8–3.0× on the stitched
    // vaes512-vpclmul one, whose re-seal hashes as it encrypts, more on
    // backends whose CTR pass is dearer against GHASH.
    row("read_only_speedup", Ge, Num(1.5), "the read-only fast path regressed"),
    // Every name of `chain_configs()` and `amortization_configs(true)`.
    row("chain_mb_s.middleboxes_1", Gt, Num(0.0), "chain config is zero"),
    row("chain_mb_s.middleboxes_2", Gt, Num(0.0), "chain config is zero"),
    row("chain_mb_s.middleboxes_3", Gt, Num(0.0), "chain config is zero"),
    row("chain_mb_s.middleboxes_3_read_only", Gt, Num(0.0), "chain config is zero"),
    row("amortized_mb_s.middleboxes_3_resp_4k", Gt, Num(0.0), "amortized config is zero"),
    row("amortized_mb_s.middleboxes_3_resp_64k", Gt, Num(0.0), "amortized config is zero"),
    row("amortized_mb_s.middleboxes_3_reuse_x1", Gt, Num(0.0), "amortized config is zero"),
    // Structural (they hold at smoke budgets too): the same exchange
    // budget on one reused session strictly beats one handshake per
    // exchange, and a 256k response strictly beats 4k per byte moved.
    // So `reuse_x16` and `resp_256k` are above zero too.
    row("amortized_mb_s.middleboxes_3_reuse_x16", Gt, Key("amortized_mb_s.middleboxes_3_reuse_x1"), "reuse amortizes the handshake"),
    row("amortized_mb_s.middleboxes_3_resp_256k", Gt, Key("amortized_mb_s.middleboxes_3_resp_4k"), "big responses amortize records"),
    row("allocs_per_record_reseal", Equal, Num(0.0), "steady state allocates"),
    row("allocs_per_record_read_only", Equal, Num(0.0), "steady state allocates"),
    row("allocs_per_exchange_steady", Equal, Num(0.0), "warm chain exchange allocates"),
    row("request_link_capacity_bytes", Lt, Num(RECORD_LEN as f64), "response buffers circulate"),
    row("determinism", Equal, Text("identical"), "double-run chain determinism diverged"),
];

/// Schema and floors of `BENCH_chain.json`: [`FLOORS`], then what no
/// row expresses, that each `per_hop_over_crypto` ratio agrees with
/// the rates it is derived from.
pub fn check(report: &Value, _replaced: Option<&Value>) -> Result<String, String> {
    check_floors(report, FLOORS)?;
    let backend = report.text("aead_backend")?;
    let aead = |key: &str| report.num(&format!("aead_mb_s.{key}"));
    let hop = |key: &str| report.num(&format!("per_hop_mb_s.{key}"));
    let over_crypto = [
        ("read_only_over_tag_verify", hop("middlebox_read_only_forward")? / hop("raw_tag_verify")?),
        ("reseal_over_pair_bound", hop("middlebox_open_reseal")? / pair_bound(aead("seal")?, aead("open")?)),
        ("seal_over_aead_seal", hop("endpoint_seal")? / aead("seal")?),
    ];
    for (key, ratio) in over_crypto {
        let reported = report.num(&format!("per_hop_over_crypto.{key}"))?;
        floor!(
            (reported - ratio).abs() < 0.002,
            "{key} {reported} disagrees with the rates ({ratio:.3})"
        );
    }
    let speedup = report.num("read_only_speedup")?;
    Ok(format!(
        "chain OK: backend {backend}, read-only {speedup}x over reseal, 0 allocs/record on both \
         relays, determinism identical"
    ))
}

fn mb_per_s(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// How a middlebox's two hops are keyed, which picks the data plane's
/// behaviour for every record it relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyShape {
    /// Fresh keys on each hop (mbTLS): open, process, re-seal.
    PerHop,
    /// One key shared by both hops: the lane has no write key, so it
    /// opens, checks the processor changed nothing, and forwards the
    /// record as it arrived.
    Shared,
    /// One shared key and a read-only processor: verify the tag and
    /// forward, no decrypt.
    SharedReadOnly,
}

impl KeyShape {
    /// The client-side hop's keys, a middlebox data plane keyed this
    /// way, and the server-side hop's keys.
    fn path(self) -> (HopKeys, MiddleboxDataPlane, HopKeys) {
        let mut rng = CryptoRng::from_seed(0xC4A1);
        let suite = CipherSuite::EcdheAes256GcmSha384;
        let left = fresh_hop_keys(suite, &mut rng);
        let right = match self {
            KeyShape::PerHop => fresh_hop_keys(suite, &mut rng),
            KeyShape::Shared | KeyShape::SharedReadOnly => left.clone(),
        };
        let mut mbox = MiddleboxDataPlane::new(&left, &right).expect("keys");
        mbox.set_read_only(self == KeyShape::SharedReadOnly);
        (left, mbox, right)
    }

    /// How many of `records` relayed records take the tag-verify fast
    /// path on this shape.
    fn fast_forwarded(self, records: u64) -> u64 {
        if self == KeyShape::SharedReadOnly {
            records
        } else {
            0
        }
    }
}

/// One thing [`rates`] times: items of `len` bytes, and `timed(n)`,
/// which handles one batch of `n` items and returns the time to count.
struct Meter {
    len: usize,
    timed: Box<dyn FnMut(usize) -> Duration>,
}

/// MB/s of each meter over a `budget` of its items. A batch is
/// [`BATCH_BYTES`] (or the budget, if smaller); a sixteenth as many
/// untimed batches go first, and at least two, so that both buffers a
/// relay drains by trading have grown and no rate absorbs cold caches,
/// first-touch page faults or frequency ramp-up. The meters' batches
/// then run interleaved, one
/// of each per round, and each rate is that of its median batch: the
/// `per_hop_over_crypto` ratios divide rates of one call, and on a
/// shared machine only rates taken side by side, with preempted
/// batches outvoted, divide to the same ratio from run to run. Keep a
/// call's meters few: their working sets share the caches.
fn rates<const N: usize>(budget: usize, mut meters: [Meter; N]) -> [f64; N] {
    let plan = meters.each_ref().map(|meter| {
        let per_batch = (BATCH_BYTES.min(budget) / meter.len).max(1);
        (per_batch, (budget / (per_batch * meter.len)).max(1))
    });
    for (meter, &(per_batch, batches)) in meters.iter_mut().zip(&plan) {
        for _ in 0..(batches / 16).max(2) {
            (meter.timed)(per_batch);
        }
    }
    let mut elapsed: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::new());
    let rounds = plan.iter().map(|&(_, batches)| batches).max().unwrap_or(0);
    for round in 0..rounds {
        for ((meter, &(per_batch, batches)), times) in meters.iter_mut().zip(&plan).zip(&mut elapsed) {
            if round < batches {
                times.push((meter.timed)(per_batch));
            }
        }
    }
    std::array::from_fn(|i| {
        elapsed[i].sort_unstable();
        mb_per_s(plan[i].0 * meters[i].len, elapsed[i][elapsed[i].len() / 2])
    })
}

/// `client` seals `records` records of `payload` into `batch`, which
/// held the previous batch; reused, neither buffer allocates.
fn seal_batch(client: &mut EndpointDataPlane, payload: &[u8], records: usize, batch: &mut Vec<u8>) {
    for _ in 0..records {
        client.send(payload).expect("seal");
    }
    batch.clear();
    client.drain_outgoing_into(batch);
}

/// An endpoint sealing `len`-byte records: the one seal meter.
fn seal_meter(len: usize) -> Meter {
    let (hop, ..) = KeyShape::PerHop.path();
    let mut client = EndpointDataPlane::for_client(&hop).expect("keys");
    let (payload, mut batch) = (vec![0xA5u8; len], Vec::new());
    let timed = move |records| {
        let t0 = Instant::now();
        seal_batch(&mut client, &payload, records, &mut batch);
        t0.elapsed()
    };
    Meter { len, timed: Box::new(timed) }
}

/// An endpoint's seal MB/s on `len`-byte records.
pub fn seal_mb_s(len: usize, budget: usize) -> f64 {
    let [mb_s] = rates(budget, [seal_meter(len)]);
    mb_s
}

/// A middlebox relaying `len`-byte client → server records keyed as
/// `shape`: the one relay meter. Each batch is sealed outside the
/// clock; only [`MiddleboxDataPlane::feed`] over it is timed, and the
/// relayed records drain into a reused buffer. Panics if a record left
/// `shape`'s path, so a re-seal row cannot time the fast path.
fn relay_meter(shape: KeyShape, len: usize) -> Meter {
    let (hop, mut mbox, _) = shape.path();
    let mut client = EndpointDataPlane::for_client(&hop).expect("keys");
    let (payload, mut batch, mut relayed) = (vec![0xA5u8; len], Vec::new(), Vec::new());
    let timed = move |n| {
        seal_batch(&mut client, &payload, n, &mut batch);
        let fast_before = mbox.records_fast_forwarded;
        let t0 = Instant::now();
        mbox.feed(FlowDirection::ClientToServer, &batch, |_, _| {}).expect("relay");
        let elapsed = t0.elapsed();
        relayed.clear();
        mbox.drain_toward_server_into(&mut relayed);
        let fast = mbox.records_fast_forwarded - fast_before;
        assert_eq!(fast, shape.fast_forwarded(n as u64), "{shape:?}");
        elapsed
    };
    Meter { len, timed: Box::new(timed) }
}

/// A middlebox's relay MB/s on `len`-byte records keyed as `shape`.
pub fn relay_mb_s(shape: KeyShape, len: usize, budget: usize) -> f64 {
    let [mb_s] = rates(budget, [relay_meter(shape, len)]);
    mb_s
}

/// The record layer's tag check alone, no framing or buffers: the
/// ceiling the read-only forward approaches.
fn tag_verify_meter(len: usize) -> Meter {
    let (hop, ..) = KeyShape::SharedReadOnly.path();
    let mut client = EndpointDataPlane::for_client(&hop).expect("keys");
    let mut reader = hop.open_client_to_server().expect("keys");
    let (payload, mut batch) = (vec![0xA5u8; len], Vec::new());
    let timed = move |records| {
        seal_batch(&mut client, &payload, records, &mut batch);
        let t0 = Instant::now();
        // Equal records; each body starts past the 5-byte header.
        for record in batch.chunks(batch.len() / records) {
            reader.verify_record(ContentType::ApplicationData, &record[5..]).expect("verify");
        }
        t0.elapsed()
    };
    Meter { len, timed: Box::new(timed) }
}

/// Bulk AES-GCM on [`AEAD_LEN`]-byte messages through the append
/// forms, into a reused buffer as the record layer does: seal and open
/// on the backend `AesGcm::new` selects here (the report's
/// `aead_backend`), and seal on `AesGcm::portable`, the bitsliced
/// backend a CPU without AES-NI runs, which nothing else times.
fn aead_meters() -> [Meter; 3] {
    let mut rng = CryptoRng::from_seed(0xBE9C);
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    let (nonce, aad) = ([0x24u8; 12], [0u8; 13]);
    let mut plaintext = vec![0u8; AEAD_LEN];
    rng.fill(&mut plaintext);
    let seal = |gcm: AesGcm| {
        let (plaintext, mut buf) = (plaintext.clone(), Vec::with_capacity(AEAD_LEN + 16));
        let timed = move |messages| {
            let t0 = Instant::now();
            for _ in 0..messages {
                buf.clear();
                gcm.seal_into(&nonce, &aad, &plaintext, &mut buf).expect("seal");
            }
            t0.elapsed()
        };
        Meter { len: AEAD_LEN, timed: Box::new(timed) }
    };
    let selected = AesGcm::new(&key).expect("key");
    let mut sealed = plaintext.clone();
    let tag = selected.seal_in_place(&nonce, &aad, &mut sealed).expect("seal");
    let mut buf = Vec::with_capacity(AEAD_LEN);
    let opener = AesGcm::new(&key).expect("key");
    let open = move |messages| {
        let t0 = Instant::now();
        for _ in 0..messages {
            buf.clear();
            opener.open_into(&nonce, &aad, &sealed, &tag, &mut buf).expect("open");
        }
        t0.elapsed()
    };
    [
        seal(selected),
        Meter { len: AEAD_LEN, timed: Box::new(open) },
        seal(AesGcm::portable(&key).expect("key")),
    ]
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
/// chain built by `handshaken_chain`.
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
        let mut chain = sized_session(&testbed, functions, seed, s);
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

/// Session `s` of a [`run_chain_sized`] run on `seed`, not yet started.
fn sized_session(testbed: &Testbed, functions: &[ChainFunction], seed: u64, s: usize) -> Chain {
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
    Chain::new(Box::new(client), middles, Box::new(server))
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
pub fn bench_amortized(smoke: bool, seed: u64) -> (Vec<Rate>, bool) {
    let slick = ServiceChain::slick_web();
    let mut out = Vec::new();
    let mut identical = true;
    for (name, sessions, exchanges, resp) in amortization_configs(smoke) {
        let a = run_chain_sized(slick.functions(), sessions, exchanges, resp, seed)
            .expect("amortized chain run completes");
        let b = run_chain_sized(slick.functions(), sessions, exchanges, resp, seed)
            .expect("amortized chain run completes");
        identical &= a.digest == b.digest;
        out.push((name, a.mb_per_s.max(b.mb_per_s)));
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
pub fn bench_chains(exchanges: usize, seed: u64) -> (Vec<Rate>, bool) {
    let mut out = Vec::new();
    let mut identical = true;
    for (name, chain, read_only) in chain_configs() {
        let a = run_chain(chain.functions(), exchanges, seed, read_only)
            .expect("chain run completes");
        let b = run_chain(chain.functions(), exchanges, seed, read_only)
            .expect("chain run completes");
        identical &= a.digest == b.digest;
        out.push((name, a.mb_per_s.max(b.mb_per_s)));
    }
    (out, identical)
}

/// A warmed-up client → middlebox → server pipeline keyed as a
/// [`KeyShape`], whose buffers have reached their steady-state
/// capacities. [`run`] counts allocations around [`Self::pump`].
pub struct SteadyState {
    shape: KeyShape,
    client: EndpointDataPlane,
    mbox: MiddleboxDataPlane,
    server: EndpointDataPlane,
    payload: Vec<u8>,
    wire: Vec<u8>,
    relayed: Vec<u8>,
    plain: Vec<u8>,
}

impl SteadyState {
    /// Build the pipeline and run enough records through it for every
    /// internal buffer to reach its final capacity.
    pub fn warmed_up(shape: KeyShape) -> Self {
        let (left, mbox, right) = shape.path();
        let mut pipeline = SteadyState {
            shape,
            client: EndpointDataPlane::for_client(&left).expect("keys"),
            mbox,
            server: EndpointDataPlane::for_server(&right).expect("keys"),
            payload: vec![0x5Au8; RECORD_LEN],
            wire: Vec::new(),
            relayed: Vec::new(),
            plain: Vec::new(),
        };
        pipeline.pump(8);
        pipeline
    }

    /// Push `records` full-size records client → middlebox → server
    /// and drain the server's plaintext, all through reused buffers.
    /// Panics if a record does not round-trip or leaves the shape's
    /// path.
    pub fn pump(&mut self, records: usize) {
        let before = self.mbox.records_fast_forwarded;
        for _ in 0..records {
            seal_batch(&mut self.client, &self.payload, 1, &mut self.wire);
            self.mbox
                .feed(FlowDirection::ClientToServer, &self.wire, |_, _| {})
                .expect("relay");
            self.relayed.clear();
            self.mbox.drain_toward_server_into(&mut self.relayed);
            self.server.feed(&self.relayed).expect("deliver");
            self.plain.clear();
            self.server.drain_plaintext_into(&mut self.plain);
            assert!(self.plain == self.payload, "record did not round-trip");
        }
        let fast = self.mbox.records_fast_forwarded - before;
        assert_eq!(fast, self.shape.fast_forwarded(records as u64), "{:?}", self.shape);
    }
}

/// Exchanges [`run`] counts over on each [`SteadyStateRing`].
const RING_EXCHANGES: u64 = 64;

/// A tap that watches nothing.
type Blind = fn(usize, bool, &[u8]);

/// A handshaken client → three taps → server [`Chain`] moving one
/// asymmetric exchange per turn (256 B up, 128 KiB down), either over
/// the chain's own lending links or over [`TapLinks`] that lend
/// nothing. [`run`] counts allocations around [`Self::exchange`] and
/// reads [`Self::request_link_capacity`] afterwards.
pub struct SteadyStateRing {
    chain: Chain,
    /// `None`: [`Chain::pump`] over the chain's own links. `Some`:
    /// links that watch nothing, so only their not lending counts.
    opaque: Option<TapLinks<Blind>>,
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
        let watch_nothing: Blind = |_, _, _| {};
        let mut ring = SteadyStateRing {
            opaque: (!lending).then(|| TapLinks::new(chain.parties() - 1, watch_nothing)),
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
            Some(links) => {
                settle(&mut self.chain, links).expect("pump");
            }
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
    /// links that lend nothing, plus those links' own.
    pub fn request_link_capacity(&self) -> usize {
        self.chain.link_capacity(true) + self.opaque.as_ref().map_or(0, |l| l.capacity(true))
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
                ("aead_backend", "false", "aead_backend"),
                (
                    "per_hop_over_crypto.reseal_over_pair_bound",
                    "99.000",
                    "reseal_over_pair_bound 99 disagrees with the rates",
                ),
            ],
        );
        // The rows name every configuration the suite runs.
        let configs = chain_configs().into_iter().map(|(name, ..)| format!("chain_mb_s.{name}"));
        let amortized = amortization_configs(true).into_iter().map(|(name, ..)| format!("amortized_mb_s.{name}"));
        for key in configs.chain(amortized) {
            assert!(FLOORS.iter().any(|floor| floor.key == key), "no row for {key}");
        }
    }

    #[test]
    fn each_key_shape_takes_its_path() {
        // Exact counts, not the shape's own rule: a re-seal row that
        // slipped onto the fast path would gate the wrong cost.
        let shapes = [(KeyShape::PerHop, 0), (KeyShape::Shared, 0), (KeyShape::SharedReadOnly, 3)];
        for (shape, fast) in shapes {
            let mut pipeline = SteadyState::warmed_up(shape);
            let before = pipeline.mbox.records_fast_forwarded;
            pipeline.pump(3);
            assert_eq!(pipeline.mbox.records_fast_forwarded - before, fast, "{shape:?}");
            assert!(relay_mb_s(shape, 4096, 1 << 16) > 0.0, "{shape:?}");
        }
        assert!(seal_mb_s(4096, 1 << 16) > 0.0);
    }

    #[test]
    fn read_only_steady_state_round_trips() {
        // A lane on one shared key has no write key: every record
        // leaves byte for byte as it arrived, read-only processor or not.
        for shape in [KeyShape::Shared, KeyShape::SharedReadOnly] {
            let mut pipeline = SteadyState::warmed_up(shape);
            pipeline.pump(3);
            assert!(pipeline.relayed == pipeline.wire, "{shape:?} re-sealed a record");
        }
    }

    /// The sessions of a [`run_chain_sized`] run with 16 KiB responses,
    /// driven over [`TapLinks`] instead of timed: the bytes they put on
    /// every link, and the digest of the application bytes delivered.
    fn sized_link_bytes(sessions: usize, exchanges: usize) -> (u64, u64) {
        let (slick, seed) = (ServiceChain::slick_web(), 7);
        let testbed = Testbed::new(seed);
        let req = vec![0x42u8; 256];
        let resp: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
        let (mut link_bytes, mut digest) = (0, FNV1A_BASIS);
        for s in 0..sessions {
            let mut chain = sized_session(&testbed, slick.functions(), seed, s);
            let count = |_, _, data: &[u8]| link_bytes += data.len() as u64;
            let mut links = TapLinks::new(chain.parties() - 1, count);
            settle(&mut chain, &mut links).expect("handshake");
            for _ in 0..exchanges {
                chain.client.send_app(&req).expect("send request");
                settle(&mut chain, &mut links).expect("request");
                fnv1a(&mut digest, &chain.server.recv_app());
                chain.server.send_app(&resp).expect("send response");
                settle(&mut chain, &mut links).expect("response");
                fnv1a(&mut digest, &chain.client.recv_app());
            }
        }
        (link_bytes, digest)
    }

    #[test]
    fn session_reuse_amortizes_handshakes() {
        // Same exchanges, same application bytes: one handshake for
        // all of them puts strictly fewer bytes on the links than one
        // handshake per exchange. Counted, not timed, so the floor is
        // structural, not statistical.
        let (per_exchange, per_exchange_digest) = sized_link_bytes(3, 1);
        let (reused, reused_digest) = sized_link_bytes(1, 3);
        assert_eq!(reused_digest, per_exchange_digest, "the runs delivered different bytes");
        assert!(
            reused < per_exchange,
            "reuse moved {reused} link bytes, one session per exchange {per_exchange}"
        );
    }

    #[test]
    fn chain_runs_are_deterministic_and_tap_chain_fast_forwards() {
        let taps = ServiceChain::new(vec![ChainFunction::Tap; 2]);
        let a = run_chain(taps.functions(), 3, 42, true).expect("run");
        let b = run_chain(taps.functions(), 3, 42, true).expect("run");
        assert_eq!(a.digest, b.digest);
    }
}
