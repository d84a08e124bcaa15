//! The `paper` suite (`BENCH_paper.json`): the paper's §4–§5
//! evaluation — Table 1, Table 2, the §5.1 survey, Figures 5–7 and
//! the design ablations — measured into one artifact.
//!
//! [`run`] calls the per-experiment modules ([`crate::table1`],
//! [`crate::table2`], [`crate::sites`], [`crate::fig5`],
//! [`crate::fig6`], [`crate::fig7`]); [`check`] states the
//! paper's shape claims as floors; [`render_into`] writes the
//! artifact's numbers into the marked blocks of `EXPERIMENTS.md`, and
//! a test holds the committed document to the committed artifact.
//!
//! The counting experiments (attacks, vantage networks, survey sites,
//! virtual-time paths) are deterministic and run in full at every
//! budget; `--smoke` only shortens the wall-clock measurements.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::NaiveKeyShare;
use mbtls_core::client::{MbClientConfig, MbClientSession};
use mbtls_core::driver::{Chain, NetChain, Relay};
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_core::server::{MbServerConfig, MbServerSession};
use mbtls_crypto::dh::DhSecret;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::x25519::SecretKey;
use mbtls_netsim::time::Duration;
use mbtls_netsim::{FaultConfig, Network};
use mbtls_sgx::SgxCostModel;
use mbtls_telemetry::json::Value;
use mbtls_tls::config::{PeerProof, Proof};

use crate::chain::{relay_mb_s, KeyShape};
use crate::fig5::{self, Config};
use crate::table1::{full_matrix, Protocol};
use crate::Bound::{Flag, Key, Num, Text};
use crate::Rel::{Equal, Gt, Lt};
use crate::{
    check_floors, counted_handshake, fig6, fig7, row, sites, table2, time_handshakes, AllocCounter,
    Floor,
};

/// The §5.1 survey rows: artifact key, printed label, the paper's count.
const SURVEY: [(&str, &str, u64); 6] = [
    ("survey.https_sites", "HTTPS-capable sites", 385),
    ("survey.successes", "successful fetches", 308),
    ("survey.bad_certs", "invalid/expired certificates", 19),
    ("survey.no_suite", "no AES-256-GCM support", 40),
    ("survey.redirects", "redirect-handling failures", 13),
    ("survey.unknown", "unknown failures", 5),
];

/// The floor that the survey's `i`th count is the paper's.
const fn survey_row(i: usize) -> Floor {
    row(SURVEY[i].0, Equal, Num(SURVEY[i].2 as f64), "the paper's §5.1 count")
}

/// Rows of `figure5.rows` (the bar order of [`Config::all`]) that the
/// floors compare.
const MBTLS_NO_MBOX: usize = 1;
const SPLIT_TLS: usize = 2;
const MBTLS_CLIENT_MBOX: usize = 3;
const MBTLS_SERVER_MBOXES: [usize; 3] = [4, 5, 6];

/// One-way latency of every link in the subchannel ablation.
const SUBCHANNEL_LINK_MS: u64 = 20;

/// The configs of one client → middlebox → server session; no
/// middlebox config puts a [`NaiveKeyShare`] relay in the middle.
type AuthConfigs = (MbClientConfig, Option<MiddleboxConfig>, MbServerConfig);

/// An authorization mode: its row name and its parties' configs.
type AuthMode = (&'static str, fn(&Testbed) -> AuthConfigs);

/// The rows of `ablations.authorization.modes`: how the client admits
/// the one middlebox. SGX-attested (the paper's P3B), by a delegated
/// credential (mdTLS's alternative), by its certificate alone, or not
/// at all (the naive strawman hands it the session key).
const AUTH_MODES: [AuthMode; 4] = [
    ("sgx_attested", |tb| {
        (tb.client_config(), Some(tb.middlebox_config(&tb.mbox_code)), tb.server_config())
    }),
    ("delegated", |tb| {
        let mbox = Some(tb.middlebox_config_delegated());
        (tb.client_config_delegated(), mbox, tb.server_config_delegated())
    }),
    ("unattested", |tb| {
        let (mut client, mut mbox) = (tb.client_config(), tb.middlebox_config(&tb.mbox_code));
        client.middlebox_proof = PeerProof::Certificate;
        mbox.proof = Proof::None;
        (client, Some(mbox), tb.server_config())
    }),
    ("key_shared", |tb| (tb.client_config(), None, tb.server_config())),
];

/// Rows of [`AUTH_MODES`] that `check` and the tests compare.
const SGX_ATTESTED: usize = 0;
const DELEGATED: usize = 1;

/// The authorization ablation's testbed seed, and the seed of the
/// sessions whose bytes it counts.
const AUTH_SEED: u64 = 0xA07_2026;
const COUNTED_SEED: u64 = AUTH_SEED ^ 0x5EED;

/// Measure everything that goes into `BENCH_paper.json`.
pub fn run(smoke: bool, _alloc_count: AllocCounter) -> Value {
    Value::object([
        ("smoke", smoke.into()),
        ("aead_backend", mbtls_crypto::gcm::backend_name().into()),
        ("table1", table1()),
        ("table2", table2()),
        ("survey", survey()),
        ("figure5", figure5(if smoke { 3 } else { 25 })),
        ("figure6", figure6()),
        ("figure7", figure7(if smoke { 1 << 20 } else { 16 << 20 })),
        (
            "ablations",
            Value::object([
                ("subchannel", subchannel()),
                ("data_plane_keys_mb_s", data_plane_keys(if smoke { 1 << 18 } else { 16 << 20 })),
                ("authorization", authorization(if smoke { 2 } else { 48 })),
                ("key_exchange_us", key_exchange(if smoke { 2 } else { 24 })),
            ]),
        ),
    ])
}

fn rows<T>(items: &[T], row: impl Fn(&T) -> Value) -> Value {
    Value::Array(items.iter().map(row).collect())
}

fn table1() -> Value {
    let matrix = full_matrix().expect("attack harness runs");
    rows(&matrix, |attack| {
        Value::object([
            ("property", attack.property.into()),
            ("threat", attack.threat.into()),
            ("protocol", attack.protocol.label().into()),
            ("blocked", attack.blocked.into()),
            ("defense", attack.defense.into()),
            ("evidence", attack.detail.as_str().into()),
        ])
    })
}

fn table2() -> Value {
    let table = table2::run(0x7AB1E2, None);
    Value::object([
        (
            "rows",
            rows(&table.rows, |(network, sites, succeeded)| {
                Value::object([
                    ("network_type", network.label().into()),
                    ("sites", (*sites).into()),
                    ("succeeded", (*succeeded).into()),
                ])
            }),
        ),
        ("total", table.total.into()),
        ("succeeded", table.successes.into()),
        ("strict_normalizer_blocks", table2::strict_filter_blocks(0x57121C7).into()),
    ])
}

fn survey() -> Value {
    let s = sites::run(0xA1E7A);
    let counts = [s.https_sites, s.successes, s.bad_certs, s.no_suite, s.redirects, s.unknown];
    let key = |path: &'static str| path.trim_start_matches("survey.");
    Value::object(SURVEY.iter().zip(counts).map(|((path, _, _), count)| (key(path), count.into())))
}

fn figure5(trials: u64) -> Value {
    let bars: Vec<_> =
        Config::all().into_iter().map(|config| (config, fig5::run_mean(config, trials))).collect();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    // The increments come from the bars above, not from a second
    // measurement, so the table and the increments cannot disagree.
    let server_added: Vec<f64> = MBTLS_SERVER_MBOXES
        .iter()
        .map(|&row| ms(bars[row].1.server) - ms(bars[MBTLS_NO_MBOX].1.server))
        .collect();
    Value::object([
        ("trials", trials.into()),
        (
            "rows",
            rows(&bars, |(config, times)| {
                Value::object([
                    ("configuration", config.label().as_str().into()),
                    ("client_ms", Value::Float(ms(times.client), 3)),
                    ("mbox_ms", Value::Float(ms(times.middlebox), 3)),
                    ("server_ms", Value::Float(ms(times.server), 3)),
                ])
            }),
        ),
        ("server_added_ms", Value::floats(&server_added, 3)),
    ])
}

fn figure6() -> Value {
    let paths = fig6::run();
    Value::object([
        ("response_bytes", fig6::RESPONSE_LEN.into()),
        (
            "paths",
            rows(&paths, |p| {
                let added = p.mbtls.handshake.0 as f64 - p.tls.handshake.0 as f64;
                Value::object([
                    ("path", p.path.as_str().into()),
                    ("rtt_ms", Value::Float(p.rtt.as_millis_f64(), 1)),
                    ("tls_handshake_ms", Value::Float(p.tls.handshake.as_millis_f64(), 1)),
                    ("mbtls_handshake_ms", Value::Float(p.mbtls.handshake.as_millis_f64(), 1)),
                    ("tls_transfer_ms", Value::Float(p.tls.transfer.as_millis_f64(), 1)),
                    ("mbtls_transfer_ms", Value::Float(p.mbtls.transfer.as_millis_f64(), 1)),
                    ("handshake_inflation_pct", Value::Float(p.handshake_inflation() * 100.0, 2)),
                    ("added_round_trips", ((added / p.rtt.0 as f64).round() as u64).into()),
                ])
            }),
        ),
        (
            "mean_handshake_inflation_pct",
            Value::Float(fig6::mean_handshake_inflation(&paths) * 100.0, 2),
        ),
    ])
}

fn figure7(measured_bytes: usize) -> Value {
    let (native, sync, asynch) = fig7::syscall_comparison(32);
    Value::object([
        // Modeled: the calibrated SGX cost model, not this machine.
        (
            "model_gbps",
            rows(&fig7::model_sweep(), |row| {
                Value::object([
                    ("buffer", row.buffer.into()),
                    ("fwd_native", Value::Float(row.fwd_native, 3)),
                    ("fwd_enclave", Value::Float(row.fwd_enclave, 3)),
                    ("enc_native", Value::Float(row.enc_native, 3)),
                    ("enc_enclave", Value::Float(row.enc_enclave, 3)),
                ])
            }),
        ),
        // Measured: this machine's AES-GCM record path.
        (
            "measured_gbps",
            rows(&fig7::measured_sweep(measured_bytes), |row| {
                Value::object([
                    ("buffer", row.buffer.into()),
                    ("open_reseal", Value::Float(row.open_reseal, 3)),
                    ("seal", Value::Float(row.seal, 3)),
                ])
            }),
        ),
        (
            "syscall_ns",
            Value::object([
                ("payload_bytes", 32usize.into()),
                ("native", Value::Float(native, 1)),
                ("sync_enclave", Value::Float(sync, 1)),
                ("async_enclave", Value::Float(asynch, 1)),
            ]),
        ),
    ])
}

/// Encapsulated-record subchannels vs separate secondary TCP
/// connections (the paper's §3.4 argument for P7). The multiplexed
/// handshake is the real protocol in virtual time; the
/// separate-connection variant is modeled: each client-side middlebox
/// needs its own connection from the client before its secondary
/// handshake can start, one client↔middlebox round trip and one more
/// TCP connection per box.
fn subchannel() -> Value {
    let row = |&n: &usize| {
        let seed = 0xAB1A + n as u64 * 101;
        let tb = Testbed::new(seed);
        let middles = (0..n as u64)
            .map(|i| Box::new(fig5::mbtls_middlebox(&tb, seed + 10 + i)) as Box<dyn Relay>)
            .collect();
        let chain = Chain::new(
            Box::new(fig5::mbtls_client(&tb, seed + 1)),
            middles,
            Box::new(fig5::mbtls_server(&tb, seed + 2)),
        );
        let mut net = Network::new(seed);
        let latencies = vec![Duration::from_millis(SUBCHANNEL_LINK_MS); n + 1];
        let faults = vec![FaultConfig::none(); n + 1];
        let mut nc = NetChain::new(&mut net, chain, &latencies, &faults);
        let timing = nc.run_session(b"x", 16, Duration::from_secs(60)).expect("session completes");
        let multiplexed = timing.handshake.as_millis_f64();
        let extra_rtts_ms = (2 * SUBCHANNEL_LINK_MS * n as u64) as f64;
        Value::object([
            ("middleboxes", n.into()),
            ("multiplexed_ms", Value::Float(multiplexed, 1)),
            ("separate_modeled_ms", Value::Float(multiplexed + extra_rtts_ms, 1)),
            ("added_rtts", n.into()),
            ("tcp_conns_multiplexed", (n + 1).into()),
            ("tcp_conns_separate", (2 * n + 1).into()),
        ])
    };
    rows(&[0, 1, 2, 3], row)
}

/// Mean microseconds of `op` over `iters` calls, after one warm-up
/// call.
fn mean_us(iters: u64, mut op: impl FnMut()) -> f64 {
    op();
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Per-hop keys (mbTLS) vs one key shared by both hops (what the
/// naive strawman's data plane is) on 4 KiB records. On per-hop keys
/// the middlebox opens and re-seals each record; on the shared key it
/// has no write key, so it opens, checks that nothing changed, and
/// forwards the record as it arrived. The per-hop row's extra cost is
/// one seal per hop: the data-time price of path integrity (P4) and
/// change secrecy (P1C).
fn data_plane_keys(budget: usize) -> Value {
    let mb_s = |shape| Value::Float(relay_mb_s(shape, 4096, budget), 1);
    Value::object([("per_hop", mb_s(KeyShape::PerHop)), ("shared", mb_s(KeyShape::Shared))])
}

/// One session of these configs as a chain, not yet started.
fn auth_chain((client, middlebox, server): AuthConfigs, seed: u64) -> Chain {
    let mut rng = CryptoRng::from_seed(seed);
    let client = MbClientSession::new(Arc::new(client), "server.example", rng.fork());
    let middlebox: Box<dyn Relay> = match middlebox {
        Some(config) => Box::new(Middlebox::new(config, rng.fork())),
        None => Box::new(NaiveKeyShare::new()),
    };
    let server = MbServerSession::new(Arc::new(server), rng.fork());
    Chain::new(Box::new(client), vec![middlebox], Box::new(server))
}

/// Encoded size of what a middlebox presents for its authorization:
/// a quote, a delegated credential, or nothing.
fn artifact_bytes(middlebox: Option<&MiddleboxConfig>) -> usize {
    match middlebox.map(|config| &config.proof) {
        Some(Proof::Attestor(attestor)) => attestor.quote([0; 64]).encode().len(),
        Some(Proof::Credential(provider)) => provider.credential([0; 64]).encode().len(),
        _ => 0,
    }
}

/// Session setup through one middlebox by each of [`AUTH_MODES`]:
/// the wire bytes of one handshake over both links, counted twice for
/// the determinism verdict; the size of the middlebox's authorization
/// artifact; and the median of `iters` timed handshakes, the modes
/// taking turns. The attestation-service round an attested deployment
/// also pays is the cost model's number, in its own cell: nothing here
/// measures it, and no measured cell includes it.
fn authorization(iters: usize) -> Value {
    let tb = &Testbed::new(AUTH_SEED);
    let chains = AUTH_MODES.map(|(_, configs)| move |seed| auth_chain(configs(tb), seed));
    let measured = time_handshakes(iters, false, chains);
    let mut identical = true;
    let mut modes = Vec::new();
    for ((mode, configs), cpu_us) in AUTH_MODES.into_iter().zip(measured) {
        let count = || counted_handshake(auth_chain(configs(tb), COUNTED_SEED)).expect("handshake");
        let (bytes, digest) = count();
        identical &= count() == (bytes, digest);
        modes.push(Value::object([
            ("mode", mode.into()),
            ("handshake_bytes", bytes.into()),
            ("artifact_bytes", artifact_bytes(configs(tb).1.as_ref()).into()),
            ("measured_cpu_us", Value::Float(cpu_us, 1)),
        ]));
    }
    let modeled_round_us = SgxCostModel::default().attestation_round_ns() / 1e3;
    Value::object([
        ("handshakes", iters.into()),
        ("modes", Value::Array(modes)),
        ("attestation_round_modeled_us", Value::Float(modeled_round_us, 1)),
        ("determinism", if identical { "identical" } else { "diverged" }.into()),
    ])
}

/// Key generation plus agreement: X25519 vs ffdhe2048, the two key
/// exchanges under the supported suites.
fn key_exchange(iters: u64) -> Value {
    let mut rng = CryptoRng::from_seed(2);
    let peer = SecretKey::generate(&mut rng).public_key();
    let x25519_us = mean_us(iters, || {
        let secret = SecretKey::generate(&mut rng);
        black_box((secret.public_key(), secret.diffie_hellman(&peer).expect("agreement")));
    });
    let peer = DhSecret::generate(&mut rng).public_value();
    let ffdhe2048_us = mean_us(iters, || {
        let secret = DhSecret::generate(&mut rng);
        black_box((secret.public_value(), secret.diffie_hellman(&peer).expect("agreement")));
    });
    Value::object([
        ("x25519", Value::Float(x25519_us, 1)),
        ("ffdhe2048", Value::Float(ffdhe2048_us, 1)),
    ])
}

/// Largest relative shortfall of the enclave behind native over the
/// Figure 7 model rows, forwarding and encrypting alike.
fn worst_enclave_gap(report: &Value) -> Result<f64, String> {
    let mut worst = 0f64;
    for row in report.list("figure7.model_gbps")? {
        for path in ["fwd", "enc"] {
            let native = row.num(&format!("{path}_native"))?;
            worst = worst.max((native - row.num(&format!("{path}_enclave"))?) / native);
        }
    }
    Ok(worst)
}

/// The rows of `BENCH_paper.json`: the paper's shape claims. Counts
/// are exact; every timing floor is a ratio within the run.
pub const FLOORS: &[Floor] = &[
    row("table1.#", Equal, Num(20.0), "Table 1 has 20 attacks"),
    row("table2.rows.#", Equal, Num(9.0), "Table 2 has 9 network types"),
    row("table2.total", Equal, Num(241.0), "Table 2 has 241 networks"),
    row("table2.succeeded", Equal, Num(241.0), "every Table 2 handshake succeeds"),
    row("table2.strict_normalizer_blocks", Equal, Flag(true), "the control blocks mbTLS"),
    survey_row(0), survey_row(1), survey_row(2), survey_row(3), survey_row(4), survey_row(5),
    // Figure 5's bars in `Config::all()` order: 1 mbTLS with no
    // middlebox, 2 Split TLS, 3 mbTLS with a client-side middlebox,
    // 4–6 mbTLS with 1–3 server-side middleboxes.
    row("figure5.rows.#", Equal, Num(7.0), "Figure 5 has 7 configurations"),
    row("figure5.rows.3.mbox_ms", Lt, Key("figure5.rows.2.mbox_ms"), "cheaper than Split TLS"),
    row("figure5.rows.4.server_ms", Gt, Key("figure5.rows.1.server_ms"), "server-side box 1 costs"),
    row("figure5.rows.5.server_ms", Gt, Key("figure5.rows.4.server_ms"), "server-side box 2 costs"),
    row("figure5.rows.6.server_ms", Gt, Key("figure5.rows.5.server_ms"), "server-side box 3 costs"),
    row("figure6.paths.#", Equal, Num(12.0), "Figure 6 has 12 paths"),
    row("figure6.paths.*.added_round_trips", Equal, Num(0.0), "mbTLS adds a round trip"),
    row("figure6.mean_handshake_inflation_pct", Gt, Num(0.0), "inflation in (0, 2) %"),
    row("figure6.mean_handshake_inflation_pct", Lt, Num(2.0), "inflation in (0, 2) %"),
    // Six buffer sizes, so row 5 is the plateau.
    row("figure7.model_gbps.#", Equal, Num(6.0), "Figure 7 has 6 buffer sizes"),
    row("figure7.model_gbps.5.enc_native", Lt, Key("figure7.model_gbps.5.fwd_native"), "encrypt plateaus lower"),
    row("figure7.model_gbps.5.enc_enclave", Lt, Key("figure7.model_gbps.5.fwd_enclave"), "encrypt plateaus lower"),
    row("figure7.measured_gbps.*.open_reseal", Gt, Num(0.0), "no measured throughput"),
    row("figure7.measured_gbps.*.seal", Gt, Num(0.0), "no measured throughput"),
    row("ablations.subchannel.#", Equal, Num(4.0), "0–3 middleboxes"),
    row("ablations.subchannel.*.added_rtts", Equal, Key("ablations.subchannel.*.middleboxes"), "+1 RTT per middlebox"),
    // The four `AUTH_MODES`, by name and in order.
    row("ablations.authorization.modes.#", Equal, Num(4.0), "one row per mode"),
    row("ablations.authorization.modes.0.mode", Equal, Text("sgx_attested"), "AUTH_MODES order"),
    row("ablations.authorization.modes.1.mode", Equal, Text("delegated"), "AUTH_MODES order"),
    row("ablations.authorization.modes.2.mode", Equal, Text("unattested"), "AUTH_MODES order"),
    row("ablations.authorization.modes.3.mode", Equal, Text("key_shared"), "AUTH_MODES order"),
    row("ablations.authorization.modes.*.handshake_bytes", Gt, Num(0.0), "no handshake bytes"),
    row("ablations.authorization.modes.*.measured_cpu_us", Gt, Num(0.0), "no CPU measured"),
    row("ablations.authorization.attestation_round_modeled_us", Gt, Num(0.0), "no modeled round"),
    row("ablations.authorization.modes.1.handshake_bytes", Lt, Key("ablations.authorization.modes.0.handshake_bytes"), "delegation is smaller"),
    row("ablations.authorization.modes.1.artifact_bytes", Gt, Num(0.0), "a credential is encoded"),
    row("ablations.authorization.modes.3.artifact_bytes", Equal, Num(0.0), "key sharing has none"),
    row("ablations.authorization.determinism", Equal, Text("identical"), "double runs diverged"),
    row("ablations.data_plane_keys_mb_s.per_hop", Gt, Num(0.0), "nothing measured"),
    row("ablations.data_plane_keys_mb_s.shared", Gt, Num(0.0), "nothing measured"),
    row("ablations.key_exchange_us.x25519", Gt, Num(0.0), "nothing measured"),
    row("ablations.key_exchange_us.ffdhe2048", Gt, Num(0.0), "nothing measured"),
];

/// Schema and floors of `BENCH_paper.json`: [`FLOORS`], then what no
/// row expresses — each Table 1 verdict is its protocol's, Figure 5's
/// `server_added_ms` are differences of its rows, the enclave is
/// within 5 % of native in every Figure 7 model row, the multiplexed
/// subchannel handshake keeps the TLS shape and separate connections
/// add 2 × link latency per middlebox, and a delegated handshake is
/// cheaper than an SGX-attested one with its modeled round.
pub fn check(report: &Value, _replaced: Option<&Value>) -> Result<String, String> {
    check_floors(report, FLOORS)?;
    report.text("aead_backend")?;

    for (i, attack) in report.list("table1")?.iter().enumerate() {
        let protocol = attack.text("protocol")?;
        let defended = Protocol::from_label(protocol)?.defends();
        floor!(
            attack.flag("blocked")? == defended,
            "table1 row {i} ({} / {protocol}): attack {}",
            attack.text("property")?,
            if defended { "was not blocked" } else { "should succeed against this strawman" }
        );
    }

    let bar = |row: usize, key: &str| report.num(&format!("figure5.rows.{row}.{key}"));
    let no_mbox = bar(MBTLS_NO_MBOX, "server_ms")?;
    for (i, row) in MBTLS_SERVER_MBOXES.into_iter().enumerate() {
        let added = report.num(&format!("figure5.server_added_ms.{i}"))?;
        floor!(
            (added - (bar(row, "server_ms")? - no_mbox)).abs() < 0.002,
            "figure5: server_added_ms.{i} disagrees with the rows it is derived from"
        );
    }

    let gap = worst_enclave_gap(report)?;
    floor!(gap < 0.05, "figure7: enclave falls {:.1} % behind native", gap * 100.0);

    let link_ms = SUBCHANNEL_LINK_MS as f64;
    for row in report.list("ablations.subchannel")? {
        let n = row.num("middleboxes")?;
        let multiplexed = row.num("multiplexed_ms")?;
        // TCP setup on the first link, then TLS 1.2's two round trips
        // end to end: subchannels add none.
        floor!(
            (multiplexed - (2.0 + 4.0 * (n + 1.0)) * link_ms).abs() < 1.0,
            "subchannel: multiplexed handshake with {n} middleboxes left the TLS shape"
        );
        floor!(
            (row.num("separate_modeled_ms")? - multiplexed - 2.0 * link_ms * n).abs() < 0.1,
            "subchannel: separate connections do not cost +1 RTT per middlebox at {n}"
        );
    }
    let auth = |row: usize, key: &str| report.num(&format!("ablations.authorization.modes.{row}.{key}"));
    for row in 0..AUTH_MODES.len() {
        auth(row, "artifact_bytes")?;
    }
    floor!(
        auth(DELEGATED, "measured_cpu_us")?
            < auth(SGX_ATTESTED, "measured_cpu_us")?
                + report.num("ablations.authorization.attestation_round_modeled_us")?,
        "authorization: delegated handshake is not cheaper than SGX-attested with its modeled round"
    );

    let split_over_mbtls = bar(SPLIT_TLS, "mbox_ms")? / bar(MBTLS_CLIENT_MBOX, "mbox_ms")?;
    Ok(format!(
        "paper OK: table1 20/20, table2 241/241, survey 308/385, split/mbTLS middlebox \
         {split_over_mbtls:.1}x, handshake inflation {} %, enclave gap {:.1} %",
        report.num("figure6.mean_handshake_inflation_pct")?,
        gap * 100.0
    ))
}

/// One table cell: strings bare, booleans as yes/no, numbers with the
/// artifact's own digits.
fn cell(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::Bool(v) => if *v { "yes" } else { "no" }.to_string(),
        other => other.to_pretty(),
    }
}

fn table_row(cells: impl IntoIterator<Item = String>) -> String {
    format!("| {} |\n", cells.into_iter().collect::<Vec<_>>().join(" | "))
}

/// The array of objects at `path` as a markdown table: one row per
/// object, one column per key, headed by the key — what the document
/// calls a column is what the artifact calls it.
fn table(report: &Value, path: &str) -> Result<String, String> {
    let mut out = String::new();
    for row in report.list(path)? {
        let Value::Object(pairs) = row else {
            return Err(format!("\"{path}\" holds a row that is not an object"));
        };
        if out.is_empty() {
            out += &table_row(pairs.iter().map(|(key, _)| key.replace('_', " ")));
            out += &format!("|{}\n", "---|".repeat(pairs.len()));
        }
        out += &table_row(pairs.iter().map(|(_, value)| cell(value)));
    }
    Ok(out)
}

/// The generated blocks of `EXPERIMENTS.md`, by marker name.
fn render(report: &Value) -> Result<Vec<(&'static str, String)>, String> {
    let num = |path: &str| report.at(path).map(cell);
    let provenance = format!(
        "Generated from `BENCH_paper.json` ({} run, AEAD backend `{}`).\n",
        if report.flag("smoke")? { "smoke" } else { "full" },
        report.text("aead_backend")?
    );

    let attacks = report.list("table1")?;
    let mut matching = 0;
    for attack in attacks {
        let defended = Protocol::from_label(attack.text("protocol")?)?.defends();
        matching += usize::from(attack.flag("blocked")? == defended);
    }
    let table1 = table(report, "table1")?
        + &format!("\n{matching}/{} verdicts match the paper's claims.\n", attacks.len());

    let mut table2 = table(report, "table2.rows")?;
    table2 +=
        &table_row(["**Total**".to_string(), num("table2.total")?, num("table2.succeeded")?]);
    table2 += &format!(
        "\nControl: a strict content-type normalizer blocks mbTLS: {}.\n",
        num("table2.strict_normalizer_blocks")?
    );

    let mut survey = table_row(["", "paper", "here"].map(str::to_string)) + "|---|---|---|\n";
    for (key, label, paper) in SURVEY {
        let here = num(key)?;
        survey += &table_row([label.to_string(), paper.to_string(), here]);
    }

    let bar = |row: usize, role: &str| report.num(&format!("figure5.rows.{row}.{role}"));
    let figure5 = table(report, "figure5.rows")?
        + &format!(
        "\nMean of {} handshakes per bar. Split TLS middlebox / mbTLS middlebox: {:.1}×. Server \
         with a client-side middlebox: {:.3} ms ({:.3} ms with none). Server cost added by 1, 2 \
         and 3 server-side middleboxes: +{}, +{} and +{} ms.\n",
        num("figure5.trials")?,
        bar(SPLIT_TLS, "mbox_ms")? / bar(MBTLS_CLIENT_MBOX, "mbox_ms")?,
        bar(MBTLS_CLIENT_MBOX, "server_ms")?,
        bar(MBTLS_NO_MBOX, "server_ms")?,
        num("figure5.server_added_ms.0")?,
        num("figure5.server_added_ms.1")?,
        num("figure5.server_added_ms.2")?,
    );

    let paths = report.list("figure6.paths")?;
    let column = |key: &str| paths.iter().map(|p| p.num(key)).collect::<Result<Vec<f64>, _>>();
    let inflations = column("handshake_inflation_pct")?;
    let added: f64 = column("added_round_trips")?.iter().sum();
    let figure6 = table(report, "figure6.paths")?
        + &format!(
        "\nRound trips added by mbTLS over all {} paths: {added}. Mean handshake inflation {} % \
         (per path {:.2}–{:.2} %).\n",
        paths.len(),
        num("figure6.mean_handshake_inflation_pct")?,
        inflations.iter().copied().fold(f64::INFINITY, f64::min),
        inflations.iter().copied().fold(0.0, f64::max),
    );

    let figure7 = format!(
        "Modeled (calibrated SGX cost model), Gbit/s:\n\n{}\nLargest enclave shortfall behind \
         native: {:.1} %.\n\nMeasured on this machine (AES-GCM record path), Gbit/s:\n\n{}\n\
         Modeled {}-byte syscall: native {} ns, synchronous enclave exit {} ns, asynchronous \
         {} ns.\n",
        table(report, "figure7.model_gbps")?,
        worst_enclave_gap(report)? * 100.0,
        table(report, "figure7.measured_gbps")?,
        num("figure7.syscall_ns.payload_bytes")?,
        num("figure7.syscall_ns.native")?,
        num("figure7.syscall_ns.sync_enclave")?,
        num("figure7.syscall_ns.async_enclave")?,
    );

    let ablations = table(report, "ablations.subchannel")?
        + &format!(
        "\n* Middlebox data plane, 4 KiB records: per-hop keys {} MB/s, one shared key {} MB/s.\n\
         * Key generation + agreement: X25519 {} µs, ffdhe2048 {} µs.\n\n\
         Session setup through one middlebox, by how the client authorizes it (measured: median \
         of {} handshakes per mode):\n\n{}\nModeled, and in no measured cell: the \
         attestation-service round an attested deployment adds, {} µs. Two same-seed handshakes \
         per mode: {}.\n",
        num("ablations.data_plane_keys_mb_s.per_hop")?,
        num("ablations.data_plane_keys_mb_s.shared")?,
        num("ablations.key_exchange_us.x25519")?,
        num("ablations.key_exchange_us.ffdhe2048")?,
        num("ablations.authorization.handshakes")?,
        table(report, "ablations.authorization.modes")?,
        num("ablations.authorization.attestation_round_modeled_us")?,
        num("ablations.authorization.determinism")?,
    );

    Ok(vec![
        ("provenance", provenance),
        ("table1", table1),
        ("table2", table2),
        ("survey", survey),
        ("figure5", figure5),
        ("figure6", figure6),
        ("figure7", figure7),
        ("ablations", ablations),
    ])
}

/// `document` with the text between each `<!-- paper:NAME -->` /
/// `<!-- /paper:NAME -->` marker pair replaced by the render of
/// `report`. Every block must have its markers.
pub fn render_into(report: &Value, document: &str) -> Result<String, String> {
    let mut out = document.to_string();
    for (name, body) in render(report)? {
        let open = format!("<!-- paper:{name} -->\n");
        let close = format!("<!-- /paper:{name} -->");
        let start = out.find(&open).ok_or_else(|| format!("no {open:?} marker"))? + open.len();
        let end = start
            + out[start..].find(&close).ok_or_else(|| format!("no {close:?} marker"))?;
        out.replace_range(start..end, &body);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_floors, committed, doctored};

    /// A smoke run with Figure 5's and the authorization ablation's
    /// wall-clock cells pinned, so tier-1 does not depend on the
    /// scheduler; the release-mode `bench` stage checks the measured
    /// ones.
    fn pinned_smoke() -> Value {
        let mut smoke = run(true, || 0);
        for (row, cpu_us) in ["800.0", "790.0", "700.0", "350.0"].iter().enumerate() {
            let key = format!("ablations.authorization.modes.{row}.measured_cpu_us");
            smoke = doctored(&smoke, &key, cpu_us);
        }
        let server = ["0.150", "0.150", "0.150", "0.150", "0.550", "0.950", "1.350"];
        for (row, server_ms) in server.iter().enumerate() {
            smoke = doctored(&smoke, &format!("figure5.rows.{row}.server_ms"), server_ms);
        }
        smoke = doctored(&smoke, "figure5.rows.2.mbox_ms", "0.400");
        smoke = doctored(&smoke, "figure5.rows.3.mbox_ms", "0.200");
        doctored(&smoke, "figure5.server_added_ms", "[0.400, 0.800, 1.200]")
    }

    #[test]
    fn smoke_run_passes_and_doctored_floors_fail() {
        let smoke = pinned_smoke();
        assert_floors(
            check,
            &smoke,
            &[
                ("aead_backend", "true", "\"aead_backend\" is not a string"),
                ("table1.0.blocked", "false", "row 0 (P1A / mbTLS): attack was not blocked"),
                ("table1.16.blocked", "false", "row 16 (P3B / mbTLS delegated): attack was not"),
                ("table1.2.blocked", "true", "row 2 (P1A / mbTLS w/o enclave): attack should"),
                ("table1.5.blocked", "true", "row 5 (P1C / naive key share): attack should"),
                ("table1.3.protocol", "\"TLS\"", "unknown protocol \"TLS\""),
                ("figure5.server_added_ms.1", "0.477", "server_added_ms.1 disagrees"),
                ("figure7.model_gbps.0.fwd_enclave", "1.470", "enclave falls 5.5 % behind"),
                ("figure7.model_gbps.3.enc_enclave", "5.000", "enclave falls 5.5 % behind"),
                ("ablations.subchannel.2.multiplexed_ms", "320.0", "2 middleboxes left the TLS"),
                ("ablations.subchannel.3.separate_modeled_ms", "440.0", "+1 RTT per middlebox at 3"),
                ("ablations.authorization.modes.1.measured_cpu_us", "2550.0", "not cheaper than SGX"),
            ],
        );
    }

    #[test]
    fn all_modes_handshake_and_replay() {
        let tb = Testbed::new(0xA07);
        for (mode, configs) in AUTH_MODES {
            let count = || counted_handshake(auth_chain(configs(&tb), 1)).expect("handshake");
            let (a, b) = (count(), count());
            assert!(a.0 > 0);
            assert_eq!(a, b, "{mode} must replay");
        }
    }

    #[test]
    fn handshake_bytes_match_the_committed_artifact() {
        let artifact = committed("paper");
        let rows = artifact.list("ablations.authorization.modes").unwrap();
        let tb = Testbed::new(AUTH_SEED);
        for ((mode, configs), row) in AUTH_MODES.into_iter().zip(rows) {
            let chain = auth_chain(configs(&tb), COUNTED_SEED);
            let (bytes, _) = counted_handshake(chain).expect("handshake");
            assert_eq!(bytes as f64, row.num("handshake_bytes").unwrap(), "{mode}");
        }
    }

    #[test]
    fn delegated_handshake_is_smaller_than_attested() {
        let tb = Testbed::new(0xA08);
        let bytes = |row: usize| {
            counted_handshake(auth_chain(AUTH_MODES[row].1(&tb), 2)).expect("handshake").0
        };
        let (d, s) = (bytes(DELEGATED), bytes(SGX_ATTESTED));
        assert!(d < s, "delegated {d} !< sgx_attested {s}");
    }

    #[test]
    fn table1_matches_the_committed_artifact() {
        let artifact = committed("paper");
        let committed_rows = artifact.list("table1").unwrap();
        let fresh = table1();
        let Value::Array(fresh_rows) = &fresh else { panic!("table1 is not an array") };
        assert_eq!(fresh_rows.len(), committed_rows.len());
        for (i, (fresh, committed)) in fresh_rows.iter().zip(committed_rows).enumerate() {
            assert_eq!(fresh, committed, "table1 row {i}");
        }
    }

    #[test]
    fn experiments_md_is_the_render_of_the_committed_artifact() {
        let path = format!("{}/../../EXPERIMENTS.md", env!("CARGO_MANIFEST_DIR"));
        let document = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let rendered = render_into(&committed("paper"), &document).expect("every block has markers");
        assert!(
            rendered == document,
            "EXPERIMENTS.md has drifted from BENCH_paper.json; run \
             `report render BENCH_paper.json EXPERIMENTS.md`"
        );
    }

    #[test]
    fn render_fills_every_block_and_needs_every_marker() {
        let report = committed("paper");
        let blocks = render(&report).unwrap();
        let empty: String = blocks
            .iter()
            .map(|(name, _)| format!("<!-- paper:{name} -->\nstale\n<!-- /paper:{name} -->\nprose\n"))
            .collect();
        let filled = render_into(&report, &empty).unwrap();
        assert!(!filled.contains("stale") && filled.matches("prose").count() == blocks.len());
        for (name, body) in &blocks {
            assert!(filled.contains(&format!("<!-- paper:{name} -->\n{body}<!-- /paper:{name} -->")));
        }
        // Rendering what is already rendered changes nothing.
        assert_eq!(render_into(&report, &filled).unwrap(), filled);
        assert!(filled.contains("20/20 verdicts") && filled.contains("(full run, AEAD backend"));

        let unclosed = empty.replace("<!-- /paper:figure6 -->", "");
        assert!(render_into(&report, &unclosed).unwrap_err().contains("/paper:figure6"));
        assert!(render_into(&report, "no markers").unwrap_err().contains("paper:provenance"));
        assert!(render(&doctored(&report, "survey", "{}")).unwrap_err().contains("survey.https_sites"));
    }
}
