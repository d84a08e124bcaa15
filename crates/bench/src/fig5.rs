//! Figure 5 — handshake CPU microbenchmarks.
//!
//! "Each bar shows the time spent executing a single handshake (not
//! including waiting for network I/O)" for the client, middlebox, and
//! server roles across seven configurations. We run the same
//! configurations over in-memory pipes with [`crate::timing`] meters
//! on every party, recovering per-role totals from the telemetry
//! trace's `CpuTime` events.

use std::sync::Arc;
use std::time::Duration;

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::{PureRelay, SplitTlsMiddlebox};
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, Endpoint, LegacyClient, LegacyServer, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_pki::cert::{CertificateAuthority, CertifiedKey};
use mbtls_pki::{KeyUsage, TrustStore};
use mbtls_tls::{ClientConnection, ServerConnection};

use mbtls_telemetry::{Event, EventKind, Party, Recorder};

use crate::timing::{CpuMeter, TimedEndpoint, TimedRelay};

/// The Figure 5 configurations, in the paper's bar order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Plain TLS, middlebox is a dumb relay.
    TlsNoMbox,
    /// mbTLS endpoints, no middlebox.
    MbTlsNoMbox,
    /// Split TLS with one interception middlebox.
    SplitTls1Mbox,
    /// mbTLS with one client-side middlebox.
    MbTls1ClientMbox,
    /// mbTLS with N server-side middleboxes.
    MbTlsServerMboxes(usize),
}

impl Config {
    /// All seven paper configurations.
    pub fn all() -> Vec<Config> {
        vec![
            Config::TlsNoMbox,
            Config::MbTlsNoMbox,
            Config::SplitTls1Mbox,
            Config::MbTls1ClientMbox,
            Config::MbTlsServerMboxes(1),
            Config::MbTlsServerMboxes(2),
            Config::MbTlsServerMboxes(3),
        ]
    }

    /// Label matching the paper's legend.
    pub fn label(self) -> String {
        match self {
            Config::TlsNoMbox => "TLS (no mbox)".into(),
            Config::MbTlsNoMbox => "mbTLS (no mbox)".into(),
            Config::SplitTls1Mbox => "\"Split\" TLS (1 mbox)".into(),
            Config::MbTls1ClientMbox => "mbTLS (1 client mbox)".into(),
            Config::MbTlsServerMboxes(n) => format!("mbTLS ({n} server mbox{})", if n == 1 { "" } else { "es" }),
        }
    }
}

/// Per-role CPU time for one handshake.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleTimes {
    /// Client CPU time.
    pub client: Duration,
    /// Sum over all middleboxes (zero when none).
    pub middlebox: Duration,
    /// Server CPU time.
    pub server: Duration,
}

/// An mbTLS client for `server.example` on the testbed's defaults.
pub(crate) fn mbtls_client(tb: &Testbed, seed: u64) -> MbClientSession {
    let config = Arc::new(tb.client_config());
    MbClientSession::new(config, "server.example", CryptoRng::from_seed(seed))
}

/// An mbTLS server on the testbed's defaults.
pub(crate) fn mbtls_server(tb: &Testbed, seed: u64) -> MbServerSession {
    MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(seed))
}

/// An attesting mbTLS middlebox running the testbed's code identity.
pub(crate) fn mbtls_middlebox(tb: &Testbed, seed: u64) -> Middlebox {
    Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(seed))
}

/// A stock TLS 1.2 client for `server.example` trusting `trust`.
pub(crate) fn legacy_client(trust: Arc<TrustStore>, rng: &mut CryptoRng) -> LegacyClient {
    let config = Arc::new(mbtls_tls::config::ClientConfig::new(trust));
    LegacyClient::new(ClientConnection::new(config, "server.example", rng), rng.fork())
}

/// A stock TLS 1.2 server presenting `key`.
pub(crate) fn legacy_server(
    key: Arc<CertifiedKey>,
    ticket_key: [u8; 32],
    rng: &mut CryptoRng,
) -> LegacyServer {
    let config = Arc::new(mbtls_tls::config::ServerConfig::new(key, ticket_key));
    LegacyServer::new(ServerConnection::new(config), rng.fork())
}

fn timed(endpoint: impl Endpoint + 'static, meter: &CpuMeter) -> Box<dyn Endpoint> {
    Box::new(TimedEndpoint::new(endpoint, meter.clone()))
}

fn timed_relay(relay: impl Relay + 'static, meter: &CpuMeter) -> Box<dyn Relay> {
    Box::new(TimedRelay::new(relay, meter.clone()))
}

/// Run one handshake of the given config, returning per-role times.
pub fn run_one(config: Config, seed: u64) -> RoleTimes {
    let tb = Testbed::new(seed);
    let recorder = Recorder::new();
    let client_meter = CpuMeter::new(recorder.sink(), Party::Client);
    let mbox_meter = CpuMeter::new(recorder.sink(), Party::Middlebox(0));
    let server_meter = CpuMeter::new(recorder.sink(), Party::Server);

    let mut rng = CryptoRng::from_seed(seed + 1);
    let mb_client = || timed(mbtls_client(&tb, seed + 1), &client_meter);
    let mb_server = || timed(mbtls_server(&tb, seed + 2), &server_meter);
    let middlebox = |seed| timed_relay(mbtls_middlebox(&tb, seed), &mbox_meter);
    let (client, middles, server) = match config {
        Config::TlsNoMbox => (
            timed(legacy_client(tb.server_trust.clone(), &mut rng), &client_meter),
            vec![timed_relay(PureRelay::new(), &mbox_meter)],
            timed(legacy_server(tb.server_key.clone(), [1u8; 32], &mut rng), &server_meter),
        ),
        Config::MbTlsNoMbox => (mb_client(), vec![], mb_server()),
        Config::SplitTls1Mbox => {
            // The interception deployment: the client trusts a custom
            // root whose key the middlebox holds; the middlebox forges
            // the server's certificate.
            let mut corp_ca =
                CertificateAuthority::new_root("Corp Interception Root", 0, 10_000_000, &mut rng);
            let forged = Arc::new(CertifiedKey::issue(
                &mut corp_ca,
                "server.example",
                &[],
                0,
                10_000_000,
                KeyUsage::Endpoint,
                &mut rng,
            ));
            let mut client_trust = TrustStore::new();
            client_trust.add_root(corp_ca.certificate().clone());
            let client = legacy_client(Arc::new(client_trust), &mut rng);
            let split = SplitTlsMiddlebox::new(
                Arc::new(mbtls_tls::config::ServerConfig::new(forged, [2u8; 32])),
                Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
                "server.example",
                rng.fork(),
            );
            (
                timed(client, &client_meter),
                vec![timed_relay(split, &mbox_meter)],
                timed(legacy_server(tb.server_key.clone(), [1u8; 32], &mut rng), &server_meter),
            )
        }
        Config::MbTls1ClientMbox => (mb_client(), vec![middlebox(seed + 3)], mb_server()),
        // Server-side middleboxes join via announcement, which
        // requires a legacy (non-mbTLS) ClientHello in this
        // implementation; the client's cost is a plain TLS client
        // handshake either way.
        Config::MbTlsServerMboxes(n) => (
            timed(legacy_client(tb.server_trust.clone(), &mut rng), &client_meter),
            (0..n as u64).map(|i| middlebox(seed + 10 + i)).collect(),
            mb_server(),
        ),
    };
    let mut chain = Chain::new(client, middles, server);

    chain.run_handshake().expect("handshake completes");
    let events = recorder.snapshot();
    let cpu = |party| cpu_time(&events, party);
    RoleTimes {
        client: cpu(Party::Client),
        middlebox: cpu(Party::Middlebox(0)),
        server: cpu(Party::Server),
    }
}

/// The CPU time `party`'s meter reported in `events`: the sum of its
/// `CpuTime` samples.
fn cpu_time(events: &[Event], party: Party) -> Duration {
    let mut ns = 0;
    for event in events.iter().filter(|event| event.party == party) {
        if let EventKind::CpuTime { dur_ns } = event.kind {
            ns += dur_ns;
        }
    }
    Duration::from_nanos(ns)
}

/// Run `trials` handshakes and return the mean per-role times.
pub fn run_mean(config: Config, trials: u64) -> RoleTimes {
    let mut sum = RoleTimes::default();
    for t in 0..trials {
        let one = run_one(config, 0xF16_5000 + t * 7919);
        sum.client += one.client;
        sum.middlebox += one.middlebox;
        sum.server += one.server;
    }
    RoleTimes {
        client: sum.client / trials as u32,
        middlebox: sum.middlebox / trials as u32,
        server: sum.server / trials as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_sums_only_that_partys_samples() {
        let event = |party, kind| Event { ts_ns: 0, shard: 0, party, kind };
        let events = [
            event(Party::Client, EventKind::CpuTime { dur_ns: 2_000 }),
            event(Party::Client, EventKind::BytesOut { bytes: 100 }),
            event(Party::Middlebox(0), EventKind::CpuTime { dur_ns: 500 }),
            event(Party::Client, EventKind::CpuTime { dur_ns: 40 }),
        ];
        assert_eq!(cpu_time(&events, Party::Client), Duration::from_nanos(2_040));
        assert_eq!(cpu_time(&events, Party::Middlebox(0)), Duration::from_nanos(500));
        assert_eq!(cpu_time(&events, Party::Server), Duration::ZERO);
    }

    #[test]
    fn all_configs_complete() {
        for config in Config::all() {
            let times = run_one(config, 1);
            assert!(times.client > Duration::ZERO, "{config:?} client");
            assert!(times.server > Duration::ZERO, "{config:?} server");
        }
    }

    /// The cheapest of 5 seeded handshakes in `role`: interference
    /// only adds time, so the minimum is the cost (a mean of 3 lost to
    /// parallel test threads).
    fn cheapest(config: Config, role: fn(RoleTimes) -> Duration) -> Duration {
        (0..5).map(|t| role(run_one(config, 0xF16_5000 + t * 7919))).min().unwrap_or_default()
    }

    #[test]
    fn server_cost_grows_with_server_side_mboxes() {
        let t1 = cheapest(Config::MbTlsServerMboxes(1), |t| t.server);
        let t3 = cheapest(Config::MbTlsServerMboxes(3), |t| t.server);
        assert!(t3 > t1, "3 mboxes ({t3:?}) should cost the server more than 1 ({t1:?})");
    }

    #[test]
    fn split_tls_middlebox_costs_more_than_mbtls_middlebox() {
        // The paper's key middlebox result: Split TLS does two
        // handshakes, the mbTLS middlebox only one.
        let split = cheapest(Config::SplitTls1Mbox, |t| t.middlebox);
        let mbtls = cheapest(Config::MbTls1ClientMbox, |t| t.middlebox);
        assert!(
            split > mbtls,
            "split ({split:?}) should exceed mbTLS ({mbtls:?})"
        );
    }
}
