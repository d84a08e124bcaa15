//! Figure 6 — mbTLS vs TLS session latency across inter-datacenter
//! paths.
//!
//! Twelve client-middlebox-server permutations over four regions; for
//! each path we measure (in deterministic virtual time) the handshake
//! and data-transfer durations for plain TLS through a dumb relay and
//! for mbTLS with the middlebox joining the session.
//!
//! Timings are recovered from the telemetry trace's session-phase
//! events (`SessionStart` / `SessionHandshakeDone` /
//! `SessionTransferDone`), all stamped with virtual time.

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::PureRelay;
use mbtls_core::driver::{Chain, NetChain, SessionTiming};
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::profiles::{figure6_paths, interdc_latency, Region};
use mbtls_netsim::time::Duration;
use mbtls_netsim::{FaultConfig, Network};
use mbtls_telemetry::Recorder;

use crate::fig5::{legacy_client, legacy_server, mbtls_client, mbtls_middlebox, mbtls_server};

/// One measured path.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// "client-mbox-server" label, e.g. `"usw-use-uk"`.
    pub path: String,
    /// End-to-end round-trip time of the path (both links, both ways).
    pub rtt: Duration,
    /// Plain-TLS timing (middlebox relays).
    pub tls: SessionTiming,
    /// mbTLS timing (middlebox joins).
    pub mbtls: SessionTiming,
}

/// The request/response sizes used for the "small object" fetch.
pub const REQUEST: &[u8] = b"GET /object HTTP/1.1\r\nHost: server.example\r\n\r\n";
/// Response size (bytes).
pub const RESPONSE_LEN: usize = 10 * 1024;

fn one_session(
    tb: &Testbed,
    mbtls: bool,
    c: Region,
    m: Region,
    s: Region,
    seed: u64,
) -> SessionTiming {
    let latencies = [interdc_latency(c, m), interdc_latency(m, s)];
    let faults = [FaultConfig::none(), FaultConfig::none()];
    let mut net = Network::new(seed);
    let chain = if mbtls {
        Chain::new(
            Box::new(mbtls_client(tb, seed + 1)),
            vec![Box::new(mbtls_middlebox(tb, seed + 3))],
            Box::new(mbtls_server(tb, seed + 2)),
        )
    } else {
        let mut rng = CryptoRng::from_seed(seed + 1);
        let client = legacy_client(tb.server_trust.clone(), &mut rng);
        let server = legacy_server(tb.server_key.clone(), [6u8; 32], &mut rng);
        Chain::new(Box::new(client), vec![Box::new(PureRelay::new())], Box::new(server))
    };
    let recorder = Recorder::new();
    let mut nc = NetChain::new(&mut net, chain, &latencies, &faults);
    nc.set_telemetry(recorder.sink());
    // Charge the middlebox its handshake computation per flush: the
    // mbTLS middlebox performs a real TLS-server handshake (~0.7 ms
    // in Figure 5); the dumb relay does approximately nothing. This
    // is the source of the paper's +0.7% handshake inflation.
    nc.set_compute_delay(1, if mbtls {
        Duration::from_micros(700)
    } else {
        Duration::from_micros(5)
    });
    nc.run_session(REQUEST, RESPONSE_LEN, Duration::from_secs(120))
        .expect("session completes");
    // The returned timing is also derivable from the trace; use the
    // trace so the figure consumes telemetry end to end.
    SessionTiming::from_trace(&recorder.snapshot()).expect("trace carries session phases")
}

/// Run the full Figure 6 sweep. Virtual time is deterministic, so a
/// single trial per path reproduces the paper's means exactly; the
/// paper's error bars come from real-network noise our simulator does
/// not model.
pub fn run() -> Vec<PathResult> {
    let tb = Testbed::new(0xF16);
    figure6_paths()
        .into_iter()
        .enumerate()
        .map(|(i, (path, c, m, s))| PathResult {
            rtt: Duration(2 * (interdc_latency(c, m).0 + interdc_latency(m, s).0)),
            tls: one_session(&tb, false, c, m, s, 0x600 + i as u64 * 17),
            mbtls: one_session(&tb, true, c, m, s, 0x900 + i as u64 * 17),
            path,
        })
        .collect()
}

impl PathResult {
    /// Relative handshake inflation of mbTLS over TLS on this path.
    pub fn handshake_inflation(&self) -> f64 {
        let tls = self.tls.handshake.0 as f64;
        (self.mbtls.handshake.0 as f64 - tls) / tls
    }
}

/// Mean relative handshake inflation of mbTLS over TLS across paths.
pub fn mean_handshake_inflation(results: &[PathResult]) -> f64 {
    results.iter().map(PathResult::handshake_inflation).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_path_works_both_protocols() {
        let tb = Testbed::new(1);
        let tls = one_session(&tb, false, Region::UsWest, Region::UsEast, Region::Uk, 10);
        let mbtls = one_session(&tb, true, Region::UsWest, Region::UsEast, Region::Uk, 20);
        // usw→use (35ms) + use→uk (40ms) = 75ms one-way. Per-hop TCP
        // setup is optimistic/concurrent (the mbTLS middlebox splits
        // the connection as the SYN passes), so the handshake costs
        // the first link's TCP round trip (2×35ms) plus the TLS 1.2
        // two round trips end-to-end (4×75ms) = 370ms.
        let expect_ms = 370.0;
        assert!((tls.handshake.as_millis_f64() - expect_ms).abs() < 30.0, "{tls:?}");
        // mbTLS within ~2% of TLS (the paper: +0.7% average), and
        // strictly above zero now that middlebox computation is
        // charged in virtual time.
        let inflation =
            (mbtls.handshake.0 as f64 - tls.handshake.0 as f64) / tls.handshake.0 as f64;
        assert!(inflation > 0.0 && inflation < 0.02, "inflation {inflation}");
        // Transfers complete.
        assert!(tls.transfer > Duration::ZERO);
        assert!(mbtls.transfer > Duration::ZERO);
    }
}
