//! Table 2 — handshake viability across client-network types.
//!
//! For each of the 241 simulated vantage sites (matching the paper's
//! per-type counts) we run a full mbTLS handshake from the client,
//! through the site's access-network filters, through an mbTLS
//! middlebox, to a server — and record whether it succeeded. The
//! filters implement deployed-equipment behaviours (L4-only,
//! TLS-header sanity, ClientHello inspection); the paper found zero
//! networks dropping mbTLS, and the deployed-behaviour population
//! reproduces that, while a hypothetical strict normalizer
//! demonstrates what *would* block it.

use std::collections::BTreeMap;

use mbtls_core::attacks::Testbed;
use mbtls_core::driver::{Chain, NetChain, Relay};
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::filter::{FilterAction, FilterPolicy, TlsStreamFilter};
use mbtls_netsim::profiles::{table2_population, ClientNetworkProfile, NetworkType};
use mbtls_netsim::time::Duration;
use mbtls_netsim::Network;

use crate::fig5::{mbtls_client, mbtls_middlebox, mbtls_server};

/// An on-path filter device: inspects both directions with
/// independent TLS stream filters and kills the connection on a Drop
/// verdict.
pub struct FilterRelay {
    c2s: TlsStreamFilter,
    s2c: TlsStreamFilter,
    out_left: Vec<u8>,
    out_right: Vec<u8>,
}

impl FilterRelay {
    /// A filter applying `policy` in both directions.
    pub fn new(policy: FilterPolicy) -> Self {
        FilterRelay {
            c2s: TlsStreamFilter::new(policy),
            s2c: TlsStreamFilter::new(policy),
            out_left: Vec::new(),
            out_right: Vec::new(),
        }
    }
}

impl Relay for FilterRelay {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        match self.c2s.inspect(data) {
            FilterAction::Pass => {
                self.out_right.extend_from_slice(data);
                Ok(())
            }
            FilterAction::Drop => Err(MbError::Network(
                mbtls_netsim::net::NetError::ConnectionReset,
            )),
        }
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        match self.s2c.inspect(data) {
            FilterAction::Pass => {
                self.out_left.extend_from_slice(data);
                Ok(())
            }
            FilterAction::Drop => Err(MbError::Network(
                mbtls_netsim::net::NetError::ConnectionReset,
            )),
        }
    }
    fn take_left(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out_left)
    }
    fn take_right(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out_right)
    }
}

/// Run one site's attempt: did the mbTLS handshake (and a small data
/// exchange) succeed through the site's filters?
pub fn run_site(tb: &Testbed, site: &ClientNetworkProfile, seed: u64) -> bool {
    let (client, server) = (mbtls_client(tb, seed + 1), mbtls_server(tb, seed + 2));
    let mb = mbtls_middlebox(tb, seed + 3);
    let mut middles: Vec<Box<dyn Relay>> = Vec::new();
    for policy in &site.filters {
        middles.push(Box::new(FilterRelay::new(*policy)));
    }
    middles.push(Box::new(mb));

    // Link plan: client → [filters...] → middlebox over the access
    // network (site latency + faults on the first link, fast links
    // between devices), middlebox → server inside the data center.
    let n_links = middles.len() + 1;
    let mut latencies = vec![Duration::from_micros(200); n_links];
    latencies[0] = site.latency;
    let mut faults = vec![mbtls_netsim::FaultConfig::none(); n_links];
    faults[0] = site.faults.clone();

    let chain = Chain::new(Box::new(client), middles, Box::new(server));
    let mut net = Network::new(seed);
    let mut nc = NetChain::new(&mut net, chain, &latencies, &faults);
    nc.run_session(b"GET / HTTP/1.1\r\n\r\n", 2048, Duration::from_secs(120)).is_ok()
}

/// Aggregated Table 2 output.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// (type, attempted, succeeded) per category.
    pub rows: Vec<(NetworkType, usize, usize)>,
    /// Totals.
    pub total: usize,
    /// Total successes.
    pub successes: usize,
}

/// Run the full 241-site sweep (or a subset of `limit` sites for
/// quick runs).
pub fn run(seed: u64, limit: Option<usize>) -> Table2 {
    let tb = Testbed::new(seed);
    let mut rng = CryptoRng::from_seed(seed ^ 0x7AB1E2);
    let mut population = table2_population(&mut rng);
    if let Some(limit) = limit {
        population.truncate(limit);
    }
    let mut per_type: BTreeMap<&'static str, (NetworkType, usize, usize)> = BTreeMap::new();
    let mut successes = 0usize;
    for (i, site) in population.iter().enumerate() {
        let success = run_site(&tb, site, seed + 1000 + i as u64 * 31);
        let entry = per_type
            .entry(site.network_type.label())
            .or_insert((site.network_type, 0, 0));
        entry.1 += 1;
        if success {
            entry.2 += 1;
            successes += 1;
        }
    }
    let rows = NetworkType::ALL
        .iter()
        .filter_map(|t| per_type.get(t.label()).copied())
        .collect();
    Table2 {
        rows,
        total: population.len(),
        successes,
    }
}

/// The control experiment: the same handshake through a hypothetical
/// strict normalizer that drops unknown record content types.
pub fn strict_filter_blocks(seed: u64) -> bool {
    let tb = Testbed::new(seed);
    let site = ClientNetworkProfile {
        network_type: NetworkType::Enterprise,
        latency: Duration::from_millis(10),
        faults: mbtls_netsim::FaultConfig::none(),
        filters: vec![FilterPolicy::StrictContentTypes],
    };
    !run_site(&tb, &site, seed + 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sites_all_succeed() {
        // A quick 12-site subset here; the `paper` suite runs all 241.
        let table = run(0x7AB1E, Some(12));
        assert_eq!(table.total, 12);
        assert_eq!(
            table.successes, table.total,
            "deployed-filter population must not block mbTLS"
        );
    }

    #[test]
    fn strict_normalizer_blocks_mbtls() {
        assert!(strict_filter_blocks(0x57121C7));
    }
}
