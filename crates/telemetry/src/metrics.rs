//! Counters, fixed-bucket histograms, and the per-party / per-hop
//! aggregation sink.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind, Party};
use crate::sink::TelemetrySink;

/// A monotonic counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A histogram with fixed inclusive upper-bound buckets plus an
/// overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    /// An implicit overflow bucket catches values above the last
    /// bound.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            total: 0,
        }
    }

    /// Power-of-four byte-size buckets (16 B … 64 KiB), suited to
    /// record and flight sizes.
    pub fn byte_sizes() -> Self {
        Histogram::new(&[16, 64, 256, 1024, 4096, 16_384, 65_536])
    }

    /// Power-of-ten nanosecond buckets (1 µs … 10 s), suited to
    /// durations.
    pub fn durations_ns() -> Self {
        Histogram::new(&[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
        ])
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// `(inclusive_upper_bound, count)` pairs; the final pair uses
    /// `u64::MAX` as the overflow bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
            .collect()
    }
}

/// Rolled-up statistics for one party.
#[derive(Debug, Clone)]
pub struct PartyStats {
    /// Total events emitted by the party.
    pub events: Counter,
    /// Wire bytes into the party.
    pub bytes_in: Counter,
    /// Wire bytes out of the party.
    pub bytes_out: Counter,
    /// Measured CPU time attributed to the party (bench harness).
    pub cpu_ns: Counter,
    /// Distribution of the party's `CpuTime` samples.
    pub cpu_samples: Histogram,
    /// Delegated credentials this party issued (endpoints only).
    pub credentials_issued: Counter,
    /// Delegated credentials this party verified and accepted.
    pub credentials_verified: Counter,
    /// Delegated credentials this party rejected.
    pub credentials_rejected: Counter,
}

impl Default for PartyStats {
    fn default() -> Self {
        PartyStats {
            events: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            cpu_ns: Counter::new(),
            cpu_samples: Histogram::durations_ns(),
            credentials_issued: Counter::new(),
            credentials_verified: Counter::new(),
            credentials_rejected: Counter::new(),
        }
    }
}

/// Rolled-up statistics for one hop (0 = client-side hop).
#[derive(Debug, Clone)]
pub struct HopStats {
    /// Records encrypted for this hop.
    pub encrypts: Counter,
    /// Records decrypted on this hop.
    pub decrypts: Counter,
    /// Records forwarded unchanged after tag-only verification (the
    /// read-only middlebox fast path).
    pub forwards_read_only: Counter,
    /// Plaintext bytes through this hop (both directions).
    pub bytes: Counter,
    /// Distribution of record plaintext sizes on this hop.
    pub record_sizes: Histogram,
}

impl Default for HopStats {
    fn default() -> Self {
        HopStats {
            encrypts: Counter::new(),
            decrypts: Counter::new(),
            forwards_read_only: Counter::new(),
            bytes: Counter::new(),
            record_sizes: Histogram::byte_sizes(),
        }
    }
}

/// A sink that folds events into per-party and per-hop aggregates —
/// the live-counters view of a trace.
#[derive(Debug, Default)]
pub struct Aggregates {
    per_party: BTreeMap<Party, PartyStats>,
    per_hop: BTreeMap<u64, HopStats>,
}

impl Aggregates {
    /// Empty aggregates.
    pub fn new() -> Self {
        Aggregates::default()
    }

    /// Stats for `party`, if it emitted anything.
    pub fn party(&self, party: Party) -> Option<&PartyStats> {
        self.per_party.get(&party)
    }

    /// Stats for `hop`, if any records crossed it.
    pub fn hop(&self, hop: u64) -> Option<&HopStats> {
        self.per_hop.get(&hop)
    }

    /// All parties seen, in order.
    pub fn parties(&self) -> impl Iterator<Item = (&Party, &PartyStats)> {
        self.per_party.iter()
    }

    /// All hops seen, in order.
    pub fn hops(&self) -> impl Iterator<Item = (&u64, &HopStats)> {
        self.per_hop.iter()
    }
}

impl TelemetrySink for Aggregates {
    fn emit(&mut self, event: &Event) {
        let party = self.per_party.entry(event.party).or_default();
        party.events.inc();
        match event.kind {
            EventKind::BytesIn { bytes } => party.bytes_in.add(bytes),
            EventKind::BytesOut { bytes } => party.bytes_out.add(bytes),
            EventKind::CpuTime { dur_ns } => {
                party.cpu_ns.add(dur_ns);
                party.cpu_samples.observe(dur_ns);
            }
            EventKind::CredentialIssued { .. } => party.credentials_issued.inc(),
            EventKind::CredentialVerified { .. } => party.credentials_verified.inc(),
            EventKind::CredentialRejected { .. } => party.credentials_rejected.inc(),
            EventKind::RecordEncrypt { hop, bytes, .. } => {
                let h = self.per_hop.entry(hop).or_default();
                h.encrypts.inc();
                h.bytes.add(bytes);
                h.record_sizes.observe(bytes);
            }
            EventKind::RecordDecrypt { hop, bytes, .. } => {
                let h = self.per_hop.entry(hop).or_default();
                h.decrypts.inc();
                h.bytes.add(bytes);
                h.record_sizes.observe(bytes);
            }
            EventKind::RecordForwardedReadOnly { hop, bytes, .. } => {
                let h = self.per_hop.entry(hop).or_default();
                h.forwards_read_only.inc();
                h.bytes.add(bytes);
                h.record_sizes.observe(bytes);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(50);
        h.observe(1_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(10, 2), (100, 1), (u64::MAX, 1)]);
        assert!((h.mean() - 266.25).abs() < 1e-9);
    }

    #[test]
    fn aggregates_fold_per_party_and_per_hop() {
        let mut agg = Aggregates::new();
        let mk = |party, kind| Event { ts_ns: 0, shard: 0, party, kind };
        agg.emit(&mk(Party::Client, EventKind::BytesOut { bytes: 100 }));
        agg.emit(&mk(Party::Middlebox(0), EventKind::RecordDecrypt { hop: 0, bytes: 64, seq: 0 }));
        agg.emit(&mk(Party::Middlebox(0), EventKind::RecordEncrypt { hop: 1, bytes: 64, seq: 0 }));
        agg.emit(&mk(Party::Server, EventKind::BytesIn { bytes: 90 }));
        agg.emit(&mk(Party::Client, EventKind::CpuTime { dur_ns: 2_000 }));

        assert_eq!(agg.party(Party::Client).unwrap().bytes_out.get(), 100);
        assert_eq!(agg.party(Party::Client).unwrap().cpu_ns.get(), 2_000);
        assert_eq!(agg.party(Party::Server).unwrap().bytes_in.get(), 90);
        assert_eq!(agg.hop(0).unwrap().decrypts.get(), 1);
        assert_eq!(agg.hop(1).unwrap().encrypts.get(), 1);
        assert_eq!(agg.hop(1).unwrap().bytes.get(), 64);
        assert_eq!(agg.parties().count(), 3);
        assert_eq!(agg.hops().count(), 2);
    }
}
