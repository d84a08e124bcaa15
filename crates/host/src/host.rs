//! The sharded session host: an opaque facade over per-worker
//! [`Shard`] reactors.
//!
//! [`Host`] is the front door. It owns `config.shards()` reactors,
//! each with a private substrate, session table, timer queue, ready
//! queue, and buffer pool, and routes every operation by the shard
//! index encoded in [`SessionId`]:
//!
//! * **admission** pins each new session to a shard by deterministic
//!   round-robin (or explicit placement via [`Host::open_on`]);
//! * **steering** after admission needs no table at all: the id *is*
//!   the route;
//! * **telemetry** is recorded per shard (each with its own virtual
//!   clock) and merged into one deterministic trace with
//!   [`mbtls_telemetry::merge_shard_traces`] — stable order by
//!   `(ts_ns, shard)`.
//!
//! Because shards share nothing, any schedule that runs each shard's
//! own events in order produces the same per-shard state and trace;
//! [`Host::run`] drives shards to completion sequentially (the
//! single-core stand-in for parallel workers), while [`Reactor::step`]
//! interleaves them in global virtual-time order for lock-step
//! drivers. Both yield identical merged traces.

use mbtls_core::driver::Chain;
use mbtls_core::MbError;
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;
use mbtls_telemetry::{close_outcome, EventKind, Recorder, SharedSink};

use crate::config::HostConfig;
use crate::session::{SessionOutcome, Workload};
use crate::shard::Shard;
use crate::slab::SessionId;
use crate::substrate::Substrate;

/// Everything needed to admit one session.
pub struct SessionSpec {
    /// The party chain (client, middleboxes, server), pre-built.
    pub chain: Chain,
    /// Per-link one-way latency in the substrate.
    pub latency: Duration,
    /// Fault injection for the session's links.
    pub faults: FaultConfig,
    /// Post-handshake workload.
    pub workload: Workload,
}

/// Deterministic host statistics. Two runs with the same seed and
/// churn schedule produce identical values (the determinism test
/// compares these alongside the telemetry trace). Fields are private:
/// read through the accessors, aggregate across shards with
/// [`HostCounters::merge`].
///
/// Every lifecycle tally is a fold of the shard's own `Host*` events
/// ([`HostCounters::observe`]), so replaying a trace from `default()`
/// reproduces it. The two exceptions are the data-path tallies
/// `bytes_moved` and `exchanges_completed`, which the shard bumps
/// directly: an event per pump would put telemetry on the data path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostCounters {
    pub(crate) opened: u64,
    pub(crate) completed: u64,
    pub(crate) timed_out: u64,
    pub(crate) evicted: u64,
    pub(crate) failed: u64,
    pub(crate) retries: u64,
    pub(crate) tickets_expired: u64,
    pub(crate) bytes_moved: u64,
    pub(crate) exchanges_completed: u64,
    pub(crate) handshakes_full: u64,
    pub(crate) handshakes_resumed: u64,
    pub(crate) verify_batches: u64,
    pub(crate) verify_checks: u64,
    pub(crate) handshake_latencies_ns: Vec<u64>,
}

impl HostCounters {
    /// Sessions admitted.
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Sessions that completed their workload.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Sessions failed by handshake timeout.
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Sessions evicted idle.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Sessions failed by a party error.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Handshake retries performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Session tickets dropped at expiry or displaced by the cache
    /// cap.
    pub fn tickets_expired(&self) -> u64 {
        self.tickets_expired
    }

    /// Wire bytes pushed into the substrate, all sessions.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Request/response exchanges completed, all sessions.
    pub fn exchanges_completed(&self) -> u64 {
        self.exchanges_completed
    }

    /// Handshakes that completed the full flight (certificate and
    /// key exchange), including resumption attempts the server
    /// rejected (stale or corrupted tickets degrade here).
    pub fn handshakes_full(&self) -> u64 {
        self.handshakes_full
    }

    /// Handshakes abbreviated by ticket or session-id resumption —
    /// no certificate chain sent, no signature checks owed.
    pub fn handshakes_resumed(&self) -> u64 {
        self.handshakes_resumed
    }

    /// Batched signature-verification flushes performed.
    pub fn verify_batches(&self) -> u64 {
        self.verify_batches
    }

    /// Individual signature checks that went through a batched flush
    /// instead of inline verification.
    pub fn verify_checks(&self) -> u64 {
        self.verify_checks
    }

    /// Per-session open→handshake-done latency, in virtual
    /// nanoseconds, in completion order.
    pub fn handshake_latencies_ns(&self) -> &[u64] {
        &self.handshake_latencies_ns
    }

    /// Fold one event into the tallies it stands for. `HostTimeout`
    /// and `HostEvict` count nothing themselves: the retry or the
    /// close that follows carries the fact.
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::HostSessionOpen { .. } => self.opened += 1,
            EventKind::HostHandshakeDone { elapsed_ns, resumed, .. } => {
                self.handshake_latencies_ns.push(elapsed_ns);
                if resumed != 0 {
                    self.handshakes_resumed += 1;
                } else {
                    self.handshakes_full += 1;
                }
            }
            EventKind::HostSessionClose { outcome, .. } => match outcome {
                close_outcome::COMPLETED => self.completed += 1,
                close_outcome::TIMED_OUT => self.timed_out += 1,
                close_outcome::EVICTED => self.evicted += 1,
                _ => self.failed += 1,
            },
            EventKind::HostRetryBackoff { .. } => self.retries += 1,
            EventKind::HostTicketExpired { dropped, .. } => self.tickets_expired += dropped,
            EventKind::HostVerifyBatch { checks, .. } => {
                self.verify_batches += 1;
                self.verify_checks += checks;
            }
            _ => {}
        }
    }

    /// Aggregate per-shard counters into fleet totals. Scalar
    /// counters sum; handshake latencies concatenate in shard order
    /// (deterministic, since each shard's list is in its own
    /// completion order).
    pub fn merge(shards: &[Self]) -> Self {
        let mut total = HostCounters::default();
        for c in shards {
            total.opened += c.opened;
            total.completed += c.completed;
            total.timed_out += c.timed_out;
            total.evicted += c.evicted;
            total.failed += c.failed;
            total.retries += c.retries;
            total.tickets_expired += c.tickets_expired;
            total.bytes_moved += c.bytes_moved;
            total.exchanges_completed += c.exchanges_completed;
            total.handshakes_full += c.handshakes_full;
            total.handshakes_resumed += c.handshakes_resumed;
            total.verify_batches += c.verify_batches;
            total.verify_checks += c.verify_checks;
            total.handshake_latencies_ns.extend_from_slice(&c.handshake_latencies_ns);
        }
        total
    }
}

/// Anything the load generator can drive: a whole [`Host`] or a
/// single [`Shard`] (the scale bench times shards individually).
pub trait Reactor {
    /// Admit one session.
    fn open(&mut self, spec: SessionSpec) -> Result<SessionId, MbError>;
    /// Live sessions.
    fn live(&self) -> usize;
    /// Current virtual time (the latest shard clock for a host).
    fn now(&self) -> SimTime;
    /// True if sessions are queued for service right now.
    fn has_ready(&self) -> bool;
    /// One event-loop turn; false when nothing is left to do.
    fn step(&mut self) -> Result<bool, MbError>;
    /// The next scheduled instant, ignoring the ready queue.
    fn next_event(&mut self) -> Option<SimTime>;
    /// Advance virtual time, firing whatever comes due on the way.
    fn advance_clock(&mut self, t: SimTime);
}

/// The sharded session host facade.
pub struct Host<S: Substrate> {
    shards: Vec<Shard<S>>,
    /// The shard the next round-robin admission lands on.
    next: u16,
}

impl<S: Substrate> Host<S> {
    /// A host with `config.shards()` reactors; `substrate_for` is
    /// called once per shard to build that worker's private
    /// substrate (give each its own seed for independent fault
    /// randomness).
    pub fn new(config: HostConfig, mut substrate_for: impl FnMut(u16) -> S) -> Self {
        let shards = (0..config.shards())
            .map(|k| Shard::new(k, substrate_for(k), config.clone()))
            .collect();
        Host { shards, next: 0 }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> u16 {
        self.shards.len() as u16
    }

    /// One shard reactor (read access).
    pub fn shard(&self, shard: u16) -> &Shard<S> {
        &self.shards[shard as usize]
    }

    /// One shard reactor (mutable — bench drivers run shards
    /// directly to time them individually).
    pub fn shard_mut(&mut self, shard: u16) -> &mut Shard<S> {
        &mut self.shards[shard as usize]
    }

    /// Admit a session on an explicit shard (load slicing).
    pub fn open_on(&mut self, shard: u16, spec: SessionSpec) -> Result<SessionId, MbError> {
        match self.shards.get_mut(shard as usize) {
            Some(shard) => shard.open(spec),
            None => Err(MbError::unexpected_state("open_on: no such shard")),
        }
    }

    /// Fleet-wide statistics: every shard's counters merged.
    pub fn counters(&self) -> HostCounters {
        let per_shard: Vec<HostCounters> =
            self.shards.iter().map(|s| s.counters().clone()).collect();
        HostCounters::merge(&per_shard)
    }

    /// Finished-session outcomes, shard by shard in shard order
    /// (each shard's slice in its own finish order).
    pub fn take_results(&mut self) -> Vec<(SessionId, SessionOutcome)> {
        let mut all = Vec::new();
        for shard in &mut self.shards {
            all.append(&mut shard.take_results());
        }
        all
    }

    /// Buffer-pool statistics summed over shards: `(acquired, served
    /// without allocating)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.shards.iter().map(Shard::pool_stats).fold((0, 0), |(a, s), (a2, s2)| {
            (a + a2, s + s2)
        })
    }

    /// Session tickets currently cached, all shards.
    pub fn cached_tickets(&self) -> usize {
        self.shards.iter().map(Shard::cached_tickets).sum()
    }

    /// Shard-0 substrate access — the single-shard convenience for
    /// tests installing adversary hooks. Multi-shard hosts address a
    /// specific worker via [`Host::shard_mut`].
    pub fn substrate_mut(&mut self) -> &mut S {
        self.shards[0].substrate_mut()
    }

    /// Attach one telemetry sink to the shard-0 reactor — the
    /// single-shard convenience. A multi-shard host needs one sink
    /// (and one clock) per worker: use [`Host::record_telemetry`] or
    /// attach per shard via [`Host::shard_mut`].
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        self.shards[0].set_telemetry(sink);
    }

    /// Attach a fresh [`Recorder`] (own clock) to every shard and
    /// return them in shard order. Merge the snapshots with
    /// [`mbtls_telemetry::merge_shard_traces`] for the deterministic
    /// fleet trace.
    pub fn record_telemetry(&mut self) -> Vec<Recorder> {
        self.shards
            .iter_mut()
            .map(|shard| {
                let recorder = Recorder::new();
                shard.set_telemetry(recorder.sink());
                recorder
            })
            .collect()
    }

    /// Run every shard's event loop to completion (sequentially —
    /// the single-core stand-in for parallel workers; shards share
    /// nothing, so the merged outcome is schedule-independent).
    /// Errors if any shard exceeds `deadline` in virtual time.
    pub fn run(&mut self, deadline: SimTime) -> Result<(), MbError> {
        for shard in &mut self.shards {
            shard.run(deadline)?;
        }
        Ok(())
    }
}

impl<S: Substrate> Reactor for Host<S> {
    /// Admit a session, pinned to a shard by deterministic
    /// round-robin; the returned [`SessionId`] encodes the choice.
    fn open(&mut self, spec: SessionSpec) -> Result<SessionId, MbError> {
        let shard = self.next;
        self.next = (self.next + 1) % self.shards();
        self.shards[shard as usize].open(spec)
    }

    /// Live sessions across every shard.
    fn live(&self) -> usize {
        self.shards.iter().map(Shard::live).sum()
    }

    /// The latest shard clock: the fleet's virtual-time frontier.
    fn now(&self) -> SimTime {
        self.shards.iter().map(Shard::now).max().unwrap_or(SimTime::ZERO)
    }

    /// True if any shard has sessions queued for service.
    fn has_ready(&self) -> bool {
        self.shards.iter().any(Shard::has_ready)
    }

    /// Service every shard with queued work; if all are quiet,
    /// advance the shard with the earliest pending event (ties break
    /// by shard index). Interleaving in global virtual-time order
    /// keeps lock-step drivers (e.g. the load generator) exact.
    fn step(&mut self) -> Result<bool, MbError> {
        let mut serviced = false;
        for shard in &mut self.shards {
            if shard.has_ready() {
                serviced |= shard.step()?;
            }
        }
        if serviced {
            return Ok(true);
        }
        let target = self
            .shards
            .iter_mut()
            .enumerate()
            .filter_map(|(k, shard)| shard.next_event().map(|t| (t, k)))
            .min();
        match target {
            Some((_, k)) => self.shards[k].step(),
            None => Ok(false),
        }
    }

    /// The earliest pending instant across every shard.
    fn next_event(&mut self) -> Option<SimTime> {
        self.shards.iter_mut().filter_map(Shard::next_event).min()
    }

    /// Advance every shard's virtual time to `t`, firing whatever
    /// comes due on the way.
    fn advance_clock(&mut self, t: SimTime) {
        for shard in &mut self.shards {
            shard.advance_clock(t);
        }
    }
}
