//! Byte-moving substrates the host multiplexes sessions over.
//!
//! A [`Substrate`] owns the transport under every hosted session and
//! the virtual clock. Two implementations:
//!
//! * [`NetSubstrate`] — one shared deterministic network simulator;
//!   each session gets its own nodes and per-link connections, so
//!   latency, bandwidth, and fault injection apply per session while
//!   one event heap schedules the whole fleet.
//! * [`PipeSubstrate`] — zero-latency in-memory buffers per session;
//!   no transport events, so sessions progress as fast as the host
//!   pumps them. This is the allocation-measurement and CPU-bound
//!   throughput configuration.
//!
//! Both meter bytes moved per session, which the host aggregates
//! into its scale-report statistics.

use mbtls_core::driver::{Chain, NetLinks, PipeLinks};
use mbtls_core::MbError;
use mbtls_netsim::net::{ConnId, Network, NodeId};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;
use mbtls_telemetry::SharedSink;

/// What one bounded pump of a session observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpOutcome {
    /// Any bytes moved between the chain and the substrate.
    pub moved: bool,
    /// The pass budget ran out while bytes were still moving — the
    /// session must be rescheduled rather than pumped to fixpoint
    /// (per-session backpressure).
    pub saturated: bool,
    /// Wire bytes the session pushed into the substrate.
    pub bytes: u64,
}

/// The transport under a session host.
pub trait Substrate {
    /// Provision transport for session `token` with `links` links.
    fn open(
        &mut self,
        token: usize,
        links: usize,
        latency: Duration,
        faults: &FaultConfig,
    ) -> Result<(), MbError>;

    /// Tear down session `token`'s transport.
    fn close(&mut self, token: usize);

    /// Move bytes between `chain` and session `token`'s links, at
    /// most `max_passes` full chain passes (the backpressure cap).
    fn pump(
        &mut self,
        token: usize,
        chain: &mut Chain,
        max_passes: usize,
    ) -> Result<PumpOutcome, MbError>;

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Advance virtual time (never backwards).
    fn advance_to(&mut self, t: SimTime);

    /// Earliest future transport event, if any.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Token of a session with transport bytes deliverable now, if
    /// any. May repeat tokens; the host dedups via its ready queue.
    fn pop_due(&mut self) -> Option<usize>;

    /// Attach a telemetry sink (clock is kept in lock-step).
    fn set_telemetry(&mut self, sink: SharedSink);
}

/// Per-session simulator state.
struct SessionNet {
    nodes: Vec<NodeId>,
    conns: Vec<ConnId>,
}

/// Substrate over the deterministic network simulator.
pub struct NetSubstrate {
    net: Network,
    sessions: Vec<Option<SessionNet>>,
    /// Connection index → owning session token.
    conn_owner: Vec<Option<usize>>,
}

impl NetSubstrate {
    /// Wrap a simulator seeded for fault randomness.
    pub fn new(seed: u64) -> Self {
        NetSubstrate { net: Network::new(seed), sessions: Vec::new(), conn_owner: Vec::new() }
    }

    /// The simulator and session `token`'s connections (client side
    /// first), for adversary hooks such as [`Network::tamper_next`].
    pub fn adversary(&mut self, token: usize) -> Option<(&mut Network, &[ConnId])> {
        let sess = self.sessions.get(token)?.as_ref()?;
        Some((&mut self.net, &sess.conns))
    }
}

impl Substrate for NetSubstrate {
    fn open(
        &mut self,
        token: usize,
        links: usize,
        latency: Duration,
        faults: &FaultConfig,
    ) -> Result<(), MbError> {
        if self.sessions.len() <= token {
            self.sessions.resize_with(token + 1, || None);
        }
        let mut nodes = Vec::with_capacity(links + 1);
        for i in 0..=links {
            nodes.push(self.net.add_node(&format!("s{token}p{i}")));
        }
        let mut conns = Vec::with_capacity(links);
        for i in 0..links {
            let conn = self.net.connect_with(nodes[i], nodes[i + 1], latency, None, faults.clone());
            if self.conn_owner.len() <= conn.0 {
                self.conn_owner.resize(conn.0 + 1, None);
            }
            self.conn_owner[conn.0] = Some(token);
            conns.push(conn);
        }
        self.sessions[token] = Some(SessionNet { nodes, conns });
        Ok(())
    }

    fn close(&mut self, token: usize) {
        if let Some(Some(sess)) = self.sessions.get_mut(token).map(Option::take) {
            // Release (not just reset) so the simulator recycles the
            // slots: at a million-session churn the arenas stay sized
            // to the concurrent population, not the all-time total.
            for conn in sess.conns {
                self.net.release_conn(conn);
                self.conn_owner[conn.0] = None;
            }
            for node in sess.nodes {
                self.net.release_node(node);
            }
        }
    }

    fn pump(
        &mut self,
        token: usize,
        chain: &mut Chain,
        max_passes: usize,
    ) -> Result<PumpOutcome, MbError> {
        let sess = self
            .sessions
            .get(token)
            .and_then(Option::as_ref)
            .ok_or_else(|| MbError::unexpected_state("pump on closed substrate session"))?;
        let mut outcome = PumpOutcome::default();
        // Hosted sessions charge no compute delay.
        let mut links = NetLinks {
            net: &mut self.net,
            nodes: &sess.nodes,
            conns: &sess.conns,
            compute_delays: &[],
            bytes: 0,
        };
        for pass in 0..max_passes {
            if !chain.pump_with(&mut links)? {
                break;
            }
            outcome.moved = true;
            outcome.saturated = pass + 1 == max_passes;
        }
        outcome.bytes = links.bytes;
        Ok(outcome)
    }

    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        self.net.advance_to(t);
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.net.next_event_time()
    }

    fn pop_due(&mut self) -> Option<usize> {
        while let Some(conn) = self.net.pop_due() {
            if let Some(&Some(token)) = self.conn_owner.get(conn.0) {
                return Some(token);
            }
            // Orphaned conn (session already closed): `Network::pop_due`
            // has consumed the entry, so just keep looking.
        }
        None
    }

    fn set_telemetry(&mut self, sink: SharedSink) {
        self.net.set_telemetry(sink);
    }
}

/// Substrate over zero-latency in-memory pipes, one [`PipeLinks`]
/// per session. Virtual time only moves when the host advances it
/// (timers still work); bytes arrive the instant they are sent.
#[derive(Default)]
pub struct PipeSubstrate {
    sessions: Vec<Option<PipeLinks>>,
    now: SimTime,
    telemetry: Option<SharedSink>,
}

impl PipeSubstrate {
    /// An empty pipe substrate at time zero.
    pub fn new() -> Self {
        PipeSubstrate::default()
    }
}

impl Substrate for PipeSubstrate {
    fn open(
        &mut self,
        token: usize,
        links: usize,
        _latency: Duration,
        _faults: &FaultConfig,
    ) -> Result<(), MbError> {
        if self.sessions.len() <= token {
            self.sessions.resize_with(token + 1, || None);
        }
        self.sessions[token] = Some(PipeLinks::new(links));
        Ok(())
    }

    fn close(&mut self, token: usize) {
        if let Some(slot) = self.sessions.get_mut(token) {
            *slot = None;
        }
    }

    fn pump(
        &mut self,
        token: usize,
        chain: &mut Chain,
        max_passes: usize,
    ) -> Result<PumpOutcome, MbError> {
        let links = self
            .sessions
            .get_mut(token)
            .and_then(Option::as_mut)
            .ok_or_else(|| MbError::unexpected_state("pump on closed substrate session"))?;
        let mut outcome = PumpOutcome::default();
        for pass in 0..max_passes {
            // The links lend their buffers, so the chain's parties
            // write into them directly and no send call passes by to
            // be metered. A pass delivers everything the links held
            // before it collects, so what they hold afterwards is
            // what this pass pushed.
            if !chain.pump_with(links)? {
                return Ok(outcome);
            }
            outcome.bytes += links.buffered() as u64;
            outcome.moved = true;
            outcome.saturated = pass + 1 == max_passes;
        }
        Ok(outcome)
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
        if let Some(sink) = &self.telemetry {
            sink.clock().set_ns(self.now.0);
        }
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        None
    }

    fn pop_due(&mut self) -> Option<usize> {
        None
    }

    fn set_telemetry(&mut self, sink: SharedSink) {
        sink.clock().set_ns(self.now.0);
        self.telemetry = Some(sink);
    }
}
