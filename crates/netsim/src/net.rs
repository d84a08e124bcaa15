//! Nodes, links, and reliable stream connections.
//!
//! The simulator owns all connection state in arenas; experiment code
//! holds plain `Copy` handles ([`NodeId`], [`ConnId`]) and moves bytes
//! with [`Network::send`] / [`Network::recv`]. Virtual time advances
//! explicitly via [`Network::advance_to`] or by asking for the next
//! interesting instant with [`Network::next_event_time`], so driver
//! loops are simple deterministic fixpoints.
//!
//! Adversary capabilities from the paper's threat model (§3.1) are
//! first-class: any connection can be tapped (observe every chunk),
//! injected into, tampered with, or cut — the Table 1 attacks are
//! built from these hooks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mbtls_crypto::rng::CryptoRng;
use mbtls_telemetry::{EventKind, Party, SharedSink};

use crate::fault::{FaultConfig, FaultInjector};
use crate::time::{Duration, SimTime};

/// Handle to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Handle to a bidirectional stream connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub usize);

/// Which direction of a connection, from the perspective of the node
/// that initiated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Initiator → acceptor.
    AtoB,
    /// Acceptor → initiator.
    BtoA,
}

/// One in-flight chunk of stream data.
#[derive(Debug, Clone)]
struct Chunk {
    deliver_at: SimTime,
    data: Vec<u8>,
}

/// One-shot in-flight mutation registered by the adversary API.
type TamperFn = Box<dyn FnOnce(&mut Vec<u8>) + Send>;

/// What happened to a chunk inside [`Pipe::write`] — reported so the
/// network can emit telemetry (the pipe itself has no [`ConnId`]).
#[derive(Debug, Clone, Copy, Default)]
struct WriteReport {
    /// The fault model charged retransmission delay (a drop).
    fault_delayed: bool,
    /// A registered tamper hook mutated the chunk.
    tampered: bool,
    /// The chunk fell into a blackhole window: silently discarded,
    /// no retransmission, no reset.
    blackholed: bool,
    /// When the queued chunk will become deliverable (absent if the
    /// write queued nothing — empty data or blackholed).
    deliver_at: Option<SimTime>,
}

/// One direction of a connection: a latency/bandwidth pipe with
/// in-order delivery, fault-induced delays, and adversary hooks.
struct Pipe {
    latency: Duration,
    /// Bytes per virtual second; `None` = unlimited.
    bandwidth_bps: Option<u64>,
    /// Earliest time the next chunk may be scheduled to finish
    /// serializing (models link occupancy).
    next_free: SimTime,
    in_flight: VecDeque<Chunk>,
    delivered: Vec<u8>,
    faults: FaultInjector,
    /// Copies of every chunk, if tapped.
    tap: Option<Vec<(SimTime, Vec<u8>)>>,
    /// One-shot tamper functions applied to the next written chunk.
    tamper_queue: VecDeque<TamperFn>,
    /// Total payload bytes written.
    bytes_written: u64,
    closed: bool,
}

impl Pipe {
    fn new(latency: Duration, bandwidth_bps: Option<u64>, faults: FaultInjector) -> Self {
        Pipe {
            latency,
            bandwidth_bps,
            next_free: SimTime::ZERO,
            in_flight: VecDeque::new(),
            delivered: Vec::new(),
            faults,
            tap: None,
            tamper_queue: VecDeque::new(),
            bytes_written: 0,
            closed: false,
        }
    }

    fn write(
        &mut self,
        now: SimTime,
        mut data: Vec<u8>,
        earliest: SimTime,
    ) -> Result<WriteReport, NetError> {
        let mut report = WriteReport::default();
        if self.closed {
            return Err(NetError::ConnectionClosed);
        }
        if data.is_empty() {
            return Ok(report);
        }
        if let Some(tamper) = self.tamper_queue.pop_front() {
            tamper(&mut data);
            report.tampered = true;
        }
        self.bytes_written += data.len() as u64;
        if let Some(tap) = &mut self.tap {
            tap.push((now, data.clone()));
        }
        // Blackhole window: the sender's transport believes the bytes
        // left (they count as written and a tap sees them), but
        // nothing is ever queued for delivery and no error surfaces.
        if self.faults.swallow(now) {
            report.blackholed = true;
            return Ok(report);
        }
        // Fault model: per-MSS segment delays accumulate.
        let mut fault_delay = Duration::ZERO;
        let nsegs = data.len().div_ceil(1460).max(1);
        for _ in 0..nsegs {
            let outcome = self.faults.apply();
            fault_delay = fault_delay.plus(outcome.extra_delay);
            if outcome.gave_up {
                self.closed = true;
                return Err(NetError::ConnectionReset);
            }
        }
        report.fault_delayed = fault_delay > Duration::ZERO;
        let start = now.max(self.next_free).max(earliest);
        let serialize = match self.bandwidth_bps {
            Some(bps) => Duration((data.len() as u64 * 1_000_000_000).div_ceil(bps)),
            None => Duration::ZERO,
        };
        let departed = start.plus(serialize);
        self.next_free = departed;
        let deliver_at = departed.plus(self.latency).plus(fault_delay);
        // In-order delivery: never before the previous chunk.
        let deliver_at = match self.in_flight.back() {
            Some(prev) => deliver_at.max(prev.deliver_at),
            None => deliver_at,
        };
        self.in_flight.push_back(Chunk { deliver_at, data });
        report.deliver_at = Some(deliver_at);
        Ok(report)
    }

    /// Move everything due by `now` into the delivered buffer.
    fn poll(&mut self, now: SimTime) {
        while let Some(front) = self.in_flight.front() {
            if front.deliver_at <= now {
                let chunk = self.in_flight.pop_front().unwrap();
                self.delivered.extend_from_slice(&chunk.data);
            } else {
                break;
            }
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        self.in_flight.front().map(|c| c.deliver_at)
    }
}

/// A bidirectional connection between two nodes.
struct Conn {
    a: NodeId,
    b: NodeId,
    a_to_b: Pipe,
    b_to_a: Pipe,
    /// When the transport handshake completes and data may flow.
    established_at: SimTime,
    /// Slot released via [`Network::release_conn`] and awaiting
    /// reuse: every operation on the handle reports `BadHandle`.
    retired: bool,
}

/// Errors surfaced to endpoint drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The connection was closed by a filter, adversary, or fault
    /// collapse.
    ConnectionReset,
    /// Write on a closed connection.
    ConnectionClosed,
    /// Unknown handle.
    BadHandle,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetError::ConnectionReset => "connection reset",
            NetError::ConnectionClosed => "connection closed",
            NetError::BadHandle => "bad handle",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for NetError {}

/// A node: a name plus bookkeeping (nodes are pure endpoints; all
/// state machines live in the experiment code).
struct Node {
    name: String,
    /// Slot released via [`Network::release_node`] and awaiting reuse.
    retired: bool,
}

/// The simulator.
pub struct Network {
    nodes: Vec<Node>,
    conns: Vec<Conn>,
    now: SimTime,
    rng: CryptoRng,
    /// Default one-way latency used when none is specified.
    pub default_latency: Duration,
    telemetry: Option<SharedSink>,
    /// Min-heap of candidate `(deliver_at, sequence, conn index)`
    /// delivery instants, pushed on every queued write and validated
    /// lazily: an entry whose connection no longer has a chunk due
    /// exactly at that instant is stale (already delivered) and is
    /// discarded on pop. Keeps [`Network::next_event_time`] O(log n)
    /// per call instead of scanning every pipe — the difference
    /// between a 2-party test and a host multiplexing thousands of
    /// sessions. The sequence number makes equal-time pops explicit:
    /// ties break by *send order*, never by heap-internal layout, so
    /// a sharded host merging per-shard traces sees one well-defined
    /// delivery order by construction.
    event_heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Monotonic sequence stamped onto heap entries at push time.
    event_seq: u64,
    /// Released node slots awaiting reuse (LIFO).
    node_free: Vec<usize>,
    /// Released connection slots awaiting reuse (LIFO).
    conn_free: Vec<usize>,
}

impl Network {
    /// Fresh network with a seed for fault randomness.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            conns: Vec::new(),
            now: SimTime::ZERO,
            rng: CryptoRng::from_seed(seed),
            default_latency: Duration::from_micros(50),
            telemetry: None,
            event_heap: BinaryHeap::new(),
            event_seq: 0,
            node_free: Vec::new(),
            conn_free: Vec::new(),
        }
    }

    /// Push a delivery candidate, stamping the next sequence number
    /// so same-instant events pop in send order.
    fn push_event(&mut self, t: SimTime, conn: usize) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.event_heap.push(Reverse((t, seq, conn)));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attach a telemetry sink. Link events are emitted through it,
    /// and its clock is kept in lock-step with virtual time so every
    /// event in the simulation carries a virtual timestamp.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        sink.clock().set_ns(self.now.0);
        self.telemetry = Some(sink);
    }

    fn emit(&self, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.emit(Party::Network, kind);
        }
    }

    /// Add a node, reusing a released slot when one is available.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        if let Some(idx) = self.node_free.pop() {
            self.nodes[idx].name = name.to_string();
            self.nodes[idx].retired = false;
            return NodeId(idx);
        }
        self.nodes.push(Node {
            name: name.to_string(),
            retired: false,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Release a node slot for reuse. The caller must have released
    /// every connection touching the node first; the handle must not
    /// be used again. Keeps node-arena memory bounded by the
    /// *concurrent* population rather than the all-time total — at a
    /// million hosted sessions the difference between a working run
    /// and an OOM.
    pub fn release_node(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.0) {
            if !n.retired {
                n.retired = true;
                n.name = String::new();
                self.node_free.push(node.0);
            }
        }
    }

    /// A node's name.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Open a connection with explicit parameters. Data written
    /// before the TCP-style handshake completes is queued and departs
    /// at establishment (one RTT after `connect`).
    pub fn connect_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: Duration,
        bandwidth_bps: Option<u64>,
        faults: FaultConfig,
    ) -> ConnId {
        let fi_ab = FaultInjector::new(faults.clone(), self.rng.fork());
        let fi_ba = FaultInjector::new(faults, self.rng.fork());
        // TCP 3WHS: SYN (latency) + SYN-ACK (latency); the initiator
        // may send data with the final ACK, so the first byte can
        // depart one RTT after connect.
        let established_at = self.now.plus(latency.times(2));
        let conn = Conn {
            a,
            b,
            a_to_b: Pipe::new(latency, bandwidth_bps, fi_ab),
            b_to_a: Pipe::new(latency, bandwidth_bps, fi_ba),
            established_at,
            retired: false,
        };
        if let Some(idx) = self.conn_free.pop() {
            self.conns[idx] = conn;
            return ConnId(idx);
        }
        self.conns.push(conn);
        ConnId(self.conns.len() - 1)
    }

    /// Release a connection slot for reuse. In-flight and delivered
    /// data is dropped; the handle must not be used again (every
    /// operation on it reports [`NetError::BadHandle`] until the slot
    /// is handed out by a later connect). Stale heap entries naming
    /// the slot are discarded lazily: the retired pipes report no
    /// next event, and a reused slot's own writes push fresh entries,
    /// so delivery scheduling stays exact across recycling.
    pub fn release_conn(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(conn.0) {
            if !c.retired {
                c.retired = true;
                // Inert placeholder pipes (fixed-seed injector so the
                // shared fault RNG stream is left untouched).
                let inert = || {
                    Pipe::new(
                        Duration::ZERO,
                        None,
                        FaultInjector::new(FaultConfig::none(), CryptoRng::from_seed(0)),
                    )
                };
                c.a_to_b = inert();
                c.b_to_a = inert();
                self.conn_free.push(conn.0);
            }
        }
    }

    /// Open a connection with default latency, unlimited bandwidth,
    /// and no faults.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> ConnId {
        self.connect_with(a, b, self.default_latency, None, FaultConfig::none())
    }

    fn pipe_mut(&mut self, conn: ConnId, dir: Dir) -> Result<&mut Pipe, NetError> {
        let conn = self.conns.get_mut(conn.0).ok_or(NetError::BadHandle)?;
        if conn.retired {
            return Err(NetError::BadHandle);
        }
        Ok(match dir {
            Dir::AtoB => &mut conn.a_to_b,
            Dir::BtoA => &mut conn.b_to_a,
        })
    }

    fn live_conn(&self, conn: ConnId) -> Result<&Conn, NetError> {
        match self.conns.get(conn.0) {
            Some(c) if !c.retired => Ok(c),
            _ => Err(NetError::BadHandle),
        }
    }

    /// Send bytes from `from`'s side of the connection.
    pub fn send(&mut self, conn: ConnId, from: NodeId, data: &[u8]) -> Result<(), NetError> {
        self.send_with_delay(conn, from, data, Duration::ZERO)
    }

    /// Send bytes whose departure is additionally delayed by
    /// `compute` — models sender-side processing time (e.g. middlebox
    /// handshake computation) without a separate CPU scheduler.
    pub fn send_with_delay(
        &mut self,
        conn: ConnId,
        from: NodeId,
        data: &[u8],
        compute: Duration,
    ) -> Result<(), NetError> {
        let now = self.now;
        let c = self.live_conn(conn)?;
        let dir = if from == c.a {
            Dir::AtoB
        } else if from == c.b {
            Dir::BtoA
        } else {
            return Err(NetError::BadHandle);
        };
        let earliest = c.established_at.max(now.plus(compute));
        let report = self.pipe_mut(conn, dir)?.write(now, data.to_vec(), earliest)?;
        if let Some(t) = report.deliver_at {
            self.push_event(t, conn.0);
        }
        self.emit(EventKind::LinkSend { conn: conn.0 as u64, bytes: data.len() as u64 });
        if report.tampered {
            self.emit(EventKind::LinkCorrupt { conn: conn.0 as u64 });
        }
        if report.fault_delayed || report.blackholed {
            self.emit(EventKind::LinkDrop { conn: conn.0 as u64, bytes: data.len() as u64 });
        }
        Ok(())
    }

    /// Receive all bytes available to `to` on this connection at the
    /// current time.
    pub fn recv(&mut self, conn: ConnId, to: NodeId) -> Result<Vec<u8>, NetError> {
        let now = self.now;
        let c = self.live_conn(conn)?;
        let dir = if to == c.b {
            Dir::AtoB
        } else if to == c.a {
            Dir::BtoA
        } else {
            return Err(NetError::BadHandle);
        };
        let closed_check = {
            let pipe = self.pipe_mut(conn, dir)?;
            pipe.poll(now);
            let data = std::mem::take(&mut pipe.delivered);
            if data.is_empty() && pipe.closed {
                Err(NetError::ConnectionReset)
            } else {
                Ok(data)
            }
        };
        if let Ok(data) = &closed_check {
            if !data.is_empty() {
                self.emit(EventKind::LinkDeliver {
                    conn: conn.0 as u64,
                    bytes: data.len() as u64,
                });
            }
        }
        closed_check
    }

    /// The earliest future instant at which any in-flight data becomes
    /// deliverable, or `None` if the network is quiescent.
    ///
    /// Backed by a lazily-maintained min-heap: delivered chunks leave
    /// stale heap entries behind, which are discarded on pop, so the
    /// amortized cost is O(log writes) rather than O(connections).
    /// Takes `&mut self` only to prune those stale entries — the
    /// answer is the same one the test-only `next_event_time_scan`
    /// oracle computes by walking every pipe.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, seq, idx))) = self.event_heap.peek() {
            let actual = self.conns.get(idx).filter(|c| !c.retired).and_then(|c| {
                match (c.a_to_b.next_event(), c.b_to_a.next_event()) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, None) => x,
                    (None, y) => y,
                }
            });
            match actual {
                Some(a) if a == t => return Some(t.max(self.now)),
                // Earlier than every heap entry can't normally happen
                // (each queued chunk pushed its own entry), but requeue
                // defensively so the heap never under-reports.
                Some(a) if a < t => {
                    self.event_heap.pop();
                    self.event_heap.push(Reverse((a, seq, idx)));
                }
                // Stale: that chunk was already delivered.
                _ => {
                    self.event_heap.pop();
                }
            }
        }
        None
    }

    /// Pop one connection that has data deliverable at or before the
    /// current time, or `None` when nothing is due yet. Multi-session
    /// drivers use this to learn *which* connection a time advance
    /// made readable without scanning all of them; the caller must
    /// then drain the connection with [`Network::recv`], otherwise
    /// later [`Network::next_event_time`] calls may under-report (the
    /// popped entry is gone from the heap). The same connection may be
    /// returned once per undrained chunk.
    pub fn pop_due(&mut self) -> Option<ConnId> {
        while let Some(&Reverse((t, _seq, idx))) = self.event_heap.peek() {
            if t > self.now {
                return None;
            }
            self.event_heap.pop();
            let due = self.conns.get(idx).is_some_and(|c| {
                !c.retired
                    && (c.a_to_b.next_event().is_some_and(|x| x <= self.now)
                        || c.b_to_a.next_event().is_some_and(|x| x <= self.now))
            });
            if due {
                return Some(ConnId(idx));
            }
        }
        None
    }

    /// Reference implementation of [`Network::next_event_time`]: an
    /// O(connections) scan over every pipe. Kept as the oracle the
    /// heap path is equivalence-tested against.
    #[cfg(test)]
    fn next_event_time_scan(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for conn in self.conns.iter().filter(|c| !c.retired) {
            for pipe in [&conn.a_to_b, &conn.b_to_a] {
                if let Some(t) = pipe.next_event() {
                    let t = t.max(self.now);
                    best = Some(match best {
                        Some(b) => b.min(t),
                        None => t,
                    });
                }
            }
        }
        best
    }

    /// Advance virtual time (never backwards).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
        if let Some(tl) = &self.telemetry {
            tl.clock().set_ns(self.now.0);
        }
    }

    /// Advance by a span.
    pub fn advance_by(&mut self, d: Duration) {
        self.now = self.now.plus(d);
        if let Some(tl) = &self.telemetry {
            tl.clock().set_ns(self.now.0);
        }
    }

    // ----- adversary / measurement hooks (threat model §3.1) -----

    /// Start recording every chunk on one direction.
    pub fn tap(&mut self, conn: ConnId, dir: Dir) {
        if let Ok(pipe) = self.pipe_mut(conn, dir) {
            if pipe.tap.is_none() {
                pipe.tap = Some(Vec::new());
            }
        }
    }

    /// Read the tap (copies of chunks with their send timestamps).
    pub fn tap_contents(&mut self, conn: ConnId, dir: Dir) -> Vec<(SimTime, Vec<u8>)> {
        match self.pipe_mut(conn, dir) {
            Ok(pipe) => pipe.tap.clone().unwrap_or_default(),
            Err(_) => Vec::new(),
        }
    }

    /// Inject raw bytes into the stream toward the receiver of `dir`
    /// (the adversary writes into the TCP stream).
    pub fn inject(&mut self, conn: ConnId, dir: Dir, data: &[u8]) -> Result<(), NetError> {
        let now = self.now;
        let c = self.live_conn(conn)?;
        let earliest = c.established_at;
        let report = self.pipe_mut(conn, dir)?.write(now, data.to_vec(), earliest)?;
        if let Some(t) = report.deliver_at {
            self.push_event(t, conn.0);
        }
        self.emit(EventKind::LinkSend { conn: conn.0 as u64, bytes: data.len() as u64 });
        if report.tampered {
            self.emit(EventKind::LinkCorrupt { conn: conn.0 as u64 });
        }
        Ok(())
    }

    /// Register a one-shot tamper applied to the next chunk written
    /// in `dir` (the adversary flips bits in flight).
    pub fn tamper_next(
        &mut self,
        conn: ConnId,
        dir: Dir,
        f: impl FnOnce(&mut Vec<u8>) + Send + 'static,
    ) {
        if let Ok(pipe) = self.pipe_mut(conn, dir) {
            pipe.tamper_queue.push_back(Box::new(f));
        }
    }

    /// Cut a connection (both directions).
    pub fn reset(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(conn.0) {
            c.a_to_b.closed = true;
            c.b_to_a.closed = true;
        }
    }

    /// Total payload bytes written in `dir` (for meter-style checks).
    pub fn bytes_written(&mut self, conn: ConnId, dir: Dir) -> u64 {
        self.pipe_mut(conn, dir).map(|p| p.bytes_written).unwrap_or(0)
    }

    /// The two endpoints of a connection (initiator, acceptor).
    pub fn conn_endpoints(&self, conn: ConnId) -> Option<(NodeId, NodeId)> {
        self.conns.get(conn.0).filter(|c| !c.retired).map(|c| (c.a, c.b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (Network, NodeId, NodeId) {
        let mut n = Network::new(42);
        let a = n.add_node("client");
        let b = n.add_node("server");
        (n, a, b)
    }

    #[test]
    fn bytes_flow_after_latency() {
        let (mut n, a, b) = net();
        let conn = n.connect_with(a, b, Duration::from_millis(10), None, FaultConfig::none());
        n.send(conn, a, b"hello").unwrap();
        // Not yet: handshake (20ms) + latency (10ms) = 30ms.
        n.advance_to(SimTime(29_000_000));
        assert!(n.recv(conn, b).unwrap().is_empty());
        n.advance_to(SimTime(30_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), b"hello");
        // Reading again yields nothing.
        assert!(n.recv(conn, b).unwrap().is_empty());
    }

    #[test]
    fn in_order_delivery_across_writes() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.send(conn, a, b"first ").unwrap();
        n.send(conn, a, b"second").unwrap();
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), b"first second");
    }

    #[test]
    fn duplex_is_independent() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.send(conn, a, b"ping").unwrap();
        n.send(conn, b, b"pong").unwrap();
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), b"ping");
        assert_eq!(n.recv(conn, a).unwrap(), b"pong");
    }

    #[test]
    fn bandwidth_serialization_delays_large_writes() {
        let (mut n, a, b) = net();
        // 8 Mbit/s = 1e6 bytes/s; 1 MB takes 1 virtual second.
        let conn = n.connect_with(
            a,
            b,
            Duration::from_millis(1),
            Some(1_000_000),
            FaultConfig::none(),
        );
        n.send(conn, a, &vec![0u8; 1_000_000]).unwrap();
        n.advance_to(SimTime(500_000_000));
        assert!(n.recv(conn, b).unwrap().is_empty(), "payload should still be serializing");
        n.advance_to(SimTime(1_100_000_000));
        assert_eq!(n.recv(conn, b).unwrap().len(), 1_000_000);
    }

    #[test]
    fn next_event_time_tracks_earliest_delivery() {
        let (mut n, a, b) = net();
        let conn = n.connect_with(a, b, Duration::from_millis(5), None, FaultConfig::none());
        assert_eq!(n.next_event_time(), None);
        n.send(conn, a, b"x").unwrap();
        // established at 10ms + 5ms latency = 15ms.
        assert_eq!(n.next_event_time(), Some(SimTime(15_000_000)));
    }

    #[test]
    fn tap_records_chunks() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.tap(conn, Dir::AtoB);
        n.send(conn, a, b"secret-on-the-wire").unwrap();
        let tapped = n.tap_contents(conn, Dir::AtoB);
        assert_eq!(tapped.len(), 1);
        assert_eq!(tapped[0].1, b"secret-on-the-wire");
    }

    #[test]
    fn inject_appends_to_stream() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.send(conn, a, b"legit|").unwrap();
        n.inject(conn, Dir::AtoB, b"EVIL").unwrap();
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), b"legit|EVIL");
    }

    #[test]
    fn tamper_modifies_next_chunk_only() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.tamper_next(conn, Dir::AtoB, |data| data[0] ^= 0xFF);
        n.send(conn, a, &[0x00, 0x01]).unwrap();
        n.send(conn, a, &[0x02]).unwrap();
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), vec![0xFF, 0x01, 0x02]);
    }

    #[test]
    fn reset_surfaces_as_connection_reset() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.reset(conn);
        assert_eq!(n.send(conn, a, b"x"), Err(NetError::ConnectionClosed));
        assert_eq!(n.recv(conn, b), Err(NetError::ConnectionReset));
    }

    #[test]
    fn reset_delivers_pending_bytes_first() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.send(conn, a, b"last words").unwrap();
        n.reset(conn);
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), b"last words");
        assert_eq!(n.recv(conn, b), Err(NetError::ConnectionReset));
    }

    #[test]
    fn faulty_link_adds_delay_but_preserves_data() {
        let mut n = Network::new(7);
        let a = n.add_node("a");
        let b = n.add_node("b");
        let conn = n.connect_with(
            a,
            b,
            Duration::from_millis(1),
            None,
            FaultConfig::lossy(0.5),
        );
        let payload: Vec<u8> = (0..200_000).map(|i| (i % 256) as u8).collect();
        n.send(conn, a, &payload).unwrap();
        n.advance_to(SimTime(3_600_000_000_000)); // 1 virtual hour
        assert_eq!(n.recv(conn, b).unwrap(), payload);
    }

    #[test]
    fn wrong_node_handles_rejected() {
        let (mut n, a, b) = net();
        let c = n.add_node("outsider");
        let conn = n.connect(a, b);
        assert_eq!(n.send(conn, c, b"x"), Err(NetError::BadHandle));
        assert_eq!(n.recv(conn, c), Err(NetError::BadHandle));
        assert_eq!(n.send(ConnId(99), a, b"x"), Err(NetError::BadHandle));
    }

    #[test]
    fn node_names_kept() {
        let (n, a, b) = net();
        assert_eq!(n.node_name(a), "client");
        assert_eq!(n.node_name(b), "server");
    }

    /// The heap-backed `next_event_time` must agree with the exhaustive
    /// pipe scan at every step of a randomized send/recv/advance churn
    /// across many connections.
    #[test]
    fn event_heap_matches_scan_under_churn() {
        let mut n = Network::new(99);
        let nodes: Vec<NodeId> = (0..8).map(|i| n.add_node(&format!("n{i}"))).collect();
        let mut conns = Vec::new();
        for i in 0..nodes.len() - 1 {
            let lat = Duration::from_micros(10 + 37 * i as u64);
            conns.push((
                n.connect_with(nodes[i], nodes[i + 1], lat, Some(10_000_000), FaultConfig::none()),
                nodes[i],
                nodes[i + 1],
            ));
            conns.push((n.connect(nodes[i + 1], nodes[i]), nodes[i + 1], nodes[i]));
        }
        let mut rng = CryptoRng::from_seed(1234);
        for step in 0..2000 {
            let (conn, from, to) = conns[rng.gen_range(conns.len() as u64) as usize];
            match rng.gen_range(4) {
                0 | 1 => {
                    let len = 1 + rng.gen_range(900) as usize;
                    n.send(conn, from, &vec![0xAB; len]).unwrap();
                }
                2 => {
                    let _ = n.recv(conn, to).unwrap();
                }
                _ => {
                    if let Some(t) = n.next_event_time_scan() {
                        n.advance_to(t);
                    } else {
                        n.advance_by(Duration::from_micros(rng.gen_range(100)));
                    }
                }
            }
            let scan = n.next_event_time_scan();
            let heap = n.next_event_time();
            assert_eq!(heap, scan, "divergence at step {step}");
        }
        // Drain everything; both views must agree the network went
        // quiet.
        while let Some(t) = n.next_event_time() {
            n.advance_to(t);
            for &(conn, _, to) in &conns {
                let _ = n.recv(conn, to).unwrap();
            }
        }
        assert_eq!(n.next_event_time_scan(), None);
    }

    #[test]
    fn pop_due_names_the_readable_conn() {
        let (mut n, a, b) = net();
        let c2 = n.add_node("c");
        let conn1 = n.connect(a, b);
        let conn2 = n.connect(b, c2);
        n.send(conn2, b, b"to-c").unwrap();
        n.send(conn1, a, b"to-b").unwrap();
        assert_eq!(n.pop_due(), None, "nothing due before time advances");
        let t = n.next_event_time().unwrap();
        n.advance_to(t);
        // Both conns share the default latency, so both become due at
        // the same instant; ties break by send order (sequence
        // number), and conn2's chunk was sent first.
        assert_eq!(n.pop_due(), Some(conn2));
        let _ = n.recv(conn2, c2).unwrap();
        assert_eq!(n.pop_due(), Some(conn1));
        let _ = n.recv(conn1, b).unwrap();
        assert_eq!(n.pop_due(), None);
    }

    /// Regression: equal-time delivery events must pop in *send*
    /// order, not heap-internal order — the determinism-by-
    /// construction guarantee the sharded host's trace merge relies
    /// on. Exercised with enough same-instant events that a
    /// heap-layout-ordered pop would almost surely diverge.
    #[test]
    fn equal_time_events_pop_in_send_order() {
        let mut n = Network::new(5);
        let hub = n.add_node("hub");
        let spokes: Vec<NodeId> = (0..16).map(|i| n.add_node(&format!("s{i}"))).collect();
        let conns: Vec<ConnId> = spokes.iter().map(|&s| n.connect(hub, s)).collect();
        // Send in a scrambled, non-monotonic conn order; all chunks
        // share one latency so every delivery lands at one instant.
        let order: Vec<usize> = (0..16).map(|i| (i * 7) % 16).collect();
        for &i in &order {
            n.send(conns[i], hub, b"x").unwrap();
        }
        let t = n.next_event_time().unwrap();
        n.advance_to(t);
        for &i in &order {
            assert_eq!(n.pop_due(), Some(conns[i]), "pop order must match send order");
            let _ = n.recv(conns[i], spokes[i]).unwrap();
        }
        assert_eq!(n.pop_due(), None);
    }

    /// Released conn and node slots are reused, stale handles are
    /// rejected, and recycling never leaks old traffic into the new
    /// occupant.
    #[test]
    fn released_slots_recycle_without_leaking() {
        let (mut n, a, b) = net();
        let conn = n.connect(a, b);
        n.send(conn, a, b"doomed").unwrap();
        n.release_conn(conn);
        // Stale handle: every operation is rejected.
        assert_eq!(n.send(conn, a, b"x"), Err(NetError::BadHandle));
        assert_eq!(n.recv(conn, b), Err(NetError::BadHandle));
        assert_eq!(n.conn_endpoints(conn), None);
        // Undelivered chunk vanished with the slot.
        assert_eq!(n.next_event_time(), None);
        // Slot is reused — and the new occupant starts clean.
        let conn2 = n.connect(b, a);
        assert_eq!(conn2.0, conn.0, "freed conn slot should be reused");
        n.send(conn2, b, b"fresh").unwrap();
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn2, a).unwrap(), b"fresh");
        // Node recycling mirrors conn recycling.
        let extra = n.add_node("ephemeral");
        n.release_node(extra);
        let again = n.add_node("replacement");
        assert_eq!(again.0, extra.0, "freed node slot should be reused");
        assert_eq!(n.node_name(again), "replacement");
        // Double release is a no-op, not a double-free.
        n.release_node(again);
        n.release_node(again);
        let x = n.add_node("x");
        let y = n.add_node("y");
        assert_ne!(x.0, y.0, "double release must not hand one slot out twice");
    }

    #[test]
    fn blackhole_window_swallows_silently() {
        let mut n = Network::new(11);
        let a = n.add_node("a");
        let b = n.add_node("b");
        let faults = FaultConfig::blackhole_window(SimTime(30_000_000), SimTime(60_000_000));
        let conn = n.connect_with(a, b, Duration::from_millis(1), None, faults);
        // Before the window: delivered normally.
        n.send(conn, a, b"early").unwrap();
        // Inside the window: accepted (no error — the sender cannot
        // tell) but never delivered.
        n.advance_to(SimTime(30_000_000));
        n.send(conn, a, b"lost").unwrap();
        // After the window: flows again.
        n.advance_to(SimTime(60_000_000));
        n.send(conn, a, b"late").unwrap();
        n.advance_to(SimTime(1_000_000_000));
        assert_eq!(n.recv(conn, b).unwrap(), b"earlylate");
        // A later read does not surface an error either: losses stay
        // invisible to the transport.
        assert_eq!(n.recv(conn, b).unwrap(), b"");
    }

    #[test]
    fn blackholed_bytes_still_counted_as_written() {
        let mut n = Network::new(12);
        let a = n.add_node("a");
        let b = n.add_node("b");
        let faults = FaultConfig::blackhole_window(SimTime::ZERO, SimTime(1_000));
        let conn = n.connect_with(a, b, Duration::from_millis(1), None, faults);
        n.tap(conn, Dir::AtoB);
        n.send(conn, a, b"gone").unwrap();
        assert_eq!(n.bytes_written(conn, Dir::AtoB), 4);
        assert_eq!(n.tap_contents(conn, Dir::AtoB).len(), 1);
        assert_eq!(n.next_event_time(), None);
    }
}
