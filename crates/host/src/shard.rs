//! The per-worker reactor: one shard of the session host.
//!
//! A [`Shard`] is the event loop that used to be the whole host, now
//! instantiated once per worker with strictly private state — its own
//! [`Substrate`], generational [`Slab`], [`TimerQueue`], ready queue,
//! [`BufferPool`], ticket cache, and counters. Shards share
//! *nothing*: on a multi-core deployment
//! each would run on its own core against its own NIC queue, and in
//! this sans-IO build they are driven sequentially with bit-identical
//! results (the determinism argument in DESIGN.md §6g rests on
//! exactly this isolation).
//!
//! Sessions are pinned: the shard index is encoded in every
//! [`SessionId`] the shard mints, the shard's slab rejects foreign
//! ids, and substrate tokens are shard-local slot indices.
//!
//! Every lifecycle fact — open, handshake done, timeout, retry,
//! eviction, ticket expiry, verify batch, close — is said once, as a
//! `Host*` event handed to `Bookkeeping::note`, which folds it into
//! the shard's [`HostCounters`] and emits it if a sink is attached.

use std::collections::VecDeque;

use mbtls_core::driver::{Endpoint, PendingVerify};
use mbtls_core::MbError;
use mbtls_crypto::ed25519::{self, BatchItem};
use mbtls_netsim::time::SimTime;
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::session::ResumptionData;

use crate::config::HostConfig;
use crate::host::{HostCounters, Reactor, SessionSpec};
use crate::pool::BufferPool;
use crate::session::{HostedSession, Phase, SessionOutcome};
use crate::slab::{SessionId, Slab};
use crate::substrate::Substrate;
use crate::wheel::{Timer, TimerKind, TimerQueue};

/// What one service pass decided about a session.
enum Verdict {
    /// Session ended; record the outcome.
    Finish(SessionOutcome),
    /// Pass cap hit while bytes still moved — requeue behind peers.
    Saturated,
    /// Nothing moved and nothing to do — wait for transport or timer.
    Parked,
    /// Progress was made; pump again.
    Progress,
}

/// The shard's bookkeeping: its counters and, when attached, its
/// telemetry sink.
struct Bookkeeping {
    counters: HostCounters,
    telemetry: Option<SharedSink>,
}

impl Bookkeeping {
    /// Record one lifecycle fact: fold it into the counters and emit
    /// it. The only place a `Host*` event is counted or emitted.
    fn note(&mut self, kind: EventKind) {
        self.counters.observe(&kind);
        if let Some(t) = &self.telemetry {
            t.emit(Party::Host, kind);
        }
    }
}

/// One worker reactor: a sans-IO event loop multiplexing the
/// sessions pinned to this shard over its private substrate.
///
/// Constructed by [`Host`](crate::host::Host), or directly when a
/// driver wants to run shards itself (the scale bench times each
/// shard's wall clock separately this way).
pub struct Shard<S: Substrate> {
    shard: u16,
    substrate: S,
    config: HostConfig,
    sessions: Slab<HostedSession>,
    timers: TimerQueue,
    ready: VecDeque<SessionId>,
    /// Reused scratch for expired timers (no per-step allocation).
    fired: Vec<Timer>,
    pool: BufferPool,
    /// Where drained application bytes land to be counted: one sink
    /// for what servers received and one for what clients received.
    /// A drain into an empty buffer trades buffers with the endpoint
    /// (`Endpoint::recv_app_into`), so each sink only ever meets
    /// buffers that held its own direction's payloads; draining
    /// requests and responses through one staging buffer would walk
    /// response-sized capacity into every session's request side.
    rx: [Vec<u8>; 2],
    /// Session-ticket cache ordered by expiry (pushes are monotonic
    /// in virtual time), capped at `config.ticket_cache_cap()`.
    tickets: VecDeque<(SimTime, ResumptionData)>,
    /// Deferred signature-check groups collected from this turn's
    /// serviced sessions, flushed through one
    /// [`ed25519::verify_batch`] call at the end of the turn.
    verify_queue: Vec<(SessionId, usize, PendingVerify)>,
    /// Reused scratch for per-session collection (no per-service
    /// allocation).
    verify_scratch: Vec<(usize, PendingVerify)>,
    results: Vec<(SessionId, SessionOutcome)>,
    books: Bookkeeping,
}

impl<S: Substrate> Shard<S> {
    /// Reactor number `shard` over its private `substrate`.
    pub fn new(shard: u16, substrate: S, config: HostConfig) -> Self {
        Shard {
            shard,
            substrate,
            config,
            sessions: Slab::for_shard(shard),
            timers: TimerQueue::new(),
            ready: VecDeque::new(),
            fired: Vec::new(),
            pool: BufferPool::new(),
            rx: Default::default(),
            tickets: VecDeque::new(),
            verify_queue: Vec::new(),
            verify_scratch: Vec::new(),
            results: Vec::new(),
            books: Bookkeeping { counters: HostCounters::default(), telemetry: None },
        }
    }

    /// This reactor's shard index.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Attach telemetry. The sink is re-tagged with this shard's
    /// index (so merged traces record the emitting worker) and its
    /// clock is kept in lock-step with this shard's virtual time —
    /// which is why a multi-shard host needs one sink *per shard*,
    /// each with its own clock.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        let tagged = sink.tagged(self.shard);
        self.substrate.set_telemetry(tagged.clone());
        self.books.telemetry = Some(tagged);
    }

    /// True if `id` names a session this shard currently hosts.
    /// Foreign-shard and stale ids report false.
    pub fn contains(&self, id: SessionId) -> bool {
        self.sessions.contains(id)
    }

    /// Deterministic run statistics so far.
    pub fn counters(&self) -> &HostCounters {
        &self.books.counters
    }

    /// Outcomes of finished sessions, in finish order.
    pub fn results(&self) -> &[(SessionId, SessionOutcome)] {
        &self.results
    }

    /// Take the finished-session outcomes, leaving the list empty.
    pub fn take_results(&mut self) -> Vec<(SessionId, SessionOutcome)> {
        std::mem::take(&mut self.results)
    }

    /// Buffer-pool statistics: `(acquired, served without
    /// allocating)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }

    /// Session tickets currently cached.
    pub fn cached_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// The substrate (e.g. for adversary hooks in tests).
    pub fn substrate_mut(&mut self) -> &mut S {
        &mut self.substrate
    }

    fn enqueue(&mut self, id: SessionId) {
        if let Some(sess) = self.sessions.get_mut(id) {
            if !sess.queued {
                sess.queued = true;
                self.ready.push_back(id);
            }
        }
    }

    /// Queue the owner of every due transport notification.
    fn route_deliveries(&mut self) {
        while let Some(token) = self.substrate.pop_due() {
            if let Some(id) = self.sessions.id_at(token as u32) {
                self.enqueue(id);
            }
        }
    }

    /// Run the event loop until every session finishes. Errors if
    /// virtual time passes `deadline`, or if the shard goes quiescent
    /// with live sessions (which the timer queue should make
    /// impossible: every session always has a pending timer).
    pub fn run(&mut self, deadline: SimTime) -> Result<(), MbError> {
        while !self.sessions.is_empty() {
            if self.substrate.now() > deadline {
                return Err(MbError::Timeout("shard run deadline exceeded".into()));
            }
            // A false return is fine if the batch just serviced
            // finished the last session; it is only an error while
            // sessions remain live.
            if !self.step()? && !self.sessions.is_empty() {
                return Err(MbError::unexpected_state("shard quiescent with live sessions"));
            }
        }
        Ok(())
    }

    /// Resolve every deferred signature-check group collected during
    /// this turn's services with one random-linear-combination batch
    /// verification ([`ed25519::verify_batch`]), then wake the
    /// affected sessions. One multi-scalar pass amortizes the
    /// per-signature doubling chain across every handshake the turn
    /// touched — the host-side half of the handshake fast path.
    fn flush_verify_batch(&mut self) {
        if self.verify_queue.is_empty() {
            return;
        }
        let queue = std::mem::take(&mut self.verify_queue);
        let items: Vec<BatchItem<'_>> = queue
            .iter()
            .flat_map(|(_, _, pv)| pv.checks.iter())
            .map(|c| BatchItem { pubkey: c.key, msg: &c.msg, sig: c.sig })
            .collect();
        let outcome = ed25519::verify_batch(&items);
        self.books.note(EventKind::HostVerifyBatch {
            groups: queue.len() as u64,
            checks: items.len() as u64,
        });
        // Verdict per group: AND over its slice of the flat batch. A
        // failing group fails its session's endpoint (alert path);
        // passing groups unblock establishment. Either way the
        // session has new work, so requeue it.
        let mut k = 0;
        for (id, party, pv) in &queue {
            let n = pv.checks.len();
            let ok = outcome.valid[k..k + n].iter().all(|&v| v);
            k += n;
            if let Some(sess) = self.sessions.get_mut(*id) {
                sess.chain.resolve_verify(*party, pv.token, ok);
            }
            self.enqueue(*id);
        }
        // Hand the allocation back for the next turn.
        let mut queue = queue;
        queue.clear();
        self.verify_queue = queue;
    }

    /// Pump one session and drive its workload until it parks,
    /// saturates its pass budget, or finishes.
    fn service(&mut self, id: SessionId) {
        let token = id.local() as usize;
        loop {
            let Some(sess) = self.sessions.get_mut(id) else { return };
            let pump =
                match self.substrate.pump(token, &mut sess.chain, self.config.max_pump_passes()) {
                    Ok(p) => p,
                    Err(e) => {
                        self.finish(id, SessionOutcome::Failed(e));
                        return;
                    }
                };
            sess.bytes_moved += pump.bytes;
            // Data-path tally, bumped directly: no event per pump.
            self.books.counters.bytes_moved += pump.bytes;
            // Harvest deferred signature checks surfaced by this pump
            // for the end-of-turn batched verification flush; the
            // session parks until the flush resolves them.
            let mut harvest = std::mem::take(&mut self.verify_scratch);
            sess.chain.take_pending_verifies(&mut harvest);
            for (party, pv) in harvest.drain(..) {
                self.verify_queue.push((id, party, pv));
            }
            self.verify_scratch = harvest;
            let now = self.substrate.now();
            if pump.moved {
                sess.last_activity = now;
            }
            if let Some(e) = sess.chain.failed() {
                self.finish(id, SessionOutcome::Failed(e));
                return;
            }
            let verdict = match sess.phase {
                Phase::Handshaking => Self::drive_handshake(
                    sess,
                    id,
                    now,
                    &self.config,
                    &mut self.timers,
                    &mut self.pool,
                    &mut self.tickets,
                    &mut self.books,
                    pump.moved,
                    pump.saturated,
                ),
                Phase::Established => Self::drive_workload(
                    sess,
                    &mut self.pool,
                    &mut self.rx,
                    &mut self.books.counters,
                    pump.moved,
                    pump.saturated,
                ),
            };
            match verdict {
                Verdict::Finish(outcome) => {
                    self.finish(id, outcome);
                    return;
                }
                Verdict::Saturated => {
                    self.enqueue(id);
                    return;
                }
                Verdict::Parked => return,
                Verdict::Progress => continue,
            }
        }
    }

    /// Handshake phase: watch for both endpoints turning ready, then
    /// promote to [`Phase::Established`] and seed the first request.
    #[allow(clippy::too_many_arguments)]
    fn drive_handshake(
        sess: &mut HostedSession,
        id: SessionId,
        now: SimTime,
        config: &HostConfig,
        timers: &mut TimerQueue,
        pool: &mut BufferPool,
        tickets: &mut VecDeque<(SimTime, ResumptionData)>,
        books: &mut Bookkeeping,
        moved: bool,
        saturated: bool,
    ) -> Verdict {
        if !(sess.chain.client.ready() && sess.chain.server.ready()) {
            return if saturated {
                Verdict::Saturated
            } else if moved {
                Verdict::Progress
            } else {
                Verdict::Parked
            };
        }
        sess.phase = Phase::Established;
        sess.last_activity = now;
        let handshake_ns = now.since(sess.opened_at).0;
        sess.handshake_ns = handshake_ns;
        // `resumed` splits the handshake tally: abbreviated
        // (ticket/session-id) resumptions skipped certificate transfer
        // and signature checks entirely; rejected or absent tickets
        // degrade to the full flight and count there.
        books.note(EventKind::HostHandshakeDone {
            session: id.index() as u64,
            attempt: sess.attempt as u64,
            elapsed_ns: handshake_ns,
            resumed: sess.chain.client.resumed() as u64,
        });
        if let Some(res) = sess.chain.client.resumption() {
            // Capacity first: the cache never exceeds its cap, and
            // the displaced ticket (always the oldest — the deque is
            // expiry-ordered) counts as expired.
            if tickets.len() >= config.ticket_cache_cap() {
                tickets.pop_front();
                books.note(EventKind::HostTicketExpired {
                    remaining: tickets.len() as u64,
                    dropped: 1,
                });
            }
            let expiry = now.plus(config.ticket_ttl());
            tickets.push_back((expiry, res));
            timers.schedule(expiry, id, TimerKind::TicketExpiry);
        }
        timers.schedule(now.plus(config.idle_timeout()), id, TimerKind::Idle);
        if sess.workload.exchanges == 0 {
            return Verdict::Finish(SessionOutcome::Completed {
                exchanges: 0,
                bytes_moved: sess.bytes_moved,
                handshake_ns,
            });
        }
        if let Err(e) = Self::send_request(sess, pool) {
            return Verdict::Finish(SessionOutcome::Failed(e));
        }
        Verdict::Progress
    }

    /// Queue one `request_len`-byte client request from a pooled
    /// buffer.
    fn send_request(sess: &mut HostedSession, pool: &mut BufferPool) -> Result<(), MbError> {
        Self::send_filled(&mut *sess.chain.client, sess.workload.request_len, 0xA5, pool)
    }

    /// Queue `len` bytes of `fill` on `endpoint`, staged in a pooled
    /// buffer.
    fn send_filled(
        endpoint: &mut dyn Endpoint,
        len: usize,
        fill: u8,
        pool: &mut BufferPool,
    ) -> Result<(), MbError> {
        let mut buf = pool.acquire();
        buf.resize(len, fill);
        let result = endpoint.send_app(&buf);
        pool.release(buf);
        result
    }

    /// Established phase: move request bytes into the server, answer
    /// each complete request, and count the response back at the
    /// client; finish after the workload's exchange quota.
    fn drive_workload(
        sess: &mut HostedSession,
        pool: &mut BufferPool,
        rx: &mut [Vec<u8>; 2],
        counters: &mut HostCounters,
        moved: bool,
        saturated: bool,
    ) -> Verdict {
        let mut acted = false;
        let [server_rx, client_rx] = rx;
        server_rx.clear();
        sess.chain.server.recv_app_into(server_rx);
        if !server_rx.is_empty() {
            sess.server_got += server_rx.len();
            acted = true;
        }
        if !sess.responded && sess.server_got >= sess.workload.request_len {
            sess.server_got -= sess.workload.request_len;
            let response_len = sess.workload.response_len;
            if let Err(e) = Self::send_filled(&mut *sess.chain.server, response_len, 0x5A, pool) {
                return Verdict::Finish(SessionOutcome::Failed(e));
            }
            sess.responded = true;
            acted = true;
        }
        client_rx.clear();
        sess.chain.client.recv_app_into(client_rx);
        if !client_rx.is_empty() {
            sess.client_got += client_rx.len();
            acted = true;
        }
        if sess.responded && sess.client_got >= sess.workload.response_len {
            sess.client_got -= sess.workload.response_len;
            sess.responded = false;
            sess.exchanges_done += 1;
            // Data-path tally, bumped directly: no event per exchange.
            counters.exchanges_completed += 1;
            acted = true;
            if sess.exchanges_done >= sess.workload.exchanges {
                return Verdict::Finish(SessionOutcome::Completed {
                    exchanges: sess.exchanges_done,
                    bytes_moved: sess.bytes_moved,
                    handshake_ns: sess.handshake_ns,
                });
            }
            if let Err(e) = Self::send_request(sess, pool) {
                return Verdict::Finish(SessionOutcome::Failed(e));
            }
        }
        if saturated {
            Verdict::Saturated
        } else if moved || acted {
            Verdict::Progress
        } else {
            Verdict::Parked
        }
    }

    /// Dispatch one expired timer. Timers are never cancelled, only
    /// lazily discarded: a stale [`SessionId`] (slot freed or reused
    /// under a newer generation) simply no-ops.
    fn handle_timer(&mut self, timer: &Timer) {
        let id = timer.session;
        match timer.kind {
            TimerKind::Handshake | TimerKind::Retry => {
                let Some(sess) = self.sessions.get(id) else { return };
                if !matches!(sess.phase, Phase::Handshaking) {
                    return;
                }
                let attempt = sess.attempt;
                self.books.note(EventKind::HostTimeout {
                    session: id.index() as u64,
                    attempt: attempt as u64,
                });
                if attempt < self.config.handshake_attempts() {
                    // Exponential backoff: 2^attempt × the handshake
                    // timeout (overflow ruled out by config validation).
                    let backoff = self.config.handshake_timeout().times(1u64 << attempt);
                    if let Some(sess) = self.sessions.get_mut(id) {
                        sess.attempt += 1;
                    }
                    self.books.note(EventKind::HostRetryBackoff {
                        session: id.index() as u64,
                        attempt: (attempt + 1) as u64,
                        backoff_ns: backoff.0,
                    });
                    let now = self.substrate.now();
                    self.timers.schedule(now.plus(backoff), id, TimerKind::Retry);
                    // Poke the session: bytes may be waiting that a
                    // pump can still deliver.
                    self.enqueue(id);
                } else {
                    self.finish(id, SessionOutcome::TimedOut);
                }
            }
            TimerKind::Idle => {
                let Some(sess) = self.sessions.get(id) else { return };
                let now = self.substrate.now();
                let idle = now.since(sess.last_activity);
                if idle >= self.config.idle_timeout() {
                    self.books.note(EventKind::HostEvict {
                        session: id.index() as u64,
                        idle_ns: idle.0,
                    });
                    self.finish(id, SessionOutcome::Evicted);
                } else {
                    // Activity since arming: re-arm from the last
                    // activity instant.
                    let next = sess.last_activity.plus(self.config.idle_timeout());
                    self.timers.schedule(next, id, TimerKind::Idle);
                }
            }
            TimerKind::TicketExpiry => {
                // The deque is expiry-ordered (monotonic pushes), so
                // expiry is a pop-front loop — O(expired), not a full
                // retain scan.
                let now = self.substrate.now();
                let mut dropped = 0u64;
                while self.tickets.front().is_some_and(|(expiry, _)| *expiry <= now) {
                    self.tickets.pop_front();
                    dropped += 1;
                }
                if dropped > 0 {
                    self.books.note(EventKind::HostTicketExpired {
                        remaining: self.tickets.len() as u64,
                        dropped,
                    });
                }
            }
        }
    }

    /// Retire a session: record the outcome, free its slab slot
    /// (bumping the generation so dangling ids go stale), and tear
    /// down its transport.
    fn finish(&mut self, id: SessionId, outcome: SessionOutcome) {
        if self.sessions.remove(id).is_none() {
            return;
        }
        self.substrate.close(id.local() as usize);
        self.books.note(EventKind::HostSessionClose {
            session: id.index() as u64,
            outcome: outcome.code(),
        });
        self.results.push((id, outcome));
    }
}

impl<S: Substrate> Reactor for Shard<S> {
    /// Admit a session: allocate a slab slot, provision transport,
    /// arm the handshake timer, and queue the first service.
    fn open(&mut self, mut spec: SessionSpec) -> Result<SessionId, MbError> {
        let now = self.substrate.now();
        let links = spec.chain.parties() - 1;
        // This shard claims deferred signature checks: sessions whose
        // endpoints defer (`ClientConfig::defer_verify`) park until
        // the end-of-turn batched flush resolves them. Chains that
        // verify inline are unaffected.
        spec.chain.set_defer_verify_to_driver(true);
        let id = self
            .sessions
            .try_insert(HostedSession {
                chain: spec.chain,
                workload: spec.workload,
                phase: Phase::Handshaking,
                opened_at: now,
                last_activity: now,
                attempt: 1,
                handshake_ns: 0,
                exchanges_done: 0,
                responded: false,
                server_got: 0,
                client_got: 0,
                bytes_moved: 0,
                queued: false,
            })
            .ok_or_else(|| MbError::unexpected_state("shard session table full"))?;
        if let Err(e) =
            self.substrate.open(id.local() as usize, links, spec.latency, &spec.faults)
        {
            self.sessions.remove(id);
            return Err(e);
        }
        self.books.note(EventKind::HostSessionOpen {
            session: id.index() as u64,
            generation: id.generation() as u64,
        });
        self.timers.schedule(now.plus(self.config.handshake_timeout()), id, TimerKind::Handshake);
        self.enqueue(id);
        Ok(id)
    }

    /// Live sessions pinned to this shard.
    fn live(&self) -> usize {
        self.sessions.len()
    }

    /// Current virtual time on this shard.
    fn now(&self) -> SimTime {
        self.substrate.now()
    }

    /// True if sessions are queued for service without any need to
    /// advance virtual time.
    fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// One event-loop turn. Services the current ready batch; if the
    /// queue drains, advances virtual time to the next transport
    /// event or timer deadline and dispatches it. Returns false when
    /// there is nothing left to do (no live sessions, or — the error
    /// case for callers — live sessions but no future event).
    fn step(&mut self) -> Result<bool, MbError> {
        // Service a bounded batch: exactly the sessions queued now,
        // so a saturated session requeues behind this turn's peers.
        let batch = self.ready.len();
        for _ in 0..batch {
            let Some(id) = self.ready.pop_front() else { break };
            match self.sessions.get_mut(id) {
                Some(sess) => sess.queued = false,
                None => continue,
            }
            self.service(id);
        }
        self.flush_verify_batch();
        if !self.ready.is_empty() {
            return Ok(true);
        }
        // Quiet: advance to the next instant anything happens.
        let Some(target) = self.next_event() else { return Ok(false) };
        self.advance_clock(target);
        Ok(true)
    }

    /// The next instant anything is scheduled to happen (transport
    /// delivery or timer), ignoring the ready queue. `None` once no
    /// session is live: what is left then is stale timers and ticket
    /// sweeps, which fire when a later session moves the clock, and
    /// reporting them would have a fleet-wide `step` pick this shard
    /// for a turn that cannot advance it.
    fn next_event(&mut self) -> Option<SimTime> {
        if self.sessions.is_empty() {
            return None;
        }
        [self.substrate.next_event_time(), self.timers.next_wake()].into_iter().flatten().min()
    }

    /// Advance virtual time to `t` (for externally scheduled work,
    /// e.g. a load generator's next arrival), firing any timers and
    /// transport deliveries that come due on the way: timers first,
    /// in deterministic (deadline, seq) order, then deliveries.
    fn advance_clock(&mut self, t: SimTime) {
        self.substrate.advance_to(t);
        let now = self.substrate.now();
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.timers.expire_into(now, &mut fired);
        for timer in &fired {
            self.handle_timer(timer);
        }
        self.fired = fired;
        self.route_deliveries();
    }
}
