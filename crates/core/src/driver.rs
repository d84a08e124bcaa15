//! Session drivers: wire endpoints and middleboxes together over
//! in-memory pipes or the deterministic network simulator.
//!
//! Everything in this workspace is sans-IO, so a "session" is a chain
//! of parties exchanging byte buffers. The pipe driver is used by
//! tests and CPU benchmarks (no timing model); the netsim driver
//! carries virtual time and powers the Figure 6 / Table 2
//! reproductions.

use std::any::Any;

use mbtls_crypto::ed25519::verify_checks;
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::net::{ConnId, Network, NodeId};
use mbtls_pki::SignatureCheck;
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;
use mbtls_telemetry::{Event, EventKind, Party, SharedSink};
use mbtls_tls::{ClientHandshake, Connection, Handshake, ServerHandshake};

use crate::middlebox::Middlebox;
use crate::session::{MbSession, Role};
use crate::MbError;

/// A group of deferred signature checks from one sub-connection of
/// an endpoint (`ClientConfig::defer_verify`). The group passes only
/// if *every* check does; the verdict is delivered back through
/// [`Endpoint::resolve_verify`] with the same token.
pub struct PendingVerify {
    /// Endpoint-local token naming the sub-connection the checks came
    /// from; opaque to the driver, echoed back on resolution.
    pub token: u32,
    /// The signature checks owed.
    pub checks: Vec<SignatureCheck>,
}

/// A single-sided party (client or server endpoint). `Any` lets
/// [`Chain::party`] hand a party back as the type it was built as.
pub trait Endpoint: Any {
    /// Feed wire bytes.
    fn feed(&mut self, data: &[u8]) -> Result<(), MbError>;
    /// Drain wire bytes.
    fn take(&mut self) -> Vec<u8>;
    /// Ready for application data?
    fn ready(&self) -> bool;
    /// Queue application data.
    fn send_app(&mut self, data: &[u8]) -> Result<(), MbError>;
    /// Drain received application data.
    fn recv_app(&mut self) -> Vec<u8>;

    /// Move pending wire bytes to the end of `dst`. The default goes
    /// through [`Endpoint::take`]; session types override it with a
    /// drain that hands its buffer over to an empty `dst` instead of
    /// copying (see [`MbSession::drain_outgoing_into`]), so drain each
    /// direction into a buffer of its own.
    fn take_into(&mut self, dst: &mut Vec<u8>) {
        let out = self.take();
        dst.extend_from_slice(&out);
    }

    /// Move received application data to the end of `dst`; an empty
    /// `dst` may come back holding the endpoint's buffer, as with
    /// [`Endpoint::take_into`]. Default goes through
    /// [`Endpoint::recv_app`].
    fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
        let out = self.recv_app();
        dst.extend_from_slice(&out);
    }

    /// The fatal error that failed this endpoint, if any. Drivers
    /// that multiplex many sessions (the host) use this to separate
    /// "stalled" from "dead".
    fn failed(&self) -> Option<MbError> {
        None
    }

    /// Resumption data to cache for a future session with the same
    /// peer, once established (client endpoints only).
    fn resumption(&self) -> Option<mbtls_tls::session::ResumptionData> {
        None
    }

    /// True if this endpoint's handshake was abbreviated (ticket or
    /// session-id resumption) rather than full. The host splits its
    /// handshake counters on the client's answer.
    fn resumed(&self) -> bool {
        false
    }

    /// Collect deferred signature-check groups
    /// (`ClientConfig::defer_verify`). Taking a group obliges the
    /// caller to deliver its verdict via
    /// [`Endpoint::resolve_verify`]; the endpoint stalls (without
    /// failing) until it does. Default: endpoints that verify inline
    /// produce nothing.
    fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        let _ = out;
    }

    /// Deliver the verdict for a group taken with
    /// [`Endpoint::take_pending_verifies`].
    fn resolve_verify(&mut self, token: u32, valid: bool) {
        let _ = (token, valid);
    }
}

/// A two-sided party (middlebox or relay); `Any` as for [`Endpoint`].
pub trait Relay: Any {
    /// Feed bytes arriving from the client side.
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError>;
    /// Feed bytes arriving from the server side.
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError>;
    /// Drain bytes to send toward the client.
    fn take_left(&mut self) -> Vec<u8>;
    /// Drain bytes to send toward the server.
    fn take_right(&mut self) -> Vec<u8>;

    /// Move client-bound bytes to the end of `dst`; an empty `dst`
    /// may come back holding the relay's buffer, as with
    /// [`Endpoint::take_into`]. Default goes through
    /// [`Relay::take_left`].
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        let out = self.take_left();
        dst.extend_from_slice(&out);
    }

    /// Move server-bound bytes to the end of `dst`; see
    /// [`Relay::take_left_into`]. Default goes through
    /// [`Relay::take_right`].
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        let out = self.take_right();
        dst.extend_from_slice(&out);
    }

    /// The fatal error that failed this relay, if any.
    fn failed(&self) -> Option<MbError> {
        None
    }
}

/// Both mbTLS session types; what differs per end is behind `Role`.
impl<R: Role + 'static> Endpoint for MbSession<R> {
    fn feed(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.feed_incoming(data)
    }
    fn take(&mut self) -> Vec<u8> {
        self.take_outgoing()
    }
    fn ready(&self) -> bool {
        self.is_ready()
    }
    fn send_app(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.send(data)
    }
    fn recv_app(&mut self) -> Vec<u8> {
        self.recv()
    }
    fn take_into(&mut self, dst: &mut Vec<u8>) {
        self.drain_outgoing_into(dst)
    }
    fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
        self.recv_into(dst)
    }
    fn failed(&self) -> Option<MbError> {
        self.error()
    }
    fn resumption(&self) -> Option<mbtls_tls::session::ResumptionData> {
        self.primary.resumption_data()
    }
    fn resumed(&self) -> bool {
        MbSession::resumed(self)
    }
    fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        MbSession::take_pending_verifies(self, out)
    }
    fn resolve_verify(&mut self, token: u32, valid: bool) {
        MbSession::resolve_verify(self, token, valid)
    }
}

/// A legacy (plain TLS 1.2) endpoint in the TLS role `H`.
pub struct Legacy<H: Handshake> {
    conn: Connection<H>,
    rng: CryptoRng,
}

/// A legacy (plain TLS 1.2) client endpoint.
pub type LegacyClient = Legacy<ClientHandshake>;

/// A legacy (plain TLS 1.2) server endpoint.
pub type LegacyServer = Legacy<ServerHandshake>;

impl<H: Handshake> Legacy<H> {
    /// Wrap a TLS connection.
    pub fn new(conn: Connection<H>, rng: CryptoRng) -> Self {
        Legacy { conn, rng }
    }

    /// Access the inner connection.
    pub fn connection(&self) -> &Connection<H> {
        &self.conn
    }
}

impl<H: Handshake + 'static> Endpoint for Legacy<H> {
    fn feed(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.conn
            .feed_incoming(data, &mut self.rng)
            .map_err(MbError::Tls)
    }
    fn take(&mut self) -> Vec<u8> {
        self.conn.take_outgoing()
    }
    fn ready(&self) -> bool {
        self.conn.is_established()
    }
    fn send_app(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.conn.send_data(data).map_err(MbError::Tls)
    }
    fn recv_app(&mut self) -> Vec<u8> {
        self.conn.take_plaintext()
    }
    fn failed(&self) -> Option<MbError> {
        self.conn.error().cloned().map(MbError::Tls)
    }
    fn resumption(&self) -> Option<mbtls_tls::session::ResumptionData> {
        self.conn.resumption_data()
    }
    fn resumed(&self) -> bool {
        self.conn.resumed()
    }
    fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        if let Some(checks) = self.conn.take_pending_verify() {
            out.push(PendingVerify { token: 0, checks });
        }
    }
    fn resolve_verify(&mut self, _token: u32, valid: bool) {
        self.conn.resolve_verify(valid);
    }
}

impl Relay for Middlebox {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.feed_from_client(data)
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.feed_from_server(data)
    }
    fn take_left(&mut self) -> Vec<u8> {
        self.take_toward_client()
    }
    fn take_right(&mut self) -> Vec<u8> {
        self.take_toward_server()
    }
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        self.drain_toward_client_into(dst)
    }
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        self.drain_toward_server_into(dst)
    }
    fn failed(&self) -> Option<MbError> {
        self.error()
    }
}

/// The byte-moving substrate connecting adjacent parties in a
/// [`Chain`]: link `i` joins party `i` (left end) to party `i + 1`
/// (right end). "Rightward" bytes travel client→server.
///
/// [`Chain::pump_with`] is generic over this trait, so the in-memory
/// pipe driver and the netsim driver share one pump loop.
pub trait ChainLinks {
    /// Drain bytes that arrived at link `link`'s right end.
    fn recv_rightward(&mut self, link: usize) -> Result<Vec<u8>, MbError>;
    /// Drain bytes that arrived at link `link`'s left end.
    fn recv_leftward(&mut self, link: usize) -> Result<Vec<u8>, MbError>;
    /// Party `from` (the link's left party) sends toward the server.
    fn send_rightward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError>;
    /// Party `from` (the link's right party) sends toward the client.
    fn send_leftward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError>;

    /// Append link `link`'s right-end bytes to `dst`, keeping its
    /// capacity; returns true if any bytes arrived. Default goes
    /// through the allocating recv; buffer-backed links override.
    fn recv_rightward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        let data = self.recv_rightward(link)?;
        dst.extend_from_slice(&data);
        Ok(!data.is_empty())
    }

    /// Append link `link`'s left-end bytes to `dst`, keeping its
    /// capacity; returns true if any bytes arrived.
    fn recv_leftward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        let data = self.recv_leftward(link)?;
        dst.extend_from_slice(&data);
        Ok(!data.is_empty())
    }

    /// Lend link `link`'s client→server buffer itself. `Some` is a
    /// promise that the buffer *is* the link: bytes appended to it
    /// are sent, bytes removed from it are received, and nothing else
    /// needs to see them pass. [`Chain`] then drains the left party
    /// straight into it and feeds the right party straight from it.
    /// Default `None`: a link that must see each send as a `&[u8]` (a
    /// network model, a byte meter) is staged through instead.
    fn lend_rightward(&mut self, link: usize) -> Option<&mut Vec<u8>> {
        let _ = link;
        None
    }

    /// Lend link `link`'s server→client buffer itself; see
    /// [`ChainLinks::lend_rightward`].
    fn lend_leftward(&mut self, link: usize) -> Option<&mut Vec<u8>> {
        let _ = link;
        None
    }
}

/// Zero-latency in-memory links: plain byte buffers per direction.
#[derive(Default)]
pub struct PipeLinks {
    rightward: Vec<Vec<u8>>,
    leftward: Vec<Vec<u8>>,
}

impl PipeLinks {
    /// Buffers for `links` links.
    pub fn new(links: usize) -> Self {
        PipeLinks {
            rightward: vec![Vec::new(); links],
            leftward: vec![Vec::new(); links],
        }
    }

    fn ensure(&mut self, links: usize) {
        self.rightward.resize_with(links, Vec::new);
        self.leftward.resize_with(links, Vec::new);
    }

    /// Bytes sent and not yet received, over every link and both
    /// directions.
    pub fn buffered(&self) -> usize {
        self.rightward.iter().chain(&self.leftward).map(Vec::len).sum()
    }

    /// Allocated capacity parked on the links in one direction
    /// (`rightward`: client→server), summed over links.
    pub fn capacity(&self, rightward: bool) -> usize {
        let lanes = if rightward { &self.rightward } else { &self.leftward };
        lanes.iter().map(Vec::capacity).sum()
    }

    fn lane(&mut self, link: usize, rightward: bool) -> &mut Vec<u8> {
        if rightward {
            &mut self.rightward[link]
        } else {
            &mut self.leftward[link]
        }
    }
}

impl ChainLinks for PipeLinks {
    fn recv_rightward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        Ok(std::mem::take(&mut self.rightward[link]))
    }
    fn recv_leftward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        Ok(std::mem::take(&mut self.leftward[link]))
    }
    fn send_rightward(&mut self, link: usize, _from: usize, data: &[u8]) -> Result<(), MbError> {
        self.rightward[link].extend_from_slice(data);
        Ok(())
    }
    fn send_leftward(&mut self, link: usize, _from: usize, data: &[u8]) -> Result<(), MbError> {
        self.leftward[link].extend_from_slice(data);
        Ok(())
    }
    fn recv_rightward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        let src = &mut self.rightward[link];
        let any = !src.is_empty();
        dst.extend_from_slice(src);
        src.clear();
        Ok(any)
    }
    fn recv_leftward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        let src = &mut self.leftward[link];
        let any = !src.is_empty();
        dst.extend_from_slice(src);
        src.clear();
        Ok(any)
    }
    fn lend_rightward(&mut self, link: usize) -> Option<&mut Vec<u8>> {
        Some(&mut self.rightward[link])
    }
    fn lend_leftward(&mut self, link: usize) -> Option<&mut Vec<u8>> {
        Some(&mut self.leftward[link])
    }
}

/// [`PipeLinks`] that show each send to a tap before carrying it:
/// `tap(link, rightward, bytes)` sees one party's output per
/// [`Chain::pump_with`] pass, as the link took it. They never lend a
/// buffer, so [`Chain`] stages every transfer the way it does under the
/// network simulator. The tap only watches: the bytes arrive as sent.
pub struct TapLinks<F> {
    pipes: PipeLinks,
    tap: F,
}

impl<F: FnMut(usize, bool, &[u8])> TapLinks<F> {
    /// Links for a chain of `links` links, every send shown to `tap`.
    pub fn new(links: usize, tap: F) -> Self {
        TapLinks { pipes: PipeLinks::new(links), tap }
    }

    /// Bytes sent and not yet received ([`PipeLinks::buffered`]).
    pub fn buffered(&self) -> usize {
        self.pipes.buffered()
    }

    /// Capacity parked on the links in one direction
    /// ([`PipeLinks::capacity`]).
    pub fn capacity(&self, rightward: bool) -> usize {
        self.pipes.capacity(rightward)
    }
}

impl<F: FnMut(usize, bool, &[u8])> ChainLinks for TapLinks<F> {
    fn recv_rightward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        self.pipes.recv_rightward(link)
    }
    fn recv_leftward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        self.pipes.recv_leftward(link)
    }
    fn send_rightward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        (self.tap)(link, true, data);
        self.pipes.send_rightward(link, from, data)
    }
    fn send_leftward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        (self.tap)(link, false, data);
        self.pipes.send_leftward(link, from, data)
    }
    fn recv_rightward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        self.pipes.recv_rightward_into(link, dst)
    }
    fn recv_leftward_into(&mut self, link: usize, dst: &mut Vec<u8>) -> Result<bool, MbError> {
        self.pipes.recv_leftward_into(link, dst)
    }
}

/// A chain of parties connected by zero-latency in-memory pipes.
pub struct Chain {
    /// The client endpoint.
    pub client: Box<dyn Endpoint>,
    /// Middleboxes/relays, client side first.
    pub middles: Vec<Box<dyn Relay>>,
    /// The server endpoint.
    pub server: Box<dyn Endpoint>,
    /// The pipe driver's own links. [`Chain::pump`] pumps over them
    /// and they lend their buffers, so a party's output is handed to
    /// the link and the next party is fed from it with no copy in
    /// between. Under links that do not lend ([`Chain::pump_with`]
    /// over a network model) the same per-link, per-direction buffers
    /// are what a party is drained into before the link sees the
    /// bytes (party→buffer→link). Either way a party's drain only
    /// ever meets the buffer of its own link and direction, so the
    /// buffers a drain trades (see [`Endpoint::take_into`]) stay
    /// sized for that direction's traffic.
    links: PipeLinks,
    /// Where bytes received from a link that does not lend wait to be
    /// fed to a party (link→scratch→party). Feeding only reads it, so
    /// one buffer serves every link and direction; drains never see
    /// it.
    scratch: Vec<u8>,
    /// When true, [`Chain::pump_with`] leaves deferred signature
    /// checks for the driver to collect (host batching); when false
    /// (default) it discharges them inline each pass, so
    /// `defer_verify` configs work under every driver.
    defer_verify_to_driver: bool,
}

impl Chain {
    /// Build a chain.
    pub fn new(
        client: Box<dyn Endpoint>,
        middles: Vec<Box<dyn Relay>>,
        server: Box<dyn Endpoint>,
    ) -> Self {
        let links = PipeLinks::new(middles.len() + 1);
        Chain {
            client,
            middles,
            server,
            links,
            scratch: Vec::new(),
            defer_verify_to_driver: false,
        }
    }

    /// Leave deferred signature checks uncollected during pumps; the
    /// driver promises to drain [`Chain::take_pending_verifies`] and
    /// deliver verdicts via [`Chain::resolve_verify`] (the host does
    /// this once per turn, batched across sessions).
    pub fn set_defer_verify_to_driver(&mut self, defer: bool) {
        self.defer_verify_to_driver = defer;
    }

    /// Collect deferred signature-check groups from the chain's
    /// endpoint parties; each is tagged with the party index (0 =
    /// client, `parties() - 1` = server) for
    /// [`Chain::resolve_verify`]. Middlebox relays verify inline and
    /// contribute nothing.
    pub fn take_pending_verifies(&mut self, out: &mut Vec<(usize, PendingVerify)>) {
        let mut tmp = Vec::new();
        self.client.take_pending_verifies(&mut tmp);
        for pv in tmp.drain(..) {
            out.push((0, pv));
        }
        self.server.take_pending_verifies(&mut tmp);
        let server_idx = self.middles.len() + 1;
        for pv in tmp.drain(..) {
            out.push((server_idx, pv));
        }
    }

    /// Deliver the verdict for a group collected with
    /// [`Chain::take_pending_verifies`].
    pub fn resolve_verify(&mut self, party: usize, token: u32, valid: bool) {
        if party == 0 {
            self.client.resolve_verify(token, valid);
        } else {
            self.server.resolve_verify(token, valid);
        }
    }

    /// Discharge any deferred checks here, one batch per group.
    /// Returns the number of groups resolved.
    pub(crate) fn discharge_pending_verifies(&mut self) -> usize {
        let mut pending = Vec::new();
        self.take_pending_verifies(&mut pending);
        let groups = pending.len();
        for (party, pv) in pending {
            let ok = verify_checks(&pv.checks).all_valid();
            self.resolve_verify(party, pv.token, ok);
        }
        groups
    }

    /// Capacity the chain's own link buffers hold in one direction
    /// ([`PipeLinks::capacity`]). The hand-over rule keeps this at
    /// that direction's traffic or less; the bench gate watches it.
    pub fn link_capacity(&self, rightward: bool) -> usize {
        self.links.capacity(rightward)
    }

    /// Number of parties (client + middleboxes + server).
    pub fn parties(&self) -> usize {
        self.middles.len() + 2
    }

    /// Party `i` (0 = client, `parties() - 1` = server, middleboxes in
    /// between) as the type it was built as, or `None` if it is another
    /// type or `i` is past the server.
    pub fn party<T: Any>(&mut self, i: usize) -> Option<&mut T> {
        let server = self.middles.len() + 1;
        let party: &mut dyn Any = match i {
            0 => &mut *self.client,
            i if i == server => &mut *self.server,
            i if i < server => &mut *self.middles[i - 1],
            _ => return None,
        };
        party.downcast_mut()
    }

    /// The first fatal error any party reports, scanning client →
    /// middleboxes → server. This is how a multi-session driver
    /// distinguishes a dead chain from a merely quiescent one.
    pub fn failed(&self) -> Option<MbError> {
        self.client
            .failed()
            .or_else(|| self.middles.iter().find_map(|m| m.failed()))
            .or_else(|| self.server.failed())
    }

    fn feed_party(&mut self, i: usize, from_left: bool, data: &[u8]) -> Result<(), MbError> {
        let n = self.middles.len() + 2;
        if i == 0 {
            self.client.feed(data)
        } else if i == n - 1 {
            self.server.feed(data)
        } else if from_left {
            self.middles[i - 1].feed_left(data)
        } else {
            self.middles[i - 1].feed_right(data)
        }
    }

    fn take_party_into(&mut self, i: usize, toward_left: bool, dst: &mut Vec<u8>) {
        let n = self.middles.len() + 2;
        if i == 0 {
            self.client.take_into(dst)
        } else if i == n - 1 {
            self.server.take_into(dst)
        } else if toward_left {
            self.middles[i - 1].take_left_into(dst)
        } else {
            self.middles[i - 1].take_right_into(dst)
        }
    }

    /// Feed the party at the receiving end of `link` whatever the link
    /// holds in one direction. Returns true if anything moved. The
    /// link's bytes are consumed even when the party refuses them.
    fn deliver(
        &mut self,
        links: &mut dyn ChainLinks,
        link: usize,
        rightward: bool,
    ) -> Result<bool, MbError> {
        let to = if rightward { link + 1 } else { link };
        let lent = if rightward { links.lend_rightward(link) } else { links.lend_leftward(link) };
        if let Some(buf) = lent {
            if buf.is_empty() {
                return Ok(false);
            }
            let fed = self.feed_party(to, rightward, buf);
            buf.clear();
            return fed.map(|()| true);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let arrived = if rightward {
            links.recv_rightward_into(link, &mut scratch)
        } else {
            links.recv_leftward_into(link, &mut scratch)
        };
        let fed = arrived.and_then(|any| {
            if any {
                self.feed_party(to, rightward, &scratch)?;
            }
            Ok(any)
        });
        self.scratch = scratch;
        fed
    }

    /// Hand the pending output of the party at the sending end of
    /// `link` to the link, in one direction. Returns true if anything
    /// moved.
    fn collect(
        &mut self,
        links: &mut dyn ChainLinks,
        link: usize,
        rightward: bool,
    ) -> Result<bool, MbError> {
        let from = if rightward { link } else { link + 1 };
        let lent = if rightward { links.lend_rightward(link) } else { links.lend_leftward(link) };
        if let Some(buf) = lent {
            let before = buf.len();
            self.take_party_into(from, !rightward, buf);
            return Ok(buf.len() > before);
        }
        // The chain's own buffer for this link and direction is idle
        // under foreign links; it moves aside while the party fills it.
        self.links.ensure(self.middles.len() + 1);
        let mut staged = std::mem::take(self.links.lane(link, rightward));
        staged.clear();
        self.take_party_into(from, !rightward, &mut staged);
        let sent = if staged.is_empty() {
            Ok(false)
        } else if rightward {
            links.send_rightward(link, from, &staged).map(|()| true)
        } else {
            links.send_leftward(link, from, &staged).map(|()| true)
        };
        staged.clear();
        *self.links.lane(link, rightward) = staged;
        sent
    }

    /// Deliver bytes waiting on party `i`'s adjacent links into the
    /// party (left link first). Returns true if anything moved. One
    /// half of a [`Chain::pump_with`] pass.
    fn deliver_to_party(&mut self, links: &mut dyn ChainLinks, i: usize) -> Result<bool, MbError> {
        let mut moved = false;
        if i > 0 {
            moved |= self.deliver(links, i - 1, true)?;
        }
        if i < self.parties() - 1 {
            moved |= self.deliver(links, i, false)?;
        }
        Ok(moved)
    }

    /// Collect party `i`'s pending output into its adjacent links
    /// (rightward first). Returns true if anything moved. The other
    /// half of a [`Chain::pump_with`] pass.
    fn collect_from_party(&mut self, links: &mut dyn ChainLinks, i: usize) -> Result<bool, MbError> {
        let mut moved = false;
        if i < self.parties() - 1 {
            moved |= self.collect(links, i, true)?;
        }
        if i > 0 {
            moved |= self.collect(links, i - 1, false)?;
        }
        Ok(moved)
    }

    /// One pass over every party: deliver whatever each link holds,
    /// then collect each party's output back into the links. Bytes
    /// advance at most one link per pass. Returns true if anything
    /// moved.
    ///
    /// Per-party order is fixed (ascending; deliver left link before
    /// right, collect rightward before leftward) so that virtual-time
    /// runs are reproducible.
    pub fn pump_with(&mut self, links: &mut dyn ChainLinks) -> Result<bool, MbError> {
        let n = self.middles.len() + 2;
        let mut moved = false;
        // Deliver incoming bytes to each party.
        for i in 0..n {
            moved |= self.deliver_to_party(links, i)?;
        }
        // Collect outgoing bytes from each party into the links.
        for i in 0..n {
            moved |= self.collect_from_party(links, i)?;
        }
        // Discharge deferred verifies inline unless a batching driver
        // claimed them; resolution can unblock establishment or queue
        // an alert, so it counts as movement.
        if !self.defer_verify_to_driver {
            moved |= self.discharge_pending_verifies() > 0;
        }
        Ok(moved)
    }

    /// Move bytes along the chain in both directions until nothing
    /// more moves at this instant (pipes have no latency, so one call
    /// carries bytes across the whole chain). Returns true if any
    /// bytes moved.
    pub fn pump(&mut self) -> Result<bool, MbError> {
        self.links.ensure(self.middles.len() + 1);
        let mut links = std::mem::take(&mut self.links);
        let mut moved_any = false;
        // Generous cap: a handshake needs a handful of passes; only a
        // byte-generating livelock could approach it.
        let result = (|| {
            for _ in 0..10_000 {
                if !self.pump_with(&mut links)? {
                    // Nothing moved, so nothing may be left waiting:
                    // a byte stranded on a link would never arrive.
                    debug_assert_eq!(links.buffered(), 0, "quiescent chain left bytes on a link");
                    break;
                }
                moved_any = true;
            }
            Ok(moved_any)
        })();
        self.links = links;
        result
    }

    /// Pump until both endpoints are ready (or nothing moves).
    pub fn run_handshake(&mut self) -> Result<(), MbError> {
        for _ in 0..200 {
            let moved = self.pump()?;
            if self.client.ready() && self.server.ready() {
                // Final drain so trailing control records are applied.
                self.pump()?;
                return Ok(());
            }
            if !moved {
                // Allow a few idle iterations for internal state to
                // settle (key distribution can need a second pass).
                let moved2 = self.pump()?;
                if !(moved2 || (self.client.ready() && self.server.ready())) {
                    return Err(MbError::unexpected_state("handshake stalled"));
                }
            }
        }
        if self.client.ready() && self.server.ready() {
            Ok(())
        } else {
            Err(MbError::unexpected_state("handshake did not complete"))
        }
    }

    /// Send a request from the client and pump until the server
    /// received `expect_len` bytes (or progress stops).
    pub fn client_to_server(&mut self, data: &[u8], expect_len: usize) -> Result<Vec<u8>, MbError> {
        self.client.send_app(data)?;
        let mut received = Vec::new();
        for _ in 0..200 {
            self.pump()?;
            self.server.recv_app_into(&mut received);
            if received.len() >= expect_len {
                break;
            }
        }
        Ok(received)
    }

    /// Send a response from the server and pump until the client
    /// received `expect_len` bytes.
    pub fn server_to_client(&mut self, data: &[u8], expect_len: usize) -> Result<Vec<u8>, MbError> {
        self.server.send_app(data)?;
        let mut received = Vec::new();
        for _ in 0..200 {
            self.pump()?;
            self.client.recv_app_into(&mut received);
            if received.len() >= expect_len {
                break;
            }
        }
        Ok(received)
    }
}

/// Timing results from a simulated session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTiming {
    /// Virtual time from first byte to both endpoints ready.
    pub handshake: Duration,
    /// Virtual time from request send to full response receipt.
    pub transfer: Duration,
}

impl SessionTiming {
    /// Recover the timings from a telemetry trace containing the
    /// driver's `SessionStart` / `SessionHandshakeDone` /
    /// `SessionTransferDone` events (first occurrence each).
    pub fn from_trace(events: &[Event]) -> Option<SessionTiming> {
        let mut start = None;
        let mut handshake_done = None;
        let mut transfer_done = None;
        for e in events {
            match e.kind {
                EventKind::SessionStart if start.is_none() => start = Some(e.ts_ns),
                EventKind::SessionHandshakeDone if handshake_done.is_none() => {
                    handshake_done = Some(e.ts_ns)
                }
                EventKind::SessionTransferDone if transfer_done.is_none() => {
                    transfer_done = Some(e.ts_ns)
                }
                _ => {}
            }
        }
        let (s, h, d) = (start?, handshake_done?, transfer_done?);
        Some(SessionTiming {
            handshake: Duration(h.saturating_sub(s)),
            transfer: Duration(d.saturating_sub(h)),
        })
    }
}

/// A chain whose links run through the network simulator, yielding
/// virtual-time measurements (Figure 6, Table 2).
pub struct NetChain<'n> {
    net: &'n mut Network,
    /// Party nodes, client first, server last.
    pub nodes: Vec<NodeId>,
    /// Connections between adjacent parties.
    pub conns: Vec<ConnId>,
    /// The chain itself.
    pub chain: Chain,
    /// Virtual compute time charged per output flush, per party
    /// (models handshake computation; zero by default).
    pub compute_delays: Vec<Duration>,
    telemetry: Option<SharedSink>,
}

/// [`ChainLinks`] over one chain's simulator connections — the one
/// implementation under both [`NetChain`] and the session host's
/// network substrate. Receives drain whatever is deliverable at the
/// current virtual time; sends are metered and charge the sender's
/// compute delay.
pub struct NetLinks<'a> {
    /// The simulator the connections live in.
    pub net: &'a mut Network,
    /// Party nodes, client first, server last.
    pub nodes: &'a [NodeId],
    /// Connections between adjacent parties.
    pub conns: &'a [ConnId],
    /// Virtual compute time charged per send, by sending party; a
    /// party past the end of the slice is charged none.
    pub compute_delays: &'a [Duration],
    /// Bytes sent over these links so far.
    pub bytes: u64,
}

impl NetLinks<'_> {
    fn send(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.bytes += data.len() as u64;
        let delay = self.compute_delays.get(from).copied().unwrap_or(Duration::ZERO);
        Ok(self.net.send_with_delay(self.conns[link], self.nodes[from], data, delay)?)
    }
}

impl ChainLinks for NetLinks<'_> {
    fn recv_rightward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        Ok(self.net.recv(self.conns[link], self.nodes[link + 1])?)
    }
    fn recv_leftward(&mut self, link: usize) -> Result<Vec<u8>, MbError> {
        Ok(self.net.recv(self.conns[link], self.nodes[link])?)
    }
    fn send_rightward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.send(link, from, data)
    }
    fn send_leftward(&mut self, link: usize, from: usize, data: &[u8]) -> Result<(), MbError> {
        self.send(link, from, data)
    }
}

impl<'n> NetChain<'n> {
    /// Build over the given network: one node per party, one
    /// connection per adjacent pair with the given per-link latency
    /// and fault configs.
    pub fn new(
        net: &'n mut Network,
        chain: Chain,
        latencies: &[Duration],
        faults: &[FaultConfig],
    ) -> Self {
        let n_parties = chain.middles.len() + 2;
        assert_eq!(latencies.len(), n_parties - 1, "one latency per link");
        assert_eq!(faults.len(), n_parties - 1, "one fault config per link");
        let mut nodes = Vec::with_capacity(n_parties);
        for i in 0..n_parties {
            let name = if i == 0 {
                "client".to_string()
            } else if i == n_parties - 1 {
                "server".to_string()
            } else {
                format!("mbox-{i}")
            };
            nodes.push(net.add_node(&name));
        }
        let mut conns = Vec::with_capacity(n_parties - 1);
        for i in 0..n_parties - 1 {
            conns.push(net.connect_with(
                nodes[i],
                nodes[i + 1],
                latencies[i],
                None,
                faults[i].clone(),
            ));
        }
        let n = nodes.len();
        NetChain {
            net,
            nodes,
            conns,
            chain,
            compute_delays: vec![Duration::ZERO; n],
            telemetry: None,
        }
    }

    /// Attach a telemetry sink: the network emits link events through
    /// it, the driver emits session-phase events, and its clock is
    /// advanced in lock-step with virtual time.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        sink.clock().set_ns(self.net.now().0);
        self.net.set_telemetry(sink.clone());
        self.telemetry = Some(sink);
    }

    fn emit_phase(&self, ts: SimTime, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.emit_at(ts.0, Party::Network, kind);
        }
    }

    /// Charge `delay` of virtual compute time per output flush for
    /// party `index` (0 = client, last = server).
    pub fn set_compute_delay(&mut self, index: usize, delay: Duration) {
        self.compute_delays[index] = delay;
    }

    /// Move all pending bytes between parties and the network at the
    /// current virtual time — one [`Chain::pump_with`] pass over
    /// [`NetLinks`]. Returns true if anything moved.
    fn exchange(&mut self) -> Result<bool, MbError> {
        let mut links = NetLinks {
            net: &mut *self.net,
            nodes: &self.nodes,
            conns: &self.conns,
            compute_delays: &self.compute_delays,
            bytes: 0,
        };
        self.chain.pump_with(&mut links)
    }

    /// One simulation tick: drain exchanges at the current instant,
    /// then advance virtual time to the next delivery. Returns false
    /// when the network is quiescent.
    pub fn tick(&mut self) -> Result<bool, MbError> {
        while self.exchange()? {}
        match self.net.next_event_time() {
            Some(t) => {
                self.net.advance_to(t);
                while self.exchange()? {}
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Run until `done` returns true, advancing virtual time through
    /// the event queue. Errors if the network goes quiescent first or
    /// the virtual deadline passes.
    pub fn run_until(
        &mut self,
        deadline: Duration,
        mut done: impl FnMut(&Chain) -> bool,
    ) -> Result<SimTime, MbError> {
        let start = self.net.now();
        loop {
            // Drain exchanges at the current instant to a fixpoint.
            while self.exchange()? {}
            if done(&self.chain) {
                return Ok(self.net.now());
            }
            match self.net.next_event_time() {
                Some(t) => {
                    if t.since(start) > deadline {
                        return Err(MbError::unexpected_state("virtual deadline exceeded"));
                    }
                    self.net.advance_to(t);
                }
                None => return Err(MbError::unexpected_state("network quiescent before completion")),
            }
        }
    }

    /// Handshake, then a request/response exchange: the client sends
    /// `request`, the server (once the full request arrived) replies
    /// with `response_len` bytes, and the transfer completes when the
    /// client has the whole response. Returns virtual timings.
    pub fn run_session(
        &mut self,
        request: &[u8],
        response_len: usize,
        deadline: Duration,
    ) -> Result<SessionTiming, MbError> {
        let t0 = self.net.now();
        self.emit_phase(t0, EventKind::SessionStart);
        let hs_done = self.run_until(deadline, |c| c.client.ready() && c.server.ready())?;
        let handshake = hs_done.since(t0);
        self.emit_phase(hs_done, EventKind::SessionHandshakeDone);

        let t1 = self.net.now();
        self.chain.client.send_app(request)?;
        let mut got_req = 0usize;
        let mut responded = false;
        let mut got_resp = 0usize;
        // One buffer for all three jobs: counting what the server
        // received, holding the response, counting what the client
        // received. (A drain may trade it for an endpoint's own; with
        // one exchange per session there is no steady state for the
        // mixed sizes to unsettle.)
        let mut buf = Vec::new();
        loop {
            while self.exchange()? {}
            buf.clear();
            self.chain.server.recv_app_into(&mut buf);
            got_req += buf.len();
            if !responded && got_req >= request.len() {
                buf.clear();
                buf.resize(response_len, 0x42);
                self.chain.server.send_app(&buf)?;
                responded = true;
                continue; // flush the fresh response bytes
            }
            buf.clear();
            self.chain.client.recv_app_into(&mut buf);
            got_resp += buf.len();
            if responded && got_resp >= response_len {
                self.emit_phase(self.net.now(), EventKind::SessionTransferDone);
                return Ok(SessionTiming {
                    handshake,
                    transfer: self.net.now().since(t1),
                });
            }
            match self.net.next_event_time() {
                Some(t) if t.since(t0) <= deadline => self.net.advance_to(t),
                _ => return Err(MbError::unexpected_state("transfer stalled")),
            }
        }
    }
}
