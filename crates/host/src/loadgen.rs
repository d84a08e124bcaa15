//! Seeded load generator: opens sessions against a
//! [`Host`](crate::host::Host) (or a single
//! [`Shard`](crate::shard::Shard)) on a deterministic arrival
//! schedule and drives the event loop until the fleet drains.
//!
//! Sessions close as their workloads complete while later arrivals
//! are still opening, so a run exercises exactly the open/close churn
//! the slab and timer queue exist for. Everything derives from one
//! seed — and, crucially for sharding, each session's randomness
//! derives from the *global session index*, not from a sequential
//! stream: session `i` is byte-identical whether the load is driven
//! through the facade's round-robin or sliced per shard with
//! [`LoadGenerator::slice`]. Two runs with the same [`LoadConfig`]
//! produce bit-identical telemetry traces and
//! [`HostCounters`](crate::host::HostCounters), however the fleet is
//! partitioned.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::baseline::NaiveKeyShare;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, Relay};
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_core::server::MbServerSession;
use mbtls_core::{MbClientConfig, MbError, MbServerConfig, MiddleboxAuthMode};
use mbtls_crypto::rng::CryptoRng;
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;

use mbtls_telemetry::{Party, SharedSink};

use crate::host::{Reactor, SessionSpec};
use crate::session::Workload;

/// Which service-function chain each middlebox-cadence session runs.
///
/// Replaces the old fixed `service_chain: bool` switch: the mix is
/// part of the [`LoadConfig`], and the [`Seeded`](ChainMix::Seeded)
/// variant composes a *different* chain per session, derived from the
/// global session index so shard slices reproduce it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainMix {
    /// One pass-through middlebox, no processors (the lightest path).
    #[default]
    PassThrough,
    /// Every chain session runs the full Slick-style web chain
    /// (filter → cache → compression, three middleboxes).
    SlickWeb,
    /// Seeded per-session composition: session `i` draws a non-empty
    /// prefix of the Slick chain from its index-derived seed, so one
    /// fleet mixes 1-, 2-, and 3-function chains deterministically.
    Seeded,
}

/// Domain-separation salt so the chain-mix draw never aliases the
/// per-session RNG seed derived from the same `(seed, index)` pair.
const CHAIN_MIX_SALT: u64 = 0x00C4_A1A1_1CE5_u64;

impl ChainMix {
    /// The service chain session `index` runs, or `None` for a single
    /// pass-through middlebox. Index-addressed, like everything else
    /// the generator derives, so slices agree with the full run.
    pub fn compose(self, seed: u64, index: u64) -> Option<mbtls_mboxes::ServiceChain> {
        match self {
            ChainMix::PassThrough => None,
            ChainMix::SlickWeb => Some(mbtls_mboxes::ServiceChain::slick_web()),
            ChainMix::Seeded => {
                let full = mbtls_mboxes::ServiceChain::slick_web();
                let n = 1 + (session_seed(seed ^ CHAIN_MIX_SALT, index) as usize % full.len());
                Some(full.prefix(n))
            }
        }
    }
}

/// Shape of a generated load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total sessions to open.
    pub sessions: usize,
    /// Virtual time between consecutive arrivals.
    pub arrival_spacing: Duration,
    /// Every `n`th session gets one middlebox (0 = none ever).
    pub middlebox_every: usize,
    /// Per-link one-way latency for generated sessions.
    pub latency: Duration,
    /// Post-handshake workload per session.
    pub workload: Workload,
    /// Seed for the PKI testbed and every per-session RNG.
    pub seed: u64,
    /// Reconnect storm: prime one session ticket before the run (a
    /// deterministic out-of-band handshake) and hand it to every
    /// generated client, so abbreviated resumption handshakes — no
    /// certificate transfer, no signature checks — are the hot path.
    pub resumption_storm: bool,
    /// In a storm, every `n`th session offers a corrupted (stale)
    /// ticket instead; the server rejects the seal and falls back to
    /// a full handshake (0 = every ticket fresh). Models tickets that
    /// outlived the server's cache.
    pub stale_every: usize,
    /// Endpoints defer certificate/signature checks
    /// (`ClientConfig::defer_verify`) for the shard's end-of-turn
    /// batched verification flush instead of verifying inline.
    pub defer_verify: bool,
    /// Service-chain composition for sessions on the
    /// `middlebox_every` cadence (see [`ChainMix`]).
    pub chain_mix: ChainMix,
    /// Clients declare the whole path read-only and reuse the bridge
    /// keys for every hop (`MbClientConfig::read_only_middleboxes`),
    /// so pass-through middleboxes take the tag-verify forward fast
    /// path. Combining this with a non-trivial `chain_mix` works only
    /// because the chain's processors leave this workload's raw
    /// (non-HTTP) bytes untouched: an aliased hop holds no key to seal
    /// with, so their records leave as they arrived, and a middlebox
    /// that actually modified a record there would fail its session
    /// rather than reuse an AES-GCM nonce.
    pub read_only_path: bool,
    /// How endpoints authenticate the middleboxes in generated
    /// sessions: SGX-attested (paper mbTLS), delegated credentials
    /// (mdTLS-style, DESIGN.md §6j), or key-shared (naive baseline —
    /// the middlebox is a [`NaiveKeyShare`] relay with no identity
    /// and no secondary handshake at all).
    pub auth_mode: MiddleboxAuthMode,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 100,
            arrival_spacing: Duration::from_micros(500),
            middlebox_every: 4,
            latency: Duration::from_micros(50),
            workload: Workload::default(),
            seed: 7,
            resumption_storm: false,
            stale_every: 0,
            defer_verify: false,
            chain_mix: ChainMix::PassThrough,
            read_only_path: false,
            auth_mode: MiddleboxAuthMode::SgxAttested,
        }
    }
}

/// splitmix64-style finalizer deriving session `index`'s RNG seed
/// from the run seed. Index-addressed (not stream-positional), so a
/// shard slice reproduces exactly the sessions it would have been
/// dealt by the full run.
fn session_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds session chains from one shared PKI testbed and opens them
/// on schedule. [`LoadGenerator::new`] generates the whole run;
/// [`LoadGenerator::slice`] generates one shard's residue class of
/// it (sessions `i` with `i ≡ shard (mod shards)`), producing specs
/// byte-identical to the full run's.
pub struct LoadGenerator {
    testbed: Testbed,
    client_cfg: Arc<MbClientConfig>,
    /// Storm variant of `client_cfg` whose cached ticket is
    /// corrupted, for the `stale_every` cadence (None outside
    /// storms).
    client_cfg_stale: Option<Arc<MbClientConfig>>,
    server_cfg: Arc<MbServerConfig>,
    config: LoadConfig,
    /// Sink plugged into every generated middlebox's config, so
    /// record-level relay events (decrypt/encrypt/fast-forward) land
    /// in the host's trace (None = middlebox telemetry off).
    telemetry: Option<SharedSink>,
    /// This generator's residue class: `(shard, shards)`.
    shard: u64,
    shards: u64,
    /// Sessions already produced from this slice.
    produced: usize,
}

impl LoadGenerator {
    /// Stand up certificates, trust stores, and attestation once;
    /// every generated session shares them.
    pub fn new(config: LoadConfig) -> Self {
        LoadGenerator::slice(config, 0, 1)
    }

    /// The slice of `config`'s run owned by `shard` out of `shards`:
    /// global sessions `shard, shard + shards, shard + 2·shards, …`.
    /// Each slice builds its own (identical, same-seed) testbed, so
    /// per-shard generators stay shared-nothing.
    pub fn slice(config: LoadConfig, shard: u16, shards: u16) -> Self {
        let testbed = Testbed::new(config.seed);
        // Delegated fleets swap both endpoint configs: the server
        // carries the credential issuer's delegation policy and the
        // client verifies credentials instead of SGX quotes. The
        // key-shared baseline keeps plain endpoint configs — its
        // middleboxes never run a secondary handshake to authorize.
        let server_cfg = Arc::new(match config.auth_mode {
            MiddleboxAuthMode::Delegated => testbed.server_config_delegated(),
            MiddleboxAuthMode::SgxAttested | MiddleboxAuthMode::KeyShared => {
                testbed.server_config()
            }
        });
        let mut client_cfg = match config.auth_mode {
            MiddleboxAuthMode::Delegated => testbed.client_config_delegated(),
            MiddleboxAuthMode::SgxAttested | MiddleboxAuthMode::KeyShared => {
                testbed.client_config()
            }
        };
        client_cfg.tls.defer_verify = config.defer_verify;
        client_cfg.read_only_middleboxes = config.read_only_path;
        let mut client_cfg_stale = None;
        if config.resumption_storm {
            let ticket = Self::prime_ticket(&testbed, config.seed);
            client_cfg
                .tls
                .resumption_cache
                .insert("server.example".to_string(), ticket.clone());
            if config.stale_every > 0 {
                // A byte flipped mid-ciphertext breaks the ticket's
                // AEAD seal: the server silently falls back to a full
                // handshake, which is exactly what a ticket evicted
                // from the server's rotation would get.
                let mut stale = ticket;
                if let Some(bytes) = &mut stale.ticket {
                    if let Some(mid) = bytes.len().checked_sub(1) {
                        bytes[mid / 2] ^= 0x01;
                    }
                }
                let mut cfg = testbed.client_config();
                cfg.tls.defer_verify = config.defer_verify;
                cfg.tls.resumption_cache.insert("server.example".to_string(), stale);
                client_cfg_stale = Some(Arc::new(cfg));
            }
        }
        LoadGenerator {
            testbed,
            client_cfg: Arc::new(client_cfg),
            client_cfg_stale,
            server_cfg,
            config,
            telemetry: None,
            shard: shard as u64,
            shards: shards.max(1) as u64,
            produced: 0,
        }
    }

    /// One deterministic out-of-band full handshake against the
    /// testbed's server, yielding the session ticket every storm
    /// client resumes from. Derived from a reserved session index so
    /// it can never collide with a generated session's RNG stream.
    fn prime_ticket(testbed: &Testbed, seed: u64) -> mbtls_tls::session::ResumptionData {
        let mut rng = CryptoRng::from_seed(session_seed(seed, u64::MAX));
        let client = MbClientSession::new(
            Arc::new(testbed.client_config()),
            "server.example",
            rng.fork(),
        );
        let server = MbServerSession::new(Arc::new(testbed.server_config()), rng.fork());
        let mut chain = Chain::new(Box::new(client), Vec::new(), Box::new(server));
        chain
            .run_handshake()
            .expect("priming handshake over in-memory pipes cannot fail");
        chain
            .client
            .resumption()
            .expect("testbed server issues tickets; priming handshake must yield one")
    }

    /// Attach a telemetry sink to every middlebox this generator
    /// builds from here on (shares the host's sink and clock, so
    /// relay record events interleave with host lifecycle events).
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        self.telemetry = Some(sink);
    }

    /// The middlebox config matching the run's auth mode.
    fn middlebox_config(&self) -> MiddleboxConfig {
        match self.config.auth_mode {
            MiddleboxAuthMode::Delegated => self.testbed.middlebox_config_delegated(),
            MiddleboxAuthMode::SgxAttested | MiddleboxAuthMode::KeyShared => {
                self.testbed.middlebox_config(&self.testbed.mbox_code)
            }
        }
    }

    /// Global index of the next session this slice will produce.
    fn next_index(&self) -> u64 {
        self.shard + self.produced as u64 * self.shards
    }

    /// Sessions of this slice not yet opened.
    pub fn remaining(&self) -> usize {
        let total = self.config.sessions as u64;
        if self.shard >= total {
            return 0;
        }
        // Count of i < total with i ≡ shard (mod shards).
        let slice_total = ((total - self.shard - 1) / self.shards + 1) as usize;
        slice_total - self.produced
    }

    /// When the next session is due to open, if any remain. Arrival
    /// times are global (index × spacing), so sliced shards see the
    /// same schedule the full run would give their sessions.
    pub fn next_arrival(&self) -> Option<SimTime> {
        (self.remaining() > 0)
            .then(|| SimTime::ZERO.plus(self.config.arrival_spacing.times(self.next_index())))
    }

    /// Build the next session's spec (advances the schedule).
    pub fn make_spec(&mut self) -> SessionSpec {
        let i = self.next_index();
        self.produced += 1;
        let mut rng = CryptoRng::from_seed(session_seed(self.config.seed, i));
        let with_middlebox = self.config.middlebox_every > 0
            && (i as usize).is_multiple_of(self.config.middlebox_every);
        let stale = self.client_cfg_stale.is_some()
            && self.config.stale_every > 0
            && (i as usize).is_multiple_of(self.config.stale_every);
        let client_cfg = if stale {
            self.client_cfg_stale.as_ref().unwrap().clone()
        } else {
            self.client_cfg.clone()
        };
        let client = MbClientSession::new(client_cfg, "server.example", rng.fork());
        let server = MbServerSession::new(self.server_cfg.clone(), rng.fork());
        let middles: Vec<Box<dyn Relay>> = if with_middlebox {
            if self.config.auth_mode == MiddleboxAuthMode::KeyShared {
                // Naive baseline: the middlebox is a shared-key relay
                // with no identity — it joins by being on the path,
                // adding zero handshake bytes and zero authorization
                // work (the gap the security matrix demonstrates).
                let mut mb = NaiveKeyShare::new();
                if let Some(sink) = &self.telemetry {
                    mb.set_telemetry(sink.clone(), Party::Middlebox(0));
                }
                vec![Box::new(mb)]
            } else if let Some(chain) = self.config.chain_mix.compose(self.config.seed, i) {
                // A Slick-style chain: one middlebox per function,
                // client side first. The workload's raw (non-HTTP)
                // bytes pass through every element unchanged, so the
                // chain exercises multi-hop relay cost and shared
                // processor state without perturbing the byte counts
                // the reactor's completion accounting relies on.
                chain
                    .build_processors()
                    .into_iter()
                    .enumerate()
                    .map(|(pos, p)| {
                        let mut cfg = self.middlebox_config();
                        cfg.telemetry = self.telemetry.clone();
                        cfg.telemetry_party = Party::Middlebox(pos as u8);
                        Box::new(Middlebox::with_processor(cfg, rng.fork(), p)) as Box<dyn Relay>
                    })
                    .collect()
            } else {
                let mut cfg = self.middlebox_config();
                cfg.telemetry = self.telemetry.clone();
                vec![Box::new(Middlebox::new(cfg, rng.fork()))]
            }
        } else {
            Vec::new()
        };
        SessionSpec {
            chain: Chain::new(Box::new(client), middles, Box::new(server)),
            latency: self.config.latency,
            faults: FaultConfig::none(),
            workload: self.config.workload,
        }
    }

    /// Open every session at its scheduled arrival and run the
    /// reactor until all of them finish (or `deadline` passes in
    /// virtual time). Interleaves arrivals with the event loop so
    /// early sessions complete while later ones are still opening.
    /// Drives a whole [`Host`](crate::host::Host) or one
    /// [`Shard`](crate::shard::Shard) — anything implementing
    /// [`Reactor`].
    pub fn drive<R: Reactor>(&mut self, host: &mut R, deadline: SimTime) -> Result<(), MbError> {
        loop {
            while self.next_arrival().is_some_and(|at| at <= host.now()) {
                let spec = self.make_spec();
                host.open(spec)?;
            }
            if self.remaining() == 0 && host.live() == 0 {
                return Ok(());
            }
            if host.now() > deadline {
                return Err(MbError::Timeout("load run deadline exceeded".into()));
            }
            if host.has_ready() {
                host.step()?;
                continue;
            }
            match (host.next_event(), self.next_arrival()) {
                (Some(event), Some(arrival)) if event <= arrival => {
                    host.step()?;
                }
                (_, Some(arrival)) => {
                    host.advance_clock(arrival);
                }
                (Some(_), None) => {
                    host.step()?;
                }
                (None, None) => {
                    return Err(MbError::unexpected_state(
                        "load generator quiescent with live sessions",
                    ));
                }
            }
        }
    }
}
