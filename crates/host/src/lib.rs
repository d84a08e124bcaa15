//! Concurrent session host for the mbTLS reproduction.
//!
//! The paper argues mbTLS's per-hop security model is deployable at
//! middlebox-service scale; this crate supplies the scale half of
//! that claim. A [`Host`] splits up to a million independent mbTLS
//! (or baseline TLS) sessions across per-worker [`Shard`] reactors,
//! each a sans-IO event loop over its own byte-moving [`Substrate`]
//! — the deterministic network simulator or zero-copy in-memory
//! pipes. Shards share nothing, so the fleet scales with cores while
//! staying bit-for-bit deterministic.
//!
//! # Architecture
//!
//! - [`config`] — the validated [`HostConfig`] builder: shard count,
//!   timeout/retry/eviction policy, ticket-cache cap; zero and
//!   overflowing knobs are rejected at build time with typed errors.
//! - [`slab`] — the session table: a generational slab whose
//!   [`SessionId`]s dangle *detectably* after eviction instead of
//!   aliasing recycled slots, and carry the owning shard in their
//!   index bits so routing needs no lookup table.
//! - [`wheel`] — the timer queue, an ordered map on `(deadline,
//!   schedule order)` driven by virtual time: handshake timeouts with
//!   telemetry-visible retry/backoff, idle eviction, and
//!   session-ticket expiry. This is what turns a silently dropped
//!   handshake flight into a surfaced `MbError::Timeout` instead of
//!   a hung host.
//! - [`substrate`] — the transport abstraction: one simulator (with
//!   per-session latency and fault injection) or per-session pipes.
//! - [`shard`] — the per-worker reactor: the event loop, one per
//!   shard, with strictly private state. A ready queue batches record
//!   pumping with a per-session pass cap for backpressure, and a
//!   per-shard [`pool::BufferPool`] keeps the steady state free of
//!   per-record allocation.
//! - [`host`] — the opaque [`Host`] facade over the shard fleet:
//!   round-robin admission, id-encoded steering, per-shard telemetry
//!   with deterministic merging.
//! - [`loadgen`] — a seeded open/close-churn generator; same seed and
//!   schedule ⇒ bit-identical telemetry and counters, and the same
//!   per-session specs no matter how the load is sliced over shards.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Sans-IO (DESIGN.md §6d): no wall clock, thread or socket; the
// methods and types are listed in the workspace's clippy.toml.
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
// Shard isolation (DESIGN.md §6d): nothing walks a hash container,
// whose order is randomized per process. Its iteration methods are
// disallowed in clippy.toml; a `for` loop over one is this lint.
#![forbid(clippy::iter_over_hash_type)]

pub mod config;
pub mod host;
pub mod loadgen;
pub mod pool;
pub mod session;
pub mod shard;
pub mod slab;
pub mod substrate;
pub mod wheel;

pub use config::{HostConfig, HostConfigBuilder, HostConfigError};
pub use host::{Host, HostCounters, Reactor, SessionSpec};
pub use loadgen::{ChainMix, LoadConfig, LoadGenerator};
pub use pool::BufferPool;
pub use session::{SessionOutcome, Workload};
pub use shard::Shard;
pub use slab::{SessionId, Slab};
pub use substrate::{NetSubstrate, PipeSubstrate, PumpOutcome, Substrate};
pub use wheel::{Timer, TimerKind, TimerQueue};
