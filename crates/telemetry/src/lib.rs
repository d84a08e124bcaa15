//! Structured telemetry for the mbTLS reproduction.
//!
//! The paper's evaluation (§5) is entirely about *where* handshake
//! time and data-plane cost go across a multi-hop session. This crate
//! is the measurement substrate: a zero-dependency, sans-IO event
//! layer every other crate reports into.
//!
//! # Architecture
//!
//! - [`Event`] — a virtual-time-stamped, typed occurrence: handshake
//!   phases, per-hop record crypto, netsim link activity, SGX enclave
//!   transitions, and CPU-time samples from the bench harness.
//! - [`TelemetrySink`] — where events go. [`NullSink`] drops them,
//!   [`Recorder`] keeps them for assertions, and [`JsonLinesSink`]
//!   streams them as JSON lines for offline analysis.
//! - [`SharedSink`] — a cloneable handle (`Arc<Mutex<_>>` inside)
//!   that parties, the network simulator, and the enclave simulator
//!   all hold. It stamps every event from a shared [`VirtualClock`],
//!   which the netsim driver advances in lock-step with simulated
//!   time, so a seeded run produces a bit-for-bit deterministic
//!   trace.
//!
//! Telemetry is always optional: parties carry an
//! `Option<SharedSink>`, and the disabled path is a single `Option`
//! check.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Sans-IO (DESIGN.md §6d): no wall clock, thread or socket; the
// methods and types are listed in the workspace's clippy.toml.
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod event;
pub mod json;
pub mod sink;

pub use event::{close_outcome, fast_path_disabled, merge_shard_traces, Event, EventKind, Party};
pub use json::{to_json_line, validate_json_line};
pub use sink::{JsonLinesSink, NullSink, Recorder, SharedSink, TelemetrySink, VirtualClock};
