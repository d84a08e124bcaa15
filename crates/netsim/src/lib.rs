//! # mbtls-netsim
//!
//! A deterministic discrete-event network simulator: the testbed
//! substitute for the paper's Azure VMs, Tor vantage points, and lab
//! machines (see DESIGN.md, Substitutions).
//!
//! Design follows the smoltcp-style sans-IO idiom from this session's
//! Rust networking guides: protocol state machines never own sockets;
//! the experiment loop moves bytes between endpoints through the
//! simulator, and *virtual time* advances only through the event
//! queue, so every latency measurement is exactly reproducible from a
//! seed.
//!
//! Components:
//!
//! * [`time`] — virtual clock types.
//! * [`fault`] — seeded fault injection (drop, corrupt, rate limits),
//!   mirroring the options smoltcp's examples expose.
//! * [`net`] — nodes, links with latency/bandwidth, reliable
//!   stream connections with TCP-style setup costs, and the
//!   adversary's tap/inject/tamper hooks.
//! * [`filter`] — TLS-aware on-path filter models (firewalls, traffic
//!   normalizers) for the Table 2 handshake-viability experiment.
//! * [`profiles`] — the Table 2 client-network population and the
//!   Figure 6 inter-datacenter latency matrix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Sans-IO (DESIGN.md §6d): no wall clock, thread or socket; the
// methods and types are listed in the workspace's clippy.toml.
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
// Shard isolation (DESIGN.md §6d): nothing walks a hash container,
// whose order is randomized per process. Its iteration methods are
// disallowed in clippy.toml; a `for` loop over one is this lint.
#![forbid(clippy::iter_over_hash_type)]

pub mod fault;
pub mod filter;
pub mod net;
pub mod profiles;
pub mod time;

pub use fault::FaultConfig;
pub use filter::{FilterAction, FilterPolicy, TlsStreamFilter};
pub use net::{ConnId, Network, NodeId};
pub use time::{Duration, SimTime};
