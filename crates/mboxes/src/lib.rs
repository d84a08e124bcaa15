//! # mbtls-mboxes
//!
//! Middlebox applications implementing [`mbtls_core::DataProcessor`]
//! — the application-layer functions the paper's introduction
//! motivates, runnable inside an mbTLS session (and, via the SGX
//! simulator, inside an enclave):
//!
//! * [`header_proxy::HeaderInsertionProxy`] — the paper's own
//!   prototype workload (§5: "a simple HTTP proxy that performs HTTP
//!   header insertion").
//! * [`cache::WebCache`] — a shared web cache (the middlebox class
//!   behind the §4.2 state-poisoning discussion).
//! * [`compression::CompressionProxy`] — a Flywheel-style data
//!   compression proxy (arbitrary computation; the class BlindBox
//!   cannot support).
//! * [`ids::IntrusionDetector`] — a pattern-matching IDS / virus
//!   scanner.
//! * [`filter::ParentalFilter`] — a request-blocking filter (the
//!   "bypassing filter middleboxes" discussion of §4.2).
//! * [`chain::ServiceChain`] — Slick-style service-function chains
//!   composing the above into ordered multi-middlebox paths.
//!
//! Each processor is sans-IO and stream-oriented: it receives record
//! payloads and emits the bytes to forward in their place. The four
//! that speak HTTP (header proxy, cache, compression proxy, filter)
//! and [`compression::DecompressingClient`] are policies over one
//! loop ([`rewrite`]), which owns what a middlebox on a byte stream
//! must get right: a stream that is not HTTP is forwarded untouched
//! (the caller's buffer, uncopied), a partial message is held until
//! the rest arrives, and a stream that stops parsing has every byte
//! not yet forwarded emitted once, in order, after which that
//! direction is pass-through (DESIGN.md §6m).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Panic-freedom (DESIGN.md §6d): attacker bytes and impossible states
// surface as errors, never as an abort of every session on the thread.
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Shard isolation (DESIGN.md §6d): processors run inside shard-owned
// sessions, so none walks a hash container, whose order is randomized
// per process. The iteration methods are `disallowed_methods` in
// clippy.toml; a `for` loop over one is `iter_over_hash_type`.
#![forbid(clippy::iter_over_hash_type, clippy::disallowed_methods)]
// The HTTP processors read a peer's bytes (DESIGN.md §6d): no slice in
// this crate is indexed.
#![forbid(clippy::indexing_slicing)]

pub mod cache;
pub mod chain;
pub mod compression;
pub mod filter;
pub mod header_proxy;
pub mod ids;
pub mod rewrite;
pub mod sniff;

pub use cache::WebCache;
pub use chain::{ChainFunction, ServiceChain};
pub use compression::{CompressionProxy, DecompressingClient};
pub use filter::ParentalFilter;
pub use header_proxy::HeaderInsertionProxy;
pub use ids::IntrusionDetector;
