//! # mbtls-http
//!
//! The application-layer substrate for mbTLS middlebox workloads:
//!
//! * [`message`] — HTTP/1.1 requests/responses over one incremental
//!   parser and one encoder (middleboxes see data in record-sized
//!   chunks). The parser reads a peer's bytes: heads are bounded to
//!   64 KiB, `Content-Length` must be decimal and at most 16 MiB, and
//!   nothing in it indexes or adds unchecked (DESIGN.md §6m).
//! * [`compress`] — a self-contained LZSS codec, the compression
//!   workload behind the Flywheel-style proxy (see DESIGN.md for why
//!   this substitutes for zlib).
//! * [`patterns`] — an Aho-Corasick multi-pattern matcher, the
//!   scanning engine for the IDS / virus-scanner middleboxes.
//! * [`workload`] — deterministic seeded HTTP request/response mixes
//!   for service-chain scenarios and benches.
//!
//! All are from-scratch implementations with no dependencies.

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

pub mod compress;
pub mod message;
pub mod patterns;
pub mod workload;

pub use compress::{lzss_compress, lzss_decompress};
pub use message::{Parser, Request, RequestParser, Response, ResponseParser};
pub use patterns::PatternMatcher;
pub use workload::{response_for, RequestMix};
