//! Slick-style service-function chains: ordered middlebox function
//! compositions deployable over an mbTLS path.
//!
//! Slick (PAPERS.md) programs network functions as chains of small
//! elements and shows they must run at line rate to be deployable;
//! this module provides the equivalent composition for our processor
//! set. A [`ServiceChain`] is an ordered list of [`ChainFunction`]s;
//! each position becomes one middlebox on the session path, built
//! fresh per session (processors are stateful stream parsers).
//!
//! The canonical web chain is `filter → cache → compression`
//! (client-side policy first, then the shared cache, then the
//! bandwidth optimizer nearest the server). A [`ChainFunction::Tap`]
//! position is the read-only element: it declares itself
//! non-modifying, so with aliased hop keys the data plane forwards
//! its records via the tag-verify fast path without invoking it.

use mbtls_core::middlebox::{DataProcessor, ForwardProcessor};

use crate::cache::WebCache;
use crate::compression::CompressionProxy;
use crate::filter::ParentalFilter;

/// Default blocked-target substrings for the chain's filter element.
pub const DEFAULT_BLOCKED: [&str; 2] = ["/forbidden", "/malware"];

/// Default cache capacity (entries) for the chain's cache element.
pub const DEFAULT_CACHE_ENTRIES: usize = 256;

/// Default minimum body size (bytes) the compression element touches.
pub const DEFAULT_COMPRESS_MIN: usize = 256;

/// One network function in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFunction {
    /// Request filter ([`ParentalFilter`] with [`DEFAULT_BLOCKED`]).
    Filter,
    /// Shared web cache ([`WebCache`] with [`DEFAULT_CACHE_ENTRIES`]).
    Cache,
    /// Response compression ([`CompressionProxy`] with
    /// [`DEFAULT_COMPRESS_MIN`]).
    Compression,
    /// Read-only passthrough ([`ForwardProcessor`]) — the element the
    /// fast path collapses to a tag verify.
    Tap,
}

impl ChainFunction {
    /// Stable name for reports and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            ChainFunction::Filter => "filter",
            ChainFunction::Cache => "cache",
            ChainFunction::Compression => "compression",
            ChainFunction::Tap => "tap",
        }
    }

    /// Build a fresh processor for this function.
    pub fn build(self) -> Box<dyn DataProcessor> {
        match self {
            ChainFunction::Filter => Box::new(ParentalFilter::new(&DEFAULT_BLOCKED)),
            ChainFunction::Cache => Box::new(WebCache::new(DEFAULT_CACHE_ENTRIES)),
            ChainFunction::Compression => Box::new(CompressionProxy::new(DEFAULT_COMPRESS_MIN)),
            ChainFunction::Tap => Box::new(ForwardProcessor),
        }
    }
}

/// An ordered service-function chain, client side first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceChain {
    functions: Vec<ChainFunction>,
}

impl ServiceChain {
    /// A chain with the given functions, client side first.
    pub fn new(functions: Vec<ChainFunction>) -> Self {
        ServiceChain { functions }
    }

    /// The canonical Slick-style web chain:
    /// `filter → cache → compression`.
    pub fn slick_web() -> Self {
        ServiceChain::new(vec![
            ChainFunction::Filter,
            ChainFunction::Cache,
            ChainFunction::Compression,
        ])
    }

    /// The first `n` functions of this chain (for scaling studies at
    /// 1, 2, 3 middleboxes).
    pub fn prefix(&self, n: usize) -> Self {
        ServiceChain::new(self.functions.iter().take(n).copied().collect())
    }

    /// The functions, client side first.
    pub fn functions(&self) -> &[ChainFunction] {
        &self.functions
    }

    /// Number of middleboxes in the chain.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when the chain has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Build one fresh processor per position, client side first.
    pub fn build_processors(&self) -> Vec<Box<dyn DataProcessor>> {
        self.functions.iter().map(|f| f.build()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_core::dataplane::FlowDirection;
    use mbtls_http::message::{Request, ResponseParser};
    use mbtls_http::workload::response_for;

    /// Push one request/response exchange through the chain's
    /// processors in path order (client→server for the request,
    /// server→client in reverse for the response) and return the
    /// response bytes that reach the client.
    fn pump_exchange(procs: &mut [Box<dyn DataProcessor>], target: &str) -> Vec<u8> {
        let mut data = Request::get(target, "chain.example").encode();
        for p in procs.iter_mut() {
            data = p.process(FlowDirection::ClientToServer, data);
        }
        let mut parser = mbtls_http::message::RequestParser::new();
        parser.feed(&data);
        let arrived = parser.next_request().unwrap().unwrap();
        let mut resp = response_for(&arrived).encode();
        for p in procs.iter_mut().rev() {
            resp = p.process(FlowDirection::ServerToClient, resp);
        }
        resp
    }

    #[test]
    fn slick_web_chain_composes() {
        let chain = ServiceChain::slick_web();
        assert_eq!(chain.len(), 3);
        let names: Vec<_> = chain.functions().iter().map(|f| f.name()).collect();
        assert_eq!(names, ["filter", "cache", "compression"]);
        let mut procs = chain.build_processors();

        // First fetch: a MISS that populates the cache; large bodies
        // come back compressed.
        let first = pump_exchange(&mut procs, "/index.html");
        let mut parser = ResponseParser::new();
        parser.feed(&first);
        let resp = parser.next_response().unwrap().unwrap();
        assert_eq!(resp.header("X-Cache"), Some("MISS"));

        // Second fetch of the same target: HIT on the shared cache.
        let second = pump_exchange(&mut procs, "/index.html");
        let mut parser = ResponseParser::new();
        parser.feed(&second);
        let resp = parser.next_response().unwrap().unwrap();
        assert_eq!(resp.header("X-Cache"), Some("HIT"));
    }

    #[test]
    fn filter_element_blocks_in_chain() {
        let chain = ServiceChain::slick_web();
        let mut procs = chain.build_processors();
        let mut data = Request::get("/forbidden/page", "chain.example").encode();
        for p in procs.iter_mut() {
            data = p.process(FlowDirection::ClientToServer, data);
        }
        let mut parser = mbtls_http::message::RequestParser::new();
        parser.feed(&data);
        let arrived = parser.next_request().unwrap().unwrap();
        assert_ne!(arrived.target, "/forbidden/page", "filter must rewrite blocked targets");
    }

    #[test]
    fn prefix_scales_chain_length() {
        let chain = ServiceChain::slick_web();
        assert_eq!(chain.prefix(1).functions(), &[ChainFunction::Filter]);
        assert_eq!(chain.prefix(2).len(), 2);
        assert_eq!(chain.prefix(9).len(), 3);
        assert!(chain.prefix(0).is_empty());
    }

    #[test]
    fn only_tap_declares_read_only() {
        // The modification contract: stateful rewriting elements must
        // never claim the fast path; the passthrough tap does.
        for f in [ChainFunction::Filter, ChainFunction::Cache, ChainFunction::Compression] {
            assert!(!f.build().is_read_only(), "{} must not claim read-only", f.name());
        }
        assert!(ChainFunction::Tap.build().is_read_only());
    }
}
