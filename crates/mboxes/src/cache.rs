//! A shared web cache middlebox.
//!
//! Observes request/response pairs and stores cacheable responses.
//! On a hit it annotates the response with `X-Cache: HIT`. This is a
//! write-through observer cache: it does not short-circuit the origin
//! (our data plane forwards along the session path), but it maintains
//! real shared state across sessions — which is exactly the property
//! the paper's §4.2 "middlebox state poisoning" discussion is about;
//! the security tests exercise that scenario against this cache.

use std::collections::{HashMap, VecDeque};

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::message::Response;

use crate::rewrite::{HttpStream, REQUESTS, RESPONSES};

/// A cached entry.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The stored response.
    pub response: Response,
    /// How many times it was served/hit.
    pub hits: u64,
}

/// The cached objects: a map bounded to `max_entries`, oldest
/// insertion evicted first.
struct Shelf {
    entries: HashMap<String, CacheEntry>,
    /// Insertion order of `entries` keys, oldest first — the FIFO
    /// eviction queue. Kept in lockstep with `entries` so eviction is
    /// deterministic (HashMap iteration order is randomized per
    /// process and must never pick the victim).
    insertion_order: VecDeque<String>,
    max_entries: usize,
}

impl Shelf {
    fn store(&mut self, target: String, response: Response) {
        // Re-storing an existing key replaces the entry in place and
        // keeps its original queue position — no eviction needed.
        if let Some(entry) = self.entries.get_mut(&target) {
            entry.response = response;
            entry.hits = 0;
            return;
        }
        if self.entries.len() >= self.max_entries {
            // Evict the oldest insertion (deterministic FIFO).
            while let Some(key) = self.insertion_order.pop_front() {
                if self.entries.remove(&key).is_some() {
                    break;
                }
            }
        }
        self.insertion_order.push_back(target.clone());
        self.entries.insert(
            target,
            CacheEntry {
                response,
                hits: 0,
            },
        );
    }
}

/// The cache middlebox.
pub struct WebCache {
    shelf: Shelf,
    requests: HttpStream,
    responses: HttpStream,
    /// Targets awaiting responses, FIFO.
    outstanding: VecDeque<String>,
    /// Total lookups.
    pub lookups: u64,
    /// Total hits.
    pub hits: u64,
}

impl WebCache {
    /// New cache bounded to `max_entries` objects.
    pub fn new(max_entries: usize) -> Self {
        WebCache {
            shelf: Shelf {
                entries: HashMap::new(),
                insertion_order: VecDeque::new(),
                max_entries,
            },
            requests: HttpStream::default(),
            responses: HttpStream::default(),
            outstanding: VecDeque::new(),
            lookups: 0,
            hits: 0,
        }
    }

    /// Look up an entry (tests and poisoning scenarios).
    pub fn entry(&self, target: &str) -> Option<&CacheEntry> {
        self.shelf.entries.get(target)
    }

    /// Directly store an entry — used by the §4.2 poisoning scenario,
    /// where a malicious client injects a response on the
    /// cache↔server hop.
    pub fn store(&mut self, target: &str, response: Response) {
        self.shelf.store(target.to_string(), response);
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.shelf.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.shelf.entries.is_empty()
    }
}

impl DataProcessor for WebCache {
    fn process(&mut self, dir: FlowDirection, data: Vec<u8>) -> Vec<u8> {
        match dir {
            FlowDirection::ClientToServer => self.requests.rewrite(&REQUESTS, data, |req| {
                if req.method() == "GET" {
                    self.lookups += 1;
                    if let Some(entry) = self.shelf.entries.get_mut(req.target()) {
                        entry.hits += 1;
                        self.hits += 1;
                    }
                    self.outstanding.push_back(req.target().to_string());
                }
            }),
            FlowDirection::ServerToClient => self.responses.rewrite(&RESPONSES, data, |resp| {
                let Some(target) = self.outstanding.pop_front() else {
                    return;
                };
                if resp.status() == 200 {
                    if self.shelf.entries.contains_key(&target) {
                        resp.set_header("X-Cache", "HIT");
                    } else {
                        resp.set_header("X-Cache", "MISS");
                        // The one owned copy: the entry the shelf keeps.
                        let mut stored = resp.to_response();
                        stored.set_header("X-Cache", "MISS");
                        self.shelf.store(target, stored);
                    }
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_http::message::{Request, ResponseParser};

    fn roundtrip(cache: &mut WebCache, target: &str) -> Response {
        let req = Request::get(target, "h").encode();
        cache.process(FlowDirection::ClientToServer, req);
        let resp = Response::ok(format!("content of {target}").as_bytes()).encode();
        let out = cache.process(FlowDirection::ServerToClient, resp);
        let mut parser = ResponseParser::new();
        parser.feed(&out);
        parser.next_response().unwrap().unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = WebCache::new(16);
        let first = roundtrip(&mut cache, "/page");
        assert_eq!(first.header("X-Cache"), Some("MISS"));
        assert_eq!(cache.len(), 1);
        let second = roundtrip(&mut cache, "/page");
        assert_eq!(second.header("X-Cache"), Some("HIT"));
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.lookups, 2);
    }

    #[test]
    fn distinct_targets_distinct_entries() {
        let mut cache = WebCache::new(16);
        roundtrip(&mut cache, "/a");
        roundtrip(&mut cache, "/b");
        assert_eq!(cache.len(), 2);
        assert!(cache.entry("/a").is_some());
        assert!(cache.entry("/b").is_some());
        assert!(cache.entry("/c").is_none());
    }

    #[test]
    fn non_200_not_cached() {
        let mut cache = WebCache::new(16);
        let req = Request::get("/missing", "h").encode();
        cache.process(FlowDirection::ClientToServer, req);
        let resp = Response::status(404, "Not Found").encode();
        cache.process(FlowDirection::ServerToClient, resp);
        assert!(cache.entry("/missing").is_none());
    }

    #[test]
    fn capacity_bounded() {
        let mut cache = WebCache::new(2);
        roundtrip(&mut cache, "/1");
        roundtrip(&mut cache, "/2");
        roundtrip(&mut cache, "/3");
        assert!(cache.len() <= 2);
    }

    #[test]
    fn eviction_is_fifo() {
        // Oldest insertion is the victim — never an arbitrary
        // hash-order pick.
        let mut cache = WebCache::new(2);
        roundtrip(&mut cache, "/first");
        roundtrip(&mut cache, "/second");
        roundtrip(&mut cache, "/third");
        assert_eq!(cache.len(), 2);
        assert!(cache.entry("/first").is_none(), "oldest entry must be evicted");
        assert!(cache.entry("/second").is_some());
        assert!(cache.entry("/third").is_some());
    }

    #[test]
    fn eviction_survivors_deterministic() {
        // Regression: eviction used `entries.keys().next()`, whose
        // order depends on the per-process HashMap hash seed — two
        // identically-filled caches could keep different entries. The
        // same fill order must now always yield the same survivor set.
        let fill = |cache: &mut WebCache| {
            for target in ["/a", "/b", "/c", "/d", "/e"] {
                roundtrip(cache, target);
            }
        };
        let survivors = |cache: &WebCache| -> Vec<&str> {
            ["/a", "/b", "/c", "/d", "/e"]
                .into_iter()
                .filter(|t| cache.entry(t).is_some())
                .collect()
        };
        let mut one = WebCache::new(3);
        let mut two = WebCache::new(3);
        fill(&mut one);
        fill(&mut two);
        assert_eq!(survivors(&one), survivors(&two));
        assert_eq!(survivors(&one), vec!["/c", "/d", "/e"]);
    }

    #[test]
    fn restore_existing_key_does_not_evict() {
        // Overwriting a cached target keeps the cache full without
        // pushing out an unrelated entry.
        let mut cache = WebCache::new(2);
        cache.store("/a", Response::ok(b"v1"));
        cache.store("/b", Response::ok(b"v2"));
        cache.store("/a", Response::ok(b"v3"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.entry("/a").unwrap().response.body, b"v3");
        assert!(cache.entry("/b").is_some());
        // The refreshed key keeps its original (oldest) queue slot.
        cache.store("/c", Response::ok(b"v4"));
        assert!(cache.entry("/a").is_none());
        assert!(cache.entry("/b").is_some());
        assert!(cache.entry("/c").is_some());
    }

    #[test]
    fn poisoning_scenario_shared_state() {
        // §4.2: a malicious client with access to the cache↔server hop
        // injects its own response, poisoning the cache for others.
        let mut cache = WebCache::new(16);
        cache.store("/login", Response::ok(b"<form action=evil.example>"));
        // A later, honest client hits the poisoned entry.
        let resp = roundtrip(&mut cache, "/login");
        assert_eq!(resp.header("X-Cache"), Some("HIT"));
        assert_eq!(
            cache.entry("/login").unwrap().response.body,
            b"<form action=evil.example>"
        );
    }
}
