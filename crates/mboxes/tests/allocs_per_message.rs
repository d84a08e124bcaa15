//! What the `slick_web` processors allocate per message once warm.
//!
//! The rewrite loop parses each message in place and encodes it
//! straight into the chunk it forwards, so a message costs one
//! allocation per processor that parses it — that output — plus what
//! a policy keeps: the cache's outstanding target for each GET and,
//! on a miss, the entry it stores; the compression proxy's stream for
//! each body it compresses afresh, and the memo's copy of it. A
//! per-header `String` or a body copy on the way through adds at least
//! one allocation per message, which this test counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::message::Request;
use mbtls_http::workload::{response_for, RequestMix};
use mbtls_mboxes::chain::{DEFAULT_BLOCKED, DEFAULT_CACHE_ENTRIES, DEFAULT_COMPRESS_MIN};
use mbtls_mboxes::{CompressionProxy, ParentalFilter, WebCache};

/// `System`, counting the current thread's allocation calls (tests
/// run on threads of their own).
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

// SAFETY: delegates to `System`, which upholds the `GlobalAlloc`
// contract; the count has no effect on the returned memory. (The
// default `realloc` goes through `alloc` and `dealloc`, so a growth
// counts once.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `http_small`'s request sequence: its seed, and how many requests it
/// makes (warm-up included).
const POPULATION_SEED: u64 = 0x5EED_0F7A_26E7_5000;
const REQUESTS: usize = 2100;

/// Exchanges run before counting, so that every buffer a processor
/// reuses has grown and the cache is full (its 256th miss is near the
/// 850th request).
const WARM: usize = 1000;

/// Allocation calls made by each processor, by direction.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    filter_requests: u64,
    cache_requests: u64,
    cache_responses: u64,
    compression_responses: u64,
    /// The directions a processor forwards without parsing.
    passed_through: u64,
}

fn counted<T>(tally: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = calls();
    let out = f();
    *tally += calls() - before;
    out
}

struct Slick {
    filter: ParentalFilter,
    cache: WebCache,
    compression: CompressionProxy,
}

impl Slick {
    /// One request out through the chain and its response back.
    fn exchange(&mut self, request: Vec<u8>, response: Vec<u8>, tally: &mut Tally) {
        const C2S: FlowDirection = FlowDirection::ClientToServer;
        const S2C: FlowDirection = FlowDirection::ServerToClient;
        let request = counted(&mut tally.filter_requests, || {
            self.filter.process(C2S, request)
        });
        let request = counted(&mut tally.cache_requests, || {
            self.cache.process(C2S, request)
        });
        counted(&mut tally.passed_through, || {
            self.compression.process(C2S, request)
        });
        let response = counted(&mut tally.compression_responses, || {
            self.compression.process(S2C, response)
        });
        let response = counted(&mut tally.cache_responses, || {
            self.cache.process(S2C, response)
        });
        counted(&mut tally.passed_through, || {
            self.filter.process(S2C, response)
        });
    }
}

#[test]
fn warm_slick_web_processors_allocate_only_what_they_forward_and_keep() {
    let mut mix = RequestMix::new(POPULATION_SEED);
    let requests: Vec<Request> = (0..REQUESTS).map(|_| mix.next_request()).collect();
    assert!(requests.iter().all(|r| r.method == "GET"));
    let mut slick = Slick {
        filter: ParentalFilter::new(&DEFAULT_BLOCKED),
        cache: WebCache::new(DEFAULT_CACHE_ENTRIES),
        compression: CompressionProxy::new(DEFAULT_COMPRESS_MIN),
    };
    let wire = |r: &Request| (r.encode(), response_for(r).encode());
    for request in &requests[..WARM] {
        let (request, response) = wire(request);
        slick.exchange(request, response, &mut Tally::default());
    }

    // Full: from here a miss evicts one entry for the one it stores,
    // and neither the map nor the eviction queue grows.
    assert_eq!(slick.cache.len(), DEFAULT_CACHE_ENTRIES);
    let (mut tally, mut entries, mut fresh) = (Tally::default(), 0, 0);
    let exchanges = (REQUESTS - WARM) as u64;
    for request in &requests[WARM..] {
        let (wire_request, wire_response) = wire(request);
        let cached = slick.cache.entry(&request.target).is_some();
        let compressed = slick.compression.compressed_count;
        let memo_hits = slick.compression.memo_hits;
        slick.exchange(wire_request, wire_response, &mut tally);
        if !cached {
            // The entry a miss stores: its reason, its header `Vec`,
            // each header's name and value, its body, and a copy of
            // its target for the eviction queue (the map's key is the
            // outstanding target itself).
            let stored = slick
                .cache
                .entry(&request.target)
                .expect("a miss stores its response");
            entries += 1 + 1 + 2 * stored.response.headers.len() as u64 + 1 + 1;
        }
        if slick.compression.compressed_count > compressed
            && slick.compression.memo_hits == memo_hits
        {
            fresh += 1;
        }
    }
    assert!(
        entries > 0 && fresh > 0,
        "{entries} entry allocations, {fresh} fresh streams"
    );

    // One output per chunk a processor parses, plus what it keeps: the
    // cache its outstanding target per GET and its entries; the
    // compression proxy each fresh stream and the memo's copy of it.
    let expected = Tally {
        filter_requests: exchanges,
        cache_requests: 2 * exchanges,
        cache_responses: exchanges + entries,
        compression_responses: exchanges + 2 * fresh,
        passed_through: 0,
    };
    assert_eq!(
        tally, expected,
        "{exchanges} exchanges, {fresh} fresh streams"
    );
}
