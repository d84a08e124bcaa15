//! The compression proxy's memo of emitted streams changes no byte
//! and holds no more than its budget.
//!
//! One proxy sees a whole session's responses — `http_small`'s
//! request sequence, repeats included — and must emit, response by
//! response, what a fresh proxy emits for that response alone, however
//! the stream is chunked. And a session of distinct bodies, every one
//! a miss that is remembered, must leave the heap flat once the memo
//! is full.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::compress::lzss_compress;
use mbtls_http::message::{Request, Response};
use mbtls_http::workload::{response_for, RequestMix};
use mbtls_mboxes::chain::DEFAULT_COMPRESS_MIN;
use mbtls_mboxes::CompressionProxy;

/// `System`, counting the bytes the current thread holds (tests run
/// on threads of their own, so one test's tally is not another's).
struct LiveBytes;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: delegates to `System`, which upholds the `GlobalAlloc`
// contract; the tally has no effect on the returned memory. (The
// default `realloc` goes through `alloc` and `dealloc`.)
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const S2C: FlowDirection = FlowDirection::ServerToClient;

/// The seed that fixes which targets `http_small` requests, and how
/// many it requests (warm-up included).
const POPULATION_SEED: u64 = 0x5EED_0F7A_26E7_5000;
const REQUESTS: usize = 2100;

/// Chunk sizes the session's response stream is fed in.
const CHUNKINGS: [usize; 3] = [1, 7, 4096];

/// Requests for the repo's hot set of targets (the long tail is
/// `/article/…`).
fn is_hot(target: &str) -> bool {
    !target.starts_with("/article/")
}

#[test]
fn a_session_emits_what_a_fresh_proxy_emits_per_response() {
    let mut mix = RequestMix::new(POPULATION_SEED);
    let targets: Vec<String> = (0..REQUESTS).map(|_| mix.next_request().target).collect();
    let mut wire = Vec::new();
    let mut expected = Vec::new();
    // Responses a fresh proxy compresses, and those that repeat a
    // target compressed earlier in the session (hot ones apart).
    let (mut compressed, mut repeats, mut hot_repeats) = (0, 0, 0);
    for (i, target) in targets.iter().enumerate() {
        let encoded = response_for(&Request::get(target, "chain.example")).encode();
        let mut fresh = CompressionProxy::new(DEFAULT_COMPRESS_MIN);
        expected.extend(fresh.process(S2C, encoded.clone()));
        wire.extend(encoded);
        if fresh.compressed_count == 1 {
            compressed += 1;
            if targets[..i].contains(target) {
                repeats += 1;
                hot_repeats += u64::from(is_hot(target));
            }
        }
    }
    for chunk in CHUNKINGS {
        let mut proxy = CompressionProxy::new(DEFAULT_COMPRESS_MIN);
        let mut out = Vec::with_capacity(expected.len());
        for piece in wire.chunks(chunk) {
            out.extend(proxy.process(S2C, piece.to_vec()));
        }
        assert!(out == expected, "{chunk}-byte chunks: the session's bytes moved");
        assert_eq!(proxy.compressed_count, compressed, "{chunk}-byte chunks");
        // Every hit is a repeat, and nine in ten of the hot set's
        // repeats hit: the long tail's misses evict the rest.
        let hits = proxy.memo_hits;
        assert!(
            hits <= repeats && hits * 10 >= hot_repeats * 9,
            "{chunk}-byte chunks: {hits} hits, {hot_repeats} hot repeats, {repeats} repeats"
        );
    }
}

/// Distinct bodies whose streams all have one length: an eight-byte
/// unit repeated, each of its bytes in a range of its own (so no three
/// consecutive bytes repeat within the unit) and carrying one decimal
/// digit of `i`. Every body is eight literals and then the same run of
/// references, and bytes all across it differ from body to body.
fn distinct_body(i: usize) -> Vec<u8> {
    let digits = format!("{i:04}").into_bytes();
    let unit: Vec<u8> = (0..8).map(|slot| 32 + 16 * slot as u8 + (digits[slot % 4] - b'0')).collect();
    unit.iter().cycle().take(520).copied().collect()
}

#[test]
fn a_full_memo_leaves_the_heap_flat() {
    let mut proxy = CompressionProxy::new(DEFAULT_COMPRESS_MIN);
    let mut live = [0; 3];
    for i in 0..10_000 {
        let out = proxy.process(S2C, Response::ok(&distinct_body(i)).encode());
        drop(out);
        match i {
            // After the match finder's tables and the parser's buffer.
            0 => live[0] = LIVE.get(),
            4_999 => live[1] = LIVE.get(),
            9_999 => live[2] = LIVE.get(),
            _ => {}
        }
    }
    assert_eq!((proxy.compressed_count, proxy.memo_hits), (10_000, 0));
    let stream = lzss_compress(&distinct_body(0)).len() as u64;
    assert_eq!(proxy.bytes_out, 10_000 * stream, "streams differ in length");
    assert!(live[1] - live[0] > 8 * 1024, "the memo never filled: {live:?}");
    assert_eq!(live[2], live[1], "heap moved over the last 5000 bodies");
}
