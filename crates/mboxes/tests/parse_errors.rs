//! What leaves an HTTP processor when its stream stops parsing.
//!
//! Both endpoints must agree on the application byte stream, so a
//! processor that can no longer frame a direction forwards exactly the
//! bytes it has not forwarded yet — once, in order — and then gets out
//! of the way: later chunks pass through untouched and nothing more is
//! buffered. Each of the four HTTP processors is driven through the
//! same three scenarios on every direction it parses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbtls_core::dataplane::FlowDirection;
use mbtls_core::middlebox::DataProcessor;
use mbtls_http::message::{Request, Response};
use mbtls_mboxes::{CompressionProxy, HeaderInsertionProxy, ParentalFilter, WebCache};

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

const C2S: FlowDirection = FlowDirection::ClientToServer;
const S2C: FlowDirection = FlowDirection::ServerToClient;

/// One processor on one direction it parses.
struct Subject {
    name: &'static str,
    build: fn() -> Box<dyn DataProcessor>,
    dir: FlowDirection,
}

const SUBJECTS: [Subject; 6] = [
    Subject {
        name: "header proxy, requests",
        build: || Box::new(HeaderInsertionProxy::new("Via", "proxy")),
        dir: C2S,
    },
    Subject {
        name: "header proxy, responses",
        build: || Box::new(HeaderInsertionProxy::new("Via", "proxy").tagging_responses()),
        dir: S2C,
    },
    Subject {
        name: "filter",
        build: || Box::new(ParentalFilter::new(&["/forbidden"])),
        dir: C2S,
    },
    Subject {
        name: "cache, requests",
        build: || Box::new(WebCache::new(4)),
        dir: C2S,
    },
    Subject {
        name: "cache, responses",
        build: || Box::new(WebCache::new(4)),
        dir: S2C,
    },
    Subject {
        name: "compression",
        build: || Box::new(CompressionProxy::new(8)),
        dir: S2C,
    },
];

/// A well-formed message for `dir` that every subject rewrites or at
/// least re-encodes, a message cut mid-header, and the continuation
/// that makes it malformed (a header line without its colon).
fn fixtures(dir: FlowDirection) -> (Vec<u8>, &'static [u8], &'static [u8]) {
    match dir {
        FlowDirection::ClientToServer => (
            Request::get("/forbidden/a", "h").encode(),
            b"GET /a HTTP/1.1\r\nHo",
            b"st h\r\n\r\n",
        ),
        FlowDirection::ServerToClient => (
            Response::ok(&[b'z'; 64]).encode(),
            b"HTTP/1.1 200 OK\r\nConte",
            b"nt-Length 5\r\n\r\nhello",
        ),
    }
}

#[test]
fn good_then_malformed_in_one_chunk_forwards_the_good_message_once() {
    for subject in &SUBJECTS {
        let (good, partial, rest) = fixtures(subject.dir);
        let expected_good = (subject.build)().process(subject.dir, good.clone());
        assert!(!expected_good.is_empty(), "{}", subject.name);

        let malformed = [partial, rest].concat();
        let mut processor = (subject.build)();
        let out = processor.process(subject.dir, [good.as_slice(), &malformed].concat());
        assert_eq!(out, [expected_good.as_slice(), &malformed].concat(), "{}", subject.name);
    }
}

#[test]
fn partial_then_malformed_forwards_every_byte_fed_in_order() {
    for subject in &SUBJECTS {
        let (_, partial, rest) = fixtures(subject.dir);
        let mut processor = (subject.build)();
        let held = processor.process(subject.dir, partial.to_vec());
        assert!(held.is_empty(), "{}: a partial message is held", subject.name);
        let out = processor.process(subject.dir, rest.to_vec());
        assert_eq!(out, [partial, rest].concat(), "{}", subject.name);
    }
}

#[test]
fn after_a_parse_error_the_direction_is_pass_through_and_holds_nothing() {
    for subject in &SUBJECTS {
        let (good, partial, rest) = fixtures(subject.dir);
        let mut processor = (subject.build)();
        processor.process(subject.dir, partial.to_vec());
        processor.process(subject.dir, rest.to_vec());

        // Well-formed messages are no longer rewritten …
        assert_eq!(processor.process(subject.dir, good.clone()), good, "{}", subject.name);
        // … nor buffered: partial or whole, nothing stays behind.
        let before = LIVE.get();
        for _ in 0..10_000 {
            assert_eq!(processor.process(subject.dir, partial.to_vec()), partial);
            assert_eq!(processor.process(subject.dir, good.clone()), good);
        }
        assert_eq!(LIVE.get(), before, "{}: heap moved", subject.name);
    }
}
