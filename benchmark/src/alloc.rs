//! The benchmark binary's counting allocator: allocation calls,
//! bytes requested, and the live-heap high-water mark.
//!
//! It is installed for every run, traced or not, so its cost (four
//! plain loads and stores per call) is the same on both sides of any
//! comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and keeps the counters below.
pub struct CountingAllocator;

// The benchmark runs on one thread, so the counters are updated with a
// load and a store instead of a locked read-modify-write: a second
// thread could lose an update (never memory safety), and there is none.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    CALLS.store(CALLS.load(Relaxed) + 1, Relaxed);
    BYTES.store(BYTES.load(Relaxed) + size as u64, Relaxed);
    let live = LIVE.load(Relaxed) + size as u64;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn note_free(size: usize) {
    LIVE.store(LIVE.load(Relaxed).saturating_sub(size as u64), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` was returned by `System` for this `layout`
        // (every allocation above goes through `System`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from `System` as above and
        // `new_size` is the caller's, passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// A reading of the counters; subtract two to get a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc) so far.
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restart the high-water mark from the current live size and return
/// that size (the baseline to subtract from [`peak`]).
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
