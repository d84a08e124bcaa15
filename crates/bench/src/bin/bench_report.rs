//! Emit `BENCH_dataplane.json` — the data-plane performance
//! regression artifact.
//!
//! Usage:
//!
//! ```text
//! bench_report [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs a tiny measurement budget (sub-second) so
//! `scripts/check.sh` can gate on the harness working end to end;
//! numbers from a smoke run are noisy and flagged `"smoke": true` in
//! the JSON. Full runs (`scripts/bench_report.sh`) use a budget large
//! enough for stable throughput figures.
//!
//! The binary installs a counting global allocator so the
//! steady-state allocation metrics measure the real record path; the
//! library crate stays allocator-agnostic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mbtls_bench::report::{
    bench_primitives, bench_record_path, DataplaneReport, SteadyStateEndpoint,
    SteadyStatePipeline, BULK_LEN,
};

/// `System` wrapped with an allocation counter. Only counts calls to
/// `alloc`/`realloc` — frees are irrelevant to the "allocations per
/// record" metric.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations per record over `records` steady-state round trips:
/// the endpoint-only loop (client seal + server open) and the full
/// loop through a middlebox. The middlebox contribution is the
/// difference.
fn measure_allocs_per_record(records: usize) -> (f64, f64) {
    let mut endpoint = SteadyStateEndpoint::warmed_up();
    // One extra pump after warm-up so any lazily-grown buffer
    // (first-use capacity bumps) settles before counting.
    endpoint.pump(2);
    let before = alloc_count();
    endpoint.pump(records);
    let per_record_endpoint = (alloc_count() - before) as f64 / records as f64;

    let mut full = SteadyStatePipeline::warmed_up();
    full.pump(2);
    let before = alloc_count();
    full.pump(records);
    let per_record_full = (alloc_count() - before) as f64 / records as f64;

    (
        per_record_endpoint,
        (per_record_full - per_record_endpoint).max(0.0),
    )
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_dataplane.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    // Measurement budgets: smoke proves the harness; full runs give
    // stable numbers (~64 MiB per metric ≈ a few seconds total).
    let budget = if smoke { 4 * BULK_LEN } else { 64 * 1024 * 1024 };
    let alloc_records = if smoke { 4 } else { 64 };

    let mut throughputs = bench_primitives(budget);
    throughputs.extend(bench_record_path(budget));
    let (allocs_endpoint, allocs_middlebox) = measure_allocs_per_record(alloc_records);

    let report = DataplaneReport {
        smoke,
        aead_backend: mbtls_crypto::gcm::backend_name(),
        bulk_len: BULK_LEN,
        record_len: mbtls_bench::report::RECORD_LEN,
        throughputs,
        allocs_per_record_endpoint: allocs_endpoint,
        allocs_per_record_middlebox: allocs_middlebox,
    };

    let json = report.to_json();
    std::fs::write(&out_path, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("{json}");
    eprintln!("wrote {out_path}");
}
