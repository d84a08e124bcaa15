//! Emit `BENCH_chain.json` — the read-only fast path and
//! service-function-chain performance artifact.
//!
//! Usage:
//!
//! ```text
//! chain_report [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs a tiny measurement budget (sub-second) so
//! `scripts/check.sh` can gate on the harness working end to end;
//! numbers from a smoke run are noisy and flagged `"smoke": true` in
//! the JSON. Full runs (`scripts/bench_report.sh`) use a budget large
//! enough for stable throughput figures.
//!
//! The binary installs a counting global allocator so the read-only
//! steady-state metric measures the real forward path; the library
//! crate stays allocator-agnostic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mbtls_bench::chain::{
    bench_amortized, bench_chains, bench_per_hop, ChainReport, SteadyStateReadOnly,
};
use mbtls_bench::report::RECORD_LEN;

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

/// Allocations per record through a read-only middlebox on aliased
/// keys at steady state. The fast path touches only reused buffers,
/// so this must come out 0.
fn measure_read_only_allocs(records: usize) -> f64 {
    let mut pipeline = SteadyStateReadOnly::warmed_up();
    // One extra pump after warm-up so any lazily-grown buffer
    // (first-use capacity bumps) settles before counting.
    pipeline.pump(2);
    let before = alloc_count();
    pipeline.pump(records);
    (alloc_count() - before) as f64 / records as f64
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_chain.json");
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
                eprintln!("usage: chain_report [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    // Measurement budgets: smoke proves the harness; full runs give
    // stable numbers. Chain runs are bounded by handshake cost, so
    // the exchange count stays modest even in full mode.
    let per_hop_budget = if smoke { 4 * RECORD_LEN } else { 48 * 1024 * 1024 };
    let exchanges = if smoke { 2 } else { 64 };
    let alloc_records = if smoke { 4 } else { 64 };

    let per_hop = bench_per_hop(per_hop_budget);
    let read_only_speedup = {
        let get = |name: &str| {
            per_hop
                .iter()
                .find(|t| t.name == name)
                .map(|t| t.mb_per_s)
                .unwrap_or(0.0)
        };
        let reseal = get("middlebox_open_reseal");
        if reseal > 0.0 {
            get("middlebox_read_only_forward") / reseal
        } else {
            0.0
        }
    };
    let (chains, determinism) = bench_chains(exchanges, 0xC8A1_2026);
    let (amortized, amortized_det) = bench_amortized(smoke, 0xC8A1_2027);
    let determinism = if determinism == "identical" && amortized_det == "identical" {
        determinism
    } else {
        String::from("diverged")
    };
    let allocs = measure_read_only_allocs(alloc_records);

    let report = ChainReport {
        smoke,
        aead_backend: mbtls_crypto::gcm::backend_name(),
        record_len: RECORD_LEN,
        per_hop,
        read_only_speedup,
        chains,
        amortized,
        allocs_per_record_read_only: allocs,
        determinism,
    };

    let json = report.to_json();
    std::fs::write(&out_path, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("{json}");
    eprintln!("wrote {out_path}");
}
