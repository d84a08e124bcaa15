//! Measure and check the `BENCH_*.json` artifacts — one binary for
//! all four suites.
//!
//! ```text
//! report <scale|handshake|chain|paper|all> [--smoke] [--out PATH]
//! report check <suite> <file>
//! report render <paper artifact> <document>
//! ```
//!
//! A suite run measures, prints the artifact, runs the suite's schema
//! and floor checks on it, and only if they pass writes it (`--out`,
//! default the suite's `BENCH_<suite>.json` in the current directory,
//! or under `target/` with `--smoke`); `check` runs the same checks on
//! an existing file without measuring. A failed floor exits 1 and
//! leaves the file it would have replaced as it was. `render`
//! rewrites the generated blocks of a document (EXPERIMENTS.md) from a
//! `paper` artifact.
//!
//! `--smoke` runs tiny budgets (seconds) so `scripts/check.sh` can
//! gate on the harness working end to end; numbers from a smoke run
//! are noisy and flagged `"smoke": true` in the JSON, the floors that
//! need stable timings are skipped, and the file never lands on a
//! committed artifact unless `--out` names one. Full runs
//! (`scripts/bench_report.sh`) produce the committed artifacts.
//!
//! The binary installs the counting global allocator the suites'
//! steady-state allocation metrics read; the library crate stays
//! allocator-agnostic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mbtls_bench::{artifact_path, Suite, SUITES};
use mbtls_telemetry::json::{parse, Value};

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

fn usage_error(problem: &str) -> ! {
    let suites: Vec<&str> = SUITES.iter().map(|suite| suite.name).collect();
    eprintln!(
        "{problem}\nusage: report <{}|all> [--smoke] [--out PATH]
       report check <suite> <file>
       report render <paper artifact> <document>",
        suites.join("|")
    );
    std::process::exit(2);
}

fn suite_named(name: &str) -> &'static Suite {
    SUITES
        .iter()
        .find(|suite| suite.name == name)
        .unwrap_or_else(|| usage_error(&format!("unknown suite: {name}")))
}

fn read_artifact(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Measure `suite`, print the artifact, check it — the exact text it
/// would write, parsed, so `report check` on the file reaches the same
/// verdict — and write it to `out` only if it passes: a failed run
/// leaves the file it would have replaced as it was.
fn run_suite(suite: &Suite, smoke: bool, out: &str) -> Result<(), String> {
    // Some floors are relative to the artifact this run replaces.
    let replaced = read_artifact(out).ok();
    let started = Instant::now();
    let text = format!("{}\n", (suite.run)(smoke, alloc_count).to_pretty());
    print!("{text}");
    let summary = (suite.check)(&parse(&text)?, replaced.as_ref())
        .map_err(|failure| format!("{failure} ({out} left as it was)"))?;
    // A smoke run's default path is under `target/`, which a fresh
    // checkout does not have yet.
    let dir = std::path::Path::new(out).parent().unwrap_or(std::path::Path::new(""));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(out, text))
        .map_err(|e| format!("failed to write {out}: {e}"))?;
    eprintln!(
        "wrote {out} ({} suite, {:.1} s)",
        suite.name,
        started.elapsed().as_secs_f64()
    );
    eprintln!("{summary}");
    Ok(())
}

/// Rewrite `document`'s generated blocks from the `paper` artifact.
fn render(artifact: &str, document: &str) -> Result<(), String> {
    let report = read_artifact(artifact)?;
    let old = std::fs::read_to_string(document)
        .map_err(|e| format!("failed to read {document}: {e}"))?;
    let new = mbtls_bench::paper::render_into(&report, &old)?;
    std::fs::write(document, new).map_err(|e| format!("failed to write {document}: {e}"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage_error("missing suite"));
    let result = if command == "check" {
        let (Some(suite), Some(file), None) = (args.next(), args.next(), args.next()) else {
            usage_error("check takes a suite and a file");
        };
        read_artifact(&file)
            .and_then(|report| (suite_named(&suite).check)(&report, None))
            .map(|summary| eprintln!("{summary}"))
    } else if command == "render" {
        let (Some(artifact), Some(document), None) = (args.next(), args.next(), args.next()) else {
            usage_error("render takes a paper artifact and a document");
        };
        render(&artifact, &document)
    } else {
        let mut smoke = false;
        let mut out = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--out" => {
                    out = Some(
                        args.next()
                            .unwrap_or_else(|| usage_error("--out requires a path")),
                    )
                }
                other => usage_error(&format!("unknown argument: {other}")),
            }
        }
        let suites = match command.as_str() {
            "all" if out.is_some() => usage_error("--out names one file; run one suite with it"),
            "all" => &SUITES[..],
            name => std::slice::from_ref(suite_named(name)),
        };
        suites.iter().try_for_each(|suite| {
            run_suite(suite, smoke, &artifact_path(suite, smoke, out.as_deref()))
        })
    };
    if let Err(failure) = result {
        eprintln!("FAIL: {failure}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_leaves_the_artifact_as_it_was() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/report_failed_check.json");
        let before = "{\"smoke\": false}\n";
        std::fs::write(path, before).expect("write the old artifact");
        // A run whose AEAD rate is zero fails the chain suite's first row.
        let zeros = Suite {
            run: |_, _| parse(r#"{"smoke": false, "aead_mb_s": {"seal": 0.0}}"#).expect("JSON"),
            ..*suite_named("chain")
        };
        let error = run_suite(&zeros, false, path).expect_err("a zero rate fails its row");
        assert!(error.contains("aead_mb_s.seal is 0") && error.contains("left as it was"), "{error}");
        assert_eq!(std::fs::read_to_string(path).expect("the old artifact"), before);
        std::fs::remove_file(path).expect("remove the old artifact");
    }
}
