//! Emit `BENCH_handshake.json` — the handshake fast-path regression
//! artifact.
//!
//! Usage:
//!
//! ```text
//! handshake_report [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs tiny batches and fleets (sub-second) so
//! `scripts/check.sh` can gate on the harness working end to end;
//! numbers from a smoke run are noisy and flagged `"smoke": true` in
//! the JSON. Full runs (`scripts/bench_report.sh`) measure:
//!
//! * single-vs-batched Ed25519 verification throughput at batch
//!   sizes 4/16/32/64 (floor: best batched rate ≥ 2× single);
//! * CPU per full vs. ticket-resumed handshake (ceilings: resumed
//!   ≤ 0.40 of full and ≤ 1.2× the committed artifact's resumed µs);
//! * the reconnect-storm curve at 1/2/4/8 shards against an
//!   all-full-handshake baseline (floor: storm beats baseline at
//!   every shard count);
//! * a double-run determinism probe with batching enabled.

use mbtls_bench::handshake::{
    bench_handshake_cpu, bench_storm_curve, bench_verify_row, storm_determinism_probe,
    HandshakeReport, STORM_SHARD_CURVE,
};

fn write_artifact(out_path: &str, report: &HandshakeReport) {
    let json = report.to_json();
    std::fs::write(out_path, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_handshake.json");
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
                eprintln!("usage: handshake_report [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let batches: &[usize] = if smoke { &[4, 16] } else { &[4, 16, 32, 64] };
    let min_verifies = if smoke { 16 } else { 1024 };
    let cpu_iters = if smoke { 4 } else { 200 };
    let storm_n = if smoke { 16 } else { 2_000 };
    let storm_curve: &[u16] = if smoke { &[1, 2] } else { STORM_SHARD_CURVE };
    let determinism_sessions = if smoke { 16 } else { 1_000 };
    let determinism_shards: u16 = 4;
    let seed = 0x5EED_CAFE;

    eprintln!("verification throughput over batches {batches:?}...");
    let verify: Vec<_> =
        batches.iter().map(|&b| bench_verify_row(b, min_verifies, seed)).collect();
    for row in &verify {
        eprintln!(
            "  batch {:>3}: single {:>9.1}/s  batched {:>9.1}/s  speedup {:.2}x",
            row.batch, row.single_verifies_per_s, row.batched_verifies_per_s, row.speedup
        );
    }

    eprintln!("handshake CPU ({cpu_iters} iterations each)...");
    let cpu = bench_handshake_cpu(cpu_iters, seed);
    eprintln!(
        "  full {:.1} µs, resumed {:.1} µs, ratio {:.3}",
        cpu.full_us, cpu.resumed_us, cpu.resumed_over_full
    );

    eprintln!("storm curve n={storm_n} over shards {storm_curve:?}...");
    let storm = bench_storm_curve(storm_n, seed, storm_curve);
    for run in &storm {
        eprintln!(
            "  shards {}: full {:>9.1}/s  storm {:>9.1}/s  resumed share {:.3}",
            run.shards, run.full_handshakes_per_s, run.storm_handshakes_per_s,
            run.storm_resumed_share
        );
    }

    let (_, determinism_identical) =
        storm_determinism_probe(determinism_sessions, determinism_shards, seed);
    eprintln!(
        "determinism ({determinism_sessions} sessions, {determinism_shards} shards, batching on): {}",
        if determinism_identical { "bit-identical" } else { "DIVERGED" }
    );

    let report = HandshakeReport {
        smoke,
        verify,
        cpu,
        storm,
        determinism_seed: seed,
        determinism_sessions,
        determinism_shards,
        determinism_identical,
    };
    write_artifact(&out_path, &report);
    println!("{}", report.to_json());
    eprintln!("wrote {out_path}");
}
