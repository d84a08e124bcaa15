//! # mbtls-bench
//!
//! The experiment harness. The four `BENCH_*.json` artifacts are
//! [`SUITES`] of the one `report` binary: each suite module measures
//! into a JSON [`Value`] (`run`) and states its schema and floors as
//! a function over a parsed one (`check`), so an artifact on disk and
//! a fresh measurement are judged by the same code.
//!
//! Three suites are regression gates on this implementation; the
//! fourth, [`paper`], is the paper's own evaluation — one module per
//! table or figure ([`table1`], [`table2`], [`fig5`], [`fig6`],
//! [`fig7`], [`sites`]) behind it, the middlebox-authorization
//! comparison among its ablations — and renders EXPERIMENTS.md's
//! tables. See DESIGN.md §5 for the experiment index.
//!
//! Every handshake a suite times goes through [`time_handshakes`],
//! and every handshake whose wire bytes it counts through
//! [`counted_handshake`]; both drive a [`Chain`], the latter over
//! [`TapLinks`]. So do Table 1's captures: nothing here pumps parties
//! by hand.

use std::time::Instant;

use mbtls_core::attacks::settle;
use mbtls_core::driver::{Chain, TapLinks};
use mbtls_core::MbError;
use mbtls_telemetry::json::Value;

/// `Err(format!(..))` out of a `check` function unless the condition
/// holds — one line per floor. The condition is evaluated as written
/// and then negated, so a NaN fails `x >= floor` instead of passing
/// `x < floor`.
macro_rules! floor {
    ($ok:expr, $($message:tt)+) => {
        let holds: bool = $ok;
        if !holds {
            return Err(format!($($message)+));
        }
    };
}

pub mod chain;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod handshake;
pub mod paper;
pub mod scale;
pub mod sites;
pub mod table1;
pub mod table2;
pub mod timing;

/// Reads the process's allocation count. The `report` binary passes
/// its counting global allocator's; the library stays
/// allocator-agnostic (tests pass a constant).
pub type AllocCounter = fn() -> u64;

/// One regression artifact: how to measure it and how to judge it.
pub struct Suite {
    /// The name `report <suite>` takes.
    pub name: &'static str,
    /// The committed artifact, relative to the repo root.
    pub artifact: &'static str,
    /// Measure; `true` selects the tiny `--smoke` budgets.
    pub run: fn(bool, AllocCounter) -> Value,
    /// Schema and floor checks over a parsed artifact. The second
    /// argument is the artifact a fresh run is about to replace, for
    /// floors stated relative to it. Returns a one-line summary, or
    /// the first failed floor.
    pub check: fn(&Value, Option<&Value>) -> Result<String, String>,
}

/// Every suite, in the order `report all` runs them.
pub const SUITES: [Suite; 4] = [
    Suite { name: "scale", artifact: "BENCH_scale.json", run: scale::run, check: scale::check },
    Suite {
        name: "handshake",
        artifact: "BENCH_handshake.json",
        run: handshake::run,
        check: handshake::check,
    },
    Suite { name: "chain", artifact: "BENCH_chain.json", run: chain::run, check: chain::check },
    Suite { name: "paper", artifact: "BENCH_paper.json", run: paper::run, check: paper::check },
];

/// Where `report` writes `suite`'s artifact: `out` if given, else the
/// committed file's name — under `target/` for a smoke run, so smoke
/// numbers never overwrite a committed artifact.
pub fn artifact_path(suite: &Suite, smoke: bool, out: Option<&str>) -> String {
    match out {
        Some(out) => out.to_string(),
        None if smoke => format!("target/{}", suite.artifact),
        None => suite.artifact.to_string(),
    }
}

/// Allocations per operation over `ops` steady-state operations of an
/// already warmed-up `pump`. Two extra operations run first so any
/// lazily-grown buffer (first-use capacity bumps) settles before
/// counting.
pub fn allocs_per_op(count: AllocCounter, ops: u64, mut pump: impl FnMut(u64)) -> f64 {
    pump(2);
    let before = count();
    pump(ops);
    (count() - before) as f64 / ops as f64
}

/// The offset basis [`fnv1a`] digests start from.
pub(crate) const FNV1A_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into a running 64-bit FNV-1a `digest` — the suites'
/// determinism fingerprint.
pub(crate) fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0100_0000_01B3);
    }
}

/// Wall-clock microseconds per handshake for each of `builders`, the
/// median over `iters` chains each. A builder makes one chain, not yet
/// started, from a seed; only [`Chain::run_handshake`] is timed, and
/// every timed handshake must come out `resumed` or not as asked. The
/// builders take turns, after one untimed round, so that a slow phase
/// of the machine lands on all of them alike: every handshake does the
/// same work and interference only adds time, so the median ignores
/// the spikes a mean absorbs.
pub fn time_handshakes<const N: usize>(
    iters: usize,
    resumed: bool,
    builders: [impl Fn(u64) -> Chain; N],
) -> [f64; N] {
    let mut times = [(); N].map(|()| Vec::with_capacity(iters));
    for i in 0..=iters {
        for (build, times) in builders.iter().zip(&mut times) {
            let mut chain = build(i as u64);
            let t0 = Instant::now();
            chain.run_handshake().expect("timed handshake completes");
            let us = t0.elapsed().as_secs_f64() * 1e6;
            assert_eq!(chain.client.resumed(), resumed, "timed handshake took the other path");
            if i > 0 {
                times.push(us);
            }
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    })
}

/// Run `chain`'s handshake over [`TapLinks`] until both endpoints are
/// ready and nothing moves ([`settle`]), so trailing control records
/// (key delivery to the middleboxes) land in the count. Returns the wire
/// bytes across every link and their digest, the determinism
/// fingerprint.
pub fn counted_handshake(mut chain: Chain) -> Result<(u64, u64), MbError> {
    let (mut bytes, mut digest) = (0, FNV1A_BASIS);
    let mut links = TapLinks::new(chain.parties() - 1, |_, _, data: &[u8]| {
        bytes += data.len() as u64;
        fnv1a(&mut digest, data);
    });
    settle(&mut chain, &mut links)?;
    if !(chain.client.ready() && chain.server.ready()) {
        return Err(MbError::unexpected_state("counted handshake did not complete"));
    }
    Ok((bytes, digest))
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use mbtls_telemetry::json::parse;

    /// The committed artifact of the suite called `name`, parsed.
    pub fn committed(name: &str) -> Value {
        let suite = SUITES.iter().find(|suite| suite.name == name).expect("suite exists");
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), suite.artifact);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// `report` with the value at the dotted `path` replaced by the
    /// JSON text `new`.
    pub fn doctored(report: &Value, path: &str, new: &str) -> Value {
        let mut out = report.clone();
        let mut node = &mut out;
        for step in path.split('.') {
            node = match node {
                Value::Array(items) => &mut items[step.parse::<usize>().expect("array index")],
                Value::Object(pairs) => {
                    &mut pairs.iter_mut().find(|(k, _)| k == step).expect("doctored key exists").1
                }
                _ => panic!("{path}: {step} is inside a scalar"),
            };
        }
        *node = parse(new).unwrap_or_else(|e| panic!("{new}: {e}"));
        out
    }

    /// Assert that `check` passes `valid` as it stands (as written and
    /// read back, the way the binary checks it) and fails each
    /// `(path, replacement, expected message)` case with the floor named.
    pub fn assert_floors(
        check: fn(&Value, Option<&Value>) -> Result<String, String>,
        valid: &Value,
        cases: &[(&str, &str, &str)],
    ) {
        let valid = parse(&valid.to_pretty()).expect("report round-trips");
        check(&valid, None).unwrap_or_else(|e| panic!("valid report rejected: {e}"));
        for (path, new, expected) in cases {
            let error = check(&doctored(&valid, path, new), None)
                .expect_err(&format!("{path} = {new} passed"));
            assert!(error.contains(expected), "{path}: {error:?} does not name {expected:?}");
        }
    }

    #[test]
    fn smoke_artifacts_default_under_target() {
        let chain = SUITES.iter().find(|suite| suite.name == "chain").expect("suite exists");
        assert_eq!(artifact_path(chain, false, None), "BENCH_chain.json");
        assert_eq!(artifact_path(chain, true, None), "target/BENCH_chain.json");
        assert_eq!(artifact_path(chain, true, Some("x.json")), "x.json");
        assert_eq!(artifact_path(chain, false, Some("x.json")), "x.json");
    }

    #[test]
    fn committed_artifacts_pass_their_own_checks() {
        for suite in &SUITES {
            let report = committed(suite.name);
            assert_eq!(report.flag("smoke"), Ok(false), "{} is a smoke run", suite.artifact);
            (suite.check)(&report, Some(&report))
                .unwrap_or_else(|e| panic!("{}: {e}", suite.artifact));
        }
    }
}
