//! # mbtls-bench
//!
//! The experiment harness. The five `BENCH_*.json` artifacts are
//! [`SUITES`] of the one `report` binary: each suite module measures
//! into a JSON [`Value`] (`run`) and states its schema and floors as
//! a function over a parsed one (`check`), so an artifact on disk and
//! a fresh measurement are judged by the same code.
//!
//! Four suites are regression gates on this implementation; the
//! fifth, [`paper`], is the paper's own evaluation — one module per
//! table or figure ([`table1`], [`table2`], [`fig5`], [`fig6`],
//! [`fig7`], [`sites`]) behind it — and renders EXPERIMENTS.md's
//! tables. See DESIGN.md §5 for the experiment index.

use mbtls_core::client::MbClientSession;
use mbtls_core::driver::Relay;
use mbtls_core::server::MbServerSession;
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

pub mod auth;
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
pub const SUITES: [Suite; 5] = [
    Suite { name: "scale", artifact: "BENCH_scale.json", run: scale::run, check: scale::check },
    Suite {
        name: "handshake",
        artifact: "BENCH_handshake.json",
        run: handshake::run,
        check: handshake::check,
    },
    Suite { name: "chain", artifact: "BENCH_chain.json", run: chain::run, check: chain::check },
    Suite { name: "auth", artifact: "BENCH_auth.json", run: auth::run, check: auth::check },
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

/// One hand-driven pass over a client → middlebox → server session:
/// each hop's bytes go to `hop` and then on to the next party, in the
/// order 0 client → middlebox, 1 middlebox → server, 2 server →
/// middlebox, 3 middlebox → client. The parties stay the caller's, so
/// their state can be read between passes.
pub(crate) fn pass(
    client: &mut MbClientSession,
    mbox: &mut dyn Relay,
    server: &mut MbServerSession,
    mut hop: impl FnMut(usize, &[u8]),
) -> Result<(), MbError> {
    let bytes = client.take_outgoing();
    hop(0, &bytes);
    mbox.feed_left(&bytes)?;
    let bytes = mbox.take_right();
    hop(1, &bytes);
    server.feed_incoming(&bytes)?;
    let bytes = server.take_outgoing();
    hop(2, &bytes);
    mbox.feed_right(&bytes)?;
    let bytes = mbox.take_left();
    hop(3, &bytes);
    client.feed_incoming(&bytes)
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
