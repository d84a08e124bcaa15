//! # mbtls-bench
//!
//! The experiment harness. The four `BENCH_*.json` artifacts are
//! [`SUITES`] of the one `report` binary: each suite module measures
//! into a JSON [`Value`] (`run`) and judges a parsed one (`check`), so
//! an artifact on disk and a fresh measurement are judged by the same
//! code.
//!
//! A suite states its floors as rows first: a `const` table of
//! [`Floor`]s, each a dotted key, a relation, a bound and a one-line
//! reason, all checked by one function, [`check_floors`]. Its `check`
//! runs that table and then the few floors no row can express (a
//! stored value against the one recomputed from other keys, an
//! ascending list, a formula over several keys); each suite's `check`
//! doc names them.
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
/// holds — one line per floor a [`Floor`] row cannot express. The
/// condition is evaluated as written and then negated, so a NaN fails
/// `x >= floor` instead of passing `x < floor`.
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
    /// The suite's floors as rows, which `check` runs first.
    pub floors: &'static [Floor],
    /// Schema and floor checks over a parsed artifact: [`check_floors`]
    /// over `floors`, then the floors no row can express. The second
    /// argument is the artifact a fresh run is about to replace, for
    /// floors stated relative to it. Returns a one-line summary, or
    /// the first failed floor.
    pub check: fn(&Value, Option<&Value>) -> Result<String, String>,
}

/// The suite of module `$name`, whose artifact is `BENCH_$name.json`.
macro_rules! suite {
    ($name:ident) => {
        Suite {
            name: stringify!($name),
            artifact: concat!("BENCH_", stringify!($name), ".json"),
            run: $name::run,
            floors: $name::FLOORS,
            check: $name::check,
        }
    };
}

/// Every suite, in the order `report all` runs them.
pub const SUITES: [Suite; 4] = [suite!(scale), suite!(handshake), suite!(chain), suite!(paper)];

/// How a [`Floor`]'s value stands to its bound, in this order: `>`,
/// `>=`, `<`, `<=`, and `==`, the only one a text or a flag takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rel {
    Gt,
    Ge,
    Lt,
    Le,
    Equal,
}

/// What a [`Floor`] holds its value to: a number, a text, a flag, or
/// the number at another key of the same report, each `*` in which
/// stands at the index the row's own `*` in that place is at.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    Num(f64),
    Text(&'static str),
    Flag(bool),
    Key(&'static str),
}

/// One floor of a suite, as a row: the value at `key` stands in
/// relation `rel` to `bound`, for the reason `why`; a `full_only` row
/// binds full runs only, as smoke budgets are too small to measure it.
///
/// `key` is a dotted path of object keys and array indices. A `*`
/// step stands for every element of the list before it, and fails
/// over an empty list, as a floor over no rows would hold of nothing.
/// A last step `#` is the length of the list before it.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    pub key: &'static str,
    pub rel: Rel,
    pub bound: Bound,
    pub full_only: bool,
    pub why: &'static str,
}

/// A floor every run is held to.
pub const fn row(key: &'static str, rel: Rel, bound: Bound, why: &'static str) -> Floor {
    Floor { key, rel, bound, full_only: false, why }
}

/// A floor only full runs are held to.
pub const fn full_row(key: &'static str, rel: Rel, bound: Bound, why: &'static str) -> Floor {
    Floor { key, rel, bound, full_only: true, why }
}

impl Floor {
    /// `Ok` if `report` holds this floor at every element its `*`s
    /// reach, else the first place it breaks, with the key named, as
    /// it is for a missing key or one of the wrong JSON type. A NaN
    /// holds no relation.
    pub fn holds(&self, report: &Value) -> Result<(), String> {
        for stars in fillings(report, self.key, Vec::new())? {
            let key = fill(self.key, &stars);
            let value = scalar(report, &key)?;
            let bound = match self.bound {
                Bound::Num(bound) => Value::Float(bound, 0),
                Bound::Text(text) => Value::Str(text.into()),
                Bound::Flag(flag) => Value::Bool(flag),
                Bound::Key(other) => scalar(report, &fill(other, &stars))?,
            };
            let held = match (number(&value), number(&bound)) {
                (Some(v), Some(b)) => [v > b, v >= b, v < b, v <= b, v == b][self.rel as usize],
                _ => self.rel == Rel::Equal && value == bound,
            };
            if !held {
                let rel = [">", ">=", "<", "<=", "=="][self.rel as usize];
                let bound = if let Bound::Num(bound) = self.bound { bound.to_string() } else { bound.to_pretty() };
                return Err(format!("{key} is {}, not {rel} {bound}: {}", value.to_pretty(), self.why));
            }
        }
        Ok(())
    }
}

/// Check `report` against a suite's rows: `Ok`, or the first row it
/// breaks. A `full_only` row binds only when the report's `smoke` flag
/// is false.
pub fn check_floors(report: &Value, floors: &[Floor]) -> Result<(), String> {
    let smoke = report.flag("smoke")?;
    floors.iter().filter(|floor| !(smoke && floor.full_only)).try_for_each(|floor| floor.holds(report))
}

/// `pattern` with its first `stars.len()` `*` steps replaced by those
/// indices, in order.
fn fill(pattern: &str, stars: &[usize]) -> String {
    stars.iter().fold(pattern.to_string(), |path, i| path.replacen('*', &i.to_string(), 1))
}

/// Every way to fill the `*`s of `pattern` that `stars` leaves open
/// with indices of the lists they stand in, in document order.
fn fillings(report: &Value, pattern: &str, stars: Vec<usize>) -> Result<Vec<Vec<usize>>, String> {
    let path = fill(pattern, &stars);
    let Some(list) = path.find(".*").map(|at| &path[..at]) else { return Ok(vec![stars]) };
    match report.list(list)?.len() {
        0 => Err(format!("\"{list}\" is empty")),
        len => {
            let each = (0..len).map(|i| fillings(report, pattern, [stars.as_slice(), &[i]].concat()));
            Ok(each.collect::<Result<Vec<_>, _>>()?.concat())
        }
    }
}

/// The value at `path`, or the length of the list before a last `#`.
fn scalar(report: &Value, path: &str) -> Result<Value, String> {
    match path.strip_suffix(".#") {
        Some(list) => Ok(Value::Int(report.list(list)?.len() as i128)),
        None => report.at(path).cloned(),
    }
}

/// A number's value, whether written with a fraction or without.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(v) => Some(*v as f64),
        Value::Float(v, _) => Some(*v),
        _ => None,
    }
}

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
    times.map(median)
}

/// The median of `samples` (the upper one of an even count).
pub(crate) fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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
        replaced(report, path, parse(new).unwrap_or_else(|e| panic!("{new}: {e}")))
    }

    /// `report` with the value at the dotted `path` replaced by `new`.
    fn replaced(report: &Value, path: &str, new: Value) -> Value {
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
        *node = new;
        out
    }

    /// `report` with `floor`'s key pushed just past its bound at the
    /// last element its `*`s reach: a number one unit of its last
    /// written digit beyond the bound (onto it, for a strict relation),
    /// a list one element longer, a text or a flag changed.
    fn broken(report: &Value, floor: &Floor) -> Value {
        let stars = fillings(report, floor.key, Vec::new()).unwrap().pop().expect("a filling");
        let key = fill(floor.key, &stars);
        if let Some(list) = key.strip_suffix(".#") {
            assert_eq!(floor.rel, Rel::Equal, "{key}: a length is only held equal");
            let mut items = report.list(list).unwrap().to_vec();
            items.push(items.last().expect("a list to lengthen").clone());
            return replaced(report, list, Value::Array(items));
        }
        let bound = match floor.bound {
            Bound::Num(bound) => bound,
            Bound::Key(other) => report.num(&fill(other, &stars)).unwrap(),
            Bound::Text(text) => return replaced(report, &key, Value::Str(format!("not {text}"))),
            Bound::Flag(flag) => return replaced(report, &key, Value::Bool(!flag)),
        };
        let decimals = if let Value::Float(_, decimals) = report.at(&key).unwrap() { *decimals } else { 0 };
        let step = 10f64.powi(-(decimals as i32));
        let past = [bound, bound - step, bound, bound + step, bound + step][floor.rel as usize];
        replaced(report, &key, Value::Float(past, decimals))
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

    /// Each row of each suite, pushed past its bound on the committed
    /// artifact, fails, no row over another key does, and the suite's
    /// `check` names it; a full-only one passes again once the artifact
    /// says it is a smoke run. Then the edge cases of the checker.
    #[test]
    fn every_row_trips_alone_and_edge_cases_fail() {
        for suite in &SUITES {
            let report = committed(suite.name);
            for floor in suite.floors {
                let broken = broken(&report, floor);
                let error = floor.holds(&broken).expect_err(&format!("{} held", floor.key));
                for other in suite.floors {
                    // A row that reads the same key, as its own or as
                    // its bound, may fail with it: a storm rate of 0 also
                    // loses to its baseline, and a curve row of 0 shards
                    // has the wrong number of walls.
                    let reads_it = other.key == floor.key
                        || matches!(other.bound, Bound::Key(key) if key == floor.key);
                    assert!(reads_it || other.holds(&broken).is_ok(), "{error} also breaks {other:?}");
                }
                assert_eq!((suite.check)(&broken, None), Err(error), "{}", suite.name);
                if floor.full_only {
                    let smoke = replaced(&broken, "smoke", Value::Bool(true));
                    check_floors(&smoke, suite.floors)
                        .unwrap_or_else(|e| panic!("{}: a smoke run is held to {e}", floor.key));
                }
            }
        }

        // The checker's edge cases: a NaN under every relation, a
        // missing or mistyped key, and a `*` over an empty list where a
        // suite demands rows.
        let case = |json: &str, key, rel, bound, expected: &str| {
            (parse(json).unwrap(), vec![row(key, rel, bound, "")], expected.to_string())
        };
        let (gt, eq, num) = (Rel::Gt, Rel::Equal, Bound::Num(0.0));
        let mut cases = vec![
            case(r#"{"x": 1}"#, "y", gt, num, "\"y\" is missing"),
            case(r#"{"x": 1}"#, "x", gt, Bound::Key("y"), "\"y\" is missing"),
            case(r#"{"x": [{}]}"#, "x.*.y", gt, num, "\"x.0.y\" is missing"),
            case(r#"{"x": "1"}"#, "x", gt, num, "x is \"1\", not > 0"),
            case(r#"{"x": 1}"#, "x", eq, Bound::Text("1"), "x is 1, not == \"1\""),
            case(r#"{"x": 1}"#, "x", eq, Bound::Flag(true), "x is 1, not == true"),
            case(r#"{"x": "a"}"#, "x", gt, Bound::Text("a"), "x is \"a\", not > \"a\""),
            case(r#"{"x": 1}"#, "x.*.y", gt, num, "\"x\" is not an array"),
            case(r#"{"x": {}}"#, "x.#", gt, num, "\"x\" is not an array"),
        ];
        let nan = Value::object([("x", Value::Float(f64::NAN, 2)), ("y", Value::Int(0))]);
        for rel in [Rel::Gt, Rel::Ge, Rel::Lt, Rel::Le, Rel::Equal] {
            for bound in [num, Bound::Key("y")] {
                cases.push((nan.clone(), vec![row("x", rel, bound, "")], "x is NaN".into()));
            }
        }
        let demanded = [("handshake", "verify"), ("scale", "sessions"), ("scale", "sessions.0.curve")];
        let demanded = demanded.into_iter().chain([("scale", "full_baseline.curve"), ("scale", "storm.curve")]);
        for (suite, list) in demanded.chain([("scale", "allocs_per_record_per_shard")]) {
            let floors = SUITES.iter().find(|s| s.name == suite).expect("suite exists").floors;
            let report = doctored(&committed(suite), list, "[]");
            cases.push((report, floors.to_vec(), format!("\"{list}\" is empty")));
        }
        for (report, floors, expected) in cases {
            let error = floors.iter().try_for_each(|floor| floor.holds(&report)).unwrap_err();
            assert!(error.contains(&expected), "{error:?} does not name {expected:?}");
        }
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
