//! The live workspace must be lint-clean: zero findings of every
//! rule. This is the same check `scripts/check.sh`'s lint stage gates
//! on, run as a plain test so `cargo test` alone catches regressions.
//! Beside it, the crate roots must keep forbidding the invariants
//! rustc and clippy check for this crate (DESIGN.md §6d).

mod scope;

use std::path::{Path, PathBuf};

use mbtls_lint::{Finding, RuleId};
use scope::{forbidden_lints, workspace_root, UNSAFE_MODULES};

fn reported(rule: Option<RuleId>) -> Vec<String> {
    let findings: Vec<Finding> =
        mbtls_lint::lint_workspace(&workspace_root()).expect("workspace walk");
    findings
        .iter()
        .filter(|f| rule.is_none() || rule == Some(f.rule))
        .map(mbtls_lint::report::human)
        .collect()
}

/// Every finding of every rule fails: there is no waiver.
#[test]
fn workspace_has_no_blocking_findings() {
    let all = reported(None);
    assert!(
        all.is_empty(),
        "workspace has lint findings:\n{}",
        all.join("\n")
    );
}

/// The sharded host and netsim are shard-isolation-clean. The
/// shared-nothing audit (paper §6.2's per-middlebox isolation, carried
/// into the per-worker shards) is only as strong as this invariant:
/// the day a `Mutex` or a `static` lands in `crates/host`, the fix is
/// to restructure. (Hash-container iteration there is clippy's; see
/// `SHARD` below.)
#[test]
fn shard_scoped_crates_have_zero_shard_isolation_findings() {
    let shard = reported(Some(RuleId::ShardIsolation));
    assert!(
        shard.is_empty(),
        "shard-isolation findings in the live tree:\n{}",
        shard.join("\n")
    );
}

const PANIC: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];
const SANS_IO: &[&str] = &["clippy::disallowed_methods", "clippy::disallowed_types"];
const WIRE: &[&str] = &["clippy::indexing_slicing"];
/// No walk over a hash container: `for` loops are `iter_over_hash_type`,
/// the iteration methods are `disallowed_methods` over clippy.toml.
const SHARD: &[&str] = &["clippy::iter_over_hash_type", "clippy::disallowed_methods"];

/// (file, the clippy lint groups its `#![forbid(..)]` attributes must
/// name). The crate roots hold the crate-wide invariants; the wire
/// files, whose buffers hold attacker bytes, also forbid indexing, and
/// the shard-scoped crates forbid hash-container walks.
/// `unsafe_code` has its own tests: `unsafe_is_confined_with_zero_findings`
/// here and `engine.rs`'s `unsafe_confinement_*`.
const FORBIDS: &[(&str, &[&[&str]])] = &[
    ("crates/core/src/lib.rs", &[PANIC, SANS_IO]),
    ("crates/crypto/src/lib.rs", &[PANIC]),
    ("crates/tls/src/lib.rs", &[PANIC, SANS_IO]),
    ("crates/mboxes/src/lib.rs", &[PANIC, SHARD, WIRE]),
    ("crates/http/src/lib.rs", &[PANIC]),
    ("crates/netsim/src/lib.rs", &[SANS_IO, SHARD]),
    ("crates/sgx/src/lib.rs", &[PANIC, SANS_IO]),
    ("crates/telemetry/src/lib.rs", &[SANS_IO]),
    ("crates/host/src/lib.rs", &[SANS_IO, SHARD]),
    ("crates/pki/src/lib.rs", &[SANS_IO]),
    ("crates/tls/src/record.rs", &[WIRE]),
    ("crates/tls/src/codec.rs", &[WIRE]),
    ("crates/tls/src/messages.rs", &[WIRE]),
    ("crates/core/src/messages.rs", &[WIRE]),
    ("crates/core/src/dataplane.rs", &[WIRE]),
    ("crates/http/src/message.rs", &[WIRE]),
    ("crates/sgx/src/attest.rs", &[WIRE]),
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Sans-io, panic-freedom and shard isolation's hash-walk ban are
/// clippy lints, forbidden at each crate root (or wire file) they
/// bind, so no item below can `allow` them.
#[test]
fn scoped_roots_forbid_what_rustc_and_clippy_check() {
    for (file, groups) in FORBIDS {
        let forbidden = forbidden_lints(&scope::read(file));
        for lint in groups.iter().flat_map(|g| g.iter()) {
            assert!(
                forbidden.iter().any(|l| l == lint),
                "{file} must `#![forbid({lint})]`"
            );
        }
    }
    // `disallowed_methods` bans a hash walk only if clippy.toml names
    // each iteration method.
    let clippy = scope::read("clippy.toml");
    let walks = [
        "HashMap::iter", "HashMap::iter_mut", "HashMap::keys", "HashMap::values",
        "HashMap::values_mut", "HashMap::drain", "HashMap::retain", "HashMap::into_keys",
        "HashMap::into_values", "HashSet::iter", "HashSet::drain", "HashSet::retain",
    ];
    for method in walks {
        let path = format!("std::collections::{method}");
        assert!(
            clippy.contains(&format!("{{ path = \"{path}\"")),
            "clippy.toml must disallow {path}"
        );
    }
}

/// `allow(unsafe_code)` appears in `crates/*/src` only on crypto's
/// five `unsafe` modules' `mod` lines: rustc's `forbid`/`deny` then
/// rejects `unsafe` everywhere else in every build.
#[test]
fn unsafe_is_confined_with_zero_findings() {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    let mut allowed = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if !code.contains("allow(unsafe_code") {
                continue;
            }
            let module = lines
                .get(i + 1)
                .and_then(|next| next.trim().trim_start_matches("pub ").strip_prefix("mod "))
                .and_then(|m| m.strip_suffix(';'));
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            match module {
                Some(m)
                    if rel == "crates/crypto/src/lib.rs"
                        && code.trim() == "#[allow(unsafe_code)]" =>
                {
                    allowed.push(m.to_string())
                }
                _ => panic!(
                    "{rel}:{}: `allow(unsafe_code)` outside crypto's five module lines",
                    i + 1
                ),
            }
        }
    }
    allowed.sort_unstable();
    assert_eq!(
        allowed, UNSAFE_MODULES,
        "crypto allows unsafe_code on exactly these modules"
    );
}
