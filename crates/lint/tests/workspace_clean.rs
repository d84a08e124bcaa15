//! The live workspace must be lint-clean: zero findings of every
//! rule, allowed or not. This is the same check `scripts/check.sh`'s
//! lint stage gates on, run as a plain test so `cargo test` alone
//! catches regressions.

use std::path::{Path, PathBuf};

use mbtls_lint::{Finding, RuleId};

fn workspace_findings() -> (PathBuf, Vec<Finding>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
        .to_path_buf();
    let findings = mbtls_lint::lint_workspace(&root).expect("workspace walk");
    (root, findings)
}

fn reported(findings: &[Finding], rule: Option<RuleId>) -> Vec<String> {
    findings
        .iter()
        .filter(|f| rule.is_none() || rule == Some(f.rule))
        .map(mbtls_lint::report::human)
        .collect()
}

/// Every finding blocks, of every rule, and an annotated one fails
/// like any other: a `lint:allow` is a reason in the report, not a
/// pass.
#[test]
fn workspace_has_no_blocking_findings() {
    let (_, findings) = workspace_findings();
    let all = reported(&findings, None);
    assert!(
        all.is_empty(),
        "workspace has lint findings (allowed ones count too):\n{}",
        all.join("\n")
    );
}

/// The sharded host and netsim are shard-isolation-clean. The
/// shared-nothing audit (paper §6.2's per-middlebox isolation, carried
/// into the per-worker shards) is only as strong as this invariant:
/// the day a `Mutex` or hash-iteration lands in `crates/host`, the fix
/// is to restructure, not to annotate.
#[test]
fn shard_scoped_crates_have_zero_shard_isolation_findings() {
    let (_, findings) = workspace_findings();
    let shard = reported(&findings, Some(RuleId::ShardIsolation));
    assert!(
        shard.is_empty(),
        "shard-isolation findings in the live tree (allowed or not):\n{}",
        shard.join("\n")
    );
}

/// `unsafe` in the shipping crates is confined to the files the rule
/// lists. A per-line `lint:allow(unsafe-confinement)` would grow the
/// unsafe surface without touching the list a reviewer reads; the fix
/// is safe code, or an addition to
/// `rules::unsafe_confinement::ALLOWED_FILES`, the one place the unsafe
/// surface is listed.
#[test]
fn unsafe_is_confined_with_zero_findings() {
    let (root, findings) = workspace_findings();
    let stray = reported(&findings, Some(RuleId::UnsafeConfinement));
    assert!(
        stray.is_empty(),
        "`unsafe` outside the confinement list (allowed or not):\n{}",
        stray.join("\n")
    );
    // The list names real files: a rename must not leave a stale
    // entry that silently allows nothing.
    for path in mbtls_lint::rules::unsafe_confinement::ALLOWED_FILES {
        assert!(root.join(path).is_file(), "confinement list names a missing file: {path}");
    }
}
