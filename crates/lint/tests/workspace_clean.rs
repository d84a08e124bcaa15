//! The live workspace must be lint-clean: zero blocking findings.
//! This is the same check `scripts/check.sh` gates on, run as a
//! plain test so `cargo test` alone catches regressions.

use std::path::Path;

#[test]
fn workspace_has_no_blocking_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let findings = mbtls_lint::lint_workspace(root).expect("workspace walk");
    let blocking: Vec<String> = findings
        .iter()
        .filter(|f| f.is_blocking())
        .map(mbtls_lint::report::human)
        .collect();
    assert!(
        blocking.is_empty(),
        "workspace has unannotated lint findings:\n{}",
        blocking.join("\n")
    );
}

/// The sharded host and netsim are shard-isolation-clean with no
/// allowances at all — not even waived findings. The shared-nothing
/// audit (paper §6.2's per-middlebox isolation, carried into PR 6's
/// per-worker shards) is only as strong as this invariant: the day a
/// `Mutex` or hash-iteration lands in `crates/host`, the fix is to
/// restructure, not to annotate.
#[test]
fn shard_scoped_crates_have_zero_shard_isolation_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let findings = mbtls_lint::lint_workspace(root).expect("workspace walk");
    let shard: Vec<String> = findings
        .iter()
        .filter(|f| f.rule == mbtls_lint::RuleId::ShardIsolation)
        .map(mbtls_lint::report::human)
        .collect();
    assert!(
        shard.is_empty(),
        "shard-isolation findings in the live tree (allowed or not):\n{}",
        shard.join("\n")
    );
}

/// `unsafe` in the shipping crates is confined to the files the rule
/// lists, with no allowances at all — not even waived findings. A
/// per-line `lint:allow(unsafe-confinement)` would grow the unsafe
/// surface without touching the list a reviewer reads; the fix is
/// safe code, or a reviewed addition to
/// `rules::unsafe_confinement::ALLOWED_FILES`.
#[test]
fn unsafe_is_confined_with_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let findings = mbtls_lint::lint_workspace(root).expect("workspace walk");
    let stray: Vec<String> = findings
        .iter()
        .filter(|f| f.rule == mbtls_lint::RuleId::UnsafeConfinement)
        .map(mbtls_lint::report::human)
        .collect();
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
