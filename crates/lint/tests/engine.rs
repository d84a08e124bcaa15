//! Engine tests over the on-disk fixtures: every `bad.rs` must
//! produce its rule family's findings, and every `good.rs` none.
//!
//! The fixtures are loaded at runtime (not `include_str!`) so that
//! deleting one fails the corresponding test rather than silently
//! shrinking coverage.

mod scope;

use mbtls_lint::{lint_source, Finding, RuleId};
use scope::{forbidden_lints, UNSAFE_MODULES};

/// Read a fixture or fail the test with a pointed message.
fn fixture(family: &str, name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{family}/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => panic!("fixture {path} is missing ({e}); the rule family has lost its regression anchor"),
    }
}

fn lines_of(findings: &[Finding], rule: RuleId) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn secret_hygiene_bad_fixture_is_caught() {
    let src = fixture("secret_hygiene", "bad.rs");
    // The crypto label activates the zeroize-on-drop requirement.
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("derives Debug")),
        "missing derive(Debug) finding: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("no `impl Drop`")),
        "missing zeroize-on-drop finding: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("implements Display")),
        "missing Display finding: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("debug format specifier")),
        "missing {{:?}} finding: {msgs:?}"
    );
}

#[test]
fn secret_hygiene_good_fixture_is_clean() {
    let src = fixture("secret_hygiene", "good.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

// Key bytes in a plain buffer inside a key-bearing struct, with no
// destructor to wipe them.
#[test]
fn secret_hygiene_raw_buffer_field_without_drop_is_caught() {
    let src = fixture("secret_hygiene", "bad_raw_field.rs");
    let findings = lint_source("crates/tls/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    let lines: Vec<usize> = findings
        .iter()
        .filter(|f| f.message.contains("no `impl Drop`"))
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![1, 7, 13], "findings: {findings:?}");
}

// The same structs made of `Secret`s, and an enum of self-wiping
// variants, need no destructor and no allow.
#[test]
fn secret_hygiene_self_wiping_fields_need_no_drop() {
    let src = fixture("secret_hygiene", "good_secret_fields.rs");
    let findings = lint_source("crates/tls/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn secret_hygiene_drop_required_in_all_scoped_crates() {
    let src = fixture("secret_hygiene", "bad.rs");
    // Key material lives in every scoped crate, so the zeroize-on-drop
    // requirement follows the family everywhere it is enforced.
    for label in [
        "crates/crypto/src/fixture.rs",
        "crates/sgx/src/fixture.rs",
        "crates/tls/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        let findings = lint_source(label, &src, &[RuleId::SecretHygiene]);
        assert!(
            findings.iter().any(|f| f.message.contains("no `impl Drop`")),
            "expected zeroize-on-drop finding under {label}: {findings:?}"
        );
    }
    // Outside the workspace's secret-bearing crates (fixture labels,
    // tooling) the printability findings fire but Drop is not forced.
    let findings = lint_source("crates/telemetry/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    assert!(
        !findings.iter().any(|f| f.message.contains("no `impl Drop`")),
        "drop requirement must not extend past crypto/sgx/tls/core"
    );
    assert!(findings.iter().any(|f| f.message.contains("derives Debug")));
}

#[test]
fn secret_hygiene_multiline_fixture_is_caught() {
    let src = fixture("secret_hygiene", "bad_multiline.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    // `Debug` sits on its own line inside a multi-line #[derive(...)].
    assert!(
        findings.iter().any(|f| f.line == 3 && f.message.contains("derives Debug")),
        "multi-line derive not attached to the declaration: {findings:?}"
    );
    // `impl std::fmt::Display\n    for WrapSecret` spans the header.
    assert!(
        findings.iter().any(|f| f.message.contains("implements Display")),
        "split impl header not matched: {findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("no `impl Drop`")));
}

#[test]
fn const_time_bad_fixture_is_caught() {
    let src = fixture("const_time", "bad.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert_eq!(lines_of(&findings, RuleId::ConstTime), vec![2, 6]);
    assert!(
        findings.iter().any(|f| f.message.contains("table lookup")),
        "missing table-lookup finding: {findings:?}"
    );
}

#[test]
fn const_time_multiline_fixture_is_caught() {
    let src = fixture("const_time", "bad_multiline.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    let lines = lines_of(&findings, RuleId::ConstTime);
    // The comparison anchors on the `==` token (line 3); the lookup
    // anchors on the `[` even though the index is on the next line.
    for expected in [3, 4] {
        assert!(lines.contains(&expected), "expected const-time finding on line {expected}, got {lines:?}");
    }
    assert!(findings.iter().any(|f| f.message.contains("peer_tag")));
    assert!(findings.iter().any(|f| f.message.contains("sbox[b as usize]")));
}

#[test]
fn const_time_good_fixture_is_clean() {
    let src = fixture("const_time", "good.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn const_time_window_fixture_is_caught() {
    // Precomputed-table window fetches indexed by scalar-derived
    // data: a cast inside the brackets (line 4) and a `usize::from`
    // inside the brackets (line 8) must fire. An index that aliases a
    // secret through a local (line 13) is not seen: the rule reads
    // names, not bindings, and DESIGN.md §6d lists it as a residual.
    let src = fixture("const_time", "bad_window.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert_eq!(lines_of(&findings, RuleId::ConstTime), vec![4, 8]);
    assert!(
        findings.iter().all(|f| f.message.contains("table lookup")),
        "window fetches must be reported as table lookups: {findings:?}"
    );
}

#[test]
fn const_time_window_negative_fixture_is_clean() {
    // The masked full-table scan (the shape `ct_lookup` uses) and a
    // fetch whose slot is a plain public local must not fire — the
    // batch verifier's wNAF fetch on public verification data
    // depends on this staying clean.
    let src = fixture("const_time", "good_window.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn const_time_alias_negative_fixture_is_clean() {
    // Rebinds and closures over *public* values, a shadowing rebind
    // of a key to its `.len()`, and a key's length compared with a
    // literal must not fire: the name match is precise about public
    // metadata.
    let src = fixture("const_time", "good_alias.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn const_time_keyed_accumulator_fixture_pins_a_blind_spot() {
    // The table GHASH shape: each lookup index is a byte of an
    // accumulator that depends on the key. Only the Shoup-table
    // lookup (line 26) fires, and for the `as usize` inside its
    // brackets, not for the key behind it. `R8[rem]` (line 25) is
    // missed: its cast sits in a `let`, and the rule does not follow
    // the key through `mul_table`'s parameters. DESIGN.md §6d lists this
    // blind spot; a rule change that closes it updates this pin.
    let src = fixture("const_time", "keyed_accumulator.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert_eq!(lines_of(&findings, RuleId::ConstTime), vec![26]);
    assert!(findings[0].message.contains("table[bytes[i]as usize]"), "{findings:?}");
}

#[test]
fn secret_hygiene_alias_fixture_is_caught() {
    let src = fixture("secret_hygiene", "bad_alias.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::SecretHygiene]);
    // Line 8: `{:?}` of a rebound secret — the blanket specifier ban
    // fires whatever the argument is called. Line 14 stores a
    // destructured secret half in a Debug-deriving struct; no rule
    // follows a value through a rebind, and DESIGN.md §6d lists that
    // as a residual. Nothing else in the fixture is a finding.
    assert_eq!(lines_of(&findings, RuleId::SecretHygiene), vec![8], "{findings:?}");
    assert!(findings[0].message.contains("debug format specifier"), "{findings:?}");
}

#[test]
fn shard_isolation_bad_fixture_is_caught() {
    let src = fixture("shard_isolation", "bad_shard.rs");
    let findings = lint_source("crates/host/src/fixture.rs", &src, &[RuleId::ShardIsolation]);
    let lines = lines_of(&findings, RuleId::ShardIsolation);
    // 1: static mut, 2: static item, 5: Rc, 6: RefCell, 7: Mutex
    // (inside Arc). Hash-container iteration is clippy's, by type
    // (`workspace_clean.rs` checks the roots forbid it).
    assert_eq!(lines, vec![1, 2, 5, 6, 7]);
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`static mut`")));
    assert!(msgs.iter().any(|m| m.contains("`static` item")));
    assert!(msgs.iter().any(|m| m.contains("`Rc`")));
    assert!(msgs.iter().any(|m| m.contains("`RefCell`")));
    assert!(msgs.iter().any(|m| m.contains("`Mutex`")));
}

#[test]
fn shard_isolation_good_fixture_is_clean() {
    // BTreeMap iteration, plain `Arc` of immutable data, `const` tables, and keyed HashMap *lookup* are
    // all within the shared-nothing discipline.
    let src = fixture("shard_isolation", "good.rs");
    let findings = lint_source("crates/host/src/fixture.rs", &src, &[RuleId::ShardIsolation]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn shard_isolation_scope_is_host_and_netsim_only() {
    use mbtls_lint::config::families_for;
    for path in ["crates/host/src/shard.rs", "crates/host/src/host.rs", "crates/netsim/src/lib.rs"] {
        assert!(
            families_for(path).contains(&RuleId::ShardIsolation),
            "{path} must be in the shard-isolation scope"
        );
    }
    // telemetry's SharedSink is a deliberate Arc<Mutex> (host-side
    // aggregation), and crypto has no shard state: out of scope.
    for path in [
        "crates/telemetry/src/lib.rs",
        "crates/crypto/src/aes.rs",
        "crates/tls/src/client.rs",
        "crates/lint/src/main.rs",
    ] {
        assert!(
            !families_for(path).contains(&RuleId::ShardIsolation),
            "{path} must NOT be in the shard-isolation scope"
        );
    }
}

// Unit tests may compare what they like: a rule skips every line of
// a `#[cfg(test)]` item.
#[test]
fn cfg_test_items_are_exempt() {
    let bad = fixture("const_time", "bad.rs");
    let src = format!("#[cfg(test)]\nmod tests {{\n{bad}}}\n");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn const_time_rule_exempts_ct_rs() {
    let src = fixture("const_time", "bad.rs");
    let findings = lint_source("crates/crypto/src/ct.rs", &src, &[RuleId::ConstTime]);
    assert!(findings.is_empty(), "ct.rs is the implementation the rule points at");
}


// Sans-io, panic-freedom and unsafe confinement are rustc and clippy
// lints forbidden at a crate root (DESIGN.md §6d). An attribute there
// binds every module the root declares, so the scope of each is the
// set of crate roots that carry it.

#[test]
fn sans_io_scope_covers_sharded_host_modules() {
    let lib = scope::read("crates/host/src/lib.rs");
    let forbidden = forbidden_lints(&lib);
    for lint in ["clippy::disallowed_methods", "clippy::disallowed_types"] {
        assert!(
            forbidden.iter().any(|l| l == lint),
            "crates/host/src/lib.rs must `#![forbid({lint})]`"
        );
    }
    // The sharding split's modules (shard.rs, config.rs, host.rs, ...)
    // and any future sibling are declared by that root, so it binds them.
    let dir = scope::workspace_root().join("crates/host/src");
    for entry in std::fs::read_dir(&dir).expect("host source dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 name");
        if name == "lib" {
            continue;
        }
        assert!(
            lib.lines().any(|l| l.trim_start_matches("pub ") == format!("mod {name};")),
            "crates/host/src/{name} is not a module of the host root"
        );
    }
    // And the lints name the ambient effects a shard must not reach.
    let clippy = scope::read("clippy.toml");
    for path in ["std::time::Instant::now", "std::time::SystemTime::now", "std::thread::spawn"] {
        assert!(
            clippy.contains(&format!("{{ path = \"{path}\"")),
            "clippy.toml must disallow {path}"
        );
    }
}

#[test]
fn unsafe_confinement_scope_is_the_shipping_crates() {
    for krate in ["tls", "core", "pki", "host", "netsim", "http", "mboxes", "telemetry"] {
        let path = format!("crates/{krate}/src/lib.rs");
        assert!(
            forbidden_lints(&scope::read(&path)).iter().any(|l| l == "unsafe_code"),
            "{path} must `#![forbid(unsafe_code)]`"
        );
    }
    // crypto denies it, so its `unsafe` modules can allow it back.
    assert!(
        scope::read("crates/crypto/src/lib.rs").contains("\n#![deny(unsafe_code)]\n"),
        "crates/crypto/src/lib.rs must `#![deny(unsafe_code)]`"
    );
}

#[test]
fn unsafe_confinement_allowlist_is_by_file() {
    // An `allow` on a `mod` line reaches that module's out-of-line
    // children too, so each allowed module must be one file with none.
    let src = scope::workspace_root().join("crates/crypto/src");
    for module in UNSAFE_MODULES {
        assert!(src.join(format!("{module}.rs")).is_file(), "crypto has no {module}.rs");
        assert!(!src.join(module).exists(), "crypto's {module} has a child module directory");
        let text = scope::read(&format!("crates/crypto/src/{module}.rs"));
        let child = text.lines().find(|l| {
            let l = l.trim().trim_start_matches("pub ");
            l.starts_with("mod ") && l.ends_with(';')
        });
        assert!(child.is_none(), "{module}.rs declares an out-of-line module: {child:?}");
    }
}
