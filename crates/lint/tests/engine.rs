//! Engine tests over the on-disk fixtures: every `bad.rs` must
//! produce its rule family's findings, every `good.rs` must produce
//! none, and annotations must waive without hiding.
//!
//! The fixtures are loaded at runtime (not `include_str!`) so that
//! deleting one fails the corresponding test rather than silently
//! shrinking coverage.

use mbtls_lint::{lint_source, Finding, RuleId};

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
fn sans_io_bad_fixture_is_caught() {
    let src = fixture("sans_io", "bad.rs");
    let findings = lint_source("crates/netsim/src/fixture.rs", &src, &[RuleId::SansIo]);
    assert!(findings.iter().all(|f| f.rule == RuleId::SansIo));
    let lines = lines_of(&findings, RuleId::SansIo);
    for expected in [1, 2, 5, 6, 7] {
        assert!(lines.contains(&expected), "expected sans-io finding on line {expected}, got {lines:?}");
    }
    assert!(findings.iter().all(|f| f.is_blocking()));
}

#[test]
fn sans_io_multiline_fixture_is_caught() {
    let src = fixture("sans_io", "bad_multiline.rs");
    let findings = lint_source("crates/netsim/src/fixture.rs", &src, &[RuleId::SansIo]);
    let lines = lines_of(&findings, RuleId::SansIo);
    // `std::\n    net::…` and `Instant\n    ::now()` both match.
    for expected in [2, 4] {
        assert!(lines.contains(&expected), "expected sans-io finding on line {expected}, got {lines:?}");
    }
}

#[test]
fn sans_io_good_fixture_is_clean() {
    let src = fixture("sans_io", "good.rs");
    let findings = lint_source("crates/netsim/src/fixture.rs", &src, &[RuleId::SansIo]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
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
fn panic_freedom_bad_fixture_is_caught() {
    let src = fixture("panic_freedom", "bad.rs");
    // A wire-parsing label activates the indexing check.
    let findings = lint_source("crates/core/src/messages.rs", &src, &[RuleId::PanicFreedom]);
    let lines = lines_of(&findings, RuleId::PanicFreedom);
    for expected in [2, 3, 5, 11] {
        assert!(lines.contains(&expected), "expected panic-freedom finding on line {expected}, got {lines:?}");
    }
}

#[test]
fn panic_freedom_indexing_only_in_wire_files() {
    let src = fixture("panic_freedom", "bad.rs");
    let findings = lint_source("crates/core/src/driver.rs", &src, &[RuleId::PanicFreedom]);
    assert!(
        !findings.iter().any(|f| f.message.contains("direct indexing")),
        "indexing check must be limited to the designated parsing files"
    );
    // The unwrap/panic! findings still fire everywhere in scope.
    assert!(findings.iter().any(|f| f.message.contains("unwrap")));
}

#[test]
fn panic_freedom_multiline_fixture_is_caught() {
    let src = fixture("panic_freedom", "bad_multiline.rs");
    let findings = lint_source("crates/core/src/messages.rs", &src, &[RuleId::PanicFreedom]);
    let lines = lines_of(&findings, RuleId::PanicFreedom);
    // Findings anchor on the `unwrap` / `expect` / buffer-name token
    // even when the call chain is split across lines.
    for expected in [3, 5, 8] {
        assert!(lines.contains(&expected), "expected panic-freedom finding on line {expected}, got {lines:?}");
    }
}

#[test]
fn panic_freedom_good_fixture_is_clean() {
    let src = fixture("panic_freedom", "good.rs");
    let findings = lint_source("crates/core/src/messages.rs", &src, &[RuleId::PanicFreedom]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn allowed_fixture_is_reported_but_not_blocking() {
    let src = fixture("panic_freedom", "allowed.rs");
    let findings = lint_source("crates/core/src/fixture.rs", &src, &[RuleId::PanicFreedom]);
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_blocking());
    assert_eq!(
        findings[0].allowed.as_deref(),
        Some("fixed-size array conversion cannot fail")
    );
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
    // data: a cast inside the brackets (line 4), a `usize::from`
    // inside the brackets (line 8), and an index aliasing a secret
    // through a local (line 13) must all fire.
    let src = fixture("const_time", "bad_window.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    assert_eq!(lines_of(&findings, RuleId::ConstTime), vec![4, 8, 13]);
    assert!(
        findings.iter().all(|f| f.message.contains("table lookup")),
        "window fetches must be reported as table lookups: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.is_blocking()));
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
fn const_time_alias_fixture_is_caught() {
    let src = fixture("const_time", "bad_alias.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", &src, &[RuleId::ConstTime]);
    // Line 5: secret aliased through two rebinds; line 9: closure
    // parameter capturing a secret receiver; line 14: tuple
    // destructure of a secret-typed parameter.
    assert_eq!(lines_of(&findings, RuleId::ConstTime), vec![5, 9, 14]);
    assert!(
        findings.iter().all(|f| f.message.contains("carries secret taint")),
        "alias findings must come from the dataflow pass: {findings:?}"
    );
    // The message names the taint origin so the alias chain is
    // auditable from the report alone.
    assert!(findings.iter().any(|f| f.message.contains("from `SessionKeys`")));
    assert!(findings.iter().any(|f| f.message.contains("from `secrets`")));
    assert!(findings.iter().any(|f| f.message.contains("from `SecretKey`")));
    assert!(findings.iter().all(|f| f.is_blocking()));
}

#[test]
fn const_time_alias_negative_fixture_is_clean() {
    // The same rebind/closure shapes over *public* values — plus a
    // shadowing rebind to `.len()` that launders the taint — must not
    // fire: precision is what makes the taint pass adoptable.
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
    // missed: its cast sits in a `let`, and taint does not follow the
    // key through `mul_table`'s parameters. DESIGN.md §6d lists this
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
    // Line 8: `{:?}` of a rebound secret — both the blanket specifier
    // ban and the taint sink (which names the leaking binding) fire.
    assert!(
        findings.iter().any(|f| f.line == 8 && f.message.contains("debug format specifier")),
        "missing blanket {{:?}} finding: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.line == 8
            && f.message.contains("`snapshot`")
            && f.message.contains("carries secret taint from `SessionKeys`")),
        "missing taint format-sink finding: {findings:?}"
    );
    // Line 14: a destructured secret half stored in a Debug-deriving
    // carrier struct.
    assert!(
        findings.iter().any(|f| f.line == 14
            && f.message.contains("stored in `Telemetry`")
            && f.message.contains("derives Debug")),
        "missing Debug-carrier finding: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.is_blocking()));
}

#[test]
fn shard_isolation_bad_fixture_is_caught() {
    let src = fixture("shard_isolation", "bad_shard.rs");
    let findings = lint_source("crates/host/src/fixture.rs", &src, &[RuleId::ShardIsolation]);
    let lines = lines_of(&findings, RuleId::ShardIsolation);
    // 1: static mut, 2: static item, 5: Rc, 6: RefCell, 7: Mutex
    // (inside Arc), 13: iteration over a HashMap reached through a
    // rebind.
    for expected in [1, 2, 5, 6, 7, 13] {
        assert!(lines.contains(&expected), "expected shard-isolation finding on line {expected}, got {lines:?}");
    }
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`static mut`")));
    assert!(msgs.iter().any(|m| m.contains("`static` item")));
    assert!(msgs.iter().any(|m| m.contains("`Rc`")));
    assert!(msgs.iter().any(|m| m.contains("`RefCell`")));
    assert!(msgs.iter().any(|m| m.contains("`Mutex`")));
    assert!(msgs.iter().any(|m| m.contains("order is randomized")));
    assert!(findings.iter().all(|f| f.is_blocking()));
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

#[test]
fn unsafe_confinement_bad_fixture_is_caught() {
    let src = fixture("unsafe_confinement", "bad.rs");
    let findings = lint_source("crates/tls/src/fixture.rs", &src, &[RuleId::UnsafeConfinement]);
    // Block, `unsafe fn`, `unsafe impl`, and the annotated block; the
    // `#[cfg(test)]` module is exempt.
    assert_eq!(lines_of(&findings, RuleId::UnsafeConfinement), vec![2, 5, 10, 14]);
    let blocking: Vec<usize> = findings.iter().filter(|f| f.is_blocking()).map(|f| f.line).collect();
    assert_eq!(blocking, vec![2, 5, 10], "an annotated block is reported but waived");
}

#[test]
fn unsafe_confinement_good_fixture_is_clean() {
    let src = fixture("unsafe_confinement", "good.rs");
    let findings = lint_source("crates/tls/src/fixture.rs", &src, &[RuleId::UnsafeConfinement]);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn unsafe_confinement_allowlist_is_by_file() {
    use mbtls_lint::rules::unsafe_confinement::ALLOWED_FILES;
    let src = fixture("unsafe_confinement", "bad.rs");
    for path in ALLOWED_FILES {
        let findings = lint_source(path, &src, &[RuleId::UnsafeConfinement]);
        assert!(findings.is_empty(), "{path} is on the confinement list: {findings:?}");
    }
    // A sibling of an allowed file is not allowed.
    let findings = lint_source("crates/crypto/src/sha2.rs", &src, &[RuleId::UnsafeConfinement]);
    assert_eq!(findings.iter().filter(|f| f.is_blocking()).count(), 3);
}

#[test]
fn unsafe_confinement_scope_is_the_shipping_crates() {
    use mbtls_lint::config::families_for;
    for krate in ["crypto", "tls", "core", "pki", "host", "netsim", "http", "mboxes", "telemetry"] {
        let path = format!("crates/{krate}/src/lib.rs");
        assert!(
            families_for(&path).contains(&RuleId::UnsafeConfinement),
            "{path} must be in the unsafe-confinement scope"
        );
    }
    for path in ["crates/sgx/src/enclave.rs", "crates/bench/src/lib.rs", "crates/lint/src/lib.rs", "crates/crypto/tests/x.rs"] {
        assert!(
            !families_for(path).contains(&RuleId::UnsafeConfinement),
            "{path} must NOT be in the unsafe-confinement scope"
        );
    }
}

#[test]
fn standalone_allow_does_not_survive_a_blank_line() {
    // The annotation must sit directly above (or on) the line it
    // waives; a blank line detaches it, so the finding blocks AND the
    // stranded annotation is itself reported.
    let src = "// lint:allow(panic-freedom) -- caller guarantees length\n\nfn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let findings = lint_source("crates/core/src/x.rs", src, &[RuleId::PanicFreedom]);
    assert!(
        findings.iter().any(|f| f.rule == RuleId::PanicFreedom && f.is_blocking()),
        "gapped allow must not waive: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == RuleId::AllowSyntax && f.message.contains("blank line")),
        "stranded annotation must be reported: {findings:?}"
    );

    // Contiguous comment prose between the annotation and the code is
    // fine — the waiver still attaches.
    let src = "// lint:allow(panic-freedom) -- caller guarantees length\n// (the header is validated two frames up)\nfn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let findings = lint_source("crates/core/src/x.rs", src, &[RuleId::PanicFreedom]);
    assert!(findings.iter().all(|f| !f.is_blocking()), "contiguous comments must not detach the allow: {findings:?}");
}

#[test]
fn const_time_rule_exempts_ct_rs() {
    let src = fixture("const_time", "bad.rs");
    let findings = lint_source("crates/crypto/src/ct.rs", &src, &[RuleId::ConstTime]);
    assert!(findings.is_empty(), "ct.rs is the implementation the rule points at");
}

#[test]
fn malformed_allow_is_a_blocking_finding() {
    let src = "v.unwrap(); // lint:allow(panic-freedom)\n";
    let findings = lint_source("crates/core/src/x.rs", src, &[RuleId::PanicFreedom]);
    // The unwrap still blocks AND the broken annotation is reported.
    assert!(findings.iter().any(|f| f.rule == RuleId::PanicFreedom && f.is_blocking()));
    assert!(findings.iter().any(|f| f.rule == RuleId::AllowSyntax && f.is_blocking()));
}

#[test]
fn sans_io_scope_covers_sharded_host_modules() {
    // The host crate's sharding split added modules under
    // crates/host/src (shard.rs, config.rs, host.rs); the
    // directory-prefix scope must keep every one of them — and any
    // future sibling — under the sans-IO family.
    use mbtls_lint::config::families_for;
    for path in [
        "crates/host/src/shard.rs",
        "crates/host/src/config.rs",
        "crates/host/src/host.rs",
        "crates/host/src/slab.rs",
        "crates/host/src/future_module.rs",
    ] {
        assert!(
            families_for(path).contains(&RuleId::SansIo),
            "{path} must be in the SansIo scope"
        );
    }
    // And a violation planted in a shard module is actually caught.
    let src = "fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let findings = lint_source("crates/host/src/shard.rs", src, &[RuleId::SansIo]);
    assert!(
        findings.iter().any(|f| f.rule == RuleId::SansIo && f.is_blocking()),
        "ambient time in a shard module must block: {findings:?}"
    );
}
