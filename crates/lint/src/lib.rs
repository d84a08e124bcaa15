//! # mbtls-lint
//!
//! The workspace invariant checker for what the compiler cannot see.
//! mbTLS's security argument (paper §4) rests on session keys never
//! reaching a log line, comparisons on secrets being constant-time,
//! and the sharded host sharing no mutable state. This crate enforces
//! them as a from-scratch lexical static analysis — no external
//! dependencies, run as the first step of `scripts/check.sh`.
//!
//! Three more invariants are lints the compiler already has, so they
//! are not here: each crate root forbids them (DESIGN.md §6d).
//! Sans-IO is `clippy::disallowed_methods` / `disallowed_types` over
//! the workspace `clippy.toml`'s list, panic-freedom is
//! `clippy::unwrap_used` and its siblings (plus
//! `clippy::indexing_slicing` in the wire-parsing files), and
//! `unsafe` confinement is rustc's `unsafe_code`, allowed on five
//! crypto modules only. Two shapes a name cannot show are held by
//! type, too: hash-container iteration in the shard-scoped crates is
//! `clippy::iter_over_hash_type` plus the `HashMap`/`HashSet`
//! iteration methods in `clippy.toml`, and `==` on a secret that a
//! local renamed fails to compile, because `Secret` compares only
//! through `ct::eq` and the key types have no `PartialEq`.
//!
//! ## Rule families
//!
//! | rule | scope | what it forbids |
//! |------|-------|-----------------|
//! | `secret-hygiene` | crypto, sgx, tls, core, `pki/src/delegation` | `derive(Debug/Serialize)` on secret types, `Display` impls, `{:?}` formatting; requires zeroize-on-drop |
//! | `const-time` | crypto, tls, core | `==`/`!=` on secret-named operands and byte-cast or secret-named table indices, outside `ct.rs` |
//! | `shard-isolation` | host, netsim, mboxes | shared statics, `Rc`/`RefCell`/locks |
//!
//! Rules are token-sequence matchers over a line-tagged token stream:
//! they see names, not bindings, so a secret that a local renames is
//! out of their reach (DESIGN.md §6d lists what that leaves).
//!
//! Every finding fails the gate (the `mbtls-lint` binary,
//! `tests/workspace_clean.rs`); there is no waiver. One marker,
//! `// lint:secret` above a type declaration, tags it secret-bearing
//! even when its name does not match the built-in patterns.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod tokens;

use std::path::Path;

pub use rules::{check_file, Finding, RuleId};
pub use source::SourceFile;

/// Lint one source snippet with an explicit set of rule families
/// (ignores path-based scoping — used by fixtures and tests).
pub fn lint_source(path_label: &str, src: &str, families: &[RuleId]) -> Vec<Finding> {
    check_file(&SourceFile::parse(path_label, src), families)
}

/// Lint the workspace rooted at `root`: walk every scoped `src/`
/// tree, apply each file's applicable rule families, and return all
/// findings sorted by path and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut roots: Vec<&str> = config::SCOPES.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    roots.sort_unstable();
    roots.dedup();
    for prefix in roots {
        let dir = root.join(prefix);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for abs in files {
            let rel = abs
                .strip_prefix(root)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            let families = config::families_for(&rel);
            if families.is_empty() {
                continue;
            }
            let src = std::fs::read_to_string(&abs)?;
            findings.extend(check_file(&SourceFile::parse(&rel, &src), &families));
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
