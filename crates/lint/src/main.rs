//! The `mbtls-lint` binary: lint the workspace, print a human
//! report, optionally write JSON-lines findings, and exit non-zero
//! when any unannotated finding remains.
//!
//! ```text
//! mbtls-lint [--root <dir>] [--json <file>] [--quiet-allowed] [--baseline <file>]
//! ```
//!
//! `--root` defaults to the nearest ancestor of the current directory
//! that contains a `Cargo.toml` with `[workspace]` (so the binary
//! works from any crate directory). `--json` writes one JSON object
//! per finding — allowed ones included, so dashboards can watch the
//! annotation debt shrink. `--baseline` fails the run on any finding,
//! allowed or not, that the committed baseline does not account for.

use std::path::PathBuf;
use std::process::ExitCode;

use mbtls_lint::{baseline, lint_workspace, report};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut quiet_allowed = false;
    let mut baseline_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            "--quiet-allowed" => quiet_allowed = true,
            "--baseline" => {
                baseline_path = args.next().map(PathBuf::from);
                if baseline_path.is_none() {
                    eprintln!("mbtls-lint: --baseline needs a file path");
                    return ExitCode::from(2);
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: mbtls-lint [--root <dir>] [--json <file>] [--quiet-allowed] [--baseline <file>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mbtls-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("mbtls-lint: could not find workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mbtls-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_path {
        let mut out = String::new();
        for f in &findings {
            out.push_str(&report::json_line(f));
            out.push('\n');
        }
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("mbtls-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let mut blocking = 0usize;
    for f in &findings {
        if f.is_blocking() {
            blocking += 1;
            println!("{}", report::human(f));
        } else if !quiet_allowed {
            println!("{}", report::human(f));
        }
    }
    println!("{}", report::summary(&findings));

    // Finding-level ratchet: anything the committed baseline does not
    // account for fails, waived or not.
    let mut ratchet_failed = false;
    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mbtls-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let entries = match baseline::parse(&text) {
            Ok(e) => e,
            Err(what) => {
                eprintln!("mbtls-lint: bad baseline {}: {what}", path.display());
                return ExitCode::from(2);
            }
        };
        let fresh = baseline::new_findings(&findings, &entries);
        if !fresh.is_empty() {
            ratchet_failed = true;
            eprintln!(
                "mbtls-lint: {} finding(s) not in baseline {} (fix them, or regenerate the \
                 baseline from target/lint-report.jsonl in a reviewed change):",
                fresh.len(),
                path.display()
            );
            for f in fresh {
                eprintln!("  {}", report::human(f));
            }
        }
    }

    if blocking > 0 {
        eprintln!("mbtls-lint: {blocking} blocking finding(s); fix them or add `// lint:allow(<rule>) -- reason`");
        ExitCode::FAILURE
    } else if ratchet_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Nearest ancestor directory containing a `Cargo.toml` that declares
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
