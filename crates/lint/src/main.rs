//! The `mbtls-lint` binary: lint the workspace, print every finding
//! and a count, optionally write JSON-lines findings, and exit
//! non-zero when there is any finding at all.
//!
//! ```text
//! mbtls-lint [--root <dir>] [--json <file>]
//! ```
//!
//! `--root` defaults to the nearest ancestor of the current directory
//! that contains a `Cargo.toml` with `[workspace]` (so the binary
//! works from any crate directory). `--json` writes one JSON object
//! per finding.

use std::path::PathBuf;
use std::process::ExitCode;

use mbtls_lint::{lint_workspace, report};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                eprintln!("usage: mbtls-lint [--root <dir>] [--json <file>]");
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

    for f in &findings {
        println!("{}", report::human(f));
    }
    println!("{} finding(s)", findings.len());

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
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
