//! What the forbid-attribute scope tests in `engine.rs` and
//! `workspace_clean.rs` share: the workspace root, the parser for a
//! file's `#![forbid(..)]` attributes, and crypto's `unsafe` modules.

use std::path::{Path, PathBuf};

pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
        .to_path_buf()
}

/// A workspace file's text, by its path from the root.
pub fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("{rel} is unreadable: {e}"))
}

/// The lints named by the `#![forbid(..)]` attributes in `src`, which
/// may span lines.
pub fn forbidden_lints(src: &str) -> Vec<String> {
    let mut lints = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("\n#![forbid(") {
        let body = &rest[at + "\n#![forbid(".len()..];
        let end = body.find(")]").expect("a forbid attribute closes");
        lints.extend(
            body[..end]
                .split(',')
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty()),
        );
        rest = &body[end..];
    }
    lints
}

/// The crypto modules that may hold `unsafe`, each behind a safe
/// interface: the bitsliced AES's SSE2 lanes, the AES-NI backend, the
/// volatile wipe, GCM's `Vec::set_len`, and SHA-512's AVX-512 core.
/// Sorted.
pub const UNSAFE_MODULES: &[&str] = &["aes", "aesni", "ct", "gcm", "sha512_x86"];
