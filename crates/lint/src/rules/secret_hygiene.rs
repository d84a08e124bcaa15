//! Rule `secret-hygiene`: key material must be unprintable and
//! self-wiping.
//!
//! A type is *secret-bearing* when its name matches the built-in
//! patterns below or when a `// lint:secret` marker sits above its
//! declaration. For each secret type the rule requires:
//!
//! * no `#[derive(Debug)]` / `#[derive(Serialize)]` — write a
//!   redacted manual `Debug` (`TypeName(..)`) if telemetry or tests
//!   need one;
//! * no manual `impl Display` (secrets have no display form);
//! * in every scoped crate (`crypto`, `sgx`, `tls`, `core`): an
//!   `impl Drop` in the same file, so key bytes are zeroized when the
//!   value dies — or nothing for one to do: the type names a
//!   self-wiping secret type among its fields (`Secret`, `SessionKeys`,
//!   `x25519::SecretKey`, …) and declares no raw byte buffer
//!   (`Vec<u8>`, `[u8; N]`, `Box<[u8]>`) next to it.
//!
//! Declarations, attribute blocks, and `impl` headers are matched
//! over the token stream, so a `#[derive(...)]` or `impl ... for ...`
//! split across lines is fully visible.
//!
//! Independently, debug format specifiers (`{:?}`-style) are banned
//! in non-test protocol/crypto code: the redacted `Debug` impls make
//! them safe-ish, but a `{:?}` on the wrong binding is exactly the
//! leak this family exists to stop, so none is allowed outside tests.
//! The ban stays lexical: `clippy::use_debug` sees only the
//! `print!`/`write!` family, not `format!("{:?}", x)` or
//! `format!("{x:?}")`.

use super::Hit;
use crate::source::SourceFile;
use crate::tokens::{matching_close, seq_at, Token};

/// Built-in secret-bearing type-name patterns (in addition to
/// explicit `// lint:secret` markers).
fn is_secret_name(name: &str) -> bool {
    name.contains("Secret")
        || name.contains("SigningKey")
        || name.contains("KeyMaterial")
        || matches!(
            name,
            "SessionKeys" | "TicketPlaintext" | "ResumptionData" | "KeyBlock" | "HopKeys"
        )
}

/// Crates in which secret types must also zeroize on drop: every
/// crate this family is scoped to (key material lives in all of
/// them). Kept as an explicit list so fixture labels outside the
/// workspace layout do not accidentally opt in.
fn requires_drop(path: &str) -> bool {
    path.contains("crates/crypto/")
        || path.contains("crates/sgx/")
        || path.contains("crates/tls/")
        || path.contains("crates/core/")
        || path.contains("crates/pki/src/delegation")
}

pub(crate) fn check(file: &SourceFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    let decls = type_decls(file);

    for (d, decl) in decls.iter().enumerate() {
        let marked = file
            .secret_markers
            .iter()
            .any(|&m| m < decl.line && !decls.iter().take(d).any(|p| p.line > m));
        if !(marked || is_secret_name(&decl.name)) {
            continue;
        }
        for derive in &decl.derives {
            if derive.what == "Debug" || derive.what == "Serialize" {
                hits.push(Hit {
                    line: derive.line,
                    message: format!(
                        "secret type `{}` derives {}; replace with a redacted manual impl",
                        decl.name, derive.what
                    ),
                });
            }
        }
        if requires_drop(&file.path)
            && !decl.self_wiping
            && find_impl(file, "Drop", &decl.name).is_none()
        {
            hits.push(Hit {
                line: decl.line,
                message: format!(
                    "secret type `{}` has no `impl Drop` in this file; zeroize key bytes on drop \
                     (ct::zeroize), or hold them in self-wiping fields (`Secret`) and no raw buffer",
                    decl.name
                ),
            });
        }
        if let Some(line) = find_impl(file, "Display", &decl.name) {
            hits.push(Hit {
                line,
                message: format!("secret type `{}` implements Display; secrets are unprintable", decl.name),
            });
        }
    }

    for (i, line) in file.lines.iter().enumerate() {
        if file.is_test[i] {
            continue;
        }
        if line.strings.contains("?}") {
            hits.push(Hit {
                line: i,
                message: "debug format specifier in protocol/crypto code; \
                          secrets reach logs this way — print explicit public fields instead"
                    .into(),
            });
        }
    }
    hits
}

/// One `derive(X)` occurrence attached to a declaration.
struct DeriveHit {
    what: String,
    /// 0-based line of the derived trait's token.
    line: usize,
}

struct TypeDecl {
    name: String,
    line: usize,
    derives: Vec<DeriveHit>,
    /// The declaration is made of self-wiping parts: it names a secret
    /// type among its fields and spells no raw byte buffer.
    self_wiping: bool,
}

/// Is the declaration whose name sits at `name_idx` made of
/// self-wiping parts? Its body — the `{…}` or `(…)` after the name —
/// must name a secret type and must not spell a raw byte buffer:
/// `Vec<u8>`, `[u8; N]`, `Box<[u8]>`.
fn self_wiping(tokens: &[Token], name_idx: usize) -> bool {
    let Some(open) = (name_idx + 1..tokens.len())
        .find(|&j| matches!(tokens[j].text.as_str(), "{" | "(" | ";"))
    else {
        return false;
    };
    let close = match tokens[open].text.as_str() {
        "{" => matching_close(tokens, open, "{", "}"),
        "(" => matching_close(tokens, open, "(", ")"),
        _ => None,
    };
    let Some(close) = close else {
        return false;
    };
    let raw_buffer = (open..close).any(|j| {
        seq_at(tokens, j, &["Vec", "<", "u8"])
            || seq_at(tokens, j, &["[", "u8", ";"])
            || seq_at(tokens, j, &["Box", "<", "[", "u8", "]"])
    });
    !raw_buffer && tokens[open..close].iter().any(|t| is_secret_name(&t.text))
}

/// Walk the token stream for `struct`/`enum` declarations, attaching
/// the `#[derive(...)]` traits named in the attribute block above
/// each one (attributes may span lines).
fn type_decls(file: &SourceFile) -> Vec<TypeDecl> {
    let tokens = &file.tokens;
    let mut decls = Vec::new();
    let mut pending: Vec<DeriveHit> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Attribute: remember derive contents, skip to its close so
        // `#[derive(Debug)] struct` on one line still works.
        if t.text == "#" && i + 1 < tokens.len() && tokens[i + 1].text == "[" {
            let close = match crate::tokens::matching_close(tokens, i + 1, "[", "]") {
                Some(c) => c,
                None => break, // truncated file
            };
            pending.extend(derives_in(&tokens[i + 2..close]));
            i = close + 1;
            continue;
        }
        if t.text == "struct" || t.text == "enum" {
            let name = match tokens.get(i + 1) {
                Some(n) if n.is_word() => n.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            if !file.is_test[t.line] {
                decls.push(TypeDecl {
                    name,
                    line: t.line,
                    derives: std::mem::take(&mut pending),
                    self_wiping: self_wiping(tokens, i + 1),
                });
            } else {
                pending.clear();
            }
            i += 2;
            continue;
        }
        // Any other item keyword consumes whatever attributes came
        // before it (`#[inline]` on a fn must not leak to the next
        // struct).
        if matches!(t.text.as_str(), "fn" | "impl" | "trait" | "mod" | "use" | "type" | "const" | "static") {
            pending.clear();
        }
        i += 1;
    }
    decls
}

/// The traits named inside `derive(...)` within one attribute body.
fn derives_in(attr: &[Token]) -> Vec<DeriveHit> {
    let mut out = Vec::new();
    for (j, t) in attr.iter().enumerate() {
        if t.text != "derive" || attr.get(j + 1).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        let close = match crate::tokens::matching_close(attr, j + 1, "(", ")") {
            Some(c) => c,
            None => continue,
        };
        for d in &attr[j + 2..close] {
            if d.is_word() {
                out.push(DeriveHit {
                    what: d.text.clone(),
                    line: d.line,
                });
            }
        }
    }
    out
}

/// Find an `impl <...> Trait for Type` header (which may span lines),
/// tolerating paths (`std::fmt::Display`) and generic parameters.
/// Returns the 0-based line of the `impl` token.
fn find_impl(file: &SourceFile, trait_name: &str, type_name: &str) -> Option<usize> {
    let tokens = &file.tokens;
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "impl" {
            i += 1;
            continue;
        }
        let impl_line = tokens[i].line;
        // Collect the header: everything up to the opening brace.
        let mut j = i + 1;
        let mut header_end = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" | ";" => {
                    header_end = Some(j);
                    break;
                }
                "impl" => break, // malformed; resync
                _ => j += 1,
            }
        }
        let Some(end) = header_end else {
            i = j;
            continue;
        };
        let header = &tokens[i + 1..end];
        // Split at the `for` keyword outside generic brackets.
        let mut depth = 0i32;
        let mut for_pos = None;
        for (k, t) in header.iter().enumerate() {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                "for" if depth <= 0 => {
                    for_pos = Some(k);
                    break;
                }
                _ => {}
            }
        }
        if let Some(fp) = for_pos {
            let trait_part = &header[..fp];
            let target = header[fp + 1..].iter().find(|t| t.is_word());
            if trait_part.iter().any(|t| t.text == trait_name)
                && target.is_some_and(|t| t.text == type_name)
            {
                return Some(impl_line);
            }
        }
        i = end + 1;
    }
    None
}
