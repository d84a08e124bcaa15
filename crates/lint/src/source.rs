//! The per-file source model the rules run against: lexed lines,
//! `#[cfg(test)]` spans, and secret-type markers.

use crate::lexer::{lex, LexedLine};
use crate::tokens::{tokenize, Token};

/// A lexed source file plus the test and marker metadata rules need.
pub struct SourceFile {
    /// Path as reported in findings (workspace-relative for real
    /// files, a label for fixture snippets).
    pub path: String,
    /// Lexed lines (0-based index = line number - 1).
    pub lines: Vec<LexedLine>,
    /// Flat token stream over the sanitized code of every line (the
    /// token-tree pass input; each token knows its 0-based line).
    pub tokens: Vec<Token>,
    /// `lines[i]` is inside a `#[cfg(test)]` item.
    pub is_test: Vec<bool>,
    /// 0-based lines carrying a `lint:secret` type marker; the marker
    /// applies to the next type declaration.
    pub secret_markers: Vec<usize>,
}

impl SourceFile {
    /// Lex and annotate `src`.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lines = lex(src);
        let is_test = mark_test_spans(&lines);
        let tokens = tokenize(&lines);
        let secret_markers = (0..lines.len())
            .filter(|&i| lines[i].comment.contains("lint:secret"))
            .collect();
        SourceFile {
            path: path.to_string(),
            is_test,
            secret_markers,
            lines,
            tokens,
        }
    }
}

/// Mark the lines belonging to `#[cfg(test)]` items (in this
/// workspace: `mod tests { ... }` blocks) by brace tracking.
fn mark_test_spans(lines: &[LexedLine]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Find where the guarded item's braces open; attributes and
        // blank lines may sit in between.
        let mut j = i;
        let mut depth: i32 = 0;
        let mut opened = false;
        while j < lines.len() {
            out[j] = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    // An un-braced guarded item (`#[cfg(test)] use x;`)
                    // ends at the semicolon.
                    ';' if !opened && depth == 0 => {
                        depth = -1;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            if depth < 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.is_test[0]);
        assert!(f.is_test[1]);
        assert!(f.is_test[3]);
        assert!(!f.is_test[5]);
    }
}
