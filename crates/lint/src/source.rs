//! The per-file source model the rules run against: lexed lines,
//! `#[cfg(test)]` spans, allowlist annotations, and secret-type
//! markers.

use std::collections::BTreeMap;

use crate::lexer::{lex, LexedLine};
use crate::rules::RuleId;
use crate::tokens::{tokenize, Token};

/// A parsed allowlist annotation: `// lint:allow(rule, ...) -- reason`.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rules the annotation suppresses.
    pub rules: Vec<RuleId>,
    /// The mandatory justification after `--`.
    pub reason: String,
}

/// A malformed annotation (unparseable rule, missing reason, ...).
/// These are themselves reported as findings so a typo cannot
/// silently disable a rule.
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// 1-based line of the annotation.
    pub line: usize,
    /// What is wrong with it.
    pub what: String,
}

/// A lexed source file plus the annotation/test metadata rules need.
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
    /// Allow annotations keyed by the 0-based *code* line they cover.
    pub allows: BTreeMap<usize, Vec<Allow>>,
    /// Malformed annotations.
    pub bad_allows: Vec<BadAllow>,
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
        let mut file = SourceFile {
            path: path.to_string(),
            is_test,
            allows: BTreeMap::new(),
            bad_allows: Vec::new(),
            secret_markers: Vec::new(),
            lines,
            tokens,
        };
        file.collect_annotations();
        file
    }

    /// The sanitized code of line `i`, or "" out of range.
    pub fn code(&self, i: usize) -> &str {
        self.lines.get(i).map(|l| l.code.as_str()).unwrap_or("")
    }

    /// Is the finding at 0-based line `i` covered by an allow for
    /// `rule`? Returns the reason when it is.
    pub fn allow_reason(&self, i: usize, rule: RuleId) -> Option<&str> {
        self.allows.get(&i).and_then(|list| {
            list.iter()
                .find(|a| a.rules.contains(&rule))
                .map(|a| a.reason.as_str())
        })
    }

    fn collect_annotations(&mut self) {
        let mut pending: Vec<Allow> = Vec::new();
        for i in 0..self.lines.len() {
            let comment = self.lines[i].comment.clone();
            let has_code = !self.lines[i].code.trim().is_empty();

            // A standalone annotation only covers the code line
            // *directly* below it (contiguous comment lines in
            // between are fine — they extend the annotation's own
            // comment block). A blank line breaks the attachment:
            // silently covering whatever code appears next would let
            // a waiver drift onto an unrelated finding.
            if !has_code && comment.trim().is_empty() && !pending.is_empty() {
                for allow in pending.drain(..) {
                    self.bad_allows.push(BadAllow {
                        line: i + 1,
                        what: format!(
                            "blank line separates lint:allow({}) from the code it covers; \
                             the annotation must sit directly above (or on) the line",
                            allow
                                .rules
                                .iter()
                                .map(|r| r.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    });
                }
            }

            if comment.contains("lint:secret") {
                self.secret_markers.push(i);
            }
            let parsed = parse_allow(&comment);
            match parsed {
                Some(Ok(allow)) => {
                    if has_code {
                        // Trailing annotation: covers its own line.
                        self.allows.entry(i).or_default().push(allow);
                    } else {
                        // Standalone annotation: covers the next code line.
                        pending.push(allow);
                    }
                }
                Some(Err(what)) => self.bad_allows.push(BadAllow { line: i + 1, what }),
                None => {}
            }
            if has_code && !pending.is_empty() {
                self.allows.entry(i).or_default().append(&mut pending);
            }
        }
        for allow in pending {
            self.bad_allows.push(BadAllow {
                line: self.lines.len(),
                what: format!(
                    "dangling lint:allow({}) with no code line after it",
                    allow
                        .rules
                        .iter()
                        .map(|r| r.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
}

/// Parse one comment's `lint:allow(...)` annotation, if present.
/// `Some(Err(_))` means the annotation is there but malformed.
fn parse_allow(comment: &str) -> Option<Result<Allow, String>> {
    let start = comment.find("lint:allow")?;
    let rest = &comment[start + "lint:allow".len()..];
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix('(') else {
        return Some(Err("lint:allow must be followed by (rule, ...)".into()));
    };
    Some(parse_allow_body(body))
}

/// The annotation after its `(`: `rule, rule) -- reason`.
fn parse_allow_body(body: &str) -> Result<Allow, String> {
    let Some(close) = body.find(')') else {
        return Err("unclosed lint:allow(".into());
    };
    let mut rules = Vec::new();
    for name in body[..close].split(',') {
        let name = name.trim();
        match RuleId::from_str(name) {
            Some(rule) => rules.push(rule),
            None => return Err(format!("unknown lint rule {name:?}")),
        }
    }
    if rules.is_empty() {
        return Err("lint:allow() names no rules".into());
    }
    let tail = body[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("lint:allow requires a reason: `lint:allow(rule) -- why`".into());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("lint:allow reason is empty".into());
    }
    Ok(Allow {
        rules,
        reason: reason.to_string(),
    })
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
    fn trailing_allow_covers_its_line() {
        let f = SourceFile::parse(
            "t.rs",
            "x.unwrap(); // lint:allow(panic-freedom) -- fixture reason\n",
        );
        assert!(f.allow_reason(0, RuleId::PanicFreedom).is_some());
        assert!(f.allow_reason(0, RuleId::SansIo).is_none());
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let src = "// lint:allow(sans-io, panic-freedom) -- two rules\nlet t = now();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.allow_reason(1, RuleId::SansIo).is_some());
        assert!(f.allow_reason(1, RuleId::PanicFreedom).is_some());
        assert!(f.allow_reason(0, RuleId::SansIo).is_none());
    }

    #[test]
    fn standalone_allow_survives_contiguous_comment_lines() {
        let src = "// lint:allow(sans-io) -- reason spans\n// a second comment line\nlet t = now();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.allow_reason(2, RuleId::SansIo).is_some());
        assert!(f.bad_allows.is_empty());
    }

    #[test]
    fn blank_line_gap_detaches_standalone_allow() {
        // Regression: the annotation used to stay pending across any
        // number of blank lines and silently attach to whatever code
        // came next.
        let src = "// lint:allow(sans-io) -- reason\n\nlet t = now();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.allow_reason(2, RuleId::SansIo).is_none());
        assert_eq!(f.bad_allows.len(), 1);
        assert_eq!(f.bad_allows[0].line, 2, "reported at the blank line");
        assert!(f.bad_allows[0].what.contains("blank line"));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let f = SourceFile::parse("t.rs", "x.unwrap(); // lint:allow(panic-freedom)\n");
        assert!(f.allow_reason(0, RuleId::PanicFreedom).is_none());
        assert_eq!(f.bad_allows.len(), 1);
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let f = SourceFile::parse("t.rs", "x(); // lint:allow(no-such-rule) -- reason\n");
        assert_eq!(f.bad_allows.len(), 1);
    }

    #[test]
    fn leftover_file_allow_is_a_malformed_allow() {
        // There are no file-scoped waivers: the marker reads as a
        // `lint:allow` not followed by `(`, and covers nothing.
        let src = "// lint:allow-file(panic-freedom) -- deterministic harness\nx.unwrap();\ny.unwrap();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.allow_reason(1, RuleId::PanicFreedom).is_none());
        assert!(f.allow_reason(2, RuleId::PanicFreedom).is_none());
        assert_eq!(f.bad_allows.len(), 1);
        assert_eq!(f.bad_allows[0].line, 1);
        assert!(f.bad_allows[0].what.contains("must be followed by (rule, ...)"));
    }

    #[test]
    fn file_allow_without_reason_is_malformed() {
        let f = SourceFile::parse("t.rs", "// lint:allow-file(panic-freedom)\nx.unwrap();\n");
        assert!(f.allow_reason(1, RuleId::PanicFreedom).is_none());
        assert_eq!(f.bad_allows.len(), 1);
    }

    #[test]
    fn malformed_file_allow_reports_file_and_line() {
        let src = "fn f() {}\n// lint:allow-file(panic-freedom\nx.unwrap();\n";
        let f = SourceFile::parse("crates/core/src/t.rs", src);
        let findings = crate::check_file(&f, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::AllowSyntax);
        assert_eq!(findings[0].path, "crates/core/src/t.rs");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].is_blocking());
    }

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
