//! The token-tree pass: a flat token stream over a file's sanitized
//! code, so rules can match whole expressions instead of single
//! lines.
//!
//! The original rules were line-local, which made anything split
//! across lines — `foo\n    .unwrap()`, a comparison with the `==`
//! at a line break, a table index continued on the next line, a
//! multi-line `#[derive(...)]` — invisible (DESIGN.md §6d). Tokens
//! are produced from the lexer's sanitized code (comments stripped,
//! string/char contents blanked), so nothing in a comment or literal
//! can fire a rule, and each token remembers the 0-based line it
//! starts on so findings stay line-anchored.
//!
//! This is still not a parser: there is no AST, just identifiers,
//! numbers, and punctuation (with maximal-munch multi-character
//! operators, so `==` inside `<=`/`=>` can never be misread).
//! Macro-generated code that appears textually in the file — the
//! body of a `macro_rules!` arm, arguments of a multi-line
//! invocation — is ordinary tokens here and therefore visible too.

use crate::lexer::LexedLine;

/// One token of sanitized code.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text (`"unwrap"`, `"=="`, `"["`, ...).
    pub text: String,
    /// 0-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// Identifier, keyword, or number literal (word-shaped).
    pub fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Multi-character operators, longest first so maximal munch wins
/// (`..=` before `..`, `<<=` before `<<`).
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "::", "==", "!=", "<=", ">=", "->", "=>", "..", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Tokenize the sanitized code of every line into one flat stream.
pub fn tokenize(lines: &[LexedLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
                continue;
            }
            if let Some(op) = MULTI_OPS
                .iter()
                .find(|op| chars[i..].iter().take(op.len()).collect::<String>() == **op)
            {
                out.push(Token {
                    text: (*op).to_string(),
                    line: lineno,
                });
                i += op.len();
                continue;
            }
            out.push(Token {
                text: c.to_string(),
                line: lineno,
            });
            i += 1;
        }
    }
    out
}

/// Does the exact contiguous token sequence `pat` start at index `i`?
pub fn seq_at(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    tokens.len() >= i + pat.len() && pat.iter().zip(&tokens[i..]).all(|(p, t)| t.text == *p)
}

/// Does `tokens` contain `pat` as a contiguous subsequence?
pub fn contains_seq(tokens: &[Token], pat: &[&str]) -> bool {
    (0..tokens.len()).any(|i| seq_at(tokens, i, pat))
}

/// Index of the token closing the bracket opened at `open_idx`
/// (which must be `open`), tracking nesting. `None` if unbalanced —
/// e.g. a truncated file.
pub fn matching_close(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the token opening the bracket closed at `close_idx`
/// (which must be `)` or `]`), tracking nesting. `None` if unbalanced.
pub fn matching_open(tokens: &[Token], close_idx: usize) -> Option<usize> {
    let close = tokens[close_idx].text.as_str();
    let open = match close {
        ")" => "(",
        "]" => "[",
        _ => return None,
    };
    let mut depth = 0i32;
    for j in (0..=close_idx).rev() {
        if tokens[j].text == close {
            depth += 1;
        } else if tokens[j].text == open {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The expression-ish token chain ending just before token `pos`
/// (identifiers, field access, calls, indexing), as an index range.
/// Two adjacent word tokens (`x as usize`) are not one chain.
pub fn operand_span_before(tokens: &[Token], pos: usize) -> std::ops::Range<usize> {
    let mut start = pos;
    loop {
        if start == 0 {
            break;
        }
        let t = tokens[start - 1].text.as_str();
        if t == ")" || t == "]" {
            match matching_open(tokens, start - 1) {
                Some(open) => start = open,
                None => break,
            }
            continue;
        }
        let word_ok = tokens[start - 1].is_word()
            // `len(` call base directly before a consumed group, or the
            // first element of the chain — but never glued to another
            // word (`as usize` is two operands, not one).
            && (start == pos || !tokens[start].is_word());
        if word_ok || t == "." || t == "::" {
            start -= 1;
            continue;
        }
        break;
    }
    start..pos
}

/// The expression-ish token chain starting at token `pos`, as an
/// index range. Leading `&` borrows are skipped.
pub fn operand_span_after(tokens: &[Token], pos: usize) -> std::ops::Range<usize> {
    let mut start = pos;
    while start < tokens.len() && tokens[start].text == "&" {
        start += 1;
    }
    let mut end = start;
    while end < tokens.len() {
        let t = tokens[end].text.as_str();
        if t == "(" || t == "[" {
            match matching_close(tokens, end, t, if t == "(" { ")" } else { "]" }) {
                Some(close) => {
                    end = close + 1;
                    continue;
                }
                None => break,
            }
        }
        let word_ok = tokens[end].is_word() && (end == start || !tokens[end - 1].is_word());
        if word_ok || t == "." || t == "::" {
            end += 1;
            continue;
        }
        break;
    }
    start..end
}

/// Render tokens back to readable text: a space only between two
/// word-shaped tokens (`b as usize`), nothing elsewhere
/// (`usize::from(bytes[i])`).
pub fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 && t.is_word() && tokens[i - 1].is_word() {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&lex(src))
    }

    #[test]
    fn tokens_carry_their_line() {
        let t = toks("foo\n    .unwrap()\n");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["foo", ".", "unwrap", "(", ")"]);
        assert_eq!(t[0].line, 0);
        assert_eq!(t[2].line, 1);
    }

    #[test]
    fn maximal_munch_protects_comparison_ops() {
        let texts: Vec<String> = toks("a <= b => c == d ..= e")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, ["a", "<=", "b", "=>", "c", "==", "d", "..=", "e"]);
    }

    #[test]
    fn comments_and_strings_produce_no_tokens() {
        let t = toks("let x = \"std::net TcpStream\"; // Instant::now\n");
        assert!(!contains_seq(&t, &["TcpStream"]));
        assert!(!contains_seq(&t, &["Instant"]));
    }

    #[test]
    fn bracket_matching_spans_lines() {
        let t = toks("table[\n    idx\n]\n");
        assert_eq!(t[1].text, "[");
        assert_eq!(matching_close(&t, 1, "[", "]"), Some(3));
    }

    #[test]
    fn render_spaces_words_only() {
        assert_eq!(render(&toks("b as usize")), "b as usize");
        assert_eq!(render(&toks("usize :: from ( bytes [ i ] )")), "usize::from(bytes[i])");
    }
}
