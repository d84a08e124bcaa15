//! Rule `const-time`: comparisons on secret values in `crypto` must
//! route through the `ct` primitives, and table lookups must not be
//! indexed by data-derived bytes.
//!
//! A `==` on key or tag bytes compiles to an early-exit memcmp whose
//! timing leaks the length of the matching prefix — the classic MAC
//! forgery oracle. The rule works on the file's token stream: it
//! flags `==`/`!=` where either operand chain *names* a secret
//! (contains one of the marker substrings below), except when the
//! comparison is over public metadata (`.len()`, `.is_empty()`) or a
//! SCREAMING_CASE constant such as `KEY_LEN`. Because operands are
//! token chains, a comparison split across lines — `secret ==\n
//! other` or `secret\n    == other` — is just as visible as a
//! single-line one. `ct.rs` itself is exempt — it is the
//! implementation the rule points everyone at.
//!
//! A comparison through an alias that names no secret (`let s =
//! keys.client_write; s == other`) is the types' to refuse, not this
//! rule's: `Secret`'s only `PartialEq` is `ct::eq`, and the key types
//! (`x25519::SecretKey`, `SigningKey`, `DhSecret`) have none, so
//! `&Secret == &[u8]` and `sk == other` do not compile (DESIGN.md
//! §6d).
//!
//! The second heuristic targets the classic AES cache-timing channel:
//! `base[x as usize]`-shaped indexing, where the index is a byte cast
//! (`as usize` / `usize::from`) or names a secret, is a table lookup
//! whose cache footprint depends on the data. Brackets are matched
//! over tokens, so an index continued on the next line is in reach.
//! Loop counters (`w[i]`), ranges (`buf[4..8]`), and literal indices
//! do not trip it. An index cast in a `let` and used through the
//! local, an index that aliases a secret through a local, or a keyed
//! value reaching the lookup through a function's parameters, is not
//! seen (`fixtures/const_time/keyed_accumulator.rs` and
//! `bad_window.rs` pin those blind spots).

use super::Hit;
use crate::source::SourceFile;
use crate::tokens::{
    contains_seq, matching_close, operand_span_after, operand_span_before, render, Token,
};

/// Lower-cased substrings that tag an identifier as secret-bearing.
const SECRET_MARKERS: &[&str] = &[
    "secret", "key", "tag", "mac", "shared", "prk", "ikm", "seed", "scalar",
];

/// Keywords that look word-shaped but can never be an indexing base
/// (`return [0; 4]` is an array literal, not a lookup).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

pub(crate) fn check(file: &SourceFile) -> Vec<Hit> {
    if file.path.ends_with("ct.rs") {
        return Vec::new();
    }
    let tokens = &file.tokens;
    let mut hits = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if file.is_test[tok.line] {
            continue;
        }
        if tok.text == "==" || tok.text == "!=" {
            let operands = [operand_span_before(tokens, i), operand_span_after(tokens, i + 1)];
            if let Some(operand) = operands
                .into_iter()
                .map(|span| render(&tokens[span]))
                .find(|operand| is_secret_operand(operand))
            {
                hits.push(Hit {
                    line: tok.line,
                    message: format!(
                        "variable-time comparison on secret-tagged operand `{operand}`; \
                         use ct::eq / ct::select_byte instead of `{}`",
                        tok.text
                    ),
                });
            }
        }
        if let Some(lookup) = table_lookup_at(tokens, i) {
            hits.push(Hit {
                line: tok.line,
                message: format!(
                    "data-dependent table lookup `{lookup}`; the index drives which cache \
                     lines are touched — use a bitsliced circuit or a masked full-table \
                     scan"
                ),
            });
        }
    }
    hits
}

/// If token `i` opens an indexing bracket whose index is data-derived
/// — contains a byte-to-index cast (`as usize`, `usize::from`) or
/// names a secret — return the rendered `base[index]` expression.
/// Ranges and plain counters pass.
fn table_lookup_at(tokens: &[Token], i: usize) -> Option<String> {
    if tokens[i].text != "[" || i == 0 {
        return None;
    }
    let base_tok = &tokens[i - 1];
    if !base_tok.is_word() || KEYWORDS.contains(&base_tok.text.as_str()) {
        return None; // array literals / types / attributes, not indexing
    }
    let close = matching_close(tokens, i, "[", "]")?;
    let index_tokens = &tokens[i + 1..close];
    if index_tokens.is_empty()
        || index_tokens.iter().any(|t| t.text == ".." || t.text == "..=")
    {
        return None; // slicing by range: bounds are public structure
    }
    let index = render(index_tokens);
    let data_derived = contains_seq(index_tokens, &["as", "usize"])
        || contains_seq(index_tokens, &["usize", "::", "from"])
        || is_secret_operand(&index);
    if !data_derived {
        return None;
    }
    let base = operand_before(tokens, i);
    Some(format!("{base}[{index}]"))
}

/// The chain ending just before `pos`, rendered (see
/// [`operand_span_before`]).
fn operand_before(tokens: &[Token], pos: usize) -> String {
    render(&tokens[operand_span_before(tokens, pos)])
}

/// The chain starting at `pos`, rendered (see [`operand_span_after`]).
#[cfg(test)]
fn operand_after(tokens: &[Token], pos: usize) -> String {
    render(&tokens[operand_span_after(tokens, pos)])
}

/// Does this operand name a secret, compared in a variable-time way?
fn is_secret_operand(operand: &str) -> bool {
    if operand.is_empty() {
        return false;
    }
    // Public metadata about a secret is fine to compare.
    if operand.ends_with("len()") || operand.ends_with(".is_empty()") || operand.ends_with("_len") {
        return false;
    }
    // SCREAMING_CASE constants (KEY_LEN, SECRET_SIZE) are public.
    if operand
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || "_:.".contains(c))
    {
        return false;
    }
    let lower = operand.to_ascii_lowercase();
    SECRET_MARKERS.iter().any(|m| {
        // Match whole identifier segments so `monkey` does not trip
        // the `key` marker.
        lower
            .split(|c: char| !(c.is_alphanumeric()))
            .flat_map(|seg| seg.split('_'))
            .any(|seg| seg == *m || seg.strip_suffix('s') == Some(m))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tokens::tokenize;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&lex(src))
    }

    fn lookups(src: &str) -> Vec<String> {
        let tokens = toks(src);
        (0..tokens.len()).filter_map(|i| table_lookup_at(&tokens, i)).collect()
    }

    #[test]
    fn operand_extraction() {
        let tokens = toks("if self.peer_tag == expected_tag {");
        let op = tokens.iter().position(|t| t.text == "==").unwrap();
        assert_eq!(operand_before(&tokens, op), "self.peer_tag");
        assert_eq!(operand_after(&tokens, op + 1), "expected_tag");
    }

    #[test]
    fn operand_extraction_spans_lines() {
        let tokens = toks("if self.peer_tag\n    == expected_tag\n{");
        let op = tokens.iter().position(|t| t.text == "==").unwrap();
        assert_eq!(operand_before(&tokens, op), "self.peer_tag");
        assert_eq!(operand_after(&tokens, op + 1), "expected_tag");
        assert_eq!(tokens[op].line, 1);
    }

    #[test]
    fn table_lookup_detection() {
        assert_eq!(lookups("let y = SBOX[b as usize];"), vec!["SBOX[b as usize]".to_string()]);
        assert_eq!(
            lookups("acc = acc.add(&table[nibble as usize]);"),
            vec!["table[nibble as usize]".to_string()]
        );
        assert_eq!(
            lookups("z = z.xor(table[usize::from(bytes[i])]);"),
            vec!["table[usize::from(bytes[i])]".to_string()]
        );
        // Secret-named index without a cast still counts.
        assert_eq!(lookups("let p = precomp[key_byte];"), vec!["precomp[key_byte]".to_string()]);
        // Counters, literals, ranges, and array literals are public structure.
        assert!(lookups("let w = words[i];").is_empty());
        assert!(lookups("let b = block[12];").is_empty());
        assert!(lookups("let s = buf[4..8].to_vec();").is_empty());
        assert!(lookups("let a = [0u8; 16];").is_empty());
        assert!(lookups("return [0u8; 16];").is_empty());
    }

    #[test]
    fn table_lookup_spans_lines() {
        assert_eq!(
            lookups("let y = SBOX[\n    b as usize\n];"),
            vec!["SBOX[b as usize]".to_string()]
        );
    }

    #[test]
    fn secret_operands() {
        assert!(is_secret_operand("self.peer_tag"));
        assert!(is_secret_operand("shared"));
        assert!(is_secret_operand("session_keys"));
        assert!(!is_secret_operand("key.len()"));
        assert!(!is_secret_operand("KEY_LEN"));
        assert!(!is_secret_operand("monkey"));
        assert!(!is_secret_operand("version"));
    }
}
