//! Hand-rolled JSON, so the crate stays dependency-free: the event
//! line encoder, a [`Value`] tree with a pretty writer for the
//! `BENCH_*.json` artifacts, and the one parser that reads both back.
//!
//! Every event serializes to one flat JSON object per line:
//!
//! ```text
//! {"ts_ns":35000000,"shard":0,"party":"middlebox0","event":"record_decrypt","hop":0,"bytes":512,"seq":3}
//! ```
//!
//! The parser covers the JSON this workspace writes, not all of JSON:
//! no `null`, no exponents, no escapes beyond `\"` and `\\`.

use crate::event::Event;

/// Encode one event as a single JSON line (no trailing newline).
pub fn to_json_line(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"ts_ns\":");
    out.push_str(&event.ts_ns.to_string());
    out.push_str(",\"shard\":");
    out.push_str(&event.shard.to_string());
    out.push_str(",\"party\":\"");
    out.push_str(&event.party.label());
    out.push_str("\",\"event\":\"");
    out.push_str(event.kind.name());
    out.push('"');
    for (key, value) in event.kind.fields() {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&value.to_string());
    }
    out.push('}');
    out
}

/// A parsed or to-be-written JSON document. Objects keep insertion
/// order, so an artifact's keys stay where its reporter put them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A number written without a fraction (wide enough for any `u64`
    /// or `i64` the workspace emits).
    Int(i128),
    /// A number written with a fraction, and how many decimals it is
    /// written with: the precision is part of an artifact's schema.
    Float(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}

impl From<u16> for Value {
    fn from(v: u16) -> Value {
        Value::Int(v.into())
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl Value {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of floats, all written with `decimals` decimals.
    pub fn floats(values: &[f64], decimals: usize) -> Value {
        Value::Array(values.iter().map(|&v| Value::Float(v, decimals)).collect())
    }

    /// Render with two-space indentation. Arrays of scalars stay on
    /// one line; objects and arrays holding them get a line per entry.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Bool(v) => out.push_str(&v.to_string()),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v, decimals) => out.push_str(&format!("{v:.decimals$}")),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) if items.iter().all(Value::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Value::Array(items) => {
                write_block(out, indent, ('[', ']'), items, |out, item| item.write(out, indent + 2))
            }
            Value::Object(pairs) => {
                write_block(out, indent, ('{', '}'), pairs, |out, (key, value)| {
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 2);
                })
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Object(_))
    }

    /// Follow a dotted path of object keys and array indices
    /// (`"sessions.0.curve"`). The error names the path, so a floor
    /// check that reads a missing key fails with the key in the message.
    pub fn at(&self, path: &str) -> Result<&Value, String> {
        path.split('.')
            .try_fold(self, |node, step| match node {
                Value::Array(items) => items.get(step.parse::<usize>().ok()?),
                Value::Object(pairs) => pairs.iter().find(|(k, _)| k == step).map(|(_, v)| v),
                _ => None,
            })
            .ok_or_else(|| format!("\"{path}\" is missing"))
    }

    /// The number (integer or float) at `path`.
    pub fn num(&self, path: &str) -> Result<f64, String> {
        match self.at(path)? {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v, _) => Ok(*v),
            _ => Err(format!("\"{path}\" is not a number")),
        }
    }

    /// The boolean at `path`.
    pub fn flag(&self, path: &str) -> Result<bool, String> {
        match self.at(path)? {
            Value::Bool(v) => Ok(*v),
            _ => Err(format!("\"{path}\" is not a boolean")),
        }
    }

    /// The string at `path`.
    pub fn text(&self, path: &str) -> Result<&str, String> {
        match self.at(path)? {
            Value::Str(v) => Ok(v),
            _ => Err(format!("\"{path}\" is not a string")),
        }
    }

    /// The array at `path`.
    pub fn list(&self, path: &str) -> Result<&[Value], String> {
        match self.at(path)? {
            Value::Array(v) => Ok(v),
            _ => Err(format!("\"{path}\" is not an array")),
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// One entry per line between `open` and `close`, comma-separated.
fn write_block<T>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    entries: &[T],
    mut write_entry: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, entry) in entries.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.extend(std::iter::repeat_n(' ', indent + 2));
        write_entry(out, entry);
    }
    if !entries.is_empty() {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(close);
}

/// Parse one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.error("trailing characters after the document")),
    }
}

/// Validate that `line` is one flat JSON object whose values are
/// strings or integers — the shape [`to_json_line`] produces.
/// Returns the number of key/value pairs. It exists so smoke scripts
/// can check trace output without external tooling.
pub fn validate_json_line(line: &str) -> Result<usize, String> {
    let Value::Object(pairs) = parse(line)? else {
        return Err("expected one object".to_string());
    };
    match pairs.iter().find(|(_, v)| !matches!(v, Value::Str(_) | Value::Int(_))) {
        Some((key, _)) => Err(format!("\"{key}\" is neither a string nor an integer")),
        None => Ok(pairs.len()),
    }
}

/// Files come from outside the program: bound the recursion they can
/// cause. The deepest artifact nests five levels.
const MAX_DEPTH: usize = 32;

/// `pos` only ever moves past ASCII bytes or to the end of a scanned
/// token, so it stays on a character boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string()?;
                    p.skip_whitespace();
                    p.expect(b':')?;
                    pairs.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in [("true", true), ("false", false)] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(Value::Bool(value));
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// Comma-separated entries up to `close`; the opening bracket is
    /// at the cursor. A comma must be followed by another entry.
    fn sequence(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            entry(self)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = self.peek().ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => match self.peek() {
                    Some(escaped @ (b'"' | b'\\')) => {
                        out.push(escaped);
                        self.pos += 1;
                    }
                    _ => return Err(self.error("unsupported escape")),
                },
                _ => out.push(byte),
            }
        }
        // Only whole ASCII bytes were removed from valid UTF-8.
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    /// `-?digits` is an integer, `-?digits.digits` a float; the
    /// standard parsers accept more (`1.`, `-.5`, `1e3`), hence the
    /// explicit shape check.
    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.pos..];
        let len = rest.find(|c: char| !matches!(c, '-' | '.' | '0'..='9')).unwrap_or(rest.len());
        let token = &rest[..len];
        let (whole, fraction) = token.split_once('.').unwrap_or((token, ""));
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let parsed = if !digits(whole.strip_prefix('-').unwrap_or(whole)) {
            None
        } else if whole.len() == token.len() {
            token.parse().ok().map(Value::Int)
        } else if digits(fraction) {
            // A long enough digit string parses to infinity, which
            // the writer could not say back.
            let finite = token.parse().ok().filter(|v: &f64| v.is_finite());
            finite.map(|v| Value::Float(v, fraction.len()))
        } else {
            None
        };
        self.pos += len;
        parsed.ok_or_else(|| self.error("malformed or out-of-range number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Party};

    #[test]
    fn events_serialize_and_validate() {
        let samples = [
            Event {
                ts_ns: 35_000_000,
                shard: 0,
                party: Party::Middlebox(0),
                kind: EventKind::RecordDecrypt { hop: 0, bytes: 512, seq: 3 },
            },
            Event { ts_ns: 0, shard: 0, party: Party::Client, kind: EventKind::HandshakeComplete },
            Event {
                ts_ns: 7,
                shard: 1,
                party: Party::Network,
                kind: EventKind::LinkSend { conn: 1, bytes: 1460 },
            },
            Event {
                ts_ns: 9,
                shard: 0,
                party: Party::Enclave(2),
                kind: EventKind::Ecall { enclave: 2, cost_ns: 12_000 },
            },
        ];
        for event in &samples {
            let line = to_json_line(event);
            let pairs = validate_json_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(pairs >= 3, "{line}");
        }
    }

    /// A seeded tree in the shapes the reports use: nested objects,
    /// arrays of scalars and of objects, floats at 1–4 decimals, and
    /// strings that need both escapes.
    fn seeded_value(state: &mut u64, depth: usize) -> Value {
        let mut next = || {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *state >> 33
        };
        let choice = next() % if depth == 0 { 4 } else { 7 };
        match choice {
            0 => Value::Bool(next() % 2 == 0),
            1 => Value::Int(next() as i128 - (1 << 30)),
            2 => {
                let decimals = 1 + (next() % 4) as usize;
                // k / 10^d is the double nearest that decimal, which
                // is what reading the written digits back yields.
                Value::Float((next() % 100_000_000) as f64 / 10f64.powi(decimals as i32), decimals)
            }
            3 => Value::Str(format!("s{}\"q\\b{}", next() % 100, next() % 100)),
            4 => Value::floats(&[next() as f64 / 1000.0, 0.0, next() as f64 / 1000.0], 3),
            5 => Value::Array((0..next() % 3).map(|_| seeded_value(state, depth - 1)).collect()),
            _ => Value::object(
                (0..1 + next() % 4).map(|i| (format!("k{i}"), seeded_value(state, depth - 1))),
            ),
        }
    }

    /// One byte-level mutation of a valid encoding: a truncation, a
    /// byte flip, a span written twice, or a wrapping in more arrays
    /// than [`MAX_DEPTH`] allows.
    fn mutated(text: &str, state: &mut u64) -> Vec<u8> {
        let mut next = |bound: usize| {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*state >> 33) as usize % bound
        };
        let mut bytes = text.as_bytes().to_vec();
        match next(4) {
            0 => bytes.truncate(next(bytes.len())),
            1 => {
                let at = next(bytes.len());
                bytes[at] ^= 1 << next(8);
            }
            2 => {
                let start = next(bytes.len());
                let end = start + next(bytes.len() - start) + 1;
                let span = bytes[start..end].to_vec();
                bytes.splice(end..end, span);
            }
            _ => {
                let depth = MAX_DEPTH - 8 + next(16);
                bytes.splice(0..0, std::iter::repeat_n(b'[', depth));
                bytes.extend(std::iter::repeat_n(b']', depth));
            }
        }
        bytes
    }

    #[test]
    fn seeded_values_round_trip_through_writer_and_parser() {
        let mut state = 0x5EED_1507;
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..200 {
            let value = Value::object([("root", seeded_value(&mut state, 4))]);
            let text = value.to_pretty();
            assert_eq!(parse(&text).unwrap_or_else(|e| panic!("{text}: {e}")), value, "{text}");
            // Hostile bytes from the same encodings: the parser may
            // refuse them, but must not panic, and whatever it
            // accepts the writer must be able to say back.
            for _ in 0..40 {
                let bytes = mutated(&text, &mut state);
                let mutant = String::from_utf8_lossy(&bytes);
                match parse(&mutant) {
                    Err(_) => rejected += 1,
                    Ok(value) => {
                        accepted += 1;
                        assert_eq!(parse(&value.to_pretty()), Ok(value), "{mutant}");
                    }
                }
            }
        }
        // Both outcomes were exercised, not one of them 8000 times.
        assert!(accepted > 500 && rejected > 500, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn writer_keeps_the_artifact_layout() {
        let value = Value::object([
            ("smoke", false.into()),
            ("walls", Value::floats(&[1.25, 2.0], 1)),
            ("rows", Value::Array(vec![Value::object([("n", 3usize.into())])])),
            ("none", Value::Array(Vec::new())),
        ]);
        let text = concat!(
            "{\n  \"smoke\": false,\n  \"walls\": [1.2, 2.0],\n  \"rows\": [\n",
            "    {\n      \"n\": 3\n    }\n  ],\n  \"none\": []\n}"
        );
        assert_eq!(value.to_pretty(), text);
        assert_eq!(value.num("rows.0.n"), Ok(3.0));
        assert_eq!(value.num("walls.1"), Ok(2.0));
        assert!(value.num("rows.1.n").unwrap_err().contains("rows.1.n"));
        assert!(value.flag("walls").is_err() && value.text("smoke").is_err());
    }

    #[test]
    fn parser_rejects_malformed() {
        for bad in [
            "",
            "{\"a\": [1, 2,]}",
            "{\"a\": {\"b\": 1,}}",
            "{\"a\": 1} {}",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": 1.}",
            "{\"a\": -}",
            "{\"a\": 1e3}",
            "[1.2.3]",
            "[--1]",
            "[-.5]",
            "[1-2]",
            "[99999999999999999999999999999999999999999]",
            "{\"a\": nul}",
            "{\"a\": \"\\n\"}",
            "{\"a\": \"open}",
            "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let overflows = format!("[1{}.0]", "0".repeat(400));
        assert!(parse(&overflows).is_err(), "an infinite float parsed");
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_json_line("not json").is_err());
        assert!(validate_json_line("{\"a\":}").is_err());
        assert!(validate_json_line("{\"a\":1,}").is_err());
        assert!(validate_json_line("{\"a\":1} extra").is_err());
        assert!(validate_json_line("{\"a\":1").is_err());
        // Well-formed JSON, but not the flat string/integer shape.
        assert!(validate_json_line("{\"a\":1.5}").is_err());
        assert!(validate_json_line("{\"a\":{\"b\":1}}").is_err());
        assert!(validate_json_line("[1]").is_err());
        assert_eq!(validate_json_line("{}"), Ok(0));
        assert_eq!(validate_json_line("{\"a\":\"x\\\"y\",\"b\":-7}"), Ok(2));
    }
}
