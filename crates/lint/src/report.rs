//! Finding renderers: human-readable text and JSON-lines.

use crate::rules::Finding;

/// One finding as a human-readable line.
pub fn human(finding: &Finding) -> String {
    format!(
        "{}:{}: [{}] {}",
        finding.path,
        finding.line,
        finding.rule.as_str(),
        finding.message
    )
}

/// One finding as a JSON object (one line, no trailing newline).
pub fn json_line(finding: &Finding) -> String {
    let mut out = String::from("{");
    field(&mut out, "rule", finding.rule.as_str());
    out.push(',');
    field(&mut out, "path", &finding.path);
    out.push_str(&format!(",\"line\":{},", finding.line));
    field(&mut out, "message", &finding.message);
    out.push('}');
    out
}

fn field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn json_escapes_quotes() {
        let f = Finding {
            rule: RuleId::SecretHygiene,
            path: "a.rs".into(),
            line: 3,
            message: "bad \"quote\"".into(),
        };
        let j = json_line(&f);
        assert!(j.contains("\\\"quote\\\""));
        assert!(j.contains("\"line\":3,"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
