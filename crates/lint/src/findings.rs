//! Structured findings and their text/JSON renderings.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`panic-freedom`, `lock-order`, …).
    pub rule: &'static str,
    /// Workspace-relative path (`crates/core/src/matching.rs`).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human explanation of why this is a violation.
    pub message: String,
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one finding as a JSON object.
pub fn finding_to_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"message\":\"{}\"}}",
        json_escape(f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.snippet),
        json_escape(&f.message)
    )
}

/// Renders one finding as `file:line [rule] message` plus the snippet.
pub fn finding_to_text(f: &Finding) -> String {
    format!(
        "{}:{} [{}] {}\n    {}",
        f.file, f.line, f.rule, f.message, f.snippet
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "panic-freedom",
            file: "crates/x/src/lib.rs".to_owned(),
            line: 3,
            snippet: "let x = y.unwrap();".to_owned(),
            message: "`.unwrap()` in library code".to_owned(),
        }
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_object_shape() {
        let j = finding_to_json(&sample());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rule\":\"panic-freedom\""));
        assert!(j.contains("\"line\":3"));
    }
}
