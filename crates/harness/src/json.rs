//! The one JSON string escaper every hand-rolled JSON writer in the
//! workspace shares: bench results, serve replies, `/metrics` JSON,
//! `/slowlog`, `/trace` and `EXPLAIN` output.

/// Escapes a string for a JSON string literal: `"` and `\` are
/// backslash-escaped, control characters below U+0020 become `\u00XX`,
/// everything else passes through unchanged.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(json_escape("\t\u{1f}"), "\\u0009\\u001f");
        assert_eq!(json_escape("plain é ✓"), "plain é ✓");
    }
}
