//! The workspace's one JSON string escaper.

use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes, `\n`, `\r`, `\t`, and `\u00XX` for the other control
/// characters. The trace and metrics exports, the WAL and config text and
/// the fuzz repro files all write strings through this.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(s, &mut out);
    out
}

/// [`json_escape`] appended to `out`, for writers that build one buffer.
pub fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escapes_what_a_json_string_cannot_hold() {
        assert_eq!(json_escape("plain ünï"), "plain ünï");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\\u0001\\u001f");
    }
}
