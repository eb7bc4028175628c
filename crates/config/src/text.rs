//! Text (JSON) serialization for [`ConfigValue`].
//!
//! Turbine converts Thrift-typed configs to JSON with Thrift's JSON
//! serialization protocol and stores/merges them in that form. This module
//! is our equivalent: a strict JSON subset parser and a deterministic
//! printer. The printer and parser round-trip exactly (property-tested),
//! which is what the Job Store's write-ahead log relies on for recovery.

use crate::value::ConfigValue;
use std::fmt;

/// Error produced when parsing malformed configuration text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Serialize a value to compact JSON text. Map keys appear in sorted order
/// (guaranteed by the [`crate::ConfigMap`] representation), so output is
/// deterministic: equal values serialize to equal strings.
pub fn to_text(value: &ConfigValue) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &ConfigValue, out: &mut String) {
    match value {
        ConfigValue::Null => out.push_str("null"),
        ConfigValue::Bool(true) => out.push_str("true"),
        ConfigValue::Bool(false) => out.push_str("false"),
        ConfigValue::Int(i) => out.push_str(&i.to_string()),
        ConfigValue::Float(f) => {
            // Always keep a decimal point or exponent so floats parse back
            // as floats; NaN/inf are schema bugs and must not be stored.
            assert!(f.is_finite(), "non-finite floats cannot be serialized");
            let s = format!("{f:?}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
        ConfigValue::Str(s) => write_string(s, out),
        ConfigValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        ConfigValue::Map(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    turbine_types::json_escape_into(s, out);
    out.push('"');
}

/// Parse JSON text into a [`ConfigValue`]. Trailing non-whitespace input is
/// an error.
pub fn parse(input: &str) -> Result<ConfigValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<ConfigValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.parse_map(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(ConfigValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", ConfigValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", ConfigValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", ConfigValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: ConfigValue) -> Result<ConfigValue, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn parse_map(&mut self) -> Result<ConfigValue, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(ConfigValue::empty_map());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                // Sorted here; a key given twice keeps its last value.
                Some(b'}') => return Ok(ConfigValue::Map(entries.into_iter().collect())),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<ConfigValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(ConfigValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(ConfigValue::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000C}'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        // Handle surrogate pairs for characters outside the BMP.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate escape"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        s.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8: the input is a &str so
                    // the bytes are valid; find the char boundary.
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        self.pos = start + width;
                        let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        s.push_str(chunk);
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<ConfigValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(ConfigValue::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(ConfigValue::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn utf8_width(first_byte: u8) -> usize {
    match first_byte {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let v = parse(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"));
        assert_eq!(parse(&to_text(&v)).expect("reparse"), v, "roundtrip of {s}");
    }

    #[test]
    fn scalars_roundtrip() {
        for s in [
            "null", "true", "false", "0", "-17", "3.5", "-0.25", "1e3", r#""hi""#,
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(r#"{"a": [1, 2, {"b": null}], "c": {"d": "e"}}"#);
        roundtrip("[]");
        roundtrip("{}");
        roundtrip(r#"[[[1]]]"#);
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        roundtrip(r#""line\nbreak\ttab\"quote\\slash""#);
        roundtrip(r#""unicode: é 你""#);
        roundtrip(r#""astral: 😀""#); // 😀 via surrogate pair
        roundtrip("\"direct utf8: éñ你\"");
    }

    #[test]
    fn deterministic_output_sorts_keys() {
        let v = parse(r#"{"z": 1, "a": 2}"#).expect("parse");
        assert_eq!(to_text(&v), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn floats_keep_float_identity() {
        let v = parse("2.0").expect("parse");
        assert_eq!(v, ConfigValue::Float(2.0));
        assert_eq!(to_text(&v), "2.0");
        assert_eq!(parse(&to_text(&v)).expect("reparse"), v);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\": }").expect_err("should fail");
        assert_eq!(e.offset, 6);
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{1: 2}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse(r#""bad \x escape""#).is_err());
        assert!(parse("99999999999999999999").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        roundtrip(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n");
    }

    #[test]
    fn duplicate_keys_last_wins() {
        // Like most JSON parsers (and Thrift's), later duplicates override.
        let v = parse(r#"{"a": 1, "a": 2}"#).expect("parse");
        assert_eq!(v.get("a").and_then(|x| x.as_int()), Some(2));
    }
}
