//! A minimal JSON writer for the result line and the span file.

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, written with every digit `f64` holds.
    Num(f64),
    /// A string.
    Str(String),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in a result");
                out.push_str(&n.to_string());
            }
            Json::Str(s) => write_str(s, out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    #[test]
    fn output_parses_with_the_products_parser() {
        let value = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(4681)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([
                        ("value", Json::Num(1.203_456_789_012_3)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
            (
                "note",
                Json::Str("quote \" backslash \\ newline \n tab \t".into()),
            ),
        ]);
        let text = value.render();
        assert!(!text.contains('\n'), "the result must stay on one line");
        let parsed = parse_json(&text).expect("valid JSON");
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_int()), Some(4681));
        assert_eq!(
            parsed
                .get_path("metrics.setup_s.value")
                .and_then(|v| v.as_float()),
            Some(1.203_456_789_012_3)
        );
        assert_eq!(
            parsed.get("note").and_then(|v| v.as_str()),
            Some("quote \" backslash \\ newline \n tab \t")
        );
    }

    #[test]
    fn whole_valued_measurements_stay_numbers() {
        let parsed = parse_json(&Json::obj([("v", Json::Num(3.0))]).render()).expect("valid");
        let v = parsed.get("v").expect("present");
        assert_eq!(v.as_float().or(v.as_int().map(|i| i as f64)), Some(3.0));
    }
}
