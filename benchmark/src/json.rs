//! The little JSON writing the harness needs (no serde: the box is offline).

use std::fmt::Write;

/// Escapes `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out
}

/// A number with all its digits; JSON has no NaN or infinity, so those
/// become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builds one JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds `key` with an already-serialized JSON value.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        write!(self.0, "\"{}\":{value}", escape(key)).expect("write to String");
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let quoted = format!("\"{}\"", escape(value));
        self.raw(key, &quoted)
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, &num(value))
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// Serializes already-serialized items as a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape(r#"gcn/"cora"\full"#), r#"gcn/\"cora\"\\full"#);
        assert_eq!(escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape("\u{1}x\u{1f}"), "\\u0001x\\u001f");
        assert_eq!(escape("µs → ok"), "µs → ok");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_emit_nan() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let inner = Obj::new().num("value", 1.5).str("unit", "s").finish();
        let doc = Obj::new()
            .bool("correct", true)
            .int("attempted", 12)
            .raw("metrics", &Obj::new().raw("setup_s", &inner).finish())
            .raw("list", &array(["1".to_string(), "2".to_string()]))
            .finish();
        assert_eq!(
            doc,
            r#"{"correct":true,"attempted":12,"metrics":{"setup_s":{"value":1.5,"unit":"s"}},"list":[1,2]}"#
        );
        assert_eq!(Obj::new().finish(), "{}");
    }
}
