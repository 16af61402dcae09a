//! A minimal, dependency-free JSON emitter **and parser** for campaign
//! and benchmark reports.
//!
//! The build environment is offline (no `serde`), so [`Json`] is a tiny
//! hand-rolled value tree with a **stable** pretty printer: object keys
//! render in insertion order, floats render with Rust's
//! shortest-round-trip `Display` (deterministic, bit-faithful), and
//! non-finite floats render as `null`. The golden-file test in
//! `tests/cli.rs` pins the emitted schema.
//!
//! The read side ([`parse`] → [`JsonValue`]) exists so `musa bench
//! --baseline BENCH_<n>.json` can load a committed benchmark report.
//! It is a strict RFC 8259 recursive-descent parser over the subset the
//! emitter produces (plus `\uXXXX` escapes and scientific notation);
//! numbers that look integral parse as [`JsonValue::Int`] /
//! [`JsonValue::UInt`] so `u64` seeds round-trip exactly, everything
//! else as [`JsonValue::Float`].

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// An unsigned integer (seeds are full-range `u64`).
    UInt(u64),
    /// A float, shortest-round-trip formatted; non-finite values emit
    /// `null`.
    Float(f64),
    /// A string (escaped per RFC 8259).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value from any `usize` count.
    pub fn count(n: usize) -> Json {
        Json::Int(n as i64)
    }

    /// `Some(n)` → integer, `None` → `null`.
    pub fn opt_count(n: Option<usize>) -> Json {
        n.map_or(Json::Null, Json::count)
    }

    /// Renders the value as pretty-printed JSON (two-space indent, no
    /// trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a quoted, RFC 8259-escaped JSON string (shared by
/// string values and object keys).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A parsed JSON value. Unlike the emit-side [`Json`] (whose object
/// keys are `&'static str` because every emitted schema is known at
/// compile time), keys here are owned strings read from the document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer.
    Int(i64),
    /// A non-negative integer (counts, seeds).
    UInt(u64),
    /// Any other number (fractional part, exponent, or out of integer
    /// range).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order as written.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(u) => Some(u),
            JsonValue::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(i) => Some(i as f64),
            JsonValue::UInt(u) => Some(u as f64),
            JsonValue::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document failed to parse: a message and the byte offset it
/// was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace reads nest a handful of levels; the cap turns hostile input
/// (`[[[[…`) into a [`JsonParseError`] instead of overflowing the stack
/// of the recursive descent.
const MAX_DEPTH: usize = 512;

/// Parses a complete JSON document (one value plus optional
/// whitespace).
///
/// # Errors
///
/// Returns a [`JsonParseError`] describing the first offending byte —
/// including trailing garbage after the value, and arrays or objects
/// nested more than 512 levels deep.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one container a level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                0x00..=0x1f => return Err(self.error("raw control character in string")),
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // continuation bytes are always well formed).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .peek()
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input slice is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let unit = self.hex4()?;
        // Surrogate pairs: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        let code = if (0xD800..=0xDBFF).contains(&unit) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.expect(b'u')?;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("invalid low surrogate"));
                }
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            } else {
                return Err(self.error("lone high surrogate"));
            }
        } else if (0xDC00..=0xDFFF).contains(&unit) {
            return Err(self.error("lone low surrogate"));
        } else {
            unit
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        // RFC 8259: no leading zeros.
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(JsonParseError {
                message: "leading zero in number".to_string(),
                offset: digits_start,
            });
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        // `-0` is how the emitter spells a negative-zero float; keeping
        // it a float keeps its sign through a parse.
        if integral && text != "-0" {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.error("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn object_keys_are_escaped_like_string_values() {
        let v = Json::Obj(vec![("a\"b", Json::Null)]);
        assert_eq!(v.render(), "{\n  \"a\\\"b\": null\n}");
    }

    #[test]
    fn containers_render_stably() {
        let v = Json::Obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    null\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn floats_round_trip_shortest() {
        // Display is shortest-round-trip: the bit pattern survives.
        let x = 0.1 + 0.2;
        assert_eq!(Json::Float(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn opt_count_maps_none_to_null() {
        assert_eq!(Json::opt_count(None).render(), "null");
        assert_eq!(Json::opt_count(Some(7)).render(), "7");
    }

    // -- parser ---------------------------------------------------------

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(parse("-2.5e-1").unwrap(), JsonValue::Float(-0.25));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn negative_zero_round_trips() {
        let text = Json::Float(-0.0).render();
        assert_eq!(text, "-0");
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative(), "{back}");
        assert_eq!(Json::Float(back).render(), text);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\u00e9\uD83D\uDE00""#).unwrap(),
            JsonValue::Str("a\"b\\c\ndé😀".into())
        );
        assert_eq!(parse("\"héllo\"").unwrap(), JsonValue::Str("héllo".into()));
    }

    #[test]
    fn parses_containers_preserving_key_order() {
        let v = parse(r#"{"b": 1, "a": [2, null, {"x": false}]}"#).unwrap();
        let JsonValue::Obj(fields) = &v else { panic!("{v:?}") };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("b").and_then(JsonValue::as_u64), Some(1));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("x").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn parse_round_trips_the_emitter() {
        let emitted = Json::Obj(vec![
            ("seed", Json::UInt(0xDA7E_2005)),
            ("pi", Json::Float(3.25)),
            ("none", Json::Null),
            ("names", Json::Arr(vec![Json::str("a b"), Json::str("c\"d")])),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ])
        .render();
        let parsed = parse(&emitted).unwrap();
        assert_eq!(parsed.get("seed").and_then(JsonValue::as_u64), Some(0xDA7E_2005));
        assert_eq!(parsed.get("pi").and_then(JsonValue::as_f64), Some(3.25));
        assert_eq!(parsed.get("none"), Some(&JsonValue::Null));
        assert_eq!(
            parsed.get("names").and_then(JsonValue::as_arr).unwrap()[1].as_str(),
            Some("c\"d")
        );
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for (text, fragment) in [
            ("", "expected a JSON value"),
            ("{", "expected `\"`"),
            ("[1,]", "expected a JSON value"),
            ("{\"a\" 1}", "expected `:`"),
            ("\"abc", "unterminated string"),
            ("01", "leading zero"),
            ("1.", "expected digits after `.`"),
            ("tru", "expected `true`"),
            ("1 2", "trailing characters"),
            ("\"\\uD800\"", "lone high surrogate"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains(fragment),
                "{text:?}: got {err} (wanted {fragment:?})"
            );
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "{\"k\":", "}").replace(":}", ":null}")).is_ok());
        for hostile in [
            nest(MAX_DEPTH + 1, "[", "]"),
            nest(MAX_DEPTH + 1, "{\"k\":", "}"),
            "[".repeat(200_000),
        ] {
            let err = parse(&hostile).unwrap_err();
            assert!(err.message.contains("nesting deeper than 512"), "{err}");
            assert_eq!(err.offset, opening_offset(&hostile));
        }
    }

    /// Byte offset of the container that would open level
    /// `MAX_DEPTH + 1`.
    fn opening_offset(text: &str) -> usize {
        text.char_indices()
            .filter(|&(_, c)| c == '[' || c == '{')
            .nth(MAX_DEPTH)
            .map(|(i, _)| i)
            .unwrap()
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = parse(r#"{"n": -1, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-1.0));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }
}
