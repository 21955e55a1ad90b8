//! Minimal, dependency-free JSON tree: parser, writer, and a conversion
//! trait.
//!
//! The reproduction runs in hermetic environments with no crate registry,
//! so persistence (configs, traces, placement state, reports) cannot lean
//! on `serde`. This module is a small, deterministic replacement:
//!
//! * numbers are kept as their literal text, so `u64` values up to
//!   `2^64 - 1` (fixed-point interval widths, hash seeds) round-trip
//!   exactly — no silent `f64` truncation;
//! * objects preserve insertion order, so emitted documents are
//!   byte-stable across runs and platforms;
//! * the API is intentionally tiny: a [`Json`] tree, a [`ToJson`] trait,
//!   and a recursive-descent [`Json::parse`].

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

/// Error from parsing or interpreting a JSON document.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected (0 for
    /// shape errors discovered after parsing).
    pub offset: usize,
}

impl JsonError {
    /// A shape error (wrong type / missing key) with no source offset.
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Types that can render themselves as a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

impl Json {
    /// A number from a `u64` (exact).
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `u32` (exact).
    pub fn u32(v: u32) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `i64` (exact).
    pub fn i64(v: i64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `usize` (exact).
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `f64`. Rust's shortest-roundtrip formatting is
    /// used, so reading the text back yields the identical bits.
    /// Non-finite values become `null` (JSON has no NaN/inf).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format_f64(v))
        } else {
            Json::Null
        }
    }

    /// A boolean value.
    pub fn bool(v: bool) -> Json {
        Json::Bool(v)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An array value.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::shape(format!("missing key {key:?}"))),
            _ => Err(JsonError::shape(format!(
                "expected object with key {key:?}"
            ))),
        }
    }

    /// This value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::shape("expected bool")),
        }
    }

    /// This value as a `u64` (exact; rejects non-integer text).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(t) => t
                .parse::<u64>()
                .map_err(|e| JsonError::shape(format!("bad u64 {t:?}: {e}"))),
            _ => Err(JsonError::shape("expected number")),
        }
    }

    /// This value as a `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        match self {
            Json::Num(t) => t
                .parse::<u32>()
                .map_err(|e| JsonError::shape(format!("bad u32 {t:?}: {e}"))),
            _ => Err(JsonError::shape("expected number")),
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        match self {
            Json::Num(t) => t
                .parse::<usize>()
                .map_err(|e| JsonError::shape(format!("bad usize {t:?}: {e}"))),
            _ => Err(JsonError::shape("expected number")),
        }
    }

    /// This value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(t) => t
                .parse::<f64>()
                .map_err(|e| JsonError::shape(format!("bad f64 {t:?}: {e}"))),
            _ => Err(JsonError::shape("expected number")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::shape("expected string")),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(JsonError::shape("expected array")),
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        out.push('\n');
        out
    }

    /// Append the compact serialization to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_indented(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parse a JSON document. Trailing whitespace is allowed; trailing
    /// content, and arrays or objects nested more than 128 levels deep,
    /// are errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Format a finite `f64` so the text parses back to identical bits.
/// Integral values keep a `.0` suffix so the reader can tell floats from
/// integers.
fn format_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a line of `[`s from outside
/// the process overflows the stack; the deepest document the workspace
/// writes nests 5 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if c == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| self.err(format!("invalid utf-8: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("bad escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a \uXXXX low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            other => return Err(self.err(format!("bad escape \\{}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| self.err(format!("invalid utf-8: {e}")))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("bad number"));
        }
        // Validate it parses as f64 (covers every JSON number form).
        text.parse::<f64>()
            .map_err(|e| self.err(format!("bad number {text:?}: {e}")))?;
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "1e-3"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn u64_is_exact() {
        let v = Json::u64(u64::MAX);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn f64_roundtrips_bits() {
        for x in [0.1, 1.0 / 3.0, 1e300, -2.5e-7, 0.0] {
            let back = Json::parse(&Json::f64(x).render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn nonfinite_f64_is_null() {
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
        assert!(Json::f64(f64::NEG_INFINITY).is_null());
        // The rendered text is literal `null`, not a bare NaN token that
        // would wreck downstream parsers.
        assert_eq!(Json::f64(f64::NAN).render(), "null");
        assert_eq!(Json::f64(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn integral_f64_keeps_float_marker() {
        // Integral floats stay distinguishable from integers in the text.
        assert_eq!(Json::f64(5.0).render(), "5.0");
        assert_eq!(Json::f64(-3.0).render(), "-3.0");
        assert_eq!(Json::f64(0.0).render(), "0.0");
        // ...and still round-trip to identical bits.
        let back = Json::parse(&Json::f64(-3.0).render()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), (-3.0f64).to_bits());
    }

    #[test]
    fn control_chars_escape_and_round_trip() {
        // Named short escapes for the common controls.
        assert_eq!(Json::str("a\tb").render(), r#""a\tb""#);
        assert_eq!(Json::str("a\rb").render(), r#""a\rb""#);
        // Unnamed controls use \uXXXX with lowercase hex.
        assert_eq!(Json::str("\u{01}").render(), "\"\\u0001\"");
        assert_eq!(Json::str("\u{1f}").render(), "\"\\u001f\"");
        // 0x20 (space) and above pass through unescaped.
        assert_eq!(Json::str(" ~").render(), "\" ~\"");
        // Every control character survives a render/parse round trip.
        let all_controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let rendered = Json::str(all_controls.clone()).render();
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.as_str().unwrap(), all_controls);
    }

    #[test]
    fn object_access() {
        let v = Json::parse(r#"{"a": 1, "b": [true, "x"]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64().unwrap(), 1);
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert!(arr[0].as_bool().unwrap());
        assert_eq!(arr[1].as_str().unwrap(), "x");
        assert!(v.get("c").is_err());
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\nAé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nAé");
        let emitted = Json::str("tab\there\n").render();
        assert_eq!(emitted, r#""tab\there\n""#);
    }

    #[test]
    fn surrogate_pair() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Objects and arrays share one depth count.
        let mixed = "[{\"a\":".repeat(MAX_DEPTH / 2) + "[";
        assert!(Json::parse(&mixed).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let v = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(v.render(), nested(MAX_DEPTH));
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::obj(vec![
            ("name", Json::str("anu")),
            ("xs", Json::arr(vec![Json::u64(1), Json::u64(2)])),
            ("empty", Json::arr(Vec::new())),
        ]);
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"xs\""));
    }

    #[test]
    fn insertion_order_preserved() {
        let v = Json::obj(vec![("z", Json::u64(1)), ("a", Json::u64(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn bool_ctor_renders_literals() {
        assert_eq!(Json::bool(true).render(), "true");
        assert_eq!(Json::bool(false).render(), "false");
        assert!(Json::bool(true).as_bool().unwrap());
    }
}
