//! A small, dependency-free JSON layer.
//!
//! The workspace serialises execution plans, profile snapshots, audit
//! reports and experiment rows to JSON. Rather than pulling an external
//! serialisation framework into a build that must work fully offline, this
//! module provides the complete round-trip: a [`Value`] tree, a strict
//! recursive-descent parser, compact and pretty writers, and the
//! [`ToJson`]/[`FromJson`] traits the other crates implement by hand.
//!
//! Integers are kept exact: `u64` values (e.g. 64-bit hashes and byte
//! counts) never pass through `f64`, so round-trips are lossless.

use std::fmt::{self, Write as _};

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (exact up to `u64::MAX`).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Any number written with a fraction or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Error produced by parsing or by typed extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input (0 for extraction errors).
    pub offset: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset,
        }
    }

    /// An extraction (shape-mismatch) error, without an input position.
    pub fn shape(message: impl Into<String>) -> Self {
        Self::new(message, 0)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Types that render themselves as a JSON [`Value`].
pub trait ToJson {
    /// Builds the JSON value.
    fn to_json_value(&self) -> Value;
}

/// Types restorable from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Parses the value, reporting shape mismatches as errors.
    fn from_json_value(v: &Value) -> Result<Self, JsonError>;
}

impl Value {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(JsonError::new("trailing characters", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::shape(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as an exact u64.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::UInt(n) => Ok(*n),
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            Value::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x < 2f64.powi(53) => Ok(*x as u64),
            other => Err(JsonError::shape(format!("expected u64, got {other:?}"))),
        }
    }

    /// The value as a usize.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as a u32.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_u64()?).map_err(|_| JsonError::shape("u32 out of range"))
    }

    /// The value as a u8.
    pub fn as_u8(&self) -> Result<u8, JsonError> {
        u8::try_from(self.as_u64()?).map_err(|_| JsonError::shape("u8 out of range"))
    }

    /// The value as an f64 (any numeric form).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            Value::Float(x) => Ok(*x),
            other => Err(JsonError::shape(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::shape(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(xs) => Ok(xs),
            other => Err(JsonError::shape(format!("expected array, got {other:?}"))),
        }
    }

    /// Renders compact JSON.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty JSON with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(xs) => {
                if xs.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    x.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Object-builder convenience: `obj([("a", Value::UInt(1))])`.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Array-builder over any `ToJson` iterator.
pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(|x| x.to_json_value()).collect())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Writes the shortest float form that round-trips; integral values keep
/// a trailing `.0` so they parse back as floats.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{x:.1}");
    } else {
        let start = out.len();
        let _ = write!(out, "{x}");
        debug_assert_eq!(out[start..].parse::<f64>().ok(), Some(x));
    }
}

/// Writes `s` as a quoted JSON string. Runs of characters that need no
/// escaping are copied in one go; every byte that needs escaping is
/// ASCII, so slicing at it never splits a multibyte character.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected `{}`", b as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::new(
                format!("unexpected `{}`", other as char),
                self.pos,
            )),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(xs));
                }
                _ => return Err(JsonError::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(JsonError::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::new("bad \\u escape", start))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape", start))?;
                            // Surrogate pairs are not produced by our writer;
                            // lone surrogates degrade to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new("bad escape", start)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash at once, checking UTF-8 for that run only:
                    // re-checking the rest of the input per character made
                    // parsing quadratic in document length.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| JsonError::new("invalid UTF-8", self.pos))?;
                    s.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number", start))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(n) = rest.parse::<i64>() {
                    return Ok(Value::Int(-n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError::new(format!("invalid number `{text}`"), start))
    }
}

// Blanket-ish impls for common primitives keep hand-written serialisers
// short.
impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl ToJson for u64 {
    fn to_json_value(&self) -> Value {
        Value::UInt(*self)
    }
}
impl ToJson for usize {
    fn to_json_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}
impl ToJson for u32 {
    fn to_json_value(&self) -> Value {
        Value::UInt(u64::from(*self))
    }
}
impl ToJson for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl ToJson for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl ToJson for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}
impl<T: ToJson> ToJson for &T {
    fn to_json_value(&self) -> Value {
        (*self).to_json_value()
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(x) => x.to_json_value(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("42").unwrap(), Value::UInt(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(
            Value::parse("\"hi\\n\"").unwrap(),
            Value::Str("hi\n".into())
        );
    }

    #[test]
    fn u64_exact_roundtrip() {
        let big = u64::MAX - 1;
        let v = Value::UInt(big);
        let back = Value::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_u64().unwrap(), big);
    }

    #[test]
    fn nested_roundtrip() {
        let v = obj([
            ("name", Value::Str("x".into())),
            (
                "xs",
                Value::Array(vec![Value::UInt(1), Value::Float(2.5), Value::Null]),
            ),
            ("ok", Value::Bool(false)),
            ("empty", Value::Object(vec![])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn field_access() {
        let v = Value::parse("{\"a\": {\"b\": [10, 20]}}").unwrap();
        let xs = v.field("a").unwrap().field("b").unwrap();
        assert_eq!(xs.as_array().unwrap()[1].as_u64().unwrap(), 20);
        assert!(v.field("missing").is_err());
        assert!(v
            .field("missing")
            .unwrap_err()
            .to_string()
            .contains("missing"));
    }

    #[test]
    fn escapes_roundtrip() {
        for s in [
            "quote\" slash\\ newline\n tab\t unicode→ ctrl\u{1}",
            // Multibyte characters right before and right after escapes.
            "→\"→\\→\n→\u{1f}→",
            "\"→",
            // A string that ends in a multibyte character.
            "ends in →",
            "→",
        ] {
            let v = Value::Str(s.into());
            assert_eq!(Value::parse(&v.to_string_compact()).unwrap(), v, "{s:?}");
        }
        // An unterminated string is reported at the end of the input,
        // whether it ends inside a plain run or right after an escape.
        for text in ["\"abc→", "\"a→\\n", "[\"x\", \"→→"] {
            let err = Value::parse(text).unwrap_err();
            assert_eq!(err.message, "unterminated string", "{text:?}");
            assert_eq!(err.offset, text.len(), "{text:?}");
        }
    }

    /// String parsing is linear in document length: a 256 KiB string of
    /// multibyte characters and escapes parses well inside a second even
    /// in a debug build (a quadratic parser takes tens of seconds here).
    #[test]
    fn long_strings_parse_in_linear_time() {
        let unit = "ab→\"c\\→\n";
        let s = unit.repeat((256 << 10) / unit.len());
        let text = Value::Str(s.clone()).to_string_compact();
        let start = std::time::Instant::now();
        let back = Value::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, Value::Str(s));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn float_formatting_preserves_value() {
        for x in [0.5, 1.0 / 3.0, 1e-9, 123456.75, 500.0, -2.0] {
            let v = Value::Float(x);
            let back = Value::parse(&v.to_string_compact()).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "{x}");
        }
    }

    #[test]
    fn nonfinite_floats_degrade_to_null() {
        assert_eq!(Value::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn typed_extractors_enforce_shape() {
        let v = Value::parse("{\"n\": 300, \"s\": \"x\", \"f\": 1.25}").unwrap();
        assert_eq!(v.field("n").unwrap().as_u32().unwrap(), 300);
        assert!(v.field("n").unwrap().as_u8().is_err());
        assert!(v.field("s").unwrap().as_u64().is_err());
        assert_eq!(v.field("f").unwrap().as_f64().unwrap(), 1.25);
        assert!(v.field("f").unwrap().as_u64().is_err());
        assert_eq!(v.field("n").unwrap().as_f64().unwrap(), 300.0);
    }

    #[test]
    fn pretty_output_shape() {
        let v = obj([("a", Value::UInt(1))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": 1\n}");
    }
}
