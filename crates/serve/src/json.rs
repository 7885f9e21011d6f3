//! A minimal hand-rolled JSON value, parser, and serializer.
//!
//! The wire protocol is line-delimited JSON and the workspace is hermetic
//! (no `serde`), so this module implements the subset the protocol needs:
//! the full JSON grammar on input, and deterministic output — object keys
//! keep insertion order and numbers serialize via Rust's shortest-roundtrip
//! float formatting — so golden-file fixtures are byte-stable.
//!
//! Numbers are kept as [`crate::json::Value::Int`] when they are integral `i64`s and
//! [`crate::json::Value::Float`] otherwise; protocol code that expects counts and ids
//! reads [`crate::json::Value::as_u64`] and never goes through floating point.

use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed exactly as an `i64` (no `.`, `e`, or overflow).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered key/value pairs (later duplicate keys
    /// win on lookup, all are serialized).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Appends `key: value` when `self` is an object; otherwise no-op.
    /// Returns `self` for chaining.
    pub fn with(mut self, key: &str, value: Value) -> Value {
        if let Value::Object(pairs) = &mut self {
            pairs.push((key.to_string(), value));
        }
        self
    }

    /// Member lookup on objects (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if an integer ([`Value::Float`] does not
    /// coerce — counts and ids must arrive integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as unsigned, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64` (accepts either number kind).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A float value for serialization; non-finite values (which JSON
    /// cannot represent) become `null`.
    pub fn float(f: f64) -> Value {
        if f.is_finite() {
            Value::Float(f)
        } else {
            Value::Null
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(true) => f.write_str("true"),
            Value::Bool(false) => f.write_str("false"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.is_finite() => {
                // Keep a float-shaped token even for integral values so the
                // serialization parses back as a Float.
                let text = format!("{x}");
                if text.contains('.') {
                    f.write_str(&text)
                } else {
                    write!(f, "{text}.0")
                }
            }
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

/// Recursion guard: the protocol never nests deeper than a handful of
/// levels; this bounds stack use against adversarial input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
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

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: accept and combine; lone
                            // surrogates become U+FFFD.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.low_surrogate(code)
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // slicing is always on a char boundary).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    if let Some(c) = s.chars().next() {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// Reads `\uXXXX` continuation for a high surrogate; the `\u` of the
    /// low half must follow immediately.
    fn low_surrogate(&mut self, high: u32) -> char {
        if self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            if let Ok(low) = self.hex4() {
                if (0xDC00..0xE000).contains(&low) {
                    let combined = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(combined).unwrap_or('\u{FFFD}');
                }
            }
        }
        '\u{FFFD}'
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.error("expected 4 hex digits")),
            };
            code = (code << 4) | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            // A magnitude beyond f64 (e.g. `1e999`) would round to
            // infinity, which JSON cannot represent and [`Value::float`]
            // would silently serialize back as `null`; reject it instead.
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            Ok(_) => Err(self.error("number out of range")),
            Err(_) => Err(self.error("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let line = r#"{"id":7,"cmd":"chi2","items":[2,7],"nested":{"a":[true,false,null]}}"#;
        let value = parse(line).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_i64), Some(7));
        assert_eq!(value.get("cmd").and_then(Value::as_str), Some("chi2"));
        assert_eq!(value.to_string(), line);
    }

    #[test]
    fn numbers_keep_integrality() {
        let value = parse("[1, -2, 3.5, 1e3, 9223372036854775807]").unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items[0], Value::Int(1));
        assert_eq!(items[1], Value::Int(-2));
        assert_eq!(items[2], Value::Float(3.5));
        assert_eq!(items[3], Value::Float(1000.0));
        assert_eq!(items[4], Value::Int(i64::MAX));
        // Serialized floats stay recognizable as floats.
        assert_eq!(value.to_string(), "[1,-2,3.5,1000.0,9223372036854775807]");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::Str("line\nquote\"tab\tback\\slash\u{1}".to_string());
        let text = original.to_string();
        assert_eq!(parse(&text).unwrap(), original);
        let unicode = parse(r#""café 😀""#).unwrap();
        assert_eq!(unicode.as_str(), Some("café 😀"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Value::float(f64::INFINITY).to_string(), "null");
        assert_eq!(Value::float(f64::NAN).to_string(), "null");
        assert_eq!(Value::float(2.5).to_string(), "2.5");
    }

    #[test]
    fn malformed_inputs_are_errors_with_offsets() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn duplicate_keys_last_wins_on_lookup() {
        let value = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(value.get("k").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn depth_limit_rejects_bombs() {
        let bomb = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&bomb).is_err());
    }
}
