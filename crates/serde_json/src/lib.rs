#![warn(missing_docs)]

//! In-tree, offline stand-in for the subset of the `serde_json` API this
//! workspace uses (the build sandbox has no registry access).
//!
//! Implements an owned [`Value`] tree, a strict recursive-descent parser
//! ([`from_str`]), and a serializer ([`to_string`] / [`to_string_pretty`]).
//! No derive machinery: callers build values explicitly and read them back
//! through the `as_*`/`get` accessors, which is all the telemetry exporter
//! and its schema lint need.

use std::fmt;

/// The largest integer a JSON number carries exactly, 2^53 − 1. Every
/// integer up to it parses to its own `f64`; 2^53 does not, since
/// 2^53 + 1 parses to the same value.
pub const MAX_SAFE_INTEGER: u64 = (1 << 53) - 1;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (stored as `f64`; integral values print without a
    /// fractional part).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Map),
}

/// An insertion-ordered string-keyed map of [`Value`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Insert (or replace) a key.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl Value {
    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number no
    /// larger than [`MAX_SAFE_INTEGER`]. Larger integers are refused: the
    /// number was already rounded to an `f64` on parse, so its value may
    /// not be the one written. Values that can exceed the limit travel as
    /// decimal strings.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INTEGER as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Value {
        Value::Array(a)
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Value {
        Value::Object(m)
    }
}

/// A parse error, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a cap a hostile document of nested `[` could overflow
/// the thread's stack — an abort no `catch_unwind` can stop.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing non-whitespace is an error, and so are
/// nesting deeper than [`MAX_DEPTH`] and a number too large for an `f64`.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Serialize a value compactly.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serialize a value with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !a.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !m.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Append `n` as a JSON number, exactly as [`to_string`] prints one:
/// integral values below 1e15 without a fractional part, other finite
/// values in Rust's shortest round-trip form, and non-finite values as
/// `null`.
pub fn write_number(out: &mut String, n: f64) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional degradation.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        write_integer(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `n` in decimal, as `{}` prints it, without the `fmt` machinery.
fn write_integer(out: &mut String, n: i64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut m = n.unsigned_abs();
    loop {
        i -= 1;
        buf[i] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Append `s` as a quoted JSON string, exactly as [`to_string`] prints
/// one: `"` and `\` are backslash-escaped, `\n`/`\r`/`\t` use their short
/// escapes, other bytes below 0x20 become `\u00xx`, and everything else
/// (multi-byte UTF-8 included) is copied as is. Runs of bytes that need no
/// escape are copied with one `push_str` each.
pub fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0..=0x1f => 'u',
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        out.push('\\');
        out.push(escape);
        if escape == 'u' {
            out.push_str("00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> Error {
        Error {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one array or object a level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting exceeds depth {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of unescaped bytes up to the
                    // next quote or backslash in one UTF-8 validation —
                    // validating from `pos` to end-of-input per character
                    // would make parsing quadratic in document size.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("bad utf-8"))?;
                    s.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| self.err("bad number"))?;
        // `f64::from_str` rounds a literal past f64::MAX to infinity, which
        // no `Value::Number` may hold.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            Ok(_) => Err(Error {
                message: "number out of range".into(),
                offset: start,
            }),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char escaper [`write_string`] replaced, kept as its
    /// byte-for-byte oracle.
    fn write_string_oracle(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use std::fmt::Write as _;
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Characters the escaper treats specially or must copy intact: every
    /// control byte, the two escaped printables, `/` (escapable in JSON but
    /// never escaped here), DEL, and 2-, 3- and 4-byte UTF-8.
    fn tricky_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            (0usize..8).prop_map(|i| ['"', '\\', '/', '\u{7f}', 'a', 'é', '€', '😀'][i]),
            (0u32..0x11_0000)
                .prop_filter("a scalar value", |&c| char::from_u32(c).is_some())
                .prop_map(|c| char::from_u32(c).unwrap()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn write_string_round_trips_and_matches_the_oracle(
            chars in proptest::collection::vec(tricky_char(), 0..48),
        ) {
            let s: String = chars.into_iter().collect();
            let text = to_string(&Value::String(s.clone()));
            prop_assert_eq!(from_str(&text).unwrap(), Value::String(s.clone()));
            let mut oracle = String::new();
            write_string_oracle(&mut oracle, &s);
            prop_assert_eq!(text, oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn integral_numbers_print_like_fmt(n in -999_999_999_999_999i64..1_000_000_000_000_000) {
            let mut out = String::new();
            write_number(&mut out, n as f64);
            prop_assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn integer_edges_print_like_fmt() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            -10.0,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
        ] {
            let mut out = String::new();
            write_number(&mut out, n);
            assert_eq!(out, format!("{}", n as i64), "{n}");
        }
        let mut out = String::new();
        write_number(&mut out, 1e15);
        assert_eq!(out, "1000000000000000");
    }

    #[test]
    fn every_control_byte_escapes_like_the_oracle() {
        let s: String = (0u8..0x80).map(char::from).collect();
        let (mut fast, mut oracle) = (String::new(), String::new());
        write_string(&mut fast, &s);
        write_string_oracle(&mut oracle, &s);
        assert_eq!(fast, oracle);
        assert!(fast.starts_with(r#""\u0000\u0001"#), "{fast}");
        assert_eq!(from_str(&fast).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" false ").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::Number(42.0));
        assert_eq!(from_str("-2.5e3").unwrap(), Value::Number(-2500.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = from_str(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::String("a\"b\\c\nd\te\u{1F600}".into());
        let text = to_string(&original);
        assert_eq!(from_str(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(from_str(r#""A😀""#).unwrap().as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn serialization_round_trips() {
        let mut obj = Map::new();
        obj.insert("name", Value::from("memcpy"));
        obj.insert("ts", Value::from(12.5));
        obj.insert("count", Value::from(3u64));
        obj.insert("flags", Value::Array(vec![Value::Bool(true), Value::Null]));
        let v = Value::Object(obj);
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(to_string(&Value::Number(3.0)), "3");
        assert_eq!(to_string(&Value::Number(3.25)), "3.25");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("\"unterminated").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("{'a':1}").is_err());
    }

    #[test]
    fn object_accessors() {
        let v = from_str(r#"{"n":7,"s":"x","b":true}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().unwrap().len(), 3);
    }

    #[test]
    fn integers_past_the_exact_range_are_not_u64s() {
        let n = |text: &str| from_str(text).unwrap().as_u64();
        assert_eq!(n("9007199254740991"), Some(MAX_SAFE_INTEGER));
        // 2^53 + 1 parses to 2^53, so neither can be trusted.
        assert_eq!(n("9007199254740992"), None);
        assert_eq!(n("9007199254740993"), None);
        assert_eq!(n("922337203685477580"), None);
        assert_eq!(n("-1"), None);
        assert_eq!(n("1.5"), None);
    }

    #[test]
    fn numbers_past_f64_max_are_parse_errors() {
        for (text, offset) in [("1e400", 0), ("-1e400", 0), (r#"{"x": 1e400}"#, 6)] {
            let err = from_str(text).unwrap_err();
            assert_eq!(err.message, "number out of range", "{text}");
            assert_eq!(err.offset, offset, "{text}");
        }
        // The largest finite double and an underflow to zero still parse.
        assert_eq!(
            from_str("1.7976931348623157e308").unwrap(),
            Value::Number(f64::MAX)
        );
        assert_eq!(from_str("1e-400").unwrap(), Value::Number(0.0));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = from_str(&deep).unwrap_err();
        assert_eq!(
            err.offset, MAX_DEPTH,
            "fails at the first bracket past the cap"
        );
        assert!(err.to_string().contains("depth 128"), "{err}");
        // Mixed arrays and objects count alike.
        let mixed = r#"{"a":["#.repeat(100_000);
        assert!(from_str(&mixed).unwrap_err().message.contains("depth"));
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str(&over).is_err());
    }
}
