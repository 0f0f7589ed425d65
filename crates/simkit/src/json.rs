//! A minimal JSON writer and reader.
//!
//! Replaces `serde` for the workspace's report emitters. Reports are flat
//! records of strings, numbers, and small arrays, so a hand-rolled builder
//! with correct string escaping and finite-float handling covers everything
//! the repo serializes — with zero dependencies and no derive machinery.
//! The matching recursive-descent [`parse`] reads those reports (and the
//! tracekit Chrome exports) back for round-trip validation in tests and CI.
//!
//! ```
//! use simkit::json::Object;
//!
//! let s = Object::new()
//!     .field("label", "SmartDS-6")
//!     .field("gbps", 347.5)
//!     .field("feasible", true)
//!     .finish();
//! assert_eq!(s, r#"{"label":"SmartDS-6","gbps":347.5,"feasible":true}"#);
//! ```

use std::fmt::Write as _;

/// Escapes and quotes one JSON string.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A value that can be rendered as a JSON token.
pub trait ToJson {
    /// Renders `self` as one JSON value.
    fn to_json(&self) -> String;
}

impl ToJson for &str {
    fn to_json(&self) -> String {
        escape(self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        escape(self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> String {
        if *self { "true" } else { "false" }.to_string()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> String {
        // JSON has no NaN/Infinity; reports treat them as null.
        if self.is_finite() {
            let mut s = format!("{self}");
            // `{}` prints integral floats without a point; keep them valid
            // but unambiguous as floats is unnecessary — JSON allows both.
            if s == "-0" {
                s = "0".to_string();
            }
            s
        } else {
            "null".to_string()
        }
    }
}

macro_rules! int_to_json {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> String {
                self.to_string()
            }
        })+
    };
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> String {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> String {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_json());
        }
        out.push(']');
        out
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> String {
        self.as_slice().to_json()
    }
}

/// Builder for one JSON object, preserving field order.
#[derive(Default)]
pub struct Object {
    body: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends one field.
    pub fn field(mut self, name: &str, value: impl ToJson) -> Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&escape(name));
        self.body.push(':');
        self.body.push_str(&value.to_json());
        self
    }

    /// Appends one field whose value is already-rendered JSON (for nested
    /// objects and arrays of objects).
    pub fn field_raw(mut self, name: &str, json: &str) -> Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&escape(name));
        self.body.push(':');
        self.body.push_str(json);
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Renders a slice of already-rendered JSON values as a JSON array.
pub fn array_raw<S: AsRef<str>>(items: &[S]) -> String {
    let mut out = String::from("[");
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(v.as_ref());
    }
    out.push(']');
    out
}

/// A parsed JSON value — the reader-side dual of [`ToJson`].
///
/// Objects keep their fields in document order (duplicate keys are kept;
/// [`Value::get`] returns the first), mirroring what [`Object`] emits.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (also what the writer emits for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// First field named `name`, when this is an object.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element `i`, when this is an array.
    pub fn item(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// Static description of the failure.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Maximum nesting depth [`parse`] accepts, bounding recursion.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.i, msg }
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.i) {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.i += 1; // '{'
        let mut fields = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(self.err("expected a field name"));
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.i += 1; // '"'
        let mut out = String::new();
        loop {
            let start = self.i;
            // Fast path: copy the run of plain bytes in one slice.
            while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            if self.i > start {
                match std::str::from_utf8(&self.b[start..self.i]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err(self.err("invalid utf-8")),
                }
            }
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.i += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect an immediate \uDCxx.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("lone surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid code point")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => return Err(self.err("expected a string byte")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.b.get(self.i) {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = match std::str::from_utf8(&self.b[start..self.i]) {
            Ok(s) => s,
            Err(_) => return Err(self.err("invalid number")),
        };
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn object_builder_round() {
        let s = Object::new()
            .field("n", 3u64)
            .field("ok", false)
            .field("xs", [1.5f64, 2.0])
            .field_raw("nested", &Object::new().field("a", 1u8).finish())
            .finish();
        assert_eq!(s, r#"{"n":3,"ok":false,"xs":[1.5,2],"nested":{"a":1}}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!((-0.0f64).to_json(), "0");
    }

    #[test]
    fn arrays_of_rendered_objects() {
        let rows = [
            Object::new().field("i", 0u8).finish(),
            Object::new().field("i", 1u8).finish(),
        ];
        assert_eq!(array_raw(&rows), r#"[{"i":0},{"i":1}]"#);
    }

    #[test]
    fn parse_reads_back_what_the_writer_emits() {
        let doc = Object::new()
            .field("label", "SmartDS-6 \"fast\"\n")
            .field("gbps", 347.5)
            .field("n", 12u64)
            .field("feasible", true)
            .field("gap", f64::NAN)
            .field("xs", [1.5f64, 2.0])
            .field_raw("nested", &Object::new().field("a", 1u8).finish())
            .finish();
        let v = parse(&doc).expect("round-trip");
        assert_eq!(v.get("label").and_then(Value::as_str), Some("SmartDS-6 \"fast\"\n"));
        assert_eq!(v.get("gbps").and_then(Value::as_f64), Some(347.5));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(12.0));
        assert_eq!(v.get("feasible").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("gap"), Some(&Value::Null));
        assert_eq!(v.get("xs").and_then(|x| x.item(1)).and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            v.get("nested").and_then(|n| n.get("a")).and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(v.as_obj().map(<[_]>::len), Some(7));
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_unicode() {
        let v = parse(" [ 1 ,\t{\"k\" : \"\\u0041\\ud83d\\ude00\\\\\"} , null , -2.5e2 ] ")
            .expect("parses");
        assert_eq!(v.item(0).and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            v.item(1).and_then(|o| o.get("k")).and_then(Value::as_str),
            Some("A\u{1F600}\\")
        );
        assert_eq!(v.item(2), Some(&Value::Null));
        assert_eq!(v.item(3).and_then(Value::as_f64), Some(-250.0));
        assert_eq!(v.as_arr().map(<[_]>::len), Some(4));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\" 1}",
            "[1]]", "\"\\u12\"", "\"\\ud800x\"", "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let e = parse("[1,]").expect_err("trailing comma");
        assert!(e.to_string().contains("byte"), "{e}");
    }
}
