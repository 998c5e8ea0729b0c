//! A small, dependency-free JSON data model: the workspace's wire format.
//!
//! The repo builds in fully offline environments, so instead of `serde` +
//! `serde_json` the workspace carries its own JSON layer:
//!
//! * [`Json`] — a parsed JSON value. Integers keep full `i64`/`u64`
//!   precision (no silent `f64` truncation of large counters).
//! * [`ToJson`] / [`FromJson`] — the encode/decode traits every config and
//!   report type implements, usually via `#[derive(ToJson, FromJson)]`
//!   from the `ucsim-derive` crate (re-exported by this crate).
//! * a parser with depth/size discipline suitable for untrusted input
//!   (the `ucsim-serve` HTTP API feeds request bodies through it).
//!
//! # Canonical encodings
//!
//! Derived `ToJson` emits object members in field-declaration order,
//! leaves out a member whose value is absent ([`ToJson::is_absent`]: a
//! `None` option; derived `FromJson` reads it back as `None`), and
//! formats floats with Rust's shortest-round-trip `Display`. Encoding is
//! therefore a *canonical function of the value*: equal values produce
//! byte-identical strings. The serve layer's content-addressed result
//! cache hashes these strings as cache keys.
//!
//! # Example
//!
//! ```
//! use ucsim_model::json::{FromJson, Json, ToJson};
//!
//! let v = Json::parse(r#"{"x": 1, "y": [1.5, -2.25]}"#).unwrap();
//! let x: u64 = ucsim_model::json::obj_field(&v, "x").unwrap();
//! let y: Vec<f64> = ucsim_model::json::obj_field(&v, "y").unwrap();
//! assert_eq!(x, 1);
//! assert_eq!(y, vec![1.5, -2.25]);
//! assert_eq!(y.to_json().to_string(), "[1.5,-2.25]");
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays/objects).
const MAX_DEPTH: u32 = 128;

/// A JSON value.
///
/// Numbers are split three ways so `u64`/`i64` survive round trips exactly
/// even beyond 2^53; parsing picks the narrowest representation that holds
/// the literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer literal.
    Int(i64),
    /// A non-negative integer literal.
    Uint(u64),
    /// A number with a fraction or exponent (or out of integer range).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved (canonical encodings depend
    /// on it).
    Obj(Vec<(String, Json)>),
}

/// A parse or decode error, with a byte position when produced by the
/// parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    pos: Option<usize>,
}

impl JsonError {
    /// Creates a decode error with no source position.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            pos: None,
        }
    }

    fn at(msg: impl Into<String>, pos: usize) -> Self {
        JsonError {
            msg: msg.into(),
            pos: Some(pos),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{} (at byte {p})", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document (exactly one value plus whitespace).
    ///
    /// # Errors
    ///
    /// Returns an error on malformed input, nesting deeper than 128
    /// levels, or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(JsonError::at("trailing characters after value", p.pos));
        }
        Ok(v)
    }

    /// Serializes with two-space indentation, for human-facing output.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Looks up an object member by name.
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(f) => Some(f),
            Json::Uint(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Uint(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Uint(u) => out.push_str(&u.to_string()),
            Json::Float(f) => write_f64(*f, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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

    fn write_pretty(&self, out: &mut String, indent: usize) {
        fn pad(out: &mut String, n: usize) {
            for _ in 0..n {
                out.push_str("  ");
            }
        }
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// `Display` (and therefore `to_string`) is the compact serialization —
/// no whitespace, member order preserved.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes an `f64` so that parsing the text recovers the exact bits.
/// Rust's `Display` is shortest-round-trip; non-finite values (which JSON
/// cannot express) encode as `null` and decode as NaN.
fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        let s = f.to_string();
        out.push_str(&s);
        // "1" would re-parse as an integer; keep the float-ness explicit
        // so Json -> text -> Json is type-stable.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
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

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{}`", c as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(JsonError::at("expected a JSON value", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&c) = self.b.get(self.pos) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.b[start..self.pos])
                    .map_err(|_| JsonError::at("invalid utf-8 in string", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
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
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00))
                                } else {
                                    return Err(JsonError::at("lone surrogate", self.pos));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| JsonError::at("invalid codepoint", self.pos))?,
                            );
                        }
                        _ => return Err(JsonError::at("unknown escape", self.pos - 1)),
                    }
                }
                Some(_) => return Err(JsonError::at("control character in string", self.pos)),
                None => return Err(JsonError::at("unterminated string", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let s = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
        let s = std::str::from_utf8(s).map_err(|_| JsonError::at("bad \\u escape", self.pos))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| JsonError::at("bad \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("number bytes are ascii");
        if !float {
            if let Some(stripped) = text.strip_prefix('-') {
                // `-0` parses to integer zero, which would drop the sign
                // bit; keep negative zero a float.
                if stripped.bytes().all(|b| b == b'0') {
                    return Ok(Json::Float(-0.0));
                }
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::at("invalid number", start))
    }
}

/// Encoding to [`Json`]. Usually derived with `#[derive(ToJson)]`.
pub trait ToJson {
    /// Converts the value to its JSON representation.
    fn to_json(&self) -> Json;

    /// True when the value, as an object member, is left out of a
    /// derived encoding rather than written. `Option<T>` is absent when
    /// `None`; every other value is always written.
    fn is_absent(&self) -> bool {
        false
    }

    /// Canonical compact encoding (see the module docs).
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// Decoding from [`Json`]. Usually derived with `#[derive(FromJson)]`.
pub trait FromJson: Sized {
    /// Reconstructs the value from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// The value to use when an object member is absent (`None` means
    /// "absence is an error"). `Option<T>` decodes absence as `None`.
    fn from_absent() -> Option<Self> {
        None
    }

    /// Parses a JSON string and decodes it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] from either the parser or the decoder.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

/// Decodes member `name` of object `v`, applying [`FromJson::from_absent`]
/// when the member is missing. This is what derived `FromJson` impls call
/// per field.
///
/// # Errors
///
/// Returns a [`JsonError`] when `v` is not an object, the member is absent
/// with no default, or the member fails to decode.
pub fn obj_field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(JsonError::new(format!(
            "expected object with member `{name}`, found {}",
            v.type_name()
        )));
    }
    match v.get(name) {
        Some(member) => {
            T::from_json(member).map_err(|e| JsonError::new(format!("in member `{name}`: {e}")))
        }
        None => T::from_absent()
            .ok_or_else(|| JsonError::new(format!("missing object member `{name}`"))),
    }
}

/// Extracts a string value, with the expecting type's name in the error.
/// Derived enum `FromJson` impls call this.
///
/// # Errors
///
/// Returns a [`JsonError`] when `v` is not a string.
pub fn expect_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, JsonError> {
    v.as_str().ok_or_else(|| {
        JsonError::new(format!(
            "expected {what} variant string, found {}",
            v.type_name()
        ))
    })
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, found {}", v.type_name())))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new(format!("expected string, found {}", v.type_name())))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Uint(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = v.as_u64().ok_or_else(|| {
                    JsonError::new(format!(
                        concat!("expected ", stringify!($t), ", found {}"),
                        v.type_name()
                    ))
                })?;
                <$t>::try_from(u).map_err(|_| {
                    JsonError::new(format!(concat!("value {} overflows ", stringify!($t)), u))
                })
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let i = *self as i64;
                if i < 0 { Json::Int(i) } else { Json::Uint(i as u64) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = match *v {
                    Json::Int(i) => i,
                    Json::Uint(u) => i64::try_from(u).map_err(|_| {
                        JsonError::new(format!("value {} overflows i64", u))
                    })?,
                    ref other => {
                        return Err(JsonError::new(format!(
                            concat!("expected ", stringify!($t), ", found {}"),
                            other.type_name()
                        )))
                    }
                };
                <$t>::try_from(i).map_err(|_| {
                    JsonError::new(format!(concat!("value {} overflows ", stringify!($t)), i))
                })
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match *v {
            // Non-finite floats encode as null (JSON has no NaN).
            Json::Null => Ok(f64::NAN),
            _ => v
                .as_f64()
                .ok_or_else(|| JsonError::new(format!("expected number, found {}", v.type_name()))),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn from_absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new(format!("expected array, found {}", v.type_name())))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = Vec::<T>::from_json(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| JsonError::new(format!("expected array of {N} elements, found {n}")))
    }
}

macro_rules! impl_json_tuple {
    ($(($($t:ident : $i:tt),+) with $n:expr;)*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$i.to_json()),+])
            }
        }
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let a = v.as_arr().ok_or_else(|| {
                    JsonError::new(format!("expected array, found {}", v.type_name()))
                })?;
                if a.len() != $n {
                    return Err(JsonError::new(format!(
                        "expected array of {} elements, found {}", $n, a.len()
                    )));
                }
                Ok(($($t::from_json(&a[$i])?,)+))
            }
        }
    )*};
}

impl_json_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Uint(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_precision_survives() {
        let big = u64::MAX;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v, Json::Uint(big));
        assert_eq!(u64::from_json(&v).unwrap(), big);
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let v = Json::parse("-0").unwrap();
        let f = f64::from_json(&v).unwrap();
        assert_eq!(f.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn float_text_roundtrip_is_bit_exact() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -2.5e-17, 3.0] {
            let text = f.to_json().to_string();
            let back = f64::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
        }
    }

    #[test]
    fn derived_members_unraw_names_and_omit_absent_options() {
        #[derive(Debug, PartialEq, crate::ToJson, crate::FromJson)]
        struct Tagged {
            r#ref: String,
            note: Option<u32>,
            list: Vec<Option<u32>>,
        }
        let none = Tagged {
            r#ref: "program:ab".to_owned(),
            note: None,
            list: vec![None, Some(1)],
        };
        let text = none.to_json_string();
        // Only a member is left out; a `None` inside an array stays null.
        assert_eq!(text, r#"{"ref":"program:ab","list":[null,1]}"#);
        assert_eq!(Tagged::from_json_str(&text).unwrap(), none);
        let some = Tagged {
            note: Some(7),
            ..none
        };
        let text = some.to_json_string();
        assert_eq!(text, r#"{"ref":"program:ab","note":7,"list":[null,1]}"#);
        assert_eq!(Tagged::from_json_str(&text).unwrap(), some);
    }

    #[test]
    fn whole_floats_stay_floats() {
        assert_eq!(3.0f64.to_json().to_string(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
    }

    #[test]
    fn nan_encodes_as_null() {
        assert_eq!(f64::NAN.to_json().to_string(), "null");
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}é漢";
        let text = s.to_string().to_json().to_string();
        let back = String::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":-3.5}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "1 2",
            "{\"a\" 1}",
            "{1:2}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn option_handles_null_and_absence() {
        let v = Json::parse(r#"{"x":null}"#).unwrap();
        assert_eq!(obj_field::<Option<u64>>(&v, "x").unwrap(), None);
        assert_eq!(obj_field::<Option<u64>>(&v, "y").unwrap(), None);
        assert!(obj_field::<u64>(&v, "y").is_err());
    }

    #[test]
    fn arrays_tuples_and_fixed_arrays_decode() {
        let v = Json::parse("[1.5,2.5,3.5]").unwrap();
        assert_eq!(Vec::<f64>::from_json(&v).unwrap(), vec![1.5, 2.5, 3.5]);
        assert_eq!(<[f64; 3]>::from_json(&v).unwrap(), [1.5, 2.5, 3.5]);
        assert_eq!(<(f64, f64, f64)>::from_json(&v).unwrap(), (1.5, 2.5, 3.5));
        assert!(<[f64; 4]>::from_json(&v).is_err());
    }

    #[test]
    fn integer_overflow_is_detected() {
        let v = Json::parse("300").unwrap();
        assert!(u8::from_json(&v).is_err());
        assert_eq!(u16::from_json(&v).unwrap(), 300);
        let v = Json::parse("-1").unwrap();
        assert!(u64::from_json(&v).is_err());
        assert_eq!(i64::from_json(&v).unwrap(), -1);
    }

    #[test]
    fn pretty_printing_parses_back() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":true},"d":[]}"#).unwrap();
        let pretty = v.to_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("at byte"), "{err}");
    }
}
