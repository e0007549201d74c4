//! Derive-free JSON: a writer-based serializer and a recursive-descent
//! parser behind two small traits.
//!
//! The output shape matches what the workspace's former `serde` derives
//! produced, so recorded fixtures and figure emitters keep their format:
//!
//! * structs → objects with fields in declaration order;
//! * newtype ids (`VCoreId(u32)`) → the bare inner value;
//! * unit enum variants → `"VariantName"`;
//! * newtype enum variants → `{"VariantName": payload}` (externally tagged);
//! * `Option` → `null` / the bare payload; tuples → fixed-length arrays.
//!
//! Implementations for concrete types are written by hand or through the
//! `macro_rules!` helpers [`json_struct!`](crate::json_struct),
//! [`json_enum!`](crate::json_enum) and
//! [`json_newtype!`](crate::json_newtype) — declarative expansion only, no
//! proc-macro reflection, and the expansion is readable in this file's
//! terms.

use std::collections::VecDeque;
use std::fmt;

/// A parsed or buildable JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved (serde_json's default maps
    /// preserve nothing we rely on — field order here matches declaration
    /// order so output is reproducible byte for byte).
    Object(Vec<(String, Value)>),
}

/// A JSON number, kept in its widest exact representation so 64-bit seeds
/// survive round trips that `f64` would corrupt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Anything with a fraction or exponent.
    F(f64),
}

impl Num {
    /// The value as `f64` (lossy for large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::U(u) => u as f64,
            Num::I(i) => i as f64,
            Num::F(f) => f,
        }
    }

    /// The value as `u64`, if exactly representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Num::U(u) => Some(u),
            Num::I(i) => u64::try_from(i).ok(),
            Num::F(f) => {
                if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
                    Some(f as u64)
                } else {
                    None
                }
            }
        }
    }

    /// The value as `i64`, if exactly representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Num::U(u) => i64::try_from(u).ok(),
            Num::I(i) => Some(i),
            Num::F(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }
}

/// A serialization or parse error with byte position (parse only).
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset in the input for parse errors; 0 for shape errors.
    pub pos: usize,
}

impl JsonError {
    /// A shape/decoding error (no input position).
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            pos: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Render compactly (no whitespace), serde_json style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Object field lookup, as a decode error when absent or not an object.
    pub fn field(&self, name: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::shape(format!("missing field `{name}`"))),
            other => Err(JsonError::shape(format!(
                "expected object with field `{name}`, found {}",
                kind_name(other)
            ))),
        }
    }

    /// The array items, or a decode error.
    pub fn items(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(JsonError::shape(format!(
                "expected array, found {}",
                kind_name(other)
            ))),
        }
    }
}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Num(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn write_num(n: Num, out: &mut String) {
    use fmt::Write as _;
    match n {
        Num::U(u) => {
            let _ = write!(out, "{u}");
        }
        Num::I(i) => {
            let _ = write!(out, "{i}");
        }
        Num::F(f) => {
            if !f.is_finite() {
                // serde_json writes null for non-finite floats.
                out.push_str("null");
                return;
            }
            let start = out.len();
            let _ = write!(out, "{f}");
            // Rust's shortest-round-trip formatting prints integral floats
            // without a fractional part; serde_json prints `1.0`. Keep the
            // fixture-visible shape.
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a limit a hostile document of a few thousand `[`
/// overflows the thread's stack and aborts the process. Every document
/// this workspace writes nests at most 6 levels deep.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing whitespace is allowed; trailing content
/// is an error, and so is nesting deeper than 128 arrays/objects.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            pos: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal, expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    /// Parse one array or object a level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Re-consume as UTF-8: step back and take the full char.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().expect("non-empty checked above");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            self.pos += 1;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        let num = if is_float {
            Num::F(text.parse::<f64>().map_err(|e| self.err(e.to_string()))?)
        } else if text.starts_with('-') {
            // Parsed with its sign, so `i64::MIN` (whose magnitude is no
            // `i64`) stays an integer.
            match text.parse::<i64>() {
                Ok(i) => Num::I(i),
                Err(_) => Num::F(text.parse::<f64>().map_err(|e| self.err(e.to_string()))?),
            }
        } else {
            match text.parse::<u64>() {
                Ok(u) => Num::U(u),
                Err(_) => Num::F(text.parse::<f64>().map_err(|e| self.err(e.to_string()))?),
            }
        };
        Ok(Value::Num(num))
    }
}

/// Serialize to a [`Value`] (and through it, to text).
pub trait ToJson {
    /// The value tree for this object.
    fn to_json_value(&self) -> Value;

    /// Compact rendering, equivalent to `serde_json::to_string`.
    fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// Deserialize from a [`Value`] (and through it, from text).
pub trait FromJson: Sized {
    /// Decode from a parsed value tree.
    fn from_json_value(v: &Value) -> Result<Self, JsonError>;

    /// Parse and decode, equivalent to `serde_json::from_str`.
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&parse(s)?)
    }
}

/// Compact serialization — drop-in for `serde_json::to_string(&v).unwrap()`.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json()
}

/// Parse and decode — drop-in for `serde_json::from_str`.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(s)
}

// ---- primitive impls --------------------------------------------------

impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::shape(format!(
                "expected bool, found {}",
                kind_name(other)
            ))),
        }
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                Value::Num(Num::U(*self as u64))
            }
        }
        impl FromJson for $t {
            fn from_json_value(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::Num(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .ok_or_else(|| JsonError::shape(concat!(
                            "number out of range for ", stringify!($t)
                        ))),
                    other => Err(JsonError::shape(format!(
                        "expected number, found {}", kind_name(other)
                    ))),
                }
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                let i = *self as i64;
                if i < 0 {
                    Value::Num(Num::I(i))
                } else {
                    Value::Num(Num::U(i as u64))
                }
            }
        }
        impl FromJson for $t {
            fn from_json_value(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::Num(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| JsonError::shape(concat!(
                            "number out of range for ", stringify!($t)
                        ))),
                    other => Err(JsonError::shape(format!(
                        "expected number, found {}", kind_name(other)
                    ))),
                }
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json_value(&self) -> Value {
        Value::Num(Num::F(*self))
    }
}

impl FromJson for f64 {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Num(n) => Ok(n.as_f64()),
            other => Err(JsonError::shape(format!(
                "expected number, found {}",
                kind_name(other)
            ))),
        }
    }
}

impl ToJson for f32 {
    fn to_json_value(&self) -> Value {
        Value::Num(Num::F(*self as f64))
    }
}

impl FromJson for f32 {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        f64::from_json_value(v).map(|f| f as f32)
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(JsonError::shape(format!(
                "expected string, found {}",
                kind_name(other)
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_json_value(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json_value(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        v.items()?.iter().map(T::from_json_value).collect()
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        v.items()?.iter().map(T::from_json_value).collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Array(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let items = v.items()?;
        if items.len() != 2 {
            return Err(JsonError::shape(format!(
                "expected 2-element array, found {} elements",
                items.len()
            )));
        }
        Ok((
            A::from_json_value(&items[0])?,
            B::from_json_value(&items[1])?,
        ))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl ToJson for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

// ---- impl-writing macros ----------------------------------------------

/// Implement [`ToJson`]/[`FromJson`] for a plain struct, serializing the
/// listed fields in order as a JSON object — the same shape
/// `#[derive(Serialize, Deserialize)]` produced.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json_value(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json_value(&self.$field),
                    ),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json_value(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json_value(
                        v.field(stringify!($field))?,
                    )?,)+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a tuple newtype (`VCoreId(u32)`),
/// serializing as the bare inner value — serde's newtype behaviour.
#[macro_export]
macro_rules! json_newtype {
    ($($ty:ty),+ $(,)?) => {$(
        impl $crate::json::ToJson for $ty {
            fn to_json_value(&self) -> $crate::json::Value {
                $crate::json::ToJson::to_json_value(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json_value(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self($crate::json::FromJson::from_json_value(v)?))
            }
        }
    )+};
}

/// Implement [`ToJson`]/[`FromJson`] for an enum of unit and/or newtype
/// variants, externally tagged like serde: unit variants as
/// `"VariantName"`, newtype variants as `{"VariantName": payload}`.
///
/// ```ignore
/// json_enum!(Placement { Interleaved, AppContiguous } { Random(u64) });
/// json_enum!(AppClass { Memory, Compute, Communication } {});
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($unit:ident),* $(,)? } { $($nt:ident($ntty:ty)),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json_value(&self) -> $crate::json::Value {
                match self {
                    $(Self::$unit =>
                        $crate::json::Value::Str(stringify!($unit).to_string()),)*
                    $(Self::$nt(payload) => $crate::json::Value::Object(vec![(
                        stringify!($nt).to_string(),
                        $crate::json::ToJson::to_json_value(payload),
                    )]),)*
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json_value(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                match v {
                    #[allow(unused_variables)]
                    $crate::json::Value::Str(s) => match s.as_str() {
                        $(stringify!($unit) => Ok(Self::$unit),)*
                        other => Err($crate::json::JsonError::shape(format!(
                            "unknown {} variant `{}`",
                            stringify!($ty),
                            other
                        ))),
                    },
                    #[allow(unused_variables)]
                    $crate::json::Value::Object(fields) if fields.len() == 1 => {
                        let (tag, payload) = &fields[0];
                        match tag.as_str() {
                            $(stringify!($nt) => Ok(Self::$nt(
                                <$ntty as $crate::json::FromJson>::from_json_value(
                                    payload,
                                )?,
                            )),)*
                            other => Err($crate::json::JsonError::shape(format!(
                                "unknown {} variant `{}`",
                                stringify!($ty),
                                other
                            ))),
                        }
                    }
                    _ => Err($crate::json::JsonError::shape(format!(
                        "invalid shape for enum {}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&-7i64), "-7");
        assert_eq!(to_string(&1.5f64), "1.5");
        assert_eq!(to_string(&"hi".to_string()), "\"hi\"");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(from_str::<u32>("12").unwrap(), 12);
        assert_eq!(from_str::<f64>("2.25").unwrap(), 2.25);
        assert_eq!(from_str::<String>("\"x\"").unwrap(), "x");
    }

    #[test]
    fn integral_floats_keep_their_point() {
        // serde_json's shape: floats always show a fraction or exponent.
        assert_eq!(to_string(&1.0f64), "1.0");
        assert_eq!(to_string(&0.0f64), "0.0");
        assert_eq!(to_string(&-3.0f64), "-3.0");
        assert_eq!(to_string(&4e20f64), "400000000000000000000.0");
        assert_eq!(from_str::<f64>("4e20").unwrap(), 4e20);
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
    }

    #[test]
    fn large_u64_survives_round_trip() {
        let big = u64::MAX - 1;
        assert_eq!(from_str::<u64>(&to_string(&big)).unwrap(), big);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![vec![1.0, 2.0], vec![3.5]];
        let s = to_string(&v);
        assert_eq!(s, "[[1.0,2.0],[3.5]]");
        assert_eq!(from_str::<Vec<Vec<f64>>>(&s).unwrap(), v);

        let opt_none: Option<u32> = None;
        assert_eq!(to_string(&opt_none), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("3").unwrap(), Some(3));

        let pairs: Vec<(f64, f64)> = vec![(0.5, 1.0), (1.5, 2.0)];
        let s = to_string(&pairs);
        assert_eq!(s, "[[0.5,1.0],[1.5,2.0]]");
        assert_eq!(from_str::<Vec<(f64, f64)>>(&s).unwrap(), pairs);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}√";
        let rendered = to_string(&s.to_string());
        assert_eq!(from_str::<String>(&rendered).unwrap(), s);
        // \u escapes incl. surrogate pairs parse.
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("[{ok}]");
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        assert_eq!(e.pos, MAX_DEPTH);
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.field("a").unwrap().items().unwrap().len(), 2);
        assert_eq!(*v.field("b").unwrap(), Value::Null);
    }

    #[test]
    fn shape_errors_are_descriptive() {
        let e = from_str::<u32>("\"nope\"").unwrap_err();
        assert!(e.msg.contains("expected number"), "{e}");
        let v = parse("{\"a\":1}").unwrap();
        assert!(v.field("missing").is_err());
    }

    // Macro smoke tests on local types.
    #[derive(Debug, PartialEq)]
    struct P {
        x: u32,
        y: f64,
        name: String,
    }
    json_struct!(P { x, y, name });

    #[derive(Debug, PartialEq)]
    struct Id(pub u32);
    json_newtype!(Id);

    #[derive(Debug, PartialEq)]
    enum E {
        A,
        B,
        W(u64),
    }
    json_enum!(E { A, B } { W(u64) });

    #[test]
    fn macro_impls_match_serde_shapes() {
        let p = P {
            x: 3,
            y: 1.0,
            name: "n".into(),
        };
        let s = to_string(&p);
        assert_eq!(s, "{\"x\":3,\"y\":1.0,\"name\":\"n\"}");
        assert_eq!(from_str::<P>(&s).unwrap(), p);

        assert_eq!(to_string(&Id(9)), "9");
        assert_eq!(from_str::<Id>("9").unwrap(), Id(9));

        assert_eq!(to_string(&E::A), "\"A\"");
        assert_eq!(to_string(&E::W(5)), "{\"W\":5}");
        for e in [E::A, E::B, E::W(123)] {
            assert_eq!(from_str::<E>(&to_string(&e)).unwrap(), e);
        }
        assert!(from_str::<E>("\"C\"").is_err());
        assert!(from_str::<E>("{\"Z\":1}").is_err());
    }
}
