//! Derive-free JSON: a writer-based serializer behind one small trait,
//! and a recursive-descent parser into a [`Value`] tree.
//!
//! The output shape matches what the workspace's former `serde` derives
//! produced, so recorded fixtures and figure emitters keep their format:
//!
//! * structs → objects with fields in declaration order;
//! * `Vec<T>` → arrays; pairs → two-element arrays;
//! * floats always show a fraction or exponent (`1.0`), and a non-finite
//!   float writes `null`.
//!
//! The result types that binaries, goldens and the benchmark write
//! implement [`ToJson`] through [`json_struct!`](crate::json_struct) —
//! declarative expansion only, no proc-macro reflection, and the
//! expansion is readable in this file's terms.
//!
//! Every document this workspace keeps is written and compared as text,
//! so there is no typed decoding: [`parse`] yields a [`Value`], and a
//! reader walks it with [`Value::field`], [`Value::items`] and
//! [`Num::as_f64`]/[`Num::as_u64`].

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

    /// Consume a run of ASCII digits and return how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number in RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: no leading zero,
    /// and no empty integer, fraction or exponent part.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.err("invalid number: no integer digits")),
            n if n > 1 && self.bytes[int_start] == b'0' => {
                return Err(self.err("invalid number: leading zero"))
            }
            _ => {}
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number: no fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number: no exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ASCII");
        let num = if is_float {
            Num::F(self.finite(text)?)
        } else if text.starts_with('-') {
            // Parsed with its sign, so `i64::MIN` (whose magnitude is no
            // `i64`) stays an integer. `-0` is no negative integer: it
            // parses as the float `-0.0`, as serde_json reads it.
            match text.parse::<i64>() {
                Ok(i) if i < 0 => Num::I(i),
                _ => Num::F(self.finite(text)?),
            }
        } else {
            match text.parse::<u64>() {
                Ok(u) => Num::U(u),
                Err(_) => Num::F(self.finite(text)?),
            }
        };
        Ok(Value::Num(num))
    }

    /// `text` as a finite `f64`. A number past `f64::MAX` in magnitude is
    /// an error, not an infinity: the writer renders non-finite floats as
    /// `null`, so no document this crate writes holds one, and an
    /// infinity read from a config would be an infinite rate.
    fn finite(&self, text: &str) -> Result<f64, JsonError> {
        let f = text.parse::<f64>().map_err(|e| self.err(e.to_string()))?;
        if f.is_finite() {
            Ok(f)
        } else {
            Err(self.err("number overflows f64"))
        }
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

/// Compact serialization — drop-in for `serde_json::to_string(&v).unwrap()`.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json()
}

// ---- primitive impls --------------------------------------------------

impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                Value::Num(Num::U(*self as u64))
            }
        }
    )*};
}

impl_json_uint!(u32, u64);

impl ToJson for f64 {
    fn to_json_value(&self) -> Value {
        Value::Num(Num::F(*self))
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Array(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

// ---- impl-writing macros ----------------------------------------------

/// Implement [`ToJson`] for a plain struct, serializing the listed fields
/// in order as a JSON object — the same shape `#[derive(Serialize)]`
/// produced.
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
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_write_and_parse() {
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&1.5f64), "1.5");
        assert_eq!(to_string(&"hi".to_string()), "\"hi\"");
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("12").unwrap(), Value::Num(Num::U(12)));
        assert_eq!(parse("2.25").unwrap(), Value::Num(Num::F(2.25)));
        assert_eq!(parse("\"x\"").unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn integral_floats_keep_their_point() {
        // serde_json's shape: floats always show a fraction or exponent.
        assert_eq!(to_string(&1.0f64), "1.0");
        assert_eq!(to_string(&0.0f64), "0.0");
        assert_eq!(to_string(&-3.0f64), "-3.0");
        assert_eq!(to_string(&4e20f64), "400000000000000000000.0");
        assert_eq!(parse("4e20").unwrap(), Value::Num(Num::F(4e20)));
        assert_eq!(parse("1.0").unwrap(), Value::Num(Num::F(1.0)));
    }

    #[test]
    fn large_u64_survives_round_trip() {
        let big = u64::MAX - 1;
        let back = parse(&to_string(&big)).unwrap();
        assert_eq!(back, Value::Num(Num::U(big)));
        let Value::Num(n) = back else { unreachable!() };
        assert_eq!(n.as_u64(), Some(big));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![vec![1.0, 2.0], vec![3.5]];
        let s = to_string(&v);
        assert_eq!(s, "[[1.0,2.0],[3.5]]");
        assert_eq!(parse(&s).unwrap(), v.to_json_value());

        let pairs: Vec<(f64, f64)> = vec![(0.5, 1.0), (1.5, 2.0)];
        let s = to_string(&pairs);
        assert_eq!(s, "[[0.5,1.0],[1.5,2.0]]");
        assert_eq!(parse(&s).unwrap(), pairs.to_json_value());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}√";
        let rendered = to_string(&s.to_string());
        assert_eq!(parse(&rendered).unwrap(), Value::Str(s.into()));
        // \u escapes incl. surrogate pairs parse.
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
    }

    #[test]
    fn numbers_past_f64_are_errors_not_infinities() {
        for text in [
            "1e999",
            "-1e400",
            &"9".repeat(400),
            &format!("-{}", "1".repeat(400)),
        ] {
            let e = parse(text).unwrap_err();
            assert!(e.msg.contains("overflows"), "{text}: {e}");
            assert!(parse(&format!("[0,{text}]")).is_err(), "{text}");
        }
        // Underflow is not overflow: it rounds to zero.
        assert_eq!(parse("1e-999").unwrap(), Value::Num(Num::F(0.0)));
        // The largest finite magnitudes still parse, as floats.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Value::Num(Num::F(f64::MAX))
        );
        assert_eq!(parse(&"9".repeat(300)).unwrap(), Value::Num(Num::F(1e300)));
    }

    #[test]
    fn numbers_outside_the_json_grammar_are_errors() {
        // Leading zeros, and an empty integer or fraction part.
        for text in ["01", "-01", "00", "-00", "1.", "-.5", "1.e5"] {
            let e = parse(text).unwrap_err();
            assert!(e.msg.starts_with("invalid number"), "{text}: {e}");
            assert!(parse(&format!("[{text}]")).is_err(), "{text}");
        }
        for text in ["1e", "1e+", "-", "-e1", "0.e1"] {
            assert!(parse(text).is_err(), "{text}");
        }
        // Their valid neighbours still parse.
        assert_eq!(parse("0").unwrap(), Value::Num(Num::U(0)));
        assert_eq!(parse("10").unwrap(), Value::Num(Num::U(10)));
        assert_eq!(parse("0.5").unwrap(), Value::Num(Num::F(0.5)));
        assert_eq!(parse("-0.5").unwrap(), Value::Num(Num::F(-0.5)));
        assert_eq!(parse("1.0e5").unwrap(), Value::Num(Num::F(100_000.0)));
        assert_eq!(parse("1E+2").unwrap(), Value::Num(Num::F(100.0)));
        assert_eq!(parse("0e0").unwrap(), Value::Num(Num::F(0.0)));
    }

    #[test]
    fn minus_zero_is_a_float_and_round_trips() {
        for text in ["-0", "-0.0", "-0e3"] {
            let v = parse(text).unwrap();
            let Value::Num(Num::F(f)) = v else {
                panic!("{text} parsed as {v:?}");
            };
            assert!(f == 0.0 && f.is_sign_negative(), "{text}");
            assert_eq!(v.render(), "-0.0");
            assert_eq!(parse(&v.render()).unwrap(), v);
        }
        assert_eq!(Num::F(-0.0).as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap(), Value::Num(Num::I(-1)));
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
        let e = parse("\"nope\"").unwrap().items().unwrap_err();
        assert!(e.msg.contains("expected array, found string"), "{e}");
        let v = parse("{\"a\":1}").unwrap();
        let e = v.field("missing").unwrap_err();
        assert!(e.msg.contains("missing field `missing`"), "{e}");
        let e = parse("[1]").unwrap().field("a").unwrap_err();
        assert!(e.msg.contains("found array"), "{e}");
    }

    // Macro smoke test on a local type.
    struct P {
        x: u32,
        y: f64,
        name: String,
    }
    json_struct!(P { x, y, name });

    #[test]
    fn json_struct_matches_the_serde_shape() {
        let p = P {
            x: 3,
            y: 1.0,
            name: "n".into(),
        };
        let s = to_string(&p);
        assert_eq!(s, "{\"x\":3,\"y\":1.0,\"name\":\"n\"}");
        assert_eq!(parse(&s).unwrap(), p.to_json_value());
    }
}
