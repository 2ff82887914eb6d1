//! The workspace's one JSON codec: a [`JsonValue`] tree with a bounded
//! recursive-descent parser, and the [`ToJson`] / [`FromJson`] trait pair
//! every wire and checkpoint type implements by hand. Dependency-free on
//! purpose — this crate must be importable from every layer of the
//! workspace.
//!
//! ## Format rule
//!
//! A struct is an object with its field names in declaration order; an
//! `Option` field may be absent (or `null`) on read; unknown fields are
//! ignored; duplicate keys are an error. An enum is externally tagged —
//! a field-less variant is its name as a string, a variant with a payload
//! is `{"Name":payload}` — unless its impl says otherwise (the wire enums
//! tagged by `status` / `op` / `type`). Maps are written in sorted key
//! order, so equal values render to equal bytes.
//!
//! ## What the codec guarantees
//!
//! It faces the network and the checkpoint store, so: nesting is capped
//! at [`MAX_DEPTH`] ([`JsonError::TooDeep`], never a stack overflow);
//! numbers stay as their source token, so integers are exact over the
//! whole `u64` / `i64` range and `f32` / `f64` are each parsed from the
//! text at their own width and round-trip bit-exactly; a NaN or infinity
//! is an encode error ([`JsonError::NonFinite`]), never a silent `0`.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Deepest array/object nesting the parser accepts. Every persisted or
/// wire type nests far shallower; a frame of `[[[[…` fails with
/// [`JsonError::TooDeep`] instead of exhausting a reader thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Why a document failed to decode or a value failed to encode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON; the message carries the byte offset.
    Syntax(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A NaN or infinite float was handed to the encoder.
    NonFinite,
    /// Well-formed JSON of the wrong shape for the requested type.
    Shape(String),
}

impl JsonError {
    /// "expected `what`, found <kind of `v`>".
    pub fn expected(what: &str, v: &JsonValue) -> JsonError {
        JsonError::Shape(format!("expected {what}, found {}", v.kind()))
    }

    /// An enum tag no variant answers to.
    pub fn unknown_variant(name: &str) -> JsonError {
        JsonError::Shape(format!("unknown variant `{name}`"))
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(msg) | JsonError::Shape(msg) => f.write_str(msg),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
            JsonError::NonFinite => f.write_str("non-finite float cannot be encoded as JSON"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for std::io::Error {
    fn from(e: JsonError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
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

/// Formats an f64 for the telemetry renderers (snapshot means, log
/// fields), which cannot fail: NaN/Inf become 0. Typed values go through
/// [`ToJson`], where a non-finite float is an error.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// A JSON number, kept as its (grammar-checked) source token so each
/// reader converts at its own width. Equality is token equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Number(Box<str>);

/// Parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (its source token).
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<JsonValue>),
    /// JSON object, keys sorted.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        parse(input).map_err(|e| e.to_string())
    }

    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Number(_) => "a number",
            JsonValue::String(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
        }
    }

    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            JsonValue::Number(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The numeric value as the nearest finite `f64`; `None` when the
    /// token overflows the type.
    pub fn as_f64(&self) -> Option<f64> {
        self.number().filter(|n: &f64| n.is_finite())
    }

    /// The numeric value as the nearest finite `f32`, converted from the
    /// token text (never narrowed from an `f64`).
    pub fn as_f32(&self) -> Option<f32> {
        self.number().filter(|n: &f32| n.is_finite())
    }

    /// The value of an integer token in `u64` range, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// The value of an integer token in `i64` range, exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object's fields, for a [`FromJson`] impl to pull from.
    pub fn fields(&self) -> Result<Fields<'_>, JsonError> {
        self.as_object().map(Fields).ok_or_else(|| JsonError::expected("an object", self))
    }

    /// Splits an externally tagged enum value into `(variant, payload)`:
    /// a string is a field-less variant (payload `null`), a one-key
    /// object is a variant with a payload.
    pub fn variant(&self) -> Result<(&str, &JsonValue), JsonError> {
        match self {
            JsonValue::String(name) => Ok((name, &JsonValue::Null)),
            JsonValue::Object(m) if m.len() == 1 => {
                let (name, payload) = m.iter().next().expect("one entry");
                Ok((name, payload))
            }
            other => Err(JsonError::expected("a variant name or one-key object", other)),
        }
    }

    /// Serializes back to compact JSON text (object keys stay sorted,
    /// matching the parse representation; numbers keep their token).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&n.0),
            JsonValue::String(s) => push_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(out, k);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses a complete JSON document into a [`JsonValue`] tree.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.syntax("trailing data"));
    }
    Ok(v)
}

/// Renders `value` as compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut w = JsonWriter::default();
    value.write_json(&mut w);
    w.finish()
}

/// Renders the one object whose fields `fields` writes.
pub fn object(
    fields: impl for<'a> FnOnce(ObjectWriter<'a>) -> ObjectWriter<'a>,
) -> Result<String, JsonError> {
    let mut w = JsonWriter::default();
    fields(w.object()).end();
    w.finish()
}

/// Parses `text` and decodes it as a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::read_json(&parse(text)?)
}

/// A type that renders itself as JSON.
pub trait ToJson {
    /// Appends this value's JSON to `w`.
    fn write_json(&self, w: &mut JsonWriter);
}

/// A type that decodes itself from a parsed [`JsonValue`].
pub trait FromJson: Sized {
    /// Decodes `v`, or says why its shape is wrong.
    fn read_json(v: &JsonValue) -> Result<Self, JsonError>;
}

/// Output buffer of a [`ToJson`] pass. Encoding cannot fail structurally,
/// only on a value JSON has no spelling for (a non-finite float); that
/// failure is latched here and surfaces from [`JsonWriter::finish`], so
/// impls chain writes without threading a `Result`.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    err: Option<JsonError>,
}

impl JsonWriter {
    /// The rendered text, or the first encode error.
    pub fn finish(self) -> Result<String, JsonError> {
        match self.err {
            None => Ok(self.out),
            Some(e) => Err(e),
        }
    }

    /// Appends a string literal.
    pub fn string(&mut self, s: &str) {
        push_json_string(&mut self.out, s);
    }

    /// Splices in text that is already JSON (a cached or separately
    /// rendered document).
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    /// Appends a field-less enum variant as its name — the derived
    /// `Debug` of such a variant is exactly its identifier.
    pub fn unit_variant(&mut self, variant: &impl std::fmt::Debug) {
        let _ = write!(self.out, "\"{variant:?}\"");
    }

    /// Opens an object; finish it with [`ObjectWriter::end`].
    pub fn object(&mut self) -> ObjectWriter<'_> {
        self.out.push('{');
        ObjectWriter { w: self, first: true }
    }

    /// Appends an array of `items`.
    pub fn array<'a, T: ToJson + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item.write_json(self);
        }
        self.out.push(']');
    }

    /// Shortest text that parses back to the same bits (`{:?}` keeps a
    /// `.0` or an exponent, so the token stays a float).
    fn float(&mut self, finite: bool, v: impl std::fmt::Debug) {
        if finite {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
            self.err.get_or_insert(JsonError::NonFinite);
        }
    }
}

/// Writes one object's fields, in call order.
pub struct ObjectWriter<'a> {
    w: &'a mut JsonWriter,
    first: bool,
}

impl ObjectWriter<'_> {
    /// Appends `"key":value`.
    pub fn field<T: ToJson + ?Sized>(self, key: &str, value: &T) -> Self {
        self.field_with(key, |w| value.write_json(w))
    }

    /// Appends `"key":` and whatever `write` renders — the nested object
    /// of an enum variant with named fields.
    pub fn field_with(mut self, key: &str, write: impl FnOnce(&mut JsonWriter)) -> Self {
        if !std::mem::take(&mut self.first) {
            self.w.out.push(',');
        }
        push_json_string(&mut self.w.out, key);
        self.w.out.push(':');
        write(self.w);
        self
    }

    /// Appends the field only when it is `Some` (an optional field that
    /// is omitted, not written as `null`).
    pub fn optional<T: ToJson>(self, key: &str, value: &Option<T>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Closes the object.
    pub fn end(self) {
        self.w.out.push('}');
    }
}

/// Reads one object's fields by name (see [`JsonValue::fields`]).
#[derive(Clone, Copy)]
pub struct Fields<'a>(&'a BTreeMap<String, JsonValue>);

impl<'a> Fields<'a> {
    /// The raw member, if present.
    pub fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.0.get(key)
    }

    /// Decodes field `key`. An absent key reads as `null`, so an `Option`
    /// field may be omitted and anything else reports a missing field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.0.get(key) {
            Some(v) => T::read_json(v).map_err(|e| match e {
                JsonError::Shape(msg) => JsonError::Shape(format!("{key}: {msg}")),
                other => other,
            }),
            None => T::read_json(&JsonValue::Null)
                .map_err(|_| JsonError::Shape(format!("missing field `{key}`"))),
        }
    }
}

/// Decodes a field-less enum variant written by
/// [`JsonWriter::unit_variant`]: the member of `all` whose name is `v`.
pub fn read_unit_variant<T: Copy + std::fmt::Debug>(
    v: &JsonValue,
    all: &[T],
) -> Result<T, JsonError> {
    /// What is left of the name while a variant's `Debug` text is matched
    /// against it piece by piece (no allocation per candidate).
    struct Rest<'a>(&'a str);
    impl std::fmt::Write for Rest<'_> {
        fn write_str(&mut self, piece: &str) -> std::fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(std::fmt::Error)?;
            Ok(())
        }
    }
    let name = v.as_str().ok_or_else(|| JsonError::expected("a variant name", v))?;
    let is_named = |variant: &T| {
        let mut rest = Rest(name);
        write!(rest, "{variant:?}").is_ok() && rest.0.is_empty()
    };
    all.iter().copied().find(is_named).ok_or_else(|| JsonError::unknown_variant(name))
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("a boolean", v))
    }
}

macro_rules! integer_codec {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                let _ = write!(w.out, "{self}");
            }
        }

        impl FromJson for $t {
            fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
                v.number().ok_or_else(|| JsonError::expected(concat!("a ", stringify!($t)), v))
            }
        }
    )*};
}

integer_codec!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.float(self.is_finite(), self);
    }
}

impl FromJson for f64 {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("an f64", v))
    }
}

impl ToJson for f32 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.float(self.is_finite(), self);
    }
}

impl FromJson for f32 {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_f32().ok_or_else(|| JsonError::expected("an f32", v))
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl FromJson for String {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::expected("a string", v))
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        T::read_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::read_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let items = v.as_array().ok_or_else(|| JsonError::expected("an array", v))?;
        items.iter().map(T::read_json).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.out.push('[');
        self.0.write_json(w);
        w.out.push(',');
        self.1.write_json(w);
        w.out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::read_json(a)?, B::read_json(b)?)),
            _ => Err(JsonError::expected("a two-element array", v)),
        }
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    fn write_json(&self, w: &mut JsonWriter) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut o = w.object();
        for (k, v) in entries {
            o = o.field(k, v);
        }
        o.end();
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let fields = v.fields()?;
        fields.0.keys().map(|k| Ok((k.clone(), fields.field(k)?))).collect()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn syntax(&self, msg: impl std::fmt::Display) -> JsonError {
        JsonError::Syntax(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(self.syntax(format_args!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.syntax(format_args!("unexpected {:?}", other.map(|b| b as char)))),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.syntax("invalid literal"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let mut ok = match self.digits() {
            0 => false,
            n => n == 1 || !leading_zero,
        };
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            self.pos = start;
            return Err(self.syntax("bad number"));
        }
        // The scanned range is ASCII by construction.
        let token = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        Ok(JsonValue::Number(Number(token.into())))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.syntax("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The scalar after `\u`: one escape, or a high+low surrogate pair.
    /// A surrogate without its partner is an error, not U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.syntax("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.syntax("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.syntax("unpaired surrogate"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => {
                            self.pos -= 1;
                            return Err(self.syntax("bad escape"));
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash; the
                    // input is a &str and both delimiters are ASCII, so
                    // the run starts and ends on char boundaries.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&String::from_utf8_lossy(&self.bytes[self.pos..self.pos + run]));
                    self.pos += run;
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            if map.insert(key, v).is_some() {
                self.pos = key_at;
                return Err(self.syntax("duplicate key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.syntax("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.syntax("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}");
        let v = JsonValue::parse(&out).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn parses_nested_document() {
        let v = JsonValue::parse(
            r#"{"a": 1, "b": [true, null, -2.5e1], "c": {"d": "x y", "e": 0}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x y"));
        match v.get("b").unwrap() {
            JsonValue::Array(items) => {
                assert_eq!(items[0], JsonValue::Bool(true));
                assert_eq!(items[2].as_f64(), Some(-25.0));
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "12 34", "", "01", "1.", "-", "1e", "+1", ".5"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn to_json_round_trips() {
        let src = r#"{"a":1,"b":[true,null,-25,"x\ny"],"c":{"d":0.5}}"#;
        let v = JsonValue::parse(src).unwrap();
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
        assert_eq!(v.to_json(), src);
    }

    #[test]
    fn unicode_passthrough() {
        let v = JsonValue::parse("{\"k\": \"héllo → 世界\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo → 世界"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        assert_eq!(from_str::<String>(r#""😀 é""#).unwrap(), "😀 é");
        for bad in [r#""\ud83d""#, r#""\ud83d x""#, r#""\ude00""#, r#""\ud83dA""#] {
            assert!(matches!(parse(bad), Err(JsonError::Syntax(_))), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&over), Err(JsonError::TooDeep));
        // A whole wire frame (1 MiB) of open brackets, on a small stack:
        // the old unbounded descent would overflow it.
        let hostile = "[".repeat(1 << 20);
        let verdict = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&hostile))
            .unwrap()
            .join()
            .expect("parser must not overflow the stack");
        assert_eq!(verdict, Err(JsonError::TooDeep));
        let objects = "{\"a\":".repeat(1 << 16);
        assert_eq!(parse(&objects), Err(JsonError::TooDeep));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        // One rule: a repeated key is a syntax error at any depth — never
        // first-wins or last-wins, so two readers cannot disagree.
        for bad in [r#"{"op":"stats","op":"reload"}"#, r#"[{"a":{"k":1,"k":1}}]"#] {
            let err = parse(bad).unwrap_err();
            assert!(matches!(&err, JsonError::Syntax(m) if m.contains("duplicate key")), "{err}");
        }
        assert!(parse(r#"{"a":{"k":1},"b":{"k":2}}"#).is_ok());
    }

    #[test]
    fn integers_are_exact_over_the_full_64_bit_range() {
        for v in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 0] {
            let text = to_string(&v).unwrap();
            assert_eq!(from_str::<u64>(&text).unwrap(), v);
            assert_eq!(parse(&text).unwrap().as_u64(), Some(v));
        }
        for v in [i64::MIN, i64::MIN + 1, -(1 << 53) - 1, i64::MAX] {
            let text = to_string(&v).unwrap();
            assert_eq!(from_str::<i64>(&text).unwrap(), v);
            assert_eq!(parse(&text).unwrap().as_i64(), Some(v));
        }
        // Out of range, fractional or negative-for-unsigned tokens are
        // shape errors, not wrapped or truncated values.
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<usize>("1.5").is_err());
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    /// Bit patterns covering every finite exponent (subnormals included),
    /// `per_exponent` each, with sign and mantissa drawn from a fixed Weyl
    /// sequence — the same sample on every run.
    fn float_bit_patterns(exponents: u64, mantissa_bits: u32, per_exponent: u64) -> Vec<u64> {
        let sign_shift = exponents.trailing_zeros() + mantissa_bits;
        let mut weyl = 0u64;
        let mut out = Vec::new();
        for exp in 0..exponents - 1 {
            for _ in 0..per_exponent {
                weyl = weyl.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mantissa = weyl >> (64 - mantissa_bits);
                let sign = (weyl >> 5) & 1;
                out.push((sign << sign_shift) | (exp << mantissa_bits) | mantissa);
            }
        }
        out
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        let mut cases: Vec<u32> =
            float_bit_patterns(256, 23, 400).into_iter().map(|b| b as u32).collect();
        cases.extend([0, 1 << 31, 1, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff, 0xff7f_ffff]);
        assert!(cases.len() >= 100_000);
        for bits in cases {
            let v = f32::from_bits(bits);
            let text = to_string(&v).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), bits, "{v:e} wrote {text}");
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut cases = float_bit_patterns(2048, 52, 50);
        let edges = [0, 1 << 63, 1, (1 << 52) - 1, 1 << 52, f64::MAX.to_bits(), f64::MIN.to_bits()];
        cases.extend(edges);
        assert!(cases.len() >= 100_000);
        for bits in cases {
            let v = f64::from_bits(bits);
            let text = to_string(&v).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), bits, "{v:e} wrote {text}");
        }
    }

    #[test]
    fn f32_is_read_from_the_token_not_narrowed_from_f64() {
        // 1 + 2^-24 + 1e-31 lies just above the midpoint of two adjacent
        // f32s. Rounded once it goes up; through f64 it lands exactly on
        // the midpoint first and the tie then rounds down to even.
        let token = "1.0000000596046447753906250000001";
        let direct: f32 = from_str(token).unwrap();
        let narrowed = from_str::<f64>(token).unwrap() as f32;
        assert_eq!(direct.to_bits(), 0x3f80_0001);
        assert_eq!(narrowed.to_bits(), 0x3f80_0000);
    }

    #[test]
    fn non_finite_floats_refuse_to_encode() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&v), Err(JsonError::NonFinite));
            assert_eq!(to_string(&(v as f32)), Err(JsonError::NonFinite));
        }
        // The error survives any amount of surrounding structure.
        assert_eq!(to_string(&vec![Some((1.0f32, f32::NAN))]), Err(JsonError::NonFinite));
        // And an overflowing token does not decode to infinity.
        assert!(from_str::<f64>("1e999").is_err());
        assert!(from_str::<f32>("1e39").is_err());
    }

    #[test]
    fn blanket_impls_round_trip() {
        let v: Vec<Option<(String, f32)>> = vec![Some(("a\"b".into(), 0.1)), None];
        let text = to_string(&v).unwrap();
        assert_eq!(text, r#"[["a\"b",0.1],null]"#);
        assert_eq!(from_str::<Vec<Option<(String, f32)>>>(&text).unwrap(), v);
        assert_eq!(to_string(&Box::new(-3i32)).unwrap(), "-3");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&1e300f64).unwrap(), "1e300");
    }

    #[test]
    fn maps_write_sorted_keys() {
        let mut m = HashMap::new();
        for k in ["tiny-imagenet", "cifar10", "mnist"] {
            m.insert(k.to_string(), k.len() as u64);
        }
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"cifar10":7,"mnist":5,"tiny-imagenet":13}"#);
        assert_eq!(from_str::<HashMap<String, u64>>(&text).unwrap(), m);
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shade {
        Dark,
        Light,
    }

    #[derive(Debug, PartialEq)]
    struct Paint {
        shade: Shade,
        coats: u32,
        label: Option<String>,
    }

    impl ToJson for Shade {
        fn write_json(&self, w: &mut JsonWriter) {
            w.unit_variant(self);
        }
    }

    impl FromJson for Shade {
        fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
            read_unit_variant(v, &[Shade::Dark, Shade::Light])
        }
    }

    impl ToJson for Paint {
        fn write_json(&self, w: &mut JsonWriter) {
            w.object()
                .field("shade", &self.shade)
                .field("coats", &self.coats)
                .optional("label", &self.label)
                .end();
        }
    }

    impl FromJson for Paint {
        fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
            let o = v.fields()?;
            let (shade, coats, label) = (o.field("shade")?, o.field("coats")?, o.field("label")?);
            Ok(Paint { shade, coats, label })
        }
    }

    #[test]
    fn object_helpers_follow_the_format_rule() {
        let p = Paint { shade: Shade::Light, coats: 2, label: None };
        let text = to_string(&p).unwrap();
        assert_eq!(text, r#"{"shade":"Light","coats":2}"#);
        assert_eq!(from_str::<Paint>(&text).unwrap(), p);
        // Unknown fields are ignored, null reads as an absent Option, and
        // errors name the field path.
        let loose = r#"{"shade":"Dark","coats":1,"label":null,"extra":[1,2]}"#;
        assert_eq!(from_str::<Paint>(loose).unwrap().shade, Shade::Dark);
        let err = from_str::<Paint>(r#"{"shade":"Dark"}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field `coats`");
        let err = from_str::<Paint>(r#"{"shade":"Dark","coats":"two"}"#).unwrap_err();
        assert_eq!(err.to_string(), "coats: expected a u32, found a string");
        for near_miss in ["Beige", "Dar", "Darker", ""] {
            let doc = format!(r#"{{"shade":"{near_miss}","coats":1}}"#);
            let err = from_str::<Paint>(&doc).unwrap_err();
            assert_eq!(err.to_string(), format!("shade: unknown variant `{near_miss}`"));
        }
    }

    #[test]
    fn variant_splits_externally_tagged_values() {
        let v = parse(r#"{"Zoo":"resnet18"}"#).unwrap();
        let (name, payload) = v.variant().unwrap();
        assert_eq!((name, payload.as_str()), ("Zoo", Some("resnet18")));
        assert_eq!(parse(r#""Linear""#).unwrap().variant().unwrap().0, "Linear");
        assert!(parse(r#"{"a":1,"b":2}"#).unwrap().variant().is_err());
        assert!(parse("3").unwrap().variant().is_err());
    }
}
