//! Offline shim for `serde`.
//!
//! The workspace only ever serializes through `serde_json`, so this shim
//! collapses serde's serializer architecture into JSON text: [`Serialize`]
//! writes a value straight into a [`Writer`] (one output `String`, compact
//! or two-space pretty), [`Deserialize`] reads one straight off a
//! [`Reader`] (a cursor over the text). Nothing is built in between; the
//! [`Value`] tree is a data type like any other, for callers that want to
//! look at JSON of no fixed shape. `#[derive(Serialize, Deserialize)]`
//! comes from the sibling `serde_derive` shim and supports braced, tuple
//! and unit structs (with `#[serde(skip)]`) and enums with unit, newtype,
//! tuple, and struct variants using serde's externally-tagged JSON encoding.
//!
//! What a typed read accepts: unknown keys are skipped (validated, not
//! interpreted), the first of duplicate keys wins, a missing field reads as
//! `null` (so `Option` fields default to `None`), and of several defects in
//! one document the first in document order is reported. Key order does not
//! matter, but the declared order is the fast one: a derived struct first
//! checks whether the next key is spelled exactly as its next declared field
//! ([`Reader::next_key_is`]) and hands over to the general key loop at the
//! first that is not. An integer or float field lexes its number once,
//! digits accumulated straight into a `u64` (a float's text goes to
//! `str::parse`), and converts that to its own type; no [`Value`] is built
//! unless an error message names one.
//!
//! A float is written by a shortest-digits writer of the shim's own (Ryu's
//! `d2d` on 128-bit products, Adams, PLDI 2018), in the bytes Rust's
//! `Display` writes: no exponent, and a tie between the two closest
//! shortest decimals rounded up, not to even. `Display` is its oracle in the
//! tests and is not called.

pub use serde_derive::{Deserialize, Serialize};
use std::borrow::Cow;
mod float;
use std::fmt::Write as _;

/// A JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer (always < 0, except that `-0` parses as `Int(0)`;
    /// other non-negatives parse as [`Value::UInt`]).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved so output is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up a key in an object ([`Value::Null`] when absent).
    pub fn get<'a>(entries: &'a [(String, Value)], key: &str) -> &'a Value {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or(&Value::Null)
    }
}

/// A number as its text spells it: what [`Value`] holds of it, without the
/// other variants' strings and containers.
#[derive(Clone, Copy)]
enum Number {
    UInt(u64),
    Int(i64),
    Float(f64),
}

impl From<Number> for Value {
    fn from(n: Number) -> Value {
        match n {
            Number::UInt(u) => Value::UInt(u),
            Number::Int(i) => Value::Int(i),
            Number::Float(f) => Value::Float(f),
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Writes `self` as JSON.
pub trait Serialize {
    /// Appends the JSON for `self` to `w`.
    fn write(&self, w: &mut Writer);
}

/// Reads `Self` from JSON.
pub trait Deserialize: Sized {
    /// Reads one value at the cursor.
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError>;
}

// -------------------------------------------------------------------- writer

/// JSON output: owns the commas, the newlines and indentation of the pretty
/// form, and the `[]` / `{}` empty forms, so `Serialize` impls only say
/// what comes next.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no entry yet.
    empty: bool,
}

/// A newline and the widest indentation [`Writer::line`] writes in one push.
const INDENT: &str = "\n                                                                ";

impl Writer {
    /// A writer of compact or of two-space-indented JSON.
    #[inline]
    pub fn new(pretty: bool) -> Self {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
            empty: false,
        }
    }

    /// The text written.
    #[inline]
    pub fn finish(self) -> String {
        self.out
    }

    /// Opens an array (`[`) or an object (`{`); each entry is announced
    /// with [`Writer::item`] or [`Writer::key`].
    #[inline]
    pub fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// Closes the innermost container with its `]` or `}`.
    #[inline]
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.line();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    #[inline]
    fn line(&mut self) {
        if self.pretty {
            let spaces = 2 * self.depth;
            self.out
                .push_str(&INDENT[..1 + spaces.min(INDENT.len() - 1)]);
            for _ in INDENT.len() - 1..spaces {
                self.out.push(' ');
            }
        }
    }

    /// The next array element follows.
    #[inline]
    pub fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.line();
    }

    /// The value of object key `key` follows.
    #[inline]
    pub fn key(&mut self, key: &str) {
        self.item();
        self.string(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// `null`
    #[inline]
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An integer, its digits produced here rather than by `core::fmt`.
    #[inline]
    pub fn integer(&mut self, i: i128) {
        let Ok(mut magnitude) = u64::try_from(i.unsigned_abs()) else {
            return write!(self.out, "{i}").expect("writing to a String cannot fail");
        };
        if i < 0 {
            self.out.push('-');
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (magnitude % 10) as u8;
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// A float: the shortest digits that read back to the same `f64`,
    /// spelled byte for byte as Rust's `Display` spells them (ties rounded
    /// up, no exponent), with a trailing `.0` on integral values so they
    /// re-parse as floats. Non-finite floats are written as `null`, as
    /// serde_json does.
    #[inline]
    pub fn float(&mut self, f: f64) {
        if !f.is_finite() {
            return self.null();
        }
        if !float::write(&mut self.out, f) {
            self.out.push_str(".0");
        }
    }

    /// A string, escaped; one that needs no escape is copied in one push.
    #[inline]
    pub fn string(&mut self, s: &str) {
        self.out.reserve(s.len() + 2);
        self.out.push('"');
        if s.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)) {
            self.escaped(s);
        } else {
            self.out.push_str(s);
        }
        self.out.push('"');
    }

    #[cold]
    fn escaped(&mut self, s: &str) {
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so both cuts fall on character boundaries.
            self.out.push_str(&s[plain..i]);
            plain = i + 1;
            if escape.is_empty() {
                write!(self.out, "\\u{b:04x}").expect("writing to a String cannot fail");
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&s[plain..]);
    }
}

// -------------------------------------------------------------------- reader

/// Deepest nesting of arrays and objects a [`Reader`] follows: every path
/// through a document recurses once per level, and the text can come from
/// a network peer.
const MAX_DEPTH: usize = 128;

/// Where the run of JSON whitespace at byte `at` of `bytes` ends.
#[inline]
fn ws_end(bytes: &[u8], mut at: usize) -> usize {
    while matches!(bytes.get(at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        at += 1;
    }
    at
}

/// A cursor over JSON text. Errors carry the byte offset they were found at
/// (`… at byte N`).
#[derive(Clone)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// The container just entered has had no entry read yet.
    fresh: bool,
    /// The text is not JSON (or nests too deep): an error about the
    /// document, which no field name is put in front of.
    broken: bool,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
            broken: false,
        }
    }

    /// Refuses anything but whitespace between the cursor and the end.
    pub fn end(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    #[cold]
    fn err(&mut self, msg: &str) -> DeError {
        self.broken = true;
        DeError(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos = ws_end(self.src.as_bytes(), self.pos);
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    /// The error for a value that is not an `expected`: names what is there
    /// instead, or reports the syntax error found while looking.
    #[cold]
    fn mismatch(&mut self, expected: &str) -> DeError {
        match self.tree(true) {
            Ok(v) => DeError(format!("expected {expected}, got {v:?}")),
            Err(syntax) => syntax,
        }
    }

    /// `error`, unless the value it refuses is not even valid JSON.
    pub fn refuse(&mut self, error: DeError) -> DeError {
        self.skip().err().unwrap_or(error)
    }

    /// Reads the number at the cursor; `expected` names the caller's type
    /// if something else is there.
    #[inline]
    fn number(&mut self, expected: &str) -> Result<Number, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.lex_number(),
            _ => Err(self.mismatch(expected)),
        }
    }

    /// Lexes a number in one pass: `-`, then digits accumulated as they
    /// are read; a `.`, `e`, `E`, `+` or `-` among them makes the whole run
    /// of such characters a float, parsed as such.
    #[inline]
    fn lex_number(&mut self) -> Result<Number, DeError> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let mut pos = start + usize::from(negative);
        let mut magnitude = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = bytes.get(pos).copied() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(digit - b'0')));
            pos += 1;
        }
        if matches!(bytes.get(pos), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            while matches!(
                bytes.get(pos),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                pos += 1;
            }
            self.pos = pos;
            return self.src[start..pos]
                .parse::<f64>()
                .map(Number::Float)
                .map_err(|_| self.err("invalid float"));
        }
        let digits = pos - start - usize::from(negative);
        self.pos = pos;
        match (magnitude, negative) {
            (Some(u), false) if digits > 0 => Ok(Number::UInt(u)),
            (Some(u), true) if digits > 0 => match 0i64.checked_sub_unsigned(u) {
                Some(i) => Ok(Number::Int(i)),
                None => Err(self.err("invalid integer")),
            },
            _ => Err(self.err("invalid integer")),
        }
    }

    /// Lexes the string at the cursor. Without `keep` it is only validated:
    /// nothing is allocated and the result is empty if it had escapes.
    fn lex_string(&mut self, keep: bool) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        let mut unescaped = String::new();
        loop {
            // A run of plain characters. UTF-8 continuation bytes are
            // >= 0x80, so stopping at a quote or backslash byte never
            // splits a character.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            if keep && (escaped || self.peek() == Some(b'\\')) {
                unescaped.push_str(&self.src[run..self.pos]);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match escaped {
                        true => Cow::Owned(unescaped),
                        false => Cow::Borrowed(&self.src[start..self.pos - 1]),
                    });
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.escape()?;
                    escaped = true;
                    if keep {
                        unescaped.push(c);
                    }
                }
            }
        }
    }

    /// Decodes one escape, the cursor on the character after the backslash.
    fn escape(&mut self) -> Result<char, DeError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = self.hex4(self.pos + 1)?;
                // A high surrogate is half a character: the low half must
                // follow as its own `\\u` escape.
                if matches!(code, 0xD800..=0xDBFF)
                    && self.src.as_bytes()[self.pos + 5..].starts_with(b"\\u")
                {
                    match self.hex4(self.pos + 7) {
                        Ok(low @ 0xDC00..=0xDFFF) => {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            self.pos += 6;
                        }
                        _ => return Err(self.err("bad \\u code point")),
                    }
                }
                // Fails for a lone surrogate only, the cursor still on its `u`.
                let c = char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits at byte `at`.
    fn hex4(&mut self, at: usize) -> Result<u32, DeError> {
        let hex = self
            .src
            .as_bytes()
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Enters an array (`[`) or an object (`{`) if one is next (`false`:
    /// something else is).
    #[inline]
    pub fn begin(&mut self, bracket: u8) -> Result<bool, DeError> {
        self.skip_ws();
        if self.peek() != Some(bracket) {
            return Ok(false);
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(true)
    }

    /// Moves to the next entry of the open container, or past its `close`.
    #[inline]
    fn next(&mut self, close: u8, expected: &str) -> Result<bool, DeError> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            Ok(false)
        } else if fresh {
            Ok(true)
        } else if self.peek() == Some(b',') {
            self.pos += 1;
            Ok(true)
        } else {
            Err(self.err(expected))
        }
    }

    /// Whether the open array has another element; if so the cursor is on
    /// it, if not the array is closed.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, DeError> {
        self.next(b']', "expected `,` or `]`")
    }

    /// The next key of the open object, the cursor on its value; `None`
    /// closes the object.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        self.entry(true)
    }

    #[inline]
    fn entry(&mut self, keep: bool) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.next(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.lex_string(keep)?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Moves onto the value of the open object's next key if that key is
    /// spelled exactly `"key"`, without escapes. Anything else leaves the
    /// cursor where it was (`false`): another key, an escaped spelling, the
    /// closing `}`, or a defect for [`Reader::next_key`] to report.
    #[inline]
    pub fn next_key_is(&mut self, key: &str) -> bool {
        let bytes = self.src.as_bytes();
        let mut at = ws_end(bytes, self.pos);
        if !self.fresh {
            if bytes.get(at) != Some(&b',') {
                return false;
            }
            at = ws_end(bytes, at + 1);
        }
        let close = at + 1 + key.len();
        if bytes.get(at) != Some(&b'"')
            || bytes.get(at + 1..close) != Some(key.as_bytes())
            || bytes.get(close) != Some(&b'"')
        {
            return false;
        }
        at = ws_end(bytes, close + 1);
        if bytes.get(at) != Some(&b':') {
            return false;
        }
        self.pos = at + 1;
        self.fresh = false;
        true
    }

    /// Skips one value of any shape: validated exactly as [`Value`]'s
    /// `read` would, nothing allocated.
    pub fn skip(&mut self) -> Result<(), DeError> {
        self.tree(false).map(drop)
    }

    /// One value of any shape: built when `keep`, only validated (and
    /// `Null`) otherwise.
    fn tree(&mut self, keep: bool) -> Result<Value, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null").map(|()| Value::Null),
            Some(b't') => self.keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.lex_string(keep).map(|s| match keep {
                true => Value::Str(s.into_owned()),
                false => Value::Null,
            }),
            Some(b'[') => {
                self.begin(b'[')?;
                let mut items = Vec::new();
                while self.next_item()? {
                    let item = self.tree(keep)?;
                    if keep {
                        items.push(item);
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin(b'{')?;
                let mut entries = Vec::new();
                while let Some(key) = self.entry(keep)? {
                    let value = self.tree(keep)?;
                    if keep {
                        entries.push((key.into_owned(), value));
                    }
                }
                Ok(Value::Object(entries))
            }
            Some(b'-' | b'0'..=b'9') => self.lex_number().map(Value::from),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    // ------------------------------------------------ derive-macro helpers

    /// Reads the value of struct field `key`.
    #[inline]
    pub fn field<T: Deserialize>(&mut self, key: &str) -> Result<T, DeError> {
        T::read(self).map_err(|e| match self.broken {
            true => e,
            false => DeError(format!("field `{key}`: {e}")),
        })
    }

    /// A struct field no key named: whatever its type reads `null` as
    /// (`None` for an `Option`), an error for types that refuse `null`.
    pub fn missing<T: Deserialize>(key: &str) -> Result<T, DeError> {
        T::read(&mut Reader::new("null")).map_err(|_| DeError(format!("missing field `{key}`")))
    }

    /// Reads element `index` of a fixed-length array; `wrong(items found)`
    /// is the error for an array of another length.
    pub fn tuple_item<T: Deserialize>(
        &mut self,
        index: usize,
        wrong: &dyn Fn(usize) -> DeError,
    ) -> Result<T, DeError> {
        if self.next_item()? {
            T::read(self)
        } else {
            Err(wrong(index))
        }
    }

    /// Closes a fixed-length array after its `len` elements.
    pub fn tuple_end(
        &mut self,
        len: usize,
        wrong: &dyn Fn(usize) -> DeError,
    ) -> Result<(), DeError> {
        let mut found = len;
        while self.next_item()? {
            self.skip()?;
            found += 1;
        }
        if found == len {
            Ok(())
        } else {
            Err(wrong(found))
        }
    }

    /// Reads an externally tagged enum `name`: `variant(r, tag, unit)` is
    /// given the tag of a `"Tag"` string (`unit`) or of a `{"Tag": …}`
    /// object, the cursor then on the payload.
    pub fn variant<T>(
        &mut self,
        name: &str,
        variant: impl FnOnce(&mut Self, &str, bool) -> Result<T, DeError>,
    ) -> Result<T, DeError> {
        let shape = || DeError(format!("expected string or single-key object for {name}"));
        self.skip_ws();
        if self.peek() == Some(b'"') {
            let tag = self.lex_string(true)?;
            return variant(self, &tag, true);
        }
        if !self.begin(b'{')? {
            return Err(self.refuse(shape()));
        }
        let Some(tag) = self.next_key()? else {
            return Err(shape());
        };
        let payload = self.clone();
        let read = variant(self, &tag, false);
        if read.is_err() {
            // A second key is the defect that comes first, whatever was
            // wrong with the first payload.
            *self = payload;
            self.skip()?;
        }
        match self.next_key()? {
            None => read,
            Some(_) => Err(shape()),
        }
    }
}

// ---------------------------------------------------------------- primitives

macro_rules! impl_ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn write(&self, w: &mut Writer) { w.integer(*self as i128) }
        }
        impl Deserialize for $t {
            #[inline]
            fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = r.number(stringify!($t))?;
                let fits = match n {
                    Number::UInt(u) => <$t>::try_from(u).ok(),
                    Number::Int(i) => <$t>::try_from(i).ok(),
                    Number::Float(_) => None,
                };
                fits.ok_or_else(|| match n {
                    Number::Int(i) if <$t>::MIN != 0 => DeError(format!("{i} out of range")),
                    n => DeError(format!(
                        "expected {}, got {:?}", stringify!($t), Value::from(n)
                    )),
                })
            }
        }
    )*};
}
impl_ser_de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn write(&self, w: &mut Writer) { w.float(*self as f64) }
        }
        impl Deserialize for $t {
            #[inline]
            fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
                // "20" is an integer to the lexer; a float field accepts it.
                Ok(match r.number("float")? {
                    Number::Float(f) => f as $t,
                    Number::UInt(u) => u as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}
impl_ser_de_float!(f32, f64);

impl Serialize for bool {
    fn write(&self, w: &mut Writer) {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.skip_ws();
        match r.peek() {
            Some(b't') => r.keyword("true").map(|()| true),
            Some(b'f') => r.keyword("false").map(|()| false),
            _ => Err(r.mismatch("bool")),
        }
    }
}

impl Serialize for String {
    fn write(&self, w: &mut Writer) {
        w.string(self)
    }
}

impl Deserialize for String {
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.skip_ws();
        match r.peek() {
            Some(b'"') => r.lex_string(true).map(Cow::into_owned),
            _ => Err(r.mismatch("string")),
        }
    }
}

impl Serialize for str {
    fn write(&self, w: &mut Writer) {
        w.string(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write(&self, w: &mut Writer) {
        (**self).write(w)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write(&self, w: &mut Writer) {
        self[..].write(w)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if !r.begin(b'[')? {
            return Err(r.mismatch("array"));
        }
        let mut items = Vec::new();
        while r.next_item()? {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write(&self, w: &mut Writer) {
        w.open('[');
        for item in self {
            w.item();
            item.write(w);
        }
        w.close(']');
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(t) => t.write(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.skip_ws();
        match r.peek() {
            Some(b'n') => r.keyword("null").map(|()| None),
            _ => T::read(r).map(Some),
        }
    }
}

impl Serialize for Value {
    fn write(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::UInt(u) => w.integer(i128::from(*u)),
            Value::Int(i) => w.integer(i128::from(*i)),
            Value::Float(f) => w.float(*f),
            Value::Str(s) => w.string(s),
            Value::Array(items) => items.write(w),
            Value::Object(entries) => {
                w.open('{');
                for (key, value) in entries {
                    w.key(key);
                    value.write(w);
                }
                w.close('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.tree(true)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn write(&self, w: &mut Writer) {
        w.open('{');
        for (key, value) in self {
            w.key(key);
            value.write(w);
        }
        w.close('}');
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if !r.begin(b'{')? {
            return Err(r.mismatch("object"));
        }
        let mut map = Self::new();
        while let Some(key) = r.next_key()? {
            // The last of duplicate keys wins, each value having been read.
            map.insert(key.into_owned(), V::read(r)?);
        }
        Ok(map)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write(&self, w: &mut Writer) {
        (**self).write(w)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::read(r).map(Box::new)
    }
}

macro_rules! impl_ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write(&self, w: &mut Writer) {
                w.open('[');
                $( w.item(); self.$n.write(w); )+
                w.close(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let len = [$(stringify!($n)),+].len();
                let wrong = |found: usize| DeError(format!(
                    "expected {len}-tuple, got {found} items"
                ));
                if !r.begin(b'[')? {
                    return Err(r.mismatch("array"));
                }
                let tuple = ($(r.tuple_item::<$t>($n, &wrong)?,)+);
                r.tuple_end(len, &wrong)?;
                Ok(tuple)
            }
        }
    )*};
}
impl_ser_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(value: &(impl Serialize + ?Sized)) -> String {
        let mut w = Writer::new(false);
        value.write(&mut w);
        w.finish()
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, DeError> {
        T::read(&mut Reader::new(text))
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(read::<u64>(&written(&42u64)), Ok(42));
        assert_eq!(read::<i64>(&written(&-7i64)), Ok(-7));
        assert_eq!(read::<f64>(&written(&1.5f64)), Ok(1.5));
        assert_eq!(read::<bool>(&written(&true)), Ok(true));
        assert_eq!(read::<String>(&written("hi")), Ok("hi".to_string()));
    }

    #[test]
    fn float_accepts_integral_encoding() {
        // "20" lexes as an integer; an f64 field must accept it.
        assert_eq!(read::<f64>("20"), Ok(20.0));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1usize, 2.5f64), (3, 4.5)];
        assert_eq!(read::<Vec<(usize, f64)>>(&written(&v)), Ok(v));
        assert_eq!(read::<Option<u64>>(&written(&None::<u64>)), Ok(None));
        assert_eq!(read::<Option<u64>>(&written(&Some(9u64))), Ok(Some(9)));
    }

    #[test]
    fn missing_field_is_null() {
        assert_eq!(Reader::missing::<Option<u64>>("b"), Ok(None));
        assert_eq!(
            Reader::missing::<u64>("b"),
            Err(DeError::custom("missing field `b`"))
        );
    }

    #[test]
    fn writer_owns_separators_and_empty_forms() {
        let nested = vec![vec![], vec![1u8, 2]];
        assert_eq!(written(&nested), "[[],[1,2]]");
        let mut w = Writer::new(true);
        nested.write(&mut w);
        assert_eq!(w.finish(), "[\n  [],\n  [\n    1,\n    2\n  ]\n]");
    }

    #[test]
    fn integers_are_written_as_display_spells_them() {
        for i in [
            0,
            9,
            10,
            -1,
            -10,
            i128::from(i64::MIN),
            i128::from(i64::MAX),
            i128::from(u64::MAX),
            -i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            i128::MIN,
        ] {
            let mut w = Writer::new(false);
            w.integer(i);
            assert_eq!(w.finish(), i.to_string());
        }
    }

    #[test]
    fn pretty_indentation_past_one_push_width() {
        let depth = INDENT.len();
        let mut value = Value::UInt(1);
        for _ in 0..depth {
            value = Value::Array(vec![value]);
        }
        let mut w = Writer::new(true);
        value.write(&mut w);
        let lines: Vec<String> = (0..depth)
            .map(|d| "  ".repeat(d) + "[")
            .chain(std::iter::once("  ".repeat(depth) + "1"))
            .chain((0..depth).rev().map(|d| "  ".repeat(d) + "]"))
            .collect();
        assert_eq!(w.finish(), lines.join("\n"));
    }

    #[test]
    fn skip_validates_without_building() {
        let mut r = Reader::new(r#"{"a\n":[1,{"b":null}],"c":"😀"} x"#);
        r.skip().unwrap();
        assert_eq!(
            r.end(),
            Err(DeError::custom("trailing characters at byte 34"))
        );
        let mut bad = Reader::new(r#"[1,{"b":nul}]"#);
        assert_eq!(
            bad.skip(),
            Err(DeError::custom("expected `null` at byte 8"))
        );
    }
}
