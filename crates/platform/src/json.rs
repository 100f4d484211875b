//! The workspace's one JSON module: every document the workspace writes or
//! reads goes through it.
//!
//! * `escape_into` is the one string escaper.
//! * The writer ([`object()`], [`array()`], [`Writer`]) writes numbers with
//!   fixed decimals ([`Fixed`]), `null` for `None` and for a non-finite
//!   number, keys in the order they are written, `": "` after each key and
//!   `", "` between the members of a one-line container. The code that
//!   writes a container lays it out on one line or indented, one member
//!   per line ([`Layout`]).
//! * The reader ([`parse`]) refuses nesting deeper than [`MAX_DEPTH`], so no
//!   input can exhaust its stack, and keeps integers exact up to
//!   `u64::MAX`.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes, SARIF, nests ten deep.
pub const MAX_DEPTH: usize = 64;

/// Appends `s` to `out` as a JSON string literal, quotes included.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value the writer writes whole: a string, an integer, a boolean, a
/// [`Fixed`] number, or `null` for `None`.
pub trait Scalar {
    /// Appends the value's JSON text to `out`.
    fn write_to(&self, out: &mut String);
}

fn display(out: &mut String, value: &impl std::fmt::Display) {
    let _ = write!(out, "{value}");
}

macro_rules! scalars {
    ($write:ident: $($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                $write(out, self);
            }
        }
    )*};
}
scalars!(escape_into: str, String);
scalars!(display: bool, u8, u16, u32, u64, usize);

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(value) => value.write_to(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// A number written with a fixed count of decimals: `Fixed(1.5, 3)` is
/// `1.500`. A non-finite number is `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Scalar for Fixed {
    fn write_to(&self, out: &mut String) {
        let Fixed(x, decimals) = *self;
        if x.is_finite() {
            let _ = write!(out, "{x:.decimals$}");
        } else {
            out.push_str("null");
        }
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// All on one line, `{"a": 1, "b": [2, 3]}`, and so is everything
    /// inside it.
    Line,
    /// One member per line, two spaces deeper than the container's own
    /// line; an empty container is `{}` or `[]`.
    Indented,
}

/// The members of one open object or array. An object's member is a
/// [`key`](Self::key) and then its value; an array's is a value alone.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    /// Indentation of the members, or `None` on one line.
    indent: Option<usize>,
    first: bool,
    /// A key is written and waits for its value.
    keyed: bool,
}

impl<'a> Writer<'a> {
    /// The writer of a whole document: one value, not indented.
    fn document(out: &'a mut String) -> Self {
        Self::open(out, Some(0), true)
    }

    fn open(out: &'a mut String, indent: Option<usize>, keyed: bool) -> Self {
        Self {
            out,
            indent,
            first: true,
            keyed,
        }
    }

    fn separate(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out
                .push_str(if self.indent.is_some() { "," } else { ", " });
        }
        if let Some(n) = self.indent {
            let _ = write!(self.out, "\n{:n$}", "");
        }
    }

    /// Writes an object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes a value: an array element, or the value of the key before it.
    pub fn value(&mut self, value: impl Scalar) -> &mut Self {
        self.separate();
        value.write_to(self.out);
        self
    }

    /// Writes one object member: `key(key).value(value)`.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes a nested object whose members `members` writes.
    pub fn object(&mut self, layout: Layout, members: impl FnOnce(&mut Writer<'_>)) -> &mut Self {
        self.nest(['{', '}'], layout, members)
    }

    /// Writes a nested array whose elements `items` writes.
    pub fn array(&mut self, layout: Layout, items: impl FnOnce(&mut Writer<'_>)) -> &mut Self {
        self.nest(['[', ']'], layout, items)
    }

    fn nest(
        &mut self,
        [open, close]: [char; 2],
        layout: Layout,
        fill: impl FnOnce(&mut Writer<'_>),
    ) -> &mut Self {
        self.separate();
        self.out.push(open);
        let indent = match (self.indent, layout) {
            (Some(n), Layout::Indented) => Some(n + 2),
            (_, Layout::Line | Layout::Indented) => None,
        };
        let mut inner = Writer::open(self.out, indent, false);
        fill(&mut inner);
        if let (Some(n), false) = (indent, inner.first) {
            let _ = write!(self.out, "\n{:1$}", "", n.saturating_sub(2));
        }
        self.out.push(close);
        self
    }
}

/// Writes a document whose top level is an object, without a trailing
/// newline.
pub fn object(layout: Layout, members: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    Writer::document(&mut out).object(layout, members);
    out
}

/// Writes a document whose top level is an array, without a trailing
/// newline.
pub fn array(layout: Layout, items: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    Writer::document(&mut out).array(layout, items);
    out
}

/// A parsed JSON value. An object keeps its members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without sign, fraction or exponent that fits a `u64`.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string, its escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of an object's member `key` (the last one, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(members) = self else {
            return None;
        };
        members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value at a path of keys through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }
}

/// Reads one JSON document: UTF-8 text holding one value and nothing after
/// it but whitespace, nested at most [`MAX_DEPTH`] deep. A number is read
/// leniently, as the run of digits, signs, dots and exponent marks that
/// starts with its `-` or first digit: exactly when it is a `u64`, as an
/// `f64` otherwise, so `007` is 7 and `1.` is 1.0.
pub fn parse(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos < text.len() {
        return reader.fail("trailing bytes");
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            return Ok(());
        }
        self.fail(&format!("expected '{}'", char::from(b)))
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.fail(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'[') => self.list(b']', |r| r.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self
                .list(b'}', |r| {
                    let key = r.string()?;
                    r.expect(b':')?;
                    Ok((key, r.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) | None => {
                let words = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                for (word, value) in words {
                    if self.rest().starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                self.fail("unexpected token")
            }
        }
    }

    /// Reads an array's items or an object's members, each with `element`,
    /// from its opening bracket up to the closing one, `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut list = Vec::new();
        if self.eat(close) {
            return Ok(list);
        }
        loop {
            list.push(element(self)?);
            if self.eat(close) {
                return Ok(list);
            }
            self.expect(b',')?;
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let rest = self.rest();
        let len = rest.find(|c| !"0123456789+-.eE".contains(c));
        let text = rest.get(..len.unwrap_or(rest.len())).unwrap_or_default();
        let value = match text.parse() {
            Ok(n) => Json::UInt(n),
            Err(_) => Json::Num(text.parse().or_else(|e| self.fail(&format!("{e}")))?),
        };
        self.pos += text.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return self.fail("expected a string");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(rest.get(..run).unwrap_or_default());
            self.pos += run + 1;
            match self.text.as_bytes().get(self.pos - 1) {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.fail("control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        self.pos += 1;
        let simple = match self.text.as_bytes().get(self.pos - 1) {
            Some(&c @ (b'"' | b'\\' | b'/')) => char::from(c),
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A high surrogate and the low one escaped after it.
                if (0xD800..0xDC00).contains(&code) && self.rest().starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                return char::from_u32(code).map_or_else(|| self.fail("unpaired surrogate"), Ok);
            }
            Some(_) | None => return self.fail("invalid escape"),
        };
        Ok(simple)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(code) = digits.and_then(|d| u32::from_str_radix(d, 16).ok()) else {
            return self.fail("invalid \\u escape");
        };
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_nest_and_separate_as_documented() {
        let doc = object(Layout::Indented, |o| {
            o.field("bench", "x").field("n", 3u32);
            o.key("cells").array(Layout::Indented, |a| {
                a.object(Layout::Line, |c| {
                    c.field("k", Fixed(0.25, 2))
                        .field("v", Some(Fixed(f64::NAN, 3)));
                    c.key("inner").array(Layout::Indented, |_| {});
                });
                a.value(true);
            });
            o.key("empty").object(Layout::Indented, |_| {});
        });
        assert_eq!(
            doc,
            "{\n  \"bench\": \"x\",\n  \"n\": 3,\n  \"cells\": [\n    \
{\"k\": 0.25, \"v\": null, \"inner\": []},\n    true\n  ],\n  \"empty\": {}\n}"
        );
        assert_eq!(array(Layout::Line, |_| {}), "[]");
    }

    #[test]
    fn escaper_escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é");
        assert_eq!(out, r#""a\"b\\c\nd\re\tf\u0001g\u001fh é""#);
    }

    #[test]
    fn reader_decodes_every_escape_and_keeps_u64_exact() {
        let doc = br#"{"s": "\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00", "n": 18446744073709551615, "m": 18446744073709551616, "x": -0, "f": 1.5e2, "a": [null, true, false]}"#;
        let read = parse(doc).unwrap();
        assert_eq!(
            read.get("s").and_then(Json::as_str),
            Some("\"\\/\u{8}\u{c}\n\r\té😀")
        );
        assert_eq!(read.get("n"), Some(&Json::UInt(u64::MAX)));
        assert!(matches!(read.get("m"), Some(Json::Num(_))));
        assert!(matches!(read.get("x"), Some(Json::Num(_))));
        assert!(matches!(read.get("f"), Some(Json::Num(_))));
        assert_eq!(
            read.get("a").and_then(Json::as_array),
            Some(&[Json::Null, Json::Bool(true), Json::Bool(false)][..])
        );
    }

    #[test]
    fn reader_rejects_what_json_does_not_allow() {
        for bad in [
            &b""[..],
            b"{",
            b"[1,]",
            b"{\"a\":1,}",
            b"{\"a\" 1}",
            b"{1: 2}",
            b".5",
            b"+1",
            b"1e",
            b"-",
            b"tru",
            b"nul",
            b"\"\\x\"",
            b"\"\\ud800\"",
            b"\"\\udc00\"",
            b"\"\\u12\"",
            b"\"a\nb\"",
            b"\"\xff\"",
            b"{} x",
            b"[] []",
        ] {
            assert!(parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn numbers_are_read_leniently() {
        assert_eq!(parse(b"007"), Ok(Json::UInt(7)));
        assert_eq!(parse(b"1."), Ok(Json::Num(1.0)));
        assert!(matches!(parse(b"-12"), Ok(Json::Num(_))));
        assert!(parse(b"1-2").is_err());
        assert!(parse(b"1e5e5").is_err());
    }

    #[test]
    fn nesting_stops_at_the_bound() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(deepest.as_bytes()).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(parse(deeper.as_bytes()).unwrap_err().contains("nesting"));
    }
}
