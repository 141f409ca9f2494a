//! The workspace's one JSON codec: a located reader and the string
//! escaper every writer uses.
//!
//! The workspace builds offline with no serde, so it reads and writes
//! JSON by hand. Every document it reads goes through one [`Cursor`]:
//! progress and journal lines, report JSON and `BENCHMARK.json` as a
//! [`Json`] tree ([`Json::parse`]), and trace files through the
//! cursor's methods directly, so a multi-megabyte trace is never built
//! into a tree. Every document it writes escapes its strings with
//! [`escape`].
//!
//! The reader follows RFC 8259 and refuses, with a located
//! [`JsonError`], what the workspace cannot represent:
//!
//! - nesting deeper than [`MAX_DEPTH`], since the tree is read by
//!   recursion and a hostile line must not overflow the stack;
//! - a number whose `f64` value is not finite (`1e999`), which no
//!   writer could render back as JSON.
//!
//! Numbers keep their source text beside the `f64`, so `u64` counters
//! past 2^53 round-trip exactly ([`Json::as_u64`]).

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects the reader accepts. The
/// deepest document the workspace writes nests 5 levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: parsed value plus the raw source text (for exact
    /// integer recovery via [`Json::as_u64`]).
    Num(f64, String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; trailing data is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut cur = Cursor::new(text);
        let value = cur.read_value()?;
        cur.finish()?;
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned integer from the raw number text.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A read failure, located in the source text.
///
/// `line` and `column` are 1-based and computed from the byte offset
/// when the error is built, so the read loop never tracks lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (byte within the line) of the offending byte.
    pub column: usize,
    /// Absolute byte offset of the error.
    pub byte: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {} (byte {}): {}", self.line, self.column, self.byte, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A read position in one JSON document.
///
/// Each reading method skips the whitespace before its token, so a
/// schema reader (trace files) is a loop of [`expect`](Self::expect),
/// [`eat`](Self::eat), [`read_str`](Self::read_str) and
/// [`read_u64`](Self::read_u64) calls, and [`Json::parse`] is
/// [`read_value`](Self::read_value) then [`finish`](Self::finish).
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    /// Skip whitespace; returns the offset of the next token, for an
    /// error that points at it ([`error_at`](Self::error_at)).
    pub fn skip_ws(&mut self) -> usize {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.pos
    }

    /// Consume `b` if it is the next token.
    pub fn eat(&mut self, b: u8) -> bool {
        let at = self.skip_ws();
        let hit = self.text.as_bytes().get(at) == Some(&b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consume `b`, or fail naming it.
    pub fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error_at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    /// Require that nothing but whitespace remains.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        let at = self.skip_ws();
        if at == self.text.len() {
            Ok(())
        } else {
            Err(self.error_at(at, "trailing data after the document"))
        }
    }

    /// An error pointing at byte `pos` of the document.
    pub fn error_at(&self, pos: usize, msg: impl Into<String>) -> JsonError {
        let upto = &self.text.as_bytes()[..pos.min(self.text.len())];
        let line_start = upto.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        JsonError {
            line: 1 + upto.iter().filter(|&&b| b == b'\n').count(),
            column: upto.len() - line_start + 1,
            byte: pos,
            msg: msg.into(),
        }
    }

    /// Read a string, resolving escapes. Runs without escapes are
    /// copied as slices of the input, so the cost is linear in the
    /// string's length, and a string without escapes is borrowed.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let len = text.as_bytes()[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error_at(text.len(), "unterminated string"))?;
            self.pos += len;
            let plain = &text[run..self.pos];
            match text.as_bytes()[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let c = self.unescape()?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(plain);
                    s.push(c);
                }
                _ => return Err(self.error_at(self.pos, "control character in string")),
            }
        }
    }

    /// Resolve the escape sequence at the cursor (on its backslash).
    fn unescape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let bytes = self.text.as_bytes();
        self.pos += 2;
        let c = match bytes.get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4(at)?;
                // A high surrogate followed by an escaped low one is one
                // character beyond the Basic Multilingual Plane.
                let escaped_next = bytes.get(self.pos..self.pos + 2) == Some(b"\\u");
                if (0xD800..0xDC00).contains(&code) && escaped_next {
                    let low = self.hex4(self.pos)?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code)
                    .ok_or_else(|| self.error_at(at, "unpaired surrogate in \\u escape"))?
            }
            _ => return Err(self.error_at(at, "bad escape sequence")),
        };
        Ok(c)
    }

    /// The four hex digits of the `\u` escape whose backslash is at
    /// `at`; moves the cursor past them.
    fn hex4(&mut self, at: usize) -> Result<u32, JsonError> {
        let digits = self.text.as_bytes().get(at + 2..at + 6);
        let code = digits.and_then(|d| {
            d.iter().try_fold(0, |acc, &b| char::from(b).to_digit(16).map(|v| acc * 16 + v))
        });
        self.pos = at + 6;
        code.ok_or_else(|| self.error_at(at, "\\u escape needs four hex digits"))
    }

    /// Scan one number token (RFC 8259 grammar) and return its text.
    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.skip_ws();
        let text = self.text;
        let bytes = text.as_bytes();
        let mut i = start;
        let digits = |i: &mut usize| {
            let from = *i;
            while bytes.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            *i > from
        };
        if bytes.get(i) == Some(&b'-') {
            i += 1;
        }
        match bytes.get(i) {
            Some(b'0') => i += 1,
            Some(b'1'..=b'9') => {
                digits(&mut i);
            }
            _ => return Err(self.error_at(start, "expected a number")),
        }
        if bytes.get(i) == Some(&b'.') {
            i += 1;
            if !digits(&mut i) {
                return Err(self.error_at(i, "expected a digit after '.'"));
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            if !digits(&mut i) {
                return Err(self.error_at(i, "expected a digit in the exponent"));
            }
        }
        self.pos = i;
        Ok(&text[start..i])
    }

    /// Read a number that must be an exact `u64`: no sign, fraction or
    /// exponent, and no wider than the type.
    pub fn read_u64(&mut self) -> Result<u64, JsonError> {
        let start = self.skip_ws();
        let token = self.number()?;
        if !token.bytes().all(|b| b.is_ascii_digit()) {
            return Err(self.error_at(start, format!("{token} is not an unsigned integer")));
        }
        token.parse().map_err(|_| self.error_at(start, "number out of range for u64"))
    }

    /// Read any value, as a tree.
    pub fn read_value(&mut self) -> Result<Json, JsonError> {
        self.value(0)
    }

    /// A value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        let start = self.skip_ws();
        let close = match self.text.as_bytes().get(start) {
            Some(b'[') => b']',
            Some(b'{') => b'}',
            Some(b'"') => return Ok(Json::Str(self.read_str()?.into_owned())),
            Some(b't') => return self.literal("true", Json::Bool(true)),
            Some(b'f') => return self.literal("false", Json::Bool(false)),
            Some(b'n') => return self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let token = self.number()?;
                return match token.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(Json::Num(v, token.to_owned())),
                    _ => Err(self.error_at(start, format!("number {token} is not a finite f64"))),
                };
            }
            Some(_) => return Err(self.error_at(start, "expected a value")),
            None => return Err(self.error_at(start, "unexpected end of input")),
        };
        if depth == MAX_DEPTH {
            return Err(self.error_at(start, format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        let mut items = Vec::new();
        let mut fields = Vec::new();
        if !self.eat(close) {
            loop {
                if close == b'}' {
                    let key = self.read_str()?.into_owned();
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                } else {
                    items.push(self.value(depth + 1)?);
                }
                if !self.eat(b',') {
                    self.expect(close)?;
                    break;
                }
            }
        }
        Ok(if close == b'}' { Json::Obj(fields) } else { Json::Arr(items) })
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error_at(self.pos, "malformed literal"))
        }
    }
}

/// Escape `s` for embedding in a JSON string: quotes, backslashes and
/// control characters are escaped, everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"v":1,"ev":"metrics","hists":{"s2":{"buckets":[[0,3],[5,1]],"sum":19}},"ok":true,"none":null}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("ev").and_then(Json::as_str), Some("metrics"));
        let b = j.get("hists").and_then(|h| h.get("s2")).and_then(|s| s.get("buckets"));
        let b = b.and_then(Json::as_arr).unwrap();
        assert_eq!(b[1].as_arr().unwrap()[0].as_u64(), Some(5));
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(j.get("none"), Some(&Json::Null));
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn big_integers_round_trip_exactly() {
        let v = u64::MAX - 3;
        let j = Json::parse(&format!("{{\"cycles\":{v}}}")).unwrap();
        assert_eq!(j.get("cycles").and_then(Json::as_u64), Some(v));
        // The float path would have lost the low bits.
        assert_ne!(j.get("cycles").and_then(Json::as_f64).unwrap() as u64, v);
    }

    #[test]
    fn escape_then_parse_is_identity() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ\u{7f}😀";
        let doc = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn resolves_every_standard_escape() {
        let j = Json::parse(r#""\"\\\/\b\f\n\r\té😀\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("\"\\/\u{8}\u{c}\n\r\té😀😀"));
        for bad in [r#""\ud83d""#, r#""\ude00""#, r#""\u12""#, r#""\u+fff""#, r#""\x""#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1} x",
            "\"unterminated",
            "tru",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            "NaN",
            "{\"a\" 1}",
            "{1:2}",
            "\"raw\ttab\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn floats_parse_with_exponents() {
        let j = Json::parse("[0.5,-3.25,1e3,-0,2E-2]").unwrap();
        let a = j.as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(0.5));
        assert_eq!(a[1].as_f64(), Some(-3.25));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(a[3].as_f64(), Some(0.0));
        assert_eq!(a[4].as_f64(), Some(0.02));
        assert_eq!(a[2].as_u64(), None, "1e3 is a float, not an exact integer");
    }

    #[test]
    fn non_finite_numbers_are_located_errors() {
        let doc = "{\"v\":1,\"seconds\":1e999}";
        let err = Json::parse(doc).expect_err("1e999 overflows f64");
        assert_eq!(err.byte, doc.find("1e999").unwrap(), "{err}");
        assert!(err.msg.contains("not a finite"), "{err}");
        assert!(Json::parse("-1e999").is_err());
        // Underflow to zero is finite, and so is the largest f64.
        assert_eq!(Json::parse("1e-999").unwrap().as_f64(), Some(0.0));
        assert_eq!(Json::parse("1.7976931348623157e308").unwrap().as_f64(), Some(f64::MAX));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok(), "the bound itself parses");
        let err = Json::parse(&nest(MAX_DEPTH + 1)).expect_err("one level past the bound");
        assert_eq!((err.line, err.column, err.byte), (1, MAX_DEPTH + 1, MAX_DEPTH), "{err}");
        assert!(err.msg.contains("nesting deeper than 64"), "{err}");
        // Far past the bound is refused the same way, not a stack overflow.
        let deep = format!("{{\"a\":{}}}", "[".repeat(40_000));
        assert!(Json::parse(&deep).expect_err("deep").msg.contains("nesting"));
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn errors_name_line_and_column() {
        let err = Json::parse("{\n  \"a\": 1,\n  \"b\": oops\n}").expect_err("bad value");
        assert_eq!((err.line, err.column), (3, 8), "{err}");
        assert_eq!(err.to_string(), "line 3, column 8 (byte 19): expected a value");
    }

    #[test]
    fn cursor_reads_a_schema_without_a_tree() {
        let mut cur = Cursor::new(" { \"n\" : 42 , \"s\":\"a\\nb\" } ");
        cur.expect(b'{').unwrap();
        assert!(matches!(cur.read_str().unwrap(), Cow::Borrowed("n")));
        cur.expect(b':').unwrap();
        assert_eq!(cur.read_u64().unwrap(), 42);
        assert!(cur.eat(b','));
        assert_eq!(cur.read_str().unwrap(), "s");
        cur.expect(b':').unwrap();
        assert!(matches!(cur.read_str().unwrap(), Cow::Owned(s) if s == "a\nb"));
        assert!(!cur.eat(b','));
        cur.expect(b'}').unwrap();
        cur.finish().unwrap();
        for text in ["-1", "1.5", "1e3"] {
            let err = Cursor::new(text).read_u64().unwrap_err();
            assert!(err.msg.contains("is not an unsigned integer"), "{err}");
        }
    }
}
