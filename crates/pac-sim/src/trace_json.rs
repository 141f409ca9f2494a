//! Self-contained JSON (de)serialization for trace files.
//!
//! The interchange format is unchanged from the original serde-derived
//! one — a JSON array of objects with `cycle`, `addr`, `op`, `kind`,
//! `data_bytes`, and `core` fields — but the implementation is
//! hand-rolled so the workspace carries no external serialization
//! dependency. The parser accepts arbitrary key order and whitespace,
//! so traces produced by external tools still load.
//!
//! Malformed input never panics: every failure surfaces as a
//! [`TraceJsonError`] naming the offending line and column, so a
//! hand-edited or truncated trace file reports *where* it broke. Entry
//! cycles must be non-decreasing, as replay's due window assumes and as
//! captured traces are; an entry stamped before its predecessor is
//! refused with an error naming it. A `core` or `data_bytes` value past
//! its field's width (u8, u32) is refused too, never truncated.

use crate::system::TraceEntry;
use pac_types::{Op, RequestKind};
use std::fmt;
use std::fmt::Write as _;

/// A parse failure, located in the source text.
///
/// `line` and `column` are 1-based and computed from the byte offset at
/// error-construction time, so the cost is paid only on the failure
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceJsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (byte within the line) of the offending byte.
    pub column: usize,
    /// Absolute byte offset of the error.
    pub byte: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TraceJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace json error at line {}, column {} (byte {}): {}",
            self.line, self.column, self.byte, self.msg
        )
    }
}

impl std::error::Error for TraceJsonError {}

/// Serialize a trace to the JSON interchange format.
pub fn to_json(trace: &[TraceEntry]) -> String {
    let mut out = String::with_capacity(trace.len() * 96 + 2);
    out.push('[');
    for (i, e) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let op = match e.op {
            Op::Load => "Load",
            Op::Store => "Store",
        };
        let kind = match e.kind {
            RequestKind::Miss => "Miss",
            RequestKind::WriteBack => "WriteBack",
            RequestKind::Atomic => "Atomic",
            RequestKind::Fence => "Fence",
        };
        let _ = write!(
            out,
            "{{\"cycle\":{},\"addr\":{},\"op\":\"{op}\",\"kind\":\"{kind}\",\"data_bytes\":{},\"core\":{}}}",
            e.cycle, e.addr, e.data_bytes, e.core
        );
    }
    out.push(']');
    out
}

/// Parse a trace from the JSON interchange format.
pub fn from_json(text: &str) -> Result<Vec<TraceEntry>, TraceJsonError> {
    Parser { bytes: text.as_bytes(), pos: 0 }.parse_trace()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse_trace(&mut self) -> Result<Vec<TraceEntry>, TraceJsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.skip_ws();
            return if self.pos == self.bytes.len() {
                Ok(out)
            } else {
                Err(self.err("trailing data after trace array"))
            };
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let entry = self.parse_entry()?;
            if let Some(prev) = out.last() {
                if entry.cycle < prev.cycle {
                    let msg = format!(
                        "entry {} has cycle {}, below entry {}'s cycle {}: \
                         trace cycles must be non-decreasing",
                        out.len(),
                        entry.cycle,
                        out.len() - 1,
                        prev.cycle
                    );
                    return Err(self.err_at(start, &msg));
                }
            }
            out.push(entry);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            break;
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after trace array"));
        }
        Ok(out)
    }

    fn parse_entry(&mut self) -> Result<TraceEntry, TraceJsonError> {
        self.expect(b'{')?;
        let (mut cycle, mut addr, mut data_bytes, mut core) = (None, None, None, None);
        let (mut op, mut kind) = (None, None);
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key.as_str() {
                "cycle" => cycle = Some(self.parse_u64()?),
                "addr" => addr = Some(self.parse_u64()?),
                "data_bytes" => data_bytes = Some(self.parse_bounded("data_bytes", u32::MAX)?),
                "core" => core = Some(self.parse_bounded("core", u8::MAX)?),
                "op" => {
                    op = Some(match self.parse_string()?.as_str() {
                        "Load" => Op::Load,
                        "Store" => Op::Store,
                        other => return Err(self.err(&format!("unknown op '{other}'"))),
                    })
                }
                "kind" => {
                    kind = Some(match self.parse_string()?.as_str() {
                        "Miss" => RequestKind::Miss,
                        "WriteBack" => RequestKind::WriteBack,
                        "Atomic" => RequestKind::Atomic,
                        "Fence" => RequestKind::Fence,
                        other => return Err(self.err(&format!("unknown kind '{other}'"))),
                    })
                }
                other => return Err(self.err(&format!("unknown field '{other}'"))),
            }
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            break;
        }
        match (cycle, addr, op, kind, data_bytes, core) {
            (Some(cycle), Some(addr), Some(op), Some(kind), Some(data_bytes), Some(core)) => {
                Ok(TraceEntry { cycle, addr, op, kind, data_bytes, core })
            }
            _ => Err(self.err("trace entry missing a required field")),
        }
    }

    fn parse_string(&mut self) -> Result<String, TraceJsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                return Err(self.err("escape sequences are not used by this schema"));
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?
                    .to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn parse_u64(&mut self) -> Result<u64, TraceJsonError> {
        self.skip_ws();
        let start = self.pos;
        // Accumulate digits directly — no intermediate UTF-8 round-trip,
        // and overflow is a located error rather than a panic.
        let mut value: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.err("number out of range for u64"))?;
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        Ok(value)
    }

    /// A number for a field narrower than u64; a value past `max` (the
    /// field type's maximum) is a located error naming the field.
    fn parse_bounded<T>(&mut self, field: &str, max: T) -> Result<T, TraceJsonError>
    where
        T: TryFrom<u64> + fmt::Display,
    {
        self.skip_ws();
        let start = self.pos;
        let value = self.parse_u64()?;
        T::try_from(value).map_err(|_| {
            self.err_at(start, &format!("{field} {value} out of range (at most {max})"))
        })
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceJsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn err(&self, msg: &str) -> TraceJsonError {
        self.err_at(self.pos, msg)
    }

    fn err_at(&self, pos: usize, msg: &str) -> TraceJsonError {
        // Locate the offset in (line, column) terms only now, on the
        // cold path; the hot parse loop never tracks line state.
        let upto = pos.min(self.bytes.len());
        let line = 1 + self.bytes[..upto].iter().filter(|&&b| b == b'\n').count();
        let line_start =
            self.bytes[..upto].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        TraceJsonError { line, column: upto - line_start + 1, byte: pos, msg: msg.to_owned() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEntry> {
        vec![
            TraceEntry {
                cycle: 12,
                addr: 0xDEAD_BEEF,
                op: Op::Load,
                kind: RequestKind::Miss,
                data_bytes: 8,
                core: 3,
            },
            TraceEntry {
                cycle: 13,
                addr: 64,
                op: Op::Store,
                kind: RequestKind::WriteBack,
                data_bytes: 64,
                core: 0,
            },
        ]
    }

    #[test]
    fn round_trips() {
        let t = sample();
        assert_eq!(from_json(&to_json(&t)).expect("round trip"), t);
        assert_eq!(from_json("[]").expect("empty trace"), vec![]);
    }

    #[test]
    fn accepts_whitespace_and_key_order() {
        let text = r#" [ { "op" : "Load" , "core" : 1 ,
            "addr" : 256 , "kind" : "Atomic" , "data_bytes" : 4 , "cycle" : 9 } ] "#;
        let t = from_json(text).expect("reordered keys parse");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].addr, 256);
        assert_eq!(t[0].kind, RequestKind::Atomic);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_json("").is_err());
        assert!(from_json("[{}]").is_err());
        assert!(from_json("[{\"cycle\":1}]").is_err());
        assert!(from_json("[] trailing").is_err());
    }

    #[test]
    fn errors_name_the_offending_line_and_column() {
        // The bad token sits on line 3.
        let text = "[\n  {\"cycle\":1,\"addr\":2,\"op\":\"Load\",\"kind\":\"Miss\",\"data_bytes\":4,\"core\":0},\n  {\"cycle\":oops}\n]";
        let err = from_json(text).expect_err("malformed number");
        assert_eq!(err.line, 3, "{err}");
        assert!(err.msg.contains("expected a number"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        // Column points at the bad token, not the line start.
        assert!(err.column > 1, "{err}");
    }

    #[test]
    fn decreasing_cycles_name_the_offending_entry() {
        let entry = |cycle: u64| {
            format!(
                "{{\"cycle\":{cycle},\"addr\":64,\"op\":\"Load\",\"kind\":\"Miss\",\
                 \"data_bytes\":8,\"core\":0}}"
            )
        };
        let text = format!("[\n  {},\n  {},\n  {}\n]", entry(10), entry(10), entry(5));
        let err = from_json(&text).expect_err("decreasing cycle");
        assert_eq!((err.line, err.column), (4, 3), "points at the entry's brace: {err}");
        assert!(err.msg.contains("entry 2 has cycle 5"), "{err}");
        assert!(err.msg.contains("entry 1's cycle 10"), "{err}");
        // Equal cycles are a same-cycle burst, not an error.
        let burst = format!("[{},{}]", entry(10), entry(10));
        assert_eq!(from_json(&burst).expect("equal cycles parse").len(), 2);
    }

    #[test]
    fn oversized_numbers_are_located_errors_not_panics() {
        let text = "[{\"cycle\":99999999999999999999999999,\"addr\":2,\"op\":\"Load\",\
                    \"kind\":\"Miss\",\"data_bytes\":4,\"core\":0}]";
        let err = from_json(text).expect_err("overflowing u64");
        assert!(err.msg.contains("out of range"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn narrow_fields_past_their_bound_are_located_errors() {
        let entry = |data_bytes: u64, core: u64| {
            format!(
                "[{{\"cycle\":1,\"addr\":2,\"op\":\"Load\",\"kind\":\"Miss\",\
                 \"data_bytes\":{data_bytes},\"core\":{core}}}]"
            )
        };
        let text = entry(8, 300);
        let err = from_json(&text).expect_err("core past u8");
        assert_eq!(err.msg, "core 300 out of range (at most 255)", "{err}");
        assert_eq!(err.byte, text.find("300").unwrap(), "points at the number: {err}");
        let text = entry(4_294_967_304, 0);
        let err = from_json(&text).expect_err("data_bytes past u32");
        assert_eq!(err.msg, "data_bytes 4294967304 out of range (at most 4294967295)", "{err}");
        assert_eq!(err.byte, text.find("4294967304").unwrap(), "points at the number: {err}");
        // The bounds themselves still parse.
        let t = from_json(&entry(u64::from(u32::MAX), 255)).expect("values at the bound");
        assert_eq!((t[0].data_bytes, t[0].core), (u32::MAX, 255));
    }
}
