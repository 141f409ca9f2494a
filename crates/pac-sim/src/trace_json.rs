//! The trace interchange format: a JSON array of objects with `cycle`,
//! `addr`, `op`, `kind`, `data_bytes`, and `core` fields, unchanged from
//! the original serde-derived one.
//!
//! The reader is a schema loop on the workspace's one JSON cursor
//! ([`pac_types::json::Cursor`]); it builds no value tree, so a
//! multi-megabyte capture is read in one pass. It accepts any key order,
//! whitespace and standard string escapes, so traces produced by
//! external tools still load.
//!
//! Malformed input never panics: every failure is a [`JsonError`]
//! naming the offending line and column, so a hand-edited or truncated
//! trace file reports *where* it broke. Entry cycles must be
//! non-decreasing, as replay's due window assumes and as captured
//! traces are; an entry stamped before its predecessor is refused with
//! an error naming it. A `core` or `data_bytes` value past its field's
//! width (u8, u32) is refused too, never truncated.

use crate::system::TraceEntry;
use pac_types::json::{Cursor, JsonError};
use pac_types::{Op, RequestKind};
use std::fmt::Write as _;

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
pub fn from_json(text: &str) -> Result<Vec<TraceEntry>, JsonError> {
    let mut cur = Cursor::new(text);
    let mut out: Vec<TraceEntry> = Vec::new();
    cur.expect(b'[')?;
    if !cur.eat(b']') {
        loop {
            let at = cur.skip_ws();
            let entry = entry(&mut cur)?;
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
                    return Err(cur.error_at(at, msg));
                }
            }
            out.push(entry);
            if !cur.eat(b',') {
                cur.expect(b']')?;
                break;
            }
        }
    }
    cur.finish()?;
    Ok(out)
}

/// One `{...}` trace entry: every field, in any order.
fn entry(cur: &mut Cursor) -> Result<TraceEntry, JsonError> {
    cur.expect(b'{')?;
    let (mut cycle, mut addr, mut data_bytes, mut core) = (None, None, None, None);
    let (mut op, mut kind) = (None, None);
    loop {
        let at = cur.skip_ws();
        let key = cur.read_str()?;
        cur.expect(b':')?;
        match key.as_ref() {
            "cycle" => cycle = Some(cur.read_u64()?),
            "addr" => addr = Some(cur.read_u64()?),
            "data_bytes" => data_bytes = Some(narrow(cur, "data_bytes", u32::MAX.into())?),
            "core" => core = Some(narrow(cur, "core", u8::MAX.into())?),
            "op" => {
                let at = cur.skip_ws();
                op = Some(match cur.read_str()?.as_ref() {
                    "Load" => Op::Load,
                    "Store" => Op::Store,
                    other => return Err(cur.error_at(at, format!("unknown op '{other}'"))),
                })
            }
            "kind" => {
                let at = cur.skip_ws();
                kind = Some(match cur.read_str()?.as_ref() {
                    "Miss" => RequestKind::Miss,
                    "WriteBack" => RequestKind::WriteBack,
                    "Atomic" => RequestKind::Atomic,
                    "Fence" => RequestKind::Fence,
                    other => return Err(cur.error_at(at, format!("unknown kind '{other}'"))),
                })
            }
            other => return Err(cur.error_at(at, format!("unknown field '{other}'"))),
        }
        if !cur.eat(b',') {
            cur.expect(b'}')?;
            break;
        }
    }
    match (cycle, addr, op, kind, data_bytes, core) {
        (Some(cycle), Some(addr), Some(op), Some(kind), Some(data_bytes), Some(core)) => {
            Ok(TraceEntry { cycle, addr, op, kind, data_bytes, core })
        }
        _ => {
            let at = cur.skip_ws();
            Err(cur.error_at(at, "trace entry missing a required field"))
        }
    }
}

/// A number for a field narrower than u64; a value past `max` (the
/// field type's maximum) is a located error naming the field.
fn narrow<T: TryFrom<u64>>(cur: &mut Cursor, field: &str, max: u64) -> Result<T, JsonError> {
    let at = cur.skip_ws();
    let value = cur.read_u64()?;
    T::try_from(value)
        .map_err(|_| cur.error_at(at, format!("{field} {value} out of range (at most {max})")))
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
