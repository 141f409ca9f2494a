//! Chrome `trace_event` JSON export, loadable at <https://ui.perfetto.dev>.
//!
//! Track layout (process → threads):
//!
//! | pid | process     | threads                                        |
//! |-----|-------------|------------------------------------------------|
//! | 1   | `cores`     | one per core (issue / hit / miss instants)     |
//! | 2   | `coalescer` | aggregator, decoder, assembler, maq, mshr,     |
//! |     |             | bypass, dispatch                               |
//! | 3   | `hmc`       | link (submits/responses/faults), one per vault |
//! | 4   | `counters`  | counter tracks (`C` events)                    |
//!
//! Timestamps are simulated CPU cycles written directly into `ts`
//! (Perfetto displays them as microseconds; the scale is uniform so
//! relative timing reads correctly). Stage batches and vault service
//! windows are complete (`X`) events with a duration; everything else
//! is a thread-scoped instant (`i`).

use crate::event::{EventKind, TraceEvent};
use crate::recorder::CounterSample;
use pac_types::json::escape;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const PID_CORES: u32 = 1;
const PID_COALESCER: u32 = 2;
const PID_HMC: u32 = 3;
const PID_COUNTERS: u32 = 4;

const TID_AGGREGATOR: u32 = 1;
const TID_DECODER: u32 = 2;
const TID_ASSEMBLER: u32 = 3;
const TID_MAQ: u32 = 4;
const TID_MSHR: u32 = 5;
const TID_BYPASS: u32 = 6;
const TID_DISPATCH: u32 = 7;

const TID_HMC_LINK: u32 = 0;
/// Vault `v` renders on thread `TID_VAULT_BASE + v` of the hmc process.
const TID_VAULT_BASE: u32 = 100;

struct Emitted {
    pid: u32,
    tid: u32,
    /// `ph` phase character: `i` instant or `X` complete.
    ph: char,
    ts: u64,
    dur: u64,
    args: String,
}

fn place(ev: &TraceEvent) -> Emitted {
    let mut e = Emitted {
        pid: PID_COALESCER,
        tid: TID_AGGREGATOR,
        ph: 'i',
        ts: ev.cycle,
        dur: 0,
        args: String::new(),
    };
    match &ev.kind {
        EventKind::CoreIssue { core, addr, is_store } => {
            e.pid = PID_CORES;
            e.tid = *core;
            let _ = write!(e.args, "\"addr\":{},\"store\":{}", addr, is_store);
        }
        EventKind::L1Hit { core, addr }
        | EventKind::L2Hit { core, addr }
        | EventKind::CacheMiss { core, addr } => {
            e.pid = PID_CORES;
            e.tid = *core;
            let _ = write!(e.args, "\"addr\":{}", addr);
        }
        EventKind::StreamAllocated { page } | EventKind::StreamMerged { page } => {
            e.tid = TID_AGGREGATOR;
            let _ = write!(e.args, "\"page\":{}", page);
        }
        EventKind::StreamFlushed { page, raw_count, cause } => {
            e.tid = TID_AGGREGATOR;
            let _ = write!(
                e.args,
                "\"page\":{},\"raw_count\":{},\"cause\":\"{}\"",
                page,
                raw_count,
                cause.label()
            );
        }
        EventKind::NetworkBypass { addr } => {
            e.tid = TID_BYPASS;
            let _ = write!(e.args, "\"addr\":{}", addr);
        }
        EventKind::Stage2Batch { start, latency } => {
            e.tid = TID_DECODER;
            e.ph = 'X';
            e.ts = *start;
            e.dur = *latency;
            let _ = write!(e.args, "\"latency\":{}", latency);
        }
        EventKind::Stage3Batch { start, latency } => {
            e.tid = TID_ASSEMBLER;
            e.ph = 'X';
            e.ts = *start;
            e.dur = *latency;
            let _ = write!(e.args, "\"latency\":{}", latency);
        }
        EventKind::MaqPush { depth } | EventKind::MaqPop { depth } => {
            e.tid = TID_MAQ;
            let _ = write!(e.args, "\"depth\":{}", depth);
        }
        EventKind::MshrAllocated { dispatch_id, addr, bytes } => {
            e.tid = TID_MSHR;
            let _ = write!(e.args, "\"id\":{},\"addr\":{},\"bytes\":{}", dispatch_id, addr, bytes);
        }
        EventKind::MshrMerged { addr } => {
            e.tid = TID_MSHR;
            let _ = write!(e.args, "\"addr\":{}", addr);
        }
        EventKind::MshrReleased { dispatch_id, raw_count } => {
            e.tid = TID_MSHR;
            let _ = write!(e.args, "\"id\":{},\"raw_count\":{}", dispatch_id, raw_count);
        }
        EventKind::Dispatch { dispatch_id, addr, bytes, raw_count } => {
            e.tid = TID_DISPATCH;
            let _ = write!(
                e.args,
                "\"id\":{},\"addr\":{},\"bytes\":{},\"raw_count\":{}",
                dispatch_id, addr, bytes, raw_count
            );
        }
        EventKind::HmcSubmit { id, addr, bytes, vault, link, remote } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(
                e.args,
                "\"id\":{},\"addr\":{},\"bytes\":{},\"vault\":{},\"link\":{},\"remote\":{}",
                id, addr, bytes, vault, link, remote
            );
        }
        EventKind::VaultService { id, vault, bank, arrival, data_ready } => {
            e.pid = PID_HMC;
            e.tid = TID_VAULT_BASE + vault;
            e.ph = 'X';
            e.ts = *arrival;
            e.dur = data_ready.saturating_sub(*arrival);
            let _ = write!(e.args, "\"id\":{},\"bank\":{}", id, bank);
        }
        EventKind::HmcResponse { id, addr, latency } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"id\":{},\"addr\":{},\"latency\":{}", id, addr, latency);
        }
        EventKind::FaultInjected { id, class } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"id\":{},\"class\":\"{}\"", id, class.label());
        }
        EventKind::OracleViolation { detail } => {
            e.pid = PID_COALESCER;
            e.tid = TID_DISPATCH;
            let _ = write!(e.args, "\"detail\":\"{}\"", escape(detail));
        }
        EventKind::WatchdogFired { seq, id, attempt } => {
            e.tid = TID_DISPATCH;
            let _ = write!(e.args, "\"seq\":{},\"id\":{},\"attempt\":{}", seq, id, attempt);
        }
        EventKind::RetryIssued { seq, id, attempt } => {
            e.tid = TID_DISPATCH;
            let _ = write!(e.args, "\"seq\":{},\"id\":{},\"attempt\":{}", seq, id, attempt);
        }
        EventKind::DuplicateDropped { seq, id } => {
            e.tid = TID_DISPATCH;
            let _ = write!(e.args, "\"seq\":{},\"id\":{}", seq, id);
        }
        EventKind::PoisonDetected { seq, id, echoed_addr, expected_addr } => {
            e.tid = TID_DISPATCH;
            let _ = write!(
                e.args,
                "\"seq\":{},\"id\":{},\"echoed\":{},\"expected\":{}",
                seq, id, echoed_addr, expected_addr
            );
        }
        EventKind::CrcError { id, link } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"id\":{},\"link\":{}", id, link);
        }
        EventKind::LinkRetry { id, link, attempt } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"id\":{},\"link\":{},\"attempt\":{}", id, link, attempt);
        }
        EventKind::LinkDegrade { link, retired } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(
                e.args,
                "\"link\":{},\"mode\":\"{}\"",
                link,
                if *retired { "retired" } else { "half-width" }
            );
        }
        EventKind::EccCorrect { id, channel, bank } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"id\":{},\"channel\":{},\"bank\":{}", id, channel, bank);
        }
        EventKind::EccPoison { id, channel, bank } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"id\":{},\"channel\":{},\"bank\":{}", id, channel, bank);
        }
        EventKind::Scrub { channel, bank, delay } => {
            e.pid = PID_HMC;
            e.tid = TID_HMC_LINK;
            let _ = write!(e.args, "\"channel\":{},\"bank\":{},\"delay\":{}", channel, bank, delay);
        }
    }
    e
}

fn meta(out: &mut String, pid: u32, tid: Option<u32>, name: &str) {
    match tid {
        None => {
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"",
                pid
            );
        }
        Some(tid) => {
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"",
                pid, tid
            );
        }
    }
    let _ = writeln!(out, "{}\"}}}},", escape(name));
}

/// Serialize events and counter samples as Chrome `trace_event` JSON
/// (object form, `{"traceEvents":[...]}`), ready for Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent], counters: &[CounterSample]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + counters.len() * 72 + 4096);
    out.push_str("{\"traceEvents\":[\n");

    // Metadata first: name every process and thread we will reference.
    meta(&mut out, PID_CORES, None, "cores");
    meta(&mut out, PID_COALESCER, None, "coalescer");
    meta(&mut out, PID_HMC, None, "hmc");
    meta(&mut out, PID_COUNTERS, None, "counters");
    for (tid, name) in [
        (TID_AGGREGATOR, "aggregator"),
        (TID_DECODER, "decoder"),
        (TID_ASSEMBLER, "assembler"),
        (TID_MAQ, "maq"),
        (TID_MSHR, "mshr"),
        (TID_BYPASS, "bypass"),
        (TID_DISPATCH, "dispatch"),
    ] {
        meta(&mut out, PID_COALESCER, Some(tid), name);
    }
    meta(&mut out, PID_HMC, Some(TID_HMC_LINK), "link");
    let mut cores: BTreeSet<u32> = BTreeSet::new();
    let mut vaults: BTreeSet<u32> = BTreeSet::new();
    for ev in events {
        match &ev.kind {
            EventKind::CoreIssue { core, .. }
            | EventKind::L1Hit { core, .. }
            | EventKind::L2Hit { core, .. }
            | EventKind::CacheMiss { core, .. } => {
                cores.insert(*core);
            }
            EventKind::VaultService { vault, .. } => {
                vaults.insert(*vault);
            }
            _ => {}
        }
    }
    for core in cores {
        meta(&mut out, PID_CORES, Some(core), &format!("core {}", core));
    }
    for vault in vaults {
        meta(&mut out, PID_HMC, Some(TID_VAULT_BASE + vault), &format!("vault {}", vault));
    }

    let mut first = true;
    for ev in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let e = place(ev);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            ev.kind.name(),
            e.ph,
            e.ts,
            e.pid,
            e.tid
        );
        if e.ph == 'X' {
            let _ = write!(out, ",\"dur\":{}", e.dur);
        }
        if e.ph == 'i' {
            // Thread-scoped instant.
            out.push_str(",\"s\":\"t\"");
        }
        if e.args.is_empty() {
            out.push('}');
        } else {
            let _ = write!(out, ",\"args\":{{{}}}}}", e.args);
        }
    }

    for c in counters {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"value\":{}}}}}",
            c.kind.label(),
            c.cycle,
            PID_COUNTERS,
            c.value
        );
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlushCause;
    use crate::recorder::CounterKind;
    use pac_types::FaultClass;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 1,
                kind: EventKind::CoreIssue { core: 2, addr: 0x40, is_store: false },
            },
            TraceEvent {
                cycle: 3,
                kind: EventKind::StreamFlushed { page: 9, raw_count: 4, cause: FlushCause::Fence },
            },
            TraceEvent { cycle: 10, kind: EventKind::Stage2Batch { start: 4, latency: 6 } },
            TraceEvent {
                cycle: 20,
                kind: EventKind::VaultService { id: 5, vault: 7, bank: 1, arrival: 12, data_ready: 20 },
            },
            TraceEvent {
                cycle: 25,
                kind: EventKind::FaultInjected { id: 5, class: FaultClass::DelayResponse },
            },
            TraceEvent {
                cycle: 26,
                kind: EventKind::OracleViolation { detail: "bad \"echo\"".into() },
            },
        ]
    }

    #[test]
    fn output_is_wrapped_and_contains_tracks() {
        let counters = [CounterSample { cycle: 8, kind: CounterKind::MaqDepth, value: 3 }];
        let json = chrome_trace_json(&sample_events(), &counters);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Metadata names every referenced track.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"vault 7\""));
        assert!(json.contains("\"name\":\"core 2\""));
        // Complete event carries a duration.
        assert!(json.contains("\"name\":\"stage2_batch\",\"ph\":\"X\",\"ts\":4"));
        assert!(json.contains("\"dur\":6"));
        // Counter track.
        assert!(json.contains("\"name\":\"maq_depth\",\"ph\":\"C\""));
        // Instants are thread-scoped.
        assert!(json.contains("\"s\":\"t\""));
    }

    #[test]
    fn strings_are_escaped() {
        let json = chrome_trace_json(&sample_events(), &[]);
        assert!(json.contains("bad \\\"echo\\\""));
    }

    #[test]
    fn empty_trace_is_still_valid_wrapper() {
        let json = chrome_trace_json(&[], &[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
