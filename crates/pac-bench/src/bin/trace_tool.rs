//! Capture, inspect, and replay raw request traces.
//!
//! ```console
//! $ trace_tool capture HPCG hpcg.trace.json          # record a trace
//! $ trace_tool --quick capture HPCG hpcg.trace.json  # CI smoke budget
//! $ trace_tool info hpcg.trace.json                  # summarize it
//! $ trace_tool replay hpcg.trace.json pac            # evaluate a coalescer
//! $ trace_tool replay hpcg.trace.json mshr-dmc
//! ```
//!
//! Traces are JSON arrays of `TraceEntry` records, so they can also be
//! produced by external tools (e.g. a real Spike run post-processed into
//! this schema) and evaluated against this repository's coalescers.
//!
//! A usage error (an unknown flag, command, bench or coalescer, a wrong
//! argument count, or a malformed `PAC_ACCESSES`) exits 2 before
//! anything is read or written; an I/O error exits 1.

use pac_bench::error::{self, BenchError};
use pac_bench::Harness;
use pac_sim::{replay, CoalescerKind, TraceEntry};
use pac_types::cli::{self, Args, Flags};
use pac_types::SimConfig;
use pac_workloads::Bench;
use std::path::PathBuf;

const USAGE: &str = "usage:\n  trace_tool [--quick] capture <BENCH> <out.json>\n  \
                     trace_tool info <trace.json>\n  \
                     trace_tool replay <trace.json> <raw|mshr-dmc|pac>";

const FLAGS: Flags = Flags { switches: &["--quick"], valued: &[], modes: &[] };

fn load(path: &str) -> Result<Vec<TraceEntry>, BenchError> {
    let data = error::read_to_string(path)?;
    pac_sim::trace_json::from_json(&data)
        .map_err(|e| BenchError::Parse(PathBuf::from(path), e.to_string()))
}

fn main() {
    let args = FLAGS.from_env(USAGE);
    match run(&args) {
        Ok(()) => {}
        Err(BenchError::Usage(e)) => cli::usage_exit(&e, USAGE),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), BenchError> {
    let commands = [("capture", 3), ("info", 2), ("replay", 3)];
    let pos = args.positionals(1..=3)?;
    let (cmd, count) = cli::lookup("command", &pos[0], commands, |(name, _)| name)?;
    let pos = args.positionals(count..=count)?;
    match cmd {
        "capture" => {
            let bench = cli::lookup("bench", &pos[1], Bench::ALL, Bench::name)?;
            let mut h = Harness::from_env(args.has("--quick"))?;
            let trace = h.trace(bench).to_vec();
            let out = &pos[2];
            error::write(out, pac_sim::trace_json::to_json(&trace))?;
            println!("captured {} requests from {} into {out}", trace.len(), bench.name());
        }
        "info" => {
            let trace = load(&pos[1])?;
            let lines: std::collections::HashSet<u64> =
                trace.iter().map(|e| e.addr & !63).collect();
            let pages: std::collections::HashSet<u64> =
                trace.iter().map(|e| e.addr >> 12).collect();
            let stores = trace.iter().filter(|e| e.op == pac_types::Op::Store).count();
            let span = trace.last().map(|e| e.cycle).unwrap_or(0)
                - trace.first().map(|e| e.cycle).unwrap_or(0);
            println!("requests        : {}", trace.len());
            println!("distinct lines  : {}", lines.len());
            println!("distinct pages  : {}", pages.len());
            println!("store fraction  : {:.1}%", stores as f64 / trace.len().max(1) as f64 * 100.0);
            println!("cycle span      : {span}");
        }
        _ => {
            let kind = cli::lookup("coalescer", &pos[2], CoalescerKind::ALL, CoalescerKind::label)?;
            let trace = load(&pos[1])?;
            let m = replay(&trace, kind, &SimConfig::default());
            println!("coalescer             : {}", m.coalescer);
            println!("raw requests          : {}", m.raw_requests);
            println!("dispatched requests   : {}", m.dispatched_requests);
            println!("coalescing efficiency : {:.2}%", m.coalescing_efficiency * 100.0);
            println!("transaction efficiency: {:.2}%", m.transaction_efficiency * 100.0);
            println!("bank conflicts        : {}", m.bank_conflicts);
            println!("avg memory latency    : {:.1} ns", m.avg_mem_latency_ns);
            println!("energy                : {:.1} nJ", m.energy.total_pj() / 1000.0);
        }
    }
    Ok(())
}
