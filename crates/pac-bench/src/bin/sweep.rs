//! Design-space exploration: sweep PAC's configuration knobs over a
//! benchmark trace and print the efficiency/latency/energy surface.
//!
//! ```console
//! $ sweep GS timeout 4 8 16 32 64
//! $ sweep STREAM streams 4 8 16 32
//! $ sweep EP mshrs 8 16 32 64
//! $ sweep MG degree 0 2 4 8          # prefetch depth (re-captures)
//! $ sweep --quick GS timeout 4 16    # CI smoke budget
//! ```
//!
//! Values are decimal or `0x` hex. An unknown bench or knob, or a value
//! that does not fit its knob, exits 2 before the table starts.

use pac_bench::Harness;
use pac_sim::{replay, run_bench, CoalescerKind, ExperimentConfig};
use pac_types::cli::{self, Args, Flags};
use pac_workloads::Bench;

const USAGE: &str = "usage: sweep [--quick] <BENCH> <timeout|streams|mshrs|degree> <value>...";

const FLAGS: Flags = Flags { switches: &["--quick"], valued: &[], modes: &[] };

/// The bench, the knob and every value to sweep it over, each value
/// range-checked against the knob's field.
fn plan(args: &Args) -> Result<(Bench, &'static str, Vec<u64>), String> {
    let pos = args.positionals(3..)?;
    let bench = cli::lookup("bench", &pos[0], Bench::ALL, Bench::name)?;
    let knob = cli::lookup("knob", &pos[1], ["timeout", "streams", "mshrs", "degree"], |k| k)?;
    let values = pos[2..].iter().map(|v| match knob {
        "streams" | "mshrs" => cli::int::<usize>(knob, v).map(|n| n as u64),
        "degree" => cli::int::<u32>(knob, v).map(u64::from),
        _ => cli::int::<u64>(knob, v),
    });
    Ok((bench, knob, values.collect::<Result<_, _>>()?))
}

fn main() {
    let args = FLAGS.from_env(USAGE);
    let (bench, knob, values) = plan(&args).unwrap_or_else(|e| cli::usage_exit(&e, USAGE));
    let mut h = Harness::from_env(args.has("--quick"))
        .unwrap_or_else(|e| cli::usage_exit(&e.to_string(), USAGE));
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>9} {:>12}",
        "knob", "value", "eff %", "txeff %", "conflicts", "lat ns", "energy nJ"
    );
    for &v in &values {
        let mut cfg = h.cfg.sim;
        // `plan` checked every value against its field's type.
        let m = match knob {
            "timeout" => {
                cfg.coalescer.timeout_cycles = v;
                replay(h.trace(bench), CoalescerKind::Pac, &cfg)
            }
            "streams" => {
                cfg.coalescer.streams = v as usize;
                replay(h.trace(bench), CoalescerKind::Pac, &cfg)
            }
            "mshrs" => {
                cfg.coalescer.mshrs = v as usize;
                cfg.coalescer.maq_entries = v as usize;
                replay(h.trace(bench), CoalescerKind::Pac, &cfg)
            }
            _ => {
                // Prefetch depth changes the *trace*: re-capture.
                let mut ecfg = ExperimentConfig { capture_trace: true, ..h.cfg };
                ecfg.sim.prefetch_degree = v as u32;
                let (_, trace) = run_bench(bench, CoalescerKind::Raw, &ecfg);
                replay(&trace, CoalescerKind::Pac, &h.cfg.sim)
            }
        };
        println!(
            "{:<10} {:>10} {:>8.2} {:>8.2} {:>10} {:>9.1} {:>12.1}",
            knob,
            v,
            m.coalescing_efficiency * 100.0,
            m.transaction_efficiency * 100.0,
            m.bank_conflicts,
            m.avg_mem_latency_ns,
            m.energy.total_pj() / 1000.0,
        );
    }
}
