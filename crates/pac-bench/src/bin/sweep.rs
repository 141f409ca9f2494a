//! Design-space exploration: sweep PAC's configuration knobs over a
//! benchmark trace and print the efficiency/latency/energy surface.
//!
//! ```console
//! $ sweep GS timeout 4 8 16 32 64
//! $ sweep STREAM streams 4 8 16 32
//! $ sweep EP mshrs 8 16 32 64
//! $ sweep MG degree 0 2 4 8          # prefetch depth (re-captures)
//! $ sweep --quick GS timeout 4 16    # CI smoke budget (also PAC_QUICK=1)
//! ```

use pac_bench::Harness;
use pac_sim::{replay, run_bench, CoalescerKind, ExperimentConfig};
use pac_workloads::Bench;

fn usage() -> ! {
    eprintln!("usage: sweep [--quick] <BENCH> <timeout|streams|mshrs|degree> <value>...");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = {
        let before = args.len();
        args.retain(|a| a != "--quick");
        args.len() != before
    };
    if args.len() < 3 {
        usage();
    }
    let Some(bench) = Bench::from_name(&args[0]) else {
        eprintln!(
            "unknown benchmark '{}'; known: {}",
            args[0],
            Bench::ALL.map(|b| b.name()).join(", ")
        );
        std::process::exit(2);
    };
    let knob = args[1].as_str();
    let values: Vec<u64> = args[2..]
        .iter()
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .collect();

    let mut h = Harness::from_env(quick).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>9} {:>12}",
        "knob", "value", "eff %", "txeff %", "conflicts", "lat ns", "energy nJ"
    );
    for &v in &values {
        let mut cfg = h.cfg.sim;
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
            "degree" => {
                // Prefetch depth changes the *trace*: re-capture.
                let mut ecfg = ExperimentConfig { capture_trace: true, ..h.cfg };
                ecfg.sim.prefetch_degree = v as u32;
                let (_, trace) = run_bench(bench, CoalescerKind::Raw, &ecfg);
                replay(&trace, CoalescerKind::Pac, &h.cfg.sim)
            }
            _ => usage(),
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
