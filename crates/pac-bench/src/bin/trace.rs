//! The `pac-bench trace` subcommand: cycle-stamped structured tracing.
//!
//! ```console
//! $ trace EP pac ep.trace.json            # one cell, full trace
//! $ trace --all traces/                   # all 14 benchmarks, PAC
//! $ trace --all --threads 4 traces/       # fan the cells across 4 workers
//! $ trace --fault corrupt-addr STREAM pac # flight recorder + fault dump
//! $ trace --quick EP pac out.json         # small run (CI smoke)
//! $ trace --guard                         # disabled-path throughput guard
//! $ trace --backend hbm --guard           # the same over the HBM rows
//! ```
//!
//! Full-trace runs write Chrome `trace_event` JSON — open the file at
//! <https://ui.perfetto.dev> or `chrome://tracing`. Every run also
//! prints the human-readable report: oracle verdict, flight-recorder
//! dumps (with the offending request's event history), and the
//! per-stage latency histograms.

use pac_bench::error::{self, BenchError};
use pac_bench::runner::{
    backend_from_args, fault_class_from_name, progress_from_args, ras_from_args,
    threads_from_args,
};
use pac_bench::trace_cmd::{run_cell, throughput_guard};
use pac_bench::{reference, ParallelRunner};
use pac_obs::{CellId, ProgressSink};
use pac_sim::{CoalescerKind, ExperimentConfig};
use pac_types::{BackendKind, FaultClass, FaultPlan, SimConfig, TraceConfig};
use pac_workloads::Bench;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace [--quick] [--backend hmc|hbm] [--progress <path|->] \
         <BENCH> <raw|mshr-dmc|pac> [out.json]\n  \
         trace [--quick] [--backend hmc|hbm] --all [--threads <T>] [out-dir]\n  \
         trace [--quick] [--backend hmc|hbm] --fault \
         <drop-response|duplicate-response|delay-response|corrupt-addr> \
         <BENCH> <raw|mshr-dmc|pac> [out.json]\n  \
         trace [--quick] [--backend hmc|hbm] --ras <class>[:key=value,...] \
         <BENCH> <raw|mshr-dmc|pac> [out.json]\n  \
         trace [--quick] [--backend hmc|hbm] --guard"
    );
    std::process::exit(2);
}

fn parse_bench(s: &str) -> Bench {
    Bench::from_name(s).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark '{s}'; known: {}",
            Bench::ALL.map(|b| b.name()).join(", ")
        );
        std::process::exit(2);
    })
}

fn parse_kind(s: &str) -> CoalescerKind {
    match s {
        "raw" => CoalescerKind::Raw,
        "mshr-dmc" => CoalescerKind::MshrDmc,
        "pac" => CoalescerKind::Pac,
        _ => {
            eprintln!("unknown coalescer '{s}'; known: raw, mshr-dmc, pac");
            std::process::exit(2);
        }
    }
}

fn parse_fault(s: &str) -> FaultClass {
    fault_class_from_name(s).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn write_out(path: &str, json: &str) -> Result<(), BenchError> {
    error::write(path, json)?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), BenchError> {
    pac_types::sigwatch::install();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = {
        let before = args.len();
        args.retain(|a| a != "--quick");
        args.len() != before
    };
    // `--threads` fans `--all` cells across workers; each traced system
    // runs serially, so the parallelism is purely across independent
    // cells.
    let runner = match threads_from_args(&args) {
        Ok(n) => ParallelRunner::new(n),
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        args.drain(i..args.len().min(i + 2));
    }
    args.retain(|a| !a.starts_with("--threads="));
    let backend = match backend_from_args(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        args.drain(i..args.len().min(i + 2));
    }
    args.retain(|a| !a.starts_with("--backend="));
    // `--ras <plan>` arms the hardware RAS layer on whatever cell the
    // positional arguments select. Parsed here (typed usage errors),
    // validated against the active backend's topology below once the
    // device config is known.
    let ras = match ras_from_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--ras") {
        args.drain(i..args.len().min(i + 2));
    }
    args.retain(|a| !a.starts_with("--ras="));
    let progress = match progress_from_args(&args) {
        Ok(None) => ProgressSink::disabled(),
        Ok(Some(arg)) => ProgressSink::create(&arg).unwrap_or_else(|e| {
            eprintln!("--progress {arg}: {e}");
            usage();
        }),
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--progress") {
        args.drain(i..args.len().min(i + 2));
    }
    args.retain(|a| !a.starts_with("--progress="));
    let mut cfg = if quick {
        // Small enough for CI, large enough to populate every stage
        // histogram and exercise the counter tracks.
        ExperimentConfig { accesses_per_core: 2_000, ..Default::default() }
    } else {
        ExperimentConfig::default()
    };
    cfg.sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(backend) };
    // Reject a plan the device would refuse (wrong substrate for the
    // class, out-of-range target link) before any run starts.
    let ras = match ras {
        Some(plan) => {
            let links = match backend {
                BackendKind::Hmc => cfg.sim.hmc.links,
                BackendKind::Hbm => cfg.sim.hbm.channels,
            };
            match plan.validate_for(backend, links) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("{}", BenchError::Usage(e.to_string()));
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };

    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["--guard"] => {
            if ras.is_some() {
                eprintln!("--guard proves the disarmed path; drop --ras");
                std::process::exit(2);
            }
            let mut rows = reference::committed(backend)
                .map_err(|e| BenchError::Parse(PathBuf::from(reference::PATH), e))?;
            // Quick mode samples a handful of cells; the full guard
            // replays every cell of the backend. The tolerance is the
            // ±2% budget; quick runs get slack because a truncated
            // sample amplifies per-cell noise.
            let (tolerance, max_cells) = if quick { (0.10, 6) } else { (0.02, rows.len()) };
            rows.truncate(max_cells);
            let report = throughput_guard(&reference::config(backend), &rows, tolerance);
            print!("{}", report.render());
            if !report.passed() {
                std::process::exit(1);
            }
        }
        ["--all", rest @ ..] => {
            let dir = rest.first().copied().unwrap_or("traces");
            error::create_dir_all(dir)?;
            let config_label =
                format!("accesses={} cores={}", cfg.accesses_per_core, cfg.sim.cores);
            progress.campaign_start(
                "trace",
                backend.label(),
                runner.threads(),
                Bench::ALL.len() as u64,
            );
            // Fan the benchmarks across the pool; outputs come back in
            // benchmark order, so the files and reports are identical
            // to the old serial loop at any thread count.
            let (outs, stats) = runner.run_observed(&Bench::ALL, |_, &bench| {
                let t = Instant::now();
                let out =
                    run_cell(bench, CoalescerKind::Pac, &cfg, TraceConfig::full(), None, ras);
                (out, t.elapsed().as_secs_f64())
            });
            for (i, (bench, (out, wall))) in Bench::ALL.iter().zip(&outs).enumerate() {
                // SIGINT/SIGTERM drain point: the compute fan-out above
                // already finished, so stop writing trace files, close
                // the progress stream, and exit 3 (partial output).
                if pac_types::sigwatch::triggered() {
                    eprintln!(
                        "trace: drained on signal after {i}/{} trace file(s)",
                        Bench::ALL.len()
                    );
                    progress.worker_util(&stats);
                    progress.campaign_end();
                    std::process::exit(3);
                }
                let id = CellId {
                    bench: bench.name(),
                    kind: out.kind,
                    backend: backend.label(),
                    config: &config_label,
                };
                progress.cell_start(i, &id);
                if progress.is_enabled() {
                    progress.metrics(i, &id, &out.metrics);
                }
                progress.cell_finish(
                    i,
                    &id,
                    if out.converged { "pass" } else { "fail" },
                    *wall,
                    out.cycles,
                );
                let path = format!("{dir}/{}.trace.json", bench.name().to_lowercase());
                write_out(&path, &out.json)?;
                print!("{}", out.report);
            }
            progress.worker_util(&stats);
            progress.campaign_end();
        }
        ["--fault", class, bench, kind, rest @ ..] => {
            let plan = FaultPlan::new(parse_fault(class), 3);
            let out = run_cell(
                parse_bench(bench),
                parse_kind(kind),
                &cfg,
                TraceConfig::flight_recorder(),
                Some(plan),
                ras,
            );
            print!("{}", out.report);
            if let Some(path) = rest.first() {
                write_out(path, &out.json)?;
            }
            if out.dumps == 0 {
                eprintln!("fault armed but no flight dump captured");
                std::process::exit(1);
            }
        }
        [bench, kind, rest @ ..] if !bench.starts_with('-') => {
            let config_label =
                format!("accesses={} cores={}", cfg.accesses_per_core, cfg.sim.cores);
            progress.campaign_start(
                "trace",
                backend.label(),
                runner.threads(),
                1,
            );
            let t = Instant::now();
            let out = run_cell(
                parse_bench(bench),
                parse_kind(kind),
                &cfg,
                TraceConfig::full(),
                None,
                ras,
            );
            let wall = t.elapsed().as_secs_f64();
            let id = CellId {
                bench: out.bench,
                kind: out.kind,
                backend: backend.label(),
                config: &config_label,
            };
            progress.cell_start(0, &id);
            if progress.is_enabled() {
                progress.metrics(0, &id, &out.metrics);
            }
            progress.cell_finish(
                0,
                &id,
                if out.converged { "pass" } else { "fail" },
                wall,
                out.cycles,
            );
            progress.campaign_end();
            print!("{}", out.report);
            println!("events : {}", out.events);
            if let Some(path) = rest.first() {
                write_out(path, &out.json)?;
            }
        }
        _ => usage(),
    }
    Ok(())
}
