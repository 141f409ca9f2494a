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
//! `--all`, `--guard` and `--fault` exclude one another. Every argument
//! (each flag, the bench and coalescer names, the `--ras` plan against
//! the backend, the argument count) is checked before a cell runs or a
//! file is written: a usage error exits 2 with the usage text.
//!
//! Full-trace runs write Chrome `trace_event` JSON — open the file at
//! <https://ui.perfetto.dev> or `chrome://tracing`. Every run also
//! prints the human-readable report: oracle verdict, flight-recorder
//! dumps (with the offending request's event history), and the
//! per-stage latency histograms.

use pac_bench::error::{self, BenchError};
use pac_bench::trace_cmd::{run_cell, throughput_guard};
use pac_bench::{reference, ParallelRunner};
use pac_obs::{CellId, ProgressSink};
use pac_sim::{CoalescerKind, ExperimentConfig};
use pac_types::cli::{self, Args, Flags};
use pac_types::{BackendKind, FaultClass, FaultPlan, RasPlan, SimConfig, TraceConfig};
use pac_workloads::Bench;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage:\n  trace [--quick] [--backend hmc|hbm] [--progress <path>] \
                     <BENCH> <raw|mshr-dmc|pac> [out.json]\n  \
                     trace [--quick] [--backend hmc|hbm] [--progress <path>] --all \
                     [--threads <T>] [out-dir]\n  \
                     trace [--quick] [--backend hmc|hbm] --fault \
                     <drop-response|duplicate-response|delay-response|corrupt-addr> \
                     <BENCH> <raw|mshr-dmc|pac> [out.json]\n  \
                     trace [--quick] [--backend hmc|hbm] --ras <class>[:key=value,...] \
                     <BENCH> <raw|mshr-dmc|pac> [out.json]\n  \
                     trace [--quick] [--backend hmc|hbm] --guard";

const FLAGS: Flags = Flags {
    switches: &["--quick", "--all", "--guard"],
    valued: &["--backend", "--threads", "--progress", "--ras", "--fault"],
    modes: &["--all", "--guard", "--fault"],
};

/// What the positional arguments and the mode flag select.
enum Job<'a> {
    Guard,
    All(&'a str),
    Cell { bench: Bench, kind: CoalescerKind, fault: Option<FaultClass>, out: Option<&'a str> },
}

fn write_out(path: &str, json: &str) -> Result<(), BenchError> {
    error::write(path, json)?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    pac_types::sigwatch::install();
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

/// Check every argument, then run. Usage errors all surface before the
/// first cell runs or the first file is written.
fn run(args: &Args) -> Result<(), BenchError> {
    let quick = args.has("--quick");
    // `--threads` fans `--all` cells across workers; each traced system
    // runs serially, so the parallelism is purely across independent
    // cells.
    let runner = ParallelRunner::new(args.int("--threads")?.unwrap_or(0));
    let backend = match args.value("--backend") {
        Some(v) => cli::lookup("backend", v, BackendKind::ALL, BackendKind::label)?,
        None => BackendKind::Hmc,
    };
    let mut cfg = if quick {
        // Small enough for CI, large enough to populate every stage
        // histogram and exercise the counter tracks.
        ExperimentConfig { accesses_per_core: 2_000, ..Default::default() }
    } else {
        ExperimentConfig::default()
    };
    cfg.sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(backend) };
    // `--ras <plan>` arms the hardware RAS layer on whatever cell the
    // positional arguments select. A plan the device would refuse
    // (wrong substrate for the class, out-of-range target link) is a
    // usage error too.
    let links = match backend {
        BackendKind::Hmc => cfg.sim.hmc.links,
        BackendKind::Hbm => cfg.sim.hbm.channels,
    };
    let ras = match args.value("--ras") {
        Some(v) => {
            let plan = RasPlan::parse(v).and_then(|p| p.validate_for(backend, links));
            Some(plan.map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let job = if args.has("--guard") {
        args.positionals(..=0)?;
        if ras.is_some() {
            return Err(BenchError::Usage("--guard proves the disarmed path; drop --ras".into()));
        }
        Job::Guard
    } else if args.has("--all") {
        Job::All(args.positionals(..=1)?.first().map_or("traces", String::as_str))
    } else {
        let pos = args.positionals(2..=3)?;
        let fault = args.value("--fault");
        Job::Cell {
            bench: cli::lookup("bench", &pos[0], Bench::ALL, Bench::name)?,
            kind: cli::lookup("coalescer", &pos[1], CoalescerKind::ALL, CoalescerKind::label)?,
            fault: fault
                .map(|v| cli::lookup("fault class", v, FaultClass::ALL, FaultClass::label))
                .transpose()?,
            out: pos.get(2).map(String::as_str),
        }
    };
    let progress = match args.file("--progress")? {
        None => ProgressSink::disabled(),
        Some(path) => ProgressSink::create(path).map_err(|e| format!("--progress {path}: {e}"))?,
    };

    match job {
        Job::Guard => {
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
        Job::All(dir) => {
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
        Job::Cell { bench, kind, fault: Some(class), out: path } => {
            let plan = FaultPlan::new(class, 3);
            let out =
                run_cell(bench, kind, &cfg, TraceConfig::flight_recorder(), Some(plan), ras);
            print!("{}", out.report);
            if let Some(path) = path {
                write_out(path, &out.json)?;
            }
            if out.dumps == 0 {
                eprintln!("fault armed but no flight dump captured");
                std::process::exit(1);
            }
        }
        Job::Cell { bench, kind, fault: None, out: path } => {
            let config_label =
                format!("accesses={} cores={}", cfg.accesses_per_core, cfg.sim.cores);
            progress.campaign_start(
                "trace",
                backend.label(),
                runner.threads(),
                1,
            );
            let t = Instant::now();
            let out = run_cell(bench, kind, &cfg, TraceConfig::full(), None, ras);
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
            if let Some(path) = path {
                write_out(path, &out.json)?;
            }
        }
    }
    Ok(())
}
