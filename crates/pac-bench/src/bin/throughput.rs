//! Measure simulator throughput over the full experiment matrix and
//! write `BENCH_throughput.json`.
//!
//! ```console
//! $ throughput                  # full matrix, both stepping modes
//! $ throughput --quick          # smoke-sized run (also via PAC_QUICK=1)
//! $ PAC_TP_ACCESSES=500 throughput      # explicit per-core budget
//! $ PAC_TP_OUT=/tmp/tp.json throughput  # alternate output path
//! $ PAC_TP_SEED_SECONDS=37.1 throughput # record seed-build baseline
//! $ throughput --skip-only      # skip-ahead mode only (no reference)
//! $ throughput --threads 8      # top worker count for the scaling curve
//! $ throughput --gate --quick   # CI determinism gate, no JSON output
//! $ throughput --backend hbm    # measure the matrix on the HBM backend
//! $ throughput --progress -     # stream progress JSONL to stdout
//! ```
//!
//! Each `(bench, coalescer)` cell is run serially and timed; the JSON
//! records wall seconds, simulated cycles, retired accesses, and the
//! derived cycles/s and accesses/s rates per cell, plus the whole-matrix
//! wall-clock ratio of the event-driven core over the cycle-by-cycle
//! reference. Both modes produce bit-identical metrics, so the ratio is
//! purely simulator speed.
//!
//! After the timing sweeps, the skip-ahead matrix is re-run through the
//! [`pac_bench::ParallelRunner`] at 1, 2, 4, … worker threads (up to
//! `--threads`, `PAC_THREADS`, or the host width); each point must
//! reproduce the serial simulated cycles bit-identically and lands in
//! the JSON's `scaling` section.
//!
//! `--gate` skips the JSON entirely and instead fails the process if
//! any cell's full `RunMetrics` differ between 1 worker and the
//! requested width — the CI proof that fan-out changes wall-clock only.

use pac_bench::harness;
use pac_bench::runner::{
    backend_from_args, progress_from_args, reject_unknown_args, threads_from_args,
};
use pac_bench::throughput::{determinism_gate, scaling_curve, sweep, to_json};
use pac_bench::{matrix, ParallelRunner};
use pac_obs::{PhaseTimer, ProgressSink};
use pac_sim::{ExperimentConfig, Stepping};
use pac_types::SimConfig;

const USAGE: &str = "usage: throughput [--quick] [--gate | --skip-only] \
                     [--backend hmc|hbm] [--threads N] [--progress <path|->]";

fn main() {
    pac_types::sigwatch::install();
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = reject_unknown_args(&args[1..], &["--quick", "--gate", "--skip-only"]) {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    }
    let skip_only = args.iter().any(|a| a == "--skip-only");
    let gate = args.iter().any(|a| a == "--gate");
    let quick = args.iter().any(|a| a == "--quick") || harness::quick_mode();
    let (threads, backend) = match threads_from_args(&args)
        .map(|n| ParallelRunner::new(n).threads())
        .and_then(|t| backend_from_args(&args).map(|b| (t, b)))
    {
        Ok(tb) => tb,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let progress = match progress_from_args(&args) {
        Ok(None) => ProgressSink::disabled(),
        Ok(Some(arg)) => ProgressSink::create(&arg).unwrap_or_else(|e| {
            eprintln!("--progress {arg}: {e}");
            std::process::exit(2);
        }),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let mut cfg = ExperimentConfig::default();
    cfg.sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(backend) };
    if quick {
        cfg.accesses_per_core = harness::QUICK_ACCESSES;
    }
    if let Ok(v) = std::env::var("PAC_TP_ACCESSES") {
        cfg.accesses_per_core = v.parse().unwrap_or_else(|_| {
            eprintln!("PAC_TP_ACCESSES must be an integer, got '{v}'");
            std::process::exit(2);
        });
    }
    let cells = matrix();

    if gate {
        // Determinism gate: the full per-cell metrics at `threads`
        // workers must match the 1-worker run exactly.
        eprintln!(
            "determinism gate: {} cells at 1 vs {} worker thread(s), {} accesses/core ...",
            cells.len(),
            threads,
            cfg.accesses_per_core
        );
        let mismatches = determinism_gate(&cells, &cfg, &[1, threads]);
        if mismatches.is_empty() {
            println!(
                "determinism gate passed: {} cells bit-identical at 1 and {} worker thread(s)",
                cells.len(),
                threads
            );
            return;
        }
        for m in &mismatches {
            eprintln!("GATE FAIL: {m}");
        }
        std::process::exit(1);
    }

    let out_path =
        std::env::var("PAC_TP_OUT").unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    // Wall seconds for the same matrix on the pre-event-driven seed
    // build, measured externally (the harness cannot rebuild history).
    let baseline_seconds: Option<f64> =
        std::env::var("PAC_TP_SEED_SECONDS").ok().and_then(|v| v.parse().ok());

    let sweep_count = if skip_only { 1 } else { 2 };
    progress.campaign_start(
        "throughput",
        backend.label(),
        threads,
        (sweep_count * cells.len()) as u64,
    );

    let mut sweeps = Vec::new();
    if !skip_only {
        eprintln!(
            "every-cycle reference: {} cells, {} accesses/core ...",
            cells.len(),
            cfg.accesses_per_core
        );
        let timer = PhaseTimer::start("every_cycle_sweep");
        sweeps.push(sweep(&cells, &cfg, Stepping::EveryCycle, &progress, 0));
        timer.finish(&progress);
    }
    drain_check(&progress);
    eprintln!("skip-ahead: {} cells ...", cells.len());
    let timer = PhaseTimer::start("skip_ahead_sweep");
    sweeps.push(sweep(
        &cells,
        &cfg,
        Stepping::SkipAhead,
        &progress,
        (sweep_count - 1) * cells.len(),
    ));
    timer.finish(&progress);

    for s in &sweeps {
        eprintln!("{:>12}: {:8.3}s matrix wall", s.stepping, s.wall_seconds);
    }
    if let [every, skip] = &sweeps[..] {
        eprintln!(
            "skip-ahead speedup over every-cycle: {:.2}x",
            every.wall_seconds / skip.wall_seconds
        );
    }

    if let Some(base) = baseline_seconds {
        if let Some(skip) = sweeps.last() {
            eprintln!("skip-ahead speedup over seed build: {:.2}x", base / skip.wall_seconds);
        }
    }

    drain_check(&progress);

    // Thread-scaling curve over the skip-ahead matrix: 1, 2, 4, …
    // doubling up to the requested (or host) width, deduplicated.
    let mut counts = vec![1usize];
    let mut w = 2;
    while w < threads {
        counts.push(w);
        w *= 2;
    }
    if threads > 1 {
        counts.push(threads);
    }
    eprintln!("scaling curve: skip-ahead matrix at {counts:?} worker thread(s) ...");
    let serial = sweeps.last().expect("skip-ahead sweep always present");
    let timer = PhaseTimer::start("scaling_curve");
    let curve = scaling_curve(&cells, &cfg, serial, &counts, &progress);
    timer.finish(&progress);
    for p in &curve.points {
        eprintln!(
            "  {:>3} thread(s): {:8.3}s wall, {:.2}x over 1 thread",
            p.threads, p.wall_seconds, p.speedup
        );
    }
    if !curve.bit_identical() {
        for m in &curve.cycle_mismatches {
            eprintln!("SCALING FAIL: {m}");
        }
        std::process::exit(1);
    }

    let json = to_json(&cfg, &sweeps, baseline_seconds, Some(&curve));
    if let Err(e) = pac_bench::error::write(&out_path, json) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    progress.campaign_end();
    println!("wrote {out_path}");
}

/// SIGINT/SIGTERM drain point between sweeps: no JSON is written (a
/// partial matrix would poison the committed baseline), the progress
/// stream is closed, and the process exits 3.
fn drain_check(progress: &ProgressSink) {
    if pac_types::sigwatch::triggered() {
        eprintln!("throughput: drained on signal (no JSON written; rerun for a full matrix)");
        progress.campaign_end();
        std::process::exit(3);
    }
}
