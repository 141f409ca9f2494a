//! Chaos soak driver: randomized long-running campaigns against the
//! checkpoint/restore path, the fault-recovery layer, and the lockstep
//! oracle, all at once.
//!
//! ```console
//! $ soak --quick               # CI scale: a dozen seconds-sized runs
//! $ soak --runs 200            # fixed-count campaign
//! $ soak --hours 8             # unbounded burn-in, wall-clock budget
//! $ soak --quick --seed 0xBEEF # reproduce a failing campaign exactly
//! $ soak --quick --threads 4   # fan runs across 4 workers (same report)
//! $ soak --quick --backend hbm # same campaign on the HBM substrate
//! ```
//!
//! Every run draws a random benchmark × coalescer × fault-plan ×
//! kill-point cell from a seeded stream, executes it uninterrupted and
//! again through a mid-run checkpoint/restore, and requires bit-identical
//! results with the oracle silent. Exits nonzero on any oracle
//! violation, unrecovered run, or round-trip divergence.

use pac_bench::runner::{backend_from_args, progress_from_args, threads_from_args};
use pac_bench::soak::{soak, SoakConfig};
use pac_bench::ParallelRunner;
use pac_obs::{CellId, ProgressSink};

fn usage() -> ! {
    eprintln!(
        "usage: soak [--quick | --runs <N> | --hours <H>] [--seed <S>] [--threads <T>] \
         [--backend hmc|hbm] [--progress <path|->]"
    );
    std::process::exit(2);
}

fn value(it: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage();
    })
}

fn parse_u64(s: &str, flag: &str) -> u64 {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse '{s}'");
        usage();
    })
}

fn main() {
    pac_types::sigwatch::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runner = match threads_from_args(&args) {
        Ok(n) => ParallelRunner::new(n),
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    let backend = match backend_from_args(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
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
    let mut quick = false;
    let mut runs: Option<u64> = None;
    let mut hours: Option<f64> = None;
    let mut seed: u64 = 0x5EED_50AC;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            // Already validated by `threads_from_args`; skip here.
            "--threads" => {
                let _ = value(&mut it, "--threads");
            }
            s if s.starts_with("--threads=") => {}
            // Already validated by `backend_from_args`; skip here.
            "--backend" => {
                let _ = value(&mut it, "--backend");
            }
            s if s.starts_with("--backend=") => {}
            // Already validated by `progress_from_args`; skip here.
            "--progress" => {
                let _ = value(&mut it, "--progress");
            }
            s if s.starts_with("--progress=") => {}
            "--runs" => runs = Some(parse_u64(&value(&mut it, "--runs"), "--runs")),
            "--hours" => {
                let v = value(&mut it, "--hours");
                hours = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--hours: cannot parse '{v}'");
                    usage();
                }));
            }
            "--seed" => seed = parse_u64(&value(&mut it, "--seed"), "--seed"),
            _ => usage(),
        }
    }

    let base = match (quick, runs, hours) {
        (true, None, None) => SoakConfig::quick(seed),
        (false, Some(n), None) => SoakConfig { runs: n, ..SoakConfig::quick(seed) },
        (false, None, Some(h)) => SoakConfig::hours(h, seed),
        (false, None, None) => usage(),
        _ => {
            eprintln!("--quick, --runs, and --hours are mutually exclusive");
            usage();
        }
    };
    let cfg = SoakConfig { backend, ..base };

    eprintln!(
        "soak: seed={seed:#x} runs={} wall={} accesses/core={} cores={} threads={} backend={}",
        if cfg.runs == 0 { "unbounded".to_string() } else { cfg.runs.to_string() },
        cfg.wall_seconds.map_or("-".to_string(), |s| format!("{s:.0}s")),
        cfg.accesses_per_core,
        cfg.cores,
        runner.threads(),
        cfg.backend.label(),
    );

    progress.campaign_start(
        "soak",
        cfg.backend.label(),
        runner.threads(),
        cfg.runs,
    );
    let config_label = format!("accesses={} cores={}", cfg.accesses_per_core, cfg.cores);
    let mut seq = 0usize;
    let report = soak(&cfg, &runner, |out| {
        progress.cell_finish(
            seq,
            &CellId {
                bench: out.cell.bench.name(),
                kind: out.cell.kind.label(),
                backend: cfg.backend.label(),
                config: &config_label,
            },
            if out.passed() { "pass" } else { "fail" },
            out.wall_seconds,
            0,
        );
        seq += 1;
        eprintln!(
            "{}  {:>6} x {:<8} faults={} retries={} roundtrip={}",
            if out.passed() { "ok  " } else { "FAIL" },
            out.cell.bench.name(),
            out.cell.kind.label(),
            out.faults_injected,
            out.retries_issued,
            if out.roundtrip_verified { "verified" } else { "skipped" },
        );
        if !out.passed() {
            eprintln!("      {}", out.failure);
        }
    });

    progress.supervisor(&report.supervisor);
    progress.campaign_end();

    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
    if report.drained {
        eprintln!("soak: drained on signal after {} run(s)", report.runs_total);
        std::process::exit(3);
    }
}
