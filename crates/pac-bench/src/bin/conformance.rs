//! Oracle conformance suite, determinism gate, and the exact-cycle
//! reference.
//!
//! ```console
//! $ conformance                      # full scale
//! $ conformance --quick              # CI scale
//! $ conformance --recover --quick    # recovery mode: survive, don't just detect
//! $ conformance --ras --quick        # hardware-RAS mode: CRC/ECC/scrub survived
//! $ conformance --backend hbm        # run the matrices on the HBM backend
//! $ conformance --diff --quick       # differential mode: both backends per cell
//! $ conformance --threads 4          # fan matrix cells across 4 workers
//! $ conformance --gate --quick --threads 4   # determinism gate, 1 vs 4 workers
//! $ conformance --bless              # re-run and rewrite reference/cycles.txt
//! ```
//!
//! Default mode: phase 1 runs every benchmark × coalescer under the
//! lockstep oracle with no faults and requires zero violations; phase 2
//! arms each fault class on the memory device's response path (every
//! coalescer again) and requires the expected invariant to fire.
//!
//! `--recover` mode flips the burden of proof from detection to
//! survival: phase R1 re-arms every fault class with the recovery layer
//! enabled and requires each run to **converge with the oracle silent**
//! and all retries within budget; phase R2 re-runs the committed
//! `reference/cycles.txt` rows of the selected backend with
//! `RecoveryConfig::disabled()` explicitly attached and requires the
//! simulated cycle counts to reproduce bit-identically — the disabled
//! path costs nothing.
//!
//! `--ras` mode proves the hardware RAS layer *beneath* the recovery
//! stack: phase H1 arms every RAS class native to the selected backend
//! (CRC link retry, retry storms, link retirement on HMC; SECDED ECC,
//! double-bit poison, patrol scrub on HBM) and requires each run to
//! converge with the oracle **silent** while events of the armed class
//! really occurred — detected *and* survived, a retried packet is not a
//! duplicate; phase H2 prints the degraded-mode throughput table
//! (healthy vs half-width vs retired link, or healthy vs scrub-on);
//! phase H3 re-runs the reference rows with the RAS layer disarmed and
//! requires bit-identical cycle counts — disabled means free.
//!
//! `--backend hmc|hbm` selects the memory substrate the matrices run
//! on (default hmc). `--diff` instead runs every matrix cell on *both*
//! backends and requires request conservation, identical
//! completed-request sets, and oracle silence on each.
//!
//! `--gate` runs the experiment matrix on one worker and on `--threads`
//! workers and requires identical full `RunMetrics` per cell — the
//! proof that fan-out changes wall-clock only. `--bless` re-runs every
//! cell of the reference table on both backends and rewrites
//! `reference/cycles.txt` once all of them have finished; it is the
//! table's one regeneration path.
//!
//! The five modes (`--recover`, `--ras`, `--diff`, `--gate`, `--bless`)
//! exclude one another. An unknown flag, a second mode or a stray
//! argument exits 2 with the usage line before anything runs. Exits 1
//! on any failing cell in any mode.

use pac_bench::conformance::{
    clean_matrix, degraded_table, determinism_gate, disabled_reproduction, expected_invariants,
    fault_matrix, ras_classes_for, ras_matrix, recovery_matrix, ConformanceScale,
};
use pac_bench::diff::diff_matrix;
use pac_bench::{harness, matrix, reference, ParallelRunner};
use pac_obs::{PhaseTimer, ProgressSink};
use pac_sim::ExperimentConfig;
use pac_types::cli::{self, Args, Flags};
use pac_types::{BackendKind, RecoveryConfig, SimConfig};

const USAGE: &str = "usage: conformance [--quick] [--recover | --ras | --diff | --gate | --bless] \
                     [--backend hmc|hbm] [--threads N] [--progress <path>]";

const FLAGS: Flags = Flags {
    switches: &["--quick", "--recover", "--ras", "--diff", "--gate", "--bless"],
    valued: &["--backend", "--threads", "--progress"],
    modes: &["--recover", "--ras", "--diff", "--gate", "--bless"],
};

/// The worker pool, memory backend and progress file the flags select.
fn pool_backend_progress(
    args: &Args,
) -> Result<(ParallelRunner, BackendKind, Option<&str>), String> {
    args.positionals(..=0)?;
    let threads = args.int("--threads")?.unwrap_or(0);
    let backend = match args.value("--backend") {
        Some(v) => cli::lookup("backend", v, BackendKind::ALL, BackendKind::label)?,
        None => BackendKind::Hmc,
    };
    Ok((ParallelRunner::new(threads), backend, args.file("--progress")?))
}

fn main() {
    pac_types::sigwatch::install();
    let args = FLAGS.from_env(USAGE);
    let (runner, backend, progress) =
        pool_backend_progress(&args).unwrap_or_else(|e| cli::usage_exit(&e, USAGE));
    let quick = args.has("--quick");
    let (recover, ras, diff) = (args.has("--recover"), args.has("--ras"), args.has("--diff"));
    if args.has("--bless") {
        run_bless(&runner);
        return;
    }
    let progress = match progress {
        None => ProgressSink::disabled(),
        Some(path) => ProgressSink::create(path).unwrap_or_else(|e| {
            eprintln!("--progress {path}: {e}");
            std::process::exit(2);
        }),
    };
    if args.has("--gate") {
        run_gate(quick, backend, &runner, &progress);
        return;
    }
    let scale = if quick { ConformanceScale::quick() } else { ConformanceScale::full() };
    eprintln!(
        "scale: {} accesses/core, {} cores, cycle limit {}, {} worker thread(s), backend {}",
        scale.accesses_per_core,
        scale.cores,
        scale.cycle_limit,
        runner.threads(),
        if diff { "both (differential)" } else { backend.label() }
    );

    // Fault/recovery matrices are FaultClass::ALL x CoalescerKind::ALL.
    let fault_cells =
        (pac_types::FaultClass::ALL.len() * pac_sim::CoalescerKind::ALL.len()) as u64;
    let matrix_cells = matrix().len() as u64;
    let total_cells = if diff {
        matrix_cells
    } else if ras {
        (ras_classes_for(backend).len() * pac_sim::CoalescerKind::ALL.len()) as u64
    } else if recover {
        fault_cells
    } else {
        matrix_cells + fault_cells
    };
    progress.campaign_start(
        "conformance",
        if diff { "both" } else { backend.label() },
        runner.threads(),
        total_cells,
    );

    let failures = if diff {
        run_diff(scale, &runner, &progress)
    } else if ras {
        run_ras_mode(scale, quick, backend, &runner, &progress)
    } else if recover {
        run_recover(scale, quick, backend, &runner, &progress)
    } else {
        run_detect(scale, backend, &runner, &progress)
    };
    progress.campaign_end();

    if failures > 0 {
        eprintln!("\nconformance FAILED: {failures} cell(s)");
        std::process::exit(1);
    }
    if diff {
        eprintln!(
            "\nconformance passed: both backends conserve every request, complete \
             identical sets, and keep the oracle silent on every cell"
        );
    } else if ras {
        eprintln!(
            "\nconformance passed: every hardware RAS class injected, detected, and \
             survived with the oracle silent, and the disarmed layer costs nothing"
        );
    } else if recover {
        eprintln!(
            "\nconformance passed: every fault class survived with the oracle silent, \
             and the disabled recovery path reproduced the committed cycle counts"
        );
    } else {
        eprintln!(
            "\nconformance passed: oracle silent on clean runs, every fault class caught"
        );
    }
}

/// `--gate`: the experiment matrix at 1 vs `runner` workers must give
/// identical full `RunMetrics` per cell. Exits 1 on any divergence.
fn run_gate(quick: bool, backend: BackendKind, runner: &ParallelRunner, progress: &ProgressSink) {
    let mut cfg = ExperimentConfig { sim: SimConfig::for_backend(backend), ..Default::default() };
    if quick {
        cfg.accesses_per_core = harness::QUICK_ACCESSES;
    }
    let cells = matrix();
    eprintln!(
        "determinism gate: {} cells at 1 vs {} worker thread(s), {} accesses/core, backend {} ...",
        cells.len(),
        runner.threads(),
        cfg.accesses_per_core,
        backend.label()
    );
    progress.campaign_start("conformance", backend.label(), runner.threads(), 0);
    let mismatches = determinism_gate(&cells, &cfg, runner, progress);
    progress.campaign_end();
    if mismatches.is_empty() {
        println!(
            "determinism gate passed: {} cells bit-identical at 1 and {} worker thread(s)",
            cells.len(),
            runner.threads()
        );
        return;
    }
    for m in &mismatches {
        eprintln!("GATE FAIL: {m}");
    }
    std::process::exit(1);
}

/// `--bless`: re-run every reference cell on both backends and rewrite
/// the table, only once all of them have finished.
fn run_bless(runner: &ParallelRunner) {
    eprintln!(
        "bless: {} reference cells on {} worker thread(s) ...",
        2 * matrix().len(),
        runner.threads()
    );
    let rows = reference::measure(runner);
    if pac_types::sigwatch::triggered() {
        eprintln!("conformance: drained on signal; {} left unchanged", reference::PATH);
        std::process::exit(3);
    }
    let changed = match reference::parse(reference::COMMITTED) {
        Ok(old) => old.iter().zip(&rows).filter(|(a, b)| a != b).count(),
        Err(_) => rows.len(),
    };
    if let Err(e) = pac_bench::error::write(reference::PATH, reference::render(&rows)) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    println!("wrote {}: {} cells, {changed} changed", reference::PATH, rows.len());
}

/// `--diff` phase: every matrix cell on both backends. Returns the
/// failing cell count.
fn run_diff(scale: ConformanceScale, runner: &ParallelRunner, progress: &ProgressSink) -> u32 {
    eprintln!("\n== differential matrix (conservation + identical served sets + silent oracles) ==");
    let cells = diff_matrix(scale, runner, progress);
    let mut failures = 0u32;
    for cell in &cells {
        if cell.passed() {
            println!(
                "ok    {:>12} x {:<8} {} requests agreed",
                cell.bench.name(),
                cell.kind.label(),
                cell.served
            );
        } else {
            failures += 1;
            println!("FAIL  {:>12} x {:<8}", cell.bench.name(), cell.kind.label());
            for f in &cell.failures {
                println!("      {f}");
            }
        }
    }
    println!(
        "differential matrix: {}/{} cells agree across backends",
        cells.len() - failures as usize,
        cells.len()
    );
    failures
}

/// Default detection-mode phases. Returns the failing cell count.
fn run_detect(
    scale: ConformanceScale,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> u32 {
    let mut failures = 0u32;

    eprintln!("\n== phase 1: clean matrix (oracle must stay silent) ==");
    let timer = PhaseTimer::start("clean_matrix");
    let cells = clean_matrix(scale, backend, runner, progress);
    timer.finish(progress);
    let total = cells.len();
    for cell in &cells {
        if !cell.passed() {
            failures += 1;
            println!(
                "FAIL  {:>12} x {:<8} converged={} {}",
                cell.bench.name(),
                cell.kind.label(),
                cell.converged,
                cell.report.summary()
            );
            for v in cell.report.violations.iter().take(4) {
                println!("      {v}");
            }
        }
    }
    println!(
        "clean matrix: {}/{} cells clean",
        total - cells.iter().filter(|c| !c.passed()).count(),
        total
    );
    drain_check(progress);

    eprintln!("\n== phase 2: fault matrix (oracle must catch every class) ==");
    println!(
        "{:<18} {:<10} {:>8}  {:<24} verdict",
        "fault class", "coalescer", "injected", "expected invariant"
    );
    let timer = PhaseTimer::start("fault_matrix");
    let fault_cells = fault_matrix(scale, backend, runner, progress);
    timer.finish(progress);
    for cell in fault_cells {
        let expected: Vec<&str> =
            expected_invariants(cell.class).iter().map(|i| i.label()).collect();
        let fired: Vec<String> = cell
            .report
            .fired()
            .iter()
            .map(|i| format!("{}x{}", cell.report.count(*i), i.label()))
            .collect();
        let ok = cell.detected();
        if !ok {
            failures += 1;
        }
        println!(
            "{:<18} {:<10} {:>8}  {:<24} {}  (fired: {})",
            cell.class.label(),
            cell.kind.label(),
            cell.faults_injected,
            expected.join("|"),
            if ok { "DETECTED" } else { "MISSED" },
            if fired.is_empty() { "none".to_string() } else { fired.join(", ") }
        );
    }
    failures
}

/// `--ras` phases. Returns the failing cell count.
fn run_ras_mode(
    scale: ConformanceScale,
    quick: bool,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> u32 {
    let mut failures = 0u32;

    eprintln!("\n== phase H1: RAS matrix (every class injected, detected, survived) ==");
    println!(
        "{:<16} {:<10} {:>7}  {:>7} {:>7} {:>6} {:>6}  verdict",
        "ras class", "coalescer", "events", "retries", "stalls", "ecc", "scrub"
    );
    let timer = PhaseTimer::start("ras_matrix");
    let cells = ras_matrix(scale, backend, runner, progress);
    timer.finish(progress);
    for cell in cells {
        let ok = cell.passed();
        if !ok {
            failures += 1;
        }
        println!(
            "{:<16} {:<10} {:>7}  {:>7} {:>7} {:>6} {:>6}  {}",
            cell.class.label(),
            cell.kind.label(),
            cell.events,
            cell.stats.link_retries,
            cell.stats.token_stalls,
            cell.stats.ecc_corrected + cell.stats.ecc_poisoned,
            cell.stats.scrub_hits,
            if ok { "SURVIVED" } else { "FAILED" }
        );
        if !ok {
            println!(
                "      converged={} oracle={} stats={:?}",
                cell.converged,
                cell.report.summary(),
                cell.stats
            );
            for v in cell.report.violations.iter().take(4) {
                println!("      {v}");
            }
        }
    }
    drain_check(progress);

    eprintln!("\n== phase H2: degraded-mode throughput (STREAM x pac, steady state) ==");
    let rows = degraded_table(scale, backend);
    let healthy = rows.first().map_or(0, |r| r.cycles);
    println!("{:<14} {:>14} {:>10}", "mode", "cycles", "slowdown");
    for row in &rows {
        println!(
            "{:<14} {:>14} {:>9.3}x",
            row.mode,
            row.cycles,
            if healthy > 0 { row.cycles as f64 / healthy as f64 } else { 0.0 }
        );
    }
    drain_check(progress);

    eprintln!("\n== phase H3: disarmed-RAS cycle reproduction vs reference/cycles.txt ==");
    failures + reproduce(backend, None, quick, "the disarmed RAS layer changes nothing")
}

/// `--recover` phases. Returns the failing cell count.
fn run_recover(
    scale: ConformanceScale,
    quick: bool,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> u32 {
    let mut failures = 0u32;

    eprintln!("\n== phase R1: recovery matrix (every class survived, oracle silent) ==");
    println!(
        "{:<18} {:<10} {:>8}  {:>7} {:>6} {:>6} {:>7}  verdict",
        "fault class", "coalescer", "injected", "retries", "dups", "poison", "max att"
    );
    let timer = PhaseTimer::start("recovery_matrix");
    let recovery_cells = recovery_matrix(scale, backend, runner, progress);
    timer.finish(progress);
    for cell in recovery_cells {
        let ok = cell.passed();
        if !ok {
            failures += 1;
        }
        println!(
            "{:<18} {:<10} {:>8}  {:>7} {:>6} {:>6} {:>7}  {}",
            cell.class.label(),
            cell.kind.label(),
            cell.faults_injected,
            cell.recovery.retries_issued,
            cell.recovery.duplicates_dropped,
            cell.recovery.poisoned_responses,
            cell.recovery.max_attempts,
            if ok { "SURVIVED" } else { "FAILED" }
        );
        if !ok {
            println!(
                "      converged={} oracle={} {}",
                cell.converged,
                cell.report.summary(),
                cell.recovery.summary()
            );
            for s in cell.recovery.stuck.iter().take(4) {
                println!(
                    "      stuck seq {} (dispatch id {}, addr {:#x}, {} attempts)",
                    s.seq, s.dispatch_id, s.addr, s.attempts
                );
            }
        }
    }

    drain_check(progress);

    eprintln!("\n== phase R2: disabled-recovery cycle reproduction vs reference/cycles.txt ==");
    let recovery = Some(RecoveryConfig::disabled());
    failures + reproduce(backend, recovery, quick, "recovery disabled changes nothing")
}

/// Phases R2 and H3: re-run the committed reference rows of `backend`
/// with `recovery` attached and require every cycle count exactly.
/// Quick mode bounds the sweep to six cells. Returns the failure count.
fn reproduce(
    backend: BackendKind,
    recovery: Option<RecoveryConfig>,
    quick: bool,
    verdict: &str,
) -> u32 {
    match disabled_reproduction(backend, recovery, if quick { 6 } else { 0 }) {
        Ok(mismatches) if mismatches.is_empty() => {
            println!("cycle reproduction: all compared cells bit-identical ({verdict})");
            0
        }
        Ok(mismatches) => {
            for m in &mismatches {
                println!("CYCLE MISMATCH: {m}");
            }
            mismatches.len() as u32
        }
        Err(e) => {
            println!("reference unusable: {e}");
            1
        }
    }
}

/// SIGINT/SIGTERM drain point between phases: the in-flight matrix
/// completes, the progress stream is closed cleanly, and the process
/// exits 3 (drained partial campaign — distinct from both pass and
/// fail).
fn drain_check(progress: &ProgressSink) {
    if pac_types::sigwatch::triggered() {
        eprintln!("\nconformance: drained on signal (partial campaign; rerun for full coverage)");
        progress.campaign_end();
        std::process::exit(3);
    }
}
