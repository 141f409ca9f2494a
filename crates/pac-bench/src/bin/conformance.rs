//! Oracle conformance suite.
//!
//! ```console
//! $ conformance                      # full scale
//! $ conformance --quick              # CI scale (also via PAC_QUICK=1)
//! $ conformance --recover --quick    # recovery mode: survive, don't just detect
//! $ conformance --ras --quick        # hardware-RAS mode: CRC/ECC/scrub survived
//! $ conformance --backend hbm        # run the matrices on the HBM backend
//! $ conformance --diff --quick       # differential mode: both backends per cell
//! $ conformance --threads 4          # fan matrix cells across 4 workers
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
//! `BENCH_throughput.json` cells with `RecoveryConfig::disabled()`
//! explicitly attached and requires the simulated cycle counts to
//! reproduce bit-identically — the disabled path costs nothing.
//!
//! `--ras` mode proves the hardware RAS layer *beneath* the recovery
//! stack: phase H1 arms every RAS class native to the selected backend
//! (CRC link retry, retry storms, link retirement on HMC; SECDED ECC,
//! double-bit poison, patrol scrub on HBM) and requires each run to
//! converge with the oracle **silent** while events of the armed class
//! really occurred — detected *and* survived, a retried packet is not a
//! duplicate; phase H2 prints the degraded-mode throughput table
//! (healthy vs half-width vs retired link, or healthy vs scrub-on);
//! phase H3 replays the committed baseline with the RAS layer disarmed
//! and requires bit-identical cycle counts — disabled means free.
//!
//! `--backend hmc|hbm` selects the memory substrate the matrices run
//! on (default hmc). Phase R2 is tied to the HMC-recorded baseline and
//! is skipped on other backends. `--diff` instead runs every matrix
//! cell on *both* backends and requires request conservation, identical
//! completed-request sets, and oracle silence on each.
//!
//! Exits nonzero on any failing cell in any mode.

use pac_bench::conformance::{
    clean_matrix, degraded_table, disabled_ras_reproduction, disabled_recovery_reproduction,
    expected_invariants, fault_matrix, ras_classes_for, ras_matrix, recovery_matrix,
    ConformanceScale,
};
use pac_bench::diff::diff_matrix;
use pac_bench::runner::{backend_from_args, progress_from_args, threads_from_args};
use pac_bench::ParallelRunner;
use pac_obs::{PhaseTimer, ProgressSink};
use pac_types::BackendKind;

fn main() {
    pac_types::sigwatch::install();
    let args: Vec<String> = std::env::args().collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var("PAC_QUICK").is_ok_and(|v| v != "0");
    let recover = args.iter().any(|a| a == "--recover");
    let ras = args.iter().any(|a| a == "--ras");
    let diff = args.iter().any(|a| a == "--diff");
    let (runner, backend) = match threads_from_args(&args)
        .map(ParallelRunner::new)
        .and_then(|r| backend_from_args(&args).map(|b| (r, b)))
    {
        Ok(rb) => rb,
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
    let total_cells = if diff {
        0 // diff cells are not streamed individually yet
    } else if ras {
        (ras_classes_for(backend).len() * pac_sim::CoalescerKind::ALL.len()) as u64
    } else if recover {
        fault_cells
    } else {
        pac_bench::matrix().len() as u64 + fault_cells
    };
    progress.campaign_start(
        "conformance",
        if diff { "both" } else { backend.label() },
        runner.threads(),
        total_cells,
    );

    let failures = if diff {
        run_diff(scale, &runner)
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

/// `--diff` phase: every matrix cell on both backends. Returns the
/// failing cell count.
fn run_diff(scale: ConformanceScale, runner: &ParallelRunner) -> u32 {
    eprintln!("\n== differential matrix (conservation + identical served sets + silent oracles) ==");
    let cells = diff_matrix(scale, runner);
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

    eprintln!("\n== phase H3: disarmed-RAS cycle reproduction vs BENCH_throughput.json ==");
    if backend != BackendKind::Hmc {
        println!(
            "skipped: baseline cycle counts are recorded on hmc (running --backend {})",
            backend.label()
        );
        return failures;
    }
    let max_cells = if quick { 6 } else { 0 };
    match read_baseline() {
        Ok(json) => match disabled_ras_reproduction(&json, max_cells) {
            Ok(mismatches) if mismatches.is_empty() => {
                println!(
                    "cycle reproduction: all compared cells bit-identical \
                     (the disarmed RAS layer changes nothing)"
                );
            }
            Ok(mismatches) => {
                for m in &mismatches {
                    println!("CYCLE MISMATCH: {m}");
                }
                failures += mismatches.len() as u32;
            }
            Err(e) => {
                println!("baseline unusable: {e}");
                failures += 1;
            }
        },
        Err(e) => {
            println!("cannot read BENCH_throughput.json: {e}");
            failures += 1;
        }
    }
    failures
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

    eprintln!("\n== phase R2: disabled-recovery cycle reproduction vs BENCH_throughput.json ==");
    if backend != BackendKind::Hmc {
        // The committed baseline was recorded on the HMC reference;
        // reproducing it on another substrate is meaningless.
        println!(
            "skipped: baseline cycle counts are recorded on hmc (running --backend {})",
            backend.label()
        );
        return failures;
    }
    // Quick mode bounds the sweep; full mode replays every cell.
    let max_cells = if quick { 6 } else { 0 };
    match read_baseline() {
        Ok(json) => match disabled_recovery_reproduction(&json, max_cells) {
            Ok(mismatches) if mismatches.is_empty() => {
                println!(
                    "cycle reproduction: all compared cells bit-identical \
                     (recovery disabled changes nothing)"
                );
            }
            Ok(mismatches) => {
                for m in &mismatches {
                    println!("CYCLE MISMATCH: {m}");
                }
                failures += mismatches.len() as u32;
            }
            Err(e) => {
                println!("baseline unusable: {e}");
                failures += 1;
            }
        },
        Err(e) => {
            println!("cannot read BENCH_throughput.json: {e}");
            failures += 1;
        }
    }
    failures
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

/// Locate the committed throughput baseline: working directory first
/// (how CI invokes the binary from the repo root), then relative to the
/// crate (how `cargo run` finds it from anywhere).
fn read_baseline() -> Result<String, pac_bench::BenchError> {
    let candidates = [
        std::path::PathBuf::from("BENCH_throughput.json"),
        std::path::PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_throughput.json"
        )),
    ];
    for path in &candidates {
        if path.is_file() {
            return pac_bench::error::read_to_string(path);
        }
    }
    Err(pac_bench::BenchError::NotFound(candidates.to_vec()))
}
