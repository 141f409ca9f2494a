//! Chaos soak: seeded random composition of workload cells, fault
//! plans, recovery policies, and mid-run kill/resume points, every run
//! executed with the lockstep oracle attached.
//!
//! Each soak run draws one cell from a deterministic
//! [`pac_types::splitmix64`] stream, executes it twice — once uninterrupted as the reference,
//! once killed at a random cycle, checkpointed through
//! [`SimSystem::save_state`] / [`SimSystem::restore`], and resumed —
//! and demands three things at once:
//!
//! 1. **Survival**: the run converges; with a fault armed and recovery
//!    enabled, no transaction aborts or exhausts its retry budget.
//! 2. **Oracle silence**: zero invariant violations (faults are
//!    *repaired*, not merely detected).
//! 3. **Round-trip fidelity**: the killed-and-resumed run reproduces
//!    the reference bit-identically — metrics, oracle counters, and
//!    recovery counters.
//!
//! The whole campaign is reproducible from its seed: `soak --seed S`
//! replays the identical cell sequence, so a burn-in failure can be
//! re-run as a one-liner. Cells are drawn from the stream **before**
//! any of them execute, so the sequence is also independent of the
//! worker count: `--threads N` fans the runs across the supervised
//! scheduler pool ([`pac_serve::run_supervised`]) without changing what
//! gets run — a panicking cell is retried with backoff and then
//! quarantined as a failed outcome instead of tearing down the
//! campaign. Between batches the campaign polls
//! [`pac_types::sigwatch`]: SIGINT/SIGTERM drains cleanly with a
//! partial report instead of dying mid-write.

use crate::runner::ParallelRunner;
use pac_oracle::OracleConfig;
use pac_serve::{run_supervised, SupervisePolicy};
use pac_sim::{CoalescerKind, RunMetrics, RunProgress, SimSystem, Stepping};
use pac_types::{BackendKind, Cycle, FaultClass, FaultPlan, RecoveryConfig, SimConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::fmt::Write as _;
use std::time::Instant;

use pac_types::splitmix64;

/// Campaign shape: how many runs, how big each run is, and the optional
/// wall-clock budget for unbounded burn-in.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Master seed; the entire campaign is a pure function of it.
    pub seed: u64,
    /// Number of runs (0 = unbounded, stop on `wall_seconds`).
    pub runs: u64,
    /// Wall-clock budget in seconds (None = run-count bounded only).
    pub wall_seconds: Option<f64>,
    /// Per-core access budget for each run.
    pub accesses_per_core: u64,
    /// Core count for each run.
    pub cores: u32,
    /// Memory substrate every run executes on (the cell stream itself
    /// is backend-independent: same seed, same cells, either device).
    pub backend: BackendKind,
}

impl SoakConfig {
    /// CI scale: a dozen runs, each seconds-sized.
    pub fn quick(seed: u64) -> Self {
        SoakConfig {
            seed,
            runs: 12,
            wall_seconds: None,
            accesses_per_core: 400,
            cores: 4,
            backend: BackendKind::Hmc,
        }
    }

    /// Burn-in scale: unbounded runs until the wall budget expires.
    pub fn hours(hours: f64, seed: u64) -> Self {
        SoakConfig {
            seed,
            runs: 0,
            wall_seconds: Some(hours * 3600.0),
            accesses_per_core: 2000,
            cores: 8,
            backend: BackendKind::Hmc,
        }
    }
}

/// One randomly composed soak cell.
#[derive(Debug, Clone, Copy)]
pub struct SoakCell {
    pub bench: Bench,
    pub kind: CoalescerKind,
    /// Armed fault, if any; always paired with enabled recovery.
    pub fault: Option<FaultPlan>,
    /// Workload seed for this run.
    pub seed: u64,
    /// Kill point as a per-mille fraction of the reference run's
    /// length (100–900‰, so the kill always lands mid-run).
    pub kill_permille: u64,
}

impl SoakCell {
    fn describe(&self) -> String {
        format!(
            "{} x {} seed={:#x} fault={} kill@{}‰",
            self.bench.name(),
            self.kind.label(),
            self.seed,
            self.fault.map_or("none".to_string(), |p| p.class.label().to_string()),
            self.kill_permille,
        )
    }
}

/// Draw the `i`-th cell of a campaign from the chaos stream.
fn compose_cell(rng: &mut u64) -> SoakCell {
    let bench = Bench::ALL[(splitmix64(rng) % Bench::ALL.len() as u64) as usize];
    let kind = CoalescerKind::ALL[(splitmix64(rng) % CoalescerKind::ALL.len() as u64) as usize];
    // Half the runs are clean (checkpointing under normal operation),
    // half are fault-armed with recovery enabled (checkpointing while
    // the repair machinery is live).
    let fault = if splitmix64(rng).is_multiple_of(2) {
        let class =
            FaultClass::ALL[(splitmix64(rng) % FaultClass::ALL.len() as u64) as usize];
        Some(FaultPlan::new(class, splitmix64(rng)))
    } else {
        None
    };
    SoakCell {
        bench,
        kind,
        fault,
        seed: splitmix64(rng),
        kill_permille: 100 + splitmix64(rng) % 801,
    }
}

/// What one soak run produced.
#[derive(Debug)]
pub struct RunOutcome {
    pub cell: SoakCell,
    /// The run converged (reference and resumed leg both drained).
    pub survived: bool,
    /// Device-injected faults across the reference run.
    pub faults_injected: u64,
    /// Recovery retries issued across the reference run.
    pub retries_issued: u64,
    /// Oracle violations across both legs (must be 0).
    pub oracle_violations: u64,
    /// A save→restore round-trip actually happened and reproduced the
    /// reference bit-identically.
    pub roundtrip_verified: bool,
    /// Human-readable failure description (empty = pass).
    pub failure: String,
    /// Wall-clock seconds the whole cell took (both legs).
    pub wall_seconds: f64,
}

impl RunOutcome {
    pub fn passed(&self) -> bool {
        self.failure.is_empty()
    }
}

/// Aggregated campaign report.
#[derive(Debug, Default)]
pub struct SoakReport {
    pub runs_total: u64,
    pub runs_survived: u64,
    pub faults_injected: u64,
    pub faults_recovered_retries: u64,
    pub roundtrips_verified: u64,
    pub oracle_violations: u64,
    pub unrecovered_runs: u64,
    /// Per-run failure lines (empty = campaign passed).
    pub failures: Vec<String>,
    pub wall_seconds: f64,
    /// Supervision counters merged across every fan-out batch (leases,
    /// retries, quarantines).
    pub supervisor: pac_types::SupervisorStats,
    /// The campaign stopped early on SIGINT/SIGTERM; the report covers
    /// the runs that completed before the drain.
    pub drained: bool,
}

impl SoakReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
            && self.oracle_violations == 0
            && self.unrecovered_runs == 0
            && self.runs_survived == self.runs_total
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "soak report:");
        let _ = writeln!(out, "  runs survived        : {}/{}", self.runs_survived, self.runs_total);
        let _ = writeln!(out, "  faults injected      : {}", self.faults_injected);
        let _ = writeln!(out, "  recovery retries     : {}", self.faults_recovered_retries);
        let _ = writeln!(out, "  round-trips verified : {}", self.roundtrips_verified);
        let _ = writeln!(out, "  oracle violations    : {}", self.oracle_violations);
        let _ = writeln!(out, "  unrecovered runs     : {}", self.unrecovered_runs);
        let _ = writeln!(out, "  wall seconds         : {:.1}", self.wall_seconds);
        if !self.supervisor.is_zero() {
            let _ = writeln!(
                out,
                "  supervision          : {} lease(s), {} retr{}, {} quarantined",
                self.supervisor.leases,
                self.supervisor.retries,
                if self.supervisor.retries == 1 { "y" } else { "ies" },
                self.supervisor.quarantined
            );
        }
        if self.drained {
            let _ = writeln!(out, "  drained on signal    : partial campaign");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL {f}");
        }
        let _ = writeln!(out, "verdict: {}", if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

/// Build one system for a cell: oracle always attached, fault plan and
/// recovery armed when the cell carries them.
fn build_system(cell: &SoakCell, cfg: &SoakConfig, sim: SimConfig) -> SimSystem {
    let specs = single_process(cell.bench, cfg.cores, cell.seed);
    let mut sys = SimSystem::with_options(sim, specs, cell.kind, false, false, Stepping::SkipAhead);
    let mut ocfg = OracleConfig::for_sim(&sim);
    if matches!(cell.fault, Some(p) if p.class == FaultClass::DelayResponse) {
        // Delay faults need a finite latency bound to be detectable at
        // all; 1M cycles separates the injected delay from legitimate
        // queueing with wide margin (same setting as the conformance
        // suite).
        ocfg.max_response_latency = Some(1_000_000);
    }
    sys.attach_oracle_with(ocfg);
    if let Some(plan) = cell.fault {
        sys.set_fault_plan(plan).expect("composed fault plan is valid");
        sys.set_recovery_config(RecoveryConfig::enabled());
    }
    sys
}

/// Cycle bound for one run: generous for convergence, stretched past
/// the injected delay for delay faults (the delayed original holds a
/// device slot until it emerges).
fn cycle_limit(cell: &SoakCell, cfg: &SoakConfig) -> Cycle {
    let base = cfg
        .accesses_per_core
        .saturating_mul(u64::from(cfg.cores))
        .saturating_mul(2000)
        .max(10_000_000);
    match cell.fault {
        Some(p) if p.class == FaultClass::DelayResponse => {
            base.max(p.delay_cycles + 10_000_000)
        }
        _ => base,
    }
}

/// Reference leg results, kept for comparison against the resumed leg.
struct Leg {
    metrics: RunMetrics,
    oracle_violations: u64,
    oracle_fingerprint: (u64, u64, u64, u64),
    recovery: Option<pac_sim::RecoveryReport>,
    faults_injected: u64,
}

/// Drain one system to completion; `Err` carries the failure mode.
fn drain(mut sys: SimSystem, limit: Cycle, already_begun: bool, accesses: u64) -> Result<Leg, String> {
    if !already_begun {
        sys.begin_run(accesses);
    }
    match sys.advance(limit, Cycle::MAX) {
        RunProgress::Done => {}
        RunProgress::Aborted => return Err("recovery aborted (retry budget exhausted)".into()),
        RunProgress::CycleLimit => return Err(format!("wedged: cycle limit {limit} hit")),
        RunProgress::Paused => unreachable!("no stop_at was set"),
    }
    let metrics = sys.finish_run();
    let report = sys.oracle_report().expect("oracle attached");
    Ok(Leg {
        oracle_violations: report.violations.len() as u64,
        oracle_fingerprint: (
            report.accepted_raw,
            report.served_raw,
            report.dispatches,
            report.responses,
        ),
        recovery: sys.recovery_report(),
        faults_injected: sys.faults_injected(),
        metrics,
    })
}

/// Execute one soak cell: reference leg, then the kill/checkpoint/resume
/// leg, then the three-way verdict.
pub fn run_cell(cell: SoakCell, cfg: &SoakConfig) -> RunOutcome {
    let started = Instant::now();
    let mut outcome = run_cell_inner(cell, cfg);
    outcome.wall_seconds = started.elapsed().as_secs_f64();
    outcome
}

fn run_cell_inner(cell: SoakCell, cfg: &SoakConfig) -> RunOutcome {
    let sim = SimConfig { cores: cfg.cores, ..SimConfig::for_backend(cfg.backend) };
    let limit = cycle_limit(&cell, cfg);
    let meta = cell.describe();

    let mut outcome = RunOutcome {
        cell,
        survived: false,
        faults_injected: 0,
        retries_issued: 0,
        oracle_violations: 0,
        roundtrip_verified: false,
        failure: String::new(),
        wall_seconds: 0.0,
    };

    // Leg 1: uninterrupted reference.
    let reference = match drain(build_system(&cell, cfg, sim), limit, false, cfg.accesses_per_core)
    {
        Ok(leg) => leg,
        Err(e) => {
            outcome.failure = format!("{meta}: reference leg {e}");
            return outcome;
        }
    };
    outcome.faults_injected = reference.faults_injected;
    outcome.retries_issued = reference.recovery.as_ref().map_or(0, |r| r.retries_issued);
    outcome.oracle_violations = reference.oracle_violations;
    if let Some(rec) = &reference.recovery {
        if rec.aborted || !rec.stuck.is_empty() || rec.outstanding != 0 {
            outcome.failure = format!("{meta}: unrecovered — {}", rec.summary());
            return outcome;
        }
    }
    if reference.oracle_violations > 0 {
        outcome.failure = format!("{meta}: {} oracle violation(s)", reference.oracle_violations);
        return outcome;
    }

    // Leg 2: kill at a mid-run cycle, checkpoint, restore, resume.
    let stop_at = (reference.metrics.runtime_cycles * cell.kill_permille / 1000).max(1);
    let mut sys = build_system(&cell, cfg, sim);
    sys.begin_run(cfg.accesses_per_core);
    let resumed = match sys.advance(limit, stop_at) {
        RunProgress::Paused => {
            let bytes = match sys.save_state(&meta) {
                Ok(b) => b,
                Err(e) => {
                    outcome.failure = format!("{meta}: checkpoint save failed: {e}");
                    return outcome;
                }
            };
            drop(sys);
            let specs = single_process(cell.bench, cfg.cores, cell.seed);
            let restored = match SimSystem::restore(specs, &bytes, &meta) {
                Ok(s) => s,
                Err(e) => {
                    outcome.failure = format!("{meta}: checkpoint restore failed: {e}");
                    return outcome;
                }
            };
            outcome.roundtrip_verified = true;
            match drain(restored, limit, true, cfg.accesses_per_core) {
                Ok(leg) => leg,
                Err(e) => {
                    outcome.failure = format!("{meta}: resumed leg {e}");
                    return outcome;
                }
            }
        }
        // The run finished before the kill point (tiny runs under
        // skip-ahead can jump past it); no round-trip to verify, but
        // the leg still must match the reference.
        RunProgress::Done => {
            let metrics = sys.finish_run();
            let report = sys.oracle_report().expect("oracle attached");
            Leg {
                oracle_violations: report.violations.len() as u64,
                oracle_fingerprint: (
                    report.accepted_raw,
                    report.served_raw,
                    report.dispatches,
                    report.responses,
                ),
                recovery: sys.recovery_report(),
                faults_injected: sys.faults_injected(),
                metrics,
            }
        }
        RunProgress::Aborted => {
            outcome.failure = format!("{meta}: kill leg aborted before the kill point");
            return outcome;
        }
        RunProgress::CycleLimit => {
            outcome.failure = format!("{meta}: kill leg wedged before the kill point");
            return outcome;
        }
    };

    outcome.oracle_violations += resumed.oracle_violations;
    if resumed.metrics != reference.metrics {
        outcome.failure = format!("{meta}: resumed metrics diverged from reference");
    } else if resumed.oracle_fingerprint != reference.oracle_fingerprint
        || resumed.oracle_violations != reference.oracle_violations
    {
        outcome.failure = format!("{meta}: resumed oracle counters diverged from reference");
    } else if resumed.recovery != reference.recovery {
        outcome.failure = format!("{meta}: resumed recovery counters diverged from reference");
    } else if resumed.faults_injected != reference.faults_injected {
        outcome.failure = format!("{meta}: resumed fault count diverged from reference");
    } else {
        outcome.survived = true;
    }
    outcome
}

/// Run a whole campaign across the supervised scheduler pool.
/// `progress` receives one line per completed run, always in campaign
/// order (pass `|_| {}` to silence).
///
/// Cells fan out in bounded batches (a few per worker, so a
/// SIGINT/SIGTERM drain is honored between batches); wall-clock
/// campaigns draw one batch of `threads` cells between budget checks.
/// Either way the stream advances one draw per cell, so the cell
/// sequence — and, because [`run_supervised`] is order-preserving, the
/// report — is a pure function of the seed, not of the thread count or
/// batch size. A run that *panics* is retried under the supervision
/// policy and, after the budget, recorded as a quarantined failure
/// while the rest of the campaign completes.
pub fn soak(
    cfg: &SoakConfig,
    runner: &ParallelRunner,
    mut progress: impl FnMut(&RunOutcome),
) -> SoakReport {
    let start = Instant::now();
    let mut rng = cfg.seed;
    let mut report = SoakReport::default();
    let policy = SupervisePolicy { seed: cfg.seed, ..SupervisePolicy::default() };
    loop {
        if pac_types::sigwatch::triggered() {
            report.drained = true;
            break;
        }
        let batch_len = if cfg.runs > 0 {
            match cfg.runs - report.runs_total {
                0 => break,
                remaining => remaining.min((runner.threads() as u64).max(1) * 4),
            }
        } else {
            match cfg.wall_seconds {
                Some(budget) if start.elapsed().as_secs_f64() < budget => {
                    runner.threads() as u64
                }
                Some(_) => break,
                None => break, // refuse a shapeless campaign
            }
        };
        let cells: Vec<SoakCell> = (0..batch_len).map(|_| compose_cell(&mut rng)).collect();
        let (outcomes, stats) = run_supervised(
            runner.threads(),
            &cells,
            &policy,
            |_, cell| run_cell(*cell, cfg),
            |_, cell, reason| RunOutcome {
                cell: *cell,
                survived: false,
                faults_injected: 0,
                retries_issued: 0,
                oracle_violations: 0,
                roundtrip_verified: false,
                failure: format!("{}: quarantined — {reason}", cell.describe()),
                wall_seconds: 0.0,
            },
        );
        report.supervisor.merge(&stats);
        for outcome in outcomes {
            report.runs_total += 1;
            report.faults_injected += outcome.faults_injected;
            report.faults_recovered_retries += outcome.retries_issued;
            report.oracle_violations += outcome.oracle_violations;
            if outcome.roundtrip_verified && outcome.passed() {
                report.roundtrips_verified += 1;
            }
            if outcome.passed() {
                report.runs_survived += 1;
            } else {
                if outcome.failure.contains("unrecovered") || outcome.failure.contains("aborted")
                {
                    report.unrecovered_runs += 1;
                }
                report.failures.push(outcome.failure.clone());
            }
            progress(&outcome);
        }
    }
    report.wall_seconds = start.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_stream_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..16 {
            let ca = compose_cell(&mut a);
            let cb = compose_cell(&mut b);
            assert_eq!(ca.describe(), cb.describe());
        }
    }

    #[test]
    fn quick_cell_survives_with_roundtrip() {
        // A fixed clean cell with a mid-run kill must survive and
        // verify its round-trip.
        let cfg = SoakConfig::quick(7);
        let cell = SoakCell {
            bench: Bench::Ep,
            kind: CoalescerKind::Pac,
            fault: None,
            seed: 7,
            kill_permille: 500,
        };
        let out = run_cell(cell, &cfg);
        assert!(out.passed(), "{}", out.failure);
        assert!(out.survived);
        assert!(out.roundtrip_verified);
        assert_eq!(out.oracle_violations, 0);
    }

    #[test]
    fn faulted_cell_recovers_and_roundtrips() {
        let cfg = SoakConfig::quick(7);
        let cell = SoakCell {
            bench: Bench::Stream,
            kind: CoalescerKind::Pac,
            fault: Some(FaultPlan::new(FaultClass::DropResponse, 99)),
            seed: 11,
            kill_permille: 600,
        };
        let out = run_cell(cell, &cfg);
        assert!(out.passed(), "{}", out.failure);
        assert!(out.faults_injected > 0, "fault never fired");
        assert_eq!(out.oracle_violations, 0);
    }

    #[test]
    fn hbm_faulted_cell_recovers_and_roundtrips() {
        // The same chaos machinery on the HBM substrate: fault armed,
        // mid-run kill, bit-identical resume demanded.
        let cfg = SoakConfig { backend: BackendKind::Hbm, ..SoakConfig::quick(7) };
        let cell = SoakCell {
            bench: Bench::Stream,
            kind: CoalescerKind::Pac,
            fault: Some(FaultPlan::new(FaultClass::DuplicateResponse, 99)),
            seed: 11,
            kill_permille: 600,
        };
        let out = run_cell(cell, &cfg);
        assert!(out.passed(), "{}", out.failure);
        assert!(out.faults_injected > 0, "fault never fired");
        assert_eq!(out.oracle_violations, 0);
    }

    #[test]
    fn tiny_campaign_passes() {
        let cfg = SoakConfig { runs: 3, ..SoakConfig::quick(0x50A4) };
        let report = soak(&cfg, &ParallelRunner::new(1), |_| {});
        assert_eq!(report.runs_total, 3);
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn campaign_is_thread_count_independent() {
        // The same seed must produce the same cells, in the same order,
        // with the same verdicts, whether the campaign runs serially or
        // across a pool wider than the run count.
        let cfg = SoakConfig { runs: 3, ..SoakConfig::quick(0xD15C) };
        let mut serial_cells = Vec::new();
        let serial = soak(&cfg, &ParallelRunner::new(1), |o| serial_cells.push(o.cell.describe()));
        let mut wide_cells = Vec::new();
        let wide = soak(&cfg, &ParallelRunner::new(4), |o| wide_cells.push(o.cell.describe()));
        assert_eq!(serial_cells, wide_cells);
        assert_eq!(
            (serial.runs_total, serial.runs_survived, serial.faults_injected),
            (wide.runs_total, wide.runs_survived, wide.faults_injected)
        );
        assert_eq!(
            (serial.faults_recovered_retries, serial.roundtrips_verified),
            (wide.faults_recovered_retries, wide.roundtrips_verified)
        );
        assert_eq!(
            (serial.oracle_violations, serial.unrecovered_runs, serial.failures.clone()),
            (wide.oracle_violations, wide.unrecovered_runs, wide.failures.clone())
        );
    }
}
