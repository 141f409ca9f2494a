//! Oracle conformance: prove the lockstep checker catches what it
//! claims to catch.
//!
//! Two sweeps. The **clean matrix** runs every benchmark × coalescer
//! under the oracle with no faults and demands zero violations — the
//! timed models conform to the functional model. The **fault matrix**
//! arms each [`FaultClass`] on the memory device's response path and
//! demands that the *expected* invariant fires — the checker has teeth.
//! A checker that has never flagged anything is indistinguishable from
//! a checker that cannot; this module is the distinguishing experiment.

use crate::matrix::{matrix, MatrixCell};
use crate::reference;
use crate::runner::ParallelRunner;
use pac_obs::{CellId, ProgressSink};
use pac_oracle::{Invariant, OracleConfig, OracleReport};
use pac_serve::{run_supervised, SupervisePolicy};
use pac_sim::system::run_lockstep;
use pac_sim::{
    run_bench, CoalescerKind, ExperimentConfig, LockstepOutcome, RecoveryReport, SimSystem,
    Stepping,
};
use pac_types::{
    BackendKind, FaultClass, FaultPlan, RasClass, RasPlan, RasStats, RecoveryConfig, SimConfig,
};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;

/// One cell of the clean conformance matrix.
pub struct CleanCell {
    pub bench: Bench,
    pub kind: CoalescerKind,
    pub converged: bool,
    pub report: OracleReport,
}

impl CleanCell {
    pub fn passed(&self) -> bool {
        self.converged && self.report.is_clean()
    }
}

/// One cell of the fault-injection matrix.
pub struct FaultCell {
    pub class: FaultClass,
    pub kind: CoalescerKind,
    pub faults_injected: u64,
    pub report: OracleReport,
}

impl FaultCell {
    /// Detection means the expected invariant (not merely *some*
    /// invariant) fired, and the device really injected faults.
    pub fn detected(&self) -> bool {
        self.faults_injected > 0
            && expected_invariants(self.class).iter().any(|&inv| self.report.detected(inv))
    }
}

/// The invariant(s) that must catch each fault class. A drop surfaces
/// either as the unanswered dispatch or as the starved raw requests,
/// depending on which side of the coalescer the loss is observed from —
/// both are conservation failures and either is a correct catch.
pub fn expected_invariants(class: FaultClass) -> &'static [Invariant] {
    match class {
        FaultClass::DropResponse => {
            &[Invariant::LostResponse, Invariant::ResponseConservation]
        }
        FaultClass::DuplicateResponse => &[Invariant::SpuriousResponse],
        FaultClass::DelayResponse => &[Invariant::LatencyBound],
        FaultClass::CorruptAddr => &[Invariant::EchoIntegrity],
    }
}

/// Sweep scale. Quick mode is the CI configuration.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceScale {
    pub accesses_per_core: u64,
    pub cores: u32,
    /// Bound for runs that cannot converge (dropped responses wedge the
    /// drain); also the clean-run safety net.
    pub cycle_limit: u64,
}

impl ConformanceScale {
    pub fn quick() -> Self {
        ConformanceScale { accesses_per_core: 400, cores: 4, cycle_limit: 2_000_000 }
    }

    pub fn full() -> Self {
        ConformanceScale { accesses_per_core: 2000, cores: 8, cycle_limit: 20_000_000 }
    }
}

/// The simulation configuration for one conformance cell on `backend`:
/// the backend-matched protocol/device pairing with everything else at
/// the defaults the suite has always used.
pub fn backend_sim(backend: BackendKind) -> SimConfig {
    SimConfig::for_backend(backend)
}

fn fault_seed(class: FaultClass, kind: CoalescerKind) -> u64 {
    0xC0FF_EE00 + FaultClass::ALL.iter().position(|&c| c == class).unwrap() as u64 * 7
        + CoalescerKind::ALL.iter().position(|&k| k == kind).unwrap() as u64
}

/// The `config` label conformance cells carry on the progress stream.
fn scale_label(scale: ConformanceScale) -> String {
    format!("accesses={} cores={}", scale.accesses_per_core, scale.cores)
}

/// Supervision policy for conformance fan-outs: the scheduler pool's
/// defaults, seeded so retry backoff is reproducible.
fn supervise_policy() -> SupervisePolicy {
    SupervisePolicy { seed: 0xC0FF, ..SupervisePolicy::default() }
}

/// An all-zero oracle report for a quarantined (never-completed) cell.
fn empty_oracle_report() -> OracleReport {
    OracleReport {
        violations: Vec::new(),
        counts: [0; Invariant::ALL.len()],
        accepted_raw: 0,
        served_raw: 0,
        dispatches: 0,
        responses: 0,
    }
}

/// Emit the end-of-cell progress events for one lockstep outcome.
fn emit_cell(
    progress: &ProgressSink,
    seq: usize,
    id: &CellId<'_>,
    passed: bool,
    wall_seconds: f64,
    cycles: u64,
) {
    progress.cell_finish(seq, id, if passed { "pass" } else { "fail" }, wall_seconds, cycles);
}

/// Run the clean matrix: every benchmark × coalescer (the canonical
/// [`matrix`] enumeration), oracle attached, no faults. Cells fan out
/// across the supervised scheduler pool; each run is self-contained and
/// results come back in matrix order, so the output is independent of
/// thread count. A panicking cell is retried and then quarantined as a
/// failing entry instead of tearing down the sweep.
pub fn clean_matrix(
    scale: ConformanceScale,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> Vec<CleanCell> {
    let config = scale_label(scale);
    let policy = supervise_policy();
    let (cells, stats) = run_supervised(runner.threads(), &matrix(), &policy, |i, cell| {
        let id = CellId {
            bench: cell.bench.name(),
            kind: cell.kind.label(),
            backend: backend.label(),
            config: &config,
        };
        progress.cell_start(i, &id);
        let t = std::time::Instant::now();
        let specs = single_process(cell.bench, scale.cores, 7);
        let out = run_lockstep(
            backend_sim(backend),
            specs,
            cell.kind,
            scale.accesses_per_core,
            None,
            None,
            None,
            None,
            scale.cycle_limit,
        );
        let passed = out.converged && out.oracle.is_clean();
        emit_cell(
            progress,
            i,
            &id,
            passed,
            t.elapsed().as_secs_f64(),
            out.cycles,
        );
        CleanCell {
            bench: cell.bench,
            kind: cell.kind,
            converged: out.converged,
            report: out.oracle,
        }
    }, |i, cell, reason| {
        progress.cell_quarantined(i, policy.max_attempts, reason);
        CleanCell {
            bench: cell.bench,
            kind: cell.kind,
            converged: false,
            report: empty_oracle_report(),
        }
    });
    progress.supervisor(&stats);
    cells
}

/// Run the fault matrix: every fault class × coalescer on one
/// representative benchmark, fanned out across the supervised pool.
pub fn fault_matrix(
    scale: ConformanceScale,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> Vec<FaultCell> {
    let mut jobs = Vec::new();
    for &class in &FaultClass::ALL {
        for kind in CoalescerKind::ALL {
            jobs.push((class, kind));
        }
    }
    let config = scale_label(scale);
    let policy = supervise_policy();
    let (cells, stats) = run_supervised(runner.threads(), &jobs, &policy, |i, &(class, kind)| {
        let id = CellId {
            bench: class.label(),
            kind: kind.label(),
            backend: backend.label(),
            config: &config,
        };
        progress.cell_start(i, &id);
        let t = std::time::Instant::now();
        let out = run_fault(class, kind, scale, backend);
        let result =
            FaultCell { class, kind, faults_injected: out.faults_injected, report: out.oracle };
        emit_cell(
            progress,
            i,
            &id,
            result.detected(),
            t.elapsed().as_secs_f64(),
            out.cycles,
        );
        result
    }, |i, &(class, kind), reason| {
        progress.cell_quarantined(i, policy.max_attempts, reason);
        FaultCell { class, kind, faults_injected: 0, report: empty_oracle_report() }
    });
    progress.supervisor(&stats);
    cells
}

/// One cell of the recovery matrix: a fault-armed run with the
/// recovery layer enabled.
pub struct RecoveryCell {
    pub class: FaultClass,
    pub kind: CoalescerKind,
    pub converged: bool,
    pub faults_injected: u64,
    pub report: OracleReport,
    pub recovery: RecoveryReport,
    /// Retry-attempt ceiling the run was configured with.
    pub max_retries: u32,
}

impl RecoveryCell {
    /// Survival means the run *converged* with the oracle **silent**
    /// (conservation restored, not merely violations detected), faults
    /// really were injected, no transaction exhausted its budget, and
    /// every repair stayed within the configured attempt bound.
    pub fn passed(&self) -> bool {
        self.converged
            && self.report.is_clean()
            && self.faults_injected > 0
            && !self.recovery.aborted
            && self.recovery.stuck.is_empty()
            && self.recovery.outstanding == 0
            && self.recovery.max_attempts <= self.max_retries
    }

    /// One-line cell description for the binary's table.
    pub fn describe(&self) -> String {
        format!(
            "{:?} x {:?}: {} faults, {}",
            self.class,
            self.kind,
            self.faults_injected,
            self.recovery.summary()
        )
    }
}

/// Run the recovery matrix: every fault class × coalescer with the
/// default recovery policy armed. Passing cells prove the layer
/// *survives* each corruption class — the oracle stays silent because
/// the repair happened, not because detection was disabled.
pub fn recovery_matrix(
    scale: ConformanceScale,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> Vec<RecoveryCell> {
    let cfg = RecoveryConfig::enabled();
    let mut jobs = Vec::new();
    for &class in &FaultClass::ALL {
        for kind in CoalescerKind::ALL {
            jobs.push((class, kind));
        }
    }
    let config = scale_label(scale);
    let policy = supervise_policy();
    let (cells, stats) = run_supervised(runner.threads(), &jobs, &policy, |i, &(class, kind)| {
        let id = CellId {
            bench: class.label(),
            kind: kind.label(),
            backend: backend.label(),
            config: &config,
        };
        progress.cell_start(i, &id);
        let t = std::time::Instant::now();
        let out = run_fault_with(class, kind, scale, Some(cfg), backend);
        let recovery = out.recovery.expect("recovery-enabled run must produce a report");
        let result = RecoveryCell {
            class,
            kind,
            converged: out.converged,
            faults_injected: out.faults_injected,
            report: out.oracle,
            recovery,
            max_retries: cfg.max_retries,
        };
        emit_cell(
            progress,
            i,
            &id,
            result.passed(),
            t.elapsed().as_secs_f64(),
            out.cycles,
        );
        result
    }, |i, &(class, kind), reason| {
        progress.cell_quarantined(i, policy.max_attempts, reason);
        RecoveryCell {
            class,
            kind,
            converged: false,
            faults_injected: 0,
            report: empty_oracle_report(),
            recovery: RecoveryReport {
                retries_issued: 0,
                duplicates_dropped: 0,
                poisoned_responses: 0,
                watchdog_fires: 0,
                max_attempts: 0,
                aborted: false,
                outstanding: 0,
                stuck: Vec::new(),
            },
            max_retries: cfg.max_retries,
        }
    });
    progress.supervisor(&stats);
    cells
}

/// One armed run with the recovery layer absent (detection-only).
pub fn run_fault(
    class: FaultClass,
    kind: CoalescerKind,
    scale: ConformanceScale,
    backend: BackendKind,
) -> LockstepOutcome {
    run_fault_with(class, kind, scale, None, backend)
}

/// One armed run. Delay faults need a finite latency bound on the
/// checker (clean runs leave it disabled: legitimate queueing latency
/// is workload-dependent) and a cycle limit past the injected delay —
/// even under recovery, the *delayed original* holds a device slot
/// until it finally emerges (and is then deduplicated), so the limit
/// must still cover the injected delay.
pub fn run_fault_with(
    class: FaultClass,
    kind: CoalescerKind,
    scale: ConformanceScale,
    recovery: Option<RecoveryConfig>,
    backend: BackendKind,
) -> LockstepOutcome {
    let cfg = backend_sim(backend);
    let plan = FaultPlan::new(class, fault_seed(class, kind));
    let mut oracle_cfg = OracleConfig::for_sim(&cfg);
    let mut limit = scale.cycle_limit;
    if class == FaultClass::DelayResponse {
        // The injected delay (5M cycles) dwarfs any legitimate latency;
        // a 1M bound separates them with a wide margin on both sides.
        oracle_cfg.max_response_latency = Some(1_000_000);
        limit = limit.max(plan.delay_cycles + 10_000_000);
    }
    let specs = single_process(Bench::Stream, scale.cores, 7);
    run_lockstep(
        cfg,
        specs,
        kind,
        scale.accesses_per_core,
        Some(plan),
        None,
        recovery,
        Some(oracle_cfg),
        limit,
    )
}

/// One cell of the hardware-RAS matrix: a run with one [`RasClass`]
/// armed on its native backend.
pub struct RasCell {
    pub class: RasClass,
    pub kind: CoalescerKind,
    pub converged: bool,
    /// Events of the armed class the device actually modeled.
    pub events: u64,
    pub stats: RasStats,
    pub report: OracleReport,
    /// [`RasClass::EccDouble`] cells run with recovery armed — the
    /// poisoned echo *must* be repaired for the oracle to stay silent.
    pub recovery: Option<RecoveryReport>,
}

impl RasCell {
    /// Surviving a RAS class means the hardware defense absorbed it:
    /// the run converged, events of the armed class really occurred,
    /// and the oracle stayed **silent** — a retried packet is not a
    /// duplicate, a corrected beat is not a corruption. Where recovery
    /// rode along (double-bit detects), no retry budget may blow.
    pub fn passed(&self) -> bool {
        self.converged
            && self.events > 0
            && self.report.is_clean()
            && self.recovery.as_ref().is_none_or(|r| {
                !r.aborted && r.stuck.is_empty() && r.outstanding == 0
            })
    }
}

fn ras_seed(class: RasClass, kind: CoalescerKind) -> u64 {
    0x9A5_C0DE
        + RasClass::ALL.iter().position(|&c| c == class).unwrap() as u64 * 13
        + CoalescerKind::ALL.iter().position(|&k| k == kind).unwrap() as u64
}

/// The RAS classes that run on `backend` — link classes live in the
/// HMC SERDES stack, ECC/scrub classes in the HBM arrays.
pub fn ras_classes_for(backend: BackendKind) -> Vec<RasClass> {
    RasClass::ALL.iter().copied().filter(|c| c.backend() == backend).collect()
}

/// One armed RAS run. Double-bit detects poison the address echo, so
/// those cells arm the transaction-recovery layer — surviving them
/// means detection *plus* repair, exactly the deployed configuration.
pub fn run_ras(
    class: RasClass,
    kind: CoalescerKind,
    scale: ConformanceScale,
    backend: BackendKind,
) -> LockstepOutcome {
    let plan = RasPlan::new(class, ras_seed(class, kind));
    let recovery = (class == RasClass::EccDouble).then(RecoveryConfig::enabled);
    let specs = single_process(Bench::Stream, scale.cores, 7);
    run_lockstep(
        backend_sim(backend),
        specs,
        kind,
        scale.accesses_per_core,
        None,
        Some(plan),
        recovery,
        None,
        scale.cycle_limit,
    )
}

/// Run the RAS matrix: every [`RasClass`] native to `backend` × every
/// coalescer, fanned out across the supervised pool. Passing cells
/// prove each hardware fault class is injected, detected, and
/// *survived* with the oracle silent and conservation intact.
pub fn ras_matrix(
    scale: ConformanceScale,
    backend: BackendKind,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> Vec<RasCell> {
    let mut jobs = Vec::new();
    for class in ras_classes_for(backend) {
        for kind in CoalescerKind::ALL {
            jobs.push((class, kind));
        }
    }
    let config = scale_label(scale);
    let policy = supervise_policy();
    let (cells, stats) = run_supervised(runner.threads(), &jobs, &policy, |i, &(class, kind)| {
        let id = CellId {
            bench: class.label(),
            kind: kind.label(),
            backend: backend.label(),
            config: &config,
        };
        progress.cell_start(i, &id);
        let t = std::time::Instant::now();
        let out = run_ras(class, kind, scale, backend);
        let stats = out.ras_stats.unwrap_or_default();
        let result = RasCell {
            class,
            kind,
            converged: out.converged,
            events: stats.events_for(class),
            stats,
            report: out.oracle,
            recovery: out.recovery,
        };
        emit_cell(
            progress,
            i,
            &id,
            result.passed(),
            t.elapsed().as_secs_f64(),
            out.cycles,
        );
        result
    }, |i, &(class, kind), reason| {
        progress.cell_quarantined(i, policy.max_attempts, reason);
        RasCell {
            class,
            kind,
            converged: false,
            events: 0,
            stats: RasStats::default(),
            report: empty_oracle_report(),
            recovery: None,
        }
    });
    progress.supervisor(&stats);
    cells
}

/// One row of the degraded-mode throughput table.
pub struct DegradedRow {
    /// Operating mode label ("healthy", "half-width", ...).
    pub mode: &'static str,
    /// Simulated cycles the run took in this mode.
    pub cycles: u64,
    /// RAS counters at the end of the run (zeroes for healthy).
    pub stats: RasStats,
}

/// Measure steady-state throughput across the degradation ladder on
/// `backend`: STREAM × PAC, healthy first, then each degraded mode.
/// HMC walks the link ladder with `preset_degraded` plans (the
/// end-state is applied at arm time, nothing is injected, so the row
/// measures the *mode*, not the transition); HBM compares a quiet
/// array against one with the patrol scrubber stealing bank cycles.
pub fn degraded_table(scale: ConformanceScale, backend: BackendKind) -> Vec<DegradedRow> {
    let preset = |class| RasPlan {
        preset_degraded: true,
        ..RasPlan::new(class, 0x0DE6_0ADE)
    };
    let modes: Vec<(&'static str, Option<RasPlan>)> = match backend {
        BackendKind::Hmc => vec![
            ("healthy", None),
            ("half-width", Some(preset(RasClass::RetryStorm))),
            ("link-retired", Some(preset(RasClass::LinkRetire))),
        ],
        BackendKind::Hbm => vec![
            ("healthy", None),
            ("scrub-on", Some(RasPlan::new(RasClass::Scrub, 0x0DE6_0ADE))),
        ],
    };
    modes
        .into_iter()
        .map(|(mode, plan)| {
            let specs = single_process(Bench::Stream, scale.cores, 7);
            let out = run_lockstep(
                backend_sim(backend),
                specs,
                CoalescerKind::Pac,
                scale.accesses_per_core,
                None,
                plan,
                None,
                None,
                scale.cycle_limit,
            );
            DegradedRow {
                mode,
                cycles: out.cycles,
                stats: out.ras_stats.unwrap_or_default(),
            }
        })
        .collect()
}

/// Prove a disabled layer is zero-cost: re-run the committed reference
/// rows of `backend` ([`crate::reference`]) with `recovery` attached and
/// require every simulated cycle count to reproduce exactly. Phase R2
/// attaches [`RecoveryConfig::disabled`]; phase H3 attaches nothing,
/// leaving the RAS layer present but unarmed, exactly how every non-RAS
/// run executes. Returns the mismatching cells (empty = pass).
/// `max_cells` bounds the sweep for quick mode (0 = all).
pub fn disabled_reproduction(
    backend: BackendKind,
    recovery: Option<RecoveryConfig>,
    max_cells: usize,
) -> Result<Vec<String>, String> {
    let cfg = reference::config(backend);
    let mut rows = reference::committed(backend)?;
    if max_cells > 0 {
        rows.truncate(max_cells);
    }
    let mut mismatches = Vec::new();
    for row in &rows {
        let specs = single_process(row.cell.bench, cfg.sim.cores, cfg.seed);
        let mut sys =
            SimSystem::with_options(cfg.sim, specs, row.cell.kind, false, false, cfg.stepping);
        if let Some(rc) = recovery {
            sys.set_recovery_config(rc);
        }
        let m = sys.run(cfg.accesses_per_core);
        if m.runtime_cycles != row.cycles {
            mismatches.push(format!(
                "{}: {} cycles, reference {}",
                row.cell.label(),
                m.runtime_cycles,
                row.cycles
            ));
        }
    }
    Ok(mismatches)
}

/// The determinism gate: run `cells` on one worker and on `runner`'s
/// width and require the **full** per-cell [`pac_sim::RunMetrics`] —
/// every figure-level aggregate, not just cycle counts — to match
/// exactly. The wide fan-out's worker stats go to `progress`. Returns
/// the divergence descriptions (empty = gate passed).
pub fn determinism_gate(
    cells: &[MatrixCell],
    cfg: &ExperimentConfig,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> Vec<String> {
    let cfg = ExperimentConfig { stepping: Stepping::SkipAhead, ..*cfg };
    let run = |_: usize, mc: &MatrixCell| run_bench(mc.bench, mc.kind, &cfg).0;
    let serial = ParallelRunner::new(1).run(cells, run);
    let (wide, stats) = runner.run_observed(cells, run);
    progress.worker_util(&stats);
    cells
        .iter()
        .zip(serial.iter().zip(&wide))
        .filter(|(_, (s, w))| s != w)
        .map(|(mc, _)| {
            format!(
                "{}: RunMetrics diverge between 1 and {} worker(s)",
                mc.label(),
                runner.threads()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every fault class is caught by its expected invariant under PAC,
    /// on both memory backends.
    #[test]
    fn every_fault_class_detected_under_pac() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        for backend in BackendKind::ALL {
            for &class in &FaultClass::ALL {
                let out = run_fault(class, CoalescerKind::Pac, scale, backend);
                assert!(out.faults_injected > 0, "{backend:?}/{class:?}: no fault injected");
                let caught = expected_invariants(class)
                    .iter()
                    .any(|&inv| out.oracle.detected(inv));
                assert!(
                    caught,
                    "{backend:?}/{class:?} not caught: {}",
                    out.oracle.summary()
                );
            }
        }
    }

    /// With recovery armed, every fault class *survives* under PAC: the
    /// run converges, the oracle is silent, and no retry budget blows.
    #[test]
    fn recovery_survives_each_class_under_pac() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        let cfg = RecoveryConfig::enabled();
        for &class in &FaultClass::ALL {
            let out =
                run_fault_with(class, CoalescerKind::Pac, scale, Some(cfg), BackendKind::Hmc);
            let rec = out.recovery.expect("recovery-enabled run must produce a report");
            assert!(out.faults_injected > 0, "{class:?}: no fault injected");
            assert!(out.converged, "{class:?} did not converge: {}", rec.summary());
            assert!(out.oracle.is_clean(), "{class:?} oracle: {}", out.oracle.summary());
            assert!(
                !rec.aborted && rec.stuck.is_empty(),
                "{class:?} exhausted a retry budget: {}",
                rec.summary()
            );
            assert!(rec.max_attempts <= cfg.max_retries, "{class:?}: {}", rec.summary());
        }
    }

    /// The fan-out is observationally serial: every cell's verdict and
    /// counters are identical at any worker count.
    #[test]
    fn fault_matrix_is_thread_count_independent() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        let sink = ProgressSink::disabled();
        let serial = fault_matrix(scale, BackendKind::Hbm, &ParallelRunner::new(1), &sink);
        let wide = fault_matrix(scale, BackendKind::Hbm, &ParallelRunner::new(3), &sink);
        assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.faults_injected, b.faults_injected, "{:?}/{:?}", a.class, a.kind);
            assert_eq!(a.detected(), b.detected(), "{:?}/{:?}", a.class, a.kind);
            assert_eq!(
                a.report.summary(),
                b.report.summary(),
                "{:?}/{:?} oracle reports diverged across thread counts",
                a.class,
                a.kind
            );
        }
    }

    /// Every RAS class is injected, detected, and survived on its
    /// native backend under PAC: the oracle stays silent through CRC
    /// retries, ECC corrections, poison-and-reissue repairs, and scrub
    /// windows — a retried packet is not a duplicate.
    #[test]
    fn every_ras_class_survives_on_its_backend_under_pac() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        for backend in BackendKind::ALL {
            for class in ras_classes_for(backend) {
                let out = run_ras(class, CoalescerKind::Pac, scale, backend);
                let stats = out.ras_stats.expect("armed run must report RAS stats");
                assert!(
                    stats.events_for(class) > 0,
                    "{backend:?}/{class:?}: no RAS event modeled ({stats:?})"
                );
                assert!(out.converged, "{backend:?}/{class:?} did not converge");
                assert!(
                    out.oracle.is_clean(),
                    "{backend:?}/{class:?} oracle: {}",
                    out.oracle.summary()
                );
                // Conservation through retransmission, in numbers.
                assert_eq!(out.oracle.accepted_raw, out.oracle.served_raw);
            }
        }
    }

    /// Every degraded-mode row really runs in its mode: the preset
    /// rows are in their end states from cycle zero (nothing injected,
    /// the mode itself is measured) and the scrub row models windows.
    /// Cycle counts are reported, not ordered — at small scale a
    /// slower link can *reduce* bank conflicts downstream, so the
    /// table's job is to measure, not to assume monotonicity.
    #[test]
    fn degraded_table_rows_run_in_their_modes() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        let rows = degraded_table(scale, BackendKind::Hmc);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, "healthy");
        assert_eq!(rows[0].stats, pac_types::RasStats::default());
        assert_eq!(rows[1].stats.links_half_width, 1, "half-width preset not applied");
        assert_eq!(rows[1].stats.crc_errors, 0, "preset rows must not inject");
        assert_eq!(rows[2].stats.links_retired, 1, "retired preset not applied");
        assert!(rows.iter().all(|r| r.cycles > 0));
        // The ladder really changes timing: the degraded rows are not
        // bit-identical replays of the healthy row.
        assert_ne!(rows[1].cycles, rows[0].cycles);
        assert_ne!(rows[2].cycles, rows[0].cycles);
        let rows = degraded_table(scale, BackendKind::Hbm);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].stats.scrub_hits > 0, "scrub-on row modeled no windows");
        assert!(rows.iter().all(|r| r.cycles > 0));
    }

    #[test]
    fn determinism_gate_passes_on_clean_matrix() {
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let gs_row: Vec<MatrixCell> =
            CoalescerKind::ALL.iter().map(|&kind| MatrixCell { bench: Bench::Gs, kind }).collect();
        let (sink, buf) = ProgressSink::to_buffer();
        let mismatches = determinism_gate(&gs_row, &cfg, &ParallelRunner::new(4), &sink);
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert!(buf.contents().contains("\"ev\":\"worker_util\""), "{}", buf.contents());
    }

    /// A clean armed-with-nothing run stays clean (spot check; the full
    /// matrix is the binary's job).
    #[test]
    fn clean_spot_check_is_clean() {
        let scale = ConformanceScale::quick();
        let specs = single_process(Bench::Ep, scale.cores, 7);
        let out = run_lockstep(
            SimConfig::default(),
            specs,
            CoalescerKind::Pac,
            scale.accesses_per_core,
            None,
            None,
            None,
            None,
            scale.cycle_limit,
        );
        assert!(out.converged);
        assert_eq!(out.faults_injected, 0);
        assert!(out.oracle.is_clean(), "{}", out.oracle.summary());
    }
}
