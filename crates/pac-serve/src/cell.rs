//! Executing one campaign cell: build (or restore) the simulated
//! system, advance it — whole, or one preemption quantum at a time —
//! and distil the result into an exact [`CellFingerprint`].
//!
//! Everything here is deterministic: the same [`CellSpec`] always
//! produces the same fingerprint, whether it ran in one lease or was
//! preempted/checkpointed/resumed arbitrarily many times (the PACSNAP1
//! round-trip is bit-identical, which
//! `tests/checkpoint_resume_equivalence.rs` proves independently). That
//! determinism is what lets the chaos harness demand bit-identical
//! per-cell results across `kill -9`.

use crate::journal::CellFingerprint;
use crate::spec::{CampaignSpec, CellSpec};
use pac_oracle::OracleConfig;
use pac_sim::{RunProgress, SimSystem, Stepping};
use pac_types::{Cycle, FaultClass, FaultPlan, RasClass, RasPlan, RecoveryConfig, SimConfig};
use pac_workloads::multiproc::single_process;

/// Cycles advanced between heartbeat ticks when no preemption quantum
/// is set: small enough that a live worker beats many times per second,
/// large enough that slicing cost is noise.
const HEARTBEAT_SLICE: Cycle = 1_000_000;

/// What one lease of a cell produced.
#[derive(Debug)]
pub enum CellStep {
    /// The cell drained and verified; here is its exact identity.
    Done(CellFingerprint),
    /// The preemption quantum expired: the cell checkpointed and should
    /// re-enter the queue.
    Preempted {
        /// PACSNAP1 snapshot bytes.
        bytes: Vec<u8>,
        /// Simulated cycle of the snapshot.
        cycle: Cycle,
    },
}

/// Snapshot meta string for a cell (save and restore must agree).
pub fn snapshot_meta(cell: &CellSpec) -> String {
    cell.describe()
}

/// Generous convergence bound, stretched past the injected delay for
/// delay faults.
pub fn cycle_limit(cell: &CellSpec, spec: &CampaignSpec) -> Cycle {
    // A fault with recovery disabled wedges by design (a dropped
    // response is never re-issued), so the run burns its whole bound
    // every attempt: use the conformance-scale floor, not the 10M one.
    let floor = if cell.fault.is_some() && !cell.recovery { 600_000 } else { 10_000_000 };
    let base = spec
        .accesses_per_core
        .saturating_mul(u64::from(spec.cores))
        .saturating_mul(2000)
        .max(floor);
    match cell.fault {
        Some(FaultClass::DelayResponse) => {
            base.max(FaultPlan::new(FaultClass::DelayResponse, cell.seed).delay_cycles + 10_000_000)
        }
        _ => base,
    }
}

/// Build a fresh system for a cell and begin its run: oracle always
/// attached, fault plan armed when the cell carries one, recovery per
/// the cell's flag (fault + recovery-off is the deliberately poisonous
/// configuration — the oracle fires and the cell fails every attempt).
pub fn build(cell: &CellSpec, spec: &CampaignSpec) -> SimSystem {
    let sim = SimConfig { cores: spec.cores, ..SimConfig::for_backend(cell.backend) };
    let specs = single_process(cell.bench, spec.cores, cell.seed);
    let mut sys = SimSystem::with_options(sim, specs, cell.kind, false, false, Stepping::SkipAhead);
    let mut ocfg = OracleConfig::for_sim(&sim);
    if cell.fault == Some(FaultClass::DelayResponse) {
        // Delay faults need a finite latency bound to be detectable;
        // 1M cycles separates injected delay from legitimate queueing
        // (same setting as the conformance suite).
        ocfg.max_response_latency = Some(1_000_000);
    }
    sys.attach_oracle_with(ocfg);
    if let Some(class) = cell.fault {
        sys.set_fault_plan(FaultPlan::new(class, cell.seed))
            .expect("enumerated fault plan is valid");
        if cell.recovery {
            sys.set_recovery_config(RecoveryConfig::enabled());
        }
    }
    if let Some(class) = cell.ras {
        // Enumeration guarantees the class is native to the cell's
        // backend.
        sys.set_ras_plan(RasPlan::new(class, cell.seed))
            .expect("enumerated ras class is native to the cell's backend");
        // A double-bit detect poisons the address echo; without the
        // recovery layer's poison-and-reissue the oracle fires and the
        // cell fails (deliberately, when recovery=off).
        if class == RasClass::EccDouble && cell.recovery {
            sys.set_recovery_config(RecoveryConfig::enabled());
        }
    }
    sys.begin_run(spec.accesses_per_core);
    sys
}

/// Restore a cell from checkpoint bytes. The snapshot carries the
/// oracle, fault, and recovery state.
pub fn restore(cell: &CellSpec, spec: &CampaignSpec, bytes: &[u8]) -> Result<SimSystem, String> {
    let specs = single_process(cell.bench, spec.cores, cell.seed);
    SimSystem::restore(specs, bytes, &snapshot_meta(cell))
        .map_err(|e| format!("checkpoint restore failed: {e}"))
}

/// Advance one lease of a cell. With a quantum, the cell runs at most
/// `quantum` more cycles, then checkpoints and reports
/// [`CellStep::Preempted`]; without one, it runs to completion in
/// heartbeat-sized slices, calling `tick` between slices so a watchdog
/// can tell progress from a wedge.
pub fn advance_lease(
    mut sys: SimSystem,
    cell: &CellSpec,
    spec: &CampaignSpec,
    quantum: Option<Cycle>,
    tick: &(dyn Fn() + Sync),
) -> Result<CellStep, String> {
    let limit = cycle_limit(cell, spec);
    match quantum {
        Some(q) => {
            let stop = sys.now().saturating_add(q.max(1));
            match sys.advance(limit, stop) {
                RunProgress::Paused => {
                    let cycle = sys.now();
                    let bytes = sys
                        .save_state(&snapshot_meta(cell))
                        .map_err(|e| format!("checkpoint save failed: {e}"))?;
                    Ok(CellStep::Preempted { bytes, cycle })
                }
                RunProgress::Done => finish(sys, cell).map(CellStep::Done),
                RunProgress::Aborted => {
                    Err("recovery aborted (retry budget exhausted)".to_string())
                }
                RunProgress::CycleLimit => Err(format!("wedged: cycle limit {limit} hit")),
            }
        }
        None => loop {
            let stop = sys.now().saturating_add(HEARTBEAT_SLICE);
            match sys.advance(limit, stop) {
                RunProgress::Paused => tick(),
                RunProgress::Done => return finish(sys, cell).map(CellStep::Done),
                RunProgress::Aborted => {
                    return Err("recovery aborted (retry budget exhausted)".to_string())
                }
                RunProgress::CycleLimit => {
                    return Err(format!("wedged: cycle limit {limit} hit"))
                }
            }
        },
    }
}

/// Drain the finished run into a fingerprint, enforcing the cell's
/// verification contract: oracle silent, recovery (when enabled) fully
/// drained.
fn finish(mut sys: SimSystem, _cell: &CellSpec) -> Result<CellFingerprint, String> {
    let metrics = sys.finish_run();
    let report = sys.oracle_report().expect("oracle attached at build");
    let recovery = sys.recovery_report();
    if let Some(rec) = &recovery {
        if rec.aborted || !rec.stuck.is_empty() || rec.outstanding != 0 {
            return Err(format!("unrecovered — {}", rec.summary()));
        }
    }
    if !report.violations.is_empty() {
        return Err(format!("oracle: {} violation(s)", report.violations.len()));
    }
    Ok(CellFingerprint {
        cycles: metrics.runtime_cycles,
        raw_requests: metrics.raw_requests,
        dispatched: metrics.dispatched_requests,
        comparisons: metrics.comparisons,
        transaction_bytes: metrics.transaction_bytes,
        latency_bits: metrics.avg_mem_latency_ns.to_bits(),
        faults_injected: sys.faults_injected(),
        retries_issued: recovery.as_ref().map_or(0, |r| r.retries_issued),
        oracle_accepted: report.accepted_raw,
        oracle_served: report.served_raw,
        oracle_dispatches: report.dispatches,
        oracle_responses: report.responses,
    })
}

/// Run one cell start-to-finish in the calling thread with no
/// preemption — the reference path the chaos harness compares against,
/// and the building block for in-process supervised pools.
pub fn run_to_completion(cell: &CellSpec, spec: &CampaignSpec) -> Result<CellFingerprint, String> {
    match advance_lease(build(cell, spec), cell, spec, None, &|| {})? {
        CellStep::Done(fp) => Ok(fp),
        CellStep::Preempted { .. } => unreachable!("no quantum was set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_sim::CoalescerKind;
    use pac_types::BackendKind;
    use pac_workloads::Bench;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            cores: 2,
            accesses_per_core: 120,
            ..CampaignSpec::default()
        }
    }

    fn clean_cell(spec: &CampaignSpec) -> CellSpec {
        CellSpec {
            index: 0,
            backend: BackendKind::Hmc,
            bench: Bench::Ep,
            kind: CoalescerKind::Pac,
            fault: None,
            ras: None,
            recovery: true,
            seed: pac_types::derive_seed(spec.seed, 0),
        }
    }

    #[test]
    fn completion_is_deterministic() {
        let spec = tiny_spec();
        let cell = clean_cell(&spec);
        let a = run_to_completion(&cell, &spec).unwrap();
        let b = run_to_completion(&cell, &spec).unwrap();
        assert_eq!(a, b);
        assert!(a.cycles > 0 && a.raw_requests > 0);
    }

    #[test]
    fn preempted_cell_resumes_bit_identically() {
        let spec = tiny_spec();
        let cell = clean_cell(&spec);
        let reference = run_to_completion(&cell, &spec).unwrap();

        // Drive the same cell through repeated small quanta with a full
        // save/restore round-trip at every boundary.
        let mut sys = build(&cell, &spec);
        let mut preemptions = 0;
        let fp = loop {
            match advance_lease(sys, &cell, &spec, Some(5_000), &|| {}).unwrap() {
                CellStep::Done(fp) => break fp,
                CellStep::Preempted { bytes, cycle } => {
                    preemptions += 1;
                    assert!(cycle > 0);
                    sys = restore(&cell, &spec, &bytes).unwrap();
                    assert_eq!(sys.now(), cycle);
                }
            }
        };
        assert!(preemptions > 0, "quantum never expired — test is vacuous");
        assert_eq!(fp, reference, "preempted run diverged from the uninterrupted one");
    }

    #[test]
    fn poisoned_cell_fails_deterministically() {
        // Fault armed, recovery off: the oracle must fire, and the
        // failure must be the same every attempt (retries cannot save
        // a deterministic failure — quarantine is the right verdict).
        let spec = tiny_spec();
        let cell = CellSpec {
            fault: Some(FaultClass::DropResponse),
            recovery: false,
            ..clean_cell(&spec)
        };
        let a = run_to_completion(&cell, &spec).unwrap_err();
        let b = run_to_completion(&cell, &spec).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_cell_with_recovery_passes() {
        let spec = tiny_spec();
        let cell = CellSpec {
            bench: Bench::Stream,
            fault: Some(FaultClass::DropResponse),
            recovery: true,
            ..clean_cell(&spec)
        };
        let fp = run_to_completion(&cell, &spec).unwrap();
        assert!(fp.faults_injected > 0, "fault never fired");
    }

    #[test]
    fn ras_cells_survive_on_both_substrates() {
        // A link-CRC cell on hmc and a double-bit ECC cell (recovery
        // repairs the poisoned echoes) on hbm both complete with the
        // oracle silent, and resume bit-identically mid-retransmission.
        let spec = tiny_spec();
        let link = CellSpec {
            bench: Bench::Stream,
            ras: Some(pac_types::RasClass::LinkBitError),
            ..clean_cell(&spec)
        };
        let fp = run_to_completion(&link, &spec).unwrap();
        assert_eq!(fp.oracle_accepted, fp.oracle_served, "conservation through retries");

        // Preempt the same cell through save/restore round-trips.
        let mut sys = build(&link, &spec);
        let resumed = loop {
            match advance_lease(sys, &link, &spec, Some(4_000), &|| {}).unwrap() {
                CellStep::Done(fp) => break fp,
                CellStep::Preempted { bytes, .. } => {
                    sys = restore(&link, &spec, &bytes).unwrap();
                }
            }
        };
        assert_eq!(resumed, fp, "RAS cell diverged across preemption");

        let ecc = CellSpec {
            backend: BackendKind::Hbm,
            bench: Bench::Stream,
            ras: Some(pac_types::RasClass::EccDouble),
            ..clean_cell(&spec)
        };
        run_to_completion(&ecc, &spec).unwrap();
    }
}
