//! Memory-backend abstraction for the PAC simulator.
//!
//! The simulation core was grown against one device model — the HMC of
//! `hmc-sim` — but PAC's claim (page-granular coalescing exploits
//! 3D-stacked locality) is about stacked DRAM in general, not about the
//! discontinued HMC specifically. This crate extracts the device
//! surface the rest of the system actually uses into the
//! [`MemoryBackend`] trait, provides the [`build_backend`] /
//! [`load_backend`] factory keyed on [`pac_types::BackendKind`], and
//! adds a second cycle-level backend: the HBM-style pseudo-channel
//! model in [`hbm`].
//!
//! Every backend speaks the same packet vocabulary ([`HmcRequest`] /
//! [`HmcResponse`] — 16 B FLITs, id-echoed completions) so the
//! coalescer, oracle, recovery layer, tracer, and snapshot machinery
//! work unchanged on top of any of them. What differs per backend is
//! the *topology and timing under* that vocabulary: how addresses map
//! to service units, what serializes, what conflicts, and what each
//! event costs. The differential conformance suite in `pac-bench`
//! (`conformance --diff`) exploits exactly that split: the same request
//! stream must complete the same request *set* on every backend, while
//! cycle timings are free to (and do) differ.

pub mod channel;
pub mod hbm;

pub use hbm::Hbm;

use hmc_sim::{EnergyBreakdown, Hmc, HmcRequest, HmcResponse, HmcStats};
use pac_trace::TraceHandle;
use pac_types::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use pac_types::{
    BackendKind, Cycle, FaultPlan, FaultPlanError, RasPlan, RasPlanError, RasStats, SimConfig,
    StallCycles,
};

/// The cycle-level device surface the simulator core is generic over.
///
/// This is the exact set of operations `pac-sim::SimSystem`, the
/// benches, and the checkpoint machinery perform on a device. The
/// contract mirrors the repo-wide stepping rules:
///
/// * **Skip-ahead soundness** — [`next_event`](Self::next_event) must
///   return a conservative lower bound on the next cycle at which
///   [`tick`](Self::tick)/[`pop_responses`](Self::pop_responses) could
///   make progress; waking early must be a harmless no-op.
/// * **Determinism** — behavior is a pure function of the submitted
///   request sequence.
/// * **Snapshot fidelity** — [`save_state`](Self::save_state) between
///   ticks must capture everything needed for a restored device to
///   continue bit-identically.
/// * **Conservation** — every submitted request eventually yields
///   exactly one response (unless a fault plan deliberately breaks
///   this), and [`is_idle`](Self::is_idle) goes true once it has.
pub trait MemoryBackend: std::fmt::Debug {
    /// Which backend this is (drives snapshot restore dispatch and
    /// labeling in bench output).
    fn kind(&self) -> BackendKind;

    /// Number of independent service units (vaults / pseudo-channels):
    /// the topology bound fault plans are validated against.
    fn units(&self) -> u32;

    /// Accept a request at cycle `now`. Panics if the payload spans a
    /// device row boundary — the coalescer guarantees row-contained
    /// requests, and the protocol/backend pairing enforces matching row
    /// sizes at system construction.
    fn submit(&mut self, req: HmcRequest, now: Cycle);

    /// Advance the device to cycle `now`.
    fn tick(&mut self, now: Cycle);

    /// Drain every response whose return completed by `now`.
    fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>);

    /// Earliest cycle ≥ `now` at which [`tick`](Self::tick) or
    /// [`pop_responses`](Self::pop_responses) could make progress —
    /// a unit issue, a data-ready hand-off to the return path, or a
    /// response to pop — or `None` when idle. Conservative: early
    /// wakes are no-ops, so ticking the device at exactly these cycles
    /// is equivalent to ticking it every cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// Earliest cycle ≥ `now` at which something outside the device can
    /// see a change: a response becomes poppable, or — while a fault
    /// plan is armed — any device event (a dropped response changes
    /// [`inflight`](Self::inflight) at its data-ready cycle). Every
    /// [`next_event`](Self::next_event) strictly before this cycle
    /// stays inside the device, and a response scheduled by ticking one
    /// completes strictly after it, so the skip step may tick the
    /// device alone through those events (re-asking after each tick)
    /// without running a system tick. Must never be later than the
    /// first cycle `pop_responses` returns something or `inflight`
    /// changes. The default, [`next_event`](Self::next_event), is
    /// always sound and forfeits the fast-forward.
    fn next_visible(&self, now: Cycle) -> Option<Cycle> {
        self.next_event(now)
    }

    /// The skip step's device fast-forward: tick the device alone at
    /// each of its events from `now` on that lies before `bound` and
    /// before [`next_visible`](Self::next_visible), and return the first
    /// event left unticked (`None` once the device has none). Ticking
    /// only at event cycles matches ticking every cycle, and no tick
    /// here can be seen from outside, so a caller whose other
    /// components have nothing due before `bound` may land its next
    /// full tick at the returned cycle (or `bound`, if earlier). With
    /// `bound > now`, a return of `now` means a visible event is due at
    /// `now`, and nothing was ticked.
    fn fast_forward(&mut self, now: Cycle, bound: Cycle) -> Option<Cycle> {
        let mut t = now;
        loop {
            let e = self.next_event(t)?;
            if e >= bound || self.next_visible(t).is_some_and(|v| v <= e) {
                return Some(e);
            }
            self.tick(e);
            t = e + 1;
        }
    }

    /// True when nothing is queued or in flight.
    fn is_idle(&self) -> bool;

    /// Requests accepted but not yet completed.
    fn inflight(&self) -> usize;

    /// Aggregate transaction statistics.
    fn stats(&self) -> &HmcStats;

    /// Event-based energy breakdown.
    fn energy(&self) -> &EnergyBreakdown;

    /// Total bank conflicts.
    fn bank_conflicts(&self) -> u64;

    /// Fold end-of-run counters (bank conflicts) into `stats`.
    fn finalize_stats(&mut self);

    /// Arm deterministic response-path fault injection. The plan is
    /// validated against *this* backend's topology
    /// ([`FaultPlan::validate_for`] with [`units`](Self::units)).
    fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError>;

    /// Faults injected so far under the armed plan.
    fn faults_injected(&self) -> u64;

    /// Arm the backend's hardware RAS layer (link CRC/retry/degrade on
    /// the HMC, ECC/scrub/sparing on the HBM). The plan is validated
    /// against *this* backend — arming a class the other substrate
    /// models is a [`RasPlanError::WrongBackend`]. A disarmed device is
    /// bit-identical to one without the RAS layer at all.
    fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError>;

    /// Cumulative RAS event counters, when a plan is armed.
    fn ras_stats(&self) -> Option<RasStats>;

    /// Attach a structured-event tracer.
    fn set_tracer(&mut self, tracer: TraceHandle);

    /// Per-cause issue-stall cycle accounting, for backends that model
    /// named timing rules (`None` where the concept does not apply —
    /// the HMC's closed-page vault model attributes conflicts but not
    /// per-rule stall cycles).
    fn stall_cycles(&self) -> Option<StallCycles> {
        None
    }

    /// Serialize the device state (the [`Snapshot`] encoding of the
    /// concrete type; [`load_backend`] dispatches on the configured
    /// [`BackendKind`] to read it back).
    fn save_state(&self, w: &mut SnapWriter);

    /// Run the device forward until every in-flight request completes;
    /// returns the drained responses and the cycle it went idle.
    fn drain(&mut self, mut now: Cycle) -> (Vec<HmcResponse>, Cycle) {
        let mut out = Vec::new();
        while !self.is_idle() {
            self.tick(now);
            self.pop_responses(now, &mut out);
            now += 1;
        }
        (out, now)
    }
}

impl MemoryBackend for Hmc {
    fn kind(&self) -> BackendKind {
        BackendKind::Hmc
    }
    fn units(&self) -> u32 {
        self.config().vaults
    }
    fn submit(&mut self, req: HmcRequest, now: Cycle) {
        Hmc::submit(self, req, now);
    }
    fn tick(&mut self, now: Cycle) {
        Hmc::tick(self, now);
    }
    fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>) {
        Hmc::pop_responses(self, now, out);
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Hmc::next_event(self, now)
    }
    fn next_visible(&self, now: Cycle) -> Option<Cycle> {
        Hmc::next_visible(self, now)
    }
    fn is_idle(&self) -> bool {
        Hmc::is_idle(self)
    }
    fn inflight(&self) -> usize {
        Hmc::inflight(self)
    }
    fn stats(&self) -> &HmcStats {
        &self.stats
    }
    fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }
    fn bank_conflicts(&self) -> u64 {
        Hmc::bank_conflicts(self)
    }
    fn finalize_stats(&mut self) {
        Hmc::finalize_stats(self);
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        Hmc::set_fault_plan(self, plan)
    }
    fn faults_injected(&self) -> u64 {
        Hmc::faults_injected(self)
    }
    fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        Hmc::set_ras_plan(self, plan)
    }
    fn ras_stats(&self) -> Option<RasStats> {
        Hmc::ras_stats(self)
    }
    fn set_tracer(&mut self, tracer: TraceHandle) {
        Hmc::set_tracer(self, tracer);
    }
    fn save_state(&self, w: &mut SnapWriter) {
        Snapshot::save(self, w);
    }
}

/// Construct the backend `cfg` selects, fresh.
pub fn build_backend(cfg: &SimConfig) -> Box<dyn MemoryBackend> {
    match cfg.backend {
        BackendKind::Hmc => Box::new(Hmc::new(cfg.hmc)),
        BackendKind::Hbm => Box::new(Hbm::new(cfg.hbm)),
    }
}

/// Reconstruct the backend `cfg` selects from a snapshot stream (the
/// counterpart of [`MemoryBackend::save_state`]; the caller has already
/// read `cfg` from the same stream, so the discriminant needs no extra
/// bytes).
pub fn load_backend(
    cfg: &SimConfig,
    r: &mut SnapReader<'_>,
) -> Result<Box<dyn MemoryBackend>, SnapError> {
    Ok(match cfg.backend {
        BackendKind::Hmc => Box::new(Hmc::load(r)?),
        BackendKind::Hbm => Box::new(Hbm::load(r)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::Op;

    #[test]
    fn factory_builds_the_configured_backend() {
        for kind in BackendKind::ALL {
            let cfg = SimConfig::for_backend(kind);
            let dev = build_backend(&cfg);
            assert_eq!(dev.kind(), kind);
            assert_eq!(dev.units(), cfg.active_units());
            assert!(dev.is_idle());
        }
    }

    #[test]
    fn trait_object_round_trips_through_the_factory() {
        for kind in BackendKind::ALL {
            let cfg = SimConfig::for_backend(kind);
            let mut dev = build_backend(&cfg);
            for i in 0..16u64 {
                let addr = i * cfg.active_row_bytes();
                dev.submit(HmcRequest { id: i, addr, bytes: 64, op: Op::Load }, 0);
            }
            for now in 0..50 {
                dev.tick(now);
            }
            let mut w = SnapWriter::new();
            dev.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let mut back = load_backend(&cfg, &mut r).expect("load");
            r.finish().expect("all bytes consumed");
            assert_eq!(back.kind(), kind);

            let (ra, da) = dev.drain(50);
            let (rb, db) = back.drain(50);
            assert_eq!(ra, rb, "{kind:?} restored backend diverged");
            assert_eq!(da, db);
            assert_eq!(ra.len(), 16);
        }
    }

    #[test]
    fn fault_plan_bounds_follow_the_backend_topology() {
        let plan = pac_types::FaultPlan {
            target_unit: Some(10),
            ..pac_types::FaultPlan::new(pac_types::FaultClass::DropResponse, 7)
        };
        let mut hmc = build_backend(&SimConfig::for_backend(BackendKind::Hmc));
        assert!(hmc.set_fault_plan(plan).is_ok(), "vault 10 exists on HMC");
        let mut hbm = build_backend(&SimConfig::for_backend(BackendKind::Hbm));
        assert_eq!(
            hbm.set_fault_plan(plan),
            Err(FaultPlanError::TargetUnitOutOfRange { unit: 10, units: 8 }),
            "channel 10 does not exist on the 8-channel HBM"
        );
    }
}
