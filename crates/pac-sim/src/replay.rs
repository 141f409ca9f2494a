//! Trace-driven coalescer evaluation.
//!
//! The paper evaluates coalescing efficiency by feeding the *same* raw
//! request stream — traced from the extended Spike — into each coalescer
//! model (Sec 5.1). Execution-driven runs can't do that: a slower
//! configuration keeps more misses in flight and therefore sees more
//! mergeable duplicates, inflating its measured efficiency. This module
//! replays a captured [`TraceEntry`] stream through a coalescer plus the
//! configured memory backend, preserving the recorded inter-request
//! spacing (stretched only under backpressure), so Figs 1, 2, 6, 7 and
//! 10–14 compare the coalescers on identical input.
//!
//! The same property powers the differential conformance suite: raw ids
//! are assigned in trace order at admission, independent of downstream
//! timing, so replaying one trace through two *backends* yields
//! comparable served-id sets ([`replay_served`]) — request conservation
//! must hold on each backend, and the completed sets must be identical
//! even though every cycle number differs.
//!
//! Replay is the second front end of [`crate::system::System`]: the
//! trace feed offers entries to the memory side and run loop that
//! [`crate::SimSystem`] uses, skip rule and refusal memo included
//! (DESIGN.md "Simulation core performance"). It keeps only its own
//! admission: an entry is due at its recorded cycle plus the skew, and
//! each refusal stretches the rest of the schedule by one cycle.

use crate::metrics::RunMetrics;
use crate::system::{
    CoalescerKind, FrontEnd, MemorySide, RefusalMemo, RunProgress, Stepping, System, TraceEntry,
};
use pac_types::{Cycle, MemRequest, RequestKind, SimConfig};

/// Replay `trace` through the chosen coalescer and the configured
/// memory backend, stepping as [`Stepping::from_env`] selects.
pub fn replay(trace: &[TraceEntry], kind: CoalescerKind, cfg: &SimConfig) -> RunMetrics {
    replay_with(trace, kind, cfg, false, Stepping::from_env())
}

/// As [`replay`], optionally retaining PAC's occupancy trace (Fig 11b),
/// with an explicit clock-advance policy.
pub fn replay_with(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    trace_occupancy: bool,
    stepping: Stepping,
) -> RunMetrics {
    drain(replay_system(trace, kind, cfg, trace_occupancy, stepping, false)).0
}

/// As [`replay`], additionally returning every raw id the coalescer
/// reported satisfied, in completion order **with multiplicity**: a
/// conserving run returns each accepted raw id exactly once. Raw ids
/// are assigned in trace-admission order (fences included), so the
/// returned sets are directly comparable across backends and coalescer
/// grouping choices — the differential suite's ground truth.
pub fn replay_served(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
) -> (RunMetrics, Vec<u64>) {
    drain(replay_system(trace, kind, cfg, false, Stepping::from_env(), true))
}

/// The trace front end: the trace head, its due window and skew, the
/// next raw id, and the requests in flight.
struct TraceFeed<'t> {
    trace: &'t [TraceEntry],
    /// Index of the next entry to admit.
    head: usize,
    /// End of the due window: the entries due by the next cycle. It
    /// only advances, so the backlog hint costs O(1) amortized.
    due_end: usize,
    /// Offset accumulated whenever backpressure stretches the schedule.
    skew: Cycle,
    /// The raw id the head is offered under; ids advance only on
    /// admission.
    next_id: u64,
    /// Admitted requests (fences aside) not yet completed.
    inflight: u64,
    /// Refusal memo of the head.
    memo: RefusalMemo,
    /// Every completed raw id, in completion order, when kept.
    served: Option<Vec<u64>>,
}

impl TraceFeed<'_> {
    /// The due head, as the raw request offered at `now`.
    fn due_head(&self, now: Cycle) -> Option<MemRequest> {
        let t = self.trace.get(self.head).filter(|t| t.cycle + self.skew <= now)?;
        let mut req = MemRequest::miss(self.next_id, t.addr, t.op, t.core, now);
        req.kind = t.kind;
        req.data_bytes = t.data_bytes;
        Some(req)
    }
}

impl FrontEnd for TraceFeed<'_> {
    fn issue(&mut self, mem: &mut MemorySide) {
        let now = mem.now();
        let trace = self.trace;
        while self.due_end < trace.len() && trace[self.due_end].cycle + self.skew <= now + 1 {
            self.due_end += 1;
        }
        mem.hint_pending(self.due_end.saturating_sub(self.head + 1));
        while let Some(req) = self.due_head(now) {
            if !mem.offer(req, &mut self.memo) {
                // Backpressure: shift the remaining schedule.
                self.skew += 1;
                break;
            }
            self.next_id += 1;
            if req.kind != RequestKind::Fence {
                self.inflight += 1;
            }
            self.head += 1;
        }
    }

    fn complete(&mut self, raw: u64, _now: Cycle) {
        self.inflight -= 1;
        if let Some(served) = &mut self.served {
            served.push(raw);
        }
    }

    /// The head's due cycle, or — once it is due — now, unless the
    /// coalescer stands refusing it.
    fn next_wake(&mut self, mem: &MemorySide, blocked: &mut Vec<MemRequest>) -> Option<Cycle> {
        let now = mem.now();
        let t = self.trace.get(self.head)?;
        let Some(req) = self.due_head(now) else { return Some(t.cycle + self.skew) };
        if !mem.stays_refused(&req, &mut self.memo) {
            return Some(now);
        }
        blocked.push(req);
        None
    }

    /// A due head was refused once per jumped cycle, and each refusal
    /// stretched the schedule by one.
    fn jumped(&mut self, from: Cycle, to: Cycle) {
        if self.due_head(from).is_some() {
            self.skew += to - from;
        }
    }

    fn exhausted(&self) -> bool {
        self.head >= self.trace.len()
    }

    fn done(&self) -> bool {
        self.exhausted() && self.inflight == 0
    }
}

/// A system whose front end feeds `trace`, with a convergence bound of
/// 200 cycles per trace cycle (at least ten million).
fn replay_system<'t>(
    trace: &'t [TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    trace_occupancy: bool,
    stepping: Stepping,
    keep_served: bool,
) -> System<TraceFeed<'t>> {
    let limit =
        (trace.last().map_or(0, |t| t.cycle) + 1).saturating_mul(200).max(10_000_000);
    let feed = TraceFeed {
        trace,
        head: 0,
        due_end: 0,
        skew: 0,
        next_id: 0,
        inflight: 0,
        memo: RefusalMemo::default(),
        served: keep_served.then(Vec::new),
    };
    System::assemble(feed, MemorySide::new(*cfg, kind, trace_occupancy, stepping, limit))
}

/// Run a replay to the end of its trace: its metrics and served ids.
fn drain(mut sys: System<TraceFeed<'_>>) -> (RunMetrics, Vec<u64>) {
    let progress = sys.advance(sys.run_limit(), Cycle::MAX);
    assert!(progress == RunProgress::Done, "replay failed to converge by cycle {}", sys.now());
    sys.finalize_run();
    let served = sys.front_mut().served.take().unwrap_or_default();
    (sys.memory_metrics(), served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_bench, ExperimentConfig};
    use pac_types::{BackendKind, Op, RequestKind};
    use pac_workloads::Bench;

    fn entry(cycle: Cycle, addr: u64) -> TraceEntry {
        TraceEntry { cycle, addr, op: Op::Load, kind: RequestKind::Miss, data_bytes: 8, core: 0 }
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let m = replay(&[], CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 0);
        assert_eq!(m.dispatched_requests, 0);
    }

    #[test]
    fn four_adjacent_lines_coalesce_to_one_request() {
        let trace: Vec<TraceEntry> = (0..4).map(|i| entry(i, 0x40000 + i * 64)).collect();
        let m = replay(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 4);
        assert_eq!(m.dispatched_requests, 1);
        assert!((m.coalescing_efficiency - 0.75).abs() < 1e-12);
        // And the device saw a single 256B request.
        assert_eq!(m.hmc_requests, 1);
        assert_eq!(m.payload_bytes, 256);
    }

    #[test]
    fn raw_replay_never_coalesces() {
        let trace: Vec<TraceEntry> = (0..4).map(|i| entry(i, 0x40000 + i * 64)).collect();
        let m = replay(&trace, CoalescerKind::Raw, &SimConfig::default());
        assert_eq!(m.dispatched_requests, 4);
        assert_eq!(m.coalescing_efficiency, 0.0);
    }

    #[test]
    fn dmc_merges_only_duplicates() {
        let trace = vec![
            entry(0, 0x40000),
            entry(1, 0x40008), // same line: merges
            entry(2, 0x40040), // adjacent line: does not
        ];
        let m = replay(&trace, CoalescerKind::MshrDmc, &SimConfig::default());
        assert_eq!(m.raw_requests, 3);
        assert_eq!(m.dispatched_requests, 2);
    }

    #[test]
    fn pac_beats_dmc_on_identical_captured_trace() {
        let cfg = ExperimentConfig {
            accesses_per_core: 3000,
            capture_trace: true,
            ..Default::default()
        };
        let (_, trace) = run_bench(Bench::Ep, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty());
        let pac = replay(&trace, CoalescerKind::Pac, &cfg.sim);
        let dmc = replay(&trace, CoalescerKind::MshrDmc, &cfg.sim);
        let raw = replay(&trace, CoalescerKind::Raw, &cfg.sim);
        assert!(pac.coalescing_efficiency > dmc.coalescing_efficiency);
        assert_eq!(raw.coalescing_efficiency, 0.0);
        assert_eq!(pac.raw_requests, dmc.raw_requests, "identical input stream");
    }

    #[test]
    fn backpressure_stretches_but_completes() {
        // A flood at cycle 0: far more than the buffers hold.
        let trace: Vec<TraceEntry> =
            (0..2000).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        let m = replay(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 2000);
        assert_eq!(m.dispatched_requests, 2000, "distinct pages cannot coalesce");
    }

    #[test]
    fn served_sets_are_identical_across_backends() {
        // The core of the differential suite in miniature: one trace,
        // both backends (protocol matched per backend so the coalescer
        // cell is comparable), identical served-id sets with exactly-once
        // conservation — while the cycle counts genuinely differ.
        let cfg = ExperimentConfig {
            accesses_per_core: 1500,
            capture_trace: true,
            ..Default::default()
        };
        let (_, trace) = run_bench(Bench::Stream, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty());
        let mut sets = Vec::new();
        for kind in BackendKind::ALL {
            let sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(kind) };
            let (m, mut served) = replay_served(&trace, CoalescerKind::Pac, &sim);
            assert!(m.raw_requests > 0);
            served.sort_unstable();
            assert!(served.windows(2).all(|w| w[0] != w[1]), "{kind:?} served an id twice");
            sets.push(served);
        }
        assert_eq!(sets[0], sets[1], "backends completed different request sets");
    }

    #[test]
    fn skip_ahead_serves_the_same_id_sequence_as_every_cycle() {
        // Completion order and multiplicity, not just the set.
        let cfg = ExperimentConfig {
            accesses_per_core: 600,
            capture_trace: true,
            ..Default::default()
        };
        let (_, captured) = run_bench(Bench::Gs, CoalescerKind::Raw, &cfg);
        // A cycle-0 flood keeps the head refused for long windows.
        let flood: Vec<TraceEntry> = (0..400).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        for trace in [&captured, &flood] {
            for kind in CoalescerKind::ALL {
                let run =
                    |stepping| drain(replay_system(trace, kind, &cfg.sim, false, stepping, true));
                let (m_every, every) = run(Stepping::EveryCycle);
                let (m_skip, skip) = run(Stepping::SkipAhead);
                let mut once = every.clone();
                once.sort_unstable();
                once.dedup();
                assert_eq!(once.len(), every.len(), "{kind:?} served an id twice");
                assert_eq!(every, skip, "{kind:?}: served-id sequences diverged");
                assert_eq!(m_every, m_skip, "{kind:?}: metrics diverged");
            }
        }
    }

    #[test]
    fn the_oracle_checks_a_replay_through_the_shared_memory_side() {
        // The flood of `backpressure_stretches_but_completes`, replayed
        // under the lockstep oracle: clean as it stands, and a dropped
        // response is caught as lost.
        use pac_oracle::Invariant;
        use pac_types::{FaultClass, FaultPlan};
        let flood: Vec<TraceEntry> =
            (0..2000).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        let cfg = SimConfig::default();
        let check = |plan: Option<FaultPlan>| {
            let mut sys = replay_system(&flood, CoalescerKind::Pac, &cfg, false, Stepping::SkipAhead, false);
            sys.attach_oracle();
            if let Some(plan) = plan {
                sys.set_fault_plan(plan).expect("valid fault plan");
            }
            let progress = sys.advance(2_000_000, Cycle::MAX);
            sys.finalize_run();
            (progress, sys.faults_injected(), sys.oracle_report().expect("oracle attached"))
        };
        let (progress, faults, clean) = check(None);
        assert_eq!(progress, RunProgress::Done);
        assert_eq!(faults, 0);
        assert!(clean.is_clean(), "{}", clean.summary());
        assert_eq!(clean.accepted_raw, 2000);
        assert_eq!(clean.served_raw, 2000);
        let (_, faults, dropped) = check(Some(FaultPlan::new(FaultClass::DropResponse, 99)));
        assert!(faults > 0);
        assert!(
            dropped.detected(Invariant::LostResponse)
                || dropped.detected(Invariant::ResponseConservation),
            "{}",
            dropped.summary()
        );
    }
}
