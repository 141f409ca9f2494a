//! Skip-ahead equivalence regression tests.
//!
//! The event-driven clock (`Stepping::SkipAhead`) must be a pure
//! performance optimisation: for any workload, coalescer, and seed it
//! has to produce *bit-identical* [`RunMetrics`] (and captured traces)
//! to the retained cycle-by-cycle reference (`Stepping::EveryCycle`).
//! These tests pin that contract for every coalescer kind across a
//! spread of benchmarks with fixed seeds, and over the whole experiment
//! matrix on both memory backends; `tests/proptests.rs` extends
//! the same assertion to randomized short workloads. Trace replay
//! (`replay_with`, the figure path) makes the same promise and is pinned
//! here too, on captured and hand-built traces.

use pac_repro::sim::{replay_with, run_bench, CoalescerKind, ExperimentConfig, RunMetrics};
use pac_repro::sim::{SimSystem, Stepping, TraceEntry};
use pac_repro::types::{BackendKind, Op, RequestKind, SimConfig};
use pac_repro::workloads::multiproc::single_process;
use pac_repro::workloads::Bench;

const KINDS: [CoalescerKind; 3] =
    [CoalescerKind::Raw, CoalescerKind::MshrDmc, CoalescerKind::Pac];

fn run(
    bench: Bench,
    kind: CoalescerKind,
    stepping: Stepping,
    accesses: u64,
    seed: u64,
) -> (RunMetrics, Vec<TraceEntry>) {
    let cfg = ExperimentConfig {
        accesses_per_core: accesses,
        seed,
        capture_trace: true,
        trace_occupancy: kind == CoalescerKind::Pac,
        stepping,
        ..Default::default()
    };
    run_bench(bench, kind, &cfg)
}

/// Fixed-seed regression: all three coalescers over five benchmarks
/// with distinct access mixes (streaming, gather/scatter, sparse SpMV,
/// private dense, strided butterfly).
#[test]
fn skip_ahead_matches_every_cycle_reference() {
    let benches = [Bench::Stream, Bench::Gs, Bench::Cg, Bench::Ep, Bench::Ft];
    for &bench in &benches {
        for &kind in &KINDS {
            let (slow, trace_slow) = run(bench, kind, Stepping::EveryCycle, 1_200, 0x9AC_5EED);
            let (fast, trace_fast) = run(bench, kind, Stepping::SkipAhead, 1_200, 0x9AC_5EED);
            assert_eq!(slow, fast, "{bench:?}/{kind:?}: metrics diverged");
            assert_eq!(trace_slow, trace_fast, "{bench:?}/{kind:?}: traces diverged");
        }
    }
}

/// Every bench × coalescer cell of the experiment matrix on `backend`,
/// at a small budget: the full metrics must match between steppings.
fn assert_matrix_equivalent(backend: BackendKind) {
    let cfg = |stepping| ExperimentConfig {
        sim: SimConfig::for_backend(backend),
        accesses_per_core: 400,
        stepping,
        ..Default::default()
    };
    for bench in Bench::ALL {
        for &kind in &KINDS {
            let (slow, _) = run_bench(bench, kind, &cfg(Stepping::EveryCycle));
            let (fast, _) = run_bench(bench, kind, &cfg(Stepping::SkipAhead));
            assert_eq!(slow, fast, "{backend:?}/{bench:?}/{kind:?}: metrics diverged");
        }
    }
}

#[test]
fn skip_ahead_matches_every_cycle_on_the_hmc_matrix() {
    assert_matrix_equivalent(BackendKind::Hmc);
}

#[test]
fn skip_ahead_matches_every_cycle_on_the_hbm_matrix() {
    assert_matrix_equivalent(BackendKind::Hbm);
}

/// A second seed catches divergence hidden by the default seed's
/// particular interleaving.
#[test]
fn skip_ahead_matches_reference_on_alternate_seed() {
    for &kind in &KINDS {
        let (slow, _) = run(Bench::Mg, kind, Stepping::EveryCycle, 900, 0xDEAD_BEEF);
        let (fast, _) = run(Bench::Mg, kind, Stepping::SkipAhead, 900, 0xDEAD_BEEF);
        assert_eq!(slow, fast, "{kind:?}: metrics diverged on alternate seed");
    }
}

/// The final clock value itself must match: skip-ahead may never jump
/// past an event that the reference mode would have acted on.
#[test]
fn skip_ahead_preserves_drain_cycle() {
    for &kind in &KINDS {
        let cfg = pac_repro::types::SimConfig::default();
        let mut slow = SimSystem::with_options(
            cfg,
            single_process(Bench::Sort, cfg.cores, 7),
            kind,
            false,
            false,
            Stepping::EveryCycle,
        );
        let mut fast = SimSystem::with_options(
            cfg,
            single_process(Bench::Sort, cfg.cores, 7),
            kind,
            false,
            false,
            Stepping::SkipAhead,
        );
        let m_slow = slow.run(800);
        let m_fast = fast.run(800);
        assert_eq!(m_slow.runtime_cycles, m_fast.runtime_cycles, "{kind:?}: drain cycle moved");
        assert_eq!(slow.now(), fast.now(), "{kind:?}: final clock differs");
    }
}

/// Replay `trace` under both stepping modes on both backends and
/// require identical metrics, Fig 11b occupancy samples included.
fn assert_replay_equivalent(what: &str, trace: &[TraceEntry]) {
    for backend in BackendKind::ALL {
        let sim = SimConfig::for_backend(backend);
        for &kind in &KINDS {
            let slow = replay_with(trace, kind, &sim, true, Stepping::EveryCycle);
            let fast = replay_with(trace, kind, &sim, true, Stepping::SkipAhead);
            assert_eq!(slow, fast, "{what}/{kind:?}/{backend:?}: replay metrics diverged");
        }
    }
}

/// Every benchmark's captured trace, at a small budget, captured the
/// way the figure harness captures (deep MSHR file and MAQ, so the
/// recorded timing reflects the cores).
#[test]
fn replay_skip_ahead_matches_every_cycle_on_captured_traces() {
    let mut cfg = ExperimentConfig {
        accesses_per_core: 300,
        capture_trace: true,
        stepping: Stepping::SkipAhead,
        ..Default::default()
    };
    cfg.sim.coalescer.mshrs = 256;
    cfg.sim.coalescer.maq_entries = 256;
    for bench in Bench::ALL {
        let (_, trace) = run_bench(bench, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty(), "{bench:?}: empty capture");
        assert_replay_equivalent(&format!("{bench:?}"), &trace);
    }
}

fn load(cycle: u64, addr: u64) -> TraceEntry {
    TraceEntry { cycle, addr, op: Op::Load, kind: RequestKind::Miss, data_bytes: 8, core: 0 }
}

/// A cycle-0 flood far larger than the buffers: the head is refused for
/// long stretches, so nearly every jump is a blocked window.
#[test]
fn replay_skip_ahead_matches_every_cycle_under_a_flood() {
    let trace: Vec<TraceEntry> = (0..2000).map(|i| load(0, 0x100000 + i * 4096)).collect();
    assert_replay_equivalent("flood", &trace);
}

/// Fences, atomics, stores, write-backs and same-cycle bursts, separated
/// by idle gaps from a few cycles to tens of thousands.
#[test]
fn replay_skip_ahead_matches_every_cycle_on_mixed_kinds() {
    let mut trace = Vec::new();
    let mut push = |cycle, addr, op, kind, core| {
        trace.push(TraceEntry { cycle, addr, op, kind, data_bytes: 8, core });
    };
    for burst in 0..6u64 {
        let base = burst * burst * 7_000;
        let page = 0x40_0000 + burst * 0x3000;
        // A same-cycle burst over adjacent lines of one page, with a
        // store and a write-back among the loads.
        for line in 0..12u64 {
            let op = if line % 5 == 3 { Op::Store } else { Op::Load };
            push(base, page + line * 64, op, RequestKind::Miss, (line % 4) as u8);
        }
        push(base, page + 0x1000, Op::Store, RequestKind::WriteBack, u8::MAX);
        // A fence and an atomic in the middle of a second burst.
        push(base + 3, page + 0x800, Op::Load, RequestKind::Miss, 1);
        push(base + 3, 0, Op::Load, RequestKind::Fence, 1);
        push(base + 3, page + 0x840, Op::Store, RequestKind::Atomic, 2);
        push(base + 3, page + 0x880, Op::Load, RequestKind::Miss, 2);
        // Stragglers a few cycles apart, then a scattered store burst.
        for k in 0..8u64 {
            push(base + 40 + 3 * k, page + 0x2000 + k * 64, Op::Load, RequestKind::Miss, 3);
        }
        for k in 0..16u64 {
            push(base + 200, 0x800_0000 + k * 0x1_0000, Op::Store, RequestKind::Miss, 0);
        }
        push(base + 201, page + 0x2040, Op::Store, RequestKind::Atomic, 3);
    }
    assert_replay_equivalent("mixed", &trace);
}
