//! One-call experiment execution, serial or parallel across benchmarks.

use crate::metrics::RunMetrics;
use crate::system::{CoalescerKind, SimSystem, Stepping, TraceEntry};
use pac_types::SimConfig;
use pac_workloads::multiproc::{single_process, two_processes, CoreSpec};
use pac_workloads::Bench;
use std::collections::HashMap;

/// Parameters shared by every run of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    pub sim: SimConfig,
    /// Accesses each core issues before the run drains.
    pub accesses_per_core: u64,
    /// Workload seed.
    pub seed: u64,
    /// Retain the raw miss trace (Figs 2/8/9).
    pub capture_trace: bool,
    /// Retain PAC stream-occupancy samples (Fig 11b).
    pub trace_occupancy: bool,
    /// Clock-advance policy for the system run and for trace replay;
    /// skip-ahead by default, bit-identical to the cycle-by-cycle
    /// reference (`PAC_STEPPING=every` forces it).
    pub stepping: Stepping,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sim: SimConfig::default(),
            accesses_per_core: 60_000,
            seed: 0x9AC_5EED,
            capture_trace: false,
            trace_occupancy: false,
            stepping: Stepping::from_env(),
        }
    }
}

/// Run arbitrary core specs under one coalescer.
pub fn run_specs(
    specs: Vec<CoreSpec>,
    kind: CoalescerKind,
    cfg: &ExperimentConfig,
) -> (RunMetrics, Vec<TraceEntry>) {
    let mut sys = SimSystem::with_options(
        cfg.sim,
        specs,
        kind,
        cfg.capture_trace,
        cfg.trace_occupancy,
        cfg.stepping,
    );
    let metrics = sys.run(cfg.accesses_per_core);
    let trace = sys.take_trace();
    (metrics, trace)
}

/// Run one benchmark across all configured cores.
pub fn run_bench(
    bench: Bench,
    kind: CoalescerKind,
    cfg: &ExperimentConfig,
) -> (RunMetrics, Vec<TraceEntry>) {
    run_specs(single_process(bench, cfg.sim.cores, cfg.seed), kind, cfg)
}

/// Run the Fig 6b multiprocessing mode: two benchmarks on disjoint core
/// halves of the same chip.
pub fn run_pair(
    a: Bench,
    b: Bench,
    kind: CoalescerKind,
    cfg: &ExperimentConfig,
) -> (RunMetrics, Vec<TraceEntry>) {
    run_specs(two_processes(a, b, cfg.sim.cores, cfg.seed), kind, cfg)
}

/// Apply `f` to every job on a bounded worker pool. Each worker claims
/// the next unclaimed job index and writes the result into that job's
/// pre-indexed slot, so `results[i] == f(&jobs[i])` and the output
/// order is deterministic under any thread schedule. Shared by the
/// experiment matrix and the figure harness's trace prewarm.
pub fn parallel_map<J, R, F>(jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send + Sync,
    F: Fn(&J) -> R + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(jobs.len());
    let slots: Vec<std::sync::OnceLock<R>> = (0..jobs.len()).map(|_| Default::default()).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let claimed = slots[i].set(f(job)).is_ok();
                debug_assert!(claimed, "job {i} ran twice");
            });
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("every job ran")).collect()
}

/// Run `benches × kinds` in parallel (one thread per run, bounded by the
/// host), returning metrics keyed by `(bench, kind)`.
pub fn run_matrix(
    benches: &[Bench],
    kinds: &[CoalescerKind],
    cfg: &ExperimentConfig,
) -> HashMap<(Bench, CoalescerKind), RunMetrics> {
    let mut jobs: Vec<(Bench, CoalescerKind)> = Vec::new();
    for &b in benches {
        for &k in kinds {
            jobs.push((b, k));
        }
    }
    parallel_map(&jobs, |&(bench, kind)| {
        let (m, _) = run_bench(bench, kind, cfg);
        ((bench, kind), m)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig { accesses_per_core: 1200, ..Default::default() }
    }

    #[test]
    fn run_bench_produces_metrics() {
        let (m, trace) = run_bench(Bench::Gs, CoalescerKind::Pac, &quick_cfg());
        assert!(m.raw_requests > 0);
        assert!(trace.is_empty(), "tracing off by default");
    }

    #[test]
    fn trace_capture_round_trips() {
        let cfg = ExperimentConfig { capture_trace: true, ..quick_cfg() };
        let (_, trace) = run_bench(Bench::Bfs, CoalescerKind::Pac, &cfg);
        assert!(!trace.is_empty());
    }

    #[test]
    fn matrix_runs_all_cells() {
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let benches = [Bench::Stream, Bench::Bfs];
        let kinds = [CoalescerKind::Raw, CoalescerKind::Pac];
        let out = run_matrix(&benches, &kinds, &cfg);
        assert_eq!(out.len(), 4);
        for b in benches {
            for k in kinds {
                assert!(out[&(b, k)].raw_requests > 0);
            }
        }
    }

    #[test]
    fn pair_mode_runs() {
        let (m, _) = run_pair(Bench::Stream, Bench::Hpcg, CoalescerKind::MshrDmc, &quick_cfg());
        assert!(m.raw_requests > 0);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let cfg = quick_cfg();
        let (a, _) = run_bench(Bench::Cg, CoalescerKind::Pac, &cfg);
        let (b, _) = run_bench(Bench::Cg, CoalescerKind::Pac, &cfg);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.raw_requests, b.raw_requests);
        assert_eq!(a.dispatched_requests, b.dispatched_requests);
    }
}
