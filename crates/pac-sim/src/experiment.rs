//! One-call experiment execution.

use crate::metrics::RunMetrics;
use crate::system::{CoalescerKind, SimSystem, Stepping, TraceEntry};
use pac_types::SimConfig;
use pac_workloads::multiproc::{single_process, two_processes, CoreSpec};
use pac_workloads::Bench;

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
