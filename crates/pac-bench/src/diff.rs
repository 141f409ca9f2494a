//! Differential conformance: the same workload on both memory
//! backends must agree on *what* was served, never mind *when*.
//!
//! Per matrix cell ([`matrix`]), two independent checks:
//!
//! 1. **Execution agreement.** Each backend runs the cell
//!    execution-driven under the oracle with its matched protocol
//!    ([`SimConfig::for_backend`]); both runs must converge with the
//!    oracle silent. Cycle counts legitimately differ — a pseudo-channel
//!    HBM stack and a vaulted HMC cube schedule the same stream
//!    differently — so no timing is compared.
//! 2. **Served-set identity.** One raw miss trace is captured from the
//!    cell (on the HMC reference) and replayed through *both* backends
//!    via [`pac_sim::replay_served`]. Raw ids are assigned in
//!    trace-admission order, independent of downstream timing, so the
//!    ids each backend completes are directly comparable: every
//!    accepted id must be served exactly once per backend (request
//!    conservation), and the two completed-id sets must be identical.
//!
//! A backend that drops, duplicates, or reorders-into-oblivion any
//! request fails here even if its own oracle run happens to pass —
//! the cross-backend set comparison has no tolerance band.

use crate::conformance::{backend_sim, run_matrix, scale_label, ConformanceScale};
use crate::matrix::matrix;
use crate::runner::ParallelRunner;
use pac_obs::ProgressSink;
use pac_sim::system::run_lockstep;
use pac_sim::{replay_served, run_bench, CoalescerKind, ExperimentConfig};
use pac_types::{BackendKind, SimConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;

/// One cell of the differential matrix. Empty `failures` is a pass.
pub struct DiffCell {
    pub bench: Bench,
    pub kind: CoalescerKind,
    /// Size of the agreed served-id set (identical across backends on a
    /// passing cell).
    pub served: usize,
    /// Simulated cycles of the two execution-driven runs, summed.
    pub cycles: u64,
    pub failures: Vec<String>,
}

impl DiffCell {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn label(&self) -> String {
        format!("{:?} x {:?}", self.bench, self.kind)
    }
}

fn cell_sim(backend: BackendKind, cores: u32) -> SimConfig {
    SimConfig { cores, ..backend_sim(backend) }
}

/// Run the full differential matrix through the conformance fan-out,
/// its cell events labelled with backend `both`. Deterministic at any
/// thread count: each cell is self-contained and results return in
/// matrix order.
pub fn diff_matrix(
    scale: ConformanceScale,
    runner: &ParallelRunner,
    progress: &ProgressSink,
) -> Vec<DiffCell> {
    run_matrix(
        runner,
        progress,
        "both",
        &scale_label(scale),
        &matrix(),
        |cell| [cell.bench.name(), cell.kind.label()],
        |cell| {
            let result = diff_cell(cell.bench, cell.kind, scale);
            let (passed, cycles) = (result.passed(), result.cycles);
            (result, passed, cycles)
        },
        |cell| DiffCell {
            bench: cell.bench,
            kind: cell.kind,
            served: 0,
            cycles: 0,
            failures: vec!["cell panicked".to_string()],
        },
    )
}

/// Run one differential cell: both execution-agreement runs plus the
/// served-set identity check.
pub fn diff_cell(bench: Bench, kind: CoalescerKind, scale: ConformanceScale) -> DiffCell {
    let mut failures = Vec::new();
    let mut cycles = 0;

    // Check 1: oracle-silent execution-driven run per backend.
    for backend in BackendKind::ALL {
        let specs = single_process(bench, scale.cores, 7);
        let out = run_lockstep(
            cell_sim(backend, scale.cores),
            specs,
            kind,
            scale.accesses_per_core,
            None,
            None,
            None,
            None,
            scale.cycle_limit,
        );
        cycles += out.cycles;
        if !out.converged {
            failures.push(format!("{}: execution run did not converge", backend.label()));
        }
        if !out.oracle.is_clean() {
            failures.push(format!("{}: oracle: {}", backend.label(), out.oracle.summary()));
        }
    }

    // Check 2: capture one raw stream from the cell on the HMC
    // reference, replay it through both backends, compare served sets.
    let cap = ExperimentConfig {
        sim: cell_sim(BackendKind::Hmc, scale.cores),
        accesses_per_core: scale.accesses_per_core,
        seed: 7,
        capture_trace: true,
        ..Default::default()
    };
    let (_, trace) = run_bench(bench, kind, &cap);
    if trace.is_empty() {
        failures.push("capture run produced an empty trace".to_string());
        return DiffCell { bench, kind, served: 0, cycles, failures };
    }

    let mut sets: Vec<Vec<u64>> = Vec::new();
    for backend in BackendKind::ALL {
        let sim = cell_sim(backend, scale.cores);
        let (_, mut served) = replay_served(&trace, kind, &sim);
        served.sort_unstable();
        if let Some(w) = served.windows(2).find(|w| w[0] == w[1]) {
            failures.push(format!(
                "{}: raw id {} served more than once (conservation)",
                backend.label(),
                w[0]
            ));
        }
        sets.push(served);
    }
    let served = sets[0].len();
    if sets[0] != sets[1] {
        let [a, b] = [&sets[0], &sets[1]];
        let only_a = a.iter().filter(|id| b.binary_search(id).is_err()).count();
        let only_b = b.iter().filter(|id| a.binary_search(id).is_err()).count();
        failures.push(format!(
            "served sets diverge: {} ids only on {}, {} only on {}",
            only_a,
            BackendKind::ALL[0].label(),
            only_b,
            BackendKind::ALL[1].label()
        ));
    }

    DiffCell { bench, kind, served, cycles, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative cell passes both phases end to end.
    #[test]
    fn stream_pac_cell_agrees_across_backends() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        let cell = diff_cell(Bench::Stream, CoalescerKind::Pac, scale);
        assert!(cell.passed(), "{}: {:?}", cell.label(), cell.failures);
        assert!(cell.served > 0, "cell served nothing");
    }

    /// The raw (no-coalescer) cell also agrees: set identity is a
    /// property of the substrate, not of PAC's grouping.
    #[test]
    fn raw_cell_agrees_across_backends() {
        let scale = ConformanceScale { cycle_limit: 600_000, ..ConformanceScale::quick() };
        let cell = diff_cell(Bench::Gs, CoalescerKind::Raw, scale);
        assert!(cell.passed(), "{}: {:?}", cell.label(), cell.failures);
    }

    /// The fan-out is observationally serial at any worker count.
    #[test]
    fn diff_matrix_is_thread_count_independent() {
        let scale = ConformanceScale {
            accesses_per_core: 120,
            cores: 2,
            cycle_limit: 600_000,
        };
        let sink = ProgressSink::disabled();
        let serial = diff_matrix(scale, &ParallelRunner::new(1), &sink);
        let wide = diff_matrix(scale, &ParallelRunner::new(4), &sink);
        assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.served, b.served, "{}", a.label());
            assert_eq!(a.failures, b.failures, "{}", a.label());
        }
    }
}
