//! Simulator throughput harness.
//!
//! Measures how fast the simulator itself runs — simulated cycles and
//! retired core accesses per wall-clock second — for every
//! `(benchmark, coalescer)` cell of the experiment matrix, in both
//! clock-advance modes:
//!
//! * [`Stepping::SkipAhead`] — the event-driven production core;
//! * [`Stepping::EveryCycle`] — the retained cycle-by-cycle reference,
//!   which is also how the pre-event-driven simulator advanced time, so
//!   the per-mode totals double as a before/after comparison.
//!
//! Both modes produce bit-identical [`RunMetrics`] (enforced by the
//! `skip_ahead_equivalence` tests), so the wall-clock ratio is a pure
//! simulator-performance number, not a modelling change. The `throughput`
//! binary writes the result as `BENCH_throughput.json`.

use crate::matrix::MatrixCell;
use crate::runner::ParallelRunner;
use pac_obs::{CellId, ProgressSink};
use pac_sim::{run_bench, ExperimentConfig, Stepping};
use std::fmt::Write as _;
use std::time::Instant;

/// One `(bench, kind, stepping)` measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    pub bench: &'static str,
    pub kind: &'static str,
    pub stepping: &'static str,
    pub wall_seconds: f64,
    /// Simulated cycles until the run drained.
    pub simulated_cycles: u64,
    /// Core accesses retired over the run (budget × cores).
    pub retired_accesses: u64,
}

impl Cell {
    pub fn cycles_per_second(&self) -> f64 {
        self.simulated_cycles as f64 / self.wall_seconds
    }

    pub fn accesses_per_second(&self) -> f64 {
        self.retired_accesses as f64 / self.wall_seconds
    }
}

/// A full matrix sweep in one stepping mode.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub stepping: &'static str,
    pub wall_seconds: f64,
    pub cells: Vec<Cell>,
}

fn stepping_name(s: Stepping) -> &'static str {
    match s {
        Stepping::SkipAhead => "skip-ahead",
        Stepping::EveryCycle => "every-cycle",
    }
}

/// Run the given matrix cells serially under `stepping`, timing each,
/// streaming per-cell progress to `progress`. `seq_base` offsets the
/// streamed cell sequence numbers so successive sweeps don't collide.
///
/// Serial on purpose: wall-clock per cell is the quantity of interest,
/// and co-scheduled runs would contend for the host and distort it.
/// Parallel wall-clock is the [`scaling_curve`]'s job.
pub fn sweep(
    matrix: &[MatrixCell],
    cfg: &ExperimentConfig,
    stepping: Stepping,
    progress: &ProgressSink,
    seq_base: usize,
) -> Sweep {
    let mut cfg = *cfg;
    cfg.stepping = stepping;
    let retired = cfg.accesses_per_core * u64::from(cfg.sim.cores);
    let config_label = format!("accesses={} cores={}", cfg.accesses_per_core, cfg.sim.cores);
    let mut cells = Vec::new();
    let start = Instant::now();
    for (i, mc) in matrix.iter().enumerate() {
        let seq = seq_base + i;
        let id = CellId {
            bench: mc.bench.name(),
            kind: mc.kind.label(),
            backend: cfg.sim.backend.label(),
            config: &config_label,
        };
        progress.cell_start(seq, &id);
        let t = Instant::now();
        let (m, _) = run_bench(mc.bench, mc.kind, &cfg);
        let wall = t.elapsed().as_secs_f64();
        progress.cell_finish(seq, &id, "pass", wall, m.runtime_cycles);
        cells.push(Cell {
            bench: mc.bench.name(),
            kind: mc.kind.label(),
            stepping: stepping_name(stepping),
            wall_seconds: wall,
            simulated_cycles: m.runtime_cycles,
            retired_accesses: retired,
        });
    }
    Sweep { stepping: stepping_name(stepping), wall_seconds: start.elapsed().as_secs_f64(), cells }
}

/// One point of the thread-scaling curve: the full skip-ahead matrix
/// fanned across `threads` workers.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    pub threads: usize,
    pub wall_seconds: f64,
    /// Whole-matrix speedup over this curve's own 1-thread point.
    pub speedup: f64,
}

/// The matrix fan-out scaling curve plus its determinism verdict.
#[derive(Debug, Clone)]
pub struct ScalingCurve {
    /// What the host could actually run concurrently — readers should
    /// not expect speedup beyond this no matter the requested widths.
    pub host_threads: usize,
    pub points: Vec<ScalingPoint>,
    /// Per-cell simulated-cycle mismatches against the serial sweep
    /// (must be empty: the thread count may change wall-clock only).
    pub cycle_mismatches: Vec<String>,
}

impl ScalingCurve {
    pub fn bit_identical(&self) -> bool {
        self.cycle_mismatches.is_empty()
    }
}

/// Measure the skip-ahead matrix wall clock at each worker count and
/// verify every cell's simulated cycles against the `serial` sweep.
///
/// `thread_counts` should start at 1 (the curve's speedup baseline);
/// the counts are deduplicated and sorted by the caller.
pub fn scaling_curve(
    matrix: &[MatrixCell],
    cfg: &ExperimentConfig,
    serial: &Sweep,
    thread_counts: &[usize],
    progress: &ProgressSink,
) -> ScalingCurve {
    let mut cfg = *cfg;
    cfg.stepping = Stepping::SkipAhead;
    let mut points: Vec<ScalingPoint> = Vec::new();
    let mut cycle_mismatches = Vec::new();
    for &threads in thread_counts {
        let runner = ParallelRunner::new(threads.max(1));
        let start = Instant::now();
        let (cycles, stats) = runner.run_observed(matrix, |_, mc| {
            let (m, _) = run_bench(mc.bench, mc.kind, &cfg);
            m.runtime_cycles
        });
        let wall = start.elapsed().as_secs_f64();
        progress.worker_util(&stats);
        for ((mc, got), base) in matrix.iter().zip(&cycles).zip(&serial.cells) {
            if *got != base.simulated_cycles {
                cycle_mismatches.push(format!(
                    "{}: {} simulated cycles at {} thread(s), serial sweep had {}",
                    mc.label(),
                    got,
                    threads,
                    base.simulated_cycles
                ));
            }
        }
        let baseline = points.first().map_or(wall, |p| p.wall_seconds);
        points.push(ScalingPoint { threads, wall_seconds: wall, speedup: baseline / wall });
    }
    ScalingCurve { host_threads: pac_types::thread_count(None), points, cycle_mismatches }
}

/// CI determinism gate: run the matrix once per worker count and
/// require the **full** per-cell [`pac_sim::RunMetrics`] — every
/// figure-level aggregate, not just cycle counts — to match the
/// 1-thread run exactly. Returns the divergence descriptions (empty =
/// gate passed).
pub fn determinism_gate(
    matrix: &[MatrixCell],
    cfg: &ExperimentConfig,
    thread_counts: &[usize],
) -> Vec<String> {
    let mut cfg = *cfg;
    cfg.stepping = Stepping::SkipAhead;
    let run = |threads: usize| {
        ParallelRunner::new(threads.max(1)).run(matrix, |_, mc| {
            let (m, _) = run_bench(mc.bench, mc.kind, &cfg);
            m
        })
    };
    let serial = run(1);
    let mut mismatches = Vec::new();
    for &threads in thread_counts.iter().filter(|&&t| t != 1) {
        let wide = run(threads);
        for ((mc, s), w) in matrix.iter().zip(&serial).zip(&wide) {
            if s != w {
                mismatches.push(format!(
                    "{}: RunMetrics diverge between 1 and {} worker(s)",
                    mc.label(),
                    threads
                ));
            }
        }
    }
    mismatches
}

/// Render a sweep pair as the `BENCH_throughput.json` document.
///
/// Hand-rolled writer (the repo carries no JSON dependency); the output
/// is plain nested objects/arrays with only numbers and strings. The
/// scaling section, when present, goes **after** the sweeps array so
/// existing line-oriented readers ([`crate::trace_cmd::parse_baseline`])
/// keep seeing the skip-ahead cells unchanged.
pub fn to_json(
    cfg: &ExperimentConfig,
    sweeps: &[Sweep],
    baseline_seconds: Option<f64>,
    scaling: Option<&ScalingCurve>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"accesses_per_core\": {},", cfg.accesses_per_core);
    let _ = writeln!(out, "  \"cores\": {},", cfg.sim.cores);
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"backend\": \"{}\",", cfg.sim.backend.label());
    if let Some(base) = baseline_seconds {
        // Externally measured wall seconds for the same matrix on the
        // tick-every-cycle seed build (see DESIGN.md, "Simulation core
        // performance", for how the baseline was taken).
        let _ = writeln!(out, "  \"seed_matrix_wall_seconds\": {base:.3},");
        if let Some(last) = sweeps.last() {
            let _ = writeln!(
                out,
                "  \"speedup_skip_ahead_over_seed\": {:.3},",
                base / last.wall_seconds
            );
        }
    }
    if let [a, b] = sweeps {
        // Whole-matrix wall-clock ratio between the two modes.
        let _ = writeln!(
            out,
            "  \"speedup_{}_over_{}\": {:.3},",
            b.stepping.replace('-', "_"),
            a.stepping.replace('-', "_"),
            a.wall_seconds / b.wall_seconds
        );
    }
    out.push_str("  \"sweeps\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"stepping\": \"{}\",", s.stepping);
        let _ = writeln!(out, "      \"matrix_wall_seconds\": {:.3},", s.wall_seconds);
        out.push_str("      \"cells\": [\n");
        for (j, c) in s.cells.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"bench\": \"{}\", \"kind\": \"{}\", \
                 \"wall_seconds\": {:.4}, \"simulated_cycles\": {}, \
                 \"retired_accesses\": {}, \"cycles_per_second\": {:.0}, \
                 \"accesses_per_second\": {:.0}}}",
                c.bench,
                c.kind,
                c.wall_seconds,
                c.simulated_cycles,
                c.retired_accesses,
                c.cycles_per_second(),
                c.accesses_per_second(),
            );
            out.push_str(if j + 1 < s.cells.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < sweeps.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]");
    if let Some(curve) = scaling {
        out.push_str(",\n  \"scaling\": {\n");
        let _ = writeln!(out, "    \"host_threads\": {},", curve.host_threads);
        let _ = writeln!(out, "    \"bit_identical_to_serial\": {},", curve.bit_identical());
        out.push_str("    \"points\": [\n");
        for (i, p) in curve.points.iter().enumerate() {
            let _ = write!(
                out,
                "      {{\"threads\": {}, \"wall_seconds\": {:.3}, \"speedup\": {:.3}}}",
                p.threads, p.wall_seconds, p.speedup
            );
            out.push_str(if i + 1 < curve.points.len() { ",\n" } else { "\n" });
        }
        out.push_str("    ]\n  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_sim::CoalescerKind;
    use pac_workloads::Bench;

    fn gs_row() -> Vec<MatrixCell> {
        CoalescerKind::ALL
            .iter()
            .map(|&kind| MatrixCell { bench: Bench::Gs, kind })
            .collect()
    }

    #[test]
    fn sweep_reports_identical_metrics_across_modes() {
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let matrix = gs_row();
        let off = ProgressSink::disabled();
        let fast = sweep(&matrix, &cfg, Stepping::SkipAhead, &off, 0);
        let slow = sweep(&matrix, &cfg, Stepping::EveryCycle, &off, matrix.len());
        assert_eq!(fast.cells.len(), 3);
        for (f, s) in fast.cells.iter().zip(&slow.cells) {
            assert_eq!(f.simulated_cycles, s.simulated_cycles, "{}/{}", f.bench, f.kind);
            assert!(f.wall_seconds > 0.0 && s.wall_seconds > 0.0);
        }
        let json = to_json(&cfg, &[slow, fast], Some(12.0), None);
        assert!(json.contains("\"speedup_skip_ahead_over_every_cycle\""));
        assert!(json.contains("\"speedup_skip_ahead_over_seed\""));
        assert!(json.contains("\"cycles_per_second\""));
        // Well-formed enough for a strict reader: balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn scaling_curve_is_bit_identical_and_serializes() {
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let matrix = gs_row();
        let off = ProgressSink::disabled();
        let serial = sweep(&matrix, &cfg, Stepping::SkipAhead, &off, 0);
        let curve = scaling_curve(&matrix, &cfg, &serial, &[1, 3], &off);
        assert!(curve.bit_identical(), "{:?}", curve.cycle_mismatches);
        assert_eq!(curve.points.len(), 2);
        assert_eq!(curve.points[0].threads, 1);
        assert!((curve.points[0].speedup - 1.0).abs() < 1e-9);
        let json = to_json(&cfg, &[serial], None, Some(&curve));
        assert!(json.contains("\"scaling\""));
        assert!(json.contains("\"bit_identical_to_serial\": true"));
        assert!(json.contains("\"host_threads\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The scaling section must not confuse the baseline reader: it
        // still finds exactly the skip-ahead cells.
        let (_, _, cells) = crate::trace_cmd::parse_baseline(&json).unwrap();
        assert_eq!(cells.len(), matrix.len());
    }

    #[test]
    fn sweep_streams_cell_events() {
        // The sweep must stream cell_start/cell_finish per cell, while
        // the measured cycles stay bit-identical to the unobserved run.
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let matrix = gs_row();
        let plain = sweep(&matrix, &cfg, Stepping::SkipAhead, &ProgressSink::disabled(), 0);
        let (sink, buf) = ProgressSink::to_buffer();
        let observed = sweep(&matrix, &cfg, Stepping::SkipAhead, &sink, 0);
        for (p, o) in plain.cells.iter().zip(&observed.cells) {
            assert_eq!(p.simulated_cycles, o.simulated_cycles, "{}/{}", p.bench, p.kind);
        }
        let text = buf.contents();
        let count = |ev: &str| {
            text.lines().filter(|l| l.contains(&format!("\"ev\":\"{ev}\""))).count()
        };
        assert_eq!(count("cell_start"), matrix.len());
        assert_eq!(count("cell_finish"), matrix.len());
    }

    #[test]
    fn determinism_gate_passes_on_clean_matrix() {
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let mismatches = determinism_gate(&gs_row(), &cfg, &[1, 4]);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }
}
