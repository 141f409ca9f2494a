//! Shared experiment plumbing: trace capture with caching, replay
//! under each coalescer, and table formatting.

use pac_sim::{replay_with, run_bench, CoalescerKind, ExperimentConfig, RunMetrics, TraceEntry};
use pac_workloads::Bench;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Lazily-computed shared state for figure generation: the canonical
/// per-benchmark raw traces (captured from a stock-controller run) and
/// replay results per coalescer.
pub struct Harness {
    pub cfg: ExperimentConfig,
    traces: HashMap<Bench, Vec<TraceEntry>>,
    replays: HashMap<(Bench, CoalescerKind), RunMetrics>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new(ExperimentConfig {
            accesses_per_core: default_accesses(),
            capture_trace: true,
            ..Default::default()
        })
    }
}

fn default_accesses() -> u64 {
    if let Some(n) = std::env::var("PAC_ACCESSES").ok().and_then(|s| s.parse().ok()) {
        return n;
    }
    if quick_mode() {
        QUICK_ACCESSES
    } else {
        20_000
    }
}

/// Per-core access budget under `--quick` / `PAC_QUICK=1`.
pub const QUICK_ACCESSES: u64 = 1_500;

/// True when `PAC_QUICK` requests the seconds-scale smoke configuration.
pub fn quick_mode() -> bool {
    std::env::var("PAC_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

impl Harness {
    pub fn new(cfg: ExperimentConfig) -> Self {
        Harness { cfg, traces: HashMap::new(), replays: HashMap::new() }
    }

    /// A harness with the smoke-run access budget (`--quick`), small
    /// enough that every figure regenerates in seconds.
    pub fn quick() -> Self {
        Self::new(ExperimentConfig {
            accesses_per_core: QUICK_ACCESSES,
            capture_trace: true,
            ..Default::default()
        })
    }

    /// The configuration traces are *captured* under: an idealized
    /// memory back-end (deep outstanding-request capacity) so the
    /// recorded inter-arrival timing reflects the cores, not the stock
    /// controller's congestion. This mirrors the paper's methodology —
    /// Spike is a functional simulator, so its traces carry execution
    /// timing, and every coalescer model is then evaluated against the
    /// Table 1 memory system during replay.
    pub fn capture_config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig { capture_trace: true, ..self.cfg };
        cfg.sim.coalescer.mshrs = 256;
        cfg.sim.coalescer.maq_entries = 256;
        cfg
    }

    /// The canonical raw request trace of a benchmark.
    pub fn trace(&mut self, bench: Bench) -> &[TraceEntry] {
        if !self.traces.contains_key(&bench) {
            let (_, trace) = run_bench(bench, CoalescerKind::Raw, &self.capture_config());
            self.traces.insert(bench, trace);
        }
        &self.traces[&bench]
    }

    /// Replay a benchmark's canonical trace through one coalescer
    /// (cached).
    pub fn replay(&mut self, bench: Bench, kind: CoalescerKind) -> &RunMetrics {
        if !self.replays.contains_key(&(bench, kind)) {
            self.trace(bench);
            let trace = &self.traces[&bench];
            let pac = kind == CoalescerKind::Pac;
            let m = replay_with(trace, kind, &self.cfg.sim, pac, self.cfg.stepping);
            self.replays.insert((bench, kind), m);
        }
        &self.replays[&(bench, kind)]
    }

    /// Capture traces for every benchmark in parallel (warm-up).
    pub fn prewarm(&mut self) {
        let cfg = self.capture_config();
        let missing: Vec<Bench> =
            Bench::ALL.iter().copied().filter(|b| !self.traces.contains_key(b)).collect();
        let traces = crate::ParallelRunner::new(0)
            .run(&missing, |_, &bench| run_bench(bench, CoalescerKind::Raw, &cfg).1);
        self.traces.extend(missing.into_iter().zip(traces));
    }
}

/// Format one table: a header, one row per benchmark plus an average,
/// and an optional paper-reference footer.
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    notes: Vec<String>,
    precision: usize,
}

impl Table {
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            precision: 2,
        }
    }

    pub fn precision(mut self, p: usize) -> Self {
        self.precision = p;
        self
    }

    pub fn row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((label.to_string(), values));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Append an "average" row over the existing rows.
    pub fn average_row(&mut self) {
        let n = self.rows.len().max(1) as f64;
        let avgs: Vec<f64> = (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(("average".to_string(), avgs));
    }

    /// Render the table's rows as a grouped ASCII bar chart (one series
    /// per column, the trailing "average" row excluded) — the shape of
    /// the paper's figure, under the exact numbers.
    pub fn chart(&self) -> String {
        let rows: Vec<(String, Vec<f64>)> = self
            .rows
            .iter()
            .filter(|(l, _)| l != "average")
            .cloned()
            .collect();
        let series: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        crate::chart::grouped_bar_chart(&self.title, &series, &rows)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).fold(9, usize::max);
        let col_w = self.columns.iter().map(|c| c.len().max(10)).collect::<Vec<_>>();
        let _ = write!(out, "{:<label_w$}", "benchmark");
        for (c, w) in self.columns.iter().zip(&col_w) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for (v, w) in values.iter().zip(&col_w) {
                let _ = write!(out, "  {v:>w$.prec$}", prec = self.precision);
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_rows_and_average() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("x", vec![1.0, 2.0]);
        t.row("y", vec![3.0, 4.0]);
        t.average_row();
        t.note("paper: 42".to_string());
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("average"));
        assert!(s.contains("2.00"));
        assert!(s.contains("3.00")); // average of column a
        assert!(s.contains("paper: 42"));
    }

    #[test]
    fn harness_caches_traces_and_replays() {
        let cfg = ExperimentConfig {
            accesses_per_core: 800,
            capture_trace: true,
            ..Default::default()
        };
        let mut h = Harness::new(cfg);
        let len1 = h.trace(Bench::Stream).len();
        let len2 = h.trace(Bench::Stream).len();
        assert_eq!(len1, len2);
        assert!(len1 > 0);
        let eff = h.replay(Bench::Stream, CoalescerKind::Pac).coalescing_efficiency;
        let eff2 = h.replay(Bench::Stream, CoalescerKind::Pac).coalescing_efficiency;
        assert_eq!(eff, eff2);
    }
}
