//! The four end-to-end workloads and their untraced measurement.
//!
//! Every workload is a closed-loop batch: an operation starts when the
//! previous one ends. Operations use 8 cores, skip-ahead stepping, the
//! serial device engine and empty caches, as the paper's figures do.
//! Passes over a workload's operations are interleaved round-robin until
//! the time budget is spent (at least one full pass always runs), so
//! every operation gets several timed samples and host-speed drift hits
//! all of them alike.

use crate::gate::{cell_digest, run_digest, Gate};
use crate::stats::{median, quantile, Metrics};
use pac_bench::harness::Harness;
use pac_obs::json::Json;
use pac_obs::ProgressSink;
use pac_serve::{cell, CampaignSpec, CellStatus, SchedulerConfig};
use pac_sim::{
    replay, CoalescerKind, ExperimentConfig, RunMetrics, SimSystem, Stepping, TraceEntry,
};
use pac_types::{BackendKind, SimConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The workload seed the committed references and EXPERIMENTS.md use.
pub const DEFAULT_SEED: u64 = 0x9AC_5EED;

/// Simulated cores per system (Table 1).
pub const CORES: u32 = 8;

/// The cheapest benchmark, used for warm-up and stepping cross-checks.
const PROBE_BENCH: Bench = Bench::Stream;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 15 path on HMC: 14 benches × 3 coalescers, execution-driven.
    FigMatrixHmc,
    /// The same matrix on the HBM backend.
    FigMatrixHbm,
    /// Fig 1/2/6/7/10–14 path: canonical traces replayed through each
    /// coalescer on HMC.
    FigReplay,
    /// Oracle-checked, preempting `pac-serve` campaign on both backends.
    CampaignChecked,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FigMatrixHmc,
        Workload::FigMatrixHbm,
        Workload::FigReplay,
        Workload::CampaignChecked,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigMatrixHmc => "fig-matrix-hmc",
            Workload::FigMatrixHbm => "fig-matrix-hbm",
            Workload::FigReplay => "fig-replay",
            Workload::CampaignChecked => "campaign-checked",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Size {
    /// Accesses per core for the figure workloads.
    pub accesses: u64,
    /// Campaign axes (`pac-serve` spec tokens).
    pub campaign_axes: &'static str,
    /// Accesses per core of each campaign cell.
    pub campaign_accesses: u64,
    /// Preemption quantum, in simulated cycles, of the campaign and of
    /// the snapshot probe.
    pub quantum: u64,
    /// Cap on passes; `None` runs passes until the time budget is spent.
    pub max_passes: Option<usize>,
    /// Times set-up runs; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark proper: the figure budget of EXPERIMENTS.md.
    pub fn full() -> Size {
        Size {
            accesses: 20_000,
            campaign_axes: "backends=hmc,hbm benches=BFS,CG,MG,SORT kinds=raw,mshr-dmc,pac",
            campaign_accesses: 10_000,
            quantum: 250_000,
            max_passes: None,
            setup_reps: 3,
        }
    }

    /// Seconds-scale smoke size for tests.
    pub fn tiny() -> Size {
        Size {
            accesses: 300,
            campaign_axes: "backends=hmc benches=BFS kinds=raw,mshr-dmc,pac",
            campaign_accesses: 300,
            quantum: 2_000,
            max_passes: Some(1),
            setup_reps: 1,
        }
    }
}

/// Everything one benchmark run needs.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    pub size: Size,
    /// Directory of committed reference fingerprints.
    pub reference_dir: PathBuf,
    /// Scratch directory for campaign state (inside the checkout).
    pub work_dir: PathBuf,
    /// Rewrite the reference from this run instead of checking it.
    pub bless: bool,
}

impl Settings {
    /// The configuration line a reference file must carry to apply.
    pub fn reference_header(&self) -> String {
        match self.workload {
            Workload::CampaignChecked => {
                format!("workload={} {}", self.workload.name(), self.campaign_spec().canonical())
            }
            w => format!(
                "workload={} seed={:#x} cores={CORES} accesses={}",
                w.name(),
                self.seed,
                self.size.accesses
            ),
        }
    }

    /// The gate for this run: against the committed reference, or —
    /// when blessing — against the run's own first pass only.
    pub fn open_gate(&self) -> Gate {
        let gate = Gate::open(&self.reference_path(), &self.reference_header());
        if self.bless {
            gate.without_reference()
        } else {
            gate
        }
    }

    pub fn reference_path(&self) -> PathBuf {
        self.reference_dir.join(format!("{}.txt", self.workload.name()))
    }

    pub fn campaign_spec(&self) -> CampaignSpec {
        CampaignSpec::parse(&format!(
            "name=perfbench seed={:#x} cores={CORES} {} accesses={} quantum={} threads=2",
            self.seed, self.size.campaign_axes, self.size.campaign_accesses, self.size.quantum
        ))
        .expect("the benchmark's campaign spec parses")
    }
}

/// What a run measured and verified.
#[derive(Debug)]
pub struct Outcome {
    pub gate: Gate,
    /// End-to-end metrics (traced runs: per-layer metrics).
    pub metrics: Metrics,
    /// The model's error against the paper, where this workload
    /// computes a figure the paper reports.
    pub model: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate.failed == 0
    }
}

/// The Table 1 system on `backend` with the paper's 8 cores.
pub fn sim_config(backend: BackendKind) -> SimConfig {
    SimConfig { cores: CORES, ..SimConfig::for_backend(backend) }
}

/// Build and run one execution-driven cell; the returned time covers
/// `SimSystem::with_options` and `run`.
fn run_cell(
    sim: &SimConfig,
    bench: Bench,
    kind: CoalescerKind,
    seed: u64,
    accesses: u64,
    stepping: Stepping,
) -> (f64, RunMetrics) {
    let specs = single_process(bench, sim.cores, seed);
    let t = Instant::now();
    let mut sys = SimSystem::with_options(*sim, specs, kind, false, false, stepping);
    let m = sys.run(accesses);
    (t.elapsed().as_secs_f64(), m)
}

/// Bench-major `(bench, kind)` list: the 42 cells of a figure matrix.
pub(crate) fn matrix_cells() -> Vec<(Bench, CoalescerKind)> {
    Bench::ALL.iter().flat_map(|&b| CoalescerKind::ALL.iter().map(move |&k| (b, k))).collect()
}

pub(crate) fn op_name(bench: Bench, kind: CoalescerKind) -> String {
    format!("{}/{}", bench.name(), kind.label())
}

/// Text of a caught panic.
pub(crate) fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run `op(index)` over `n` operations in interleaved passes until
/// `seconds` have elapsed, always finishing the first pass.
fn round_robin(n: usize, seconds: f64, max_passes: Option<usize>, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut pass = 0;
    'passes: while max_passes.is_none_or(|m| pass < m) {
        for i in 0..n {
            if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            op(i);
        }
        pass += 1;
    }
}

/// Run `setup` `reps` times. Returns the median wall time, the first
/// repetition's result, and whether every later result `same` as it.
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> (f64, T, bool) {
    let mut times = Vec::new();
    let mut first = None;
    let mut repeatable = true;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = setup();
        times.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(out),
            Some(f) => repeatable &= same(f, &out),
        }
    }
    (median(&times), first.expect("set-up ran at least once"), repeatable)
}

/// Set-up shared by the matrix workloads: run each coalescer once on a
/// short input so code, allocator and page-cache warm-up happen before
/// the clock starts.
fn warm_up(sim: &SimConfig, seed: u64, accesses: u64) {
    for kind in CoalescerKind::ALL {
        std::hint::black_box(run_cell(
            sim,
            PROBE_BENCH,
            kind,
            seed,
            (accesses / 10).max(1),
            Stepping::SkipAhead,
        ));
    }
}

/// Timing samples and first-pass statistics, per operation.
struct Samples {
    secs: Vec<Vec<f64>>,
    first: Vec<Option<RunMetrics>>,
}

impl Samples {
    fn new(n: usize) -> Self {
        Samples {
            secs: (0..n).map(|_| Vec::new()).collect(),
            first: (0..n).map(|_| None).collect(),
        }
    }

    /// Sum over operations of each one's median time.
    fn wall(&self) -> f64 {
        self.secs.iter().filter(|s| !s.is_empty()).map(|s| median(s)).sum()
    }

    fn all(&self) -> Vec<f64> {
        self.secs.iter().flatten().copied().collect()
    }
}

/// The end-to-end metrics every workload reports.
fn e2e_metrics(
    setup_s: f64,
    wall_s: f64,
    accesses: f64,
    cycles: f64,
    cell_secs: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", "s", setup_s);
    m.set("wall_s", "s", wall_s);
    m.set("accesses_per_s", "1/s", accesses / wall_s);
    m.set("sim_cycles_per_s", "1/s", cycles / wall_s);
    m.set("cell_s_p50", "s", quantile(cell_secs, 0.5));
    m.set("cell_s_p90", "s", quantile(cell_secs, 0.9));
    m.set("peak_rss_mb", "MB", crate::host::peak_rss_mb());
    m
}

/// Cross-check skip-ahead against the cycle-by-cycle reference on one
/// cell per coalescer: both must produce identical statistics.
fn stepping_cross_check(gate: &mut Gate, sim: &SimConfig, seed: u64, accesses: u64) {
    for kind in CoalescerKind::ALL {
        let op = format!("every-cycle/{}", op_name(PROBE_BENCH, kind));
        let run = |stepping| {
            catch_unwind(AssertUnwindSafe(|| {
                run_cell(sim, PROBE_BENCH, kind, seed, accesses, stepping).1
            }))
        };
        match (run(Stepping::SkipAhead), run(Stepping::EveryCycle)) {
            (Ok(skip), Ok(every)) if skip == every => gate.pass(),
            (Ok(_), Ok(_)) => gate.fail(&op, "skip-ahead and every-cycle stepping disagree"),
            (Err(p), _) | (_, Err(p)) => gate.fail(&op, &panic_text(p)),
        }
    }
}

/// Run one workload untraced.
pub fn run(s: &Settings) -> Outcome {
    match s.workload {
        Workload::FigMatrixHmc => matrix(s, BackendKind::Hmc),
        Workload::FigMatrixHbm => matrix(s, BackendKind::Hbm),
        Workload::FigReplay => fig_replay(s),
        Workload::CampaignChecked => campaign(s),
    }
}

fn matrix(s: &Settings, backend: BackendKind) -> Outcome {
    let sim = sim_config(backend);
    let cells = matrix_cells();
    let (setup_s, mut gate, _) = timed_setup(
        s.size.setup_reps,
        || {
            let gate = s.open_gate();
            warm_up(&sim, s.seed, s.size.accesses);
            gate
        },
        |_, _| true,
    );

    let mut samples = Samples::new(cells.len());
    round_robin(cells.len(), s.seconds, s.size.max_passes, |i| {
        let (bench, kind) = cells[i];
        let op = op_name(bench, kind);
        match catch_unwind(AssertUnwindSafe(|| {
            run_cell(&sim, bench, kind, s.seed, s.size.accesses, Stepping::SkipAhead)
        })) {
            Ok((secs, m)) => {
                samples.secs[i].push(secs);
                gate.check(&op, run_digest(&m));
                samples.first[i].get_or_insert(m);
            }
            Err(p) => gate.fail(&op, &panic_text(p)),
        }
    });
    if !gate.has_reference() {
        stepping_cross_check(&mut gate, &sim, s.seed, s.size.accesses);
    }

    let done: Vec<&RunMetrics> = samples.first.iter().flatten().collect();
    let accesses = (done.len() as u64 * u64::from(CORES) * s.size.accesses) as f64;
    let cycles = done.iter().map(|m| m.runtime_cycles as f64).sum();
    let metrics = e2e_metrics(setup_s, samples.wall(), accesses, cycles, &samples.all());

    let mut model = Metrics::default();
    if let Some(speedup) = mean_pac_speedup_pct(&cells, &samples.first) {
        model.set(format!("{}.fig15_pac_speedup_pct", backend.label()), "%", speedup);
        if backend == BackendKind::Hmc {
            let err = (speedup - pac_bench::paper::FIG15_PAC_AVG).abs();
            model.set("fig15_speedup_err_pp", "pp", err);
        }
    }
    Outcome { gate, metrics, model }
}

/// Fig 15's average: PAC's runtime improvement over the stock
/// controller, in percent, over every bench with both cells present.
fn mean_pac_speedup_pct(
    cells: &[(Bench, CoalescerKind)],
    first: &[Option<RunMetrics>],
) -> Option<f64> {
    let find = |b: Bench, k: CoalescerKind| {
        cells.iter().position(|&c| c == (b, k)).and_then(|i| first[i].as_ref())
    };
    let speedups: Vec<f64> = Bench::ALL
        .iter()
        .filter_map(|&b| {
            let raw = find(b, CoalescerKind::Raw)?;
            let pac = find(b, CoalescerKind::Pac)?;
            Some(pac.speedup_vs(raw) * 100.0)
        })
        .collect();
    (speedups.len() == Bench::ALL.len())
        .then(|| speedups.iter().sum::<f64>() / speedups.len() as f64)
}

/// The experiment configuration of the figure harness at this budget.
pub(crate) fn figure_config(seed: u64, accesses: u64) -> ExperimentConfig {
    ExperimentConfig {
        accesses_per_core: accesses,
        seed,
        capture_trace: true,
        ..ExperimentConfig::default()
    }
}

/// One benchmark's canonical raw trace and the run that captured it.
#[derive(Debug, Clone)]
pub struct Capture {
    pub trace: Vec<TraceEntry>,
    pub metrics: RunMetrics,
    pub secs: f64,
}

/// Capture the canonical raw trace of every benchmark, as the figure
/// harness does: a stock-controller run under the idealised capture
/// configuration.
pub fn capture_traces(seed: u64, accesses: u64) -> Vec<Capture> {
    let cap = Harness::new(figure_config(seed, accesses)).capture_config();
    Bench::ALL
        .iter()
        .map(|&bench| {
            let specs = single_process(bench, cap.sim.cores, seed);
            let start = Instant::now();
            let mut sys = SimSystem::with_options(
                cap.sim,
                specs,
                CoalescerKind::Raw,
                true,
                false,
                Stepping::SkipAhead,
            );
            let metrics = sys.run(accesses);
            Capture { trace: sys.take_trace(), metrics, secs: start.elapsed().as_secs_f64() }
        })
        .collect()
}

fn fig_replay(s: &Settings) -> Outcome {
    let sim = figure_config(s.seed, s.size.accesses).sim;
    let same_traces = |a: &(Gate, Vec<Capture>), b: &(Gate, Vec<Capture>)| {
        a.1.iter().map(|c| &c.trace).eq(b.1.iter().map(|c| &c.trace))
    };
    let (setup_s, (mut gate, traces), repeatable) = timed_setup(
        s.size.setup_reps,
        || (s.open_gate(), capture_traces(s.seed, s.size.accesses)),
        same_traces,
    );
    if !repeatable {
        gate.fail("setup/capture", "repeated trace capture produced different traces");
    }

    let ops: Vec<(usize, CoalescerKind)> =
        (0..traces.len()).flat_map(|t| CoalescerKind::ALL.map(|k| (t, k))).collect();
    let mut samples = Samples::new(ops.len());
    round_robin(ops.len(), s.seconds, s.size.max_passes, |i| {
        let (t, kind) = ops[i];
        let op = op_name(Bench::ALL[t], kind);
        let trace = &traces[t].trace;
        match catch_unwind(AssertUnwindSafe(|| {
            let start = Instant::now();
            let m = replay(trace, kind, &sim);
            (start.elapsed().as_secs_f64(), m)
        })) {
            Ok((secs, m)) => {
                samples.secs[i].push(secs);
                gate.check(&op, run_digest(&m));
                samples.first[i].get_or_insert(m);
            }
            Err(p) => gate.fail(&op, &panic_text(p)),
        }
    });
    if !gate.has_reference() {
        stepping_cross_check(&mut gate, &sim, s.seed, s.size.accesses);
    }

    let done: Vec<&RunMetrics> = samples.first.iter().flatten().collect();
    let requests = done.iter().map(|m| m.raw_requests as f64).sum();
    let cycles = done.iter().map(|m| m.runtime_cycles as f64).sum();
    let metrics = e2e_metrics(setup_s, samples.wall(), requests, cycles, &samples.all());

    let mut model = Metrics::default();
    let pac: Vec<f64> = ops
        .iter()
        .zip(&samples.first)
        .filter(|((_, k), _)| *k == CoalescerKind::Pac)
        .filter_map(|(_, m)| m.as_ref().map(|m| m.coalescing_efficiency * 100.0))
        .collect();
    if pac.len() == Bench::ALL.len() {
        let eff = pac.iter().sum::<f64>() / pac.len() as f64;
        model.set("fig6a_pac_eff_pct", "%", eff);
        model.set("fig6a_eff_err_pp", "pp", (eff - pac_bench::paper::FIG6A_PAC_AVG).abs());
    }
    Outcome { gate, metrics, model }
}

/// A progress-stream writer that stamps each complete line with the
/// instant it was written, so per-cell lifetimes come from the
/// scheduler's own `cell_start`/`cell_finish` events at full resolution.
#[derive(Clone, Default)]
struct StampedLines(Arc<Mutex<Lines>>);

#[derive(Default)]
struct Lines {
    partial: Vec<u8>,
    done: Vec<(Instant, String)>,
}

impl Write for StampedLines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let mut lines = self.0.lock().expect("progress writer poisoned");
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&lines.partial).into_owned();
                lines.partial.clear();
                lines.done.push((now, line));
            } else {
                lines.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl StampedLines {
    /// Wall seconds from each cell's `cell_start` to its `cell_finish`.
    fn cell_lifetimes(&self) -> Vec<f64> {
        let lines = self.0.lock().expect("progress writer poisoned");
        let mut starts = std::collections::HashMap::new();
        let mut out = Vec::new();
        for (at, line) in &lines.done {
            let Ok(ev) = Json::parse(line) else { continue };
            let Some(seq) = ev.get("seq").and_then(Json::as_u64) else { continue };
            match ev.get("ev").and_then(Json::as_str) {
                Some("cell_start") => {
                    starts.insert(seq, *at);
                }
                Some("cell_finish") => {
                    if let Some(t0) = starts.get(&seq) {
                        out.push(at.duration_since(*t0).as_secs_f64());
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// One fresh campaign in its own state directory, removed afterwards.
pub(crate) struct CampaignRun {
    pub wall_s: f64,
    pub report: Result<pac_serve::CampaignReport, String>,
    pub cell_lifetimes: Vec<f64>,
}

pub(crate) fn run_campaign(spec: &CampaignSpec, dir: &std::path::Path) -> CampaignRun {
    let _ = std::fs::remove_dir_all(dir);
    let log = StampedLines::default();
    let cfg = SchedulerConfig {
        progress: ProgressSink::to_writer(Box::new(log.clone())),
        ..SchedulerConfig::in_dir(dir)
    };
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| pac_serve::run_fresh(spec, &cfg)))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(p))));
    let wall_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    CampaignRun { wall_s, report, cell_lifetimes: log.cell_lifetimes() }
}

/// Gate every cell of a finished campaign; returns each cell's
/// fingerprint, `None` where the cell did not finish.
pub(crate) fn gate_campaign(
    gate: &mut Gate,
    spec: &CampaignSpec,
    run: &CampaignRun,
) -> Vec<Option<pac_serve::CellFingerprint>> {
    let cells = spec.cells();
    let mut fps = vec![None; cells.len()];
    match &run.report {
        Err(e) => {
            for c in &cells {
                gate.fail(&format!("cell{}", c.index), &format!("campaign failed: {e}"));
            }
        }
        Ok(report) => {
            for (c, status) in cells.iter().zip(&report.cells) {
                let op = format!("cell{}", c.index);
                match status {
                    CellStatus::Done(fp) => {
                        gate.check(&op, cell_digest(fp));
                        fps[c.index as usize] = Some(*fp);
                    }
                    CellStatus::Quarantined { reason, .. } => {
                        gate.fail(&op, &format!("quarantined: {reason}"))
                    }
                    CellStatus::Pending => gate.fail(&op, "unfinished"),
                }
            }
        }
    }
    fps
}

fn campaign(s: &Settings) -> Outcome {
    let spec = s.campaign_spec();
    let warm =
        CampaignSpec { accesses_per_core: (spec.accesses_per_core / 10).max(1), ..spec.clone() };
    let (setup_s, mut gate, _) = timed_setup(
        s.size.setup_reps,
        || {
            let gate = s.open_gate();
            for kind in CoalescerKind::ALL {
                if let Some(c) = warm.cells().into_iter().find(|c| c.kind == kind) {
                    let _ = std::hint::black_box(cell::run_to_completion(&c, &warm));
                }
            }
            gate
        },
        |_, _| true,
    );

    let mut walls = Vec::new();
    let mut lifetimes = Vec::new();
    let mut first: Option<Vec<Option<pac_serve::CellFingerprint>>> = None;
    let mut pass = 0;
    round_robin(1, s.seconds, s.size.max_passes, |_| {
        let dir = s.work_dir.join(format!("campaign-{}-{pass}", std::process::id()));
        pass += 1;
        let run = run_campaign(&spec, &dir);
        let fps = gate_campaign(&mut gate, &spec, &run);
        if run.report.is_ok() {
            walls.push(run.wall_s);
            lifetimes.extend(run.cell_lifetimes);
        }
        first.get_or_insert(fps);
    });
    if !gate.has_reference() {
        if let Some(fps) = &first {
            campaign_cross_check(&mut gate, &spec, fps);
        }
    }

    let fps: Vec<pac_serve::CellFingerprint> =
        first.unwrap_or_default().into_iter().flatten().collect();
    let accesses = (fps.len() as u64 * u64::from(spec.cores) * spec.accesses_per_core) as f64;
    let cycles = fps.iter().map(|f| f.cycles as f64).sum();
    let metrics = e2e_metrics(setup_s, median(&walls), accesses, cycles, &lifetimes);
    Outcome { gate, metrics, model: Metrics::default() }
}

/// For a campaign with no reference: rerun the first cell of each
/// coalescer straight through, cycle by cycle, with the oracle attached,
/// and require the campaign's (preempted, checkpointed, skip-ahead)
/// fingerprint.
fn campaign_cross_check(
    gate: &mut Gate,
    spec: &CampaignSpec,
    fps: &[Option<pac_serve::CellFingerprint>],
) {
    let cells = spec.cells();
    for kind in CoalescerKind::ALL {
        let Some(c) = cells.iter().find(|c| c.kind == kind) else { continue };
        let op = format!("every-cycle/cell{}", c.index);
        let Some(Some(want)) = fps.get(c.index as usize) else { continue };
        match catch_unwind(AssertUnwindSafe(|| every_cycle_fingerprint(c, spec))) {
            Ok(Ok(got)) if got == *want => gate.pass(),
            Ok(Ok(_)) => gate.fail(&op, "every-cycle rerun differs from the campaign"),
            Ok(Err(e)) => gate.fail(&op, &e),
            Err(p) => gate.fail(&op, &panic_text(p)),
        }
    }
}

/// A campaign cell run in one piece with `Stepping::EveryCycle`,
/// distilled the way `pac_serve::cell` distils its result.
fn every_cycle_fingerprint(
    c: &pac_serve::CellSpec,
    spec: &CampaignSpec,
) -> Result<pac_serve::CellFingerprint, String> {
    let sim = SimConfig { cores: spec.cores, ..SimConfig::for_backend(c.backend) };
    let specs = single_process(c.bench, spec.cores, c.seed);
    let mut sys = SimSystem::with_options(sim, specs, c.kind, false, false, Stepping::EveryCycle);
    sys.attach_oracle();
    sys.begin_run(spec.accesses_per_core);
    if sys.advance(cell::cycle_limit(c, spec), u64::MAX) != pac_sim::RunProgress::Done {
        return Err("every-cycle rerun did not drain".to_string());
    }
    let m = sys.finish_run();
    let report = sys.oracle_report().expect("oracle attached");
    if !report.violations.is_empty() {
        return Err(format!("oracle: {} violation(s)", report.violations.len()));
    }
    Ok(pac_serve::CellFingerprint {
        cycles: m.runtime_cycles,
        raw_requests: m.raw_requests,
        dispatched: m.dispatched_requests,
        comparisons: m.comparisons,
        transaction_bytes: m.transaction_bytes,
        latency_bits: m.avg_mem_latency_ns.to_bits(),
        faults_injected: sys.faults_injected(),
        retries_issued: 0,
        oracle_accepted: report.accepted_raw,
        oracle_served: report.served_raw,
        oracle_dispatches: report.dispatches,
        oracle_responses: report.responses,
    })
}
