//! The traced run: per-layer metrics, measured from outside.
//!
//! Spans wrap each call the benchmark makes into a layer; nothing inside
//! the simulator is instrumented. Layer host time comes from driving
//! each layer standalone on the workload's own inputs — the generators
//! and the cache hierarchy on the cells' access streams, the coalescer
//! and the backend through the isolated replays of [`crate::isolate`] —
//! and is turned into an estimated share of the workload's timed
//! operations by multiplying the standalone cost per event with the
//! in-system event counts. Layers the workload's timed path does not
//! touch still get their standalone cost measured on the workload's
//! inputs; their share is 0.
//!
//! A traced run repeats the workload's operations once without spans
//! and once with them, so `bench.trace_overhead` is measured, and every
//! operation is gated like in the untraced run; a diverging isolated
//! replay or snapshot round-trip is a failed operation.

use crate::gate::{run_digest, Gate};
use crate::isolate::isolate;
use crate::spans::Tracer;
use crate::stats::Metrics;
use crate::workloads::{
    capture_traces, figure_config, gate_campaign, matrix_cells, op_name, panic_text, run_campaign,
    sim_config, CampaignRun, Outcome, Settings, Workload, CORES,
};
use cache_sim::{CacheHierarchy, HierarchyOutcome};
use pac_serve::journal::Record;
use pac_serve::{cell, CampaignSpec, CellStatus, Journal};
use pac_sim::{replay, CoalescerKind, RunMetrics, RunProgress, SimSystem, Stepping, TraceEntry};
use pac_types::{BackendKind, Op, RequestKind, SimConfig, StallCycles, TraceConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Journal records timed by the journal probe.
const JOURNAL_PUSHES: u64 = 64;

/// One execution-driven cell of a workload.
#[derive(Debug, Clone, Copy)]
struct Cell {
    bench: Bench,
    kind: CoalescerKind,
    sim: SimConfig,
    seed: u64,
    accesses: u64,
}

impl Cell {
    fn op(&self) -> String {
        op_name(self.bench, self.kind)
    }

    fn system(&self, capture: bool) -> SimSystem {
        let specs = single_process(self.bench, self.sim.cores, self.seed);
        SimSystem::with_options(self.sim, specs, self.kind, capture, false, Stepping::SkipAhead)
    }

    fn front_end_accesses(&self) -> u64 {
        u64::from(self.sim.cores) * self.accesses
    }
}

/// One timed in-system run.
#[derive(Debug, Clone)]
struct SystemRun {
    cell: Cell,
    secs: f64,
    metrics: RunMetrics,
    stalls: Option<StallCycles>,
}

/// A timed operation on the workload's path, for layer counts and shares.
#[derive(Debug, Clone)]
struct PathOp {
    backend: BackendKind,
    metrics: RunMetrics,
    stalls: Option<StallCycles>,
}

/// What the workload-specific part hands to the shared layer probes.
struct Profile {
    /// In-system runs: the source of the cache-sim and pac-sim counts.
    systems: Vec<SystemRun>,
    /// The timed operations' statistics: the source of coalescer and
    /// backend counts.
    path: Vec<PathOp>,
    /// Front-end accesses on the timed path (0 when cores and caches
    /// run only in set-up).
    path_accesses: u64,
    /// Host seconds of the timed operations: the share denominator.
    path_secs: f64,
    /// Traced over untraced time of the repeated operations, minus one.
    trace_overhead: f64,
    /// Cells sampled by the oracle, snapshot and tracing A/B probes: the
    /// first cell of each coalescer.
    sample: Vec<Cell>,
    /// Campaign the pac-serve probe runs.
    serve_spec: CampaignSpec,
    /// The workload's own traced campaign, when it runs one.
    campaign: Option<CampaignRun>,
}

/// Cost accumulator for a standalone layer replay.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    secs: f64,
    events: f64,
    cycles: f64,
}

impl Cost {
    fn add(&mut self, secs: f64, events: u64, cycles: u64) {
        self.secs += secs;
        self.events += events as f64;
        self.cycles += cycles as f64;
    }

    fn ns_per_event(&self) -> f64 {
        self.secs * 1e9 / self.events
    }

    fn ns_per_cycle(&self) -> f64 {
        self.secs * 1e9 / self.cycles
    }
}

/// Backend statistics from isolated replays (the off-path source).
#[derive(Debug, Clone, Copy, Default)]
struct BackendCounts {
    requests: u64,
    bank_conflicts: u64,
    latency_sum: f64,
    txn_eff_sum: f64,
    runs: u64,
    stalls: StallCycles,
}

/// Isolated-replay results across every trace of the workload.
#[derive(Debug, Default)]
struct Isolation {
    coalescer: BTreeMap<&'static str, Cost>,
    backend: BTreeMap<&'static str, Cost>,
    counts: BTreeMap<&'static str, BackendCounts>,
}

impl Isolation {
    fn add(
        &mut self,
        trace: &[TraceEntry],
        kind: CoalescerKind,
        sim: &SimConfig,
        t: &mut Tracer,
        gate: &mut Gate,
    ) {
        let op = format!("isolated/{}/{}", kind.label(), sim.backend.label());
        let iso =
            t.span("isolate", |_| catch_unwind(AssertUnwindSafe(|| isolate(trace, kind, sim))));
        let iso = match iso {
            Ok(iso) => iso,
            Err(p) => return gate.fail(&op, &panic_text(p)),
        };
        if iso.mismatches.is_empty() {
            gate.pass();
        } else {
            gate.fail(&op, &iso.mismatches.join("; "));
        }
        let m = &iso.metrics;
        self.coalescer.entry(kind.label()).or_default().add(
            iso.coalescer.secs,
            m.raw_requests,
            iso.boundary_end,
        );
        let label = sim.backend.label();
        self.backend.entry(label).or_default().add(
            iso.backend.secs,
            iso.backend.requests,
            iso.boundary_end,
        );
        let c = self.counts.entry(label).or_default();
        c.requests += iso.backend.requests;
        c.bank_conflicts += iso.backend.bank_conflicts;
        c.latency_sum += iso.backend.avg_latency_ns;
        c.txn_eff_sum += iso.backend.transaction_eff;
        c.runs += 1;
        if let Some(s) = iso.backend.stalls {
            c.stalls.merge(&s);
        }
    }
}

/// Run the workload traced; returns the per-layer metrics and the spans.
pub fn run(s: &Settings) -> (Outcome, Tracer) {
    let mut t = Tracer::default();
    let mut gate = s.open_gate();
    let mut iso = Isolation::default();
    let profile = match s.workload {
        Workload::FigMatrixHmc => matrix(s, BackendKind::Hmc, &mut t, &mut gate, &mut iso),
        Workload::FigMatrixHbm => matrix(s, BackendKind::Hbm, &mut t, &mut gate, &mut iso),
        Workload::FigReplay => fig_replay(s, &mut t, &mut gate, &mut iso),
        Workload::CampaignChecked => campaign(s, &mut t, &mut gate, &mut iso),
    };
    let mut m = Metrics::default();
    layer_metrics(s, &profile, &iso, &mut t, &mut gate, &mut m);
    (Outcome { gate, metrics: m, model: Metrics::default() }, t)
}

/// Off-path backend for a workload whose timed path uses only `on`.
fn other_backend(on: BackendKind) -> BackendKind {
    match on {
        BackendKind::Hmc => BackendKind::Hbm,
        BackendKind::Hbm => BackendKind::Hmc,
    }
}

/// The sample of the oracle, snapshot and tracing probes: the first
/// cell of each coalescer.
fn first_of_each_kind(cells: &[Cell]) -> Vec<Cell> {
    CoalescerKind::ALL.iter().filter_map(|&k| cells.iter().find(|c| c.kind == k).copied()).collect()
}

/// A small campaign over the workload's own cells, for the pac-serve
/// probe of workloads that do not run one.
fn serve_probe_spec(s: &Settings, backend: BackendKind, bench: Bench) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        "name=perfbench-probe seed={:#x} cores={CORES} backends={} benches={} kinds=raw,mshr-dmc,pac \
         accesses={} quantum={} threads=2",
        s.seed,
        backend.label(),
        bench.name(),
        s.size.accesses,
        s.size.quantum
    ))
    .expect("the probe campaign spec parses")
}

/// Run and time `f`; a panic counts as a failed op.
fn gated<T>(gate: &mut Gate, op: &str, f: impl FnOnce() -> T) -> Option<(f64, T)> {
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some((start.elapsed().as_secs_f64(), v)),
        Err(p) => {
            gate.fail(op, &panic_text(p));
            None
        }
    }
}

/// A cell's own raw miss trace, captured under its own configuration.
fn capture(c: &Cell, t: &mut Tracer, gate: &mut Gate) -> Option<Vec<TraceEntry>> {
    let op = format!("capture/{}", c.op());
    t.span("capture", |_| {
        gated(gate, &op, || {
            let mut sys = c.system(true);
            sys.run(c.accesses);
            sys.take_trace()
        })
    })
    .map(|(_, trace)| trace)
}

fn matrix(
    s: &Settings,
    backend: BackendKind,
    t: &mut Tracer,
    gate: &mut Gate,
    iso: &mut Isolation,
) -> Profile {
    let sim = sim_config(backend);
    let cells: Vec<Cell> = matrix_cells()
        .into_iter()
        .map(|(bench, kind)| Cell { bench, kind, sim, seed: s.seed, accesses: s.size.accesses })
        .collect();

    // Each cell runs once plain and once under spans, in alternating
    // order so neither side always finds the warmer cache, followed by
    // the isolated replays of its own raw miss trace on its backend and
    // on the other one, so cost and share see the same host speed.
    let off = sim_config(other_backend(backend));
    let mut untraced = 0.0;
    let mut systems = Vec::new();
    t.span("pass", |t| {
        for (i, c) in cells.iter().enumerate() {
            for traced in [i % 2 == 1, i % 2 == 0] {
                let run = gated(gate, &c.op(), || {
                    if !traced {
                        let mut sys = c.system(false);
                        return (sys.run(c.accesses), None);
                    }
                    t.span("cell", |t| {
                        let mut sys = t.span("pac-sim.build", |_| c.system(false));
                        let m = t.span("pac-sim.run", |_| sys.run(c.accesses));
                        (m, sys.stall_cycles())
                    })
                });
                let Some((secs, (metrics, stalls))) = run else { continue };
                gate.check(&c.op(), run_digest(&metrics));
                if traced {
                    systems.push(SystemRun { cell: *c, secs, metrics, stalls });
                } else {
                    untraced += secs;
                }
            }
            if let Some(trace) = capture(c, t, gate) {
                iso.add(&trace, c.kind, &sim, t, gate);
                iso.add(&trace, c.kind, &off, t, gate);
            }
        }
    });
    let traced: f64 = systems.iter().map(|r| r.secs).sum();

    Profile {
        path: systems
            .iter()
            .map(|r| PathOp { backend, metrics: r.metrics.clone(), stalls: r.stalls })
            .collect(),
        path_accesses: systems.iter().map(|r| r.cell.front_end_accesses()).sum(),
        path_secs: traced,
        systems,
        trace_overhead: traced / untraced - 1.0,
        sample: first_of_each_kind(&cells),
        serve_spec: serve_probe_spec(s, backend, cells[0].bench),
        campaign: None,
    }
}

fn fig_replay(s: &Settings, t: &mut Tracer, gate: &mut Gate, iso: &mut Isolation) -> Profile {
    let exp = figure_config(s.seed, s.size.accesses);
    let cap_sim = pac_bench::harness::Harness::new(exp).capture_config().sim;
    let captures = t.span("setup.capture", |_| capture_traces(s.seed, s.size.accesses));
    // The capture runs are this workload's only in-system runs.
    let systems: Vec<SystemRun> = Bench::ALL
        .iter()
        .zip(&captures)
        .map(|(&bench, c)| SystemRun {
            cell: Cell {
                bench,
                kind: CoalescerKind::Raw,
                sim: cap_sim,
                seed: s.seed,
                accesses: s.size.accesses,
            },
            secs: c.secs,
            metrics: c.metrics.clone(),
            stalls: None,
        })
        .collect();

    let ops: Vec<(usize, CoalescerKind)> =
        (0..captures.len()).flat_map(|i| CoalescerKind::ALL.map(|k| (i, k))).collect();
    let off = sim_config(BackendKind::Hbm);
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut path = Vec::new();
    t.span("pass", |t| {
        for (n, &(i, kind)) in ops.iter().enumerate() {
            let op = op_name(Bench::ALL[i], kind);
            for spanned in [n % 2 == 1, n % 2 == 0] {
                let trace = &captures[i].trace;
                let run = if spanned {
                    gated(gate, &op, || t.span("pac-sim.replay", |_| replay(trace, kind, &exp.sim)))
                } else {
                    gated(gate, &op, || replay(trace, kind, &exp.sim))
                };
                let Some((secs, m)) = run else { continue };
                gate.check(&op, run_digest(&m));
                if spanned {
                    traced += secs;
                    path.push(PathOp { backend: BackendKind::Hmc, metrics: m, stalls: None });
                } else {
                    untraced += secs;
                }
            }
            iso.add(&captures[i].trace, kind, &exp.sim, t, gate);
            iso.add(&captures[i].trace, kind, &off, t, gate);
        }
    });
    let sample = CoalescerKind::ALL
        .map(|kind| Cell {
            bench: Bench::ALL[0],
            kind,
            sim: exp.sim,
            seed: s.seed,
            accesses: s.size.accesses,
        })
        .to_vec();
    Profile {
        systems,
        path,
        path_accesses: 0,
        path_secs: traced,
        trace_overhead: traced / untraced - 1.0,
        sample,
        serve_spec: serve_probe_spec(s, BackendKind::Hmc, Bench::ALL[0]),
        campaign: None,
    }
}

fn campaign(s: &Settings, t: &mut Tracer, gate: &mut Gate, iso: &mut Isolation) -> Profile {
    let spec = s.campaign_spec();
    let dir = |tag: &str| s.work_dir.join(format!("traced-{tag}-{}", std::process::id()));
    let untraced = t.span("untraced-pass", |_| run_campaign(&spec, &dir("untraced")));
    gate_campaign(gate, &spec, &untraced);
    let traced = t.span("traced-pass", |t| {
        t.span("pac-serve.run_fresh", |_| run_campaign(&spec, &dir("traced")))
    });
    let fps = gate_campaign(gate, &spec, &traced);

    // Every cell once more in-process and serially, for per-cell
    // statistics; each must reproduce the campaign's fingerprint.
    let cells: Vec<Cell> = spec
        .cells()
        .iter()
        .map(|c| Cell {
            bench: c.bench,
            kind: c.kind,
            sim: SimConfig { cores: spec.cores, ..SimConfig::for_backend(c.backend) },
            seed: c.seed,
            accesses: spec.accesses_per_core,
        })
        .collect();
    let off_path: Vec<SimConfig> = BackendKind::ALL
        .into_iter()
        .filter(|b| !spec.backends.contains(b))
        .map(|b| SimConfig { cores: spec.cores, ..SimConfig::for_backend(b) })
        .collect();
    let mut systems = Vec::new();
    t.span("in-process", |t| {
        for (c, cs) in cells.iter().zip(spec.cells()) {
            let op = format!("in-process/cell{}", cs.index);
            let run = gated(gate, &op, || {
                t.span("cell", |t| {
                    let mut sys = t.span("pac-serve.cell.build", |_| cell::build(&cs, &spec));
                    let progress = t.span("pac-sim.advance", |_| {
                        sys.advance(cell::cycle_limit(&cs, &spec), u64::MAX)
                    });
                    let m = sys.finish_run();
                    (progress, m, sys.stall_cycles())
                })
            });
            match run {
                Some((secs, (RunProgress::Done, metrics, stalls))) => {
                    if fps[cs.index as usize].is_some_and(|fp| same_cell(&fp, &metrics)) {
                        gate.pass();
                    } else {
                        gate.fail(&op, "in-process run differs from the campaign's fingerprint");
                    }
                    systems.push(SystemRun { cell: *c, secs, metrics, stalls });
                }
                Some(_) => gate.fail(&op, "in-process run did not drain"),
                None => {}
            }
            let Some(trace) = capture(c, t, gate) else { continue };
            iso.add(&trace, c.kind, &c.sim, t, gate);
            for off in &off_path {
                iso.add(&trace, c.kind, off, t, gate);
            }
        }
    });

    // The campaign's worker-seconds are the share denominator: both
    // workers are busy for the whole wall time.
    let worker_secs = traced.wall_s * spec.threads as f64;
    Profile {
        path: systems
            .iter()
            .map(|r| PathOp {
                backend: r.cell.sim.backend,
                metrics: r.metrics.clone(),
                stalls: r.stalls,
            })
            .collect(),
        path_accesses: systems.iter().map(|r| r.cell.front_end_accesses()).sum(),
        path_secs: worker_secs,
        systems,
        trace_overhead: traced.wall_s / untraced.wall_s - 1.0,
        sample: first_of_each_kind(&cells),
        serve_spec: spec,
        campaign: Some(traced),
    }
}

/// One op per cell: both campaigns finished it with the same fingerprint
/// (the worker count may change wall time only).
fn same_campaign_results(gate: &mut Gate, a: &CampaignRun, b: &CampaignRun) {
    let (Ok(a), Ok(b)) = (&a.report, &b.report) else {
        return gate.fail("serve-probe", "a probe campaign failed to run");
    };
    for (i, (x, y)) in a.cells.iter().zip(&b.cells).enumerate() {
        match (x, y) {
            (CellStatus::Done(x), CellStatus::Done(y)) if x == y => gate.pass(),
            _ => gate.fail(&format!("serve-probe/cell{i}"), "differs between 1 and 2 workers"),
        }
    }
}

/// Whether an in-process rerun reproduced a campaign cell's fingerprint.
fn same_cell(fp: &pac_serve::CellFingerprint, m: &RunMetrics) -> bool {
    fp.cycles == m.runtime_cycles
        && fp.raw_requests == m.raw_requests
        && fp.dispatched == m.dispatched_requests
        && fp.comparisons == m.comparisons
        && fp.transaction_bytes == m.transaction_bytes
        && fp.latency_bits == m.avg_mem_latency_ns.to_bits()
}

/// Generate every distinct access stream of the workload's cells, then
/// push the same accesses through a fresh cache hierarchy (fills
/// complete at once; there is no memory behind it). Returns ns per
/// access for generation and for the hierarchy.
fn front_end(systems: &[SystemRun], t: &mut Tracer) -> (f64, f64) {
    let mut seen = Vec::new();
    let mut gen = Cost::default();
    let mut cache = Cost::default();
    for r in systems {
        let c = r.cell;
        let key = (c.bench, c.seed, c.accesses, c.sim.cores);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let start = Instant::now();
        let streams: Vec<Vec<pac_workloads::Access>> = t.span("pac-workloads.generate", |_| {
            single_process(c.bench, c.sim.cores, c.seed)
                .into_iter()
                .map(|mut spec| (0..c.accesses).map(|_| spec.stream.next_access()).collect())
                .collect()
        });
        let n = c.front_end_accesses();
        gen.add(start.elapsed().as_secs_f64(), n, 0);

        let start = Instant::now();
        t.span("cache-sim.access", |_| {
            let mut h = CacheHierarchy::new(c.sim.cores, c.sim.l1, c.sim.l2);
            for j in 0..c.accesses as usize {
                for (core, stream) in streams.iter().enumerate() {
                    let a = stream[j];
                    if a.kind == RequestKind::Fence {
                        continue;
                    }
                    let out = h.access(core, a.addr, a.op == Op::Store);
                    if let HierarchyOutcome::Miss { pending: false, .. } = out {
                        h.fill_complete(a.addr);
                    }
                }
            }
            std::hint::black_box(h.l1_hit_rate());
        });
        cache.add(start.elapsed().as_secs_f64(), n, 0);
    }
    (gen.ns_per_event(), cache.ns_per_event())
}

/// Each sample cell with and without the lockstep oracle, alternating.
/// Returns (extra ns per front-end access, share of an oracle-checked
/// cell's time).
fn oracle_ab(sample: &[Cell], t: &mut Tracer, gate: &mut Gate) -> (f64, f64) {
    let (mut off, mut on, mut accesses) = (0.0, 0.0, 0u64);
    for c in sample {
        let op = format!("oracle/{}", c.op());
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let start = Instant::now();
            t.span("pac-sim.run", |_| c.system(false).run(c.accesses));
            best.0 = best.0.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let report = t.span("pac-oracle.run", |_| {
                let mut sys = c.system(false);
                sys.attach_oracle();
                sys.run(c.accesses);
                sys.oracle_report().expect("oracle attached")
            });
            best.1 = best.1.min(start.elapsed().as_secs_f64());
            if report.violations.is_empty() {
                gate.pass();
            } else {
                gate.fail(&op, &format!("{} oracle violation(s)", report.violations.len()));
            }
        }
        off += best.0;
        on += best.1;
        accesses += c.front_end_accesses();
    }
    ((on - off) * 1e9 / accesses as f64, (on - off) / on)
}

/// Snapshot probe results.
#[derive(Debug, Default)]
struct Snapshots {
    count: u64,
    bytes: u64,
    save_secs: f64,
    restore_secs: f64,
    cell_secs: f64,
    write_secs: f64,
}

/// Run each sample cell in preemption quanta with a save/restore
/// round-trip at every boundary, timing `save_state`, `restore` and a
/// durable checkpoint write; the result must equal an uninterrupted run.
fn snapshots(s: &Settings, sample: &[Cell], t: &mut Tracer, gate: &mut Gate) -> Snapshots {
    let mut out = Snapshots::default();
    let path = s.work_dir.join(format!("probe-{}.pacsnap", std::process::id()));
    let _ = std::fs::create_dir_all(&s.work_dir);
    for c in sample {
        let op = format!("snapshot/{}", c.op());
        let want = c.system(false).run(c.accesses);
        let meta = format!("perfbench {}", c.op());
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<RunMetrics, String> {
            let start = Instant::now();
            let mut sys = c.system(false);
            sys.begin_run(c.accesses);
            loop {
                let stop = sys.now().saturating_add(s.size.quantum);
                match sys.advance(sys.run_limit(), stop) {
                    RunProgress::Paused => {}
                    RunProgress::Done => break,
                    other => return Err(format!("advance ended {other:?}")),
                }
                let t0 = Instant::now();
                let bytes = t
                    .span("snapshot.save", |_| sys.save_state(&meta))
                    .map_err(|e| e.to_string())?;
                out.save_secs += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                t.span("pac-serve.checkpoint_write", |_| write_durably(&path, &bytes))
                    .map_err(|e| e.to_string())?;
                out.write_secs += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let specs = single_process(c.bench, c.sim.cores, c.seed);
                sys = t
                    .span("snapshot.restore", |_| SimSystem::restore(specs, &bytes, &meta))
                    .map_err(|e| e.to_string())?;
                out.restore_secs += t0.elapsed().as_secs_f64();
                out.count += 1;
                out.bytes += bytes.len() as u64;
            }
            let m = sys.finish_run();
            out.cell_secs += start.elapsed().as_secs_f64();
            Ok(m)
        }));
        match run {
            Ok(Ok(m)) if m == want => gate.pass(),
            Ok(Ok(_)) => gate.fail(&op, "snapshot round-trips changed the result"),
            Ok(Err(e)) => gate.fail(&op, &e),
            Err(p) => gate.fail(&op, &panic_text(p)),
        }
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// Write a checkpoint the way the scheduler does: temp file, sync,
/// rename.
fn write_durably(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Mean microseconds per durable `Journal::push`.
fn journal_push_us(s: &Settings, t: &mut Tracer) -> f64 {
    let path = s.work_dir.join(format!("probe-{}.jsonl", std::process::id()));
    let _ = std::fs::create_dir_all(&s.work_dir);
    let start = Instant::now();
    let pushed = t.span("pac-serve.journal_push", |_| -> std::io::Result<()> {
        let mut j = Journal::create(&path)?;
        for lease in 0..JOURNAL_PUSHES {
            j.push(&Record::Lease { cell: lease % 24, attempt: 1, worker: 1 + lease % 2, lease })?;
        }
        Ok(())
    });
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    match pushed {
        Ok(()) => secs * 1e6 / JOURNAL_PUSHES as f64,
        Err(_) => f64::NAN,
    }
}

/// Each sample cell at a tenth of its budget with full event tracing on
/// and off. Returns (extra ns per event, events recorded).
fn tracing_ab(sample: &[Cell], t: &mut Tracer) -> (f64, u64) {
    let (mut off, mut on, mut events) = (0.0, 0.0, 0u64);
    for c in sample {
        let accesses = (c.accesses / 10).max(1);
        let start = Instant::now();
        t.span("pac-sim.run", |_| c.system(false).run(accesses));
        off += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let n = t.span("pac-trace.run", |_| {
            let mut sys = c.system(false);
            sys.set_trace_config(TraceConfig::full());
            sys.run(accesses);
            sys.tracer().snapshot_events().len() as u64
        });
        on += start.elapsed().as_secs_f64();
        events += n;
    }
    ((on - off) * 1e9 / events.max(1) as f64, events)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

fn layer_metrics(
    s: &Settings,
    p: &Profile,
    iso: &Isolation,
    t: &mut Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    let denom = p.path_secs;

    // Cores and caches.
    let (gen_ns, cache_ns) = t.span("front-end", |t| front_end(&p.systems, t));
    m.set("pac-workloads.gen_ns_per_access", "ns", gen_ns);
    m.set("pac-workloads.est_share", "ratio", gen_ns * 1e-9 * p.path_accesses as f64 / denom);
    m.set("cache-sim.ns_per_access", "ns", cache_ns);
    m.set("cache-sim.l1_hit_rate", "ratio", mean(p.systems.iter().map(|r| r.metrics.l1_hit_rate)));
    m.set("cache-sim.l2_hit_rate", "ratio", mean(p.systems.iter().map(|r| r.metrics.l2_hit_rate)));
    m.set(
        "cache-sim.prefetches",
        "count",
        p.systems.iter().map(|r| r.metrics.prefetches as f64).sum(),
    );
    m.set("cache-sim.est_share", "ratio", cache_ns * 1e-9 * p.path_accesses as f64 / denom);

    // The simulator's own loop, over its in-system runs.
    let sys_secs: f64 = p.systems.iter().map(|r| r.secs).sum();
    let sys_accesses: f64 = p.systems.iter().map(|r| r.cell.front_end_accesses() as f64).sum();
    let sys_cycles: f64 = p.systems.iter().map(|r| r.metrics.runtime_cycles as f64).sum();
    m.set("pac-sim.run_ns_per_access", "ns", sys_secs * 1e9 / sys_accesses);
    m.set("pac-sim.run_ns_per_sim_cycle", "ns", sys_secs * 1e9 / sys_cycles);
    m.set("pac-sim.sim_cycles", "cycles", sys_cycles);
    m.set(
        "pac-sim.refused_admissions",
        "count",
        p.systems.iter().map(|r| r.metrics.stall_cycles as f64).sum(),
    );

    // Coalescers: cost from isolated replays, counts from the path.
    let mut core_share = 0.0;
    for kind in CoalescerKind::ALL {
        let k = kind.label();
        let cost = iso.coalescer.get(k).copied().unwrap_or_default();
        let ops: Vec<&RunMetrics> =
            p.path.iter().map(|o| &o.metrics).filter(|r| r.coalescer == k).collect();
        let raw: f64 = ops.iter().map(|r| r.raw_requests as f64).sum();
        core_share += cost.ns_per_event() * 1e-9 * raw / denom;
        m.set(format!("pac-core.{k}.ns_per_raw"), "ns", cost.ns_per_event());
        m.set(format!("pac-core.{k}.ns_per_cycle"), "ns", cost.ns_per_cycle());
        m.set(format!("pac-core.{k}.raw_requests"), "count", raw);
        m.set(
            format!("pac-core.{k}.dispatched"),
            "count",
            ops.iter().map(|r| r.dispatched_requests as f64).sum(),
        );
        m.set(
            format!("pac-core.{k}.coalescing_eff"),
            "ratio",
            mean(ops.iter().map(|r| r.coalescing_efficiency)),
        );
        m.set(
            format!("pac-core.{k}.comparisons"),
            "count",
            ops.iter().map(|r| r.comparisons as f64).sum(),
        );
        match kind {
            CoalescerKind::Pac => m.set(
                "pac-core.pac.bypass_fraction",
                "ratio",
                mean(ops.iter().map(|r| r.bypass_fraction)),
            ),
            CoalescerKind::MshrDmc => m.set(
                "pac-core.mshr-dmc.mshr_merges",
                "count",
                ops.iter().map(|r| r.mshr_merges as f64).sum(),
            ),
            CoalescerKind::Raw => {}
        }
    }
    m.set("pac-core.est_share", "ratio", core_share);

    // Backends: cost from isolated replays; counts from the path where
    // the backend is on it, else from the isolated replays.
    let mut backend_share = 0.0;
    for (backend, prefix) in [(BackendKind::Hmc, "hmc-sim"), (BackendKind::Hbm, "pac-mem.hbm")] {
        let label = backend.label();
        let cost = iso.backend.get(label).copied().unwrap_or_default();
        let ops: Vec<&PathOp> = p.path.iter().filter(|o| o.backend == backend).collect();
        let on_path = !ops.is_empty();
        let requests_on_path: f64 = ops.iter().map(|o| o.metrics.hmc_requests as f64).sum();
        let share =
            if on_path { cost.ns_per_event() * 1e-9 * requests_on_path / denom } else { 0.0 };
        backend_share += share;
        let c = iso.counts.get(label).copied().unwrap_or_default();
        let (requests, conflicts, latency, txn_eff, stalls) = if on_path {
            let mut stalls = StallCycles::default();
            for o in &ops {
                if let Some(s) = &o.stalls {
                    stalls.merge(s);
                }
            }
            (
                ops.iter().map(|o| o.metrics.hmc_requests as f64).sum(),
                ops.iter().map(|o| o.metrics.bank_conflicts as f64).sum(),
                mean(ops.iter().map(|o| o.metrics.avg_mem_latency_ns)),
                mean(ops.iter().map(|o| o.metrics.transaction_efficiency)),
                stalls,
            )
        } else {
            (
                c.requests as f64,
                c.bank_conflicts as f64,
                c.latency_sum / c.runs as f64,
                c.txn_eff_sum / c.runs as f64,
                c.stalls,
            )
        };
        m.set(format!("{prefix}.ns_per_request"), "ns", cost.ns_per_event());
        m.set(format!("{prefix}.ns_per_cycle"), "ns", cost.ns_per_cycle());
        m.set(format!("{prefix}.requests"), "count", requests);
        m.set(format!("{prefix}.bank_conflicts"), "count", conflicts);
        m.set(format!("{prefix}.avg_latency_ns"), "ns", latency);
        if backend == BackendKind::Hmc {
            m.set("hmc-sim.transaction_eff", "ratio", txn_eff);
        } else {
            m.set("pac-mem.hbm.stall_tfaw_cycles", "cycles", stalls.tfaw as f64);
            m.set("pac-mem.hbm.stall_tccd_l_cycles", "cycles", stalls.tccd_l as f64);
            m.set("pac-mem.hbm.stall_refresh_cycles", "cycles", stalls.refresh as f64);
        }
        m.set(format!("{prefix}.est_share"), "ratio", share);
    }

    let front_share = m.get("pac-workloads.est_share").map_or(0.0, |x| x.value)
        + m.get("cache-sim.est_share").map_or(0.0, |x| x.value);
    m.set("pac-sim.unattributed_share", "ratio", 1.0 - front_share - core_share - backend_share);

    // Optional layers, each A/B'd or timed on the sample cells.
    let (oracle_ns, oracle_share) = t.span("oracle-ab", |t| oracle_ab(&p.sample, t, gate));
    m.set("pac-oracle.ns_per_access", "ns", oracle_ns);
    m.set("pac-oracle.share", "ratio", oracle_share);

    let snap = t.span("snapshot-probe", |t| snapshots(s, &p.sample, t, gate));
    m.set("snapshot.count", "count", snap.count as f64);
    m.set("snapshot.bytes_mean", "B", snap.bytes as f64 / snap.count as f64);
    m.set("snapshot.save_ns_per_byte", "ns/B", snap.save_secs * 1e9 / snap.bytes as f64);
    m.set("snapshot.restore_ns_per_byte", "ns/B", snap.restore_secs * 1e9 / snap.bytes as f64);
    m.set("snapshot.share", "ratio", (snap.save_secs + snap.restore_secs) / snap.cell_secs);

    m.set("pac-serve.checkpoint_write_us", "us", snap.write_secs * 1e6 / snap.count as f64);
    let push_us = t.span("journal-probe", |t| journal_push_us(s, t));
    m.set("pac-serve.journal_push_us", "us", push_us);
    let probe;
    let wide = match &p.campaign {
        Some(run) => run,
        None => {
            let dir = s.work_dir.join(format!("probe-serve-{}", std::process::id()));
            probe = t.span("pac-serve.run_fresh", |_| run_campaign(&p.serve_spec, &dir));
            &probe
        }
    };
    let serial_spec = CampaignSpec { threads: 1, ..p.serve_spec.clone() };
    let dir = s.work_dir.join(format!("probe-serial-{}", std::process::id()));
    let serial = t.span("pac-serve.run_fresh", |_| run_campaign(&serial_spec, &dir));
    same_campaign_results(gate, wide, &serial);
    let stats = wide.report.as_ref().map(|r| r.stats).unwrap_or_default();
    m.set("pac-serve.leases", "count", stats.leases as f64);
    m.set("pac-serve.preemptions", "count", stats.preemptions as f64);
    m.set("pac-serve.retries", "count", stats.retries as f64);
    m.set("pac-serve.fanout_speedup", "ratio", serial.wall_s / wide.wall_s);

    let (trace_ns, events) = t.span("tracing-ab", |t| tracing_ab(&p.sample, t));
    m.set("pac-trace.ns_per_event", "ns", trace_ns);
    m.set("pac-trace.events", "count", events as f64);
    m.set("bench.trace_overhead", "ratio", p.trace_overhead);
}
