//! The `pac-bench trace` subcommand: run one benchmark × coalescer cell
//! with the structured tracer attached, export the Chrome `trace_event`
//! JSON (loadable at <https://ui.perfetto.dev>), and render a
//! human-readable report covering the oracle verdict, flight-recorder
//! dumps, and the per-stage latency histograms.
//!
//! The module also hosts the throughput guard: proof that the
//! *disabled* trace path costs nothing, by re-running the experiment
//! matrix with tracing off and holding both the simulated cycle counts
//! and the wall-clock throughput against the committed
//! `BENCH_throughput.json` baseline.

use pac_sim::{CoalescerKind, ExperimentConfig, SimSystem};
use pac_trace::perfetto::chrome_trace_json;
use pac_trace::{FlightDump, MetricsRegistry};
use pac_types::{FaultPlan, RasPlan, TraceConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::fmt::Write as _;
use std::time::Instant;

/// Everything produced by one traced cell run.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Benchmark label.
    pub bench: &'static str,
    /// Coalescer label.
    pub kind: &'static str,
    /// Whether the system drained within the cycle bound (a drop-fault
    /// run intentionally does not).
    pub converged: bool,
    /// Chrome `trace_event` JSON document.
    pub json: String,
    /// Human-readable violation / histogram report.
    pub report: String,
    /// Events recorded (full mode) — 0 in flight-recorder mode.
    pub events: usize,
    /// Flight-recorder dumps captured.
    pub dumps: usize,
    /// Per-stage latency registry (the same histograms the report
    /// renders), for progress-stream `metrics` events.
    pub metrics: MetricsRegistry,
    /// Simulated cycle the run ended at.
    pub cycles: u64,
}

/// Run one `bench × kind` cell under `trace_cfg`, optionally with a
/// fault plan or a hardware-RAS plan armed, and collect the exported
/// trace plus the report. The lockstep oracle rides along so the
/// report always carries a verdict; fault runs use a bounded drain (a
/// dropped response would otherwise wedge the run loop). Callers
/// validate RAS plans against the active backend first
/// ([`pac_types::RasPlan::validate_for`]) — by the time a plan reaches
/// here it must arm cleanly.
pub fn run_cell(
    bench: Bench,
    kind: CoalescerKind,
    cfg: &ExperimentConfig,
    trace_cfg: TraceConfig,
    fault: Option<FaultPlan>,
    ras: Option<RasPlan>,
) -> TraceOutcome {
    let specs = single_process(bench, cfg.sim.cores, cfg.seed);
    let mut sys = SimSystem::with_options(cfg.sim, specs, kind, false, false, cfg.stepping);
    sys.attach_oracle();
    sys.set_trace_config(trace_cfg);
    if let Some(plan) = fault {
        sys.set_fault_plan(plan).expect("valid fault plan");
    }
    if let Some(plan) = ras {
        sys.set_ras_plan(plan).expect("caller-validated ras plan");
    }
    let limit = cfg
        .accesses_per_core
        .saturating_mul(u64::from(cfg.sim.cores))
        .saturating_mul(2000)
        .max(10_000_000);
    let converged = sys.run_until(cfg.accesses_per_core, limit);

    let events = sys.tracer().snapshot_events();
    // The run is over: drain the counter history instead of re-cloning
    // it (`take_counters` leaves the buffer empty, which is fine — the
    // tracer dies with `sys` at the end of this function).
    let counters = sys.tracer().take_counters();
    let dumps = sys.tracer().snapshot_dumps();
    let json = chrome_trace_json(&events, &counters);
    let metrics = stage_registry(&sys);
    let report = render_report(&sys, bench, kind, converged, &dumps, &metrics);
    TraceOutcome {
        bench: bench.name(),
        kind: kind.label(),
        converged,
        json,
        report,
        events: events.len(),
        dumps: dumps.len(),
        metrics,
        cycles: sys.now(),
    }
}

/// Build the per-stage latency registry from a finished system's
/// statistics (the same samples behind the legacy scalar aggregates).
pub fn stage_registry(sys: &SimSystem) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let cs = sys.coalescer_stats();
    reg.insert("stage2_decoder", cs.stage2_hist.clone());
    reg.insert("stage3_assembler", cs.stage3_hist.clone());
    reg.insert("maq_fill", cs.maq_fill_hist.clone());
    reg.insert("hmc_end_to_end", sys.hmc_stats().latency_hist.clone());
    reg
}

fn render_report(
    sys: &SimSystem,
    bench: Bench,
    kind: CoalescerKind,
    converged: bool,
    dumps: &[FlightDump],
    metrics: &MetricsRegistry,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace report — bench={} kind={}", bench.name(), kind.label());
    let _ = writeln!(out, "drained: {}", if converged { "yes" } else { "NO (cycle bound hit)" });
    if let Some(report) = sys.oracle_report() {
        let _ = writeln!(out, "oracle : {}", report.summary());
    }
    let _ = writeln!(out, "faults : {}", sys.faults_injected());
    if let Some(rs) = sys.ras_stats() {
        let _ = writeln!(
            out,
            "ras    : crc={} retries={} half={} retired={} stalls={} corrected={} \
             poisoned={} scrub={} spared={}",
            rs.crc_errors,
            rs.link_retries,
            rs.links_half_width,
            rs.links_retired,
            rs.token_stalls,
            rs.ecc_corrected,
            rs.ecc_poisoned,
            rs.scrub_hits,
            rs.banks_spared
        );
    }
    let _ = writeln!(out, "dumps  : {}", dumps.len());
    for (i, d) in dumps.iter().enumerate() {
        let _ = writeln!(
            out,
            "  dump {} at cycle {}: {} ({} events in window)",
            i + 1,
            d.cycle,
            d.trigger.describe(),
            d.events.len()
        );
        // For fault dumps, show the faulted request's recorded history —
        // the events the flight recorder preserved for the offender.
        if let pac_trace::DumpTrigger::Fault { id, .. } = d.trigger {
            for ev in d.events.iter().filter(|e| e.kind.request_id() == Some(id)) {
                let _ = writeln!(out, "    cycle {:>10}  {}", ev.cycle, ev.kind.name());
            }
        }
    }
    let _ = writeln!(out, "stage latency histograms (cycles):");
    out.push_str(&metrics.render_table());
    out
}

/// One parsed cell of the committed throughput baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// Benchmark label as recorded.
    pub bench: String,
    /// Coalescer label as recorded.
    pub kind: String,
    /// Wall seconds the baseline machine spent on the cell.
    pub wall_seconds: f64,
    /// Simulated cycles the run covered (machine-independent).
    pub simulated_cycles: u64,
}

/// Minimal reader for `BENCH_throughput.json`: returns
/// `(accesses_per_core, seed, skip-ahead cells)`. Hand-rolled like the
/// writer in [`crate::throughput`] — the repo carries no JSON
/// dependency and the document is our own output format.
pub fn parse_baseline(json: &str) -> Result<(u64, u64, Vec<BaselineCell>), String> {
    fn field_u64(s: &str, key: &str) -> Option<u64> {
        let at = s.find(&format!("\"{key}\":"))?;
        let rest = s[at..].split(':').nth(1)?;
        let num: String =
            rest.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
        num.parse().ok()
    }
    fn field_f64(s: &str, key: &str) -> Option<f64> {
        let at = s.find(&format!("\"{key}\":"))?;
        let rest = s[at..].split(':').nth(1)?;
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        num.parse().ok()
    }
    fn field_str(s: &str, key: &str) -> Option<String> {
        let at = s.find(&format!("\"{key}\":"))?;
        let rest = &s[at + key.len() + 3..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        let close = rest.find('"')?;
        Some(rest[..close].to_string())
    }

    let accesses =
        field_u64(json, "accesses_per_core").ok_or("missing accesses_per_core")?;
    let seed = field_u64(json, "seed").ok_or("missing seed")?;
    // The skip-ahead sweep is the production mode the guard compares
    // against; find its section and take the cells that follow.
    let sweep_at = json
        .find("\"stepping\": \"skip-ahead\"")
        .ok_or("baseline has no skip-ahead sweep")?;
    let mut cells = Vec::new();
    for line in json[sweep_at..].lines() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"bench\"") {
            continue;
        }
        let bench = field_str(line, "bench").ok_or("cell missing bench")?;
        let kind = field_str(line, "kind").ok_or("cell missing kind")?;
        let wall = field_f64(line, "wall_seconds").ok_or("cell missing wall_seconds")?;
        let cycles =
            field_u64(line, "simulated_cycles").ok_or("cell missing simulated_cycles")?;
        cells.push(BaselineCell { bench, kind, wall_seconds: wall, simulated_cycles: cycles });
    }
    if cells.is_empty() {
        return Err("no cells under the skip-ahead sweep".into());
    }
    Ok((accesses, seed, cells))
}

/// Result of the disabled-path throughput guard.
#[derive(Debug)]
pub struct GuardReport {
    /// Cells whose simulated cycle count no longer matches the baseline
    /// (must be empty: tracing off may not change behavior).
    pub cycle_mismatches: Vec<String>,
    /// Total wall seconds the baseline spent on the compared cells.
    pub baseline_seconds: f64,
    /// Total wall seconds spent with no tracer constructed at all.
    pub plain_seconds: f64,
    /// Total wall seconds spent with `TraceConfig::off()` attached.
    pub off_seconds: f64,
    /// Total wall seconds spent on the observed path: `TraceConfig::off()`
    /// plus a disabled [`pac_obs::ProgressSink`] emitting per-cell events
    /// plus the harness self-metric accessors polled after the run.
    pub obs_seconds: f64,
    /// `off/plain - 1` measured back-to-back on this machine — the
    /// machine-independent zero-cost proof (positive = off is slower).
    pub ab_delta: f64,
    /// `obs/plain - 1` measured back-to-back on this machine — the same
    /// zero-cost proof for the disabled progress/self-metrics path.
    pub obs_delta: f64,
    /// `plain/baseline - 1` against the recorded document; subsumes
    /// build drift and machine conditions, reported for context.
    pub wall_delta: f64,
    /// Tolerance for the same-machine A/B delta (the ±2% budget).
    pub tolerance: f64,
    /// Looser bound for the recorded-document comparison: the document
    /// was measured in a different process lifetime (possibly a
    /// different machine), so ~5% run-to-run drift is expected even on
    /// an identical binary. Set to `5 × tolerance`.
    pub wall_tolerance: f64,
}

impl GuardReport {
    /// True when cycles match everywhere, the A/B and observed-path
    /// deltas are within tolerance, and the recorded-baseline delta is
    /// within the drift allowance.
    pub fn passed(&self) -> bool {
        self.cycle_mismatches.is_empty()
            && self.ab_delta <= self.tolerance
            && self.obs_delta <= self.tolerance
            && self.wall_delta <= self.wall_tolerance
    }

    /// Render the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "throughput guard:");
        let _ = writeln!(
            out,
            "  A/B same-machine: plain {:.3}s vs TraceConfig::off() {:.3}s, delta {:+.2}% \
             (tolerance {:.0}%)",
            self.plain_seconds,
            self.off_seconds,
            self.ab_delta * 100.0,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "  A/B observed path: plain {:.3}s vs disabled progress+self-metrics {:.3}s, \
             delta {:+.2}% (tolerance {:.0}%)",
            self.plain_seconds,
            self.obs_seconds,
            self.obs_delta * 100.0,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "  vs recorded baseline: {:.3}s recorded, {:.3}s measured, delta {:+.2}% \
             (drift allowance {:.0}%)",
            self.baseline_seconds,
            self.plain_seconds,
            self.wall_delta * 100.0,
            self.wall_tolerance * 100.0
        );
        for m in &self.cycle_mismatches {
            let _ = writeln!(out, "  CYCLE MISMATCH: {m}");
        }
        let _ = writeln!(out, "verdict: {}", if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

/// Re-run every baseline cell three times back-to-back — once with no
/// tracer constructed (the `run_bench` path), once with
/// `TraceConfig::off()` attached, and once through the full observed
/// path (disabled progress sink emitting per-cell events, self-metric
/// accessors polled after the run) — and compare: simulated cycles must
/// match the baseline exactly (observability off changes nothing), both
/// A/B wall deltas must be within `tolerance` (the machine-independent
/// zero-cost proofs), and the plain run must also land within the drift
/// allowance of the recorded baseline wall clock. `max_cells` bounds
/// the sweep for quick checks (0 = all).
pub fn throughput_guard(
    baseline_json: &str,
    tolerance: f64,
    max_cells: usize,
) -> Result<GuardReport, String> {
    let (accesses, seed, mut cells) = parse_baseline(baseline_json)?;
    if max_cells > 0 {
        cells.truncate(max_cells);
    }
    let cfg = ExperimentConfig { accesses_per_core: accesses, seed, ..Default::default() };
    let mut mismatches = Vec::new();
    let mut baseline_seconds = 0.0;
    let mut plain_seconds = 0.0;
    let mut off_seconds = 0.0;
    let mut obs_seconds = 0.0;
    let progress = pac_obs::ProgressSink::disabled();
    for (i, cell) in cells.iter().enumerate() {
        let Some(bench) = Bench::from_name(&cell.bench) else {
            return Err(format!("baseline names unknown benchmark '{}'", cell.bench));
        };
        let kind = match cell.kind.as_str() {
            "raw" => CoalescerKind::Raw,
            "mshr-dmc" => CoalescerKind::MshrDmc,
            "pac" => CoalescerKind::Pac,
            other => return Err(format!("baseline names unknown coalescer '{other}'")),
        };
        let t = Instant::now();
        let (m, _) = pac_sim::run_bench(bench, kind, &cfg);
        plain_seconds += t.elapsed().as_secs_f64();

        let specs = single_process(bench, cfg.sim.cores, cfg.seed);
        let t = Instant::now();
        let mut sys =
            SimSystem::with_options(cfg.sim, specs, kind, false, false, cfg.stepping);
        sys.set_trace_config(TraceConfig::off());
        let m_off = sys.run(cfg.accesses_per_core);
        off_seconds += t.elapsed().as_secs_f64();

        // Third leg: the observed path exactly as a progress-enabled
        // binary would drive it, but with the sink disabled — per-cell
        // events, worker-stat timing, and the self-metric accessors all
        // exercised. Must cost nothing and change nothing.
        let specs = single_process(bench, cfg.sim.cores, cfg.seed);
        let t = Instant::now();
        let id = pac_obs::CellId {
            bench: &cell.bench,
            kind: &cell.kind,
            backend: "hmc",
            config: "guard",
        };
        progress.cell_start(i, &id);
        let mut sys =
            SimSystem::with_options(cfg.sim, specs, kind, false, false, cfg.stepping);
        sys.set_trace_config(TraceConfig::off());
        let m_obs = sys.run(cfg.accesses_per_core);
        let stalls = sys.stall_cycles();
        // Metrics payloads are only built for enabled sinks; the branch
        // itself is part of what the guard measures.
        if progress.is_enabled() {
            progress.metrics(i, &id, &stage_registry(&sys));
        }
        let cell_wall = t.elapsed().as_secs_f64();
        progress.cell_finish(i, &id, "pass", cell_wall, m_obs.runtime_cycles);
        obs_seconds += cell_wall;
        // The accessors are pure reads; fold them into the mismatch
        // check so the optimizer cannot discard the polls.
        let polls_consistent = stalls.map_or(0, |s| s.total()) < u64::MAX;

        baseline_seconds += cell.wall_seconds;
        if m != m_off {
            mismatches.push(format!(
                "{}/{}: metrics diverge between plain and TraceConfig::off() runs",
                cell.bench, cell.kind
            ));
        }
        if m != m_obs || !polls_consistent {
            mismatches.push(format!(
                "{}/{}: metrics diverge between plain and observed-path runs",
                cell.bench, cell.kind
            ));
        }
        if m.runtime_cycles != cell.simulated_cycles {
            mismatches.push(format!(
                "{}/{}: {} cycles, baseline {}",
                cell.bench, cell.kind, m.runtime_cycles, cell.simulated_cycles
            ));
        }
    }
    Ok(GuardReport {
        cycle_mismatches: mismatches,
        baseline_seconds,
        plain_seconds,
        off_seconds,
        obs_seconds,
        ab_delta: off_seconds / plain_seconds - 1.0,
        obs_delta: obs_seconds / plain_seconds - 1.0,
        wall_delta: plain_seconds / baseline_seconds - 1.0,
        tolerance,
        wall_tolerance: tolerance * 5.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::{FaultClass, TraceMode};

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig { accesses_per_core: 1200, ..Default::default() }
    }

    #[test]
    fn traced_cell_emits_valid_perfetto_json() {
        let out =
            run_cell(Bench::Ep, CoalescerKind::Pac, &quick_cfg(), TraceConfig::full(), None, None);
        assert!(out.converged);
        assert!(out.events > 0);
        assert!(out.json.starts_with("{\"traceEvents\":["));
        assert!(out.json.trim_end().ends_with("]}"));
        // Per-stage tracks and counter tracks are all present.
        for track in
            ["aggregator", "decoder", "assembler", "maq", "mshr", "maq_depth", "bank_conflicts"]
        {
            assert!(out.json.contains(track), "missing track {track}");
        }
        assert_eq!(out.json.matches('{').count(), out.json.matches('}').count());
        assert!(out.report.contains("oracle : clean"));
        assert!(out.report.contains("stage2_decoder"));
    }

    #[test]
    fn faulted_cell_reports_offender_history() {
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 3)
        };
        let out = run_cell(
            Bench::Stream,
            CoalescerKind::Pac,
            &quick_cfg(),
            TraceConfig::flight_recorder(),
            Some(plan),
            None,
        );
        assert!(out.dumps >= 1, "fault must dump the flight window");
        assert!(out.report.contains("fault corrupt-addr on request id"));
        assert!(out.report.contains("hmc_submit"), "offender history missing:\n{}", out.report);
    }

    #[test]
    fn ras_armed_cell_traces_the_hardware_story() {
        use pac_types::{RasClass, RasPlan};
        // Every packet takes a CRC hit so the trace is guaranteed to
        // carry the retry machinery.
        let plan = RasPlan {
            rate_per_1024: 1024,
            max_events: u64::MAX,
            ..RasPlan::new(RasClass::LinkBitError, 9)
        };
        let out = run_cell(
            Bench::Stream,
            CoalescerKind::Pac,
            &quick_cfg(),
            TraceConfig::full(),
            None,
            Some(plan),
        );
        assert!(out.converged, "retries are latency, not loss");
        assert!(out.json.contains("crc_error"), "trace missing crc_error events");
        assert!(out.json.contains("link_retry"), "trace missing link_retry events");
        assert!(out.report.contains("oracle : clean"), "{}", out.report);
        assert!(out.report.contains("ras    : crc="), "{}", out.report);
    }

    #[test]
    fn flight_recorder_mode_keeps_no_full_log() {
        let cfg = TraceConfig { mode: TraceMode::FlightRecorder, ..TraceConfig::full() };
        let out = run_cell(Bench::Gs, CoalescerKind::MshrDmc, &quick_cfg(), cfg, None, None);
        assert_eq!(out.events, 0, "ring mode must not retain the full log");
        assert_eq!(out.dumps, 0, "no trigger fired");
        // The export still carries track metadata but no event records.
        assert!(!out.json.contains("hmc_submit"));
    }

    #[test]
    fn baseline_parser_reads_committed_document() {
        let doc = crate::throughput::to_json(
            &ExperimentConfig { accesses_per_core: 777, seed: 42, ..Default::default() },
            &[
                crate::throughput::Sweep {
                    stepping: "every-cycle",
                    wall_seconds: 2.0,
                    cells: vec![],
                },
                crate::throughput::Sweep {
                    stepping: "skip-ahead",
                    wall_seconds: 1.0,
                    cells: vec![crate::throughput::Cell {
                        bench: "EP",
                        kind: "pac",
                        stepping: "skip-ahead",
                        wall_seconds: 0.5,
                        simulated_cycles: 12345,
                        retired_accesses: 100,
                    }],
                },
            ],
            None,
            None,
        );
        let (accesses, seed, cells) = parse_baseline(&doc).unwrap();
        assert_eq!(accesses, 777);
        assert_eq!(seed, 42);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].bench, "EP");
        assert_eq!(cells[0].simulated_cycles, 12345);
        assert_eq!(cells[0].wall_seconds, 0.5);
    }

    #[test]
    fn guard_detects_cycle_mismatch() {
        // A fabricated baseline with wrong cycle counts must fail.
        let cfg = ExperimentConfig { accesses_per_core: 400, ..Default::default() };
        let (m, _) = pac_sim::run_bench(Bench::Gs, CoalescerKind::Pac, &cfg);
        let doc = format!(
            "{{\n  \"accesses_per_core\": 400,\n  \"seed\": {},\n  \"sweeps\": [\n    {{\n      \
             \"stepping\": \"skip-ahead\",\n      \"cells\": [\n        {{\"bench\": \"GS\", \
             \"kind\": \"pac\", \"wall_seconds\": 0.1, \"simulated_cycles\": {}, \
             \"retired_accesses\": 1}}\n      ]\n    }}\n  ]\n}}\n",
            cfg.seed,
            m.runtime_cycles + 1,
        );
        let report = throughput_guard(&doc, 10.0, 0).unwrap();
        assert_eq!(report.cycle_mismatches.len(), 1);
        assert!(!report.passed());
        // And with the true count it passes (generous wall tolerance —
        // this is a correctness test, not a benchmark).
        let doc = doc.replace(
            &format!("\"simulated_cycles\": {}", m.runtime_cycles + 1),
            &format!("\"simulated_cycles\": {}", m.runtime_cycles),
        );
        let report = throughput_guard(&doc, 1000.0, 0).unwrap();
        assert!(report.passed(), "{}", report.render());
    }
}
