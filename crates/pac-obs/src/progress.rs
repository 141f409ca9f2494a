//! The live progress stream: a versioned JSONL event writer.
//!
//! Every harness binary takes `--progress <path|->` and threads the
//! resulting [`ProgressSink`] through its run. The sink follows the
//! `TraceHandle` zero-cost discipline: disabled is `None` behind one
//! branch, and no event payload is formatted on the disabled path. The
//! enabled sink is `Clone + Send + Sync` (an `Arc<Mutex<..>>`), so
//! worker threads in a matrix fan-out emit cell events directly —
//! lines interleave across workers but each line is written atomically
//! under the lock.
//!
//! ## Wire format
//!
//! One JSON object per line, always carrying `"v":1` (the stream
//! version, [`PROGRESS_STREAM_VERSION`]) and `"ev":"<kind>"`. Readers
//! must skip unknown `ev` kinds; the version only bumps on breaking
//! changes to existing fields. Event kinds:
//!
//! | `ev`             | payload                                              |
//! |------------------|------------------------------------------------------|
//! | `campaign_start` | `bin`, `backend`, `threads`, `total`                 |
//! | `cell_start`     | `seq`, `bench`, `kind`, `backend`, `config`          |
//! | `cell_finish`    | cell id + `status`, `wall_seconds`, `simulated_cycles`, `done`, `total`, `elapsed_seconds`, `eta_seconds` (null until computable) |
//! | `metrics`        | cell id + `hists`: name → exact histogram parts      |
//! | `worker_util`    | `wall_seconds`, `utilization`, `workers[]`           |
//! | `phase`          | `name`, `seconds`                                    |
//! | `checkpoint`     | `cycle`, `path`                                      |
//! | `resumed`        | `cycle`, `path`                                      |
//! | `cell_retry`     | `seq`, `attempt`, `delay_ms`, `reason`               |
//! | `cell_quarantined` | `seq`, `attempts`, `reason`                        |
//! | `supervisor`     | `leases`, `retries`, `quarantined`, `heartbeat_timeouts`, `workers_abandoned`, `preemptions` |
//! | `campaign_end`   | `done`, `wall_seconds`                               |
//!
//! A resumed campaign *appends* to the same file and re-emits
//! `campaign_start`; aggregators treat repeated starts as segment
//! boundaries, never as errors.

use crate::json::escape;
use pac_trace::MetricsRegistry;
use pac_types::RunnerStats;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version tag stamped on every stream line.
pub const PROGRESS_STREAM_VERSION: u32 = 1;

/// Identity of one campaign cell: the report aggregator groups on
/// exactly this tuple.
#[derive(Debug, Clone, Copy)]
pub struct CellId<'a> {
    /// Benchmark name (`EP`, `Stream`, ...).
    pub bench: &'a str,
    /// Coalescer kind label (`raw`, `mshr-dmc`, `pac`).
    pub kind: &'a str,
    /// Memory backend name (`hmc`, `hbm`).
    pub backend: &'a str,
    /// Free-form scale label (e.g. `accesses=2000 cores=8`).
    pub config: &'a str,
}

impl CellId<'_> {
    fn fields(&self) -> String {
        format!(
            "\"bench\":\"{}\",\"kind\":\"{}\",\"backend\":\"{}\",\"config\":\"{}\"",
            escape(self.bench),
            escape(self.kind),
            escape(self.backend),
            escape(self.config)
        )
    }
}

struct SinkInner {
    out: Box<dyn Write + Send>,
    start: Instant,
    done: u64,
    total: u64,
}

/// Handle to the progress stream. Cheap to clone; disabled handles do
/// no work beyond one branch per call.
#[derive(Clone, Default)]
pub struct ProgressSink(Option<Arc<Mutex<SinkInner>>>);

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProgressSink")
            .field(&if self.0.is_some() { "enabled" } else { "disabled" })
            .finish()
    }
}

/// An in-memory byte buffer usable as a sink target (tests, and the
/// report binary's self-checks).
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A fresh empty buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// The bytes written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl ProgressSink {
    /// The no-op sink: every emit is one branch.
    pub fn disabled() -> ProgressSink {
        ProgressSink(None)
    }

    /// Open `arg` for writing from scratch; `-` means stdout.
    pub fn create(arg: &str) -> std::io::Result<ProgressSink> {
        Self::open(arg, false)
    }

    /// Open `arg` for appending (resumed campaigns extend the stream
    /// they started); `-` means stdout.
    pub fn append(arg: &str) -> std::io::Result<ProgressSink> {
        Self::open(arg, true)
    }

    fn open(arg: &str, append: bool) -> std::io::Result<ProgressSink> {
        let out: Box<dyn Write + Send> = if arg == "-" {
            Box::new(std::io::stdout())
        } else {
            let mut opts = std::fs::OpenOptions::new();
            opts.create(true).write(true);
            if append {
                opts.append(true);
            } else {
                opts.truncate(true);
            }
            Box::new(opts.open(arg)?)
        };
        Ok(Self::to_writer(out))
    }

    /// Wrap an arbitrary writer (the in-memory path for tests).
    pub fn to_writer(out: Box<dyn Write + Send>) -> ProgressSink {
        ProgressSink(Some(Arc::new(Mutex::new(SinkInner {
            out,
            start: Instant::now(),
            done: 0,
            total: 0,
        }))))
    }

    /// A sink writing into a [`SharedBuf`], returned alongside it.
    pub fn to_buffer() -> (ProgressSink, SharedBuf) {
        let buf = SharedBuf::new();
        (Self::to_writer(Box::new(buf.clone())), buf)
    }

    /// Whether events will actually be written.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn emit(&self, build: impl FnOnce(&mut SinkInner) -> String) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.lock().unwrap();
            let body = build(&mut inner);
            let _ = writeln!(inner.out, "{{\"v\":{PROGRESS_STREAM_VERSION},{body}}}");
            let _ = inner.out.flush();
        }
    }

    /// Campaign header: which binary, on which backend, at what
    /// fan-out. `total` is the number of cells expected (0 = unknown);
    /// it seeds the ETA in later [`cell_finish`](Self::cell_finish)
    /// events.
    pub fn campaign_start(&self, bin: &str, backend: &str, threads: usize, total: u64) {
        self.emit(|inner| {
            inner.total = total;
            format!(
                "\"ev\":\"campaign_start\",\"bin\":\"{}\",\"backend\":\"{}\",\
                 \"threads\":{threads},\"total\":{total}",
                escape(bin),
                escape(backend)
            )
        });
    }

    /// A cell began executing. `seq` is the cell's position in the
    /// campaign's canonical job order, not its completion order.
    pub fn cell_start(&self, seq: usize, id: &CellId<'_>) {
        self.emit(|_| format!("\"ev\":\"cell_start\",\"seq\":{seq},{}", id.fields()));
    }

    /// A cell finished. Increments the campaign `done` counter and
    /// stamps elapsed wall time plus a linear ETA (null until at least
    /// one cell is done and the total is known).
    pub fn cell_finish(
        &self,
        seq: usize,
        id: &CellId<'_>,
        status: &str,
        wall_seconds: f64,
        simulated_cycles: u64,
    ) {
        self.emit(|inner| {
            inner.done += 1;
            let elapsed = inner.start.elapsed().as_secs_f64();
            let eta = if inner.total > inner.done {
                let per_cell = elapsed / inner.done as f64;
                format!("{}", num(per_cell * (inner.total - inner.done) as f64))
            } else if inner.total == 0 {
                "null".to_string()
            } else {
                "0".to_string()
            };
            format!(
                "\"ev\":\"cell_finish\",\"seq\":{seq},{},\"status\":\"{}\",\
                 \"wall_seconds\":{},\"simulated_cycles\":{simulated_cycles},\
                 \"done\":{},\"total\":{},\"elapsed_seconds\":{},\"eta_seconds\":{eta}",
                id.fields(),
                escape(status),
                num(wall_seconds),
                inner.done,
                inner.total,
                num(elapsed)
            )
        });
    }

    /// Exact histogram snapshot for one cell: every histogram in `reg`
    /// as `(bucket, count)` parts plus scalar sum/count/max, so the
    /// aggregator reconstructs it bit-identically via
    /// [`pac_trace::LatencyHistogram::from_parts`].
    pub fn metrics(&self, seq: usize, id: &CellId<'_>, reg: &MetricsRegistry) {
        self.emit(|_| {
            let mut hists = String::new();
            for (i, (name, h)) in reg.iter().enumerate() {
                if i > 0 {
                    hists.push(',');
                }
                let parts: Vec<String> =
                    h.nonzero_buckets().map(|(b, n)| format!("[{b},{n}]")).collect();
                hists.push_str(&format!(
                    "\"{}\":{{\"buckets\":[{}],\"sum\":{},\"count\":{},\"max\":{}}}",
                    escape(name),
                    parts.join(","),
                    h.sum(),
                    h.count(),
                    h.max()
                ));
            }
            format!("\"ev\":\"metrics\",\"seq\":{seq},{},\"hists\":{{{hists}}}", id.fields())
        });
    }

    /// Worker-pool utilization snapshot (end of a fan-out phase).
    pub fn worker_util(&self, stats: &RunnerStats) {
        self.emit(|_| {
            let workers: Vec<String> = stats
                .workers
                .iter()
                .map(|w| {
                    format!(
                        "{{\"cells\":{},\"busy_seconds\":{},\"idle_seconds\":{}}}",
                        w.cells_claimed,
                        num(w.busy_seconds),
                        num(w.idle_seconds)
                    )
                })
                .collect();
            format!(
                "\"ev\":\"worker_util\",\"wall_seconds\":{},\"utilization\":{},\
                 \"workers\":[{}]",
                num(stats.wall_seconds),
                num(stats.utilization()),
                workers.join(",")
            )
        });
    }

    /// A named harness phase completed in `seconds` of wall time.
    pub fn phase(&self, name: &str, seconds: f64) {
        self.emit(|_| {
            format!(
                "\"ev\":\"phase\",\"name\":\"{}\",\"seconds\":{}",
                escape(name),
                num(seconds)
            )
        });
    }

    /// A checkpoint was written at simulated cycle `cycle`.
    pub fn checkpoint(&self, cycle: u64, path: &str) {
        self.emit(|_| {
            format!(
                "\"ev\":\"checkpoint\",\"cycle\":{cycle},\"path\":\"{}\"",
                escape(path)
            )
        });
    }

    /// The campaign resumed from a checkpoint written at `cycle`.
    pub fn resumed(&self, cycle: u64, path: &str) {
        self.emit(|_| {
            format!("\"ev\":\"resumed\",\"cycle\":{cycle},\"path\":\"{}\"", escape(path))
        });
    }

    /// A cell's attempt failed and the scheduler requeued it with
    /// backoff: the next attempt becomes eligible after `delay_ms`.
    pub fn cell_retry(&self, seq: usize, attempt: u32, delay_ms: u64, reason: &str) {
        self.emit(|_| {
            format!(
                "\"ev\":\"cell_retry\",\"seq\":{seq},\"attempt\":{attempt},\
                 \"delay_ms\":{delay_ms},\"reason\":\"{}\"",
                escape(reason)
            )
        });
    }

    /// A cell exhausted its attempt budget and was quarantined; the
    /// campaign continues without it.
    pub fn cell_quarantined(&self, seq: usize, attempts: u32, reason: &str) {
        self.emit(|_| {
            format!(
                "\"ev\":\"cell_quarantined\",\"seq\":{seq},\"attempts\":{attempts},\
                 \"reason\":\"{}\"",
                escape(reason)
            )
        });
    }

    /// Scheduler supervision counters for the campaign (or one resumed
    /// segment of it).
    pub fn supervisor(&self, stats: &pac_types::SupervisorStats) {
        self.emit(|_| {
            format!(
                "\"ev\":\"supervisor\",\"leases\":{},\"retries\":{},\"quarantined\":{},\
                 \"heartbeat_timeouts\":{},\"workers_abandoned\":{},\"preemptions\":{}",
                stats.leases,
                stats.retries,
                stats.quarantined,
                stats.heartbeat_timeouts,
                stats.workers_abandoned,
                stats.preemptions
            )
        });
    }

    /// Campaign footer: cells completed and total wall time.
    pub fn campaign_end(&self) {
        self.emit(|inner| {
            format!(
                "\"ev\":\"campaign_end\",\"done\":{},\"wall_seconds\":{}",
                inner.done,
                num(inner.start.elapsed().as_secs_f64())
            )
        });
    }
}

/// Clamp non-finite floats (never expected, but NaN is not JSON).
fn num(f: f64) -> f64 {
    if f.is_finite() {
        f
    } else {
        0.0
    }
}

/// Wall-clock timer for one named harness phase; emits a `phase` event
/// when finished.
#[derive(Debug)]
pub struct PhaseTimer {
    name: String,
    start: Instant,
}

impl PhaseTimer {
    /// Start timing `name`.
    pub fn start(name: &str) -> PhaseTimer {
        PhaseTimer { name: name.to_string(), start: Instant::now() }
    }

    /// Stop, emit the `phase` event, and return the elapsed seconds.
    pub fn finish(self, sink: &ProgressSink) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        sink.phase(&self.name, secs);
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use pac_trace::LatencyHistogram;

    fn lines(buf: &SharedBuf) -> Vec<Json> {
        buf.contents()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).expect("every line is valid JSON"))
            .collect()
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = ProgressSink::disabled();
        assert!(!sink.is_enabled());
        sink.campaign_start("t", "hmc", 1, 5);
        sink.cell_finish(
            0,
            &CellId { bench: "EP", kind: "pac", backend: "hmc", config: "" },
            "pass",
            0.1,
            100,
        );
        sink.campaign_end();
        // Nothing to assert beyond "did not panic": there is no buffer.
    }

    #[test]
    fn every_event_is_versioned_json() {
        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "EP", kind: "pac", backend: "hbm", config: "accesses=400" };
        sink.campaign_start("conformance", "hbm", 4, 2);
        sink.cell_start(0, &id);
        let mut reg = MetricsRegistry::new();
        let mut h = LatencyHistogram::new();
        h.record(12);
        h.record(900);
        reg.insert("stage2_decoder", h);
        sink.metrics(0, &id, &reg);
        sink.cell_finish(0, &id, "pass", 0.25, 123_456, );
        sink.worker_util(&pac_types::RunnerStats {
            wall_seconds: 1.0,
            workers: vec![pac_types::WorkerStats {
                cells_claimed: 2,
                busy_seconds: 0.9,
                idle_seconds: 0.1,
            }],
        });
        sink.phase("sweep", 0.5);
        sink.checkpoint(1000, "ck.pacsnap");
        sink.resumed(1000, "ck.pacsnap");
        sink.campaign_end();

        let events = lines(&buf);
        assert_eq!(events.len(), 9);
        for ev in &events {
            assert_eq!(ev.get("v").and_then(Json::as_u64), Some(1), "{ev:?}");
            assert!(ev.get("ev").and_then(Json::as_str).is_some(), "{ev:?}");
        }
        let finish = &events[3];
        assert_eq!(finish.get("ev").and_then(Json::as_str), Some("cell_finish"));
        assert_eq!(finish.get("done").and_then(Json::as_u64), Some(1));
        assert_eq!(finish.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(finish.get("simulated_cycles").and_then(Json::as_u64), Some(123_456));
        // One of two cells done: the ETA is a number.
        assert!(finish.get("eta_seconds").and_then(Json::as_f64).is_some());
        let wu = &events[4];
        assert_eq!(wu.get("ev").and_then(Json::as_str), Some("worker_util"));
        assert_eq!(wu.get("workers").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn supervision_events_are_versioned_json() {
        let (sink, buf) = ProgressSink::to_buffer();
        sink.campaign_start("pac-serve", "hmc", 2, 3);
        sink.cell_retry(1, 2, 250, "oracle violation(s)");
        sink.cell_quarantined(1, 3, "oracle violation(s)");
        sink.supervisor(&pac_types::SupervisorStats {
            leases: 5,
            retries: 2,
            quarantined: 1,
            heartbeat_timeouts: 0,
            workers_abandoned: 0,
            preemptions: 4,
        });
        let events = lines(&buf);
        assert_eq!(events.len(), 4);
        for ev in &events {
            assert_eq!(ev.get("v").and_then(Json::as_u64), Some(1), "{ev:?}");
        }
        assert_eq!(events[1].get("ev").and_then(Json::as_str), Some("cell_retry"));
        assert_eq!(events[1].get("delay_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(events[2].get("ev").and_then(Json::as_str), Some("cell_quarantined"));
        assert_eq!(events[2].get("attempts").and_then(Json::as_u64), Some(3));
        assert_eq!(events[3].get("ev").and_then(Json::as_str), Some("supervisor"));
        assert_eq!(events[3].get("leases").and_then(Json::as_u64), Some(5));
        assert_eq!(events[3].get("preemptions").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn eta_is_null_when_total_unknown() {
        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "EP", kind: "raw", backend: "hmc", config: "" };
        sink.campaign_start("soak", "hmc", 1, 0);
        sink.cell_finish(0, &id, "pass", 0.1, 10);
        let events = lines(&buf);
        assert_eq!(events[1].get("eta_seconds"), Some(&Json::Null));
    }

    #[test]
    fn phase_timer_emits_named_phase() {
        let (sink, buf) = ProgressSink::to_buffer();
        let t = PhaseTimer::start("scaling");
        let secs = t.finish(&sink);
        assert!(secs >= 0.0);
        let events = lines(&buf);
        assert_eq!(events[0].get("ev").and_then(Json::as_str), Some("phase"));
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("scaling"));
    }

    #[test]
    fn clone_shares_the_done_counter() {
        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "EP", kind: "pac", backend: "hmc", config: "" };
        sink.campaign_start("t", "hmc", 2, 2);
        let c = sink.clone();
        c.cell_finish(0, &id, "pass", 0.1, 1);
        sink.cell_finish(1, &id, "pass", 0.1, 1);
        let events = lines(&buf);
        assert_eq!(events[2].get("done").and_then(Json::as_u64), Some(2));
        assert_eq!(events[2].get("eta_seconds").and_then(Json::as_f64), Some(0.0));
    }
}
