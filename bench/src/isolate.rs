//! Isolated-layer replays: the coalescer and the memory backend timed
//! one at a time, each as a whole loop.
//!
//! A per-call timer inside a replay would add a clock read to every
//! tick, about as dear as the tick itself, so layer host time is
//! measured by separation instead:
//!
//! 1. [`recorded_replay`] runs `pac_sim::replay`'s loop and records the
//!    coalescer↔backend boundary — every submit and every response,
//!    with its cycle;
//! 2. [`backend_only`] replays the recorded submits into a fresh
//!    backend, cycle for cycle;
//! 3. [`coalescer_only`] replays the trace into a fresh coalescer and
//!    feeds it the recorded responses.
//!
//! Each isolated replay must reproduce the other side of the boundary
//! exactly, and the recorded replay must reproduce `pac_sim::replay`'s
//! statistics exactly; otherwise the timings would describe some other
//! computation.

use hmc_sim::{HmcRequest, HmcResponse};
use pac_core::baseline::{MshrDmc, NoCoalescing};
use pac_core::{CoalescerStats, DispatchedRequest, MemoryCoalescer, PacCoalescer};
use pac_sim::{CoalescerKind, RunMetrics, TraceEntry};
use pac_types::{Cycle, MemRequest, RequestKind, SimConfig};
use std::time::Instant;

/// Everything that crossed the coalescer↔backend boundary in one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Boundary {
    /// Requests the coalescer dispatched, with the cycle of submission.
    pub submits: Vec<(Cycle, HmcRequest)>,
    /// Responses the backend returned, with the cycle they were popped.
    pub responses: Vec<(Cycle, HmcResponse)>,
    /// Cycles the replay ran (the loop covers `0..end`).
    pub end: Cycle,
}

/// The coalescer `kind` as the simulator builds it for `cfg`
/// (`CoalescerKind::build` is private to `pac-sim`; the exactness check
/// against `pac_sim::replay` guards this copy).
pub fn build_coalescer(kind: CoalescerKind, cfg: &SimConfig) -> Box<dyn MemoryCoalescer> {
    let c = cfg.coalescer;
    match kind {
        CoalescerKind::Raw => Box::new(NoCoalescing::new(c.mshrs)),
        CoalescerKind::MshrDmc => Box::new(MshrDmc::new(c.mshrs, c.mshr_subentries)),
        CoalescerKind::Pac => Box::new(PacCoalescer::new(c)),
    }
}

/// Trace admission as `pac_sim::replay` does it: offer every entry due
/// by `now`, stretching the schedule by one cycle on backpressure.
struct Feeder<'a> {
    trace: &'a [TraceEntry],
    i: usize,
    due_end: usize,
    skew: Cycle,
    next_id: u64,
    /// Non-fence requests accepted (each awaits exactly one completion).
    accepted: u64,
}

impl<'a> Feeder<'a> {
    fn new(trace: &'a [TraceEntry]) -> Self {
        Feeder { trace, i: 0, due_end: 0, skew: 0, next_id: 0, accepted: 0 }
    }

    fn done(&self) -> bool {
        self.i >= self.trace.len()
    }

    fn offer(&mut self, coalescer: &mut dyn MemoryCoalescer, now: Cycle) {
        let trace = self.trace;
        while self.due_end < trace.len() && trace[self.due_end].cycle + self.skew <= now + 1 {
            self.due_end += 1;
        }
        coalescer.hint_pending(self.due_end.saturating_sub(self.i + 1));
        while self.i < trace.len() && trace[self.i].cycle + self.skew <= now {
            let t = trace[self.i];
            let mut req = MemRequest::miss(self.next_id, t.addr, t.op, t.core, now);
            req.kind = t.kind;
            req.data_bytes = t.data_bytes;
            if coalescer.push_raw(req, now) {
                self.next_id += 1;
                if t.kind != RequestKind::Fence {
                    self.accepted += 1;
                }
                self.i += 1;
            } else {
                self.skew += 1;
                break;
            }
        }
    }
}

fn to_request(d: &DispatchedRequest) -> HmcRequest {
    HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op }
}

/// `pac_sim::replay`, with the coalescer↔backend boundary recorded.
pub fn recorded_replay(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
) -> (RunMetrics, Boundary) {
    let mut coalescer = build_coalescer(kind, cfg);
    let mut mem = pac_mem::build_backend(cfg);
    let mut feed = Feeder::new(trace);
    let mut b = Boundary::default();
    let mut now: Cycle = 0;
    let mut completed: u64 = 0;
    let mut dispatches = Vec::new();
    let mut responses = Vec::new();
    let mut satisfied = Vec::new();
    let limit = (trace.last().map_or(0, |t| t.cycle) + 1).saturating_mul(200).max(10_000_000);
    while !feed.done() || !coalescer.is_drained() || !mem.is_idle() || completed < feed.accepted {
        feed.offer(coalescer.as_mut(), now);
        coalescer.tick(now, &mut dispatches);
        for d in dispatches.drain(..) {
            let req = to_request(&d);
            b.submits.push((now, req));
            mem.submit(req, now);
        }
        mem.tick(now);
        mem.pop_responses(now, &mut responses);
        for rsp in responses.drain(..) {
            b.responses.push((now, rsp));
            satisfied.clear();
            coalescer.complete(rsp.id, now, &mut satisfied);
            completed += satisfied.len() as u64;
        }
        now += 1;
        if feed.done() {
            coalescer.flush(now);
        }
        assert!(now < limit, "replay failed to converge by cycle {now}");
    }
    mem.finalize_stats();
    coalescer.finalize_stats();
    b.end = now;
    let m = RunMetrics::from_parts(
        kind.label(),
        now,
        coalescer.stats(),
        mem.stats(),
        mem.energy().clone(),
        mem.bank_conflicts(),
    );
    (m, b)
}

/// What an isolated backend replay measured.
#[derive(Debug, Clone)]
pub struct BackendRun {
    pub secs: f64,
    pub responses: Vec<(Cycle, HmcResponse)>,
    pub requests: u64,
    pub bank_conflicts: u64,
    pub avg_latency_ns: f64,
    pub transaction_eff: f64,
    pub stalls: Option<pac_types::StallCycles>,
}

/// The backend alone, fed the recorded submits cycle for cycle.
pub fn backend_only(b: &Boundary, cfg: &SimConfig) -> BackendRun {
    let mut mem = pac_mem::build_backend(cfg);
    let mut out = Vec::with_capacity(b.responses.len());
    let mut buf = Vec::new();
    let mut k = 0;
    let t = Instant::now();
    for now in 0..b.end {
        while let Some(&(at, req)) = b.submits.get(k) {
            if at != now {
                break;
            }
            mem.submit(req, now);
            k += 1;
        }
        mem.tick(now);
        mem.pop_responses(now, &mut buf);
        out.extend(buf.drain(..).map(|r| (now, r)));
    }
    let secs = t.elapsed().as_secs_f64();
    mem.finalize_stats();
    let s = mem.stats();
    BackendRun {
        secs,
        responses: out,
        requests: s.requests,
        bank_conflicts: mem.bank_conflicts(),
        avg_latency_ns: s.avg_latency_ns(),
        transaction_eff: s.transaction_efficiency(),
        stalls: mem.stall_cycles(),
    }
}

/// What an isolated coalescer replay measured.
#[derive(Debug, Clone)]
pub struct CoalescerRun {
    pub secs: f64,
    pub submits: Vec<(Cycle, HmcRequest)>,
    pub stats: CoalescerStats,
}

/// The coalescer alone: the trace admitted as in a replay, the recorded
/// responses completed on their recorded cycles.
pub fn coalescer_only(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    b: &Boundary,
) -> CoalescerRun {
    let mut coalescer = build_coalescer(kind, cfg);
    let mut feed = Feeder::new(trace);
    let mut out = Vec::with_capacity(b.submits.len());
    let mut dispatches = Vec::new();
    let mut satisfied = Vec::new();
    let mut r = 0;
    let t = Instant::now();
    for now in 0..b.end {
        feed.offer(coalescer.as_mut(), now);
        coalescer.tick(now, &mut dispatches);
        out.extend(dispatches.drain(..).map(|d| (now, to_request(&d))));
        while let Some(&(at, rsp)) = b.responses.get(r) {
            if at != now {
                break;
            }
            satisfied.clear();
            coalescer.complete(rsp.id, now, &mut satisfied);
            r += 1;
        }
        if feed.done() {
            coalescer.flush(now + 1);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    coalescer.finalize_stats();
    CoalescerRun { secs, submits: out, stats: coalescer.stats().clone() }
}

/// One trace through all three steps, with the exactness checks.
#[derive(Debug, Clone)]
pub struct Isolated {
    pub metrics: RunMetrics,
    pub boundary_end: Cycle,
    pub backend: BackendRun,
    pub coalescer: CoalescerRun,
    /// Exactness failures (empty when every check held).
    pub mismatches: Vec<String>,
}

/// Record a replay, isolate both layers, and check all three against
/// each other and against `pac_sim::replay`.
pub fn isolate(trace: &[TraceEntry], kind: CoalescerKind, cfg: &SimConfig) -> Isolated {
    let (metrics, b) = recorded_replay(trace, kind, cfg);
    let mut mismatches = Vec::new();
    if metrics != pac_sim::replay(trace, kind, cfg) {
        mismatches.push("recorded replay differs from pac_sim::replay".to_string());
    }
    let backend = backend_only(&b, cfg);
    if backend.responses != b.responses {
        mismatches.push("isolated backend did not reproduce the recorded responses".to_string());
    }
    let coalescer = coalescer_only(trace, kind, cfg, &b);
    if coalescer.submits != b.submits {
        mismatches.push("isolated coalescer did not reproduce the recorded submits".to_string());
    }
    Isolated { metrics, boundary_end: b.end, backend, coalescer, mismatches }
}
