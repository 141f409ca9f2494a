//! The assembled system and its one run loop. A [`System`] pairs a
//! [`FrontEnd`] that issues raw requests with the [`MemorySide`] they
//! enter: coalescer → memory backend (HMC vaults or HBM
//! pseudo-channels, selected by `SimConfig.backend`). The memory side
//! is written once for both front ends: [`Cores`], the execution-driven
//! cores behind [`SimSystem`] (Fig 15), and the trace feed behind
//! [`crate::replay()`] (the trace-driven figures and `conformance
//! --diff`).

use crate::core::{CoreState, PendingPush};
use crate::metrics::RunMetrics;
use crate::recovery::{RecoveryLayer, RecoveryReport, ResponseVerdict, WatchdogAction};
use cache_sim::{CacheHierarchy, HierarchyOutcome};
use hmc_sim::{HmcRequest, HmcResponse};
use pac_mem::MemoryBackend;
use pac_core::baseline::{MshrDmc, NoCoalescing};
use pac_core::{DispatchedRequest, MemoryCoalescer, PacCoalescer};
use pac_oracle::{LockstepChecker, OracleConfig, OracleReport};
use pac_trace::{CounterKind, DumpTrigger, EventKind, TraceHandle};
use pac_types::addr::{line_base, CACHE_LINE_BYTES, PAGE_BYTES};
use pac_types::{
    Cycle, EventClass, FaultPlan, FaultPlanError, MemRequest, Op, RecoveryConfig, RequestKind,
    SimConfig, TraceConfig,
};
use pac_workloads::multiproc::CoreSpec;
use std::collections::{HashMap, VecDeque};

pub use pac_types::{IdHash, IdHasher};

/// Clock-advance policy of the run loop ([`System::advance`]), for the
/// execution-driven [`SimSystem`] and trace replay
/// ([`crate::replay_with`]) alike.
///
/// Skip-ahead is the production mode: after each tick the loop jumps
/// the clock to the first cycle something outside the memory device can
/// see (DESIGN.md "Simulation core performance"). Component events are
/// conservative lower bounds — an early tick is a harmless no-op, while
/// a missed cycle would lose a per-cycle side effect — so skip-ahead
/// produces metrics bit-identical to the cycle-by-cycle reference
/// (regression-tested in `tests/skip_ahead_equivalence.rs` and
/// `tests/proptests.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stepping {
    /// Tick every cycle: the reference mode skip-ahead is tested against.
    EveryCycle,
    /// Jump the clock to the earliest next component event.
    #[default]
    SkipAhead,
}

impl Stepping {
    /// The default policy, overridable via `PAC_STEPPING=every` (or
    /// `cycle`) for A/B wall-clock comparisons without recompiling.
    /// [`SimSystem::new`], [`crate::replay()`] and [`crate::replay_served`]
    /// all read it, so the one variable switches the one run loop to the
    /// every-cycle reference under either front end.
    pub fn from_env() -> Self {
        match std::env::var("PAC_STEPPING").as_deref() {
            Ok("every") | Ok("cycle") | Ok("every-cycle") => Stepping::EveryCycle,
            _ => Stepping::SkipAhead,
        }
    }
}

/// Which coalescer sits between the LLC and the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoalescerKind {
    /// Stock HMC controller, no aggregation (the Fig 15 baseline).
    Raw,
    /// Conventional MSHR-based dynamic memory coalescing.
    MshrDmc,
    /// The paged adaptive coalescer.
    Pac,
}

impl CoalescerKind {
    pub const ALL: [CoalescerKind; 3] =
        [CoalescerKind::Raw, CoalescerKind::MshrDmc, CoalescerKind::Pac];

    pub fn label(self) -> &'static str {
        match self {
            CoalescerKind::Raw => "raw",
            CoalescerKind::MshrDmc => "mshr-dmc",
            CoalescerKind::Pac => "pac",
        }
    }

    pub(crate) fn build(self, cfg: &SimConfig, trace_occupancy: bool) -> Box<dyn MemoryCoalescer> {
        let c = cfg.coalescer;
        match self {
            CoalescerKind::Raw => Box::new(NoCoalescing::new(c.mshrs)),
            CoalescerKind::MshrDmc => Box::new(MshrDmc::new(c.mshrs, c.mshr_subentries)),
            CoalescerKind::Pac => {
                let mut pac = PacCoalescer::new(c);
                pac.trace_occupancy(trace_occupancy);
                Box::new(pac)
            }
        }
    }
}

/// How one [`System::advance`] leg of the run loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunProgress {
    /// The front end finished and the system drained.
    Done,
    /// The recovery layer's quiesce/drain abort terminated the run.
    Aborted,
    /// The clock reached the caller's `cycle_limit` without draining.
    CycleLimit,
    /// The clock reached `stop_at`: the system sits at a
    /// checkpoint-safe boundary between ticks and can be snapshotted
    /// and/or advanced further.
    Paused,
}

/// One raw request as recorded in a captured trace: everything a
/// coalescer model needs to replay the stream (Figs 1, 2, 6–14 are
/// evaluated on such traces, mirroring the paper's Spike-trace-driven
/// methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    pub cycle: Cycle,
    pub addr: u64,
    pub op: Op,
    pub kind: RequestKind,
    pub data_bytes: u32,
    /// Issuing core (`u8::MAX` for write-backs).
    pub core: u8,
}

/// Who is waiting on a raw request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// A core's demand access (occupies its outstanding window).
    Core(u8),
    /// A dirty-line write-back.
    WriteBack,
    /// An LLC stride-prefetch fill.
    Prefetch,
}

/// Bookkeeping for one in-flight raw request.
struct RawMeta {
    owner: Owner,
    /// Line address, for LLC fill completion.
    line: u64,
    /// Whether the response validates the LLC line.
    is_fill: bool,
}

/// An entry of the side queue (write-backs + prefetches).
#[derive(Debug, Clone, Copy)]
enum SideEntry {
    /// A prepared request awaiting coalescer admission.
    Ready(MemRequest, Owner, bool),
    /// A prefetch candidate that has NOT yet touched the cache: the LLC
    /// is only probed (and the line reserved) at admission time, so a
    /// demand miss racing ahead of a queued prefetch starts its own
    /// fill and the stale candidate is dropped.
    PfCandidate { addr: u64, core: u8 },
}

/// One tracked sequential stream in a core's prefetcher.
#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    /// The line that would continue this stream.
    next_line: u64,
    /// Consecutive continuations observed.
    streak: u32,
    /// Highest line already prefetched for this stream.
    prefetched_upto: u64,
    /// LRU stamp.
    lru: u64,
}

/// Per-core stream table for the LLC prefetcher: tracks several
/// interleaved sequential streams (a stencil sweep alone has five).
#[derive(Debug, Clone, Copy, Default)]
struct StrideState {
    entries: [StreamEntry; 8],
}

impl pac_types::Snapshot for Stepping {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        w.u8(match self {
            Stepping::EveryCycle => 0,
            Stepping::SkipAhead => 1,
        });
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        match r.u8()? {
            0 => Ok(Stepping::EveryCycle),
            1 => Ok(Stepping::SkipAhead),
            v => Err(pac_types::SnapError::Corrupt(format!("Stepping tag {v}"))),
        }
    }
}

// Serialized as the dense `ALL` index.
impl pac_types::Snapshot for CoalescerKind {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        let idx = CoalescerKind::ALL.iter().position(|k| k == self).expect("listed") as u8;
        w.u8(idx);
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        let idx = r.u8()? as usize;
        CoalescerKind::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| pac_types::SnapError::Corrupt(format!("CoalescerKind tag {idx}")))
    }
}

impl pac_types::Snapshot for Owner {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        match self {
            Owner::Core(c) => {
                w.u8(0);
                w.u8(*c);
            }
            Owner::WriteBack => w.u8(1),
            Owner::Prefetch => w.u8(2),
        }
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        match r.u8()? {
            0 => Ok(Owner::Core(r.u8()?)),
            1 => Ok(Owner::WriteBack),
            2 => Ok(Owner::Prefetch),
            v => Err(pac_types::SnapError::Corrupt(format!("Owner tag {v}"))),
        }
    }
}

impl pac_types::Snapshot for SideEntry {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        match self {
            SideEntry::Ready(req, owner, is_fill) => {
                w.u8(0);
                req.save(w);
                owner.save(w);
                is_fill.save(w);
            }
            SideEntry::PfCandidate { addr, core } => {
                w.u8(1);
                addr.save(w);
                core.save(w);
            }
        }
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        match r.u8()? {
            0 => Ok(SideEntry::Ready(MemRequest::load(r)?, Owner::load(r)?, bool::load(r)?)),
            1 => Ok(SideEntry::PfCandidate { addr: u64::load(r)?, core: u8::load(r)? }),
            v => Err(pac_types::SnapError::Corrupt(format!("SideEntry tag {v}"))),
        }
    }
}

pac_types::snapshot_fields!(TraceEntry { cycle, addr, op, kind, data_bytes, core });
pac_types::snapshot_fields!(RawMeta { owner, line, is_fill });
pac_types::snapshot_fields!(StreamEntry { next_line, streak, prefetched_upto, lru });
pac_types::snapshot_fields!(StrideState { entries });

/// A refusal memo: the raw id of a request the coalescer refused and
/// the admission epoch it was refused at. While the epoch stands,
/// nothing `would_accept` reads has moved, so the request stays
/// refused: it is charged instead of offered again. A cache, left out
/// of checkpoints: it starts empty after a restore, so the first retry
/// is a real offer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefusalMemo(Option<(u64, u64)>);

impl RefusalMemo {
    /// Whether raw id `id` stands refused at admission epoch `epoch`.
    fn holds(&self, id: u64, epoch: u64) -> bool {
        self.0 == Some((id, epoch))
    }
}

/// The half of a [`System`] that issues raw requests: the
/// execution-driven [`Cores`], or the trace feed behind
/// [`crate::replay()`]. Each keeps its own admission — what it offers,
/// in which order, and how it hints the coalescer — and hands every
/// offer to `MemorySide::offer`. The run loop is generic over the
/// front end, so no call through it is indirect.
pub trait FrontEnd {
    /// Offer this cycle's raw requests through `MemorySide::offer`,
    /// after hinting the coalescer how many wait behind them.
    fn issue(&mut self, mem: &mut MemorySide);

    /// Raw request `raw` completed at `now` (or was force-completed by
    /// the recovery layer's quiesce abort).
    fn complete(&mut self, raw: u64, now: Cycle);

    /// The front end's half of the skip rule, asked between ticks: the
    /// earliest cycle at which it could act, where a cycle no later
    /// than now means it has work now and pins the clock, and `None`
    /// means only a completion can wake it. Every request it would
    /// offer, refused, at each cycle of a jump goes to `blocked`
    /// (`MemorySide::stays_refused` decides).
    fn next_wake(&mut self, mem: &MemorySide, blocked: &mut Vec<MemRequest>) -> Option<Cycle>;

    /// The clock jumped from `from` to `to` over cycles on which every
    /// request put in `blocked` was refused once.
    fn jumped(&mut self, from: Cycle, to: Cycle);

    /// Every request of the stream has been admitted, so the end-of-run
    /// stage-1 flush may go.
    fn exhausted(&self) -> bool;

    /// Nothing of the front end waits on the memory side any more.
    fn done(&self) -> bool;
}

/// The memory side of a [`System`]: everything below the front end,
/// written once for every front end.
pub struct MemorySide {
    cfg: SimConfig,
    kind: CoalescerKind,
    coalescer: Box<dyn MemoryCoalescer>,
    /// The cycle-level memory device, selected by `cfg.backend` (HMC
    /// vaults or HBM pseudo-channels); everything above it is
    /// backend-agnostic.
    backend: Box<dyn MemoryBackend>,
    now: Cycle,
    /// Lockstep golden-model checker, when attached: observes every
    /// admission, dispatch, response, and completion and accumulates
    /// divergences from the functional model instead of panicking.
    oracle: Option<LockstepChecker>,
    /// Transaction-recovery layer at the DMC boundary, when enabled:
    /// sequence-tags every dispatch, deduplicates and echo-checks every
    /// response, and reissues dropped or late transactions under a
    /// bounded-retry watchdog. `None` (the default) costs one branch on
    /// the dispatch and response paths — clean-run cycle counts are
    /// bit-identical with the layer absent.
    recovery: Option<RecoveryLayer>,
    /// Every admitted raw request, when capture is on.
    capture: Option<Vec<TraceEntry>>,
    capture_cap: usize,
    /// Structured-event tracer shared with the coalescer and the HMC
    /// (disabled by default; the disabled handle is a single branch).
    tracer: TraceHandle,
    /// Cycle the counter tracks were last sampled.
    last_counter_sample: Cycle,
    /// Oracle violation total at the last tracer check, for detecting
    /// new violations and dumping the flight-recorder window.
    seen_violations: u64,
    stepping: Stepping,
    // Scratch buffers reused across ticks.
    dispatches: Vec<DispatchedRequest>,
    responses: Vec<HmcResponse>,
    satisfied: Vec<u64>,
    recovery_actions: Vec<WatchdogAction>,
    /// Whether the end-of-stream stage-1 flush has been issued. Lives
    /// here (not in the run loop) so a checkpoint taken mid-run carries
    /// it.
    flushed: bool,
    /// Convergence bound of the run.
    run_limit: Cycle,
}

impl MemorySide {
    pub(crate) fn new(
        cfg: SimConfig,
        kind: CoalescerKind,
        trace_occupancy: bool,
        stepping: Stepping,
        run_limit: Cycle,
    ) -> Self {
        assert!(
            cfg.coalescer.protocol.max_request_bytes() <= cfg.active_row_bytes(),
            "coalescer protocol allows {}B requests but the active device rows are {}B; \
             match the device row size to the protocol (e.g. \
             SimConfig::for_backend, or hmc.row_bytes = 1024 for the HBM protocol)",
            cfg.coalescer.protocol.max_request_bytes(),
            cfg.active_row_bytes()
        );
        MemorySide {
            coalescer: kind.build(&cfg, trace_occupancy),
            backend: pac_mem::build_backend(&cfg),
            kind,
            now: 0,
            oracle: None,
            recovery: None,
            capture: None,
            capture_cap: 1 << 20,
            tracer: TraceHandle::disabled(),
            last_counter_sample: 0,
            seen_violations: 0,
            stepping,
            dispatches: Vec::new(),
            responses: Vec::new(),
            satisfied: Vec::new(),
            recovery_actions: Vec::new(),
            flushed: false,
            run_limit,
            cfg,
        }
    }

    pub(crate) fn now(&self) -> Cycle {
        self.now
    }

    /// Tell the controller how many further raw requests wait behind
    /// this cycle's offers (Fig 3 gives it that visibility).
    pub(crate) fn hint_pending(&mut self, waiting: usize) {
        self.coalescer.hint_pending(waiting);
    }

    /// Offer `req` to the coalescer at the current cycle, fences
    /// included; returns whether it was admitted. `memo` is the
    /// offering source's refusal memo: a refusal is recorded there, and
    /// a memo hit — the request was refused at the current admission
    /// epoch already — is not offered again but charged as one refused
    /// retry, which leaves the coalescer exactly as the literal refused
    /// offer would have. The every-cycle reference never trusts the
    /// memo and keeps offering literally.
    pub(crate) fn offer(&mut self, req: MemRequest, memo: &mut RefusalMemo) -> bool {
        if self.stepping == Stepping::SkipAhead
            && memo.holds(req.id, self.coalescer.admission_epoch())
        {
            debug_assert!(
                !self.coalescer.would_accept(&req),
                "refusal memo hit on an acceptable request"
            );
            self.coalescer.note_refused_retries(&req, self.now, 1);
            return false;
        }
        // The oracle sees every admission attempt: the prediction is
        // sampled before the push so `would_accept`/`push_raw`
        // disagreement is caught at its source.
        let predicted = self.oracle.is_some() && self.coalescer.would_accept(&req);
        let accepted = self.coalescer.push_raw(req, self.now);
        if let Some(o) = &mut self.oracle {
            o.note_push(&req, predicted, accepted, self.now);
            if req.kind == RequestKind::Fence {
                // A fence must leave stage 1 empty behind it.
                if let Some(streams) = self.coalescer.stage1_occupancy() {
                    o.note_fence(streams, self.now);
                }
            }
        }
        if !accepted {
            *memo = RefusalMemo(Some((req.id, self.coalescer.admission_epoch())));
            return false;
        }
        if let Some(t) = &mut self.capture {
            if t.len() == self.capture_cap {
                eprintln!(
                    "warning: trace capture truncated at {} entries; replay sees a clipped stream",
                    self.capture_cap
                );
            }
            if t.len() < self.capture_cap {
                t.push(TraceEntry {
                    cycle: self.now,
                    addr: req.addr,
                    op: req.op,
                    kind: req.kind,
                    data_bytes: req.data_bytes,
                    core: req.core,
                });
            }
        }
        true
    }

    /// The memo check of the skip rule: whether `req`, offered now,
    /// would be refused. A request already refused at the current
    /// admission epoch counts as refused without asking again; a fresh
    /// refusal is recorded in `memo`. Called between ticks, against the
    /// settled state of the tick just executed.
    pub(crate) fn stays_refused(&self, req: &MemRequest, memo: &mut RefusalMemo) -> bool {
        let epoch = self.coalescer.admission_epoch();
        if memo.holds(req.id, epoch) {
            return true;
        }
        if self.coalescer.would_accept(req) {
            return false;
        }
        *memo = RefusalMemo(Some((req.id, epoch)));
        true
    }

    /// Whether everything below the front end has drained.
    fn drained(&self) -> bool {
        self.coalescer.is_drained()
            && self.backend.is_idle()
            && self.recovery.as_ref().is_none_or(|r| r.outstanding() == 0)
    }

    /// The memory half of one cycle, after the front end has issued:
    /// dispatch → device → response screening → completion, then the
    /// watchdog and the per-tick checks. Every raw request a response
    /// satisfies goes back to `front`.
    fn tick<F: FrontEnd>(&mut self, front: &mut F) {
        let now = self.now;

        // Coalescer pipeline advances; dispatches go to the device.
        self.coalescer.tick(now, &mut self.dispatches);
        for d in self.dispatches.drain(..) {
            if let Some(o) = &mut self.oracle {
                o.note_dispatch(&d, now);
            }
            if let Some(rec) = &mut self.recovery {
                // Sequence-tag the transaction; the watchdog now owns it
                // until exactly one clean response is delivered.
                rec.note_dispatch(d.dispatch_id, d.addr, d.bytes, d.op, now);
            }
            self.backend.submit(
                HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op },
                now,
            );
        }

        // Memory advances; responses release MSHRs and return to the
        // front end.
        self.backend.tick(now);
        self.backend.pop_responses(now, &mut self.responses);
        for rsp in self.responses.drain(..) {
            // The recovery layer screens every response before the
            // oracle or the coalescer can see it: duplicates and
            // poisoned echoes must vanish here for the oracle to stay
            // silent on repaired runs.
            if let Some(rec) = &mut self.recovery {
                match rec.filter_response(&rsp, now) {
                    ResponseVerdict::Deliver => {}
                    ResponseVerdict::Duplicate { seq } => {
                        self.tracer.emit(now, EventClass::Diagnostic, || {
                            EventKind::DuplicateDropped { seq, id: rsp.id }
                        });
                        continue;
                    }
                    ResponseVerdict::Poison { seq, expected_addr, bytes, op, attempt, reissue } => {
                        self.tracer.emit(now, EventClass::Diagnostic, || {
                            EventKind::PoisonDetected {
                                seq,
                                id: rsp.id,
                                echoed_addr: rsp.addr,
                                expected_addr,
                            }
                        });
                        if reissue {
                            self.tracer.emit(now, EventClass::Diagnostic, || {
                                EventKind::RetryIssued { seq, id: rsp.id, attempt }
                            });
                            // Same dispatch id: the clean response must
                            // still release the original MSHR. The
                            // oracle already saw this dispatch once, so
                            // it is not re-noted.
                            self.backend.submit(
                                HmcRequest { id: rsp.id, addr: expected_addr, bytes, op },
                                now,
                            );
                        }
                        continue;
                    }
                }
            }
            self.satisfied.clear();
            if let Some(o) = &mut self.oracle {
                o.note_response(rsp.id, rsp.addr, rsp.bytes, rsp.op, now);
            }
            self.coalescer.complete(rsp.id, now, &mut self.satisfied);
            if let Some(o) = &mut self.oracle {
                o.note_completion(rsp.id, &self.satisfied, now);
            }
            for raw in self.satisfied.drain(..) {
                front.complete(raw, now);
            }
        }

        // Watchdog pass: responses that arrived this cycle are already
        // processed above, so only genuinely unanswered transactions
        // can expire here. Retries resubmit under the original dispatch
        // id (the oracle saw that dispatch once; it is not re-noted).
        if let Some(rec) = &mut self.recovery {
            self.recovery_actions.clear();
            rec.collect_expired(now, &mut self.recovery_actions);
            for act in self.recovery_actions.drain(..) {
                match act {
                    WatchdogAction::Retry { seq, id, addr, bytes, op, attempt } => {
                        self.tracer.emit(now, EventClass::Diagnostic, || {
                            EventKind::WatchdogFired { seq, id, attempt: attempt - 1 }
                        });
                        self.tracer
                            .trigger_dump(now, DumpTrigger::Watchdog { seq, id, attempt: attempt - 1 });
                        self.tracer.emit(now, EventClass::Diagnostic, || {
                            EventKind::RetryIssued { seq, id, attempt }
                        });
                        self.backend.submit(HmcRequest { id, addr, bytes, op }, now);
                    }
                    WatchdogAction::Exhausted { seq, id, attempt } => {
                        self.tracer.emit(now, EventClass::Diagnostic, || {
                            EventKind::WatchdogFired { seq, id, attempt }
                        });
                        self.tracer.trigger_dump(now, DumpTrigger::Watchdog { seq, id, attempt });
                    }
                }
            }
        }
        if self.recovery.as_ref().is_some_and(|r| r.has_stuck() && !r.aborted()) {
            self.quiesce_abort(now, front);
        }

        // Structural invariants are polled continuously, not just at the
        // run boundary — a transient overflow inside a burst must not
        // escape because the structures drained before the end.
        if let Some(o) = &mut self.oracle {
            o.note_integrity(self.coalescer.integrity(), now);
        }

        if self.tracer.is_enabled() {
            self.observe(now);
        }

        self.now = now + 1;
    }

    /// Tracer-only side channel, run once per tick when tracing is on:
    /// samples the counter tracks on a fixed cadence and dumps the
    /// flight-recorder window whenever the oracle records a violation
    /// it has not seen before. Reads simulation state, never writes it.
    fn observe(&mut self, now: Cycle) {
        const COUNTER_SAMPLE_CYCLES: Cycle = 16;
        if now == 0 || now >= self.last_counter_sample + COUNTER_SAMPLE_CYCLES {
            self.last_counter_sample = now;
            if let Some(g) = self.coalescer.gauges() {
                self.tracer.counter(now, CounterKind::MaqDepth, g.maq_depth as u64);
                self.tracer.counter(now, CounterKind::ActiveStreams, g.active_streams as u64);
                self.tracer.counter(now, CounterKind::InflightMshrs, g.inflight_mshrs as u64);
            }
            self.tracer.counter(now, CounterKind::BankConflicts, self.backend.bank_conflicts());
            // Per-cause issue-stall accounting, on backends that model
            // named timing rules (HBM); the channel counters are
            // always current mid-run.
            if let Some(stalls) = self.backend.stall_cycles() {
                self.tracer.counter(now, CounterKind::TccdLStallCycles, stalls.tccd_l);
                self.tracer.counter(now, CounterKind::TfawStallCycles, stalls.tfaw);
                self.tracer.counter(now, CounterKind::RefreshStallCycles, stalls.refresh);
                self.tracer.counter(
                    now,
                    CounterKind::BankConflictStallCycles,
                    stalls.bank_conflict,
                );
            }
        }
        if let Some(o) = &self.oracle {
            let total = o.total_violations();
            if total > self.seen_violations {
                self.seen_violations = total;
                let detail = o
                    .latest_violation()
                    .map(|v| format!("{}: {}", v.invariant.label(), v.detail))
                    .unwrap_or_else(|| "violation past the recording cap".to_string());
                self.tracer.emit(now, EventClass::Diagnostic, || EventKind::OracleViolation {
                    detail: detail.clone(),
                });
                self.tracer.trigger_dump(now, DumpTrigger::OracleViolation { detail });
            }
        }
    }

    /// Quiesce/drain abort: retries are exhausted, so the run cannot
    /// complete correctly — but it must not wedge either. Every
    /// still-tracked transaction (live and stuck) is force-completed
    /// through the coalescer, reclaiming its MSHR/stream, and each raw
    /// request it covered goes back to the front end, which releases
    /// its owner. The oracle is deliberately *not* fed these forced
    /// completions: the data loss is real and its conservation
    /// invariants should say so. The run loop then terminates with
    /// `converged == false` and a [`RecoveryReport`] naming the stuck
    /// sequence tags.
    fn quiesce_abort<F: FrontEnd>(&mut self, now: Cycle, front: &mut F) {
        let ids = self.recovery.as_mut().expect("quiesce without recovery layer").drain_for_abort();
        for id in ids {
            self.satisfied.clear();
            self.coalescer.complete(id, now, &mut self.satisfied);
            for raw in self.satisfied.drain(..) {
                front.complete(raw, now);
            }
        }
    }

    /// Whether the recovery layer ran its quiesce/drain abort.
    fn recovery_aborted(&self) -> bool {
        self.recovery.as_ref().is_some_and(|r| r.aborted())
    }

    /// The memory side's half of the skip rule: lower `best`, the front
    /// end's wake, to the first coalescer event, watchdog deadline, or
    /// device event visible outside the device, ticking the device
    /// alone up to it. `None` when the clock must not move: something
    /// has work now, or nothing has any event at all.
    fn next_event(&mut self, best: Cycle, clamp: Cycle) -> Option<Cycle> {
        let now = self.now;
        let mut best = best;
        if let Some(c) = self.coalescer.next_event(now) {
            if c <= now {
                return None;
            }
            best = best.min(c);
        }
        // Watchdog deadlines are real events: a jump past one would
        // fire the retry late and (on delay-class runs) let the oracle's
        // latency bound trip before the repair lands.
        if let Some(c) = self.recovery.as_mut().and_then(|r| r.next_deadline()) {
            if c <= now {
                return None;
            }
            best = best.min(c);
        }
        // Everything but the device is settled until `best`: tick the
        // device alone up to its first event visible outside it (a
        // response to pop), never at or past `best` or `clamp`.
        if let Some(c) = self.backend.fast_forward(now, best.min(clamp)) {
            if c <= now {
                return None;
            }
            best = best.min(c);
        }
        // Nothing has an event: the clock stays pinned, so a wedged run
        // ticks on to its cycle limit instead of jumping past it.
        (best != Cycle::MAX).then(|| best.min(clamp))
    }

    /// End-of-run bookkeeping: settle component statistics, fold the
    /// recovery counters into the coalescer's record, finalize the
    /// oracle's conservation invariants.
    fn finalize(&mut self) {
        self.backend.finalize_stats();
        self.coalescer.finalize_stats();
        if let Some(rec) = &self.recovery {
            rec.fold_into(self.coalescer.stats_mut());
        }
        if let Some(o) = &mut self.oracle {
            o.finalize(self.now);
        }
    }
}

/// A simulated system: a front end over the shared memory side, driven
/// by the one run loop ([`Self::advance`]).
pub struct System<F> {
    front: F,
    mem: MemorySide,
    /// Skip-rule scratch: the requests the front end would re-offer,
    /// refused, at every jumped cycle.
    blocked: Vec<MemRequest>,
}

/// The execution-driven system: cores → caches → coalescer → memory.
pub type SimSystem = System<Cores>;

impl<F: FrontEnd> System<F> {
    pub(crate) fn assemble(front: F, mem: MemorySide) -> Self {
        System { front, mem, blocked: Vec::new() }
    }

    pub(crate) fn front_mut(&mut self) -> &mut F {
        &mut self.front
    }

    /// Attach the lockstep golden-model checker with geometry bounds
    /// derived from this system's configuration.
    pub fn attach_oracle(&mut self) {
        self.attach_oracle_with(OracleConfig::for_sim(&self.mem.cfg));
    }

    /// Attach the lockstep checker with explicit parameters (e.g. a
    /// finite latency bound for delay-fault conformance runs).
    pub fn attach_oracle_with(&mut self, cfg: OracleConfig) {
        self.mem.oracle = Some(LockstepChecker::new(cfg));
    }

    /// The checker's verdict so far. Conservation invariants only settle
    /// after a finished run (which finalizes the checker).
    pub fn oracle_report(&self) -> Option<OracleReport> {
        self.mem.oracle.as_ref().map(|o| o.report())
    }

    /// Arm deterministic fault injection on the memory device's
    /// response path. The plan is validated first; a plan that could
    /// never fire (zero fault budget) is rejected at arm time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        self.mem.backend.set_fault_plan(plan)
    }

    /// Arm (or leave disabled) the transaction-recovery layer. With
    /// `cfg.enabled == false` this is a no-op and the layer stays
    /// absent, preserving bit-identical clean-path cycle counts. Call
    /// before the run.
    pub fn set_recovery_config(&mut self, cfg: RecoveryConfig) {
        self.mem.recovery = cfg.enabled.then(|| RecoveryLayer::new(cfg));
    }

    /// The recovery layer's structured end-of-run report, when the
    /// layer is enabled. `report.aborted` marks runs terminated by the
    /// quiesce/drain path after retry exhaustion; `report.stuck` names
    /// the sequence tags that gave up.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.mem.recovery.as_ref().map(|r| r.report())
    }

    /// Enable structured-event tracing. One tracer is shared by the
    /// system, the coalescer, and the HMC device, so the flight
    /// recorder's ring holds an interleaved history of the whole
    /// request path. Call before the run.
    pub fn set_trace_config(&mut self, cfg: TraceConfig) {
        let tracer = TraceHandle::new(cfg);
        self.mem.coalescer.attach_tracer(tracer.clone());
        self.mem.backend.set_tracer(tracer.clone());
        self.mem.tracer = tracer;
    }

    /// The shared tracer (disabled unless [`Self::set_trace_config`]
    /// enabled it). Snapshot events, counters, and flight dumps from
    /// here after a run.
    pub fn tracer(&self) -> &TraceHandle {
        &self.mem.tracer
    }

    /// Faults the device actually injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.mem.backend.faults_injected()
    }

    /// Arm the device's hardware RAS layer (link CRC/retry/degrade on
    /// the HMC backend, ECC/scrub/sparing on the HBM). Validated
    /// against the configured backend at arm time. RAS events are
    /// conservation-preserving —
    /// the lockstep oracle must stay silent through every class (the
    /// one deliberate exception is the double-bit poison, which the
    /// recovery layer repairs before the oracle's final verdict).
    pub fn set_ras_plan(&mut self, plan: pac_types::RasPlan) -> Result<(), pac_types::RasPlanError> {
        self.mem.backend.set_ras_plan(plan)
    }

    /// Cumulative RAS event counters, when a plan is armed.
    pub fn ras_stats(&self) -> Option<pac_types::RasStats> {
        self.mem.backend.ras_stats()
    }

    /// Drive the run loop until it drains, aborts, reaches
    /// `cycle_limit`, or reaches `stop_at`. The `Paused` return leaves
    /// the system between ticks — the checkpoint-safe boundary where
    /// every per-tick scratch buffer is drained — so the caller can
    /// [`SimSystem::save_state`] and later continue (here or in a
    /// restored process) with another `advance` call, bit-identically
    /// to a run that never stopped.
    pub fn advance(&mut self, cycle_limit: Cycle, stop_at: Cycle) -> RunProgress {
        while !(self.front.done() && self.mem.drained()) {
            if self.mem.now >= cycle_limit {
                return RunProgress::CycleLimit;
            }
            if self.mem.now >= stop_at {
                return RunProgress::Paused;
            }
            self.front.issue(&mut self.mem);
            self.mem.tick(&mut self.front);
            if self.mem.recovery_aborted() {
                // Quiesce/drain ran: structures are reclaimed and the
                // run is over. Metrics are still collected — the
                // RecoveryReport carries the verdict.
                return RunProgress::Aborted;
            }
            if !self.mem.flushed && self.front.exhausted() {
                // End of the request stream: flush stragglers out of
                // stage 1 so the drain terminates promptly.
                self.mem.coalescer.flush(self.mem.now);
                self.mem.flushed = true;
            }
            if self.mem.stepping == Stepping::SkipAhead {
                // The tick already advanced `now` by one; jump the clock
                // over idle and blocked-retry cycles from there, never
                // past the caller's pause or cycle-limit boundary.
                self.skip_to_next_event(stop_at.min(cycle_limit));
            }
        }
        RunProgress::Done
    }

    /// The skip rule (DESIGN.md "Simulation core performance"): jump
    /// the clock from `now` over idle, blocked-retry and device-only
    /// cycles to the earliest cycle at which anything outside the
    /// memory device can change, charging each blocked request's
    /// refusals in bulk. The front end names its wake and its blocked
    /// requests ([`FrontEnd::next_wake`]); the memory side adds its own
    /// events ([`MemorySide::next_event`]).
    ///
    /// `clamp` caps the landing cycle (the caller's pause/limit
    /// boundary): a jump never passes it, and at the boundary there is
    /// no jump, so [`Self::advance`] pauses exactly on `stop_at` under
    /// either stepping. The split bulk accounting ([now, clamp) here,
    /// the rest after resuming) sums to the unclamped totals.
    fn skip_to_next_event(&mut self, clamp: Cycle) {
        let now = self.mem.now;
        if now >= clamp {
            return;
        }
        self.blocked.clear();
        let wake = match self.front.next_wake(&self.mem, &mut self.blocked) {
            Some(c) if c <= now => return,
            Some(c) => c,
            None => Cycle::MAX,
        };
        let Some(to) = self.mem.next_event(wake, clamp) else { return };
        // Cycles [now, to) would each re-offer every blocked request
        // exactly once and be refused; account those offers and jump.
        for req in &self.blocked {
            self.mem.coalescer.note_refused_retries(req, now, to - now);
        }
        self.front.jumped(now, to);
        self.mem.now = to;
    }

    /// Settle end-of-run statistics. Call once, after [`Self::advance`]
    /// returns a terminal (non-`Paused`) state.
    pub(crate) fn finalize_run(&mut self) {
        self.mem.finalize();
    }

    /// The metrics of the memory side; the front end's fields are zero.
    pub(crate) fn memory_metrics(&self) -> RunMetrics {
        RunMetrics::from_parts(
            self.mem.kind.label(),
            self.mem.now,
            self.mem.coalescer.stats(),
            self.mem.backend.stats(),
            self.mem.backend.energy().clone(),
            self.mem.backend.bank_conflicts(),
        )
    }

    pub fn now(&self) -> Cycle {
        self.mem.now
    }

    /// Convergence bound of the run (set by [`SimSystem::begin_run`],
    /// restored from a checkpoint, or derived from a replayed trace).
    /// The cycle limit [`SimSystem::run`] enforces.
    pub fn run_limit(&self) -> Cycle {
        self.mem.run_limit
    }

    pub fn config(&self) -> &SimConfig {
        &self.mem.cfg
    }

    pub fn coalescer_stats(&self) -> &pac_core::CoalescerStats {
        self.mem.coalescer.stats()
    }

    /// Device transaction statistics (the name predates the second
    /// backend; the stats shape is shared by all of them).
    pub fn hmc_stats(&self) -> &hmc_sim::HmcStats {
        self.mem.backend.stats()
    }

    /// Which memory backend this system runs on.
    pub fn backend(&self) -> pac_types::BackendKind {
        self.mem.backend.kind()
    }

    pub fn bank_conflicts(&self) -> u64 {
        self.mem.backend.bank_conflicts()
    }

    /// Per-cause issue-stall cycles from the backend, where the model
    /// attributes them (HBM; `None` on HMC).
    pub fn stall_cycles(&self) -> Option<pac_types::StallCycles> {
        self.mem.backend.stall_cycles()
    }
}

/// The execution-driven front end: the cores, the cache hierarchy, the
/// optional MMU, the LLC prefetcher, and the side queue of write-backs
/// and prefetch fills.
pub struct Cores {
    cores: Vec<CoreState>,
    hierarchy: CacheHierarchy,
    next_raw: u64,
    raw_meta: HashMap<u64, RawMeta, IdHash>,
    /// Write-backs and prefetches awaiting coalescer admission (the WB
    /// queue plus the prefetch request queue).
    side_queue: VecDeque<SideEntry>,
    /// Refusal memo for the side-queue head.
    side_memo: RefusalMemo,
    /// Per-core stride detectors.
    strides: Vec<StrideState>,
    /// Prefetches in flight or queued.
    prefetch_outstanding: usize,
    /// Prefetch fills issued over the run.
    prefetches_issued: u64,
    /// Optional MMU: when present, workload addresses are virtual and
    /// are translated (with TLB-walk penalties) before the caches.
    mmu: Option<pac_vm::Mmu>,
    /// Exact set of cores eligible to issue at the cycle the last jump
    /// landed on (bit `i` = core `i`), or `None` when the jump was not
    /// taken and `issue` must scan. The skip pass already evaluates
    /// every core's next issue cycle, and nothing between the jump and
    /// the core phase of the landing tick can change core state, so
    /// `issue` reuses the verdicts instead of re-interrogating all
    /// cores.
    core_mask: Option<u64>,
    /// What the last [`FrontEnd::next_wake`] found, for `jumped`: the
    /// blocked retriers, the earliest later issue cycle, and the cores
    /// that issue then.
    landing: (u64, Cycle, u64),
}

impl Cores {
    fn new(cfg: &SimConfig, specs: Vec<CoreSpec>) -> Self {
        let cores: Vec<CoreState> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| CoreState::new(i as u8, s, 0, cfg.core_outstanding))
            .collect();
        let n_cores = cores.len();
        Cores {
            hierarchy: CacheHierarchy::new(n_cores as u32, cfg.l1, cfg.l2),
            cores,
            strides: vec![StrideState::default(); n_cores],
            next_raw: 0,
            raw_meta: HashMap::default(),
            side_queue: VecDeque::new(),
            side_memo: RefusalMemo::default(),
            prefetch_outstanding: 0,
            prefetches_issued: 0,
            mmu: None,
            core_mask: None,
            landing: (0, Cycle::MAX, 0),
        }
    }

    fn alloc_raw(&mut self) -> u64 {
        let id = self.next_raw;
        self.next_raw += 1;
        id
    }

    /// Record an admitted request's owner until its completion.
    fn admitted(&mut self, pending: PendingPush, owner: Owner) {
        self.raw_meta.insert(
            pending.req.id,
            RawMeta { owner, line: pending.req.line(), is_fill: pending.is_fill },
        );
    }

    /// Offer core `c`'s request and account the outcome on the core: an
    /// accepted request joins its outstanding window, a refused one
    /// waits as its retry.
    fn admit_core(&mut self, mem: &mut MemorySide, c: usize, pending: PendingPush) {
        let now = mem.now;
        if mem.offer(pending.req, &mut self.cores[c].memo) {
            self.admitted(pending, Owner::Core(c as u8));
            self.cores[c].outstanding += 1;
            self.cores[c].charge(now, 1);
        } else {
            self.cores[c].refuse(now, pending);
        }
    }

    fn enqueue_writeback(&mut self, line: u64, now: Cycle) {
        let id = self.alloc_raw();
        let mut req = MemRequest::miss(id, line, Op::Store, u8::MAX, now);
        req.kind = RequestKind::WriteBack;
        req.data_bytes = CACHE_LINE_BYTES as u32;
        self.side_queue.push_back(SideEntry::Ready(req, Owner::WriteBack, false));
    }

    /// Admit side-queue entries (write-backs, prefetches) in order until
    /// the coalescer refuses one. Prefetch candidates probe the LLC only
    /// here; candidates overtaken by a demand miss are dropped.
    fn drain_side_queue(&mut self, mem: &mut MemorySide) {
        let now = mem.now;
        while let Some(&entry) = self.side_queue.front() {
            match entry {
                SideEntry::Ready(req, owner, is_fill) => {
                    if !mem.offer(req, &mut self.side_memo) {
                        break;
                    }
                    self.side_queue.pop_front();
                    self.admitted(PendingPush { req, is_fill }, owner);
                }
                SideEntry::PfCandidate { addr, core } => {
                    self.side_queue.pop_front();
                    match self.hierarchy.llc_status(addr) {
                        // Already valid: the prefetcher checks the cache
                        // and drops the candidate.
                        cache_sim::cache::LineStatus::Valid => {
                            debug_assert!(self.prefetch_outstanding > 0);
                            self.prefetch_outstanding -= 1;
                            continue;
                        }
                        // A demand miss won the race and the fill is in
                        // flight. The paper's architecture keeps its
                        // only miss tracking in the MSHR file *below*
                        // the coalescer, so the prefetcher cannot see
                        // the pending fill and the request still goes
                        // downstream — where an MSHR-based coalescer
                        // absorbs it as a duplicate subentry (Sec 2.2.1)
                        // and the stock controller pays for a redundant
                        // fetch.
                        cache_sim::cache::LineStatus::Filling => {}
                        cache_sim::cache::LineStatus::Absent => {
                            // The fill may still be refused when every
                            // way of the set is mid-fill; drop then.
                            let Some(victim) = self.hierarchy.prefetch(addr) else {
                                debug_assert!(self.prefetch_outstanding > 0);
                                self.prefetch_outstanding -= 1;
                                continue;
                            };
                            if let Some(wb) = victim {
                                self.enqueue_writeback(wb, now);
                            }
                            // The fill is now reserved in the LLC; the
                            // request must eventually be admitted.
                        }
                    }
                    let id = self.alloc_raw();
                    let mut req = MemRequest::miss(id, addr, Op::Load, core, now);
                    req.data_bytes = CACHE_LINE_BYTES as u32;
                    self.prefetches_issued += 1;
                    self.side_queue.push_front(SideEntry::Ready(req, Owner::Prefetch, true));
                }
            }
        }
    }

    /// Feed the core's stream table with an L2-level access (any L1
    /// miss) and issue LLC prefetch fills to stay `prefetch_degree`
    /// lines ahead of each detected sequential stream.
    fn maybe_prefetch(&mut self, cfg: &SimConfig, now: Cycle, core: usize, line: u64) {
        let degree = cfg.prefetch_degree as u64;
        if degree == 0 {
            return;
        }
        let st = &mut self.strides[core];
        let hit = st.entries.iter().position(|e| e.next_line == line && e.streak > 0)
            .or_else(|| st.entries.iter().position(|e| e.next_line == line));
        let Some(i) = hit else {
            // New stream candidate: replace the LRU entry. No prefetch
            // until the stream proves itself with a continuation.
            let victim = st
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("table nonempty");
            st.entries[victim] =
                StreamEntry {
                    next_line: line + CACHE_LINE_BYTES,
                    streak: 1,
                    prefetched_upto: line,
                    lru: now,
                };
            return;
        };
        let e = &mut st.entries[i];
        e.streak += 1;
        e.next_line = line + CACHE_LINE_BYTES;
        e.lru = now;
        if e.streak < 2 {
            e.prefetched_upto = e.prefetched_upto.max(line);
            return;
        }
        // Fetch ahead in whole 256B-row-aligned groups: sequential
        // streams are consumed row by row, and row granularity is what
        // both the DRAM and the coalescer operate on. Never cross the
        // 4KB page boundary — the next physical frame belongs to an
        // unrelated page (hardware prefetchers stop here for the same
        // reason).
        let row = cfg.active_row_bytes();
        let page_last_line = line_base(line | (PAGE_BYTES - 1));
        // Last line of the row containing the lookahead point.
        let target = ((line + degree * CACHE_LINE_BYTES) / row * row + row - CACHE_LINE_BYTES)
            .min(page_last_line);
        let mut next = e.prefetched_upto.max(line) + CACHE_LINE_BYTES;
        // At most (degree + row/64) candidates fit between `next` and the
        // page-clamped target; a fixed buffer avoids a heap allocation on
        // this per-access path.
        let mut issued = [0u64; 32];
        let mut n_issued = 0usize;
        while next <= target
            && n_issued < issued.len()
            && self.prefetch_outstanding < cfg.prefetch_max_outstanding
        {
            issued[n_issued] = next;
            n_issued += 1;
            self.prefetch_outstanding += 1;
            next += CACHE_LINE_BYTES;
        }
        st.entries[i].prefetched_upto = next - CACHE_LINE_BYTES;
        for &addr in &issued[..n_issued] {
            self.side_queue.push_back(SideEntry::PfCandidate { addr, core: core as u8 });
        }
    }

    fn issue_core_access(&mut self, mem: &mut MemorySide, c: usize) {
        let now = mem.now;
        // Replay a refused push first.
        if let Some(pending) = self.cores[c].retry.take() {
            self.admit_core(mem, c, pending);
            return;
        }

        let mut access = self.cores[c].take_access();
        if let Some(mmu) = &mut self.mmu {
            if access.kind != RequestKind::Fence {
                let t = mmu.translate(self.cores[c].process, access.addr, now);
                access.addr = t.paddr;
                if t.penalty > 0 {
                    // The page walk delays the core's next issue.
                    self.cores[c].ready_at = now + t.penalty;
                }
            }
        }
        match access.kind {
            RequestKind::Fence => {
                // Fences always enter (they only flush stage 1). The
                // captured trace records them so replay drives the same
                // flush points.
                let id = self.alloc_raw();
                let mut req = MemRequest::miss(id, 0, Op::Load, c as u8, now);
                req.kind = RequestKind::Fence;
                req.data_bytes = 0;
                mem.offer(req, &mut RefusalMemo::default());
                self.cores[c].charge(now, 1);
            }
            RequestKind::Atomic => {
                mem.tracer.emit(now, EventClass::Core, || EventKind::CoreIssue {
                    core: c as u32,
                    addr: access.addr,
                    is_store: access.op == Op::Store,
                });
                let id = self.alloc_raw();
                let mut req = MemRequest::miss(id, access.addr, access.op, c as u8, now);
                req.kind = RequestKind::Atomic;
                req.data_bytes = access.data_bytes;
                self.admit_core(mem, c, PendingPush { req, is_fill: false });
            }
            RequestKind::Miss | RequestKind::WriteBack => {
                let is_write = access.op == Op::Store;
                let line = line_base(access.addr);
                mem.tracer.emit(now, EventClass::Core, || EventKind::CoreIssue {
                    core: c as u32,
                    addr: access.addr,
                    is_store: is_write,
                });
                match self.hierarchy.access(c, access.addr, is_write) {
                    HierarchyOutcome::L1Hit => {
                        self.cores[c].stats.l1_hits += 1;
                        self.cores[c].charge(now, 1);
                        mem.tracer.emit(now, EventClass::Core, || EventKind::L1Hit {
                            core: c as u32,
                            addr: access.addr,
                        });
                    }
                    HierarchyOutcome::L2Hit { writeback } => {
                        self.cores[c].stats.l2_hits += 1;
                        mem.tracer.emit(now, EventClass::Core, || EventKind::L2Hit {
                            core: c as u32,
                            addr: access.addr,
                        });
                        if let Some(wb) = writeback {
                            self.enqueue_writeback(wb, now);
                        }
                        let lat = self.hierarchy.l2_latency();
                        self.cores[c].charge(now, lat);
                        // Sequential L2 hits keep prefetch streams alive
                        // (they are usually hits *on* prefetched lines).
                        self.maybe_prefetch(&mem.cfg, now, c, line);
                    }
                    HierarchyOutcome::Miss { writebacks, .. } => {
                        self.cores[c].stats.misses += 1;
                        mem.tracer.emit(now, EventClass::Core, || EventKind::CacheMiss {
                            core: c as u32,
                            addr: access.addr,
                        });
                        for wb in writebacks.into_iter().flatten() {
                            self.enqueue_writeback(wb, now);
                        }
                        // Write-allocate: a store miss fetches the line
                        // like a load; the dirty data returns to memory
                        // later as an eviction write-back. Duplicates
                        // (misses on filling lines) also validate the
                        // line when they complete — their completion
                        // implies the covering fetch returned.
                        let id = self.alloc_raw();
                        let mut req = MemRequest::miss(id, access.addr, Op::Load, c as u8, now);
                        req.data_bytes = access.data_bytes;
                        self.admit_core(mem, c, PendingPush { req, is_fill: true });
                        self.maybe_prefetch(&mem.cfg, now, c, line);
                    }
                }
            }
        }
    }
}

impl FrontEnd for Cores {
    fn issue(&mut self, mem: &mut MemorySide) {
        let now = mem.now;
        // Tell the controller how deep the miss/WB queues run before
        // offering anything (Fig 3 gives it that visibility), then
        // drain the queued write-backs and prefetch fills — they sit in
        // the miss/WB queues of Fig 3, ahead of this cycle's new core
        // accesses.
        mem.hint_pending(self.side_queue.len());
        self.drain_side_queue(mem);

        // Cores issue, in ascending index order either way.
        match self.core_mask.take() {
            Some(mask) => {
                let mut bits = mask;
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    debug_assert!(self.cores[c].can_issue(now));
                    self.issue_core_access(mem, c);
                }
            }
            None => {
                for c in 0..self.cores.len() {
                    if self.cores[c].can_issue(now) {
                        self.issue_core_access(mem, c);
                    }
                }
            }
        }
    }

    /// Responses fill the LLC, release the owner's slot, and may wake
    /// a blocked core.
    fn complete(&mut self, raw: u64, now: Cycle) {
        let Some(meta) = self.raw_meta.remove(&raw) else { return };
        if meta.is_fill {
            self.hierarchy.fill_complete(meta.line);
        }
        match meta.owner {
            Owner::Core(core) => {
                let core = &mut self.cores[core as usize];
                debug_assert!(core.outstanding > 0);
                core.outstanding -= 1;
                // The returning data may wake a blocked core.
                core.ready_at = core.ready_at.max(now + 1);
            }
            Owner::Prefetch => {
                debug_assert!(self.prefetch_outstanding > 0);
                self.prefetch_outstanding -= 1;
            }
            Owner::WriteBack => {}
        }
    }

    /// The side-queue head and every core's pending retry are the
    /// offers the coming cycles would repeat. Any of them that would be
    /// accepted — or a prefetch candidate, which always makes progress,
    /// or a fresh access — is real work now.
    fn next_wake(&mut self, mem: &MemorySide, blocked: &mut Vec<MemRequest>) -> Option<Cycle> {
        let now = mem.now;
        match self.side_queue.front() {
            None => {}
            Some(&SideEntry::Ready(req, _, _)) => {
                if !mem.stays_refused(&req, &mut self.side_memo) {
                    return Some(now);
                }
                blocked.push(req);
            }
            Some(SideEntry::PfCandidate { .. }) => return Some(now),
        }
        // Cores eligible the moment the jump lands: blocked retriers
        // (they re-offer at every jumped cycle and again at landing)
        // plus whichever cores' issue cycle IS the landing cycle.
        let mut blocked_mask = 0u64;
        let mut best_core = Cycle::MAX;
        let mut best_core_mask = 0u64;
        for (i, core) in self.cores.iter_mut().enumerate() {
            match core.next_issue_cycle(now) {
                None => {}
                Some(c) if c > now => {
                    if c < best_core {
                        best_core = c;
                        best_core_mask = 1 << (i & 63);
                    } else if c == best_core {
                        best_core_mask |= 1 << (i & 63);
                    }
                }
                Some(_) => {
                    let Some(p) = core.retry else { return Some(now) };
                    if !mem.stays_refused(&p.req, &mut core.memo) {
                        return Some(now);
                    }
                    blocked.push(p.req);
                    blocked_mask |= 1 << (i & 63);
                }
            }
        }
        self.landing = (blocked_mask, best_core, best_core_mask);
        (best_core != Cycle::MAX).then_some(best_core)
    }

    fn jumped(&mut self, _from: Cycle, to: Cycle) {
        if self.cores.len() <= 64 {
            let (blocked_mask, best_core, best_core_mask) = self.landing;
            let mask = if to == best_core { blocked_mask | best_core_mask } else { blocked_mask };
            self.core_mask = Some(mask);
        }
    }

    fn exhausted(&self) -> bool {
        self.cores.iter().all(|c| c.remaining == 0)
    }

    fn done(&self) -> bool {
        self.cores.iter().all(|c| c.finished()) && self.side_queue.is_empty()
    }
}

impl SimSystem {
    pub fn new(cfg: SimConfig, specs: Vec<CoreSpec>, kind: CoalescerKind) -> Self {
        Self::with_options(cfg, specs, kind, false, false, Stepping::from_env())
    }

    /// `capture_trace` retains the raw miss stream (Figs 2/8/9);
    /// `trace_occupancy` retains PAC's stream-occupancy samples (Fig 11b);
    /// `stepping` selects the clock-advance policy (metrics are identical
    /// either way, only wall-clock differs).
    pub fn with_options(
        cfg: SimConfig,
        specs: Vec<CoreSpec>,
        kind: CoalescerKind,
        capture_trace: bool,
        trace_occupancy: bool,
        stepping: Stepping,
    ) -> Self {
        assert!(!specs.is_empty());
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let mut mem = MemorySide::new(cfg, kind, trace_occupancy, stepping, 0);
        mem.capture = capture_trace.then(Vec::new);
        System::assemble(Cores::new(&cfg, specs), mem)
    }

    /// Enable virtual memory: workload addresses become virtual and
    /// translate through `mmu` (scattered frames, TLB penalties).
    pub fn set_mmu(&mut self, mmu: pac_vm::Mmu) {
        self.front.mmu = Some(mmu);
    }

    /// Arm a run: load each core's access budget and compute the
    /// convergence bound. The run then proceeds through one or more
    /// [`Self::advance`] legs and ends with [`Self::finish_run`] —
    /// [`Self::run`]/[`Self::run_until`] package the common one-leg
    /// case. A system restored from a checkpoint must NOT call this:
    /// the budget, flush flag, and bound are part of the snapshot.
    pub fn begin_run(&mut self, accesses_per_core: u64) {
        for c in &mut self.front.cores {
            c.remaining = accesses_per_core;
        }
        self.mem.run_limit = accesses_per_core
            .saturating_mul(self.front.cores.len() as u64)
            .saturating_mul(2000)
            .max(10_000_000);
        self.mem.flushed = false;
    }

    /// Settle end-of-run statistics and collect the metrics. Call once,
    /// after [`Self::advance`] returns a terminal (non-`Paused`) state.
    pub fn finish_run(&mut self) -> RunMetrics {
        self.finalize_run();
        let mut m = self.memory_metrics();
        m.l1_hit_rate = self.front.hierarchy.l1_hit_rate();
        m.l2_hit_rate = self.front.hierarchy.l2_hit_rate();
        m.prefetches = self.front.prefetches_issued;
        m
    }

    /// Run each core for `accesses_per_core` accesses and drain.
    pub fn run(&mut self, accesses_per_core: u64) -> RunMetrics {
        self.begin_run(accesses_per_core);
        let progress = self.advance(self.run_limit(), Cycle::MAX);
        assert!(
            progress != RunProgress::CycleLimit,
            "simulation failed to converge by cycle {}",
            self.now()
        );
        self.finish_run()
    }

    /// Like [`Self::run`], but bounded: gives up (without panicking)
    /// once the clock reaches `cycle_limit`. Fault-conformance runs need
    /// this — a dropped response wedges the drain forever, and the point
    /// is to let the oracle's end-of-run conservation invariants report
    /// the loss rather than die on the convergence assert. Returns
    /// `true` when the system actually drained.
    pub fn run_until(&mut self, accesses_per_core: u64, cycle_limit: Cycle) -> bool {
        self.begin_run(accesses_per_core);
        let progress = self.advance(cycle_limit, Cycle::MAX);
        self.finalize_run();
        progress == RunProgress::Done
    }

    /// Serialize the complete simulation state into a framed,
    /// checksummed checkpoint (see [`pac_types::snapshot`]). `meta` is
    /// the experiment identity line (workload, coalescer, seed, access
    /// budget); [`Self::restore`] refuses a checkpoint whose meta does
    /// not match, so a resumed run can never silently continue under
    /// the wrong experiment.
    ///
    /// Legal only at a checkpoint-safe boundary: before the run, or
    /// after [`Self::advance`] returned [`RunProgress::Paused`]. The
    /// attached tracer is NOT captured (re-attach with
    /// [`Self::set_trace_config`] after restoring); MMU-enabled systems
    /// are refused with [`pac_types::SnapError::Unsupported`].
    pub fn save_state(&self, meta: &str) -> Result<Vec<u8>, pac_types::SnapError> {
        use pac_types::Snapshot;
        let (f, m) = (&self.front, &self.mem);
        if f.mmu.is_some() {
            return Err(pac_types::SnapError::Unsupported(
                "MMU-enabled systems do not checkpoint (TLB and page-table state)".into(),
            ));
        }
        let mut w = pac_types::SnapWriter::new();
        m.cfg.save(&mut w);
        m.kind.save(&mut w);
        m.stepping.save(&mut w);
        f.cores.len().save(&mut w);
        for c in &f.cores {
            c.save_snapshot(&mut w);
        }
        f.hierarchy.save(&mut w);
        m.coalescer.save_state(&mut w);
        m.backend.save_state(&mut w);
        m.now.save(&mut w);
        f.next_raw.save(&mut w);
        f.raw_meta.save(&mut w);
        f.side_queue.save(&mut w);
        f.strides.save(&mut w);
        f.prefetch_outstanding.save(&mut w);
        f.prefetches_issued.save(&mut w);
        m.oracle.save(&mut w);
        m.recovery.save(&mut w);
        m.capture.save(&mut w);
        m.capture_cap.save(&mut w);
        m.last_counter_sample.save(&mut w);
        m.seen_violations.save(&mut w);
        f.core_mask.save(&mut w);
        m.flushed.save(&mut w);
        m.run_limit.save(&mut w);
        Ok(pac_types::frame(meta, &w.into_bytes()))
    }

    /// Rebuild a system from a checkpoint written by
    /// [`Self::save_state`]. `specs` must describe the same workload
    /// the checkpoint was taken under (same benchmarks, same seed, same
    /// core count — each core's identity fields are cross-checked and
    /// its stream replayed forward to the checkpointed position);
    /// `expected_meta` must equal the meta line the checkpoint was
    /// saved with. Continue with [`Self::advance`] +
    /// [`Self::finish_run`] — do NOT call [`Self::begin_run`], the
    /// in-progress run's budget and bounds are part of the state.
    pub fn restore(
        specs: Vec<CoreSpec>,
        bytes: &[u8],
        expected_meta: &str,
    ) -> Result<SimSystem, pac_types::SnapError> {
        use pac_types::{SnapError, Snapshot};
        let (meta, payload) = pac_types::unframe(bytes)?;
        if meta != expected_meta {
            return Err(SnapError::ConfigMismatch(format!(
                "checkpoint was taken under '{meta}', resuming under '{expected_meta}'"
            )));
        }
        let mut r = pac_types::SnapReader::new(payload);
        let cfg = SimConfig::load(&mut r)?;
        cfg.validate().map_err(|e| SnapError::ConfigMismatch(e.to_string()))?;
        let kind = CoalescerKind::load(&mut r)?;
        let stepping = Stepping::load(&mut r)?;
        let n_cores = usize::load(&mut r)?;
        if n_cores != specs.len() {
            return Err(SnapError::ConfigMismatch(format!(
                "checkpoint has {n_cores} cores, resume specs supply {}",
                specs.len()
            )));
        }
        let mut cores = Vec::with_capacity(n_cores);
        for spec in specs {
            cores.push(CoreState::restore_snapshot(&mut r, spec)?);
        }
        let hierarchy = CacheHierarchy::load(&mut r)?;
        // The dynamic coalescer is keyed by the serialized kind: the
        // save side wrote the concrete type's state via
        // `MemoryCoalescer::save_state`, the load side knows which
        // concrete `Snapshot::load` to dispatch to.
        let coalescer: Box<dyn MemoryCoalescer> = match kind {
            CoalescerKind::Raw => Box::new(NoCoalescing::load(&mut r)?),
            CoalescerKind::MshrDmc => Box::new(MshrDmc::load(&mut r)?),
            CoalescerKind::Pac => Box::new(PacCoalescer::load(&mut r)?),
        };
        // The device backend is keyed by the configuration read above,
        // same dispatch discipline as the coalescer.
        let backend = pac_mem::load_backend(&cfg, &mut r)?;
        // The rest loads in checkpoint order (a struct literal evaluates
        // its fields as written).
        let now = Cycle::load(&mut r)?;
        let mut front = Cores {
            cores,
            hierarchy,
            next_raw: u64::load(&mut r)?,
            raw_meta: HashMap::<u64, RawMeta, IdHash>::load(&mut r)?,
            side_queue: VecDeque::<SideEntry>::load(&mut r)?,
            side_memo: RefusalMemo::default(),
            strides: Vec::<StrideState>::load(&mut r)?,
            prefetch_outstanding: usize::load(&mut r)?,
            prefetches_issued: u64::load(&mut r)?,
            mmu: None,
            core_mask: None,
            landing: (0, Cycle::MAX, 0),
        };
        let mut mem = MemorySide {
            cfg,
            kind,
            coalescer,
            backend,
            now,
            oracle: Option::<LockstepChecker>::load(&mut r)?,
            recovery: Option::<RecoveryLayer>::load(&mut r)?,
            capture: Option::<Vec<TraceEntry>>::load(&mut r)?,
            capture_cap: usize::load(&mut r)?,
            tracer: TraceHandle::disabled(),
            last_counter_sample: Cycle::load(&mut r)?,
            seen_violations: u64::load(&mut r)?,
            stepping,
            dispatches: Vec::new(),
            responses: Vec::new(),
            satisfied: Vec::new(),
            recovery_actions: Vec::new(),
            flushed: false,
            run_limit: 0,
        };
        front.core_mask = Option::<u64>::load(&mut r)?;
        mem.flushed = bool::load(&mut r)?;
        mem.run_limit = Cycle::load(&mut r)?;
        r.finish()?;
        Ok(System::assemble(front, mem))
    }

    pub fn cores(&self) -> &[CoreState] {
        &self.front.cores
    }

    /// The captured raw miss trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.mem.capture.take().unwrap_or_default()
    }
}
/// Verdict of one oracle-checked run.
#[derive(Debug)]
pub struct LockstepOutcome {
    /// The checker's verdict (finalized).
    pub oracle: OracleReport,
    /// Whether the system drained within the cycle bound.
    pub converged: bool,
    /// Faults the device injected (0 on clean runs).
    pub faults_injected: u64,
    /// The recovery layer's report, when one was armed.
    pub recovery: Option<RecoveryReport>,
    /// RAS event counters, when a RAS plan was armed.
    pub ras_stats: Option<pac_types::RasStats>,
    /// Simulated cycle the run ended at.
    pub cycles: Cycle,
}

/// Run one benchmark under the lockstep golden-model oracle, optionally
/// with deterministic fault injection on the response path and/or the
/// transaction-recovery layer. This is the conformance suite's entry
/// point: a clean plan must come back with `oracle.is_clean()`, an
/// armed plan with the matching invariant fired — and an armed plan
/// *plus* recovery with the oracle silent again, the damage repaired
/// before it could observe it.
#[allow(clippy::too_many_arguments)] // flat knob list mirrors the conformance matrix axes
pub fn run_lockstep(
    cfg: SimConfig,
    specs: Vec<CoreSpec>,
    kind: CoalescerKind,
    accesses_per_core: u64,
    fault: Option<FaultPlan>,
    ras: Option<pac_types::RasPlan>,
    recovery: Option<RecoveryConfig>,
    oracle_cfg: Option<OracleConfig>,
    cycle_limit: Cycle,
) -> LockstepOutcome {
    let mut sys = SimSystem::new(cfg, specs, kind);
    sys.attach_oracle_with(oracle_cfg.unwrap_or_else(|| OracleConfig::for_sim(sys.config())));
    if let Some(plan) = fault {
        sys.set_fault_plan(plan).expect("valid fault plan");
    }
    if let Some(plan) = ras {
        sys.set_ras_plan(plan).expect("valid ras plan");
    }
    if let Some(rc) = recovery {
        sys.set_recovery_config(rc);
    }
    let converged = sys.run_until(accesses_per_core, cycle_limit);
    LockstepOutcome {
        oracle: sys.oracle_report().expect("oracle attached"),
        converged,
        faults_injected: sys.faults_injected(),
        recovery: sys.recovery_report(),
        ras_stats: sys.ras_stats(),
        cycles: sys.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_workloads::multiproc::single_process;
    use pac_workloads::Bench;

    fn small_cfg() -> SimConfig {
        SimConfig::default()
    }

    fn run(bench: Bench, kind: CoalescerKind, accesses: u64) -> RunMetrics {
        let specs = single_process(bench, 4, 7);
        let mut sys = SimSystem::new(small_cfg(), specs, kind);
        sys.run(accesses)
    }

    #[test]
    fn stream_completes_under_all_coalescers() {
        for kind in CoalescerKind::ALL {
            let m = run(Bench::Stream, kind, 2000);
            assert!(m.runtime_cycles > 0, "{}", kind.label());
            assert!(m.raw_requests > 0, "{}", kind.label());
            assert_eq!(m.hmc_requests, m.dispatched_requests, "{}", kind.label());
        }
    }

    #[test]
    fn pac_coalesces_ep_better_than_dmc() {
        let pac = run(Bench::Ep, CoalescerKind::Pac, 4000);
        let dmc = run(Bench::Ep, CoalescerKind::MshrDmc, 4000);
        let raw = run(Bench::Ep, CoalescerKind::Raw, 4000);
        assert!(pac.coalescing_efficiency > dmc.coalescing_efficiency);
        assert_eq!(raw.coalescing_efficiency, 0.0);
        assert!(pac.coalescing_efficiency > 0.3, "{}", pac.coalescing_efficiency);
    }

    #[test]
    fn pac_reduces_bank_conflicts_on_dense_workload() {
        let pac = run(Bench::Ep, CoalescerKind::Pac, 4000);
        let raw = run(Bench::Ep, CoalescerKind::Raw, 4000);
        assert!(
            pac.bank_conflicts < raw.bank_conflicts,
            "pac {} raw {}",
            pac.bank_conflicts,
            raw.bank_conflicts
        );
    }

    #[test]
    fn graph_workload_completes_with_atomics() {
        let m = run(Bench::Ssca2, CoalescerKind::Pac, 2000);
        assert!(m.raw_requests > 0);
    }

    #[test]
    fn fences_do_not_wedge_the_pipeline() {
        let m = run(Bench::Sort, CoalescerKind::Pac, 5000);
        assert!(m.runtime_cycles > 0);
    }

    #[test]
    fn trace_capture_collects_misses() {
        let specs = single_process(Bench::Bfs, 2, 3);
        let mut sys = SimSystem::with_options(
            small_cfg(),
            specs,
            CoalescerKind::Pac,
            true,
            false,
            Stepping::SkipAhead,
        );
        sys.run(1000);
        let trace = sys.take_trace();
        assert!(!trace.is_empty());
        // Cycles are nondecreasing.
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn multiprocess_mix_runs() {
        let specs = pac_workloads::multiproc::two_processes(Bench::Stream, Bench::Bfs, 4, 5);
        let mut sys = SimSystem::new(small_cfg(), specs, CoalescerKind::Pac);
        let m = sys.run(1500);
        assert!(m.raw_requests > 0);
    }

    #[test]
    fn oracle_stays_clean_across_coalescers() {
        for kind in CoalescerKind::ALL {
            let specs = single_process(Bench::Bfs, 4, 11);
            let mut sys = SimSystem::new(small_cfg(), specs, kind);
            sys.attach_oracle();
            assert!(sys.run_until(1500, 10_000_000), "{} failed to drain", kind.label());
            let report = sys.oracle_report().unwrap();
            assert!(report.is_clean(), "{}: {}", kind.label(), report.summary());
            assert!(report.accepted_raw > 0);
            assert_eq!(report.accepted_raw, report.served_raw);
        }
    }

    #[test]
    fn oracle_catches_dropped_responses() {
        use pac_types::{FaultClass, FaultPlan};
        let specs = single_process(Bench::Stream, 4, 11);
        let out = crate::system::run_lockstep(
            small_cfg(),
            specs,
            CoalescerKind::Pac,
            1500,
            Some(FaultPlan::new(FaultClass::DropResponse, 99)),
            None,
            None,
            None,
            2_000_000,
        );
        assert!(out.faults_injected > 0);
        assert!(
            out.oracle.detected(pac_oracle::Invariant::LostResponse)
                || out.oracle.detected(pac_oracle::Invariant::ResponseConservation),
            "{}",
            out.oracle.summary()
        );
    }

    #[test]
    fn full_tracing_does_not_perturb_metrics() {
        // Tracing is observe-only: every RunMetrics field must be
        // bit-identical with the tracer off and at full verbosity.
        for kind in CoalescerKind::ALL {
            let plain = run(Bench::Ep, kind, 2000);
            let specs = single_process(Bench::Ep, 4, 7);
            let mut sys = SimSystem::new(small_cfg(), specs, kind);
            sys.set_trace_config(pac_types::TraceConfig::full());
            let traced = sys.run(2000);
            assert_eq!(plain, traced, "{} diverged under tracing", kind.label());
            assert!(
                !sys.tracer().snapshot_events().is_empty(),
                "{} emitted no events at full verbosity",
                kind.label()
            );
        }
    }

    #[test]
    fn stage_histograms_reproduce_scalar_aggregates() {
        // Fig 12a identity: the cycle-bucketed histograms carry exactly
        // the samples behind the legacy scalar sums, so mean and count
        // agree bit-for-bit.
        let specs = single_process(Bench::Ep, 4, 7);
        let mut sys = SimSystem::new(small_cfg(), specs, CoalescerKind::Pac);
        sys.run(4000);
        let cs = sys.coalescer_stats();
        assert!(cs.stage2_batches > 0, "EP must exercise the network");
        assert_eq!(cs.stage2_hist.count(), cs.stage2_batches);
        assert_eq!(cs.stage2_hist.sum(), cs.stage2_latency_sum);
        assert_eq!(cs.stage2_hist.mean(), cs.avg_stage2_latency());
        assert_eq!(cs.stage3_hist.count(), cs.stage3_batches);
        assert_eq!(cs.stage3_hist.sum(), cs.stage3_latency_sum);
        assert_eq!(cs.stage3_hist.mean(), cs.avg_stage3_latency());
        assert_eq!(cs.maq_fill_hist.count(), cs.maq_fills);
        assert_eq!(cs.maq_fill_hist.sum(), cs.maq_fill_latency_sum);
        assert_eq!(cs.maq_fill_hist.mean(), cs.avg_maq_fill_latency());
        let hs = sys.hmc_stats();
        assert_eq!(hs.latency_hist.count(), hs.responses);
        assert_eq!(hs.latency_hist.sum(), hs.total_latency_cycles);
    }

    #[test]
    fn oracle_violation_triggers_flight_dump() {
        use pac_types::{FaultClass, FaultPlan, TraceConfig};
        let specs = single_process(Bench::Stream, 4, 11);
        let mut sys = SimSystem::new(small_cfg(), specs, CoalescerKind::Pac);
        sys.attach_oracle();
        sys.set_trace_config(TraceConfig::flight_recorder());
        sys.set_fault_plan(FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 13)
        })
        .expect("valid fault plan");
        sys.run_until(1500, 2_000_000);
        assert!(sys.faults_injected() > 0);
        let dumps = sys.tracer().snapshot_dumps();
        // The fault itself dumps once (device-side); the oracle's
        // echo-integrity violation dumps again.
        assert!(dumps.len() >= 2, "expected fault + oracle dumps, got {}", dumps.len());
        assert!(
            dumps.iter().any(|d| matches!(d.trigger, pac_trace::DumpTrigger::Fault { .. })),
            "missing device-side fault dump"
        );
        assert!(
            dumps
                .iter()
                .any(|d| matches!(&d.trigger, pac_trace::DumpTrigger::OracleViolation { .. })),
            "missing oracle-side violation dump"
        );
    }

    #[test]
    fn transaction_efficiency_improves_with_pac() {
        let pac = run(Bench::Ep, CoalescerKind::Pac, 4000);
        let raw = run(Bench::Ep, CoalescerKind::Raw, 4000);
        assert!(pac.transaction_efficiency > raw.transaction_efficiency);
        // Raw 64B requests sit at exactly 2/3 (Sec 5.3.2).
        assert!((raw.transaction_efficiency - 2.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn tracing_does_not_perturb_metrics() {
        let plain = run(Bench::Ep, CoalescerKind::Pac, 2000);
        let specs = single_process(Bench::Ep, 4, 7);
        let mut sys = SimSystem::new(small_cfg(), specs, CoalescerKind::Pac);
        sys.set_trace_config(pac_types::TraceConfig::full());
        let traced = sys.run(2000);
        assert_eq!(plain, traced);
        assert!(!sys.tracer().snapshot_events().is_empty());
    }
}
