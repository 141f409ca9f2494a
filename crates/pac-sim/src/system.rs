//! The assembled system: cores → caches → coalescer → memory backend
//! (HMC vaults or HBM pseudo-channels, selected by
//! `SimConfig.backend`).

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

/// Clock-advance policy for [`SimSystem::run`] and trace replay
/// ([`crate::replay_with`]).
///
/// Skip-ahead is the production mode: after each tick the loop asks
/// every component for its earliest upcoming event cycle and jumps the
/// clock to the first one something outside the memory device can see,
/// ticking the device alone through its earlier events. Component
/// events are conservative lower bounds — an early (no-op) tick is
/// harmless because every component keeps absolute-cycle bookkeeping,
/// while a missed cycle would lose a per-cycle side effect — so
/// skip-ahead produces metrics bit-identical to the cycle-by-cycle
/// reference (regression-tested in `tests/skip_ahead_equivalence.rs`
/// and `tests/proptests.rs`).
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
    /// [`SimSystem::new`], [`crate::replay`] and [`crate::replay_served`]
    /// all read it, so the one variable switches both the system run and
    /// trace replay to the every-cycle reference.
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

/// How one [`SimSystem::advance`] leg of the run loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunProgress {
    /// Every core finished and the system drained.
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

/// The full simulated system.
pub struct SimSystem {
    cfg: SimConfig,
    kind: CoalescerKind,
    cores: Vec<CoreState>,
    hierarchy: CacheHierarchy,
    coalescer: Box<dyn MemoryCoalescer>,
    /// The cycle-level memory device, selected by `cfg.backend` (HMC
    /// vaults or HBM pseudo-channels); everything above it is
    /// backend-agnostic.
    mem: Box<dyn MemoryBackend>,
    now: Cycle,
    next_raw: u64,
    raw_meta: HashMap<u64, RawMeta, IdHash>,
    /// Write-backs and prefetches awaiting coalescer admission (the WB
    /// queue plus the prefetch request queue).
    side_queue: VecDeque<SideEntry>,
    /// Refusal memo for the side-queue head: its raw id and the
    /// admission epoch it was refused at. A cache, left out of
    /// checkpoints (see `CoreState::refused_at`).
    side_refused: Option<(u64, u64)>,
    /// Per-core stride detectors.
    strides: Vec<StrideState>,
    /// Prefetches in flight or queued.
    prefetch_outstanding: usize,
    /// Prefetch fills issued over the run.
    prefetches_issued: u64,
    /// Optional MMU: when present, workload addresses are virtual and
    /// are translated (with TLB-walk penalties) before the caches.
    mmu: Option<pac_vm::Mmu>,
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
    /// Captured raw miss trace.
    trace: Option<Vec<TraceEntry>>,
    trace_cap: usize,
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
    blocked_scratch: Vec<MemRequest>,
    recovery_actions: Vec<WatchdogAction>,
    /// Exact set of cores eligible to issue at the cycle the last
    /// `skip_to_next_event` landed on (bit `i` = core `i`), or `None`
    /// when the jump was not taken and `tick` must scan. The skip pass
    /// already evaluates every core's next issue cycle, and nothing
    /// between the jump and the core phase of the landing tick can
    /// change core state, so `tick` reuses the verdicts instead of
    /// re-interrogating all cores.
    core_mask: Option<u64>,
    /// Whether the end-of-stream stage-1 flush has been issued. Lives on
    /// the system (not the run loop) so a checkpoint taken mid-run
    /// carries it.
    flushed: bool,
    /// Convergence bound computed by [`Self::begin_run`].
    run_limit: Cycle,
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
        assert!(
            cfg.coalescer.protocol.max_request_bytes() <= cfg.active_row_bytes(),
            "coalescer protocol allows {}B requests but the active device rows are {}B; \
             match the device row size to the protocol (e.g. \
             SimConfig::for_backend, or hmc.row_bytes = 1024 for the HBM protocol)",
            cfg.coalescer.protocol.max_request_bytes(),
            cfg.active_row_bytes()
        );
        let cores: Vec<CoreState> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| CoreState::new(i as u8, s, 0, cfg.core_outstanding))
            .collect();
        let n_cores = cores.len();
        SimSystem {
            hierarchy: CacheHierarchy::new(n_cores as u32, cfg.l1, cfg.l2),
            coalescer: kind.build(&cfg, trace_occupancy),
            mem: pac_mem::build_backend(&cfg),
            cores,
            kind,
            strides: vec![StrideState::default(); n_cores],
            now: 0,
            next_raw: 0,
            raw_meta: HashMap::default(),
            side_queue: VecDeque::new(),
            side_refused: None,
            prefetch_outstanding: 0,
            prefetches_issued: 0,
            mmu: None,
            oracle: None,
            recovery: None,
            trace: capture_trace.then(Vec::new),
            trace_cap: 1 << 20,
            tracer: TraceHandle::disabled(),
            last_counter_sample: 0,
            seen_violations: 0,
            stepping,
            dispatches: Vec::new(),
            responses: Vec::new(),
            satisfied: Vec::new(),
            blocked_scratch: Vec::new(),
            recovery_actions: Vec::new(),
            core_mask: None,
            flushed: false,
            run_limit: 0,
            cfg,
        }
    }

    /// Enable virtual memory: workload addresses become virtual and
    /// translate through `mmu` (scattered frames, TLB penalties).
    pub fn set_mmu(&mut self, mmu: pac_vm::Mmu) {
        self.mmu = Some(mmu);
    }

    /// The MMU, if virtual memory is enabled.
    pub fn mmu(&self) -> Option<&pac_vm::Mmu> {
        self.mmu.as_ref()
    }

    /// Attach the lockstep golden-model checker with geometry bounds
    /// derived from this system's configuration.
    pub fn attach_oracle(&mut self) {
        self.attach_oracle_with(OracleConfig::for_sim(&self.cfg));
    }

    /// Attach the lockstep checker with explicit parameters (e.g. a
    /// finite latency bound for delay-fault conformance runs).
    pub fn attach_oracle_with(&mut self, cfg: OracleConfig) {
        self.oracle = Some(LockstepChecker::new(cfg));
    }

    /// The checker's verdict so far. Conservation invariants only settle
    /// after a completed [`Self::run`]/[`Self::run_until`] (which
    /// finalize the checker).
    pub fn oracle_report(&self) -> Option<OracleReport> {
        self.oracle.as_ref().map(|o| o.report())
    }

    /// Arm deterministic fault injection on the memory device's
    /// response path. The plan is validated first; a plan that could
    /// never fire (zero fault budget) is rejected at arm time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        self.mem.set_fault_plan(plan)
    }

    /// Arm (or leave disabled) the transaction-recovery layer. With
    /// `cfg.enabled == false` this is a no-op and the layer stays
    /// absent, preserving bit-identical clean-path cycle counts. Call
    /// before [`Self::run`]/[`Self::run_until`].
    pub fn set_recovery_config(&mut self, cfg: RecoveryConfig) {
        self.recovery = cfg.enabled.then(|| RecoveryLayer::new(cfg));
    }

    /// The recovery layer's structured end-of-run report, when the
    /// layer is enabled. `report.aborted` marks runs terminated by the
    /// quiesce/drain path after retry exhaustion; `report.stuck` names
    /// the sequence tags that gave up.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery.as_ref().map(|r| r.report())
    }

    /// Enable structured-event tracing. One tracer is shared by the
    /// system, the coalescer, and the HMC device, so the flight
    /// recorder's ring holds an interleaved history of the whole
    /// request path. Call before [`Self::run`].
    pub fn set_trace_config(&mut self, cfg: TraceConfig) {
        let tracer = TraceHandle::new(cfg);
        self.coalescer.attach_tracer(tracer.clone());
        self.mem.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The shared tracer (disabled unless [`Self::set_trace_config`]
    /// enabled it). Snapshot events, counters, and flight dumps from
    /// here after a run.
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// Faults the device actually injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.mem.faults_injected()
    }

    /// Arm the device's hardware RAS layer (link CRC/retry/degrade on
    /// the HMC backend, ECC/scrub/sparing on the HBM). Validated
    /// against the configured backend at arm time. RAS events are
    /// conservation-preserving —
    /// the lockstep oracle must stay silent through every class (the
    /// one deliberate exception is the double-bit poison, which the
    /// recovery layer repairs before the oracle's final verdict).
    pub fn set_ras_plan(&mut self, plan: pac_types::RasPlan) -> Result<(), pac_types::RasPlanError> {
        self.mem.set_ras_plan(plan)
    }

    /// Cumulative RAS event counters, when a plan is armed.
    pub fn ras_stats(&self) -> Option<pac_types::RasStats> {
        self.mem.ras_stats()
    }

    fn alloc_raw(&mut self) -> u64 {
        let id = self.next_raw;
        self.next_raw += 1;
        id
    }

    /// Try to push a prepared raw request that was last refused at
    /// admission epoch `refused_at`. On backpressure, `Err` carries the
    /// epoch it now stands refused at. A memo hit — the epoch has not
    /// moved since the refusal, so neither has anything `would_accept`
    /// reads — is not offered again: it is charged as one refused
    /// retry, which leaves the coalescer exactly as the literal refused
    /// offer would have. The every-cycle reference never trusts the
    /// memo and keeps offering literally.
    fn offer(
        &mut self,
        pending: PendingPush,
        owner: Owner,
        refused_at: Option<u64>,
    ) -> Result<(), u64> {
        let epoch = self.coalescer.admission_epoch();
        if self.stepping == Stepping::SkipAhead && refused_at == Some(epoch) {
            debug_assert!(
                !self.coalescer.would_accept(&pending.req),
                "refusal memo hit on an acceptable request"
            );
            self.coalescer.note_refused_retries(&pending.req, self.now, 1);
            return Err(epoch);
        }
        // The oracle sees every admission attempt: the prediction is
        // sampled before the push so `would_accept`/`push_raw`
        // disagreement is caught at its source.
        let predicted =
            self.oracle.is_some() && self.coalescer.would_accept(&pending.req);
        let accepted = self.coalescer.push_raw(pending.req, self.now);
        if let Some(o) = &mut self.oracle {
            o.note_push(&pending.req, predicted, accepted, self.now);
        }
        if !accepted {
            return Err(self.coalescer.admission_epoch());
        }
        self.raw_meta.insert(
            pending.req.id,
            RawMeta { owner, line: pending.req.line(), is_fill: pending.is_fill },
        );
        if let Some(t) = &mut self.trace {
            if t.len() == self.trace_cap {
                eprintln!(
                    "warning: trace capture truncated at {} entries; replay sees a clipped stream",
                    self.trace_cap
                );
            }
            if t.len() < self.trace_cap {
                t.push(TraceEntry {
                    cycle: self.now,
                    addr: pending.req.addr,
                    op: pending.req.op,
                    kind: pending.req.kind,
                    data_bytes: pending.req.data_bytes,
                    core: pending.req.core,
                });
            }
        }
        Ok(())
    }

    /// Offer core `c`'s request and account the outcome on the core: an
    /// accepted request joins its outstanding window, a refused one
    /// waits as its retry.
    fn admit_core(&mut self, c: usize, pending: PendingPush, refused_at: Option<u64>) {
        match self.offer(pending, Owner::Core(c as u8), refused_at) {
            Ok(()) => {
                self.cores[c].outstanding += 1;
                self.cores[c].charge(self.now, 1);
            }
            Err(epoch) => self.cores[c].refuse(self.now, pending, epoch),
        }
    }

    fn enqueue_writeback(&mut self, line: u64) {
        let id = self.alloc_raw();
        let mut req = MemRequest::miss(id, line, Op::Store, u8::MAX, self.now);
        req.kind = RequestKind::WriteBack;
        req.data_bytes = CACHE_LINE_BYTES as u32;
        self.side_queue.push_back(SideEntry::Ready(req, Owner::WriteBack, false));
    }

    /// Admit side-queue entries (write-backs, prefetches) in order until
    /// the coalescer refuses one. Prefetch candidates probe the LLC only
    /// here; candidates overtaken by a demand miss are dropped.
    fn drain_side_queue(&mut self) {
        while let Some(&entry) = self.side_queue.front() {
            match entry {
                SideEntry::Ready(req, owner, is_fill) => {
                    let refused_at =
                        self.side_refused.and_then(|(id, epoch)| (id == req.id).then_some(epoch));
                    match self.offer(PendingPush { req, is_fill }, owner, refused_at) {
                        Ok(()) => {
                            self.side_queue.pop_front();
                        }
                        Err(epoch) => {
                            self.side_refused = Some((req.id, epoch));
                            break;
                        }
                    }
                }
                SideEntry::PfCandidate { addr, core } => {
                    self.side_queue.pop_front();
                    match self.hierarchy.llc_status(addr) {
                        // Already valid: the prefetcher checks the cache
                        // and drops the candidate.
                        cache_sim::cache::LineStatus::Valid => {
                            debug_assert!(self.prefetch_outstanding > 0);
                            self.prefetch_outstanding -= 1;
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
                        cache_sim::cache::LineStatus::Filling => {
                            let id = self.alloc_raw();
                            let mut req = MemRequest::miss(id, addr, Op::Load, core, self.now);
                            req.data_bytes = CACHE_LINE_BYTES as u32;
                            self.prefetches_issued += 1;
                            self.side_queue
                                .push_front(SideEntry::Ready(req, Owner::Prefetch, true));
                        }
                        cache_sim::cache::LineStatus::Absent => {
                            // The fill may still be refused when every
                            // way of the set is mid-fill; drop then.
                            let Some(victim) = self.hierarchy.prefetch(addr) else {
                                debug_assert!(self.prefetch_outstanding > 0);
                                self.prefetch_outstanding -= 1;
                                continue;
                            };
                            if let Some(wb) = victim {
                                self.enqueue_writeback(wb);
                            }
                            let id = self.alloc_raw();
                            let mut req = MemRequest::miss(id, addr, Op::Load, core, self.now);
                            req.data_bytes = CACHE_LINE_BYTES as u32;
                            self.prefetches_issued += 1;
                            // The fill is now reserved in the LLC; the
                            // request must eventually be admitted.
                            self.side_queue
                                .push_front(SideEntry::Ready(req, Owner::Prefetch, true));
                        }
                    }
                }
            }
        }
    }

    /// Feed the core's stream table with an L2-level access (any L1
    /// miss) and issue LLC prefetch fills to stay `prefetch_degree`
    /// lines ahead of each detected sequential stream.
    fn maybe_prefetch(&mut self, core: usize, line: u64) {
        let degree = self.cfg.prefetch_degree as u64;
        if degree == 0 {
            return;
        }
        let now = self.now;
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
        let row = self.cfg.active_row_bytes();
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
            && self.prefetch_outstanding < self.cfg.prefetch_max_outstanding
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

    fn issue_core_access(&mut self, c: usize) {
        // Replay a refused push first.
        if let Some(pending) = self.cores[c].retry.take() {
            let refused_at = self.cores[c].refused_at;
            self.admit_core(c, pending, refused_at);
            return;
        }

        let mut access = self.cores[c].take_access();
        if let Some(mmu) = &mut self.mmu {
            if access.kind != RequestKind::Fence {
                let t = mmu.translate(self.cores[c].process, access.addr, self.now);
                access.addr = t.paddr;
                if t.penalty > 0 {
                    // The page walk delays the core's next issue.
                    self.cores[c].ready_at = self.now + t.penalty;
                }
            }
        }
        match access.kind {
            RequestKind::Fence => {
                // Fences always enter (they only flush stage 1). Record
                // them in the captured trace so replay drives the same
                // flush points.
                let id = self.alloc_raw();
                let mut req = MemRequest::miss(id, 0, Op::Load, c as u8, self.now);
                req.kind = RequestKind::Fence;
                let predicted =
                    self.oracle.is_some() && self.coalescer.would_accept(&req);
                let accepted = self.coalescer.push_raw(req, self.now);
                if let Some(o) = &mut self.oracle {
                    o.note_push(&req, predicted, accepted, self.now);
                    // A fence must leave stage 1 empty behind it.
                    if let Some(streams) = self.coalescer.stage1_occupancy() {
                        o.note_fence(streams, self.now);
                    }
                }
                if let Some(t) = &mut self.trace {
                    if t.len() < self.trace_cap {
                        t.push(TraceEntry {
                            cycle: self.now,
                            addr: 0,
                            op: Op::Load,
                            kind: RequestKind::Fence,
                            data_bytes: 0,
                            core: c as u8,
                        });
                    }
                }
                self.cores[c].charge(self.now, 1);
            }
            RequestKind::Atomic => {
                self.tracer.emit(self.now, EventClass::Core, || EventKind::CoreIssue {
                    core: c as u32,
                    addr: access.addr,
                    is_store: access.op == Op::Store,
                });
                let id = self.alloc_raw();
                let mut req =
                    MemRequest::miss(id, access.addr, access.op, c as u8, self.now);
                req.kind = RequestKind::Atomic;
                req.data_bytes = access.data_bytes;
                self.admit_core(c, PendingPush { req, is_fill: false }, None);
            }
            RequestKind::Miss | RequestKind::WriteBack => {
                let is_write = access.op == Op::Store;
                let line = line_base(access.addr);
                self.tracer.emit(self.now, EventClass::Core, || EventKind::CoreIssue {
                    core: c as u32,
                    addr: access.addr,
                    is_store: is_write,
                });
                match self.hierarchy.access(c, access.addr, is_write) {
                    HierarchyOutcome::L1Hit => {
                        self.cores[c].stats.l1_hits += 1;
                        self.cores[c].charge(self.now, 1);
                        self.tracer.emit(self.now, EventClass::Core, || EventKind::L1Hit {
                            core: c as u32,
                            addr: access.addr,
                        });
                    }
                    HierarchyOutcome::L2Hit { writeback } => {
                        self.cores[c].stats.l2_hits += 1;
                        self.tracer.emit(self.now, EventClass::Core, || EventKind::L2Hit {
                            core: c as u32,
                            addr: access.addr,
                        });
                        if let Some(wb) = writeback {
                            self.enqueue_writeback(wb);
                        }
                        let lat = self.hierarchy.l2_latency();
                        self.cores[c].charge(self.now, lat);
                        // Sequential L2 hits keep prefetch streams alive
                        // (they are usually hits *on* prefetched lines).
                        self.maybe_prefetch(c, line);
                    }
                    HierarchyOutcome::Miss { pending: dup, writebacks } => {
                        self.cores[c].stats.misses += 1;
                        self.tracer.emit(self.now, EventClass::Core, || EventKind::CacheMiss {
                            core: c as u32,
                            addr: access.addr,
                        });
                        for wb in writebacks.into_iter().flatten() {
                            self.enqueue_writeback(wb);
                        }
                        // Write-allocate: a store miss fetches the line
                        // like a load; the dirty data returns to memory
                        // later as an eviction write-back. Duplicates
                        // (misses on filling lines) also validate the
                        // line when they complete — their completion
                        // implies the covering fetch returned.
                        let id = self.alloc_raw();
                        let mut req = MemRequest::miss(id, access.addr, Op::Load, c as u8, self.now);
                        req.data_bytes = access.data_bytes;
                        let _ = dup;
                        self.admit_core(c, PendingPush { req, is_fill: true }, None);
                        self.maybe_prefetch(c, line);
                    }
                }
            }
        }
    }

    /// Advance the whole system by one cycle.
    fn tick(&mut self) {
        let now = self.now;

        // Tell the controller how deep the miss/WB queues run before
        // offering anything (Fig 3 gives it that visibility), then
        // drain the queued write-backs and prefetch fills — they sit in
        // the miss/WB queues of Fig 3, ahead of this cycle's new core
        // accesses.
        self.coalescer.hint_pending(self.side_queue.len());
        self.drain_side_queue();

        // Cores issue, in ascending index order either way.
        match self.core_mask.take() {
            Some(mask) => {
                let mut bits = mask;
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    debug_assert!(self.cores[c].can_issue(now));
                    self.issue_core_access(c);
                }
            }
            None => {
                for c in 0..self.cores.len() {
                    if self.cores[c].can_issue(now) {
                        self.issue_core_access(c);
                    }
                }
            }
        }

        // Coalescer pipeline advances; dispatches go to the HMC.
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
            self.mem.submit(
                HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op },
                now,
            );
        }

        // Memory advances; responses release MSHRs, fill the LLC, and
        // unblock cores.
        self.mem.tick(now);
        self.mem.pop_responses(now, &mut self.responses);
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
                            self.mem.submit(
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
                if let Some(meta) = self.raw_meta.remove(&raw) {
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
                        self.mem.submit(HmcRequest { id, addr, bytes, op }, now);
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
            self.quiesce_abort(now);
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
            self.tracer.counter(now, CounterKind::BankConflicts, self.mem.bank_conflicts());
            // Per-cause issue-stall accounting, on backends that model
            // named timing rules (HBM); the channel counters are
            // always current mid-run.
            if let Some(stalls) = self.mem.stall_cycles() {
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
    /// through the coalescer, reclaiming its MSHR/stream and releasing
    /// the owning core's outstanding window, prefetch slot, or LLC fill
    /// reservation. The oracle is deliberately *not* fed these forced
    /// completions: the data loss is real and its conservation
    /// invariants should say so. The run loop then terminates with
    /// `converged == false` and a [`RecoveryReport`] naming the stuck
    /// sequence tags.
    fn quiesce_abort(&mut self, now: Cycle) {
        let ids = self.recovery.as_mut().expect("quiesce without recovery layer").drain_for_abort();
        for id in ids {
            self.satisfied.clear();
            self.coalescer.complete(id, now, &mut self.satisfied);
            for raw in self.satisfied.drain(..) {
                if let Some(meta) = self.raw_meta.remove(&raw) {
                    if meta.is_fill {
                        self.hierarchy.fill_complete(meta.line);
                    }
                    match meta.owner {
                        Owner::Core(core) => {
                            let core = &mut self.cores[core as usize];
                            debug_assert!(core.outstanding > 0);
                            core.outstanding -= 1;
                        }
                        Owner::Prefetch => {
                            debug_assert!(self.prefetch_outstanding > 0);
                            self.prefetch_outstanding -= 1;
                        }
                        Owner::WriteBack => {}
                    }
                }
            }
        }
    }

    /// Whether the recovery layer ran its quiesce/drain abort.
    fn recovery_aborted(&self) -> bool {
        self.recovery.as_ref().is_some_and(|r| r.aborted())
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.finished())
            && self.side_queue.is_empty()
            && self.coalescer.is_drained()
            && self.mem.is_idle()
            && self.recovery.as_ref().is_none_or(|r| r.outstanding() == 0)
    }

    /// Jump the clock from `self.now` to the earliest cycle at which
    /// anything outside the memory device can change, bulk-accounting
    /// the cycles in between.
    ///
    /// Three kinds of cycle are jumpable. Genuinely idle cycles (no
    /// component has an event) are free. Blocked-retry cycles — where
    /// the only activity is the side-queue head and/or core retries
    /// being offered and refused again — are skippable because refusal
    /// is a pure function of coalescer state, and that state is frozen
    /// until the next real event: the cycle-by-cycle reference would
    /// refuse the identical offers once per cycle, mutating nothing but
    /// the stall/comparator counters. Those per-cycle counter bumps are
    /// applied in bulk via [`MemoryCoalescer::note_refused_retries`], so
    /// metrics stay bit-identical to [`Stepping::EveryCycle`].
    /// Device-only cycles — a vault or channel issue, a data-ready
    /// hand-off to the return path — change nothing the rest of the
    /// system reads until a response becomes poppable, so the device is
    /// ticked alone through them ([`MemoryBackend::fast_forward`]).
    ///
    /// Called between ticks, when component state is settled — the
    /// refusal predictions use [`MemoryCoalescer::would_accept`] against
    /// the final state of the tick just executed, never a stale
    /// observation from inside it. A refusal is recorded in the refusal
    /// memo at the coalescer's admission epoch, and a request already
    /// refused at the current epoch counts as blocked without asking
    /// again. Component events are conservative lower bounds: an early
    /// landing tick is a harmless no-op, while anything that would
    /// *accept* an offer or change state pins the clock to the present.
    ///
    /// `clamp` caps the landing cycle (the caller's pause/limit
    /// boundary): a jump never passes it, and at the boundary there is
    /// no jump, so [`Self::advance`] pauses exactly on `stop_at` under
    /// either stepping. The split bulk accounting ([now, clamp) here,
    /// the rest after resuming) sums to the unclamped totals.
    fn skip_to_next_event(&mut self, clamp: Cycle) {
        let now = self.now;
        self.core_mask = None;
        if now >= clamp {
            return;
        }
        let epoch = self.coalescer.admission_epoch();
        // Offers the coming cycles would repeat: the side-queue head
        // plus every core's pending retry. Any source whose offer would
        // be accepted — or a prefetch candidate, which always makes
        // progress — is real work *this* cycle: no jump.
        self.blocked_scratch.clear();
        match self.side_queue.front() {
            None => {}
            Some(&SideEntry::Ready(req, _, _)) => {
                if self.side_refused != Some((req.id, epoch)) {
                    if self.coalescer.would_accept(&req) {
                        return;
                    }
                    self.side_refused = Some((req.id, epoch));
                }
                self.blocked_scratch.push(req);
            }
            Some(SideEntry::PfCandidate { .. }) => return,
        }
        let mut best = u64::MAX;
        // Cores eligible the moment the jump lands: blocked retriers
        // (they re-offer at every jumped cycle and again at landing)
        // plus whichever cores' issue cycle IS the landing cycle.
        let mut blocked_mask = 0u64;
        let mut best_core = u64::MAX;
        let mut best_core_mask = 0u64;
        let wide = self.cores.len() > 64;
        for i in 0..self.cores.len() {
            let core = &self.cores[i];
            match core.next_issue_cycle(now) {
                None => {}
                Some(c) if c > now => {
                    best = best.min(c);
                    if c < best_core {
                        best_core = c;
                        best_core_mask = 1 << (i & 63);
                    } else if c == best_core {
                        best_core_mask |= 1 << (i & 63);
                    }
                }
                Some(_) => {
                    // A fresh access is real work this cycle.
                    let Some(p) = core.retry else { return };
                    if core.refused_at != Some(epoch) {
                        if self.coalescer.would_accept(&p.req) {
                            return;
                        }
                        self.cores[i].refused_at = Some(epoch);
                    }
                    self.blocked_scratch.push(p.req);
                    blocked_mask |= 1 << (i & 63);
                }
            }
        }
        if let Some(c) = self.coalescer.next_event(now) {
            if c <= now {
                return;
            }
            best = best.min(c);
        }
        // Watchdog deadlines are real events: a jump past one would
        // fire the retry late and (on delay-class runs) let the oracle's
        // latency bound trip before the repair lands.
        if let Some(c) = self.recovery.as_mut().and_then(|r| r.next_deadline()) {
            if c <= now {
                return;
            }
            best = best.min(c);
        }
        // Everything but the device is settled until `best`: tick the
        // device alone up to its first event visible outside it (a
        // response to pop), never at or past `best` or `clamp`.
        if let Some(c) = self.mem.fast_forward(now, best.min(clamp)) {
            if c <= now {
                return;
            }
            best = best.min(c);
        }
        if best == u64::MAX {
            // Quiescent with the clock pinned: if work remains in
            // flight the run loop's convergence assert trips rather
            // than spinning silently.
            return;
        }
        let best = best.min(clamp);
        // Cycles [now, best) would each re-offer every blocked request
        // exactly once and be refused; account those offers and jump.
        let n = best - now;
        for i in 0..self.blocked_scratch.len() {
            let req = self.blocked_scratch[i];
            self.coalescer.note_refused_retries(&req, now, n);
        }
        if !wide {
            let mask =
                if best == best_core { blocked_mask | best_core_mask } else { blocked_mask };
            self.core_mask = Some(mask);
        }
        self.now = best;
    }

    /// Prefetch fills issued over the run.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Arm a run: load each core's access budget and compute the
    /// convergence bound. The run then proceeds through one or more
    /// [`Self::advance`] legs and ends with [`Self::finish_run`] —
    /// [`Self::run`]/[`Self::run_until`] package the common one-leg
    /// case. A system restored from a checkpoint must NOT call this:
    /// the budget, flush flag, and bound are part of the snapshot.
    pub fn begin_run(&mut self, accesses_per_core: u64) {
        for c in &mut self.cores {
            c.remaining = accesses_per_core;
        }
        self.run_limit = accesses_per_core
            .saturating_mul(self.cores.len() as u64)
            .saturating_mul(2000)
            .max(10_000_000);
        self.flushed = false;
    }

    /// Drive the run loop until it drains, aborts, reaches
    /// `cycle_limit`, or reaches `stop_at`. The `Paused` return leaves
    /// the system between ticks — the checkpoint-safe boundary where
    /// every per-tick scratch buffer is drained — so the caller can
    /// [`Self::save_state`] and later continue (here or in a restored
    /// process) with another `advance` call, bit-identically to a run
    /// that never stopped.
    pub fn advance(&mut self, cycle_limit: Cycle, stop_at: Cycle) -> RunProgress {
        while !self.all_done() {
            if self.now >= cycle_limit {
                return RunProgress::CycleLimit;
            }
            if self.now >= stop_at {
                return RunProgress::Paused;
            }
            self.tick();
            if self.recovery_aborted() {
                // Quiesce/drain ran: structures are reclaimed and the
                // run is over. Metrics are still collected — the
                // RecoveryReport carries the verdict.
                return RunProgress::Aborted;
            }
            if !self.flushed && self.cores.iter().all(|c| c.remaining == 0) {
                // End of the instruction streams: flush stragglers out
                // of stage 1 so the drain terminates promptly.
                self.coalescer.flush(self.now);
                self.flushed = true;
            }
            if self.stepping == Stepping::SkipAhead {
                // `tick` already advanced `now` by one; jump the clock
                // over idle and blocked-retry cycles from there, never
                // past the caller's pause or cycle-limit boundary.
                self.skip_to_next_event(stop_at.min(cycle_limit));
            }
        }
        RunProgress::Done
    }

    /// Settle end-of-run statistics and collect the metrics. Call once,
    /// after [`Self::advance`] returns a terminal (non-`Paused`) state.
    pub fn finish_run(&mut self) -> RunMetrics {
        self.finalize_run();
        RunMetrics::collect(self)
    }

    /// Run each core for `accesses_per_core` accesses and drain.
    pub fn run(&mut self, accesses_per_core: u64) -> RunMetrics {
        self.begin_run(accesses_per_core);
        let progress = self.advance(self.run_limit, Cycle::MAX);
        assert!(
            progress != RunProgress::CycleLimit,
            "simulation failed to converge by cycle {}",
            self.now
        );
        self.finish_run()
    }

    /// End-of-run bookkeeping shared by [`Self::run`] and
    /// [`Self::run_until`]: settle component statistics, fold the
    /// recovery counters into the coalescer's record, finalize the
    /// oracle's conservation invariants.
    fn finalize_run(&mut self) {
        self.mem.finalize_stats();
        self.coalescer.finalize_stats();
        if let Some(rec) = &self.recovery {
            rec.fold_into(self.coalescer.stats_mut());
        }
        if let Some(o) = &mut self.oracle {
            o.finalize(self.now);
        }
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
        if self.mmu.is_some() {
            return Err(pac_types::SnapError::Unsupported(
                "MMU-enabled systems do not checkpoint (TLB and page-table state)".into(),
            ));
        }
        let mut w = pac_types::SnapWriter::new();
        self.cfg.save(&mut w);
        self.kind.save(&mut w);
        self.stepping.save(&mut w);
        self.cores.len().save(&mut w);
        for c in &self.cores {
            c.save_snapshot(&mut w);
        }
        self.hierarchy.save(&mut w);
        self.coalescer.save_state(&mut w);
        self.mem.save_state(&mut w);
        self.now.save(&mut w);
        self.next_raw.save(&mut w);
        self.raw_meta.save(&mut w);
        self.side_queue.save(&mut w);
        self.strides.save(&mut w);
        self.prefetch_outstanding.save(&mut w);
        self.prefetches_issued.save(&mut w);
        self.oracle.save(&mut w);
        self.recovery.save(&mut w);
        self.trace.save(&mut w);
        self.trace_cap.save(&mut w);
        self.last_counter_sample.save(&mut w);
        self.seen_violations.save(&mut w);
        self.core_mask.save(&mut w);
        self.flushed.save(&mut w);
        self.run_limit.save(&mut w);
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
        let mem = pac_mem::load_backend(&cfg, &mut r)?;
        let now = Cycle::load(&mut r)?;
        let next_raw = u64::load(&mut r)?;
        let raw_meta = HashMap::<u64, RawMeta, IdHash>::load(&mut r)?;
        let side_queue = VecDeque::<SideEntry>::load(&mut r)?;
        let strides = Vec::<StrideState>::load(&mut r)?;
        let prefetch_outstanding = usize::load(&mut r)?;
        let prefetches_issued = u64::load(&mut r)?;
        let oracle = Option::<LockstepChecker>::load(&mut r)?;
        let recovery = Option::<RecoveryLayer>::load(&mut r)?;
        let trace = Option::<Vec<TraceEntry>>::load(&mut r)?;
        let trace_cap = usize::load(&mut r)?;
        let last_counter_sample = Cycle::load(&mut r)?;
        let seen_violations = u64::load(&mut r)?;
        let core_mask = Option::<u64>::load(&mut r)?;
        let flushed = bool::load(&mut r)?;
        let run_limit = Cycle::load(&mut r)?;
        r.finish()?;
        Ok(SimSystem {
            cfg,
            kind,
            cores,
            hierarchy,
            coalescer,
            mem,
            now,
            next_raw,
            raw_meta,
            side_queue,
            side_refused: None,
            strides,
            prefetch_outstanding,
            prefetches_issued,
            mmu: None,
            oracle,
            recovery,
            trace,
            trace_cap,
            tracer: TraceHandle::disabled(),
            last_counter_sample,
            seen_violations,
            stepping,
            dispatches: Vec::new(),
            responses: Vec::new(),
            satisfied: Vec::new(),
            blocked_scratch: Vec::new(),
            recovery_actions: Vec::new(),
            core_mask,
            flushed,
            run_limit,
        })
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

    // ---- accessors for metrics collection ----

    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Convergence bound computed by [`Self::begin_run`] (or restored
    /// from a checkpoint). The cycle limit [`Self::run`] enforces.
    pub fn run_limit(&self) -> Cycle {
        self.run_limit
    }

    pub fn kind(&self) -> CoalescerKind {
        self.kind
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn coalescer_stats(&self) -> &pac_core::CoalescerStats {
        self.coalescer.stats()
    }

    /// Device transaction statistics (the name predates the second
    /// backend; the stats shape is shared by all of them).
    pub fn hmc_stats(&self) -> &hmc_sim::HmcStats {
        self.mem.stats()
    }

    /// Device energy breakdown (shared event taxonomy across backends).
    pub fn hmc_energy(&self) -> &hmc_sim::EnergyBreakdown {
        self.mem.energy()
    }

    /// Which memory backend this system runs on.
    pub fn backend(&self) -> pac_types::BackendKind {
        self.mem.kind()
    }

    pub fn bank_conflicts(&self) -> u64 {
        self.mem.bank_conflicts()
    }

    /// Per-cause issue-stall cycles from the backend, where the model
    /// attributes them (HBM; `None` on HMC).
    pub fn stall_cycles(&self) -> Option<pac_types::StallCycles> {
        self.mem.stall_cycles()
    }

    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    pub fn cores(&self) -> &[CoreState] {
        &self.cores
    }

    /// The captured raw miss trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.take().unwrap_or_default()
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
