//! The one stacked-memory device: submission, the unit walk, response
//! scheduling with its fault injector, and response return, written once
//! and instantiated per backend over a [`Topology`].
//!
//! Requests enter through [`Device::submit`]: the topology carries each
//! one over its network (the HMC's round-robin links and crossbar, the
//! HBM's address-routed channel buses) into the queue of the unit the
//! address maps to. [`Device::tick`] advances the unit controllers (HMC
//! vaults, HBM pseudo-channels); once a completed DRAM access's data is
//! ready, the topology carries its response back, the fault injector may
//! tamper with it, and it surfaces through [`Device::pop_responses`].
//! What sets one stacked memory apart from another is the network in
//! front of the banks and the unit behind it, and that is all a
//! [`Topology`] supplies: [`crate::Hmc`] and the HBM of `pac-mem` are
//! the two instantiations.

use crate::energy::EnergyBreakdown;
use crate::stats::HmcStats;
use crate::vault::{QueuedRequest, ReadyResponse};
use pac_trace::{DumpTrigger, EventKind, TraceHandle};
use pac_types::protocol::FLIT_BYTES;
use pac_types::snapshot::Snapshot;
use pac_types::{
    BackendKind, Cycle, EventClass, FaultClass, FaultPlan, FaultPlanError, IdHash, Op, RasPlan,
    RasPlanError, RasStats, StallCycles,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Debug;

/// A request presented to the device: a packetized read or write with a
/// payload between one FLIT (16 B) and the row size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmcRequest {
    /// Caller-chosen id, echoed on the response.
    pub id: u64,
    /// Physical byte address (determines unit/bank/row).
    pub addr: u64,
    /// Payload bytes.
    pub bytes: u64,
    pub op: Op,
}

/// A completed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmcResponse {
    pub id: u64,
    pub addr: u64,
    pub bytes: u64,
    pub op: Op,
    /// Cycle the request was submitted.
    pub submit_cycle: Cycle,
    /// Cycle the response finished returning to the host.
    pub complete_cycle: Cycle,
}

impl HmcResponse {
    /// End-to-end latency of this transaction.
    pub fn latency(&self) -> Cycle {
        self.complete_cycle - self.submit_cycle
    }
}

/// FLITs on the request packet: 1 control FLIT, plus the payload for
/// stores (write data travels with the request).
pub fn request_flits(req: &HmcRequest) -> u64 {
    1 + if req.op == Op::Store { req.bytes.div_ceil(FLIT_BYTES) } else { 0 }
}

/// FLITs on the response packet: 1 control FLIT, plus the payload for
/// loads.
pub fn response_flits(bytes: u64, op: Op) -> u64 {
    1 + if op == Op::Load { bytes.div_ceil(FLIT_BYTES) } else { 0 }
}

/// A finished response ordered by delivery cycle:
/// `(complete, id, addr, bytes, is_store, submit_cycle)`.
type CompletedEntry = (Cycle, u64, u64, u64, bool, Cycle);

/// Where the request path delivered a request.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Unit whose queue it lands in.
    pub unit: u32,
    /// Bank within that unit.
    pub bank: u32,
    /// Link (or channel bus) it travelled; the response returns on it.
    pub link: u32,
    /// Whether it crossed to a remote quadrant.
    pub remote: bool,
    /// Cycle it lands in the unit queue.
    pub arrival: Cycle,
}

/// A service unit behind the network: an in-order controller over its
/// closed-page banks ([`crate::vault::Vault`], or the HBM pseudo-channel
/// of `pac-mem`). Every observable effect of an issue is a pure function
/// of the controller state.
pub trait Unit: Snapshot + Debug {
    type Config;

    fn new(cfg: &Self::Config) -> Self;

    /// Queue a request for service.
    fn enqueue(&mut self, req: QueuedRequest);

    /// True if no request is queued.
    fn is_idle(&self) -> bool;

    /// Issue every head request that can start by `now`: the completed
    /// DRAM accesses are appended to `out`, and their energy is charged.
    fn tick(
        &mut self,
        now: Cycle,
        cfg: &Self::Config,
        energy: &mut EnergyBreakdown,
        out: &mut Vec<ReadyResponse>,
    );

    /// Earliest cycle ≥ `now` at which [`Unit::tick`] could issue the
    /// head request, or `None` when the queue is empty. Exact for the
    /// current head: every term moves only when this unit issues.
    fn next_head_start(&self, cfg: &Self::Config, now: Cycle) -> Option<Cycle>;

    /// Total bank conflicts.
    fn conflicts(&self) -> u64;

    /// Cumulative per-cause issue-stall cycles, for units that model
    /// named timing rules.
    fn stalls(&self) -> Option<StallCycles> {
        None
    }
}

/// What sets one stacked memory apart from another: the network in front
/// of the units (request and return paths with their timing, energy and
/// RAS effects), the unit model, and a few facts about both.
///
/// The device is monomorphized in `pac-mem`, so the per-request and
/// per-tick methods of a topology or unit defined in another crate
/// (`send`, `send_back`, `min_return`, `enqueue`, `next_head_start`)
/// carry `#[inline]`; without it each is an out-of-line cross-crate call
/// and trace replay on the HMC runs about 6 % slower.
pub trait Topology: Snapshot + Debug {
    /// Device geometry, timing and energy constants.
    type Config: Debug;
    type Unit: Unit<Config = Self::Config>;
    /// Runtime state of the backend's RAS layer while a plan is armed.
    type Ras: Snapshot + Debug;
    const KIND: BackendKind;

    fn new(cfg: Self::Config) -> Self;

    fn config(&self) -> &Self::Config;

    /// Number of units: the bound fault plans are validated against.
    fn units(&self) -> u32;

    /// Row size: no request may span a row.
    fn row_bytes(&self) -> u64;

    /// The unit an address maps to.
    fn unit_of(&self, addr: u64) -> u32;

    /// Fewest cycles from a response's data-ready hand-off to its
    /// completion.
    fn min_return(&self) -> Cycle;

    /// Validate `plan` against this backend and build its RAS state.
    fn arm_ras(&self, plan: RasPlan) -> Result<Self::Ras, RasPlanError>;

    fn ras_stats(ras: &Self::Ras) -> RasStats;

    /// The request path: carry `req`, submitted at `now`, over the
    /// network to its unit, charging the route energy.
    fn send(
        &mut self,
        ras: Option<&mut Self::Ras>,
        req: &HmcRequest,
        now: Cycle,
        energy: &mut EnergyBreakdown,
        tracer: &TraceHandle,
    ) -> Route;

    /// The return path: carry the response of `r` back to the host,
    /// charging its energy. Returns the cycle it completes and the
    /// address it echoes, after any RAS effect on either.
    fn send_back(
        &mut self,
        ras: Option<&mut Self::Ras>,
        r: &ReadyResponse,
        energy: &mut EnergyBreakdown,
        tracer: &TraceHandle,
    ) -> (Cycle, u64);
}

/// A stacked-memory device over topology `T`.
#[derive(Debug)]
pub struct Device<T: Topology> {
    /// The network in front of the units, holding the device config.
    topo: T,
    units: Vec<T::Unit>,
    completed: BinaryHeap<Reverse<CompletedEntry>>,
    /// DRAM accesses done, waiting for their data-ready time before
    /// claiming a return slot (keyed by data_ready, then a tie sequence
    /// for determinism).
    pending_rsp: BinaryHeap<Reverse<(Cycle, u64)>>,
    pending_seq: u64,
    pending_store: HashMap<u64, ReadyResponse, IdHash>,
    inflight: usize,
    /// Bitset of units with a non-empty queue; `tick` visits only these
    /// (in ascending unit order, preserving the full-scan service order)
    /// instead of sweeping every unit every cycle.
    active: Vec<u64>,
    /// Per-unit cached earliest head-issue cycle (`u64::MAX` when the
    /// unit is idle). The head's start cycle is a pure function of the
    /// unit state, so the value stays exact until the unit issues or an
    /// empty queue gains a head — `tick` skips a unit (and all its
    /// timing arithmetic) until this cycle arrives.
    unit_next: Vec<Cycle>,
    /// Cached minimum of `unit_next` over the active units (`u64::MAX`
    /// when none is active) — the earliest cycle at which *any* unit can
    /// issue. Folded on `submit`, recomputed during the unit walk in
    /// `tick`; lets the common no-unit-work tick and `next_event` answer
    /// without touching the per-unit array.
    unit_next_min: Cycle,
    scratch: Vec<ReadyResponse>,
    /// Active fault-injection plan (conformance testing only).
    fault_plan: Option<FaultPlan>,
    /// Faults injected so far under `fault_plan`.
    faults_injected: u64,
    /// The backend's RAS layer, when armed via [`Device::set_ras_plan`].
    /// `None` (the default) is bit-identical to a device without the RAS
    /// layer compiled in.
    ras: Option<T::Ras>,
    /// Aggregate statistics.
    pub stats: HmcStats,
    /// Energy breakdown by operation class.
    pub energy: EnergyBreakdown,
    /// Structured-event tracer (disabled by default; zero-cost off).
    tracer: TraceHandle,
}

// `scratch` is empty between ticks (every tick takes and restores it
// drained) and the tracer is re-attached by the caller after restore —
// both are reset on load; everything else round-trips exactly.
pac_types::snapshot_fields!(impl<T: Topology> Device<T> {
    topo,
    units,
    completed,
    pending_rsp,
    pending_seq,
    pending_store,
    inflight,
    active,
    unit_next,
    unit_next_min,
    fault_plan,
    faults_injected,
    ras,
    stats,
    energy,
} skip {
    scratch: Vec::new(),
    tracer: TraceHandle::disabled(),
});

impl<T: Topology> Device<T> {
    pub fn new(cfg: T::Config) -> Self {
        let topo = T::new(cfg);
        let units = topo.units() as usize;
        Device {
            units: (0..units).map(|_| T::Unit::new(topo.config())).collect(),
            completed: BinaryHeap::new(),
            pending_rsp: BinaryHeap::new(),
            pending_seq: 0,
            pending_store: HashMap::default(),
            inflight: 0,
            active: vec![0; units.div_ceil(64)],
            unit_next: vec![u64::MAX; units],
            unit_next_min: u64::MAX,
            scratch: Vec::new(),
            fault_plan: None,
            faults_injected: 0,
            ras: None,
            stats: HmcStats::default(),
            energy: EnergyBreakdown::new(),
            tracer: TraceHandle::disabled(),
            topo,
        }
    }

    /// Attach a structured-event tracer. The device emits
    /// [`EventClass::Hmc`] events (submit, unit service, response, RAS
    /// events) and triggers a flight-recorder dump when a planned fault
    /// fires.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Device configuration.
    pub fn config(&self) -> &T::Config {
        self.topo.config()
    }

    /// Arm deterministic response-path fault injection. Conformance
    /// testing only — a plan makes the device deliberately *wrong* in
    /// the planned way so the oracle can prove it notices. The plan is
    /// validated against this device's topology first (rate clamped to
    /// 1024, zero fault budgets rejected, `target_unit` bounds-checked
    /// against the unit count) so a plan that could never fire is an
    /// error at arm time, not a silently clean run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        self.fault_plan = Some(plan.validate_for(self.topo.units())?);
        Ok(())
    }

    /// How many faults the active plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Arm the backend's RAS layer. The plan is validated against this
    /// device (its own classes only, targets bounds-checked), so a plan
    /// that could never fire is an error at arm time.
    pub fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        self.ras = Some(self.topo.arm_ras(plan)?);
        Ok(())
    }

    /// Cumulative RAS event counters, when a plan is armed.
    pub fn ras_stats(&self) -> Option<RasStats> {
        self.ras.as_ref().map(T::ras_stats)
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight == 0
    }

    /// Submit a request at cycle `now`. Panics if the payload is empty
    /// or spans a row boundary.
    pub fn submit(&mut self, req: HmcRequest, now: Cycle) {
        let row = self.topo.row_bytes();
        assert!(req.bytes > 0, "zero-byte request");
        assert!(req.bytes <= row, "request of {}B exceeds {row}B row", req.bytes);
        assert!(
            req.addr % row + req.bytes <= row,
            "request {:#x}+{}B spans a {row}B row boundary",
            req.addr,
            req.bytes
        );

        let Route { unit, bank, link, remote, arrival } =
            self.topo.send(self.ras.as_mut(), &req, now, &mut self.energy, &self.tracer);
        self.tracer.emit(now, EventClass::Hmc, || EventKind::HmcSubmit {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            vault: unit,
            link,
            remote,
        });
        if remote {
            self.stats.remote_routes += 1;
        } else {
            self.stats.local_routes += 1;
        }
        self.stats.requests += 1;
        self.stats.payload_bytes += req.bytes;
        self.stats.transaction_bytes +=
            (request_flits(&req) + response_flits(req.bytes, req.op)) * FLIT_BYTES;

        let queued = QueuedRequest {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            bank,
            arrival,
            submit_cycle: now,
            link,
            remote,
        };
        let idx = unit as usize;
        self.active[idx / 64] |= 1 << (idx % 64);
        let u = &mut self.units[idx];
        let was_idle = u.is_idle();
        u.enqueue(queued);
        if was_idle {
            // The enqueue installed a new head; a non-empty queue keeps
            // its head (and therefore its cached start) unchanged.
            let start = u.next_head_start(self.topo.config(), now).expect("just enqueued");
            self.unit_next[idx] = start;
            self.unit_next_min = self.unit_next_min.min(start);
        }
        self.inflight += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight as u64);
    }

    /// Advance the device to cycle `now`: issue DRAM references in every
    /// unit and route finished responses back to the host.
    pub fn tick(&mut self, now: Cycle) {
        if self.inflight == 0 {
            return;
        }
        let mut ready = std::mem::take(&mut self.scratch);
        if self.unit_next_min <= now {
            let mut min = u64::MAX;
            for w in 0..self.active.len() {
                let mut bits = self.active[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = w * 64 + b;
                    // The cached head start is exact: visiting earlier
                    // would be a guaranteed no-op, so skip the unit.
                    if self.unit_next[idx] > now {
                        min = min.min(self.unit_next[idx]);
                        continue;
                    }
                    let cfg = self.topo.config();
                    let unit = &mut self.units[idx];
                    unit.tick(now, cfg, &mut self.energy, &mut ready);
                    match unit.next_head_start(cfg, now) {
                        Some(c) => {
                            self.unit_next[idx] = c;
                            min = min.min(c);
                        }
                        None => {
                            self.unit_next[idx] = u64::MAX;
                            self.active[w] &= !(1u64 << b);
                        }
                    }
                }
            }
            self.unit_next_min = min;
        }
        // Responses claim return slots only once their data is actually
        // ready (in data-ready order), so an early-issued reference with
        // far-future data cannot reserve the return path ahead of a
        // response that is ready sooner.
        for r in ready.drain(..) {
            self.tracer.emit(now, EventClass::Hmc, || EventKind::VaultService {
                id: r.req.id,
                vault: self.topo.unit_of(r.req.addr),
                bank: r.req.bank,
                arrival: r.req.arrival,
                data_ready: r.data_ready,
            });
            let key = self.pending_seq;
            self.pending_seq += 1;
            self.pending_rsp.push(Reverse((r.data_ready, key)));
            self.pending_store.insert(key, r);
        }
        self.scratch = ready;
        while let Some(&Reverse((data_ready, key))) = self.pending_rsp.peek() {
            if data_ready > now {
                break;
            }
            self.pending_rsp.pop();
            let r = self.pending_store.remove(&key).expect("pending response");
            self.schedule_response(r);
        }
    }

    /// Send a response back and, under an armed fault plan, tamper with
    /// it: the one injector every backend shares, so the oracle's
    /// invariants fire the same way on all of them.
    fn schedule_response(&mut self, r: ReadyResponse) {
        let (complete, addr) =
            self.topo.send_back(self.ras.as_mut(), &r, &mut self.energy, &self.tracer);
        let req = r.req;
        let mut entry: CompletedEntry =
            (complete, req.id, addr, req.bytes, req.op == Op::Store, req.submit_cycle);
        if let Some(plan) = self.fault_plan {
            // Validation guarantees max_faults >= 1 (u64::MAX = unbounded)
            // and that any target_unit names a real unit.
            let budget_ok = self.faults_injected < plan.max_faults;
            let unit_ok = plan.target_unit.is_none_or(|t| t == self.topo.unit_of(req.addr));
            if budget_ok && unit_ok && plan.should_inject(req.id) {
                self.faults_injected += 1;
                self.tracer.emit(r.data_ready, EventClass::Diagnostic, || EventKind::FaultInjected {
                    id: req.id,
                    class: plan.class,
                });
                self.tracer.trigger_dump(
                    r.data_ready,
                    DumpTrigger::Fault { class: plan.class, id: req.id },
                );
                match plan.class {
                    FaultClass::DropResponse => {
                        // The unit serviced the access but the completion
                        // packet is lost. Release the in-flight slot here
                        // (`pop_responses` will never see this entry) so
                        // the device can still drain to idle.
                        self.inflight -= 1;
                        return;
                    }
                    FaultClass::DuplicateResponse => {
                        // Deliver the same completion twice. The extra pop
                        // decrements `inflight` a second time, so balance
                        // the counter up front.
                        self.completed.push(Reverse(entry));
                        self.inflight += 1;
                    }
                    FaultClass::DelayResponse => entry.0 += plan.delay_cycles,
                    // Echo an adjacent line's address back on the wire.
                    FaultClass::CorruptAddr => entry.2 ^= 0x40,
                }
            }
        }
        self.completed.push(Reverse(entry));
    }

    /// Earliest cycle ≥ `now` at which [`Device::tick`] or
    /// [`Device::pop_responses`] could make progress, or `None` when the
    /// device is idle. Used by the event-driven simulation core to skip
    /// cycles the device would spend waiting on DRAM or return timing.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.inflight == 0 {
            return None;
        }
        let mut best = u64::MAX;
        if let Some(&Reverse((complete, ..))) = self.completed.peek() {
            best = best.min(complete.max(now));
        }
        if let Some(&Reverse((data_ready, _))) = self.pending_rsp.peek() {
            best = best.min(data_ready.max(now));
        }
        // Cached by `tick`/`submit`; exact, and already ≥ the cycle it
        // was computed at, so only the `now` clamp of a stale-but-passed
        // start is needed.
        best = best.min(self.unit_next_min.max(now));
        (best != u64::MAX).then_some(best)
    }

    /// Earliest cycle ≥ `now` at which [`Device::pop_responses`] returns
    /// a response, or `None` when none is on its way back. Unit issues
    /// and data-ready hand-offs before that cycle stay inside the device:
    /// a response scheduled by one completes strictly after the tick that
    /// schedules it. It is [`Device::next_event`] while a fault plan is
    /// armed, because a dropped response changes the in-flight count at
    /// its data-ready cycle, and on a zero-cycle return path, where a
    /// response could complete inside the tick that schedules it.
    pub fn next_visible(&self, now: Cycle) -> Option<Cycle> {
        if self.fault_plan.is_some() || self.topo.min_return() == 0 {
            return self.next_event(now);
        }
        self.completed.peek().map(|&Reverse((complete, ..))| complete.max(now))
    }

    /// Drain every response whose return completed by `now`.
    pub fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>) {
        while let Some(Reverse((complete, ..))) = self.completed.peek() {
            if *complete > now {
                break;
            }
            let Reverse((complete_cycle, id, addr, bytes, store, submit_cycle)) =
                self.completed.pop().expect("peeked");
            let rsp = HmcResponse {
                id,
                addr,
                bytes,
                op: if store { Op::Store } else { Op::Load },
                submit_cycle,
                complete_cycle,
            };
            self.stats.complete(rsp.latency());
            self.tracer.emit(complete_cycle, EventClass::Hmc, || EventKind::HmcResponse {
                id: rsp.id,
                addr: rsp.addr,
                latency: rsp.latency(),
            });
            self.inflight -= 1;
            out.push(rsp);
        }
    }

    /// Total bank conflicts across all units.
    pub fn bank_conflicts(&self) -> u64 {
        self.units.iter().map(Unit::conflicts).sum()
    }

    /// Per-cause issue-stall cycles summed across units, for unit models
    /// that name their timing rules.
    pub fn stall_cycles(&self) -> Option<StallCycles> {
        self.units.iter().try_fold(StallCycles::default(), |mut total, u| {
            total.merge(&u.stalls()?);
            Some(total)
        })
    }

    /// Synchronize the conflict counter into `stats` (cheap; called by
    /// the experiment harness at end of run).
    pub fn finalize_stats(&mut self) {
        self.stats.bank_conflicts = self.bank_conflicts();
    }
}
