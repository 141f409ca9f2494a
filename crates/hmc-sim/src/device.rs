//! The top-level HMC device: link dispatch, crossbar routing, vault
//! service, and response return.
//!
//! Requests enter through [`Hmc::submit`]: the controller assigns them to
//! SERDES links round-robin (the policy the paper identifies as the cause
//! of remote-vault routing for un-coalesced requests, Sec 2.1.2), streams
//! their FLITs over the link, routes them across the crossbar — charging
//! the local or remote route energy — and drops them into the target
//! vault's queue. [`Hmc::tick`] advances the vault controllers; completed
//! DRAM accesses are routed back over the crossbar and link, and surface
//! through [`Hmc::pop_responses`].

use crate::energy::{EnergyBreakdown, EnergyClass};
use crate::stats::HmcStats;
use crate::vault::{QueuedRequest, ReadyResponse, Vault};
use pac_trace::{DumpTrigger, EventKind, TraceHandle};
use pac_types::protocol::FLIT_BYTES;
use pac_types::{
    BackendKind, Cycle, EventClass, FaultClass, FaultPlan, FaultPlanError, HmcDeviceConfig,
    IdHash, Op, RasClass, RasPlan, RasPlanError, RasStats,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// A request presented to the device: a packetized read or write with a
/// payload between one FLIT (16 B) and the row size (256 B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmcRequest {
    /// Caller-chosen id, echoed on the response.
    pub id: u64,
    /// Physical byte address (determines vault/bank/row).
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
    /// Cycle the response finished returning over the link.
    pub complete_cycle: Cycle,
}

impl HmcResponse {
    /// End-to-end latency of this transaction.
    pub fn latency(&self) -> Cycle {
        self.complete_cycle - self.submit_cycle
    }
}

/// A finished response ordered by delivery cycle:
/// `(complete, id, addr, bytes, is_store, submit_cycle)`.
type CompletedEntry = (Cycle, u64, u64, u64, bool, Cycle);

/// Runtime state of the SERDES link RAS machinery under an armed
/// [`RasPlan`]: per-link retry counters feeding the degradation ladder,
/// width/retirement flags, and the flow-control credit queues. All of
/// it round-trips through snapshots so a checkpoint taken
/// mid-retransmission resumes bit-identically.
#[derive(Debug, Clone)]
struct LinkRas {
    plan: RasPlan,
    /// CRC errors injected so far (budget against `plan.max_events`).
    events: u64,
    /// Per-link cumulative retry count.
    retries: Vec<u32>,
    /// Per-link half-width flag: a down-shifted link pays double
    /// cycles-per-FLIT in both directions.
    half: Vec<bool>,
    /// Per-link retirement flag: round-robin dispatch skips these, but
    /// in-flight transactions drain over their original link.
    retired: Vec<bool>,
    /// Per-link outstanding flow credits: the cycle each occupied
    /// retry-buffer slot is acked back. Bounded by `plan.token_limit`.
    tokens: Vec<VecDeque<Cycle>>,
    stats: RasStats,
}

pac_types::snapshot_fields!(LinkRas {
    plan,
    events,
    retries,
    half,
    retired,
    tokens,
    stats,
});

impl LinkRas {
    fn new(plan: RasPlan, links: usize) -> Self {
        let mut ras = LinkRas {
            plan,
            events: 0,
            retries: vec![0; links],
            half: vec![false; links],
            retired: vec![false; links],
            tokens: vec![VecDeque::new(); links],
            stats: RasStats::default(),
        };
        if plan.preset_degraded {
            // Start in the steady degraded end-state (the degraded-mode
            // throughput table measures this, not the transient).
            let t = plan.target_link.unwrap_or(0) as usize;
            match plan.class {
                RasClass::RetryStorm => {
                    ras.half[t] = true;
                    ras.stats.links_half_width = 1;
                }
                RasClass::LinkRetire if links > 1 => {
                    ras.retired[t] = true;
                    ras.stats.links_retired = 1;
                }
                _ => {}
            }
        }
        ras
    }

    /// Effective cycles-per-FLIT on `link`: doubled at half width.
    fn cycles_per_flit(&self, link: usize, base: Cycle) -> Cycle {
        if self.half[link] {
            base * 2
        } else {
            base
        }
    }

    fn alive_links(&self) -> usize {
        self.retired.iter().filter(|r| !**r).count()
    }
}

/// The HMC device model.
#[derive(Debug)]
pub struct Hmc {
    cfg: HmcDeviceConfig,
    /// Per-link cycle at which the request direction frees up.
    req_link_busy: Vec<Cycle>,
    /// Per-link cycle at which the response direction frees up.
    rsp_link_busy: Vec<Cycle>,
    /// Round-robin pointer for link dispatch.
    rr: usize,
    vaults: Vec<Vault>,
    completed: BinaryHeap<Reverse<CompletedEntry>>,
    /// DRAM accesses done, waiting for their data-ready time before
    /// claiming a return-link slot (keyed by data_ready, then a tie
    /// sequence for determinism).
    pending_rsp: BinaryHeap<Reverse<(Cycle, u64)>>,
    pending_seq: u64,
    pending_store: HashMap<u64, ReadyResponse, IdHash>,
    inflight: usize,
    /// Bitset of vaults with a non-empty queue; `tick` visits only these
    /// (in ascending vault order, preserving the full-scan service
    /// order) instead of sweeping all 32 vaults every cycle.
    active: Vec<u64>,
    /// Per-vault cached earliest head-issue cycle (`u64::MAX` when the
    /// vault is idle). The head's start cycle is a pure function of its
    /// arrival, the issue port, the bank, and the refresh schedule, so
    /// the value stays exact until the vault issues or an empty queue
    /// gains a head — `tick` skips a vault (and all its refresh-window
    /// arithmetic) until this cycle arrives.
    vault_next: Vec<Cycle>,
    /// Cached minimum of `vault_next` over the active vaults
    /// (`u64::MAX` when none is active) — the earliest cycle at which
    /// *any* vault can issue. Folded on `submit`, recomputed during the
    /// vault walk in `tick`; lets the common no-vault-work tick and
    /// `next_event` answer without touching the per-vault array.
    vault_next_min: Cycle,
    scratch: Vec<ReadyResponse>,
    /// Active fault-injection plan (conformance testing only).
    fault_plan: Option<FaultPlan>,
    /// Faults injected so far under `fault_plan`.
    faults_injected: u64,
    /// Link RAS machinery, when armed via [`Hmc::set_ras_plan`]. `None`
    /// (the default) is bit-identical to a device without the RAS layer
    /// compiled in.
    ras: Option<LinkRas>,
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
pac_types::snapshot_fields!(Hmc {
    cfg,
    req_link_busy,
    rsp_link_busy,
    rr,
    vaults,
    completed,
    pending_rsp,
    pending_seq,
    pending_store,
    inflight,
    active,
    vault_next,
    vault_next_min,
    fault_plan,
    faults_injected,
    ras,
    stats,
    energy,
} skip {
    scratch: Vec::new(),
    tracer: TraceHandle::disabled(),
});

impl Hmc {
    pub fn new(cfg: HmcDeviceConfig) -> Self {
        Hmc {
            req_link_busy: vec![0; cfg.links as usize],
            rsp_link_busy: vec![0; cfg.links as usize],
            rr: 0,
            vaults: (0..cfg.vaults).map(|_| Vault::new(cfg.banks_per_vault)).collect(),
            completed: BinaryHeap::new(),
            pending_rsp: BinaryHeap::new(),
            pending_seq: 0,
            pending_store: HashMap::default(),
            inflight: 0,
            active: vec![0; (cfg.vaults as usize).div_ceil(64)],
            vault_next: vec![u64::MAX; cfg.vaults as usize],
            vault_next_min: u64::MAX,
            scratch: Vec::new(),
            fault_plan: None,
            faults_injected: 0,
            ras: None,
            stats: HmcStats::default(),
            energy: EnergyBreakdown::new(),
            tracer: TraceHandle::disabled(),
            cfg,
        }
    }

    /// Attach a structured-event tracer. The device emits
    /// [`EventClass::Hmc`] events (submit, vault service, response,
    /// fault injection) and triggers a flight-recorder dump when a
    /// planned fault fires.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Device configuration.
    pub fn config(&self) -> &HmcDeviceConfig {
        &self.cfg
    }

    /// Number of requests accepted but not yet completed.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Arm deterministic response-path fault injection. Conformance
    /// testing only — a plan makes the device deliberately *wrong* in
    /// the planned way so the oracle can prove it notices. The plan is
    /// validated against this device's topology first (rate clamped to
    /// 1024, zero fault budgets rejected, `target_unit` bounds-checked
    /// against the vault count) so a plan that could never fire is an
    /// error at arm time, not a silently clean run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        self.fault_plan = Some(plan.validate_for(self.cfg.vaults)?);
        Ok(())
    }

    /// How many faults the active plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Arm the link RAS layer: seeded per-packet CRC errors with retry
    /// replay, token flow control, and the half-width/retire
    /// degradation ladder. The plan is validated against this device
    /// (link classes only, `target_link` bounds-checked), so a plan
    /// that could never fire is an error at arm time.
    pub fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        let plan = plan.validate_for(BackendKind::Hmc, self.cfg.links)?;
        self.ras = Some(LinkRas::new(plan, self.req_link_busy.len()));
        Ok(())
    }

    /// Cumulative RAS event counters, when a plan is armed.
    pub fn ras_stats(&self) -> Option<RasStats> {
        self.ras.as_ref().map(|r| r.stats)
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight == 0
    }

    /// FLITs on the request packet: 1 control FLIT, plus the payload for
    /// stores (write data travels with the request).
    fn request_flits(&self, req: &HmcRequest) -> u64 {
        let payload = if req.op == Op::Store { req.bytes.div_ceil(FLIT_BYTES) } else { 0 };
        1 + payload
    }

    /// FLITs on the response packet: 1 control FLIT, plus the payload for
    /// loads.
    fn response_flits(&self, bytes: u64, op: Op) -> u64 {
        let payload = if op == Op::Load { bytes.div_ceil(FLIT_BYTES) } else { 0 };
        1 + payload
    }

    /// Submit a request at cycle `now`. Panics if the payload exceeds the
    /// device row size (requests must not span rows).
    pub fn submit(&mut self, req: HmcRequest, now: Cycle) {
        assert!(req.bytes > 0, "zero-byte HMC request");
        assert!(
            req.bytes <= self.cfg.row_bytes,
            "request of {}B exceeds {}B row",
            req.bytes,
            self.cfg.row_bytes
        );
        assert!(
            req.addr % self.cfg.row_bytes + req.bytes <= self.cfg.row_bytes,
            "request {:#x}+{}B spans a {}B row boundary",
            req.addr,
            req.bytes,
            self.cfg.row_bytes
        );

        let vault = self.cfg.vault_of(req.addr);
        let bank = self.cfg.bank_of(req.addr);

        // Round-robin link dispatch: take the next link in rotation.
        // With RAS armed, retired links are skipped and dispatch
        // re-balances across the survivors (retirement never claims the
        // last live link, so the walk terminates).
        let links = self.req_link_busy.len();
        let link = match &self.ras {
            Some(ras) => {
                let mut l = self.rr;
                while ras.retired[l] {
                    l = (l + 1) % links;
                }
                self.rr = (l + 1) % links;
                l
            }
            None => {
                let l = self.rr;
                self.rr = (self.rr + 1) % links;
                l
            }
        };

        let req_flits = self.request_flits(&req);
        let mut start = now.max(self.req_link_busy[link]);
        let cpf = match &mut self.ras {
            Some(ras) => {
                // Token flow control: each packet occupies one
                // retry-buffer slot until acked back; when every slot is
                // outstanding the packet waits for the oldest ack.
                if ras.plan.token_limit > 0 {
                    let q = &mut ras.tokens[link];
                    while q.front().is_some_and(|&t| t <= start) {
                        q.pop_front();
                    }
                    if q.len() >= ras.plan.token_limit as usize {
                        let freed = q.pop_front().expect("non-empty at limit");
                        if freed > start {
                            start = freed;
                            ras.stats.token_stalls += 1;
                        }
                    }
                }
                ras.cycles_per_flit(link, self.cfg.link_cycles_per_flit)
            }
            None => self.cfg.link_cycles_per_flit,
        };
        let mut transfer_done = start + req_flits * cpf;

        if let Some(ras) = &mut self.ras {
            let plan = ras.plan;
            // Preset plans measure the steady degraded state; only
            // live-injection plans generate CRC errors.
            let inject = !plan.preset_degraded
                && ras.events < plan.max_events
                && plan.hits_link(link as u32, req.id);
            if inject {
                ras.events += 1;
                ras.stats.crc_errors += 1;
                self.tracer.emit(now, EventClass::Hmc, || EventKind::CrcError {
                    id: req.id,
                    link: link as u32,
                });
                // One bounded retransmission: the damaged packet is
                // NAK'd and replayed from the retry buffer, costing the
                // turnaround plus a full re-send. The retried packet
                // arrives exactly once — latency, not conservation, is
                // what degrades.
                let attempt = ras.retries[link] + 1;
                ras.retries[link] = attempt;
                ras.stats.link_retries += 1;
                transfer_done += req_flits * cpf + plan.retry_latency;
                self.tracer.emit(now, EventClass::Hmc, || EventKind::LinkRetry {
                    id: req.id,
                    link: link as u32,
                    attempt,
                });
                // Degradation ladder: storm threshold down-shifts the
                // link to half width; past the retire threshold it is
                // pulled from dispatch (never the last live link).
                let laddered =
                    matches!(plan.class, RasClass::RetryStorm | RasClass::LinkRetire);
                if laddered && attempt >= plan.storm_threshold && !ras.half[link] {
                    ras.half[link] = true;
                    ras.stats.links_half_width += 1;
                    self.tracer.emit(now, EventClass::Hmc, || EventKind::LinkDegrade {
                        link: link as u32,
                        retired: false,
                    });
                }
                if plan.class == RasClass::LinkRetire
                    && attempt >= plan.retire_threshold
                    && !ras.retired[link]
                    && ras.alive_links() > 1
                {
                    ras.retired[link] = true;
                    ras.stats.links_retired += 1;
                    self.tracer.emit(now, EventClass::Hmc, || EventKind::LinkDegrade {
                        link: link as u32,
                        retired: true,
                    });
                }
            }
            if plan.token_limit > 0 {
                ras.tokens[link].push_back(transfer_done + plan.token_return);
            }
        }
        self.req_link_busy[link] = transfer_done;

        let remote = self.cfg.home_link_of_vault(vault) != link as u32;
        let xbar = if remote { self.cfg.xbar_remote_cycles } else { self.cfg.xbar_local_cycles };
        let arrival = transfer_done + xbar;

        self.tracer.emit(now, EventClass::Hmc, || EventKind::HmcSubmit {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            vault,
            link: link as u32,
            remote,
        });

        // Routing energy is charged per routing *operation* (crossbar
        // arbitration and path setup for one packet), as in the paper's
        // Sec 2.1.2 accounting: coalescing four requests into one saves
        // three route operations even though the payload FLITs remain.
        let route_class =
            if remote { EnergyClass::LinkRemoteRoute } else { EnergyClass::LinkLocalRoute };
        let pj = if remote { self.cfg.e_link_remote_route } else { self.cfg.e_link_local_route };
        self.energy.add(route_class, 1, pj);
        if remote {
            self.stats.remote_routes += 1;
        } else {
            self.stats.local_routes += 1;
        }

        let rsp_flits = self.response_flits(req.bytes, req.op);
        self.stats.requests += 1;
        self.stats.payload_bytes += req.bytes;
        self.stats.transaction_bytes += (req_flits + rsp_flits) * FLIT_BYTES;

        let queued = QueuedRequest {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            bank,
            arrival,
            submit_cycle: now,
            link: link as u32,
            remote,
        };
        self.active[vault as usize / 64] |= 1 << (vault % 64);
        let v = &mut self.vaults[vault as usize];
        let was_idle = v.is_idle();
        v.enqueue(queued);
        if was_idle {
            // The enqueue installed a new head; a non-empty queue keeps
            // its head (and therefore its cached start) unchanged.
            let start = v.next_head_start(&self.cfg, now).expect("just enqueued");
            self.vault_next[vault as usize] = start;
            self.vault_next_min = self.vault_next_min.min(start);
        }
        self.inflight += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight as u64);
    }

    /// Advance the device to cycle `now`: issue DRAM references in every
    /// vault and route finished responses back over the crossbar/links.
    pub fn tick(&mut self, now: Cycle) {
        if self.inflight == 0 {
            return;
        }
        let mut ready = std::mem::take(&mut self.scratch);
        if self.vault_next_min <= now {
            let mut min = u64::MAX;
            for w in 0..self.active.len() {
                let mut bits = self.active[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = w * 64 + b;
                    // The cached head start is exact: visiting earlier
                    // would be a guaranteed no-op, so skip the vault.
                    if self.vault_next[idx] > now {
                        min = min.min(self.vault_next[idx]);
                        continue;
                    }
                    let vault = &mut self.vaults[idx];
                    vault.tick(now, &self.cfg, &mut self.energy, &mut ready);
                    match vault.next_head_start(&self.cfg, now) {
                        Some(c) => {
                            self.vault_next[idx] = c;
                            min = min.min(c);
                        }
                        None => {
                            self.vault_next[idx] = u64::MAX;
                            self.active[w] &= !(1u64 << b);
                        }
                    }
                }
            }
            self.vault_next_min = min;
        }
        // Responses claim return-link slots only once their data is
        // actually ready (in data-ready order), so an early-issued
        // reference with far-future data cannot reserve the link ahead
        // of a response that is ready sooner.
        for r in ready.drain(..) {
            self.tracer.emit(now, EventClass::Hmc, || EventKind::VaultService {
                id: r.req.id,
                vault: self.cfg.vault_of(r.req.addr),
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

    fn schedule_response(&mut self, r: ReadyResponse) {
        let req = r.req;
        let rsp_flits = self.response_flits(req.bytes, req.op);
        let xbar =
            if req.remote { self.cfg.xbar_remote_cycles } else { self.cfg.xbar_local_cycles };
        let at_link = r.data_ready + xbar;
        let link = req.link as usize;
        // A down-shifted link pays half width on the return direction
        // too; a retired link still drains its in-flight responses.
        let cpf = match &self.ras {
            Some(ras) => ras.cycles_per_flit(link, self.cfg.link_cycles_per_flit),
            None => self.cfg.link_cycles_per_flit,
        };
        let complete = at_link.max(self.rsp_link_busy[link]) + rsp_flits * cpf;
        self.rsp_link_busy[link] = complete;

        // Response occupied its vault response slot until it drained.
        self.energy.add(
            EnergyClass::VaultRspSlot,
            complete - r.data_ready,
            self.cfg.e_vault_rsp_slot,
        );
        let route_class =
            if req.remote { EnergyClass::LinkRemoteRoute } else { EnergyClass::LinkLocalRoute };
        let pj = if req.remote {
            self.cfg.e_link_remote_route
        } else {
            self.cfg.e_link_local_route
        };
        // One route operation for the response packet.
        self.energy.add(route_class, 1, pj);

        let mut entry: CompletedEntry =
            (complete, req.id, req.addr, req.bytes, req.op == Op::Store, req.submit_cycle);
        if let Some(plan) = self.fault_plan {
            // Validation guarantees max_faults >= 1 (u64::MAX = unbounded)
            // and that any target_unit names a real vault.
            let budget_ok = self.faults_injected < plan.max_faults;
            let unit_ok = plan.target_unit.is_none_or(|t| t == self.cfg.vault_of(req.addr));
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
                        // The vault serviced the access but the completion
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

    /// Earliest cycle ≥ `now` at which [`Hmc::tick`] or
    /// [`Hmc::pop_responses`] could make progress, or `None` when the
    /// device is idle. Used by the event-driven simulation core to skip
    /// cycles the device would spend waiting on DRAM or link timing.
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
        best = best.min(self.vault_next_min.max(now));
        (best != u64::MAX).then_some(best)
    }

    /// Earliest cycle ≥ `now` at which [`Hmc::pop_responses`] returns a
    /// response, or `None` when none is on its way back. Vault issues
    /// and data-ready hand-offs before that cycle stay inside the cube:
    /// a response scheduled by one completes strictly after the tick
    /// that schedules it. It is [`Hmc::next_event`] while a fault plan
    /// is armed, because a dropped response changes [`Hmc::inflight`]
    /// at its data-ready cycle, and on a zero-cycle return path, where a
    /// response could complete inside the tick that schedules it.
    pub fn next_visible(&self, now: Cycle) -> Option<Cycle> {
        let min_return = self.cfg.xbar_local_cycles.min(self.cfg.xbar_remote_cycles)
            + self.cfg.link_cycles_per_flit;
        if self.fault_plan.is_some() || min_return == 0 {
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

    /// Run the device forward until every in-flight request completes,
    /// returning the drained responses and the cycle it went idle.
    pub fn drain(&mut self, mut now: Cycle) -> (Vec<HmcResponse>, Cycle) {
        let mut out = Vec::new();
        while !self.is_idle() {
            self.tick(now);
            self.pop_responses(now, &mut out);
            now += 1;
        }
        (out, now)
    }

    /// Total bank conflicts across all vaults.
    pub fn bank_conflicts(&self) -> u64 {
        self.vaults.iter().map(|v| v.conflicts()).sum()
    }

    /// Synchronize the conflict counter into `stats` (cheap; called by
    /// the experiment harness at end of run).
    pub fn finalize_stats(&mut self) {
        self.stats.bank_conflicts = self.bank_conflicts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Hmc {
        Hmc::new(HmcDeviceConfig::default())
    }

    fn read(id: u64, addr: u64, bytes: u64) -> HmcRequest {
        HmcRequest { id, addr, bytes, op: Op::Load }
    }

    #[test]
    fn single_read_completes() {
        let mut hmc = device();
        hmc.submit(read(7, 0x1000, 64), 0);
        let (rsps, _) = hmc.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].id, 7);
        assert_eq!(rsps[0].bytes, 64);
        assert!(rsps[0].latency() > 0);
        assert!(hmc.is_idle());
    }

    #[test]
    fn responses_not_visible_early() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 64), 0);
        hmc.tick(1);
        let mut out = Vec::new();
        hmc.pop_responses(1, &mut out);
        assert!(out.is_empty());
        assert_eq!(hmc.inflight(), 1);
    }

    #[test]
    fn four_raw_reads_conflict_one_coalesced_does_not() {
        // Sec 2.1.1 motivating example, end to end.
        let mut raw = device();
        for i in 0..4 {
            raw.submit(read(i, i * 64, 64), 0);
        }
        let (rsps, _) = raw.drain(0);
        assert_eq!(rsps.len(), 4);
        assert_eq!(raw.bank_conflicts(), 3);

        let mut coalesced = device();
        coalesced.submit(read(9, 0, 256), 0);
        let (rsps, _) = coalesced.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(coalesced.bank_conflicts(), 0);
    }

    #[test]
    fn coalesced_read_finishes_sooner_than_raw_reads() {
        let mut raw = device();
        for i in 0..4 {
            raw.submit(read(i, i * 64, 64), 0);
        }
        let (_, raw_done) = raw.drain(0);
        let mut coalesced = device();
        coalesced.submit(read(9, 0, 256), 0);
        let (_, co_done) = coalesced.drain(0);
        assert!(co_done < raw_done, "coalesced {co_done} vs raw {raw_done}");
    }

    #[test]
    fn round_robin_spreads_links_and_routes_remotely() {
        // Four consecutive same-row reads are dispatched to links 0..3;
        // the row lives in vault 0 whose home link is 0, so three of the
        // four must route remotely (Sec 2.1.2).
        let mut hmc = device();
        for i in 0..4 {
            hmc.submit(read(i, i * 16, 16), 0);
        }
        assert_eq!(hmc.stats.local_routes, 1);
        assert_eq!(hmc.stats.remote_routes, 3);
    }

    #[test]
    fn transaction_byte_accounting() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 64), 0);
        // Read: request 1 flit + response 1 control + 4 payload = 96B.
        assert_eq!(hmc.stats.transaction_bytes, 96);
        assert_eq!(hmc.stats.payload_bytes, 64);

        let mut hmc = device();
        hmc.submit(HmcRequest { id: 1, addr: 0, bytes: 64, op: Op::Store }, 0);
        // Write: request 1+4 flits + response ack 1 flit = 96B.
        assert_eq!(hmc.stats.transaction_bytes, 96);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_request_rejected() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 512), 0);
    }

    #[test]
    fn writes_complete_and_count_latency() {
        let mut hmc = device();
        hmc.submit(HmcRequest { id: 3, addr: 0x40, bytes: 128, op: Op::Store }, 5);
        let (rsps, _) = hmc.drain(5);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].op, Op::Store);
        assert_eq!(hmc.stats.responses, 1);
        assert!(hmc.stats.avg_latency_cycles() > 0.0);
    }

    #[test]
    fn different_vaults_proceed_in_parallel() {
        let cfg = HmcDeviceConfig::default();
        let mut hmc = Hmc::new(cfg);
        // Two reads to different vaults (consecutive 256B rows).
        hmc.submit(read(1, 0, 64), 0);
        hmc.submit(read(2, 256, 64), 0);
        let (rsps, _) = hmc.drain(0);
        assert_eq!(rsps.len(), 2);
        assert_eq!(hmc.bank_conflicts(), 0);
    }

    #[test]
    fn energy_accumulates_per_class() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 64), 0);
        hmc.drain(0);
        assert!(hmc.energy.events(EnergyClass::VaultCtrl) == 1);
        assert!(hmc.energy.events(EnergyClass::BankActPre) == 1);
        assert!(hmc.energy.total_pj() > 0.0);
    }

    #[test]
    fn peak_inflight_tracks_concurrency() {
        let mut hmc = device();
        for i in 0..8 {
            hmc.submit(read(i, i * 256, 64), 0);
        }
        assert_eq!(hmc.stats.peak_inflight, 8);
        hmc.drain(0);
        assert_eq!(hmc.inflight(), 0);
        assert_eq!(hmc.stats.peak_inflight, 8, "peak persists after drain");
    }

    #[test]
    fn remote_routing_costs_more_latency() {
        // Vault 0's home link is 0. A request forced onto link 1 pays
        // the remote crossbar both ways. Compare two single-request
        // devices whose round-robin pointers start at different links.
        let mut local = device();
        local.submit(read(1, 0, 64), 0); // link 0 → vault 0: local
        let (r_local, _) = local.drain(0);

        let mut remote = device();
        remote.submit(read(0, 256 * 8, 64), 0); // consumes link 0 (vault 8, remote)
        let (r_remote, _) = remote.drain(0);
        // vault 8's home link is 1; it went out on link 0: remote.
        assert_eq!(remote.stats.remote_routes, 1);
        assert!(r_remote[0].latency() > r_local[0].latency());
    }

    #[test]
    fn write_data_travels_on_the_request_packet() {
        let mut rd = device();
        rd.submit(read(1, 0, 256), 0);
        let mut wr = device();
        wr.submit(HmcRequest { id: 1, addr: 0, bytes: 256, op: Op::Store }, 0);
        // Same total wire bytes either direction: 1 control + 16 payload
        // + 1 control.
        assert_eq!(rd.stats.transaction_bytes, wr.stats.transaction_bytes);
        assert_eq!(rd.stats.transaction_bytes, 32 + 256);
    }

    #[test]
    fn sixteen_byte_flit_requests_round_up() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 16), 0);
        // 1 request flit + 1 response control + 1 payload flit = 48B.
        assert_eq!(hmc.stats.transaction_bytes, 48);
        let (rsps, _) = hmc.drain(0);
        assert_eq!(rsps[0].bytes, 16);
    }

    #[test]
    fn link_serialization_delays_large_bursts() {
        // 16 requests all at cycle 0: the four links serialize their
        // transfer, so completion spreads out.
        let mut hmc = device();
        for i in 0..16 {
            hmc.submit(read(i, i * 256 * 32, 64), 0); // same vault, diff rows/banks
        }
        let (rsps, _) = hmc.drain(0);
        let first = rsps.first().unwrap().complete_cycle;
        let last = rsps.last().unwrap().complete_cycle;
        assert!(last > first, "burst must spread: {first}..{last}");
    }

    #[test]
    fn fault_drop_loses_responses_but_still_drains() {
        let mut hmc = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 2,
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        hmc.set_fault_plan(plan).expect("valid fault plan");
        for i in 0..8 {
            hmc.submit(read(i, i * 256, 64), 0);
        }
        let (rsps, _) = hmc.drain(0);
        assert_eq!(hmc.faults_injected(), 2);
        assert_eq!(rsps.len(), 6, "two of eight responses dropped");
        assert!(hmc.is_idle(), "dropped responses must not wedge the device");
    }

    #[test]
    fn fault_plan_target_unit_checked_against_vault_topology() {
        let mut hmc = device();
        let bad = FaultPlan {
            target_unit: Some(40),
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        assert_eq!(
            hmc.set_fault_plan(bad),
            Err(FaultPlanError::TargetUnitOutOfRange { unit: 40, units: 32 })
        );

        // A targeted plan only fires on its vault: always-inject drops
        // aimed at vault 1 lose exactly the vault-1 response.
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: u64::MAX,
            target_unit: Some(1),
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        hmc.set_fault_plan(plan).expect("in-range target");
        for i in 0..4 {
            hmc.submit(read(i, i * 256, 64), 0); // vaults 0..3
        }
        let (rsps, _) = hmc.drain(0);
        assert_eq!(hmc.faults_injected(), 1);
        assert_eq!(rsps.len(), 3);
        assert!(rsps.iter().all(|r| hmc.config().vault_of(r.addr) != 1));
        assert!(hmc.is_idle());
    }

    #[test]
    fn fault_duplicate_delivers_twice() {
        let mut hmc = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::DuplicateResponse, 5)
        };
        hmc.set_fault_plan(plan).expect("valid fault plan");
        for i in 0..4 {
            hmc.submit(read(i, i * 256, 64), 0);
        }
        let (rsps, _) = hmc.drain(0);
        assert_eq!(hmc.faults_injected(), 1);
        assert_eq!(rsps.len(), 5, "one response duplicated");
        assert!(hmc.is_idle());
    }

    #[test]
    fn fault_delay_pushes_completion_out() {
        let mut hmc = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            delay_cycles: 100_000,
            ..FaultPlan::new(FaultClass::DelayResponse, 5)
        };
        hmc.set_fault_plan(plan).expect("valid fault plan");
        hmc.submit(read(1, 0, 64), 0);
        let (rsps, done) = hmc.drain(0);
        assert_eq!(rsps.len(), 1);
        assert!(rsps[0].complete_cycle >= 100_000, "at {}", rsps[0].complete_cycle);
        assert!(done >= 100_000);
    }

    #[test]
    fn fault_corrupt_addr_echoes_wrong_line() {
        let mut hmc = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        hmc.set_fault_plan(plan).expect("valid fault plan");
        hmc.submit(read(1, 0x1000, 64), 0);
        let (rsps, _) = hmc.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].addr, 0x1040, "address echo must be corrupted");
    }

    #[test]
    fn tracer_captures_request_lifecycle_and_fault_dump() {
        use pac_types::TraceConfig;
        let mut hmc = device();
        let tracer = TraceHandle::new(TraceConfig::full());
        hmc.set_tracer(tracer.clone());
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        hmc.set_fault_plan(plan).expect("valid fault plan");
        hmc.submit(read(42, 0x1000, 64), 0);
        hmc.drain(0);

        let events = tracer.snapshot_events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"hmc_submit"), "got {names:?}");
        assert!(names.contains(&"vault_service"));
        assert!(names.contains(&"fault_injected"));
        assert!(names.contains(&"hmc_response"));

        let dumps = tracer.snapshot_dumps();
        assert_eq!(dumps.len(), 1, "fault must trigger exactly one flight dump");
        assert!(dumps[0]
            .events
            .iter()
            .any(|e| e.kind.request_id() == Some(42)), "dump holds the faulted request");
    }

    #[test]
    fn disabled_tracer_changes_no_stats() {
        let mut plain = device();
        let mut traced = device();
        traced.set_tracer(TraceHandle::new(pac_types::TraceConfig::full()));
        for i in 0..32 {
            plain.submit(read(i, i * 64, 64), i);
            traced.submit(read(i, i * 64, 64), i);
        }
        let (a, da) = plain.drain(0);
        let (b, db) = traced.drain(0);
        assert_eq!(a, b, "tracing must not perturb device behavior");
        assert_eq!(da, db);
        assert_eq!(plain.stats, traced.stats);
    }

    fn snapshot_bytes(hmc: &Hmc) -> Vec<u8> {
        use pac_types::Snapshot;
        let mut w = pac_types::SnapWriter::new();
        hmc.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn ras_disarmed_is_bit_identical_and_arming_costs_only_latency() {
        use pac_types::{RasClass, RasPlan};
        // Baseline: no RAS field in play.
        let mut plain = device();
        let mut armed = device();
        // Every packet takes a CRC hit so the latency cost is never
        // fully absorbed by bank timing.
        let plan = RasPlan {
            rate_per_1024: 1024,
            max_events: u64::MAX,
            ..RasPlan::new(RasClass::LinkBitError, 3)
        };
        armed.set_ras_plan(plan).expect("valid ras plan");
        for i in 0..64 {
            plain.submit(read(i, i * 256, 64), i);
            armed.submit(read(i, i * 256, 64), i);
        }
        let (a, _) = plain.drain(0);
        let (b, _) = armed.drain(0);
        assert_eq!(a.len(), b.len(), "retransmission must conserve responses");
        let stats = armed.ras_stats().expect("armed");
        assert!(stats.crc_errors > 0, "plan must actually fire: {stats:?}");
        assert_eq!(stats.crc_errors, stats.link_retries);
        let ids_a: std::collections::HashSet<u64> = a.iter().map(|r| r.id).collect();
        let ids_b: std::collections::HashSet<u64> = b.iter().map(|r| r.id).collect();
        assert_eq!(ids_a, ids_b, "a retried packet is not a duplicate or a loss");
        // Retried packets pay latency.
        let sum = |rs: &[HmcResponse]| rs.iter().map(|r| r.latency()).sum::<u64>();
        assert!(sum(&b) > sum(&a), "retries must cost cycles");
    }

    #[test]
    fn retry_storm_downshifts_the_target_link() {
        use pac_types::{RasClass, RasPlan};
        let mut hmc = device();
        hmc.set_ras_plan(RasPlan::new(RasClass::RetryStorm, 5)).expect("valid");
        for i in 0..64 {
            hmc.submit(read(i, i * 256, 64), i * 4);
        }
        hmc.drain(0);
        let stats = hmc.ras_stats().expect("armed");
        assert_eq!(stats.links_half_width, 1, "storm must down-shift link 0: {stats:?}");
        assert_eq!(stats.links_retired, 0, "storm alone never retires");
        assert!(stats.crc_errors >= u64::from(RasPlan::new(RasClass::RetryStorm, 5).storm_threshold));
    }

    #[test]
    fn link_retire_rebalances_dispatch_across_survivors() {
        use pac_types::{RasClass, RasPlan};
        let mut hmc = device();
        hmc.set_ras_plan(RasPlan::new(RasClass::LinkRetire, 5)).expect("valid");
        let mut submitted = 0u64;
        for i in 0..128 {
            hmc.submit(read(i, i * 256, 64), i * 4);
            submitted += 1;
        }
        let (rsps, _) = hmc.drain(600);
        assert_eq!(rsps.len() as u64, submitted, "retirement loses no transactions");
        let stats = hmc.ras_stats().expect("armed");
        assert_eq!(stats.links_retired, 1, "{stats:?}");
        assert_eq!(stats.links_half_width, 1, "retirement passes through half width");
        assert!(hmc.is_idle());
    }

    #[test]
    fn preset_degraded_applies_end_state_without_injecting() {
        use pac_types::{RasClass, RasPlan};
        let mut hmc = device();
        let plan = RasPlan {
            preset_degraded: true,
            ..RasPlan::new(RasClass::LinkRetire, 5)
        };
        hmc.set_ras_plan(plan).expect("valid");
        for i in 0..16 {
            hmc.submit(read(i, i * 256, 64), 0);
        }
        hmc.drain(0);
        let stats = hmc.ras_stats().expect("armed");
        assert_eq!(stats.links_retired, 1);
        assert_eq!(stats.crc_errors, 0, "preset plans must not inject");
    }

    #[test]
    fn token_exhaustion_stalls_packet_starts() {
        use pac_types::{RasClass, RasPlan};
        let mut hmc = device();
        let plan = RasPlan {
            rate_per_1024: 0, // no CRC errors: isolate the token gate
            token_limit: 1,
            token_return: 50,
            ..RasPlan::new(RasClass::LinkBitError, 5)
        };
        hmc.set_ras_plan(plan).expect("valid");
        // Two back-to-back packets on the same link (ids 0 and 4 both
        // land on link 0 of 4): the second waits for the first's credit.
        for i in 0..8 {
            hmc.submit(read(i, i * 256, 64), 0);
        }
        let stats = hmc.ras_stats().expect("armed");
        assert!(stats.token_stalls > 0, "{stats:?}");
        let (rsps, _) = hmc.drain(0);
        assert_eq!(rsps.len(), 8);
    }

    #[test]
    fn ras_plan_validated_against_device_topology() {
        use pac_types::{RasClass, RasPlan, RasPlanError};
        let mut hmc = device();
        let bad = RasPlan {
            target_link: Some(9),
            ..RasPlan::new(RasClass::RetryStorm, 1)
        };
        assert_eq!(
            hmc.set_ras_plan(bad),
            Err(RasPlanError::TargetLinkOutOfRange { link: 9, links: 4 })
        );
        let wrong = RasPlan::new(RasClass::EccSingle, 1);
        assert!(matches!(
            hmc.set_ras_plan(wrong),
            Err(RasPlanError::WrongBackend { .. })
        ));
    }

    #[test]
    fn ras_state_snapshots_mid_retransmission() {
        use pac_types::{RasClass, RasPlan, SnapReader, Snapshot};
        let mut hmc = device();
        hmc.set_ras_plan(RasPlan::new(RasClass::LinkBitError, 3)).expect("valid");
        for i in 0..32 {
            hmc.submit(read(i, i * 256, 64), i);
        }
        for now in 0..40 {
            hmc.tick(now);
        }
        let bytes = snapshot_bytes(&hmc);
        let mut r = SnapReader::new(&bytes);
        let mut restored = Hmc::load(&mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        assert_eq!(snapshot_bytes(&restored), bytes, "restore must be exact");
        // Both halves finish identically.
        let (a, da) = hmc.drain(40);
        let (b, db) = restored.drain(40);
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert_eq!(hmc.ras_stats(), restored.ras_stats());
    }

    #[test]
    fn many_random_requests_all_complete() {
        let mut hmc = device();
        let mut submitted = 0u64;
        for i in 0..500u64 {
            let addr = (i * 2654435761) % (1 << 30);
            hmc.submit(read(i, addr & !63, 64), i / 4);
            submitted += 1;
        }
        let (rsps, _) = hmc.drain(200);
        assert_eq!(rsps.len() as u64, submitted);
        assert_eq!(hmc.stats.responses, submitted);
        // Responses surface in completion order.
        for w in rsps.windows(2) {
            assert!(w[0].complete_cycle <= w[1].complete_cycle);
        }
    }
}
