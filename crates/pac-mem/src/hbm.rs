//! The top-level HBM-style device: per-channel buses, pseudo-channel
//! service, and response return.
//!
//! Structurally the mirror of `hmc_sim::device::Hmc`, with the
//! topology swapped underneath: where the HMC round-robins requests
//! across four shared SERDES links and pays a crossbar hop into the
//! vault quadrants, HBM is **address-routed** — every request travels
//! the bus of the pseudo-channel its address decomposes to, so there
//! are no remote routes and no link-induced spraying. The interesting
//! serialization moves inside the channel: bank groups (tCCD_L), the
//! four-activate window (tFAW), and the per-channel request/response
//! buses, all modelled in [`crate::channel`].
//!
//! The device reuses the HMC packet vocabulary ([`HmcRequest`] /
//! [`HmcResponse`]), statistics, energy taxonomy, fault-injection
//! semantics, and snapshot encoding discipline — which is precisely
//! what lets the differential conformance suite drive both backends
//! with one harness.

use crate::channel::PseudoChannel;
use hmc_sim::vault::{QueuedRequest, ReadyResponse};
use hmc_sim::{EnergyBreakdown, EnergyClass, HmcRequest, HmcResponse, HmcStats};
use pac_trace::{DumpTrigger, EventKind, TraceHandle};
use pac_types::protocol::FLIT_BYTES;
use pac_types::{
    Cycle, EventClass, FaultClass, FaultPlan, FaultPlanError, HbmDeviceConfig, IdHash, Op,
    RasClass, RasPlan, RasPlanError, RasStats,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A finished response ordered by delivery cycle:
/// `(complete, id, addr, bytes, is_store, submit_cycle)`.
type CompletedEntry = (Cycle, u64, u64, u64, bool, Cycle);

/// Runtime state of the DRAM RAS machinery under an armed [`RasPlan`]:
/// per-bank correctable-error counters feeding bank sparing, the spare
/// map itself, and the cumulative event counters. The patrol scrubber
/// needs no mutable state — its windows are a pure function of
/// `(bank, cycle)`, exactly like refresh — so a checkpoint taken
/// mid-scrub carries everything in these fields plus the clock.
#[derive(Debug, Clone)]
struct MemRas {
    plan: RasPlan,
    /// ECC events injected so far (budget against `plan.max_events`).
    events: u64,
    /// Correctable-error count per flat bank
    /// (`channel * banks_per_channel + bank`).
    correctable: Vec<u32>,
    /// Banks remapped to their channel's spare (the channel's last
    /// bank stands in for a dedicated spare row of banks).
    spared: Vec<bool>,
    stats: RasStats,
}

pac_types::snapshot_fields!(MemRas {
    plan,
    events,
    correctable,
    spared,
    stats,
});

impl MemRas {
    fn new(plan: RasPlan, flat_banks: usize) -> Self {
        MemRas {
            plan,
            events: 0,
            correctable: vec![0; flat_banks],
            spared: vec![false; flat_banks],
            stats: RasStats::default(),
        }
    }

    /// Cycles a reference whose data lands at `t` on `bank` must wait
    /// for the bank's patrol-scrub window to pass (0 when clear).
    /// Windows recur every `scrub_interval` cycles, staggered across
    /// banks on a different phase than refresh so the two never
    /// systematically align.
    fn scrub_delay(&self, bank: u32, banks: u32, t: Cycle) -> Cycle {
        if self.plan.class != RasClass::Scrub || self.plan.scrub_duration == 0 {
            return 0;
        }
        let interval = self.plan.scrub_interval;
        let stagger =
            (u64::from(bank) * interval / u64::from(banks) + interval / 4) % interval;
        let phase = (t + interval - stagger % interval) % interval;
        self.plan.scrub_duration.saturating_sub(phase)
    }
}

/// The HBM device model.
#[derive(Debug)]
pub struct Hbm {
    cfg: HbmDeviceConfig,
    /// Per-channel cycle at which the request bus frees up.
    req_bus_busy: Vec<Cycle>,
    /// Per-channel cycle at which the response bus frees up.
    rsp_bus_busy: Vec<Cycle>,
    channels: Vec<PseudoChannel>,
    completed: BinaryHeap<Reverse<CompletedEntry>>,
    /// DRAM accesses done, waiting for their data-ready time before
    /// claiming a return-bus slot (keyed by data_ready, then a tie
    /// sequence for determinism).
    pending_rsp: BinaryHeap<Reverse<(Cycle, u64)>>,
    pending_seq: u64,
    pending_store: HashMap<u64, ReadyResponse, IdHash>,
    inflight: usize,
    /// Bitset of channels with a non-empty queue.
    active: Vec<u64>,
    /// Per-channel cached earliest head-issue cycle (`u64::MAX` when
    /// idle); exact until the channel issues (same caching argument as
    /// the HMC vault walk).
    chan_next: Vec<Cycle>,
    /// Cached minimum of `chan_next` over the active channels.
    chan_next_min: Cycle,
    scratch: Vec<ReadyResponse>,
    /// Active fault-injection plan (conformance testing only).
    fault_plan: Option<FaultPlan>,
    /// Faults injected so far under `fault_plan`.
    faults_injected: u64,
    /// DRAM RAS machinery (ECC, patrol scrub, bank sparing), when armed
    /// via [`Hbm::set_ras_plan`]. `None` (the default) is bit-identical
    /// to a device without the RAS layer compiled in.
    ras: Option<MemRas>,
    /// Aggregate statistics.
    pub stats: HmcStats,
    /// Energy breakdown by operation class.
    pub energy: EnergyBreakdown,
    /// Structured-event tracer (disabled by default; zero-cost off).
    tracer: TraceHandle,
}

// Same skip discipline as the HMC device: `scratch` is empty between
// ticks and the tracer is re-attached after restore.
pac_types::snapshot_fields!(Hbm {
    cfg,
    req_bus_busy,
    rsp_bus_busy,
    channels,
    completed,
    pending_rsp,
    pending_seq,
    pending_store,
    inflight,
    active,
    chan_next,
    chan_next_min,
    fault_plan,
    faults_injected,
    ras,
    stats,
    energy,
} skip {
    scratch: Vec::new(),
    tracer: TraceHandle::disabled(),
});

impl Hbm {
    pub fn new(cfg: HbmDeviceConfig) -> Self {
        Hbm {
            req_bus_busy: vec![0; cfg.channels as usize],
            rsp_bus_busy: vec![0; cfg.channels as usize],
            channels: (0..cfg.channels).map(|_| PseudoChannel::new(&cfg)).collect(),
            completed: BinaryHeap::new(),
            pending_rsp: BinaryHeap::new(),
            pending_seq: 0,
            pending_store: HashMap::default(),
            inflight: 0,
            active: vec![0; (cfg.channels as usize).div_ceil(64)],
            chan_next: vec![u64::MAX; cfg.channels as usize],
            chan_next_min: u64::MAX,
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

    /// Attach a structured-event tracer.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Device configuration.
    pub fn config(&self) -> &HbmDeviceConfig {
        &self.cfg
    }

    /// Number of requests accepted but not yet completed.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Arm deterministic response-path fault injection, validated
    /// against this device's channel topology.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        self.fault_plan = Some(plan.validate_for(self.cfg.channels)?);
        Ok(())
    }

    /// How many faults the active plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Arm the DRAM RAS layer: seeded per-beat SECDED ECC events
    /// (correct single-bit for a pipeline penalty, detect-and-poison
    /// double-bit), patrol-scrub windows that steal bank cycles like
    /// refresh, and bank sparing past a correctable-error threshold.
    /// The plan is validated against this device (ECC/scrub classes
    /// only), so a plan that could never fire is an error at arm time.
    pub fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        let plan = plan.validate_for(pac_types::BackendKind::Hbm, self.cfg.channels)?;
        let flat = (self.cfg.channels * self.cfg.banks_per_channel()) as usize;
        self.ras = Some(MemRas::new(plan, flat));
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

    /// FLITs on the request packet: 1 control FLIT, plus the payload
    /// for stores.
    fn request_flits(&self, req: &HmcRequest) -> u64 {
        let payload = if req.op == Op::Store { req.bytes.div_ceil(FLIT_BYTES) } else { 0 };
        1 + payload
    }

    /// FLITs on the response packet: 1 control FLIT, plus the payload
    /// for loads.
    fn response_flits(&self, bytes: u64, op: Op) -> u64 {
        let payload = if op == Op::Load { bytes.div_ceil(FLIT_BYTES) } else { 0 };
        1 + payload
    }

    /// Submit a request at cycle `now`. Panics if the payload exceeds
    /// the device row size (requests must not span rows).
    pub fn submit(&mut self, req: HmcRequest, now: Cycle) {
        assert!(req.bytes > 0, "zero-byte HBM request");
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

        let channel = self.cfg.channel_of(req.addr);
        let mut bank = self.cfg.flat_bank_of(req.addr);
        if let Some(ras) = &self.ras {
            // Bank sparing: a worn-out bank's traffic is steered to the
            // channel's spare (its last bank stands in for a dedicated
            // spare) — the address map is unchanged, only the physical
            // bank under it.
            let banks = self.cfg.banks_per_channel();
            if ras.spared[(channel * banks + bank) as usize] {
                bank = banks - 1;
            }
        }

        // Address-routed: the request travels its home channel's bus.
        let req_flits = self.request_flits(&req);
        let transfer_done = now.max(self.req_bus_busy[channel as usize])
            + req_flits * self.cfg.bus_cycles_per_flit;
        self.req_bus_busy[channel as usize] = transfer_done;
        let arrival = transfer_done + self.cfg.ctrl_cycles;

        self.tracer.emit(now, EventClass::Hmc, || EventKind::HmcSubmit {
            id: req.id,
            addr: req.addr,
            bytes: req.bytes,
            vault: channel,
            link: channel,
            remote: false,
        });

        // One bus-route operation per packet. Every route is "local":
        // with address routing there is no crossbar to cross, which is
        // the structural difference the differential suite exposes
        // against the HMC's round-robin link spraying.
        self.energy.add(EnergyClass::LinkLocalRoute, 1, self.cfg.e_bus_route);
        self.stats.local_routes += 1;

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
            link: channel,
            remote: false,
        };
        self.active[channel as usize / 64] |= 1 << (channel % 64);
        let ch = &mut self.channels[channel as usize];
        let was_idle = ch.is_idle();
        ch.enqueue(queued);
        if was_idle {
            let start = ch.next_head_start(&self.cfg, now).expect("just enqueued");
            self.chan_next[channel as usize] = start;
            self.chan_next_min = self.chan_next_min.min(start);
        }
        self.inflight += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight as u64);
    }

    /// Advance the device to cycle `now`: issue DRAM references in
    /// every channel and route finished responses back over the buses.
    pub fn tick(&mut self, now: Cycle) {
        if self.inflight == 0 {
            return;
        }
        let mut ready = std::mem::take(&mut self.scratch);
        if self.chan_next_min <= now {
            let mut min = u64::MAX;
            for w in 0..self.active.len() {
                let mut bits = self.active[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = w * 64 + b;
                    if self.chan_next[idx] > now {
                        min = min.min(self.chan_next[idx]);
                        continue;
                    }
                    let ch = &mut self.channels[idx];
                    ch.tick(now, &self.cfg, &mut self.energy, &mut ready);
                    match ch.next_head_start(&self.cfg, now) {
                        Some(c) => {
                            self.chan_next[idx] = c;
                            min = min.min(c);
                        }
                        None => {
                            self.chan_next[idx] = u64::MAX;
                            self.active[w] &= !(1u64 << b);
                        }
                    }
                }
            }
            self.chan_next_min = min;
        }
        for r in ready.drain(..) {
            self.tracer.emit(now, EventClass::Hmc, || EventKind::VaultService {
                id: r.req.id,
                vault: r.req.link,
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
        let channel = req.link as usize;
        let at_bus = r.data_ready + self.cfg.ctrl_cycles;
        let complete = at_bus.max(self.rsp_bus_busy[channel])
            + rsp_flits * self.cfg.bus_cycles_per_flit;
        self.rsp_bus_busy[channel] = complete;

        // Response occupied its channel response slot until it drained,
        // plus one bus-route operation for the packet.
        self.energy.add(EnergyClass::VaultRspSlot, complete - r.data_ready, self.cfg.e_rsp_slot);
        self.energy.add(EnergyClass::LinkLocalRoute, 1, self.cfg.e_bus_route);

        let mut entry: CompletedEntry =
            (complete, req.id, req.addr, req.bytes, req.op == Op::Store, req.submit_cycle);
        if let Some(ras) = &mut self.ras {
            let plan = ras.plan;
            let banks = self.cfg.banks_per_channel();
            let flat = (req.link * banks + req.bank) as usize;
            match plan.class {
                RasClass::Scrub => {
                    // The patrol scrubber holds the bank for the rest of
                    // its window; data that lands inside one waits it
                    // out. Periodic, not budgeted.
                    let delay = ras.scrub_delay(req.bank, banks, r.data_ready);
                    if delay > 0 {
                        ras.stats.scrub_hits += 1;
                        entry.0 += delay;
                        self.tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::Scrub {
                            channel: req.link,
                            bank: req.bank,
                            delay,
                        });
                    }
                }
                RasClass::EccSingle if ras.events < plan.max_events
                    && plan.should_hit(req.id) =>
                {
                    // SECDED corrects the flipped bit in-line: the data
                    // is right, the response just pays the correction
                    // pipeline — and the bank's wear counter ticks.
                    ras.events += 1;
                    ras.stats.ecc_corrected += 1;
                    entry.0 += plan.ecc_latency;
                    self.tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::EccCorrect {
                        id: req.id,
                        channel: req.link,
                        bank: req.bank,
                    });
                    ras.correctable[flat] += 1;
                    if plan.spare_threshold > 0
                        && ras.correctable[flat] == plan.spare_threshold
                        && !ras.spared[flat]
                    {
                        ras.spared[flat] = true;
                        ras.stats.banks_spared += 1;
                    }
                }
                RasClass::EccDouble if ras.events < plan.max_events
                    && plan.should_hit(req.id) =>
                {
                    // SECDED detects but cannot correct: the beat is
                    // poisoned by corrupting the address echo — the
                    // recovery layer's poison-and-reissue path repairs
                    // it, and the bounded budget lets the reissue
                    // eventually succeed.
                    ras.events += 1;
                    ras.stats.ecc_poisoned += 1;
                    entry.0 += plan.ecc_latency;
                    entry.2 ^= 0x40;
                    self.tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::EccPoison {
                        id: req.id,
                        channel: req.link,
                        bank: req.bank,
                    });
                }
                _ => {}
            }
        }
        if let Some(plan) = self.fault_plan {
            // Validation guarantees max_faults >= 1 and an in-range
            // target_unit. Identical semantics to the HMC injector so
            // the oracle's invariants fire the same way on both
            // backends.
            let budget_ok = self.faults_injected < plan.max_faults;
            let unit_ok = plan.target_unit.is_none_or(|t| t == self.cfg.channel_of(req.addr));
            if budget_ok && unit_ok && plan.should_inject(req.id) {
                self.faults_injected += 1;
                self.tracer.emit(r.data_ready, EventClass::Diagnostic, || {
                    EventKind::FaultInjected { id: req.id, class: plan.class }
                });
                self.tracer.trigger_dump(
                    r.data_ready,
                    DumpTrigger::Fault { class: plan.class, id: req.id },
                );
                match plan.class {
                    FaultClass::DropResponse => {
                        self.inflight -= 1;
                        return;
                    }
                    FaultClass::DuplicateResponse => {
                        self.completed.push(Reverse(entry));
                        self.inflight += 1;
                    }
                    FaultClass::DelayResponse => entry.0 += plan.delay_cycles,
                    FaultClass::CorruptAddr => entry.2 ^= 0x40,
                }
            }
        }
        self.completed.push(Reverse(entry));
    }

    /// Earliest cycle ≥ `now` at which [`Hbm::tick`] or
    /// [`Hbm::pop_responses`] could make progress, or `None` when idle.
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
        best = best.min(self.chan_next_min.max(now));
        (best != u64::MAX).then_some(best)
    }

    /// Earliest cycle ≥ `now` at which [`Hbm::pop_responses`] returns a
    /// response, or `None` when none is on its way back; [`Hbm::next_event`]
    /// while a fault plan is armed or the return path takes zero cycles
    /// (the same contract as `hmc_sim::Hmc::next_visible`).
    pub fn next_visible(&self, now: Cycle) -> Option<Cycle> {
        if self.fault_plan.is_some() || self.cfg.ctrl_cycles + self.cfg.bus_cycles_per_flit == 0 {
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

    /// Total bank conflicts across all channels.
    pub fn bank_conflicts(&self) -> u64 {
        self.channels.iter().map(|c| c.conflicts()).sum()
    }

    /// Cumulative per-cause issue-stall cycles summed across channels.
    pub fn stall_cycles(&self) -> pac_types::StallCycles {
        let mut total = pac_types::StallCycles::default();
        for c in &self.channels {
            total.merge(&c.stalls());
        }
        total
    }

    /// Synchronize the conflict counter into `stats`.
    pub fn finalize_stats(&mut self) {
        self.stats.bank_conflicts = self.bank_conflicts();
    }
}

impl crate::MemoryBackend for Hbm {
    fn kind(&self) -> pac_types::BackendKind {
        pac_types::BackendKind::Hbm
    }
    fn units(&self) -> u32 {
        self.cfg.channels
    }
    fn submit(&mut self, req: HmcRequest, now: Cycle) {
        Hbm::submit(self, req, now);
    }
    fn tick(&mut self, now: Cycle) {
        Hbm::tick(self, now);
    }
    fn pop_responses(&mut self, now: Cycle, out: &mut Vec<HmcResponse>) {
        Hbm::pop_responses(self, now, out);
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Hbm::next_event(self, now)
    }
    fn next_visible(&self, now: Cycle) -> Option<Cycle> {
        Hbm::next_visible(self, now)
    }
    fn is_idle(&self) -> bool {
        Hbm::is_idle(self)
    }
    fn inflight(&self) -> usize {
        Hbm::inflight(self)
    }
    fn stats(&self) -> &HmcStats {
        &self.stats
    }
    fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }
    fn bank_conflicts(&self) -> u64 {
        Hbm::bank_conflicts(self)
    }
    fn finalize_stats(&mut self) {
        Hbm::finalize_stats(self);
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        Hbm::set_fault_plan(self, plan)
    }
    fn faults_injected(&self) -> u64 {
        Hbm::faults_injected(self)
    }
    fn set_ras_plan(&mut self, plan: RasPlan) -> Result<(), RasPlanError> {
        Hbm::set_ras_plan(self, plan)
    }
    fn ras_stats(&self) -> Option<RasStats> {
        Hbm::ras_stats(self)
    }
    fn set_tracer(&mut self, tracer: TraceHandle) {
        Hbm::set_tracer(self, tracer);
    }
    fn stall_cycles(&self) -> Option<pac_types::StallCycles> {
        Some(Hbm::stall_cycles(self))
    }
    fn save_state(&self, w: &mut pac_types::SnapWriter) {
        pac_types::Snapshot::save(self, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBackend;
    use pac_types::AddressInterleave;

    fn device() -> Hbm {
        Hbm::new(HbmDeviceConfig::default())
    }

    fn read(id: u64, addr: u64, bytes: u64) -> HmcRequest {
        HmcRequest { id, addr, bytes, op: Op::Load }
    }

    #[test]
    fn single_read_completes() {
        let mut hbm = device();
        hbm.submit(read(7, 0x1000, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].id, 7);
        assert_eq!(rsps[0].bytes, 64);
        assert!(rsps[0].latency() > 0);
        assert!(hbm.is_idle());
    }

    #[test]
    fn raw_reads_of_one_row_conflict_one_coalesced_does_not() {
        // The paper's motivating pathology at HBM row granularity: four
        // 256B reads of one 1KB row serialize on the closed-page bank;
        // one coalesced 1KB read does not.
        let mut raw = device();
        for i in 0..4 {
            raw.submit(read(i, i * 256, 256), 0);
        }
        let (rsps, raw_done) = raw.drain(0);
        assert_eq!(rsps.len(), 4);
        assert_eq!(raw.bank_conflicts(), 3);

        let mut coalesced = device();
        coalesced.submit(read(9, 0, 1024), 0);
        let (rsps, co_done) = coalesced.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(coalesced.bank_conflicts(), 0);
        assert!(co_done < raw_done);
    }

    #[test]
    fn address_routing_never_goes_remote() {
        let mut hbm = device();
        for i in 0..16 {
            hbm.submit(read(i, i * 1024, 64), 0);
        }
        assert_eq!(hbm.stats.local_routes, 16);
        assert_eq!(hbm.stats.remote_routes, 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 16);
    }

    #[test]
    fn stacked_interleave_parallelizes_a_stream_flat_serializes_it() {
        // Sixteen consecutive rows: stacked spreads them over all 8
        // channels, flat lands them all on channel 0 — the flat run
        // must finish later.
        let mut stacked = device();
        let mut flat =
            Hbm::new(HbmDeviceConfig { interleave: AddressInterleave::Flat, ..Default::default() });
        for i in 0..16 {
            stacked.submit(read(i, i * 1024, 1024), 0);
            flat.submit(read(i, i * 1024, 1024), 0);
        }
        let (_, stacked_done) = stacked.drain(0);
        let (_, flat_done) = flat.drain(0);
        assert!(
            stacked_done < flat_done,
            "stacked {stacked_done} must beat flat {flat_done}"
        );
    }

    #[test]
    fn oversized_and_row_spanning_requests_rejected() {
        let mut hbm = device();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hbm.submit(read(1, 0, 2048), 0)
        }));
        assert!(r.is_err(), "2KB exceeds the 1KB row");
        let mut hbm = device();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hbm.submit(read(1, 512, 1024), 0)
        }));
        assert!(r.is_err(), "spans a row boundary");
    }

    #[test]
    fn transaction_byte_accounting_matches_flit_math() {
        let mut hbm = device();
        hbm.submit(read(1, 0, 64), 0);
        // Read: request 1 flit + response 1 control + 4 payload = 96B.
        assert_eq!(hbm.stats.transaction_bytes, 96);
        assert_eq!(hbm.stats.payload_bytes, 64);
    }

    #[test]
    fn fault_classes_inject_identically_to_hmc_semantics() {
        // Drop loses the response but still drains.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 2,
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        hbm.set_fault_plan(plan).expect("valid");
        for i in 0..8 {
            hbm.submit(read(i, i * 1024, 64), 0);
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(hbm.faults_injected(), 2);
        assert_eq!(rsps.len(), 6);
        assert!(hbm.is_idle());

        // Duplicate delivers twice.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::DuplicateResponse, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        for i in 0..4 {
            hbm.submit(read(i, i * 1024, 64), 0);
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 5);
        assert!(hbm.is_idle());

        // Delay pushes completion out.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            delay_cycles: 100_000,
            ..FaultPlan::new(FaultClass::DelayResponse, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        hbm.submit(read(1, 0, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert!(rsps[0].complete_cycle >= 100_000);

        // CorruptAddr echoes the wrong line.
        let mut hbm = device();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        hbm.submit(read(1, 0x1000, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps[0].addr, 0x1040);
    }

    #[test]
    fn fault_plan_target_unit_checked_against_channel_topology() {
        let mut hbm = device();
        let bad =
            FaultPlan { target_unit: Some(8), ..FaultPlan::new(FaultClass::DropResponse, 1) };
        assert_eq!(
            hbm.set_fault_plan(bad),
            Err(FaultPlanError::TargetUnitOutOfRange { unit: 8, units: 8 })
        );
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: u64::MAX,
            target_unit: Some(1),
            ..FaultPlan::new(FaultClass::DropResponse, 1)
        };
        hbm.set_fault_plan(plan).expect("channel 1 exists");
        for i in 0..4 {
            hbm.submit(read(i, i * 1024, 64), 0); // channels 0..3
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(hbm.faults_injected(), 1);
        assert_eq!(rsps.len(), 3);
        assert!(rsps.iter().all(|r| hbm.config().channel_of(r.addr) != 1));
    }

    fn snapshot_bytes(hbm: &Hbm) -> Vec<u8> {
        use pac_types::Snapshot;
        let mut w = pac_types::SnapWriter::new();
        hbm.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        use pac_types::{SnapReader, Snapshot};
        let mut a = device();
        let mut b = device();
        for i in 0..48 {
            a.submit(read(i, i * 512, 128), i / 2);
            b.submit(read(i, i * 512, 128), i / 2);
        }
        for now in 0..60 {
            a.tick(now);
            b.tick(now);
        }
        let bytes = snapshot_bytes(&a);
        let mut r = SnapReader::new(&bytes);
        let mut restored = Hbm::load(&mut r).expect("load");
        r.finish().expect("consumed");
        let (ra, da) = b.drain(60);
        let (rb, db) = restored.drain(60);
        assert_eq!(ra, rb, "restored run must be bit-identical");
        assert_eq!(da, db);
    }

    #[test]
    fn tracer_captures_lifecycle_and_fault_dump() {
        use pac_types::TraceConfig;
        let mut hbm = device();
        let tracer = TraceHandle::new(TraceConfig::full());
        hbm.set_tracer(tracer.clone());
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        hbm.set_fault_plan(plan).expect("valid");
        hbm.submit(read(42, 0x1000, 64), 0);
        hbm.drain(0);
        let events = tracer.snapshot_events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"hmc_submit"), "got {names:?}");
        assert!(names.contains(&"vault_service"));
        assert!(names.contains(&"fault_injected"));
        assert!(names.contains(&"hmc_response"));
        assert_eq!(tracer.snapshot_dumps().len(), 1);
    }

    #[test]
    fn ecc_single_corrects_for_latency_and_spares_the_worn_bank() {
        use pac_types::{RasClass, RasPlan};
        let mut plain = device();
        let mut armed = device();
        let plan = RasPlan {
            rate_per_1024: 1024,
            max_events: u64::MAX,
            spare_threshold: 3,
            ..RasPlan::new(RasClass::EccSingle, 7)
        };
        armed.set_ras_plan(plan).expect("valid");
        // Hammer one bank (same row repeatedly → same channel/bank).
        for i in 0..8 {
            plain.submit(read(i, 0, 64), i * 200);
            armed.submit(read(i, 0, 64), i * 200);
        }
        let (a, _) = plain.drain(0);
        let (b, _) = armed.drain(0);
        assert_eq!(a.len(), b.len(), "correction conserves responses");
        assert!(a.iter().zip(&b).all(|(x, y)| x.addr == y.addr), "data stays right");
        let stats = armed.ras_stats().expect("armed");
        assert_eq!(stats.ecc_corrected, 8, "{stats:?}");
        assert_eq!(stats.ecc_poisoned, 0);
        assert_eq!(stats.banks_spared, 1, "threshold 3 must spare the bank");
        let sum = |rs: &[HmcResponse]| rs.iter().map(|r| r.latency()).sum::<u64>();
        assert!(sum(&b) > sum(&a), "corrections must cost the ECC pipeline");
    }

    #[test]
    fn ecc_double_poisons_the_address_echo() {
        use pac_types::{RasClass, RasPlan};
        let mut hbm = device();
        let plan = RasPlan {
            rate_per_1024: 1024,
            max_events: 1,
            ..RasPlan::new(RasClass::EccDouble, 7)
        };
        hbm.set_ras_plan(plan).expect("valid");
        hbm.submit(read(1, 0x1000, 64), 0);
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].addr, 0x1040, "poison corrupts the echoed address");
        let stats = hbm.ras_stats().expect("armed");
        assert_eq!(stats.ecc_poisoned, 1);
        // Budget exhausted: a reissue of the same id now succeeds.
        hbm.submit(read(1, 0x1000, 64), 20_000);
        let (rsps, _) = hbm.drain(20_000);
        assert_eq!(rsps[0].addr, 0x1000, "reissue past the budget is clean");
    }

    #[test]
    fn scrub_windows_delay_references_that_land_inside() {
        use pac_types::{RasClass, RasPlan};
        let mut hbm = device();
        // Aggressive windows so a spread of submits must hit several.
        let plan = RasPlan {
            scrub_interval: 2_000,
            scrub_duration: 400,
            ..RasPlan::new(RasClass::Scrub, 7)
        };
        hbm.set_ras_plan(plan).expect("valid");
        let mut submitted = 0u64;
        for i in 0..64 {
            hbm.submit(read(i, i % 4 * 64, 64), i * 150); // one bank, spread in time
            submitted += 1;
        }
        let (rsps, _) = hbm.drain(0);
        assert_eq!(rsps.len() as u64, submitted, "scrub loses nothing");
        let stats = hbm.ras_stats().expect("armed");
        assert!(stats.scrub_hits > 0, "windows must catch some references: {stats:?}");
        assert_eq!(stats.ecc_corrected + stats.ecc_poisoned, 0);
    }

    #[test]
    fn ras_plan_validated_against_backend() {
        use pac_types::{RasClass, RasPlan, RasPlanError};
        let mut hbm = device();
        assert!(matches!(
            hbm.set_ras_plan(RasPlan::new(RasClass::LinkBitError, 1)),
            Err(RasPlanError::WrongBackend { .. })
        ));
        hbm.set_ras_plan(RasPlan::new(RasClass::EccSingle, 1)).expect("valid");
    }

    #[test]
    fn ras_state_snapshots_mid_scrub() {
        use pac_types::{RasClass, RasPlan, SnapReader, Snapshot};
        let mut hbm = device();
        let plan = RasPlan {
            scrub_interval: 2_000,
            scrub_duration: 400,
            ..RasPlan::new(RasClass::Scrub, 7)
        };
        hbm.set_ras_plan(plan).expect("valid");
        for i in 0..32 {
            hbm.submit(read(i, i % 4 * 64, 64), i * 100);
        }
        for now in 0..1500 {
            hbm.tick(now);
        }
        let bytes = snapshot_bytes(&hbm);
        let mut r = SnapReader::new(&bytes);
        let mut restored = Hbm::load(&mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        assert_eq!(snapshot_bytes(&restored), bytes, "restore must be exact");
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        hbm.pop_responses(1500, &mut out_a);
        restored.pop_responses(1500, &mut out_b);
        assert_eq!(out_a, out_b);
        let (a, da) = hbm.drain(1500);
        let (b, db) = restored.drain(1500);
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert_eq!(hbm.ras_stats(), restored.ras_stats());
    }

    #[test]
    fn many_random_requests_all_complete() {
        let mut hbm = device();
        let mut submitted = 0u64;
        for i in 0..500u64 {
            let addr = (i * 2654435761) % (1 << 30);
            hbm.submit(read(i, addr & !63, 64), i / 4);
            submitted += 1;
        }
        let (rsps, _) = hbm.drain(200);
        assert_eq!(rsps.len() as u64, submitted);
        assert_eq!(hbm.stats.responses, submitted);
        for w in rsps.windows(2) {
            assert!(w[0].complete_cycle <= w[1].complete_cycle);
        }
    }
}
