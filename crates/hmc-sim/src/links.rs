//! The HMC topology: SERDES links, the crossbar, and the link RAS layer.
//!
//! The controller assigns requests to links round-robin (the policy the
//! paper identifies as the cause of remote-vault routing for un-coalesced
//! requests, Sec 2.1.2), streams their FLITs over the link, and routes
//! them across the crossbar — charging the local or remote route energy —
//! into the target vault's queue. Responses return over the crossbar and
//! the link they came in on. Under an armed [`RasPlan`], packets may take
//! CRC errors and replay, wait for flow-control tokens, and push their
//! link down the half-width/retire degradation ladder.

use crate::device::{request_flits, response_flits, Device, HmcRequest, Route, Topology};
use crate::energy::{EnergyBreakdown, EnergyClass};
use crate::vault::{ReadyResponse, Vault};
use pac_trace::{EventKind, TraceHandle};
use pac_types::{
    BackendKind, Cycle, EventClass, HmcDeviceConfig, RasClass, RasPlan, RasPlanError, RasStats,
};
use std::collections::VecDeque;

/// The HMC device model.
pub type Hmc = Device<Links>;

/// Runtime state of the SERDES link RAS machinery under an armed
/// [`RasPlan`]: per-link retry counters feeding the degradation ladder,
/// width/retirement flags, and the flow-control credit queues. All of
/// it round-trips through snapshots so a checkpoint taken
/// mid-retransmission resumes bit-identically.
#[derive(Debug, Clone)]
pub struct LinkRas {
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

    fn alive_links(&self) -> usize {
        self.retired.iter().filter(|r| !**r).count()
    }

    /// Token flow control: each packet occupies one retry-buffer slot
    /// until acked back; when every slot is outstanding the packet waits
    /// for the oldest ack. Returns the packet's start cycle.
    fn await_token(&mut self, link: usize, start: Cycle) -> Cycle {
        if self.plan.token_limit == 0 {
            return start;
        }
        let q = &mut self.tokens[link];
        while q.front().is_some_and(|&t| t <= start) {
            q.pop_front();
        }
        if q.len() >= self.plan.token_limit as usize {
            let freed = q.pop_front().expect("non-empty at limit");
            if freed > start {
                self.stats.token_stalls += 1;
                return freed;
            }
        }
        start
    }

    /// The CRC check of packet `id` on `link`. Preset plans measure the
    /// steady degraded state; only live-injection plans generate errors.
    /// A damaged packet is NAK'd and replayed once from the retry buffer,
    /// costing the turnaround plus a full re-send (`resend` cycles): the
    /// retried packet arrives exactly once — latency, not conservation,
    /// is what degrades. Returns the extra cycles.
    fn retry_cycles(
        &mut self,
        link: usize,
        id: u64,
        resend: Cycle,
        now: Cycle,
        tracer: &TraceHandle,
    ) -> Cycle {
        let plan = self.plan;
        let l = link as u32;
        if plan.preset_degraded || self.events >= plan.max_events || !plan.hits_link(l, id) {
            return 0;
        }
        self.events += 1;
        self.stats.crc_errors += 1;
        tracer.emit(now, EventClass::Hmc, || EventKind::CrcError { id, link: l });
        let attempt = self.retries[link] + 1;
        self.retries[link] = attempt;
        self.stats.link_retries += 1;
        tracer.emit(now, EventClass::Hmc, || EventKind::LinkRetry { id, link: l, attempt });
        // Degradation ladder: storm threshold down-shifts the link to
        // half width; past the retire threshold it is pulled from
        // dispatch (never the last live link).
        let laddered = matches!(plan.class, RasClass::RetryStorm | RasClass::LinkRetire);
        if laddered && attempt >= plan.storm_threshold && !self.half[link] {
            self.half[link] = true;
            self.stats.links_half_width += 1;
            tracer.emit(now, EventClass::Hmc, || EventKind::LinkDegrade {
                link: l,
                retired: false,
            });
        }
        if plan.class == RasClass::LinkRetire
            && attempt >= plan.retire_threshold
            && !self.retired[link]
            && self.alive_links() > 1
        {
            self.retired[link] = true;
            self.stats.links_retired += 1;
            tracer.emit(now, EventClass::Hmc, || EventKind::LinkDegrade {
                link: l,
                retired: true,
            });
        }
        resend + plan.retry_latency
    }
}

/// The HMC's network: the device config, and the links with their
/// round-robin dispatch pointer.
#[derive(Debug)]
pub struct Links {
    cfg: HmcDeviceConfig,
    /// Per-link cycle at which the request direction frees up.
    req_busy: Vec<Cycle>,
    /// Per-link cycle at which the response direction frees up.
    rsp_busy: Vec<Cycle>,
    /// Round-robin pointer for link dispatch.
    rr: usize,
}

pac_types::snapshot_fields!(Links { cfg, req_busy, rsp_busy, rr });

impl Links {
    /// Effective cycles-per-FLIT on `link`: doubled at half width.
    #[inline]
    fn cycles_per_flit(&self, ras: Option<&LinkRas>, link: usize) -> Cycle {
        let base = self.cfg.link_cycles_per_flit;
        if ras.is_some_and(|ras| ras.half[link]) {
            base * 2
        } else {
            base
        }
    }

    /// Crossbar traversal between a link and a vault.
    #[inline]
    fn xbar(&self, remote: bool) -> Cycle {
        if remote {
            self.cfg.xbar_remote_cycles
        } else {
            self.cfg.xbar_local_cycles
        }
    }

    /// Routing energy is charged per routing *operation* (crossbar
    /// arbitration and path setup for one packet), as in the paper's
    /// Sec 2.1.2 accounting: coalescing four requests into one saves
    /// three route operations even though the payload FLITs remain.
    #[inline]
    fn charge_route(&self, energy: &mut EnergyBreakdown, remote: bool) {
        if remote {
            energy.add(EnergyClass::LinkRemoteRoute, 1, self.cfg.e_link_remote_route);
        } else {
            energy.add(EnergyClass::LinkLocalRoute, 1, self.cfg.e_link_local_route);
        }
    }
}

impl Topology for Links {
    type Config = HmcDeviceConfig;
    type Unit = Vault;
    type Ras = LinkRas;
    const KIND: BackendKind = BackendKind::Hmc;

    fn new(cfg: HmcDeviceConfig) -> Self {
        let links = cfg.links as usize;
        Links { cfg, req_busy: vec![0; links], rsp_busy: vec![0; links], rr: 0 }
    }

    fn config(&self) -> &HmcDeviceConfig {
        &self.cfg
    }

    fn units(&self) -> u32 {
        self.cfg.vaults
    }

    fn row_bytes(&self) -> u64 {
        self.cfg.row_bytes
    }

    fn unit_of(&self, addr: u64) -> u32 {
        self.cfg.vault_of(addr)
    }

    #[inline]
    fn min_return(&self) -> Cycle {
        self.xbar(false).min(self.xbar(true)) + self.cfg.link_cycles_per_flit
    }

    /// Link classes only, `target_link` bounds-checked.
    fn arm_ras(&self, plan: RasPlan) -> Result<LinkRas, RasPlanError> {
        let plan = plan.validate_for(BackendKind::Hmc, self.cfg.links)?;
        Ok(LinkRas::new(plan, self.req_busy.len()))
    }

    fn ras_stats(ras: &LinkRas) -> RasStats {
        ras.stats
    }

    #[inline]
    fn send(
        &mut self,
        mut ras: Option<&mut LinkRas>,
        req: &HmcRequest,
        now: Cycle,
        energy: &mut EnergyBreakdown,
        tracer: &TraceHandle,
    ) -> Route {
        let vault = self.cfg.vault_of(req.addr);
        // Round-robin link dispatch: take the next link in rotation.
        // With RAS armed, retired links are skipped and dispatch
        // re-balances across the survivors (retirement never claims the
        // last live link, so the walk terminates).
        let links = self.req_busy.len();
        let mut link = self.rr;
        while ras.as_ref().is_some_and(|ras| ras.retired[link]) {
            link = (link + 1) % links;
        }
        self.rr = (link + 1) % links;

        let flits = request_flits(req);
        let mut start = now.max(self.req_busy[link]);
        if let Some(ras) = ras.as_deref_mut() {
            start = ras.await_token(link, start);
        }
        let cpf = self.cycles_per_flit(ras.as_deref(), link);
        let mut transfer_done = start + flits * cpf;
        if let Some(ras) = ras {
            transfer_done += ras.retry_cycles(link, req.id, flits * cpf, now, tracer);
            if ras.plan.token_limit > 0 {
                ras.tokens[link].push_back(transfer_done + ras.plan.token_return);
            }
        }
        self.req_busy[link] = transfer_done;

        let remote = self.cfg.home_link_of_vault(vault) != link as u32;
        self.charge_route(energy, remote);
        Route {
            unit: vault,
            bank: self.cfg.bank_of(req.addr),
            link: link as u32,
            remote,
            arrival: transfer_done + self.xbar(remote),
        }
    }

    #[inline]
    fn send_back(
        &mut self,
        ras: Option<&mut LinkRas>,
        r: &ReadyResponse,
        energy: &mut EnergyBreakdown,
        _tracer: &TraceHandle,
    ) -> (Cycle, u64) {
        let req = &r.req;
        let link = req.link as usize;
        // A down-shifted link pays half width on the return direction
        // too; a retired link still drains its in-flight responses.
        let cpf = self.cycles_per_flit(ras.as_deref(), link);
        let at_link = r.data_ready + self.xbar(req.remote);
        let complete =
            at_link.max(self.rsp_busy[link]) + response_flits(req.bytes, req.op) * cpf;
        self.rsp_busy[link] = complete;
        // The response occupied its vault response slot until it drained,
        // plus one route operation for the response packet.
        energy.add(EnergyClass::VaultRspSlot, complete - r.data_ready, self.cfg.e_vault_rsp_slot);
        self.charge_route(energy, req.remote);
        (complete, req.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HmcResponse;
    use pac_types::Op;

    fn device() -> Hmc {
        Hmc::new(HmcDeviceConfig::default())
    }

    /// Tick `hmc` from `now` until it is idle: the responses and the
    /// cycle it went idle.
    fn drain(hmc: &mut Hmc, mut now: Cycle) -> (Vec<HmcResponse>, Cycle) {
        let mut out = Vec::new();
        while !hmc.is_idle() {
            hmc.tick(now);
            hmc.pop_responses(now, &mut out);
            now += 1;
        }
        (out, now)
    }

    fn read(id: u64, addr: u64, bytes: u64) -> HmcRequest {
        HmcRequest { id, addr, bytes, op: Op::Load }
    }

    #[test]
    fn responses_not_visible_early() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 64), 0);
        hmc.tick(1);
        let mut out = Vec::new();
        hmc.pop_responses(1, &mut out);
        assert!(out.is_empty());
        assert!(!hmc.is_idle());
    }

    #[test]
    fn four_raw_reads_conflict_one_coalesced_does_not() {
        // Sec 2.1.1 motivating example, end to end.
        let mut raw = device();
        for i in 0..4 {
            raw.submit(read(i, i * 64, 64), 0);
        }
        let (rsps, _) = drain(&mut raw, 0);
        assert_eq!(rsps.len(), 4);
        assert_eq!(raw.bank_conflicts(), 3);

        let mut coalesced = device();
        coalesced.submit(read(9, 0, 256), 0);
        let (rsps, _) = drain(&mut coalesced, 0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(coalesced.bank_conflicts(), 0);
    }

    #[test]
    fn coalesced_read_finishes_sooner_than_raw_reads() {
        let mut raw = device();
        for i in 0..4 {
            raw.submit(read(i, i * 64, 64), 0);
        }
        let (_, raw_done) = drain(&mut raw, 0);
        let mut coalesced = device();
        coalesced.submit(read(9, 0, 256), 0);
        let (_, co_done) = drain(&mut coalesced, 0);
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
    fn writes_complete_and_count_latency() {
        let mut hmc = device();
        hmc.submit(HmcRequest { id: 3, addr: 0x40, bytes: 128, op: Op::Store }, 5);
        let (rsps, _) = drain(&mut hmc, 5);
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
        let (rsps, _) = drain(&mut hmc, 0);
        assert_eq!(rsps.len(), 2);
        assert_eq!(hmc.bank_conflicts(), 0);
    }

    #[test]
    fn energy_accumulates_per_class() {
        let mut hmc = device();
        hmc.submit(read(1, 0, 64), 0);
        drain(&mut hmc, 0);
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
        drain(&mut hmc, 0);
        assert!(hmc.is_idle());
        assert_eq!(hmc.stats.peak_inflight, 8, "peak persists after drain");
    }

    #[test]
    fn remote_routing_costs_more_latency() {
        // Vault 0's home link is 0. A request forced onto link 1 pays
        // the remote crossbar both ways. Compare two single-request
        // devices whose round-robin pointers start at different links.
        let mut local = device();
        local.submit(read(1, 0, 64), 0); // link 0 → vault 0: local
        let (r_local, _) = drain(&mut local, 0);

        let mut remote = device();
        remote.submit(read(0, 256 * 8, 64), 0); // consumes link 0 (vault 8, remote)
        let (r_remote, _) = drain(&mut remote, 0);
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
        let (rsps, _) = drain(&mut hmc, 0);
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
        let (rsps, _) = drain(&mut hmc, 0);
        let first = rsps.first().unwrap().complete_cycle;
        let last = rsps.last().unwrap().complete_cycle;
        assert!(last > first, "burst must spread: {first}..{last}");
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
        let (a, da) = drain(&mut plain, 0);
        let (b, db) = drain(&mut traced, 0);
        assert_eq!(a, b, "tracing must not perturb device behavior");
        assert_eq!(da, db);
        assert_eq!(plain.stats, traced.stats);
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
        let (a, _) = drain(&mut plain, 0);
        let (b, _) = drain(&mut armed, 0);
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
        drain(&mut hmc, 0);
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
        let (rsps, _) = drain(&mut hmc, 600);
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
        drain(&mut hmc, 0);
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
        let (rsps, _) = drain(&mut hmc, 0);
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

}
