//! The HBM topology: address-routed per-channel buses in front of
//! pseudo-channels, and the DRAM RAS layer.
//!
//! Where the HMC round-robins requests across four shared SERDES links
//! and pays a crossbar hop into the vault quadrants, HBM is
//! **address-routed** — every request travels the bus of the
//! pseudo-channel its address decomposes to, so there are no remote
//! routes and no link-induced spraying. The interesting serialization
//! moves inside the channel: bank groups (tCCD_L), the four-activate
//! window (tFAW), and the per-channel request/response buses, all
//! modelled in [`crate::channel`]. Under an armed [`RasPlan`], ECC
//! corrections and poisons, patrol-scrub windows, and bank sparing act
//! on the channel's responses.
//!
//! Everything else — submission, the unit walk, response scheduling,
//! the fault injector, snapshots — is the one device of
//! [`hmc_sim::device`], of which [`Hbm`] is the HBM instantiation: the
//! shared packet vocabulary, statistics and energy taxonomy are what let
//! the differential conformance suite drive both backends with one
//! harness.

use crate::channel::PseudoChannel;
use hmc_sim::device::{request_flits, response_flits, Route};
use hmc_sim::vault::ReadyResponse;
use hmc_sim::{Device, EnergyBreakdown, EnergyClass, HmcRequest, Topology};
use pac_trace::{EventKind, TraceHandle};
use pac_types::{
    BackendKind, Cycle, EventClass, HbmDeviceConfig, RasClass, RasPlan, RasPlanError, RasStats,
};

/// The HBM device model.
pub type Hbm = Device<Buses>;

/// Runtime state of the DRAM RAS machinery under an armed [`RasPlan`]:
/// per-bank correctable-error counters feeding bank sparing, the spare
/// map itself, and the cumulative event counters. The patrol scrubber
/// needs no mutable state — its windows are a pure function of
/// `(bank, cycle)`, exactly like refresh — so a checkpoint taken
/// mid-scrub carries everything in these fields plus the clock.
#[derive(Debug, Clone)]
pub struct MemRas {
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

    /// The RAS effects on the response of `r` on a channel of `banks`
    /// banks, which would complete at `complete` echoing `addr`: returns
    /// both after the patrol scrubber or an ECC event has acted.
    fn on_response(
        &mut self,
        r: &ReadyResponse,
        banks: u32,
        mut complete: Cycle,
        tracer: &TraceHandle,
    ) -> (Cycle, u64) {
        let req = &r.req;
        let mut addr = req.addr;
        let plan = self.plan;
        let flat = (req.link * banks + req.bank) as usize;
        let (channel, bank) = (req.link, req.bank);
        let hit = self.events < plan.max_events && plan.should_hit(req.id);
        match plan.class {
            RasClass::Scrub => {
                // The patrol scrubber holds the bank for the rest of its
                // window; data that lands inside one waits it out.
                // Periodic, not budgeted.
                let delay = self.scrub_delay(bank, banks, r.data_ready);
                if delay > 0 {
                    self.stats.scrub_hits += 1;
                    complete += delay;
                    tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::Scrub {
                        channel,
                        bank,
                        delay,
                    });
                }
            }
            RasClass::EccSingle if hit => {
                // SECDED corrects the flipped bit in-line: the data is
                // right, the response just pays the correction pipeline
                // — and the bank's wear counter ticks.
                self.events += 1;
                self.stats.ecc_corrected += 1;
                complete += plan.ecc_latency;
                tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::EccCorrect {
                    id: req.id,
                    channel,
                    bank,
                });
                self.correctable[flat] += 1;
                if plan.spare_threshold > 0
                    && self.correctable[flat] == plan.spare_threshold
                    && !self.spared[flat]
                {
                    self.spared[flat] = true;
                    self.stats.banks_spared += 1;
                }
            }
            RasClass::EccDouble if hit => {
                // SECDED detects but cannot correct: the beat is poisoned
                // by corrupting the address echo — the recovery layer's
                // poison-and-reissue path repairs it, and the bounded
                // budget lets the reissue eventually succeed.
                self.events += 1;
                self.stats.ecc_poisoned += 1;
                complete += plan.ecc_latency;
                addr ^= 0x40;
                tracer.emit(r.data_ready, EventClass::Hmc, || EventKind::EccPoison {
                    id: req.id,
                    channel,
                    bank,
                });
            }
            _ => {}
        }
        (complete, addr)
    }
}

/// The HBM's network: the device config and the per-channel buses.
#[derive(Debug)]
pub struct Buses {
    cfg: HbmDeviceConfig,
    /// Per-channel cycle at which the request bus frees up.
    req_busy: Vec<Cycle>,
    /// Per-channel cycle at which the response bus frees up.
    rsp_busy: Vec<Cycle>,
}

pac_types::snapshot_fields!(Buses { cfg, req_busy, rsp_busy });

impl Topology for Buses {
    type Config = HbmDeviceConfig;
    type Unit = PseudoChannel;
    type Ras = MemRas;
    const KIND: BackendKind = BackendKind::Hbm;

    fn new(cfg: HbmDeviceConfig) -> Self {
        let channels = cfg.channels as usize;
        Buses { cfg, req_busy: vec![0; channels], rsp_busy: vec![0; channels] }
    }

    fn config(&self) -> &HbmDeviceConfig {
        &self.cfg
    }

    fn units(&self) -> u32 {
        self.cfg.channels
    }

    fn row_bytes(&self) -> u64 {
        self.cfg.row_bytes
    }

    fn unit_of(&self, addr: u64) -> u32 {
        self.cfg.channel_of(addr)
    }

    fn min_return(&self) -> Cycle {
        self.cfg.ctrl_cycles + self.cfg.bus_cycles_per_flit
    }

    /// ECC/scrub classes only: seeded per-beat SECDED events (correct
    /// single-bit for a pipeline penalty, detect-and-poison double-bit),
    /// patrol-scrub windows that steal bank cycles like refresh, and bank
    /// sparing past a correctable-error threshold.
    fn arm_ras(&self, plan: RasPlan) -> Result<MemRas, RasPlanError> {
        let plan = plan.validate_for(BackendKind::Hbm, self.cfg.channels)?;
        let flat = (self.cfg.channels * self.cfg.banks_per_channel()) as usize;
        let (correctable, spared) = (vec![0; flat], vec![false; flat]);
        Ok(MemRas { plan, events: 0, correctable, spared, stats: RasStats::default() })
    }

    fn ras_stats(ras: &MemRas) -> RasStats {
        ras.stats
    }

    #[inline]
    fn send(
        &mut self,
        ras: Option<&mut MemRas>,
        req: &HmcRequest,
        now: Cycle,
        energy: &mut EnergyBreakdown,
        _tracer: &TraceHandle,
    ) -> Route {
        let channel = self.cfg.channel_of(req.addr);
        let mut bank = self.cfg.flat_bank_of(req.addr);
        // Bank sparing: a worn-out bank's traffic is steered to the
        // channel's spare (its last bank stands in for a dedicated
        // spare) — the address map is unchanged, only the physical bank
        // under it.
        let banks = self.cfg.banks_per_channel();
        if ras.is_some_and(|ras| ras.spared[(channel * banks + bank) as usize]) {
            bank = banks - 1;
        }
        // Address-routed: the request travels its home channel's bus.
        let ch = channel as usize;
        let transfer_done =
            now.max(self.req_busy[ch]) + request_flits(req) * self.cfg.bus_cycles_per_flit;
        self.req_busy[ch] = transfer_done;
        // One bus-route operation per packet. Every route is "local":
        // with address routing there is no crossbar to cross, which is
        // the structural difference the differential suite exposes
        // against the HMC's round-robin link spraying.
        energy.add(EnergyClass::LinkLocalRoute, 1, self.cfg.e_bus_route);
        let arrival = transfer_done + self.cfg.ctrl_cycles;
        Route { unit: channel, bank, link: channel, remote: false, arrival }
    }

    #[inline]
    fn send_back(
        &mut self,
        ras: Option<&mut MemRas>,
        r: &ReadyResponse,
        energy: &mut EnergyBreakdown,
        tracer: &TraceHandle,
    ) -> (Cycle, u64) {
        let req = &r.req;
        let ch = req.link as usize;
        let at_bus = r.data_ready + self.cfg.ctrl_cycles;
        let complete = at_bus.max(self.rsp_busy[ch])
            + response_flits(req.bytes, req.op) * self.cfg.bus_cycles_per_flit;
        self.rsp_busy[ch] = complete;
        // The response occupied its channel response slot until it
        // drained, plus one bus-route operation for the packet.
        energy.add(EnergyClass::VaultRspSlot, complete - r.data_ready, self.cfg.e_rsp_slot);
        energy.add(EnergyClass::LinkLocalRoute, 1, self.cfg.e_bus_route);
        match ras {
            Some(ras) => ras.on_response(r, self.cfg.banks_per_channel(), complete, tracer),
            None => (complete, req.addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBackend;
    use hmc_sim::HmcResponse;
    use pac_types::{AddressInterleave, Op};

    fn device() -> Hbm {
        Hbm::new(HbmDeviceConfig::default())
    }

    fn read(id: u64, addr: u64, bytes: u64) -> HmcRequest {
        HmcRequest { id, addr, bytes, op: Op::Load }
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
    fn transaction_byte_accounting_matches_flit_math() {
        let mut hbm = device();
        hbm.submit(read(1, 0, 64), 0);
        // Read: request 1 flit + response 1 control + 4 payload = 96B.
        assert_eq!(hbm.stats.transaction_bytes, 96);
        assert_eq!(hbm.stats.payload_bytes, 64);
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

}
