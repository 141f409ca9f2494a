//! Vault controllers and DRAM banks.
//!
//! Each vault owns an in-order request queue and a set of banks operating
//! under the HMC **closed-page policy**: every memory reference activates
//! its row, streams the column accesses, and precharges — there is no row
//! buffer to hit (Sec 2.2.2). A request reaching the head of the vault
//! queue while its target bank is still busy with a previous reference is
//! a **bank conflict**; with closed pages, un-coalesced adjacent requests
//! to one row conflict pairwise, which is exactly the pathology PAC
//! removes (Sec 2.1.1).
//!
//! The bank, queue-entry and ready-response types here, and the
//! closed-page reference and refresh timing, are shared by every unit
//! model: the HBM pseudo-channel (`pac-mem`) builds on them too.

use crate::device::Unit;
use crate::energy::{EnergyBreakdown, EnergyClass};
use pac_types::{Cycle, HmcDeviceConfig, Op};
use std::collections::VecDeque;

/// One DRAM bank: closed-page, so the only state is when it frees up.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Cycle at which the current reference (including precharge)
    /// finishes; the bank accepts a new activate from then on.
    pub busy_until: Cycle,
    /// References serviced.
    pub references: u64,
    /// References that had to wait for a prior reference to finish.
    pub conflicts: u64,
    /// References delayed by a refresh window.
    pub refresh_stalls: u64,
}

/// Cycles after issue at which a closed-page reference of `bytes` has
/// its data ready (activate, then one column access per 32 B), and at
/// which its bank frees up again (after the precharge).
#[inline]
pub fn reference_timing(
    bytes: u64,
    t_activate: Cycle,
    t_access_per_32b: Cycle,
    t_precharge: Cycle,
) -> (Cycle, Cycle) {
    let data_ready_off = t_activate + bytes.div_ceil(32) * t_access_per_32b;
    (data_ready_off, data_ready_off + t_precharge)
}

/// If `start` falls inside one of `bank`'s refresh windows, push it to
/// the end of that window. Windows last `duration` cycles and repeat
/// every `interval` cycles (either 0 disables refresh); a unit's `banks`
/// are staggered across the interval, offset by half an interval so
/// cycle 0 (cold start) is never inside a window.
#[inline]
pub fn refresh_adjusted_start(
    start: Cycle,
    bank: u32,
    banks: u32,
    interval: Cycle,
    duration: Cycle,
) -> Cycle {
    if interval == 0 || duration == 0 {
        return start;
    }
    let stagger = (u64::from(bank) * interval / u64::from(banks.max(1)) + interval / 2) % interval;
    let phase = (start + interval - stagger) % interval;
    if phase < duration {
        start + (duration - phase)
    } else {
        start
    }
}

/// A request queued inside a unit, with its precomputed routing info.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    pub id: u64,
    pub addr: u64,
    pub bytes: u64,
    pub op: Op,
    pub bank: u32,
    /// Cycle the request lands in the unit queue.
    pub arrival: Cycle,
    /// Cycle the raw request was submitted to the device (for latency).
    pub submit_cycle: Cycle,
    /// Link the request arrived on (the response returns the same way);
    /// on the HBM, the owning channel.
    pub link: u32,
    /// Whether the route crossed to a remote quadrant.
    pub remote: bool,
}

/// A reference whose DRAM access has completed; the device routes the
/// response packet back to the host.
#[derive(Debug, Clone)]
pub struct ReadyResponse {
    pub req: QueuedRequest,
    /// Cycle the data is available at the unit's response slot.
    pub data_ready: Cycle,
}

/// An in-order vault controller over `banks_per_vault` banks.
#[derive(Debug, Clone)]
pub struct Vault {
    pub queue: VecDeque<QueuedRequest>,
    pub banks: Vec<Bank>,
    /// Next cycle the controller may issue (one issue per cycle).
    next_issue: Cycle,
}

pac_types::snapshot_fields!(Bank { busy_until, references, conflicts, refresh_stalls });
pac_types::snapshot_fields!(QueuedRequest {
    id, addr, bytes, op, bank, arrival, submit_cycle, link, remote
});
pac_types::snapshot_fields!(ReadyResponse { req, data_ready });
pac_types::snapshot_fields!(Vault { queue, banks, next_issue });

impl Vault {
    /// The head's issue cycle before and after the refresh push-out:
    /// arrival, the one-issue-per-cycle port, and the bank.
    #[inline]
    fn head_start(&self, cfg: &HmcDeviceConfig, head: &QueuedRequest) -> (Cycle, Cycle) {
        let bank = &self.banks[head.bank as usize];
        let base = head.arrival.max(self.next_issue).max(bank.busy_until);
        let (interval, duration) = (cfg.t_refresh_interval, cfg.t_refresh_duration);
        (base, refresh_adjusted_start(base, head.bank, cfg.banks_per_vault, interval, duration))
    }
}

impl Unit for Vault {
    type Config = HmcDeviceConfig;

    fn new(cfg: &HmcDeviceConfig) -> Self {
        Vault {
            queue: VecDeque::new(),
            banks: vec![Bank::default(); cfg.banks_per_vault as usize],
            next_issue: 0,
        }
    }

    #[inline]
    fn enqueue(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Issue every head request that can start by `now`; energy and
    /// conflict accounting is charged as references issue.
    fn tick(
        &mut self,
        now: Cycle,
        cfg: &HmcDeviceConfig,
        energy: &mut EnergyBreakdown,
        out: &mut Vec<ReadyResponse>,
    ) {
        while let Some(head) = self.queue.front() {
            if head.arrival > now {
                break;
            }
            let (base_start, start) = self.head_start(cfg, head);
            if start > now {
                // Bank, issue port, or refresh window not clear yet;
                // in-order head-of-line wait. Re-evaluated next tick.
                break;
            }
            let req = self.queue.pop_front().expect("head exists");
            let port_free = req.arrival.max(self.next_issue);
            let bank = &mut self.banks[req.bank as usize];
            // A conflict is attributed to the bank only when the bank —
            // not the issue port or queue order — extended the wait.
            let conflicted = bank.busy_until > port_free;
            bank.references += 1;
            if conflicted {
                bank.conflicts += 1;
            }
            if start > base_start {
                bank.refresh_stalls += 1;
            }

            let (ready_off, busy_off) =
                reference_timing(req.bytes, cfg.t_activate, cfg.t_access_per_32b, cfg.t_precharge);
            bank.busy_until = start + busy_off;
            self.next_issue = start + 1;

            // Vault controller op + bank energy.
            energy.add(EnergyClass::VaultCtrl, 1, cfg.e_vault_ctrl);
            energy.add(EnergyClass::BankActPre, 1, cfg.e_bank_act_pre);
            energy.add(EnergyClass::BankAccess, req.bytes.div_ceil(32), cfg.e_bank_access_32b);
            // Request packet occupied its vault slot from arrival until
            // the reference issued.
            energy.add(
                EnergyClass::VaultRqstSlot,
                start - req.arrival + 1,
                cfg.e_vault_rqst_slot,
            );

            out.push(ReadyResponse { data_ready: start + ready_off, req });
        }
    }

    /// Computed from the same arrival/issue-port/bank/refresh terms as
    /// the issue path, so the estimate is exact for the current head.
    #[inline]
    fn next_head_start(&self, cfg: &HmcDeviceConfig, now: Cycle) -> Option<Cycle> {
        let head = self.queue.front()?;
        Some(self.head_start(cfg, head).1.max(now))
    }

    fn conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.conflicts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh(c: &HmcDeviceConfig, bank: u32, start: Cycle) -> Cycle {
        let (interval, duration) = (c.t_refresh_interval, c.t_refresh_duration);
        refresh_adjusted_start(start, bank, c.banks_per_vault, interval, duration)
    }

    fn cfg() -> HmcDeviceConfig {
        HmcDeviceConfig::default()
    }

    fn q(id: u64, addr: u64, bytes: u64, arrival: Cycle) -> QueuedRequest {
        QueuedRequest {
            id,
            addr,
            bytes,
            op: Op::Load,
            bank: 0,
            arrival,
            submit_cycle: arrival,
            link: 0,
            remote: false,
        }
    }

    #[test]
    fn single_reference_timing() {
        let c = cfg();
        let mut v = Vault::new(&c);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        v.enqueue(q(1, 0, 64, 0));
        v.tick(0, &c, &mut e, &mut out);
        assert_eq!(out.len(), 1);
        // data ready = tACT + 2 access chunks of 32B * 2cyc = 28 + 4 = 32.
        assert_eq!(out[0].data_ready, c.t_activate + 2 * c.t_access_per_32b);
        assert_eq!(v.conflicts(), 0);
        assert_eq!(v.banks[0].references, 1);
        assert_eq!(e.events(EnergyClass::VaultCtrl), 1);
        assert_eq!(e.events(EnergyClass::BankAccess), 2);
    }

    #[test]
    fn back_to_back_same_bank_conflicts() {
        let c = cfg();
        let mut v = Vault::new(&c);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        v.enqueue(q(1, 0, 64, 0));
        v.enqueue(q(2, 0, 64, 0)); // same bank, same row: closed page forces re-activate
        // First issues at 0; second must wait for the full bank cycle.
        let (_, busy) = reference_timing(64, c.t_activate, c.t_access_per_32b, c.t_precharge);
        for now in 0..=busy + 1 {
            v.tick(now, &c, &mut e, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(v.conflicts(), 1);
        assert_eq!(out[1].data_ready, busy + c.t_activate + 2 * c.t_access_per_32b);
    }

    #[test]
    fn one_coalesced_reference_avoids_conflict() {
        // The motivating example of Sec 2.1.1: four 64B requests to one
        // 256B row conflict; one 256B request does not.
        let c = cfg();
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();

        let mut raw = Vault::new(&c);
        for i in 0..4 {
            raw.enqueue(q(i, i * 64, 64, 0));
        }
        let mut now = 0;
        while !raw.is_idle() {
            raw.tick(now, &c, &mut e, &mut out);
            now += 1;
        }
        assert_eq!(raw.conflicts(), 3);

        out.clear();
        let mut coalesced = Vault::new(&c);
        coalesced.enqueue(q(9, 0, 256, 0));
        coalesced.tick(0, &c, &mut e, &mut out);
        assert_eq!(coalesced.conflicts(), 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let c = cfg();
        let mut v = Vault::new(&c);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        let mut r2 = q(2, 64, 64, 0);
        r2.bank = 1;
        v.enqueue(q(1, 0, 64, 0));
        v.enqueue(r2);
        for now in 0..4 {
            v.tick(now, &c, &mut e, &mut out);
        }
        // Second issues one cycle later (issue port), not a bank conflict.
        assert_eq!(out.len(), 2);
        assert_eq!(v.conflicts(), 0);
    }

    #[test]
    fn requests_do_not_issue_before_arrival() {
        let c = cfg();
        let mut v = Vault::new(&c);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        v.enqueue(q(1, 0, 64, 10));
        v.tick(5, &c, &mut e, &mut out);
        assert!(out.is_empty());
        v.tick(10, &c, &mut e, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn refresh_window_delays_references() {
        let mut c = cfg();
        c.t_refresh_interval = 1000;
        c.t_refresh_duration = 100;
        // Bank 0's window covers [500, 600): a reference at cycle 510
        // must wait until the window closes at 600.
        let mut v = Vault::new(&c);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        v.enqueue(q(1, 0, 64, 510));
        for now in 0..=600 {
            v.tick(now, &c, &mut e, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].data_ready,
            600 + c.t_activate + 2 * c.t_access_per_32b,
            "service starts after the refresh window"
        );
        assert_eq!(v.banks[0].refresh_stalls, 1);
    }

    #[test]
    fn refresh_disabled_when_interval_zero() {
        let mut c = cfg();
        c.t_refresh_interval = 0;
        assert_eq!(refresh(&c, 0, 5), 5);
    }

    #[test]
    fn references_outside_windows_are_untouched() {
        let mut c = cfg();
        c.t_refresh_interval = 1000;
        c.t_refresh_duration = 100;
        // Phase 100 of bank 0's cycle: far from its [500, 600) window.
        assert_eq!(refresh(&c, 0, 100), 100);
        // Banks are staggered: bank 8 refreshes half an interval later.
        assert_ne!(refresh(&c, 8, 0), refresh(&c, 0, 0));
    }

    #[test]
    fn request_slot_energy_grows_with_wait() {
        let c = cfg();
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        let mut v = Vault::new(&c);
        v.enqueue(q(1, 0, 64, 0));
        v.enqueue(q(2, 0, 64, 0));
        let mut now = 0;
        while !v.is_idle() {
            v.tick(now, &c, &mut e, &mut out);
            now += 1;
        }
        // Second request waited a full bank reference; slot cycles exceed 2.
        assert!(e.events(EnergyClass::VaultRqstSlot) > 2);
    }
}
