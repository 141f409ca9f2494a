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

/// If `start` falls inside one of the bank's staggered refresh windows,
/// push it to the end of that window. Windows repeat every
/// `t_refresh_interval` cycles with per-bank phase `stagger`.
fn refresh_adjusted_start(cfg: &HmcDeviceConfig, bank_index: usize, start: Cycle) -> Cycle {
    if cfg.t_refresh_interval == 0 || cfg.t_refresh_duration == 0 {
        return start;
    }
    let interval = cfg.t_refresh_interval;
    // Stagger banks across the interval; offset by half an interval so
    // cycle 0 (cold start) is never inside a window.
    let stagger = ((bank_index as u64 * interval) / 16 + interval / 2) % interval;
    let phase = (start + interval - stagger) % interval;
    if phase < cfg.t_refresh_duration {
        start + (cfg.t_refresh_duration - phase)
    } else {
        start
    }
}

/// A request queued inside a vault, with its precomputed routing info.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    pub id: u64,
    pub addr: u64,
    pub bytes: u64,
    pub op: Op,
    pub bank: u32,
    /// Cycle the request lands in the vault queue.
    pub arrival: Cycle,
    /// Cycle the raw request was submitted to the device (for latency).
    pub submit_cycle: Cycle,
    /// Link the request arrived on (the response returns the same way).
    pub link: u32,
    /// Whether the route crossed to a remote quadrant.
    pub remote: bool,
}

/// A reference whose DRAM access has completed; the device layer routes
/// the response packet back over the crossbar and link.
#[derive(Debug, Clone)]
pub struct ReadyResponse {
    pub req: QueuedRequest,
    /// Cycle the data is available at the vault's response slot.
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
    pub fn new(banks: u32) -> Self {
        Vault {
            queue: VecDeque::new(),
            banks: vec![Bank::default(); banks as usize],
            next_issue: 0,
        }
    }

    /// Queue a request for service.
    pub fn enqueue(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
    }

    /// True if no request is queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Cycles a closed-page reference of `bytes` keeps its bank busy, and
    /// the offset at which the data becomes available.
    fn reference_timing(cfg: &HmcDeviceConfig, bytes: u64) -> (Cycle, Cycle) {
        let access = bytes.div_ceil(32) * cfg.t_access_per_32b;
        let data_ready_off = cfg.t_activate + access;
        (data_ready_off, data_ready_off + cfg.t_precharge)
    }

    /// Issue every head request that can start by `now`. Completed DRAM
    /// accesses are appended to `out`; energy and conflict accounting is
    /// charged as references issue.
    pub fn tick(
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
            let bank = &self.banks[head.bank as usize];
            let base_start = head.arrival.max(self.next_issue).max(bank.busy_until);
            let start = refresh_adjusted_start(cfg, head.bank as usize, base_start);
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

            let (ready_off, busy_off) = Self::reference_timing(cfg, req.bytes);
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

    /// Earliest cycle ≥ `now` at which [`Vault::tick`] could issue the
    /// head request, or `None` when the queue is empty. Computed from
    /// the same arrival/issue-port/bank/refresh terms as the issue path,
    /// so the estimate is exact for the current head.
    pub fn next_head_start(&self, cfg: &HmcDeviceConfig, now: Cycle) -> Option<Cycle> {
        let head = self.queue.front()?;
        let bank = &self.banks[head.bank as usize];
        let base = head.arrival.max(self.next_issue).max(bank.busy_until);
        Some(refresh_adjusted_start(cfg, head.bank as usize, base).max(now))
    }

    /// Total conflicts across this vault's banks.
    pub fn conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.conflicts).sum()
    }

    /// Total references across this vault's banks.
    pub fn references(&self) -> u64 {
        self.banks.iter().map(|b| b.references).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut v = Vault::new(2);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        v.enqueue(q(1, 0, 64, 0));
        v.tick(0, &c, &mut e, &mut out);
        assert_eq!(out.len(), 1);
        // data ready = tACT + 2 access chunks of 32B * 2cyc = 28 + 4 = 32.
        assert_eq!(out[0].data_ready, c.t_activate + 2 * c.t_access_per_32b);
        assert_eq!(v.conflicts(), 0);
        assert_eq!(v.references(), 1);
        assert_eq!(e.events(EnergyClass::VaultCtrl), 1);
        assert_eq!(e.events(EnergyClass::BankAccess), 2);
    }

    #[test]
    fn back_to_back_same_bank_conflicts() {
        let c = cfg();
        let mut v = Vault::new(2);
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        v.enqueue(q(1, 0, 64, 0));
        v.enqueue(q(2, 0, 64, 0)); // same bank, same row: closed page forces re-activate
        // First issues at 0; second must wait for the full bank cycle.
        let (_, busy) = Vault::reference_timing(&c, 64);
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

        let mut raw = Vault::new(1);
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
        let mut coalesced = Vault::new(1);
        coalesced.enqueue(q(9, 0, 256, 0));
        coalesced.tick(0, &c, &mut e, &mut out);
        assert_eq!(coalesced.conflicts(), 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let c = cfg();
        let mut v = Vault::new(2);
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
        let mut v = Vault::new(1);
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
        let mut v = Vault::new(1);
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
        assert_eq!(refresh_adjusted_start(&c, 0, 5), 5);
    }

    #[test]
    fn references_outside_windows_are_untouched() {
        let mut c = cfg();
        c.t_refresh_interval = 1000;
        c.t_refresh_duration = 100;
        // Phase 100 of bank 0's cycle: far from its [500, 600) window.
        assert_eq!(refresh_adjusted_start(&c, 0, 100), 100);
        // Banks are staggered: bank 8 refreshes half an interval later.
        assert_ne!(refresh_adjusted_start(&c, 8, 0), refresh_adjusted_start(&c, 0, 0));
    }

    #[test]
    fn request_slot_energy_grows_with_wait() {
        let c = cfg();
        let mut e = EnergyBreakdown::new();
        let mut out = Vec::new();
        let mut v = Vault::new(1);
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
