//! Harness self-metric types shared across the observability stack.
//!
//! These are the vocabulary of `pac-obs` (the campaign observability
//! layer): per-channel device stall accounting and parallel-runner
//! worker utilization. They live here —
//! not in `pac-obs` — because the producers (`pac-mem`, `hmc-sim`,
//! `pac-bench`) sit below `pac-obs` in the dependency graph.
//!
//! The stall and worker types merge commutatively: accumulating
//! per-worker or per-channel contributions in any order yields the same
//! totals, which is what lets fanned-out runs report the same
//! campaign-level numbers as serial ones.

use crate::Cycle;

/// Cycles an issue-ready request spent blocked on each HBM timing rule.
///
/// Accounted at issue time as the excess each constraint adds over the
/// point the request could otherwise have started, so the counters are
/// a pure function of the issue schedule — identical under every-cycle
/// and skip-ahead stepping — and attribute every stalled cycle to
/// exactly one dominating cause evaluated in device order (`tCCD_L` → `tFAW` →
/// bank busy → refresh).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallCycles {
    /// Same-bank-group spacing (`tCCD_L`) delayed issue by this many cycles.
    pub tccd_l: Cycle,
    /// The four-activate window (`tFAW`) delayed issue by this many cycles.
    pub tfaw: Cycle,
    /// The target bank was still busy with a prior request.
    pub bank_conflict: Cycle,
    /// Issue landed inside a refresh window and was pushed past it.
    pub refresh: Cycle,
}

impl StallCycles {
    /// Commutative element-wise accumulation.
    pub fn merge(&mut self, other: &StallCycles) {
        self.tccd_l += other.tccd_l;
        self.tfaw += other.tfaw;
        self.bank_conflict += other.bank_conflict;
        self.refresh += other.refresh;
    }

    /// Total stalled cycles across all causes.
    pub fn total(&self) -> Cycle {
        self.tccd_l + self.tfaw + self.bank_conflict + self.refresh
    }

    /// True when no stall has been recorded.
    pub fn is_zero(&self) -> bool {
        *self == StallCycles::default()
    }
}

crate::snapshot_fields!(StallCycles { tccd_l, tfaw, bank_conflict, refresh });

/// One `ParallelRunner` worker's share of a fan-out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Matrix cells this worker claimed and ran.
    pub cells_claimed: u64,
    /// Wall-clock seconds spent inside cell closures.
    pub busy_seconds: f64,
    /// Wall-clock seconds between finishing the last cell and the pool
    /// draining (tail idle waiting for slower peers).
    pub idle_seconds: f64,
}

impl WorkerStats {
    /// Commutative accumulation (fold two workers, or the same worker
    /// across two fan-outs).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.cells_claimed += other.cells_claimed;
        self.busy_seconds += other.busy_seconds;
        self.idle_seconds += other.idle_seconds;
    }
}

/// Aggregate view of one `ParallelRunner::run_observed` fan-out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerStats {
    /// Wall-clock seconds for the whole fan-out, claim to drain.
    pub wall_seconds: f64,
    /// Per-worker breakdown, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl RunnerStats {
    /// Total cells claimed across all workers.
    pub fn cells(&self) -> u64 {
        self.workers.iter().map(|w| w.cells_claimed).sum()
    }

    /// Mean worker utilization in `[0, 1]`: busy time over busy+idle.
    /// A serial run (one worker, no waiting) reports 1.0.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.workers.iter().map(|w| w.busy_seconds).sum();
        let idle: f64 = self.workers.iter().map(|w| w.idle_seconds).sum();
        if busy + idle <= 0.0 {
            return 1.0;
        }
        busy / (busy + idle)
    }

    /// Merge another fan-out's stats into this one (workers align by
    /// index; widths may differ across fan-outs).
    pub fn merge(&mut self, other: &RunnerStats) {
        self.wall_seconds += other.wall_seconds;
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.merge(theirs);
        }
    }
}

/// Supervision counters from one scheduler campaign (`pac-serve`): how
/// much babysitting the worker pool needed to get every cell to a
/// terminal state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Leases granted (every attempt of every cell takes one).
    pub leases: u64,
    /// Failed attempts that were requeued with backoff.
    pub retries: u64,
    /// Cells abandoned after exhausting their attempt budget.
    pub quarantined: u64,
    /// Leases revoked because the worker's heartbeat went stale.
    pub heartbeat_timeouts: u64,
    /// Worker threads written off as wedged (concurrency shrank).
    pub workers_abandoned: u64,
    /// Preemptions: a cell checkpointed at a quantum boundary and
    /// re-entered the queue.
    pub preemptions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cycles_merge_and_total() {
        let mut a = StallCycles { tccd_l: 1, tfaw: 2, bank_conflict: 3, refresh: 4 };
        let b = StallCycles { tccd_l: 10, tfaw: 20, bank_conflict: 30, refresh: 40 };
        a.merge(&b);
        assert_eq!(a, StallCycles { tccd_l: 11, tfaw: 22, bank_conflict: 33, refresh: 44 });
        assert_eq!(a.total(), 110);
        assert!(!a.is_zero());
        assert!(StallCycles::default().is_zero());
    }

    #[test]
    fn stall_cycles_snapshot_roundtrip() {
        use crate::snapshot::{SnapReader, SnapWriter, Snapshot};
        let s = StallCycles { tccd_l: 5, tfaw: 0, bank_conflict: 9, refresh: 2 };
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(StallCycles::load(&mut r).unwrap(), s);
        r.finish().unwrap();
    }

    #[test]
    fn runner_stats_utilization() {
        let r = RunnerStats {
            wall_seconds: 2.0,
            workers: vec![
                WorkerStats { cells_claimed: 3, busy_seconds: 1.5, idle_seconds: 0.5 },
                WorkerStats { cells_claimed: 1, busy_seconds: 0.5, idle_seconds: 1.5 },
            ],
        };
        assert_eq!(r.cells(), 4);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(RunnerStats::default().utilization(), 1.0);
    }
}
