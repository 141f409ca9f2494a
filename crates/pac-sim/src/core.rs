//! The trace-driven core model.
//!
//! Each core replays its workload's access stream through the cache
//! hierarchy with a simple in-order timing model: `compute_gap` cycles
//! of non-memory work between accesses, cache hit latencies charged on
//! the spot, and a bounded window of outstanding LLC misses (the
//! load/store queue) past which the core blocks — the mechanism through
//! which memory latency, and therefore coalescing quality, determines
//! runtime.

use crate::system::RefusalMemo;
use pac_types::{Cycle, MemRequest};
use pac_workloads::multiproc::CoreSpec;
use pac_workloads::{Access, AccessStream};

/// A raw request the coalescer refused (backpressure), kept for replay.
/// The cache hierarchy was already probed when the request was built, so
/// the replay must NOT re-access it — the line is already `Filling`.
#[derive(Debug, Clone, Copy)]
pub struct PendingPush {
    pub req: MemRequest,
    /// Whether this request's response validates the LLC line.
    pub is_fill: bool,
}

/// Per-core statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub misses: u64,
}

/// One simulated core.
pub struct CoreState {
    pub id: u8,
    stream: Box<dyn AccessStream>,
    compute_gap: u64,
    pub label: &'static str,
    /// The owning process (address-space id).
    pub process: u32,
    /// Accesses still to issue.
    pub remaining: u64,
    /// Next cycle the core may issue.
    pub ready_at: Cycle,
    /// LLC misses (and atomics) in flight.
    pub outstanding: usize,
    max_outstanding: usize,
    /// A raw request refused by the coalescer, to retry.
    pub retry: Option<PendingPush>,
    /// The refusal memo of this core's requests.
    pub(crate) memo: RefusalMemo,
    /// Position within the current access burst.
    burst_pos: u64,
    pub stats: CoreStats,
}

/// Accesses issued back-to-back before the loop's accumulated compute
/// work is charged. Real inner loops bundle their memory operations
/// (unrolled bodies, vector gathers) and then compute; modelling the
/// gap per-burst instead of per-access preserves the intra-burst
/// adjacency the coalescer feeds on while still bounding demand.
const BURST_ACCESSES: u64 = 8;

impl CoreState {
    pub fn new(id: u8, spec: CoreSpec, budget: u64, max_outstanding: usize) -> Self {
        CoreState {
            id,
            stream: spec.stream,
            compute_gap: spec.compute_gap,
            label: spec.label,
            process: spec.process,
            remaining: budget,
            ready_at: 0,
            outstanding: 0,
            max_outstanding,
            retry: None,
            memo: RefusalMemo::default(),
            burst_pos: 0,
            stats: CoreStats::default(),
        }
    }

    /// True once the core has issued its whole budget and all its misses
    /// have returned.
    pub fn finished(&self) -> bool {
        self.remaining == 0 && self.outstanding == 0 && self.retry.is_none()
    }

    /// True if the core may issue an access at `now`.
    pub fn can_issue(&self, now: Cycle) -> bool {
        !self.finished()
            && self.ready_at <= now
            && self.outstanding < self.max_outstanding
            && (self.remaining > 0 || self.retry.is_some())
    }

    /// Earliest cycle ≥ `now` at which the core could issue, or `None`
    /// when it cannot issue until some response returns (its wake is
    /// then driven by that completion event, not by the clock).
    pub fn next_issue_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.finished()
            || self.outstanding >= self.max_outstanding
            || (self.remaining == 0 && self.retry.is_none())
        {
            None
        } else {
            Some(self.ready_at.max(now))
        }
    }

    /// Pull the next access from the stream. The caller must have
    /// replayed any pending retry first.
    pub fn take_access(&mut self) -> Access {
        debug_assert!(self.retry.is_none() && self.remaining > 0);
        self.remaining -= 1;
        self.stats.accesses += 1;
        self.stream.next_access()
    }

    /// Charge `latency` cycles before the next issue; every
    /// `BURST_ACCESSES`-th access additionally pays the burst's
    /// accumulated compute work.
    pub fn charge(&mut self, now: Cycle, latency: u64) {
        self.burst_pos += 1;
        let pause = if self.burst_pos >= BURST_ACCESSES {
            self.burst_pos = 0;
            self.compute_gap * BURST_ACCESSES
        } else {
            0
        };
        self.ready_at = now + latency.max(1) + pause;
    }

    /// Record a refused push: the prepared request retries next cycle.
    pub fn refuse(&mut self, now: Cycle, pending: PendingPush) {
        self.retry = Some(pending);
        self.ready_at = now + 1;
    }
}

pac_types::snapshot_fields!(PendingPush { req, is_fill });
pac_types::snapshot_fields!(CoreStats { accesses, l1_hits, l2_hits, misses });

impl CoreState {
    /// Serialize everything except the stream itself. Streams are
    /// procedural generators behind a trait object — they cannot be
    /// serialized, but they are pure functions of their spec, so the
    /// restore side rebuilds one from a fresh [`CoreSpec`] and replays
    /// it forward by exactly `stats.accesses` pulls.
    pub(crate) fn save_snapshot(&self, w: &mut pac_types::SnapWriter) {
        use pac_types::Snapshot;
        self.id.save(w);
        self.label.to_string().save(w);
        self.compute_gap.save(w);
        self.process.save(w);
        self.remaining.save(w);
        self.ready_at.save(w);
        self.outstanding.save(w);
        self.max_outstanding.save(w);
        self.retry.save(w);
        self.burst_pos.save(w);
        self.stats.save(w);
    }

    /// Rebuild a core from its snapshot plus a freshly constructed
    /// `spec` for the same workload. The spec's identity fields must
    /// match what the checkpoint recorded — a different benchmark,
    /// compute gap, or process id means the caller is resuming under
    /// the wrong workload, which would silently diverge.
    pub(crate) fn restore_snapshot(
        r: &mut pac_types::SnapReader<'_>,
        spec: CoreSpec,
    ) -> Result<Self, pac_types::SnapError> {
        use pac_types::{SnapError, Snapshot};
        let id = u8::load(r)?;
        let label = String::load(r)?;
        if label != spec.label {
            return Err(SnapError::ConfigMismatch(format!(
                "core {id} was checkpointed running {label}, resume spec supplies {}",
                spec.label
            )));
        }
        let compute_gap = u64::load(r)?;
        if compute_gap != spec.compute_gap {
            return Err(SnapError::ConfigMismatch(format!(
                "core {id} compute gap {compute_gap} != spec's {}",
                spec.compute_gap
            )));
        }
        let process = u32::load(r)?;
        if process != spec.process {
            return Err(SnapError::ConfigMismatch(format!(
                "core {id} process {process} != spec's {}",
                spec.process
            )));
        }
        let remaining = u64::load(r)?;
        let ready_at = Cycle::load(r)?;
        let outstanding = usize::load(r)?;
        let max_outstanding = usize::load(r)?;
        let retry = Option::<PendingPush>::load(r)?;
        let burst_pos = u64::load(r)?;
        let stats = CoreStats::load(r)?;
        // Fast-forward the fresh stream to where the checkpointed one
        // stood: `take_access` pulls exactly once per counted access.
        let mut stream = spec.stream;
        for _ in 0..stats.accesses {
            let _ = stream.next_access();
        }
        Ok(CoreState {
            id,
            stream,
            compute_gap,
            label: spec.label,
            process,
            remaining,
            ready_at,
            outstanding,
            max_outstanding,
            retry,
            memo: RefusalMemo::default(),
            burst_pos,
            stats,
        })
    }
}

impl std::fmt::Debug for CoreState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreState")
            .field("id", &self.id)
            .field("label", &self.label)
            .field("remaining", &self.remaining)
            .field("outstanding", &self.outstanding)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_workloads::Bench;

    fn core(budget: u64) -> CoreState {
        let spec = pac_workloads::multiproc::single_process(Bench::Stream, 1, 1).remove(0);
        CoreState::new(0, spec, budget, 4)
    }

    #[test]
    fn issues_until_budget_exhausted() {
        let mut c = core(3);
        assert!(c.can_issue(0));
        for _ in 0..3 {
            c.take_access();
        }
        assert_eq!(c.remaining, 0);
        assert!(c.finished());
        assert!(!c.can_issue(0));
    }

    #[test]
    fn blocks_on_outstanding_window() {
        let mut c = core(100);
        c.outstanding = 4;
        assert!(!c.can_issue(0));
        c.outstanding = 3;
        assert!(c.can_issue(0));
    }

    #[test]
    fn charge_respects_compute_gap() {
        let mut c = core(100);
        c.charge(10, 0);
        assert!(c.ready_at >= 11);
        assert!(!c.can_issue(10));
        assert!(c.can_issue(c.ready_at));
    }

    #[test]
    fn refusal_blocks_until_replayed() {
        let mut c = core(100);
        let _ = c.take_access();
        let pending = PendingPush {
            req: MemRequest::miss(1, 0x40, pac_types::Op::Load, 0, 0),
            is_fill: true,
        };
        c.refuse(0, pending);
        assert!(!c.finished());
        assert!(!c.can_issue(0), "blocked in the refusal cycle");
        assert!(c.can_issue(1));
        let replay = c.retry.take().expect("pending push retained");
        assert_eq!(replay.req.id, 1);
        assert_eq!(c.stats.accesses, 1, "retry does not recount");
    }

    #[test]
    fn finished_requires_drained_outstanding() {
        let mut c = core(1);
        c.take_access();
        c.outstanding = 1;
        assert!(!c.finished());
        c.outstanding = 0;
        assert!(c.finished());
    }
}
