//! The Paged Adaptive Coalescer (PAC) — the paper's primary contribution —
//! plus the baseline coalescers it is evaluated against.
//!
//! PAC sits between the last-level cache and the MSHRs (Sec 3.1) and is
//! built from three cooperating structures:
//!
//! 1. a **pipelined coalescing network** ([`pipeline::CoalescingNetwork`])
//!    with three stages — the paged request aggregator
//!    ([`aggregator::PagedRequestAggregator`]), the block-map decoder
//!    ([`decoder`]), and the request assembler ([`assembler`]) driven by a
//!    coalescing look-up table ([`table::CoalescingTable`]);
//! 2. the **memory access queue** ([`maq::Maq`]), a FIFO sized to the MSHR
//!    count that hides coalescing latency inside the memory access time;
//! 3. **adaptive MSHRs** ([`mshr::AdaptiveMshrFile`]) extended with a
//!    2-bit block-index subentry field and an OP bit so in-flight
//!    variable-size requests can absorb later misses to covered blocks.
//!
//! [`pac::PacCoalescer`] composes all of the above behind the
//! [`MemoryCoalescer`] trait; [`baseline::MshrDmc`] (the conventional
//! 64 B MSHR-based dynamic memory coalescer) and
//! [`baseline::NoCoalescing`] (a stock HMC controller) implement the same
//! trait so the full-system simulator can swap them per experiment.
//!
//! # Example
//!
//! Two adjacent cache-line misses coalesce into one 128 B HMC request:
//!
//! ```
//! use pac_core::{MemoryCoalescer, PacCoalescer};
//! use pac_types::{CoalescerConfig, MemRequest, Op};
//!
//! let mut pac = PacCoalescer::new(CoalescerConfig::default());
//! pac.hint_pending(2); // a burst is arriving: engage the network
//! assert!(pac.push_raw(MemRequest::miss(1, 0x9040, Op::Load, 0, 0), 0));
//! assert!(pac.push_raw(MemRequest::miss(2, 0x9080, Op::Load, 0, 0), 0));
//!
//! let mut dispatched = Vec::new();
//! for now in 0..32 {
//!     pac.tick(now, &mut dispatched);
//! }
//! assert_eq!(dispatched.len(), 1);
//! assert_eq!(dispatched[0].bytes, 128);
//! assert_eq!(dispatched[0].raw_count, 2);
//!
//! // The memory response fans back out to both raw requests.
//! let mut satisfied = Vec::new();
//! pac.complete(dispatched[0].dispatch_id, 40, &mut satisfied);
//! satisfied.sort_unstable();
//! assert_eq!(satisfied, vec![1, 2]);
//! ```

pub mod aggregator;
pub mod assembler;
pub mod baseline;
pub mod cost;
pub mod decoder;
pub mod fine;
pub mod maq;
pub mod mshr;
pub mod pac;
pub mod pipeline;
pub mod stats;
pub mod stream;
pub mod table;

pub use pac::PacCoalescer;
pub use stats::CoalescerStats;

use pac_trace::TraceHandle;
use pac_types::{Cycle, MemRequest, Op};

/// Instantaneous occupancy gauges a coalescer can expose for the
/// tracer's counter tracks (MAQ depth, open streams, in-flight MSHRs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerGauges {
    /// Entries currently queued in the MAQ.
    pub maq_depth: u32,
    /// Open stage-1 coalescing streams.
    pub active_streams: u32,
    /// Occupied MSHR entries (in-flight memory requests).
    pub inflight_mshrs: u32,
}

/// A memory request the coalescer hands to the memory controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchedRequest {
    /// Unique dispatch id; the memory system echoes it on completion.
    pub dispatch_id: u64,
    /// Base byte address (cache-line aligned).
    pub addr: u64,
    /// Payload bytes (64..=256 for HMC 2.1 line-granular coalescing).
    pub bytes: u64,
    pub op: Op,
    /// Number of raw LLC requests this dispatch carries.
    pub raw_count: u32,
}

pac_types::snapshot_fields!(DispatchedRequest { dispatch_id, addr, bytes, op, raw_count });

/// The interface the full-system simulator drives. One implementation per
/// evaluated configuration: PAC, conventional MSHR-based DMC, and the
/// stock no-coalescing controller.
pub trait MemoryCoalescer {
    /// Offer one raw request flushed from the LLC at cycle `now`.
    /// Returns `false` when the coalescer is backpressured (MAQ full and
    /// pipeline stalled, or no MSHR available) — the caller must retry,
    /// modelling the blocked cache (Sec 3.2).
    fn push_raw(&mut self, req: MemRequest, now: Cycle) -> bool;

    /// Advance one cycle; requests ready for the memory controller are
    /// appended to `out`.
    fn tick(&mut self, now: Cycle, out: &mut Vec<DispatchedRequest>);

    /// Notify completion of `dispatch_id`; ids of raw requests now
    /// satisfied are appended to `satisfied`.
    fn complete(&mut self, dispatch_id: u64, now: Cycle, satisfied: &mut Vec<u64>);

    /// True when no request is buffered anywhere in the coalescer
    /// (in-flight memory requests excluded).
    fn is_drained(&self) -> bool;

    /// Statistics accumulated so far.
    fn stats(&self) -> &CoalescerStats;

    /// Mutable access to the statistics block, so external layers that
    /// act on the coalescer's behalf (the simulator's transaction-
    /// recovery layer folds its retry/dedup/poison counters in at end
    /// of run) can account against the same record.
    fn stats_mut(&mut self) -> &mut CoalescerStats;

    /// Force everything buffered toward dispatch (end-of-run flush).
    fn flush(&mut self, now: Cycle);

    /// Hint from the front-end: how many further raw requests are
    /// already waiting in the miss/WB queues (Fig 3). PAC's controller
    /// uses this to keep the network engaged when a burst is arriving,
    /// bypassing only genuinely isolated requests.
    fn hint_pending(&mut self, _waiting: usize) {}

    /// Earliest cycle ≥ `now` at which a `tick` could change state or
    /// record a per-cycle stat, or `None` when the coalescer is inert
    /// until new input (a push or a completion) arrives. The skip step
    /// runs a system tick no later than this cycle; a `tick` before it
    /// must be a no-op. Answers may be conservatively early (the extra
    /// tick is a no-op) but must never be late. The default pins the
    /// clock every cycle, which is always correct but forfeits skipping.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        Some(now)
    }

    /// Pure admission predicate: whether `push_raw(req, ..)` would
    /// return `true` against the current state, with no side effects.
    /// Implementations must keep it exactly in sync with `push_raw`'s
    /// accept/refuse decision (the lockstep oracle checks the pair at
    /// every offer). The skip step uses a `false` to prove that a
    /// blocked request stays refused across a jumped window, and
    /// records it as a refusal at the current [`Self::admission_epoch`].
    /// The conservative default ("would accept") merely disables that
    /// skip — the caller then ticks through the window cycle by cycle.
    fn would_accept(&self, _req: &MemRequest) -> bool {
        true
    }

    /// A stamp of the state [`Self::would_accept`] reads: while it is
    /// unchanged, `would_accept` gives the same answer for every
    /// request. The simulator keeps a refusal memo keyed by it — a
    /// blocked request already refused at the current epoch is charged
    /// with [`Self::note_refused_retries`] instead of being offered
    /// again — so every mutation that could flip a refusal must change
    /// the stamp. A refused `push_raw` and `note_refused_retries` must
    /// not move anything `would_accept` reads.
    fn admission_epoch(&self) -> u64;

    /// Account `n` consecutive refused `push_raw` offers of `req` — one
    /// per skipped cycle or memoised retry — without replaying them,
    /// leaving the coalescer in exactly the state `n` literal refused
    /// offers would have (stall counts, comparator activity,
    /// everything). Only called for a `req` on which
    /// [`Self::would_accept`] returns `false` while the coalescer's
    /// state is otherwise frozen, and it must not change
    /// [`Self::admission_epoch`]. The default replays the offers
    /// literally, which is always correct but O(`n`).
    fn note_refused_retries(&mut self, req: &MemRequest, now: Cycle, n: u64) {
        for _ in 0..n {
            let accepted = self.push_raw(*req, now);
            debug_assert!(!accepted, "note_refused_retries on an acceptable request");
        }
    }

    /// Check the coalescer's internal structural invariants (occupancy
    /// within capacity, index consistency, block-map/raw-id agreement).
    /// The lockstep oracle polls this every simulated step; a violation
    /// is reported as an `Err` describing the broken structure. The
    /// default is for implementations with no internal state to check.
    fn integrity(&self) -> Result<(), String> {
        Ok(())
    }

    /// Occupied stage-1 aggregator streams, for implementations that
    /// have an aggregation stage. The oracle uses this to assert the
    /// fence contract: an accepted fence leaves stage 1 empty.
    fn stage1_occupancy(&self) -> Option<usize> {
        None
    }

    /// Attach a tracer; subsequent pipeline transitions are emitted as
    /// cycle-stamped events through it. The default ignores the handle
    /// (an uninstrumented implementation simply produces no events).
    fn attach_tracer(&mut self, _tracer: TraceHandle) {}

    /// Fold end-of-run derived statistics (e.g. per-stage latency
    /// histograms kept at their recording sites) into [`Self::stats`].
    /// Called once by the simulator after the run drains — never on the
    /// per-tick path, so histogram syncing costs nothing while running.
    fn finalize_stats(&mut self) {}

    /// Instantaneous occupancy gauges for the tracer's counter tracks,
    /// or `None` for implementations without the relevant structures.
    fn gauges(&self) -> Option<CoalescerGauges> {
        None
    }

    /// Serialize the coalescer's complete architectural state into `w`
    /// (checkpoint support). Restoration is not part of this trait: the
    /// owner knows the concrete type and loads it via
    /// [`pac_types::Snapshot::load`], so only the save side needs
    /// dynamic dispatch. The default panics — implementations that can
    /// be checkpointed must override it.
    fn save_state(&self, _w: &mut pac_types::SnapWriter) {
        panic!("this coalescer does not support checkpointing");
    }
}
