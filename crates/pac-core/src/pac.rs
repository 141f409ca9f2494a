//! The complete Paged Adaptive Coalescer behind [`MemoryCoalescer`].
//!
//! Composes stage 1 (the paged request aggregator), stages 2–3 (the
//! coalescing network), the MAQ, and the adaptive MSHR file, plus the
//! network controller policies of Sec 3.2:
//!
//! * **timeout flush** — streams older than the configured residency are
//!   pushed downstream so raw-request waiting latency is bounded;
//! * **fence handling** — a fence flushes every stream to preserve the
//!   ordering boundary;
//! * **atomic routing** — atomics go straight to the memory controller,
//!   uncoalesced;
//! * **global bypass** — while the MAQ is empty and MSHRs are free the
//!   network is disabled and raw requests enter the MSHRs directly, so
//!   an idle system pays no coalescing latency; the network re-engages
//!   once every MSHR is occupied.

use crate::aggregator::{InsertOutcome, PagedRequestAggregator};
use crate::maq::Maq;
use crate::mshr::AdaptiveMshrFile;
use crate::pipeline::CoalescingNetwork;
use crate::stats::CoalescerStats;
use crate::stream::CoalescingStream;
use crate::{CoalescerGauges, DispatchedRequest, MemoryCoalescer};
use pac_trace::{EventKind, FlushCause, TraceHandle};
use pac_types::addr::CACHE_LINE_BYTES;
use pac_types::{
    CoalescedRequest, CoalescerConfig, Cycle, EventClass, IdHash, MemRequest, RequestKind,
};
use std::collections::{HashMap, VecDeque};

/// Dispatch-id namespace bit reserved for atomics (which do not occupy
/// MSHR entries).
const ATOMIC_ID_BIT: u64 = 1 << 63;

/// The paged adaptive coalescer.
#[derive(Debug)]
pub struct PacCoalescer {
    cfg: CoalescerConfig,
    aggregator: PagedRequestAggregator,
    network: CoalescingNetwork,
    maq: Maq,
    mshr: AdaptiveMshrFile,
    /// Network-controller bypass state (Sec 3.2). Starts enabled: a cold
    /// system has empty MAQ and free MSHRs.
    bypass_enabled: bool,
    /// Atomics in flight: dispatch id → raw id.
    atomics: HashMap<u64, u64, IdHash>,
    next_atomic: u64,
    /// Dispatches produced inside `push_raw`, drained by `tick`.
    pending: VecDeque<DispatchedRequest>,
    /// Front-end hint: raw requests known to be waiting behind the
    /// current one (miss/WB queue depth).
    input_waiting: usize,
    /// MSHR-file generation at the last refused MAQ→MSHR attempt, if
    /// the head is still blocked. While the generation is unchanged the
    /// head's merge/allocate outcome cannot change, so the scan is
    /// skipped (and the event-driven core treats the MAQ as inert).
    maq_stalled_gen: Option<u64>,
    /// Admission epoch: bumped by every accepted `push_raw` and every
    /// `tick`, `complete` and `flush`, the only calls that move what
    /// `would_accept` reads.
    epoch: u64,
    /// Reused across ticks for timeout-expired streams (no per-tick
    /// allocation).
    scratch_streams: Vec<CoalescingStream>,
    stats: CoalescerStats,
    tracer: TraceHandle,
}

// `scratch_streams` is drained within every `tick`, so it is provably
// empty at any checkpoint boundary; the tracer is re-attached by the
// simulator after restore. The epoch only stamps refusal memos, which
// start empty after a restore.
pac_types::snapshot_fields!(PacCoalescer {
    cfg, aggregator, network, maq, mshr, bypass_enabled, atomics,
    next_atomic, pending, input_waiting, maq_stalled_gen, stats,
} skip {
    epoch: 0,
    scratch_streams: Vec::new(),
    tracer: TraceHandle::disabled(),
});

impl PacCoalescer {
    pub fn new(cfg: CoalescerConfig) -> Self {
        PacCoalescer {
            aggregator: PagedRequestAggregator::new(cfg.streams),
            network: CoalescingNetwork::new(cfg.protocol),
            maq: Maq::new(cfg.maq_entries),
            mshr: AdaptiveMshrFile::new(cfg.mshrs, cfg.mshr_subentries),
            bypass_enabled: true,
            atomics: HashMap::default(),
            next_atomic: 0,
            pending: VecDeque::new(),
            input_waiting: 0,
            maq_stalled_gen: None,
            epoch: 0,
            scratch_streams: Vec::new(),
            stats: CoalescerStats::default(),
            tracer: TraceHandle::disabled(),
            cfg,
        }
    }

    /// Enable retention of the stream-occupancy trace (Fig 11b).
    pub fn trace_occupancy(&mut self, on: bool) {
        self.stats.trace_occupancy = on;
    }

    /// The configuration this coalescer was built with.
    pub fn config(&self) -> &CoalescerConfig {
        &self.cfg
    }

    /// Current stage-1 stream occupancy.
    pub fn stream_occupancy(&self) -> usize {
        self.aggregator.occupancy()
    }

    /// Whether the controller currently bypasses the network.
    pub fn bypassing(&self) -> bool {
        self.bypass_enabled
    }

    /// Nothing buffered in stage 1, stages 2-3, or the MAQ — the state
    /// shared by the bypass guard, the controller hysteresis, and
    /// [`MemoryCoalescer::is_drained`].
    fn quiescent(&self) -> bool {
        self.aggregator.is_empty() && self.network.is_empty() && self.maq.is_empty()
    }

    fn backpressured(&self) -> bool {
        self.network.buffered_out() + self.maq.len() >= 2 * self.maq.capacity()
    }

    fn flush_stream(&mut self, stream: CoalescingStream, now: Cycle, cause: FlushCause) {
        if !stream.c_bit() {
            self.stats.stage_bypasses += stream.raw_count() as u64;
        }
        self.tracer.emit(now, EventClass::Stream, || EventKind::StreamFlushed {
            page: stream.ppn,
            raw_count: stream.raw_count() as u32,
            cause,
        });
        self.network.push_stream(stream, now);
    }

    /// A raw request entering the MSHRs directly (controller bypass).
    fn direct_to_mshr(&mut self, req: &MemRequest, now: Cycle) {
        let single = CoalescedRequest {
            addr: req.line(),
            bytes: CACHE_LINE_BYTES,
            op: req.op,
            raw_ids: vec![req.id],
            assembled_cycle: now,
            first_issue_cycle: req.issue_cycle,
        };
        if self.mshr.try_merge(&single) {
            self.tracer
                .emit(now, EventClass::Mshr, || EventKind::MshrMerged { addr: single.addr });
            return;
        }
        debug_assert!(self.mshr.has_free(), "bypass requires a free MSHR");
        let d = self.mshr.allocate(single);
        self.stats.dispatched_requests += 1;
        self.stats.size_histogram.record(d.bytes);
        self.tracer.emit(now, EventClass::Mshr, || EventKind::MshrAllocated {
            dispatch_id: d.dispatch_id,
            addr: d.addr,
            bytes: d.bytes,
        });
        self.pending.push_back(d);
    }

    fn refresh_stats(&mut self) {
        self.stats.comparisons = self.aggregator.comparisons + self.mshr.comparisons;
        self.stats.mshr_merges = self.mshr.merged_raw;
        let n = &self.network.stats;
        self.stats.stage2_latency_sum = n.stage2_latency_sum;
        self.stats.stage2_batches = n.stage2_batches;
        self.stats.stage3_latency_sum = n.stage3_latency_sum;
        self.stats.stage3_batches = n.stage3_batches;
        self.stats.maq_fill_latency_sum = self.maq.fill_latency_sum;
        self.stats.maq_fills = self.maq.fills;
    }
}

impl MemoryCoalescer for PacCoalescer {
    fn push_raw(&mut self, req: MemRequest, now: Cycle) -> bool {
        match req.kind {
            RequestKind::Fence => {
                // A fence monopolizes stage 1 and pushes every prior
                // request downstream (Sec 3.3.1). Note the paper's fence
                // is deliberately weak: it only forces earlier requests
                // *out of stage 1*; requests already in stages 2-3 or
                // the MAQ keep their pipeline order, and single-request
                // bypasses may still overtake older coalesced requests
                // on the output. Strict global ordering is the memory
                // controller's job, not the coalescer's.
                let streams = self.aggregator.take_all();
                self.stats.fence_flushes += streams.len() as u64;
                for s in streams {
                    self.flush_stream(s, now, FlushCause::Fence);
                }
                self.epoch += 1;
                return true;
            }
            RequestKind::Atomic => {
                // Routed directly to the memory controller to preserve
                // atomicity; never coalesced.
                self.stats.raw_requests += 1;
                let id = ATOMIC_ID_BIT | self.next_atomic;
                self.next_atomic += 1;
                self.atomics.insert(id, req.id);
                self.stats.dispatched_requests += 1;
                self.stats.size_histogram.record(CACHE_LINE_BYTES);
                self.tracer.emit(now, EventClass::Mshr, || EventKind::Dispatch {
                    dispatch_id: id,
                    addr: req.line(),
                    bytes: CACHE_LINE_BYTES,
                    raw_count: 1,
                });
                self.pending.push_back(DispatchedRequest {
                    dispatch_id: id,
                    addr: req.line(),
                    bytes: CACHE_LINE_BYTES,
                    op: req.op,
                    raw_count: 1,
                });
                self.epoch += 1;
                return true;
            }
            RequestKind::Miss | RequestKind::WriteBack => {}
        }

        // Backpressure refuses only requests that can neither merge
        // into a waiting stream nor take a free stream slot: stage 1
        // keeps aggregating while the downstream pipeline is stalled —
        // that continued aggregation under pressure is the point of the
        // design (a full MAQ stalls stages 2-3, not the aggregator).
        let full = self.aggregator.occupancy() == self.aggregator.capacity();
        if self.backpressured() && full && !self.aggregator.has_stream_for(&req) {
            self.stats.stall_cycles += 1;
            return false;
        }
        self.epoch += 1;
        self.stats.raw_requests += 1;

        if self.bypass_enabled && self.input_waiting == 0 && self.quiescent() && self.mshr.has_free()
        {
            self.stats.network_bypasses += 1;
            self.tracer
                .emit(now, EventClass::Network, || EventKind::NetworkBypass { addr: req.line() });
            self.direct_to_mshr(&req, now);
            return true;
        }

        match self.aggregator.insert(&req, now) {
            InsertOutcome::Merged => {
                self.tracer
                    .emit(now, EventClass::Stream, || EventKind::StreamMerged { page: req.page() });
            }
            InsertOutcome::Allocated => {
                self.tracer.emit(now, EventClass::Stream, || EventKind::StreamAllocated {
                    page: req.page(),
                });
            }
            InsertOutcome::AllocatedAfterEvict(victim) => {
                self.stats.capacity_flushes += 1;
                self.flush_stream(victim, now, FlushCause::Capacity);
                self.tracer.emit(now, EventClass::Stream, || EventKind::StreamAllocated {
                    page: req.page(),
                });
            }
        }
        true
    }

    fn tick(&mut self, now: Cycle, out: &mut Vec<DispatchedRequest>) {
        self.epoch += 1;
        // Sample stage-1 occupancy every 16 cycles while the coalescer
        // is servicing requests (Fig 11b counts occupied streams during
        // execution, not across idle gaps).
        if now.is_multiple_of(16) {
            let occ = self.aggregator.occupancy() as u32;
            if occ > 0 {
                self.stats.sample_occupancy(occ);
            }
        }

        // Stage-1 timeout flushes — only while the decoder can accept
        // more streams; a stalled stage 2 keeps expired streams in
        // stage 1, where they continue to merge new requests.
        if self.network.stage2_backlog() < self.cfg.streams {
            let mut expired = std::mem::take(&mut self.scratch_streams);
            self.aggregator.take_expired_into(now, self.cfg.timeout_cycles, &mut expired);
            self.stats.timeout_flushes += expired.len() as u64;
            for s in expired.drain(..) {
                self.flush_stream(s, now, FlushCause::Timeout);
            }
            self.scratch_streams = expired;
        }

        // Stages 2-3.
        self.network.tick(now);

        // Network output → MAQ (a full MAQ stalls the pipeline output).
        while !self.maq.is_full() {
            match self.network.pop_ready(now) {
                Some(r) => {
                    self.maq.push(r, now);
                    let depth = self.maq.len() as u32;
                    self.tracer.emit(now, EventClass::Maq, || EventKind::MaqPush { depth });
                }
                None => break,
            }
        }

        // MAQ → MSHRs: merge into covered in-flight entries, otherwise
        // allocate and dispatch immediately. While the MSHR file's
        // generation is unchanged since the head was last refused, the
        // outcome cannot differ — skip the scan entirely.
        if self.maq_stalled_gen != Some(self.mshr.generation()) {
            self.maq_stalled_gen = None;
            while let Some(front) = self.maq.front() {
                if self.mshr.try_merge(front) {
                    let addr = front.addr;
                    self.maq.pop();
                    let depth = self.maq.len() as u32;
                    self.tracer.emit(now, EventClass::Mshr, || EventKind::MshrMerged { addr });
                    self.tracer.emit(now, EventClass::Maq, || EventKind::MaqPop { depth });
                    continue;
                }
                if !self.mshr.has_free() {
                    self.maq_stalled_gen = Some(self.mshr.generation());
                    break;
                }
                let req = self.maq.pop().expect("front exists");
                let d = self.mshr.allocate(req);
                self.stats.dispatched_requests += 1;
                self.stats.size_histogram.record(d.bytes);
                if self.tracer.is_enabled() {
                    let depth = self.maq.len() as u32;
                    self.tracer.emit(now, EventClass::Maq, || EventKind::MaqPop { depth });
                    self.tracer.emit(now, EventClass::Mshr, || EventKind::MshrAllocated {
                        dispatch_id: d.dispatch_id,
                        addr: d.addr,
                        bytes: d.bytes,
                    });
                    self.tracer.emit(now, EventClass::Mshr, || EventKind::Dispatch {
                        dispatch_id: d.dispatch_id,
                        addr: d.addr,
                        bytes: d.bytes,
                        raw_count: d.raw_count,
                    });
                }
                out.push(d);
            }
        }

        // Atomics and bypass dispatches produced since last tick.
        out.extend(self.pending.drain(..));

        // Controller bypass hysteresis (Sec 3.2): disable the network
        // when the system is drained and MSHRs are free; re-enable the
        // moment every MSHR is occupied.
        if !self.mshr.has_free() {
            self.bypass_enabled = false;
        } else if self.quiescent() {
            self.bypass_enabled = true;
        }

        self.refresh_stats();
    }

    fn complete(&mut self, dispatch_id: u64, now: Cycle, satisfied: &mut Vec<u64>) {
        self.epoch += 1;
        if dispatch_id & ATOMIC_ID_BIT != 0 {
            if let Some(raw) = self.atomics.remove(&dispatch_id) {
                satisfied.push(raw);
            }
            return;
        }
        if let Some(ids) = self.mshr.complete(dispatch_id) {
            let n = ids.len() as u32;
            self.tracer.emit(now, EventClass::Mshr, || EventKind::MshrReleased {
                dispatch_id,
                raw_count: n,
            });
            satisfied.extend(ids);
        }
    }

    fn is_drained(&self) -> bool {
        self.quiescent() && self.pending.is_empty()
    }

    fn stats(&self) -> &CoalescerStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CoalescerStats {
        &mut self.stats
    }

    fn flush(&mut self, now: Cycle) {
        self.epoch += 1;
        let streams = self.aggregator.take_all();
        for s in streams {
            self.flush_stream(s, now, FlushCause::Drain);
        }
    }

    fn hint_pending(&mut self, waiting: usize) {
        self.input_waiting = waiting;
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            let c = c.max(now);
            best = Some(match best {
                Some(b) => b.min(c),
                None => c,
            });
        };
        // Atomic/bypass dispatches drain on the next tick.
        if !self.pending.is_empty() {
            consider(now);
        }
        // A non-empty MAQ makes progress unless the MSHR file is
        // unchanged since the head was last refused.
        if !self.maq.is_empty() && self.maq_stalled_gen != Some(self.mshr.generation()) {
            consider(now);
        }
        if let Some(c) = self.network.next_activity(now, self.maq.is_full()) {
            consider(c);
        }
        if self.aggregator.occupancy() > 0 {
            // The Fig 11b occupancy sample fires on every 16-cycle
            // boundary while stage 1 holds streams.
            consider(now.div_ceil(16) * 16);
            // Earliest possible stage-1 timeout flush.
            if let Some(allocated) = self.aggregator.earliest_allocated() {
                consider(allocated + self.cfg.timeout_cycles);
            }
        }
        // The bypass hysteresis updates on tick; wake immediately when
        // the last push/completion left it due for a flip.
        let target = if !self.mshr.has_free() {
            false
        } else if self.quiescent() {
            true
        } else {
            self.bypass_enabled
        };
        if target != self.bypass_enabled {
            consider(now);
        }
        best
    }

    fn would_accept(&self, req: &MemRequest) -> bool {
        // Mirrors push_raw: fences and atomics always enter; a miss or
        // write-back is refused only when the pipeline is backpressured,
        // stage 1 is full, and no existing stream could absorb it.
        match req.kind {
            RequestKind::Fence | RequestKind::Atomic => true,
            RequestKind::Miss | RequestKind::WriteBack => {
                let full = self.aggregator.occupancy() == self.aggregator.capacity();
                !(self.backpressured() && full && !self.aggregator.has_stream_for(req))
            }
        }
    }

    fn admission_epoch(&self) -> u64 {
        self.epoch
    }

    fn note_refused_retries(&mut self, _req: &MemRequest, _now: Cycle, n: u64) {
        self.stats.stall_cycles += n;
    }

    fn integrity(&self) -> Result<(), String> {
        self.aggregator.integrity().map_err(|e| format!("stage 1: {e}"))?;
        self.network.integrity().map_err(|e| format!("stages 2-3: {e}"))?;
        self.maq.integrity().map_err(|e| format!("MAQ: {e}"))?;
        self.mshr.integrity().map_err(|e| format!("MSHR: {e}"))?;
        Ok(())
    }

    fn stage1_occupancy(&self) -> Option<usize> {
        Some(self.aggregator.occupancy())
    }

    fn attach_tracer(&mut self, tracer: TraceHandle) {
        self.network.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn finalize_stats(&mut self) {
        self.refresh_stats();
        self.stats.stage2_hist = self.network.stats.stage2_hist.clone();
        self.stats.stage3_hist = self.network.stats.stage3_hist.clone();
        self.stats.maq_fill_hist = self.maq.fill_hist.clone();
    }

    fn gauges(&self) -> Option<CoalescerGauges> {
        Some(CoalescerGauges {
            maq_depth: self.maq.len() as u32,
            active_streams: self.aggregator.occupancy() as u32,
            inflight_mshrs: self.mshr.occupancy() as u32,
        })
    }

    fn save_state(&self, w: &mut pac_types::SnapWriter) {
        pac_types::Snapshot::save(self, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::addr::block_addr;
    use pac_types::Op;

    fn cfg() -> CoalescerConfig {
        CoalescerConfig::default()
    }

    fn miss(id: u64, ppn: u64, block: u8, cycle: Cycle) -> MemRequest {
        MemRequest::miss(id, block_addr(ppn, block), Op::Load, 0, cycle)
    }

    /// Drive the coalescer until it drains, collecting dispatches.
    fn run_to_drain(pac: &mut PacCoalescer, mut now: Cycle) -> (Vec<DispatchedRequest>, Cycle) {
        let mut out = Vec::new();
        pac.flush(now);
        while !pac.is_drained() || !out_settled(pac) {
            pac.tick(now, &mut out);
            now += 1;
            // Free MSHRs promptly so dispatch never starves in the test.
            let ids: Vec<u64> = out.iter().map(|d| d.dispatch_id).collect();
            let mut sat = Vec::new();
            for id in ids {
                pac.complete(id, now, &mut sat);
            }
            if now > 100_000 {
                panic!("coalescer failed to drain");
            }
        }
        (out, now)
    }

    fn out_settled(pac: &PacCoalescer) -> bool {
        pac.is_drained()
    }

    #[test]
    fn cold_system_bypasses_network() {
        let mut pac = PacCoalescer::new(cfg());
        assert!(pac.bypassing());
        assert!(pac.push_raw(miss(1, 0x9, 1, 0), 0));
        let mut out = Vec::new();
        pac.tick(0, &mut out);
        // Dispatched immediately, uncoalesced.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 64);
        assert_eq!(pac.stats().network_bypasses, 1);
    }

    #[test]
    fn adjacent_misses_coalesce_once_network_engaged() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false; // engage the network directly
        for (i, b) in [0u8, 1, 2, 3].iter().enumerate() {
            assert!(pac.push_raw(miss(i as u64, 0x9, *b, 0), 0));
        }
        let (out, _) = run_to_drain(&mut pac, 0);
        assert_eq!(out.len(), 1, "four adjacent misses → one 256B dispatch");
        assert_eq!(out[0].bytes, 256);
        assert_eq!(out[0].raw_count, 4);
        let s = pac.stats();
        assert_eq!(s.raw_requests, 4);
        assert_eq!(s.dispatched_requests, 1);
        assert!((s.coalescing_efficiency() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timeout_flushes_streams() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x9, 1, 0), 0);
        pac.push_raw(miss(2, 0x9, 2, 0), 0);
        let mut out = Vec::new();
        for now in 0..16 {
            pac.tick(now, &mut out);
            assert!(out.is_empty(), "flushed before timeout at {now}");
        }
        let mut now = 16;
        while out.is_empty() && now < 64 {
            pac.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 128);
        assert_eq!(pac.stats().timeout_flushes, 1);
    }

    #[test]
    fn loads_and_stores_do_not_mix() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x9, 1, 0), 0);
        let mut store = miss(2, 0x9, 2, 0);
        store.op = Op::Store;
        store.kind = RequestKind::WriteBack;
        pac.push_raw(store, 0);
        let (out, _) = run_to_drain(&mut pac, 0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn atomics_route_directly() {
        let mut pac = PacCoalescer::new(cfg());
        let mut a = miss(7, 0x9, 1, 0);
        a.kind = RequestKind::Atomic;
        pac.push_raw(a, 0);
        let mut out = Vec::new();
        pac.tick(0, &mut out);
        assert_eq!(out.len(), 1);
        let mut sat = Vec::new();
        pac.complete(out[0].dispatch_id, 1, &mut sat);
        assert_eq!(sat, vec![7]);
    }

    #[test]
    fn fence_flushes_pipeline() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x9, 1, 0), 0);
        pac.push_raw(miss(2, 0x9, 2, 0), 0);
        let mut fence = miss(0, 0, 0, 1);
        fence.kind = RequestKind::Fence;
        pac.push_raw(fence, 1);
        assert_eq!(pac.stats().fence_flushes, 1);
        // Stream left stage 1 well before its timeout.
        assert_eq!(pac.stream_occupancy(), 0);
    }

    #[test]
    fn later_miss_merges_into_inflight_mshr() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        // First wave coalesces into a 256B dispatch that stays in flight.
        for (i, b) in [0u8, 1, 2, 3].iter().enumerate() {
            pac.push_raw(miss(i as u64, 0x9, *b, 0), 0);
        }
        pac.flush(0);
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            pac.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out[0].bytes, 256);
        // A straggler miss to a covered block arrives while in flight.
        pac.push_raw(miss(9, 0x9, 2, now), now);
        pac.flush(now);
        let before = out.len();
        for _ in 0..40 {
            pac.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out.len(), before, "covered miss must not re-dispatch");
        let mut sat = Vec::new();
        pac.complete(out[0].dispatch_id, now, &mut sat);
        sat.sort_unstable();
        assert_eq!(sat, vec![0, 1, 2, 3, 9]);
        assert_eq!(pac.stats().mshr_merges, 1);
    }

    #[test]
    fn backpressure_engages_under_flood() {
        let mut pac = PacCoalescer::new(CoalescerConfig {
            streams: 4,
            maq_entries: 2,
            mshrs: 2,
            ..cfg()
        });
        pac.bypass_enabled = false;
        let mut refused = 0;
        let mut out = Vec::new();
        for i in 0..400u64 {
            // Distinct pages: nothing coalesces, MSHRs never complete.
            if !pac.push_raw(miss(i, 0x100 + i, 0, i), i) {
                refused += 1;
            }
            pac.tick(i, &mut out);
        }
        assert!(refused > 0, "flood without completions must stall");
        assert!(pac.stats().stall_cycles > 0);
    }

    #[test]
    fn hbm_mode_coalesces_past_256_bytes() {
        let mut pac = PacCoalescer::new(CoalescerConfig {
            protocol: pac_types::MemoryProtocol::Hbm,
            ..cfg()
        });
        pac.bypass_enabled = false;
        // Eight adjacent blocks: HMC would need two 256B requests; HBM's
        // 1KB rows take them in one.
        for b in 0..8u8 {
            assert!(pac.push_raw(miss(b as u64, 0x9, b, 0), 0));
        }
        let (out, _) = run_to_drain(&mut pac, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 512);
        assert_eq!(out[0].raw_count, 8);
    }

    #[test]
    fn hmc10_mode_caps_requests_at_128_bytes() {
        let mut pac = PacCoalescer::new(CoalescerConfig {
            protocol: pac_types::MemoryProtocol::Hmc10,
            ..cfg()
        });
        pac.bypass_enabled = false;
        for b in 0..4u8 {
            assert!(pac.push_raw(miss(b as u64, 0x9, b, 0), 0));
        }
        let (out, _) = run_to_drain(&mut pac, 0);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.bytes == 128));
    }

    #[test]
    fn hint_pending_defeats_cold_bypass() {
        let mut pac = PacCoalescer::new(cfg());
        assert!(pac.bypassing());
        pac.hint_pending(3);
        pac.push_raw(miss(1, 0x9, 1, 0), 0);
        pac.push_raw(miss(2, 0x9, 2, 0), 0);
        // Both requests entered the aggregator instead of bypassing.
        assert_eq!(pac.stats().network_bypasses, 0);
        assert_eq!(pac.stream_occupancy(), 1);
    }

    #[test]
    fn capacity_eviction_counts_and_flushes() {
        let mut pac = PacCoalescer::new(CoalescerConfig { streams: 2, ..cfg() });
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x1, 0, 0), 0);
        pac.push_raw(miss(2, 0x2, 0, 0), 0);
        pac.push_raw(miss(3, 0x3, 0, 0), 0); // evicts the oldest stream
        assert_eq!(pac.stats().capacity_flushes, 1);
        assert_eq!(pac.stream_occupancy(), 2);
    }

    #[test]
    fn writebacks_coalesce_like_stores() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        for b in [4u8, 5, 6, 7] {
            let mut wb = miss(b as u64, 0x7, b, 0);
            wb.op = Op::Store;
            wb.kind = RequestKind::WriteBack;
            assert!(pac.push_raw(wb, 0));
        }
        let (out, _) = run_to_drain(&mut pac, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 256);
        assert_eq!(out[0].op, Op::Store);
    }

    #[test]
    fn duplicate_misses_to_one_line_merge() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x9, 3, 0), 0);
        pac.push_raw(miss(2, 0x9, 3, 0), 0); // same line, e.g. two cores
        let (out, _) = run_to_drain(&mut pac, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 64);
        assert_eq!(out[0].raw_count, 2);
        assert!((pac.stats().coalescing_efficiency() - 0.5).abs() < 1e-12);
    }

    /// `would_accept` must predict `push_raw` exactly at every offer —
    /// the lockstep oracle's AdmissionSync invariant polls this pair
    /// continuously, so any divergence is a checker false-positive.
    #[test]
    fn would_accept_mirrors_push_raw_under_flood() {
        let mut pac = PacCoalescer::new(CoalescerConfig {
            streams: 4,
            maq_entries: 2,
            mshrs: 2,
            ..cfg()
        });
        pac.bypass_enabled = false;
        let mut out = Vec::new();
        let mut refused = 0u32;
        for i in 0..400u64 {
            // Distinct pages, no completions: drives the pipeline from
            // free-flowing through backpressured, crossing the refusal
            // threshold mid-loop.
            let req = miss(i, 0x100 + i, 0, i);
            let predicted = pac.would_accept(&req);
            let accepted = pac.push_raw(req, i);
            assert_eq!(predicted, accepted, "prediction diverged at request {i}");
            refused += u32::from(!accepted);
            pac.tick(i, &mut out);
        }
        assert!(refused > 0, "flood must cross into refusal for the test to mean anything");
        // Fences and atomics are always admitted, even while stalled.
        let mut fence = miss(1000, 0, 0, 400);
        fence.kind = RequestKind::Fence;
        assert!(pac.would_accept(&fence));
        let mut atomic = miss(1001, 0x9, 0, 400);
        atomic.kind = RequestKind::Atomic;
        assert!(pac.would_accept(&atomic));
    }

    /// Backpressure refuses only requests that need a *fresh* stream
    /// slot: a block for a page still aggregating in stage 1 merges
    /// even while the downstream pipeline is stalled.
    #[test]
    fn backpressured_stage1_still_merges_into_waiting_stream() {
        let mut pac = PacCoalescer::new(CoalescerConfig {
            streams: 4,
            maq_entries: 2,
            mshrs: 2,
            ..cfg()
        });
        pac.bypass_enabled = false;
        let mut out = Vec::new();
        let mut last_accepted_page = None;
        for i in 0..400u64 {
            if pac.push_raw(miss(i, 0x100 + i, 0, i), i) {
                last_accepted_page = Some(0x100 + i);
            } else {
                // First refusal: the page accepted one cycle ago still
                // holds a stage-1 stream, so its next block must merge.
                let page = last_accepted_page.expect("something was accepted before the stall");
                let hit = miss(10_000 + i, page, 1, i);
                assert!(pac.would_accept(&hit), "stream hit predicted refusable");
                assert!(pac.push_raw(hit, i), "stream hit refused under backpressure");
                return;
            }
            pac.tick(i, &mut out);
        }
        panic!("flood without completions must refuse eventually");
    }

    /// Releasing a full MSHR file pulls exactly the MAQ head: stall
    /// release preserves the assembled FIFO order, one dispatch per
    /// freed entry.
    #[test]
    fn stall_release_dispatches_in_maq_fifo_order() {
        let mut pac = PacCoalescer::new(CoalescerConfig {
            streams: 8,
            maq_entries: 2,
            mshrs: 2,
            ..cfg()
        });
        pac.bypass_enabled = false;
        let mut out = Vec::new();
        // Six single-line streams on distinct pages, flushed in order so
        // they enter the network one cycle apart.
        for i in 0..6u64 {
            assert!(pac.push_raw(miss(i, 0x100 + i, 0, i), i));
            pac.flush(i);
            pac.tick(i, &mut out);
        }
        // Drain the pipeline without completing anything: both MSHRs
        // fill and everything else backs up behind the MAQ.
        for now in 6..60 {
            pac.tick(now, &mut out);
        }
        assert_eq!(out.len(), 2, "two MSHRs → exactly two dispatches while stalled");
        let pages: Vec<u64> = out.iter().map(|d| d.addr >> 12).collect();
        assert_eq!(pages, vec![0x100, 0x101], "dispatches follow flush order");
        let mut outstanding: std::collections::VecDeque<u64> =
            out.iter().map(|d| d.dispatch_id).collect();
        let mut now = 60;
        let first = out.len();
        for (seen, expected_page) in (first..).zip([0x102u64, 0x103, 0x104, 0x105]) {
            let id = outstanding.pop_front().expect("an entry is in flight");
            let mut sat = Vec::new();
            pac.complete(id, now, &mut sat);
            assert!(!sat.is_empty(), "completion satisfies its raw request");
            while out.len() == seen {
                pac.tick(now, &mut out);
                now += 1;
                assert!(now < 200, "release failed to unblock the MAQ");
            }
            assert_eq!(out.len(), seen + 1, "one freed MSHR admits exactly one MAQ entry");
            assert_eq!(out[seen].addr >> 12, expected_page, "MAQ must drain FIFO");
            outstanding.push_back(out[seen].dispatch_id);
        }
    }

    /// A fence arriving while a stream is half-assembled flushes the
    /// partial stream; later blocks of the same page open a fresh
    /// stream, and no raw request is lost or double-served.
    #[test]
    fn fence_mid_assembly_splits_page_without_loss() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        assert!(pac.push_raw(miss(1, 0x9, 0, 0), 0));
        assert!(pac.push_raw(miss(2, 0x9, 1, 0), 0));
        let mut fence = miss(100, 0, 0, 1);
        fence.kind = RequestKind::Fence;
        assert!(pac.push_raw(fence, 1));
        assert_eq!(pac.stream_occupancy(), 0, "fence must empty stage 1");
        assert_eq!(pac.stats().fence_flushes, 1);
        // The page's remaining blocks arrive after the ordering point.
        assert!(pac.push_raw(miss(3, 0x9, 2, 2), 2));
        assert!(pac.push_raw(miss(4, 0x9, 3, 2), 2));
        assert_eq!(pac.stream_occupancy(), 1, "post-fence blocks form a fresh stream");
        let (out, _) = run_to_drain(&mut pac, 2);
        // Two 128B halves — never one fused 256B request across the
        // fence — covering all four raw requests exactly once.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.bytes == 128), "sizes: {out:?}");
        assert_eq!(out.iter().map(|d| d.raw_count).sum::<u32>(), 4);
    }

    /// A fence through an empty stage 1 is accepted and flushes nothing.
    #[test]
    fn fence_through_empty_stage1_flushes_nothing() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        let mut fence = miss(1, 0, 0, 0);
        fence.kind = RequestKind::Fence;
        assert!(pac.push_raw(fence, 0));
        assert_eq!(pac.stats().fence_flushes, 0);
        assert!(pac.is_drained());
    }

    /// The timeout flush takes only expired streams; younger streams
    /// stay in stage 1 and keep merging new requests.
    #[test]
    fn timeout_flushes_only_expired_streams() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x9, 0, 0), 0); // allocated at cycle 0
        let mut out = Vec::new();
        for now in 0..10 {
            pac.tick(now, &mut out);
        }
        pac.push_raw(miss(2, 0xA, 0, 10), 10); // allocated at cycle 10
        for now in 10..17 {
            pac.tick(now, &mut out);
        }
        // Page 0x9 expired at its 16-cycle residency; page 0xA did not.
        assert_eq!(pac.stats().timeout_flushes, 1);
        assert_eq!(pac.stream_occupancy(), 1);
        // The survivor still merges.
        assert!(pac.push_raw(miss(3, 0xA, 1, 17), 17));
        assert_eq!(pac.stream_occupancy(), 1);
        let (rest, _) = run_to_drain(&mut pac, 18);
        let mut bytes: Vec<u64> = out.iter().chain(rest.iter()).map(|d| d.bytes).collect();
        bytes.sort_unstable();
        assert_eq!(bytes, vec![64, 128], "lone expired block + merged survivor pair");
    }

    #[test]
    fn stats_expose_stage_latencies() {
        let mut pac = PacCoalescer::new(cfg());
        pac.bypass_enabled = false;
        pac.push_raw(miss(1, 0x9, 1, 0), 0);
        pac.push_raw(miss(2, 0x9, 2, 0), 0);
        let _ = run_to_drain(&mut pac, 0);
        let s = pac.stats();
        assert_eq!(s.stage2_batches, 1);
        assert_eq!(s.stage3_batches, 1);
        assert!(s.avg_stage2_latency() >= 2.0);
    }
}
