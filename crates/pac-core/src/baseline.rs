//! Baseline coalescers the paper evaluates PAC against.
//!
//! [`MshrDmc`] is the conventional MSHR-based dynamic memory coalescer
//! (Sec 2.2.1): misses to a line already pending in an MSHR merge as
//! subentries; everything else allocates an MSHR and dispatches a fixed
//! 64 B request *immediately* — the property that prevents it from ever
//! producing the large packets 3D-stacked memory wants (Sec 2.2.2).
//!
//! [`NoCoalescing`] is the stock HMC controller used as the performance
//! baseline in Fig 15: every raw request becomes its own 64 B memory
//! request, bounded only by the outstanding-request limit.

use crate::mshr::AdaptiveMshrFile;
use crate::stats::CoalescerStats;
use crate::{CoalescerGauges, DispatchedRequest, MemoryCoalescer};
use pac_trace::{EventKind, TraceHandle};
use pac_types::addr::CACHE_LINE_BYTES;
use pac_types::{CoalescedRequest, Cycle, EventClass, IdHash, MemRequest, RequestKind};
use std::collections::{HashMap, VecDeque};

fn line_request(req: &MemRequest, now: Cycle) -> CoalescedRequest {
    CoalescedRequest {
        addr: req.line(),
        bytes: CACHE_LINE_BYTES,
        op: req.op,
        raw_ids: vec![req.id],
        assembled_cycle: now,
        first_issue_cycle: req.issue_cycle,
    }
}

/// Conventional MSHR-based dynamic memory coalescing (the paper's "DMC"
/// control).
#[derive(Debug)]
pub struct MshrDmc {
    mshr: AdaptiveMshrFile,
    pending: VecDeque<DispatchedRequest>,
    stats: CoalescerStats,
    tracer: TraceHandle,
}

pac_types::snapshot_fields!(MshrDmc {
    mshr, pending, stats,
} skip {
    tracer: TraceHandle::disabled(),
});

impl MshrDmc {
    pub fn new(mshrs: usize, max_subentries: usize) -> Self {
        MshrDmc {
            mshr: AdaptiveMshrFile::new(mshrs, max_subentries),
            pending: VecDeque::new(),
            stats: CoalescerStats::default(),
            tracer: TraceHandle::disabled(),
        }
    }

    fn refresh_stats(&mut self) {
        self.stats.comparisons = self.mshr.comparisons;
        self.stats.mshr_merges = self.mshr.merged_raw;
    }
}

impl MemoryCoalescer for MshrDmc {
    fn push_raw(&mut self, req: MemRequest, now: Cycle) -> bool {
        if req.kind == RequestKind::Fence {
            return true; // no buffering: fences are free here
        }
        // Misses to a line already in flight merge as MSHR subentries —
        // the only aggregation this model performs. Atomics never merge.
        if req.kind != RequestKind::Atomic
            && self.mshr.try_merge_line(req.line(), req.op, req.id)
        {
            self.stats.raw_requests += 1;
            self.tracer
                .emit(now, EventClass::Mshr, || EventKind::MshrMerged { addr: req.line() });
            self.refresh_stats();
            return true;
        }
        if !self.mshr.has_free() {
            // Refused pushes are retried by the caller; count the raw
            // request only once it is actually accepted.
            self.stats.stall_cycles += 1;
            return false;
        }
        self.stats.raw_requests += 1;
        // Dispatch immediately upon allocation (Sec 2.2.2). Atomic
        // entries are sealed: later misses to the line must not ride an
        // atomic's in-flight request.
        let d = self.mshr.allocate_with(line_request(&req, now), req.kind != RequestKind::Atomic);
        self.stats.dispatched_requests += 1;
        self.stats.size_histogram.record(d.bytes);
        self.tracer.emit(now, EventClass::Mshr, || EventKind::Dispatch {
            dispatch_id: d.dispatch_id,
            addr: d.addr,
            bytes: d.bytes,
            raw_count: d.raw_count,
        });
        self.pending.push_back(d);
        self.refresh_stats();
        true
    }

    fn tick(&mut self, _now: Cycle, out: &mut Vec<DispatchedRequest>) {
        out.extend(self.pending.drain(..));
    }

    fn complete(&mut self, dispatch_id: u64, now: Cycle, satisfied: &mut Vec<u64>) {
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
        self.pending.is_empty()
    }

    fn stats(&self) -> &CoalescerStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CoalescerStats {
        &mut self.stats
    }

    fn flush(&mut self, _now: Cycle) {}

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Dispatches drain the same tick their push arrives; outside
        // that, the DMC only reacts to pushes and completions.
        (!self.pending.is_empty()).then_some(now)
    }

    fn attach_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn gauges(&self) -> Option<CoalescerGauges> {
        Some(CoalescerGauges {
            maq_depth: 0,
            active_streams: 0,
            inflight_mshrs: self.mshr.occupancy() as u32,
        })
    }

    fn would_accept(&self, req: &MemRequest) -> bool {
        // Mirrors push_raw: fences are free; misses merge into a
        // covering in-flight entry; anything else needs a free MSHR.
        req.kind == RequestKind::Fence
            || (req.kind != RequestKind::Atomic && self.mshr.can_merge_line(req.line(), req.op))
            || self.mshr.has_free()
    }

    fn admission_epoch(&self) -> u64 {
        // `would_accept` reads only the MSHR entries, and every
        // allocate, merge and complete bumps the file's generation.
        self.mshr.generation()
    }

    fn note_refused_retries(&mut self, req: &MemRequest, _now: Cycle, n: u64) {
        // Each literal refused offer runs a failed merge scan (atomics
        // skip it) and then counts a stall against the full file.
        if req.kind != RequestKind::Atomic {
            self.mshr.charge_failed_merges(n);
        }
        self.stats.stall_cycles += n;
    }

    fn integrity(&self) -> Result<(), String> {
        self.mshr.integrity().map_err(|e| format!("MSHR: {e}"))
    }

    fn save_state(&self, w: &mut pac_types::SnapWriter) {
        pac_types::Snapshot::save(self, w);
    }
}

/// The stock HMC controller: no aggregation at all. In-flight requests
/// are tracked in an identity-hashed map keyed by the sequential
/// dispatch id, so completions resolve in O(1) at any outstanding depth.
#[derive(Debug)]
pub struct NoCoalescing {
    outstanding_limit: usize,
    outstanding: usize,
    inflight: HashMap<u64, u64, IdHash>,
    next_id: u64,
    pending: VecDeque<DispatchedRequest>,
    stats: CoalescerStats,
    tracer: TraceHandle,
}

pac_types::snapshot_fields!(NoCoalescing {
    outstanding_limit, outstanding, inflight, next_id, pending, stats,
} skip {
    tracer: TraceHandle::disabled(),
});

impl NoCoalescing {
    pub fn new(outstanding_limit: usize) -> Self {
        NoCoalescing {
            outstanding_limit,
            outstanding: 0,
            inflight: HashMap::with_capacity_and_hasher(outstanding_limit, IdHash),
            next_id: 0,
            pending: VecDeque::new(),
            stats: CoalescerStats::default(),
            tracer: TraceHandle::disabled(),
        }
    }
}

impl MemoryCoalescer for NoCoalescing {
    fn push_raw(&mut self, req: MemRequest, now: Cycle) -> bool {
        if req.kind == RequestKind::Fence {
            return true;
        }
        if self.outstanding >= self.outstanding_limit {
            self.stats.stall_cycles += 1;
            return false;
        }
        self.stats.raw_requests += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.insert(id, req.id);
        self.outstanding += 1;
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
        true
    }

    fn tick(&mut self, _now: Cycle, out: &mut Vec<DispatchedRequest>) {
        out.extend(self.pending.drain(..));
    }

    fn complete(&mut self, dispatch_id: u64, now: Cycle, satisfied: &mut Vec<u64>) {
        if let Some(raw) = self.inflight.remove(&dispatch_id) {
            self.outstanding -= 1;
            self.tracer.emit(now, EventClass::Mshr, || EventKind::MshrReleased {
                dispatch_id,
                raw_count: 1,
            });
            satisfied.push(raw);
        }
    }

    fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    fn stats(&self) -> &CoalescerStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CoalescerStats {
        &mut self.stats
    }

    fn flush(&mut self, _now: Cycle) {}

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (!self.pending.is_empty()).then_some(now)
    }

    fn would_accept(&self, req: &MemRequest) -> bool {
        req.kind == RequestKind::Fence || self.outstanding < self.outstanding_limit
    }

    fn admission_epoch(&self) -> u64 {
        // `would_accept` reads only the outstanding count.
        self.outstanding as u64
    }

    fn note_refused_retries(&mut self, _req: &MemRequest, _now: Cycle, n: u64) {
        self.stats.stall_cycles += n;
    }

    fn attach_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn gauges(&self) -> Option<CoalescerGauges> {
        Some(CoalescerGauges {
            maq_depth: 0,
            active_streams: 0,
            inflight_mshrs: self.outstanding as u32,
        })
    }

    fn integrity(&self) -> Result<(), String> {
        if self.outstanding > self.outstanding_limit {
            return Err(format!(
                "{} requests outstanding but the limit is {}",
                self.outstanding, self.outstanding_limit
            ));
        }
        if self.inflight.len() != self.outstanding {
            return Err(format!(
                "in-flight map has {} records for {} outstanding requests",
                self.inflight.len(),
                self.outstanding
            ));
        }
        Ok(())
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

    fn miss(id: u64, ppn: u64, block: u8) -> MemRequest {
        MemRequest::miss(id, block_addr(ppn, block), Op::Load, 0, 0)
    }

    #[test]
    fn mshr_dmc_merges_same_line_only() {
        let mut dmc = MshrDmc::new(4, 8);
        let mut out = Vec::new();
        dmc.push_raw(miss(1, 0x9, 1), 0);
        dmc.push_raw(miss(2, 0x9, 1), 0); // same line -> merge
        dmc.push_raw(miss(3, 0x9, 2), 0); // adjacent line -> NEW request
        dmc.tick(0, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.bytes == 64), "DMC is fixed at 64B");
        let s = dmc.stats();
        assert_eq!(s.raw_requests, 3);
        assert_eq!(s.dispatched_requests, 2);
        assert_eq!(s.mshr_merges, 1);
    }

    #[test]
    fn mshr_dmc_completion_fans_out() {
        let mut dmc = MshrDmc::new(4, 8);
        let mut out = Vec::new();
        dmc.push_raw(miss(1, 0x9, 1), 0);
        dmc.push_raw(miss(2, 0x9, 1), 0);
        dmc.tick(0, &mut out);
        let mut sat = Vec::new();
        dmc.complete(out[0].dispatch_id, 5, &mut sat);
        sat.sort_unstable();
        assert_eq!(sat, vec![1, 2]);
    }

    #[test]
    fn mshr_dmc_stalls_when_full() {
        let mut dmc = MshrDmc::new(2, 8);
        assert!(dmc.push_raw(miss(1, 1, 0), 0));
        assert!(dmc.push_raw(miss(2, 2, 0), 0));
        assert!(!dmc.push_raw(miss(3, 3, 0), 0));
        assert_eq!(dmc.stats().stall_cycles, 1);
    }

    #[test]
    fn no_coalescing_never_merges() {
        let mut nc = NoCoalescing::new(16);
        let mut out = Vec::new();
        nc.push_raw(miss(1, 0x9, 1), 0);
        nc.push_raw(miss(2, 0x9, 1), 0); // same line, still two dispatches
        nc.tick(0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(nc.stats().coalescing_efficiency(), 0.0);
    }

    #[test]
    fn no_coalescing_respects_outstanding_limit() {
        let mut nc = NoCoalescing::new(1);
        let mut out = Vec::new();
        assert!(nc.push_raw(miss(1, 1, 0), 0));
        assert!(!nc.push_raw(miss(2, 2, 0), 0));
        nc.tick(0, &mut out);
        let mut sat = Vec::new();
        nc.complete(out[0].dispatch_id, 1, &mut sat);
        assert_eq!(sat, vec![1]);
        assert!(nc.push_raw(miss(2, 2, 0), 1));
    }
}
