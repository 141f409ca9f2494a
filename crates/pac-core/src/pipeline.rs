//! The pipelined coalescing network — stages 2 and 3 with their timing.
//!
//! Streams flushed from stage 1 enter the decoder queue; the decoder
//! spends one cycle decoding plus one cycle per non-zero chunk storing
//! block sequences into the block sequence buffer (shared bus,
//! Sec 3.3.2). The assembler pops sequences in FIFO order, pays one cycle
//! for the coalescing-table look-up and one per assembled request
//! (Sec 3.3.3). Streams whose C bit is clear (a single raw request)
//! bypass both stages and surface on the output after one cycle
//! (Sec 3.3.1, measured in Fig 12c).

use crate::decoder::decode_into;
use crate::stream::CoalescingStream;
use crate::table::CoalescingTable;
use pac_types::addr::{block_addr, CACHE_LINE_BYTES};
use pac_types::{CoalescedRequest, Cycle, MemoryProtocol};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Latency/throughput counters the network reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Streams that traversed stages 2–3.
    pub coalesced_streams: u64,
    /// Raw requests that bypassed stages 2–3 (C bit clear).
    pub bypassed_raw: u64,
    /// Sum/count of stage-2 batch latencies (flush → last sequence stored).
    pub stage2_latency_sum: u64,
    pub stage2_batches: u64,
    /// Sum/count of stage-3 batch latencies (sequence ready → last request).
    pub stage3_latency_sum: u64,
    pub stage3_batches: u64,
    /// Stage-2 latency distribution (same samples as the sum/count).
    pub stage2_hist: pac_trace::LatencyHistogram,
    /// Stage-3 latency distribution (same samples as the sum/count).
    pub stage3_hist: pac_trace::LatencyHistogram,
}

pac_types::snapshot_fields!(NetworkStats {
    coalesced_streams, bypassed_raw, stage2_latency_sum, stage2_batches,
    stage3_latency_sum, stage3_batches, stage2_hist, stage3_hist,
});

#[derive(Debug)]
struct OutEntry {
    ready: Cycle,
    seq: u64,
    req: CoalescedRequest,
}

pac_types::snapshot_fields!(OutEntry { ready, seq, req });

impl PartialEq for OutEntry {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}
impl Eq for OutEntry {}
impl PartialOrd for OutEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OutEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready, self.seq).cmp(&(other.ready, other.seq))
    }
}

/// Stages 2–3 of the coalescing network.
#[derive(Debug)]
pub struct CoalescingNetwork {
    protocol: MemoryProtocol,
    table: CoalescingTable,
    /// Streams awaiting the decoder: (flush cycle, stream).
    stage2_in: VecDeque<(Cycle, CoalescingStream)>,
    stage2_free: Cycle,
    /// Block sequence buffer: (ready cycle, sequence).
    seq_buffer: VecDeque<(Cycle, crate::decoder::BlockSequence)>,
    stage3_free: Cycle,
    out: BinaryHeap<Reverse<OutEntry>>,
    out_seq: u64,
    /// Scratch buffers reused across ticks so the hot decode/assemble
    /// loops never allocate per call.
    scratch_seqs: Vec<crate::decoder::BlockSequence>,
    scratch_reqs: Vec<CoalescedRequest>,
    /// Counters for Figs 12a/12c.
    pub stats: NetworkStats,
    /// Tracer for stage-batch and bypass events (disabled by default).
    tracer: pac_trace::TraceHandle,
}

// The coalescing table is pure precomputed combinational logic keyed
// only by the protocol, so a checkpoint stores the protocol tag and the
// look-up counter and takes the process's shared table on restore.
// Scratch buffers are drained within every `tick`, hence provably empty
// at any checkpoint boundary; the tracer is re-attached by the caller.
impl pac_types::Snapshot for CoalescingNetwork {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        self.protocol.save(w);
        self.table.lookups.save(w);
        self.stage2_in.save(w);
        self.stage2_free.save(w);
        self.seq_buffer.save(w);
        self.stage3_free.save(w);
        self.out.save(w);
        self.out_seq.save(w);
        self.stats.save(w);
    }

    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        let protocol = MemoryProtocol::load(r)?;
        let lookups = u64::load(r)?;
        let mut table = CoalescingTable::for_protocol(protocol);
        table.lookups = lookups;
        Ok(CoalescingNetwork {
            protocol,
            table,
            stage2_in: VecDeque::load(r)?,
            stage2_free: Cycle::load(r)?,
            seq_buffer: VecDeque::load(r)?,
            stage3_free: Cycle::load(r)?,
            out: BinaryHeap::load(r)?,
            out_seq: u64::load(r)?,
            scratch_seqs: Vec::new(),
            scratch_reqs: Vec::new(),
            stats: NetworkStats::load(r)?,
            tracer: pac_trace::TraceHandle::disabled(),
        })
    }
}

impl CoalescingNetwork {
    /// Capacity of the block sequence buffer and the output buffer.
    const BUFFER_CAP: usize = 32;

    pub fn new(protocol: MemoryProtocol) -> Self {
        CoalescingNetwork {
            protocol,
            table: CoalescingTable::for_protocol(protocol),
            stage2_in: VecDeque::new(),
            stage2_free: 0,
            seq_buffer: VecDeque::new(),
            stage3_free: 0,
            out: BinaryHeap::new(),
            out_seq: 0,
            scratch_seqs: Vec::new(),
            scratch_reqs: Vec::new(),
            stats: NetworkStats::default(),
            tracer: pac_trace::TraceHandle::disabled(),
        }
    }

    /// Attach a tracer for stage-batch and bypass events.
    pub fn set_tracer(&mut self, tracer: pac_trace::TraceHandle) {
        self.tracer = tracer;
    }

    /// Protocol the network assembles for.
    pub fn protocol(&self) -> MemoryProtocol {
        self.protocol
    }

    /// Total coalescing-table look-ups served.
    pub fn table_lookups(&self) -> u64 {
        self.table.lookups
    }

    /// Accept a stream flushed from stage 1 at `flush_cycle`. Streams
    /// with the C bit clear skip stages 2–3.
    pub fn push_stream(&mut self, stream: CoalescingStream, flush_cycle: Cycle) {
        if stream.c_bit() {
            self.stats.coalesced_streams += 1;
            self.stage2_in.push_back((flush_cycle, stream));
        } else {
            self.stats.bypassed_raw += stream.raw_count() as u64;
            let (block, id) = stream.raw[0];
            self.tracer.emit(flush_cycle, pac_types::EventClass::Network, || {
                pac_trace::EventKind::NetworkBypass { addr: block_addr(stream.ppn, block) }
            });
            let req = CoalescedRequest {
                addr: block_addr(stream.ppn, block),
                bytes: CACHE_LINE_BYTES,
                op: stream.op,
                raw_ids: vec![id],
                assembled_cycle: flush_cycle + 1,
                first_issue_cycle: stream.first_issue,
            };
            self.push_out(flush_cycle + 1, req);
        }
    }

    fn push_out(&mut self, ready: Cycle, req: CoalescedRequest) {
        let seq = self.out_seq;
        self.out_seq += 1;
        self.out.push(Reverse(OutEntry { ready, seq, req }));
    }

    /// Streams waiting for the decoder.
    pub fn stage2_backlog(&self) -> usize {
        self.stage2_in.len()
    }

    /// Advance stages 2–3 up to cycle `now`. Each stage stalls when its
    /// downstream buffer is full, propagating MAQ backpressure up the
    /// pipeline (Sec 3.2: "if the MAQ is full, the pipeline is
    /// stalled").
    pub fn tick(&mut self, now: Cycle) {
        // Stage 2: decode + serialized store of non-zero chunks.
        while let Some((flush, _)) = self.stage2_in.front() {
            if self.seq_buffer.len() >= Self::BUFFER_CAP {
                break;
            }
            let start = (*flush).max(self.stage2_free);
            if *flush > now || start > now {
                break;
            }
            let (flush, stream) = self.stage2_in.pop_front().expect("front exists");
            self.scratch_seqs.clear();
            decode_into(&stream, self.protocol, &mut self.scratch_seqs);
            debug_assert!(!self.scratch_seqs.is_empty(), "C=1 stream has at least one chunk");
            let n = self.scratch_seqs.len() as u64;
            for (i, s) in self.scratch_seqs.drain(..).enumerate() {
                // Decode takes 1 cycle; chunk i stores on cycle i+1 after.
                self.seq_buffer.push_back((start + 2 + i as u64, s));
            }
            self.stage2_free = start + 1 + n;
            let latency = start + 1 + n - flush;
            self.stats.stage2_latency_sum += latency;
            self.stats.stage2_batches += 1;
            self.stats.stage2_hist.record(latency);
            self.tracer.emit(start + 1 + n, pac_types::EventClass::Network, || {
                pac_trace::EventKind::Stage2Batch { start: flush, latency }
            });
        }

        // Stage 3: table look-up + one request assembled per cycle.
        while let Some((ready, _)) = self.seq_buffer.front() {
            if self.out.len() >= Self::BUFFER_CAP {
                break;
            }
            let start = (*ready).max(self.stage3_free);
            if *ready > now || start > now {
                break;
            }
            let (ready, seq) = self.seq_buffer.pop_front().expect("front exists");
            let mut requests = std::mem::take(&mut self.scratch_reqs);
            requests.clear();
            crate::assembler::assemble_into(&seq, &mut self.table, start + 1, &mut requests);
            let k = requests.len() as u64;
            debug_assert!(k >= 1);
            for (j, mut r) in requests.drain(..).enumerate() {
                let emit = start + 2 + j as u64;
                r.assembled_cycle = emit;
                self.push_out(emit, r);
            }
            self.scratch_reqs = requests;
            self.stage3_free = start + 1 + k;
            let latency = start + 1 + k - ready;
            self.stats.stage3_latency_sum += latency;
            self.stats.stage3_batches += 1;
            self.stats.stage3_hist.record(latency);
            self.tracer.emit(start + 1 + k, pac_types::EventClass::Network, || {
                pac_trace::EventKind::Stage3Batch { start: ready, latency }
            });
        }
    }

    /// Earliest cycle ≥ `now` at which [`CoalescingNetwork::tick`] or
    /// [`CoalescingNetwork::pop_ready`] could make progress, or `None`
    /// when stages 2–3 are empty. `maq_full` tells the network whether
    /// its output could currently drain (a full MAQ stalls the output,
    /// so only upstream stage work counts as an event then). Estimates
    /// may be conservatively early, never late.
    pub fn next_activity(&self, now: Cycle, maq_full: bool) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            let c = c.max(now);
            best = Some(match best {
                Some(b) => b.min(c),
                None => c,
            });
        };
        if self.seq_buffer.len() < Self::BUFFER_CAP {
            if let Some((flush, _)) = self.stage2_in.front() {
                consider((*flush).max(self.stage2_free));
            }
        }
        if self.out.len() < Self::BUFFER_CAP {
            if let Some((ready, _)) = self.seq_buffer.front() {
                consider((*ready).max(self.stage3_free));
            }
        }
        if !maq_full {
            if let Some(Reverse(e)) = self.out.peek() {
                consider(e.ready);
            }
        }
        best
    }

    /// Pop the next assembled request whose pipeline latency has elapsed.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<CoalescedRequest> {
        if self.out.peek().is_some_and(|Reverse(e)| e.ready <= now) {
            Some(self.out.pop().expect("peeked").0.req)
        } else {
            None
        }
    }

    /// Requests waiting on the output side (assembled or bypassed).
    pub fn buffered_out(&self) -> usize {
        self.out.len()
    }

    /// Structural invariants, polled by the lockstep oracle: the
    /// sequence buffer respects its capacity, buffered streams are
    /// internally consistent, and every assembled request waiting on the
    /// output is well-formed (non-empty raw-id set, line-granular span
    /// within the protocol's maximum request size).
    pub fn integrity(&self) -> Result<(), String> {
        if self.seq_buffer.len() > Self::BUFFER_CAP {
            return Err(format!(
                "sequence buffer holds {} entries but capacity is {}",
                self.seq_buffer.len(),
                Self::BUFFER_CAP
            ));
        }
        for (_, s) in &self.stage2_in {
            s.integrity()?;
        }
        let max = self.protocol.max_request_bytes();
        for Reverse(e) in self.out.iter() {
            let r = &e.req;
            if r.raw_ids.is_empty() {
                return Err(format!("assembled request at {:#x} carries no raw ids", r.addr));
            }
            if r.bytes == 0 || r.bytes % CACHE_LINE_BYTES != 0 || r.addr % CACHE_LINE_BYTES != 0 {
                return Err(format!(
                    "assembled request is not line-granular: addr {:#x}, {} bytes",
                    r.addr, r.bytes
                ));
            }
            if r.bytes > max {
                return Err(format!(
                    "assembled request of {} bytes exceeds protocol max {max}",
                    r.bytes
                ));
            }
        }
        Ok(())
    }

    /// True when nothing is in flight anywhere in stages 2–3.
    pub fn is_empty(&self) -> bool {
        self.stage2_in.is_empty() && self.seq_buffer.is_empty() && self.out.is_empty()
    }

    /// Run the pipeline until everything buffered has drained, returning
    /// the drained requests and the cycle the network went idle.
    pub fn drain(&mut self, mut now: Cycle) -> (Vec<CoalescedRequest>, Cycle) {
        let mut out = Vec::new();
        while !self.is_empty() {
            self.tick(now);
            while let Some(r) = self.pop_ready(now) {
                out.push(r);
            }
            now += 1;
        }
        (out, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::{MemRequest, Op};

    fn stream(ppn: u64, blocks: &[u8], cycle: Cycle) -> CoalescingStream {
        let mut s = CoalescingStream::new(
            &MemRequest::miss(
                100 + blocks[0] as u64,
                block_addr(ppn, blocks[0]),
                Op::Load,
                0,
                cycle,
            ),
            cycle,
        );
        for &b in &blocks[1..] {
            s.merge(&MemRequest::miss(100 + b as u64, block_addr(ppn, b), Op::Load, 0, cycle));
        }
        s
    }

    #[test]
    fn single_request_stream_bypasses() {
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        net.push_stream(stream(0x9, &[3], 5), 5);
        assert_eq!(net.stats.bypassed_raw, 1);
        assert!(net.pop_ready(5).is_none());
        let r = net.pop_ready(6).expect("ready one cycle after flush");
        assert_eq!(r.bytes, 64);
        assert_eq!(r.addr, block_addr(0x9, 3));
        assert!(net.is_empty());
    }

    #[test]
    fn coalesced_stream_traverses_stages() {
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        net.push_stream(stream(0x9, &[1, 2], 0), 0);
        let (reqs, _) = net.drain(0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].bytes, 128);
        assert_eq!(reqs[0].raw_ids.len(), 2);
        assert_eq!(net.stats.coalesced_streams, 1);
        assert_eq!(net.stats.stage2_batches, 1);
        assert_eq!(net.stats.stage3_batches, 1);
    }

    #[test]
    fn pipeline_latency_is_modelled() {
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        net.push_stream(stream(0x9, &[1, 2], 0), 0);
        // Stage 2: start 0, seq ready at 2. Stage 3: start 2, lookup 1
        // cycle, request emitted at 4.
        for now in 0..4 {
            net.tick(now);
            assert!(net.pop_ready(now).is_none(), "not ready at {now}");
        }
        net.tick(4);
        assert!(net.pop_ready(4).is_some());
    }

    #[test]
    fn multi_chunk_stream_yields_multiple_requests() {
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        // Blocks 0,1 (chunk 0) and 8,9,10 (chunk 2).
        net.push_stream(stream(0x4, &[0, 1, 8, 9, 10], 0), 0);
        let (reqs, _) = net.drain(0);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].bytes, 128);
        assert_eq!(reqs[1].bytes, 192);
    }

    #[test]
    fn output_respects_ready_order() {
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        net.push_stream(stream(0x1, &[0, 1], 0), 0); // slow path
        net.push_stream(stream(0x2, &[5], 0), 0); // bypass, ready at 1
        let (reqs, _) = net.drain(0);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].addr, block_addr(0x2, 5));
        assert_eq!(reqs[1].addr, block_addr(0x1, 0));
    }

    #[test]
    fn back_to_back_streams_share_stage_bandwidth() {
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        for p in 0..4u64 {
            net.push_stream(stream(p + 1, &[0, 1], 0), 0);
        }
        let (reqs, done) = net.drain(0);
        assert_eq!(reqs.len(), 4);
        // Serialized stages: strictly more than the single-stream latency.
        assert!(done > 5, "four streams drained suspiciously fast: {done}");
        assert_eq!(net.stats.stage2_batches, 4);
    }

    #[test]
    fn fig5b_example_end_to_end() {
        // Streams 1 and 2 each coalesce into one 128B request; request 3
        // bypasses as a 64B single.
        let mut net = CoalescingNetwork::new(MemoryProtocol::Hmc21);
        net.push_stream(stream(0x9, &[1, 2], 0), 0);
        let mut s2 = CoalescingStream::new(
            &{
                let mut r = MemRequest::miss(2, block_addr(0x2, 1), Op::Store, 0, 0);
                r.op = Op::Store;
                r
            },
            0,
        );
        s2.merge(&{
            let mut r = MemRequest::miss(5, block_addr(0x2, 2), Op::Store, 0, 0);
            r.op = Op::Store;
            r
        });
        net.push_stream(s2, 0);
        net.push_stream(stream(0x5, &[3], 0), 0);
        let (reqs, _) = net.drain(0);
        assert_eq!(reqs.len(), 3);
        let total_raw: usize = reqs.iter().map(|r| r.raw_ids.len()).sum();
        assert_eq!(total_raw, 5);
        let sizes: Vec<u64> = {
            let mut v: Vec<u64> = reqs.iter().map(|r| r.bytes).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![64, 128, 128]);
    }
}
