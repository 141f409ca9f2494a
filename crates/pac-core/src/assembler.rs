//! Stage 3: the request assembler.
//!
//! Pops block sequences from the block sequence buffer in FIFO order,
//! indexes the coalescing table with the sequence pattern (one cycle),
//! and emits one coalesced request per contiguous run (one cycle per
//! request) — Sec 3.3.3. [`assemble`] uses the table; [`assemble_naive`]
//! derives the runs by scanning adjacent bits, the slower alternative the
//! paper rejects; it is kept only as the reference the table's output is
//! tested against.

use crate::decoder::BlockSequence;
use crate::table::{runs_of, CoalescingTable, Run};
use pac_types::addr::{block_addr, BlockId, CACHE_LINE_BYTES};
use pac_types::{CoalescedRequest, Cycle, MemoryProtocol};

fn requests_from_runs(
    seq: &BlockSequence,
    runs: &[Run],
    chunk_blocks: u32,
    now: Cycle,
    out: &mut Vec<CoalescedRequest>,
) {
    for run in runs {
        let first = seq.chunk_index * chunk_blocks + run.start as u32;
        let last = first + run.len as u32; // exclusive
        let raw_ids: Vec<u64> = seq
            .raw
            .iter()
            .filter(|(b, _)| (*b as u32) >= first && (*b as u32) < last)
            .map(|&(_, id)| id)
            .collect();
        debug_assert!(!raw_ids.is_empty());
        out.push(CoalescedRequest {
            addr: block_addr(seq.ppn, first as BlockId),
            bytes: run.len as u64 * CACHE_LINE_BYTES,
            op: seq.op,
            raw_ids,
            assembled_cycle: now,
            first_issue_cycle: seq.first_issue,
        });
    }
}

/// Assemble a block sequence into coalesced requests via the coalescing
/// table (the design the paper adopts).
pub fn assemble(
    seq: &BlockSequence,
    table: &mut CoalescingTable,
    now: Cycle,
) -> Vec<CoalescedRequest> {
    let mut out = Vec::new();
    assemble_into(seq, table, now, &mut out);
    out
}

/// [`assemble`] into a caller-provided buffer; avoids both the run
/// snapshot copy and the per-call result allocation on the hot path.
pub fn assemble_into(
    seq: &BlockSequence,
    table: &mut CoalescingTable,
    now: Cycle,
    out: &mut Vec<CoalescedRequest>,
) {
    let chunk_blocks = table.width();
    let runs = table.lookup(seq.pattern);
    requests_from_runs(seq, runs, chunk_blocks, now, out);
}

/// Assemble by scanning adjacent bits of the pattern instead of a table
/// look-up: the test reference for [`assemble`]. Functionally identical;
/// also returns the number of bit comparisons the scan performed.
pub fn assemble_naive(
    seq: &BlockSequence,
    protocol: MemoryProtocol,
    now: Cycle,
) -> (Vec<CoalescedRequest>, u64) {
    let chunk_blocks = protocol.chunk_blocks();
    // Scanning examines each adjacent bit pair once.
    let comparisons = (chunk_blocks - 1) as u64;
    let runs = runs_of(seq.pattern, chunk_blocks, protocol.max_request_blocks());
    let mut out = Vec::new();
    requests_from_runs(seq, &runs, chunk_blocks, now, &mut out);
    (out, comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::Op;

    fn seq(ppn: u64, chunk: u32, pattern: u16, raw: &[(u8, u64)]) -> BlockSequence {
        BlockSequence {
            ppn,
            op: Op::Load,
            chunk_index: chunk,
            pattern,
            raw: raw.to_vec(),
            first_issue: 0,
        }
    }

    #[test]
    fn paper_example_one_128b_request() {
        // Fig 5(b): sequence 0110 in chunk 0 of page 0x9, raw ids {1,4}.
        let mut table = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        let s = seq(0x9, 0, 0b0110, &[(1, 1), (2, 4)]);
        let reqs = assemble(&s, &mut table, 10);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].bytes, 128);
        assert_eq!(reqs[0].addr, block_addr(0x9, 1));
        assert_eq!(reqs[0].raw_ids, vec![1, 4]);
        assert_eq!(reqs[0].assembled_cycle, 10);
    }

    #[test]
    fn disjoint_runs_become_two_requests() {
        let mut table = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        let s = seq(0x2, 1, 0b1001, &[(4, 7), (7, 8)]);
        let reqs = assemble(&s, &mut table, 0);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].addr, block_addr(0x2, 4));
        assert_eq!(reqs[0].bytes, 64);
        assert_eq!(reqs[0].raw_ids, vec![7]);
        assert_eq!(reqs[1].addr, block_addr(0x2, 7));
        assert_eq!(reqs[1].raw_ids, vec![8]);
    }

    #[test]
    fn duplicate_raw_requests_ride_one_dispatch() {
        let mut table = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        let s = seq(0x2, 0, 0b0001, &[(0, 1), (0, 2), (0, 3)]);
        let reqs = assemble(&s, &mut table, 0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].raw_ids, vec![1, 2, 3]);
        assert_eq!(reqs[0].bytes, 64);
    }

    #[test]
    fn naive_matches_table_output() {
        let mut table = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        for pattern in 1u16..16 {
            let raw: Vec<(u8, u64)> =
                (0..4).filter(|b| pattern >> b & 1 == 1).map(|b| (b as u8, b as u64)).collect();
            let s = seq(0x5, 2, pattern, &raw);
            // Raw blocks are chunk-relative here; shift to absolute.
            let s = BlockSequence {
                raw: s.raw.iter().map(|&(b, id)| (b + 8, id)).collect(),
                ..s
            };
            let via_table = assemble(&s, &mut table, 0);
            let (via_scan, comparisons) = assemble_naive(&s, MemoryProtocol::Hmc21, 0);
            assert_eq!(via_table, via_scan, "pattern {pattern:04b}");
            assert_eq!(comparisons, 3);
        }
    }

    #[test]
    fn full_pattern_is_256b() {
        let mut table = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        let s = seq(0x1, 0, 0b1111, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let reqs = assemble(&s, &mut table, 0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].bytes, 256);
        assert_eq!(reqs[0].raw_count(), 4);
    }
}
