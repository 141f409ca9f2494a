//! Adaptive miss status holding registers — Sec 3.1.3.
//!
//! Each entry tracks one dispatched (possibly multi-block) memory
//! request. Two extensions over Kroft-style MSHRs make variable-size
//! merging possible:
//!
//! * a **2-bit index field** per subentry records which of the up-to-four
//!   blocks (N..N+3) covered by the entry's dispatched request the
//!   subentry's miss targets, so responses fan back out to the right
//!   lines;
//! * an **OP bit** on the main entry distinguishes loads from stores, so
//!   type compatibility is checked in the same comparison as the address.
//!
//! A pending request from the MAQ whose page, operation, and block range
//! are already covered by an in-flight entry merges as subentries instead
//! of allocating — the dispatched request cannot be *expanded* (it is
//! already on the wire, Sec 2.2.2), so only fully-covered requests merge.

use crate::DispatchedRequest;
use pac_types::addr::CACHE_LINE_BYTES;
use pac_types::{CoalescedRequest, Op, PAGE_BYTES};

/// One occupied MSHR entry.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Dispatch id echoed by the memory system on completion.
    pub dispatch_id: u64,
    /// Base address of the dispatched request (line-aligned).
    pub addr: u64,
    /// Dispatched payload bytes.
    pub bytes: u64,
    /// The OP bit.
    pub op: Op,
    /// Raw request ids waiting on this entry (main + subentries).
    pub raw_ids: Vec<u64>,
    /// Subentries merged after dispatch (bounded by the subentry field).
    pub subentries: usize,
    /// Entries for atomics must not absorb later misses.
    pub mergeable: bool,
}

impl MshrEntry {
    /// The 2-bit subentry index for a line within this entry (0..4).
    pub fn block_index_of(&self, line_addr: u64) -> u8 {
        debug_assert!(line_addr >= self.addr && line_addr < self.addr + self.bytes);
        ((line_addr - self.addr) / CACHE_LINE_BYTES) as u8
    }
}

/// Per-slot lookup key, parallel to the entry array: the dispatch id a
/// completion matches and the byte span a merge must lie within. Merge
/// and completion scans read only this packed array (16 slots fit in a
/// few cache lines) and touch an entry itself only on a span hit.
#[derive(Debug, Clone, Copy)]
struct SlotSpan {
    dispatch_id: u64,
    addr: u64,
    end: u64,
}

impl SlotSpan {
    fn of(e: &MshrEntry) -> Self {
        SlotSpan { dispatch_id: e.dispatch_id, addr: e.addr, end: e.addr + e.bytes }
    }
}

/// The MSHR file.
///
/// Lookups scan a compact per-slot span array in slot order: the first
/// covering slot is the lowest, as in the hardware's priority-encoded
/// comparator bank, and `complete` compacts both arrays with the same
/// `swap_remove`. The `comparisons` counter models that parallel bank:
/// every merge attempt compares against every occupied entry.
#[derive(Debug)]
pub struct AdaptiveMshrFile {
    entries: Vec<MshrEntry>,
    /// `SlotSpan::of(&entries[i])` for every slot `i`.
    spans: Vec<SlotSpan>,
    capacity: usize,
    max_subentries: usize,
    next_dispatch_id: u64,
    /// Bumped on every allocate/merge/complete: a `try_merge` whose
    /// outcome was negative stays negative until this changes, letting
    /// callers skip guaranteed-futile retries.
    generation: u64,
    /// Tag comparisons performed (each merge attempt compares against
    /// every occupied entry in parallel).
    pub comparisons: u64,
    /// Raw requests absorbed into in-flight entries.
    pub merged_raw: u64,
}

pac_types::snapshot_fields!(MshrEntry {
    dispatch_id, addr, bytes, op, raw_ids, subentries, mergeable
});

// The span array is derived from the entry array, slot for slot.
impl pac_types::Snapshot for AdaptiveMshrFile {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        self.entries.save(w);
        self.capacity.save(w);
        self.max_subentries.save(w);
        self.next_dispatch_id.save(w);
        self.generation.save(w);
        self.comparisons.save(w);
        self.merged_raw.save(w);
    }
    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        let entries = Vec::<MshrEntry>::load(r)?;
        Ok(AdaptiveMshrFile {
            spans: entries.iter().map(SlotSpan::of).collect(),
            entries,
            capacity: usize::load(r)?,
            max_subentries: usize::load(r)?,
            next_dispatch_id: u64::load(r)?,
            generation: u64::load(r)?,
            comparisons: u64::load(r)?,
            merged_raw: u64::load(r)?,
        })
    }
}

impl AdaptiveMshrFile {
    pub fn new(capacity: usize, max_subentries: usize) -> Self {
        assert!(capacity > 0);
        AdaptiveMshrFile {
            entries: Vec::with_capacity(capacity),
            spans: Vec::with_capacity(capacity),
            capacity,
            max_subentries,
            next_dispatch_id: 0,
            generation: 0,
            comparisons: 0,
            merged_raw: 0,
        }
    }

    /// Monotonic change stamp; see the field docs.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lowest slot whose entry can absorb `n` raw requests of op `op`
    /// spanning `[addr, end)`: a mergeable load entry covering the span
    /// with `n` subentry slots to spare.
    fn covering_slot(&self, addr: u64, end: u64, op: Op, n: usize) -> Option<usize> {
        // A later store's data would be silently dropped if it merged
        // into an already-dispatched request, so only loads ride loads.
        if op != Op::Load {
            return None;
        }
        (0..self.spans.len()).find(|&i| {
            let s = self.spans[i];
            addr >= s.addr && end <= s.end && {
                let e = &self.entries[i];
                e.mergeable && e.op == Op::Load && e.subentries + n <= self.max_subentries
            }
        })
    }

    /// Ride slot `i`'s in-flight dispatch with `raw_ids`.
    fn merge_into(&mut self, i: usize, raw_ids: &[u64]) {
        let e = &mut self.entries[i];
        e.subentries += raw_ids.len();
        e.raw_ids.extend_from_slice(raw_ids);
        self.merged_raw += raw_ids.len() as u64;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Try to absorb `req` into an in-flight entry that already covers
    /// its span. On success the raw ids ride the existing dispatch;
    /// among multiple covering entries the lowest slot wins.
    pub fn try_merge(&mut self, req: &CoalescedRequest) -> bool {
        self.comparisons += self.entries.len() as u64;
        let Some(i) = self.covering_slot(req.addr, req.addr + req.bytes, req.op, req.raw_ids.len()) else {
            return false;
        };
        self.merge_into(i, &req.raw_ids);
        true
    }

    /// [`Self::try_merge`] specialised to a single-line, single-id
    /// request (the shape every `push_raw` offer has): identical
    /// comparator accounting, merge eligibility, and first-match choice,
    /// without materialising a `CoalescedRequest` — this sits on the
    /// per-offer hot path of the MSHR-based baseline.
    pub fn try_merge_line(&mut self, line_addr: u64, op: Op, raw_id: u64) -> bool {
        self.comparisons += self.entries.len() as u64;
        let Some(i) = self.covering_slot(line_addr, line_addr + CACHE_LINE_BYTES, op, 1) else {
            return false;
        };
        self.merge_into(i, &[raw_id]);
        true
    }

    /// Pure form of [`Self::try_merge`] for a single-line request: true
    /// iff an in-flight mergeable load entry covers the 64 B line at
    /// `line_addr` with a subentry slot to spare. Performs no comparator
    /// accounting and no mutation — callers *predicting* merge attempts
    /// (rather than performing them) account the failed scans through
    /// [`Self::charge_failed_merges`].
    pub fn can_merge_line(&self, line_addr: u64, op: Op) -> bool {
        self.covering_slot(line_addr, line_addr + CACHE_LINE_BYTES, op, 1).is_some()
    }

    /// Account `n` merge attempts that scanned the whole comparator bank
    /// and failed, exactly as `n` unsuccessful [`Self::try_merge`] calls
    /// against the current occupancy would have.
    pub fn charge_failed_merges(&mut self, n: u64) {
        self.comparisons += self.entries.len() as u64 * n;
    }

    /// Allocate an entry for `req` and return the dispatch to send to
    /// the memory controller. Panics when full (check [`Self::has_free`]).
    pub fn allocate(&mut self, req: CoalescedRequest) -> DispatchedRequest {
        self.allocate_with(req, true)
    }

    /// As [`Self::allocate`], with `mergeable = false` for requests
    /// (atomics) whose in-flight entries must not absorb later misses.
    pub fn allocate_with(&mut self, req: CoalescedRequest, mergeable: bool) -> DispatchedRequest {
        assert!(self.has_free(), "MSHR overflow — caller must respect backpressure");
        debug_assert_eq!(
            req.addr / PAGE_BYTES,
            (req.addr + req.bytes - 1) / PAGE_BYTES,
            "dispatched requests never span a page"
        );
        let dispatch_id = self.next_dispatch_id;
        self.next_dispatch_id += 1;
        let dispatched = DispatchedRequest {
            dispatch_id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            raw_count: req.raw_ids.len() as u32,
        };
        let entry = MshrEntry {
            dispatch_id,
            addr: req.addr,
            bytes: req.bytes,
            op: req.op,
            raw_ids: req.raw_ids,
            subentries: 0,
            mergeable,
        };
        self.spans.push(SlotSpan::of(&entry));
        self.entries.push(entry);
        self.generation = self.generation.wrapping_add(1);
        dispatched
    }

    /// Subentry budget per entry.
    #[inline]
    pub fn max_subentries(&self) -> usize {
        self.max_subentries
    }

    /// Structural invariants, polled by the lockstep oracle: occupancy
    /// within capacity, subentry counts within the 2-bit field's budget,
    /// and the span array in step with the entry array.
    pub fn integrity(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "MSHR file holds {} entries but capacity is {}",
                self.entries.len(),
                self.capacity
            ));
        }
        if self.spans.len() != self.entries.len() {
            return Err(format!(
                "span array has {} slots for {} entries",
                self.spans.len(),
                self.entries.len()
            ));
        }
        for (i, (e, s)) in self.entries.iter().zip(&self.spans).enumerate() {
            if e.subentries > self.max_subentries {
                return Err(format!(
                    "entry {i} ({:#x}) holds {} subentries, budget {}",
                    e.addr, e.subentries, self.max_subentries
                ));
            }
            if e.raw_ids.is_empty() {
                return Err(format!("entry {i} ({:#x}) satisfies no raw requests", e.addr));
            }
            if e.bytes == 0 || e.bytes % CACHE_LINE_BYTES != 0 || e.addr % CACHE_LINE_BYTES != 0 {
                return Err(format!(
                    "entry {i} is not line-granular: addr {:#x}, {} bytes",
                    e.addr, e.bytes
                ));
            }
            if e.addr / PAGE_BYTES != (e.addr + e.bytes - 1) / PAGE_BYTES {
                return Err(format!("entry {i} ({:#x}+{}B) spans a page", e.addr, e.bytes));
            }
            if s.dispatch_id != e.dispatch_id || s.addr != e.addr || s.end != e.addr + e.bytes {
                return Err(format!("slot {i} span out of step with its entry ({:#x})", e.addr));
            }
        }
        Ok(())
    }

    /// Release the entry for `dispatch_id`, returning the raw request
    /// ids it satisfied. Returns `None` for unknown ids.
    pub fn complete(&mut self, dispatch_id: u64) -> Option<Vec<u64>> {
        let idx = self.spans.iter().position(|s| s.dispatch_id == dispatch_id)?;
        self.spans.swap_remove(idx);
        let entry = self.entries.swap_remove(idx);
        self.generation = self.generation.wrapping_add(1);
        Some(entry.raw_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalesced(addr: u64, bytes: u64, op: Op, ids: &[u64]) -> CoalescedRequest {
        CoalescedRequest {
            addr,
            bytes,
            op,
            raw_ids: ids.to_vec(),
            assembled_cycle: 0,
            first_issue_cycle: 0,
        }
    }

    #[test]
    fn allocate_and_complete() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        let d = m.allocate(coalesced(0x1000, 128, Op::Load, &[1, 2]));
        assert_eq!(d.dispatch_id, 0);
        assert_eq!(d.bytes, 128);
        assert_eq!(m.occupancy(), 1);
        let ids = m.complete(0).unwrap();
        assert_eq!(ids, vec![1, 2]);
        assert!(m.is_empty());
        assert!(m.complete(0).is_none());
    }

    #[test]
    fn merge_into_covering_entry() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        m.allocate(coalesced(0x1000, 256, Op::Load, &[1])); // blocks N..N+3
        // A later 64B miss to block N+2 is already covered in flight.
        assert!(m.try_merge(&coalesced(0x1080, 64, Op::Load, &[9])));
        assert_eq!(m.merged_raw, 1);
        let ids = m.complete(0).unwrap();
        assert_eq!(ids, vec![1, 9]);
    }

    #[test]
    fn no_merge_outside_span_or_across_ops() {
        let mut m = AdaptiveMshrFile::new(4, 4);
        m.allocate(coalesced(0x1000, 128, Op::Load, &[1]));
        // Beyond the dispatched span: cannot expand in-flight requests.
        assert!(!m.try_merge(&coalesced(0x1080, 64, Op::Load, &[2])));
        // Stores never merge into load entries.
        assert!(!m.try_merge(&coalesced(0x1000, 64, Op::Store, &[3])));
        // Partially-covered spans don't merge either.
        assert!(!m.try_merge(&coalesced(0x1040, 128, Op::Load, &[4])));
    }

    #[test]
    fn subentry_capacity_blocks_merge() {
        let mut m = AdaptiveMshrFile::new(2, 2);
        m.allocate(coalesced(0x1000, 256, Op::Load, &[1]));
        assert!(m.try_merge(&coalesced(0x1000, 64, Op::Load, &[2])));
        assert!(m.try_merge(&coalesced(0x1040, 64, Op::Load, &[3])));
        // Subentry field exhausted.
        assert!(!m.try_merge(&coalesced(0x1080, 64, Op::Load, &[4])));
    }

    #[test]
    fn two_bit_block_index() {
        let e = MshrEntry {
            dispatch_id: 0,
            addr: 0x1000,
            bytes: 256,
            op: Op::Load,
            raw_ids: vec![],
            subentries: 0,
            mergeable: true,
        };
        assert_eq!(e.block_index_of(0x1000), 0);
        assert_eq!(e.block_index_of(0x1040), 1);
        assert_eq!(e.block_index_of(0x10C0), 3);
    }

    #[test]
    fn comparisons_count_occupied_entries() {
        let mut m = AdaptiveMshrFile::new(4, 4);
        m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        m.allocate(coalesced(0x2000, 64, Op::Load, &[2]));
        m.try_merge(&coalesced(0x3000, 64, Op::Load, &[3]));
        assert_eq!(m.comparisons, 2);
    }

    #[test]
    #[should_panic(expected = "backpressure")]
    fn overflow_panics() {
        let mut m = AdaptiveMshrFile::new(1, 4);
        m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        m.allocate(coalesced(0x2000, 64, Op::Load, &[2]));
    }

    #[test]
    fn unmergeable_entries_reject_covered_misses() {
        let mut m = AdaptiveMshrFile::new(2, 4);
        m.allocate_with(coalesced(0x1000, 64, Op::Load, &[1]), false);
        assert!(!m.try_merge(&coalesced(0x1000, 64, Op::Load, &[2])));
    }

    #[test]
    fn dispatch_ids_unique_and_monotonic() {
        let mut m = AdaptiveMshrFile::new(3, 4);
        let a = m.allocate(coalesced(0x1000, 64, Op::Load, &[1]));
        let b = m.allocate(coalesced(0x2000, 64, Op::Load, &[2]));
        m.complete(a.dispatch_id);
        let c = m.allocate(coalesced(0x3000, 64, Op::Load, &[3]));
        assert!(a.dispatch_id < b.dispatch_id && b.dispatch_id < c.dispatch_id);
    }

    use proptest::prelude::*;

    proptest! {
        /// Subentry overflow forces the page→line fallback without
        /// dropping a single pending block: line misses against an
        /// in-flight page request merge while the 2-bit subentry field
        /// has room, then fall back to line-granular allocations (or a
        /// bounded stall) once it overflows — and every raw id still
        /// comes back from exactly one completion.
        #[test]
        fn subentry_overflow_falls_back_to_lines_without_loss(
            blocks in prop::collection::vec(0u64..4, 1..24),
            budget in 1usize..5,
        ) {
            let mut m = AdaptiveMshrFile::new(4, budget);
            // One page-granular request in flight: blocks 0..4 of page 1.
            let page = m.allocate(coalesced(0x1000, 256, Op::Load, &[1000]));
            let mut expected: Vec<u64> = vec![1000];
            let mut outstanding = std::collections::VecDeque::from([page.dispatch_id]);
            let mut stalled: Vec<(u64, u64)> = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                let id = i as u64;
                let line = 0x1000 + b * CACHE_LINE_BYTES;
                expected.push(id);
                if m.try_merge_line(line, Op::Load, id) {
                    // Merged subentries never exceed the field's budget.
                    prop_assert!(m.integrity().is_ok(), "{:?}", m.integrity());
                    continue;
                }
                if m.has_free() {
                    let d = m.allocate(coalesced(line, CACHE_LINE_BYTES, Op::Load, &[id]));
                    outstanding.push_back(d.dispatch_id);
                } else {
                    stalled.push((line, id));
                }
                prop_assert!(m.integrity().is_ok(), "{:?}", m.integrity());
            }
            // Drain: completions free slots, stalled misses retry with
            // the same merge-else-allocate discipline the MAQ uses.
            let mut got: Vec<u64> = Vec::new();
            while !outstanding.is_empty() || !stalled.is_empty() {
                let mut still = Vec::new();
                for (line, id) in stalled.drain(..) {
                    if m.try_merge_line(line, Op::Load, id) {
                        continue;
                    }
                    if m.has_free() {
                        let d = m.allocate(coalesced(line, CACHE_LINE_BYTES, Op::Load, &[id]));
                        outstanding.push_back(d.dispatch_id);
                    } else {
                        still.push((line, id));
                    }
                }
                stalled = still;
                let d = outstanding.pop_front().expect("stalled misses imply in-flight entries");
                let ids = m.complete(d);
                prop_assert!(ids.is_some(), "outstanding dispatch {d} unknown at completion");
                got.extend(ids.unwrap());
                prop_assert!(m.complete(d).is_none(), "dispatch {d} completed twice");
                prop_assert!(m.integrity().is_ok(), "{:?}", m.integrity());
            }
            prop_assert!(m.is_empty());
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "conservation across the fallback path");
        }
    }
}
