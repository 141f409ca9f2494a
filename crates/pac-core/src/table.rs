//! The coalescing table — stage 3's look-up structure.
//!
//! Rather than repeatedly comparing adjacent bits of each block sequence,
//! the request assembler indexes a precomputed table that maps every
//! possible partitioned block-sequence layout directly to the coalesced
//! request(s) it implies (Sec 3.3.3). For HMC's 4-bit sequences the table
//! has 16 entries; PAC scales to HBM by widening the sequence to 16 bits
//! (Sec 4.1), which we realize as a 65 536-entry table — the hardware
//! equivalent of "appending four 16-entry coalescing tables together".
//!
//! A pattern may contain several disjoint runs of set bits (e.g. `1011`);
//! each maximal contiguous run becomes one coalesced request, so a
//! protocol whose maximum request spans fewer blocks than the chunk width
//! (HMC 1.0: 2 of 4) splits long runs.

use std::sync::Mutex;

/// One contiguous run of requested blocks within a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First set block, relative to the chunk (0-based).
    pub start: u8,
    /// Number of contiguous blocks (1..=chunk width).
    pub len: u8,
}

/// Decompose an arbitrary bit predicate over `width` positions into
/// maximal contiguous runs `(start, len)`, splitting any run longer
/// than `max_len`. Shared by the 4/16-bit coalescing tables and the
/// 256-bit fine-grained FLIT maps.
pub fn runs_by(set: impl Fn(u32) -> bool, width: u32, max_len: u32) -> Vec<(u32, u32)> {
    assert!(max_len >= 1);
    let mut runs = Vec::new();
    let mut i = 0u32;
    while i < width {
        if set(i) {
            let mut len = 1u32;
            while i + len < width && set(i + len) {
                len += 1;
            }
            let mut off = 0;
            while off < len {
                let piece = (len - off).min(max_len);
                runs.push((i + off, piece));
                off += piece;
            }
            i += len;
        } else {
            i += 1;
        }
    }
    runs
}

/// Decompose `pattern` (low `width` bits) into maximal contiguous runs,
/// splitting any run longer than `max_len`.
pub fn runs_of(pattern: u16, width: u32, max_len: u32) -> Vec<Run> {
    assert!(width <= 16);
    runs_by(|b| pattern >> b & 1 == 1, width, max_len)
        .into_iter()
        .map(|(start, len)| Run { start: start as u8, len: len as u8 })
        .collect()
}

/// The precomputed look-up table: pattern → runs. The entries are
/// immutable and shared by every table of the same geometry in the
/// process; only the look-up counter is per instance.
#[derive(Debug)]
pub struct CoalescingTable {
    entries: &'static Entries,
    width: u32,
    /// Look-ups served (1 pipeline cycle each, Sec 3.3.3).
    pub lookups: u64,
}

/// Every pattern's runs, concatenated: pattern `p`'s runs are
/// `runs[starts[p]..starts[p + 1]]`.
#[derive(Debug)]
struct Entries {
    starts: Vec<u32>,
    runs: Vec<Run>,
}

/// The entries for `(width, max_len)`, built on first use. HBM's 16-bit
/// table holds 65 536 patterns, so building it once per process rather
/// than once per coalescer (and per restore) matters.
fn shared_entries(width: u32, max_len: u32) -> &'static Entries {
    type Built = Vec<((u32, u32), &'static Entries)>;
    static BUILT: Mutex<Built> = Mutex::new(Vec::new());
    // A panic while building leaves the list as it was: still valid.
    let mut built = BUILT.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&(_, entries)) = built.iter().find(|(key, _)| *key == (width, max_len)) {
        return entries;
    }
    let mut starts = Vec::with_capacity((1 << width) + 1);
    let mut runs = Vec::new();
    starts.push(0);
    for p in 0u32..1 << width {
        runs.extend(runs_of(p as u16, width, max_len));
        starts.push(runs.len() as u32);
    }
    let entries: &'static Entries = Box::leak(Box::new(Entries { starts, runs }));
    built.push(((width, max_len), entries));
    entries
}

impl CoalescingTable {
    /// Build the table for `width`-bit block sequences where a single
    /// request may cover at most `max_len` blocks.
    pub fn new(width: u32, max_len: u32) -> Self {
        assert!((1..=16).contains(&width), "sequence width must be 1..=16");
        CoalescingTable { entries: shared_entries(width, max_len), width, lookups: 0 }
    }

    /// Table for a protocol's chunk geometry.
    pub fn for_protocol(protocol: pac_types::MemoryProtocol) -> Self {
        Self::new(protocol.chunk_blocks(), protocol.max_request_blocks())
    }

    /// Sequence width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of table entries (2^width).
    pub fn entries(&self) -> usize {
        self.entries.starts.len() - 1
    }

    /// Look up the runs for `pattern`.
    #[inline]
    pub fn lookup(&mut self, pattern: u16) -> &[Run] {
        self.lookups += 1;
        let Entries { starts, runs } = self.entries;
        let p = pattern as usize;
        &runs[starts[p] as usize..starts[p + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_types::MemoryProtocol;

    #[test]
    fn paper_example_0110_is_one_128b_request() {
        // Fig 5(b) stage 2/3: sequence 0110 -> blocks 1..3 -> one 128B.
        let runs = runs_of(0b0110, 4, 4);
        assert_eq!(runs, vec![Run { start: 1, len: 2 }]);
    }

    #[test]
    fn full_chunk_is_one_256b_request() {
        assert_eq!(runs_of(0b1111, 4, 4), vec![Run { start: 0, len: 4 }]);
    }

    #[test]
    fn disjoint_runs_split() {
        assert_eq!(
            runs_of(0b1011, 4, 4),
            vec![Run { start: 0, len: 2 }, Run { start: 3, len: 1 }]
        );
    }

    #[test]
    fn empty_pattern_no_runs() {
        assert!(runs_of(0, 4, 4).is_empty());
    }

    #[test]
    fn max_len_splits_long_runs() {
        // HMC 1.0 caps requests at 2 blocks.
        assert_eq!(
            runs_of(0b1111, 4, 2),
            vec![Run { start: 0, len: 2 }, Run { start: 2, len: 2 }]
        );
        assert_eq!(
            runs_of(0b0111, 4, 2),
            vec![Run { start: 0, len: 2 }, Run { start: 2, len: 1 }]
        );
    }

    #[test]
    fn every_pattern_round_trips() {
        // Runs must exactly reconstruct the pattern for all 16 entries.
        for p in 0u16..16 {
            let mut rebuilt = 0u16;
            for r in runs_of(p, 4, 4) {
                for b in r.start..r.start + r.len {
                    rebuilt |= 1 << b;
                }
            }
            assert_eq!(rebuilt, p, "pattern {p:04b}");
        }
    }

    #[test]
    fn hmc21_table_geometry() {
        let t = CoalescingTable::for_protocol(MemoryProtocol::Hmc21);
        assert_eq!(t.width(), 4);
        assert_eq!(t.entries(), 16);
    }

    #[test]
    fn hbm_table_geometry() {
        let t = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        assert_eq!(t.width(), 16);
        assert_eq!(t.entries(), 65536);
    }

    #[test]
    fn lookup_counts() {
        let mut t = CoalescingTable::new(4, 4);
        assert_eq!(t.lookup(0b0110), &[Run { start: 1, len: 2 }]);
        t.lookup(0b0001);
        assert_eq!(t.lookups, 2);
    }

    #[test]
    fn tables_of_one_geometry_share_entries_and_count_apart() {
        let mut a = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        let b = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        assert!(std::ptr::eq(a.entries, b.entries));
        assert!(!std::ptr::eq(a.entries, CoalescingTable::new(16, 4).entries));
        for p in 0..=u16::MAX {
            assert_eq!(a.lookup(p), runs_of(p, 16, 16).as_slice(), "pattern {p:016b}");
        }
        assert_eq!((a.lookups, b.lookups), (65_536, 0));
    }

    #[test]
    fn hbm_wide_run() {
        let mut t = CoalescingTable::for_protocol(MemoryProtocol::Hbm);
        // All 16 blocks set -> one 1KB request.
        let runs = t.lookup(0xFFFF).to_vec();
        assert_eq!(runs, vec![Run { start: 0, len: 16 }]);
    }
}
