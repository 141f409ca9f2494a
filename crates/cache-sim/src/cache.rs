//! A set-associative, write-back, write-allocate cache with LRU
//! replacement and a `Filling` line state for outstanding misses.

use pac_types::CacheConfig;

/// Per-line state, packed with the tag and dirty bit into one word so a
/// set scan touches a single contiguous array (`tags`): bits 1:0 hold
/// the state, bit 2 the dirty flag, bits 63:3 the tag. The all-zero word
/// is an invalid line (a legitimate tag 0 still encodes non-zero via its
/// state bits), so a fresh cache is just zeroed memory.
const ST_INVALID: u64 = 0;
/// Fill requested but the memory response has not arrived; accesses
/// hit the tag but must still be forwarded downstream.
const ST_FILLING: u64 = 1;
const ST_VALID: u64 = 2;
const ST_MASK: u64 = 3;
const DIRTY_BIT: u64 = 4;

/// Status of a line under [`SetAssocCache::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineStatus {
    Valid,
    Filling,
    Absent,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present and valid.
    Hit,
    /// Line absent: a fill was started. `writeback` carries the address
    /// of a dirty victim that must be written downstream.
    Miss { writeback: Option<u64> },
    /// Line present but its fill is still outstanding.
    MissPending,
}

/// A set-associative cache.
#[derive(Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: u64,
    ways: usize,
    /// Packed tag/state/dirty words, `ways` consecutive entries per set.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags` (touched only on hits and fills).
    lru: Vec<u64>,
    clock: u64,
    /// Accesses and misses (for hit-rate reporting).
    pub accesses: u64,
    pub misses: u64,
}

/// Set count and line count of a geometry, or `None` where
/// [`SetAssocCache::new`] refuses it.
fn geometry(cfg: &CacheConfig) -> Option<(u64, usize)> {
    let set_bytes = u64::from(cfg.ways).checked_mul(cfg.line_bytes).filter(|&b| b > 0)?;
    let sets = cfg.capacity_bytes / set_bytes;
    let lines = usize::try_from(sets).ok()?.checked_mul(cfg.ways as usize)?;
    sets.is_power_of_two().then_some((sets, lines))
}

// A checkpoint writes the lines as alternating runs: a count of
// never-filled lines (tag and LRU words both zero), then a count of
// lines each followed by its two words, until every line is covered. A
// cold cache costs one count; the set and way counts are rebuilt from
// `cfg`.
impl pac_types::Snapshot for SetAssocCache {
    fn save(&self, w: &mut pac_types::SnapWriter) {
        self.cfg.save(w);
        self.clock.save(w);
        self.accesses.save(w);
        self.misses.save(w);
        let cold = |i: usize| self.tags[i] == 0 && self.lru[i] == 0;
        let n = self.tags.len();
        let mut i = 0;
        while i < n {
            let start = i;
            while i < n && cold(i) {
                i += 1;
            }
            w.u64((i - start) as u64);
            if i == n {
                break;
            }
            let start = i;
            while i < n && !cold(i) {
                i += 1;
            }
            w.u64((i - start) as u64);
            for j in start..i {
                w.u64(self.tags[j]);
                w.u64(self.lru[j]);
            }
        }
    }

    fn load(r: &mut pac_types::SnapReader<'_>) -> Result<Self, pac_types::SnapError> {
        use pac_types::SnapError;
        let cfg = CacheConfig::load(r)?;
        let (sets, lines) =
            geometry(&cfg).ok_or_else(|| SnapError::Corrupt(format!("cache geometry {cfg:?}")))?;
        let clock = u64::load(r)?;
        let accesses = u64::load(r)?;
        let misses = u64::load(r)?;
        let zeroed = || {
            let mut v = Vec::new();
            v.try_reserve_exact(lines)
                .map_err(|_| SnapError::Corrupt(format!("{lines} cache lines do not fit")))?;
            v.resize(lines, 0u64);
            Ok::<_, SnapError>(v)
        };
        let (mut tags, mut lru) = (zeroed()?, zeroed()?);
        let overrun = |what: &str, run: usize, at: usize| {
            SnapError::Corrupt(format!("{what} run of {run} at line {at} overruns {lines} lines"))
        };
        let mut i = 0;
        while i < lines {
            let cold = usize::load(r)?;
            if cold > lines - i {
                return Err(overrun("cold", cold, i));
            }
            i += cold;
            if i == lines {
                break;
            }
            let live = usize::load(r)?;
            if live == 0 || live > lines - i {
                return Err(overrun("live", live, i));
            }
            for j in i..i + live {
                tags[j] = r.u64()?;
                lru[j] = r.u64()?;
            }
            i += live;
        }
        Ok(SetAssocCache { cfg, sets, ways: cfg.ways as usize, tags, lru, clock, accesses, misses })
    }
}

impl SetAssocCache {
    pub fn new(cfg: CacheConfig) -> Self {
        let (sets, lines) = geometry(&cfg).expect("set count must be a power of two");
        SetAssocCache {
            cfg,
            sets,
            ways: cfg.ways as usize,
            tags: vec![0; lines],
            lru: vec![0; lines],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) & (self.sets - 1)) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.sets
    }

    /// Access `addr`; `is_write` marks stores (sets dirty on hit/fill).
    /// `fill_state` is the state a started fill is installed with:
    /// [`ST_FILLING`] for timed caches, [`ST_VALID`] for the immediate
    /// mode, fusing what would otherwise be a second set scan in
    /// [`Self::fill_complete`].
    fn access_with(&mut self, addr: u64, is_write: bool, fill_state: u64) -> AccessOutcome {
        self.accesses += 1;
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        let sets = self.sets;
        let line_bytes = self.cfg.line_bytes;

        for i in base..base + self.ways {
            let e = self.tags[i];
            if e & ST_MASK != ST_INVALID && e >> 3 == tag {
                self.lru[i] = clock;
                if is_write {
                    self.tags[i] = e | DIRTY_BIT;
                }
                return if e & ST_MASK == ST_VALID {
                    AccessOutcome::Hit
                } else {
                    self.misses += 1;
                    AccessOutcome::MissPending
                };
            }
        }

        self.misses += 1;
        // Choose a victim: LRU among non-filling lines; never evict a
        // line whose fill is outstanding (its response must land).
        let mut victim: Option<usize> = None;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            let st = self.tags[i] & ST_MASK;
            if st == ST_FILLING {
                continue;
            }
            let key = if st == ST_INVALID { 0 } else { self.lru[i] };
            if key < best {
                best = key;
                victim = Some(i);
            }
        }
        let Some(i) = victim else {
            // Every way is mid-fill: treat as a pending miss on the set.
            return AccessOutcome::MissPending;
        };
        let v = self.tags[i];
        let writeback = (v & (ST_MASK | DIRTY_BIT) == ST_VALID | DIRTY_BIT)
            // Reconstruct the victim's address from its tag.
            .then(|| ((v >> 3) * sets + set as u64) * line_bytes);
        self.tags[i] = tag << 3 | (is_write as u64) << 2 | fill_state;
        self.lru[i] = clock;
        AccessOutcome::Miss { writeback }
    }

    /// Access `addr`; `is_write` marks stores (sets dirty on hit/fill).
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.access_with(addr, is_write, ST_FILLING)
    }

    /// Non-mutating line status probe.
    pub fn probe(&self, addr: u64) -> LineStatus {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for &e in &self.tags[set * self.ways..(set + 1) * self.ways] {
            if e & ST_MASK != ST_INVALID && e >> 3 == tag {
                return if e & ST_MASK == ST_VALID {
                    LineStatus::Valid
                } else {
                    LineStatus::Filling
                };
            }
        }
        LineStatus::Absent
    }

    /// Write `addr` if its line is resident (marks it dirty) and return
    /// `true`; return `false` without allocating otherwise. Used for
    /// write-backs arriving from an upper level (write-no-allocate).
    pub fn write_no_allocate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for i in base..base + self.ways {
            let e = self.tags[i];
            if e & ST_MASK != ST_INVALID && e >> 3 == tag {
                self.tags[i] = e | DIRTY_BIT;
                self.lru[i] = clock;
                return true;
            }
        }
        false
    }

    /// Mark the fill of `addr`'s line complete. No-op if the line was
    /// since invalidated.
    pub fn fill_complete(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for i in base..base + self.ways {
            let e = self.tags[i];
            if e & ST_MASK == ST_FILLING && e >> 3 == tag {
                self.tags[i] = (e & !ST_MASK) | ST_VALID;
                return;
            }
        }
    }

    /// Mark a line valid immediately (used by L1s, whose fill timing is
    /// subsumed by the downstream path).
    pub fn access_immediate(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.access_with(addr, is_write, ST_VALID)
    }

    /// Hit rate over the cache's lifetime.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }

    /// The line-aligned base of `addr` under this cache's geometry.
    pub fn line_of(&self, addr: u64) -> u64 {
        self.line_base(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64B = 512B.
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, false), AccessOutcome::Miss { writeback: None });
        assert_eq!(c.access(0x1000, false), AccessOutcome::MissPending);
        c.fill_complete(0x1000);
        assert_eq!(c.access(0x1000, false), AccessOutcome::Hit);
        assert_eq!(c.access(0x1008, false), AccessOutcome::Hit); // same line
    }

    #[test]
    fn immediate_mode_hits_directly() {
        let mut c = tiny();
        assert!(matches!(c.access_immediate(0x40, true), AccessOutcome::Miss { .. }));
        assert_eq!(c.access_immediate(0x40, false), AccessOutcome::Hit);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = tiny();
        // Set 0 holds lines whose (addr/64) % 4 == 0: 0x000, 0x100, 0x200.
        c.access_immediate(0x000, true); // dirty
        c.access_immediate(0x100, false);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access_immediate(0x000, false);
        match c.access_immediate(0x200, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, None), // 0x100 clean
            o => panic!("{o:?}"),
        }
        // Now evict dirty 0x000.
        match c.access_immediate(0x100, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn filling_lines_are_never_evicted() {
        let mut c = tiny();
        c.access(0x000, false); // filling
        c.access(0x100, false); // filling — set 0 full of fills
        assert_eq!(c.access(0x200, false), AccessOutcome::MissPending);
        c.fill_complete(0x000);
        assert!(matches!(c.access(0x200, false), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = tiny();
        let addr = 0x1040; // set 1
        c.access_immediate(addr, true);
        // Fill set 1's other way, then evict the dirty line.
        c.access_immediate(0x2040, false);
        c.access_immediate(0x3040, false); // evicts 0x1040
        // Re-access 0x1040: must miss (and evict 0x2040, clean).
        match c.access_immediate(0x1040, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, None),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn paper_l2_geometry_works() {
        let mut c = SetAssocCache::new(pac_types::CacheConfig::paper_l2());
        for i in 0..1000u64 {
            c.access_immediate(i * 64, false);
        }
        // All fit: 64KB working set in an 8MB cache.
        for i in 0..1000u64 {
            assert_eq!(c.access_immediate(i * 64, false), AccessOutcome::Hit);
        }
        assert!(c.hit_rate() > 0.49);
    }

    proptest::proptest! {
        /// Under arbitrary access sequences: a line reported Hit must
        /// have been accessed (and filled) before; probe() agrees with
        /// access outcomes; accesses never exceed misses.
        #[test]
        fn random_accesses_keep_invariants(
            seq in proptest::collection::vec((0u64..64, proptest::bool::ANY), 1..300)
        ) {
            let mut c = tiny();
            let mut filled = std::collections::HashSet::new();
            for (slot, write) in seq {
                let addr = slot * 64;
                match c.access(addr, write) {
                    AccessOutcome::Hit => {
                        proptest::prop_assert!(filled.contains(&addr), "hit before fill at {addr:#x}");
                        proptest::prop_assert_eq!(c.probe(addr), LineStatus::Valid);
                    }
                    AccessOutcome::Miss { .. } => {
                        c.fill_complete(addr);
                        filled.insert(addr);
                        proptest::prop_assert_eq!(c.probe(addr), LineStatus::Valid);
                    }
                    AccessOutcome::MissPending => {
                        proptest::prop_assert_eq!(c.probe(addr), LineStatus::Filling);
                    }
                }
            }
            proptest::prop_assert!(c.misses <= c.accesses);
        }

        /// Write-backs only ever surface for lines that were written.
        #[test]
        fn writebacks_only_for_dirty_lines(
            seq in proptest::collection::vec((0u64..32, proptest::bool::ANY), 1..300)
        ) {
            let mut c = tiny();
            let mut written = std::collections::HashSet::new();
            for (slot, write) in seq {
                let addr = slot * 64;
                if write {
                    written.insert(addr);
                }
                if let AccessOutcome::Miss { writeback: Some(victim) } =
                    c.access_immediate(addr, write)
                {
                    proptest::prop_assert!(written.contains(&victim),
                        "write-back of never-written line {victim:#x}");
                }
            }
        }
    }

    fn saved(c: &SetAssocCache) -> Vec<u8> {
        let mut w = pac_types::SnapWriter::new();
        pac_types::Snapshot::save(c, &mut w);
        w.into_bytes()
    }

    fn loaded(bytes: &[u8]) -> Result<SetAssocCache, pac_types::SnapError> {
        let mut r = pac_types::SnapReader::new(bytes);
        let c = <SetAssocCache as pac_types::Snapshot>::load(&mut r)?;
        r.finish()?;
        Ok(c)
    }

    /// Bytes of the header a saved cache starts with: its config and
    /// three counters.
    fn header(cfg: CacheConfig) -> Vec<u8> {
        let mut w = pac_types::SnapWriter::new();
        pac_types::Snapshot::save(&cfg, &mut w);
        for _ in 0..3 {
            w.u64(0);
        }
        w.into_bytes()
    }

    #[test]
    fn snapshot_runs_skip_cold_lines_and_roundtrip() {
        let cold = SetAssocCache::new(pac_types::CacheConfig::paper_l2());
        let bytes = saved(&cold);
        assert_eq!(bytes.len(), header(pac_types::CacheConfig::paper_l2()).len() + 8);

        let mut c = tiny();
        for addr in [0x000, 0x1c0, 0x040, 0x100] {
            c.access(addr, addr == 0x040);
        }
        c.fill_complete(0x040);
        let bytes = saved(&c);
        let back = loaded(&bytes).expect("clean runs load");
        assert_eq!((back.tags.clone(), back.lru.clone()), (c.tags.clone(), c.lru.clone()));
        assert_eq!((back.sets, back.ways, back.clock), (c.sets, c.ways, c.clock));
        assert_eq!(saved(&back), bytes);

        // A full cache costs its two words per line plus two counts.
        for slot in 0..8u64 {
            c.access_immediate(slot * 64 + 0x1000, false);
        }
        assert!(c.tags.iter().all(|&t| t != 0));
        assert_eq!(saved(&c).len(), header(c.cfg).len() + 16 + 16 * c.tags.len());
        assert_eq!(saved(&loaded(&saved(&c)).unwrap()), saved(&c));
    }

    #[test]
    fn corrupt_runs_and_geometries_are_refused() {
        use pac_types::SnapError;
        let cfg = tiny().cfg; // 8 lines
        let with = |cfg: CacheConfig, runs: &[u64]| {
            let mut bytes = header(cfg);
            for &v in runs {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            loaded(&bytes)
        };
        assert!(with(cfg, &[8]).is_ok());
        assert!(with(cfg, &[7, 1, 5, 6]).is_ok());
        let corrupt =
            |res: Result<SetAssocCache, SnapError>| matches!(res, Err(SnapError::Corrupt(_)));
        assert!(corrupt(with(cfg, &[9])), "cold run past the end");
        assert!(corrupt(with(cfg, &[6, 3])), "live run past the end");
        assert!(corrupt(with(cfg, &[u64::MAX])), "cold run overflows");
        assert!(corrupt(with(cfg, &[2, 0, 1])), "empty live run");
        assert_eq!(with(cfg, &[4]).err(), Some(SnapError::Eof), "runs end short");
        for bad in [
            CacheConfig { ways: 0, ..cfg },
            CacheConfig { line_bytes: 0, ..cfg },
            CacheConfig { capacity_bytes: 3 * 128, ..cfg },
            CacheConfig { capacity_bytes: 64, ..cfg },
            CacheConfig { ways: u32::MAX, line_bytes: u64::MAX, ..cfg },
        ] {
            assert!(corrupt(with(bad, &[8])), "{bad:?}");
        }
    }

    #[test]
    fn probe_reports_absent_for_untouched_lines() {
        let c = tiny();
        assert_eq!(c.probe(0x12340), LineStatus::Absent);
    }

    #[test]
    fn dirty_propagates_to_pending_lines() {
        let mut c = tiny();
        assert!(matches!(c.access(0x40, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.access(0x40, true), AccessOutcome::MissPending); // marks dirty
        c.fill_complete(0x40);
        // Evict it: two more lines in the same set.
        c.access_immediate(0x1040, false);
        match c.access_immediate(0x2040, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x40)),
            o => panic!("{o:?}"),
        }
    }
}
