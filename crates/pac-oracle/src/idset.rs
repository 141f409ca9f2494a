//! The oracle's id ledgers: a set of `u64` ids stored 64 to a word.
//!
//! Bit `id & 63` of the word keyed `id >> 6` is set when `id` is a
//! member. Every coalescer numbers its requests and dispatches from 0
//! upward, so a run's ids fill whole words and a set costs about one bit
//! per id. The words live in an [`IdHash`] map rather than a vector
//! indexed by key because PAC's atomic dispatch ids set bit 63.

use pac_types::{IdHash, SnapError, SnapReader, SnapWriter, Snapshot};
use std::collections::HashMap;

/// See the module docs. Words are never zero.
#[derive(Debug, Default)]
pub(crate) struct IdSet {
    words: HashMap<u64, u64, IdHash>,
    /// Members, i.e. the set bits of `words`.
    len: u64,
}

impl IdSet {
    /// Add `id`; true when it was not a member yet.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        let word = self.words.entry(id >> 6).or_insert(0);
        let bit = 1 << (id & 63);
        let new = *word & bit == 0;
        *word |= bit;
        self.len += u64::from(new);
        new
    }

    pub(crate) fn contains(&self, id: u64) -> bool {
        self.words.get(&(id >> 6)).is_some_and(|word| (word >> (id & 63)) & 1 == 1)
    }

    /// Number of members.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

// The words sorted by key: identical sets save identical bytes. `len`
// is not stored; `load` counts it from the words.
impl Snapshot for IdSet {
    fn save(&self, w: &mut SnapWriter) {
        let mut words: Vec<(u64, u64)> = self.words.iter().map(|(&k, &v)| (k, v)).collect();
        words.sort_unstable();
        words.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let words = Vec::<(u64, u64)>::load(r)?;
        let mut set =
            IdSet { words: HashMap::with_capacity_and_hasher(words.len(), IdHash), len: 0 };
        let mut prev = None;
        for (key, word) in words {
            if key > u64::MAX >> 6 {
                return Err(SnapError::Corrupt(format!(
                    "id-set word key {key:#x} past the id range"
                )));
            }
            if word == 0 {
                return Err(SnapError::Corrupt(format!("id-set word {key:#x} is empty")));
            }
            if prev.is_some_and(|p| key <= p) {
                return Err(SnapError::Corrupt(format!("id-set word {key:#x} out of order")));
            }
            prev = Some(key);
            set.len += u64::from(word.count_ones());
            set.words.insert(key, word);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn saved(s: &IdSet) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.save(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<IdSet, SnapError> {
        let mut r = SnapReader::new(bytes);
        let s = IdSet::load(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    fn words(pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        pairs.to_vec().save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn in_order_ids_share_words() {
        let mut s = IdSet::default();
        for id in 0..200 {
            assert!(s.insert(id));
        }
        assert!(!s.insert(63), "a member is not new");
        assert!(s.insert(1 << 63) && s.insert(u64::MAX));
        assert_eq!((s.len(), s.words.len()), (202, 6));
        assert!(s.contains(199) && !s.contains(200) && s.contains(u64::MAX));
        assert!(!s.contains((1 << 63) | 1));
    }

    #[test]
    fn bytes_roundtrip_and_corrupt_words_are_refused() {
        let mut s = IdSet::default();
        for id in [0, 1, 64, 5, 1 << 63, u64::MAX, 1000] {
            s.insert(id);
        }
        let bytes = saved(&s);
        let back = load(&bytes).unwrap();
        assert_eq!(back.len(), 7);
        assert_eq!(saved(&back), bytes);

        for (pairs, what) in [
            (&[(0, 1), (0, 2)][..], "a key twice"),
            (&[(3, 1), (1, 2)][..], "keys descending"),
            (&[(0, 1), (4, 0)][..], "an empty word"),
            (&[(u64::MAX, 1)][..], "a key past the id range"),
        ] {
            assert!(matches!(load(&words(pairs)), Err(SnapError::Corrupt(_))), "{what}");
        }
        assert_eq!(load(&bytes[..bytes.len() - 1]).err(), Some(SnapError::Eof));
        let mut huge = SnapWriter::new();
        huge.u64(u64::MAX);
        assert_eq!(load(&huge.into_bytes()).err(), Some(SnapError::Eof));
    }

    /// The id a model-check step addresses: `class` picks the smallest
    /// id the set lacks (in order), one a little past it (out of order),
    /// one a little below it (repeated), a bit-63 (atomic) id,
    /// `u64::MAX` or any id.
    fn step_id(class: u8, small: u64, wide: u64, m: &HashSet<u64>) -> u64 {
        let next = (0..).find(|id| !m.contains(id)).expect("a finite set lacks some id");
        match class {
            0 => next,
            1 => next + 1 + small % 70,
            2 => next.saturating_sub(1 + small % 70),
            3 => (1 << 63) | (small % 130),
            4 => u64::MAX - small % 2,
            _ => wide,
        }
    }

    proptest::proptest! {
        /// Random insert/contains sequences, with in-order,
        /// out-of-order, repeated, bit-63 and `u64::MAX` ids, give the
        /// same answers and length as a `HashSet`, and every snapshot
        /// round trip re-saves identical bytes.
        #[test]
        fn behaves_like_a_hash_set(
            prefix in 0u64..150,
            steps in proptest::collection::vec(
                (0u8..8, 0u8..6, 0u64..200, proptest::any::<u64>()),
                1..300,
            ),
        ) {
            let mut s = IdSet::default();
            let mut m: HashSet<u64> = HashSet::new();
            for id in 0..prefix {
                proptest::prop_assert_eq!(s.insert(id), m.insert(id));
            }
            for (op, class, small, wide) in steps {
                let id = step_id(class, small, wide, &m);
                match op {
                    0..=3 => proptest::prop_assert_eq!(s.insert(id), m.insert(id)),
                    4..=6 => proptest::prop_assert_eq!(s.contains(id), m.contains(&id)),
                    _ => {
                        let bytes = saved(&s);
                        s = load(&bytes).expect("a saved set loads");
                        proptest::prop_assert_eq!(saved(&s), bytes);
                    }
                }
                proptest::prop_assert_eq!(s.len(), m.len() as u64);
            }
            for &id in &m {
                proptest::prop_assert!(s.contains(id));
            }
        }
    }
}
