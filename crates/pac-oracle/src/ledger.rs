//! The dispatch ledger's container: a map from dispatch id to record
//! that stores ids arriving in dispatch order in a plain vector.
//!
//! Every coalescer numbers its dispatches from 0 upward, so nearly all
//! ids land at the vector's end and cost neither hashing nor a stored
//! key. Any other id (PAC's atomics set bit 63; a reused or skipped id)
//! goes to an [`IdHash`] map. Lookups, replacement and iteration behave
//! exactly like a `HashMap<u64, V>` holding the same entries.

use pac_types::{IdHash, SnapError, SnapReader, SnapWriter, Snapshot};
use std::collections::HashMap;

/// See the module docs.
#[derive(Debug)]
pub(crate) struct IdLedger<V> {
    /// Records of ids `0..dense.len()`, indexed by id.
    dense: Vec<V>,
    /// Every other id. Invariant: each key is `>= dense.len()`.
    sparse: HashMap<u64, V, IdHash>,
}

impl<V> Default for IdLedger<V> {
    fn default() -> Self {
        IdLedger { dense: Vec::new(), sparse: HashMap::default() }
    }
}

impl<V> IdLedger<V> {
    /// Insert or replace `id`'s record, returning the one it replaced.
    pub(crate) fn insert(&mut self, id: u64, v: V) -> Option<V> {
        let next = self.dense.len() as u64;
        if id < next {
            return Some(std::mem::replace(&mut self.dense[id as usize], v));
        }
        if id == next && !self.sparse.contains_key(&id) {
            self.dense.push(v);
            return None;
        }
        self.sparse.insert(id, v)
    }

    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        if id < self.dense.len() as u64 {
            Some(&self.dense[id as usize])
        } else {
            self.sparse.get(&id)
        }
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        if id < self.dense.len() as u64 {
            Some(&mut self.dense[id as usize])
        } else {
            self.sparse.get_mut(&id)
        }
    }

    /// Every `(id, record)`: in-order ids ascending, then the rest in
    /// no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let dense = self.dense.iter().enumerate().map(|(i, v)| (i as u64, v));
        dense.chain(self.sparse.iter().map(|(&id, v)| (id, v)))
    }
}

// The vector's records, then the map's entries sorted by id: the bytes
// are a function of the ledger's history, which a resumed run repeats.
impl<V: Snapshot> Snapshot for IdLedger<V> {
    fn save(&self, w: &mut SnapWriter) {
        self.dense.save(w);
        self.sparse.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let dense = Vec::<V>::load(r)?;
        let sparse = HashMap::<u64, V, IdHash>::load(r)?;
        if let Some(id) = sparse.keys().copied().find(|&id| id < dense.len() as u64) {
            return Err(SnapError::Corrupt(format!(
                "ledger id {id} stored apart from the {} in-order ids",
                dense.len()
            )));
        }
        Ok(IdLedger { dense, sparse })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saved(l: &IdLedger<u64>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        l.save(&mut w);
        w.into_bytes()
    }

    fn sorted(l: &IdLedger<u64>) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = l.iter().map(|(id, &v)| (id, v)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn in_order_ids_stay_dense() {
        let mut l = IdLedger::default();
        for id in 0..100 {
            assert_eq!(l.insert(id, id * 2), None);
        }
        assert_eq!((l.dense.len(), l.sparse.len()), (100, 0));
        assert_eq!(l.insert(1 << 63, 7), None);
        assert_eq!(l.insert(40, 1), Some(80));
        assert_eq!(l.sparse.len(), 1);
    }

    #[test]
    fn an_id_held_apart_is_not_shadowed_when_the_vector_reaches_it() {
        let mut l = IdLedger::default();
        assert_eq!(l.insert(1, 10), None);
        assert_eq!(l.insert(0, 0), None);
        assert_eq!(l.insert(1, 11), Some(10), "id 1 reused");
        assert_eq!(l.get(1), Some(&11));
        assert_eq!(sorted(&l), vec![(0, 0), (1, 11)]);
    }

    #[test]
    fn bytes_roundtrip_and_a_split_key_is_corrupt() {
        let mut l = IdLedger::default();
        for id in [0, 1, 2, 5, 1 << 63, 3] {
            l.insert(id, id + 1);
        }
        let bytes = saved(&l);
        let mut r = SnapReader::new(&bytes);
        let back = IdLedger::<u64>::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(sorted(&back), sorted(&l));
        assert_eq!(saved(&back), bytes);

        // Dense ids {0, 1}, and id 1 again in the map: the same id twice.
        let mut w = SnapWriter::new();
        vec![10u64, 11].save(&mut w);
        let sparse: HashMap<u64, u64, IdHash> = [(1u64, 12u64), (9, 19)].into_iter().collect();
        sparse.save(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            IdLedger::<u64>::load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// The id a model-check step addresses: `class` picks the next id
    /// the map lacks (in order), one a little past it (out of order), a
    /// recently inserted one (repeated), a bit-63 (atomic) id, `u64::MAX`
    /// or any id.
    fn step_id(class: u8, small: u64, wide: u64, m: &HashMap<u64, u64>) -> u64 {
        let next = (0..).find(|id| !m.contains_key(id)).expect("a finite map lacks some id");
        match class {
            0 => next,
            1 => next + 1 + small % 3,
            2 => next.saturating_sub(1 + small % 3),
            3 => (1 << 63) | (small % 4),
            4 => u64::MAX,
            _ => wide,
        }
    }

    proptest::proptest! {
        /// Random insert/get/get_mut/iterate sequences, with in-order,
        /// out-of-order, repeated and bit-63 ids, give the same results
        /// as a `HashMap`, across snapshot round-trips too.
        #[test]
        fn behaves_like_a_hashmap(
            prefix in 0u64..40,
            steps in proptest::collection::vec(
                (0u8..8, 0u8..6, 0u64..48, proptest::any::<u64>(), proptest::any::<u64>()),
                1..200,
            ),
        ) {
            let mut l = IdLedger::default();
            let mut m: HashMap<u64, u64> = HashMap::new();
            for id in 0..prefix {
                proptest::prop_assert_eq!(l.insert(id, id), m.insert(id, id));
            }
            for (op, class, small, wide, v) in steps {
                let id = step_id(class, small, wide, &m);
                match op {
                    0..=3 => proptest::prop_assert_eq!(l.insert(id, v), m.insert(id, v)),
                    4 => proptest::prop_assert_eq!(l.get(id), m.get(&id)),
                    5 => {
                        let a = l.get_mut(id).map(|x| { *x ^= v; *x });
                        let b = m.get_mut(&id).map(|x| { *x ^= v; *x });
                        proptest::prop_assert_eq!(a, b);
                    }
                    6 => {
                        let mut want: Vec<(u64, u64)> = m.iter().map(|(&k, &x)| (k, x)).collect();
                        want.sort_unstable();
                        proptest::prop_assert_eq!(sorted(&l), want);
                    }
                    _ => {
                        let bytes = saved(&l);
                        l = IdLedger::load(&mut SnapReader::new(&bytes)).expect("saved ledger loads");
                        proptest::prop_assert_eq!(saved(&l), bytes);
                    }
                }
            }
            let mut want: Vec<(u64, u64)> = m.into_iter().collect();
            want.sort_unstable();
            proptest::prop_assert_eq!(sorted(&l), want);
        }
    }
}
