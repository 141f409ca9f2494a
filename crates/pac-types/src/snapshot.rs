//! Deterministic binary state snapshots.
//!
//! Long-running simulations die for reasons the recovery layer cannot
//! repair: the *process* is killed — OOM, preemption, power loss. This
//! module is the serialization substrate for checkpoint/resume: every
//! stateful component implements [`Snapshot`], writing its fields into a
//! [`SnapWriter`] and reconstructing itself from a [`SnapReader`], such
//! that a resumed run continues **bit-identically** to an uninterrupted
//! one (enforced by `tests/checkpoint_resume_equivalence.rs`).
//!
//! # Encoding
//!
//! Little-endian, fixed-width, no padding, no self-description: a
//! snapshot is only readable by the code revision that wrote it, which
//! is what the version field in the file frame enforces. Determinism
//! rules:
//!
//! * `f64` round-trips through [`f64::to_bits`] — bit-exact, NaN-safe.
//! * `HashMap` entries and `HashSet` members are serialized sorted by
//!   key, so identical state produces identical bytes regardless of
//!   hasher seeding or insertion history.
//! * `BinaryHeap` contents are serialized in sorted order and rebuilt
//!   with `BinaryHeap::from`. Every heap in the simulator orders by a
//!   total order (tuples of scalars), so pop order is a function of
//!   *content*, not of the heap's internal arrangement — rebuilding from
//!   sorted elements is behavior-identical.
//!
//! Components whose size follows capacity or history rather than live
//! state encode themselves so a checkpoint grows with what is live: the
//! caches write their lines as runs that skip never-filled lines, and
//! the oracle keeps records only of dispatches in flight and writes the
//! ids it has served or answered as bitset words, 64 ids to a word.
//!
//! # File frame
//!
//! [`frame`] wraps a payload for storage:
//!
//! ```text
//! magic "PACSNAP1" | version u32 | meta string | payload len u64 |
//! payload bytes    | frame_checksum of everything above (u64)
//! ```
//!
//! [`frame_checksum`] hashes 8-byte words rather than bytes, about five
//! times faster than byte-wise FNV-1a on checkpoint-sized frames. The
//! `meta` string is a caller-chosen identity line (workload, seed,
//! coalescer, access budget); [`unframe`] returns it so the resuming
//! side can refuse a checkpoint taken under a different experiment.

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;

/// Magic bytes opening every checkpoint file.
pub const SNAP_MAGIC: [u8; 8] = *b"PACSNAP1";

/// Current snapshot format version. Bump on any change to any
/// component's field set or encoding — old checkpoints are then refused
/// with [`SnapError::BadVersion`] instead of being misread.
/// v3: `PseudoChannel` gained per-cause issue-stall counters.
/// v4: `Hmc`/`Hbm` gained optional hardware-RAS state (link retry
/// buffers, token credits, ECC/scrub/spare maps).
/// v5: caches write their lines as runs, the oracle's dispatch ledger
/// is id-indexed and its served ledger a set of ids, and the frame
/// checksum is [`frame_checksum`].
/// v6: the oracle keeps only live dispatch records, and its served raw
/// ids and answered dispatch ids are bitset words keyed by `id >> 6`.
pub const SNAP_VERSION: u32 = 6;

/// Why a snapshot could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value did.
    Eof,
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The [`frame_checksum`] does not match the file contents.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file contents.
        computed: u64,
    },
    /// An enum discriminant or invariant-carrying field held a value
    /// this build cannot interpret.
    Corrupt(String),
    /// The snapshot was taken under a different configuration or
    /// experiment identity than the one resuming.
    ConfigMismatch(String),
    /// The component refuses to snapshot in its current mode (e.g. an
    /// MMU-enabled system).
    Unsupported(String),
    /// Bytes remained after the last field was read — a field-set
    /// mismatch the version check failed to catch.
    TrailingBytes(usize),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated: stream ended mid-value"),
            SnapError::BadMagic => write!(f, "not a PAC snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapError::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::ConfigMismatch(what) => {
                write!(f, "snapshot configuration mismatch: {what}")
            }
            SnapError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for SnapError {}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a continued from state `h`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit checksum (dependency-free, deterministic). The
/// journal's line checksum and the campaign spec hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS, bytes)
}

/// Checkpoint frame checksum: FNV-1a's basis and prime over
/// little-endian 8-byte words, folding `h ^= h >> 29` after each
/// multiply, then byte-wise FNV-1a over the tail. The fold matters: a
/// multiply only carries bits upward, so in a plain word-wise FNV a
/// flipped bit 63 stays in bit 63 and two such flips cancel. Every
/// step is a bijection of the state, so any change confined to one
/// word is always detected.
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_BASIS;
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
        h = h.wrapping_mul(FNV_PRIME);
        h ^= h >> 29;
    }
    fnv1a_from(h, words.remainder())
}

/// Append-only byte sink components write their state into.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Eof)?;
        if end > self.buf.len() {
            return Err(SnapError::Eof);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte has been consumed — the last line of
    /// defense against a silently mismatched field set.
    pub fn finish(self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }
}

/// A component that can serialize its complete state and reconstruct
/// itself from it.
///
/// The contract every implementation must honour: for any reachable
/// state `s`, `load(save(s))` yields a state whose future behavior is
/// **bit-identical** to `s`'s — same outputs, same statistics, same
/// cycle counts, forever. Fields that are provably empty or disabled at
/// every legal checkpoint boundary (per-tick scratch buffers, disabled
/// tracer handles) may be reset to their empty values on load.
pub trait Snapshot: Sized {
    /// Append this component's state to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Reconstruct the component from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implement [`Snapshot`] for a struct by serializing the listed fields
/// in order. Invoke inside the struct's defining module so private
/// fields are reachable. An optional `skip { field: expr, ... }` block
/// names fields that are *not* serialized and are instead rebuilt with
/// the given expression on load — legal only for state that is provably
/// redundant or empty at every checkpoint boundary. A generic struct
/// names its parameters first: `snapshot_fields!(impl<T: Bound> S<T> { .. })`.
#[macro_export]
macro_rules! snapshot_fields {
    (impl<$($gen:ident: $bound:path),*> $ty:ty { $($field:ident),+ $(,)? }
        skip { $($dfield:ident: $dval:expr),* $(,)? }) => {
        impl<$($gen: $bound),*> $crate::snapshot::Snapshot for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $( $crate::snapshot::Snapshot::save(&self.$field, w); )+
            }
            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapError> {
                Ok(Self {
                    $( $field: $crate::snapshot::Snapshot::load(r)?, )+
                    $( $dfield: $dval, )*
                })
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? } $(skip { $($dfield:ident: $dval:expr),* $(,)? })?) => {
        $crate::snapshot_fields!(impl<> $ty { $($field),+ } skip { $($($dfield: $dval),*)? });
    };
}

// ---- primitive impls ----

macro_rules! snap_le_int {
    ($($ty:ty),+) => {$(
        impl Snapshot for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.bytes(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(<$ty>::from_le_bytes(
                    r.take(std::mem::size_of::<$ty>())?.try_into().expect("sized"),
                ))
            }
        }
    )+};
}

snap_le_int!(u8, u16, u32, u64, i64);

impl Snapshot for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.u64()?)
            .map_err(|_| SnapError::Corrupt("usize overflows this platform".into()))
    }
}

impl Snapshot for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(u8::from(*self));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError::Corrupt(format!("bool byte {v}"))),
        }
    }
}

impl Snapshot for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        w.bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::load(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("string is not UTF-8".into()))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            v => Err(SnapError::Corrupt(format!("Option tag {v}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::load(r)?;
        // Guard the pre-allocation: a corrupt length must not OOM.
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::load(r)?.into())
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| SnapError::Corrupt("array length".into()))
    }
}

impl<T: Snapshot> Snapshot for std::cmp::Reverse<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(std::cmp::Reverse(T::load(r)?))
    }
}

macro_rules! snap_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snapshot),+> Snapshot for ($($name,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $( self.$idx.save(w); )+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($( $name::load(r)?, )+))
            }
        }
    };
}

snap_tuple!(A: 0, B: 1);
snap_tuple!(A: 0, B: 1, C: 2);
snap_tuple!(A: 0, B: 1, C: 2, D: 3);
snap_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
snap_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Maps serialize sorted by key so identical state yields identical
/// bytes under any hasher seed or insertion order.
impl<K, V, S> Snapshot for HashMap<K, V, S>
where
    K: Snapshot + Ord + std::hash::Hash + Eq,
    V: Snapshot,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::load(r)?;
        let mut out = HashMap::with_capacity_and_hasher(
            len.min(r.remaining().max(1)),
            S::default(),
        );
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Sets serialize their members ascending, like map keys.
impl<K, S> Snapshot for HashSet<K, S>
where
    K: Snapshot + Ord + std::hash::Hash + Eq,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_unstable();
        for k in keys {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::load(r)?;
        let mut out =
            HashSet::with_capacity_and_hasher(len.min(r.remaining().max(1)), S::default());
        for _ in 0..len {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

/// Heaps serialize their elements in ascending order; rebuild with
/// `BinaryHeap::from`. Sound because every heap in the simulator orders
/// elements by a total order, so the pop sequence is determined by
/// content alone.
impl<T: Snapshot + Ord> Snapshot for BinaryHeap<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        for item in items {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(BinaryHeap::from(Vec::<T>::load(r)?))
    }
}

// ---- pac-types component impls ----

use crate::config::{
    AddressInterleave, BackendKind, CacheConfig, CoalescerConfig, HbmDeviceConfig,
    HmcDeviceConfig, SimConfig,
};
use crate::fault::{FaultClass, FaultPlan};
use crate::protocol::MemoryProtocol;
use crate::recovery::RecoveryConfig;
use crate::request::{CoalescedRequest, MemRequest, Op, RequestKind};

impl Snapshot for Op {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            Op::Load => 0,
            Op::Store => 1,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Op::Load),
            1 => Ok(Op::Store),
            v => Err(SnapError::Corrupt(format!("Op tag {v}"))),
        }
    }
}

impl Snapshot for RequestKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            RequestKind::Miss => 0,
            RequestKind::WriteBack => 1,
            RequestKind::Atomic => 2,
            RequestKind::Fence => 3,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(RequestKind::Miss),
            1 => Ok(RequestKind::WriteBack),
            2 => Ok(RequestKind::Atomic),
            3 => Ok(RequestKind::Fence),
            v => Err(SnapError::Corrupt(format!("RequestKind tag {v}"))),
        }
    }
}

impl Snapshot for MemoryProtocol {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            MemoryProtocol::Hmc10 => 0,
            MemoryProtocol::Hmc21 => 1,
            MemoryProtocol::Hbm => 2,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(MemoryProtocol::Hmc10),
            1 => Ok(MemoryProtocol::Hmc21),
            2 => Ok(MemoryProtocol::Hbm),
            v => Err(SnapError::Corrupt(format!("MemoryProtocol tag {v}"))),
        }
    }
}

impl Snapshot for FaultClass {
    fn save(&self, w: &mut SnapWriter) {
        let idx = FaultClass::ALL.iter().position(|c| c == self).expect("listed") as u8;
        w.u8(idx);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let idx = r.u8()? as usize;
        FaultClass::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapError::Corrupt(format!("FaultClass tag {idx}")))
    }
}

snapshot_fields!(MemRequest { id, addr, data_bytes, op, kind, core, issue_cycle });
snapshot_fields!(CoalescedRequest { addr, bytes, op, raw_ids, assembled_cycle, first_issue_cycle });
snapshot_fields!(CacheConfig { capacity_bytes, ways, line_bytes, hit_latency });
snapshot_fields!(CoalescerConfig { streams, timeout_cycles, maq_entries, mshrs, mshr_subentries, protocol });
impl Snapshot for BackendKind {
    fn save(&self, w: &mut SnapWriter) {
        let idx = BackendKind::ALL.iter().position(|k| k == self).expect("listed") as u8;
        w.u8(idx);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let idx = r.u8()? as usize;
        BackendKind::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapError::Corrupt(format!("BackendKind tag {idx}")))
    }
}

impl Snapshot for AddressInterleave {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            AddressInterleave::Stacked => 0,
            AddressInterleave::Flat => 1,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(AddressInterleave::Stacked),
            1 => Ok(AddressInterleave::Flat),
            v => Err(SnapError::Corrupt(format!("AddressInterleave tag {v}"))),
        }
    }
}

snapshot_fields!(FaultPlan { class, seed, rate_per_1024, delay_cycles, max_faults, target_unit });
snapshot_fields!(RecoveryConfig { enabled, watchdog_timeout, max_retries, backoff_cap });
snapshot_fields!(HmcDeviceConfig {
    links,
    vaults,
    banks_per_vault,
    capacity_bytes,
    row_bytes,
    link_cycles_per_flit,
    xbar_local_cycles,
    xbar_remote_cycles,
    t_activate,
    t_access_per_32b,
    t_precharge,
    t_refresh_interval,
    t_refresh_duration,
    e_vault_rqst_slot,
    e_vault_rsp_slot,
    e_vault_ctrl,
    e_link_local_route,
    e_link_remote_route,
    e_bank_act_pre,
    e_bank_access_32b,
});
snapshot_fields!(HbmDeviceConfig {
    channels,
    bank_groups,
    banks_per_group,
    capacity_bytes,
    row_bytes,
    interleave,
    bus_cycles_per_flit,
    ctrl_cycles,
    t_activate,
    t_access_per_32b,
    t_precharge,
    t_ccd_long,
    t_faw,
    faw_window_activates,
    t_refresh_interval,
    t_refresh_duration,
    e_ctrl,
    e_bus_route,
    e_bank_act_pre,
    e_bank_access_32b,
    e_rqst_slot,
    e_rsp_slot,
});
snapshot_fields!(SimConfig {
    cores,
    l1,
    l2,
    coalescer,
    backend,
    hmc,
    hbm,
    core_outstanding,
    prefetch_degree,
    prefetch_max_outstanding,
});

// ---- file framing ----

/// Wrap a payload into the on-disk checkpoint format (see module docs).
pub fn frame(meta: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.bytes(&SNAP_MAGIC);
    w.u32(SNAP_VERSION);
    meta.to_string().save(&mut w);
    w.u64(payload.len() as u64);
    w.bytes(payload);
    let checksum = frame_checksum(&w.buf);
    w.u64(checksum);
    w.into_bytes()
}

/// Validate magic, version, and checksum; return the meta string and
/// the payload slice.
pub fn unframe(bytes: &[u8]) -> Result<(String, &[u8]), SnapError> {
    if bytes.len() < SNAP_MAGIC.len() + 4 + 8 {
        return Err(SnapError::Eof);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = frame_checksum(body);
    if stored != computed {
        return Err(SnapError::Checksum { stored, computed });
    }
    let mut r = SnapReader::new(body);
    if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion { found: version, expected: SNAP_VERSION });
    }
    let meta = String::load(&mut r)?;
    let len = usize::load(&mut r)?;
    let payload = r.take(len)?;
    r.finish()?;
    Ok((meta, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdHash;

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::load(&mut r).expect("load");
        assert_eq!(&back, v);
        r.finish().expect("all bytes consumed");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&(-7i64));
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&3.25f64);
        roundtrip(&String::from("checkpoint"));
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&VecDeque::from(vec![9u32, 8]));
        roundtrip(&[1u64, 2, 3]);
        roundtrip(&(1u64, true, 3u8));
        roundtrip(&std::cmp::Reverse(5u64));
    }

    #[test]
    fn nan_bits_are_preserved() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = SnapWriter::new();
        nan.save(&mut w);
        let bytes = w.into_bytes();
        let back = f64::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn hashmap_bytes_are_insertion_order_independent() {
        let mut a: HashMap<u64, u64, IdHash> = HashMap::default();
        let mut b: HashMap<u64, u64, IdHash> = HashMap::default();
        for i in 0..100u64 {
            a.insert(i, i * 3);
        }
        for i in (0..100u64).rev() {
            b.insert(i, i * 3);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
        roundtrip(&a);
    }

    #[test]
    fn binary_heap_pop_order_survives() {
        use std::cmp::Reverse;
        let mut h: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for &(a, b) in &[(5, 1), (2, 9), (5, 0), (1, 1)] {
            h.push(Reverse((a, b)));
        }
        let mut w = SnapWriter::new();
        h.save(&mut w);
        let bytes = w.into_bytes();
        let mut back: BinaryHeap<Reverse<(u64, u64)>> =
            Snapshot::load(&mut SnapReader::new(&bytes)).unwrap();
        let mut popped = Vec::new();
        while let Some(Reverse(v)) = back.pop() {
            popped.push(v);
        }
        assert_eq!(popped, vec![(1, 1), (2, 9), (5, 0), (5, 1)]);
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(&Op::Store);
        roundtrip(&RequestKind::Fence);
        roundtrip(&MemoryProtocol::Hbm);
        roundtrip(&FaultClass::DelayResponse);
        roundtrip(&MemRequest::miss(7, 0x9040, Op::Load, 3, 99));
        roundtrip(&CoalescedRequest {
            addr: 0x9040,
            bytes: 128,
            op: Op::Store,
            raw_ids: vec![1, 2, 3],
            assembled_cycle: 10,
            first_issue_cycle: 2,
        });
        roundtrip(&SimConfig::default());
        roundtrip(&SimConfig::for_backend(BackendKind::Hbm));
        roundtrip(&BackendKind::Hbm);
        roundtrip(&AddressInterleave::Flat);
        roundtrip(&FaultPlan::new(FaultClass::CorruptAddr, 11));
        roundtrip(&FaultPlan {
            target_unit: Some(5),
            ..FaultPlan::new(FaultClass::DropResponse, 3)
        });
        roundtrip(&RecoveryConfig::enabled());
    }

    #[test]
    fn frame_roundtrips_and_detects_tampering() {
        let payload = b"state bytes".to_vec();
        let framed = frame("stream/pac/seed7", &payload);
        let (meta, body) = unframe(&framed).expect("clean frame");
        assert_eq!(meta, "stream/pac/seed7");
        assert_eq!(body, payload.as_slice());

        let mut tampered = framed.clone();
        tampered[12] ^= 0x40;
        assert!(matches!(unframe(&tampered), Err(SnapError::Checksum { .. })));

        let mut truncated = framed.clone();
        truncated.truncate(10);
        assert_eq!(unframe(&truncated), Err(SnapError::Eof));
    }

    /// Recompute a frame's trailing checksum after editing its body.
    fn reseal(framed: &mut [u8]) {
        let n = framed.len();
        let sum = frame_checksum(&framed[..n - 8]);
        framed[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn frame_rejects_wrong_magic_and_version() {
        let framed = frame("m", b"p");
        let mut wrong_magic = framed.clone();
        wrong_magic[0] = b'X';
        // Re-seal the checksum so only the magic is wrong.
        reseal(&mut wrong_magic);
        assert_eq!(unframe(&wrong_magic), Err(SnapError::BadMagic));

        let mut wrong_version = framed;
        wrong_version[8] = 0xEE;
        reseal(&mut wrong_version);
        assert!(matches!(unframe(&wrong_version), Err(SnapError::BadVersion { found, .. }) if found != SNAP_VERSION));
    }

    /// A multiply carries bits only upward, so plain word-wise FNV keeps
    /// a flipped bit 63 in bit 63 of the state and a second flip in
    /// another word cancels it. The frame checksum's fold must not.
    #[test]
    fn frame_detects_bit_63_flipped_in_two_words() {
        let framed = frame("pair", &[0x5Au8; 64]);
        let mut flipped = framed.clone();
        flipped[16 + 7] ^= 0x80;
        flipped[40 + 7] ^= 0x80;
        assert!(matches!(unframe(&flipped), Err(SnapError::Checksum { .. })));

        let plain_word_fnv = |bytes: &[u8]| {
            bytes.chunks_exact(8).fold(FNV_BASIS, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME)
            })
        };
        let n = framed.len() / 8 * 8;
        assert_eq!(plain_word_fnv(&framed[..n]), plain_word_fnv(&flipped[..n]));
    }

    #[test]
    fn frame_checksum_covers_every_tail_length() {
        // Word loop plus byte-wise tail: a flip in any position of any
        // length from 0 to 2 words is caught, and a lone tail equals
        // byte-wise FNV-1a.
        let data: Vec<u8> = (0..17u8).map(|b| b.wrapping_mul(37)).collect();
        assert_eq!(frame_checksum(&data[..7]), fnv1a64(&data[..7]));
        for len in 0..=data.len() {
            let sum = frame_checksum(&data[..len]);
            for i in 0..len {
                let mut bad = data[..len].to_vec();
                bad[i] ^= 1;
                assert_ne!(frame_checksum(&bad), sum, "flip at {i} of {len}");
            }
        }
    }

    #[test]
    fn hashset_bytes_are_sorted_and_roundtrip() {
        let a: HashSet<u64, IdHash> = [9u64, 1 << 63, 3, 0].into_iter().collect();
        let b: HashSet<u64, IdHash> = [0u64, 3, 1 << 63, 9].into_iter().collect();
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.save(&mut wa);
        b.save(&mut wb);
        let bytes = wa.into_bytes();
        assert_eq!(bytes, wb.into_bytes());
        assert_eq!(&bytes[8..16], &0u64.to_le_bytes());
        roundtrip(&a);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut w = SnapWriter::new();
        42u64.save(&mut w);
        0u8.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = u64::load(&mut r).unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }
}
