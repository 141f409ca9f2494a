//! Thread-count resolution and deterministic seed derivation for the
//! matrix fan-out.
//!
//! `pac-bench`'s `ParallelRunner` schedules whole matrix cells across a
//! worker pool; each cell is one serial simulation. [`thread_count`]
//! resolves how many workers to use from an explicit `--threads N`, the
//! `PAC_THREADS` environment variable, or the host's available
//! parallelism, in that order.
//!
//! Determinism never depends on the worker count: cell seeds come from
//! [`derive_seed`], a pure function of the campaign master seed and the
//! cell index, so cell N sees the same seed whether it runs first on one
//! thread or last on sixteen.

/// Advance a splitmix64 state and return the next value. This is the
/// repo-wide deterministic RNG (the chaos soak and the proptest shim use
/// the identical constants); it passes through every bit of state, so
/// distinct seeds give independent streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for work item `index` from a campaign `master` seed:
/// a pure function, independent of scheduling order and thread count.
/// Two splitmix64 rounds fully decorrelate adjacent indices.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut s = master ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let first = splitmix64(&mut s);
    let mut s2 = first;
    splitmix64(&mut s2)
}

/// Resolve the matrix fan-out worker count: an explicit request (e.g.
/// `--threads N`) wins, then `PAC_THREADS`, then the host's available
/// parallelism. `Some(0)`/`PAC_THREADS=0` mean "auto" as well. Always
/// at least 1.
pub fn thread_count(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(v) = std::env::var("PAC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

/// The host's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_pure_and_decorrelated() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // Adjacent indices must not produce near-identical seeds.
        let a = derive_seed(0x9AC_5EED, 41);
        let b = derive_seed(0x9AC_5EED, 42);
        assert!((a ^ b).count_ones() > 8, "{a:#x} vs {b:#x}");
    }

    #[test]
    fn splitmix_stream_matches_reference() {
        // First two outputs from seed 0 of the canonical splitmix64.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(thread_count(Some(3)), 3);
        assert!(thread_count(None) >= 1);
        assert!(available_threads() >= 1);
    }
}
