//! Synthetic memory-access streams modelling the paper's 14 benchmarks.
//!
//! The original evaluation compiled GS, HPCG, SSCAv2, STREAM, BOTS
//! (SORT, SPARSELU), NAS-PB (BT, CG, EP, FT, LU, MG, SP), and GAPBS
//! (BFS) for RISC-V and traced their memory requests with an extended
//! Spike. What PAC actually observes is the *LLC-miss address stream*:
//! its page-level adjacency, read/write mix, inter-core sharing, and
//! issue density. Each generator here reproduces those properties for
//! its benchmark from the benchmark's published access-pattern
//! structure; see DESIGN.md for the substitution rationale.
//!
//! Every generator is deterministic given `(bench, process, core, seed)`
//! and infinite — the simulator caps the access count per run.
//!
//! Dense numeric kernels issue 64 B accesses, modelling the unrolled or
//! vectorized (RVV/AVX-style) inner loops those benchmarks compile to;
//! pointer-chasing and gather kernels issue the 4–8 B scalar accesses
//! their source actually performs. This granularity difference is what
//! differentiates the benchmarks' miss densities — and hence their
//! coalescing opportunities — exactly the axis the paper evaluates.

//! # Example
//!
//! ```
//! use pac_workloads::Bench;
//!
//! // Streams are deterministic per (benchmark, process, core, seed).
//! let mut a = Bench::Stream.core_stream(0, 0, 42);
//! let mut b = Bench::Stream.core_stream(0, 0, 42);
//! for _ in 0..100 {
//!     assert_eq!(a.next_access(), b.next_access());
//! }
//! ```

pub mod dense;
pub mod graph;
pub mod irregular;
pub mod multiproc;
pub mod stencil;
pub mod util;

pub use multiproc::MultiprocessMix;

use pac_types::{Op, RequestKind};

/// One CPU memory access as the cache front-end sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Physical byte address.
    pub addr: u64,
    /// Bytes the instruction touches (1..=64).
    pub data_bytes: u32,
    pub op: Op,
    pub kind: RequestKind,
}

impl Access {
    pub fn load(addr: u64, data_bytes: u32) -> Self {
        Access { addr, data_bytes, op: Op::Load, kind: RequestKind::Miss }
    }

    pub fn store(addr: u64, data_bytes: u32) -> Self {
        Access { addr, data_bytes, op: Op::Store, kind: RequestKind::Miss }
    }

    pub fn atomic(addr: u64) -> Self {
        Access { addr, data_bytes: 8, op: Op::Store, kind: RequestKind::Atomic }
    }

    pub fn fence() -> Self {
        Access { addr: 0, data_bytes: 0, op: Op::Load, kind: RequestKind::Fence }
    }
}

/// An infinite, deterministic stream of accesses for one core.
pub trait AccessStream: Send {
    fn next_access(&mut self) -> Access;
}

/// Physical-address layout: each process owns a 4 GB half of the 8 GB
/// device; within it, each core owns a 256 MB private arena and the
/// process shares a 2 GB region for shared arrays.
pub mod layout {
    /// Base of `core`'s private arena within `process`'s half.
    pub fn core_arena(process: u32, core: u32) -> u64 {
        assert!(process < 2 && core < 8);
        ((process as u64) << 32) + ((core as u64) << 28)
    }

    /// Base of `process`'s shared region.
    pub fn shared_arena(process: u32) -> u64 {
        assert!(process < 2);
        ((process as u64) << 32) + (1u64 << 31)
    }

    /// Bytes in a private core arena.
    pub const CORE_ARENA_BYTES: u64 = 1 << 28;

    /// Bytes in the shared region.
    pub const SHARED_ARENA_BYTES: u64 = 1 << 31;
}

/// The 14 evaluated benchmark suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// GAPBS breadth-first search: frontier-driven sparse neighbor walks.
    Bfs,
    /// NAS BT: block-tridiagonal solver, dense 5x5-block line sweeps.
    Bt,
    /// NAS CG: conjugate gradient, SpMV with random column gathers.
    Cg,
    /// NAS EP: embarrassingly parallel, private dense buffers.
    Ep,
    /// NAS FT: 3-D FFT, butterfly pairs at doubling strides.
    Ft,
    /// Gather/Scatter kernel with windowed random indices.
    Gs,
    /// HPCG: 27-point stencil SpMV + SymGS.
    Hpcg,
    /// NAS LU: dense LU with a shared pivot row.
    Lu,
    /// NAS MG: multigrid V-cycle stencil sweeps.
    Mg,
    /// BOTS SORT: parallel mergesort passes.
    Sort,
    /// NAS SP: scalar penta-diagonal solver, x/y/z line sweeps.
    Sp,
    /// BOTS SPARSELU: blocked sparse LU over scattered dense blocks.
    SparseLu,
    /// HPCS SSCA#2: graph kernel with atomics.
    Ssca2,
    /// McCalpin STREAM triad.
    Stream,
}

impl Bench {
    /// All benchmarks in the paper's display order.
    pub const ALL: [Bench; 14] = [
        Bench::Bfs,
        Bench::Bt,
        Bench::Cg,
        Bench::Ep,
        Bench::Ft,
        Bench::Gs,
        Bench::Hpcg,
        Bench::Lu,
        Bench::Mg,
        Bench::Sort,
        Bench::Sp,
        Bench::SparseLu,
        Bench::Ssca2,
        Bench::Stream,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Bfs => "BFS",
            Bench::Bt => "BT",
            Bench::Cg => "CG",
            Bench::Ep => "EP",
            Bench::Ft => "FT",
            Bench::Gs => "GS",
            Bench::Hpcg => "HPCG",
            Bench::Lu => "LU",
            Bench::Mg => "MG",
            Bench::Sort => "SORT",
            Bench::Sp => "SP",
            Bench::SparseLu => "SPARSELU",
            Bench::Ssca2 => "SSCAv2",
            Bench::Stream => "STREAM",
        }
    }

    /// CPU cycles of non-memory work separating consecutive accesses —
    /// the arithmetic, address generation, and control flow of the
    /// benchmark's inner loop. These are calibrated so that memory
    /// stalls are a significant-but-not-total share of runtime, as in
    /// the paper's Spike-based cores (whose end-to-end gains from
    /// coalescing average 14.35%, implying bounded memory-boundedness).
    pub fn compute_gap(self) -> u64 {
        match self {
            // Floating-point-heavy solvers: many FLOPs per (wide) access.
            Bench::Lu => 9,
            Bench::Sp => 55,
            Bench::Bt => 48,
            Bench::Mg => 88,
            Bench::Ep => 48,
            Bench::Ft => 26,
            Bench::SparseLu => 26,
            Bench::Sort => 96,
            Bench::Stream => 70,
            Bench::Gs => 48,
            // Index arithmetic and branches between accesses.
            Bench::Hpcg => 16,
            Bench::Cg => 20,
            Bench::Ssca2 => 104,
            Bench::Bfs => 14,
        }
    }

    /// Build the access stream for one core of one process.
    ///
    /// Generators stripe shared data structures across the paper's
    /// fixed 8-core topology (`layout::core_arena` also asserts
    /// `core < 8`); running fewer cores simply leaves some stripes
    /// untouched, which is how the Fig 6b half-machine reference works.
    pub fn core_stream(self, process: u32, core: u32, seed: u64) -> Box<dyn AccessStream> {
        let seed = util::mix(seed ^ (self as u64) << 32 ^ (process as u64) << 8 ^ core as u64);
        match self {
            Bench::Stream => Box::new(dense::StreamTriad::new(process, core)),
            Bench::Ep => Box::new(dense::Ep::new(process, core)),
            Bench::Lu => Box::new(dense::Lu::new(process, core)),
            Bench::Sort => Box::new(dense::MergeSort::new(process, core)),
            Bench::Mg => Box::new(stencil::Mg::new(process, core)),
            Bench::Sp => Box::new(stencil::Sp::new(process, core)),
            Bench::Bt => Box::new(stencil::Bt::new(process, core)),
            Bench::Ft => Box::new(stencil::Ft::new(process, core)),
            Bench::Hpcg => Box::new(stencil::Hpcg::new(process, core, seed)),
            Bench::Gs => Box::new(irregular::Gs::new(process, core, seed)),
            Bench::Cg => Box::new(irregular::Cg::new(process, core, seed)),
            Bench::SparseLu => Box::new(irregular::SparseLu::new(process, core, seed)),
            Bench::Bfs => Box::new(graph::Bfs::new(process, core, seed)),
            Bench::Ssca2 => Box::new(graph::Ssca2::new(process, core, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_names_unique_and_parseable() {
        let names: HashSet<_> = Bench::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 14);
        let parse = |s: &str| pac_types::cli::lookup("bench", s, Bench::ALL, Bench::name);
        for b in Bench::ALL {
            assert_eq!(parse(b.name()), Ok(b));
            assert_eq!(parse(&b.name().to_lowercase()), Ok(b));
        }
        assert!(parse("nope").unwrap_err().starts_with("unknown bench 'nope' (valid: BFS, "));
    }

    #[test]
    fn arenas_are_disjoint() {
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for p in 0..2 {
            for c in 0..8 {
                regions.push((layout::core_arena(p, c), layout::CORE_ARENA_BYTES));
            }
            regions.push((layout::shared_arena(p), layout::SHARED_ARENA_BYTES));
        }
        for (i, &(a, alen)) in regions.iter().enumerate() {
            for &(b, blen) in &regions[i + 1..] {
                assert!(a + alen <= b || b + blen <= a, "overlap {a:#x}/{b:#x}");
            }
        }
        // Everything fits in the 8GB device.
        for &(base, len) in &regions {
            assert!(base + len <= 8 << 30);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for bench in Bench::ALL {
            let mut a = bench.core_stream(0, 0, 42);
            let mut b = bench.core_stream(0, 0, 42);
            for _ in 0..1000 {
                assert_eq!(a.next_access(), b.next_access(), "{}", bench.name());
            }
        }
    }

    #[test]
    fn streams_differ_across_cores_and_seeds() {
        for bench in Bench::ALL {
            let mut a = bench.core_stream(0, 0, 42);
            let mut b = bench.core_stream(0, 1, 42);
            let same = (0..256).all(|_| a.next_access() == b.next_access());
            assert!(!same, "{} identical across cores", bench.name());
        }
    }

    #[test]
    fn addresses_stay_inside_the_device() {
        for bench in Bench::ALL {
            for p in 0..2 {
                let mut s = bench.core_stream(p, 3, 7);
                for _ in 0..20_000 {
                    let a = s.next_access();
                    if a.kind == RequestKind::Fence {
                        continue;
                    }
                    assert!(a.addr < 8 << 30, "{} addr {:#x}", bench.name(), a.addr);
                    assert!(a.data_bytes >= 1 && a.data_bytes <= 64);
                }
            }
        }
    }

    #[test]
    fn every_benchmark_mixes_loads_and_misses() {
        use pac_types::Op;
        for bench in Bench::ALL {
            let mut s = bench.core_stream(0, 0, 5);
            let mut loads = 0;
            let mut misses = 0;
            for _ in 0..5000 {
                let a = s.next_access();
                if a.kind == RequestKind::Miss {
                    misses += 1;
                }
                if a.op == Op::Load {
                    loads += 1;
                }
            }
            assert!(loads > 0, "{} never loads", bench.name());
            assert!(misses > 2000, "{} barely issues memory ops", bench.name());
        }
    }

    #[test]
    fn compute_gaps_are_positive_everywhere() {
        for bench in Bench::ALL {
            assert!(bench.compute_gap() >= 1, "{}", bench.name());
        }
    }

    proptest::proptest! {
        /// Generator invariants under arbitrary seeds and core ids:
        /// addresses stay inside the device and data sizes are legal.
        #[test]
        fn generators_are_well_formed(seed in 0u64..1000, core in 0u32..8, pick in 0usize..14) {
            let bench = Bench::ALL[pick];
            let mut s = bench.core_stream(0, core, seed);
            for _ in 0..500 {
                let a = s.next_access();
                if a.kind == RequestKind::Fence {
                    continue;
                }
                proptest::prop_assert!(a.addr < 8 << 30);
                proptest::prop_assert!((1..=64).contains(&a.data_bytes));
            }
        }

        /// Streams never get stuck producing one address forever.
        #[test]
        fn generators_make_progress(seed in 0u64..100, pick in 0usize..14) {
            let bench = Bench::ALL[pick];
            let mut s = bench.core_stream(0, 1, seed);
            let mut distinct = std::collections::HashSet::new();
            for _ in 0..2000 {
                distinct.insert(s.next_access().addr);
            }
            proptest::prop_assert!(distinct.len() > 50, "{} too repetitive", bench.name());
        }
    }

    #[test]
    fn processes_use_disjoint_address_halves() {
        for bench in Bench::ALL {
            let mut s0 = bench.core_stream(0, 0, 1);
            let mut s1 = bench.core_stream(1, 0, 1);
            for _ in 0..5000 {
                let a0 = s0.next_access();
                let a1 = s1.next_access();
                if a0.kind != RequestKind::Fence {
                    assert!(a0.addr < 1 << 32, "{}", bench.name());
                }
                if a1.kind != RequestKind::Fence {
                    assert!(a1.addr >= 1 << 32, "{}", bench.name());
                }
            }
        }
    }
}
