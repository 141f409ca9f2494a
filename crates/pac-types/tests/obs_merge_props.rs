//! Property tests: the observability self-metric types
//! ([`StallCycles`], [`RunnerStats`]) merge order-independently —
//! commutative, associative, and agreeing under any fold order. This is
//! the contract that lets per-channel and per-worker contributions be
//! accumulated in whatever order runs complete (or stream segments are
//! ingested) while always reporting the same campaign totals.

use pac_types::{RunnerStats, StallCycles, WorkerStats};
use proptest::prelude::*;

fn stalls(v: &[u64; 4]) -> StallCycles {
    StallCycles { tccd_l: v[0], tfaw: v[1], bank_conflict: v[2], refresh: v[3] }
}

/// Worker seconds drawn as whole numbers: integer-valued f64 addition
/// is exact below 2^53, so fold-order equality can be checked with
/// `==` instead of a tolerance.
fn runner(wall: u32, workers: &[(u32, u32, u32)]) -> RunnerStats {
    RunnerStats {
        wall_seconds: f64::from(wall),
        workers: workers
            .iter()
            .map(|&(cells, busy, idle)| WorkerStats {
                cells_claimed: u64::from(cells),
                busy_seconds: f64::from(busy),
                idle_seconds: f64::from(idle),
            })
            .collect(),
    }
}

proptest! {
    #[test]
    fn stall_cycles_any_fold_order_agrees(
        vs in prop::collection::vec(
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
            2..8,
        )
    ) {
        let parts: Vec<StallCycles> =
            vs.iter().map(|&(a, b, c, d)| stalls(&[a, b, c, d])).collect();
        let mut fwd = StallCycles::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = StallCycles::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(fwd, rev);
        // Pairwise tree fold agrees too (associativity).
        let mut layer = parts.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let mut m = pair[0];
                if let Some(rhs) = pair.get(1) {
                    m.merge(rhs);
                }
                next.push(m);
            }
            layer = next;
        }
        prop_assert_eq!(fwd, layer[0]);
        prop_assert_eq!(
            fwd.total(),
            parts.iter().map(|p| p.total()).sum::<u64>()
        );
    }

    #[test]
    fn runner_stats_any_fold_order_agrees(
        gs in prop::collection::vec(
            (
                0u32..10_000,
                prop::collection::vec((0u32..100, 0u32..10_000, 0u32..10_000), 0..5),
            ),
            2..6,
        )
    ) {
        let parts: Vec<RunnerStats> = gs.iter().map(|(w, ws)| runner(*w, ws)).collect();
        let mut fwd = RunnerStats::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = RunnerStats::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(&fwd, &rev);
        let mut layer = parts.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let mut m = pair[0].clone();
                if let Some(rhs) = pair.get(1) {
                    m.merge(rhs);
                }
                next.push(m);
            }
            layer = next;
        }
        prop_assert_eq!(&fwd, &layer[0]);
        prop_assert_eq!(fwd.cells(), parts.iter().map(|p| p.cells()).sum::<u64>());
    }
}
