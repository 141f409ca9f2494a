//! Property tests: [`HmcStats::merge`] is a commutative, associative
//! fold whose result is independent of aggregation order.
//!
//! The parallel runner merges per-cell statistics in completion order,
//! which varies with thread count and scheduling — these properties are
//! exactly what makes the merged totals deterministic anyway. (They
//! hold because every field is an integer sum, an integer max, or a
//! bucket-wise histogram sum; `EnergyBreakdown`'s `f64` sums are *not*
//! bit-associative, which is why energy is never merged across cells.)

use hmc_sim::HmcStats;
use proptest::prelude::*;

/// Deterministically inflate a list of u64s into an `HmcStats`: the
/// first values feed the scalar counters, the rest become latency
/// samples (keeping `latency_hist` consistent with the scalars, as a
/// real run would).
fn build(vals: &[u64]) -> HmcStats {
    let get = |i: usize| vals.get(i).copied().unwrap_or(0);
    let mut s = HmcStats {
        requests: get(0),
        payload_bytes: get(1),
        transaction_bytes: get(2),
        bank_conflicts: get(3),
        local_routes: get(4),
        remote_routes: get(5),
        peak_inflight: get(6),
        ..Default::default()
    };
    for &lat in vals.iter().skip(7) {
        // `complete` is pub(crate); reproduce it via the public fields.
        s.responses += 1;
        s.total_latency_cycles += lat;
        s.latency_hist.record(lat);
    }
    s
}

fn groups() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..1_000_000, 0..24), 2..6)
}

proptest! {
    #[test]
    fn merge_commutes(gs in groups()) {
        let a = build(&gs[0]);
        let b = build(&gs[1]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(gs in groups()) {
        let stats: Vec<HmcStats> = gs.iter().map(|g| build(g)).collect();
        let (a, b) = (&stats[0], &stats[1]);
        let c = stats.get(2).cloned().unwrap_or_default();
        // (a + b) + c
        let mut left = a.clone();
        left.merge(b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn any_fold_order_agrees(gs in groups()) {
        let stats: Vec<HmcStats> = gs.iter().map(|g| build(g)).collect();
        // Left-to-right fold.
        let mut fwd = HmcStats::default();
        for s in &stats {
            fwd.merge(s);
        }
        // Right-to-left fold.
        let mut rev = HmcStats::default();
        for s in stats.iter().rev() {
            rev.merge(s);
        }
        // Balanced pairwise reduction (the shape a tree reduce uses).
        let mut layer = stats.clone();
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
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(&fwd, &layer[0]);
    }
}
