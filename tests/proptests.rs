//! Property-based tests over the core data structures and the
//! end-to-end coalescing invariants.

use pac_repro::coalescer::baseline::{MshrDmc, NoCoalescing};
use pac_repro::coalescer::table::{runs_of, CoalescingTable};
use pac_repro::coalescer::{MemoryCoalescer, PacCoalescer};
use pac_repro::hmc::{EnergyBreakdown, Hmc, HmcRequest, HmcResponse, HmcStats};
use pac_repro::mem::MemoryBackend;
use pac_repro::types::addr::block_addr;
use pac_repro::types::{
    BackendKind, CoalescerConfig, Cycle, FaultClass, FaultPlan, HmcDeviceConfig, MemRequest, Op,
    RequestKind, SimConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a short stream of raw requests over a handful of pages.
fn raw_requests() -> impl Strategy<Value = Vec<(u64, u8, bool)>> {
    // (page in 0..6, block in 0..64, is_store)
    prop::collection::vec((0u64..6, 0u8..64, any::<bool>()), 1..120)
}

/// Drive any coalescer to completion over a request list; returns
/// (dispatches, satisfied raw ids).
fn drive(
    coalescer: &mut dyn MemoryCoalescer,
    reqs: &[(u64, u8, bool)],
) -> (Vec<pac_repro::coalescer::DispatchedRequest>, Vec<u64>) {
    let mut hmc = Hmc::new(HmcDeviceConfig::default());
    let mut dispatches = Vec::new();
    let mut all_dispatches = Vec::new();
    let mut satisfied = Vec::new();
    let mut responses = Vec::new();
    let mut now = 0u64;
    let mut i = 0usize;
    let mut inflight = 0u64;
    while i < reqs.len() || !coalescer.is_drained() || !hmc.is_idle() || inflight > 0 {
        coalescer.hint_pending(reqs.len().saturating_sub(i + 1));
        while i < reqs.len() {
            let (page, block, store) = reqs[i];
            let op = if store { Op::Store } else { Op::Load };
            let mut r = MemRequest::miss(i as u64, block_addr(page + 0x100, block), op, 0, now);
            r.op = op;
            if coalescer.push_raw(r, now) {
                inflight += 1;
                i += 1;
            } else {
                break;
            }
        }
        coalescer.tick(now, &mut dispatches);
        for d in dispatches.drain(..) {
            hmc.submit(
                HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op },
                now,
            );
            all_dispatches.push(d);
        }
        hmc.tick(now);
        hmc.pop_responses(now, &mut responses);
        for rsp in responses.drain(..) {
            let before = satisfied.len();
            coalescer.complete(rsp.id, now, &mut satisfied);
            inflight -= (satisfied.len() - before) as u64;
        }
        now += 1;
        if i >= reqs.len() {
            coalescer.flush(now);
        }
        assert!(now < 2_000_000, "failed to converge");
    }
    (all_dispatches, satisfied)
}

/// Drive one backend through `sched` (submit cycle, request), ticking
/// it every cycle or only where the skip step would: at submits, and at
/// the first event `fast_forward` leaves unticked. Returns every
/// response with the cycle it was popped at, the stats and the energy.
/// With a drop-response plan armed, also checks that every device
/// event counts as visible.
fn drive_device(
    sim: &SimConfig,
    sched: &[(Cycle, HmcRequest)],
    drop_seed: Option<u64>,
    fast: bool,
) -> (Vec<(Cycle, HmcResponse)>, HmcStats, EnergyBreakdown) {
    let mut dev = pac_repro::mem::build_backend(sim);
    if let Some(seed) = drop_seed {
        let plan = FaultPlan {
            rate_per_1024: 256,
            max_faults: u64::MAX,
            ..FaultPlan::new(FaultClass::DropResponse, seed)
        };
        dev.set_fault_plan(plan).expect("valid fault plan");
    }
    let (mut out, mut rsps) = (Vec::new(), Vec::new());
    let (mut now, mut next) = (0, 0);
    loop {
        while next < sched.len() && sched[next].0 == now {
            dev.submit(sched[next].1, now);
            next += 1;
        }
        dev.tick(now);
        dev.pop_responses(now, &mut rsps);
        out.extend(rsps.drain(..).map(|r| (now, r)));
        if next == sched.len() && dev.is_idle() {
            break;
        }
        if drop_seed.is_some() {
            assert_eq!(dev.next_visible(now + 1), dev.next_event(now + 1));
        }
        let bound = sched.get(next).map_or(Cycle::MAX, |s| s.0);
        now = if fast {
            dev.fast_forward(now + 1, bound).map_or(bound, |c| c.min(bound))
        } else {
            now + 1
        };
        assert!(now < 10_000_000, "device failed to drain");
    }
    dev.finalize_stats();
    (out, dev.stats().clone(), dev.energy().clone())
}

/// A coalescer under test for the admission-epoch property.
fn epoch_coalescer(kind: u8) -> Box<dyn MemoryCoalescer> {
    // Tiny structures so random traffic crosses into refusal often.
    match kind {
        0 => Box::new(NoCoalescing::new(3)),
        1 => Box::new(MshrDmc::new(3, 2)),
        _ => Box::new(PacCoalescer::new(CoalescerConfig {
            streams: 2,
            maq_entries: 1,
            mshrs: 2,
            ..CoalescerConfig::default()
        })),
    }
}

proptest! {
    /// The device fast-forward is exact: on either backend, ticking the
    /// device only at the cycles the skip step uses gives the same
    /// responses at the same cycles, and the same stats and energy, as
    /// ticking it every cycle — with or without a drop-response plan
    /// armed (under which `next_visible` must equal `next_event`).
    #[test]
    fn device_fast_forward_matches_every_cycle(
        reqs in prop::collection::vec((0u64..40, 0u64..2048, 0u64..16, 1u64..5, any::<bool>()), 1..120),
        hbm in any::<bool>(),
        drop in 0u64..4,
    ) {
        let sim = SimConfig::for_backend(if hbm { BackendKind::Hbm } else { BackendKind::Hmc });
        let row = sim.active_row_bytes();
        let mut cycle = 0;
        let sched: Vec<(Cycle, HmcRequest)> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(gap, r, line, lines, store))| {
                cycle += gap;
                let addr = r * row + (line * 64) % row;
                let bytes = (lines * 64).min(row - addr % row);
                let op = if store { Op::Store } else { Op::Load };
                (cycle, HmcRequest { id: i as u64, addr, bytes, op })
            })
            .collect();
        // One case in four arms a drop-response plan.
        let drop_seed = (drop == 0).then_some(cycle ^ 0xD20F);
        let every = drive_device(&sim, &sched, drop_seed, false);
        let fast = drive_device(&sim, &sched, drop_seed, true);
        prop_assert_eq!(&every.0, &fast.0, "responses or their cycles diverged (hbm: {})", hbm);
        prop_assert_eq!(&every.1, &fast.1, "device stats diverged (hbm: {})", hbm);
        prop_assert_eq!(&every.2, &fast.2, "device energy diverged (hbm: {})", hbm);
    }

    /// The admission epoch pins refusals: for each coalescer, while the
    /// epoch equals the epoch at which `would_accept` refused a
    /// request, it keeps refusing that request, across random pushes,
    /// ticks, completions, flushes, hints and charged retries.
    #[test]
    fn admission_epoch_pins_refusals(
        ops in prop::collection::vec((0u8..8, 0u64..6, 0u8..64, 0u8..8), 1..300),
        kind in 0u8..3,
    ) {
        let mut c = epoch_coalescer(kind);
        let (mut now, mut next_id) = (0, 0);
        let mut inflight: Vec<u64> = Vec::new();
        let mut dispatched = Vec::new();
        let mut satisfied = Vec::new();
        // Requests refused so far, with the epoch each was refused at.
        let mut refused: Vec<(MemRequest, u64)> = Vec::new();
        for &(op, page, block, class) in &ops {
            match op {
                0..=3 => {
                    let mut req = MemRequest::miss(next_id, block_addr(page + 0x100, block), Op::Load, 0, now);
                    next_id += 1;
                    req.kind = match class {
                        0 => RequestKind::Fence,
                        1 => RequestKind::Atomic,
                        2 => RequestKind::WriteBack,
                        _ => RequestKind::Miss,
                    };
                    if class % 3 == 2 {
                        req.op = Op::Store;
                    }
                    let epoch = c.admission_epoch();
                    let predicted = c.would_accept(&req);
                    let accepted = c.push_raw(req, now);
                    prop_assert_eq!(predicted, accepted, "would_accept out of sync with push_raw");
                    if !accepted {
                        prop_assert_eq!(c.admission_epoch(), epoch, "a refused push moved the epoch");
                        refused.push((req, epoch));
                    }
                }
                4 => {
                    c.tick(now, &mut dispatched);
                    inflight.extend(dispatched.drain(..).map(|d| d.dispatch_id));
                    now += 1 + u64::from(class);
                }
                5 if !inflight.is_empty() => {
                    let id = inflight.remove(usize::from(block) % inflight.len());
                    c.complete(id, now, &mut satisfied);
                }
                6 => c.hint_pending(usize::from(class)),
                7 if class == 0 => c.flush(now),
                _ => {
                    if let Some(&(req, epoch)) = refused.last() {
                        if c.admission_epoch() == epoch {
                            c.note_refused_retries(&req, now, u64::from(class) + 1);
                            prop_assert_eq!(c.admission_epoch(), epoch, "charged retries moved the epoch");
                        }
                    }
                }
            }
            let epoch = c.admission_epoch();
            for (req, at) in &refused {
                if epoch == *at {
                    prop_assert!(!c.would_accept(req), "raw {} accepted at the epoch it was refused at", req.id);
                }
            }
        }
    }

    /// Every raw request is satisfied exactly once, regardless of the
    /// request mix — the fundamental correctness property of a
    /// coalescer.
    #[test]
    fn pac_satisfies_every_raw_request_exactly_once(reqs in raw_requests()) {
        let mut pac = PacCoalescer::new(CoalescerConfig::default());
        let (_, satisfied) = drive(&mut pac, &reqs);
        let ids: HashSet<u64> = satisfied.iter().copied().collect();
        prop_assert_eq!(satisfied.len(), reqs.len(), "duplicate completions");
        prop_assert_eq!(ids.len(), reqs.len(), "missing completions");
    }

    /// Same conservation law for the baselines.
    #[test]
    fn baselines_satisfy_every_raw_request(reqs in raw_requests()) {
        let mut dmc = MshrDmc::new(16, 8);
        let (_, s1) = drive(&mut dmc, &reqs);
        prop_assert_eq!(s1.len(), reqs.len());
        let mut raw = NoCoalescing::new(16);
        let (_, s2) = drive(&mut raw, &reqs);
        prop_assert_eq!(s2.len(), reqs.len());
    }

    /// Dispatched requests respect the protocol: line-aligned, between
    /// 64B and 256B, and never spanning a 256B row boundary.
    #[test]
    fn pac_dispatches_respect_hmc_geometry(reqs in raw_requests()) {
        let mut pac = PacCoalescer::new(CoalescerConfig::default());
        let (dispatches, _) = drive(&mut pac, &reqs);
        for d in dispatches {
            prop_assert_eq!(d.addr % 64, 0);
            prop_assert!(d.bytes >= 64 && d.bytes <= 256);
            prop_assert_eq!(d.bytes % 64, 0);
            let row = d.addr / 256;
            prop_assert_eq!((d.addr + d.bytes - 1) / 256, row, "request spans a row");
        }
    }

    /// PAC never dispatches more requests than arrived, and coalescing
    /// efficiency stays within [0, 1).
    #[test]
    fn efficiency_is_well_formed(reqs in raw_requests()) {
        let mut pac = PacCoalescer::new(CoalescerConfig::default());
        let (dispatches, _) = drive(&mut pac, &reqs);
        prop_assert!(dispatches.len() <= reqs.len());
        let eff = pac.stats().coalescing_efficiency();
        prop_assert!((0.0..1.0).contains(&eff));
    }

    /// The coalescing table's runs always reconstruct the pattern and
    /// never overlap, for every width/cap combination.
    #[test]
    fn table_runs_partition_patterns(pattern in 0u16.., width in 1u32..=16, cap in 1u32..=16) {
        let pattern = pattern & ((1u32 << width) - 1) as u16;
        let runs = runs_of(pattern, width, cap);
        let mut rebuilt = 0u16;
        for r in &runs {
            prop_assert!(r.len as u32 <= cap);
            for b in r.start..r.start + r.len {
                prop_assert_eq!(rebuilt >> b & 1, 0, "overlapping runs");
                rebuilt |= 1 << b;
            }
        }
        prop_assert_eq!(rebuilt, pattern);
    }

    /// Table lookup agrees with direct computation for every pattern.
    #[test]
    fn table_lookup_matches_runs_of(width in 1u32..=8, cap in 1u32..=8) {
        let mut t = CoalescingTable::new(width, cap);
        for p in 0..(1u32 << width) as u16 {
            prop_assert_eq!(t.lookup(p).to_vec(), runs_of(p, width, cap));
        }
    }

    /// The HMC device answers every request it accepts, in completion
    /// order, with positive latency.
    #[test]
    fn hmc_conserves_requests(addrs in prop::collection::vec(0u64..(1 << 26), 1..200)) {
        let mut hmc = Hmc::new(HmcDeviceConfig::default());
        for (i, a) in addrs.iter().enumerate() {
            hmc.submit(
                HmcRequest { id: i as u64, addr: a & !63, bytes: 64, op: Op::Load },
                i as u64,
            );
        }
        let (rsps, _) = hmc.drain(addrs.len() as u64);
        prop_assert_eq!(rsps.len(), addrs.len());
        let ids: HashSet<u64> = rsps.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids.len(), addrs.len());
        prop_assert!(rsps.windows(2).all(|w| w[0].complete_cycle <= w[1].complete_cycle));
        prop_assert!(rsps.iter().all(|r| r.latency() > 0));
    }

    /// Sorting networks sort arbitrary data (beyond the 0/1 principle
    /// tests in the crate itself).
    #[test]
    fn networks_sort_arbitrary_values(mut v in prop::collection::vec(any::<u32>(), 1..64)) {
        let n = v.len().next_power_of_two();
        v.resize(n, u32::MAX);
        let mut bitonic = v.clone();
        sortnet::apply_network(&sortnet::bitonic_network(n), &mut bitonic);
        prop_assert!(bitonic.windows(2).all(|w| w[0] <= w[1]));
        let mut oem = v.clone();
        sortnet::apply_network(&sortnet::odd_even_merge_network(n), &mut oem);
        prop_assert_eq!(bitonic, oem);
    }

    /// Skip-ahead equivalence over randomized short workloads: for any
    /// benchmark, coalescer, access budget and seed, the event-driven
    /// clock produces bit-identical metrics to the cycle-by-cycle
    /// reference (the fixed-seed version lives in
    /// `tests/skip_ahead_equivalence.rs`).
    #[test]
    fn skip_ahead_equivalent_on_random_workloads(
        bench_idx in 0usize..14,
        kind_idx in 0usize..3,
        accesses in 50u64..400,
        seed in any::<u64>(),
    ) {
        use pac_repro::sim::{run_bench, CoalescerKind, ExperimentConfig, Stepping};
        let bench = pac_repro::workloads::Bench::ALL[bench_idx];
        let kind = [CoalescerKind::Raw, CoalescerKind::MshrDmc, CoalescerKind::Pac][kind_idx];
        let run = |stepping| {
            let cfg = ExperimentConfig {
                accesses_per_core: accesses,
                seed,
                capture_trace: true,
                trace_occupancy: true,
                stepping,
                ..Default::default()
            };
            run_bench(bench, kind, &cfg)
        };
        let (slow, trace_slow) = run(Stepping::EveryCycle);
        let (fast, trace_fast) = run(Stepping::SkipAhead);
        prop_assert_eq!(slow, fast, "metrics diverged for {:?}/{:?}", bench, kind);
        prop_assert_eq!(trace_slow, trace_fast, "traces diverged for {:?}/{:?}", bench, kind);
    }

    /// Trace replay keeps the same promise on synthetic traces: random
    /// request kinds, same-cycle bursts and idle gaps of thousands of
    /// cycles, through any coalescer on either backend.
    #[test]
    fn replay_skip_ahead_equivalent_on_random_traces(
        entries in prop::collection::vec((0u8..8, 0u64..4000, 0u64..256, 0u8..64, 0u8..16), 1..300),
        kind_idx in 0usize..3,
        hbm in any::<bool>(),
    ) {
        use pac_repro::sim::{replay_with, CoalescerKind, Stepping, TraceEntry};
        use pac_repro::types::{BackendKind, RequestKind, SimConfig};
        let mut cycle = 0;
        let trace: Vec<TraceEntry> = entries
            .iter()
            .map(|&(gap, span, page, block, class)| {
                // Half the entries join a same-cycle burst (long enough
                // to fill the MSHRs and stage 1); one in eight follows
                // an idle gap of thousands of cycles.
                cycle += match gap {
                    0..=3 => 0,
                    4 | 5 => span % 4,
                    6 => span % 64,
                    _ => 1000 + span,
                };
                let kind = match class {
                    0 => RequestKind::Fence,
                    1 => RequestKind::Atomic,
                    2 | 3 => RequestKind::WriteBack,
                    _ => RequestKind::Miss,
                };
                let op = if class % 3 == 0 { Op::Store } else { Op::Load };
                let core = if kind == RequestKind::WriteBack { u8::MAX } else { class % 8 };
                let addr = block_addr(page + 0x100, block);
                TraceEntry { cycle, addr, op, kind, data_bytes: 8, core }
            })
            .collect();
        let kind = CoalescerKind::ALL[kind_idx];
        let sim = SimConfig::for_backend(if hbm { BackendKind::Hbm } else { BackendKind::Hmc });
        let slow = replay_with(&trace, kind, &sim, true, Stepping::EveryCycle);
        let fast = replay_with(&trace, kind, &sim, true, Stepping::SkipAhead);
        prop_assert_eq!(slow, fast, "replay metrics diverged for {:?} (hbm: {})", kind, hbm);
    }

    /// DBSCAN invariants: points in the same cluster are chained within
    /// eps; cluster member counts sum to total minus noise.
    #[test]
    fn dbscan_partitions_points(points in prop::collection::vec(0u64..(1 << 20), 1..150)) {
        let (labels, summary) = pac_repro::analysis::dbscan_1d(&points, 4096, 4);
        prop_assert_eq!(labels.len(), points.len());
        let member_sum: usize = summary.clusters.iter().map(|c| c.2).sum();
        prop_assert_eq!(member_sum + summary.noise, summary.total);
        // Every cluster's span is consistent with its members.
        for (i, label) in labels.iter().enumerate() {
            if let pac_repro::analysis::Label::Cluster(c) = label {
                let (lo, hi, _) = summary.clusters[*c];
                prop_assert!(points[i] >= lo && points[i] <= hi);
            }
        }
    }
}
