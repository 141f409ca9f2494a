//! Trace-driven coalescer evaluation.
//!
//! The paper evaluates coalescing efficiency by feeding the *same* raw
//! request stream — traced from the extended Spike — into each coalescer
//! model (Sec 5.1). Execution-driven runs can't do that: a slower
//! configuration keeps more misses in flight and therefore sees more
//! mergeable duplicates, inflating its measured efficiency. This module
//! replays a captured [`TraceEntry`] stream through a coalescer plus the
//! configured memory backend, preserving the recorded inter-request
//! spacing (stretched only under backpressure), so Figs 1, 2, 6, 7 and
//! 10–14 compare the coalescers on identical input.
//!
//! The same property powers the differential conformance suite: raw ids
//! are assigned in trace order at admission, independent of downstream
//! timing, so replaying one trace through two *backends* yields
//! comparable served-id sets ([`replay_served`]) — request conservation
//! must hold on each backend, and the completed sets must be identical
//! even though every cycle number differs.
//!
//! Replay advances the clock like [`crate::SimSystem`], with the same
//! two rules. Under [`Stepping::SkipAhead`], the default, it jumps from
//! each settled cycle to the earliest of three events: the trace head's
//! due cycle, the coalescer's `next_event`, and the first backend event
//! that [`pac_mem::MemoryBackend::fast_forward`] leaves unticked — the
//! backend is ticked alone through its issues and data-ready hand-offs
//! until a response becomes poppable. A due head that `would_accept`
//! refuses opens a blocked window. The every-cycle loop would re-offer
//! that head once per cycle until the next coalescer or backend event,
//! be refused each time, and stretch the schedule by one cycle each
//! time. The jump charges those refusals in bulk with
//! `note_refused_retries` and adds the window to the skew. Neither the
//! due window nor the backlog hint can change inside a blocked window:
//! `now` and the skew advance together, and only an accepted push reads
//! the hint. The refusal is remembered with the coalescer's admission
//! epoch, so while the epoch stands the head is charged instead of
//! offered again. `PAC_STEPPING=every` selects the every-cycle
//! reference ([`Stepping::from_env`]), which offers literally and
//! produces identical [`RunMetrics`].

use crate::metrics::RunMetrics;
use crate::system::{CoalescerKind, Stepping, TraceEntry};
use hmc_sim::{HmcRequest, HmcResponse};
use pac_core::{DispatchedRequest, MemoryCoalescer};
use pac_types::{Cycle, MemRequest, SimConfig};

/// Replay `trace` through the chosen coalescer and the configured
/// memory backend, stepping as [`Stepping::from_env`] selects.
pub fn replay(trace: &[TraceEntry], kind: CoalescerKind, cfg: &SimConfig) -> RunMetrics {
    replay_with(trace, kind, cfg, false, Stepping::from_env())
}

/// As [`replay`], optionally retaining PAC's occupancy trace (Fig 11b),
/// with an explicit clock-advance policy.
pub fn replay_with(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    trace_occupancy: bool,
    stepping: Stepping,
) -> RunMetrics {
    replay_core(trace, kind, cfg, trace_occupancy, stepping, None)
}

/// As [`replay`], additionally returning every raw id the coalescer
/// reported satisfied, in completion order **with multiplicity**: a
/// conserving run returns each accepted raw id exactly once. Raw ids
/// are assigned in trace-admission order (fences included), so the
/// returned sets are directly comparable across backends and coalescer
/// grouping choices — the differential suite's ground truth.
pub fn replay_served(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
) -> (RunMetrics, Vec<u64>) {
    let mut served = Vec::new();
    let m = replay_core(trace, kind, cfg, false, Stepping::from_env(), Some(&mut served));
    (m, served)
}

/// The raw request the loop offers for trace entry `t` at cycle `now`.
fn offer(t: &TraceEntry, id: u64, now: Cycle) -> MemRequest {
    let mut req = MemRequest::miss(id, t.addr, t.op, t.core, now);
    req.kind = t.kind;
    req.data_bytes = t.data_bytes;
    req
}

/// Whether the head offered under raw id `id` stands refused at the
/// coalescer's current admission epoch (the refusal memo `memo`).
fn still_refused(coalescer: &dyn MemoryCoalescer, memo: Option<(u64, u64)>, id: u64) -> bool {
    memo == Some((id, coalescer.admission_epoch()))
}

fn replay_core(
    trace: &[TraceEntry],
    kind: CoalescerKind,
    cfg: &SimConfig,
    trace_occupancy: bool,
    stepping: Stepping,
    mut served: Option<&mut Vec<u64>>,
) -> RunMetrics {
    assert!(
        cfg.coalescer.protocol.max_request_bytes() <= cfg.active_row_bytes(),
        "coalescer protocol allows {}B requests but device rows are {}B",
        cfg.coalescer.protocol.max_request_bytes(),
        cfg.active_row_bytes()
    );
    let mut coalescer = kind.build(cfg, trace_occupancy);
    let mut mem = pac_mem::build_backend(cfg);

    let mut now: Cycle = 0;
    // Offset accumulated whenever backpressure stretches the schedule.
    let mut skew: Cycle = 0;
    let mut i = 0usize;
    let mut due_end = 0usize;
    let mut next_id: u64 = 0;
    let mut dispatches: Vec<DispatchedRequest> = Vec::new();
    let mut responses: Vec<HmcResponse> = Vec::new();
    let mut satisfied: Vec<u64> = Vec::new();
    let mut inflight: u64 = 0;
    // Refusal memo for the trace head: the raw id it is offered under
    // (ids advance only on admission) and the admission epoch it was
    // refused at.
    let mut head_refused: Option<(u64, u64)> = None;
    let limit = (trace.last().map(|t| t.cycle).unwrap_or(0) + 1)
        .saturating_mul(200)
        .max(10_000_000);

    while i < trace.len() || !coalescer.is_drained() || !mem.is_idle() || inflight > 0 {
        if stepping == Stepping::SkipAhead {
            // Between iterations every component is settled (ticked, and
            // flushed once the trace is exhausted): jump to the earliest
            // cycle on which the every-cycle loop would do more than tick
            // the device alone and re-offer a refused head. Landing no
            // later than `limit - 1` trips the convergence assert below
            // at the cycle the every-cycle loop trips it.
            let mut wake = limit - 1;
            let mut blocked = None;
            if let Some(t) = trace.get(i) {
                let due = t.cycle + skew;
                if due > now {
                    wake = wake.min(due);
                } else {
                    let req = offer(t, next_id, now);
                    if still_refused(&*coalescer, head_refused, next_id)
                        || !coalescer.would_accept(&req)
                    {
                        head_refused = Some((next_id, coalescer.admission_epoch()));
                        blocked = Some(req);
                    } else {
                        wake = now;
                    }
                }
            }
            if let Some(c) = coalescer.next_event(now) {
                wake = wake.min(c);
            }
            if wake > now {
                if let Some(c) = mem.fast_forward(now, wake) {
                    wake = wake.min(c);
                }
            }
            if wake > now {
                if let Some(req) = blocked {
                    // One refused offer per jumped cycle, each of which
                    // stretches the schedule by one.
                    coalescer.note_refused_retries(&req, now, wake - now);
                    skew += wake - now;
                }
                now = wake;
            }
        }

        // Offer every trace entry scheduled by now. The due-window end
        // advances monotonically, so the backlog hint is computed
        // incrementally (O(1) amortized, not O(backlog) per cycle).
        // Include next-cycle arrivals: a burst spanning two cycles must
        // keep the controller's bypass disengaged for its whole length.
        while due_end < trace.len() && trace[due_end].cycle + skew <= now + 1 {
            due_end += 1;
        }
        coalescer.hint_pending(due_end.saturating_sub(i + 1));
        while i < trace.len() && trace[i].cycle + skew <= now {
            let req = offer(&trace[i], next_id, now);
            // Refused at this epoch already: charge the offer. The
            // every-cycle reference offers literally.
            let memo_hit = stepping == Stepping::SkipAhead
                && still_refused(&*coalescer, head_refused, next_id);
            if memo_hit {
                debug_assert!(
                    !coalescer.would_accept(&req),
                    "refusal memo hit on an acceptable head"
                );
                coalescer.note_refused_retries(&req, now, 1);
                skew += 1;
                break;
            }
            if coalescer.push_raw(req, now) {
                next_id += 1;
                if req.kind != pac_types::RequestKind::Fence {
                    inflight += 1;
                }
                i += 1;
            } else {
                // Backpressure: shift the remaining schedule.
                head_refused = Some((next_id, coalescer.admission_epoch()));
                skew += 1;
                break;
            }
        }

        coalescer.tick(now, &mut dispatches);
        for d in dispatches.drain(..) {
            mem.submit(HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op }, now);
        }
        mem.tick(now);
        mem.pop_responses(now, &mut responses);
        for rsp in responses.drain(..) {
            satisfied.clear();
            coalescer.complete(rsp.id, now, &mut satisfied);
            inflight -= satisfied.len() as u64;
            if let Some(out) = served.as_deref_mut() {
                out.extend_from_slice(&satisfied);
            }
        }

        now += 1;
        if i >= trace.len() {
            coalescer.flush(now);
        }
        assert!(now < limit, "replay failed to converge by cycle {now}");
    }
    mem.finalize_stats();
    coalescer.finalize_stats();

    RunMetrics::from_parts(
        kind.label(),
        now,
        coalescer.stats(),
        mem.stats(),
        mem.energy().clone(),
        mem.bank_conflicts(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_bench, ExperimentConfig};
    use pac_types::{BackendKind, Op, RequestKind};
    use pac_workloads::Bench;

    fn entry(cycle: Cycle, addr: u64) -> TraceEntry {
        TraceEntry { cycle, addr, op: Op::Load, kind: RequestKind::Miss, data_bytes: 8, core: 0 }
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let m = replay(&[], CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 0);
        assert_eq!(m.dispatched_requests, 0);
    }

    #[test]
    fn four_adjacent_lines_coalesce_to_one_request() {
        let trace: Vec<TraceEntry> = (0..4).map(|i| entry(i, 0x40000 + i * 64)).collect();
        let m = replay(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 4);
        assert_eq!(m.dispatched_requests, 1);
        assert!((m.coalescing_efficiency - 0.75).abs() < 1e-12);
        // And the device saw a single 256B request.
        assert_eq!(m.hmc_requests, 1);
        assert_eq!(m.payload_bytes, 256);
    }

    #[test]
    fn raw_replay_never_coalesces() {
        let trace: Vec<TraceEntry> = (0..4).map(|i| entry(i, 0x40000 + i * 64)).collect();
        let m = replay(&trace, CoalescerKind::Raw, &SimConfig::default());
        assert_eq!(m.dispatched_requests, 4);
        assert_eq!(m.coalescing_efficiency, 0.0);
    }

    #[test]
    fn dmc_merges_only_duplicates() {
        let trace = vec![
            entry(0, 0x40000),
            entry(1, 0x40008), // same line: merges
            entry(2, 0x40040), // adjacent line: does not
        ];
        let m = replay(&trace, CoalescerKind::MshrDmc, &SimConfig::default());
        assert_eq!(m.raw_requests, 3);
        assert_eq!(m.dispatched_requests, 2);
    }

    #[test]
    fn pac_beats_dmc_on_identical_captured_trace() {
        let cfg = ExperimentConfig {
            accesses_per_core: 3000,
            capture_trace: true,
            ..Default::default()
        };
        let (_, trace) = run_bench(Bench::Ep, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty());
        let pac = replay(&trace, CoalescerKind::Pac, &cfg.sim);
        let dmc = replay(&trace, CoalescerKind::MshrDmc, &cfg.sim);
        let raw = replay(&trace, CoalescerKind::Raw, &cfg.sim);
        assert!(pac.coalescing_efficiency > dmc.coalescing_efficiency);
        assert_eq!(raw.coalescing_efficiency, 0.0);
        assert_eq!(pac.raw_requests, dmc.raw_requests, "identical input stream");
    }

    #[test]
    fn backpressure_stretches_but_completes() {
        // A flood at cycle 0: far more than the buffers hold.
        let trace: Vec<TraceEntry> =
            (0..2000).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        let m = replay(&trace, CoalescerKind::Pac, &SimConfig::default());
        assert_eq!(m.raw_requests, 2000);
        assert_eq!(m.dispatched_requests, 2000, "distinct pages cannot coalesce");
    }

    #[test]
    fn served_sets_are_identical_across_backends() {
        // The core of the differential suite in miniature: one trace,
        // both backends (protocol matched per backend so the coalescer
        // cell is comparable), identical served-id sets with exactly-once
        // conservation — while the cycle counts genuinely differ.
        let cfg = ExperimentConfig {
            accesses_per_core: 1500,
            capture_trace: true,
            ..Default::default()
        };
        let (_, trace) = run_bench(Bench::Stream, CoalescerKind::Raw, &cfg);
        assert!(!trace.is_empty());
        let mut sets = Vec::new();
        for kind in BackendKind::ALL {
            let sim = SimConfig { cores: cfg.sim.cores, ..SimConfig::for_backend(kind) };
            let (m, mut served) = replay_served(&trace, CoalescerKind::Pac, &sim);
            assert!(m.raw_requests > 0);
            served.sort_unstable();
            assert!(served.windows(2).all(|w| w[0] != w[1]), "{kind:?} served an id twice");
            sets.push(served);
        }
        assert_eq!(sets[0], sets[1], "backends completed different request sets");
    }

    #[test]
    fn skip_ahead_serves_the_same_id_sequence_as_every_cycle() {
        // Completion order and multiplicity, not just the set.
        let cfg = ExperimentConfig {
            accesses_per_core: 600,
            capture_trace: true,
            ..Default::default()
        };
        let (_, captured) = run_bench(Bench::Gs, CoalescerKind::Raw, &cfg);
        // A cycle-0 flood keeps the head refused for long windows.
        let flood: Vec<TraceEntry> = (0..400).map(|i| entry(0, 0x100000 + i * 4096)).collect();
        for trace in [&captured, &flood] {
            for kind in CoalescerKind::ALL {
                let run = |stepping| {
                    let mut served = Vec::new();
                    let m = replay_core(trace, kind, &cfg.sim, false, stepping, Some(&mut served));
                    (m, served)
                };
                let (m_every, every) = run(Stepping::EveryCycle);
                let (m_skip, skip) = run(Stepping::SkipAhead);
                let mut once = every.clone();
                once.sort_unstable();
                once.dedup();
                assert_eq!(once.len(), every.len(), "{kind:?} served an id twice");
                assert_eq!(every, skip, "{kind:?}: served-id sequences diverged");
                assert_eq!(m_every, m_skip, "{kind:?}: metrics diverged");
            }
        }
    }
}
