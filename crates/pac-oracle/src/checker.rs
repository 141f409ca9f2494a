//! The lockstep checker.
//!
//! A [`LockstepChecker`] rides along with one timed simulation run. The
//! driver (`pac-sim`'s `SimSystem`) reports every externally visible
//! event — admission decisions, dispatches, memory responses, response
//! fan-out, fences — and the checker replays each against the
//! [`FunctionalModel`](crate::FunctionalModel) and the dispatch ledger,
//! recording a [`Violation`] wherever the timed system diverges. It also
//! polls the coalescer's own `integrity()` hook so structural
//! invariants (subentry budgets, MAQ capacity, block-map consistency)
//! are checked continuously, not just at the boundary.
//!
//! The checker never panics: violations are *collected*, because the
//! conformance suite needs faulty runs to complete and then prove the
//! right invariant fired.
//!
//! Its state follows what is in flight, not the run's history: a
//! dispatch keeps its full record only until the completion that
//! follows its response, and is then remembered as one bit of an
//! answered-id set, as the model remembers served raw ids.

use crate::idset::IdSet;
use crate::invariant::{Invariant, Violation};
use crate::model::{FunctionalModel, ServeError};
use pac_core::DispatchedRequest;
use pac_types::{
    Cycle, IdHash, MemRequest, Op, RequestKind, SimConfig, CACHE_LINE_BYTES, PAGE_BYTES,
};
use std::collections::HashMap;

/// Checker parameters, derived from the simulated system's geometry.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Largest legal dispatched request (protocol maximum).
    pub max_request_bytes: u64,
    /// DRAM row size — dispatches must not span rows.
    pub row_bytes: u64,
    /// Flag responses later than this many cycles after dispatch
    /// (`None` disables the bound; legitimate queueing latency varies
    /// with workload, so clean runs use a generous or disabled bound).
    pub max_response_latency: Option<Cycle>,
    /// At most this many violations keep their full detail string; the
    /// per-invariant counters keep counting past it.
    pub max_recorded: usize,
}

pac_types::snapshot_fields!(OracleConfig {
    max_request_bytes, row_bytes, max_response_latency, max_recorded
});

impl OracleConfig {
    /// Derive the geometry bounds from a simulation configuration.
    pub fn for_sim(cfg: &SimConfig) -> Self {
        OracleConfig {
            max_request_bytes: cfg.coalescer.protocol.max_request_bytes(),
            row_bytes: cfg.active_row_bytes(),
            max_response_latency: None,
            max_recorded: 64,
        }
    }
}

/// Ledger entry for one dispatched memory request, kept until the
/// completion that follows its response.
#[derive(Debug, Clone, Copy)]
struct DispatchRecord {
    addr: u64,
    bytes: u64,
    op: Op,
    at: Cycle,
    responded: bool,
}

pac_types::snapshot_fields!(DispatchRecord { addr, bytes, op, at, responded });

/// Summary of one checked run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Recorded violations (detail capped at `max_recorded`), in
    /// observation order.
    pub violations: Vec<Violation>,
    /// Total violations per invariant, including unrecorded overflow.
    pub counts: [u64; Invariant::ALL.len()],
    /// Raw requests the coalescer accepted.
    pub accepted_raw: u64,
    /// Raw requests satisfied exactly once.
    pub served_raw: u64,
    /// Memory requests dispatched.
    pub dispatches: u64,
    /// Memory responses observed.
    pub responses: u64,
}

impl OracleReport {
    /// True when the run diverged nowhere.
    pub fn is_clean(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Total violations of one invariant.
    #[inline]
    pub fn count(&self, inv: Invariant) -> u64 {
        self.counts[inv.index()]
    }

    /// True when at least one violation of `inv` was observed.
    #[inline]
    pub fn detected(&self, inv: Invariant) -> bool {
        self.count(inv) > 0
    }

    /// Invariants that fired, in reporting order.
    pub fn fired(&self) -> Vec<Invariant> {
        Invariant::ALL.iter().copied().filter(|&i| self.detected(i)).collect()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "clean: {} raw accepted, {} served, {} dispatches, {} responses",
                self.accepted_raw, self.served_raw, self.dispatches, self.responses
            )
        } else {
            let fired: Vec<String> = self
                .fired()
                .iter()
                .map(|i| format!("{}×{}", self.count(*i), i.label()))
                .collect();
            format!("{} violations: {}", self.counts.iter().sum::<u64>(), fired.join(", "))
        }
    }
}

/// `ids` in ascending order, so a sample of the first few names the
/// same ids on every run, resumed or not.
fn smallest_first(ids: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut ids: Vec<u64> = ids.collect();
    ids.sort_unstable();
    ids
}

/// The lockstep checker. See the module docs for the driving protocol.
#[derive(Debug)]
pub struct LockstepChecker {
    cfg: OracleConfig,
    model: FunctionalModel,
    /// Dispatches not yet completed after their response, by id.
    live: HashMap<u64, DispatchRecord, IdHash>,
    /// Dispatches that were answered and then completed.
    answered: IdSet,
    violations: Vec<Violation>,
    counts: [u64; Invariant::ALL.len()],
    /// Last structural-integrity detail recorded; suppresses the flood a
    /// persistently broken structure would otherwise emit every tick.
    last_structural: Option<String>,
    dispatched: u64,
    responses: u64,
    finalized: bool,
}

pac_types::snapshot_fields!(LockstepChecker {
    cfg, model, live, answered, violations, counts, last_structural,
    dispatched, responses, finalized,
});

impl LockstepChecker {
    pub fn new(cfg: OracleConfig) -> Self {
        LockstepChecker {
            cfg,
            model: FunctionalModel::new(),
            live: HashMap::default(),
            answered: IdSet::default(),
            violations: Vec::new(),
            counts: [0; Invariant::ALL.len()],
            last_structural: None,
            dispatched: 0,
            responses: 0,
            finalized: false,
        }
    }

    fn record(&mut self, invariant: Invariant, cycle: Cycle, detail: String) {
        self.counts[invariant.index()] += 1;
        if self.violations.len() < self.cfg.max_recorded {
            self.violations.push(Violation { invariant, cycle, detail });
        }
    }

    /// One admission decision: the coalescer was offered `req`,
    /// `predicted` is what `would_accept` said beforehand, `accepted`
    /// what `push_raw` actually did. Accepted data-carrying requests
    /// enter the functional model.
    pub fn note_push(&mut self, req: &MemRequest, predicted: bool, accepted: bool, now: Cycle) {
        if predicted != accepted {
            self.record(
                Invariant::AdmissionSync,
                now,
                format!(
                    "would_accept said {predicted} but push_raw {} raw {} ({:#x})",
                    if accepted { "accepted" } else { "refused" },
                    req.id,
                    req.addr
                ),
            );
        }
        if accepted && req.kind != RequestKind::Fence {
            self.model.accept(req, now);
        }
    }

    /// One dispatched memory request leaving the coalescer.
    pub fn note_dispatch(&mut self, d: &DispatchedRequest, now: Cycle) {
        self.dispatched += 1;
        if d.raw_count == 0 {
            self.record(
                Invariant::DispatchGeometry,
                now,
                format!("dispatch {} at {:#x} carries no raw requests", d.dispatch_id, d.addr),
            );
        }
        if !d.addr.is_multiple_of(CACHE_LINE_BYTES)
            || d.bytes == 0
            || !d.bytes.is_multiple_of(CACHE_LINE_BYTES)
        {
            self.record(
                Invariant::DispatchGeometry,
                now,
                format!("dispatch {} not line-granular: {:#x}+{}B", d.dispatch_id, d.addr, d.bytes),
            );
        } else {
            if d.bytes > self.cfg.max_request_bytes {
                self.record(
                    Invariant::DispatchGeometry,
                    now,
                    format!(
                        "dispatch {} of {}B exceeds the protocol max {}B",
                        d.dispatch_id, d.bytes, self.cfg.max_request_bytes
                    ),
                );
            }
            if d.addr % self.cfg.row_bytes + d.bytes > self.cfg.row_bytes {
                self.record(
                    Invariant::DispatchGeometry,
                    now,
                    format!("dispatch {} ({:#x}+{}B) spans a DRAM row", d.dispatch_id, d.addr, d.bytes),
                );
            }
            if d.addr / PAGE_BYTES != (d.addr + d.bytes - 1) / PAGE_BYTES {
                self.record(
                    Invariant::DispatchGeometry,
                    now,
                    format!("dispatch {} ({:#x}+{}B) spans a page", d.dispatch_id, d.addr, d.bytes),
                );
            }
        }
        let rec =
            DispatchRecord { addr: d.addr, bytes: d.bytes, op: d.op, at: now, responded: false };
        let live_before = self.live.insert(d.dispatch_id, rec).is_some();
        if live_before || self.answered.contains(d.dispatch_id) {
            self.record(
                Invariant::DispatchGeometry,
                now,
                format!("dispatch id {} reused", d.dispatch_id),
            );
        }
    }

    /// One raw memory response surfacing from the device, *before* the
    /// coalescer's `complete` fans it out.
    pub fn note_response(&mut self, id: u64, addr: u64, bytes: u64, op: Op, now: Cycle) {
        self.responses += 1;
        let Some(rec) = self.live.get_mut(&id) else {
            let detail = if self.answered.contains(id) {
                format!("second response for dispatch {id} ({addr:#x})")
            } else {
                format!("response for unknown dispatch id {id} ({addr:#x})")
            };
            self.record(Invariant::SpuriousResponse, now, detail);
            return;
        };
        if rec.responded {
            self.record(
                Invariant::SpuriousResponse,
                now,
                format!("second response for dispatch {id} ({addr:#x})"),
            );
            return;
        }
        rec.responded = true;
        let (rec_addr, rec_bytes, rec_op, rec_at) = (rec.addr, rec.bytes, rec.op, rec.at);
        if addr != rec_addr || bytes != rec_bytes || op != rec_op {
            self.record(
                Invariant::EchoIntegrity,
                now,
                format!(
                    "response for dispatch {id} echoes {addr:#x}+{bytes}B {op:?}, \
                     dispatched {rec_addr:#x}+{rec_bytes}B {rec_op:?}"
                ),
            );
        }
        if let Some(bound) = self.cfg.max_response_latency {
            let latency = now.saturating_sub(rec_at);
            if latency > bound {
                self.record(
                    Invariant::LatencyBound,
                    now,
                    format!("dispatch {id} answered after {latency} cycles (bound {bound})"),
                );
            }
        }
    }

    /// The raw-request fan-out of one completion: the coalescer reported
    /// `satisfied` raw ids for `dispatch_id`. The completion that follows
    /// a response retires the dispatch's live record.
    pub fn note_completion(&mut self, dispatch_id: u64, satisfied: &[u64], now: Cycle) {
        let rec = self.live.get(&dispatch_id).copied();
        if rec.is_some_and(|r| r.responded) {
            self.live.remove(&dispatch_id);
            self.answered.insert(dispatch_id);
        } else if rec.is_none() && self.answered.contains(dispatch_id) {
            // The dispatch already completed and its record is gone:
            // every raw id it names now is a second fan-out.
            for &raw_id in satisfied {
                self.record(
                    Invariant::DuplicateCompletion,
                    now,
                    format!("dispatch {dispatch_id} completed again, naming raw {raw_id}"),
                );
            }
            return;
        }
        for &raw_id in satisfied {
            // Coverage is checked against the live record; exactly-once
            // against the functional model.
            let serve = match rec {
                Some(r) => self.model.serve(raw_id, r.addr, r.bytes),
                // Never dispatched: still enforce exactly-once with an
                // infinite span.
                None => self.model.serve(raw_id, 0, u64::MAX),
            };
            match serve {
                Ok(()) => {}
                Err(ServeError::Unknown(id)) => self.record(
                    Invariant::UnknownCompletion,
                    now,
                    format!("dispatch {dispatch_id} satisfied raw {id}, never accepted"),
                ),
                Err(ServeError::AlreadyServed(id)) => self.record(
                    Invariant::DuplicateCompletion,
                    now,
                    format!("raw {id} satisfied again by dispatch {dispatch_id}"),
                ),
                Err(ServeError::OutsideSpan { raw_id, line }) => self.record(
                    Invariant::BlockCoverage,
                    now,
                    format!(
                        "dispatch {dispatch_id} claims raw {raw_id} (line {line:#x}) \
                         outside its span"
                    ),
                ),
            }
        }
    }

    /// Result of polling the coalescer's `integrity()` hook this step.
    pub fn note_integrity(&mut self, result: Result<(), String>, now: Cycle) {
        match result {
            Ok(()) => self.last_structural = None,
            Err(detail) => {
                // A broken structure stays broken across ticks; record
                // each distinct failure once, count the rest.
                if self.last_structural.as_deref() != Some(detail.as_str()) {
                    self.last_structural = Some(detail.clone());
                    self.record(Invariant::StructuralIntegrity, now, detail);
                } else {
                    self.counts[Invariant::StructuralIntegrity.index()] += 1;
                }
            }
        }
    }

    /// An accepted fence; `stage1_streams_after` is the aggregator
    /// occupancy immediately after the fence was pushed.
    pub fn note_fence(&mut self, stage1_streams_after: usize, now: Cycle) {
        if stage1_streams_after != 0 {
            self.record(
                Invariant::FenceOrdering,
                now,
                format!("{stage1_streams_after} streams survived a fence in stage 1"),
            );
        }
    }

    /// End-of-run conservation: every accepted raw request served, every
    /// dispatch answered. Idempotent.
    pub fn finalize(&mut self, now: Cycle) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let unserved = smallest_first(self.model.unserved().map(|(&id, _)| id));
        if !unserved.is_empty() {
            self.record(
                Invariant::ResponseConservation,
                now,
                format!(
                    "{} accepted raw requests never satisfied (e.g. {:?})",
                    unserved.len(),
                    &unserved[..unserved.len().min(8)]
                ),
            );
        }
        let lost =
            smallest_first(self.live.iter().filter(|(_, r)| !r.responded).map(|(&id, _)| id));
        if !lost.is_empty() {
            self.record(
                Invariant::LostResponse,
                now,
                format!(
                    "{} dispatches never answered (e.g. {:?})",
                    lost.len(),
                    &lost[..lost.len().min(8)]
                ),
            );
        }
    }

    /// Total violations observed so far across every invariant,
    /// including overflow past the recording cap. Cheap to poll each
    /// step — the flight recorder watches this for a delta to know when
    /// to dump its window.
    #[inline]
    pub fn total_violations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The most recently *recorded* violation, if any (detail strings
    /// stop being kept past `max_recorded`, so a long-broken run may
    /// return an earlier representative).
    pub fn latest_violation(&self) -> Option<&Violation> {
        self.violations.last()
    }

    /// Snapshot the run's verdict. Call after [`Self::finalize`].
    pub fn report(&self) -> OracleReport {
        OracleReport {
            violations: self.violations.clone(),
            counts: self.counts,
            accepted_raw: self.model.accepted(),
            served_raw: self.model.served(),
            dispatches: self.dispatched,
            responses: self.responses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> LockstepChecker {
        LockstepChecker::new(OracleConfig::for_sim(&SimConfig::default()))
    }

    fn miss(id: u64, addr: u64) -> MemRequest {
        MemRequest::miss(id, addr, Op::Load, 0, 0)
    }

    fn dispatch(id: u64, addr: u64, bytes: u64, raw_count: u32) -> DispatchedRequest {
        DispatchedRequest { dispatch_id: id, addr, bytes, op: Op::Load, raw_count }
    }

    /// The full clean protocol: accept → dispatch → respond → fan out.
    #[test]
    fn clean_run_reports_clean() {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), true, true, 0);
        c.note_push(&miss(2, 0x9080), true, true, 0);
        c.note_dispatch(&dispatch(0, 0x9040, 128, 2), 5);
        c.note_response(0, 0x9040, 128, Op::Load, 100);
        c.note_completion(0, &[1, 2], 100);
        c.note_integrity(Ok(()), 100);
        c.finalize(120);
        let r = c.report();
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.accepted_raw, 2);
        assert_eq!(r.served_raw, 2);
    }

    #[test]
    fn admission_disagreement_is_flagged() {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), false, true, 3);
        assert!(c.report().detected(Invariant::AdmissionSync));
    }

    #[test]
    fn lost_response_and_conservation_fire_at_finalize() {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), true, true, 0);
        c.note_dispatch(&dispatch(0, 0x9040, 64, 1), 2);
        c.finalize(500);
        let r = c.report();
        assert!(r.detected(Invariant::LostResponse));
        assert!(r.detected(Invariant::ResponseConservation));
    }

    #[test]
    fn duplicate_response_is_spurious() {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), true, true, 0);
        c.note_dispatch(&dispatch(0, 0x9040, 64, 1), 2);
        c.note_response(0, 0x9040, 64, Op::Load, 90);
        c.note_response(0, 0x9040, 64, Op::Load, 95);
        assert!(c.report().detected(Invariant::SpuriousResponse));
        c.note_response(7, 0x0, 64, Op::Load, 99); // unknown id
        assert_eq!(c.report().count(Invariant::SpuriousResponse), 2);
    }

    #[test]
    fn corrupted_echo_is_flagged() {
        let mut c = checker();
        c.note_dispatch(&dispatch(0, 0x9040, 64, 1), 2);
        c.note_response(0, 0x9080, 64, Op::Load, 90);
        assert!(c.report().detected(Invariant::EchoIntegrity));
    }

    #[test]
    fn latency_bound_catches_delays() {
        let mut c = LockstepChecker::new(OracleConfig {
            max_response_latency: Some(1000),
            ..OracleConfig::for_sim(&SimConfig::default())
        });
        c.note_dispatch(&dispatch(0, 0x9040, 64, 1), 0);
        c.note_response(0, 0x9040, 64, Op::Load, 5000);
        assert!(c.report().detected(Invariant::LatencyBound));
    }

    #[test]
    fn completion_outside_span_is_coverage_violation() {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), true, true, 0);
        c.note_push(&miss(2, 0xA000), true, true, 0);
        c.note_dispatch(&dispatch(0, 0x9040, 64, 1), 2);
        // Dispatch 0's span is one line at 0x9040; raw 2 lives elsewhere.
        c.note_completion(0, &[1, 2], 90);
        let r = c.report();
        assert!(r.detected(Invariant::BlockCoverage));
        assert_eq!(r.served_raw, 1);
    }

    #[test]
    fn double_and_unknown_completions_are_flagged() {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), true, true, 0);
        c.note_dispatch(&dispatch(0, 0x9040, 64, 1), 2);
        c.note_completion(0, &[1], 90);
        c.note_completion(0, &[1], 91); // raw 1 again
        c.note_completion(0, &[42], 92); // never accepted
        let r = c.report();
        assert!(r.detected(Invariant::DuplicateCompletion));
        assert!(r.detected(Invariant::UnknownCompletion));
    }

    #[test]
    fn geometry_violations_are_flagged() {
        let mut c = checker();
        c.note_dispatch(&dispatch(0, 0x9041, 64, 1), 0); // misaligned
        c.note_dispatch(&dispatch(1, 0x9040, 512, 1), 0); // > protocol max AND spans a row
        c.note_dispatch(&dispatch(2, 0x90C0, 128, 1), 0); // spans a 256B row
        c.note_dispatch(&dispatch(3, 0x9040, 64, 0), 0); // no raw requests
        let r = c.report();
        assert_eq!(r.count(Invariant::DispatchGeometry), 5);
    }

    #[test]
    fn structural_failures_deduplicate_but_keep_counting() {
        let mut c = checker();
        c.note_integrity(Err("MAQ over capacity".into()), 1);
        c.note_integrity(Err("MAQ over capacity".into()), 2);
        c.note_integrity(Err("subentry overflow".into()), 3);
        let r = c.report();
        assert_eq!(r.count(Invariant::StructuralIntegrity), 3);
        // Only the two distinct details were recorded verbatim.
        assert_eq!(
            r.violations.iter().filter(|v| v.invariant == Invariant::StructuralIntegrity).count(),
            2
        );
    }

    #[test]
    fn fence_leaving_streams_behind_is_flagged() {
        let mut c = checker();
        c.note_fence(0, 10);
        assert!(c.report().is_clean());
        c.note_fence(3, 11);
        assert!(c.report().detected(Invariant::FenceOrdering));
    }

    #[test]
    fn total_and_latest_violation_track_incrementally() {
        let mut c = checker();
        assert_eq!(c.total_violations(), 0);
        assert!(c.latest_violation().is_none());
        c.note_push(&miss(1, 0x9040), false, true, 3);
        assert_eq!(c.total_violations(), 1);
        assert_eq!(c.latest_violation().unwrap().invariant, Invariant::AdmissionSync);
        c.note_response(9, 0, 64, Op::Load, 5);
        assert_eq!(c.total_violations(), 2);
        assert_eq!(c.latest_violation().unwrap().invariant, Invariant::SpuriousResponse);
    }

    /// More than 8 unserved raw requests and unanswered dispatches, with
    /// a save/restore before `finalize`: both the original and the
    /// restored checker name the 8 smallest ids.
    #[test]
    fn finalize_samples_the_smallest_ids_across_a_snapshot() {
        use pac_types::{SnapReader, SnapWriter, Snapshot};
        let mut c = checker();
        for id in (0..20).rev() {
            c.note_push(&miss(id, 0x9040), true, true, 0);
        }
        let ids = [0, 1, 2, 3, 1 << 63, 4, 5, 30, 6, 7, 8, (1 << 63) | 1, 9, 10, 11, 12];
        for &id in &ids {
            c.note_dispatch(&dispatch(id, 0x9040, 64, 1), 1);
        }
        for id in [0, 2, 30] {
            c.note_response(id, 0x9040, 64, Op::Load, 5);
        }
        c.note_completion(0, &[0, 3, 19], 5);

        let mut w = SnapWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = LockstepChecker::load(&mut SnapReader::new(&bytes)).unwrap();
        let mut w = SnapWriter::new();
        restored.save(&mut w);
        assert_eq!(w.into_bytes(), bytes);

        c.finalize(100);
        restored.finalize(100);
        assert_eq!(details(&c), details(&restored));
        assert_eq!(
            details(&c),
            vec![
                "17 accepted raw requests never satisfied (e.g. [1, 2, 4, 5, 6, 7, 8, 9])",
                "13 dispatches never answered (e.g. [1, 3, 4, 5, 6, 7, 8, 9])",
            ]
        );
    }

    fn details(c: &LockstepChecker) -> Vec<String> {
        c.report().violations.iter().map(|v| v.detail.clone()).collect()
    }

    /// Dispatch 0 carries raw 1 through the whole protocol, so its live
    /// record is retired and only the answered set remembers it.
    fn completed_once() -> LockstepChecker {
        let mut c = checker();
        c.note_push(&miss(1, 0x9040), true, true, 0);
        c.note_push(&miss(2, 0x9080), true, true, 0);
        c.note_dispatch(&dispatch(0, 0x9040, 128, 1), 2);
        c.note_response(0, 0x9040, 128, Op::Load, 90);
        c.note_completion(0, &[1], 90);
        assert!(c.live.is_empty() && c.answered.contains(0));
        c
    }

    #[test]
    fn a_response_or_a_reuse_after_completion_is_still_flagged() {
        let mut c = completed_once();
        c.note_response(0, 0x9040, 128, Op::Load, 95);
        c.note_response(5, 0x9040, 64, Op::Load, 96);
        c.note_dispatch(&dispatch(0, 0x9080, 64, 1), 97);
        assert_eq!(
            details(&c),
            vec![
                "second response for dispatch 0 (0x9040)",
                "response for unknown dispatch id 5 (0x9040)",
                "dispatch id 0 reused",
            ]
        );
        // The reused id is live again: its own response is its first,
        // and its echo is checked against the new record.
        c.note_response(0, 0x9080, 64, Op::Load, 120);
        c.note_completion(0, &[2], 120);
        c.finalize(130);
        assert_eq!(c.report().count(Invariant::SpuriousResponse), 2);
        assert!(!c.report().detected(Invariant::EchoIntegrity));
        assert_eq!(c.report().served_raw, 2);
    }

    /// A completed dispatch completing again, naming raw ids, flags each
    /// id as a duplicate completion and serves none of them, even one
    /// still pending inside the dispatch's old span.
    #[test]
    fn a_second_completion_of_a_completed_dispatch_names_duplicates() {
        let mut c = completed_once();
        c.note_completion(0, &[1, 2], 95);
        c.note_completion(0, &[], 96);
        let r = c.report();
        assert_eq!(r.count(Invariant::DuplicateCompletion), 2);
        assert_eq!(r.served_raw, 1);
        assert_eq!(
            details(&c),
            vec![
                "dispatch 0 completed again, naming raw 1",
                "dispatch 0 completed again, naming raw 2",
            ]
        );
        c.finalize(100);
        assert!(c.report().detected(Invariant::ResponseConservation), "raw 2 is never served");
    }

    /// A long clean run keeps no per-dispatch record: the saved checker
    /// holds one bit per served raw id and per answered dispatch.
    #[test]
    fn a_long_clean_run_saves_small() {
        use pac_types::{SnapWriter, Snapshot};
        let mut c = checker();
        for id in 0..100_000u64 {
            let addr = 0x10_0000 + (id % 4096) * 64;
            c.note_push(&miss(id, addr), true, true, id);
            c.note_dispatch(&dispatch(id, addr, 64, 1), id);
            c.note_response(id, addr, 64, Op::Load, id + 50);
            c.note_completion(id, &[id], id + 50);
        }
        assert!(c.live.is_empty() && c.model.outstanding() == 0);
        let mut w = SnapWriter::new();
        c.save(&mut w);
        assert!(w.len() < 64 << 10, "{} B", w.len());
        c.finalize(200_000);
        assert!(c.report().is_clean(), "{}", c.report().summary());
    }

    #[test]
    fn recorded_details_cap_but_counts_do_not() {
        let mut c = LockstepChecker::new(OracleConfig {
            max_recorded: 2,
            ..OracleConfig::for_sim(&SimConfig::default())
        });
        for id in 0..10 {
            c.note_response(id, 0, 64, Op::Load, 5); // all unknown
        }
        let r = c.report();
        assert_eq!(r.count(Invariant::SpuriousResponse), 10);
        assert_eq!(r.violations.len(), 2);
    }
}
