//! The functional golden model.
//!
//! No pipelining, no cycle accounting, no capacities: the model knows
//! only which raw requests the memory system has *accepted* and which it
//! has *served*. Its single obligation — the one every timed coalescer
//! must also meet — is that each accepted request is served exactly
//! once, by a memory span that actually contains the request's line.
//! Everything the lockstep checker asserts about conservation reduces to
//! bookkeeping against this model.

use crate::idset::IdSet;
use pac_types::{Cycle, IdHash, MemRequest, Op};
use std::collections::HashMap;

/// One accepted-but-unserved raw request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRaw {
    /// Line-aligned address the request must be served at.
    pub line: u64,
    pub op: Op,
    /// Cycle the coalescer accepted the request.
    pub accepted_at: Cycle,
}

pac_types::snapshot_fields!(PendingRaw { line, op, accepted_at });

/// Why a serve attempt diverged from the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The raw id was never accepted.
    Unknown(u64),
    /// The raw id was already served once.
    AlreadyServed(u64),
    /// The serving span does not contain the request's line.
    OutsideSpan { raw_id: u64, line: u64 },
}

/// The obviously-correct functional memory model.
#[derive(Debug, Default)]
pub struct FunctionalModel {
    pending: HashMap<u64, PendingRaw, IdHash>,
    /// Ids served so far, 64 to a word.
    served: IdSet,
    accepted: u64,
}

pac_types::snapshot_fields!(FunctionalModel { pending, served, accepted });

impl FunctionalModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the memory system accepted `req` at `now`. Fences
    /// carry no data and expect no response — callers exclude them.
    pub fn accept(&mut self, req: &MemRequest, now: Cycle) {
        self.accepted += 1;
        self.pending.insert(
            req.id,
            PendingRaw { line: req.line(), op: req.op, accepted_at: now },
        );
    }

    /// Record that the span `[addr, addr + bytes)` served raw request
    /// `raw_id`. Exactly-once and coverage are enforced here.
    pub fn serve(&mut self, raw_id: u64, addr: u64, bytes: u64) -> Result<(), ServeError> {
        let Some(raw) = self.pending.get(&raw_id) else {
            return Err(if self.served.contains(raw_id) {
                ServeError::AlreadyServed(raw_id)
            } else {
                ServeError::Unknown(raw_id)
            });
        };
        if raw.line < addr || raw.line + pac_types::CACHE_LINE_BYTES > addr + bytes {
            return Err(ServeError::OutsideSpan { raw_id, line: raw.line });
        }
        self.pending.remove(&raw_id);
        self.served.insert(raw_id);
        Ok(())
    }

    /// Total raw requests accepted so far.
    #[inline]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Distinct raw request ids served so far.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served.len()
    }

    /// Accepted raw requests still awaiting service, unordered.
    pub fn unserved(&self) -> impl Iterator<Item = (&u64, &PendingRaw)> {
        self.pending.iter()
    }

    /// Number of accepted raw requests still awaiting service.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(id: u64, addr: u64) -> MemRequest {
        MemRequest::miss(id, addr, Op::Load, 0, 0)
    }

    #[test]
    fn exactly_once_within_span() {
        let mut m = FunctionalModel::new();
        m.accept(&miss(1, 0x9040), 0);
        m.accept(&miss(2, 0x9080), 0);
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.serve(1, 0x9040, 128), Ok(()));
        assert_eq!(m.serve(2, 0x9040, 128), Ok(()));
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.served(), 2);
    }

    #[test]
    fn double_serve_is_flagged() {
        let mut m = FunctionalModel::new();
        m.accept(&miss(1, 0x9040), 0);
        assert_eq!(m.serve(1, 0x9040, 64), Ok(()));
        assert_eq!(m.serve(1, 0x9040, 64), Err(ServeError::AlreadyServed(1)));
    }

    #[test]
    fn unknown_and_uncovered_serves_are_flagged() {
        let mut m = FunctionalModel::new();
        m.accept(&miss(1, 0x9040), 0);
        assert_eq!(m.serve(9, 0x9040, 64), Err(ServeError::Unknown(9)));
        assert_eq!(
            m.serve(1, 0x9080, 64),
            Err(ServeError::OutsideSpan { raw_id: 1, line: 0x9040 })
        );
        // A failed serve leaves the request pending.
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn unaligned_access_is_tracked_by_line() {
        let mut m = FunctionalModel::new();
        m.accept(&miss(1, 0x9078), 0); // inside the line at 0x9040
        assert_eq!(m.serve(1, 0x9040, 64), Ok(()));
    }
}
