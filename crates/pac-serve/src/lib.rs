//! `pac-serve`: the crash-safe campaign scheduler.
//!
//! Runs campaign specs (bench × coalescer × backend × fault cells)
//! under full crash safety: every state transition lives in a durable
//! append-only JSONL journal (fsync'd, checksummed, replayable after
//! `kill -9`), workers are supervised with heartbeat watchdogs and
//! bounded-backoff retries, poisoned cells are quarantined after a
//! fixed attempt budget, and long cells preempt through PACSNAP1
//! checkpoints. The [`chaos`] harness kills the scheduler process
//! itself at seeded points and proves recovery: no cell lost, none
//! double-counted, every result bit-identical to an uninterrupted run.
//!
//! Module map:
//!
//! * [`spec`] — campaign specification and cell enumeration
//! * [`journal`] — the durable write-ahead journal and its replay
//! * [`cell`] — executing one cell (build / restore / advance / verify)
//! * [`backoff`] — deterministic seeded retry schedules
//! * [`scheduler`] — the supervised scheduler main loop
//! * [`pool`] — in-process supervised fan-out (no journal) for
//!   `pac-bench`'s conformance matrices
//! * [`chaos`] — the self-kill chaos harness and its verifier

pub mod backoff;
pub mod cell;
pub mod chaos;
pub mod journal;
pub mod pool;
pub mod scheduler;
pub mod spec;

pub use backoff::BackoffConfig;
pub use journal::{CellFingerprint, CellStatus, Journal, Record, Replay};
pub use pool::{run_supervised, SupervisePolicy};
pub use scheduler::{run_fresh, run_resumed, CampaignReport, SchedulerConfig};
pub use spec::{CampaignSpec, CellSpec};
