//! Golden-model oracle for the PAC memory system.
//!
//! The coalescers in `pac-core` are *timed* models: pipelined stages,
//! cycle accounting, backpressure. This crate holds their *untimed*
//! counterpart — a deliberately simple functional model whose entire
//! contract is "every accepted request eventually yields exactly one
//! response covering the right addresses" — plus a lockstep checker that
//! observes a timed run event by event and flags any divergence from
//! that contract as a typed [`Violation`].
//!
//! The checker is validated the only way a checker can be: by proving it
//! *catches* deliberately injected faults (`FaultPlan` in `pac-types`,
//! injected by `hmc-sim`, swept by the `conformance` binary in
//! `pac-bench`). A checker that has never flagged anything is
//! indistinguishable from a checker that cannot.
//!
//! The invariants (see [`Invariant`]) cover the paper's structural
//! claims: no lost or duplicated responses, block-map bits only over
//! requested blocks, fences flushing stage 1, MSHR subentries within the
//! 2-bit field's budget, the MAQ never over capacity, and the
//! `would_accept`/`push_raw` admission agreement the event-driven clock
//! relies on.

pub mod checker;
mod idset;
pub mod invariant;
pub mod model;

pub use checker::{LockstepChecker, OracleConfig, OracleReport};
pub use invariant::{Invariant, Violation};
pub use model::FunctionalModel;
