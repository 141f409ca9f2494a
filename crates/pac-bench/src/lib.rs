//! The figure/table regeneration harness.
//!
//! Every table and figure of the paper's evaluation (Sec 5) has a
//! function here that reruns the underlying experiment and formats the
//! same rows/series the paper reports, alongside the paper's published
//! value where one is stated. The `figures` binary exposes them as
//! subcommands; EXPERIMENTS.md records a captured run.
//!
//! Methodology: efficiency, bandwidth, power, and latency figures use
//! **trace replay** — the canonical raw request stream is captured once
//! per benchmark from a stock-controller run and replayed through every
//! coalescer, exactly as the paper feeds one Spike trace to each
//! coalescer model. Only Fig 15 (end-to-end performance) uses fully
//! execution-driven runs, since it measures the feedback between the
//! memory system and the cores.

pub mod chart;
pub mod conformance;
pub mod diff;
pub mod error;
pub mod figures;
pub mod harness;
pub mod matrix;
pub mod paper;
pub mod reference;
pub mod runner;
pub mod trace_cmd;

pub use error::BenchError;
pub use harness::Harness;
pub use matrix::{matrix, MatrixCell};
pub use runner::ParallelRunner;
