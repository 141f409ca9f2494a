//! Full-system simulator: trace-driven cores → cache hierarchy →
//! coalescer (PAC / MSHR-DMC / none) → HMC device.
//!
//! This crate reproduces the paper's simulation infrastructure
//! (Sec 5.1): the extended Spike tracing raw requests from multiple
//! RISC-V cores is replaced by [`core::CoreState`] driving the workload
//! generators through [`cache_sim`]'s hierarchy, and HMC-Sim 3.0 by
//! [`hmc_sim`]'s device model. The coalescer under test is selected per
//! run via [`CoalescerKind`], giving the three configurations of the
//! evaluation: the stock controller, the conventional MSHR-based DMC,
//! and PAC.
//!
//! One run loop serves every experiment: [`system::System`] drives a
//! front end — the execution-driven cores of [`SimSystem`], or the
//! captured-trace feed of [`replay()`] — over one shared memory side.
//!
//! [`experiment`] offers one-call experiment execution (optionally in
//! parallel across benchmarks) returning the [`metrics::RunMetrics`]
//! every figure is derived from.
//!
//! # Example
//!
//! Capture a benchmark's raw request trace once and evaluate two
//! coalescers on the identical stream (the paper's methodology):
//!
//! ```
//! use pac_sim::{replay, run_bench, CoalescerKind, ExperimentConfig};
//! use pac_workloads::Bench;
//!
//! let cfg = ExperimentConfig {
//!     accesses_per_core: 1000,
//!     capture_trace: true,
//!     ..Default::default()
//! };
//! let (_, trace) = run_bench(Bench::Ep, CoalescerKind::Raw, &cfg);
//! let raw = replay(&trace, CoalescerKind::Raw, &cfg.sim);
//! let pac = replay(&trace, CoalescerKind::Pac, &cfg.sim);
//! assert_eq!(raw.coalescing_efficiency, 0.0);
//! assert!(pac.coalescing_efficiency > raw.coalescing_efficiency);
//! assert!(pac.transaction_bytes < raw.transaction_bytes);
//! ```

pub mod core;
pub mod experiment;
pub mod metrics;
pub mod recovery;
pub mod replay;
pub mod system;
pub mod trace_json;

pub use experiment::{run_bench, run_pair, run_specs, ExperimentConfig};
pub use metrics::RunMetrics;
pub use recovery::{RecoveryLayer, RecoveryReport, ResponseVerdict, StuckTxn, WatchdogAction};
pub use replay::{replay, replay_served, replay_with};
pub use system::{
    run_lockstep, CoalescerKind, LockstepOutcome, RunProgress, SimSystem, Stepping, TraceEntry,
};
