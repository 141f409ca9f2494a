//! The repository benchmark.
//!
//! Four workloads time the simulator from outside, through each layer's
//! public functions, and gate every timed operation on exact simulated
//! statistics ([`gate`]). An untraced run ([`workloads::run`]) gives the
//! end-to-end metrics; a separate traced run ([`layers::run`]) gives the
//! per-layer ones. `README.md` beside this crate holds the metric table
//! and the reasoning behind each workload.

pub mod gate;
pub mod host;
pub mod isolate;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// This crate's directory: references live under it, and run outputs go
/// to its `out/` subdirectory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Environment variables the simulator reads silently; any of them
/// would change what the benchmark measures.
pub const FORBIDDEN_ENV: [&str; 5] =
    ["PAC_SHARDS", "PAC_STEPPING", "PAC_QUICK", "PAC_ACCESSES", "PAC_THREADS"];

/// The forbidden variables that are set, if any.
pub fn forbidden_env() -> Vec<&'static str> {
    FORBIDDEN_ENV.into_iter().filter(|v| std::env::var_os(v).is_some()).collect()
}
