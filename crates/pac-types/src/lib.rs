//! Common types shared by every crate in the PAC reproduction.
//!
//! This crate defines the vocabulary of the whole system: physical
//! addresses and their page/block decomposition, raw and coalesced memory
//! requests, the packetized 3D-stacked memory protocols (HMC 1.0/2.1 and
//! HBM), and the simulation configuration mirroring Table 1 of the paper.
//!
//! Nothing here allocates on hot paths beyond what a request inherently
//! carries; all address math is branch-free bit manipulation.

pub mod addr;
pub mod cli;
pub mod config;
pub mod fault;
pub mod hash;
pub mod obs;
pub mod protocol;
pub mod ras;
pub mod recovery;
pub mod request;
pub mod sigwatch;
pub mod snapshot;
pub mod threads;
pub mod trace;

pub use addr::{Addr, BlockId, PageNumber, CACHE_LINE_BYTES, PAGE_BYTES};
pub use config::{
    AddressInterleave, BackendKind, CacheConfig, CoalescerConfig, HbmDeviceConfig, HbmLocation,
    HmcDeviceConfig, SimConfig, SimConfigError,
};
pub use fault::{FaultClass, FaultPlan, FaultPlanError};
pub use hash::{IdHash, IdHasher};
pub use obs::{RunnerStats, StallCycles, SupervisorStats, WorkerStats};
pub use protocol::MemoryProtocol;
pub use ras::{RasClass, RasPlan, RasPlanError, RasStats};
pub use recovery::RecoveryConfig;
pub use request::{CoalescedRequest, MemRequest, Op, RequestKind};
pub use snapshot::{frame, unframe, SnapError, SnapReader, SnapWriter, Snapshot};
pub use threads::{derive_seed, splitmix64, thread_count};
pub use trace::{EventClass, EventClassSet, TraceConfig, TraceMode};

/// Simulation time, in CPU cycles. The paper's cores run at 2 GHz, so one
/// cycle is 0.5 ns; [`cycles_to_ns`] performs that conversion.
pub type Cycle = u64;

/// CPU clock frequency assumed throughout (Table 1: 2 GHz).
pub const CPU_FREQ_GHZ: f64 = 2.0;

/// Convert a cycle count at [`CPU_FREQ_GHZ`] into nanoseconds.
#[inline]
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 / CPU_FREQ_GHZ
}

/// Convert nanoseconds into CPU cycles at [`CPU_FREQ_GHZ`], rounding up.
#[inline]
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * CPU_FREQ_GHZ).ceil() as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_ns_roundtrip() {
        assert_eq!(cycles_to_ns(2), 1.0);
        assert_eq!(ns_to_cycles(1.0), 2);
        assert_eq!(ns_to_cycles(93.0), 186);
    }

    #[test]
    fn ns_to_cycles_rounds_up() {
        assert_eq!(ns_to_cycles(0.3), 1);
        assert_eq!(ns_to_cycles(0.75), 2);
    }
}
