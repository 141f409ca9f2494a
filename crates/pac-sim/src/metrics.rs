//! Per-run metrics — the raw material for every figure in the paper.

use hmc_sim::{EnergyBreakdown, EnergyClass};
use pac_types::cycles_to_ns;

/// Everything measured in one simulation run.
///
/// Derives `PartialEq` so the skip-ahead equivalence tests can assert
/// bit-identical results against the cycle-by-cycle reference.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Coalescer configuration label ("raw" / "mshr-dmc" / "pac").
    pub coalescer: &'static str,
    /// Total cycles until every core finished and the system drained.
    pub runtime_cycles: u64,
    /// Raw requests the LLC flushed toward memory.
    pub raw_requests: u64,
    /// Requests dispatched to the memory controller.
    pub dispatched_requests: u64,
    /// Eq. 1.
    pub coalescing_efficiency: f64,
    /// Address comparisons performed by the coalescer.
    pub comparisons: u64,
    /// Closed-page bank conflicts in the HMC.
    pub bank_conflicts: u64,
    /// Requests the HMC accepted (== dispatched).
    pub hmc_requests: u64,
    /// Payload bytes moved.
    pub payload_bytes: u64,
    /// Total link bytes including control overhead.
    pub transaction_bytes: u64,
    /// Eq. 2 over the whole run.
    pub transaction_efficiency: f64,
    /// Average end-to-end memory latency, ns.
    pub avg_mem_latency_ns: f64,
    /// Remote-route fraction of HMC requests.
    pub remote_route_fraction: f64,
    /// Energy by operation class.
    pub energy: EnergyBreakdown,
    /// Average occupied coalescing streams (PAC only).
    pub avg_stream_occupancy: f64,
    /// PAC pipeline stage latencies, cycles (PAC only).
    pub avg_stage2_latency: f64,
    pub avg_stage3_latency: f64,
    /// Average MAQ fill latency, ns (PAC only).
    pub avg_maq_fill_ns: f64,
    /// Fraction of raw requests bypassing stages 2–3 (PAC only).
    pub bypass_fraction: f64,
    /// Dispatched request size distribution `(payload bytes, count)`.
    pub size_histogram: Vec<(u64, u64)>,
    /// PAC stream-occupancy trace (when enabled).
    pub occupancy_trace: Vec<u32>,
    /// Cache hit rates.
    pub l1_hit_rate: f64,
    pub l2_hit_rate: f64,
    /// LLC prefetch fills issued.
    pub prefetches: u64,
    /// Raw requests that skipped the disabled network (PAC only).
    pub network_bypasses: u64,
    /// Raw requests absorbed into in-flight MSHR entries.
    pub mshr_merges: u64,
    /// Refused admission events (one per rejected push across all
    /// cores and the side queue — can exceed `runtime_cycles`).
    pub stall_cycles: u64,
}

impl RunMetrics {
    /// Build metrics from coalescer + device state. Cache-hierarchy and
    /// prefetch fields are zero unless provided by the caller (trace
    /// replay has no cache front-end).
    pub fn from_parts(
        label: &'static str,
        runtime_cycles: u64,
        cs: &pac_core::CoalescerStats,
        hs: &hmc_sim::HmcStats,
        energy: EnergyBreakdown,
        bank_conflicts: u64,
    ) -> RunMetrics {
        RunMetrics {
            coalescer: label,
            runtime_cycles,
            raw_requests: cs.raw_requests,
            dispatched_requests: cs.dispatched_requests,
            coalescing_efficiency: cs.coalescing_efficiency(),
            comparisons: cs.comparisons,
            bank_conflicts,
            hmc_requests: hs.requests,
            payload_bytes: hs.payload_bytes,
            transaction_bytes: hs.transaction_bytes,
            transaction_efficiency: hs.transaction_efficiency(),
            avg_mem_latency_ns: hs.avg_latency_ns(),
            remote_route_fraction: if hs.requests == 0 {
                0.0
            } else {
                hs.remote_routes as f64 / hs.requests as f64
            },
            energy,
            avg_stream_occupancy: cs.avg_stream_occupancy(),
            avg_stage2_latency: cs.avg_stage2_latency(),
            avg_stage3_latency: cs.avg_stage3_latency(),
            avg_maq_fill_ns: cycles_to_ns(1) * cs.avg_maq_fill_latency(),
            bypass_fraction: cs.bypass_proportion(),
            size_histogram: cs.size_histogram.iter().collect(),
            occupancy_trace: cs.occupancy_trace.clone(),
            l1_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            prefetches: 0,
            network_bypasses: cs.network_bypasses,
            mshr_merges: cs.mshr_merges,
            stall_cycles: cs.stall_cycles,
        }
    }

    /// Runtime speedup of `self` relative to `baseline` (>0 = faster).
    pub fn speedup_vs(&self, baseline: &RunMetrics) -> f64 {
        baseline.runtime_cycles as f64 / self.runtime_cycles as f64 - 1.0
    }

    /// Fractional bank-conflict reduction vs. `baseline`.
    pub fn conflict_reduction_vs(&self, baseline: &RunMetrics) -> f64 {
        if baseline.bank_conflicts == 0 {
            0.0
        } else {
            1.0 - self.bank_conflicts as f64 / baseline.bank_conflicts as f64
        }
    }

    /// Bytes of link traffic avoided vs. `baseline`.
    pub fn bandwidth_saving_vs(&self, baseline: &RunMetrics) -> i64 {
        baseline.transaction_bytes as i64 - self.transaction_bytes as i64
    }

    /// Overall energy saving vs. `baseline` (1 - self/baseline).
    pub fn energy_saving_vs(&self, baseline: &RunMetrics) -> f64 {
        self.energy.total_saving_vs(&baseline.energy).unwrap_or(0.0)
    }

    /// Per-class energy saving vs. `baseline`.
    pub fn class_energy_saving_vs(
        &self,
        baseline: &RunMetrics,
        class: EnergyClass,
    ) -> Option<f64> {
        self.energy.saving_vs(&baseline.energy, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(runtime: u64, conflicts: u64, txn_bytes: u64) -> RunMetrics {
        RunMetrics {
            coalescer: "test",
            runtime_cycles: runtime,
            raw_requests: 100,
            dispatched_requests: 50,
            coalescing_efficiency: 0.5,
            comparisons: 0,
            bank_conflicts: conflicts,
            hmc_requests: 50,
            payload_bytes: 0,
            transaction_bytes: txn_bytes,
            transaction_efficiency: 0.0,
            avg_mem_latency_ns: 0.0,
            remote_route_fraction: 0.0,
            energy: EnergyBreakdown::new(),
            avg_stream_occupancy: 0.0,
            avg_stage2_latency: 0.0,
            avg_stage3_latency: 0.0,
            avg_maq_fill_ns: 0.0,
            bypass_fraction: 0.0,
            size_histogram: Vec::new(),
            occupancy_trace: Vec::new(),
            l1_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            prefetches: 0,
            network_bypasses: 0,
            mshr_merges: 0,
            stall_cycles: 0,
        }
    }

    #[test]
    fn speedup_is_relative_runtime() {
        let base = metrics(1200, 0, 0);
        let fast = metrics(1000, 0, 0);
        assert!((fast.speedup_vs(&base) - 0.2).abs() < 1e-12);
        assert!((base.speedup_vs(&fast) + 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn conflict_reduction_handles_zero_baseline() {
        let base = metrics(1, 0, 0);
        let other = metrics(1, 10, 0);
        assert_eq!(other.conflict_reduction_vs(&base), 0.0);
        let base = metrics(1, 100, 0);
        let better = metrics(1, 25, 0);
        assert!((better.conflict_reduction_vs(&base) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_saving_can_be_negative() {
        let base = metrics(1, 0, 1000);
        let worse = metrics(1, 0, 1500);
        assert_eq!(worse.bandwidth_saving_vs(&base), -500);
        assert_eq!(base.bandwidth_saving_vs(&worse), 500);
    }

    #[test]
    fn energy_saving_defaults_to_zero_on_empty_baseline() {
        let a = metrics(1, 0, 0);
        let b = metrics(1, 0, 0);
        assert_eq!(a.energy_saving_vs(&b), 0.0);
        assert!(a.class_energy_saving_vs(&b, EnergyClass::VaultCtrl).is_none());
    }
}
