//! Transaction-recovery policy for the DMC boundary.
//!
//! A [`RecoveryConfig`] arms the simulator's recovery layer: every
//! request dispatched to the memory device is sequence-tagged and
//! watched; responses that never arrive (drops), arrive twice
//! (duplicates), arrive too late (stuck queues), or echo the wrong
//! address (tag mix-ups) are repaired by bounded retry instead of
//! merely being flagged by the lockstep oracle.
//!
//! Same discipline as [`TraceConfig`](crate::trace::TraceConfig): the
//! disabled config costs one branch on the response path and nothing
//! else, so clean-path cycle counts are bit-identical with recovery
//! off. The conformance binary's `--recover` mode proves both halves —
//! oracle-silent faulted runs with recovery on, exact reproduction of
//! the committed cycle table (`crates/pac-bench/reference/cycles.txt`)
//! with recovery off.

use crate::Cycle;

/// Policy knobs for the transaction-recovery layer.
///
/// The watchdog deadline for attempt `n` (1-based) is
/// `watchdog_timeout * 2^(n-1)`, capped at `backoff_cap` — classic
/// bounded exponential backoff. A transaction that exhausts
/// `max_retries` attempts triggers the quiesce/drain abort path: the
/// run terminates with a structured `RecoveryReport` instead of
/// wedging against the cycle limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Master switch. `false` keeps the layer entirely unallocated:
    /// no tags, no deadlines, no per-response bookkeeping.
    pub enabled: bool,
    /// Cycles a dispatched request may stay unanswered before the
    /// watchdog reissues it. Must sit far above the worst legitimate
    /// service latency (a few thousand cycles for the modelled HMC) and
    /// far below any oracle latency bound, so retried responses still
    /// count as timely.
    pub watchdog_timeout: Cycle,
    /// Retry budget per transaction. Attempt counts past this trigger
    /// the quiesce/drain abort instead of another reissue.
    pub max_retries: u32,
    /// Upper bound on a single backoff interval; keeps the doubling
    /// schedule from pushing deadlines past practical cycle limits.
    pub backoff_cap: Cycle,
}

impl RecoveryConfig {
    /// Recovery off — the default, and the mode every published
    /// benchmark number is measured in.
    pub fn disabled() -> Self {
        RecoveryConfig { enabled: false, watchdog_timeout: 0, max_retries: 0, backoff_cap: 0 }
    }

    /// Recovery on with defaults matched to the stock [`FaultPlan`]
    /// (`rate 32/1024`, budget 4, 5M-cycle delays): a 50k-cycle
    /// watchdog with doubling backoff capped at 400k cycles and six
    /// attempts. Even a victim whose every retry re-faults until the
    /// injection budget drains converges in well under 2M cycles.
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    pub fn enabled() -> Self {
        RecoveryConfig {
            enabled: true,
            watchdog_timeout: 50_000,
            max_retries: 6,
            backoff_cap: 400_000,
        }
    }

    /// Watchdog interval for the given 1-based attempt number:
    /// `watchdog_timeout * 2^(attempt-1)`, saturating, capped at
    /// `backoff_cap`.
    pub fn backoff(&self, attempt: u32) -> Cycle {
        let doubled = self
            .watchdog_timeout
            .saturating_mul(1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX));
        doubled.min(self.backoff_cap.max(self.watchdog_timeout))
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let cfg = RecoveryConfig::enabled();
        assert_eq!(cfg.backoff(1), 50_000);
        assert_eq!(cfg.backoff(2), 100_000);
        assert_eq!(cfg.backoff(3), 200_000);
        assert_eq!(cfg.backoff(4), 400_000);
        assert_eq!(cfg.backoff(5), 400_000, "cap holds");
        assert_eq!(cfg.backoff(200), 400_000, "huge attempts saturate, no overflow");
    }

    #[test]
    fn backoff_never_undershoots_the_base_timeout() {
        // A cap below the base timeout must not shrink the first interval.
        let cfg = RecoveryConfig { backoff_cap: 10, ..RecoveryConfig::enabled() };
        assert_eq!(cfg.backoff(1), 50_000);
    }

    #[test]
    fn default_is_disabled() {
        assert_eq!(RecoveryConfig::default(), RecoveryConfig::disabled());
        assert!(!RecoveryConfig::default().enabled);
    }
}
