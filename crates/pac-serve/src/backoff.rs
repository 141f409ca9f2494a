//! Deterministic bounded exponential backoff for cell retries.
//!
//! The schedule is a pure function of `(policy, campaign seed, cell,
//! attempt)`: re-running a campaign with the same seed reproduces the
//! identical retry spacing, so a flaky-looking failure can be replayed
//! exactly. Jitter comes from [`pac_types::splitmix64`] over the derived
//! cell/attempt seed, not from the clock.

use pac_types::{derive_seed, splitmix64};

/// Bounded exponential backoff policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per additional failed attempt.
    pub factor: u32,
    /// Ceiling on any single delay, in milliseconds.
    pub cap_ms: u64,
    /// Jitter span as a fraction of the computed delay, in percent
    /// (0 = fully deterministic spacing, 50 = up to +50%).
    pub jitter_percent: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        // Campaign cells are seconds-sized; a sub-second first retry
        // with doubling and a 10 s cap keeps a poisoned cell from
        // monopolising wall-clock while still spacing genuine
        // transients apart.
        BackoffConfig { base_ms: 50, factor: 2, cap_ms: 10_000, jitter_percent: 25 }
    }
}

impl BackoffConfig {
    /// A near-immediate schedule for tests.
    pub fn fast() -> Self {
        BackoffConfig { base_ms: 1, factor: 2, cap_ms: 20, jitter_percent: 0 }
    }

    /// Delay before retry number `attempt` (1 = first retry) of `cell`
    /// under campaign `seed`, in milliseconds. Exponential in the
    /// attempt, capped, with seeded jitter added on top (the cap bounds
    /// the pre-jitter delay, so the true ceiling is
    /// `cap_ms * (1 + jitter_percent/100)`).
    pub fn delay_ms(&self, seed: u64, cell: u64, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_ms
            .saturating_mul(u64::from(self.factor).saturating_pow(exp))
            .min(self.cap_ms);
        if self.jitter_percent == 0 || raw == 0 {
            return raw;
        }
        let mut s = derive_seed(derive_seed(seed, cell), u64::from(attempt));
        let span = raw * u64::from(self.jitter_percent) / 100;
        raw + if span == 0 { 0 } else { splitmix64(&mut s) % (span + 1) }
    }

    /// The whole schedule for one cell up to `max_attempts` total
    /// attempts (so `max_attempts - 1` retry delays).
    pub fn schedule(&self, seed: u64, cell: u64, max_attempts: u32) -> Vec<u64> {
        (1..max_attempts).map(|a| self.delay_ms(seed, cell, a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        let cfg = BackoffConfig::default();
        for cell in 0..8u64 {
            assert_eq!(
                cfg.schedule(0xC4A05, cell, 6),
                cfg.schedule(0xC4A05, cell, 6),
                "cell {cell}: same inputs must give the same schedule"
            );
        }
        // A different campaign seed decorrelates the jitter.
        assert_ne!(cfg.schedule(1, 0, 6), cfg.schedule(2, 0, 6));
        // Different cells under one seed decorrelate too.
        assert_ne!(cfg.schedule(7, 0, 6), cfg.schedule(7, 1, 6));
    }

    #[test]
    fn growth_is_exponential_until_the_cap() {
        let cfg =
            BackoffConfig { base_ms: 100, factor: 2, cap_ms: 1000, jitter_percent: 0 };
        let sched = cfg.schedule(0, 0, 8);
        assert_eq!(sched, vec![100, 200, 400, 800, 1000, 1000, 1000]);
    }

    #[test]
    fn jitter_stays_within_its_span() {
        let cfg =
            BackoffConfig { base_ms: 100, factor: 2, cap_ms: 10_000, jitter_percent: 25 };
        for cell in 0..64u64 {
            for attempt in 1..6 {
                let d = cfg.delay_ms(0xBEEF, cell, attempt);
                let raw = (100u64 * 2u64.pow(attempt - 1)).min(10_000);
                assert!(
                    d >= raw && d <= raw + raw / 4,
                    "cell {cell} attempt {attempt}: {d} outside [{raw}, {}]",
                    raw + raw / 4
                );
            }
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let cfg = BackoffConfig::default();
        let d = cfg.delay_ms(0, 0, u32::MAX);
        assert!(d >= cfg.cap_ms);
        assert!(d <= cfg.cap_ms + cfg.cap_ms * u64::from(cfg.jitter_percent) / 100);
    }
}
