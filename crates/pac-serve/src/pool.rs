//! In-process supervised fan-out: the scheduler's retry/quarantine
//! semantics for ephemeral job lists that need no journal.
//!
//! [`run_supervised`] is the drop-in replacement for a bare
//! `ParallelRunner::run` when jobs might panic: each panic is caught,
//! the job retried under the campaign's deterministic backoff schedule,
//! and — after the attempt budget — handed to a quarantine closure that
//! synthesizes a failed result so the batch's shape is preserved. The
//! claim discipline matches `ParallelRunner`: workers claim job indices
//! from a shared atomic counter and write results into per-index slots,
//! so the output order equals the input order at any thread count.
//!
//! `pac-bench`'s conformance matrices fan out through this pool: one
//! wedged or panicking cell degrades to a quarantined entry in the
//! report instead of tearing down the whole campaign.

use crate::backoff::BackoffConfig;
use pac_types::SupervisorStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Supervision policy for one fan-out.
#[derive(Debug, Clone, Copy)]
pub struct SupervisePolicy {
    /// Attempts per job before quarantine (minimum 1).
    pub max_attempts: u32,
    /// Retry spacing.
    pub backoff: BackoffConfig,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy { max_attempts: 2, backoff: BackoffConfig::fast(), seed: 0 }
    }
}

/// Panic payload rendered as a failure reason.
fn panic_reason(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Fan `jobs` across `threads` workers with panic supervision.
///
/// `run(index, job)` produces a result and may panic; a panicking
/// attempt is retried after the policy's backoff delay, and once the
/// budget is exhausted `quarantine(index, job, reason)` synthesizes the
/// slot's result. Results come back in input order. The returned
/// [`SupervisorStats`] counts leases (attempts started), retries, and
/// quarantines.
pub fn run_supervised<J, R, F, Q>(
    threads: usize,
    jobs: &[J],
    policy: &SupervisePolicy,
    run: F,
    quarantine: Q,
) -> (Vec<R>, SupervisorStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    Q: Fn(usize, &J, &str) -> R + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();
    let stats = Mutex::new(SupervisorStats::default());
    let max_attempts = policy.max_attempts.max(1);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    return;
                }
                let job = &jobs[i];
                let mut attempt = 1u32;
                let result = loop {
                    {
                        stats.lock().unwrap().leases += 1;
                    }
                    match catch_unwind(AssertUnwindSafe(|| run(i, job))) {
                        Ok(r) => break r,
                        Err(panic) => {
                            let reason = format!("panic: {}", panic_reason(panic));
                            if attempt >= max_attempts {
                                stats.lock().unwrap().quarantined += 1;
                                break quarantine(i, job, &reason);
                            }
                            let delay =
                                policy.backoff.delay_ms(policy.seed, i as u64, attempt);
                            stats.lock().unwrap().retries += 1;
                            std::thread::sleep(std::time::Duration::from_millis(delay));
                            attempt += 1;
                        }
                    }
                };
                // Each index is claimed exactly once, so the slot is
                // always empty.
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every claimed slot is filled"))
        .collect();
    (results, stats.into_inner().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_preserve_input_order_at_any_width() {
        let jobs: Vec<u64> = (0..40).collect();
        let policy = SupervisePolicy::default();
        for threads in [1, 3, 8] {
            let (out, stats) =
                run_supervised(threads, &jobs, &policy, |_, j| j * 2, |_, _, _| u64::MAX);
            assert_eq!(out, jobs.iter().map(|j| j * 2).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(stats.leases, 40);
            assert_eq!(stats.retries, 0);
            assert_eq!(stats.quarantined, 0);
        }
    }

    #[test]
    fn panicking_job_is_retried_then_succeeds() {
        let jobs = vec![0u32, 1, 2];
        let attempts = AtomicU32::new(0);
        let policy = SupervisePolicy { max_attempts: 3, ..SupervisePolicy::default() };
        let (out, stats) = run_supervised(
            2,
            &jobs,
            &policy,
            |_, &j| {
                // Job 1 panics on its first attempt only (a transient).
                if j == 1 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient wobble");
                }
                j + 10
            },
            |_, &j, _| j + 100,
        );
        assert_eq!(out, vec![10, 11, 12], "retry must recover the transient");
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.leases, 4, "three jobs plus one retry");
    }

    #[test]
    fn persistent_panic_is_quarantined_with_reason() {
        let jobs = vec!["ok", "poison", "ok2"];
        let policy = SupervisePolicy { max_attempts: 2, ..SupervisePolicy::default() };
        let (out, stats) = run_supervised(
            2,
            &jobs,
            &policy,
            |_, &j| {
                assert!(j != "poison", "always fails");
                format!("ran:{j}")
            },
            |i, &j, reason| {
                assert!(reason.contains("always fails"), "{reason}");
                format!("quarantined:{i}:{j}")
            },
        );
        assert_eq!(out, vec!["ran:ok", "quarantined:1:poison", "ran:ok2"]);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.retries, 1, "one retry before giving up");
        assert_eq!(stats.leases, 4);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<u8> = vec![];
        let (out, stats) = run_supervised(
            4,
            &jobs,
            &SupervisePolicy::default(),
            |_, &j| j,
            |_, &j, _| j,
        );
        assert!(out.is_empty());
        assert!(stats.is_zero());
    }
}
