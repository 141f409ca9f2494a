//! Deterministic matrix fan-out: the shared worker pool behind the
//! harness binaries.
//!
//! [`ParallelRunner::run`] schedules jobs across `--threads N` workers
//! and returns results **indexed by job position**, never by completion
//! order — workers claim the next unclaimed index and write into that
//! job's pre-assigned slot. Combined with per-cell seed
//! derivation from the cell's canonical position
//! ([`crate::matrix::MatrixCell::seed`]), every output is a pure
//! function of the job list: the thread count changes wall-clock only.

use crate::error::BenchError;
use pac_types::{RunnerStats, WorkerStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A bounded worker pool with deterministic result ordering.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    threads: usize,
}

impl ParallelRunner {
    /// `threads == 0` means auto: `PAC_THREADS` if set, else the host's
    /// available parallelism (the same resolution every binary's
    /// `--threads` flag uses).
    pub fn new(threads: usize) -> ParallelRunner {
        let resolved =
            pac_types::thread_count(if threads == 0 { None } else { Some(threads) });
        ParallelRunner { threads: resolved.max(1) }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every job; `results[i] == f(i, &jobs[i])` under any
    /// thread schedule. With one thread the jobs run inline in order.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send + Sync,
        F: Fn(usize, &J) -> R + Sync,
    {
        self.run_observed(jobs, f).0
    }

    /// Like [`run`](Self::run), but also reports harness self-metrics:
    /// per-worker cells claimed, busy wall time (inside `f`), and idle
    /// wall time (claim latency plus the tail spent waiting for slower
    /// peers — idle is measured against the full fan-out wall, so a
    /// worker that finishes early shows the imbalance it suffered).
    /// Only the stats are schedule-dependent.
    pub fn run_observed<J, R, F>(&self, jobs: &[J], f: F) -> (Vec<R>, RunnerStats)
    where
        J: Sync,
        R: Send + Sync,
        F: Fn(usize, &J) -> R + Sync,
    {
        let start = Instant::now();
        if self.threads == 1 || jobs.len() <= 1 {
            let mut w = WorkerStats::default();
            let results = jobs
                .iter()
                .enumerate()
                .map(|(i, j)| {
                    let t = Instant::now();
                    let r = f(i, j);
                    w.cells_claimed += 1;
                    w.busy_seconds += t.elapsed().as_secs_f64();
                    r
                })
                .collect();
            let wall = start.elapsed().as_secs_f64();
            w.idle_seconds = (wall - w.busy_seconds).max(0.0);
            return (
                results,
                RunnerStats { wall_seconds: wall, workers: vec![w] },
            );
        }
        let slots: Vec<OnceLock<R>> = (0..jobs.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(jobs.len()) {
                s.spawn(|| {
                    let mut w = WorkerStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let t = Instant::now();
                        let claimed = slots[i].set(f(i, job)).is_ok();
                        w.cells_claimed += 1;
                        w.busy_seconds += t.elapsed().as_secs_f64();
                        debug_assert!(claimed, "job {i} ran twice");
                    }
                    workers.lock().unwrap().push(w);
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let mut workers = workers.into_inner().unwrap();
        for w in &mut workers {
            w.idle_seconds = (wall - w.busy_seconds).max(0.0);
        }
        let results =
            slots.into_iter().map(|slot| slot.into_inner().expect("every job ran")).collect();
        (results, RunnerStats { wall_seconds: wall, workers })
    }
}

/// Refuse any argument that is neither one of `switches` nor a
/// `--threads`, `--backend` or `--progress` value flag (as `--flag V`
/// or `--flag=V`): a typo must never silently select a different mode.
pub fn reject_unknown_args(args: &[String], switches: &[&str]) -> Result<(), BenchError> {
    const VALUED: [&str; 3] = ["--threads", "--backend", "--progress"];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUED.contains(&a.as_str()) {
            it.next();
        } else if !switches.contains(&a.as_str())
            && !VALUED.iter().any(|f| a.strip_prefix(f).is_some_and(|v| v.starts_with('=')))
        {
            return Err(BenchError::Usage(format!("unknown argument '{a}'")));
        }
    }
    Ok(())
}

/// Parse the uniform `--progress <path|->` / `--progress=ARG` flag.
/// Returns `None` when absent — the caller builds a
/// [`pac_obs::ProgressSink`] (disabled when `None`), choosing create vs
/// append mode itself (resumed campaigns append).
pub fn progress_from_args(args: &[String]) -> Result<Option<String>, BenchError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--progress" {
            let Some(v) = it.next() else {
                return Err(BenchError::Usage(
                    "--progress requires a value (a path, or - for stdout)".to_string(),
                ));
            };
            return Ok(Some(v.clone()));
        }
        if let Some(v) = a.strip_prefix("--progress=") {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Parse the uniform `--threads N` / `--threads=N` flag every harness
/// binary exposes. Returns 0 (auto) when absent; a malformed value is
/// a typed [`BenchError::Usage`], reported by the caller.
pub fn threads_from_args(args: &[String]) -> Result<usize, BenchError> {
    let parse = |v: &str| {
        v.parse().map_err(|_| {
            BenchError::Usage(format!(
                "invalid --threads value '{v}' (valid: a worker count, or 0 for auto)"
            ))
        })
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let Some(v) = it.next() else {
                return Err(BenchError::Usage("--threads requires a value".to_string()));
            };
            return parse(v);
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return parse(v);
        }
    }
    Ok(0)
}

/// Parse the uniform `--backend hmc|hbm` / `--backend=NAME` flag.
/// Returns the default ([`pac_types::BackendKind::Hmc`]) when absent;
/// an unknown backend name is a typed [`BenchError::Usage`] listing the
/// valid choices — never a silent fallback.
pub fn backend_from_args(args: &[String]) -> Result<pac_types::BackendKind, BenchError> {
    let valid = || {
        pac_types::BackendKind::ALL
            .iter()
            .map(|b| b.label())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let parse = |v: &str| {
        pac_types::BackendKind::from_name(v).ok_or_else(|| {
            BenchError::Usage(format!("unknown --backend '{v}' (valid: {})", valid()))
        })
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--backend" {
            let Some(v) = it.next() else {
                return Err(BenchError::Usage(format!(
                    "--backend requires a value (valid: {})",
                    valid()
                )));
            };
            return parse(v);
        }
        if let Some(v) = a.strip_prefix("--backend=") {
            return parse(v);
        }
    }
    Ok(pac_types::BackendKind::Hmc)
}

/// Parse the uniform `--ras <plan>` / `--ras=<plan>` flag shared by the
/// harness binaries. Returns `None` when absent. Plan syntax is
/// `<class>[:key=value,...]` ([`pac_types::RasPlan::parse`]); a
/// malformed plan is a typed [`BenchError::Usage`] whose message lists
/// the valid classes and keys — never a silent fallback.
pub fn ras_from_args(args: &[String]) -> Result<Option<pac_types::RasPlan>, BenchError> {
    let parse = |v: &str| {
        pac_types::RasPlan::parse(v)
            .map(Some)
            .map_err(|e| BenchError::Usage(e.to_string()))
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--ras" {
            let Some(v) = it.next() else {
                let classes: Vec<_> =
                    pac_types::RasClass::ALL.iter().map(|c| c.label()).collect();
                return Err(BenchError::Usage(format!(
                    "--ras requires a plan '<class>[:key=value,...]' (classes: {})",
                    classes.join(", ")
                )));
            };
            return parse(v);
        }
        if let Some(v) = a.strip_prefix("--ras=") {
            return parse(v);
        }
    }
    Ok(None)
}

/// Parse a fault-class name into a [`pac_types::FaultClass`]; an
/// unknown name is a typed [`BenchError::Usage`] listing the valid
/// classes, matching the `--backend`/`--ras` parser convention.
pub fn fault_class_from_name(name: &str) -> Result<pac_types::FaultClass, BenchError> {
    pac_types::FaultClass::ALL
        .iter()
        .copied()
        .find(|c| c.label() == name)
        .ok_or_else(|| {
            let valid: Vec<_> = pac_types::FaultClass::ALL.iter().map(|c| c.label()).collect();
            BenchError::Usage(format!(
                "unknown fault class '{name}' (valid: {})",
                valid.join(", ")
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_flag_parses_both_spellings() {
        use pac_types::BackendKind;
        let to = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(backend_from_args(&to(&["--quick"])).unwrap(), BackendKind::Hmc);
        assert_eq!(backend_from_args(&to(&["--backend", "hbm"])).unwrap(), BackendKind::Hbm);
        assert_eq!(backend_from_args(&to(&["--backend=hmc"])).unwrap(), BackendKind::Hmc);
        assert!(backend_from_args(&to(&["--backend"])).is_err());
        let err = backend_from_args(&to(&["--backend", "ddr4"])).unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
        assert!(err.to_string().contains("valid: hmc, hbm"), "{err}");
    }

    #[test]
    fn threads_flag_parses_both_spellings() {
        let to = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(&to(&["--quick"])).unwrap(), 0);
        assert_eq!(threads_from_args(&to(&["--threads", "6"])).unwrap(), 6);
        assert_eq!(threads_from_args(&to(&["--threads=3"])).unwrap(), 3);
        assert!(threads_from_args(&to(&["--threads"])).is_err());
        let err = threads_from_args(&to(&["--threads", "x"])).unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
    }

    #[test]
    fn ras_flag_parses_plans_and_rejects_malformed_ones() {
        use pac_types::RasClass;
        let to = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(ras_from_args(&to(&["--quick"])).unwrap(), None);
        let plan = ras_from_args(&to(&["--ras", "scrub:seed=7"])).unwrap().unwrap();
        assert_eq!(plan.class, RasClass::Scrub);
        assert_eq!(plan.seed, 7);
        let plan = ras_from_args(&to(&["--ras=link-bit-error"])).unwrap().unwrap();
        assert_eq!(plan.class, RasClass::LinkBitError);
        // Missing value, unknown class, and unknown key are all typed
        // usage errors that list the valid choices.
        let err = ras_from_args(&to(&["--ras"])).unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
        assert!(err.to_string().contains("link-bit-error"), "{err}");
        let err = ras_from_args(&to(&["--ras", "cosmic-ray"])).unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
        assert!(err.to_string().contains("unknown ras class 'cosmic-ray'"), "{err}");
        assert!(err.to_string().contains("ecc-single"), "{err}");
        let err = ras_from_args(&to(&["--ras", "scrub:warp=9"])).unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
        assert!(err.to_string().contains("unknown ras field 'warp'"), "{err}");
        assert!(err.to_string().contains("scrub-interval"), "{err}");
    }

    #[test]
    fn fault_class_names_parse_or_list_the_valid_set() {
        use pac_types::FaultClass;
        assert_eq!(fault_class_from_name("corrupt-addr").unwrap(), FaultClass::CorruptAddr);
        assert_eq!(fault_class_from_name("drop-response").unwrap(), FaultClass::DropResponse);
        let err = fault_class_from_name("bit-rot").unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
        assert!(err.to_string().contains("drop-response"), "{err}");
        assert!(err.to_string().contains("corrupt-addr"), "{err}");
    }

    #[test]
    fn results_keep_job_order_at_any_thread_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = jobs.iter().enumerate().map(|(i, j)| j * 3 + i as u64).collect();
        for threads in [1, 2, 3, 8, 64] {
            let r = ParallelRunner::new(threads);
            let got = r.run(&jobs, |i, &j| j * 3 + i as u64);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_resolves_explicit_and_auto() {
        assert_eq!(ParallelRunner::new(5).threads(), 5);
        assert!(ParallelRunner::new(0).threads() >= 1);
    }

    #[test]
    fn empty_and_single_job_lists_work() {
        let r = ParallelRunner::new(4);
        assert!(r.run(&[] as &[u8], |_, &b| b).is_empty());
        assert_eq!(r.run(&[7u8], |i, &b| (i, b)), vec![(0, 7)]);
    }

    #[test]
    fn progress_flag_parses_both_spellings() {
        let to = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(progress_from_args(&to(&["--quick"])).unwrap(), None);
        assert_eq!(
            progress_from_args(&to(&["--progress", "p.jsonl"])).unwrap(),
            Some("p.jsonl".to_string())
        );
        assert_eq!(progress_from_args(&to(&["--progress=-"])).unwrap(), Some("-".to_string()));
        assert!(progress_from_args(&to(&["--progress"])).is_err());
    }

    #[test]
    fn observed_run_matches_plain_run_and_accounts_every_cell() {
        let jobs: Vec<u64> = (0..31).collect();
        let plain = ParallelRunner::new(3).run(&jobs, |i, &j| j * 3 + i as u64);
        for threads in [1, 3, 8] {
            let r = ParallelRunner::new(threads);
            let (got, stats) = r.run_observed(&jobs, |i, &j| j * 3 + i as u64);
            assert_eq!(got, plain, "threads={threads}");
            assert_eq!(stats.cells(), jobs.len() as u64, "threads={threads}");
            assert_eq!(stats.workers.len(), threads.min(jobs.len()), "threads={threads}");
            assert!(stats.wall_seconds >= 0.0);
            let util = stats.utilization();
            assert!((0.0..=1.0).contains(&util), "threads={threads} util={util}");
        }
    }

    #[test]
    fn full_matrix_fans_out_deterministically() {
        // The satellite contract: 42 cells, merged output independent
        // of thread count.
        let cells = crate::matrix::matrix();
        let serial = ParallelRunner::new(1).run(&cells, |_, c| c.label());
        let wide = ParallelRunner::new(7).run(&cells, |_, c| c.label());
        assert_eq!(serial.len(), 42);
        assert_eq!(serial, wide);
    }
}
