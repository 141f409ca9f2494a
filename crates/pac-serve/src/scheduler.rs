//! The crash-safe campaign scheduler: durable journal, supervised
//! worker slots with heartbeat watchdogs, bounded-backoff retry,
//! poison quarantine, and preemption via PACSNAP1 checkpoints.
//!
//! ## Design
//!
//! The scheduler thread (the caller of [`run_fresh`]/[`run_resumed`])
//! owns the journal and all campaign state; worker threads own nothing
//! but the cell they are executing. Work flows through per-slot
//! mailboxes — the scheduler journals a `lease` record *before*
//! handing a job to a slot (write-ahead discipline: every transition
//! is durable before anyone acts on it), and results come back over
//! one mpsc channel.
//!
//! ## Supervision
//!
//! Workers beat a per-slot atomic heartbeat between simulation slices.
//! A slot whose heartbeat goes stale past the watchdog timeout is
//! **abandoned**: its lease is revoked (a late result is discarded by
//! slot/lease mismatch), the attempt is journaled as failed, and the
//! job re-enters the queue with backoff. The wedged thread is left
//! parked (threads cannot be killed); a replacement slot is spawned
//! while the respawn budget lasts, after which concurrency degrades
//! gracefully — the campaign keeps completing healthy cells at reduced
//! width.
//!
//! ## Determinism
//!
//! Every cell's result is a pure function of its [`CellSpec`]
//! (`tests/checkpoint_resume_equivalence.rs` proves checkpoint
//! round-trips are bit-identical), so the campaign's per-cell
//! fingerprints are independent of worker count, preemption points,
//! crashes, and retries. The chaos harness ([`crate::chaos`]) leans on
//! exactly this.

use crate::backoff::BackoffConfig;
use crate::cell::{self, CellStep};
use crate::journal::{CellStatus, Journal, Record, Replay};
use crate::spec::{CampaignSpec, CellSpec};
use pac_obs::{CellId, ProgressSink};
use pac_types::SupervisorStats;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler knobs (everything but the campaign spec itself).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Journal file path.
    pub journal_path: PathBuf,
    /// Directory for per-cell preemption checkpoints.
    pub ckpt_dir: PathBuf,
    /// Retry backoff policy.
    pub backoff: BackoffConfig,
    /// Wall-clock heartbeat watchdog, in milliseconds.
    pub heartbeat_timeout_ms: u64,
    /// Replacement worker slots available after abandonments.
    pub respawn_budget: u32,
    /// Progress stream (disabled = silent).
    pub progress: ProgressSink,
    /// Cooperative drain flag, typically latched by a SIGINT/SIGTERM
    /// handler: when set, no new leases are granted and the campaign
    /// drains to a clean `drain reason=signal` journal record.
    pub drain: Arc<AtomicBool>,
}

impl SchedulerConfig {
    /// Config with all state files under `state_dir`.
    pub fn in_dir(state_dir: &Path) -> SchedulerConfig {
        SchedulerConfig {
            journal_path: state_dir.join("journal.jsonl"),
            ckpt_dir: state_dir.join("ckpt"),
            backoff: BackoffConfig::default(),
            heartbeat_timeout_ms: 30_000,
            respawn_budget: 2,
            progress: ProgressSink::disabled(),
            drain: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Final campaign report: per-cell terminal states plus supervision
/// counters.
#[derive(Debug)]
pub struct CampaignReport {
    /// Terminal status per cell, in spec enumeration order.
    pub cells: Vec<CellStatus>,
    /// Supervision counters for this segment.
    pub stats: SupervisorStats,
    /// `complete`, `signal`, or `partial`.
    pub drain_reason: String,
    /// Wall seconds this segment ran.
    pub wall_seconds: f64,
}

impl CampaignReport {
    /// Cells that finished with a verified result.
    pub fn done(&self) -> u64 {
        self.cells.iter().filter(|c| matches!(c, CellStatus::Done(_))).count() as u64
    }

    /// Cells quarantined.
    pub fn quarantined(&self) -> u64 {
        self.cells.iter().filter(|c| matches!(c, CellStatus::Quarantined { .. })).count() as u64
    }

    /// Cells neither done nor quarantined (a signal drain left them).
    pub fn pending(&self) -> u64 {
        self.cells.iter().filter(|c| matches!(c, CellStatus::Pending)).count() as u64
    }

    /// Every cell done: the campaign fully succeeded.
    pub fn complete(&self) -> bool {
        self.done() == self.cells.len() as u64
    }

    /// Process exit code: 0 complete, 3 partial (quarantined or
    /// undrained cells remain), matching the CLI contract.
    pub fn exit_code(&self) -> i32 {
        if self.complete() {
            0
        } else {
            3
        }
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "campaign report:");
        let _ = writeln!(out, "  cells done        : {}/{}", self.done(), self.cells.len());
        let _ = writeln!(out, "  cells quarantined : {}", self.quarantined());
        let _ = writeln!(out, "  cells pending     : {}", self.pending());
        let _ = writeln!(out, "  leases granted    : {}", self.stats.leases);
        let _ = writeln!(out, "  retries           : {}", self.stats.retries);
        let _ = writeln!(out, "  preemptions       : {}", self.stats.preemptions);
        let _ = writeln!(out, "  heartbeat timeouts: {}", self.stats.heartbeat_timeouts);
        let _ = writeln!(out, "  workers abandoned : {}", self.stats.workers_abandoned);
        let _ = writeln!(out, "  drain reason      : {}", self.drain_reason);
        let _ = writeln!(out, "  wall seconds      : {:.1}", self.wall_seconds);
        for (i, c) in self.cells.iter().enumerate() {
            if let CellStatus::Quarantined { attempts, reason } = c {
                let _ =
                    writeln!(out, "  QUARANTINED cell {i} after {attempts} attempt(s): {reason}");
            }
        }
        out
    }
}

/// One unit of queued work: an attempt of a cell, possibly resuming
/// from a checkpoint.
#[derive(Debug, Clone)]
struct Job {
    cell: CellSpec,
    attempt: u32,
    eligible_at: Instant,
    ckpt: Option<PathBuf>,
}

/// What a worker sends back for one lease.
struct WorkerMsg {
    slot: u64,
    lease: u64,
    outcome: Result<CellStep, String>,
    wall_ms: u64,
}

enum Directive {
    Run { job: Job, lease: u64 },
    Exit,
}

/// Worker-side handle: mailbox plus heartbeat.
struct Mailbox {
    directive: Mutex<Option<Directive>>,
    cv: Condvar,
    /// Milliseconds since the scheduler epoch at the last beat.
    heartbeat: AtomicU64,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox { directive: Mutex::new(None), cv: Condvar::new(), heartbeat: AtomicU64::new(0) }
    }

    fn put(&self, d: Directive) {
        *self.directive.lock().unwrap() = Some(d);
        self.cv.notify_one();
    }

    fn take(&self) -> Directive {
        let mut guard = self.directive.lock().unwrap();
        loop {
            if let Some(d) = guard.take() {
                return d;
            }
            guard = self.cv.wait(guard).unwrap();
        }
    }
}

/// Scheduler-side view of one worker slot. The dispatched job rides
/// with the lease so an abandonment can requeue it.
struct Slot {
    id: u64,
    mailbox: Arc<Mailbox>,
    lease: Option<(u64, Job)>,
    handle: Option<JoinHandle<()>>,
}

/// Test hook: wedge the worker (no heartbeat) before running a cell.
/// `PAC_SERVE_TEST_HANG_NAME=<campaign>` scopes the hook to one
/// campaign (so parallel tests cannot trip each other),
/// `PAC_SERVE_TEST_HANG_CELL=<index>` picks the cell, and
/// `PAC_SERVE_TEST_HANG_MS=<ms>` sets the wedge length. Fires on the
/// first attempt only, so the retry converges.
fn test_hang_hook(job: &Job, campaign: &str) {
    if job.attempt != 1 {
        return;
    }
    if std::env::var("PAC_SERVE_TEST_HANG_NAME").as_deref() != Ok(campaign) {
        return;
    }
    let Ok(cell) = std::env::var("PAC_SERVE_TEST_HANG_CELL") else { return };
    if cell.parse() != Ok(job.cell.index) {
        return;
    }
    let ms: u64 = std::env::var("PAC_SERVE_TEST_HANG_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    std::thread::sleep(Duration::from_millis(ms));
}

/// Execute one lease in a worker thread. Panics are converted into
/// attempt failures.
fn execute_lease(
    job: &Job,
    spec: &CampaignSpec,
    quantum: Option<u64>,
    tick: &(dyn Fn() + Sync),
) -> Result<CellStep, String> {
    let run = || -> Result<CellStep, String> {
        let sys = match &job.ckpt {
            Some(path) => {
                let bytes = std::fs::read(path)
                    .map_err(|e| format!("checkpoint {} unreadable: {e}", path.display()))?;
                cell::restore(&job.cell, spec, &bytes)?
            }
            None => cell::build(&job.cell, spec),
        };
        cell::advance_lease(sys, &job.cell, spec, quantum, tick)
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

fn spawn_slot(id: u64, spec: &CampaignSpec, epoch: Instant, tx: &Sender<WorkerMsg>) -> Slot {
    let mailbox = Arc::new(Mailbox::new());
    let worker_box = Arc::clone(&mailbox);
    let spec = spec.clone();
    let tx = tx.clone();
    let quantum = if spec.quantum_cycles > 0 { Some(spec.quantum_cycles) } else { None };
    let handle = std::thread::spawn(move || loop {
        let directive = worker_box.take();
        let (job, lease) = match directive {
            Directive::Exit => return,
            Directive::Run { job, lease } => (job, lease),
        };
        test_hang_hook(&job, &spec.name);
        let beat =
            || worker_box.heartbeat.store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        beat();
        let started = Instant::now();
        let outcome = execute_lease(&job, &spec, quantum, &beat);
        let wall_ms = started.elapsed().as_millis() as u64;
        // The scheduler may have exited; a dead channel ends the worker.
        if tx.send(WorkerMsg { slot: id, lease, outcome, wall_ms }).is_err() {
            return;
        }
    });
    Slot { id, mailbox, lease: None, handle: Some(handle) }
}

/// Atomically write checkpoint bytes: temp file, sync, rename. The
/// journal `ckpt` record referencing the path is appended only after
/// this returns, so a record never names a file that is not durably
/// there.
fn write_ckpt(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| format!("checkpoint write {} failed: {e}", path.display()))
}

fn ckpt_path(dir: &Path, cell: u64, attempt: u32) -> PathBuf {
    dir.join(format!("cell{cell}-a{attempt}.pacsnap"))
}

fn cell_id<'a>(cell: &'a CellSpec, config: &'a str) -> CellId<'a> {
    CellId {
        bench: cell.bench.name(),
        kind: cell.kind.label(),
        backend: cell.backend.label(),
        config,
    }
}

/// Start a fresh campaign: create the journal, write the header, run.
pub fn run_fresh(spec: &CampaignSpec, cfg: &SchedulerConfig) -> Result<CampaignReport, String> {
    std::fs::create_dir_all(&cfg.ckpt_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.ckpt_dir.display()))?;
    if let Some(parent) = cfg.journal_path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let mut journal = Journal::create(&cfg.journal_path)
        .map_err(|e| format!("cannot create journal {}: {e}", cfg.journal_path.display()))?;
    let cells = spec.cells();
    journal
        .push(&Record::Campaign {
            spec: spec.canonical(),
            spec_hash: spec.spec_hash(),
            cells: cells.len() as u64,
            seed: spec.seed,
        })
        .map_err(|e| format!("journal write failed: {e}"))?;
    let state: Vec<CellStatus> = vec![CellStatus::Pending; cells.len()];
    let jobs: Vec<Job> = cells
        .iter()
        .map(|c| Job { cell: *c, attempt: 1, eligible_at: Instant::now(), ckpt: None })
        .collect();
    run_campaign(spec, cfg, journal, state, jobs, &[])
}

/// Replay the journal and return the rebuilt state (shared by resume
/// and by `pac-serve verify`).
pub fn replay_journal(cfg: &SchedulerConfig) -> Result<(CampaignSpec, Replay), String> {
    let replay = Journal::replay(&cfg.journal_path)?;
    let spec = CampaignSpec::parse(&replay.spec)
        .map_err(|e| format!("journaled spec unparseable: {e}"))?;
    if spec.spec_hash() != replay.spec_hash {
        return Err(format!(
            "journaled spec hashes to {:016x}, header claims {:016x}",
            spec.spec_hash(),
            replay.spec_hash
        ));
    }
    if !replay.double_done.is_empty() {
        return Err(format!("journal counts cells {:?} done twice", replay.double_done));
    }
    Ok((spec, replay))
}

/// Resume a campaign from its journal: replay, append a `resume`
/// record, requeue unfinished cells (from their checkpoints where one
/// is journaled, each announced by a `resumed` progress event), run.
pub fn run_resumed(cfg: &SchedulerConfig) -> Result<CampaignReport, String> {
    let (spec, replay) = replay_journal(cfg)?;
    std::fs::create_dir_all(&cfg.ckpt_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.ckpt_dir.display()))?;
    let mut journal = Journal::append(&cfg.journal_path, replay.records)
        .map_err(|e| format!("cannot reopen journal {}: {e}", cfg.journal_path.display()))?;
    journal
        .push(&Record::Resume {
            spec_hash: replay.spec_hash,
            pending: replay.pending(),
            done: replay.done(),
        })
        .map_err(|e| format!("journal write failed: {e}"))?;
    let cells = spec.cells();
    let mut state = Vec::with_capacity(cells.len());
    let mut jobs = Vec::new();
    let mut resumed = Vec::new();
    for (cell, rep) in cells.iter().zip(&replay.cells) {
        state.push(rep.status.clone());
        if !matches!(rep.status, CellStatus::Pending) {
            continue;
        }
        // A journaled checkpoint resumes its attempt mid-flight. An
        // attempt that left no checkpoint restarts under the same
        // attempt number: it did no durable work, and the attempt
        // budget meters *failures*, not crashes of the scheduler
        // itself.
        let (attempt, ckpt) = match &rep.ckpt {
            Some((cycle, path, attempt)) if Path::new(path).is_file() => {
                resumed.push((*cycle, path.clone()));
                (*attempt, Some(PathBuf::from(path)))
            }
            _ => (rep.attempts.max(1), None),
        };
        jobs.push(Job { cell: *cell, attempt, eligible_at: Instant::now(), ckpt });
    }
    run_campaign(&spec, cfg, journal, state, jobs, &resumed)
}

/// Mutable campaign state threaded through the failure path (the same
/// bookkeeping serves worker-reported failures and watchdog
/// abandonments).
struct Campaign<'a> {
    spec: &'a CampaignSpec,
    cfg: &'a SchedulerConfig,
    journal: Journal,
    state: Vec<CellStatus>,
    queue: Vec<Job>,
    stats: SupervisorStats,
    config_label: String,
}

impl Campaign<'_> {
    fn push(&mut self, rec: &Record) -> Result<(), String> {
        self.journal.push(rec).map_err(|e| format!("journal write failed: {e}"))
    }

    /// One attempt failed (worker error, panic, or abandonment): journal
    /// it, then retry with backoff or quarantine.
    fn fail_attempt(&mut self, job: Job, wall_ms: u64, reason: String) -> Result<(), String> {
        let idx = job.cell.index;
        self.push(&Record::Fail { cell: idx, attempt: job.attempt, reason: reason.clone() })?;
        if let Some(p) = &job.ckpt {
            // A failing attempt's checkpoint is not trusted; the retry
            // starts from scratch.
            let _ = std::fs::remove_file(p);
        }
        if job.attempt < self.spec.max_attempts {
            let delay = self.cfg.backoff.delay_ms(self.spec.seed, idx, job.attempt);
            self.stats.retries += 1;
            self.cfg.progress.cell_retry(idx as usize, job.attempt + 1, delay, &reason);
            self.queue.push(Job {
                cell: job.cell,
                attempt: job.attempt + 1,
                eligible_at: Instant::now() + Duration::from_millis(delay),
                ckpt: None,
            });
        } else {
            self.push(&Record::Quarantine {
                cell: idx,
                attempts: job.attempt,
                reason: reason.clone(),
            })?;
            self.stats.quarantined += 1;
            self.state[idx as usize] =
                CellStatus::Quarantined { attempts: job.attempt, reason: reason.clone() };
            self.cfg.progress.cell_quarantined(idx as usize, job.attempt, &reason);
            self.cfg.progress.cell_finish(
                idx as usize,
                &cell_id(&job.cell, &self.config_label),
                "fail",
                wall_ms as f64 / 1000.0,
                0,
            );
        }
        Ok(())
    }
}

/// The scheduler main loop, shared by fresh and resumed entry points.
/// `resumed` lists the `(cycle, path)` checkpoints a resume requeued
/// cells from; each is announced right after the segment's
/// `campaign_start`.
fn run_campaign(
    spec: &CampaignSpec,
    cfg: &SchedulerConfig,
    journal: Journal,
    state: Vec<CellStatus>,
    queue: Vec<Job>,
    resumed: &[(u64, String)],
) -> Result<CampaignReport, String> {
    let started = Instant::now();
    let epoch = started;
    let backend_label = if spec.backends.len() == 1 { spec.backends[0].label() } else { "mixed" };
    cfg.progress.campaign_start("pac-serve", backend_label, spec.threads, state.len() as u64);
    for (cycle, path) in resumed {
        cfg.progress.resumed(*cycle, path);
    }
    let mut c = Campaign {
        spec,
        cfg,
        journal,
        state,
        queue,
        stats: SupervisorStats::default(),
        config_label: format!("accesses={} cores={}", spec.accesses_per_core, spec.cores),
    };

    let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = mpsc::channel();
    let mut next_slot_id: u64 = 0;
    let mut next_lease: u64 = 0;
    let mut respawns_left = cfg.respawn_budget;
    let mut slots: Vec<Slot> = (0..spec.threads.max(1))
        .map(|_| {
            next_slot_id += 1;
            spawn_slot(next_slot_id, spec, epoch, &tx)
        })
        .collect();
    // Abandoned slot ids whose late results must be discarded.
    let mut dead: HashSet<u64> = HashSet::new();

    loop {
        let draining = cfg.drain.load(Ordering::Relaxed);

        // Dispatch: hand every idle slot the lowest-indexed eligible
        // job (stable order keeps logs readable; results are
        // order-independent).
        if !draining {
            let now = Instant::now();
            let now_ms = epoch.elapsed().as_millis() as u64;
            for slot in slots.iter_mut().filter(|s| s.lease.is_none()) {
                let Some(pos) = c
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.eligible_at <= now)
                    .min_by_key(|(_, j)| j.cell.index)
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let job = c.queue.swap_remove(pos);
                next_lease += 1;
                c.journal
                    .push(&Record::Lease {
                        cell: job.cell.index,
                        attempt: job.attempt,
                        worker: slot.id,
                        lease: next_lease,
                    })
                    .map_err(|e| format!("journal write failed: {e}"))?;
                c.stats.leases += 1;
                if job.ckpt.is_none() && job.attempt == 1 {
                    c.cfg
                        .progress
                        .cell_start(job.cell.index as usize, &cell_id(&job.cell, &c.config_label));
                }
                // Fresh grace period: the watchdog must not count time
                // the slot spent idle before this lease.
                slot.mailbox.heartbeat.store(now_ms, Ordering::Relaxed);
                slot.lease = Some((next_lease, job.clone()));
                slot.mailbox.put(Directive::Run { job, lease: next_lease });
            }
        }

        let busy = slots.iter().filter(|s| s.lease.is_some()).count();
        let terminal = c.state.iter().filter(|s| !matches!(s, CellStatus::Pending)).count();
        if terminal == c.state.len() {
            break; // every cell reached a terminal state
        }
        if busy == 0 && (draining || slots.is_empty()) {
            break; // signal drain, or no workers left at all
        }
        if busy == 0 && c.queue.is_empty() {
            break; // pending cells but nothing queued or running (degraded)
        }

        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(msg) => {
                if dead.contains(&msg.slot) {
                    continue; // late result from an abandoned worker: lease revoked
                }
                let Some(slot) = slots.iter_mut().find(|s| s.id == msg.slot) else {
                    continue;
                };
                let Some((lease, job)) = slot.lease.take() else { continue };
                if lease != msg.lease {
                    slot.lease = Some((lease, job));
                    continue;
                }
                let idx = job.cell.index;
                match msg.outcome {
                    Ok(CellStep::Done(fp)) => {
                        c.push(&Record::Done {
                            cell: idx,
                            attempt: job.attempt,
                            wall_ms: msg.wall_ms,
                            fp,
                        })?;
                        c.state[idx as usize] = CellStatus::Done(fp);
                        if let Some(p) = &job.ckpt {
                            let _ = std::fs::remove_file(p);
                        }
                        c.cfg.progress.cell_finish(
                            idx as usize,
                            &cell_id(&job.cell, &c.config_label),
                            "pass",
                            msg.wall_ms as f64 / 1000.0,
                            fp.cycles,
                        );
                    }
                    Ok(CellStep::Preempted { bytes, cycle }) => {
                        let path = ckpt_path(&cfg.ckpt_dir, idx, job.attempt);
                        write_ckpt(&path, &bytes)?;
                        c.push(&Record::Ckpt {
                            cell: idx,
                            attempt: job.attempt,
                            cycle,
                            path: path.display().to_string(),
                        })?;
                        c.stats.preemptions += 1;
                        c.cfg.progress.checkpoint(cycle, &path.display().to_string());
                        c.queue.push(Job { eligible_at: Instant::now(), ckpt: Some(path), ..job });
                    }
                    Err(reason) => c.fail_attempt(job, msg.wall_ms, reason)?,
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Watchdog sweep: abandon slots whose heartbeat went
                // stale mid-lease.
                let now_ms = epoch.elapsed().as_millis() as u64;
                let stale: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.lease.is_some()
                            && now_ms.saturating_sub(s.mailbox.heartbeat.load(Ordering::Relaxed))
                                > cfg.heartbeat_timeout_ms
                    })
                    .map(|(i, _)| i)
                    .collect();
                // Highest index first so removal keeps indices valid.
                for i in stale.into_iter().rev() {
                    let mut slot = slots.swap_remove(i);
                    c.stats.heartbeat_timeouts += 1;
                    c.stats.workers_abandoned += 1;
                    dead.insert(slot.id);
                    slot.mailbox.put(Directive::Exit); // if it ever wakes
                    drop(slot.handle.take()); // detach: never joinable
                    let (_, job) = slot.lease.take().expect("stale slots hold a lease");
                    c.fail_attempt(
                        job,
                        cfg.heartbeat_timeout_ms,
                        format!(
                            "heartbeat stale for {}ms: worker abandoned",
                            cfg.heartbeat_timeout_ms
                        ),
                    )?;
                    if respawns_left > 0 {
                        respawns_left -= 1;
                        next_slot_id += 1;
                        slots.push(spawn_slot(next_slot_id, spec, epoch, &tx));
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("every worker hung up unexpectedly".to_string());
            }
        }
    }

    // Final journal record and report.
    let done = c.state.iter().filter(|s| matches!(s, CellStatus::Done(_))).count() as u64;
    let drain_reason = if done == c.state.len() as u64 {
        "complete"
    } else if cfg.drain.load(Ordering::Relaxed) {
        "signal"
    } else {
        "partial"
    };
    c.push(&Record::Drain { reason: drain_reason.to_string(), done })?;

    // Shut healthy workers down and join them.
    for slot in &slots {
        slot.mailbox.put(Directive::Exit);
    }
    drop(tx);
    for slot in &mut slots {
        if let Some(h) = slot.handle.take() {
            let _ = h.join();
        }
    }

    cfg.progress.supervisor(&c.stats);
    cfg.progress.campaign_end();
    Ok(CampaignReport {
        cells: c.state,
        stats: c.stats,
        drain_reason: drain_reason.to_string(),
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_sim::CoalescerKind;
    use pac_types::{BackendKind, FaultClass};
    use pac_workloads::Bench;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pac_serve_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "sched-test".to_string(),
            seed: 0x5EED,
            cores: 2,
            accesses_per_core: 120,
            backends: vec![BackendKind::Hmc],
            benches: vec![Bench::Ep, Bench::Stream],
            kinds: vec![CoalescerKind::Pac],
            faults: vec![None],
            ras: vec![None],
            recovery: true,
            max_attempts: 2,
            quantum_cycles: 0,
            threads: 2,
        }
    }

    fn fast_cfg(dir: &Path) -> SchedulerConfig {
        SchedulerConfig {
            backoff: BackoffConfig::fast(),
            ..SchedulerConfig::in_dir(dir)
        }
    }

    #[test]
    fn clean_campaign_completes_and_journals() {
        let dir = tmp_dir("clean");
        let spec = tiny_spec();
        let cfg = fast_cfg(&dir);
        let report = run_fresh(&spec, &cfg).unwrap();
        assert!(report.complete(), "{}", report.render());
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.stats.leases, 2);
        assert_eq!(report.drain_reason, "complete");

        let replay = Journal::replay(&cfg.journal_path).unwrap();
        assert!(replay.drained);
        assert_eq!(replay.done(), 2);
        assert!(replay.double_done.is_empty());

        // Per-cell results match independent reference runs exactly.
        for (i, cell) in spec.cells().iter().enumerate() {
            let reference = cell::run_to_completion(cell, &spec).unwrap();
            assert_eq!(report.cells[i], CellStatus::Done(reference), "cell {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_cell_is_quarantined_while_rest_completes() {
        let dir = tmp_dir("poison");
        // recovery=off + a fault makes every fault cell deterministically
        // poisonous; clean cells ride in the same campaign.
        let spec = CampaignSpec {
            benches: vec![Bench::Ep],
            faults: vec![None, Some(FaultClass::DropResponse)],
            recovery: false,
            max_attempts: 3,
            ..tiny_spec()
        };
        let cfg = fast_cfg(&dir);
        let report = run_fresh(&spec, &cfg).unwrap();
        assert_eq!(report.done(), 1, "{}", report.render());
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.exit_code(), 3);
        assert_eq!(report.stats.retries, 2, "two retries before quarantine");
        assert!(matches!(
            &report.cells[1],
            CellStatus::Quarantined { attempts: 3, .. }
        ));
        assert_eq!(report.drain_reason, "partial");

        // The journal tells the same story.
        let replay = Journal::replay(&cfg.journal_path).unwrap();
        assert_eq!(replay.done(), 1);
        assert_eq!(replay.quarantined(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantum_campaign_preempts_checkpoints_and_matches_reference() {
        let dir = tmp_dir("quantum");
        let spec = CampaignSpec { quantum_cycles: 5_000, threads: 1, ..tiny_spec() };
        let cfg = fast_cfg(&dir);
        let report = run_fresh(&spec, &cfg).unwrap();
        assert!(report.complete(), "{}", report.render());
        assert!(report.stats.preemptions > 0, "quantum never fired");

        // Preempted/resumed execution is bit-identical to straight-line.
        let straight = CampaignSpec { quantum_cycles: 0, ..spec.clone() };
        for (i, cell) in straight.cells().iter().enumerate() {
            let reference = cell::run_to_completion(cell, &straight).unwrap();
            assert_eq!(report.cells[i], CellStatus::Done(reference), "cell {i}");
        }
        // Checkpoints are cleaned up after completion.
        let leftover = std::fs::read_dir(&cfg.ckpt_dir).unwrap().count();
        assert_eq!(leftover, 0, "checkpoints must be removed once cells finish");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_flag_stops_leasing_and_journals_signal() {
        let dir = tmp_dir("drain");
        let spec = CampaignSpec {
            benches: vec![Bench::Ep, Bench::Stream, Bench::Gs, Bench::Cg],
            threads: 1,
            ..tiny_spec()
        };
        let cfg = fast_cfg(&dir);
        // Pre-set drain: the scheduler must grant no leases at all and
        // still write a clean drain record.
        cfg.drain.store(true, Ordering::Relaxed);
        let report = run_fresh(&spec, &cfg).unwrap();
        assert_eq!(report.done(), 0);
        assert_eq!(report.pending(), 4);
        assert_eq!(report.stats.leases, 0);
        assert_eq!(report.drain_reason, "signal");
        let replay = Journal::replay(&cfg.journal_path).unwrap();
        assert!(replay.drained);
        // And the journal resumes cleanly from that point.
        cfg.drain.store(false, Ordering::Relaxed);
        let resumed = run_resumed(&cfg).unwrap();
        assert!(resumed.complete(), "{}", resumed.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hung_worker_is_abandoned_and_cell_retried() {
        let dir = tmp_dir("hang");
        // The hook is scoped to this campaign name, so the env mutation
        // cannot trip other tests running in parallel.
        let spec = CampaignSpec {
            name: "sched-hang-test".to_string(),
            benches: vec![Bench::Ep],
            threads: 1,
            ..tiny_spec()
        };
        let cfg = SchedulerConfig {
            heartbeat_timeout_ms: 150,
            respawn_budget: 1,
            ..fast_cfg(&dir)
        };
        std::env::set_var("PAC_SERVE_TEST_HANG_NAME", "sched-hang-test");
        std::env::set_var("PAC_SERVE_TEST_HANG_CELL", "0");
        std::env::set_var("PAC_SERVE_TEST_HANG_MS", "2000");
        let report = run_fresh(&spec, &cfg);
        std::env::remove_var("PAC_SERVE_TEST_HANG_NAME");
        std::env::remove_var("PAC_SERVE_TEST_HANG_CELL");
        std::env::remove_var("PAC_SERVE_TEST_HANG_MS");
        let report = report.unwrap();
        assert!(report.complete(), "{}", report.render());
        assert_eq!(report.stats.heartbeat_timeouts, 1);
        assert_eq!(report.stats.workers_abandoned, 1);
        assert!(report.stats.retries >= 1);
        // The hung attempt is journaled as failed, the retry as done.
        let replay = Journal::replay(&cfg.journal_path).unwrap();
        assert_eq!(replay.done(), 1);
        assert!(replay.cells[0].attempts >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
