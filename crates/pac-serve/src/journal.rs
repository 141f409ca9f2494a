//! The durable write-ahead journal: every scheduler state transition as
//! one fsync'd, checksummed JSONL record.
//!
//! ## Wire format
//!
//! One JSON object per line:
//!
//! ```text
//! {"v":1,"ck":"<16 hex>","ev":"<kind>",...}
//! ```
//!
//! `ck` is the FNV-1a-64 checksum ([`pac_types::snapshot::fnv1a64`]) of
//! the payload text after it — everything from `"ev"` up to (not
//! including) the closing `}`. Each record is appended and `fdatasync`'d
//! before the scheduler acts on the transition it describes, so after
//! `kill -9` the journal is always a consistent prefix of the campaign's
//! history plus at most one torn final line.
//!
//! ## Replay contract
//!
//! [`Journal::replay`] rebuilds scheduler state from the file:
//!
//! * a torn or checksum-corrupt **last** line is quarantined (reported
//!   in [`Replay::torn`]) and replay recovers to the last good record —
//!   exactly the `kill -9`-mid-write case;
//! * a corrupt line **before** the end is a hard error: the history
//!   after it cannot be trusted;
//! * a `done` record for an already-done cell is recorded in
//!   [`Replay::double_done`] so the chaos harness can prove no cell was
//!   ever counted twice.
//!
//! ## Record kinds
//!
//! | `ev`         | payload                                              |
//! |--------------|------------------------------------------------------|
//! | `campaign`   | `spec` (canonical string), `spec_hash`, `cells`, `seed` |
//! | `resume`     | `spec_hash`, `pending`, `done`                       |
//! | `lease`      | `cell`, `attempt`, `worker`, `lease`                 |
//! | `ckpt`       | `cell`, `attempt`, `cycle`, `path`                   |
//! | `done`       | `cell`, `attempt`, `wall_ms`, fingerprint fields     |
//! | `fail`       | `cell`, `attempt`, `reason`                          |
//! | `quarantine` | `cell`, `attempts`, `reason`                         |
//! | `drain`      | `reason`, `done`                                     |

use pac_types::json::{escape, Json};
use pac_types::snapshot::fnv1a64;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Exact per-cell result identity: every field is a `u64` (floats
/// travel as raw bits), so "bit-identical" is a plain `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellFingerprint {
    /// Simulated cycles to drain the run.
    pub cycles: u64,
    /// Raw requests the LLC flushed toward memory.
    pub raw_requests: u64,
    /// Requests dispatched to the memory controller.
    pub dispatched: u64,
    /// Coalescer address comparisons.
    pub comparisons: u64,
    /// Link bytes moved, control overhead included.
    pub transaction_bytes: u64,
    /// Average end-to-end memory latency (ns), as raw `f64` bits.
    pub latency_bits: u64,
    /// Faults the device injected.
    pub faults_injected: u64,
    /// Recovery retries issued.
    pub retries_issued: u64,
    /// Oracle accepted / served / dispatch / response counters.
    pub oracle_accepted: u64,
    /// Served raw requests as counted by the oracle.
    pub oracle_served: u64,
    /// Dispatches the oracle observed.
    pub oracle_dispatches: u64,
    /// Responses the oracle observed.
    pub oracle_responses: u64,
}

impl CellFingerprint {
    fn json_fields(&self) -> String {
        format!(
            "\"cycles\":{},\"raw\":{},\"dispatched\":{},\"comparisons\":{},\
             \"txn_bytes\":{},\"latency_bits\":{},\"faults\":{},\"retries\":{},\
             \"oracle\":[{},{},{},{}]",
            self.cycles,
            self.raw_requests,
            self.dispatched,
            self.comparisons,
            self.transaction_bytes,
            self.latency_bits,
            self.faults_injected,
            self.retries_issued,
            self.oracle_accepted,
            self.oracle_served,
            self.oracle_dispatches,
            self.oracle_responses,
        )
    }

    fn from_json(j: &Json) -> Option<CellFingerprint> {
        let oracle = j.get("oracle")?.as_arr()?;
        if oracle.len() != 4 {
            return None;
        }
        Some(CellFingerprint {
            cycles: j.get("cycles")?.as_u64()?,
            raw_requests: j.get("raw")?.as_u64()?,
            dispatched: j.get("dispatched")?.as_u64()?,
            comparisons: j.get("comparisons")?.as_u64()?,
            transaction_bytes: j.get("txn_bytes")?.as_u64()?,
            latency_bits: j.get("latency_bits")?.as_u64()?,
            faults_injected: j.get("faults")?.as_u64()?,
            retries_issued: j.get("retries")?.as_u64()?,
            oracle_accepted: oracle[0].as_u64()?,
            oracle_served: oracle[1].as_u64()?,
            oracle_dispatches: oracle[2].as_u64()?,
            oracle_responses: oracle[3].as_u64()?,
        })
    }
}

/// One journal record (see the module docs for the wire format).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Campaign header: the first record of a fresh journal.
    Campaign {
        /// Canonical spec string (replayable via `CampaignSpec::parse`).
        spec: String,
        /// FNV-1a-64 of the canonical spec string.
        spec_hash: u64,
        /// Total cells the spec enumerates.
        cells: u64,
        /// Campaign master seed.
        seed: u64,
    },
    /// A resumed segment begins (appended after a crash or drain).
    Resume {
        /// Must match the opening `Campaign` record's hash.
        spec_hash: u64,
        /// Cells still outstanding at resume time.
        pending: u64,
        /// Cells already done at resume time.
        done: u64,
    },
    /// A worker took a lease on one attempt of one cell.
    Lease {
        /// Cell index in spec enumeration order.
        cell: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// Worker slot id.
        worker: u64,
        /// Monotonic lease id within the journal.
        lease: u64,
    },
    /// The cell checkpointed at a quantum boundary and re-entered the
    /// queue (preemption, or a drain in progress).
    Ckpt {
        /// Cell index.
        cell: u64,
        /// Attempt the checkpoint belongs to.
        attempt: u32,
        /// Simulated cycle of the snapshot.
        cycle: u64,
        /// Checkpoint file path.
        path: String,
    },
    /// The cell reached a verified terminal result.
    Done {
        /// Cell index.
        cell: u64,
        /// Attempt that completed.
        attempt: u32,
        /// Wall milliseconds across this attempt's leases.
        wall_ms: u64,
        /// Exact result identity.
        fp: CellFingerprint,
    },
    /// One attempt failed; the scheduler decides retry vs quarantine.
    Fail {
        /// Cell index.
        cell: u64,
        /// Attempt that failed.
        attempt: u32,
        /// Failure description.
        reason: String,
    },
    /// The cell exhausted its attempt budget and is out of the campaign.
    Quarantine {
        /// Cell index.
        cell: u64,
        /// Attempts consumed.
        attempts: u32,
        /// Last failure description.
        reason: String,
    },
    /// Clean shutdown marker (complete campaign or signal drain).
    Drain {
        /// `complete`, `signal`, or `partial`.
        reason: String,
        /// Cells done at drain time.
        done: u64,
    },
}

impl Record {
    /// The payload text the checksum covers (starts at `"ev"`).
    fn payload(&self) -> String {
        let mut s = String::new();
        match self {
            Record::Campaign { spec, spec_hash, cells, seed } => {
                let _ = write!(
                    s,
                    "\"ev\":\"campaign\",\"spec\":\"{}\",\"spec_hash\":{spec_hash},\
                     \"cells\":{cells},\"seed\":{seed}",
                    escape(spec)
                );
            }
            Record::Resume { spec_hash, pending, done } => {
                let _ = write!(
                    s,
                    "\"ev\":\"resume\",\"spec_hash\":{spec_hash},\"pending\":{pending},\
                     \"done\":{done}"
                );
            }
            Record::Lease { cell, attempt, worker, lease } => {
                let _ = write!(
                    s,
                    "\"ev\":\"lease\",\"cell\":{cell},\"attempt\":{attempt},\
                     \"worker\":{worker},\"lease\":{lease}"
                );
            }
            Record::Ckpt { cell, attempt, cycle, path } => {
                let _ = write!(
                    s,
                    "\"ev\":\"ckpt\",\"cell\":{cell},\"attempt\":{attempt},\
                     \"cycle\":{cycle},\"path\":\"{}\"",
                    escape(path)
                );
            }
            Record::Done { cell, attempt, wall_ms, fp } => {
                let _ = write!(
                    s,
                    "\"ev\":\"done\",\"cell\":{cell},\"attempt\":{attempt},\
                     \"wall_ms\":{wall_ms},{}",
                    fp.json_fields()
                );
            }
            Record::Fail { cell, attempt, reason } => {
                let _ = write!(
                    s,
                    "\"ev\":\"fail\",\"cell\":{cell},\"attempt\":{attempt},\
                     \"reason\":\"{}\"",
                    escape(reason)
                );
            }
            Record::Quarantine { cell, attempts, reason } => {
                let _ = write!(
                    s,
                    "\"ev\":\"quarantine\",\"cell\":{cell},\"attempts\":{attempts},\
                     \"reason\":\"{}\"",
                    escape(reason)
                );
            }
            Record::Drain { reason, done } => {
                let _ = write!(s, "\"ev\":\"drain\",\"reason\":\"{}\",\"done\":{done}", escape(reason));
            }
        }
        s
    }

    /// Render the full journal line (no trailing newline).
    pub fn to_line(&self) -> String {
        let payload = self.payload();
        format!("{{\"v\":1,\"ck\":\"{:016x}\",{payload}}}", fnv1a64(payload.as_bytes()))
    }

    /// Parse and verify one journal line.
    pub fn parse_line(line: &str) -> Result<Record, String> {
        // Checksum first, on the raw text: the payload is everything
        // between the `ck` field and the closing brace.
        let rest = line
            .strip_prefix("{\"v\":1,\"ck\":\"")
            .ok_or_else(|| "missing version/checksum prefix".to_string())?;
        let (ck_hex, payload_brace) =
            rest.split_once("\",").ok_or_else(|| "unterminated checksum field".to_string())?;
        let payload = payload_brace
            .strip_suffix('}')
            .ok_or_else(|| "missing closing brace".to_string())?;
        let want = u64::from_str_radix(ck_hex, 16).map_err(|_| "bad checksum hex".to_string())?;
        let got = fnv1a64(payload.as_bytes());
        if want != got {
            return Err(format!("checksum mismatch: header {want:016x}, computed {got:016x}"));
        }
        let j = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let ev = j.get("ev").and_then(Json::as_str).ok_or("missing ev")?;
        let field = |name: &str| {
            j.get(name).and_then(Json::as_u64).ok_or_else(|| format!("{ev}: bad field '{name}'"))
        };
        // Attempt counts are u32 in memory: a wider value is refused,
        // never wrapped.
        let count = |name: &str| {
            let v = field(name)?;
            u32::try_from(v).map_err(|_| {
                format!("{ev}: field '{name}' is out of range: {v} (at most {})", u32::MAX)
            })
        };
        let text = |name: &str| {
            j.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{ev}: bad field '{name}'"))
        };
        Ok(match ev {
            "campaign" => Record::Campaign {
                spec: text("spec")?,
                spec_hash: field("spec_hash")?,
                cells: field("cells")?,
                seed: field("seed")?,
            },
            "resume" => Record::Resume {
                spec_hash: field("spec_hash")?,
                pending: field("pending")?,
                done: field("done")?,
            },
            "lease" => Record::Lease {
                cell: field("cell")?,
                attempt: count("attempt")?,
                worker: field("worker")?,
                lease: field("lease")?,
            },
            "ckpt" => Record::Ckpt {
                cell: field("cell")?,
                attempt: count("attempt")?,
                cycle: field("cycle")?,
                path: text("path")?,
            },
            "done" => Record::Done {
                cell: field("cell")?,
                attempt: count("attempt")?,
                wall_ms: field("wall_ms")?,
                fp: CellFingerprint::from_json(&j).ok_or("done: bad fingerprint")?,
            },
            "fail" => Record::Fail {
                cell: field("cell")?,
                attempt: count("attempt")?,
                reason: text("reason")?,
            },
            "quarantine" => Record::Quarantine {
                cell: field("cell")?,
                attempts: count("attempts")?,
                reason: text("reason")?,
            },
            "drain" => Record::Drain { reason: text("reason")?, done: field("done")? },
            other => return Err(format!("unknown record kind '{other}'")),
        })
    }
}

/// Where one cell stands after replay.
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Never completed; (re)queue it.
    Pending,
    /// Completed with this exact result.
    Done(CellFingerprint),
    /// Out of the campaign after exhausting its attempts.
    Quarantined {
        /// Attempts consumed before giving up.
        attempts: u32,
        /// Last failure description.
        reason: String,
    },
}

/// One cell's replayed state.
#[derive(Debug, Clone)]
pub struct CellReplay {
    /// Terminal-or-not status.
    pub status: CellStatus,
    /// Attempts started so far (leases with distinct attempt numbers).
    pub attempts: u32,
    /// Last checkpoint for the in-flight attempt, if any:
    /// `(cycle, path, attempt)`.
    pub ckpt: Option<(u64, String, u32)>,
    /// A lease was open when the journal ended (crash mid-run).
    pub leased: bool,
}

impl CellReplay {
    fn new() -> CellReplay {
        CellReplay { status: CellStatus::Pending, attempts: 0, ckpt: None, leased: false }
    }
}

/// The rebuilt scheduler state after [`Journal::replay`].
#[derive(Debug)]
pub struct Replay {
    /// Canonical spec string from the campaign header.
    pub spec: String,
    /// Spec fingerprint from the header.
    pub spec_hash: u64,
    /// Campaign master seed.
    pub seed: u64,
    /// Per-cell state, indexed by spec enumeration order.
    pub cells: Vec<CellReplay>,
    /// Good records replayed.
    pub records: u64,
    /// Segments seen (1 + resume records).
    pub segments: u64,
    /// The final line was torn/corrupt and quarantined; carries the
    /// parse error.
    pub torn: Option<String>,
    /// Cells that carried more than one `done` record (must stay empty;
    /// the chaos harness asserts on it).
    pub double_done: Vec<u64>,
    /// The journal ends with a clean `drain` record.
    pub drained: bool,
}

impl Replay {
    /// Cells with a `Done` status.
    pub fn done(&self) -> u64 {
        self.cells.iter().filter(|c| matches!(c.status, CellStatus::Done(_))).count() as u64
    }

    /// Cells still needing work (pending or crashed mid-lease).
    pub fn pending(&self) -> u64 {
        self.cells.iter().filter(|c| matches!(c.status, CellStatus::Pending)).count() as u64
    }

    /// Cells quarantined.
    pub fn quarantined(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Quarantined { .. }))
            .count() as u64
    }
}

/// Append-only journal writer with per-record durability.
pub struct Journal {
    file: File,
    path: PathBuf,
    records: u64,
    /// Records appended by THIS handle (the chaos kill hook counts
    /// per-process so a resumed segment always gets a fresh budget —
    /// a cumulative count would kill a resume on its first append and
    /// forbid all progress).
    written: u64,
    /// Chaos hook: `(append number, torn)` at which to SIGKILL our own
    /// process mid-append. Parsed from `PAC_SERVE_KILL_AFTER_RECORDS`.
    kill_after: Option<(u64, bool)>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("records", &self.records)
            .finish()
    }
}

/// Parse the chaos kill hook env var: `N` or `N:torn`.
fn kill_hook_from_env() -> Option<(u64, bool)> {
    let raw = std::env::var("PAC_SERVE_KILL_AFTER_RECORDS").ok()?;
    let (n, torn) = match raw.strip_suffix(":torn") {
        Some(n) => (n, true),
        None => (raw.as_str(), false),
    };
    n.parse().ok().map(|n| (n, torn))
}

/// SIGKILL the current process: the chaos harness's simulated crash.
/// SIGKILL (not abort) so no atexit/unwind cleanup runs — the journal
/// must carry the whole recovery story by itself.
#[cfg(unix)]
fn kill_self() -> ! {
    extern "C" {
        fn getpid() -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    unsafe {
        kill(getpid(), SIGKILL);
    }
    // SIGKILL cannot be blocked; this is unreachable in practice.
    std::process::abort();
}

#[cfg(not(unix))]
fn kill_self() -> ! {
    std::process::abort();
}

impl Journal {
    /// Create a fresh journal at `path` (truncating any prior file).
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            records: 0,
            written: 0,
            kill_after: kill_hook_from_env(),
        })
    }

    /// Open an existing journal for appending (a resumed campaign).
    /// Recovers a torn tail first: anything after the last parseable
    /// line (a half-written record from `kill -9` mid-append) is
    /// truncated away, so a new record can never concatenate onto the
    /// torn fragment and corrupt the journal interior.
    /// `existing_records` carries the replayed good-record count.
    pub fn append(path: &Path, existing_records: u64) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        let text = std::fs::read_to_string(path)?;
        let good = recovered_len(&text);
        if (good as u64) < text.len() as u64 {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            records: existing_records,
            written: 0,
            kill_after: kill_hook_from_env(),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records written by this handle (plus any pre-existing count an
    /// append open was seeded with).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append one record durably: write, flush, `fdatasync`. Returns
    /// only after the record is on disk — callers act on the transition
    /// strictly after it is journaled (write-ahead discipline).
    pub fn push(&mut self, record: &Record) -> std::io::Result<()> {
        let line = record.to_line();
        self.records += 1;
        self.written += 1;
        if let Some((at, torn)) = self.kill_after {
            if self.written >= at {
                if torn {
                    // Simulate a crash mid-write: half a record, no
                    // newline, durably on disk — replay must quarantine
                    // exactly this line.
                    let half = &line.as_bytes()[..line.len() / 2];
                    let _ = self.file.write_all(half);
                    let _ = self.file.sync_data();
                } else {
                    let _ = self.file.write_all(line.as_bytes());
                    let _ = self.file.write_all(b"\n");
                    let _ = self.file.sync_data();
                }
                kill_self();
            }
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }

    /// Replay a journal file into scheduler state. See the module docs
    /// for the torn-line contract.
    pub fn replay(path: &Path) -> Result<Replay, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
        if lines.is_empty() {
            return Err(format!("journal {} is empty", path.display()));
        }
        let mut replay = match Record::parse_line(lines[0]) {
            Ok(Record::Campaign { spec, spec_hash, cells, seed }) => Replay {
                spec,
                spec_hash,
                seed,
                cells: (0..cells).map(|_| CellReplay::new()).collect(),
                records: 1,
                segments: 1,
                torn: None,
                double_done: Vec::new(),
                drained: false,
            },
            Ok(other) => {
                return Err(format!(
                    "journal {} does not open with a campaign record (got {other:?})",
                    path.display()
                ))
            }
            Err(e) => {
                return Err(format!(
                    "journal {} campaign header unreadable: {e}",
                    path.display()
                ))
            }
        };
        let total = lines.len();
        for (i, line) in lines.iter().enumerate().skip(1) {
            let record = match Record::parse_line(line) {
                Ok(r) => r,
                Err(e) if i + 1 == total => {
                    // Torn tail: quarantine the line, recover to the
                    // last good record.
                    replay.torn = Some(format!("line {}: {e}", i + 1));
                    break;
                }
                Err(e) => {
                    return Err(format!(
                        "journal {} corrupt at line {} (not the final line — history \
                         after it is untrustworthy): {e}",
                        path.display(),
                        i + 1
                    ));
                }
            };
            replay.records += 1;
            replay.drained = false;
            match record {
                Record::Campaign { .. } => {
                    return Err(format!(
                        "journal {} has a second campaign header at line {}",
                        path.display(),
                        i + 1
                    ));
                }
                Record::Resume { spec_hash, .. } => {
                    if spec_hash != replay.spec_hash {
                        return Err(format!(
                            "journal {} resume at line {} carries spec hash {spec_hash:016x}, \
                             campaign opened with {:016x}",
                            path.display(),
                            i + 1,
                            replay.spec_hash
                        ));
                    }
                    replay.segments += 1;
                }
                Record::Lease { cell, attempt, .. } => {
                    let c = cell_mut(&mut replay.cells, cell, path, i + 1)?;
                    c.leased = true;
                    c.attempts = c.attempts.max(attempt);
                }
                Record::Ckpt { cell, attempt, cycle, path: ck } => {
                    let c = cell_mut(&mut replay.cells, cell, path, i + 1)?;
                    c.ckpt = Some((cycle, ck, attempt));
                    c.leased = false; // back in the queue
                }
                Record::Done { cell, fp, .. } => {
                    let c = cell_mut(&mut replay.cells, cell, path, i + 1)?;
                    if matches!(c.status, CellStatus::Done(_)) {
                        replay.double_done.push(cell);
                    }
                    c.status = CellStatus::Done(fp);
                    c.leased = false;
                    c.ckpt = None;
                }
                Record::Fail { cell, .. } => {
                    let c = cell_mut(&mut replay.cells, cell, path, i + 1)?;
                    c.leased = false;
                    // Fresh attempts restart from scratch: a checkpoint
                    // of a failing attempt is not trusted.
                    c.ckpt = None;
                }
                Record::Quarantine { cell, attempts, reason } => {
                    let c = cell_mut(&mut replay.cells, cell, path, i + 1)?;
                    c.status = CellStatus::Quarantined { attempts, reason };
                    c.leased = false;
                    c.ckpt = None;
                }
                Record::Drain { .. } => {
                    replay.drained = true;
                }
            }
        }
        Ok(replay)
    }
}

/// Byte length of the journal's recoverable prefix: complete,
/// parseable lines up to (and excluding) the first bad or torn one.
fn recovered_len(text: &str) -> usize {
    let mut end = 0;
    let mut pos = 0;
    while let Some(nl) = text[pos..].find('\n') {
        let line = &text[pos..pos + nl];
        if !line.is_empty() && Record::parse_line(line).is_err() {
            break;
        }
        pos += nl + 1;
        end = pos;
    }
    end
}

fn cell_mut<'a>(
    cells: &'a mut [CellReplay],
    cell: u64,
    path: &Path,
    line: usize,
) -> Result<&'a mut CellReplay, String> {
    let len = cells.len();
    cells.get_mut(cell as usize).ok_or_else(|| {
        format!(
            "journal {} line {line} names cell {cell}, but the campaign has {len} cells",
            path.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> CellFingerprint {
        CellFingerprint {
            cycles: 1000 + n,
            raw_requests: 10 * n,
            dispatched: 5 * n,
            comparisons: n,
            transaction_bytes: 64 * n,
            latency_bits: (93.5f64 + n as f64).to_bits(),
            faults_injected: 0,
            retries_issued: 0,
            oracle_accepted: 10 * n,
            oracle_served: 10 * n,
            oracle_dispatches: 5 * n,
            oracle_responses: 5 * n,
        }
    }

    fn campaign_header(cells: u64) -> Record {
        Record::Campaign {
            spec: "pac-serve-spec v1 name=t".to_string(),
            spec_hash: 0xABCD,
            cells,
            seed: 7,
        }
    }

    #[test]
    fn records_roundtrip_through_their_lines() {
        let records = vec![
            campaign_header(3),
            Record::Resume { spec_hash: 0xABCD, pending: 2, done: 1 },
            Record::Lease { cell: 0, attempt: 1, worker: 2, lease: 9 },
            Record::Ckpt { cell: 0, attempt: 1, cycle: 5000, path: "c0.pacsnap".into() },
            Record::Done { cell: 0, attempt: 1, wall_ms: 12, fp: fp(3) },
            Record::Fail { cell: 1, attempt: 2, reason: "oracle: 3 violation(s)".into() },
            Record::Quarantine { cell: 1, attempts: 3, reason: "wedged \"hard\"".into() },
            Record::Drain { reason: "complete".into(), done: 2 },
        ];
        for r in &records {
            let line = r.to_line();
            assert_eq!(&Record::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn attempt_counts_past_u32_are_refused() {
        let framed = |payload: &str| {
            format!("{{\"v\":1,\"ck\":\"{:016x}\",{payload}}}", fnv1a64(payload.as_bytes()))
        };
        let lease = |attempt: u64| {
            framed(&format!(
                "\"ev\":\"lease\",\"cell\":0,\"attempt\":{attempt},\"worker\":1,\"lease\":2"
            ))
        };
        let quarantine = |attempts: u64| {
            framed(&format!(
                "\"ev\":\"quarantine\",\"cell\":0,\"attempts\":{attempts},\"reason\":\"r\""
            ))
        };
        let max = u32::MAX as u64;
        assert_eq!(
            Record::parse_line(&lease(max)).unwrap(),
            Record::Lease { cell: 0, attempt: u32::MAX, worker: 1, lease: 2 }
        );
        assert_eq!(
            Record::parse_line(&quarantine(max)).unwrap(),
            Record::Quarantine { cell: 0, attempts: u32::MAX, reason: "r".into() }
        );
        for (line, name) in [(lease(max + 2), "'attempt'"), (quarantine(max + 2), "'attempts'")] {
            let err = Record::parse_line(&line).unwrap_err();
            assert!(err.contains(name) && err.contains("out of range"), "{err}");
        }
    }

    #[test]
    fn deeply_nested_records_are_refused() {
        // The checksum holds, so only the reader's depth bound stands
        // between this line and a stack overflow.
        let payload = format!(
            "\"ev\":\"drain\",\"reason\":\"r\",\"done\":0,\"x\":{}{}",
            "[".repeat(40_000),
            "]".repeat(40_000)
        );
        let line = format!("{{\"v\":1,\"ck\":\"{:016x}\",{payload}}}", fnv1a64(payload.as_bytes()));
        let err = Record::parse_line(&line).unwrap_err();
        assert!(err.contains("invalid JSON") && err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn checksum_catches_a_flipped_byte() {
        let line = Record::Lease { cell: 3, attempt: 1, worker: 0, lease: 1 }.to_line();
        // Flip the cell index without touching the checksum.
        let bad = line.replace("\"cell\":3", "\"cell\":4");
        let err = Record::parse_line(&bad).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn journal_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("pac_serve_j_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let mut j = Journal::create(&path).unwrap();
        j.push(&campaign_header(2)).unwrap();
        j.push(&Record::Lease { cell: 0, attempt: 1, worker: 0, lease: 1 }).unwrap();
        j.push(&Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }).unwrap();
        j.push(&Record::Lease { cell: 1, attempt: 1, worker: 1, lease: 2 }).unwrap();
        drop(j);

        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, 4);
        assert_eq!(replay.cells.len(), 2);
        assert_eq!(replay.done(), 1);
        assert_eq!(replay.pending(), 1);
        assert!(replay.cells[1].leased, "crashed mid-lease");
        assert!(replay.torn.is_none());
        assert!(!replay.drained);
        assert_eq!(replay.cells[0].status, CellStatus::Done(fp(1)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_last_line_is_quarantined_and_recovered() {
        let dir = std::env::temp_dir().join(format!("pac_serve_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut text = String::new();
        text.push_str(&campaign_header(2).to_line());
        text.push('\n');
        text.push_str(&Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }.to_line());
        text.push('\n');
        let torn_line = Record::Done { cell: 1, attempt: 1, wall_ms: 6, fp: fp(2) }.to_line();
        text.push_str(&torn_line[..torn_line.len() / 2]); // kill -9 mid-write
        std::fs::write(&path, &text).unwrap();

        let replay = Journal::replay(&path).unwrap();
        assert!(replay.torn.is_some(), "torn tail must be reported");
        assert_eq!(replay.records, 2, "recovered to the last good record");
        assert_eq!(replay.done(), 1);
        assert_eq!(replay.pending(), 1, "the torn done never counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_truncates_the_torn_tail_before_writing() {
        let dir = std::env::temp_dir().join(format!("pac_serve_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.jsonl");
        let mut text = String::new();
        text.push_str(&campaign_header(2).to_line());
        text.push('\n');
        let torn_line = Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }.to_line();
        text.push_str(&torn_line[..torn_line.len() / 2]); // kill -9 mid-write
        std::fs::write(&path, &text).unwrap();

        // Appending after the crash must not concatenate onto the torn
        // fragment — that would corrupt the journal interior and make
        // every later replay a hard error.
        let mut j = Journal::append(&path, 1).unwrap();
        j.push(&Record::Done { cell: 1, attempt: 1, wall_ms: 6, fp: fp(2) }).unwrap();
        drop(j);

        let replay = Journal::replay(&path).unwrap();
        assert!(replay.torn.is_none(), "tail was truncated, not left in place");
        assert_eq!(replay.records, 2);
        assert_eq!(replay.done(), 1, "only the post-recovery done counts");
        assert_eq!(replay.pending(), 1, "the torn done was rolled back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_corrupt_last_line_is_quarantined() {
        let dir = std::env::temp_dir().join(format!("pac_serve_ck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.jsonl");
        let good = Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }.to_line();
        let bad = Record::Done { cell: 1, attempt: 1, wall_ms: 6, fp: fp(2) }
            .to_line()
            .replace("\"cell\":1", "\"cell\":0");
        let text = format!("{}\n{good}\n{bad}\n", campaign_header(2).to_line());
        std::fs::write(&path, &text).unwrap();

        let replay = Journal::replay(&path).unwrap();
        assert!(replay.torn.as_deref().unwrap_or("").contains("checksum mismatch"));
        assert_eq!(replay.done(), 1);
        assert!(replay.double_done.is_empty(), "the corrupt duplicate never counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_interior_line_is_a_hard_error() {
        let dir = std::env::temp_dir().join(format!("pac_serve_mid_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.jsonl");
        let text = format!(
            "{}\ngarbage-not-json\n{}\n",
            campaign_header(2).to_line(),
            Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }.to_line()
        );
        std::fs::write(&path, &text).unwrap();
        let err = Journal::replay(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("untrustworthy"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_done_is_detected() {
        let dir = std::env::temp_dir().join(format!("pac_serve_dd_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dd.jsonl");
        let done = Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }.to_line();
        let text = format!("{}\n{done}\n{done}\n", campaign_header(1).to_line());
        std::fs::write(&path, &text).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.double_done, vec![0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_and_resume_segments_replay() {
        let dir = std::env::temp_dir().join(format!("pac_serve_seg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.jsonl");
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            campaign_header(2).to_line(),
            Record::Done { cell: 0, attempt: 1, wall_ms: 5, fp: fp(1) }.to_line(),
            Record::Resume { spec_hash: 0xABCD, pending: 1, done: 1 }.to_line(),
            Record::Done { cell: 1, attempt: 1, wall_ms: 6, fp: fp(2) }.to_line(),
            Record::Drain { reason: "complete".into(), done: 2 }.to_line(),
        );
        std::fs::write(&path, &text).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.segments, 2);
        assert!(replay.drained);
        assert_eq!(replay.done(), 2);
        assert_eq!(replay.pending(), 0);
        // Mismatched resume hash is refused.
        let bad = format!(
            "{}\n{}\n",
            campaign_header(1).to_line(),
            Record::Resume { spec_hash: 0xDEAD, pending: 1, done: 0 }.to_line()
        );
        std::fs::write(&path, &bad).unwrap();
        assert!(Journal::replay(&path).unwrap_err().contains("spec hash"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
