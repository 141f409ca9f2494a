//! The correctness gate: every timed operation's simulated statistics
//! are reduced to an exact digest (integers as-is, floats as raw bits)
//! and checked against the committed reference for the run's
//! configuration, or — for a configuration with no reference — against
//! the first pass of the same run.

use pac_serve::CellFingerprint;
use pac_sim::RunMetrics;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Exact identity of one run's statistics: every counter, and every
/// derived float as its bit pattern.
pub fn run_digest(m: &RunMetrics) -> String {
    format!(
        "cycles={} raw={} dispatched={} eff={:016x} cmp={} conflicts={} dev_requests={} \
         payload={} txn_bytes={} txn_eff={:016x} lat={:016x} energy={:016x} l1={:016x} \
         l2={:016x} prefetches={} merges={} refused={} bypass={:016x} net_bypass={}",
        m.runtime_cycles,
        m.raw_requests,
        m.dispatched_requests,
        m.coalescing_efficiency.to_bits(),
        m.comparisons,
        m.bank_conflicts,
        m.hmc_requests,
        m.payload_bytes,
        m.transaction_bytes,
        m.transaction_efficiency.to_bits(),
        m.avg_mem_latency_ns.to_bits(),
        m.energy.total_pj().to_bits(),
        m.l1_hit_rate.to_bits(),
        m.l2_hit_rate.to_bits(),
        m.prefetches,
        m.mshr_merges,
        m.stall_cycles,
        m.bypass_fraction.to_bits(),
        m.network_bypasses,
    )
}

/// Exact identity of one oracle-checked campaign cell.
pub fn cell_digest(fp: &CellFingerprint) -> String {
    format!(
        "cycles={} raw={} dispatched={} cmp={} txn_bytes={} lat={:016x} faults={} retries={} \
         oracle={},{},{},{}",
        fp.cycles,
        fp.raw_requests,
        fp.dispatched,
        fp.comparisons,
        fp.transaction_bytes,
        fp.latency_bits,
        fp.faults_injected,
        fp.retries_issued,
        fp.oracle_accepted,
        fp.oracle_served,
        fp.oracle_dispatches,
        fp.oracle_responses,
    )
}

const MAGIC: &str = "# pac-perfbench reference v1";

/// Op-by-op verdicts for one run.
#[derive(Debug)]
pub struct Gate {
    path: PathBuf,
    header: String,
    reference: Option<BTreeMap<String, String>>,
    first: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Up to [`MAX_NOTES`] failure descriptions, for the log.
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 8;

impl Gate {
    /// Open the gate for the configuration `header`. The reference file
    /// at `path` applies only when its header matches exactly.
    pub fn open(path: &Path, header: &str) -> Gate {
        let reference = std::fs::read_to_string(path).ok().and_then(|text| parse(&text, header));
        Gate {
            path: path.to_path_buf(),
            header: header.to_string(),
            reference,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// The same gate checking pass-to-pass identity only.
    pub fn without_reference(self) -> Gate {
        Gate { reference: None, ..self }
    }

    /// Whether a committed reference covers this configuration.
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Count one attempted op whose statistics digest to `digest`.
    pub fn check(&mut self, op: &str, digest: String) {
        self.attempted += 1;
        let expected = match &self.reference {
            Some(rows) => rows.get(op).cloned(),
            None => self.first.get(op).cloned(),
        };
        match expected {
            Some(want) if want != digest => {
                let against = if self.reference.is_some() { "reference" } else { "first pass" };
                self.note(format!("{op}: differs from the {against}: got {digest}, want {want}"));
            }
            None if self.reference.is_some() => {
                self.note(format!("{op}: no reference row"));
            }
            _ => {}
        }
        self.first.entry(op.to_string()).or_insert(digest);
    }

    /// Count one attempted op that passed a check of its own.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted op that failed outright (a panic, an
    /// unfinished campaign cell, an isolated replay that diverged).
    pub fn fail(&mut self, op: &str, why: &str) {
        self.attempted += 1;
        self.note(format!("{op}: {why}"));
    }

    fn note(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    /// Rewrite the reference from this run's first-pass digests.
    pub fn bless(&self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = format!("{MAGIC}\n# config {}\n", self.header);
        for (op, digest) in &self.first {
            text.push_str(&format!("{op} {digest}\n"));
        }
        std::fs::write(&self.path, text)
    }
}

fn parse(text: &str, header: &str) -> Option<BTreeMap<String, String>> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC || lines.next()? != format!("# config {header}") {
        return None;
    }
    Some(
        lines
            .filter_map(|l| l.split_once(' '))
            .map(|(op, digest)| (op.to_string(), digest.to_string()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("ref.txt")
    }

    #[test]
    fn pass_to_pass_identity_without_reference() {
        let mut g = Gate::open(&tmp("p2p"), "cfg");
        assert!(!g.has_reference());
        g.check("a", "x=1".into());
        g.check("a", "x=1".into());
        g.check("a", "x=2".into());
        assert_eq!((g.attempted, g.failed), (3, 1));
    }

    #[test]
    fn reference_round_trips_and_catches_one_row() {
        let path = tmp("bless");
        let mut g = Gate::open(&path, "cfg");
        g.check("a", "x=1".into());
        g.check("b", "y=2".into());
        g.bless().unwrap();
        let mut g = Gate::open(&path, "cfg");
        assert!(g.has_reference());
        g.check("a", "x=1".into());
        g.check("b", "y=3".into());
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert!(!Gate::open(&path, "other cfg").has_reference());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
