//! Campaign specification: which cells to run, and the scheduler knobs.
//!
//! A spec is a flat `key=value` token list — whitespace- or
//! newline-separated, `#` starts a comment — whose cartesian axes
//! (`backends × benches × kinds × faults`) enumerate the campaign's
//! cells in a fixed order. [`CampaignSpec::canonical`] renders the spec
//! back to a single normalized line; that line is embedded verbatim in
//! the journal's campaign header, so a `pac-serve resume` needs nothing
//! but the journal file to reconstruct the exact cell list, and
//! [`CampaignSpec::spec_hash`] guards against resuming someone else's
//! journal.

use pac_sim::CoalescerKind;
use pac_types::snapshot::fnv1a64;
use pac_types::{cli, derive_seed, BackendKind, FaultClass, RasClass};
use pac_workloads::Bench;
use std::fmt::Write as _;
use std::iter::once;

/// One fully resolved campaign cell: everything a worker needs to run
/// it, including the derived per-cell workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Index in campaign enumeration order (journal cell id).
    pub index: u64,
    /// Memory substrate.
    pub backend: BackendKind,
    /// Workload.
    pub bench: Bench,
    /// Coalescer configuration.
    pub kind: CoalescerKind,
    /// Armed fault class, if any.
    pub fault: Option<FaultClass>,
    /// Armed hardware-RAS class, if any. Always native to the cell's
    /// backend: [`CampaignSpec::cells`] enumerates a class only on its
    /// own substrate.
    pub ras: Option<RasClass>,
    /// Whether the recovery layer is enabled for fault cells (and for
    /// double-bit ECC cells, whose poisoned echoes need the repair).
    pub recovery: bool,
    /// Derived workload seed (pure function of campaign seed + index).
    pub seed: u64,
}

impl CellSpec {
    /// Human-readable identity for logs and failure messages.
    pub fn describe(&self) -> String {
        format!(
            "cell {} [{} x {} x {} fault={} ras={}{}]",
            self.index,
            self.bench.name(),
            self.kind.label(),
            self.backend.label(),
            self.fault.map_or("none", FaultClass::label),
            self.ras.map_or("none", RasClass::label),
            if self.fault.is_some() && !self.recovery { " recovery=off" } else { "" },
        )
    }
}

/// The parsed campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (journal/report labelling only).
    pub name: String,
    /// Master seed: per-cell workload seeds and retry jitter derive
    /// from it.
    pub seed: u64,
    /// Cores per simulated system.
    pub cores: u32,
    /// Access budget per core.
    pub accesses_per_core: u64,
    /// Memory substrates axis.
    pub backends: Vec<BackendKind>,
    /// Workloads axis.
    pub benches: Vec<Bench>,
    /// Coalescer axis.
    pub kinds: Vec<CoalescerKind>,
    /// Fault axis (`None` = clean cell).
    pub faults: Vec<Option<FaultClass>>,
    /// Hardware-RAS axis (`None` = pristine hardware). A class is
    /// enumerated only on backends that model it (link classes on hmc,
    /// ECC/scrub on hbm), so mixed-backend campaigns stay well-formed.
    pub ras: Vec<Option<RasClass>>,
    /// Recovery layer for fault cells (`recovery=off` makes fault cells
    /// deliberately poisonous: the oracle fires and the cell fails).
    pub recovery: bool,
    /// Attempts per cell before quarantine.
    pub max_attempts: u32,
    /// Preemption quantum in simulated cycles (0 = run cells to
    /// completion within one lease).
    pub quantum_cycles: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_string(),
            seed: 0,
            cores: 4,
            accesses_per_core: 400,
            backends: vec![BackendKind::Hmc],
            benches: vec![Bench::Ep, Bench::Stream],
            kinds: vec![CoalescerKind::Pac],
            faults: vec![None],
            ras: vec![None],
            recovery: true,
            max_attempts: 3,
            quantum_cycles: 0,
            threads: 2,
        }
    }
}

/// The entries of a comma-separated axis, each found among `all` by
/// its label.
fn axis<T: Copy>(
    what: &str,
    value: &str,
    all: impl IntoIterator<Item = T> + Clone,
    label: impl Fn(T) -> &'static str,
) -> Result<Vec<T>, String> {
    value.split(',').map(|s| cli::lookup(what, s, all.clone(), &label)).collect()
}

impl CampaignSpec {
    /// Parse a spec from its token text (a file's contents or a
    /// canonical line). Unknown keys are errors — a typo'd knob must
    /// not silently fall back to a default.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        let mut saw_header = false;
        for raw_line in text.lines() {
            let line = raw_line.split('#').next().unwrap_or("");
            for token in line.split_whitespace() {
                if token == "pac-serve-spec" || token == "v1" {
                    saw_header = true;
                    continue;
                }
                let (key, value) = token
                    .split_once('=')
                    .ok_or_else(|| format!("malformed token '{token}' (expected key=value)"))?;
                match key {
                    "name" => spec.name = value.to_string(),
                    "seed" => spec.seed = cli::int(key, value)?,
                    "cores" => spec.cores = cli::int(key, value)?,
                    "accesses" => spec.accesses_per_core = cli::int(key, value)?,
                    "max_attempts" => spec.max_attempts = cli::int(key, value)?,
                    "quantum" => spec.quantum_cycles = cli::int(key, value)?,
                    "threads" => spec.threads = cli::int(key, value)?,
                    "recovery" => {
                        spec.recovery =
                            cli::lookup(key, value, [("on", true), ("off", false)], |(l, _)| l)?.1
                    }
                    "backends" => {
                        spec.backends =
                            axis("backend", value, BackendKind::ALL, BackendKind::label)?
                    }
                    "benches" => spec.benches = axis("bench", value, Bench::ALL, Bench::name)?,
                    "kinds" => {
                        spec.kinds =
                            axis("coalescer", value, CoalescerKind::ALL, CoalescerKind::label)?
                    }
                    "faults" => {
                        let all = once(None).chain(FaultClass::ALL.map(Some));
                        let label = |f: Option<_>| f.map_or("none", FaultClass::label);
                        spec.faults = axis("fault", value, all, label)?
                    }
                    "ras" => {
                        let all = once(None).chain(RasClass::ALL.map(Some));
                        let label = |r: Option<_>| r.map_or("none", RasClass::label);
                        spec.ras = axis("ras class", value, all, label)?
                    }
                    other => return Err(format!("unknown spec key '{other}'")),
                }
            }
        }
        let _ = saw_header; // the header is advisory; key=value files omit it
        if spec.backends.is_empty()
            || spec.benches.is_empty()
            || spec.kinds.is_empty()
            || spec.faults.is_empty()
            || spec.ras.is_empty()
        {
            return Err("spec enumerates zero cells (an axis is empty)".to_string());
        }
        if spec.max_attempts == 0 {
            return Err("max_attempts must be at least 1".to_string());
        }
        if spec.threads == 0 {
            return Err("threads must be at least 1".to_string());
        }
        if spec.cores == 0 {
            return Err("cores must be at least 1".to_string());
        }
        if spec.name.is_empty() || spec.name.contains(|c: char| c.is_whitespace()) {
            return Err("name must be a non-empty token without whitespace".to_string());
        }
        Ok(spec)
    }

    /// Render the normalized single-line form. `parse(canonical())`
    /// roundtrips exactly, and [`CampaignSpec::spec_hash`] is defined
    /// over this text.
    pub fn canonical(&self) -> String {
        let join = |parts: Vec<&str>| parts.join(",");
        let mut s = String::new();
        let _ = write!(
            s,
            "pac-serve-spec v1 name={} seed={:#x} cores={} accesses={} backends={} \
             benches={} kinds={} faults={} ras={} recovery={} max_attempts={} quantum={} \
             threads={}",
            self.name,
            self.seed,
            self.cores,
            self.accesses_per_core,
            join(self.backends.iter().map(|b| b.label()).collect()),
            join(self.benches.iter().map(|b| b.name()).collect()),
            join(self.kinds.iter().map(|k| k.label()).collect()),
            join(self.faults.iter().map(|f| f.map_or("none", FaultClass::label)).collect()),
            join(self.ras.iter().map(|r| r.map_or("none", RasClass::label)).collect()),
            if self.recovery { "on" } else { "off" },
            self.max_attempts,
            self.quantum_cycles,
            self.threads,
        );
        s
    }

    /// FNV-1a-64 of the canonical text: the campaign's identity.
    pub fn spec_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// Enumerate every cell in fixed order: backends outermost, then
    /// benches, kinds, faults, ras innermost. A RAS class is enumerated
    /// only on its native substrate (link classes on hmc, ECC/scrub on
    /// hbm) — a mixed-backend campaign with a mixed ras axis yields
    /// each class exactly where the hardware models it. Workload seeds
    /// derive from the campaign seed and the cell index, so the list is
    /// a pure function of the spec.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &backend in &self.backends {
            for &bench in &self.benches {
                for &kind in &self.kinds {
                    for &fault in &self.faults {
                        for &ras in &self.ras {
                            if ras.is_some_and(|c| c.backend() != backend) {
                                continue;
                            }
                            let index = cells.len() as u64;
                            cells.push(CellSpec {
                                index,
                                backend,
                                bench,
                                kind,
                                fault,
                                ras,
                                recovery: self.recovery,
                                seed: derive_seed(self.seed, index),
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roundtrips_through_parse() {
        let spec = CampaignSpec {
            name: "chaos-ci".to_string(),
            seed: 0xC4A05,
            cores: 2,
            accesses_per_core: 120,
            backends: vec![BackendKind::Hmc, BackendKind::Hbm],
            benches: vec![Bench::Ep, Bench::Stream, Bench::Gs],
            kinds: vec![CoalescerKind::Raw, CoalescerKind::Pac],
            faults: vec![None, Some(FaultClass::DropResponse)],
            ras: vec![None, Some(RasClass::LinkBitError), Some(RasClass::Scrub)],
            recovery: true,
            max_attempts: 2,
            quantum_cycles: 40_000,
            threads: 3,
        };
        let reparsed = CampaignSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.canonical(), spec.canonical());
        assert_eq!(reparsed.spec_hash(), spec.spec_hash());
    }

    #[test]
    fn file_form_with_comments_parses() {
        let text = "# CI chaos campaign\nname=ci seed=7\nbenches=EP,STREAM  # two quick ones\n\
                    kinds=pac\nfaults=none\nthreads=2\n";
        let spec = CampaignSpec::parse(text).unwrap();
        assert_eq!(spec.name, "ci");
        assert_eq!(spec.benches, vec![Bench::Ep, Bench::Stream]);
        assert_eq!(spec.cells().len(), 2);
    }

    #[test]
    fn unknown_values_are_rejected_with_choices() {
        for (text, needle) in [
            ("backends=hmcc", "valid: hmc, hbm"),
            ("benches=NOPE", "valid: BFS"),
            ("kinds=fast", "valid: raw, mshr-dmc, pac"),
            ("faults=sometimes", "valid: none, drop-response"),
            ("ras=gremlins", "valid: none, link-bit-error"),
            ("recovery=maybe", "valid: on, off"),
            ("quantum=soon", "not an integer"),
            ("wat=1", "unknown spec key"),
            ("standalone", "expected key=value"),
        ] {
            let err = CampaignSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn integers_past_their_field_are_refused() {
        for (text, needle) in [
            ("cores=4294967298", "cores: '4294967298' is out of range (at most 4294967295)"),
            ("max_attempts=4294967297", "max_attempts: '4294967297' is out of range"),
            ("seed=0x10000000000000000", "seed: '0x10000000000000000' is out of range"),
        ] {
            let err = CampaignSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
        let spec = CampaignSpec::parse("cores=4294967295 max_attempts=0xffffffff").unwrap();
        assert_eq!((spec.cores, spec.max_attempts), (u32::MAX, u32::MAX));
    }

    #[test]
    fn cell_enumeration_is_stable_and_seeded() {
        let spec = CampaignSpec {
            backends: vec![BackendKind::Hmc, BackendKind::Hbm],
            faults: vec![None, Some(FaultClass::CorruptAddr)],
            ..CampaignSpec::default()
        };
        let cells = spec.cells();
        // 2 backends x 2 benches x 2 faults (single kind, single seed).
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i as u64));
        // Faults innermost: cell 0 clean, cell 1 faulted, same bench.
        assert_eq!(cells[0].fault, None);
        assert_eq!(cells[1].fault, Some(FaultClass::CorruptAddr));
        assert_eq!(cells[0].bench, cells[1].bench);
        // Backends outermost.
        assert_eq!(cells[0].backend, BackendKind::Hmc);
        assert_eq!(cells.last().unwrap().backend, BackendKind::Hbm);
        // Distinct derived seeds.
        assert_ne!(cells[0].seed, cells[1].seed);
        // Same spec, same seeds.
        assert_eq!(spec.cells(), spec.cells());
    }

    #[test]
    fn ras_axis_enumerates_only_on_native_substrates() {
        let spec = CampaignSpec {
            backends: vec![BackendKind::Hmc, BackendKind::Hbm],
            benches: vec![Bench::Ep],
            ras: vec![None, Some(RasClass::LinkBitError), Some(RasClass::EccSingle)],
            ..CampaignSpec::default()
        };
        let cells = spec.cells();
        // Each backend gets the clean cell plus only its own class.
        assert_eq!(cells.len(), 2 * 2);
        assert!(cells
            .iter()
            .all(|c| c.ras.is_none_or(|r| r.backend() == c.backend)));
        assert!(cells
            .iter()
            .any(|c| c.backend == BackendKind::Hmc && c.ras == Some(RasClass::LinkBitError)));
        assert!(cells
            .iter()
            .any(|c| c.backend == BackendKind::Hbm && c.ras == Some(RasClass::EccSingle)));
        // Indices stay dense and stable.
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i as u64));
        // And the axis roundtrips through the canonical line.
        let reparsed = CampaignSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(reparsed.cells(), cells);
    }

    #[test]
    fn zero_knobs_are_rejected() {
        assert!(CampaignSpec::parse("max_attempts=0").is_err());
        assert!(CampaignSpec::parse("threads=0").is_err());
        assert!(CampaignSpec::parse("cores=0").is_err());
    }
}
