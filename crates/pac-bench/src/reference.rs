//! The committed exact-cycle reference, `reference/cycles.txt`.
//!
//! One plain-text row per cell of the [`matrix`] on each memory backend,
//! giving the simulated cycles a skip-ahead run of that cell takes at
//! the configuration the header names. `trace --guard` and
//! `conformance` phases R2 and H3 re-run rows and require each count to
//! reproduce exactly. The table's one regeneration path is
//! `conformance --bless`, which re-runs every cell and rewrites it.

use crate::matrix::{matrix, MatrixCell};
use crate::runner::ParallelRunner;
use pac_sim::{run_bench, CoalescerKind, ExperimentConfig, Stepping};
use pac_types::{BackendKind, SimConfig};
use pac_workloads::Bench;
use std::fmt::Write as _;

/// The table as committed, compiled into every binary that checks it.
pub const COMMITTED: &str = include_str!("../reference/cycles.txt");

/// The source-tree path `conformance --bless` rewrites.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/cycles.txt");

const SEED: u64 = 0x9AC_5EED;
const CORES: u32 = 8;
const ACCESSES_PER_CORE: u64 = 60_000;

/// One cell of the table: a matrix cell on one backend and the exact
/// simulated cycles its run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub backend: BackendKind,
    pub cell: MatrixCell,
    pub cycles: u64,
}

/// The configuration every row of `backend` is recorded under.
pub fn config(backend: BackendKind) -> ExperimentConfig {
    ExperimentConfig {
        sim: SimConfig { cores: CORES, ..SimConfig::for_backend(backend) },
        accesses_per_core: ACCESSES_PER_CORE,
        seed: SEED,
        stepping: Stepping::SkipAhead,
        ..Default::default()
    }
}

/// Every cell the table holds, in table order: the matrix on each
/// backend.
fn cells() -> Vec<(BackendKind, MatrixCell)> {
    BackendKind::ALL.iter().flat_map(|&b| matrix().into_iter().map(move |c| (b, c))).collect()
}

fn header() -> String {
    format!(
        "# Exact simulated cycles per matrix cell, checked by `trace --guard` and\n\
         # `conformance` phases R2 and H3. Regenerate with `conformance --bless`.\n\
         seed {SEED:#x} cores {CORES} accesses_per_core {ACCESSES_PER_CORE} stepping skip-ahead\n\
         {:<7} {:<8} {:<8} cycles\n",
        "backend", "bench", "kind"
    )
}

/// Render rows as the table text [`parse`] reads back.
pub fn render(rows: &[Row]) -> String {
    let mut out = header();
    for r in rows {
        let _ = writeln!(
            out,
            "{:<7} {:<8} {:<8} {}",
            r.backend.label(),
            r.cell.bench.name(),
            r.cell.kind.label(),
            r.cycles
        );
    }
    out
}

/// Parse a table. It must open with the header and then hold exactly
/// one row per cell, in matrix order on each backend; anything else is
/// refused with an error naming the 1-based line.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let header = header();
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    for (i, want) in header.lines().enumerate() {
        if lines.next().map(|(_, got)| got) != Some(want) {
            return Err(format!("line {}: header must read `{want}`", i + 1));
        }
    }
    let expected = cells();
    let describe = |(b, c): (BackendKind, MatrixCell)| format!("{} {}", b.label(), c.label());
    let mut rows: Vec<Row> = Vec::with_capacity(expected.len());
    let mut last = header.lines().count();
    for (n, line) in lines {
        last = n;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [backend, bench, kind, cycles] = fields[..] else {
            return Err(format!("line {n}: expected `backend bench kind cycles`, got `{line}`"));
        };
        let backend = BackendKind::ALL
            .into_iter()
            .find(|b| b.label() == backend)
            .ok_or_else(|| format!("line {n}: unknown backend '{backend}'"))?;
        let bench = Bench::ALL
            .into_iter()
            .find(|b| b.name() == bench)
            .ok_or_else(|| format!("line {n}: unknown bench '{bench}'"))?;
        let kind = CoalescerKind::ALL
            .into_iter()
            .find(|k| k.label() == kind)
            .ok_or_else(|| format!("line {n}: unknown kind '{kind}'"))?;
        let cycles: u64 = cycles
            .parse()
            .map_err(|_| format!("line {n}: cycle count '{cycles}' is not an integer"))?;
        let got = (backend, MatrixCell { bench, kind });
        if rows.iter().any(|r| (r.backend, r.cell) == got) {
            return Err(format!("line {n}: duplicate cell {}", describe(got)));
        }
        // `got` is a table cell not yet seen, so fewer than all are in.
        let want = expected[rows.len()];
        if want != got {
            return Err(format!(
                "line {n}: missing cell {} (found {})",
                describe(want),
                describe(got)
            ));
        }
        rows.push(Row { backend, cell: got.1, cycles });
    }
    if let Some(&want) = expected.get(rows.len()) {
        return Err(format!("line {}: missing cell {}", last + 1, describe(want)));
    }
    Ok(rows)
}

/// The committed rows of `backend`, in matrix order.
pub fn committed(backend: BackendKind) -> Result<Vec<Row>, String> {
    Ok(parse(COMMITTED)?.into_iter().filter(|r| r.backend == backend).collect())
}

/// Run every cell of the table on `runner` and return the measured
/// rows, in table order.
pub fn measure(runner: &ParallelRunner) -> Vec<Row> {
    runner.run(&cells(), |_, &(backend, cell)| {
        let (m, _) = run_bench(cell.bench, cell.kind, &config(backend));
        Row { backend, cell, cycles: m.runtime_cycles }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_holds_the_matrix_on_both_backends_in_order() {
        let rows = parse(COMMITTED).unwrap();
        assert_eq!(rows.len(), 2 * matrix().len());
        let got: Vec<_> = rows.iter().map(|r| (r.backend, r.cell)).collect();
        assert_eq!(got, cells());
        assert!(rows.iter().all(|r| r.cycles > 0));
        assert_eq!(render(&rows), COMMITTED, "the committed table is in canonical form");
        for backend in BackendKind::ALL {
            let cells: Vec<_> = committed(backend).unwrap().iter().map(|r| r.cell).collect();
            assert_eq!(cells, matrix());
        }
    }

    /// Each malformed table is refused, and the error names the line.
    #[test]
    fn malformed_tables_are_refused_with_a_line_number() {
        let lines: Vec<&str> = COMMITTED.lines().collect();
        let first = header().lines().count(); // index of the first row
        let edit = |at: usize, with: Option<&str>| {
            let mut l: Vec<&str> = lines.clone();
            match with {
                Some(s) => l[at] = s,
                None => {
                    l.remove(at);
                }
            }
            l.join("\n") + "\n"
        };
        let row1 = first + 1; // 1-based line of the first row
        let cases = [
            (edit(first, Some("hmc BFS vector 1548786")), row1, "unknown kind 'vector'"),
            (edit(first, Some("hmc DGEMM raw 1548786")), row1, "unknown bench 'DGEMM'"),
            (edit(first, Some("ddr4 BFS raw 1548786")), row1, "unknown backend 'ddr4'"),
            (edit(first, Some("hmc BFS raw 1.5e6")), row1, "'1.5e6' is not an integer"),
            (edit(first, Some("hmc BFS raw -3")), row1, "'-3' is not an integer"),
            (edit(first, Some("hmc BFS raw")), row1, "expected `backend bench kind cycles`"),
            (edit(first + 1, Some("hmc BFS raw 1548786")), row1 + 1, "duplicate cell hmc BFS/raw"),
            (edit(first + 1, None), row1 + 1, "missing cell hmc BFS/mshr-dmc"),
            (edit(lines.len() - 1, None), lines.len(), "missing cell hbm STREAM/pac"),
            (edit(2, Some("seed 0x1 cores 8")), 3, "header must read `seed 0x9ac5eed cores 8"),
            (edit(0, None), 1, "header"),
        ];
        for (text, line, what) in cases {
            let err = parse(&text).unwrap_err();
            assert!(err.starts_with(&format!("line {line}: ")), "{what}: {err}");
            assert!(err.contains(what), "{what}: {err}");
        }
        let extra = format!("{COMMITTED}hmc BFS raw 1\n");
        let err = parse(&extra).unwrap_err();
        assert!(err.starts_with(&format!("line {}: duplicate cell", lines.len() + 1)), "{err}");
        assert!(parse("").unwrap_err().starts_with("line 1: header must read"));
    }
}
