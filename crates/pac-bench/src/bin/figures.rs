//! Regenerate the paper's tables and figures.
//!
//! Usage: `cargo run --release -p pac-bench --bin figures -- [--quick] <id>...`
//! where `<id>` is one of: table1, fig1, fig2, fig6a, fig6b, fig6c,
//! fig7, fig8, fig9, fig10a, fig10b, fig10c, fig11a, fig11b, fig11c,
//! fig12a, fig12b, fig12c, fig13, fig14, fig15, ablation-timeout,
//! ablation-streams, ablation-shared, ablation-hbm, ablation-links,
//! ablation-vm, or `all`.
//!
//! `--quick` shrinks the per-core access budget (default 20 000) so
//! every figure smoke-runs in seconds. `PAC_ACCESSES` (env) overrides
//! the budget in either mode. `figures` takes no other flag: it sizes
//! its worker pool from `PAC_THREADS`. An unknown flag or figure id, or
//! a `PAC_ACCESSES` that is not a positive integer, exits 2 before any
//! figure runs.

use pac_bench::{figures, Harness};
use pac_types::cli::{self, Args, Flags};

const FLAGS: Flags = Flags { switches: &["--quick"], valued: &[], modes: &[] };

/// The figure ids to run, in order; `all` anywhere means every figure.
fn ids(args: &Args) -> Result<Vec<&'static str>, String> {
    let known = figures::ALL_IDS.iter().copied().chain(["all"]);
    let ids = args.positionals(1..)?.iter();
    let ids = ids.map(|id| cli::lookup("figure id", id, known.clone(), |id| id));
    let ids = ids.collect::<Result<Vec<_>, _>>()?;
    Ok(if ids.contains(&"all") { figures::ALL_IDS.to_vec() } else { ids })
}

fn main() {
    let usage =
        format!("usage: figures [--quick] <id>... | all\nids: {}", figures::ALL_IDS.join(", "));
    let args = FLAGS.from_env(&usage);
    let ids = ids(&args).unwrap_or_else(|e| cli::usage_exit(&e, &usage));
    let mut h = Harness::from_env(args.has("--quick"))
        .unwrap_or_else(|e| cli::usage_exit(&e.to_string(), &usage));
    for id in ids {
        println!("{}", figures::run_figure(id, &mut h).expect("every listed id has a figure"));
    }
}
