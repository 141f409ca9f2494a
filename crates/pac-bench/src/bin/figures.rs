//! Regenerate the paper's tables and figures.
//!
//! Usage: `cargo run --release -p pac-bench --bin figures -- [--quick] <id>...`
//! where `<id>` is one of: table1, fig1, fig2, fig6a, fig6b, fig6c,
//! fig7, fig8, fig9, fig10a, fig10b, fig10c, fig11a, fig11b, fig11c,
//! fig12a, fig12b, fig12c, fig13, fig14, fig15, ablation-timeout,
//! ablation-streams, ablation-shared, ablation-hbm, or `all`.
//!
//! `--quick` (or `PAC_QUICK=1`) shrinks the per-core access budget
//! (default 20 000) so every figure smoke-runs in seconds.
//! `PAC_ACCESSES` (env) overrides the budget in either mode; a value
//! that is not a positive integer exits 2.

use pac_bench::{figures, Harness};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let usage =
        format!("usage: figures [--quick] <id>... | all\nids: {}", figures::ALL_IDS.join(", "));
    // A mistyped or unsupported flag must not silently run the default
    // (full-scale) set; figures sizes its pool from PAC_THREADS alone.
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown argument '{flag}'\n{usage}");
        std::process::exit(2);
    }
    if args.is_empty() {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        figures::ALL_IDS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut h = Harness::from_env(quick).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for id in ids {
        match figures::run_figure(id, &mut h) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!("unknown figure id '{id}'; known: {}", figures::ALL_IDS.join(", "));
                std::process::exit(2);
            }
        }
    }
}
