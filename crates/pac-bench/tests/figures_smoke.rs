//! Smoke test: every figure the `figures` binary knows regenerates
//! under the quick-mode access budget and produces non-trivial output.

use pac_bench::{figures, Harness};

#[test]
fn every_figure_id_runs_under_quick_harness() {
    let mut h = Harness::quick();
    for &id in figures::ALL_IDS {
        let out = figures::run_figure(id, &mut h)
            .unwrap_or_else(|| panic!("ALL_IDS entry '{id}' not handled by run_figure"));
        assert!(!out.trim().is_empty(), "figure '{id}' produced empty output");
        assert!(out.contains("=="), "figure '{id}' missing its title banner:\n{out}");
    }
}

#[test]
fn unknown_figure_id_is_rejected() {
    let mut h = Harness::quick();
    assert!(figures::run_figure("fig99", &mut h).is_none());
}
