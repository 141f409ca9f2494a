//! Smoke test: every figure the `figures` binary knows regenerates
//! under the quick-mode access budget, and together they print exactly
//! the committed `reference/figures-quick.txt`.
//!
//! The reference is the stdout of `figures --quick all`: each figure
//! followed by the newline `println!` adds. A change that moves a
//! figure rewrites the file (`figures --quick all >
//! crates/pac-bench/reference/figures-quick.txt`) and says why.

use pac_bench::{figures, Harness};

const REFERENCE: &str = include_str!("../reference/figures-quick.txt");

#[test]
fn every_figure_id_runs_under_quick_harness() {
    let mut h = Harness::quick();
    let mut all = String::new();
    for &id in figures::ALL_IDS {
        let out = figures::run_figure(id, &mut h)
            .unwrap_or_else(|| panic!("ALL_IDS entry '{id}' not handled by run_figure"));
        assert!(!out.trim().is_empty(), "figure '{id}' produced empty output");
        assert!(out.contains("=="), "figure '{id}' missing its title banner:\n{out}");
        all.push_str(&out);
        all.push('\n');
    }
    if all != REFERENCE {
        let got: Vec<&str> = all.split_inclusive('\n').collect();
        let want: Vec<&str> = REFERENCE.split_inclusive('\n').collect();
        let i = (0..got.len().max(want.len()))
            .find(|&i| got.get(i) != want.get(i))
            .expect("unequal texts differ in some line");
        panic!(
            "quick figure output differs from reference/figures-quick.txt at line {}:\n  \
             got:       {:?}\n  reference: {:?}",
            i + 1,
            got.get(i),
            want.get(i)
        );
    }
}

#[test]
fn unknown_figure_id_is_rejected() {
    let mut h = Harness::quick();
    assert!(figures::run_figure("fig99", &mut h).is_none());
}
