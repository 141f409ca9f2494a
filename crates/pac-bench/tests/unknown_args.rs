//! A mistyped flag must stop `conformance` before it simulates anything:
//! exit 2 with the usage line, never a silent run of the wrong mode (or
//! a rewrite of the committed cycle table).

use std::path::PathBuf;
use std::process::{Command, Output};

fn sandbox(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pac-bench-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create sandbox dir");
    dir
}

fn assert_usage_error(out: &Output, typo: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("'{typo}'")), "the error must name the argument: {stderr}");
    assert!(stderr.contains("usage:"), "the error must print the usage line: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn conformance_rejects_unknown_argument() {
    let dir = sandbox("conformance");
    let out = Command::new(env!("CARGO_BIN_EXE_conformance"))
        .args(["--quick", "--recovr"])
        .current_dir(&dir)
        .output()
        .expect("spawn conformance");
    assert_usage_error(&out, "--recovr");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conformance_bless_typo_leaves_the_table_alone() {
    let table = pac_bench::reference::PATH;
    let before = std::fs::read(table).expect("read the committed table");
    let out = Command::new(env!("CARGO_BIN_EXE_conformance"))
        .arg("--bles")
        .output()
        .expect("spawn conformance");
    assert_usage_error(&out, "--bles");
    assert_eq!(std::fs::read(table).expect("re-read the table"), before, "the table changed");
}
