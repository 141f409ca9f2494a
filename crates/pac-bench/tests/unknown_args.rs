//! A mistyped flag must stop `conformance` and `figures` before they
//! simulate anything: exit 2 with the usage line, never a silent run of
//! the wrong mode (or a rewrite of the committed cycle table). A
//! malformed `PAC_ACCESSES` stops `figures`, `sweep` and `trace_tool`
//! the same way, and a valid one overrides the `--quick` budget.

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

#[test]
fn figures_rejects_flags_other_than_quick_even_with_all() {
    let cases: [(&[&str], &str); 2] =
        [(&["--quik", "all"], "--quik"), (&["--quick", "--threads", "2", "all"], "--threads")];
    for (args, flag) in cases {
        let out =
            Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("spawn figures");
        assert_usage_error(&out, flag);
    }
}

#[test]
fn malformed_pac_accesses_is_a_usage_error() {
    let dir = sandbox("accesses");
    let cases: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_figures"), &["--quick", "fig6a"]),
        (env!("CARGO_BIN_EXE_sweep"), &["--quick", "GS", "timeout", "4"]),
        (env!("CARGO_BIN_EXE_trace_tool"), &["--quick", "capture", "GS", "gs.json"]),
    ];
    for (bin, args) in cases {
        for bad in ["3k", "0", "-5", ""] {
            let out = Command::new(bin)
                .args(args)
                .env("PAC_ACCESSES", bad)
                .current_dir(&dir)
                .output()
                .expect("spawn the binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} PAC_ACCESSES={bad:?}: {stderr}");
            assert!(stderr.contains("PAC_ACCESSES"), "the error must name the variable: {stderr}");
            assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
        }
    }
    assert!(!dir.join("gs.json").exists(), "trace_tool wrote a capture");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pac_accesses_overrides_the_quick_budget() {
    let dir = sandbox("budget");
    let capture = |accesses: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_trace_tool"));
        cmd.args(["--quick", "capture", "STREAM", "stream.json"])
            .env_remove("PAC_ACCESSES")
            .env_remove("PAC_QUICK")
            .current_dir(&dir);
        if let Some(n) = accesses {
            cmd.env("PAC_ACCESSES", n);
        }
        let out = cmd.output().expect("spawn trace_tool");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let quick = capture(None);
    let small = capture(Some("100"));
    assert_ne!(quick, small, "PAC_ACCESSES=100 must override the --quick budget");
    assert_eq!(small, capture(Some("100")), "the override must be deterministic");
    std::fs::remove_dir_all(&dir).ok();
}
