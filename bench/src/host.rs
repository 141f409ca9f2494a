//! Host facts recorded with every result, and the process's peak
//! resident set.

use crate::stats::json_str;
use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run a command to completion and return its trimmed stdout.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit under test, or "unknown" when the checkout is a source
/// export rather than a git repository (git may not search above it).
fn git_rev() -> String {
    let rev = || {
        let root = std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).ok()?;
        let out = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", root.parent()?)
            .output()
            .ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    rev().unwrap_or_else(|| "unknown".to_string())
}

/// `{"nproc": .., "cpu": .., "rustc": .., "git_rev": ..}`
pub fn facts_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(&git_rev())
    )
}
