//! A mistyped flag must stop every `pac-bench` binary before it
//! simulates or writes anything: exit 2 with the usage line, never a
//! silent run of the wrong mode (or a rewrite of the committed cycle
//! table). A malformed `PAC_ACCESSES` stops `figures`, `sweep` and
//! `trace_tool` the same way, and a valid one overrides the `--quick`
//! budget. The last tests run the happy paths nothing else spawns.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const CONFORMANCE: &str = env!("CARGO_BIN_EXE_conformance");
const REPORT: &str = env!("CARGO_BIN_EXE_report");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const TRACE_TOOL: &str = env!("CARGO_BIN_EXE_trace_tool");

/// `(binary, arguments, what stderr must contain)`. Each is a usage
/// error caught before anything runs or is written.
const USAGE_ERRORS: &[(&str, &[&str], &[&str])] = &[
    // A flag typed after the positionals is never taken as data.
    (TRACE, &["--quick", "EP", "pac", "--bogus"], &["'--bogus'"]),
    (TRACE_TOOL, &["--quick", "capture", "GS", "--quik"], &["'--quik'"]),
    (TRACE, &["--quick", "--all", "--fault", "drop-response"], &["'--fault'", "'--all'"]),
    (REPORT, &["--bogus", "x.jsonl"], &["'--bogus'"]),
    // A surplus positional, or a value that does not fit, is refused.
    (TRACE, &["--quick", "EP", "pac", "a.json", "b.json"], &["'b.json'"]),
    (SWEEP, &["--quick", "GS", "bogus", "4"], &["'bogus'", "valid: timeout, streams"]),
    (SWEEP, &["--quick", "GS", "degree", "4294967296"], &["'4294967296'", "out of range"]),
    // Unknown names list the valid ones, in either spelling of a flag.
    (CONFORMANCE, &["--backend", "ddr4"], &["'ddr4'", "valid: hmc, hbm"]),
    (TRACE, &["--quick", "--backend=ddr4", "EP", "pac"], &["'ddr4'", "valid: hmc, hbm"]),
    (TRACE, &["--quick", "--fault", "bit-rot", "EP", "pac"], &["'bit-rot'", "drop-response"]),
    (TRACE, &["--quick", "--fault=bit-rot", "EP", "pac"], &["'bit-rot'", "corrupt-addr"]),
    (TRACE, &["--quick", "--ras", "cosmic-ray", "EP", "pac"], &["'cosmic-ray'", "ecc-single"]),
    (TRACE, &["--quick", "--ras=scrub:warp=9", "EP", "pac"], &["'warp'", "scrub-interval"]),
    (TRACE, &["--quick", "EP", "fast"], &["'fast'", "valid: raw, mshr-dmc, pac"]),
    (TRACE_TOOL, &["replay", "t.json", "fast"], &["'fast'", "valid: raw, mshr-dmc, pac"]),
    // A missing, malformed or repeated value.
    (CONFORMANCE, &["--quick", "--progress"], &["'--progress' requires a value"]),
    (CONFORMANCE, &["--threads=x"], &["--threads: 'x' is not an integer"]),
    (CONFORMANCE, &["--threads=2", "--threads", "4"], &["'--threads' given twice"]),
    (CONFORMANCE, &["--quick=1"], &["'--quick' takes no value"]),
];

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

/// Run `bin` with `args` in an empty directory, require a usage error
/// containing each of `needles`, and require the directory still empty.
fn assert_refused(dir: &PathBuf, bin: &str, args: &[&str], needles: &[&str]) {
    let out = Command::new(bin).args(args).current_dir(dir).output().expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{bin} {args:?} must say {needle}: {stderr}");
    }
    assert!(stderr.contains("usage:"), "{bin} {args:?} must print the usage line: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    let left: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "{bin} {args:?} wrote {left:?}");
}

#[test]
fn usage_errors_stop_every_binary_before_it_runs() {
    let dir = sandbox("usage");
    for (bin, args, needles) in USAGE_ERRORS {
        assert_refused(&dir, bin, args, needles);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn modes_exclude_one_another() {
    let dir = sandbox("modes");
    let modes: [(&str, &[&str], &[&str]); 2] = [
        (CONFORMANCE, &["--recover", "--ras", "--diff", "--gate", "--bless"], &["--quick"]),
        (TRACE, &["--all", "--guard", "--fault=corrupt-addr"], &["--quick", "EP", "pac"]),
    ];
    for (bin, flags, rest) in modes {
        for (i, a) in flags.iter().enumerate() {
            for b in &flags[i + 1..] {
                let args: Vec<&str> = rest.iter().chain([a, b]).copied().collect();
                let name = |f: &str| format!("'{}'", f.split('=').next().unwrap());
                assert_refused(&dir, bin, &args, &[&name(a), &name(b)]);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn run_ok(dir: &PathBuf, bin: &str, args: &[&str], stdin: Option<&[u8]>) -> String {
    let mut child = Command::new(bin)
        .args(args)
        .env_remove("PAC_ACCESSES")
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    child.stdin.take().unwrap().write_all(stdin.unwrap_or_default()).expect("write stdin");
    let out = child.wait_with_output().expect("wait for the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sweep_prints_one_row_per_value() {
    let dir = sandbox("sweep");
    let out = run_ok(&dir, SWEEP, &["--quick", "GS", "timeout", "4", "16"], None);
    let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("timeout")).collect();
    assert!(out.starts_with("knob"), "{out}");
    assert_eq!(rows.len(), 2, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_tool_captures_summarizes_and_replays() {
    let dir = sandbox("trace-tool");
    let capture = Command::new(TRACE_TOOL)
        .args(["capture", "GS", "gs.json"])
        .env("PAC_ACCESSES", "200")
        .current_dir(&dir)
        .output()
        .expect("spawn trace_tool");
    assert!(capture.status.success(), "{}", String::from_utf8_lossy(&capture.stderr));
    let info = run_ok(&dir, TRACE_TOOL, &["info", "gs.json"], None);
    assert!(info.contains("distinct pages  :"), "{info}");
    let replay = run_ok(&dir, TRACE_TOOL, &["replay", "gs.json", "PAC"], None);
    assert!(replay.contains("coalescer             : pac"), "{replay}");
    assert!(replay.contains("coalescing efficiency :"), "{replay}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_reads_a_stream_from_stdin() {
    let dir = sandbox("report");
    run_ok(&dir, TRACE, &["--quick", "--progress=p.jsonl", "EP", "pac"], None);
    let stream = std::fs::read(dir.join("p.jsonl")).expect("trace wrote its progress stream");
    let md = run_ok(&dir, REPORT, &["--json=r.json", "-"], Some(&stream));
    assert!(md.contains("# Campaign SLO report") && md.contains("1 cell(s)"), "{md}");
    let json = std::fs::read_to_string(dir.join("r.json")).expect("report wrote --json");
    assert!(json.contains("\"EP\""), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}
