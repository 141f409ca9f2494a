//! End-to-end tests for the `pac-serve` binary itself, run the way an
//! operator (or CI) runs it: spawn the real executable, kill it for
//! real, and verify the journal on disk afterwards.
//!
//! The in-crate unit tests prove the journal and scheduler logic; these
//! prove the *process* contract — exit codes, the chaos harness's
//! seeded SIGKILL delivery, and bit-identical recovery across segments.

use pac_obs::CampaignReport;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_pac-serve");

/// A campaign small enough to finish in seconds but wide enough that a
/// seeded kill lands mid-campaign: 2 benches × 2 kinds × 1 backend.
const SPEC: &str = "name=cli-chaos\n\
                    seed=0xC11\n\
                    cores=4\n\
                    accesses=3000\n\
                    backends=hmc\n\
                    benches=stream,ep\n\
                    kinds=pac,raw\n\
                    faults=none\n\
                    recovery=on\n\
                    max_attempts=2\n\
                    quantum=20000\n\
                    threads=2\n";

/// One cell on one worker with a small quantum: the cell checkpoints
/// within its first lease, so its third journal append (after the
/// campaign header and the lease) is a `ckpt` record.
const ONE_CELL_SPEC: &str = "name=cli-resume\n\
                             seed=0x7\n\
                             cores=4\n\
                             accesses=3000\n\
                             backends=hmc\n\
                             benches=stream\n\
                             kinds=pac\n\
                             faults=none\n\
                             quantum=10000\n\
                             threads=1\n";

struct Sandbox {
    dir: PathBuf,
}

impl Sandbox {
    fn new(tag: &str, spec: &str) -> Sandbox {
        let dir = std::env::temp_dir().join(format!("pac-serve-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create sandbox dir");
        std::fs::write(dir.join("campaign.spec"), spec).expect("write spec");
        Sandbox { dir }
    }

    fn spec(&self) -> PathBuf {
        self.dir.join("campaign.spec")
    }

    fn state(&self) -> PathBuf {
        self.dir.join("state")
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("spawn pac-serve")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn path_str(p: &Path) -> String {
    p.display().to_string()
}

#[test]
fn fresh_run_completes_and_verify_agrees() {
    let sb = Sandbox::new("fresh", SPEC);
    let out = run(&[
        "run",
        "--spec",
        &path_str(&sb.spec()),
        "--state-dir",
        &path_str(&sb.state()),
    ]);
    assert!(
        out.status.success(),
        "run failed: {}\n{}",
        stdout_of(&out),
        stderr_of(&out)
    );

    let verify = run(&["verify", "--state-dir", &path_str(&sb.state())]);
    assert!(
        verify.status.success(),
        "verify failed: {}\n{}",
        stdout_of(&verify),
        stderr_of(&verify)
    );
    let text = stdout_of(&verify);
    assert!(text.contains("0 mismatch(es), 0 double-counted"), "verify output: {text}");
    assert!(text.contains("0 pending"), "verify output: {text}");
}

#[test]
fn chaos_mode_survives_seeded_sigkills() {
    let sb = Sandbox::new("chaos", SPEC);
    let out = run(&[
        "chaos",
        "--spec",
        &path_str(&sb.spec()),
        "--state-dir",
        &path_str(&sb.state()),
        "--kills",
        "3",
        "--chaos-seed",
        "0xDEAD",
    ]);
    let text = format!("{}{}", stdout_of(&out), stderr_of(&out));
    assert!(out.status.success(), "chaos run failed:\n{text}");
    assert!(text.contains("PASS"), "expected chaos PASS verdict:\n{text}");
    // The harness must actually have killed the scheduler, not just run
    // it to completion three times.
    assert!(
        text.contains("kills delivered   : 3"),
        "expected 3 delivered kills:\n{text}"
    );
    assert!(
        text.contains("double-counted    : 0"),
        "no cell may complete twice across segments:\n{text}"
    );
}

/// Kill a campaign right after its first checkpoint, resume it into the
/// same progress stream, and require the two segments to tell the whole
/// story: one cell started once, re-entered from its checkpoint, and
/// finished once — bit-identical to an uninterrupted run, and ingested
/// by the report aggregator without a single complaint.
#[test]
fn resume_from_checkpoint_extends_the_progress_stream() {
    let sb = Sandbox::new("resume", ONE_CELL_SPEC);
    let state = path_str(&sb.state());
    let stream = path_str(&sb.dir.join("progress.jsonl"));

    let killed = Command::new(EXE)
        .args(["run", "--spec", &path_str(&sb.spec()), "--state-dir", &state])
        .args(["--progress", &stream])
        .env(pac_serve::chaos::KILL_ENV, "3")
        .output()
        .expect("spawn pac-serve");
    assert_eq!(killed.status.code(), None, "the kill hook must SIGKILL the first segment");

    let resumed = run(&["resume", "--state-dir", &state, "--progress", &stream]);
    assert!(resumed.status.success(), "resume failed: {}", stderr_of(&resumed));
    let verify = run(&["verify", "--state-dir", &state]);
    let verdict = stdout_of(&verify);
    assert!(verify.status.success(), "verify failed: {verdict}");
    assert!(verdict.contains("1/1 verified, 0 mismatch(es)"), "{verdict}");

    let text = std::fs::read_to_string(&stream).unwrap();
    let count =
        |ev: &str| text.lines().filter(|l| l.contains(&format!("\"ev\":\"{ev}\""))).count();
    assert_eq!(count("campaign_start"), 2, "one per segment:\n{text}");
    assert_eq!(count("cell_start"), 1, "the cell starts once, in segment one");
    assert_eq!(count("resumed"), 1, "segment two re-enters at the checkpoint");
    assert_eq!(count("cell_finish"), 1, "the cell finishes once, in segment two");
    assert!(text.contains("\"status\":\"pass\""), "{text}");

    let mut report = CampaignReport::new();
    report.ingest_str(&text, "progress.jsonl");
    assert!(report.errors().is_empty(), "{:?}", report.errors());
    assert_eq!(report.total_cells(), 1);
    assert_eq!(report.total_failures(), 0);
    let md = report.render_markdown();
    assert!(md.contains("2 stream segment(s)"), "{md}");
    assert!(md.contains("1 resume(s)"), "{md}");
}

/// An old-format checkpoint is refused, never misread. Kill a campaign
/// after its first checkpoint, patch that checkpoint's format version
/// to the one the last format change retired (`SNAP_VERSION - 1`) and
/// re-seal its checksum, then resume: the restoring attempt
/// fails with the version error, the retry starts from scratch, and the
/// cell still finishes with the fingerprint of an uninterrupted run.
#[test]
fn resume_refuses_an_old_format_checkpoint_and_restarts_the_cell() {
    use pac_types::snapshot::{frame_checksum, SnapError, SNAP_VERSION};
    let sb = Sandbox::new("old-format", ONE_CELL_SPEC);
    let state = path_str(&sb.state());

    let killed = Command::new(EXE)
        .args(["run", "--spec", &path_str(&sb.spec()), "--state-dir", &state])
        .env(pac_serve::chaos::KILL_ENV, "3")
        .output()
        .expect("spawn pac-serve");
    assert_eq!(killed.status.code(), None, "the kill hook must SIGKILL the first segment");

    let ckpts: Vec<PathBuf> = std::fs::read_dir(sb.state().join("ckpt"))
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pacsnap"))
        .collect();
    assert_eq!(ckpts.len(), 1, "one journaled checkpoint: {ckpts:?}");
    let mut bytes = std::fs::read(&ckpts[0]).expect("read checkpoint");
    assert_eq!(bytes[8..12], SNAP_VERSION.to_le_bytes(), "version follows the 8-byte magic");
    let old = SNAP_VERSION - 1;
    bytes[8..12].copy_from_slice(&old.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = frame_checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&ckpts[0], &bytes).expect("write patched checkpoint");

    let resumed = run(&["resume", "--state-dir", &state]);
    assert!(resumed.status.success(), "resume failed: {}", stderr_of(&resumed));
    let journal = std::fs::read_to_string(sb.state().join("journal.jsonl")).unwrap();
    let refusal = SnapError::BadVersion { found: old, expected: SNAP_VERSION }.to_string();
    let fails: Vec<&str> = journal.lines().filter(|l| l.contains("\"ev\":\"fail\"")).collect();
    assert_eq!(fails.len(), 1, "{journal}");
    assert!(fails[0].contains("\"attempt\":1") && fails[0].contains(&refusal), "{}", fails[0]);
    let done: Vec<&str> = journal.lines().filter(|l| l.contains("\"ev\":\"done\"")).collect();
    assert_eq!(done.len(), 1, "{journal}");
    assert!(done[0].contains("\"attempt\":2"), "the retry restarts as attempt 2: {}", done[0]);

    let verify = run(&["verify", "--state-dir", &state]);
    let verdict = stdout_of(&verify);
    assert!(verify.status.success(), "verify failed: {verdict}");
    assert!(verdict.contains("1/1 verified, 0 mismatch(es)"), "{verdict}");
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["run"]);
    assert_eq!(out.status.code(), Some(2), "missing --spec must exit 2");

    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown subcommand must exit 2");

    // A count past u32 must not wrap: 2^32 kills would run as zero and
    // pass without a single kill. Each flag is checked on the subcommand
    // where it takes effect.
    let sb = Sandbox::new("range", SPEC);
    let (spec, state) = (path_str(&sb.spec()), path_str(&sb.state()));
    for (cmd, flag) in [("chaos", "--kills"), ("run", "--respawn-budget")] {
        let out = run(&[cmd, "--spec", &spec, "--state-dir", &state, flag, "4294967296"]);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} out of range must exit 2: {stderr}");
        assert!(stderr.contains(&format!("{flag}: '4294967296'")), "{stderr}");
        assert!(!sb.state().exists(), "{flag}: nothing may run before the usage error");
    }

    // Each subcommand accepts only its own flags: one it would ignore
    // is refused, in either spelling, before anything runs.
    let missing = path_str(&sb.dir.join("missing.spec"));
    for (args, token) in [
        (vec!["run", "--spec", &spec, "--state-dir", &state, "--chaos-seed", "7"], "--chaos-seed"),
        (vec!["run", "--spec", &spec, "--state-dir", &state, "--kills", "9"], "--kills"),
        (vec!["resume", "--state-dir", &state, "--spec", &missing], "--spec"),
        (vec!["verify", "--state-dir", &state, "--progress", "-"], "--progress"),
        (
            vec!["chaos", "--spec", &spec, "--state-dir", &state, "--heartbeat-ms", "5"],
            "--heartbeat-ms",
        ),
        (
            vec!["chaos", "--spec", &spec, "--state-dir", &state, "--respawn-budget=1"],
            "--respawn-budget=1",
        ),
        (vec!["run", "--spec", &spec, "--state-dir", &state, "stray"], "stray"),
        // The progress stream needs a file: stdout carries the results.
        (vec!["run", "--spec", &spec, "--state-dir", &state, "--progress", "-"], "--progress"),
        (vec!["resume", "--state-dir", &state, "--progress=-"], "--progress"),
        (vec!["chaos", "--spec", &spec, "--state-dir", &state, "--progress", "-"], "--progress"),
    ] {
        let out = run(&args);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("'{token}'")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", stdout_of(&out));
        assert!(!sb.state().exists(), "{args:?}: nothing may run before the usage error");
    }
}

/// `--flag=V` is `--flag V`: a one-cell campaign run with both valued
/// scheduler knobs in the `=` spelling completes.
#[test]
fn equals_spelling_runs_a_campaign() {
    let sb = Sandbox::new("equals", "name=eq\nbenches=ep\naccesses=200\ncores=2\nthreads=1\n");
    let spec = format!("--spec={}", path_str(&sb.spec()));
    let state = format!("--state-dir={}", path_str(&sb.state()));
    let out = run(&["run", &spec, &state, "--heartbeat-ms=30000", "--respawn-budget=2"]);
    let text = stdout_of(&out);
    assert!(out.status.success(), "{text}{}", stderr_of(&out));
    assert!(text.contains("cells done        : 1/1"), "{text}");
}
