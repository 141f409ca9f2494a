//! End-to-end kill/resume observability: a `longrun` campaign that is
//! checkpointed and killed mid-run, then resumed to completion, must
//! (1) reproduce the uninterrupted run's cycle count bit-identically,
//! and (2) leave a progress stream whose two segments tell the whole
//! story — checkpoint and resume markers, exactly one finished cell —
//! and which the report aggregator ingests without errors. Self-metric
//! state (runner stats) is never checkpointed, so the resumed
//! segment starts clean instead of double-counting.

use pac_obs::CampaignReport;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pac-progress-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn longrun(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_longrun"))
        .args(args)
        .output()
        .expect("spawn longrun")
}

#[test]
fn progress_stream_survives_kill_resume_and_aggregates_cleanly() {
    let ckpt = scratch("resume.ckpt");
    let stream = scratch("resume.progress.jsonl");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&stream);
    let ckpt_s = ckpt.to_str().unwrap();
    let stream_s = stream.to_str().unwrap();

    // Uninterrupted reference run.
    let reference = longrun(&[
        "--bench", "HPCG", "--kind", "pac", "--quick", "--seed", "7", "--print-cycles",
    ]);
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));
    let want_cycles = String::from_utf8_lossy(&reference.stdout).trim().to_string();
    let kill_at: u64 = want_cycles.parse::<u64>().unwrap() / 2;

    // Same run, checkpointed and killed halfway.
    let killed = longrun(&[
        "--bench", "HPCG", "--kind", "pac", "--quick", "--seed", "7",
        "--checkpoint", ckpt_s, "--kill-at", &kill_at.to_string(),
        "--progress", stream_s,
    ]);
    assert!(killed.status.success(), "{}", String::from_utf8_lossy(&killed.stderr));

    // Resume to completion, appending to the same stream.
    let resumed = longrun(&[
        "--bench", "HPCG", "--kind", "pac", "--quick", "--seed", "7",
        "--resume", ckpt_s, "--print-cycles", "--progress", stream_s,
    ]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let got_cycles = String::from_utf8_lossy(&resumed.stdout).trim().to_string();
    assert_eq!(got_cycles, want_cycles, "resumed run must be bit-identical");

    // The appended stream carries both segments with the full story.
    let text = std::fs::read_to_string(&stream).unwrap();
    let count = |ev: &str| {
        text.lines().filter(|l| l.contains(&format!("\"ev\":\"{ev}\""))).count()
    };
    assert_eq!(count("campaign_start"), 2, "one per segment:\n{text}");
    assert_eq!(count("cell_start"), 1, "the cell starts once, in segment one");
    assert_eq!(count("checkpoint"), 1);
    assert_eq!(count("resumed"), 1, "segment two re-enters at the checkpoint");
    assert_eq!(count("cell_finish"), 1, "the cell finishes once, in segment two");
    assert_eq!(count("campaign_end"), 2);
    assert!(text.contains("\"status\":\"pass\""));
    assert!(
        text.contains(&format!("\"simulated_cycles\":{want_cycles}")),
        "cell_finish must carry the final cycle count:\n{text}"
    );

    // And the aggregator reads it back without a single complaint.
    let mut report = CampaignReport::new();
    report.ingest_str(&text, "resume.progress.jsonl");
    assert!(report.errors().is_empty(), "{:?}", report.errors());
    assert_eq!(report.total_cells(), 1);
    assert_eq!(report.total_failures(), 0);
    let md = report.render_markdown();
    assert!(md.contains("2 stream segment(s)"), "{md}");
    assert!(md.contains("1 checkpoint(s)"), "{md}");
    assert!(md.contains("1 resume(s)"), "{md}");
}

#[test]
fn disabled_progress_leaves_no_file_and_identical_cycles() {
    // The observability layer must be inert when not asked for: no
    // stream flag, no file, and the same simulated cycles either way.
    let stream = scratch("inert.progress.jsonl");
    let _ = std::fs::remove_file(&stream);
    let stream_s = stream.to_str().unwrap();

    let plain = longrun(&["--bench", "GS", "--kind", "raw", "--quick", "--print-cycles"]);
    assert!(plain.status.success());
    let observed = longrun(&[
        "--bench", "GS", "--kind", "raw", "--quick", "--print-cycles",
        "--progress", stream_s,
    ]);
    assert!(observed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&observed.stdout),
        "streaming progress must not change the simulation"
    );
    assert!(stream.is_file(), "--progress was asked for here, so the file exists");

    let unobserved = scratch("never-created.progress.jsonl");
    let _ = std::fs::remove_file(&unobserved);
    let plain2 = longrun(&["--bench", "GS", "--kind", "raw", "--quick", "--print-cycles"]);
    assert!(plain2.status.success());
    assert!(!unobserved.exists(), "no flag, no file");
}
