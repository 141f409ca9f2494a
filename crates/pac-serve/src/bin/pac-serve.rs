//! `pac-serve`: crash-safe campaign scheduler CLI.
//!
//! ```text
//! pac-serve run    --spec <file> --state-dir <dir> [--progress <path|->]
//!                  [--heartbeat-ms <N>] [--respawn-budget <N>]
//! pac-serve resume --state-dir <dir> [--progress <path|->]
//!                  [--heartbeat-ms <N>] [--respawn-budget <N>]
//! pac-serve verify --state-dir <dir>
//! pac-serve chaos  --spec <file> --state-dir <dir> [--progress <path|->]
//!                  [--kills <N>] [--chaos-seed <S>]
//! ```
//!
//! Each subcommand accepts only the flags shown for it, as `--flag V`
//! or `--flag=V`; counts and seeds take decimal or `0x` hex and are
//! refused past their type. Exit codes: 0 campaign complete, 3 partial
//! (quarantined or undrained cells remain), 1 internal error, 2 usage
//! error (printed with the usage text, before anything runs).
//!
//! `run`/`resume` drain cleanly on SIGINT/SIGTERM: in-flight leases
//! finish (or checkpoint at their quantum boundary), a final
//! `drain reason=signal` record lands in the journal, and a later
//! `resume` picks the campaign up from exactly there. `chaos`
//! re-spawns this same binary with seeded `kill -9` points and then
//! proves recovery (see `pac_serve::chaos`).

use pac_obs::ProgressSink;
use pac_serve::scheduler::{self, SchedulerConfig};
use pac_serve::{chaos, CampaignSpec};
use pac_types::cli::{self, Flags};
use std::path::PathBuf;
use std::sync::atomic::Ordering;

const USAGE: &str = "usage:
  pac-serve run    --spec <file> --state-dir <dir> [--progress <path|->]
                   [--heartbeat-ms <N>] [--respawn-budget <N>]
  pac-serve resume --state-dir <dir> [--progress <path|->]
                   [--heartbeat-ms <N>] [--respawn-budget <N>]
  pac-serve verify --state-dir <dir>
  pac-serve chaos  --spec <file> --state-dir <dir> [--progress <path|->]
                   [--kills <N>] [--chaos-seed <S>]";

/// Each subcommand accepts only the flags it uses.
const COMMANDS: [(&str, Flags); 4] = [
    ("run", valued(&["--spec", "--state-dir", "--progress", "--heartbeat-ms", "--respawn-budget"])),
    ("resume", valued(&["--state-dir", "--progress", "--heartbeat-ms", "--respawn-budget"])),
    ("verify", valued(&["--state-dir"])),
    ("chaos", valued(&["--spec", "--state-dir", "--progress", "--kills", "--chaos-seed"])),
];

const fn valued(flags: &'static [&'static str]) -> Flags {
    Flags { switches: &[], valued: flags, modes: &[] }
}

struct Opts {
    cmd: &'static str,
    spec: Option<PathBuf>,
    state_dir: PathBuf,
    progress: Option<String>,
    heartbeat_ms: u64,
    respawn_budget: u32,
    kills: u32,
    chaos_seed: u64,
}

fn parse_args() -> Result<Opts, String> {
    let argv = cli::argv();
    let (cmd, rest) = argv.split_first().ok_or("missing command")?;
    let (cmd, flags) = cli::lookup("command", cmd, COMMANDS, |(name, _)| name)?;
    let args = flags.parse(rest)?;
    args.positionals(..=0)?;
    let required =
        |flag| args.value(flag).map(PathBuf::from).ok_or_else(|| format!("{cmd} needs {flag}"));
    let spec = if matches!(cmd, "run" | "chaos") { Some(required("--spec")?) } else { None };
    Ok(Opts {
        cmd,
        spec,
        state_dir: required("--state-dir")?,
        progress: args.value("--progress").map(String::from),
        heartbeat_ms: args.int("--heartbeat-ms")?.unwrap_or(30_000),
        respawn_budget: args.int("--respawn-budget")?.unwrap_or(2),
        kills: args.int("--kills")?.unwrap_or(3),
        chaos_seed: args.int("--chaos-seed")?.unwrap_or(0xC4A05),
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("pac-serve: {msg}");
    std::process::exit(1);
}

fn scheduler_config(opts: &Opts, append_progress: bool) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::in_dir(&opts.state_dir);
    cfg.heartbeat_timeout_ms = opts.heartbeat_ms;
    cfg.respawn_budget = opts.respawn_budget;
    if let Some(arg) = &opts.progress {
        let sink = if append_progress {
            ProgressSink::append(arg)
        } else {
            ProgressSink::create(arg)
        };
        match sink {
            Ok(s) => cfg.progress = s,
            Err(e) => fail(&format!("cannot open progress stream {arg}: {e}")),
        }
    }
    cfg
}

/// Bridge the process-wide signal latch into the scheduler's drain
/// flag: a 50 ms poll thread, exiting once the flag trips (or with the
/// process).
fn wire_signals(cfg: &SchedulerConfig) {
    pac_types::sigwatch::install();
    let drain = std::sync::Arc::clone(&cfg.drain);
    std::thread::spawn(move || loop {
        if pac_types::sigwatch::triggered() {
            drain.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| cli::usage_exit(&e, USAGE));
    match opts.cmd {
        "run" => {
            let spec_path = opts.spec.as_ref().expect("run requires --spec");
            let text = std::fs::read_to_string(spec_path)
                .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", spec_path.display())));
            let spec = CampaignSpec::parse(&text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", spec_path.display())));
            let cfg = scheduler_config(&opts, false);
            wire_signals(&cfg);
            match scheduler::run_fresh(&spec, &cfg) {
                Ok(report) => {
                    print!("{}", report.render());
                    std::process::exit(report.exit_code());
                }
                Err(e) => fail(&e),
            }
        }
        "resume" => {
            let cfg = scheduler_config(&opts, true);
            wire_signals(&cfg);
            match scheduler::run_resumed(&cfg) {
                Ok(report) => {
                    print!("{}", report.render());
                    std::process::exit(report.exit_code());
                }
                Err(e) => fail(&e),
            }
        }
        "verify" => {
            let cfg = scheduler_config(&opts, true);
            let (_, replay) = scheduler::replay_journal(&cfg).unwrap_or_else(|e| fail(&e));
            let journal_path = cfg.journal_path.clone();
            let verdict = chaos::verify(&journal_path).unwrap_or_else(|e| fail(&e));
            println!(
                "journal: {} records, {} segment(s), {} done, {} quarantined, {} pending{}",
                replay.records,
                replay.segments,
                replay.done(),
                replay.quarantined(),
                replay.pending(),
                if replay.torn.is_some() { " (torn tail quarantined)" } else { "" },
            );
            println!(
                "bit-identity: {}/{} verified, {} mismatch(es), {} double-counted",
                verdict.done,
                verdict.cells,
                verdict.mismatches.len(),
                verdict.double_done
            );
            for m in &verdict.mismatches {
                println!("MISMATCH {m}");
            }
            // A journal with pending cells (an in-progress or drained
            // campaign) is not a verification failure unless a finished
            // cell's fingerprint actually diverged.
            let incomplete_only = replay.pending() > 0 && verdict.mismatches.is_empty();
            if !verdict.passed() && !incomplete_only {
                std::process::exit(3);
            }
        }
        "chaos" => {
            let spec_path = opts.spec.as_ref().expect("chaos requires --spec");
            let state_dir = &opts.state_dir;
            std::fs::create_dir_all(state_dir)
                .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", state_dir.display())));
            let exe = std::env::current_exe()
                .unwrap_or_else(|e| fail(&format!("cannot locate own binary: {e}")));
            let mut child_flags = Vec::new();
            if let Some(p) = &opts.progress {
                child_flags.push("--progress".to_string());
                child_flags.push(p.clone());
            }
            let outcome =
                chaos::run(&exe, spec_path, state_dir, opts.kills, opts.chaos_seed, &child_flags)
                    .unwrap_or_else(|e| fail(&e));
            print!("{}", outcome.render());
            if !outcome.passed(opts.kills.min(1)) {
                std::process::exit(3);
            }
        }
        _ => unreachable!("COMMANDS names four subcommands"),
    }
}
