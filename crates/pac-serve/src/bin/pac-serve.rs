//! `pac-serve`: crash-safe campaign scheduler CLI.
//!
//! ```text
//! pac-serve run    --spec <file> --state-dir <dir> [--progress <path|->]
//!                  [--heartbeat-ms <N>] [--respawn-budget <N>]
//! pac-serve resume --state-dir <dir> [--progress <path|->]
//!                  [--heartbeat-ms <N>] [--respawn-budget <N>]
//! pac-serve verify --state-dir <dir>
//! pac-serve chaos  --spec <file> --state-dir <dir> [--kills <N>]
//!                  [--chaos-seed <S>]
//! ```
//!
//! Exit codes: 0 campaign complete, 3 partial (quarantined or
//! undrained cells remain), 1 internal error, 2 usage error.
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
use std::path::PathBuf;
use std::sync::atomic::Ordering;

fn usage() -> ! {
    eprintln!(
        "usage: pac-serve run    --spec <file> --state-dir <dir> [--progress <path|->]\n       \
         [--heartbeat-ms <N>] [--respawn-budget <N>]\n       \
         pac-serve resume --state-dir <dir> [same flags]\n       \
         pac-serve verify --state-dir <dir>\n       \
         pac-serve chaos  --spec <file> --state-dir <dir> [--kills <N>] [--chaos-seed <S>]"
    );
    std::process::exit(2);
}

fn value(it: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage();
    })
}

fn parse_u64(s: &str, flag: &str) -> u64 {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse '{s}'");
        usage();
    })
}

struct Opts {
    cmd: String,
    spec: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    progress: Option<String>,
    heartbeat_ms: u64,
    respawn_budget: u32,
    kills: u32,
    chaos_seed: u64,
}

fn parse_args() -> Opts {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    if !matches!(cmd.as_str(), "run" | "resume" | "verify" | "chaos") {
        eprintln!("unknown command '{cmd}' (valid: run, resume, verify, chaos)");
        usage();
    }
    let mut opts = Opts {
        cmd,
        spec: None,
        state_dir: None,
        progress: None,
        heartbeat_ms: 30_000,
        respawn_budget: 2,
        kills: 3,
        chaos_seed: 0xC4A05,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => opts.spec = Some(PathBuf::from(value(&mut it, "--spec"))),
            "--state-dir" => opts.state_dir = Some(PathBuf::from(value(&mut it, "--state-dir"))),
            "--progress" => opts.progress = Some(value(&mut it, "--progress")),
            "--heartbeat-ms" => {
                opts.heartbeat_ms = parse_u64(&value(&mut it, "--heartbeat-ms"), "--heartbeat-ms")
            }
            "--respawn-budget" => {
                opts.respawn_budget =
                    parse_u64(&value(&mut it, "--respawn-budget"), "--respawn-budget") as u32
            }
            "--kills" => opts.kills = parse_u64(&value(&mut it, "--kills"), "--kills") as u32,
            "--chaos-seed" => {
                opts.chaos_seed = parse_u64(&value(&mut it, "--chaos-seed"), "--chaos-seed")
            }
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    opts
}

fn fail(msg: &str) -> ! {
    eprintln!("pac-serve: {msg}");
    std::process::exit(1);
}

fn scheduler_config(opts: &Opts, append_progress: bool) -> SchedulerConfig {
    let Some(state_dir) = &opts.state_dir else {
        eprintln!("--state-dir is required");
        usage();
    };
    let mut cfg = SchedulerConfig::in_dir(state_dir);
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
    let opts = parse_args();
    match opts.cmd.as_str() {
        "run" => {
            let Some(spec_path) = &opts.spec else {
                eprintln!("run needs --spec");
                usage();
            };
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
            let Some(spec_path) = &opts.spec else {
                eprintln!("chaos needs --spec");
                usage();
            };
            let Some(state_dir) = &opts.state_dir else {
                eprintln!("--state-dir is required");
                usage();
            };
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
        _ => unreachable!("validated in parse_args"),
    }
}
