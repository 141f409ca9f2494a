//! Campaign SLO report aggregator.
//!
//! ```console
//! $ report progress.jsonl                  # markdown table to stdout
//! $ report a.jsonl b.jsonl                 # merge several campaigns
//! $ report --json report.json progress.jsonl
//! $ report --md report.md --prom report.prom progress.jsonl
//! $ conformance --quick --progress conf.jsonl   # stream to a file,
//! $ tail -f conf.jsonl                          # watch it live,
//! $ report conf.jsonl                           # then aggregate it
//! $ report - < conf.jsonl                       # `-` reads stdin
//! ```
//!
//! Ingests one or more progress streams (the versioned JSONL that every
//! harness binary emits under `--progress`), reconstructs the exact
//! per-stage latency histograms from their `metrics` events, and renders
//! per-(bench × coalescer × backend × config) p50/p95/p99/max SLO
//! tables as markdown (stdout by default), JSON, and a Prometheus
//! text-exposition snapshot. Because the histograms travel losslessly,
//! the aggregated percentiles are bit-identical to what the in-run
//! `MetricsRegistry` reported.
//!
//! Exits 1 when a stream is unreadable, carries malformed lines, or
//! records failed cells (`--allow-failures` downgrades the latter), and
//! 2 on a usage error: an unknown flag or a missing input.

use pac_obs::CampaignReport;
use pac_types::cli::{self, Flags};
use std::io::Read as _;

const USAGE: &str = "usage: report [--json <file>] [--md <file>] [--prom <file>] \
                     [--allow-failures] <progress.jsonl|-> [more.jsonl ...]";

const FLAGS: Flags = Flags {
    switches: &["--allow-failures"],
    valued: &["--json", "--md", "--prom"],
    modes: &[],
};

fn main() {
    let args = FLAGS.from_env(USAGE);
    let inputs = args.positionals(1..).unwrap_or_else(|e| cli::usage_exit(&e, USAGE));

    let mut report = CampaignReport::new();
    for input in inputs {
        let text = if input == "-" {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("stdin: {e}");
                std::process::exit(1);
            }
            buf
        } else {
            match std::fs::read_to_string(input) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{input}: {e}");
                    std::process::exit(1);
                }
            }
        };
        report.ingest_str(&text, if input == "-" { "<stdin>" } else { input });
    }

    let mut failed = false;
    for e in report.errors() {
        eprintln!("stream error: {e}");
        failed = true;
    }
    if report.total_failures() > 0 {
        eprintln!("{} failed cell(s) in the ingested campaigns", report.total_failures());
        if !args.has("--allow-failures") {
            failed = true;
        }
    }

    let md = report.render_markdown();
    match args.value("--md") {
        Some(path) => write_or_die(path, &md),
        None => print!("{md}"),
    }
    if let Some(path) = args.value("--json") {
        write_or_die(path, &report.render_json());
    }
    if let Some(path) = args.value("--prom") {
        write_or_die(path, &report.render_prometheus());
    }

    if failed {
        std::process::exit(1);
    }
}

fn write_or_die(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}
