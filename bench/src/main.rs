//! `pac-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--bless]`
//!
//! Prints the host facts, the model's error against the paper where the
//! workload computes one, and — as the last line of standard output —
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--bless` rewrites the workload's reference fingerprints from
//! this run. Exits 2 on bad arguments or a forbidden environment, 1 when
//! the run could not write its outputs.

use pac_perfbench::stats::{json_str, metrics_json, result_line};
use pac_perfbench::workloads::{Settings, Size, Workload, DEFAULT_SEED};
use pac_perfbench::{bench_dir, forbidden_env, host, layers, workloads};

const USAGE: &str =
    "usage: pac-perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--bless]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (valid: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = parse_u64(&value).ok_or_else(|| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, bless })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pac-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let forbidden = forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "pac-perfbench: refusing to run with {} set: the simulator reads it and the \
             measurement would no longer be the benchmark's",
            forbidden.join(", ")
        );
        std::process::exit(2);
    }
    let out_dir = bench_dir().join("out");
    let settings = Settings {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        size: Size::full(),
        reference_dir: bench_dir().join("reference"),
        work_dir: out_dir.join("work"),
        bless: args.bless,
    };

    println!("{{\"host\": {}}}", host::facts_json());
    let outcome = if args.trace {
        let (outcome, tracer) = layers::run(&settings);
        let path = out_dir.join(format!("{}.spans.json", args.workload.name()));
        let written =
            std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("pac-perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        // Relative to the repository root, where the benchmark runs from.
        let dir = bench_dir();
        let shown = dir.parent().and_then(|root| path.strip_prefix(root).ok()).unwrap_or(&path);
        println!(
            "{{\"spans_file\": {}, \"wall_s\": {}}}",
            json_str(&shown.display().to_string()),
            tracer.elapsed()
        );
        outcome
    } else {
        workloads::run(&settings)
    };
    let _ = std::fs::remove_dir_all(&settings.work_dir);

    if !outcome.model.0.is_empty() {
        println!("{{\"model\": {}}}", metrics_json(&outcome.model));
    }
    for note in &outcome.gate.notes {
        eprintln!("FAILED {note}");
    }
    if settings.bless {
        if outcome.correct() {
            if let Err(e) = outcome.gate.bless() {
                eprintln!("pac-perfbench: cannot write the reference: {e}");
                std::process::exit(1);
            }
            eprintln!("blessed {}", settings.reference_path().display());
        } else {
            eprintln!("pac-perfbench: not blessing a run whose passes disagree");
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.gate.attempted,
            outcome.gate.failed,
            &outcome.metrics
        )
    );
}
