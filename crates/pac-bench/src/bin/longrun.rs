//! Long-running simulation driver with checkpoint/resume.
//!
//! ```console
//! $ longrun --bench HPCG --kind pac --accesses 200000 \
//!       --checkpoint run.ckpt --checkpoint-every 1000000
//! $ longrun --bench HPCG --kind pac --accesses 200000 --resume run.ckpt
//! ```
//!
//! Checkpoints are written atomically every `--checkpoint-every`
//! simulated cycles and once more on SIGINT/SIGTERM, so a killed run
//! (ctrl-C, batch-scheduler preemption) can always be resumed from its
//! last consistent state. A resumed run is bit-identical to one that
//! was never interrupted — same metrics, same cycle counts.
//!
//! `--kill-at <cycle>` checkpoints and exits at a deterministic cycle
//! (a synthetic kill for CI equivalence checks); `--print-cycles`
//! prints only the final cycle count on stdout for easy comparison.

use pac_obs::{CellId, ProgressSink};
use pac_sim::{
    read_checkpoint, write_checkpoint, CoalescerKind, RunProgress, SimSystem, Stepping,
};
use pac_types::{BackendKind, Cycle, SimConfig};
use pac_workloads::multiproc::single_process;
use pac_workloads::Bench;
use std::path::PathBuf;
use std::time::Instant;

/// SIGINT/SIGTERM latch: the workspace-wide [`pac_types::sigwatch`]
/// module; the run loop polls the flag at checkpoint boundaries.
use pac_types::sigwatch as sig;

fn usage() -> ! {
    eprintln!(
        "usage: longrun --bench <BENCH> --kind <raw|mshr-dmc|pac> [--accesses <N>] [--seed <S>]\n       \
         [--backend hmc|hbm] [--checkpoint <file>] [--checkpoint-every <cycles>] [--resume <file>]\n       \
         [--kill-at <cycle>] [--print-cycles] [--quick] [--progress <path|->]"
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
    bench: Bench,
    kind: CoalescerKind,
    backend: BackendKind,
    accesses: u64,
    seed: u64,
    checkpoint: Option<PathBuf>,
    every: Option<Cycle>,
    resume: Option<PathBuf>,
    kill_at: Option<Cycle>,
    print_cycles: bool,
    progress: Option<String>,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = None;
    let mut kind = None;
    let mut backend = BackendKind::Hmc;
    let mut accesses: Option<u64> = None;
    let mut quick = pac_bench::harness::quick_mode();
    let mut seed = 0u64;
    let mut checkpoint = None;
    let mut every = None;
    let mut resume = None;
    let mut kill_at = None;
    let mut print_cycles = false;
    let mut progress = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => {
                let v = value(&mut it, "--bench");
                bench = Some(Bench::from_name(&v).unwrap_or_else(|| {
                    eprintln!(
                        "unknown benchmark '{v}'; known: {}",
                        Bench::ALL.map(|b| b.name()).join(", ")
                    );
                    std::process::exit(2);
                }));
            }
            "--kind" => {
                kind = Some(match value(&mut it, "--kind").as_str() {
                    "raw" => CoalescerKind::Raw,
                    "mshr-dmc" => CoalescerKind::MshrDmc,
                    "pac" => CoalescerKind::Pac,
                    other => {
                        eprintln!("unknown coalescer '{other}' (raw | mshr-dmc | pac)");
                        std::process::exit(2);
                    }
                });
            }
            "--backend" => {
                let v = value(&mut it, "--backend");
                backend = BackendKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown --backend '{v}' (expected hmc or hbm)");
                    std::process::exit(2);
                });
            }
            "--accesses" => {
                accesses = Some(parse_u64(&value(&mut it, "--accesses"), "--accesses"))
            }
            "--quick" => quick = true,
            "--seed" => seed = parse_u64(&value(&mut it, "--seed"), "--seed"),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value(&mut it, "--checkpoint"))),
            "--checkpoint-every" => {
                every = Some(parse_u64(&value(&mut it, "--checkpoint-every"), "--checkpoint-every"))
            }
            "--resume" => resume = Some(PathBuf::from(value(&mut it, "--resume"))),
            "--kill-at" => kill_at = Some(parse_u64(&value(&mut it, "--kill-at"), "--kill-at")),
            "--print-cycles" => print_cycles = true,
            "--progress" => progress = Some(value(&mut it, "--progress")),
            s if s.starts_with("--progress=") => {
                progress = Some(s["--progress=".len()..].to_string());
            }
            _ => usage(),
        }
    }

    let (Some(bench), Some(kind)) = (bench, kind) else { usage() };
    if (every.is_some() || kill_at.is_some()) && checkpoint.is_none() && resume.is_none() {
        eprintln!("--checkpoint-every / --kill-at need --checkpoint <file> to write to");
        usage();
    }
    // Uniform `--quick` semantics across the harness binaries: the CI
    // smoke budget, unless --accesses names one explicitly.
    let accesses = accesses
        .unwrap_or(if quick { pac_bench::harness::QUICK_ACCESSES } else { 20_000 });
    Opts {
        bench,
        kind,
        backend,
        accesses,
        seed,
        checkpoint,
        every,
        resume,
        kill_at,
        print_cycles,
        progress,
    }
}

fn main() {
    sig::install();
    let opts = parse_opts();
    // A resumed campaign appends to its stream: readers see the prior
    // segment's events followed by a fresh campaign_start + resumed.
    let progress = match &opts.progress {
        None => ProgressSink::disabled(),
        Some(arg) => {
            let sink = if opts.resume.is_some() {
                ProgressSink::append(arg)
            } else {
                ProgressSink::create(arg)
            };
            sink.unwrap_or_else(|e| {
                eprintln!("--progress {arg}: {e}");
                usage();
            })
        }
    };
    let sim = SimConfig::for_backend(opts.backend);
    // The identity line stored in every checkpoint: resuming with
    // different parameters is refused instead of silently diverging.
    let meta = format!(
        "longrun bench={} kind={} backend={} cores={} accesses={} seed={:#x}",
        opts.bench.name(),
        opts.kind.label(),
        opts.backend.label(),
        sim.cores,
        opts.accesses,
        opts.seed,
    );
    // Further checkpoints of a resumed run go back to the resume file
    // unless --checkpoint names a different one.
    let ckpt_path = opts.checkpoint.clone().or_else(|| opts.resume.clone());

    progress.campaign_start("longrun", opts.backend.label(), 1, 1);
    let config_label = format!("accesses={} cores={}", opts.accesses, sim.cores);
    let cell = CellId {
        bench: opts.bench.name(),
        kind: opts.kind.label(),
        backend: opts.backend.label(),
        config: &config_label,
    };
    let wall_start = Instant::now();

    if opts.resume.is_none() {
        progress.cell_start(0, &cell);
    }
    let mut sys = match &opts.resume {
        Some(path) => {
            let specs = single_process(opts.bench, sim.cores, opts.seed);
            match read_checkpoint(path, specs, &meta) {
                Ok(sys) => {
                    eprintln!("resumed from {} at cycle {}", path.display(), sys.now());
                    progress.resumed(sys.now(), &path.display().to_string());
                    sys
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let specs = single_process(opts.bench, sim.cores, opts.seed);
            let mut sys =
                SimSystem::with_options(sim, specs, opts.kind, false, false, Stepping::SkipAhead);
            sys.begin_run(opts.accesses);
            sys
        }
    };

    let limit = sys.run_limit();
    // Pause cadence: the checkpoint interval, or a polling interval so
    // signals and --kill-at are noticed even without --checkpoint-every.
    let interval = opts.every.unwrap_or(1_000_000).max(1);

    loop {
        let mut stop_at = sys.now().saturating_add(interval);
        if let Some(kill) = opts.kill_at {
            if sys.now() < kill {
                stop_at = stop_at.min(kill);
            }
        }
        match sys.advance(limit, stop_at) {
            RunProgress::Done => break,
            RunProgress::Aborted => {
                eprintln!("run aborted: recovery layer gave up at cycle {}", sys.now());
                std::process::exit(1);
            }
            RunProgress::CycleLimit => {
                eprintln!("run wedged: cycle limit {limit} hit");
                std::process::exit(1);
            }
            RunProgress::Paused => {
                let now = sys.now();
                let killed = sig::triggered()
                    || opts.kill_at.is_some_and(|k| now >= k);
                if let Some(path) = &ckpt_path {
                    if killed || opts.every.is_some() {
                        if let Err(e) = write_checkpoint(path, &sys, &meta) {
                            eprintln!("{e}");
                            std::process::exit(1);
                        }
                        eprintln!("checkpointed at cycle {now} to {}", path.display());
                        progress.checkpoint(now, &path.display().to_string());
                    }
                }
                if killed {
                    eprintln!("stopping at cycle {now} (resume with --resume)");
                    // No cell_finish: the cell is still in flight. The
                    // resumed segment appends to this stream and closes
                    // it on completion.
                    progress.campaign_end();
                    std::process::exit(0);
                }
            }
        }
    }

    let m = sys.finish_run();
    progress.cell_finish(
        0,
        &cell,
        "pass",
        wall_start.elapsed().as_secs_f64(),
        m.runtime_cycles,
    );
    progress.campaign_end();
    if opts.print_cycles {
        println!("{}", m.runtime_cycles);
        return;
    }
    println!("bench                 : {}", opts.bench.name());
    println!("coalescer             : {}", m.coalescer);
    println!("runtime cycles        : {}", m.runtime_cycles);
    println!("raw requests          : {}", m.raw_requests);
    println!("dispatched requests   : {}", m.dispatched_requests);
    println!("coalescing efficiency : {:.2}%", m.coalescing_efficiency * 100.0);
    println!("avg memory latency    : {:.1} ns", m.avg_mem_latency_ns);
}
