//! The benchmark at a seconds-scale size: every declared metric is
//! reported, the reference gate catches a single tampered row, and the
//! isolated replays reproduce the boundary they were cut from.

use pac_obs::json::Json;
use pac_perfbench::isolate::{backend_only, isolate, recorded_replay};
use pac_perfbench::workloads::{
    capture_traces, sim_config, Settings, Size, Workload, DEFAULT_SEED,
};
use pac_perfbench::{bench_dir, layers, workloads};
use pac_sim::CoalescerKind;
use pac_types::BackendKind;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny(workload: Workload, dir: &std::path::Path) -> Settings {
    Settings {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.001,
        size: Size::tiny(),
        reference_dir: dir.join("reference"),
        work_dir: dir.join("work"),
        bless: false,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_reports(section: &str, workload: Workload, metrics: &pac_perfbench::stats::Metrics) {
    for (name, unit) in declared(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{}: {section} metric {name} missing", workload.name()));
        assert_eq!(m.unit, unit, "{}: unit of {name}", workload.name());
        assert!(m.value.is_finite(), "{}: {name} = {}", workload.name(), m.value);
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for workload in Workload::ALL {
        let dir = scratch(workload.name());
        let s = tiny(workload, &dir);
        let out = workloads::run(&s);
        assert!(out.correct(), "{}: {:?}", workload.name(), out.gate.notes);
        assert!(out.gate.attempted > 0);
        assert_reports("end_to_end", workload, &out.metrics);

        let (out, tracer) = layers::run(&s);
        assert!(out.correct(), "{} traced: {:?}", workload.name(), out.gate.notes);
        assert_reports("per_layer", workload, &out.metrics);
        let self_total: f64 = tracer.self_times().values().sum();
        assert!(
            self_total <= tracer.elapsed(),
            "{}: span self times exceed the run",
            workload.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_tampered_reference_row_fails_exactly_one_op() {
    let dir = scratch("tamper");
    let bless = Settings { bless: true, ..tiny(Workload::FigMatrixHmc, &dir) };
    let out = workloads::run(&bless);
    assert!(out.correct(), "{:?}", out.gate.notes);
    out.gate.bless().unwrap();

    let checked = tiny(Workload::FigMatrixHmc, &dir);
    let clean = workloads::run(&checked);
    assert!(clean.gate.has_reference());
    assert_eq!(clean.gate.failed, 0, "{:?}", clean.gate.notes);

    let path = checked.reference_path();
    let text = std::fs::read_to_string(&path).unwrap();
    let row = text.lines().find(|l| l.starts_with("GS/pac ")).unwrap();
    let tampered = row.replacen("cycles=", "cycles=9", 1);
    std::fs::write(&path, text.replacen(row, &tampered, 1)).unwrap();

    let out = workloads::run(&checked);
    assert_eq!(out.gate.attempted, clean.gate.attempted);
    assert_eq!(out.gate.failed, 1, "{:?}", out.gate.notes);
    assert!(out.gate.notes[0].starts_with("GS/pac:"), "{:?}", out.gate.notes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn isolated_replays_reproduce_their_boundary() {
    let captures = capture_traces(DEFAULT_SEED, 300);
    let trace = &captures.iter().find(|c| c.trace.len() > 100).unwrap().trace;
    for backend in BackendKind::ALL {
        for kind in CoalescerKind::ALL {
            let iso = isolate(trace, kind, &sim_config(backend));
            assert!(iso.mismatches.is_empty(), "{kind:?} on {backend:?}: {:?}", iso.mismatches);
            assert!(iso.backend.requests > 0 && !iso.coalescer.submits.is_empty());
            assert_eq!(iso.backend.responses.len() as u64, iso.backend.requests);
        }
    }
    // The check is not vacuous: a boundary missing one submit is not
    // reproduced.
    let cfg = sim_config(BackendKind::Hmc);
    let (_, mut b) = recorded_replay(trace, CoalescerKind::Pac, &cfg);
    b.submits.pop();
    assert_ne!(backend_only(&b, &cfg).responses, b.responses);
}
