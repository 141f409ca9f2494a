//! Kill-resume equivalence regression tests.
//!
//! The checkpoint subsystem's contract: a run paused at any
//! checkpoint-safe boundary, serialized with [`SimSystem::save_state`],
//! dropped (the simulated kill), and rebuilt in a fresh process image
//! with [`SimSystem::restore`] must continue to *bit-identical* final
//! [`RunMetrics`] and cycle counts — the resumed run and the
//! uninterrupted run are indistinguishable by any statistic. Style
//! follows `tests/skip_ahead_equivalence.rs`.

use pac_repro::oracle::OracleConfig;
use pac_repro::sim::{CoalescerKind, RunMetrics, RunProgress, SimSystem, Stepping};
use pac_repro::types::{
    BackendKind, Cycle, FaultClass, FaultPlan, RasClass, RasPlan, RecoveryConfig, SimConfig,
    SnapError,
};
use pac_repro::workloads::multiproc::{single_process, CoreSpec};
use pac_repro::workloads::Bench;

const KINDS: [CoalescerKind; 3] =
    [CoalescerKind::Raw, CoalescerKind::MshrDmc, CoalescerKind::Pac];

const ACCESSES: u64 = 1_200;

fn specs(bench: Bench, cfg: &SimConfig, seed: u64) -> Vec<CoreSpec> {
    single_process(bench, cfg.cores, seed)
}

fn fresh_system(bench: Bench, kind: CoalescerKind, cfg: SimConfig, seed: u64) -> SimSystem {
    SimSystem::with_options(
        cfg,
        specs(bench, &cfg, seed),
        kind,
        false,
        false,
        Stepping::SkipAhead,
    )
}

/// Run to completion without interruption.
fn uninterrupted(
    bench: Bench,
    kind: CoalescerKind,
    cfg: SimConfig,
    seed: u64,
) -> (RunMetrics, Cycle) {
    let mut sys = fresh_system(bench, kind, cfg, seed);
    let m = sys.run(ACCESSES);
    let now = sys.now();
    (m, now)
}

/// Run to `stop_at`, checkpoint, drop the system (the kill), restore
/// from bytes alone plus a freshly built workload, and run to the end.
fn kill_resume_at(
    bench: Bench,
    kind: CoalescerKind,
    cfg: SimConfig,
    seed: u64,
    stop_at: Cycle,
) -> (RunMetrics, Cycle) {
    let meta = format!(
        "{bench:?}/{}/{}/seed{seed}/acc{ACCESSES}",
        kind.label(),
        cfg.backend.label()
    );
    let mut sys = fresh_system(bench, kind, cfg, seed);
    sys.begin_run(ACCESSES);
    let limit = sys.run_limit();
    let progress = sys.advance(limit, stop_at);
    if progress != RunProgress::Paused {
        // The run drained before the pause point; nothing to resume.
        let m = sys.finish_run();
        let now = sys.now();
        return (m, now);
    }
    let bytes = sys.save_state(&meta).expect("checkpoint serializes");
    drop(sys); // the kill: nothing survives but the bytes

    let mut resumed =
        SimSystem::restore(specs(bench, &cfg, seed), &bytes, &meta).expect("checkpoint restores");
    let progress = resumed.advance(resumed.run_limit(), Cycle::MAX);
    assert_eq!(progress, RunProgress::Done, "{bench:?}/{kind:?}: resumed run did not drain");
    let m = resumed.finish_run();
    let now = resumed.now();
    (m, now)
}

/// The headline contract: for every coalescer configuration, a run
/// killed mid-flight and resumed from its checkpoint finishes with
/// bit-identical metrics and final clock.
#[test]
fn kill_resume_matches_uninterrupted_for_all_coalescers() {
    for &kind in &KINDS {
        let cfg = SimConfig::default();
        let (base, base_now) = uninterrupted(Bench::Ep, kind, cfg, 0x9AC_5EED);
        // Pause at several depths, including very early (cold
        // structures) and late (mid-drain).
        for frac in [20, 2, 4, 3] {
            let stop = (base.runtime_cycles / frac).max(1);
            let (resumed, resumed_now) = kill_resume_at(Bench::Ep, kind, cfg, 0x9AC_5EED, stop);
            assert_eq!(base, resumed, "{kind:?}: metrics diverged after resume at {stop}");
            assert_eq!(base_now, resumed_now, "{kind:?}: final clock diverged");
        }
    }
}

/// The same contract on the HBM backend: its PACSNAP1 snapshot section
/// captures pseudo-channel queues, bank-group timers, and the refresh
/// engine, and restoring must reproduce all of them exactly.
#[test]
fn hbm_kill_resume_matches_uninterrupted_for_all_coalescers() {
    for &kind in &KINDS {
        let cfg = SimConfig::for_backend(BackendKind::Hbm);
        let (base, base_now) = uninterrupted(Bench::Ep, kind, cfg, 0x9AC_5EED);
        for frac in [20, 3, 2] {
            let stop = (base.runtime_cycles / frac).max(1);
            let (resumed, resumed_now) = kill_resume_at(Bench::Ep, kind, cfg, 0x9AC_5EED, stop);
            assert_eq!(base, resumed, "hbm/{kind:?}: metrics diverged after resume at {stop}");
            assert_eq!(base_now, resumed_now, "hbm/{kind:?}: final clock diverged");
        }
    }
}

/// Other workloads and seeds: gather-scatter traffic under all kinds,
/// paused halfway, plus a late pause (71.6 % of the run) on BT under the
/// MSHR-DMC, taken while requests are still in flight in the device.
#[test]
fn kill_resume_matches_on_alternate_workload() {
    let gs = KINDS.map(|kind| (Bench::Gs, kind, SimConfig::default(), 0xDEAD_BEEF, 500));
    let late = (
        Bench::Bt,
        CoalescerKind::MshrDmc,
        SimConfig { cores: 4, ..SimConfig::default() },
        0x18e7_cadc_d801_f31a,
        716,
    );
    for (bench, kind, cfg, seed, per_mille) in gs.into_iter().chain([late]) {
        let (base, _) = uninterrupted(bench, kind, cfg, seed);
        let stop = (base.runtime_cycles * per_mille / 1000).max(1);
        let (resumed, _) = kill_resume_at(bench, kind, cfg, seed, stop);
        assert_eq!(base, resumed, "{bench:?}/{kind:?}: metrics diverged after resume at {stop}");
    }
}

/// Checkpointing twice along one run (kill, resume, kill again, resume
/// again) must still land on the uninterrupted result: round-trips
/// compose.
#[test]
fn double_kill_resume_composes() {
    let kind = CoalescerKind::Pac;
    let seed = 0x51_5EED;
    let meta = "double/pac";
    let cfg = SimConfig::default();
    let (base, base_now) = uninterrupted(Bench::Stream, kind, cfg, seed);

    let mut sys = fresh_system(Bench::Stream, kind, cfg, seed);
    sys.begin_run(ACCESSES);
    let limit = sys.run_limit();
    assert_eq!(sys.advance(limit, base.runtime_cycles / 4), RunProgress::Paused);
    let bytes = sys.save_state(meta).expect("first checkpoint");
    drop(sys);

    let mut sys = SimSystem::restore(specs(Bench::Stream, &cfg, seed), &bytes, meta).unwrap();
    assert_eq!(sys.advance(sys.run_limit(), base.runtime_cycles / 2), RunProgress::Paused);
    let bytes = sys.save_state(meta).expect("second checkpoint");
    drop(sys);

    let mut sys = SimSystem::restore(specs(Bench::Stream, &cfg, seed), &bytes, meta).unwrap();
    assert_eq!(sys.advance(sys.run_limit(), Cycle::MAX), RunProgress::Done);
    let m = sys.finish_run();
    assert_eq!(base, m, "double round-trip diverged");
    assert_eq!(base_now, sys.now());
}

/// Sort issues fences, so pausing at many depths crosses checkpoints
/// where the aggregator holds a partially assembled fence window. Every
/// one must resume bit-identically.
#[test]
fn checkpoint_mid_fence_assembly_resumes_bit_identically() {
    let cfg = SimConfig::default();
    let (base, base_now) = uninterrupted(Bench::Sort, CoalescerKind::Pac, cfg, 7);
    for frac in [8, 5, 3, 2] {
        let stop = (base.runtime_cycles / frac).max(1);
        let (resumed, resumed_now) = kill_resume_at(Bench::Sort, CoalescerKind::Pac, cfg, 7, stop);
        assert_eq!(base, resumed, "fence workload diverged after resume at {stop}");
        assert_eq!(base_now, resumed_now);
    }
}

/// The fence-window contract on HBM: Sort's fences pause the aggregator
/// with partially assembled windows, and the snapshot must carry them
/// across a kill on the HBM device model too.
#[test]
fn hbm_checkpoint_mid_fence_assembly_resumes_bit_identically() {
    let cfg = SimConfig::for_backend(BackendKind::Hbm);
    let (base, base_now) = uninterrupted(Bench::Sort, CoalescerKind::Pac, cfg, 7);
    for frac in [8, 3, 2] {
        let stop = (base.runtime_cycles / frac).max(1);
        let (resumed, resumed_now) = kill_resume_at(Bench::Sort, CoalescerKind::Pac, cfg, 7, stop);
        assert_eq!(base, resumed, "hbm fence workload diverged after resume at {stop}");
        assert_eq!(base_now, resumed_now);
    }
}

/// Kill-resume with an armed fault plan and the recovery layer active,
/// for every fault class: the checkpoint lands while watchdog deadlines
/// (and possibly backoff timers on retried transactions) are pending,
/// and the resumed run must repair the same faults on the same cycles —
/// final metrics, oracle verdicts, recovery counters, and the injected
/// fault count all bit-identical.
fn faulted_kill_resume_roundtrips(cfg: SimConfig, meta: &str) {
    let seed = 11;
    let recovery = RecoveryConfig::enabled();
    for class in FaultClass::ALL {
        let plan = FaultPlan::new(class, 99);
        // The delayed original holds a device slot until it emerges.
        let limit: Cycle = 10_000_000 + plan.delay_cycles;
        let meta = format!("{meta}/{}", class.label());

        let build = |cfg: SimConfig| {
            let mut sys = fresh_system(Bench::Stream, CoalescerKind::Pac, cfg, seed);
            let mut ocfg = OracleConfig::for_sim(&cfg);
            if class == FaultClass::DelayResponse {
                // A finite latency bound makes delays detectable; the
                // same setting pac-serve arms on its delay cells.
                ocfg.max_response_latency = Some(1_000_000);
            }
            sys.attach_oracle_with(ocfg);
            sys.set_fault_plan(plan).expect("valid plan");
            sys.set_recovery_config(recovery);
            sys
        };

        // Uninterrupted reference.
        let mut sys = build(cfg);
        sys.begin_run(ACCESSES);
        let base_progress = sys.advance(limit, Cycle::MAX);
        let base = sys.finish_run();
        let base_oracle = sys.oracle_report().expect("oracle attached");
        let base_recovery = sys.recovery_report().expect("recovery armed");
        let base_faults = sys.faults_injected();
        assert_eq!(base_progress, RunProgress::Done, "{meta}: reference did not drain");
        assert!(base_oracle.violations.is_empty(), "{meta}: {}", base_oracle.summary());
        assert!(base_faults > 0, "{meta}: fault plan never fired");
        // Duplicates and corrupt addresses are repaired on arrival;
        // only lost or late responses reach the watchdog.
        if matches!(class, FaultClass::DropResponse | FaultClass::DelayResponse) {
            assert!(
                base_recovery.watchdog_fires > 0,
                "{meta}: fault plan must exercise the watchdog for this test to mean anything"
            );
        }

        // Killed and resumed.
        let mut sys = build(cfg);
        sys.begin_run(ACCESSES);
        assert_eq!(sys.advance(limit, base.runtime_cycles / 2), RunProgress::Paused, "{meta}");
        let bytes = sys.save_state(&meta).expect("checkpoint with armed watchdog");
        drop(sys);
        let mut sys = SimSystem::restore(specs(Bench::Stream, &cfg, seed), &bytes, &meta).unwrap();
        let progress = sys.advance(sys.run_limit().min(limit), Cycle::MAX);
        let resumed = sys.finish_run();
        let resumed_oracle = sys.oracle_report().expect("oracle restored");
        let resumed_recovery = sys.recovery_report().expect("recovery restored");

        assert_eq!(base_progress, progress, "{meta}: termination mode diverged");
        assert_eq!(base, resumed, "{meta}: metrics diverged under faults + recovery");
        assert_eq!(base_recovery, resumed_recovery, "{meta}: recovery counters diverged");
        assert_eq!(base_faults, sys.faults_injected(), "{meta}: fault count diverged");
        assert_eq!(base_oracle.counts, resumed_oracle.counts, "{meta}: oracle verdicts diverged");
        assert_eq!(base_oracle.accepted_raw, resumed_oracle.accepted_raw);
        assert_eq!(base_oracle.served_raw, resumed_oracle.served_raw);
        assert_eq!(base_oracle.dispatches, resumed_oracle.dispatches);
        assert_eq!(base_oracle.responses, resumed_oracle.responses);
    }
}

#[test]
fn kill_resume_with_faults_and_recovery_active() {
    faulted_kill_resume_roundtrips(SimConfig::default(), "faulted/pac");
}

/// Same armed-fault-plan round-trip on the HBM backend: the snapshot
/// must carry the fault plan's RNG position and remaining budget along
/// with the device state, or the resumed run injects different faults.
#[test]
fn hbm_kill_resume_with_faults_and_recovery_active() {
    faulted_kill_resume_roundtrips(
        SimConfig::for_backend(BackendKind::Hbm),
        "faulted/pac/hbm",
    );
}

/// Kill-resume with an armed hardware RAS plan: the checkpoint lands
/// while the RAS machinery holds live state — retry buffers mid
/// retransmission on HMC, the patrol scrubber mid-sweep on HBM — plus
/// the plan's own RNG position and remaining event budget. The resumed
/// run must inject, correct, and retry the exact same events on the
/// exact same cycles: final metrics, clocks, and every RAS counter
/// bit-identical to the uninterrupted reference.
fn ras_kill_resume_roundtrips(cfg: SimConfig, class: RasClass, meta: &str) {
    let seed = 0x5A5_1DE; // arbitrary, fixed
    let plan = RasPlan::new(class, 0x0A5_5EED);
    let limit: Cycle = 10_000_000;

    let build = |cfg: SimConfig| {
        let mut sys = fresh_system(Bench::Stream, CoalescerKind::Pac, cfg, seed);
        sys.attach_oracle();
        sys.set_ras_plan(plan).expect("class is native to this backend");
        if class == RasClass::EccDouble {
            // Poisoned double-bit echoes need the recovery layer's
            // poison-and-reissue path, exactly as the conformance
            // matrix arms it.
            sys.set_recovery_config(RecoveryConfig::enabled());
        }
        sys
    };

    // Uninterrupted reference.
    let mut sys = build(cfg);
    sys.begin_run(ACCESSES);
    let base_progress = sys.advance(limit, Cycle::MAX);
    let base = sys.finish_run();
    let base_now = sys.now();
    let base_oracle = sys.oracle_report().expect("oracle attached");
    let base_stats = sys.ras_stats().expect("ras armed");
    assert!(
        base_stats.events_for(class) > 0,
        "{meta}: plan must actually fire for this test to mean anything ({base_stats:?})"
    );

    // Kill at several depths so the snapshot crosses different live
    // RAS states (early: cold buffers; mid: retransmission / scrub in
    // flight; late: budget exhausted, pure replay).
    for frac in [8, 3, 2] {
        let stop = (base.runtime_cycles / frac).max(1);
        let mut sys = build(cfg);
        sys.begin_run(ACCESSES);
        if sys.advance(limit, stop) != RunProgress::Paused {
            continue; // drained before the pause point at this depth
        }
        let bytes = sys.save_state(meta).expect("checkpoint with armed ras plan");
        drop(sys);
        let mut sys =
            SimSystem::restore(specs(Bench::Stream, &cfg, seed), &bytes, meta).unwrap();
        let progress = sys.advance(sys.run_limit().min(limit), Cycle::MAX);
        let resumed = sys.finish_run();
        let resumed_oracle = sys.oracle_report().expect("oracle restored");
        let resumed_stats = sys.ras_stats().expect("ras plan restored");

        assert_eq!(base_progress, progress, "{meta}@{stop}: termination mode diverged");
        assert_eq!(base, resumed, "{meta}@{stop}: metrics diverged under ras");
        assert_eq!(base_now, sys.now(), "{meta}@{stop}: final clock diverged");
        assert_eq!(base_stats, resumed_stats, "{meta}@{stop}: ras counters diverged");
        assert_eq!(base_oracle.counts, resumed_oracle.counts, "{meta}@{stop}: oracle diverged");
        assert_eq!(base_oracle.accepted_raw, resumed_oracle.accepted_raw);
        assert_eq!(base_oracle.served_raw, resumed_oracle.served_raw);
    }
}

/// CRC bit errors on the HMC link layer: checkpoints land while retry
/// buffers hold un-acked FLITs awaiting retransmission.
#[test]
fn kill_resume_with_link_bit_errors_mid_retransmission() {
    ras_kill_resume_roundtrips(
        SimConfig::default(),
        RasClass::LinkBitError,
        "ras/link-bit-error/pac",
    );
}

/// Patrol scrub on the HBM backend: checkpoints land mid-sweep, with
/// the scrubber's position and the ECC state both live in the snapshot.
#[test]
fn hbm_kill_resume_with_patrol_scrub_mid_sweep() {
    ras_kill_resume_roundtrips(
        SimConfig::for_backend(BackendKind::Hbm),
        RasClass::Scrub,
        "ras/scrub/pac/hbm",
    );
}

/// Double-bit ECC with recovery armed on HBM: the snapshot carries
/// poisoned-line bookkeeping alongside pending reissue timers.
#[test]
fn hbm_kill_resume_with_ecc_poison_and_recovery() {
    ras_kill_resume_roundtrips(
        SimConfig::for_backend(BackendKind::Hbm),
        RasClass::EccDouble,
        "ras/ecc-double/pac/hbm",
    );
}

/// Checkpoint with the flight-recorder tracer enabled (its ring may
/// hold a pending dump window). The tracer is observe-only and is
/// deliberately not captured — the resumed run, tracer-less, must still
/// be bit-identical to an untraced uninterrupted run.
#[test]
fn checkpoint_with_flight_recorder_resumes_bit_identically() {
    let seed = 0x9AC_5EED;
    let cfg = SimConfig::default();
    let meta = "flight/pac";
    let (base, base_now) = uninterrupted(Bench::Ep, CoalescerKind::Pac, cfg, seed);

    let mut sys = fresh_system(Bench::Ep, CoalescerKind::Pac, cfg, seed);
    sys.set_trace_config(pac_repro::types::TraceConfig::flight_recorder());
    sys.begin_run(ACCESSES);
    let limit = sys.run_limit();
    assert_eq!(sys.advance(limit, base.runtime_cycles / 3), RunProgress::Paused);
    let bytes = sys.save_state(meta).expect("checkpoint under tracing");
    drop(sys);

    let mut sys = SimSystem::restore(specs(Bench::Ep, &cfg, seed), &bytes, meta).unwrap();
    assert_eq!(sys.advance(sys.run_limit(), Cycle::MAX), RunProgress::Done);
    let m = sys.finish_run();
    assert_eq!(base, m, "tracing perturbed the checkpointed state");
    assert_eq!(base_now, sys.now());
}

/// The guard rails: tampered bytes, wrong meta, and wrong workload
/// specs are all refused with the right error — never a silent
/// misresume.
#[test]
fn corrupt_or_mismatched_checkpoints_are_refused() {
    let cfg = SimConfig::default();
    let seed = 3;
    let meta = "guard/pac";
    let mut sys = fresh_system(Bench::Stream, CoalescerKind::Pac, cfg, seed);
    sys.begin_run(ACCESSES);
    assert_eq!(sys.advance(sys.run_limit(), 2_000), RunProgress::Paused);
    let bytes = sys.save_state(meta).expect("checkpoint");

    // Bit-flip anywhere must trip the checksum.
    let mut tampered = bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x10;
    assert!(matches!(
        SimSystem::restore(specs(Bench::Stream, &cfg, seed), &tampered, meta),
        Err(SnapError::Checksum { .. })
    ));

    // Wrong experiment identity.
    assert!(matches!(
        SimSystem::restore(specs(Bench::Stream, &cfg, seed), &bytes, "other/raw"),
        Err(SnapError::ConfigMismatch(_))
    ));

    // Wrong workload for the right meta: core identity check fires.
    assert!(matches!(
        SimSystem::restore(specs(Bench::Bfs, &cfg, seed), &bytes, meta),
        Err(SnapError::ConfigMismatch(_))
    ));

    // The original, untampered bytes still restore and finish.
    let mut resumed =
        SimSystem::restore(specs(Bench::Stream, &cfg, seed), &bytes, meta).expect("clean restore");
    assert_eq!(resumed.advance(resumed.run_limit(), Cycle::MAX), RunProgress::Done);
}
