//! Device behaviour every backend shares, tested once on each of them
//! through the factory: request checks, completion, the fault injector,
//! the tracer, and snapshot restore.

use hmc_sim::HmcRequest;
use pac_mem::{build_backend, load_backend, MemoryBackend};
use pac_trace::TraceHandle;
use pac_types::snapshot::{SnapReader, SnapWriter};
use pac_types::{
    BackendKind, FaultClass, FaultPlan, FaultPlanError, Op, RasClass, RasPlan, SimConfig,
    TraceConfig,
};

fn read(id: u64, addr: u64, bytes: u64) -> HmcRequest {
    HmcRequest { id, addr, bytes, op: Op::Load }
}

/// Each backend's config, with a fresh device and its row size.
fn backends() -> impl Iterator<Item = (SimConfig, Box<dyn MemoryBackend>, u64)> {
    BackendKind::ALL.into_iter().map(|kind| {
        let cfg = SimConfig::for_backend(kind);
        let dev = build_backend(&cfg);
        let row = cfg.active_row_bytes();
        (cfg, dev, row)
    })
}

/// The unit (vault or channel) an address maps to.
fn unit_of(cfg: &SimConfig, addr: u64) -> u32 {
    match cfg.backend {
        BackendKind::Hmc => cfg.hmc.vault_of(addr),
        BackendKind::Hbm => cfg.hbm.channel_of(addr),
    }
}

/// The panic message of submitting `req` to a fresh `kind` device.
fn submit_panic(kind: BackendKind, req: HmcRequest) -> String {
    let mut dev = build_backend(&SimConfig::for_backend(kind));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dev.submit(req, 0)))
        .expect_err("submit must panic");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

fn save(dev: &dyn MemoryBackend) -> Vec<u8> {
    let mut w = SnapWriter::new();
    dev.save_state(&mut w);
    w.into_bytes()
}

#[test]
fn single_read_completes() {
    for (_, mut dev, _) in backends() {
        dev.submit(read(7, 0x1000, 64), 0);
        let (rsps, _) = dev.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].id, 7);
        assert_eq!(rsps[0].bytes, 64);
        assert!(rsps[0].latency() > 0);
        assert!(dev.is_idle());
    }
}

#[test]
fn oversized_and_row_spanning_requests_rejected() {
    for kind in BackendKind::ALL {
        let row = SimConfig::for_backend(kind).active_row_bytes();
        let msg = submit_panic(kind, read(1, 0, 2 * row));
        assert!(msg.contains("exceeds"), "{kind:?}: {msg}");
        let msg = submit_panic(kind, read(1, row / 2, row));
        assert!(msg.contains("spans"), "{kind:?}: {msg}");
    }
}

#[test]
fn fault_drop_loses_responses_but_still_drains() {
    for (_, mut dev, row) in backends() {
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 2,
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        dev.set_fault_plan(plan).expect("valid fault plan");
        for i in 0..8 {
            dev.submit(read(i, i * row, 64), 0);
        }
        let (rsps, _) = dev.drain(0);
        assert_eq!(dev.faults_injected(), 2);
        assert_eq!(rsps.len(), 6, "two of eight responses dropped");
        assert!(dev.is_idle(), "dropped responses must not wedge the device");
    }
}

#[test]
fn fault_duplicate_delivers_twice() {
    for (_, mut dev, row) in backends() {
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::DuplicateResponse, 5)
        };
        dev.set_fault_plan(plan).expect("valid fault plan");
        for i in 0..4 {
            dev.submit(read(i, i * row, 64), 0);
        }
        let (rsps, _) = dev.drain(0);
        assert_eq!(dev.faults_injected(), 1);
        assert_eq!(rsps.len(), 5, "one response duplicated");
        assert!(dev.is_idle());
    }
}

#[test]
fn fault_delay_pushes_completion_out() {
    for (_, mut dev, _) in backends() {
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            delay_cycles: 100_000,
            ..FaultPlan::new(FaultClass::DelayResponse, 5)
        };
        dev.set_fault_plan(plan).expect("valid fault plan");
        dev.submit(read(1, 0, 64), 0);
        let (rsps, done) = dev.drain(0);
        assert_eq!(rsps.len(), 1);
        assert!(rsps[0].complete_cycle >= 100_000, "at {}", rsps[0].complete_cycle);
        assert!(done >= 100_000);
    }
}

#[test]
fn fault_corrupt_addr_echoes_wrong_line() {
    for (_, mut dev, _) in backends() {
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        dev.set_fault_plan(plan).expect("valid fault plan");
        dev.submit(read(1, 0x1000, 64), 0);
        let (rsps, _) = dev.drain(0);
        assert_eq!(rsps.len(), 1);
        assert_eq!(rsps[0].addr, 0x1040, "address echo must be corrupted");
    }
}

#[test]
fn fault_plan_target_unit_checked_against_the_topology() {
    for (cfg, mut dev, row) in backends() {
        // Vault 40 does not exist on the 32-vault HMC, nor channel 8 on
        // the 8-channel HBM.
        let (unit, units) = match cfg.backend {
            BackendKind::Hmc => (40, 32),
            BackendKind::Hbm => (8, 8),
        };
        let bad = FaultPlan {
            target_unit: Some(unit),
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        assert_eq!(
            dev.set_fault_plan(bad),
            Err(FaultPlanError::TargetUnitOutOfRange { unit, units })
        );

        // A targeted plan only fires on its unit: always-inject drops
        // aimed at unit 1 lose exactly the unit-1 response.
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: u64::MAX,
            target_unit: Some(1),
            ..FaultPlan::new(FaultClass::DropResponse, 11)
        };
        dev.set_fault_plan(plan).expect("in-range target");
        for i in 0..4 {
            dev.submit(read(i, i * row, 64), 0); // units 0..3
        }
        let (rsps, _) = dev.drain(0);
        assert_eq!(dev.faults_injected(), 1);
        assert_eq!(rsps.len(), 3);
        assert!(rsps.iter().all(|r| unit_of(&cfg, r.addr) != 1));
        assert!(dev.is_idle());
    }
}

#[test]
fn tracer_captures_request_lifecycle_and_fault_dump() {
    for (_, mut dev, _) in backends() {
        let tracer = TraceHandle::new(TraceConfig::full());
        dev.set_tracer(tracer.clone());
        let plan = FaultPlan {
            rate_per_1024: 1024,
            max_faults: 1,
            ..FaultPlan::new(FaultClass::CorruptAddr, 5)
        };
        dev.set_fault_plan(plan).expect("valid fault plan");
        dev.submit(read(42, 0x1000, 64), 0);
        dev.drain(0);

        let events = tracer.snapshot_events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"hmc_submit"), "got {names:?}");
        assert!(names.contains(&"vault_service"));
        assert!(names.contains(&"fault_injected"));
        assert!(names.contains(&"hmc_response"));

        let dumps = tracer.snapshot_dumps();
        assert_eq!(dumps.len(), 1, "fault must trigger exactly one flight dump");
        assert!(
            dumps[0].events.iter().any(|e| e.kind.request_id() == Some(42)),
            "dump holds the faulted request"
        );
    }
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    // Unarmed: a restored device finishes exactly like an untouched twin.
    for kind in BackendKind::ALL {
        let cfg = SimConfig::for_backend(kind);
        let mut a = build_backend(&cfg);
        let mut b = build_backend(&cfg);
        for i in 0..48 {
            a.submit(read(i, i * 512, 128), i / 2);
            b.submit(read(i, i * 512, 128), i / 2);
        }
        for now in 0..60 {
            a.tick(now);
            b.tick(now);
        }
        let bytes = save(a.as_ref());
        let mut r = SnapReader::new(&bytes);
        let mut restored = load_backend(&cfg, &mut r).expect("load");
        r.finish().expect("consumed");
        let (ra, da) = b.drain(60);
        let (rb, db) = restored.drain(60);
        assert_eq!(ra, rb, "{kind:?}: restored run must be bit-identical");
        assert_eq!(da, db);
    }

    // RAS armed, cut mid-flight: HMC mid-retransmission, HBM mid-scrub.
    for kind in BackendKind::ALL {
        let cfg = SimConfig::for_backend(kind);
        let mut dev = build_backend(&cfg);
        let (plan, cut) = match kind {
            BackendKind::Hmc => (RasPlan::new(RasClass::LinkBitError, 3), 40),
            BackendKind::Hbm => {
                let scrub = RasPlan::new(RasClass::Scrub, 7);
                (RasPlan { scrub_interval: 2_000, scrub_duration: 400, ..scrub }, 1500)
            }
        };
        dev.set_ras_plan(plan).expect("valid");
        for i in 0..32 {
            match kind {
                BackendKind::Hmc => dev.submit(read(i, i * 256, 64), i),
                BackendKind::Hbm => dev.submit(read(i, i % 4 * 64, 64), i * 100),
            }
        }
        for now in 0..cut {
            dev.tick(now);
        }
        let bytes = save(dev.as_ref());
        let mut r = SnapReader::new(&bytes);
        let mut restored = load_backend(&cfg, &mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        assert_eq!(save(restored.as_ref()), bytes, "{kind:?}: restore must be exact");
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        dev.pop_responses(cut, &mut out_a);
        restored.pop_responses(cut, &mut out_b);
        assert_eq!(out_a, out_b);
        // Both halves finish identically.
        let (a, da) = dev.drain(cut);
        let (b, db) = restored.drain(cut);
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert_eq!(dev.ras_stats(), restored.ras_stats());
    }
}

#[test]
fn many_random_requests_all_complete() {
    for (_, mut dev, _) in backends() {
        let mut submitted = 0u64;
        for i in 0..500u64 {
            let addr = (i * 2654435761) % (1 << 30);
            dev.submit(read(i, addr & !63, 64), i / 4);
            submitted += 1;
        }
        let (rsps, _) = dev.drain(200);
        assert_eq!(rsps.len() as u64, submitted);
        assert_eq!(dev.stats().responses, submitted);
        // Responses surface in completion order.
        assert!(rsps.windows(2).all(|w| w[0].complete_cycle <= w[1].complete_cycle));
    }
}
