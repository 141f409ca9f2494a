//! Pins the exact bytes each device writes into a checkpoint.
//!
//! Both backends are driven through one fixed script of loads and
//! stores spread over many units, saved mid-flight, and the saved bytes
//! are compared by length and FNV-1a digest against constants recorded
//! when the test was written. Any change to the device state, to its
//! field order, or to the encoding of a field moves a digest: a
//! PACSNAP version that stays put must keep these bytes.
//!
//! Each backend runs three ways: nothing armed, a `delay-response`
//! fault plan, and a RAS plan that leaves state in the snapshot
//! (`retry-storm` on the HMC, `ecc-single` on the HBM).

use hmc_sim::HmcRequest;
use pac_mem::build_backend;
use pac_types::snapshot::{fnv1a64, SnapWriter};
use pac_types::{BackendKind, FaultClass, FaultPlan, Op, RasClass, RasPlan, SimConfig};

/// Requests in the script, two submitted per cycle.
const REQUESTS: u64 = 160;
/// Cycle the device is saved at: requests are still being submitted,
/// queued, serviced and returned.
const SAVE_AT: u64 = 70;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    Nothing,
    Fault,
    Ras,
}

/// `(backend, arm, byte length, fnv1a64)` of the saved state.
const PINNED: [(BackendKind, Arm, usize, u64); 6] = [
    (BackendKind::Hmc, Arm::Nothing, 26207, 13902189078174455540),
    (BackendKind::Hmc, Arm::Fault, 26278, 3167779732589478858),
    (BackendKind::Hmc, Arm::Ras, 25840, 16255539177495048361),
    (BackendKind::Hbm, Arm::Nothing, 12013, 11055088834625699873),
    (BackendKind::Hbm, Arm::Fault, 12207, 2270373353300937813),
    (BackendKind::Hbm, Arm::Ras, 12898, 1522297472594862577),
];

fn request(i: u64, row_bytes: u64) -> HmcRequest {
    // Rows scattered over many units, a few lines per row, every fifth
    // access a store.
    let row = (i * 37) % 97;
    HmcRequest {
        id: i,
        addr: row * row_bytes + (i % 4) * 64,
        bytes: if i.is_multiple_of(3) { 32 } else { 64 },
        op: if i.is_multiple_of(5) { Op::Store } else { Op::Load },
    }
}

fn saved_bytes(kind: BackendKind, arm: Arm) -> Vec<u8> {
    let cfg = SimConfig::for_backend(kind);
    let mut dev = build_backend(&cfg);
    match arm {
        Arm::Nothing => {}
        Arm::Fault => {
            let plan = FaultPlan {
                rate_per_1024: 256,
                delay_cycles: 400,
                ..FaultPlan::new(FaultClass::DelayResponse, 11)
            };
            dev.set_fault_plan(plan).expect("valid fault plan");
        }
        Arm::Ras => {
            let plan = match kind {
                BackendKind::Hmc => RasPlan::new(RasClass::RetryStorm, 5),
                BackendKind::Hbm => RasPlan {
                    rate_per_1024: 512,
                    max_events: 64,
                    spare_threshold: 1,
                    ..RasPlan::new(RasClass::EccSingle, 5)
                },
            };
            dev.set_ras_plan(plan).expect("valid ras plan");
        }
    }
    let mut out = Vec::new();
    for now in 0..SAVE_AT {
        for i in (now * 2..now * 2 + 2).filter(|&i| i < REQUESTS) {
            dev.submit(request(i, cfg.active_row_bytes()), now);
        }
        dev.tick(now);
        dev.pop_responses(now, &mut out);
    }
    assert!(!out.is_empty() && !dev.is_idle(), "{kind:?}/{arm:?}: save must land mid-flight");
    match arm {
        Arm::Nothing => {}
        Arm::Fault => assert!(dev.faults_injected() > 0, "{kind:?}: fault plan never fired"),
        Arm::Ras => {
            // The retry ladder (HMC) or the spare map (HBM) has moved.
            let s = dev.ras_stats().expect("armed");
            assert!(s.links_half_width + s.banks_spared > 0, "{kind:?}: {s:?}");
        }
    }
    let mut w = SnapWriter::new();
    dev.save_state(&mut w);
    w.into_bytes()
}

#[test]
fn device_snapshot_bytes_are_pinned() {
    let got: Vec<_> = PINNED
        .iter()
        .map(|&(kind, arm, ..)| {
            let bytes = saved_bytes(kind, arm);
            (kind, arm, bytes.len(), fnv1a64(&bytes))
        })
        .collect();
    assert_eq!(got, PINNED.to_vec(), "device snapshot bytes moved");
}
