//! Quickstart: drive the paged adaptive coalescer by hand.
//!
//! Recreates the paper's Fig 5(b) walk-through: five raw requests from
//! the STREAM benchmark enter the coalescing network — two loads to page
//! 0x9, two stores to page 0x2, one lone load to page 0x5 — and come out
//! as two 128 B HMC requests plus one 64 B bypass.
//!
//! Run with: `cargo run --release --example quickstart`

use pac_repro::coalescer::{MemoryCoalescer, PacCoalescer};
use pac_repro::hmc::{Hmc, HmcRequest};
use pac_repro::mem::MemoryBackend;
use pac_repro::types::addr::block_addr;
use pac_repro::types::{CoalescerConfig, HmcDeviceConfig, MemRequest, Op, RequestKind};

fn main() {
    let mut pac = PacCoalescer::new(CoalescerConfig::default());
    let mut hmc = Hmc::new(HmcDeviceConfig::default());

    // The five raw requests of Fig 5(b): (id, page, block, op).
    let raw = [
        (1u64, 0x9u64, 1u8, Op::Load),
        (2, 0x2, 1, Op::Store),
        (3, 0x5, 3, Op::Load),
        (4, 0x9, 2, Op::Load),
        (5, 0x2, 2, Op::Store),
    ];

    println!("raw requests from the LLC:");
    for (id, page, block, op) in raw {
        let mut req = MemRequest::miss(id, block_addr(page, block), op, 0, 0);
        req.op = op;
        req.kind = if op == Op::Store { RequestKind::WriteBack } else { RequestKind::Miss };
        println!("  id {id}: {op:?} page {page:#x} block {block}");
        // Tell the controller more requests are queued behind this one
        // so it engages the coalescing network instead of bypassing.
        pac.hint_pending(raw.len());
        assert!(pac.push_raw(req, 0));
    }

    // Tick until the pipeline drains into dispatched memory requests.
    let mut dispatches = Vec::new();
    let mut now = 0;
    while !pac.is_drained() || now == 0 {
        pac.tick(now, &mut dispatches);
        now += 1;
        if now > 1000 {
            panic!("pipeline failed to drain");
        }
    }

    println!("\ncoalesced requests dispatched to the HMC:");
    for d in &dispatches {
        println!(
            "  dispatch {}: {:?} {:#07x} {:>3}B covering {} raw request(s)",
            d.dispatch_id, d.op, d.addr, d.bytes, d.raw_count
        );
        hmc.submit(HmcRequest { id: d.dispatch_id, addr: d.addr, bytes: d.bytes, op: d.op }, now);
    }

    let (responses, done) = hmc.drain(now);
    println!("\nHMC served {} requests by cycle {done}:", responses.len());
    for r in &responses {
        let mut satisfied = Vec::new();
        pac.complete(r.id, done, &mut satisfied);
        println!(
            "  response {}: {:>3}B, latency {:.1} ns, satisfies raw ids {satisfied:?}",
            r.id,
            r.bytes,
            r.latency() as f64 / 2.0
        );
    }

    let s = pac.stats();
    println!(
        "\ncoalescing efficiency: {:.1}% ({} raw -> {} dispatched)",
        s.coalescing_efficiency() * 100.0,
        s.raw_requests,
        s.dispatched_requests
    );
    assert_eq!(s.raw_requests, 5);
    assert_eq!(s.dispatched_requests, 3);
}
