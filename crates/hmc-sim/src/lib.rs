//! Cycle-level stacked-memory device model, and the Hybrid Memory Cube
//! topology over it.
//!
//! This crate stands in for HMC-Sim 3.0 (Leidel & Chen), the cycle-accurate
//! simulator the paper drives its coalesced requests into. It models the
//! architectural features PAC interacts with:
//!
//! * a **packetized interface**: requests carry 16 B..256 B payloads in
//!   16 B FLIT multiples, each transaction paying 32 B of control overhead
//!   (16 B on the request packet, 16 B on the response packet);
//! * **4 external SERDES links** with round-robin dispatch — the policy
//!   that makes un-coalesced adjacent requests fan out across links and
//!   incur remote-vault crossbar routes (Sec 2.1.2);
//! * a **fully-connected crossbar** between links and vaults with distinct
//!   local-quadrant and remote-quadrant traversal costs;
//! * **32 vaults × 16 banks** with per-vault in-order controllers, finite
//!   slot occupancy accounting, and **closed-page** DRAM timing — every
//!   reference activates and precharges its row, so back-to-back accesses
//!   to one bank serialize and count as bank conflicts;
//! * an **event-based energy model** with the five operation classes the
//!   paper measures in Fig 13 (`VAULT-RQST-SLOT`, `VAULT-RSP-SLOT`,
//!   `VAULT-CTRL`, `LINK-LOCAL-ROUTE`, `LINK-REMOTE-ROUTE`) plus bank
//!   activate/access energy.
//!
//! The device itself is generic: [`Device`] (in [`device`]) holds
//! everything a stacked memory shares — submission checks and
//! accounting, the walk over active units, response scheduling with the
//! fault injector, and response return — over a [`Topology`] that
//! supplies the network in front of the banks and the unit behind it.
//! [`Hmc`] is the device over the HMC's [`Links`] (in [`links`]) and
//! [`vault::Vault`]s; `pac-mem` builds the HBM over the same device.
//!
//! The device is advanced with [`Device::tick`]; completed responses are
//! drained with [`Device::pop_responses`]. All timing is expressed in CPU
//! cycles (2 GHz) so the whole simulated system shares one clock.

pub mod device;
pub mod energy;
pub mod links;
pub mod stats;
pub mod vault;

pub use device::{Device, HmcRequest, HmcResponse, Topology, Unit};
pub use energy::{EnergyBreakdown, EnergyClass};
pub use links::{Hmc, Links};
pub use stats::HmcStats;
