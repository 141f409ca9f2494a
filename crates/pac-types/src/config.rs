//! Simulation configuration, mirroring Table 1 of the paper.
//!
//! | Parameter            | Paper value                          |
//! |----------------------|--------------------------------------|
//! | ISA                  | RV64IMAFDC (modelled as trace cores) |
//! | Core #               | 8                                    |
//! | CPU frequency        | 2 GHz                                |
//! | Cache                | 8-way, 16 KB L1, 8 MB L2             |
//! | Coalescing streams   | 16                                   |
//! | Timeout              | 16 cycles                            |
//! | MAQ entries & MSHRs  | 16                                   |
//! | HMC                  | 4 links, 8 GB, 256 B block           |
//! | Avg HMC access time  | 93 ns                                |

use crate::protocol::MemoryProtocol;
use std::fmt;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in CPU cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's per-core L1: 16 KB, 8-way.
    pub fn paper_l1() -> Self {
        CacheConfig { capacity_bytes: 16 << 10, ways: 8, line_bytes: 64, hit_latency: 2 }
    }

    /// The paper's shared L2 (last-level cache): 8 MB, 8-way.
    pub fn paper_l2() -> Self {
        CacheConfig { capacity_bytes: 8 << 20, ways: 8, line_bytes: 64, hit_latency: 20 }
    }

    /// Number of sets implied by the geometry.
    #[inline]
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * self.line_bytes)
    }
}

/// Configuration of the coalescing network and the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescerConfig {
    /// Number of parallel coalescing streams in the paged request
    /// aggregator (Table 1: 16).
    pub streams: usize,
    /// Stage-1 timeout in CPU cycles: a stream older than this is flushed
    /// downstream even if more raw requests might arrive (Table 1: 16).
    pub timeout_cycles: u64,
    /// MAQ entries; the paper fixes this equal to the number of MSHRs.
    pub maq_entries: usize,
    /// Miss status holding registers (Table 1: 16).
    pub mshrs: usize,
    /// Maximum subentries each MSHR entry can hold (the 2-bit index field
    /// addresses up to 4 blocks; subentry capacity bounds merges).
    pub mshr_subentries: usize,
    /// Target memory protocol (drives maximum coalesced request size).
    pub protocol: MemoryProtocol,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        CoalescerConfig {
            streams: 16,
            timeout_cycles: 16,
            maq_entries: 16,
            mshrs: 16,
            mshr_subentries: 8,
            protocol: MemoryProtocol::Hmc21,
        }
    }
}

/// Geometry, timing, and energy constants of the simulated HMC device.
///
/// Timing values are in *CPU* cycles (2 GHz) so the whole system shares
/// one clock. Energy constants are representative pico-joule figures; the
/// paper reports only relative savings, which depend on event counts,
/// not on the absolute constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcDeviceConfig {
    /// Number of external SERDES links (Table 1: 4).
    pub links: u32,
    /// Number of vaults (HMC 2.1: 32).
    pub vaults: u32,
    /// Banks per vault (HMC 2.1 8 GB: 16).
    pub banks_per_vault: u32,
    /// Device capacity in bytes (Table 1: 8 GB).
    pub capacity_bytes: u64,
    /// DRAM row (block) size in bytes (Table 1: 256 B).
    pub row_bytes: u64,
    /// Link transfer time per FLIT, CPU cycles.
    pub link_cycles_per_flit: u64,
    /// Crossbar traversal to the link-local vault quadrant.
    pub xbar_local_cycles: u64,
    /// Crossbar traversal to a remote quadrant.
    pub xbar_remote_cycles: u64,
    /// Row activate time (tRCD equivalent), CPU cycles.
    pub t_activate: u64,
    /// Column access per 32 B of data, CPU cycles.
    pub t_access_per_32b: u64,
    /// Precharge time (closed-page policy precharges after every
    /// reference), CPU cycles.
    pub t_precharge: u64,
    /// Per-bank refresh interval (tREFI equivalent), CPU cycles.
    /// 0 disables refresh modelling.
    pub t_refresh_interval: u64,
    /// Refresh duration (tRFC equivalent), CPU cycles.
    pub t_refresh_duration: u64,
    /// Energy per cycle a valid packet holds a vault request slot (pJ).
    pub e_vault_rqst_slot: f64,
    /// Energy per cycle a valid packet holds a vault response slot (pJ).
    pub e_vault_rsp_slot: f64,
    /// Energy per vault-controller operation (pJ).
    pub e_vault_ctrl: f64,
    /// Energy per FLIT routed to the link-local quadrant (pJ).
    pub e_link_local_route: f64,
    /// Energy per FLIT routed to a remote quadrant (pJ).
    pub e_link_remote_route: f64,
    /// Energy per bank activate+precharge pair (pJ).
    pub e_bank_act_pre: f64,
    /// Energy per 32 B column access (pJ).
    pub e_bank_access_32b: f64,
}

impl Default for HmcDeviceConfig {
    fn default() -> Self {
        HmcDeviceConfig {
            links: 4,
            vaults: 32,
            banks_per_vault: 16,
            capacity_bytes: 8 << 30,
            row_bytes: 256,
            link_cycles_per_flit: 1,
            xbar_local_cycles: 4,
            xbar_remote_cycles: 12,
            t_activate: 28,   // 14 ns
            t_access_per_32b: 2,
            t_precharge: 22,  // 11 ns
            t_refresh_interval: 15_600, // 7.8 us at 2 GHz
            t_refresh_duration: 520,    // 260 ns
            e_vault_rqst_slot: 0.8,
            e_vault_rsp_slot: 0.8,
            e_vault_ctrl: 6.0,
            e_link_local_route: 4.0,
            e_link_remote_route: 10.0,
            e_bank_act_pre: 35.0,
            e_bank_access_32b: 9.0,
        }
    }
}

/// Which cycle-level memory-device model backs the simulation.
///
/// The simulator core is generic over a `MemoryBackend` trait (crate
/// `pac-mem`); this enum is the configuration-level selector that the
/// backend factory and the snapshot restore path dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The HMC 2.1 vault/quadrant device model (`hmc-sim`).
    #[default]
    Hmc,
    /// The HBM-style pseudo-channel device model (`pac-mem::hbm`).
    Hbm,
}

impl BackendKind {
    /// Every backend, in stable matrix order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Hmc, BackendKind::Hbm];

    /// Stable human-readable label (used in CLI flags and JSON output).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Hmc => "hmc",
            BackendKind::Hbm => "hbm",
        }
    }
}

/// How the HBM backend spreads consecutive rows across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressInterleave {
    /// Row-granular round-robin across channels (the 3D-stacked layout:
    /// consecutive rows land on different channels, maximizing channel
    /// parallelism for streaming access — the analogue of HMC's vault
    /// interleave).
    #[default]
    Stacked,
    /// Flat contiguous slabs: each channel owns a contiguous
    /// `capacity / channels` address range (the planar-DRAM layout;
    /// streaming access serializes on one channel).
    Flat,
}

/// Geometry, timing, and energy constants of the simulated HBM-style
/// device (pseudo-channel organization with per-channel bank groups).
///
/// Timing values are in *CPU* cycles (2 GHz), sharing the system clock
/// with [`HmcDeviceConfig`]. The model keeps the paper's closed-page
/// policy: every reference pays activate + column accesses + precharge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmDeviceConfig {
    /// Number of pseudo-channels (HBM2E stack: 8 channels × 2
    /// pseudo-channels is common; we model 8 independent channels).
    pub channels: u32,
    /// Bank groups per pseudo-channel.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
    /// DRAM row (page) size in bytes per pseudo-channel (HBM: 1 KB).
    pub row_bytes: u64,
    /// How rows interleave across channels.
    pub interleave: AddressInterleave,
    /// Channel bus transfer time per 16 B FLIT, CPU cycles.
    pub bus_cycles_per_flit: u64,
    /// Fixed controller/PHY traversal per packet, CPU cycles.
    pub ctrl_cycles: u64,
    /// Row activate time (tRCD equivalent), CPU cycles.
    pub t_activate: u64,
    /// Column access per 32 B of data, CPU cycles.
    pub t_access_per_32b: u64,
    /// Precharge time (closed-page policy), CPU cycles.
    pub t_precharge: u64,
    /// Same-bank-group issue-to-issue gap (tCCD_L equivalent), CPU
    /// cycles. 0 disables the bank-group constraint.
    pub t_ccd_long: u64,
    /// Four-activate-window span (tFAW equivalent), CPU cycles. 0
    /// disables the constraint.
    pub t_faw: u64,
    /// Activates allowed inside one `t_faw` window (the "four" in tFAW).
    pub faw_window_activates: u32,
    /// Per-bank refresh interval (tREFI equivalent), CPU cycles. 0
    /// disables refresh modelling.
    pub t_refresh_interval: u64,
    /// Refresh duration (tRFC equivalent), CPU cycles.
    pub t_refresh_duration: u64,
    /// Energy per channel-controller operation (pJ).
    pub e_ctrl: f64,
    /// Energy per FLIT crossing the channel bus (pJ).
    pub e_bus_route: f64,
    /// Energy per bank activate+precharge pair (pJ).
    pub e_bank_act_pre: f64,
    /// Energy per 32 B column access (pJ).
    pub e_bank_access_32b: f64,
    /// Energy per cycle a valid packet holds a channel request slot (pJ).
    pub e_rqst_slot: f64,
    /// Energy per cycle a valid packet holds a channel response slot (pJ).
    pub e_rsp_slot: f64,
}

impl Default for HbmDeviceConfig {
    fn default() -> Self {
        HbmDeviceConfig {
            channels: 8,
            bank_groups: 4,
            banks_per_group: 4,
            capacity_bytes: 8 << 30,
            row_bytes: 1024,
            interleave: AddressInterleave::Stacked,
            bus_cycles_per_flit: 1,
            ctrl_cycles: 6,
            t_activate: 30,   // ~15 ns
            t_access_per_32b: 2,
            t_precharge: 24,  // ~12 ns
            t_ccd_long: 4,
            t_faw: 64,        // ~32 ns
            faw_window_activates: 4,
            t_refresh_interval: 15_600, // 7.8 us at 2 GHz
            t_refresh_duration: 520,    // 260 ns
            e_ctrl: 5.0,
            e_bus_route: 3.0,
            e_bank_act_pre: 40.0,
            e_bank_access_32b: 8.0,
            e_rqst_slot: 0.8,
            e_rsp_slot: 0.8,
        }
    }
}

/// One address decomposed into the HBM device hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmLocation {
    /// Pseudo-channel index.
    pub channel: u32,
    /// Bank group within the channel.
    pub bank_group: u32,
    /// Bank within the bank group.
    pub bank: u32,
    /// DRAM row within the bank.
    pub row: u64,
}

impl HbmDeviceConfig {
    /// Total banks in one pseudo-channel.
    #[inline]
    pub fn banks_per_channel(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total rows across the device.
    #[inline]
    pub fn rows_total(&self) -> u64 {
        self.capacity_bytes / self.row_bytes
    }

    /// Rows owned by each channel.
    #[inline]
    pub fn rows_per_channel(&self) -> u64 {
        self.rows_total() / u64::from(self.channels)
    }

    /// Decompose an address into channel/bank-group/bank/row.
    ///
    /// Row-granular: every byte inside one aligned `row_bytes` window
    /// maps to the same location, so a coalesced page-sized request
    /// occupies exactly one bank — the property PAC exploits. Addresses
    /// at or beyond `capacity_bytes` wrap (row index modulo total rows),
    /// mirroring the HMC model's modular `vault_of`.
    #[inline]
    pub fn decompose(&self, addr: u64) -> HbmLocation {
        let row_index = (addr / self.row_bytes) % self.rows_total();
        match self.interleave {
            AddressInterleave::Stacked => {
                let ch = u64::from(self.channels);
                let bg = u64::from(self.bank_groups);
                let bk = u64::from(self.banks_per_group);
                HbmLocation {
                    channel: (row_index % ch) as u32,
                    bank_group: ((row_index / ch) % bg) as u32,
                    bank: ((row_index / (ch * bg)) % bk) as u32,
                    row: row_index / (ch * bg * bk),
                }
            }
            AddressInterleave::Flat => {
                let per = self.rows_per_channel();
                let local = row_index % per;
                let bg = u64::from(self.bank_groups);
                let bk = u64::from(self.banks_per_group);
                HbmLocation {
                    channel: (row_index / per) as u32,
                    bank_group: (local % bg) as u32,
                    bank: ((local / bg) % bk) as u32,
                    row: local / (bg * bk),
                }
            }
        }
    }

    /// Inverse of [`decompose`](Self::decompose): the base address of
    /// the row holding `loc`. `decompose(compose(loc))` is the identity
    /// for any in-range location, which the mapping property tests use
    /// to prove the decomposition bijective.
    #[inline]
    pub fn compose(&self, loc: HbmLocation) -> u64 {
        let ch = u64::from(self.channels);
        let bg = u64::from(self.bank_groups);
        let bk = u64::from(self.banks_per_group);
        let row_index = match self.interleave {
            AddressInterleave::Stacked => {
                u64::from(loc.channel)
                    + ch * (u64::from(loc.bank_group)
                        + bg * (u64::from(loc.bank) + bk * loc.row))
            }
            AddressInterleave::Flat => {
                u64::from(loc.channel) * self.rows_per_channel()
                    + u64::from(loc.bank_group)
                    + bg * (u64::from(loc.bank) + bk * loc.row)
            }
        };
        row_index * self.row_bytes
    }

    /// Pseudo-channel an address maps to.
    #[inline]
    pub fn channel_of(&self, addr: u64) -> u32 {
        self.decompose(addr).channel
    }

    /// Flattened bank index within the channel (bank-group-major).
    #[inline]
    pub fn flat_bank_of(&self, addr: u64) -> u32 {
        let loc = self.decompose(addr);
        loc.bank_group * self.banks_per_group + loc.bank
    }
}

impl HmcDeviceConfig {
    /// Vaults served by each link's local quadrant.
    #[inline]
    pub fn vaults_per_link(&self) -> u32 {
        self.vaults / self.links
    }

    /// Vault index an address maps to. HMC interleaves vaults at row
    /// (block) granularity so consecutive rows hit different vaults.
    #[inline]
    pub fn vault_of(&self, addr: u64) -> u32 {
        ((addr / self.row_bytes) % self.vaults as u64) as u32
    }

    /// Bank index (within its vault) an address maps to.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u32 {
        ((addr / (self.row_bytes * self.vaults as u64)) % self.banks_per_vault as u64) as u32
    }

    /// DRAM row index within the bank.
    #[inline]
    pub fn row_of(&self, addr: u64) -> u64 {
        addr / (self.row_bytes * self.vaults as u64 * self.banks_per_vault as u64)
    }

    /// Link whose quadrant contains `vault`.
    #[inline]
    pub fn home_link_of_vault(&self, vault: u32) -> u32 {
        vault / self.vaults_per_link()
    }
}

/// Top-level simulation configuration (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of cores (Table 1: 8).
    pub cores: u32,
    /// Per-core L1 configuration.
    pub l1: CacheConfig,
    /// Shared LLC configuration.
    pub l2: CacheConfig,
    /// Coalescer + MSHR configuration.
    pub coalescer: CoalescerConfig,
    /// Which device model backs the run.
    pub backend: BackendKind,
    /// HMC device configuration (used when `backend == BackendKind::Hmc`).
    pub hmc: HmcDeviceConfig,
    /// HBM device configuration (used when `backend == BackendKind::Hbm`).
    pub hbm: HbmDeviceConfig,
    /// Maximum in-flight LLC misses a single core tolerates before it
    /// stalls (models per-core load/store queue capacity).
    pub core_outstanding: usize,
    /// LLC stride-prefetcher depth: lines fetched ahead once a per-core
    /// sequential miss pattern is detected (0 disables). Sec 4.2 of the
    /// paper assumes such a prefetcher and notes PAC coalesces its
    /// line-granular requests.
    pub prefetch_degree: u32,
    /// Cap on in-flight prefetch requests across the system.
    pub prefetch_max_outstanding: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 8,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            coalescer: CoalescerConfig::default(),
            backend: BackendKind::Hmc,
            hmc: HmcDeviceConfig::default(),
            hbm: HbmDeviceConfig::default(),
            core_outstanding: 2,
            prefetch_degree: 4,
            prefetch_max_outstanding: 256,
        }
    }
}

/// Why a [`SimConfig`] was rejected by [`SimConfig::validate`].
///
/// Mirrors [`crate::fault::FaultPlanError`]: every variant names the
/// offending field and says what a legal value looks like, so a bad
/// sweep cell fails at construction with a located message instead of
/// panicking (division by zero, empty-queue deadlock) deep inside a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimConfigError {
    /// `cores == 0`: a run with no cores can never retire an access.
    ZeroCores,
    /// `coalescer.maq_entries == 0`: the MAQ could never accept a
    /// coalesced request, deadlocking stage 3 permanently.
    ZeroMaqEntries,
    /// `coalescer.mshrs == 0`: no miss could ever be tracked; every
    /// dispatch would stall forever.
    ZeroMshrs,
    /// `coalescer.mshr_subentries == 0`: an MSHR entry that cannot hold
    /// even its own originating request.
    ZeroMshrSubentries,
    /// `coalescer.streams == 0`: the aggregator has nowhere to open a
    /// page window.
    ZeroStreams,
    /// `core_outstanding == 0`: every core would stall before its first
    /// miss.
    ZeroCoreOutstanding,
    /// A cache geometry field that must be a nonzero power of two
    /// (line size, capacity, associativity) is not.
    CacheGeometry {
        /// Which cache level ("l1" or "l2").
        level: &'static str,
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// `hmc.row_bytes` is zero or not a power of two — page/vault/bank
    /// decomposition is bit manipulation and requires it.
    RowBytesNotPow2(u64),
    /// `hmc.vaults`, `hmc.banks_per_vault`, or `hmc.links` is zero, or
    /// vaults is not divisible by links (quadrant mapping would truncate).
    HmcGeometry(&'static str),
    /// An HBM geometry field is degenerate: zero channels/bank
    /// groups/banks, capacity not divisible by the full
    /// row×channel×bank hierarchy (decompose/compose would truncate),
    /// or a zero tFAW activate budget with `t_faw` armed.
    HbmGeometry(&'static str),
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::ZeroCores => {
                write!(f, "config rejected: cores == 0 (no core can ever retire an access)")
            }
            SimConfigError::ZeroMaqEntries => write!(
                f,
                "config rejected: coalescer.maq_entries == 0 (the MAQ could never accept \
                 a request; stage 3 would deadlock)"
            ),
            SimConfigError::ZeroMshrs => write!(
                f,
                "config rejected: coalescer.mshrs == 0 (no miss could ever be tracked)"
            ),
            SimConfigError::ZeroMshrSubentries => write!(
                f,
                "config rejected: coalescer.mshr_subentries == 0 (an MSHR entry must hold \
                 at least its originating request)"
            ),
            SimConfigError::ZeroStreams => write!(
                f,
                "config rejected: coalescer.streams == 0 (the aggregator has no page windows)"
            ),
            SimConfigError::ZeroCoreOutstanding => write!(
                f,
                "config rejected: core_outstanding == 0 (every core stalls before its \
                 first miss)"
            ),
            SimConfigError::CacheGeometry { level, field, value } => write!(
                f,
                "config rejected: {level}.{field} = {value} must be a nonzero power of two"
            ),
            SimConfigError::RowBytesNotPow2(v) => write!(
                f,
                "config rejected: hmc.row_bytes = {v} must be a nonzero power of two \
                 (vault/bank decomposition is bit manipulation)"
            ),
            SimConfigError::HmcGeometry(what) => {
                write!(f, "config rejected: hmc geometry invalid: {what}")
            }
            SimConfigError::HbmGeometry(what) => {
                write!(f, "config rejected: hbm geometry invalid: {what}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

fn check_cache(level: &'static str, c: &CacheConfig) -> Result<(), SimConfigError> {
    let geom = |field: &'static str, value: u64| SimConfigError::CacheGeometry {
        level,
        field,
        value,
    };
    if c.line_bytes == 0 || !c.line_bytes.is_power_of_two() {
        return Err(geom("line_bytes", c.line_bytes));
    }
    if c.capacity_bytes == 0 || !c.capacity_bytes.is_power_of_two() {
        return Err(geom("capacity_bytes", c.capacity_bytes));
    }
    if c.ways == 0 || !c.ways.is_power_of_two() {
        return Err(geom("ways", u64::from(c.ways)));
    }
    if c.sets() == 0 {
        return Err(geom("capacity_bytes", c.capacity_bytes));
    }
    Ok(())
}

impl SimConfig {
    /// The canonical configuration for a backend: Table-1 defaults with
    /// the backend selector set and the coalescer protocol matched to
    /// the device's row size (HBM coalesces to its 1 KB rows, so PAC's
    /// page windows fill the wider row the same way they fill HMC's
    /// 256 B blocks).
    pub fn for_backend(backend: BackendKind) -> Self {
        let mut cfg = SimConfig { backend, ..SimConfig::default() };
        if backend == BackendKind::Hbm {
            cfg.coalescer.protocol = MemoryProtocol::Hbm;
        }
        cfg
    }

    /// Row (block) size of the active backend's device, bytes.
    #[inline]
    pub fn active_row_bytes(&self) -> u64 {
        match self.backend {
            BackendKind::Hmc => self.hmc.row_bytes,
            BackendKind::Hbm => self.hbm.row_bytes,
        }
    }

    /// Number of independent service units (vaults or pseudo-channels)
    /// in the active backend — the topology bound fault plans are
    /// validated against.
    #[inline]
    pub fn active_units(&self) -> u32 {
        match self.backend {
            BackendKind::Hmc => self.hmc.vaults,
            BackendKind::Hbm => self.hbm.channels,
        }
    }

    /// Check every structural invariant the simulator relies on.
    ///
    /// Call at construction time (every `SimSystem` entry point routes
    /// through this) so a degenerate sweep cell — zero-sized MAQ, zero
    /// MSHRs, non-power-of-two line size — is reported up front with a
    /// self-describing [`SimConfigError`] rather than deadlocking or
    /// panicking mid-run. Mirrors [`crate::fault::FaultPlan::validate`].
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.cores == 0 {
            return Err(SimConfigError::ZeroCores);
        }
        if self.coalescer.maq_entries == 0 {
            return Err(SimConfigError::ZeroMaqEntries);
        }
        if self.coalescer.mshrs == 0 {
            return Err(SimConfigError::ZeroMshrs);
        }
        if self.coalescer.mshr_subentries == 0 {
            return Err(SimConfigError::ZeroMshrSubentries);
        }
        if self.coalescer.streams == 0 {
            return Err(SimConfigError::ZeroStreams);
        }
        if self.core_outstanding == 0 {
            return Err(SimConfigError::ZeroCoreOutstanding);
        }
        check_cache("l1", &self.l1)?;
        check_cache("l2", &self.l2)?;
        if self.hmc.row_bytes == 0 || !self.hmc.row_bytes.is_power_of_two() {
            return Err(SimConfigError::RowBytesNotPow2(self.hmc.row_bytes));
        }
        if self.hmc.vaults == 0 {
            return Err(SimConfigError::HmcGeometry("vaults == 0"));
        }
        if self.hmc.banks_per_vault == 0 {
            return Err(SimConfigError::HmcGeometry("banks_per_vault == 0"));
        }
        if self.hmc.links == 0 {
            return Err(SimConfigError::HmcGeometry("links == 0"));
        }
        if !self.hmc.vaults.is_multiple_of(self.hmc.links) {
            return Err(SimConfigError::HmcGeometry(
                "vaults must be divisible by links (quadrant mapping would truncate)",
            ));
        }
        let hbm = &self.hbm;
        if hbm.row_bytes == 0 || !hbm.row_bytes.is_power_of_two() {
            return Err(SimConfigError::RowBytesNotPow2(hbm.row_bytes));
        }
        if hbm.channels == 0 {
            return Err(SimConfigError::HbmGeometry("channels == 0"));
        }
        if hbm.bank_groups == 0 {
            return Err(SimConfigError::HbmGeometry("bank_groups == 0"));
        }
        if hbm.banks_per_group == 0 {
            return Err(SimConfigError::HbmGeometry("banks_per_group == 0"));
        }
        let hierarchy = hbm.row_bytes
            * u64::from(hbm.channels)
            * u64::from(hbm.bank_groups)
            * u64::from(hbm.banks_per_group);
        if hbm.capacity_bytes == 0 || !hbm.capacity_bytes.is_multiple_of(hierarchy) {
            return Err(SimConfigError::HbmGeometry(
                "capacity_bytes must be a nonzero multiple of \
                 row_bytes * channels * bank_groups * banks_per_group",
            ));
        }
        if hbm.t_faw > 0 && hbm.faw_window_activates == 0 {
            return Err(SimConfigError::HbmGeometry(
                "faw_window_activates == 0 with t_faw armed (no activate could ever issue)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.cores, 8);
        assert_eq!(c.l1.capacity_bytes, 16 * 1024);
        assert_eq!(c.l2.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(c.l1.ways, 8);
        assert_eq!(c.coalescer.streams, 16);
        assert_eq!(c.coalescer.timeout_cycles, 16);
        assert_eq!(c.coalescer.maq_entries, 16);
        assert_eq!(c.coalescer.mshrs, 16);
        assert_eq!(c.hmc.links, 4);
        assert_eq!(c.hmc.capacity_bytes, 8 << 30);
        assert_eq!(c.hmc.row_bytes, 256);
    }

    #[test]
    fn cache_sets() {
        assert_eq!(CacheConfig::paper_l1().sets(), 32);
        assert_eq!(CacheConfig::paper_l2().sets(), 16384);
    }

    #[test]
    fn vault_interleaving_spreads_consecutive_rows() {
        let h = HmcDeviceConfig::default();
        assert_eq!(h.vault_of(0), 0);
        assert_eq!(h.vault_of(256), 1);
        assert_eq!(h.vault_of(256 * 32), 0);
        // Same vault, next bank.
        assert_eq!(h.bank_of(0), 0);
        assert_eq!(h.bank_of(256 * 32), 1);
        assert_eq!(h.bank_of(256 * 32 * 16), 0);
        assert_eq!(h.row_of(256 * 32 * 16), 1);
    }

    #[test]
    fn validate_accepts_table1_defaults() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_cells() {
        let base = SimConfig::default();

        let mut c = base;
        c.cores = 0;
        assert_eq!(c.validate(), Err(SimConfigError::ZeroCores));

        let mut c = base;
        c.coalescer.maq_entries = 0;
        assert_eq!(c.validate(), Err(SimConfigError::ZeroMaqEntries));

        let mut c = base;
        c.coalescer.mshrs = 0;
        assert_eq!(c.validate(), Err(SimConfigError::ZeroMshrs));

        let mut c = base;
        c.coalescer.mshr_subentries = 0;
        assert_eq!(c.validate(), Err(SimConfigError::ZeroMshrSubentries));

        let mut c = base;
        c.coalescer.streams = 0;
        assert_eq!(c.validate(), Err(SimConfigError::ZeroStreams));

        let mut c = base;
        c.core_outstanding = 0;
        assert_eq!(c.validate(), Err(SimConfigError::ZeroCoreOutstanding));
    }

    #[test]
    fn validate_rejects_non_pow2_geometry() {
        let base = SimConfig::default();

        let mut c = base;
        c.l1.line_bytes = 96;
        assert_eq!(
            c.validate(),
            Err(SimConfigError::CacheGeometry { level: "l1", field: "line_bytes", value: 96 })
        );

        let mut c = base;
        c.l2.capacity_bytes = 3 << 20;
        assert!(matches!(
            c.validate(),
            Err(SimConfigError::CacheGeometry { level: "l2", field: "capacity_bytes", .. })
        ));

        let mut c = base;
        c.hmc.row_bytes = 384;
        assert_eq!(c.validate(), Err(SimConfigError::RowBytesNotPow2(384)));

        let mut c = base;
        c.hmc.links = 3;
        assert!(matches!(c.validate(), Err(SimConfigError::HmcGeometry(_))));
    }

    #[test]
    fn validate_errors_are_self_describing() {
        let mut c = SimConfig::default();
        c.coalescer.maq_entries = 0;
        let err = c.validate().expect_err("zero MAQ must be rejected");
        assert!(err.to_string().contains("maq_entries"), "located message: {err}");
    }

    #[test]
    fn home_link_quadrants() {
        let h = HmcDeviceConfig::default();
        assert_eq!(h.vaults_per_link(), 8);
        assert_eq!(h.home_link_of_vault(0), 0);
        assert_eq!(h.home_link_of_vault(7), 0);
        assert_eq!(h.home_link_of_vault(8), 1);
        assert_eq!(h.home_link_of_vault(31), 3);
    }

    #[test]
    fn backend_kind_labels_parse() {
        let parse = |s| crate::cli::lookup("backend", s, BackendKind::ALL, BackendKind::label);
        for k in BackendKind::ALL {
            assert_eq!(parse(k.label()), Ok(k));
        }
        assert_eq!(parse("HBM"), Ok(BackendKind::Hbm));
        assert_eq!(parse("ddr4").unwrap_err(), "unknown backend 'ddr4' (valid: hmc, hbm)");
    }

    #[test]
    fn for_backend_matches_protocol_to_device() {
        let hmc = SimConfig::for_backend(BackendKind::Hmc);
        assert_eq!(hmc.coalescer.protocol, MemoryProtocol::Hmc21);
        assert_eq!(hmc.active_row_bytes(), 256);
        assert_eq!(hmc.active_units(), 32);

        let hbm = SimConfig::for_backend(BackendKind::Hbm);
        assert_eq!(hbm.coalescer.protocol, MemoryProtocol::Hbm);
        assert_eq!(hbm.active_row_bytes(), 1024);
        assert_eq!(hbm.active_units(), 8);
        assert_eq!(hbm.validate(), Ok(()));
    }

    #[test]
    fn hbm_stacked_interleave_spreads_consecutive_rows() {
        let h = HbmDeviceConfig::default();
        assert_eq!(h.channel_of(0), 0);
        assert_eq!(h.channel_of(1024), 1);
        assert_eq!(h.channel_of(1024 * 8), 0);
        // Same channel, next bank group.
        assert_eq!(h.flat_bank_of(0), 0);
        assert_eq!(h.flat_bank_of(1024 * 8), h.banks_per_group);
        // Bytes inside one row share a location.
        assert_eq!(h.decompose(1024 + 512), h.decompose(1024));
    }

    #[test]
    fn hbm_flat_interleave_gives_contiguous_slabs() {
        let h = HbmDeviceConfig { interleave: AddressInterleave::Flat, ..Default::default() };
        let slab = h.capacity_bytes / u64::from(h.channels);
        assert_eq!(h.channel_of(0), 0);
        assert_eq!(h.channel_of(slab - 1), 0);
        assert_eq!(h.channel_of(slab), 1);
        assert_eq!(h.channel_of(slab * 7), 7);
    }

    #[test]
    fn hbm_compose_inverts_decompose() {
        for interleave in [AddressInterleave::Stacked, AddressInterleave::Flat] {
            let h = HbmDeviceConfig { interleave, ..Default::default() };
            for addr in [0u64, 1024, 4096, 1 << 20, (8u64 << 30) - 1024, 0xDEAD_B000] {
                let loc = h.decompose(addr);
                let base = h.compose(loc);
                assert_eq!(base % h.row_bytes, 0);
                assert_eq!(h.decompose(base), loc, "{interleave:?} addr {addr:#x}");
                assert_eq!(base, addr / h.row_bytes % h.rows_total() * h.row_bytes);
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_hbm_geometry() {
        let base = SimConfig::for_backend(BackendKind::Hbm);

        let mut c = base;
        c.hbm.channels = 0;
        assert_eq!(c.validate(), Err(SimConfigError::HbmGeometry("channels == 0")));

        let mut c = base;
        c.hbm.row_bytes = 768;
        assert_eq!(c.validate(), Err(SimConfigError::RowBytesNotPow2(768)));

        let mut c = base;
        c.hbm.capacity_bytes = (8 << 30) + 512;
        assert!(matches!(c.validate(), Err(SimConfigError::HbmGeometry(_))));

        let mut c = base;
        c.hbm.faw_window_activates = 0;
        assert!(matches!(c.validate(), Err(SimConfigError::HbmGeometry(_))));
    }
}
