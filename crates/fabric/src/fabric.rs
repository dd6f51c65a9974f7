//! The burst-level shared-memory fabric between the ARCANE controller
//! complex (eCPU + 2-D DMA + host slave port) and the VPU array.
//!
//! The fabric owns one request port per VPU controller plus one host
//! port, and books every transaction on a set of bank calendars under
//! the configured [`ArbiterKind`]:
//!
//! * [`ArbiterKind::WholePhase`] — the legacy model and the default:
//!   each kernel DMA transaction is one contiguous busy window on the
//!   shared channel (cycle-identical to the pre-fabric calendar
//!   booking), host refills ride a dedicated slave path that never
//!   contends, and vector issue stays on the exclusive eCPU calendar.
//! * [`ArbiterKind::RoundRobinBurst`] — every transaction fills
//!   whatever idle slices concurrent transactions left, earliest first
//!   (work-conserving round-robin arbitration; no burst size enters a
//!   grant, since slices that touch merge), and vector instructions
//!   reach the VPUs as small dispatch descriptors over the same fabric
//!   (autonomous per-VPU sequencers instead of per-instruction eCPU
//!   software issue).
//! * [`ArbiterKind::PriorityHost`] — like round-robin-burst for kernel
//!   traffic, but host transactions are granted contiguously at the
//!   earliest gap, minimising host miss latency at the cost of kernel
//!   stalls.

use crate::channel::ResourceChannel;
use std::fmt;

/// Index of the host slave port (VPU controller `v` is port `v + 1`).
pub const HOST_PORT: usize = 0;

/// The bank interleave in bytes: one cache line. Consecutive lines of
/// external memory map to consecutive banks; this is all it decides.
const BURST_BYTES: u64 = 1024;

/// Size of one vector-instruction dispatch descriptor in bytes (opcode
/// word + operand word), used when the arbiter routes issue traffic
/// over the fabric.
const ISSUE_BYTES: u64 = 8;

/// Geometry and arbitration policy of the shared fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Grant discipline for the shared path.
    pub arbiter: ArbiterKind,
    /// Independent fabric banks; transactions to different banks never
    /// contend. 1 = the single shared channel of the paper.
    pub banks: usize,
    /// Payload bandwidth of one bank in bytes per cycle (the shared
    /// bus width; the LLC derives its DMA payload bandwidth from this).
    pub bytes_per_cycle: u64,
}

impl FabricConfig {
    /// The paper's shared path: one bank, 32-bit bus, whole-phase
    /// arbitration.
    pub const fn default_config() -> Self {
        FabricConfig {
            arbiter: ArbiterKind::WholePhase,
            banks: 1,
            bytes_per_cycle: 4,
        }
    }

    /// Cycles a payload of `bytes` occupies a bank at the configured
    /// bus width (minimum one cycle; a zero width counts as one byte
    /// per cycle). This is the exact fuel a launch-descriptor batch
    /// burns on its way to the eCPU's decoder.
    fn payload_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes_per_cycle.max(1)).max(1)
    }

    /// Cycles one vector-instruction dispatch descriptor occupies a
    /// bank (burst arbiters only).
    fn issue_cycles(&self) -> u64 {
        self.payload_cycles(ISSUE_BYTES)
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::default_config()
    }
}

/// One granted transaction: the absolute-cycle span it occupies. A
/// split grant's span is longer than its service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// First granted cycle.
    pub start: u64,
    /// Last granted cycle (exclusive).
    pub end: u64,
}

/// The fabric's grant discipline: how one transaction's cycles are
/// laid out on a bank calendar relative to everything already booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterKind {
    /// The legacy discipline and the default: one contiguous busy
    /// window per transaction, placed in the earliest gap that fits
    /// the whole phase. Host refills ride a dedicated slave path and
    /// never touch the shared calendar. Cycle-identical to the
    /// pre-fabric `ResourceChannel` model.
    #[default]
    WholePhase,
    /// Work-conserving round-robin: every transaction fills the
    /// earliest idle slices, so concurrent streams interleave. Host
    /// and kernel traffic share the banks symmetrically.
    RoundRobinBurst,
    /// Round-robin slices for kernel traffic, contiguous earliest-gap
    /// grants for the host: the host's miss refills are never split,
    /// so host latency is minimised while kernel traffic weaves around
    /// them.
    PriorityHost,
}

impl ArbiterKind {
    /// Every selectable policy, in ablation-table order.
    pub const ALL: [ArbiterKind; 3] = [
        ArbiterKind::WholePhase,
        ArbiterKind::RoundRobinBurst,
        ArbiterKind::PriorityHost,
    ];

    /// Policy mnemonic (ablation tables).
    pub fn name(self) -> &'static str {
        match self {
            ArbiterKind::WholePhase => "whole-phase",
            ArbiterKind::RoundRobinBurst => "round-robin-burst",
            ArbiterKind::PriorityHost => "priority-host",
        }
    }

    /// Books one transaction of `duration` cycles on `chan`, no earlier
    /// than `earliest`. `host` marks a host-port transaction (miss
    /// refill or writeback line); every other transaction is kernel
    /// traffic (DMA, dispatch or descriptor trains).
    ///
    /// Every grant books exactly `duration` busy cycles, except a
    /// whole-phase host grant, which rides the dedicated slave path and
    /// books none.
    pub(crate) fn grant(
        self,
        chan: &mut ResourceChannel,
        host: bool,
        earliest: u64,
        duration: u64,
    ) -> Grant {
        let (start, end) = match (self, host) {
            // Dedicated host slave path: fixed service latency, no
            // contention with kernel traffic (the legacy model).
            (ArbiterKind::WholePhase, true) => (earliest, earliest + duration),
            (ArbiterKind::WholePhase, false) | (ArbiterKind::PriorityHost, true) => {
                chan.reserve(earliest, duration)
            }
            (ArbiterKind::RoundRobinBurst, _) | (ArbiterKind::PriorityHost, false) => {
                chan.reserve_packed(earliest, duration)
            }
        };
        Grant { start, end }
    }

    /// `true` when vector-instruction dispatch rides the fabric as
    /// dispatch descriptors (autonomous per-VPU sequencers); `false` when
    /// it stays on the exclusive eCPU calendar (software issue).
    pub(crate) fn issue_on_fabric(self) -> bool {
        self != ArbiterKind::WholePhase
    }
}

impl fmt::Display for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-port traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Transactions issued through this port.
    pub requests: u64,
    /// Service cycles of the port's transactions. Under the burst
    /// arbiters every one of these cycles occupies a bank calendar;
    /// under [`ArbiterKind::WholePhase`] the host port's transactions ride the
    /// dedicated slave path instead, so the host row's busy cycles
    /// count that path's occupancy, not bank time (the sum over ports
    /// can then exceed [`Fabric::busy_cycles`]).
    pub busy_cycles: u64,
    /// Cycles transactions spent waiting beyond their service time
    /// (`completion − earliest − duration`, summed).
    pub wait_cycles: u64,
}

/// The shared-memory fabric: `1 + n_vpus` request ports multiplexed
/// onto `banks` bank calendars under the configured arbiter.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: FabricConfig,
    banks: Vec<ResourceChannel>,
    ports: Vec<PortStats>,
    /// [`FabricConfig::issue_cycles`], computed once.
    issue_cycles: u64,
}

impl Fabric {
    /// Builds the fabric with one host port plus `n_vpus` VPU
    /// controller ports.
    ///
    /// # Panics
    ///
    /// Panics when the configuration names zero banks.
    pub fn new(cfg: FabricConfig, n_vpus: usize) -> Self {
        assert!(cfg.banks >= 1, "fabric needs at least one bank");
        Fabric {
            banks: vec![ResourceChannel::new(); cfg.banks],
            ports: vec![PortStats::default(); 1 + n_vpus],
            issue_cycles: cfg.issue_cycles(),
            cfg,
        }
    }

    /// The configuration this fabric was built with.
    pub const fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// The request port of VPU controller `vpu`.
    pub fn vpu_port(vpu: usize) -> usize {
        vpu + 1
    }

    /// Human-readable port name (`host`, `vpu0`, `vpu1`, …).
    pub fn port_label(port: usize) -> String {
        if port == HOST_PORT {
            "host".into()
        } else {
            format!("vpu{}", port - 1)
        }
    }

    /// `true` when the configured arbiter routes vector-instruction
    /// dispatch over the fabric instead of the exclusive eCPU calendar.
    pub fn issue_on_fabric(&self) -> bool {
        self.cfg.arbiter.issue_on_fabric()
    }

    /// The bank serving stripe `k` (`k mod banks`; no division on the
    /// paper's single bank).
    fn bank(&self, k: usize) -> usize {
        match self.banks.len() {
            1 => 0,
            n => k % n,
        }
    }

    fn bank_of_addr(&self, addr: u32) -> usize {
        self.bank((addr as u64 / BURST_BYTES) as usize)
    }

    /// Grants one transaction on `bank` under the configured arbiter
    /// and charges it to `port`'s statistics.
    fn book(
        &mut self,
        port: usize,
        bank: usize,
        host: bool,
        earliest: u64,
        duration: u64,
    ) -> Grant {
        let grant = self
            .cfg
            .arbiter
            .grant(&mut self.banks[bank], host, earliest, duration);
        let p = &mut self.ports[port];
        p.requests += 1;
        p.busy_cycles += duration;
        p.wait_cycles += (grant.end - earliest).saturating_sub(duration);
        grant
    }

    /// Books a data transaction of `duration` cycles touching external
    /// address `addr` (bank selection) for `port`, starting no earlier
    /// than `earliest`. Returns the grant; the caller's time cursor
    /// should advance to `grant.end`.
    pub fn request(&mut self, port: usize, addr: u32, earliest: u64, duration: u64) -> Grant {
        let bank = self.bank_of_addr(addr);
        self.book(port, bank, port == HOST_PORT, earliest, duration)
    }

    /// Books the dispatch of `n_instrs` vector instructions to the VPU
    /// behind `port` (burst arbiters only — under
    /// [`ArbiterKind::WholePhase`] issue stays on the eCPU calendar and
    /// this must not be called).
    ///
    /// Descriptors stream over the bank the VPU's control queue lives
    /// on (`port − 1 mod banks`), 8 bytes each.
    ///
    /// # Panics
    ///
    /// Panics when called under an arbiter that keeps issue on the
    /// eCPU, or for the host port.
    pub fn issue(&mut self, port: usize, earliest: u64, n_instrs: u64) -> Grant {
        let bank = self.issue_bank(port);
        self.book(port, bank, false, earliest, n_instrs * self.issue_cycles)
    }

    /// Books a train of `n` single-instruction dispatches for `port`:
    /// exactly what `n` rounds of `cursor += pre`,
    /// `cursor = issue(port, cursor, 1).end + post` book, port
    /// statistics included, starting from `cursor = earliest`, in one
    /// calendar walk (both burst arbiters grant dispatch descriptors as
    /// packed bookings). Returns the final cursor.
    ///
    /// # Panics
    ///
    /// As [`Fabric::issue`].
    pub fn issue_train(&mut self, port: usize, earliest: u64, n: u64, pre: u64, post: u64) -> u64 {
        let bank = self.issue_bank(port);
        let (cursor, wait) =
            self.banks[bank].reserve_packed_train(earliest, n, pre, self.issue_cycles, post);
        let p = &mut self.ports[port];
        p.requests += n;
        p.busy_cycles += n * self.issue_cycles;
        p.wait_cycles += wait;
        cursor
    }

    /// The bank `port`'s dispatch descriptors stream over, checking
    /// that it may dispatch.
    fn issue_bank(&self, port: usize) -> usize {
        assert!(
            self.issue_on_fabric(),
            "issue traffic stays on the eCPU under {}",
            self.cfg.arbiter
        );
        assert_ne!(port, HOST_PORT, "the host port does not dispatch kernels");
        self.bank(port - 1)
    }

    /// Books the transfer of one launch-descriptor batch of `bytes`
    /// from the table at `addr` to the eCPU's decoder, for `port`.
    ///
    /// Batches are control traffic on the *shared* path under every
    /// arbiter: whole-phase grants them as one contiguous window (they
    /// contend with kernel DMA, unlike the host's dedicated slave
    /// path), while the burst arbiters weave them into whatever gaps
    /// concurrent DMA trains left — which is what keeps
    /// batch fetches off the critical path of in-flight allocations.
    pub fn issue_batch(&mut self, port: usize, addr: u32, earliest: u64, bytes: u64) -> Grant {
        let duration = self.cfg.payload_cycles(bytes);
        let bank = self.bank_of_addr(addr);
        self.book(port, bank, false, earliest, duration)
    }

    /// Per-port traffic statistics, indexed by port.
    pub fn port_stats(&self) -> &[PortStats] {
        &self.ports
    }

    /// Total busy cycles across all banks.
    pub fn busy_cycles(&self) -> u64 {
        self.banks.iter().map(|b| b.busy_cycles()).sum()
    }

    /// Latest booked cycle across all banks.
    pub fn horizon(&self) -> u64 {
        self.banks.iter().map(|b| b.horizon()).max().unwrap_or(0)
    }

    /// The bank calendars (tests and diagnostics).
    pub fn bank_channels(&self) -> &[ResourceChannel] {
        &self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(arbiter: ArbiterKind) -> FabricConfig {
        FabricConfig {
            arbiter,
            ..FabricConfig::default_config()
        }
    }

    #[test]
    fn default_config_shape() {
        let c = FabricConfig::default();
        assert_eq!(c.arbiter, ArbiterKind::WholePhase);
        assert_eq!(c.banks, 1);
        assert_eq!(c.issue_cycles(), 2);
    }

    #[test]
    fn whole_phase_matches_direct_reserve() {
        let mut f = Fabric::new(cfg(ArbiterKind::WholePhase), 2);
        let mut direct = ResourceChannel::new();
        for (port, t, d) in [(1, 0, 500), (2, 100, 300), (1, 150, 700), (2, 0, 40)] {
            let g = f.request(port, 0x2000_0000, t, d);
            let (s, e) = direct.reserve(t, d);
            assert_eq!((g.start, g.end), (s, e));
        }
    }

    #[test]
    fn whole_phase_host_path_never_contends() {
        let mut f = Fabric::new(cfg(ArbiterKind::WholePhase), 1);
        f.request(1, 0x2000_0000, 0, 10_000);
        let g = f.request(HOST_PORT, 0x2000_0000, 50, 500);
        assert_eq!((g.start, g.end), (50, 550), "host sees fixed latency");
        assert_eq!(f.port_stats()[HOST_PORT].wait_cycles, 0);
    }

    #[test]
    fn round_robin_burst_interleaves_overlapping_streams() {
        let mut f = Fabric::new(cfg(ArbiterKind::RoundRobinBurst), 2);
        // Port 1 books a long phase; port 2's later transaction weaves
        // into slices instead of starting after it.
        let a = f.request(1, 0x2000_0000, 0, 2000);
        let b = f.request(2, 0x2000_0000, 0, 600);
        assert_eq!((a.start, a.end), (0, 2000));
        assert!(b.start >= 2000, "bank fully busy: grants land after");
        // But gaps let a latecomer in early.
        let mut f = Fabric::new(cfg(ArbiterKind::RoundRobinBurst), 2);
        f.request(1, 0x2000_0000, 0, 100);
        f.request(1, 0x2000_0000, 500, 100); // gap [100, 500)
        let g = f.request(2, 0x2000_0000, 0, 600);
        assert_eq!(g.start, 100, "burst grant fills the gap");
        assert!(g.end - g.start > 600, "split around the booked slice");
    }

    #[test]
    fn priority_host_keeps_host_contiguous() {
        let mut f = Fabric::new(cfg(ArbiterKind::PriorityHost), 1);
        // Comb of kernel bursts.
        for k in 0..20u64 {
            f.request(1, 0x2000_0000, 40 * k, 20);
        }
        // A host line that fits a gap lands in the earliest one; one
        // that does not is never split — it goes past the comb whole.
        let small = f.request(HOST_PORT, 0x2000_0000, 0, 15);
        assert_eq!((small.start, small.end), (20, 35), "earliest whole gap");
        let big = f.request(HOST_PORT, 0x2000_0000, 0, 30);
        assert_eq!((big.start, big.end), (780, 810), "no 30-cycle gap fits");
    }

    #[test]
    fn banks_remove_cross_bank_contention() {
        let mut c = cfg(ArbiterKind::WholePhase);
        c.banks = 2;
        let mut f = Fabric::new(c, 2);
        // Addresses one line apart land on different banks.
        let a = f.request(1, 0x2000_0000, 0, 1000);
        let b = f.request(2, 0x2000_0400, 0, 1000);
        assert_eq!((a.start, b.start), (0, 0), "no contention across banks");
    }

    #[test]
    fn issue_rides_fabric_only_under_burst_arbiters() {
        let mut f = Fabric::new(cfg(ArbiterKind::RoundRobinBurst), 2);
        let g = f.issue(1, 0, 3);
        assert_eq!(g.end - g.start, 3 * f.config().issue_cycles());
        assert!(!Fabric::new(cfg(ArbiterKind::WholePhase), 2).issue_on_fabric());
    }

    #[test]
    fn issue_batch_contends_on_the_shared_path_under_whole_phase() {
        let mut f = Fabric::new(cfg(ArbiterKind::WholePhase), 2);
        f.request(1, 0x2000_0000, 0, 1000);
        // A 64-byte batch = 16 payload cycles on the 4 B/cyc bus,
        // granted contiguously after the booked DMA phase.
        let g = f.issue_batch(HOST_PORT, 0x2000_0000, 0, 64);
        assert_eq!((g.start, g.end), (1000, 1016), "one contiguous grant");
    }

    #[test]
    fn issue_batch_weaves_into_gaps_under_round_robin() {
        let mut f = Fabric::new(cfg(ArbiterKind::RoundRobinBurst), 2);
        f.request(1, 0x2000_0000, 0, 10);
        f.request(1, 0x2000_0000, 20, 10); // gap [10, 20)
        let g = f.issue_batch(HOST_PORT, 0x2000_0000, 0, 64);
        assert_eq!(g.start, 10, "batch fills the DMA gap");
        assert!(g.end - g.start > 16, "split around the booked slice");
    }

    #[test]
    fn payload_cycles_is_exact() {
        let c = FabricConfig::default_config();
        assert_eq!(c.payload_cycles(0), 1);
        assert_eq!(c.payload_cycles(4), 1);
        assert_eq!(c.payload_cycles(65), 17);
    }

    #[test]
    fn port_stats_accumulate() {
        let mut f = Fabric::new(cfg(ArbiterKind::WholePhase), 1);
        f.request(1, 0x2000_0000, 0, 100);
        f.request(1, 0x2000_0000, 0, 50); // pushed behind the first
        let s = f.port_stats()[1];
        assert_eq!(s.requests, 2);
        assert_eq!(s.busy_cycles, 150);
        assert_eq!(s.wait_cycles, 100, "second transaction waited");
    }

    #[test]
    fn labels_and_ports() {
        assert_eq!(Fabric::port_label(HOST_PORT), "host");
        assert_eq!(Fabric::port_label(Fabric::vpu_port(2)), "vpu2");
        let names: Vec<&str> = ArbiterKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["whole-phase", "round-robin-burst", "priority-host"]);
    }
}
