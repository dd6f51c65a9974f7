//! Static configuration of the ARCANE LLC subsystem.

use crate::sched::SchedulerKind;
use arcane_fabric::FabricConfig;
use arcane_isa::launch::LaunchMode;
use arcane_mem::ExtMem;
use arcane_vpu::{VpuConfig, VLEN_BYTES, VREGS};

/// Base address of the cached external-memory region.
pub const EXT_BASE: u32 = 0x2000_0000;

/// Cache line size in bytes: one VPU vector register.
pub const LINE_BYTES: usize = VLEN_BYTES;

/// Rounds `addr` up to the next cache-line boundary.
pub const fn align_line(addr: u32) -> u32 {
    addr.next_multiple_of(LINE_BYTES as u32)
}

/// External memory latency: first word of a burst.
const EXT_FIRST_WORD: u64 = 10;

/// External memory latency: subsequent words of a burst.
const EXT_PER_WORD: u64 = 1;

/// 2-D DMA: cycles to program and start a transaction (register
/// writes, channel arbitration).
const DMA_SETUP: u64 = 8;

/// 2-D DMA: extra cycles per row (address regeneration).
const DMA_PER_ROW: u64 = 1;

/// Cycles the X-HEEP 2-D DMA (§III-A4) takes to move `bytes` payload
/// bytes in `rows` strided rows over a bus of `bytes_per_cycle` bytes:
/// the setup, one cycle per row, then the payload at the bus width.
pub(crate) fn dma_cycles(rows: u64, bytes: u64, bytes_per_cycle: u64) -> u64 {
    DMA_SETUP + DMA_PER_ROW * rows + bytes.div_ceil(bytes_per_cycle.max(1))
}

/// The C-RT tariff every launch pays (the calibrated constants of
/// [`CrtTiming::default_tariff`]).
pub(crate) const CRT: CrtTiming = CrtTiming::default_tariff();

/// Cycle tariff of the C-RT software running on the eCPU (CV32E40X).
///
/// These stand in for executing the C firmware of the paper on the
/// embedded core: each value is the cost of one well-defined runtime
/// activity, derived from instruction-count estimates on a 4-stage
/// in-order RV32IMC core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CrtTiming {
    /// Host-visible CV-X-IF offload handshake (issue → accept).
    pub bridge_latency: u64,
    /// Interrupt entry/exit on the eCPU.
    pub irq_entry: u64,
    /// Software decode of one offloaded instruction
    /// (kernel-library lookup, operand unpacking).
    pub decode: u64,
    /// `xmr` handling: matrix-map update, renaming, AT bookkeeping.
    pub xmr_bind: u64,
    /// Kernel scheduling: queue insertion, hazard check, VPU selection.
    pub schedule: u64,
    /// Acquiring the LLC controller lock.
    pub lock_acquire: u64,
    /// Releasing the LLC controller lock.
    pub lock_release: u64,
    /// eCPU cost of issuing one vector instruction to a VPU.
    pub vinstr_issue: u64,
    /// eCPU cost of writing one VPU scalar register.
    pub sreg_write: u64,
    /// eCPU cost of peeking one element out of a VPU line.
    pub elem_read: u64,
    /// Fixed per-tile software overhead in the allocator
    /// (layout computation, DMA programming beyond the DMA's own setup).
    pub tile_overhead: u64,
    /// Descriptor launch pipeline: one-time batch entry on the eCPU
    /// (IRQ entry plus frame-header parse) — paid once per
    /// [`arcane_isa::launch::DescriptorBatch`], not per kernel.
    pub batch_entry: u64,
    /// Descriptor launch pipeline: replaying one predecoded descriptor
    /// (table walk, scheduling) — the amortised successor of
    /// `decode + schedule`.
    pub desc_decode: u64,
    /// Descriptor launch pipeline: installing one predecoded operand
    /// binding — the amortised successor of `xmr_bind`.
    pub desc_bind: u64,
}

impl CrtTiming {
    /// The calibrated tariff used throughout the evaluation.
    ///
    /// Decode/bind/schedule are in the hundreds of cycles: the C-RT is
    /// C firmware on a 4-stage in-order core doing queue management,
    /// operand unpacking, hazard checks and renaming — this is what
    /// makes the preamble dominate for small inputs (Figure 3).
    const fn default_tariff() -> Self {
        CrtTiming {
            bridge_latency: 4,
            irq_entry: 40,
            decode: 600,
            xmr_bind: 900,
            schedule: 1300,
            lock_acquire: 12,
            lock_release: 8,
            vinstr_issue: 6,
            sreg_write: 2,
            elem_read: 3,
            tile_overhead: 50,
            batch_entry: 140,
            desc_decode: 90,
            desc_bind: 30,
        }
    }
}

/// Full configuration of the ARCANE LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcaneConfig {
    /// Number of NM-Carus VPU instances building the data array
    /// (4 in every synthesized configuration of the paper).
    pub n_vpus: usize,
    /// Per-VPU configuration: the lane count (the register file is the
    /// fixed [`arcane_vpu::VREGS`] × [`arcane_vpu::VLEN_BYTES`]).
    pub vpu: VpuConfig,
    /// Size of the external memory at [`EXT_BASE`] in bytes.
    pub ext_size: usize,
    /// Shared-memory fabric between the controller complex and the
    /// VPU array: bank/width geometry and the arbiter policy
    /// (DESIGN.md §4.5). Its bus width is also the DMA's payload
    /// bandwidth.
    pub fabric: FabricConfig,
    /// Capacity of the statically allocated kernel queue.
    pub kernel_queue_capacity: usize,
    /// Capacity of the Address Table.
    pub at_capacity: usize,
    /// Kernel Scheduler placement policy (DESIGN.md §4.4).
    pub scheduler: SchedulerKind,
    /// Kernel-launch pipeline (DESIGN.md §4.6): the paper's
    /// per-instruction `xmr`/`xmkN` path (the default, bit- and
    /// cycle-identical to the pre-descriptor tree) or the batched
    /// descriptor pipeline that decodes a
    /// [`arcane_isa::launch::DescriptorBatch`] once and replays it per
    /// slice.
    pub launch: LaunchMode,
}

impl ArcaneConfig {
    /// The paper's configuration with the given number of VPU lanes:
    /// 4 VPUs × 32 KiB = 128 KiB LLC, 1 KiB lines, 16 MiB external
    /// memory at `0x2000_0000`.
    pub fn with_lanes(lanes: usize) -> Self {
        ArcaneConfig {
            n_vpus: 4,
            vpu: VpuConfig::with_lanes(lanes),
            ext_size: 16 << 20,
            fabric: FabricConfig::default_config(),
            kernel_queue_capacity: 8,
            at_capacity: 32,
            scheduler: SchedulerKind::LeastDirty,
            launch: LaunchMode::Legacy,
        }
    }

    /// Total number of cache lines (`n_vpus × VREGS`).
    pub(crate) const fn n_lines(&self) -> usize {
        self.n_vpus * VREGS
    }

    /// Total LLC capacity in bytes.
    pub const fn capacity_bytes(&self) -> usize {
        self.n_lines() * LINE_BYTES
    }

    /// The (empty) external memory behind the cache.
    pub(crate) fn ext_mem(&self) -> ExtMem {
        ExtMem::new(EXT_BASE, self.ext_size, EXT_FIRST_WORD, EXT_PER_WORD)
    }
}

impl Default for ArcaneConfig {
    fn default() -> Self {
        ArcaneConfig::with_lanes(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_shape() {
        let c = ArcaneConfig::with_lanes(4);
        assert_eq!(c.n_lines(), 128);
        assert_eq!(c.capacity_bytes(), 128 * 1024);
    }

    #[test]
    fn dma_timing_scales_with_rows_and_bytes() {
        // payload = 160 bytes -> 40 cycles at 4 B/cycle; 5 rows; setup 8.
        assert_eq!(dma_cycles(5, 160, 4), 8 + 5 + 40);
        assert_eq!(dma_cycles(5, 160, 8), 8 + 5 + 20);
        assert_eq!(dma_cycles(1, 3, 4), 8 + 1 + 1);
    }

    #[test]
    fn lane_sweep_only_changes_vpu() {
        for lanes in [2, 4, 8] {
            let c = ArcaneConfig::with_lanes(lanes);
            assert_eq!(c.vpu.lanes, lanes);
            assert_eq!(c.capacity_bytes(), 128 * 1024);
        }
    }
}
