//! The kernel execution context: the Matrix Allocator and VPU dispatch
//! services a [`crate::kernels::Kernel`] uses while it runs.
//!
//! The context owns the kernel's *time cursor*. Every service charges
//! its cycles to one of the paper's four phases (preamble cycles are
//! charged by the decoder before the kernel starts):
//!
//! * [`KernelCtx::load_rows`] — **allocation**: controller lock, dirty
//!   write-backs, 2-D DMA of operand rows into the VPU's cache lines;
//! * [`KernelCtx::exec`] / [`KernelCtx::set_scalar`] /
//!   [`KernelCtx::peek`] / [`KernelCtx::macc_taps`] — **compute**: eCPU
//!   issue overhead plus VPU datapath cycles;
//! * [`KernelCtx::store_row`] / [`KernelCtx::store_row_strided`] —
//!   **writeback**: lock, consolidation DMA back to memory, cache-line
//!   release.
//!
//! The VPU computes on its lines of the cache data array, and every
//! line write-back or drop goes through the cache controller
//! ([`StandardLlc`]).

use crate::cache::LockWindows;
use crate::config::{dma_cycles, CRT};
use crate::kernels::{check_rows, KernelError};
use crate::runtime::map::MatView;
use crate::StandardLlc;
use arcane_fabric::{Fabric, PortStats, ResourceChannel};
use arcane_isa::vector::{Sr, VInstr, Vr};
use arcane_mem::Memory;
use arcane_sim::{Phase, PhaseBreakdown, Sew};
use arcane_vpu::{Vpu, VpuError, VLEN_BYTES, VREGS};
use std::ops::Range;

/// Taps of a [`KernelCtx::macc_taps`] train computed per datapath pass
/// (GeMM's `B` tiles hold 12 rows, so its trains take one pass).
const TAPS_PER_PASS: usize = 16;

/// Execution services available to a running kernel.
#[derive(Debug)]
pub struct KernelCtx<'a> {
    /// The cache controller; the assigned VPU's registers are its lines
    /// `vpu_index · VREGS ..`.
    pub(crate) cache: &'a mut StandardLlc,
    /// The VPU the scheduler assigned to this kernel.
    pub(crate) vpu: &'a mut Vpu,
    pub(crate) vpu_index: usize,
    pub(crate) locks: &'a mut LockWindows,
    /// The shared fabric; this kernel's DMA and dispatch traffic goes
    /// through [`KernelCtx::port`].
    pub(crate) fabric: &'a mut Fabric,
    /// The fabric request port of the VPU running this kernel.
    pub(crate) port: usize,
    pub(crate) ecpu_chan: &'a mut ResourceChannel,
    pub(crate) ecpu_stats: &'a mut PortStats,
    /// Descriptor launch pipeline: the per-VPU decoder front end issues
    /// vector instructions and services scalar-register/element traffic
    /// locally, so those cycles are charged to this kernel's cursor
    /// instead of being serialised on the shared eCPU calendar.
    pub(crate) local_issue: bool,
    pub(crate) t: u64,
    pub(crate) phases: PhaseBreakdown,
    pub(crate) last_alloc_end: u64,
}

impl<'a> KernelCtx<'a> {
    /// Index of the VPU the scheduler assigned to this kernel.
    pub fn vpu_index(&self) -> usize {
        self.vpu_index
    }

    /// Current time cursor (absolute cycles).
    pub fn now(&self) -> u64 {
        self.t
    }

    fn charge(&mut self, phase: Phase, cycles: u64) {
        self.t += cycles;
        self.phases.charge(phase, cycles);
    }

    /// Books eCPU time (the single controller core is shared by every
    /// concurrent kernel) and advances the cursor past the granted slot.
    fn ecpu_work(&mut self, phase: Phase, cycles: u64) {
        let t0 = self.t;
        let (_, end) = self.ecpu_chan.reserve(self.t, cycles);
        self.ecpu_stats.requests += 1;
        self.ecpu_stats.wait_cycles += (end - t0).saturating_sub(cycles);
        self.t = end;
        self.phases.charge(phase, end - t0);
    }

    /// Charges the dispatch of `n_instrs` vector instructions to the
    /// assigned VPU. Under the whole-phase arbiter this is eCPU
    /// software issue ([`crate::config::CrtTiming::vinstr_issue`] exclusive
    /// cycles per instruction); under the burst arbiters the
    /// instructions travel as dispatch descriptors over the shared
    /// fabric to the VPU's own sequencer, weaving into the idle slices
    /// DMA traffic leaves.
    /// Under the descriptor launch pipeline the per-VPU decoder replays
    /// the predecoded micro-program itself: the same per-instruction
    /// cost, but on this kernel's private cursor rather than the shared
    /// eCPU calendar.
    fn dispatch_work(&mut self, n_instrs: u64) {
        if self.fabric.issue_on_fabric() {
            let t0 = self.t;
            let grant = self.fabric.issue(self.port, self.t, n_instrs);
            self.t = grant.end;
            self.phases.charge(Phase::Compute, grant.end - t0);
        } else if self.local_issue {
            self.charge(Phase::Compute, CRT.vinstr_issue * n_instrs);
        } else {
            self.ecpu_work(Phase::Compute, CRT.vinstr_issue * n_instrs);
        }
    }

    /// Sets the active vector length and element width.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Vpu`] if `vl` exceeds the register size.
    pub fn set_vl(&mut self, vl: usize, sew: Sew) -> Result<(), KernelError> {
        let regs = self.regs();
        let cycles = self.vpu.execute_one(
            &mut self.cache.data[regs],
            &VInstr::SetVl { vl: vl as u16, sew },
        )?;
        self.dispatch_work(1);
        self.charge(Phase::Compute, cycles);
        Ok(())
    }

    /// Dispatches a vector micro-program to the VPU, charging eCPU issue
    /// overhead per instruction plus the datapath cycles.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Vpu`] on a malformed program.
    pub fn exec(&mut self, prog: &[VInstr]) -> Result<(), KernelError> {
        let regs = self.regs();
        let stats = self.vpu.execute(&mut self.cache.data[regs], prog)?;
        self.dispatch_work(stats.instrs);
        self.charge(Phase::Compute, stats.cycles);
        Ok(())
    }

    /// Writes a VPU scalar register (filter taps, activation slopes, …).
    /// Charged to the shared eCPU on the legacy launch path, to the
    /// VPU-side descriptor decoder under the batched pipeline.
    pub fn set_scalar(&mut self, rs: Sr, value: u32) {
        self.vpu.set_sreg(rs, value);
        self.control_work(CRT.sreg_write);
    }

    /// Books `cycles` of scalar control traffic (register writes,
    /// element reads): on the shared eCPU on the legacy launch path, on
    /// the VPU-side descriptor decoder under the batched pipeline.
    fn control_work(&mut self, cycles: u64) {
        if self.local_issue {
            self.charge(Phase::Compute, cycles);
        } else {
            self.ecpu_work(Phase::Compute, cycles);
        }
    }

    /// Reads element `idx` of vector register `vreg` through the eCPU
    /// port (used by GeMM to fetch the `A` scalars) — or through the
    /// VPU-side decoder under the batched launch pipeline, where the
    /// read never touches the shared eCPU calendar.
    ///
    /// # Panics
    ///
    /// Panics if the element lies outside the register.
    pub fn peek(&mut self, vreg: Vr, idx: usize, sew: Sew) -> i64 {
        self.control_work(CRT.elem_read);
        self.elem(vreg, idx, sew)
    }

    /// Element `idx` of register `vreg` at width `sew`, sign-extended.
    fn elem(&self, vreg: Vr, idx: usize, sew: Sew) -> i64 {
        let line = &self.cache.data[self.line(vreg.index() as usize)];
        let o = idx * sew.bytes();
        match sew {
            Sew::Byte => line[o] as i8 as i64,
            Sew::Half => i16::from_le_bytes([line[o], line[o + 1]]) as i64,
            Sew::Word => {
                i32::from_le_bytes([line[o], line[o + 1], line[o + 2], line[o + 3]]) as i64
            }
        }
    }

    /// Runs a GeMM tap train: for each `k` in `ks`, in order, the tap
    /// `acc += a_row[k] · v(b0 + k - ks.start)`, the `A` scalar read at
    /// width `sew` and passed through scalar register `rs`.
    ///
    /// Each tap books on the cursor, calendars and ports exactly what
    /// [`KernelCtx::peek`] of `a_row[k]`, [`KernelCtx::set_scalar`] of
    /// `rs` and [`KernelCtx::exec`] of one `OpVX Macc` book (in one
    /// [`Fabric::issue_train`] walk when the dispatch descriptor is a
    /// tap's only calendar booking), and `rs`
    /// is left holding the last tap's scalar, as issuing the taps one
    /// by one leaves it. The data effect is computed in one datapath
    /// pass ([`Vpu::macc_train`]), bit-identical to the single taps.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Vpu`] if `acc`, `a_row` or a register of
    /// the `B` tile lies beyond the register file; nothing is computed
    /// or booked then.
    ///
    /// # Panics
    ///
    /// Panics if an element of `ks` lies outside the register.
    pub fn macc_taps(
        &mut self,
        acc: Vr,
        a_row: Vr,
        ks: Range<usize>,
        b0: Vr,
        rs: Sr,
        sew: Sew,
    ) -> Result<(), KernelError> {
        let Some(last) = ks.len().checked_sub(1) else {
            return Ok(());
        };
        self.vreg(acc.index().into())?;
        self.vreg(a_row.index().into())?;
        self.vreg(usize::from(b0.index()) + last)?;

        // A train whose accumulator is its scalar row must read each
        // scalar after the taps before it: one tap per pass.
        let per_pass = if acc == a_row { 1 } else { TAPS_PER_PASS };
        let mut scalars = [0u32; TAPS_PER_PASS];
        let regs = self.regs();
        let mut tap_cycles = 0;
        for k0 in ks.clone().step_by(per_pass) {
            let n = per_pass.min(ks.end - k0);
            for (j, x) in scalars[..n].iter_mut().enumerate() {
                *x = self.elem(a_row, k0 + j, sew) as i32 as u32;
            }
            let vs0 = self.vreg(usize::from(b0.index()) + (k0 - ks.start))?;
            tap_cycles =
                self.vpu
                    .macc_train(&mut self.cache.data[regs.clone()], acc, vs0, &scalars[..n])?;
            if k0 + n == ks.end {
                self.vpu.set_sreg(rs, scalars[n - 1]);
            }
        }

        if self.local_issue && self.fabric.issue_on_fabric() {
            // A tap's only calendar booking is its dispatch descriptor:
            // book the whole train in one walk of the fabric bank.
            let t0 = self.t;
            let pre = CRT.elem_read + CRT.sreg_write;
            self.t = self
                .fabric
                .issue_train(self.port, t0, ks.len() as u64, pre, tap_cycles);
            self.phases.charge(Phase::Compute, self.t - t0);
            return Ok(());
        }
        for _ in ks {
            self.control_work(CRT.elem_read);
            self.control_work(CRT.sreg_write);
            self.dispatch_work(1);
            self.charge(Phase::Compute, tap_cycles);
        }
        Ok(())
    }

    /// Register `index` of the assigned VPU, if it exists.
    fn vreg(&self, index: usize) -> Result<Vr, KernelError> {
        u8::try_from(index)
            .ok()
            .and_then(Vr::new)
            .filter(|_| index < VREGS)
            .ok_or(KernelError::Vpu(VpuError::BadVreg {
                index: u8::try_from(index).unwrap_or(u8::MAX),
            }))
    }

    fn line_index(&self, vreg: usize) -> usize {
        self.vpu_index * VREGS + vreg
    }

    /// Byte range of this VPU's register `vreg` in the data array.
    fn line(&self, vreg: usize) -> Range<usize> {
        let o = self.line_index(vreg) * VLEN_BYTES;
        o..o + VLEN_BYTES
    }

    /// Payload bytes per cycle of the shared bus the DMA moves data on.
    fn bus_width(&self) -> u64 {
        self.fabric.config().bytes_per_cycle
    }

    /// Byte range of this VPU's whole register file in the data array.
    fn regs(&self) -> Range<usize> {
        let n = VREGS * VLEN_BYTES;
        self.vpu_index * n..(self.vpu_index + 1) * n
    }

    /// Evicts whatever the cache holds in this VPU's register `vreg`
    /// (write-back if dirty), freeing it for kernel data.
    ///
    /// Kept out of line: with `load_rows` as its only caller, inlining
    /// the cold write-back path into that loop measurably slows the
    /// offload-bound perfbench workloads.
    #[inline(never)]
    fn evict_vreg(&mut self, vreg: usize) -> u64 {
        let i = self.line_index(vreg);
        if !self.cache.table.line(i).is_valid() {
            return 0;
        }
        let cycles = self.cache.write_back(i);
        self.cache.table.invalidate(i);
        cycles
    }

    /// One locked 2-D DMA transfer, the Matrix Allocator's step for
    /// allocation and writeback alike (§III-A2, §III-A4): takes the
    /// controller lock, pays `setup` cycles, writes back the dirty
    /// cached lines over `span`, books the `cycles`-long burst train on
    /// the fabric (granted under the configured arbiter: one contiguous
    /// window under whole-phase) and releases the lock. The whole
    /// window is charged to `phase` and held as a lock window. The
    /// caller moves the data.
    ///
    /// A writeback also drops the lines it wrote back: host-dirty bytes
    /// sharing a line with the destination reach memory first, and no
    /// stale copy outlives the store.
    fn locked_dma(&mut self, phase: Phase, setup: u64, span: Range<u32>, cycles: u64) {
        let t0 = self.t;
        let flush = self
            .cache
            .sweep(span.start, span.end, phase == Phase::Writeback);
        let dma_start = t0 + CRT.lock_acquire + setup + flush;
        let t_end = self
            .fabric
            .request(self.port, span.start, dma_start, cycles)
            .end
            + CRT.lock_release;
        self.phases.charge(phase, t_end - t0);
        self.t = t_end;
        self.locks.add(t0, t_end);
    }

    /// Loads `n_rows` rows of `mat`, starting at `row0`, into
    /// consecutive vector registers beginning at `vreg0` (one row per
    /// register). One 2-D DMA transaction under the controller lock.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::RowTooWide`] if a row exceeds the vector
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the rows lie outside external memory (the decoder
    /// validates operand ranges first).
    pub fn load_rows(
        &mut self,
        mat: &MatView,
        row0: usize,
        n_rows: usize,
        vreg0: usize,
    ) -> Result<(), KernelError> {
        check_rows(&[mat])?;
        // Free the target registers.
        let mut setup = CRT.tile_overhead;
        for v in vreg0..vreg0 + n_rows {
            setup += self.evict_vreg(v);
        }
        // Coherence, the software-driven DMA's first step (§III-A4):
        // allocation reads must observe host stores that are still
        // cache-resident, so the step pushes the dirty lines these rows
        // overlap out to memory.
        let start = mat.row_addr(row0);
        let end = mat.row_addr(row0 + n_rows - 1) + mat.row_bytes();
        let row_bytes = mat.row_bytes() as usize;
        let bytes = (n_rows * row_bytes) as u64;
        let cycles = dma_cycles(n_rows as u64, bytes, self.bus_width())
            + self
                .cache
                .ext
                .burst_cycles(bytes)
                .saturating_sub(bytes.div_ceil(4));
        self.locked_dma(Phase::Allocation, setup, start..end, cycles);

        // Functional copy: external memory -> vector registers.
        for r in 0..n_rows {
            let line = self.line(vreg0 + r);
            let dst = &mut self.cache.data[line];
            self.cache
                .ext
                .read_bytes(mat.row_addr(row0 + r), &mut dst[..row_bytes])
                .expect("operand rows must lie in external memory");
            dst[row_bytes..].fill(0);
        }
        self.last_alloc_end = self.last_alloc_end.max(self.t);
        Ok(())
    }

    /// Writes the first `n_elems` elements of `vreg` densely to
    /// `dst_addr` (writeback consolidation DMA, under the lock).
    pub fn store_row(&mut self, vreg: usize, n_elems: usize, sew: Sew, dst_addr: u32) {
        self.store_row_strided(vreg, 0, 1, n_elems, sew, dst_addr);
    }

    /// Scatters the first `n` elements of `vreg` to `dst_addr` with
    /// `dst_pitch_bytes` between consecutive elements — a row written
    /// out as a *column* (2-D DMA with a one-element row), used by the
    /// transpose kernel.
    ///
    /// # Panics
    ///
    /// Panics if the destination lies outside external memory.
    pub fn store_row_as_column(
        &mut self,
        vreg: usize,
        n: usize,
        sew: Sew,
        dst_addr: u32,
        dst_pitch_bytes: u32,
    ) {
        let sz = sew.bytes();
        let span = dst_pitch_bytes * (n as u32 - 1) + sz as u32;
        // Scattered single-element writes cannot burst: every element
        // pays a random-access cost.
        let cycles = dma_cycles(n as u64, (n * sz) as u64, self.bus_width())
            + self.cache.ext.first_word_cycles() * n as u64 / 4;
        self.locked_dma(Phase::Writeback, 0, dst_addr..dst_addr + span, cycles);

        let src = &self.cache.data[self.line(vreg)];
        for (i, e) in src[..n * sz].chunks_exact(sz).enumerate() {
            self.cache
                .ext
                .write_bytes(dst_addr + i as u32 * dst_pitch_bytes, e)
                .expect("kernel destination must lie in external memory");
        }
    }

    /// Gathers `n_out` elements of `vreg` — elements
    /// `first_elem, first_elem + elem_stride, …` — and writes them
    /// densely to `dst_addr`. This is how pooled/strided results are
    /// consolidated into a contiguous destination (§IV-B3).
    ///
    /// # Panics
    ///
    /// Panics if the destination lies outside external memory.
    pub fn store_row_strided(
        &mut self,
        vreg: usize,
        first_elem: usize,
        elem_stride: usize,
        n_out: usize,
        sew: Sew,
        dst_addr: u32,
    ) {
        let bytes_out = (n_out * sew.bytes()) as u32;
        // A dense row (stride 1) is a single-row burst for the DMA.
        let rows = if elem_stride == 1 { 1 } else { n_out };
        let cycles = dma_cycles(rows as u64, bytes_out as u64, self.bus_width())
            + self
                .cache
                .ext
                .burst_cycles(bytes_out as u64)
                .saturating_sub(bytes_out as u64 / 4);
        self.locked_dma(Phase::Writeback, 0, dst_addr..dst_addr + bytes_out, cycles);

        // Functional gather: vreg -> external memory. A dense row goes
        // straight from the register line; a strided one is gathered
        // on the stack first (its elements all come from one line).
        let sz = sew.bytes();
        let src = &self.cache.data[self.line(vreg)];
        let mut gathered = [0u8; VLEN_BYTES];
        let out = if elem_stride == 1 {
            &src[first_elem * sz..(first_elem + n_out) * sz]
        } else {
            let out = &mut gathered[..n_out * sz];
            for (k, e) in out.chunks_exact_mut(sz).enumerate() {
                let o = (first_elem + k * elem_stride) * sz;
                e.copy_from_slice(&src[o..o + sz]);
            }
            out
        };
        self.cache
            .ext
            .write_bytes(dst_addr, out)
            .expect("kernel destination must lie in external memory");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArcaneConfig;
    use arcane_fabric::{ArbiterKind, FabricConfig};
    use arcane_isa::vector::VOp;

    /// A 64-line cache (two 4-lane VPUs' worth) over 1 MiB of external
    /// memory at `0x2000_0000`, and the shared channels of one LLC.
    struct Fixture {
        cache: StandardLlc,
        vpu: Vpu,
        locks: LockWindows,
        fabric: Fabric,
        ecpu: ResourceChannel,
        ecpu_stats: PortStats,
    }

    fn fixture() -> Fixture {
        fixture_on(ArbiterKind::WholePhase)
    }

    /// [`fixture`] with the fabric granting under `arbiter`.
    fn fixture_on(arbiter: ArbiterKind) -> Fixture {
        let cfg = ArcaneConfig {
            n_vpus: 2,
            ext_size: 1 << 20,
            fabric: FabricConfig {
                arbiter,
                ..FabricConfig::default_config()
            },
            ..ArcaneConfig::with_lanes(4)
        };
        Fixture {
            cache: StandardLlc::new(&cfg),
            vpu: Vpu::new(cfg.vpu),
            locks: LockWindows::new(),
            fabric: Fabric::new(cfg.fabric, cfg.n_vpus),
            ecpu: ResourceChannel::new(),
            ecpu_stats: PortStats::default(),
        }
    }

    impl Fixture {
        /// A context for a kernel on VPU 0 at cycle 1000.
        fn ctx(&mut self) -> KernelCtx<'_> {
            KernelCtx {
                cache: &mut self.cache,
                vpu: &mut self.vpu,
                vpu_index: 0,
                locks: &mut self.locks,
                fabric: &mut self.fabric,
                port: Fabric::vpu_port(0),
                ecpu_chan: &mut self.ecpu,
                ecpu_stats: &mut self.ecpu_stats,
                local_issue: false,
                t: 1000,
                phases: PhaseBreakdown::default(),
                last_alloc_end: 0,
            }
        }

        /// Cache line `i` of the data array.
        fn line(&mut self, i: usize) -> &mut [u8] {
            &mut self.cache.data[i * 1024..(i + 1) * 1024]
        }

        /// Marks line `i` as a valid dirty copy of the block at `tag`.
        fn dirty(&mut self, i: usize, tag: u32) {
            self.cache.table.fill(i, tag);
            self.cache.table.line_mut(i).dirty = true;
        }
    }

    #[test]
    fn load_rows_copies_and_charges_allocation() {
        let mut fx = fixture();
        for i in 0..64u32 {
            fx.cache.ext.write_u32(0x2000_0000 + i * 4, i).unwrap();
        }
        let mut c = fx.ctx();
        let mat = MatView {
            addr: 0x2000_0000,
            rows: 4,
            cols: 8,
            stride: 2, // pitch 16 elements
            sew: Sew::Word,
        };
        c.load_rows(&mat, 1, 2, 5).unwrap();
        assert!(c.phases.allocation > 0);
        assert_eq!(c.phases.compute, 0);
        let t_end = c.t;
        // row 1 starts at element 16 (pitch = 2*8 = 16 words)
        let line = fx.line(5);
        assert_eq!(i32::from_le_bytes([line[0], line[1], line[2], line[3]]), 16);
        assert_eq!(
            fx.locks.stall_until(t_end - 1),
            Some(t_end),
            "allocation must hold the lock"
        );
    }

    #[test]
    fn row_too_wide_is_rejected() {
        let mut fx = fixture();
        let mut c = fx.ctx();
        let mat = MatView {
            addr: 0x2000_0000,
            rows: 1,
            cols: 300, // 1200 bytes > 1024
            stride: 1,
            sew: Sew::Word,
        };
        assert!(matches!(
            c.load_rows(&mat, 0, 1, 0),
            Err(KernelError::RowTooWide { .. })
        ));
    }

    #[test]
    fn dirty_cache_line_is_flushed_before_allocation() {
        let mut fx = fixture();
        // Host wrote 0xAB into a cached line covering the operand.
        let tag = 0x2000_0000;
        fx.dirty(40, tag);
        fx.line(40)[0] = 0xab; // line 40 = vpu 1, vreg 8
        let mut c = fx.ctx();
        let mat = MatView {
            addr: tag,
            rows: 1,
            cols: 4,
            stride: 1,
            sew: Sew::Byte,
        };
        c.load_rows(&mat, 0, 1, 0).unwrap();
        // The allocator must see the host's 0xAB, not stale memory.
        assert_eq!(fx.line(0)[0], 0xab);
        assert!(!fx.cache.table.line(40).dirty, "flush clears dirty");
    }

    #[test]
    fn evict_vreg_writes_a_dirty_line_back_once() {
        let mut fx = fixture();
        let tag = 0x2000_8000;
        fx.dirty(2, tag);
        fx.line(2).fill(0x5a);
        let mut c = fx.ctx();
        assert!(c.evict_vreg(2) > 0, "the dirty line pays a burst");
        assert_eq!(c.evict_vreg(2), 0, "the line is gone after one eviction");
        assert!(!fx.cache.table.line(2).is_valid());
        assert_eq!(fx.cache.stats().writebacks.get(), 1);
        assert_eq!(fx.cache.ext.read_u32(tag + 1020).unwrap(), 0x5a5a_5a5a);
    }

    #[test]
    fn store_row_strided_gathers_elements() {
        let mut fx = fixture();
        for i in 0..8 {
            fx.line(3)[i * 4..i * 4 + 4].copy_from_slice(&(i as i32).to_le_bytes());
        }
        let mut c = fx.ctx();
        c.store_row_strided(3, 0, 2, 4, Sew::Word, 0x2000_4000);
        assert!(c.phases.writeback > 0);
        for k in 0..4u32 {
            assert_eq!(fx.cache.ext.read_u32(0x2000_4000 + k * 4).unwrap(), 2 * k);
        }
        // A dense row is written straight from the line, from `first_elem`.
        fx.ctx()
            .store_row_strided(3, 5, 1, 3, Sew::Word, 0x2000_5000);
        for k in 0..3u32 {
            assert_eq!(fx.cache.ext.read_u32(0x2000_5000 + k * 4).unwrap(), 5 + k);
        }
    }

    /// One 31-byte int8 row through each DMA service on an idle fabric,
    /// each from a fresh fixture: the cycles the cursor advances and
    /// the phase that pays them. Every service keeps its own cost
    /// formula. A dense writeback takes `bytes / 4` off the burst
    /// latency where an allocation takes `bytes.div_ceil(4)`, so the
    /// store costs one cycle more than the load of the same row.
    #[test]
    fn dma_services_keep_their_cost_formulas() {
        let row = MatView {
            addr: 0x2000_0000,
            rows: 1,
            cols: 31,
            stride: 1,
            sew: Sew::Byte,
        };
        let dst = 0x2000_4000;
        let cost = |service: &dyn Fn(&mut KernelCtx<'_>)| {
            let mut fx = fixture();
            let mut c = fx.ctx();
            service(&mut c);
            (c.t - 1000, c.phases)
        };
        let load = cost(&|c| c.load_rows(&row, 0, 1, 0).unwrap());
        let store = cost(&|c| c.store_row(0, 31, Sew::Byte, dst));
        let column = cost(&|c| c.store_row_as_column(0, 31, Sew::Byte, dst, 64));
        let phases = |allocation, writeback| PhaseBreakdown {
            allocation,
            writeback,
            ..PhaseBreakdown::default()
        };
        assert_eq!(load, (96, phases(96, 0)));
        assert_eq!(store, (47, phases(0, 47)));
        assert_eq!(column, (144, phases(0, 144)));
        assert_eq!(store.0, load.0 - CRT.tile_overhead + 1);
    }

    #[test]
    fn compute_services_charge_compute_phase() {
        let mut fx = fixture();
        let mut c = fx.ctx();
        c.set_vl(8, Sew::Word).unwrap();
        c.set_scalar(Sr::new(0).unwrap(), 7);
        let before = c.phases.compute;
        c.exec(&[VInstr::BroadcastX {
            vd: Vr::new(1).unwrap(),
            rs: Sr::new(0).unwrap(),
        }])
        .unwrap();
        assert!(c.phases.compute > before);
        assert_eq!(c.peek(Vr::new(1).unwrap(), 3, Sew::Word), 7);
    }

    #[test]
    fn local_issue_keeps_control_traffic_off_the_ecpu() {
        let mut fx = fixture();
        let mut c = fx.ctx();
        c.local_issue = true;
        c.set_vl(8, Sew::Word).unwrap();
        c.set_scalar(Sr::new(0).unwrap(), 7);
        c.exec(&[VInstr::BroadcastX {
            vd: Vr::new(1).unwrap(),
            rs: Sr::new(0).unwrap(),
        }])
        .unwrap();
        assert_eq!(c.peek(Vr::new(1).unwrap(), 0, Sew::Word), 7);
        assert!(c.phases.compute > 0, "cycles still charged to the kernel");
        assert!(
            fx.ecpu.is_empty(),
            "descriptor-mode control traffic must not book the eCPU"
        );
        assert_eq!(fx.ecpu_stats.requests, 0);
    }

    #[test]
    fn dma_channel_serialises() {
        let mut fx = fixture();
        // Another kernel's transfer occupies the fabric around the time
        // this kernel wants it.
        fx.fabric
            .request(Fabric::vpu_port(1), 0x2000_0000, 0, 5_000);
        let mut c = fx.ctx();
        let mat = MatView {
            addr: 0x2000_0000,
            rows: 1,
            cols: 4,
            stride: 1,
            sew: Sew::Word,
        };
        c.load_rows(&mat, 0, 1, 0).unwrap();
        assert!(c.now() > 5_000, "transfer must wait for the DMA channel");
    }

    /// A fixture for tap-train timing: the eCPU calendar and the fabric
    /// already hold windows with gaps of every size between them, and
    /// VPU 0's registers hold pseudo-random bytes.
    fn train_fixture(arbiter: ArbiterKind) -> Fixture {
        let mut fx = fixture_on(arbiter);
        for i in 0..60 {
            fx.ecpu.reserve(1000 + i * 23, 1 + i % 9);
            fx.fabric
                .request(Fabric::vpu_port(1), 0x2000_0000, 1000 + i * 41, 3 + i % 11);
        }
        let mut x = 0x9e37_79b9u32;
        for b in &mut fx.cache.data[..32 * 1024] {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *b = x as u8;
        }
        fx
    }

    /// GeMM-shaped trains `(acc, a_row, ks, b0)` at three widths, plus
    /// an accumulator inside its `B` tile and one that is its own
    /// scalar row.
    const TRAINS: [(usize, usize, Range<usize>, usize); 4] = [
        (0, 8, 0..12, 16),
        (1, 9, 12..19, 16),
        (17, 10, 3..9, 16),
        (3, 3, 0..5, 20),
    ];

    /// Runs [`TRAINS`] on `c`, each either as single `peek` /
    /// `set_scalar` / `exec` taps or as one `macc_taps` call, then
    /// broadcasts `sr1` (at full width) into register 31.
    fn run_trains(c: &mut KernelCtx<'_>, fused: bool) {
        let v = |i: usize| Vr::new(i as u8).unwrap();
        let sr1 = Sr::new(1).unwrap();
        for (sew, vl) in [(Sew::Byte, 48), (Sew::Half, 100), (Sew::Word, 7)] {
            c.set_vl(vl, sew).unwrap();
            for (acc, a_row, ks, b0) in TRAINS {
                if fused {
                    c.macc_taps(v(acc), v(a_row), ks, v(b0), sr1, sew).unwrap();
                    continue;
                }
                for k in ks.clone() {
                    let a = c.peek(v(a_row), k, sew) as i32 as u32;
                    c.set_scalar(sr1, a);
                    c.exec(&[VInstr::OpVX {
                        op: VOp::Macc,
                        vd: v(acc),
                        vs1: v(b0 + k - ks.start),
                        rs: sr1,
                    }])
                    .unwrap();
                }
            }
        }
        c.set_vl(1, Sew::Word).unwrap();
        c.exec(&[VInstr::BroadcastX { vd: v(31), rs: sr1 }])
            .unwrap();
    }

    #[test]
    fn tap_train_books_and_computes_exactly_like_single_taps() {
        for (arbiter, local_issue) in ArbiterKind::ALL
            .into_iter()
            .flat_map(|a| [(a, false), (a, true)])
        {
            let (mut single, mut fused) = (train_fixture(arbiter), train_fixture(arbiter));
            let outcome = |fx: &mut Fixture, fused: bool| {
                let mut c = fx.ctx();
                c.local_issue = local_issue;
                run_trains(&mut c, fused);
                (c.t, c.phases)
            };
            let want = outcome(&mut single, false);
            let got = outcome(&mut fused, true);
            let what = format!("{arbiter} local_issue={local_issue}");
            assert_eq!(got, want, "cursor and phases, {what}");
            assert_eq!(fused.ecpu.windows(), single.ecpu.windows(), "{what}");
            assert_eq!(fused.ecpu_stats, single.ecpu_stats, "{what}");
            assert_eq!(
                fused.fabric.port_stats(),
                single.fabric.port_stats(),
                "{what}"
            );
            for (f, s) in fused
                .fabric
                .bank_channels()
                .iter()
                .zip(single.fabric.bank_channels())
            {
                assert_eq!(f.windows(), s.windows(), "fabric bank calendar, {what}");
            }
            assert!(
                fused.cache.data == single.cache.data,
                "register bytes (and sr1 in v31), {what}"
            );
        }
    }

    #[test]
    fn tap_train_rejects_bad_registers_before_booking() {
        let mut fx = fixture();
        let mut c = fx.ctx();
        let v = |i| Vr::new(i).unwrap();
        let sr1 = Sr::new(1).unwrap();
        // The B tile would run past register 31.
        let err = c.macc_taps(v(0), v(8), 0..12, v(24), sr1, Sew::Byte);
        assert_eq!(err, Err(KernelError::Vpu(VpuError::BadVreg { index: 35 })));
        assert_eq!((c.t, c.phases), (1000, PhaseBreakdown::default()));
        // An empty train books nothing either.
        c.macc_taps(v(0), v(8), 3..3, v(16), sr1, Sew::Byte)
            .unwrap();
        assert_eq!(c.t, 1000);
        assert!(fx.ecpu.is_empty());
    }
}
