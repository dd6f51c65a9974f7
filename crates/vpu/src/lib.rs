//! NM-Carus-style near-memory vector processing unit (VPU).
//!
//! In ARCANE the LLC data array is built from NM-Carus instances: each
//! VPU owns 32 vector registers of 1 KiB, and those vector registers
//! **are** the cache lines (the LLC has `n_vpus × 32` lines). In normal
//! cache mode the controller reads and writes the lines; in compute mode
//! the eCPU dispatches vector micro-programs that stream over them
//! through an `N × 32-bit` lane datapath with sub-word SIMD — which is
//! exactly why 8-bit workloads enjoy a 4× throughput advantage over
//! 32-bit ones in the paper's Figure 4.
//!
//! A [`Vpu`] therefore holds no register bytes of its own: it executes
//! on the [`VREGS`] × [`VLEN_BYTES`] slice of the cache data array that
//! its lines occupy, register `i` at byte `i · VLEN_BYTES`. That
//! geometry is fixed by the NM-Carus unit; the lane count is the only
//! per-instance knob ([`VpuConfig`]).
//!
//! [`Vpu::execute`] interprets a program of
//! [`arcane_isa::vector::VInstr`] with wrapping two's-complement
//! semantics and returns the datapath cycles from its lane-limited
//! cycle model. Results are bit-exact against the golden scalar
//! models (property-tested). Element-wise operations run as per-line
//! batch kernels monomorphised per [`Sew`] over little-endian byte
//! slices (the `batch` module) rather than element-at-a-time `i64`
//! loops — the per-element width dispatch of the original interpreter
//! was the dominant compute-phase cost of whole-sweep simulations.
//! The kernels compute in place on the register lines, with no staging
//! copy: element `i` reads only element `i` of each operand, so the
//! destination may alias any source. [`Vpu::macc_train`] runs a whole
//! train of `vmacc.vx` taps in one pass.
//!
//! # Examples
//!
//! ```
//! use arcane_isa::vector::{Sr, VInstr, VOp, Vr};
//! use arcane_sim::Sew;
//! use arcane_vpu::{Vpu, VpuConfig, VLEN_BYTES, VREGS};
//!
//! let mut vpu = Vpu::new(VpuConfig::with_lanes(4));
//! let mut regs = vec![0u8; VREGS * VLEN_BYTES];
//! let v = |i| Vr::new(i).unwrap();
//! regs[..4].copy_from_slice(&[1, 2, 3, 4]);
//! regs[1024..1028].copy_from_slice(&[10, 20, 30, 40]);
//! let prog = [
//!     VInstr::SetVl { vl: 4, sew: Sew::Byte },
//!     VInstr::OpVV { op: VOp::Add, vd: v(2), vs1: v(0), vs2: v(1) },
//! ];
//! let stats = vpu.execute(&mut regs, &prog).unwrap();
//! assert_eq!(&regs[2048..2052], &[11, 22, 33, 44]);
//! assert!(stats.cycles > 0);
//! # let _ = Sr::new(0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;

use arcane_isa::vector::{Sr, VInstr, VOp, Vr};
use arcane_sim::Sew;
use batch::InPlace;
use std::error::Error;
use std::fmt;
use std::iter::repeat;

/// Vector registers per VPU (= cache lines each VPU contributes to the
/// LLC).
pub const VREGS: usize = 32;

/// Bytes per vector register (= cache line size).
pub const VLEN_BYTES: usize = 1024;

/// Fixed pipeline overhead charged per vector instruction (decode +
/// first-fill of the lane pipeline).
const OP_OVERHEAD: u64 = 2;

/// Maximum vector length in elements for a given element width.
pub const fn max_vl(sew: Sew) -> usize {
    VLEN_BYTES / sew.bytes()
}

/// Static configuration of one VPU instance. The register file is the
/// NM-Carus one, [`VREGS`] × [`VLEN_BYTES`]; the lane count is the one
/// knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpuConfig {
    /// Number of 32-bit lanes in the datapath (the paper evaluates
    /// 2, 4 and 8).
    pub lanes: usize,
}

impl VpuConfig {
    /// A VPU with `lanes` lanes.
    pub const fn with_lanes(lanes: usize) -> Self {
        VpuConfig { lanes }
    }
}

impl Default for VpuConfig {
    fn default() -> Self {
        VpuConfig::with_lanes(4)
    }
}

/// Error raised by [`Vpu::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpuError {
    /// `vsetvl` requested more elements than a vector register holds.
    VlTooLarge {
        /// Requested vector length.
        vl: usize,
        /// Maximum for the element width.
        max: usize,
    },
    /// An instruction named a vector register beyond the configured file.
    BadVreg {
        /// The register index.
        index: u8,
    },
}

impl fmt::Display for VpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VpuError::VlTooLarge { vl, max } => {
                write!(f, "vsetvl {vl} exceeds the register capacity of {max}")
            }
            VpuError::BadVreg { index } => write!(f, "vector register v{index} does not exist"),
        }
    }
}

impl Error for VpuError {}

/// Execution statistics of one micro-program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Datapath cycles consumed.
    pub cycles: u64,
    /// Vector instructions retired.
    pub instrs: u64,
}

/// One NM-Carus vector processing unit: scalar registers, vector
/// length state and the datapath. Its vector registers are the caller's
/// `regs` slice (in ARCANE, the VPU's lines of the cache data array).
#[derive(Debug, Clone)]
pub struct Vpu {
    cfg: VpuConfig,
    sregs: [u32; 32],
    vl: usize,
    sew: Sew,
}

impl Vpu {
    /// Creates a VPU with zeroed scalar registers.
    pub fn new(cfg: VpuConfig) -> Self {
        Vpu {
            cfg,
            sregs: [0; 32],
            vl: max_vl(Sew::Word),
            sew: Sew::Word,
        }
    }

    /// Writes scalar register `rs` (the eCPU does this before dispatch).
    pub fn set_sreg(&mut self, rs: Sr, value: u32) {
        self.sregs[rs.index() as usize] = value;
    }

    /// Currently configured vector length in elements.
    pub const fn vl(&self) -> usize {
        self.vl
    }

    /// Currently configured element width.
    pub const fn sew(&self) -> Sew {
        self.sew
    }

    /// Cycles of one element-wise pass at the active vector length
    /// and width: `OP_OVERHEAD + ceil(vl · sew / (4 · lanes))`.
    fn elementwise(&self) -> u64 {
        let bytes = (self.vl * self.sew.bytes()) as u64;
        OP_OVERHEAD + bytes.div_ceil((self.cfg.lanes * 4) as u64).max(1)
    }

    /// Cycles of a reduction: one element-wise pass plus a log₂(lanes)
    /// combine tree.
    fn reduction(&self) -> u64 {
        self.elementwise() + (self.cfg.lanes.max(2)).ilog2() as u64
    }

    fn check_vreg(&self, v: Vr) -> Result<usize, VpuError> {
        let i = v.index() as usize;
        if i < VREGS {
            Ok(i)
        } else {
            Err(VpuError::BadVreg { index: v.index() })
        }
    }

    /// Executes a vector micro-program on the vector registers `regs`
    /// and returns its statistics.
    ///
    /// # Errors
    ///
    /// Returns [`VpuError`] on an over-long `vsetvl` or an out-of-range
    /// register; partially executed programs leave their side effects
    /// (as the hardware would).
    ///
    /// # Panics
    ///
    /// Panics if `regs` is shorter than a register named by `prog`
    /// requires (`VREGS * VLEN_BYTES` bytes cover every register).
    pub fn execute(&mut self, regs: &mut [u8], prog: &[VInstr]) -> Result<ExecStats, VpuError> {
        let mut stats = ExecStats::default();
        for instr in prog {
            stats.cycles += self.execute_one(regs, instr)?;
            stats.instrs += 1;
        }
        Ok(stats)
    }

    /// Executes a single vector instruction on `regs`, returning its
    /// cycles.
    ///
    /// # Errors
    ///
    /// See [`Vpu::execute`].
    ///
    /// # Panics
    ///
    /// See [`Vpu::execute`].
    pub fn execute_one(&mut self, regs: &mut [u8], instr: &VInstr) -> Result<u64, VpuError> {
        match *instr {
            VInstr::SetVl { vl, sew } => {
                let max = max_vl(sew);
                if vl as usize > max {
                    return Err(VpuError::VlTooLarge {
                        vl: vl as usize,
                        max,
                    });
                }
                self.vl = vl as usize;
                self.sew = sew;
                Ok(1)
            }
            VInstr::OpVV { op, vd, vs1, vs2 } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                let b = self.check_vreg(vs2)?;
                self.op_vv(regs, op, d, a, b);
                Ok(self.elementwise())
            }
            VInstr::OpVX { op, vd, vs1, rs } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                self.op_vx(regs, op, d, a, self.sregs[rs.index() as usize]);
                Ok(self.elementwise())
            }
            VInstr::SlideDown { vd, vs1, offset } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                let sz = self.sew.bytes();
                let off = offset as usize;
                // Slides read the full register, so data beyond `vl+off`
                // is still reachable; elements past the register end
                // read as zero.
                let n_copy = max_vl(self.sew).saturating_sub(off).min(self.vl);
                if n_copy > 0 {
                    let src = a * VLEN_BYTES + off * sz;
                    regs.copy_within(src..src + n_copy * sz, d * VLEN_BYTES);
                }
                regs[d * VLEN_BYTES + n_copy * sz..d * VLEN_BYTES + self.vl * sz].fill(0);
                Ok(self.elementwise())
            }
            VInstr::SlideUp { vd, vs1, offset } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                let sz = self.sew.bytes();
                let off = offset as usize;
                let n = self.vl.saturating_sub(off);
                regs.copy_within(
                    a * VLEN_BYTES..a * VLEN_BYTES + n * sz,
                    d * VLEN_BYTES + off * sz,
                );
                Ok(self.elementwise())
            }
            VInstr::BroadcastX { vd, rs } => {
                let d = self.check_vreg(vd)?;
                let scalar = self.truncate(self.sregs[rs.index() as usize]);
                let vl = self.vl;
                let nb = vl * self.sew.bytes();
                let dst = &mut regs[d * VLEN_BYTES..d * VLEN_BYTES + nb];
                match self.sew {
                    Sew::Byte => batch::splat::<i8>(vl, dst, scalar as i8),
                    Sew::Half => batch::splat::<i16>(vl, dst, scalar as i16),
                    Sew::Word => batch::splat::<i32>(vl, dst, scalar as i32),
                }
                Ok(self.elementwise())
            }
            VInstr::Move { vd, vs1 } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                let nb = self.vl * self.sew.bytes();
                regs.copy_within(a * VLEN_BYTES..a * VLEN_BYTES + nb, d * VLEN_BYTES);
                Ok(self.elementwise())
            }
            VInstr::RedSum { vd, vs1 } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                let src = self.line(regs, a);
                let sum = match self.sew {
                    Sew::Byte => batch::red_sum::<i8>(self.vl, src),
                    Sew::Half => batch::red_sum::<i16>(self.vl, src),
                    Sew::Word => batch::red_sum::<i32>(self.vl, src),
                };
                self.write_elem(regs, d, sum);
                Ok(self.reduction())
            }
            VInstr::RedMax { vd, vs1 } => {
                let d = self.check_vreg(vd)?;
                let a = self.check_vreg(vs1)?;
                let src = self.line(regs, a);
                let m = match self.sew {
                    Sew::Byte => batch::red_max::<i8>(self.vl, src),
                    Sew::Half => batch::red_max::<i16>(self.vl, src),
                    Sew::Word => batch::red_max::<i32>(self.vl, src),
                };
                self.write_elem(regs, d, m);
                Ok(self.reduction())
            }
        }
    }

    /// Runs a train of `vmacc.vx` taps in one datapath pass: tap `k` is
    /// `vd += scalars[k] · v(vs0 + k)` at the active vector length and
    /// width, its scalar truncated as `OpVX` truncates a scalar
    /// register. The register bytes equal those of issuing the taps in
    /// order as single `OpVX Macc` instructions; no scalar register is
    /// written. Returns the datapath cycles of one tap (every tap of a
    /// train costs the same).
    ///
    /// # Errors
    ///
    /// Returns [`VpuError::BadVreg`] if `vd` or a tap's register lies
    /// beyond the register file; nothing is computed then.
    ///
    /// # Panics
    ///
    /// See [`Vpu::execute`].
    pub fn macc_train(
        &self,
        regs: &mut [u8],
        vd: Vr,
        vs0: Vr,
        scalars: &[u32],
    ) -> Result<u64, VpuError> {
        let d = self.check_vreg(vd)?;
        let s0 = self.check_vreg(vs0)?;
        let end = s0 + scalars.len();
        if end > VREGS {
            return Err(VpuError::BadVreg {
                index: u8::try_from(end - 1).unwrap_or(u8::MAX),
            });
        }
        if (s0..end).contains(&d) {
            // A tap reads the accumulator: issue the taps one by one.
            for (k, &x) in scalars.iter().enumerate() {
                self.op_vx(regs, VOp::Macc, d, s0 + k, x);
            }
        } else {
            let (dst, rows) = if d < s0 {
                let (lo, hi) = regs.split_at_mut(s0 * VLEN_BYTES);
                (
                    &mut lo[d * VLEN_BYTES..(d + 1) * VLEN_BYTES],
                    &hi[..(end - s0) * VLEN_BYTES],
                )
            } else {
                let (lo, hi) = regs.split_at_mut(d * VLEN_BYTES);
                (
                    &mut hi[..VLEN_BYTES],
                    &lo[s0 * VLEN_BYTES..end * VLEN_BYTES],
                )
            };
            let vl = self.vl;
            match self.sew {
                Sew::Byte => batch::macc_train::<i8>(vl, dst, rows, VLEN_BYTES, scalars),
                Sew::Half => batch::macc_train::<i16>(vl, dst, rows, VLEN_BYTES, scalars),
                Sew::Word => batch::macc_train::<i32>(vl, dst, rows, VLEN_BYTES, scalars),
            }
        }
        Ok(self.elementwise())
    }

    /// Register `idx` of `regs`.
    fn line<'r>(&self, regs: &'r [u8], idx: usize) -> &'r [u8] {
        &regs[idx * VLEN_BYTES..(idx + 1) * VLEN_BYTES]
    }

    /// `vd = vs1 op vs2` (register indices `d`, `a`, `b`) computed on
    /// the register lines in place. Element `i` reads only element `i`
    /// of each operand, so any operand may alias the destination.
    fn op_vv(&self, regs: &mut [u8], op: VOp, d: usize, a: usize, b: usize) {
        macro_rules! run {
            ($e:ty) => {{
                let vl = self.vl;
                let r = |i: usize| i * VLEN_BYTES..(i + 1) * VLEN_BYTES;
                if a == d && b == d {
                    batch::binary::<$e, _, _>(op, vl, &mut regs[r(d)], InPlace, InPlace);
                } else if a == d {
                    let [dst, lb] = regs.get_disjoint_mut([r(d), r(b)]).expect("distinct");
                    batch::binary::<$e, _, _>(op, vl, dst, InPlace, batch::line::<$e>(lb));
                } else if b == d {
                    let [dst, la] = regs.get_disjoint_mut([r(d), r(a)]).expect("distinct");
                    batch::binary::<$e, _, _>(op, vl, dst, batch::line::<$e>(la), InPlace);
                } else if a == b {
                    let [dst, la] = regs.get_disjoint_mut([r(d), r(a)]).expect("distinct");
                    let la = &*la;
                    batch::binary::<$e, _, _>(
                        op,
                        vl,
                        dst,
                        batch::line::<$e>(la),
                        batch::line::<$e>(la),
                    );
                } else {
                    let [dst, la, lb] = regs
                        .get_disjoint_mut([r(d), r(a), r(b)])
                        .expect("distinct");
                    batch::binary::<$e, _, _>(
                        op,
                        vl,
                        dst,
                        batch::line::<$e>(la),
                        batch::line::<$e>(lb),
                    );
                }
            }};
        }
        match self.sew {
            Sew::Byte => run!(i8),
            Sew::Half => run!(i16),
            Sew::Word => run!(i32),
        }
    }

    /// `vd = vs1 op scalar` (register indices `d`, `a`; `scalar` is the
    /// raw scalar register, truncated to the active width) computed on
    /// the register lines in place; `vs1` may alias `vd`.
    fn op_vx(&self, regs: &mut [u8], op: VOp, d: usize, a: usize, scalar: u32) {
        macro_rules! run {
            ($e:ty) => {{
                let vl = self.vl;
                let r = |i: usize| i * VLEN_BYTES..(i + 1) * VLEN_BYTES;
                let x = repeat(scalar as $e);
                if a == d {
                    batch::binary::<$e, _, _>(op, vl, &mut regs[r(d)], InPlace, x);
                } else {
                    let [dst, la] = regs.get_disjoint_mut([r(d), r(a)]).expect("distinct");
                    batch::binary::<$e, _, _>(op, vl, dst, batch::line::<$e>(la), x);
                }
            }};
        }
        match self.sew {
            Sew::Byte => run!(i8),
            Sew::Half => run!(i16),
            Sew::Word => run!(i32),
        }
    }

    fn truncate(&self, v: u32) -> i64 {
        match self.sew {
            Sew::Byte => v as u8 as i8 as i64,
            Sew::Half => v as u16 as i16 as i64,
            Sew::Word => v as i32 as i64,
        }
    }

    /// Writes `v` as element 0 of register `line` (reduction results).
    fn write_elem(&self, regs: &mut [u8], line: usize, v: i64) {
        let bytes = &mut regs[line * VLEN_BYTES..];
        match self.sew {
            Sew::Byte => bytes[0] = v as u8,
            Sew::Half => bytes[..2].copy_from_slice(&(v as i16).to_le_bytes()),
            Sew::Word => bytes[..4].copy_from_slice(&(v as i32).to_le_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u8) -> Vr {
        Vr::new(i).unwrap()
    }

    fn s(i: u8) -> Sr {
        Sr::new(i).unwrap()
    }

    const VLEN: usize = VLEN_BYTES;

    /// A 4-lane VPU and a zeroed register file for it.
    fn vpu() -> (Vpu, Vec<u8>) {
        (Vpu::new(VpuConfig::with_lanes(4)), vec![0; VREGS * VLEN])
    }

    fn set_words(regs: &mut [u8], line: usize, vals: &[i32]) {
        for (i, &x) in vals.iter().enumerate() {
            let o = line * VLEN + i * 4;
            regs[o..o + 4].copy_from_slice(&x.to_le_bytes());
        }
    }

    fn get_words(regs: &[u8], line: usize, n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let b = &regs[line * VLEN + i * 4..];
                i32::from_le_bytes([b[0], b[1], b[2], b[3]])
            })
            .collect()
    }

    #[test]
    fn add_and_macc_word() {
        let (mut u, mut r) = vpu();
        set_words(&mut r, 0, &[1, -2, 3, i32::MAX]);
        set_words(&mut r, 1, &[10, 20, -30, 1]);
        set_words(&mut r, 2, &[100, 100, 100, 100]);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 4,
                    sew: Sew::Word,
                },
                VInstr::OpVV {
                    op: VOp::Macc,
                    vd: v(2),
                    vs1: v(0),
                    vs2: v(1),
                },
            ],
        )
        .unwrap();
        assert_eq!(
            get_words(&r, 2, 4),
            vec![110, 60, 10, 100i32.wrapping_add(i32::MAX)]
        );
    }

    #[test]
    fn byte_arithmetic_wraps() {
        let (mut u, mut r) = vpu();
        r[..2].copy_from_slice(&[0x7f, 0x80]);
        r[VLEN..VLEN + 2].copy_from_slice(&[1, 0xff]);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 2,
                    sew: Sew::Byte,
                },
                VInstr::OpVV {
                    op: VOp::Add,
                    vd: v(2),
                    vs1: v(0),
                    vs2: v(1),
                },
            ],
        )
        .unwrap();
        assert_eq!(&r[2 * VLEN..2 * VLEN + 2], &[0x80, 0x7f]); // 127+1=-128, -128+-1=127
    }

    #[test]
    fn scalar_broadcast_and_vx_ops() {
        let (mut u, mut r) = vpu();
        set_words(&mut r, 0, &[5, -5, 0, 2]);
        u.set_sreg(s(3), 3);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 4,
                    sew: Sew::Word,
                },
                VInstr::OpVX {
                    op: VOp::Mul,
                    vd: v(1),
                    vs1: v(0),
                    rs: s(3),
                },
                VInstr::BroadcastX { vd: v(2), rs: s(3) },
            ],
        )
        .unwrap();
        assert_eq!(get_words(&r, 1, 4), vec![15, -15, 0, 6]);
        assert_eq!(get_words(&r, 2, 4), vec![3, 3, 3, 3]);
    }

    #[test]
    fn relu_via_max_vx() {
        let (mut u, mut r) = vpu();
        set_words(&mut r, 0, &[5, -5, 0, -1]);
        u.set_sreg(s(0), 0);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 4,
                    sew: Sew::Word,
                },
                VInstr::OpVX {
                    op: VOp::Max,
                    vd: v(0),
                    vs1: v(0),
                    rs: s(0),
                },
            ],
        )
        .unwrap();
        assert_eq!(get_words(&r, 0, 4), vec![5, 0, 0, 0]);
    }

    #[test]
    fn slide_down_pulls_beyond_vl() {
        let (mut u, mut r) = vpu();
        set_words(&mut r, 0, &[1, 2, 3, 4, 5, 6]);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 4,
                    sew: Sew::Word,
                },
                VInstr::SlideDown {
                    vd: v(1),
                    vs1: v(0),
                    offset: 2,
                },
            ],
        )
        .unwrap();
        // elements 2..6 visible: slide reads the full register
        assert_eq!(get_words(&r, 1, 4), vec![3, 4, 5, 6]);
    }

    #[test]
    fn slide_up_preserves_prefix() {
        let (mut u, mut r) = vpu();
        set_words(&mut r, 0, &[1, 2, 3, 4]);
        set_words(&mut r, 1, &[9, 9, 9, 9]);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 4,
                    sew: Sew::Word,
                },
                VInstr::SlideUp {
                    vd: v(1),
                    vs1: v(0),
                    offset: 1,
                },
            ],
        )
        .unwrap();
        assert_eq!(get_words(&r, 1, 4), vec![9, 1, 2, 3]);
    }

    #[test]
    fn reductions() {
        let (mut u, mut r) = vpu();
        set_words(&mut r, 0, &[1, -2, 30, 4]);
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 4,
                    sew: Sew::Word,
                },
                VInstr::RedSum {
                    vd: v(1),
                    vs1: v(0),
                },
                VInstr::RedMax {
                    vd: v(2),
                    vs1: v(0),
                },
            ],
        )
        .unwrap();
        assert_eq!(get_words(&r, 1, 1), vec![33]);
        assert_eq!(get_words(&r, 2, 1), vec![30]);
    }

    #[test]
    fn cycle_model_scales_with_lanes_and_sew() {
        let add = |lanes, vl, sew| {
            let mut u = Vpu::new(VpuConfig::with_lanes(lanes));
            let mut r = vec![0; VREGS * VLEN];
            let add = VInstr::OpVV {
                op: VOp::Add,
                vd: v(2),
                vs1: v(0),
                vs2: v(1),
            };
            u.execute(&mut r, &[VInstr::SetVl { vl, sew }]).unwrap();
            u.execute_one(&mut r, &add).unwrap()
        };
        // 256 int32 elements = 1024 bytes: 2 lanes -> 128 cycles, 8 -> 32.
        assert_eq!(add(2, 256, Sew::Word), 2 + 128);
        assert_eq!(add(8, 256, Sew::Word), 2 + 32);
        // int8 is 4x faster for the same element count.
        assert_eq!(add(8, 256, Sew::Byte), 2 + 8);
    }

    #[test]
    fn setvl_rejects_oversize() {
        let (mut u, mut r) = vpu();
        let err = u
            .execute(
                &mut r,
                &[VInstr::SetVl {
                    vl: 2048,
                    sew: Sew::Word,
                }],
            )
            .unwrap_err();
        assert_eq!(err, VpuError::VlTooLarge { vl: 2048, max: 256 });
        // int8 allows the full 1024
        u.execute(
            &mut r,
            &[VInstr::SetVl {
                vl: 1024,
                sew: Sew::Byte,
            }],
        )
        .unwrap();
    }

    #[test]
    fn lines_alias_vector_registers() {
        let (mut u, mut r) = vpu();
        r[7 * VLEN] = 42;
        u.execute(
            &mut r,
            &[
                VInstr::SetVl {
                    vl: 1,
                    sew: Sew::Byte,
                },
                VInstr::Move {
                    vd: v(8),
                    vs1: v(7),
                },
            ],
        )
        .unwrap();
        assert_eq!(r[8 * VLEN], 42);
    }
}
