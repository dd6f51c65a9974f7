//! The RV32IM(+XCVPULP) core model.

use crate::simd::pv_exec;
use crate::timing::Timing;
use crate::xif::{Coprocessor, XifResponse};
use arcane_isa::exec::{BType, IType, Op, RType, SType};
use arcane_isa::reg::Gpr;
use arcane_isa::rv32::{decode, LoadOp};
use arcane_isa::xcvpulp::{PvOp, SimdWidth};
use arcane_isa::DecodeError;
use arcane_mem::{Access, AccessSize, Bus, BusError, Memory, Sram};
use arcane_sim::EngineMode;
use std::error::Error;
use std::fmt;

/// Why [`Cpu::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// An `ebreak` was executed (normal end-of-program marker).
    Break,
    /// An `ecall` was executed.
    Ecall,
    /// The instruction budget was exhausted.
    OutOfFuel,
}

/// Summary of a [`Cpu::run`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles consumed (per the [`Timing`] model plus bus wait states).
    pub cycles: u64,
    /// Why execution stopped.
    pub stop: StopReason,
}

/// Error that aborts simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// A bus access faulted.
    Bus {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The underlying bus error.
        source: BusError,
    },
    /// An instruction word failed to decode.
    Decode {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The underlying decode error.
        source: DecodeError,
    },
    /// A custom-2 instruction was rejected by the coprocessor
    /// (the CV-X-IF "kill" outcome).
    RejectedOffload {
        /// Program counter of the offloaded instruction.
        pc: u32,
        /// The raw instruction word.
        raw: u32,
    },
    /// A taken branch or jump targets a PC that is not word-aligned, or
    /// a run starts at one (then `pc` and `target` are both the entry
    /// PC). With no compressed instructions that is the RISC-V
    /// instruction-address-misaligned exception, raised on the jump or
    /// before the first fetch.
    MisalignedPc {
        /// Program counter of the branch or jump (the entry PC when the
        /// run starts misaligned).
        pc: u32,
        /// The misaligned target.
        target: u32,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Bus { pc, source } => write!(f, "bus fault at pc {pc:#010x}: {source}"),
            CpuError::Decode { pc, source } => {
                write!(f, "illegal instruction at pc {pc:#010x}: {source}")
            }
            CpuError::RejectedOffload { pc, raw } => write!(
                f,
                "coprocessor rejected instruction {raw:#010x} at pc {pc:#010x}"
            ),
            CpuError::MisalignedPc { pc, target } => write!(
                f,
                "jump at pc {pc:#010x} to misaligned target {target:#010x}"
            ),
        }
    }
}

impl Error for CpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CpuError::Bus { source, .. } => Some(source),
            CpuError::Decode { source, .. } => Some(source),
            CpuError::RejectedOffload { .. } | CpuError::MisalignedPc { .. } => None,
        }
    }
}

/// Where control goes after an executed op, as one word: a
/// word-aligned jump target (low two bits `00`), or one of the odd
/// codes below. The run loop's tail tests bits of one register instead
/// of matching an enum.
type Ctl = u32;

/// Fall through to the next instruction.
const NEXT: Ctl = 0b01;
/// `ebreak`: the program ends after this instruction. Bit 1 marks a
/// stop.
const BREAK: Ctl = 0b11;
/// `ecall`: the program ends after this instruction.
const ECALL: Ctl = 0b111;

#[derive(Debug, Clone, Copy, Default)]
struct HwLoop {
    start: u32,
    last: u32,
    remaining: u32,
    active: bool,
}

/// A CV32E40X-class RV32IM(+XCVPULP) core.
///
/// The core is generic over the attached [`Bus`] and [`Coprocessor`] so
/// the identical model drives the baseline system, the XCVPULP baseline
/// and the ARCANE host.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    cycles: u64,
    instret: u64,
    /// The CV32E40X tariff, a calibrated constant that no caller sets.
    /// Each core reads it from this copy: compiling the constant into
    /// `exec` instead made `conv_fig4`'s `run_ms_p90` about 4% slower.
    timing: Timing,
    loops: [HwLoop; 2],
    /// `true` while any hardware loop is active (fast-path guard).
    loops_active: bool,
    /// The predecoded op of every instruction word fetched so far,
    /// indexed by `pc / 4`; `None` where a word was never fetched or a
    /// store has since overwritten it.
    ops: Vec<Option<Op>>,
}

impl Cpu {
    /// Creates a core with the CV32E40X timing, starting at `reset_pc`.
    pub fn new(reset_pc: u32) -> Self {
        Cpu {
            regs: [0; 32],
            pc: reset_pc,
            cycles: 0,
            instret: 0,
            timing: Timing::cv32e40x(),
            loops: [HwLoop::default(); 2],
            loops_active: false,
            ops: Vec::new(),
        }
    }

    /// Current program counter.
    pub const fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycles consumed so far.
    pub const fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub const fn instret(&self) -> u64 {
        self.instret
    }

    /// Reads a register (`x0` always reads zero).
    ///
    /// `Gpr` guarantees the index is below 32; the redundant mask lets
    /// the compiler drop the bounds check from the hottest load in the
    /// simulator.
    #[inline(always)]
    pub fn reg(&self, r: Gpr) -> u32 {
        self.regs[(r.index() & 31) as usize]
    }

    /// Writes a register (writes to `x0` are discarded).
    #[inline(always)]
    pub fn set_reg(&mut self, r: Gpr, value: u32) {
        // Branch-free: write, then pin `x0` back to zero.
        self.regs[(r.index() & 31) as usize] = value;
        self.regs[0] = 0;
    }

    /// Resets PC, registers, counters, hardware loops and the
    /// predecoded op table (instruction memory may be about to change).
    pub fn reset(&mut self, pc: u32) {
        self.regs = [0; 32];
        self.pc = pc;
        self.cycles = 0;
        self.instret = 0;
        self.loops = [HwLoop::default(); 2];
        self.loops_active = false;
        self.ops.clear();
    }

    /// Sizes the empty predecoded-op table for a loaded image of
    /// `words` instruction words (call after [`Cpu::reset`]), so a run
    /// fills it in place instead of regrowing it from empty. A PC past
    /// the image still grows the table on demand.
    pub fn size_op_table(&mut self, words: usize) {
        self.ops.clear();
        self.ops.resize(words, None);
    }

    /// Loads `addr` into `rd`, sized and extended per `op`, at the
    /// access cycles.
    #[inline(always)]
    fn load<B: Bus>(
        &mut self,
        bus: &mut B,
        pc: u32,
        now: u64,
        rd: Gpr,
        addr: u32,
        op: LoadOp,
    ) -> Result<(Ctl, u64), CpuError> {
        let size = match op {
            LoadOp::Lb | LoadOp::Lbu => AccessSize::Byte,
            LoadOp::Lh | LoadOp::Lhu => AccessSize::Half,
            LoadOp::Lw => AccessSize::Word,
        };
        let acc = bus
            .read(addr, size, now)
            .map_err(|source| CpuError::Bus { pc, source })?;
        let v = acc.data;
        self.set_reg(
            rd,
            match op {
                LoadOp::Lb => v as u8 as i8 as u32,
                LoadOp::Lh => v as u16 as i16 as u32,
                LoadOp::Lbu => v as u8 as u32,
                LoadOp::Lhu => v as u16 as u32,
                LoadOp::Lw => v,
            },
        );
        Ok((NEXT, acc.cycles + self.misaligned_extra(addr, size)))
    }

    /// `cv.l*`: loads from `rs1`, then post-increments `rs1` by `imm`.
    #[inline(always)]
    fn load_post<B: Bus>(
        &mut self,
        bus: &mut B,
        pc: u32,
        now: u64,
        i: IType,
        op: LoadOp,
    ) -> Result<(Ctl, u64), CpuError> {
        let addr = self.reg(i.rs1);
        let done = self.load(bus, pc, now, i.rd, addr, op)?;
        // post-increment must survive rd == rs1 (rd wins on real HW
        // only for rd != rs1; we forbid that case in kernels)
        self.set_reg(i.rs1, addr.wrapping_add(i.imm as u32));
        Ok(done)
    }

    /// Writes the low `size` bytes of `rs2` at `addr`, at the access
    /// cycles.
    #[inline(always)]
    fn store<B: Bus>(
        &mut self,
        bus: &mut B,
        pc: u32,
        now: u64,
        addr: u32,
        rs2: Gpr,
        size: AccessSize,
    ) -> Result<(Ctl, u64), CpuError> {
        let acc = bus
            .write(addr, self.reg(rs2), size, now)
            .map_err(|source| CpuError::Bus { pc, source })?;
        // Self-modifying-code guard: forget the one or two predecoded
        // words the store overlaps (one compare when it lands above them).
        let first = (addr >> 2) as usize;
        if first < self.ops.len() {
            self.ops[first] = None;
            let last = (addr.wrapping_add(size.bytes() - 1) >> 2) as usize;
            if let Some(op) = self.ops.get_mut(last) {
                *op = None;
            }
        }
        Ok((NEXT, acc.cycles + self.misaligned_extra(addr, size)))
    }

    /// `cv.s*`: stores to `rs1`, then post-increments `rs1` by `off`.
    #[inline(always)]
    fn store_post<B: Bus>(
        &mut self,
        bus: &mut B,
        pc: u32,
        now: u64,
        s: SType,
        size: AccessSize,
    ) -> Result<(Ctl, u64), CpuError> {
        let addr = self.reg(s.rs1);
        let done = self.store(bus, pc, now, addr, s.rs2, size)?;
        self.set_reg(s.rs1, addr.wrapping_add(s.off as u32));
        Ok(done)
    }

    #[inline(always)]
    fn misaligned_extra(&self, addr: u32, size: AccessSize) -> u64 {
        if addr.is_multiple_of(size.bytes()) {
            0
        } else {
            self.timing.misaligned_extra
        }
    }

    /// Effective address of a load: `rs1 + imm`.
    #[inline(always)]
    fn ea(&self, i: IType) -> u32 {
        self.reg(i.rs1).wrapping_add(i.imm as u32)
    }

    /// Effective address of a store: `rs1 + off`.
    #[inline(always)]
    fn sa(&self, s: SType) -> u32 {
        self.reg(s.rs1).wrapping_add(s.off as u32)
    }

    /// `rd = v` at `cost`, falling through.
    #[inline(always)]
    fn write(&mut self, rd: Gpr, v: u32, cost: u64) -> (Ctl, u64) {
        self.set_reg(rd, v);
        (NEXT, cost)
    }

    /// `rd = f(rs1, imm)` at `cost`.
    #[inline(always)]
    fn ri(&mut self, i: IType, cost: u64, f: impl FnOnce(u32, u32) -> u32) -> (Ctl, u64) {
        self.write(i.rd, f(self.reg(i.rs1), i.imm as u32), cost)
    }

    /// `rd = f(rs1, rs2)` at `cost`.
    #[inline(always)]
    fn rr(&mut self, r: RType, cost: u64, f: impl FnOnce(u32, u32) -> u32) -> (Ctl, u64) {
        self.write(r.rd, f(self.reg(r.rs1), self.reg(r.rs2)), cost)
    }

    /// `rd = f(rd, rs1, rs2)`: the accumulating XCVPULP ops.
    #[inline(always)]
    fn acc(&mut self, r: RType, f: impl FnOnce(u32, u32, u32) -> u32) -> (Ctl, u64) {
        let v = f(self.reg(r.rd), self.reg(r.rs1), self.reg(r.rs2));
        self.write(r.rd, v, self.timing.simd)
    }

    /// A packed-SIMD op (`op` and `w` are constants at every call site,
    /// so the inlined [`pv_exec`] folds to the one lane loop).
    #[inline(always)]
    fn pv(&mut self, r: RType, op: PvOp, w: SimdWidth) -> (Ctl, u64) {
        self.acc(r, |d, a, b| pv_exec(op, w, d, a, b))
    }

    /// A taken conditional branch or an unconditional jump to `target`.
    ///
    /// With no compressed instructions, every target must be
    /// word-aligned; a misaligned one faults on the jump itself (the
    /// RISC-V instruction-address-misaligned exception), before `rd`
    /// is linked.
    #[inline(always)]
    fn jump(pc: u32, target: u32) -> Result<Ctl, CpuError> {
        if target.is_multiple_of(4) {
            Ok(target)
        } else {
            Err(CpuError::MisalignedPc { pc, target })
        }
    }

    /// `jal`/`jalr`: jumps to `target`, linking `rd`.
    #[inline(always)]
    fn jump_link(&mut self, pc: u32, rd: Gpr, target: u32) -> Result<(Ctl, u64), CpuError> {
        let ctl = Cpu::jump(pc, target)?;
        self.set_reg(rd, pc.wrapping_add(4));
        Ok((ctl, self.timing.jump))
    }

    #[inline(always)]
    fn branch(&self, pc: u32, b: BType, taken: bool) -> Result<(Ctl, u64), CpuError> {
        if taken {
            let ctl = Cpu::jump(pc, pc.wrapping_add(b.off as u32))?;
            Ok((ctl, self.timing.branch_taken))
        } else {
            Ok((NEXT, self.timing.branch_not_taken))
        }
    }

    /// Executes one predecoded op at `pc`, `now` being the cycle count
    /// before it. Returns where control goes (a [`Ctl`] word) and the
    /// op's cycle cost.
    ///
    /// It touches registers, hardware loops, the bus and the
    /// coprocessor, never `self.pc`, `self.cycles` or `self.instret`:
    /// the run loop owns those and keeps them in locals.
    #[inline(always)]
    fn exec<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        op: Op,
        pc: u32,
        now: u64,
    ) -> Result<(Ctl, u64), CpuError> {
        use AccessSize::{Byte, Half, Word};
        use SimdWidth::{B, H};
        Ok(match op {
            Op::Lui(u) => self.write(u.rd, u.imm, self.timing.alu),
            Op::Auipc(u) => self.write(u.rd, pc.wrapping_add(u.imm), self.timing.alu),
            Op::Jal(u) => self.jump_link(pc, u.rd, pc.wrapping_add(u.imm))?,
            Op::Jalr(i) => {
                let target = self.reg(i.rs1).wrapping_add(i.imm as u32) & !1;
                self.jump_link(pc, i.rd, target)?
            }
            Op::Beq(b) => self.branch(pc, b, self.reg(b.rs1) == self.reg(b.rs2))?,
            Op::Bne(b) => self.branch(pc, b, self.reg(b.rs1) != self.reg(b.rs2))?,
            Op::Blt(b) => self.branch(pc, b, (self.reg(b.rs1) as i32) < self.reg(b.rs2) as i32)?,
            Op::Bge(b) => self.branch(pc, b, self.reg(b.rs1) as i32 >= self.reg(b.rs2) as i32)?,
            Op::Bltu(b) => self.branch(pc, b, self.reg(b.rs1) < self.reg(b.rs2))?,
            Op::Bgeu(b) => self.branch(pc, b, self.reg(b.rs1) >= self.reg(b.rs2))?,
            Op::Lb(i) => self.load(bus, pc, now, i.rd, self.ea(i), LoadOp::Lb)?,
            Op::Lh(i) => self.load(bus, pc, now, i.rd, self.ea(i), LoadOp::Lh)?,
            Op::Lw(i) => self.load(bus, pc, now, i.rd, self.ea(i), LoadOp::Lw)?,
            Op::Lbu(i) => self.load(bus, pc, now, i.rd, self.ea(i), LoadOp::Lbu)?,
            Op::Lhu(i) => self.load(bus, pc, now, i.rd, self.ea(i), LoadOp::Lhu)?,
            Op::Sb(s) => self.store(bus, pc, now, self.sa(s), s.rs2, Byte)?,
            Op::Sh(s) => self.store(bus, pc, now, self.sa(s), s.rs2, Half)?,
            Op::Sw(s) => self.store(bus, pc, now, self.sa(s), s.rs2, Word)?,
            Op::Addi(i) => self.ri(i, self.timing.alu, u32::wrapping_add),
            Op::Slti(i) => self.ri(i, self.timing.alu, |a, imm| {
                ((a as i32) < imm as i32) as u32
            }),
            Op::Sltiu(i) => self.ri(i, self.timing.alu, |a, imm| (a < imm) as u32),
            Op::Xori(i) => self.ri(i, self.timing.alu, |a, imm| a ^ imm),
            Op::Ori(i) => self.ri(i, self.timing.alu, |a, imm| a | imm),
            Op::Andi(i) => self.ri(i, self.timing.alu, |a, imm| a & imm),
            Op::Slli(i) => self.ri(i, self.timing.alu, u32::wrapping_shl),
            Op::Srli(i) => self.ri(i, self.timing.alu, u32::wrapping_shr),
            Op::Srai(i) => self.ri(i, self.timing.alu, |a, sh| {
                (a as i32).wrapping_shr(sh) as u32
            }),
            Op::Add(r) => self.rr(r, self.timing.alu, u32::wrapping_add),
            Op::Sub(r) => self.rr(r, self.timing.alu, u32::wrapping_sub),
            Op::Sll(r) => self.rr(r, self.timing.alu, |a, b| a.wrapping_shl(b & 0x1f)),
            Op::Slt(r) => self.rr(r, self.timing.alu, |a, b| ((a as i32) < (b as i32)) as u32),
            Op::Sltu(r) => self.rr(r, self.timing.alu, |a, b| (a < b) as u32),
            Op::Xor(r) => self.rr(r, self.timing.alu, |a, b| a ^ b),
            Op::Srl(r) => self.rr(r, self.timing.alu, |a, b| a.wrapping_shr(b & 0x1f)),
            Op::Sra(r) => self.rr(r, self.timing.alu, |a, b| {
                (a as i32).wrapping_shr(b & 0x1f) as u32
            }),
            Op::Or(r) => self.rr(r, self.timing.alu, |a, b| a | b),
            Op::And(r) => self.rr(r, self.timing.alu, |a, b| a & b),
            Op::Mul(r) => self.rr(r, self.timing.mul, u32::wrapping_mul),
            Op::Mulh(r) => self.rr(r, self.timing.mulh, |a, b| {
                (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32
            }),
            Op::Mulhsu(r) => self.rr(r, self.timing.mulh, |a, b| {
                (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32
            }),
            Op::Mulhu(r) => self.rr(r, self.timing.mulh, |a, b| {
                (((a as u64) * (b as u64)) >> 32) as u32
            }),
            Op::Div(r) => self.rr(r, self.timing.div, |a, b| {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32) / (b as i32)) as u32
                }
            }),
            Op::Divu(r) => self.rr(r, self.timing.div, |a, b| {
                a.checked_div(b).unwrap_or(u32::MAX)
            }),
            Op::Rem(r) => self.rr(r, self.timing.div, |a, b| {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32) % (b as i32)) as u32
                }
            }),
            Op::Remu(r) => self.rr(r, self.timing.div, |a, b| a.checked_rem(b).unwrap_or(a)),
            Op::Fence => (NEXT, self.timing.alu),
            Op::Ecall => (ECALL, self.timing.alu),
            Op::Ebreak => (BREAK, self.timing.alu),
            Op::LbPost(i) => self.load_post(bus, pc, now, i, LoadOp::Lb)?,
            Op::LhPost(i) => self.load_post(bus, pc, now, i, LoadOp::Lh)?,
            Op::LwPost(i) => self.load_post(bus, pc, now, i, LoadOp::Lw)?,
            Op::LbuPost(i) => self.load_post(bus, pc, now, i, LoadOp::Lbu)?,
            Op::LhuPost(i) => self.load_post(bus, pc, now, i, LoadOp::Lhu)?,
            Op::SbPost(s) => self.store_post(bus, pc, now, s, Byte)?,
            Op::ShPost(s) => self.store_post(bus, pc, now, s, Half)?,
            Op::SwPost(s) => self.store_post(bus, pc, now, s, Word)?,
            Op::PvAddB(r) => self.pv(r, PvOp::Add, B),
            Op::PvSubB(r) => self.pv(r, PvOp::Sub, B),
            Op::PvMaxB(r) => self.pv(r, PvOp::Max, B),
            Op::PvMinB(r) => self.pv(r, PvOp::Min, B),
            Op::PvDotspB(r) => self.pv(r, PvOp::Dotsp, B),
            Op::PvSdotspB(r) => self.pv(r, PvOp::Sdotsp, B),
            Op::PvDotupB(r) => self.pv(r, PvOp::Dotup, B),
            Op::PvAddH(r) => self.pv(r, PvOp::Add, H),
            Op::PvSubH(r) => self.pv(r, PvOp::Sub, H),
            Op::PvMaxH(r) => self.pv(r, PvOp::Max, H),
            Op::PvMinH(r) => self.pv(r, PvOp::Min, H),
            Op::PvDotspH(r) => self.pv(r, PvOp::Dotsp, H),
            Op::PvSdotspH(r) => self.pv(r, PvOp::Sdotsp, H),
            Op::PvDotupH(r) => self.pv(r, PvOp::Dotup, H),
            Op::Mac(r) => self.acc(r, |d, a, b| d.wrapping_add(a.wrapping_mul(b))),
            Op::MaxS(r) => self.rr(r, self.timing.simd, |a, b| (a as i32).max(b as i32) as u32),
            Op::MinS(r) => self.rr(r, self.timing.simd, |a, b| (a as i32).min(b as i32) as u32),
            Op::Abs(r) => self.rr(r, self.timing.simd, |a, _| (a as i32).wrapping_abs() as u32),
            Op::LoopSetupI {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(pc, loop_id, count, body_len);
                (NEXT, self.timing.loop_setup)
            }
            Op::LoopSetup {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(pc, loop_id, self.reg(count), body_len);
                (NEXT, self.timing.loop_setup)
            }
            Op::Offload {
                raw,
                rd,
                rs1,
                rs2,
                rs3,
            } => match xif.offload(raw, self.reg(rs1), self.reg(rs2), self.reg(rs3), now) {
                XifResponse::Accept { writeback, cycles } => {
                    if let Some(v) = writeback {
                        self.set_reg(rd, v);
                    }
                    (NEXT, cycles.max(1))
                }
                XifResponse::Reject => return Err(CpuError::RejectedOffload { pc, raw }),
            },
        })
    }

    /// Where control goes after the op at `pc` retires with `ctl`:
    /// the jump target, or the next instruction — redirected to the
    /// loop start when `pc` closes an active hardware-loop body. A stop
    /// op falls through like any other, so it too closes a loop body.
    ///
    /// Loop 0 is the innermost per the XPULP convention. Guarded by one
    /// flag so plain RV32IM code pays a single predictable branch.
    #[inline(always)]
    fn next_pc(&mut self, pc: u32, ctl: Ctl) -> u32 {
        let next = if ctl & 1 == 0 {
            ctl
        } else {
            pc.wrapping_add(4)
        };
        if !self.loops_active || next != pc.wrapping_add(4) {
            return next;
        }
        for l in 0..2 {
            let lp = &mut self.loops[l];
            if lp.active && pc == lp.last {
                if lp.remaining > 1 {
                    lp.remaining -= 1;
                    return lp.start;
                }
                lp.active = false;
                self.loops_active = self.loops[0].active || self.loops[1].active;
                break;
            }
        }
        next
    }

    fn setup_loop(&mut self, pc: u32, loop_id: bool, count: u32, body_len: u32) {
        let idx = loop_id as usize;
        let start = pc.wrapping_add(4);
        let lp = &mut self.loops[idx];
        if count == 0 || body_len == 0 {
            lp.active = false;
            self.loops_active = self.loops[0].active || self.loops[1].active;
            return;
        }
        lp.start = start;
        lp.last = start.wrapping_add((body_len - 1) * 4);
        lp.remaining = count;
        lp.active = true;
        self.loops_active = true;
    }

    /// Runs until `ebreak`/`ecall` or until `max_instrs` instructions
    /// have retired, on the engine selected by the environment
    /// ([`EngineMode::current`]: the predecoded op table unless
    /// `ARCANE_INTERP=1`).
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by execution.
    pub fn run<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        max_instrs: u64,
    ) -> Result<RunResult, CpuError> {
        self.run_with_engine(bus, xif, max_instrs, EngineMode::current())
    }

    /// [`Cpu::run`] with an explicit engine choice (used by the
    /// differential tests, which need both engines in one process).
    ///
    /// Each instruction word is fetched and decoded into an [`Op`] on
    /// its first execution. Under [`EngineMode::Block`] the op is kept
    /// in a table indexed by `pc / 4`, so later executions skip the
    /// fetch and decode; [`EngineMode::Interp`] never fills the table
    /// and fetches every instruction. Both then run the same `exec`.
    ///
    /// PC, cycles and fuel live in locals and are written back once. On
    /// a fault the core holds the faulting PC and the counters from
    /// before the faulting instruction.
    ///
    /// # Errors
    ///
    /// [`CpuError::MisalignedPc`] before any fetch when the PC is not
    /// word-aligned, leaving the core untouched; otherwise the first
    /// [`CpuError`] raised by execution.
    pub fn run_with_engine<B: Bus, X: Coprocessor>(
        &mut self,
        bus: &mut B,
        xif: &mut X,
        max_instrs: u64,
        engine: EngineMode,
    ) -> Result<RunResult, CpuError> {
        let mut pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(CpuError::MisalignedPc { pc, target: pc });
        }
        let keep = engine == EngineMode::Block;
        let mut cycles = self.cycles;
        let mut left = max_instrs;
        let out = loop {
            if left == 0 {
                break Ok(StopReason::OutOfFuel);
            }
            let op = match self.ops.get((pc >> 2) as usize) {
                Some(&Some(op)) => op,
                _ => match self.predecode(bus, pc, cycles, keep) {
                    Ok(op) => op,
                    Err(e) => break Err(e),
                },
            };
            let (ctl, cost) = match self.exec(bus, xif, op, pc, cycles) {
                Ok(done) => done,
                Err(e) => break Err(e),
            };
            cycles += cost;
            left -= 1;
            pc = self.next_pc(pc, ctl);
            if ctl & 0b10 != 0 {
                break Ok(if ctl == BREAK {
                    StopReason::Break
                } else {
                    StopReason::Ecall
                });
            }
        };
        let retired = max_instrs - left;
        let run_cycles = cycles - self.cycles;
        self.pc = pc;
        self.cycles = cycles;
        self.instret += retired;
        out.map(|stop| RunResult {
            instret: retired,
            cycles: run_cycles,
            stop,
        })
    }

    /// Fetches and decodes the word-aligned instruction at `pc`,
    /// recording its op in the table when `keep` is set.
    ///
    /// Cold: once a loop's words are in the table it never misses, and
    /// keeping the miss out of line keeps the run loop tight.
    #[cold]
    fn predecode<B: Bus>(
        &mut self,
        bus: &mut B,
        pc: u32,
        now: u64,
        keep: bool,
    ) -> Result<Op, CpuError> {
        // The prefetch buffer hides single-cycle IMEM latency, so the
        // fetch time is not added to the instruction cost.
        let word = bus
            .fetch(pc, now)
            .map_err(|source| CpuError::Bus { pc, source })?
            .data;
        let op = decode(word).map_err(|source| CpuError::Decode { pc, source })?;
        if keep {
            let idx = (pc >> 2) as usize;
            if idx >= self.ops.len() {
                self.ops.resize(idx + 1, None);
            }
            self.ops[idx] = Some(op);
        }
        Ok(op)
    }
}

/// A flat single-SRAM bus for unit tests and small standalone programs.
///
/// Instruction fetches and data accesses hit the same zero-based SRAM
/// with single-cycle latency.
#[derive(Debug, Clone)]
pub struct SramBus {
    ram: Sram,
}

impl SramBus {
    /// Creates a bus backed by `size` bytes of SRAM at address zero.
    pub fn new(size: usize) -> Self {
        SramBus {
            ram: Sram::new(0, size),
        }
    }

    /// Loads a program image (32-bit little-endian words) at `addr`.
    pub fn load_program(&mut self, addr: u32, words: &[u32]) {
        self.ram.load_words(addr, words);
    }

    /// Read-only access to the underlying memory.
    pub fn ram(&self) -> &Sram {
        &self.ram
    }
}

impl Bus for SramBus {
    #[inline]
    fn read(&mut self, addr: u32, size: AccessSize, _now: u64) -> Result<Access, BusError> {
        let mut buf = [0u8; 4];
        self.ram
            .read_bytes(addr, &mut buf[..size.bytes() as usize])?;
        Ok(Access::new(u32::from_le_bytes(buf), 1))
    }

    #[inline]
    fn write(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
        _now: u64,
    ) -> Result<Access, BusError> {
        self.ram
            .write_bytes(addr, &value.to_le_bytes()[..size.bytes() as usize])?;
        Ok(Access::new(0, 1))
    }

    #[inline]
    fn fetch(&mut self, addr: u32, _now: u64) -> Result<Access, BusError> {
        Ok(Access::new(self.ram.read_u32(addr)?, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xif::NoCoprocessor;
    use arcane_isa::asm::Asm;
    use arcane_isa::exec::UType;
    use arcane_isa::reg::*;
    use arcane_isa::rv32::{encode, AluOp};
    use arcane_isa::xcvpulp::{PvOp, SimdWidth};

    fn run_asm(build: impl FnOnce(&mut Asm)) -> (Cpu, SramBus, RunResult) {
        let mut a = Asm::new();
        build(&mut a);
        let words = a.assemble(0).unwrap();
        let mut bus = SramBus::new(256 * 1024);
        bus.load_program(0, &words);
        let mut cpu = Cpu::new(0);
        let r = cpu.run(&mut bus, &mut NoCoprocessor, 10_000_000).unwrap();
        (cpu, bus, r)
    }

    #[test]
    fn arithmetic_basics() {
        let (cpu, _, r) = run_asm(|a| {
            a.li(A0, 100);
            a.li(A1, -7);
            a.add(A2, A0, A1); // 93
            a.mul(A3, A0, A1); // -700
            a.op(AluOp::Div, A4, A0, A1); // -14
            a.op(AluOp::Rem, A5, A0, A1); // 2
            a.ebreak();
        });
        assert_eq!(r.stop, StopReason::Break);
        assert_eq!(cpu.reg(A2), 93);
        assert_eq!(cpu.reg(A3) as i32, -700);
        assert_eq!(cpu.reg(A4) as i32, -14);
        assert_eq!(cpu.reg(A5) as i32, 2);
    }

    #[test]
    fn division_edge_cases() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A0, 5);
            a.li(A1, 0);
            a.op(AluOp::Div, A2, A0, A1); // -1 per spec
            a.op(AluOp::Rem, A3, A0, A1); // 5 per spec
            a.li(A4, i32::MIN);
            a.li(A5, -1);
            a.op(AluOp::Div, A6, A4, A5); // overflow -> i32::MIN
            a.ebreak();
        });
        assert_eq!(cpu.reg(A2), u32::MAX);
        assert_eq!(cpu.reg(A3), 5);
        assert_eq!(cpu.reg(A6), 0x8000_0000);
    }

    #[test]
    fn loads_and_stores_with_sign_extension() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(T0, 0x1000);
            a.li(T1, -2); // 0xfffffffe
            a.sb(T1, T0, 0);
            a.lb(A0, T0, 0); // -2 sign extended
            a.load(LoadOp::Lbu, A1, T0, 0); // 0xfe
            a.sh(T1, T0, 4);
            a.lh(A2, T0, 4);
            a.load(LoadOp::Lhu, A3, T0, 4);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0) as i32, -2);
        assert_eq!(cpu.reg(A1), 0xfe);
        assert_eq!(cpu.reg(A2) as i32, -2);
        assert_eq!(cpu.reg(A3), 0xfffe);
    }

    #[test]
    fn loop_sums_first_n_integers() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A0, 0); // sum
            a.li(A1, 1); // i
            a.li(A2, 101); // bound
            let top = a.bind_label();
            a.add(A0, A0, A1);
            a.addi(A1, A1, 1);
            a.blt(A1, A2, top);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 5050);
    }

    #[test]
    fn taken_branches_cost_more() {
        // same instruction count; one with taken branch, one without
        let (_, _, taken) = run_asm(|a| {
            let skip = a.label();
            a.li(A0, 0);
            a.beq(A0, ZERO, skip); // taken
            a.nop();
            a.bind(skip);
            a.ebreak();
        });
        let (_, _, not_taken) = run_asm(|a| {
            let skip = a.label();
            a.li(A0, 1);
            a.beq(A0, ZERO, skip); // not taken
            a.nop();
            a.bind(skip);
            a.ebreak();
        });
        // taken: li(1) + branch(3) + ebreak vs not: li + branch(1) + nop + ebreak
        assert_eq!(taken.cycles, 1 + 3 + 1);
        assert_eq!(not_taken.cycles, 1 + 1 + 1 + 1);
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _, _) = run_asm(|a| {
            let f = a.label();
            let done = a.label();
            a.li(A0, 5);
            a.call(f);
            a.j(done);
            a.bind(f);
            a.slli(A0, A0, 1); // double
            a.ret();
            a.bind(done);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 10);
    }

    #[test]
    fn hardware_loop_executes_exact_count() {
        let (cpu, _, r) = run_asm(|a| {
            a.li(A0, 0);
            a.cv_setupi(false, 10, 1);
            a.addi(A0, A0, 1); // body: 1 instruction, 10 times
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 10);
        // li + setup + 10 bodies + ebreak = 13 retired instructions
        assert_eq!(r.instret, 13);
        // and zero branch overhead: 13 single-cycle ops
        assert_eq!(r.cycles, 13);
    }

    #[test]
    fn nested_hardware_loops() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A0, 0);
            a.li(T0, 4);
            a.cv_setup(true, T0, 3); // outer: 3-instr body, 4 times
            a.cv_setupi(false, 5, 1); // inner: 1-instr body, 5 times
            a.addi(A0, A0, 1);
            a.nop(); // pad so outer body = setup_inner + body + nop
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 20);
    }

    #[test]
    fn post_increment_load_walks_array() {
        let (cpu, _, _) = run_asm(|a| {
            // store 3 words, then walk them with cv.lw post-inc
            a.li(T0, 0x2000);
            a.li(T1, 7);
            a.sw(T1, T0, 0);
            a.li(T1, 11);
            a.sw(T1, T0, 4);
            a.li(T1, 13);
            a.sw(T1, T0, 8);
            a.li(A0, 0);
            a.cv_setupi(false, 3, 2);
            a.cv_lw_post(A1, T0, 4);
            a.add(A0, A0, A1);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 31);
        assert_eq!(cpu.reg(T0), 0x2000 + 12);
    }

    #[test]
    fn simd_dot_product_through_iss() {
        let (cpu, _, _) = run_asm(|a| {
            a.li(A1, i32::from_le_bytes([1, 2, 3, 4]));
            a.li(A2, i32::from_le_bytes([5, 6, 7, 8]));
            a.li(A0, 100);
            a.pv(PvOp::Sdotsp, SimdWidth::B, A0, A1, A2);
            a.ebreak();
        });
        assert_eq!(cpu.reg(A0), 170);
    }

    #[test]
    fn misaligned_access_costs_extra() {
        let (_, _, aligned) = run_asm(|a| {
            a.li(T0, 0x1000);
            a.lw(A0, T0, 0);
            a.ebreak();
        });
        let (_, _, misaligned) = run_asm(|a| {
            a.li(T0, 0x1000);
            a.lw(A0, T0, 1);
            a.ebreak();
        });
        assert_eq!(misaligned.cycles, aligned.cycles + 1);
    }

    #[test]
    fn x0_stays_zero() {
        let (cpu, _, _) = run_asm(|a| {
            a.addi(ZERO, ZERO, 5);
            a.ebreak();
        });
        assert_eq!(cpu.reg(ZERO), 0);
    }

    #[test]
    fn rejected_offload_reports_error() {
        let mut a = Asm::new();
        a.raw(arcane_isa::xmnmc::xmr_instr(
            arcane_sim::Sew::Word,
            A0,
            A1,
            A2,
        ));
        let words = a.assemble(0).unwrap();
        let mut bus = SramBus::new(4096);
        bus.load_program(0, &words);
        let mut cpu = Cpu::new(0);
        let err = cpu.run(&mut bus, &mut NoCoprocessor, 10).unwrap_err();
        assert!(matches!(err, CpuError::RejectedOffload { pc: 0, .. }));
    }

    #[test]
    fn csr_word_faults_instead_of_ending_the_program() {
        // `csrrs a0, 0x000, x0` and `csrrw x0, 0x001, x0` share bits
        // 31:20 with `ecall` and `ebreak`, but must not stop the run as
        // if the program had ended.
        for word in [0x0000_2573, 0x0010_1073] {
            let mut bus = SramBus::new(4096);
            bus.load_program(0, &[word]);
            let mut cpu = Cpu::new(0);
            let err = cpu.run(&mut bus, &mut NoCoprocessor, 10).unwrap_err();
            assert!(
                matches!(err, CpuError::Decode { pc: 0, .. }),
                "{word:#010x}"
            );
        }
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let (_, _, r) = run_asm(|a| {
            let top = a.bind_label();
            a.j(top);
        });
        assert_eq!(r.stop, StopReason::OutOfFuel);
    }

    #[test]
    fn jump_to_misaligned_pc_faults_in_both_engines() {
        // The word straddling 6..10 is `addi a0, a0, 1` and the one at
        // 10..14 is `ebreak`: fetching at a half-word PC would run them
        // silently. Both engines must fault on the jump instead.
        let addi = encode(&Op::Addi(IType {
            rd: A0,
            rs1: A0,
            imm: 1,
        }));
        let ebreak = encode(&Op::Ebreak);
        let tail = [
            (addi & 0xffff) << 16,
            (ebreak & 0xffff) << 16 | addi >> 16,
            ebreak >> 16,
        ];
        let beq = encode(&Op::Beq(BType {
            rs1: ZERO,
            rs2: ZERO,
            off: 6,
        }));
        let jalr = encode(&Op::Jalr(IType {
            rd: RA,
            rs1: ZERO,
            imm: 6,
        }));
        // Entered at pc 2, the word straddling 2..6 is `addi a0, t1, 81`
        // (the `lui`'s high half and the `addi`'s low half): the run must
        // fault before fetching it.
        let lui = encode(&Op::Lui(UType {
            rd: T0,
            imm: 0x0513_0000,
        }));
        let cases = [
            (0, [beq, tail[0], tail[1], tail[2]], 6),
            (0, [jalr, tail[0], tail[1], tail[2]], 6),
            (2, [lui, addi, ebreak, 0], 2),
        ];
        for (entry, image, target) in cases {
            for engine in [EngineMode::Block, EngineMode::Interp] {
                let mut bus = SramBus::new(4096);
                bus.load_program(0, &image);
                let mut cpu = Cpu::new(entry);
                let err = cpu
                    .run_with_engine(&mut bus, &mut NoCoprocessor, 100, engine)
                    .unwrap_err();
                assert_eq!(err, CpuError::MisalignedPc { pc: entry, target });
                assert_eq!((cpu.reg(A0), cpu.reg(RA)), (0, 0), "no side effects");
                assert_eq!((cpu.pc(), cpu.cycles(), cpu.instret()), (entry, 0, 0));
            }
        }
    }
}
