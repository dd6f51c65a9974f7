//! Predecoded instructions: one flat [`Op`] per instruction word.
//!
//! The interpreter in `arcane-rv32` originally re-fetched and re-decoded
//! every instruction on every dynamic execution — at 256×256 the Figure 4
//! scalar baseline decodes the same <40-instruction inner loop over a
//! hundred million times. This module provides the predecode stage that
//! amortises that control overhead, the same way ARCANE itself amortises
//! kernel-dispatch overhead over long data-local vector operations
//! (paper §IV): each decoded [`Instr`] is flattened once into an [`Op`],
//! a single-level enum with one variant per operation, whose register
//! indices, immediates, access width, sign extension and branch
//! condition are already resolved, so the core dispatches each retired
//! instruction with one `match`. The core keeps one `Op` per instruction
//! word it has fetched and forgets the words a store overwrites.

use crate::reg::Gpr;
use crate::rv32::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use crate::xcvpulp::{PulpInstr, PvOp, SimdWidth};

/// Operands of a register–immediate op: ALU immediates, loads, `jalr`
/// and post-increment loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IType {
    /// Destination register.
    pub rd: Gpr,
    /// Source (or base address) register.
    pub rs1: Gpr,
    /// Sign-extended immediate: ALU operand, shift amount, address
    /// offset, or post-increment.
    pub imm: i32,
}

/// Operands of a register–register op (RV32IM `OP`, XCVPULP scalar
/// DSP and packed-SIMD ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RType {
    /// Destination register (also the accumulator of `mac`/`sdotsp`).
    pub rd: Gpr,
    /// First source register.
    pub rs1: Gpr,
    /// Second source register (`x0` for the one-source `cv.abs`).
    pub rs2: Gpr,
}

/// Operands of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BType {
    /// First compared register.
    pub rs1: Gpr,
    /// Second compared register.
    pub rs2: Gpr,
    /// Signed byte offset from the branch.
    pub off: i32,
}

/// Operands of a store (plain or post-increment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SType {
    /// Data register.
    pub rs2: Gpr,
    /// Base address register.
    pub rs1: Gpr,
    /// Signed address offset, or the post-increment of `cv.s*`.
    pub off: i32,
}

/// Operands of `lui`, `auipc` and `jal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UType {
    /// Destination (link) register.
    pub rd: Gpr,
    /// Upper immediate (low 12 bits zero), or `jal`'s signed byte
    /// offset in two's complement.
    pub imm: u32,
}

/// One predecoded instruction: a flat enum with one variant per
/// operation, so executing it is a single `match`.
///
/// Built from a decoded [`Instr`] with [`Op::from`]; every field the
/// engine needs (operation, access width and signedness, branch
/// condition, SIMD lane width) is resolved here, once per static
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `lui`.
    Lui(UType),
    /// `auipc`.
    Auipc(UType),
    /// `jal`.
    Jal(UType),
    /// `jalr`.
    Jalr(IType),
    /// `beq`.
    Beq(BType),
    /// `bne`.
    Bne(BType),
    /// `blt`.
    Blt(BType),
    /// `bge`.
    Bge(BType),
    /// `bltu`.
    Bltu(BType),
    /// `bgeu`.
    Bgeu(BType),
    /// `lb`.
    Lb(IType),
    /// `lh`.
    Lh(IType),
    /// `lw`.
    Lw(IType),
    /// `lbu`.
    Lbu(IType),
    /// `lhu`.
    Lhu(IType),
    /// `sb`.
    Sb(SType),
    /// `sh`.
    Sh(SType),
    /// `sw`.
    Sw(SType),
    /// `addi`.
    Addi(IType),
    /// `slti`.
    Slti(IType),
    /// `sltiu`.
    Sltiu(IType),
    /// `xori`.
    Xori(IType),
    /// `ori`.
    Ori(IType),
    /// `andi`.
    Andi(IType),
    /// `slli`.
    Slli(IType),
    /// `srli`.
    Srli(IType),
    /// `srai`.
    Srai(IType),
    /// `add`.
    Add(RType),
    /// `sub`.
    Sub(RType),
    /// `sll`.
    Sll(RType),
    /// `slt`.
    Slt(RType),
    /// `sltu`.
    Sltu(RType),
    /// `xor`.
    Xor(RType),
    /// `srl`.
    Srl(RType),
    /// `sra`.
    Sra(RType),
    /// `or`.
    Or(RType),
    /// `and`.
    And(RType),
    /// `mul`.
    Mul(RType),
    /// `mulh`.
    Mulh(RType),
    /// `mulhsu`.
    Mulhsu(RType),
    /// `mulhu`.
    Mulhu(RType),
    /// `div`.
    Div(RType),
    /// `divu`.
    Divu(RType),
    /// `rem`.
    Rem(RType),
    /// `remu`.
    Remu(RType),
    /// `fence` (a no-op in the in-order model).
    Fence,
    /// `ecall`.
    Ecall,
    /// `ebreak`.
    Ebreak,
    /// `cv.lb` with post-increment (`imm` is the increment).
    LbPost(IType),
    /// `cv.lh` with post-increment.
    LhPost(IType),
    /// `cv.lw` with post-increment.
    LwPost(IType),
    /// `cv.lbu` with post-increment.
    LbuPost(IType),
    /// `cv.lhu` with post-increment.
    LhuPost(IType),
    /// `cv.sb` with post-increment (`off` is the increment).
    SbPost(SType),
    /// `cv.sh` with post-increment.
    ShPost(SType),
    /// `cv.sw` with post-increment.
    SwPost(SType),
    /// `pv.add.b`.
    PvAddB(RType),
    /// `pv.sub.b`.
    PvSubB(RType),
    /// `pv.max.b`.
    PvMaxB(RType),
    /// `pv.min.b`.
    PvMinB(RType),
    /// `pv.dotsp.b`.
    PvDotspB(RType),
    /// `pv.sdotsp.b`.
    PvSdotspB(RType),
    /// `pv.dotup.b`.
    PvDotupB(RType),
    /// `pv.add.h`.
    PvAddH(RType),
    /// `pv.sub.h`.
    PvSubH(RType),
    /// `pv.max.h`.
    PvMaxH(RType),
    /// `pv.min.h`.
    PvMinH(RType),
    /// `pv.dotsp.h`.
    PvDotspH(RType),
    /// `pv.sdotsp.h`.
    PvSdotspH(RType),
    /// `pv.dotup.h`.
    PvDotupH(RType),
    /// `cv.mac`.
    Mac(RType),
    /// `cv.max`.
    MaxS(RType),
    /// `cv.min`.
    MinS(RType),
    /// `cv.abs` (`rs2` is `x0`).
    Abs(RType),
    /// `cv.setupi`: hardware loop with an immediate count.
    LoopSetupI {
        /// Hardware loop id.
        loop_id: bool,
        /// Iteration count.
        count: u32,
        /// Body length in instructions.
        body_len: u32,
    },
    /// `cv.setup`: hardware loop with a register count.
    LoopSetup {
        /// Hardware loop id.
        loop_id: bool,
        /// Register holding the iteration count.
        count: Gpr,
        /// Body length in instructions.
        body_len: u32,
    },
    /// A custom-2 instruction offered to the coprocessor.
    Offload {
        /// The raw instruction word.
        raw: u32,
        /// Destination register of an accepted writeback.
        rd: Gpr,
        /// First source register.
        rs1: Gpr,
        /// Second source register.
        rs2: Gpr,
        /// Third source register.
        rs3: Gpr,
    },
}

impl From<Instr> for Op {
    fn from(instr: Instr) -> Op {
        match instr {
            Instr::Lui { rd, imm } => Op::Lui(UType { rd, imm }),
            Instr::Auipc { rd, imm } => Op::Auipc(UType { rd, imm }),
            Instr::Jal { rd, offset } => Op::Jal(UType {
                rd,
                imm: offset as u32,
            }),
            Instr::Jalr { rd, rs1, offset } => Op::Jalr(IType {
                rd,
                rs1,
                imm: offset,
            }),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let b = BType {
                    rs1,
                    rs2,
                    off: offset,
                };
                match op {
                    BranchOp::Eq => Op::Beq(b),
                    BranchOp::Ne => Op::Bne(b),
                    BranchOp::Lt => Op::Blt(b),
                    BranchOp::Ge => Op::Bge(b),
                    BranchOp::Ltu => Op::Bltu(b),
                    BranchOp::Geu => Op::Bgeu(b),
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => load(
                op,
                IType {
                    rd,
                    rs1,
                    imm: offset,
                },
            ),
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let s = SType {
                    rs2,
                    rs1,
                    off: offset,
                };
                match op {
                    StoreOp::Sb => Op::Sb(s),
                    StoreOp::Sh => Op::Sh(s),
                    StoreOp::Sw => Op::Sw(s),
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let i = IType { rd, rs1, imm };
                match op {
                    AluImmOp::Addi => Op::Addi(i),
                    AluImmOp::Slti => Op::Slti(i),
                    AluImmOp::Sltiu => Op::Sltiu(i),
                    AluImmOp::Xori => Op::Xori(i),
                    AluImmOp::Ori => Op::Ori(i),
                    AluImmOp::Andi => Op::Andi(i),
                    AluImmOp::Slli => Op::Slli(i),
                    AluImmOp::Srli => Op::Srli(i),
                    AluImmOp::Srai => Op::Srai(i),
                }
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let r = RType { rd, rs1, rs2 };
                match op {
                    AluOp::Add => Op::Add(r),
                    AluOp::Sub => Op::Sub(r),
                    AluOp::Sll => Op::Sll(r),
                    AluOp::Slt => Op::Slt(r),
                    AluOp::Sltu => Op::Sltu(r),
                    AluOp::Xor => Op::Xor(r),
                    AluOp::Srl => Op::Srl(r),
                    AluOp::Sra => Op::Sra(r),
                    AluOp::Or => Op::Or(r),
                    AluOp::And => Op::And(r),
                    AluOp::Mul => Op::Mul(r),
                    AluOp::Mulh => Op::Mulh(r),
                    AluOp::Mulhsu => Op::Mulhsu(r),
                    AluOp::Mulhu => Op::Mulhu(r),
                    AluOp::Div => Op::Div(r),
                    AluOp::Divu => Op::Divu(r),
                    AluOp::Rem => Op::Rem(r),
                    AluOp::Remu => Op::Remu(r),
                }
            }
            Instr::Fence => Op::Fence,
            Instr::Ecall => Op::Ecall,
            Instr::Ebreak => Op::Ebreak,
            Instr::Custom2 {
                raw,
                rs1,
                rs2,
                rs3,
                rd,
            } => Op::Offload {
                raw,
                rd,
                rs1,
                rs2,
                rs3,
            },
            Instr::Pulp(p) => pulp(p),
        }
    }
}

fn load(op: LoadOp, i: IType) -> Op {
    match op {
        LoadOp::Lb => Op::Lb(i),
        LoadOp::Lh => Op::Lh(i),
        LoadOp::Lw => Op::Lw(i),
        LoadOp::Lbu => Op::Lbu(i),
        LoadOp::Lhu => Op::Lhu(i),
    }
}

fn pulp(p: PulpInstr) -> Op {
    match p {
        PulpInstr::LoadPost {
            op,
            rd,
            rs1,
            offset,
        } => {
            let i = IType {
                rd,
                rs1,
                imm: offset,
            };
            match op {
                LoadOp::Lb => Op::LbPost(i),
                LoadOp::Lh => Op::LhPost(i),
                LoadOp::Lw => Op::LwPost(i),
                LoadOp::Lbu => Op::LbuPost(i),
                LoadOp::Lhu => Op::LhuPost(i),
            }
        }
        PulpInstr::StorePost {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let s = SType {
                rs2,
                rs1,
                off: offset,
            };
            match op {
                StoreOp::Sb => Op::SbPost(s),
                StoreOp::Sh => Op::ShPost(s),
                StoreOp::Sw => Op::SwPost(s),
            }
        }
        PulpInstr::Simd {
            op,
            w,
            rd,
            rs1,
            rs2,
        } => {
            let r = RType { rd, rs1, rs2 };
            match (w, op) {
                (SimdWidth::B, PvOp::Add) => Op::PvAddB(r),
                (SimdWidth::B, PvOp::Sub) => Op::PvSubB(r),
                (SimdWidth::B, PvOp::Max) => Op::PvMaxB(r),
                (SimdWidth::B, PvOp::Min) => Op::PvMinB(r),
                (SimdWidth::B, PvOp::Dotsp) => Op::PvDotspB(r),
                (SimdWidth::B, PvOp::Sdotsp) => Op::PvSdotspB(r),
                (SimdWidth::B, PvOp::Dotup) => Op::PvDotupB(r),
                (SimdWidth::H, PvOp::Add) => Op::PvAddH(r),
                (SimdWidth::H, PvOp::Sub) => Op::PvSubH(r),
                (SimdWidth::H, PvOp::Max) => Op::PvMaxH(r),
                (SimdWidth::H, PvOp::Min) => Op::PvMinH(r),
                (SimdWidth::H, PvOp::Dotsp) => Op::PvDotspH(r),
                (SimdWidth::H, PvOp::Sdotsp) => Op::PvSdotspH(r),
                (SimdWidth::H, PvOp::Dotup) => Op::PvDotupH(r),
            }
        }
        PulpInstr::Mac { rd, rs1, rs2 } => Op::Mac(RType { rd, rs1, rs2 }),
        PulpInstr::MaxS { rd, rs1, rs2 } => Op::MaxS(RType { rd, rs1, rs2 }),
        PulpInstr::MinS { rd, rs1, rs2 } => Op::MinS(RType { rd, rs1, rs2 }),
        PulpInstr::Abs { rd, rs1 } => Op::Abs(RType {
            rd,
            rs1,
            rs2: crate::reg::ZERO,
        }),
        PulpInstr::LoopSetupI {
            loop_id,
            count,
            body_len,
        } => Op::LoopSetupI {
            loop_id,
            count: count.into(),
            body_len: body_len.into(),
        },
        PulpInstr::LoopSetup {
            loop_id,
            count,
            body_len,
        } => Op::LoopSetup {
            loop_id,
            count,
            body_len: body_len.into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{A0, A1};

    fn addi() -> Instr {
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd: A0,
            rs1: A0,
            imm: 1,
        }
    }

    fn branch() -> Instr {
        Instr::Branch {
            op: BranchOp::Ne,
            rs1: A0,
            rs2: A1,
            offset: -8,
        }
    }

    #[test]
    fn ops_are_flat_and_classified() {
        assert_eq!(
            Op::from(addi()),
            Op::Addi(IType {
                rd: A0,
                rs1: A0,
                imm: 1
            })
        );
        assert_eq!(
            Op::from(branch()),
            Op::Bne(BType {
                rs1: A0,
                rs2: A1,
                off: -8
            })
        );
        let div = Op::from(Instr::Op {
            op: AluOp::Div,
            rd: A0,
            rs1: A0,
            rs2: A1,
        });
        assert_eq!(
            div,
            Op::Div(RType {
                rd: A0,
                rs1: A0,
                rs2: A1
            })
        );
        let lw_post = Op::from(Instr::Pulp(PulpInstr::LoadPost {
            op: LoadOp::Lw,
            rd: A0,
            rs1: A1,
            offset: 4,
        }));
        assert!(matches!(lw_post, Op::LwPost(_)));
        let sh = Op::from(Instr::Store {
            op: StoreOp::Sh,
            rs2: A0,
            rs1: A1,
            offset: 2,
        });
        assert!(matches!(sh, Op::Sh(_)));
    }
}
