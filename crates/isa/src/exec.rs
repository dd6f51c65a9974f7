//! Predecoded instructions: one flat [`Op`] per instruction word.
//!
//! The interpreter in `arcane-rv32` originally re-fetched and re-decoded
//! every instruction on every dynamic execution — at 256×256 the Figure 4
//! scalar baseline decodes the same <40-instruction inner loop over a
//! hundred million times. This module defines the predecoded form that
//! amortises that control overhead, the same way ARCANE itself amortises
//! kernel-dispatch overhead over long data-local vector operations
//! (paper §IV): [`crate::rv32::decode`] turns each instruction word
//! straight into an [`Op`], a single-level enum with one variant per
//! operation, whose register indices, immediates, access width, sign
//! extension and branch condition are already resolved, so the core
//! dispatches each retired instruction with one `match`. The core keeps
//! one `Op` per instruction word it has fetched and forgets the words a
//! store overwrites. `Op` is the only host-instruction type: the
//! assembler emits it and [`crate::rv32::encode`] turns it back into a
//! word.

use crate::reg::Gpr;

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
/// Produced by [`crate::rv32::decode`]; every field the engine needs
/// (operation, access width and signedness, branch condition, SIMD lane
/// width) is resolved there, once per static instruction.
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
