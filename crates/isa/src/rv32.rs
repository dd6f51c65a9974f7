//! RV32IM instruction definitions with binary encode/decode.
//!
//! The instruction model covers the full RV32I base integer ISA plus the
//! M extension (the `RV32IM` subset executed by CV32E40X-class cores),
//! the XCVPULP packed-SIMD subset (see [`crate::xcvpulp`]) and a raw
//! *custom-2* escape used by the `xmnmc` matrix extension (decoded at the
//! coprocessor interface, not by the CPU — exactly as in the paper, where
//! the host CPU offloads unknown custom-2 instructions over CV-X-IF).

use crate::reg::Gpr;
use crate::{xcvpulp, DecodeError};
use std::fmt;

/// Conditional branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq` — branch if equal.
    Eq,
    /// `bne` — branch if not equal.
    Ne,
    /// `blt` — branch if less than (signed).
    Lt,
    /// `bge` — branch if greater or equal (signed).
    Ge,
    /// `bltu` — branch if less than (unsigned).
    Ltu,
    /// `bgeu` — branch if greater or equal (unsigned).
    Geu,
}

impl BranchOp {
    const fn funct3(self) -> u32 {
        match self {
            BranchOp::Eq => 0b000,
            BranchOp::Ne => 0b001,
            BranchOp::Lt => 0b100,
            BranchOp::Ge => 0b101,
            BranchOp::Ltu => 0b110,
            BranchOp::Geu => 0b111,
        }
    }

    const fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Eq => "beq",
            BranchOp::Ne => "bne",
            BranchOp::Lt => "blt",
            BranchOp::Ge => "bge",
            BranchOp::Ltu => "bltu",
            BranchOp::Geu => "bgeu",
        }
    }
}

/// Memory load width/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb` — signed byte.
    Lb,
    /// `lh` — signed half-word.
    Lh,
    /// `lw` — word.
    Lw,
    /// `lbu` — unsigned byte.
    Lbu,
    /// `lhu` — unsigned half-word.
    Lhu,
}

impl LoadOp {
    const fn funct3(self) -> u32 {
        match self {
            LoadOp::Lb => 0b000,
            LoadOp::Lh => 0b001,
            LoadOp::Lw => 0b010,
            LoadOp::Lbu => 0b100,
            LoadOp::Lhu => 0b101,
        }
    }

    const fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
        }
    }

    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        }
    }
}

/// Memory store width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb` — byte.
    Sb,
    /// `sh` — half-word.
    Sh,
    /// `sw` — word.
    Sw,
}

impl StoreOp {
    const fn funct3(self) -> u32 {
        match self {
            StoreOp::Sb => 0b000,
            StoreOp::Sh => 0b001,
            StoreOp::Sw => 0b010,
        }
    }

    const fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
        }
    }

    /// Access size in bytes.
    pub const fn size(self) -> u32 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        }
    }
}

/// Register–immediate ALU operation (`OP-IMM` major opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// `addi`.
    Addi,
    /// `slti` — set if less than (signed).
    Slti,
    /// `sltiu` — set if less than (unsigned).
    Sltiu,
    /// `xori`.
    Xori,
    /// `ori`.
    Ori,
    /// `andi`.
    Andi,
    /// `slli` — shift left logical.
    Slli,
    /// `srli` — shift right logical.
    Srli,
    /// `srai` — shift right arithmetic.
    Srai,
}

impl AluImmOp {
    const fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Xori => "xori",
            AluImmOp::Ori => "ori",
            AluImmOp::Andi => "andi",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
        }
    }
}

/// Register–register ALU operation (`OP` major opcode), including the
/// RV32M multiply/divide extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add`.
    Add,
    /// `sub`.
    Sub,
    /// `sll`.
    Sll,
    /// `slt`.
    Slt,
    /// `sltu`.
    Sltu,
    /// `xor`.
    Xor,
    /// `srl`.
    Srl,
    /// `sra`.
    Sra,
    /// `or`.
    Or,
    /// `and`.
    And,
    /// `mul` (RV32M).
    Mul,
    /// `mulh` (RV32M).
    Mulh,
    /// `mulhsu` (RV32M).
    Mulhsu,
    /// `mulhu` (RV32M).
    Mulhu,
    /// `div` (RV32M).
    Div,
    /// `divu` (RV32M).
    Divu,
    /// `rem` (RV32M).
    Rem,
    /// `remu` (RV32M).
    Remu,
}

impl AluOp {
    const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Mulhsu => "mulhsu",
            AluOp::Mulhu => "mulhu",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
        }
    }
}

/// A decoded RV32 instruction (RV32IM + XCVPULP subset + custom-2 escape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `lui rd, imm` — load upper immediate (`imm` already shifted).
    Lui {
        /// Destination register.
        rd: Gpr,
        /// Upper-immediate value with the low 12 bits zero.
        imm: u32,
    },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Gpr,
        /// Upper-immediate value with the low 12 bits zero.
        imm: u32,
    },
    /// `jal rd, offset` — jump and link (offset relative to this PC).
    Jal {
        /// Link register.
        rd: Gpr,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr {
        /// Link register.
        rd: Gpr,
        /// Base register.
        rs1: Gpr,
        /// Signed byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison performed.
        op: BranchOp,
        /// First compared register.
        rs1: Gpr,
        /// Second compared register.
        rs2: Gpr,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// Memory load.
    Load {
        /// Width/signedness.
        op: LoadOp,
        /// Destination register.
        rd: Gpr,
        /// Base address register.
        rs1: Gpr,
        /// Signed byte offset.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Width.
        op: StoreOp,
        /// Source data register.
        rs2: Gpr,
        /// Base address register.
        rs1: Gpr,
        /// Signed byte offset.
        offset: i32,
    },
    /// Register–immediate ALU operation.
    OpImm {
        /// Operation.
        op: AluImmOp,
        /// Destination register.
        rd: Gpr,
        /// Source register.
        rs1: Gpr,
        /// Sign-extended immediate (shift amount for shifts).
        imm: i32,
    },
    /// Register–register ALU operation (incl. RV32M).
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Gpr,
        /// First source register.
        rs1: Gpr,
        /// Second source register.
        rs2: Gpr,
    },
    /// `fence` — treated as a no-op by the in-order model.
    Fence,
    /// `ecall` — environment call (terminates simulation).
    Ecall,
    /// `ebreak` — breakpoint (terminates simulation).
    Ebreak,
    /// XCVPULP extension instruction (CV32E40PX baseline only).
    Pulp(xcvpulp::PulpInstr),
    /// Raw RISC-V *custom-2* (opcode `0x5b`) instruction.
    ///
    /// The CPU does not interpret this; it is offered to the CV-X-IF
    /// coprocessor interface together with the values of `rs1`, `rs2`
    /// and `rs3` — the offload mechanism of the paper's §III-B.
    Custom2 {
        /// The full 32-bit encoding (carries `func5` and the width).
        raw: u32,
        /// First source register (R4-type `rs1` field).
        rs1: Gpr,
        /// Second source register (R4-type `rs2` field).
        rs2: Gpr,
        /// Third source register (R4-type `rs3` field).
        rs3: Gpr,
        /// Destination register (unused by `xmnmc`, kept for generality).
        rd: Gpr,
    },
}

/// Major opcodes used by the encoder/decoder.
pub(crate) mod opcode {
    pub(crate) const LUI: u32 = 0b011_0111;
    pub(crate) const AUIPC: u32 = 0b001_0111;
    pub(crate) const JAL: u32 = 0b110_1111;
    pub(crate) const JALR: u32 = 0b110_0111;
    pub(crate) const BRANCH: u32 = 0b110_0011;
    pub(crate) const LOAD: u32 = 0b000_0011;
    pub(crate) const STORE: u32 = 0b010_0011;
    pub(crate) const OP_IMM: u32 = 0b001_0011;
    pub(crate) const OP: u32 = 0b011_0011;
    pub(crate) const MISC_MEM: u32 = 0b000_1111;
    pub(crate) const SYSTEM: u32 = 0b111_0011;
    /// custom-0: XCVPULP post-increment memory + scalar DSP ops (local encoding).
    pub(crate) const CUSTOM0: u32 = 0b000_1011;
    /// custom-1: XCVPULP packed-SIMD + hardware loops (local encoding).
    pub(crate) const CUSTOM1: u32 = 0b010_1011;
    /// custom-2: the `xmnmc` matrix extension (as in the paper, `0x5b`).
    pub(crate) const CUSTOM2: u32 = 0b101_1011;
}

#[inline]
fn bits(word: u32, hi: u32, lo: u32) -> u32 {
    (word >> lo) & ((1u32 << (hi - lo + 1)) - 1)
}

#[inline]
fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn imm_i(word: u32) -> i32 {
    sign_extend(bits(word, 31, 20), 12)
}

fn imm_s(word: u32) -> i32 {
    sign_extend((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)
}

fn imm_b(word: u32) -> i32 {
    let v = (bits(word, 31, 31) << 12)
        | (bits(word, 7, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1);
    sign_extend(v, 13)
}

fn imm_j(word: u32) -> i32 {
    let v = (bits(word, 31, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bits(word, 20, 20) << 11)
        | (bits(word, 30, 21) << 1);
    sign_extend(v, 21)
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError`] when the word does not correspond to a
/// supported RV32IM / XCVPULP / custom-2 instruction.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let op = bits(word, 6, 0);
    let rd = Gpr::from_bits(bits(word, 11, 7));
    let rs1 = Gpr::from_bits(bits(word, 19, 15));
    let rs2 = Gpr::from_bits(bits(word, 24, 20));
    let funct3 = bits(word, 14, 12);
    let funct7 = bits(word, 31, 25);

    match op {
        opcode::LUI => Ok(Instr::Lui {
            rd,
            imm: word & 0xffff_f000,
        }),
        opcode::AUIPC => Ok(Instr::Auipc {
            rd,
            imm: word & 0xffff_f000,
        }),
        opcode::JAL => Ok(Instr::Jal {
            rd,
            offset: imm_j(word),
        }),
        opcode::JALR => {
            if funct3 != 0 {
                return Err(DecodeError::new(word, "jalr funct3 must be 0"));
            }
            Ok(Instr::Jalr {
                rd,
                rs1,
                offset: imm_i(word),
            })
        }
        opcode::BRANCH => {
            let bop = match funct3 {
                0b000 => BranchOp::Eq,
                0b001 => BranchOp::Ne,
                0b100 => BranchOp::Lt,
                0b101 => BranchOp::Ge,
                0b110 => BranchOp::Ltu,
                0b111 => BranchOp::Geu,
                _ => return Err(DecodeError::new(word, "unknown branch funct3")),
            };
            Ok(Instr::Branch {
                op: bop,
                rs1,
                rs2,
                offset: imm_b(word),
            })
        }
        opcode::LOAD => {
            let lop = match funct3 {
                0b000 => LoadOp::Lb,
                0b001 => LoadOp::Lh,
                0b010 => LoadOp::Lw,
                0b100 => LoadOp::Lbu,
                0b101 => LoadOp::Lhu,
                _ => return Err(DecodeError::new(word, "unknown load funct3")),
            };
            Ok(Instr::Load {
                op: lop,
                rd,
                rs1,
                offset: imm_i(word),
            })
        }
        opcode::STORE => {
            let sop = match funct3 {
                0b000 => StoreOp::Sb,
                0b001 => StoreOp::Sh,
                0b010 => StoreOp::Sw,
                _ => return Err(DecodeError::new(word, "unknown store funct3")),
            };
            Ok(Instr::Store {
                op: sop,
                rs2,
                rs1,
                offset: imm_s(word),
            })
        }
        opcode::OP_IMM => {
            let iop = match funct3 {
                0b000 => AluImmOp::Addi,
                0b010 => AluImmOp::Slti,
                0b011 => AluImmOp::Sltiu,
                0b100 => AluImmOp::Xori,
                0b110 => AluImmOp::Ori,
                0b111 => AluImmOp::Andi,
                0b001 => {
                    if funct7 != 0 {
                        return Err(DecodeError::new(word, "slli funct7 must be 0"));
                    }
                    AluImmOp::Slli
                }
                0b101 => match funct7 {
                    0b000_0000 => AluImmOp::Srli,
                    0b010_0000 => AluImmOp::Srai,
                    _ => return Err(DecodeError::new(word, "unknown shift funct7")),
                },
                _ => unreachable!(),
            };
            let imm = match iop {
                AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => bits(word, 24, 20) as i32,
                _ => imm_i(word),
            };
            Ok(Instr::OpImm {
                op: iop,
                rd,
                rs1,
                imm,
            })
        }
        opcode::OP => {
            let aop = match (funct7, funct3) {
                (0b000_0000, 0b000) => AluOp::Add,
                (0b010_0000, 0b000) => AluOp::Sub,
                (0b000_0000, 0b001) => AluOp::Sll,
                (0b000_0000, 0b010) => AluOp::Slt,
                (0b000_0000, 0b011) => AluOp::Sltu,
                (0b000_0000, 0b100) => AluOp::Xor,
                (0b000_0000, 0b101) => AluOp::Srl,
                (0b010_0000, 0b101) => AluOp::Sra,
                (0b000_0000, 0b110) => AluOp::Or,
                (0b000_0000, 0b111) => AluOp::And,
                (0b000_0001, 0b000) => AluOp::Mul,
                (0b000_0001, 0b001) => AluOp::Mulh,
                (0b000_0001, 0b010) => AluOp::Mulhsu,
                (0b000_0001, 0b011) => AluOp::Mulhu,
                (0b000_0001, 0b100) => AluOp::Div,
                (0b000_0001, 0b101) => AluOp::Divu,
                (0b000_0001, 0b110) => AluOp::Rem,
                (0b000_0001, 0b111) => AluOp::Remu,
                _ => return Err(DecodeError::new(word, "unknown OP funct7/funct3")),
            };
            Ok(Instr::Op {
                op: aop,
                rd,
                rs1,
                rs2,
            })
        }
        opcode::MISC_MEM => Ok(Instr::Fence),
        opcode::SYSTEM => match bits(word, 31, 20) {
            0 => Ok(Instr::Ecall),
            1 => Ok(Instr::Ebreak),
            _ => Err(DecodeError::new(word, "unsupported SYSTEM instruction")),
        },
        opcode::CUSTOM0 | opcode::CUSTOM1 => xcvpulp::decode(word).map(Instr::Pulp),
        opcode::CUSTOM2 => Ok(Instr::Custom2 {
            raw: word,
            rs1,
            rs2,
            rs3: Gpr::from_bits(bits(word, 31, 27)),
            rd,
        }),
        _ => Err(DecodeError::new(word, "unknown major opcode")),
    }
}

fn enc_r(opcode: u32, funct7: u32, funct3: u32, rd: Gpr, rs1: Gpr, rs2: Gpr) -> u32 {
    (funct7 << 25)
        | ((rs2.index() as u32) << 20)
        | ((rs1.index() as u32) << 15)
        | (funct3 << 12)
        | ((rd.index() as u32) << 7)
        | opcode
}

fn enc_i(opcode: u32, funct3: u32, rd: Gpr, rs1: Gpr, imm: i32) -> u32 {
    ((imm as u32 & 0xfff) << 20)
        | ((rs1.index() as u32) << 15)
        | (funct3 << 12)
        | ((rd.index() as u32) << 7)
        | opcode
}

fn enc_s(opcode: u32, funct3: u32, rs1: Gpr, rs2: Gpr, imm: i32) -> u32 {
    let imm = imm as u32;
    ((imm >> 5 & 0x7f) << 25)
        | ((rs2.index() as u32) << 20)
        | ((rs1.index() as u32) << 15)
        | (funct3 << 12)
        | ((imm & 0x1f) << 7)
        | opcode
}

fn enc_b(opcode: u32, funct3: u32, rs1: Gpr, rs2: Gpr, offset: i32) -> u32 {
    let imm = offset as u32;
    ((imm >> 12 & 1) << 31)
        | ((imm >> 5 & 0x3f) << 25)
        | ((rs2.index() as u32) << 20)
        | ((rs1.index() as u32) << 15)
        | (funct3 << 12)
        | ((imm >> 1 & 0xf) << 8)
        | ((imm >> 11 & 1) << 7)
        | opcode
}

fn enc_j(opcode: u32, rd: Gpr, offset: i32) -> u32 {
    let imm = offset as u32;
    ((imm >> 20 & 1) << 31)
        | ((imm >> 1 & 0x3ff) << 21)
        | ((imm >> 11 & 1) << 20)
        | ((imm >> 12 & 0xff) << 12)
        | ((rd.index() as u32) << 7)
        | opcode
}

/// Encodes an instruction into its 32-bit binary form.
///
/// Encoding followed by [`decode`] round-trips for every supported
/// instruction (verified by property tests).
pub fn encode(instr: &Instr) -> u32 {
    match *instr {
        Instr::Lui { rd, imm } => (imm & 0xffff_f000) | ((rd.index() as u32) << 7) | opcode::LUI,
        Instr::Auipc { rd, imm } => {
            (imm & 0xffff_f000) | ((rd.index() as u32) << 7) | opcode::AUIPC
        }
        Instr::Jal { rd, offset } => enc_j(opcode::JAL, rd, offset),
        Instr::Jalr { rd, rs1, offset } => enc_i(opcode::JALR, 0, rd, rs1, offset),
        Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => enc_b(opcode::BRANCH, op.funct3(), rs1, rs2, offset),
        Instr::Load {
            op,
            rd,
            rs1,
            offset,
        } => enc_i(opcode::LOAD, op.funct3(), rd, rs1, offset),
        Instr::Store {
            op,
            rs2,
            rs1,
            offset,
        } => enc_s(opcode::STORE, op.funct3(), rs1, rs2, offset),
        Instr::OpImm { op, rd, rs1, imm } => {
            let (funct3, imm) = match op {
                AluImmOp::Addi => (0b000, imm),
                AluImmOp::Slti => (0b010, imm),
                AluImmOp::Sltiu => (0b011, imm),
                AluImmOp::Xori => (0b100, imm),
                AluImmOp::Ori => (0b110, imm),
                AluImmOp::Andi => (0b111, imm),
                AluImmOp::Slli => (0b001, imm & 0x1f),
                AluImmOp::Srli => (0b101, imm & 0x1f),
                AluImmOp::Srai => (0b101, (imm & 0x1f) | 0x400),
            };
            enc_i(opcode::OP_IMM, funct3, rd, rs1, imm)
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let (funct7, funct3) = match op {
                AluOp::Add => (0b000_0000, 0b000),
                AluOp::Sub => (0b010_0000, 0b000),
                AluOp::Sll => (0b000_0000, 0b001),
                AluOp::Slt => (0b000_0000, 0b010),
                AluOp::Sltu => (0b000_0000, 0b011),
                AluOp::Xor => (0b000_0000, 0b100),
                AluOp::Srl => (0b000_0000, 0b101),
                AluOp::Sra => (0b010_0000, 0b101),
                AluOp::Or => (0b000_0000, 0b110),
                AluOp::And => (0b000_0000, 0b111),
                AluOp::Mul => (0b000_0001, 0b000),
                AluOp::Mulh => (0b000_0001, 0b001),
                AluOp::Mulhsu => (0b000_0001, 0b010),
                AluOp::Mulhu => (0b000_0001, 0b011),
                AluOp::Div => (0b000_0001, 0b100),
                AluOp::Divu => (0b000_0001, 0b101),
                AluOp::Rem => (0b000_0001, 0b110),
                AluOp::Remu => (0b000_0001, 0b111),
            };
            enc_r(opcode::OP, funct7, funct3, rd, rs1, rs2)
        }
        Instr::Fence => opcode::MISC_MEM,
        Instr::Ecall => opcode::SYSTEM,
        Instr::Ebreak => (1 << 20) | opcode::SYSTEM,
        Instr::Pulp(p) => xcvpulp::encode(&p),
        Instr::Custom2 { raw, .. } => raw,
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic()),
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic()),
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic()),
            Instr::OpImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::Fence => f.write_str("fence"),
            Instr::Ecall => f.write_str("ecall"),
            Instr::Ebreak => f.write_str("ebreak"),
            Instr::Pulp(p) => p.fmt(f),
            Instr::Custom2 { raw, .. } => write!(f, ".insn custom2 {raw:#010x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    fn roundtrip(i: Instr) {
        let w = encode(&i);
        let d = decode(w).unwrap_or_else(|e| panic!("{i}: {e}"));
        assert_eq!(d, i, "encoding {w:#010x}");
    }

    #[test]
    fn roundtrip_ui_types() {
        roundtrip(Instr::Lui {
            rd: A0,
            imm: 0xdead_b000,
        });
        roundtrip(Instr::Auipc {
            rd: T3,
            imm: 0x0000_1000,
        });
    }

    #[test]
    fn roundtrip_jumps() {
        roundtrip(Instr::Jal {
            rd: RA,
            offset: -2048,
        });
        roundtrip(Instr::Jal {
            rd: ZERO,
            offset: 0xffffe,
        });
        roundtrip(Instr::Jalr {
            rd: ZERO,
            rs1: RA,
            offset: 0,
        });
    }

    #[test]
    fn roundtrip_branches() {
        for op in [
            BranchOp::Eq,
            BranchOp::Ne,
            BranchOp::Lt,
            BranchOp::Ge,
            BranchOp::Ltu,
            BranchOp::Geu,
        ] {
            roundtrip(Instr::Branch {
                op,
                rs1: A0,
                rs2: A1,
                offset: -4096,
            });
            roundtrip(Instr::Branch {
                op,
                rs1: T0,
                rs2: T1,
                offset: 4094,
            });
        }
    }

    #[test]
    fn roundtrip_memory() {
        for op in [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu] {
            roundtrip(Instr::Load {
                op,
                rd: S1,
                rs1: SP,
                offset: -1,
            });
        }
        for op in [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw] {
            roundtrip(Instr::Store {
                op,
                rs2: A2,
                rs1: SP,
                offset: 2047,
            });
        }
    }

    #[test]
    fn roundtrip_alu() {
        for op in [
            AluImmOp::Addi,
            AluImmOp::Slti,
            AluImmOp::Sltiu,
            AluImmOp::Xori,
            AluImmOp::Ori,
            AluImmOp::Andi,
        ] {
            roundtrip(Instr::OpImm {
                op,
                rd: A3,
                rs1: A4,
                imm: -2048,
            });
        }
        for op in [AluImmOp::Slli, AluImmOp::Srli, AluImmOp::Srai] {
            roundtrip(Instr::OpImm {
                op,
                rd: A3,
                rs1: A4,
                imm: 31,
            });
        }
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
            AluOp::Mul,
            AluOp::Mulh,
            AluOp::Mulhsu,
            AluOp::Mulhu,
            AluOp::Div,
            AluOp::Divu,
            AluOp::Rem,
            AluOp::Remu,
        ] {
            roundtrip(Instr::Op {
                op,
                rd: T4,
                rs1: T5,
                rs2: T6,
            });
        }
    }

    #[test]
    fn roundtrip_system() {
        roundtrip(Instr::Ecall);
        roundtrip(Instr::Ebreak);
    }

    #[test]
    fn custom2_reaches_coprocessor() {
        // Encode an arbitrary custom-2 word; the CPU must expose rs1/rs2/rs3.
        let raw: u32 = (7 << 27) | (3 << 20) | (2 << 15) | opcode::CUSTOM2;
        match decode(raw).unwrap() {
            Instr::Custom2 { rs1, rs2, rs3, .. } => {
                assert_eq!(rs1.index(), 2);
                assert_eq!(rs2.index(), 3);
                assert_eq!(rs3.index(), 7);
            }
            other => panic!("expected custom2, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(0xffff_ffff).is_err());
        assert!(decode(0x0000_0000).is_err());
    }

    #[test]
    fn display_is_informative() {
        let i = Instr::Load {
            op: LoadOp::Lw,
            rd: A0,
            rs1: SP,
            offset: 16,
        };
        assert_eq!(i.to_string(), "lw a0, 16(sp)");
    }
}
