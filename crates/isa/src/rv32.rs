//! RV32IM + XCVPULP binary encoding: [`decode`] turns a 32-bit word
//! straight into the flat [`Op`] the core executes, and [`encode`] is
//! its inverse.
//!
//! The covered instructions are the full RV32I base integer ISA plus the
//! M extension (the `RV32IM` subset executed by CV32E40X-class cores),
//! the XCVPULP packed-SIMD subset in the custom-0/custom-1 spaces (see
//! [`crate::xcvpulp`]) and a raw *custom-2* escape used by the `xmnmc`
//! matrix extension. A custom-2 word decodes to [`Op::Offload`] without
//! being interpreted: the host CPU offers it over CV-X-IF, exactly as in
//! the paper (§III-B).

use crate::exec::{BType, IType, Op, RType, SType, UType};
use crate::reg::{Gpr, ZERO};
use crate::DecodeError;
use arcane_sim::Sew;

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
    /// The load that reads one `sew` element sign-extended: `lb`, `lh`
    /// or `lw`.
    pub const fn signed(sew: Sew) -> LoadOp {
        match sew {
            Sew::Byte => LoadOp::Lb,
            Sew::Half => LoadOp::Lh,
            Sew::Word => LoadOp::Lw,
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
    /// custom-0: XCVPULP post-increment memory ops (local encoding).
    pub(crate) const CUSTOM0: u32 = 0b000_1011;
    /// custom-1: XCVPULP packed-SIMD, scalar DSP ops and hardware loops
    /// (local encoding).
    pub(crate) const CUSTOM1: u32 = 0b010_1011;
    /// custom-2: the `xmnmc` matrix extension (as in the paper, `0x5b`).
    pub(crate) const CUSTOM2: u32 = 0b101_1011;
}

use opcode::*;

/// The two `SYSTEM` words the core executes; every other `SYSTEM` word
/// (the CSR instructions among them) is rejected.
const ECALL: u32 = SYSTEM;
const EBREAK: u32 = 1 << 20 | SYSTEM;

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn imm_s(word: u32) -> i32 {
    sign_extend((word >> 25) << 5 | (word >> 7 & 0x1f), 12)
}

fn imm_b(word: u32) -> i32 {
    let v = (word >> 31) << 12
        | (word >> 7 & 1) << 11
        | (word >> 25 & 0x3f) << 5
        | (word >> 8 & 0xf) << 1;
    sign_extend(v, 13)
}

fn imm_j(word: u32) -> i32 {
    let v = (word >> 31) << 20
        | (word >> 12 & 0xff) << 12
        | (word >> 20 & 1) << 11
        | (word >> 21 & 0x3ff) << 1;
    sign_extend(v, 21)
}

/// The custom-2 word `word` as an op offered to the coprocessor, with
/// the R4-type register fields it names.
pub(crate) const fn offload(word: u32) -> Op {
    Op::Offload {
        raw: word,
        rd: Gpr::from_bits(word >> 7),
        rs1: Gpr::from_bits(word >> 15),
        rs2: Gpr::from_bits(word >> 20),
        rs3: Gpr::from_bits(word >> 27),
    }
}

/// Decodes a 32-bit instruction word into the op the core executes.
///
/// # Errors
///
/// Returns [`DecodeError`] when the word is not a supported RV32IM /
/// XCVPULP / custom-2 instruction.
pub fn decode(word: u32) -> Result<Op, DecodeError> {
    let rd = Gpr::from_bits(word >> 7);
    let rs1 = Gpr::from_bits(word >> 15);
    let rs2 = Gpr::from_bits(word >> 20);
    let funct3 = word >> 12 & 0x7;
    let funct7 = word >> 25;
    let i = IType {
        rd,
        rs1,
        imm: (word as i32) >> 20,
    };
    let s = SType {
        rs2,
        rs1,
        off: imm_s(word),
    };
    let r = RType { rd, rs1, rs2 };
    let err = |reason| Err(DecodeError::new(word, reason));
    Ok(match word & 0x7f {
        LUI => Op::Lui(UType {
            rd,
            imm: word & 0xffff_f000,
        }),
        AUIPC => Op::Auipc(UType {
            rd,
            imm: word & 0xffff_f000,
        }),
        JAL => Op::Jal(UType {
            rd,
            imm: imm_j(word) as u32,
        }),
        JALR if funct3 == 0 => Op::Jalr(i),
        JALR => return err("jalr funct3 must be 0"),
        BRANCH => {
            let b = BType {
                rs1,
                rs2,
                off: imm_b(word),
            };
            match funct3 {
                0b000 => Op::Beq(b),
                0b001 => Op::Bne(b),
                0b100 => Op::Blt(b),
                0b101 => Op::Bge(b),
                0b110 => Op::Bltu(b),
                0b111 => Op::Bgeu(b),
                _ => return err("unknown branch funct3"),
            }
        }
        LOAD => match funct3 {
            0b000 => Op::Lb(i),
            0b001 => Op::Lh(i),
            0b010 => Op::Lw(i),
            0b100 => Op::Lbu(i),
            0b101 => Op::Lhu(i),
            _ => return err("unknown load funct3"),
        },
        STORE => match funct3 {
            0b000 => Op::Sb(s),
            0b001 => Op::Sh(s),
            0b010 => Op::Sw(s),
            _ => return err("unknown store funct3"),
        },
        OP_IMM => {
            let sh = IType {
                imm: (word >> 20 & 0x1f) as i32,
                ..i
            };
            match (funct3, funct7) {
                (0b000, _) => Op::Addi(i),
                (0b010, _) => Op::Slti(i),
                (0b011, _) => Op::Sltiu(i),
                (0b100, _) => Op::Xori(i),
                (0b110, _) => Op::Ori(i),
                (0b111, _) => Op::Andi(i),
                (0b001, 0) => Op::Slli(sh),
                (0b101, 0) => Op::Srli(sh),
                (0b101, 0b010_0000) => Op::Srai(sh),
                (0b001, _) => return err("slli funct7 must be 0"),
                _ => return err("unknown shift funct7"),
            }
        }
        OP => match (funct7, funct3) {
            (0b000_0000, 0b000) => Op::Add(r),
            (0b010_0000, 0b000) => Op::Sub(r),
            (0b000_0000, 0b001) => Op::Sll(r),
            (0b000_0000, 0b010) => Op::Slt(r),
            (0b000_0000, 0b011) => Op::Sltu(r),
            (0b000_0000, 0b100) => Op::Xor(r),
            (0b000_0000, 0b101) => Op::Srl(r),
            (0b010_0000, 0b101) => Op::Sra(r),
            (0b000_0000, 0b110) => Op::Or(r),
            (0b000_0000, 0b111) => Op::And(r),
            (0b000_0001, 0b000) => Op::Mul(r),
            (0b000_0001, 0b001) => Op::Mulh(r),
            (0b000_0001, 0b010) => Op::Mulhsu(r),
            (0b000_0001, 0b011) => Op::Mulhu(r),
            (0b000_0001, 0b100) => Op::Div(r),
            (0b000_0001, 0b101) => Op::Divu(r),
            (0b000_0001, 0b110) => Op::Rem(r),
            (0b000_0001, 0b111) => Op::Remu(r),
            _ => return err("unknown OP funct7/funct3"),
        },
        // RV32I `fence` (any predecessor/successor set); `fence.i`
        // (funct3 1) belongs to Zifencei, which the host lacks.
        MISC_MEM if funct3 == 0 => Op::Fence,
        MISC_MEM => return err("unknown MISC-MEM funct3"),
        SYSTEM => match word {
            ECALL => Op::Ecall,
            EBREAK => Op::Ebreak,
            _ => return err("unsupported SYSTEM instruction"),
        },
        // Post-increment memory ops: loads keep their RV32 funct3,
        // stores take the three codes loads leave free.
        CUSTOM0 => match funct3 {
            0b000 => Op::LbPost(i),
            0b001 => Op::LhPost(i),
            0b010 => Op::LwPost(i),
            0b100 => Op::LbuPost(i),
            0b101 => Op::LhuPost(i),
            0b011 => Op::SbPost(s),
            0b110 => Op::ShPost(s),
            _ => Op::SwPost(s),
        },
        // funct3 0 holds the R-type ops (packed SIMD: funct7 is the
        // operation code times two plus the `.h` bit); funct3 1 and 2
        // the hardware loops, with the loop id in bit 7.
        CUSTOM1 => match (funct3, funct7) {
            (0, 0x00) => Op::PvAddB(r),
            (0, 0x01) => Op::PvAddH(r),
            (0, 0x02) => Op::PvSubB(r),
            (0, 0x03) => Op::PvSubH(r),
            (0, 0x04) => Op::PvMaxB(r),
            (0, 0x05) => Op::PvMaxH(r),
            (0, 0x06) => Op::PvMinB(r),
            (0, 0x07) => Op::PvMinH(r),
            (0, 0x08) => Op::PvDotspB(r),
            (0, 0x09) => Op::PvDotspH(r),
            (0, 0x0a) => Op::PvSdotspB(r),
            (0, 0x0b) => Op::PvSdotspH(r),
            (0, 0x0c) => Op::PvDotupB(r),
            (0, 0x0d) => Op::PvDotupH(r),
            (0, 0x40) => Op::Mac(r),
            (0, 0x41) => Op::MaxS(r),
            (0, 0x42) => Op::MinS(r),
            (0, 0x43) => Op::Abs(RType { rs2: ZERO, ..r }),
            (0, f) if f < 0x40 => return err("unknown pv op"),
            (0, _) => return err("unknown custom-1 funct7"),
            (1, _) => Op::LoopSetupI {
                loop_id: word >> 7 & 1 == 1,
                count: word >> 20,
                body_len: word >> 15 & 0x1f,
            },
            (2, _) => Op::LoopSetup {
                loop_id: word >> 7 & 1 == 1,
                count: rs1,
                body_len: word >> 20,
            },
            _ => return err("unknown custom-1 funct3"),
        },
        CUSTOM2 => offload(word),
        _ => return err("unknown major opcode"),
    })
}

fn r_type(opcode: u32, funct7: u32, funct3: u32, r: RType) -> u32 {
    funct7 << 25
        | (r.rs2.index() as u32) << 20
        | (r.rs1.index() as u32) << 15
        | funct3 << 12
        | (r.rd.index() as u32) << 7
        | opcode
}

fn i_type(opcode: u32, funct3: u32, i: IType) -> u32 {
    (i.imm as u32 & 0xfff) << 20
        | (i.rs1.index() as u32) << 15
        | funct3 << 12
        | (i.rd.index() as u32) << 7
        | opcode
}

fn shift(funct3: u32, funct7: u32, i: IType) -> u32 {
    i_type(
        OP_IMM,
        funct3,
        IType {
            imm: (funct7 << 5) as i32 | i.imm & 0x1f,
            ..i
        },
    )
}

fn s_type(opcode: u32, funct3: u32, s: SType) -> u32 {
    let imm = s.off as u32;
    (imm >> 5 & 0x7f) << 25
        | (s.rs2.index() as u32) << 20
        | (s.rs1.index() as u32) << 15
        | funct3 << 12
        | (imm & 0x1f) << 7
        | opcode
}

fn b_type(funct3: u32, b: BType) -> u32 {
    let imm = b.off as u32;
    (imm >> 12 & 1) << 31
        | (imm >> 5 & 0x3f) << 25
        | (b.rs2.index() as u32) << 20
        | (b.rs1.index() as u32) << 15
        | funct3 << 12
        | (imm >> 1 & 0xf) << 8
        | (imm >> 11 & 1) << 7
        | BRANCH
}

fn u_type(opcode: u32, u: UType) -> u32 {
    u.imm & 0xffff_f000 | (u.rd.index() as u32) << 7 | opcode
}

fn j_type(u: UType) -> u32 {
    let imm = u.imm;
    (imm >> 20 & 1) << 31
        | (imm >> 1 & 0x3ff) << 21
        | (imm >> 11 & 1) << 20
        | (imm >> 12 & 0xff) << 12
        | (u.rd.index() as u32) << 7
        | JAL
}

fn loop_setup(loop_id: bool, funct3: u32, field_31_20: u32, field_19_15: u32) -> u32 {
    (field_31_20 & 0xfff) << 20 | field_19_15 << 15 | funct3 << 12 | (loop_id as u32) << 7 | CUSTOM1
}

/// Encodes an op into its 32-bit instruction word, the inverse of
/// [`decode`]: `decode(encode(&op)) == Ok(op)` for every op whose
/// fields fit their encodings (property-tested).
pub fn encode(op: &Op) -> u32 {
    match *op {
        Op::Lui(u) => u_type(LUI, u),
        Op::Auipc(u) => u_type(AUIPC, u),
        Op::Jal(u) => j_type(u),
        Op::Jalr(i) => i_type(JALR, 0, i),
        Op::Beq(b) => b_type(0b000, b),
        Op::Bne(b) => b_type(0b001, b),
        Op::Blt(b) => b_type(0b100, b),
        Op::Bge(b) => b_type(0b101, b),
        Op::Bltu(b) => b_type(0b110, b),
        Op::Bgeu(b) => b_type(0b111, b),
        Op::Lb(i) => i_type(LOAD, 0b000, i),
        Op::Lh(i) => i_type(LOAD, 0b001, i),
        Op::Lw(i) => i_type(LOAD, 0b010, i),
        Op::Lbu(i) => i_type(LOAD, 0b100, i),
        Op::Lhu(i) => i_type(LOAD, 0b101, i),
        Op::Sb(s) => s_type(STORE, 0b000, s),
        Op::Sh(s) => s_type(STORE, 0b001, s),
        Op::Sw(s) => s_type(STORE, 0b010, s),
        Op::Addi(i) => i_type(OP_IMM, 0b000, i),
        Op::Slti(i) => i_type(OP_IMM, 0b010, i),
        Op::Sltiu(i) => i_type(OP_IMM, 0b011, i),
        Op::Xori(i) => i_type(OP_IMM, 0b100, i),
        Op::Ori(i) => i_type(OP_IMM, 0b110, i),
        Op::Andi(i) => i_type(OP_IMM, 0b111, i),
        Op::Slli(i) => shift(0b001, 0, i),
        Op::Srli(i) => shift(0b101, 0, i),
        Op::Srai(i) => shift(0b101, 0b010_0000, i),
        Op::Add(r) => r_type(OP, 0b000_0000, 0b000, r),
        Op::Sub(r) => r_type(OP, 0b010_0000, 0b000, r),
        Op::Sll(r) => r_type(OP, 0b000_0000, 0b001, r),
        Op::Slt(r) => r_type(OP, 0b000_0000, 0b010, r),
        Op::Sltu(r) => r_type(OP, 0b000_0000, 0b011, r),
        Op::Xor(r) => r_type(OP, 0b000_0000, 0b100, r),
        Op::Srl(r) => r_type(OP, 0b000_0000, 0b101, r),
        Op::Sra(r) => r_type(OP, 0b010_0000, 0b101, r),
        Op::Or(r) => r_type(OP, 0b000_0000, 0b110, r),
        Op::And(r) => r_type(OP, 0b000_0000, 0b111, r),
        Op::Mul(r) => r_type(OP, 0b000_0001, 0b000, r),
        Op::Mulh(r) => r_type(OP, 0b000_0001, 0b001, r),
        Op::Mulhsu(r) => r_type(OP, 0b000_0001, 0b010, r),
        Op::Mulhu(r) => r_type(OP, 0b000_0001, 0b011, r),
        Op::Div(r) => r_type(OP, 0b000_0001, 0b100, r),
        Op::Divu(r) => r_type(OP, 0b000_0001, 0b101, r),
        Op::Rem(r) => r_type(OP, 0b000_0001, 0b110, r),
        Op::Remu(r) => r_type(OP, 0b000_0001, 0b111, r),
        Op::Fence => MISC_MEM,
        Op::Ecall => ECALL,
        Op::Ebreak => EBREAK,
        Op::LbPost(i) => i_type(CUSTOM0, 0b000, i),
        Op::LhPost(i) => i_type(CUSTOM0, 0b001, i),
        Op::LwPost(i) => i_type(CUSTOM0, 0b010, i),
        Op::LbuPost(i) => i_type(CUSTOM0, 0b100, i),
        Op::LhuPost(i) => i_type(CUSTOM0, 0b101, i),
        Op::SbPost(s) => s_type(CUSTOM0, 0b011, s),
        Op::ShPost(s) => s_type(CUSTOM0, 0b110, s),
        Op::SwPost(s) => s_type(CUSTOM0, 0b111, s),
        Op::PvAddB(r) => r_type(CUSTOM1, 0x00, 0, r),
        Op::PvAddH(r) => r_type(CUSTOM1, 0x01, 0, r),
        Op::PvSubB(r) => r_type(CUSTOM1, 0x02, 0, r),
        Op::PvSubH(r) => r_type(CUSTOM1, 0x03, 0, r),
        Op::PvMaxB(r) => r_type(CUSTOM1, 0x04, 0, r),
        Op::PvMaxH(r) => r_type(CUSTOM1, 0x05, 0, r),
        Op::PvMinB(r) => r_type(CUSTOM1, 0x06, 0, r),
        Op::PvMinH(r) => r_type(CUSTOM1, 0x07, 0, r),
        Op::PvDotspB(r) => r_type(CUSTOM1, 0x08, 0, r),
        Op::PvDotspH(r) => r_type(CUSTOM1, 0x09, 0, r),
        Op::PvSdotspB(r) => r_type(CUSTOM1, 0x0a, 0, r),
        Op::PvSdotspH(r) => r_type(CUSTOM1, 0x0b, 0, r),
        Op::PvDotupB(r) => r_type(CUSTOM1, 0x0c, 0, r),
        Op::PvDotupH(r) => r_type(CUSTOM1, 0x0d, 0, r),
        Op::Mac(r) => r_type(CUSTOM1, 0x40, 0, r),
        Op::MaxS(r) => r_type(CUSTOM1, 0x41, 0, r),
        Op::MinS(r) => r_type(CUSTOM1, 0x42, 0, r),
        Op::Abs(r) => r_type(CUSTOM1, 0x43, 0, RType { rs2: ZERO, ..r }),
        Op::LoopSetupI {
            loop_id,
            count,
            body_len,
        } => loop_setup(loop_id, 1, count, body_len & 0x1f),
        Op::LoopSetup {
            loop_id,
            count,
            body_len,
        } => loop_setup(loop_id, 2, body_len, count.index() as u32),
        Op::Offload { raw, .. } => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn custom2_reaches_coprocessor() {
        // An arbitrary custom-2 word: the CPU must expose rs1/rs2/rs3.
        let raw: u32 = (7 << 27) | (3 << 20) | (2 << 15) | CUSTOM2;
        match decode(raw).unwrap() {
            Op::Offload { rs1, rs2, rs3, .. } => {
                assert_eq!(rs1.index(), 2);
                assert_eq!(rs2.index(), 3);
                assert_eq!(rs3.index(), 7);
            }
            other => panic!("expected an offload, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(0xffff_ffff).is_err());
        assert!(decode(0x0000_0000).is_err());
    }

    #[test]
    fn csr_words_are_not_ecall_or_ebreak() {
        assert_eq!(decode(0x0000_0073), Ok(Op::Ecall));
        assert_eq!(decode(0x0010_0073), Ok(Op::Ebreak));
        // csrrs a0, 0x000, x0 and csrrw x0, 0x001, x0: the same bits
        // 31:20 as ecall and ebreak, but CSR accesses.
        for word in [0x0000_2573, 0x0010_1073] {
            assert_eq!(
                decode(word),
                Err(DecodeError::new(word, "unsupported SYSTEM instruction"))
            );
        }
    }

    #[test]
    fn only_funct3_zero_misc_mem_words_are_fence() {
        assert_eq!(decode(0x0000_000f), Ok(Op::Fence));
        // fence rw, rw: predecessor/successor bits stay a fence.
        assert_eq!(decode(0x0330_000f), Ok(Op::Fence));
        // fence.i (Zifencei) and a reserved funct3.
        for word in [0x0000_100f, 0x0000_700f] {
            assert_eq!(
                decode(word),
                Err(DecodeError::new(word, "unknown MISC-MEM funct3"))
            );
        }
    }
}
