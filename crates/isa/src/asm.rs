//! A small two-pass assembler for building evaluation workloads.
//!
//! Every workload in the reproduction (scalar convolutions, XCVPULP
//! packed-SIMD kernels, host offload programs) is emitted through this
//! builder as real machine code and executed by the instruction-set
//! simulator — no analytic shortcut.
//!
//! # Examples
//!
//! Count down from 5:
//!
//! ```
//! use arcane_isa::asm::Asm;
//! use arcane_isa::reg::{A0, ZERO};
//!
//! let mut a = Asm::new();
//! a.li(A0, 5);
//! let top = a.bind_label();
//! a.addi(A0, A0, -1);
//! a.bne(A0, ZERO, top);
//! a.ebreak();
//! let words = a.assemble(0x0).unwrap();
//! assert!(words.len() >= 4);
//! ```

use crate::exec::{BType, IType, Op, RType, SType, UType};
use crate::reg::{Gpr, A0, A1, A2, RA, ZERO};
use crate::rv32::{AluOp, BranchOp, LoadOp, StoreOp};
use crate::xcvpulp::{PvOp, SimdWidth};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An opaque label handle produced by [`Asm::label`] / [`Asm::bind_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`Asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound to a position.
    UnboundLabel(Label),
    /// A branch target is too far for the 13-bit branch offset.
    BranchOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The required offset in bytes.
        offset: i64,
    },
    /// A jump target is too far for the 21-bit JAL offset.
    JumpOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The required offset in bytes.
        offset: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label {l:?} was never bound"),
            AsmError::BranchOutOfRange { at, offset } => {
                write!(f, "branch at instruction {at} needs offset {offset} bytes")
            }
            AsmError::JumpOutOfRange { at, offset } => {
                write!(f, "jump at instruction {at} needs offset {offset} bytes")
            }
        }
    }
}

impl Error for AsmError {}

#[derive(Debug, Clone, Copy)]
enum Item {
    /// A fully formed instruction.
    Fixed(Op),
    /// A branch whose offset is resolved at assembly time.
    Branch {
        op: BranchOp,
        rs1: Gpr,
        rs2: Gpr,
        target: Label,
    },
    /// A `jal` whose offset is resolved at assembly time.
    Jal { rd: Gpr, target: Label },
}

/// Two-pass assembler building a flat `Vec<u32>` of RV32 machine code.
///
/// All emit methods append one instruction (pseudo-instructions may
/// expand to two) and return `&mut self` for chaining.
#[derive(Debug, Default)]
pub struct Asm {
    items: Vec<Item>,
    bound: HashMap<usize, usize>,
    next_label: usize,
}

impl Asm {
    /// Creates an empty program.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (each label marks one spot).
    pub fn bind(&mut self, label: Label) {
        let prev = self.bound.insert(label.0, self.items.len());
        assert!(prev.is_none(), "label bound twice");
    }

    /// Creates a label bound to the current position (common case).
    pub fn bind_label(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Emits a pre-built instruction, such as the [`Op::Offload`] that
    /// [`crate::xmnmc::xmr_instr`] returns.
    pub fn raw(&mut self, op: Op) -> &mut Self {
        self.items.push(Item::Fixed(op));
        self
    }

    /// Listing 1's offload idiom: loads the three packed operand words
    /// into `a0`–`a2`, then appends the custom-2 instruction that
    /// `instr` builds over those registers (such as
    /// [`crate::xmnmc::xmr_instr`]).
    pub fn offload(
        &mut self,
        operands: (u32, u32, u32),
        instr: impl FnOnce(Gpr, Gpr, Gpr) -> Op,
    ) -> &mut Self {
        self.li(A0, operands.0 as i32);
        self.li(A1, operands.1 as i32);
        self.li(A2, operands.2 as i32);
        self.raw(instr(A0, A1, A2))
    }

    // ---- RV32I -----------------------------------------------------------

    /// `lui rd, imm20` (`imm` is the already-shifted upper value).
    pub fn lui(&mut self, rd: Gpr, imm: u32) -> &mut Self {
        self.raw(Op::Lui(UType { rd, imm }))
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Gpr, rs1: Gpr, imm: i32) -> &mut Self {
        self.raw(Op::Addi(IType { rd, rs1, imm }))
    }

    /// `slli rd, rs1, shamt`.
    pub fn slli(&mut self, rd: Gpr, rs1: Gpr, shamt: i32) -> &mut Self {
        self.raw(Op::Slli(IType {
            rd,
            rs1,
            imm: shamt,
        }))
    }

    /// Register–register ALU op.
    pub fn op(&mut self, op: AluOp, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        let r = RType { rd, rs1, rs2 };
        self.raw(match op {
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
        })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.op(AluOp::Add, rd, rs1, rs2)
    }

    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.op(AluOp::Mul, rd, rs1, rs2)
    }

    /// Memory load.
    pub fn load(&mut self, op: LoadOp, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        let i = IType {
            rd,
            rs1,
            imm: offset,
        };
        self.raw(match op {
            LoadOp::Lb => Op::Lb(i),
            LoadOp::Lh => Op::Lh(i),
            LoadOp::Lw => Op::Lw(i),
            LoadOp::Lbu => Op::Lbu(i),
            LoadOp::Lhu => Op::Lhu(i),
        })
    }

    /// `lw rd, offset(rs1)`.
    pub fn lw(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.load(LoadOp::Lw, rd, rs1, offset)
    }

    /// `lb rd, offset(rs1)`.
    pub fn lb(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.load(LoadOp::Lb, rd, rs1, offset)
    }

    /// `lh rd, offset(rs1)`.
    pub fn lh(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.load(LoadOp::Lh, rd, rs1, offset)
    }

    /// Memory store.
    pub fn store(&mut self, op: StoreOp, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        let s = SType {
            rs2,
            rs1,
            off: offset,
        };
        self.raw(match op {
            StoreOp::Sb => Op::Sb(s),
            StoreOp::Sh => Op::Sh(s),
            StoreOp::Sw => Op::Sw(s),
        })
    }

    /// `sw rs2, offset(rs1)`.
    pub fn sw(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.store(StoreOp::Sw, rs2, rs1, offset)
    }

    /// `sb rs2, offset(rs1)`.
    pub fn sb(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.store(StoreOp::Sb, rs2, rs1, offset)
    }

    /// `sh rs2, offset(rs1)`.
    pub fn sh(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.store(StoreOp::Sh, rs2, rs1, offset)
    }

    /// Conditional branch to `target`.
    pub fn branch(&mut self, op: BranchOp, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.items.push(Item::Branch {
            op,
            rs1,
            rs2,
            target,
        });
        self
    }

    /// `beq rs1, rs2, target`.
    pub fn beq(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, target`.
    pub fn bne(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, target` (signed).
    pub fn blt(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, target` (signed).
    pub fn bge(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.branch(BranchOp::Ge, rs1, rs2, target)
    }

    /// `jal rd, target`.
    pub fn jal(&mut self, rd: Gpr, target: Label) -> &mut Self {
        self.items.push(Item::Jal { rd, target });
        self
    }

    /// `j target` (pseudo: `jal zero, target`).
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.jal(ZERO, target)
    }

    /// `call target` (pseudo: `jal ra, target`).
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.jal(RA, target)
    }

    /// `ret` (pseudo: `jalr zero, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.raw(Op::Jalr(IType {
            rd: ZERO,
            rs1: RA,
            imm: 0,
        }))
    }

    /// `nop` (pseudo: `addi zero, zero, 0`).
    pub fn nop(&mut self) -> &mut Self {
        self.addi(ZERO, ZERO, 0)
    }

    /// `mv rd, rs` (pseudo: `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Gpr, rs: Gpr) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    /// `li rd, value` — load a 32-bit constant (expands to
    /// `lui` + `addi` when needed, a single `addi` for small values).
    pub fn li(&mut self, rd: Gpr, value: i32) -> &mut Self {
        if (-2048..2048).contains(&value) {
            return self.addi(rd, ZERO, value);
        }
        let v = value as u32;
        let lo = (v & 0xfff) as i32;
        let lo = if lo >= 2048 { lo - 4096 } else { lo };
        let hi = v.wrapping_sub(lo as u32);
        self.lui(rd, hi);
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
        self
    }

    /// `ebreak` — simulation end marker.
    pub fn ebreak(&mut self) -> &mut Self {
        self.raw(Op::Ebreak)
    }

    // ---- XCVPULP helpers (baseline kernels) ------------------------------

    /// `cv.lw rd, offset(rs1!)` — load word with post-increment.
    pub fn cv_lw_post(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.raw(Op::LwPost(IType {
            rd,
            rs1,
            imm: offset,
        }))
    }

    /// Post-increment store of any width.
    pub fn cv_store_post(&mut self, op: StoreOp, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        let s = SType {
            rs2,
            rs1,
            off: offset,
        };
        self.raw(match op {
            StoreOp::Sb => Op::SbPost(s),
            StoreOp::Sh => Op::ShPost(s),
            StoreOp::Sw => Op::SwPost(s),
        })
    }

    /// Packed-SIMD operation.
    pub fn pv(&mut self, op: PvOp, w: SimdWidth, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        let r = RType { rd, rs1, rs2 };
        self.raw(match (w, op) {
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
        })
    }

    /// `cv.mac rd, rs1, rs2` — scalar multiply-accumulate.
    pub fn cv_mac(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.raw(Op::Mac(RType { rd, rs1, rs2 }))
    }

    /// `cv.max rd, rs1, rs2` — scalar maximum (ReLU building block).
    pub fn cv_max(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
        self.raw(Op::MaxS(RType { rd, rs1, rs2 }))
    }

    /// `cv.setupi` — immediate-count hardware loop over the next
    /// `body_len` instructions.
    pub fn cv_setupi(&mut self, loop_id: bool, count: u16, body_len: u8) -> &mut Self {
        self.raw(Op::LoopSetupI {
            loop_id,
            count: count.into(),
            body_len: body_len.into(),
        })
    }

    /// `cv.setup` — register-count hardware loop.
    pub fn cv_setup(&mut self, loop_id: bool, count: Gpr, body_len: u16) -> &mut Self {
        self.raw(Op::LoopSetup {
            loop_id,
            count,
            body_len: body_len.into(),
        })
    }

    // ---- assembly --------------------------------------------------------

    /// Resolves labels and encodes the program as 32-bit words, assuming
    /// the first instruction sits at byte address `base`.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on unbound labels or out-of-range control
    /// transfers.
    pub fn assemble(&self, base: u32) -> Result<Vec<u32>, AsmError> {
        let _ = base; // offsets are PC-relative; base kept for API clarity
        let mut words = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            let op = match *item {
                Item::Fixed(op) => op,
                Item::Branch {
                    op,
                    rs1,
                    rs2,
                    target,
                } => {
                    let at = self
                        .bound
                        .get(&target.0)
                        .ok_or(AsmError::UnboundLabel(target))?;
                    let offset = (*at as i64 - i as i64) * 4;
                    if !(-4096..4096).contains(&offset) {
                        return Err(AsmError::BranchOutOfRange { at: i, offset });
                    }
                    let b = BType {
                        rs1,
                        rs2,
                        off: offset as i32,
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
                Item::Jal { rd, target } => {
                    let at = self
                        .bound
                        .get(&target.0)
                        .ok_or(AsmError::UnboundLabel(target))?;
                    let offset = (*at as i64 - i as i64) * 4;
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::JumpOutOfRange { at: i, offset });
                    }
                    Op::Jal(UType {
                        rd,
                        imm: offset as u32,
                    })
                }
            };
            words.push(crate::rv32::encode(&op));
        }
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;
    use crate::rv32::decode;

    #[test]
    fn li_small_is_single_addi() {
        let mut a = Asm::new();
        a.li(A0, 100);
        let w = a.assemble(0).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(
            decode(w[0]),
            Ok(Op::Addi(IType {
                rd: A0,
                rs1: ZERO,
                imm: 100
            }))
        );
    }

    #[test]
    fn li_large_roundtrips_through_lui_addi() {
        // Execute the lui+addi pair mentally for a tricky carry case.
        for value in [0x2000_0000u32 as i32, 0x1234_5fff_u32 as i32, -1, i32::MIN] {
            let mut a = Asm::new();
            a.li(T0, value);
            let words = a.assemble(0).unwrap();
            // Interpret: lui sets, addi adds sign-extended low.
            let mut reg = 0u32;
            for w in words {
                match decode(w).unwrap() {
                    Op::Lui(u) => reg = u.imm,
                    Op::Addi(i) => reg = reg.wrapping_add(i.imm as u32),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(reg, value as u32, "li {value:#x}");
        }
    }

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        let fwd = a.label();
        a.beq(A0, A1, fwd); // +2 instructions forward
        a.nop();
        a.bind(fwd);
        let back = a.bind_label();
        a.bne(A0, A1, back); // 0 offset back to itself
        let w = a.assemble(0).unwrap();
        assert!(matches!(decode(w[0]), Ok(Op::Beq(b)) if b.off == 8));
        assert!(matches!(decode(w[2]), Ok(Op::Bne(b)) if b.off == 0));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        assert!(matches!(a.assemble(0), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn branch_out_of_range_is_detected() {
        let mut a = Asm::new();
        let top = a.bind_label();
        for _ in 0..1500 {
            a.nop();
        }
        a.beq(A0, A1, top);
        assert!(matches!(
            a.assemble(0),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn pseudo_instructions_expand() {
        let mut a = Asm::new();
        a.mv(A0, A1).nop().ret().ebreak();
        let w = a.assemble(0).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(
            decode(w[2]),
            Ok(Op::Jalr(IType {
                rd: ZERO,
                rs1: RA,
                imm: 0
            }))
        );
    }
}
