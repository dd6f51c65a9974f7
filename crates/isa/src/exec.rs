//! Predecoded execution support: basic blocks and the block cache.
//!
//! The interpreter in `arcane-rv32` originally re-fetched and re-decoded
//! every instruction on every dynamic execution — at 256×256 the Figure 4
//! scalar baseline decodes the same <40-instruction inner loop over a
//! hundred million times. This module provides the predecode stage that
//! amortises that control overhead, the same way ARCANE itself amortises
//! kernel-dispatch overhead over long data-local vector operations
//! (paper §IV): straight-line runs of instructions are decoded once into
//! a [`DecodedBlock`] and cached by start PC in a [`BlockCache`].
//!
//! A block ends at the first *control-class* instruction (branch, jump,
//! `ecall`/`ebreak`, or a custom-2 offload whose acceptance is decided
//! by the coprocessor) or at [`MAX_BLOCK_LEN`]. Predecode flattens each
//! [`Instr`] into one [`Op`]: a single-level enum with one variant per
//! operation, whose register indices, immediates, access width,
//! sign extension and branch condition are already resolved, so the
//! engine dispatches each retired instruction with one `match`;
//! `Op::ends_block` places the block boundaries.
//!
//! The cache stays coherent with instruction memory: every store the
//! core performs is offered to [`BlockCache::invalidate_write`], which
//! drops any block whose PC range overlaps the written bytes and bumps a
//! generation counter the engine checks mid-block (self-modifying-code
//! guard).

use crate::reg::Gpr;
use crate::rv32::{AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use crate::xcvpulp::{PulpInstr, PvOp, SimdWidth};
use std::collections::HashMap;
use std::rc::Rc;

/// Upper bound on the number of instructions in one [`DecodedBlock`].
///
/// Long straight-line runs are rare in the evaluation kernels (the hot
/// loops are < 40 instructions); capping the block keeps predecode
/// latency and invalidation granularity bounded.
pub const MAX_BLOCK_LEN: usize = 64;

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

impl Op {
    /// `true` when this op ends a basic block: a control transfer,
    /// program termination, or a coprocessor offload.
    const fn ends_block(self) -> bool {
        matches!(
            self,
            Op::Jal(_)
                | Op::Jalr(_)
                | Op::Beq(_)
                | Op::Bne(_)
                | Op::Blt(_)
                | Op::Bge(_)
                | Op::Bltu(_)
                | Op::Bgeu(_)
                | Op::Ecall
                | Op::Ebreak
                | Op::Offload { .. }
        )
    }
}

/// A straight-line run of predecoded instructions.
///
/// The block starts at [`DecodedBlock::start`] and covers consecutive
/// word-aligned PCs; the final op either ends the block
/// (`Op::ends_block`) or the block was truncated at
/// [`MAX_BLOCK_LEN`] / at a word that failed to decode (the engine
/// re-enters predecode at the following PC, so a stale or invalid word
/// only faults when control actually reaches it — exactly like the
/// fetch-per-instruction interpreter).
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    start: u32,
    ops: Vec<Op>,
}

impl DecodedBlock {
    /// Creates an empty block starting at `start`.
    pub fn new(start: u32) -> Self {
        DecodedBlock {
            start,
            ops: Vec::new(),
        }
    }

    /// Appends `instr` as a flat [`Op`]; returns `true` while the block
    /// remains open (i.e. the caller should keep pushing).
    pub fn push(&mut self, instr: Instr) -> bool {
        let op = Op::from(instr);
        self.ops.push(op);
        !op.ends_block() && self.ops.len() < MAX_BLOCK_LEN
    }

    /// First PC covered by the block.
    pub const fn start(&self) -> u32 {
        self.start
    }

    /// One past the last byte covered by the block.
    pub fn end(&self) -> u32 {
        self.start.wrapping_add((self.ops.len() * 4) as u32)
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The predecoded ops, one per instruction.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// `true` when `addr` falls inside the block's PC range.
    pub fn covers(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// Number of direct-mapped front slots (must be a power of two).
const SLOTS: usize = 128;

/// A PC-keyed cache of [`DecodedBlock`]s with write invalidation.
///
/// Lookups hit a direct-mapped front array first (hot loop bodies
/// resolve in a couple of compares) and fall back to a hash map. Writes
/// are screened against the union PC range of all cached blocks, so the
/// common case — data stores far from code — costs two compares.
#[derive(Debug, Clone)]
pub struct BlockCache {
    map: HashMap<u32, Rc<DecodedBlock>>,
    slots: Vec<Option<Rc<DecodedBlock>>>,
    /// Lowest PC covered by any cached block.
    lo: u32,
    /// One past the highest PC covered by any cached block.
    hi: u32,
    generation: u64,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new()
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache {
            map: HashMap::new(),
            slots: vec![None; SLOTS],
            lo: u32::MAX,
            hi: 0,
            generation: 0,
        }
    }

    const fn slot_of(pc: u32) -> usize {
        ((pc >> 2) as usize) & (SLOTS - 1)
    }

    /// Looks up the block starting exactly at `pc`.
    pub fn get(&self, pc: u32) -> Option<Rc<DecodedBlock>> {
        if let Some(b) = &self.slots[Self::slot_of(pc)] {
            if b.start() == pc {
                return Some(Rc::clone(b));
            }
        }
        self.map.get(&pc).cloned()
    }

    /// Inserts a block and returns the shared handle.
    pub fn insert(&mut self, block: DecodedBlock) -> Rc<DecodedBlock> {
        self.lo = self.lo.min(block.start());
        self.hi = self.hi.max(block.end());
        let rc = Rc::new(block);
        self.slots[Self::slot_of(rc.start())] = Some(Rc::clone(&rc));
        self.map.insert(rc.start(), Rc::clone(&rc));
        rc
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Monotonic counter bumped on every invalidation; the engine
    /// re-reads it after each instruction of a block in flight so a
    /// store into the block's own remainder aborts predecoded execution.
    pub const fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidates every block whose PC range overlaps the `bytes`-byte
    /// store at `addr`. Cheap when the store is outside the union range
    /// of all cached code (the overwhelmingly common case).
    pub fn invalidate_write(&mut self, addr: u32, bytes: u32) {
        let end = addr.wrapping_add(bytes);
        if addr >= self.hi || end <= self.lo || self.map.is_empty() {
            return;
        }
        let before = self.map.len();
        self.map.retain(|_, b| end <= b.start() || addr >= b.end());
        if self.map.len() != before {
            self.generation += 1;
            for slot in &mut self.slots {
                if let Some(b) = slot {
                    if !(end <= b.start() || addr >= b.end()) {
                        *slot = None;
                    }
                }
            }
            // Recompute the union range from the survivors.
            self.lo = u32::MAX;
            self.hi = 0;
            for b in self.map.values() {
                self.lo = self.lo.min(b.start());
                self.hi = self.hi.max(b.end());
            }
        }
    }

    /// Drops every cached block (used on core reset / program load).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.iter_mut().for_each(|s| *s = None);
        self.lo = u32::MAX;
        self.hi = 0;
        self.generation += 1;
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
    fn block_ends_at_control_instruction() {
        let mut b = DecodedBlock::new(0x100);
        assert!(b.push(addi()));
        assert!(b.push(addi()));
        assert!(!b.push(branch()));
        assert_eq!(b.len(), 3);
        assert_eq!(b.end(), 0x10c);
        assert!(b.covers(0x108));
        assert!(!b.covers(0x10c));
    }

    #[test]
    fn block_caps_at_max_len() {
        let mut b = DecodedBlock::new(0);
        for i in 0..MAX_BLOCK_LEN {
            let open = b.push(addi());
            assert_eq!(open, i + 1 < MAX_BLOCK_LEN);
        }
        assert_eq!(b.len(), MAX_BLOCK_LEN);
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
        assert!(Op::from(branch()).ends_block());
        assert!(Op::from(Instr::Ebreak).ends_block());
        assert!(!div.ends_block());
        let lw_post = Op::from(Instr::Pulp(PulpInstr::LoadPost {
            op: LoadOp::Lw,
            rd: A0,
            rs1: A1,
            offset: 4,
        }));
        assert!(matches!(lw_post, Op::LwPost(_)));
        assert!(!lw_post.ends_block());
        let sh = Op::from(Instr::Store {
            op: StoreOp::Sh,
            rs2: A0,
            rs1: A1,
            offset: 2,
        });
        assert!(matches!(sh, Op::Sh(_)) && !sh.ends_block());
    }

    #[test]
    fn cache_roundtrip_and_fast_slot() {
        let mut c = BlockCache::new();
        let mut b = DecodedBlock::new(0x40);
        b.push(addi());
        b.push(branch());
        c.insert(b);
        assert_eq!(c.len(), 1);
        let hit = c.get(0x40).expect("cached");
        assert_eq!(hit.len(), 2);
        assert!(c.get(0x44).is_none(), "keyed by start PC only");
    }

    #[test]
    fn invalidation_is_range_precise() {
        let mut c = BlockCache::new();
        for start in [0x00u32, 0x40, 0x80] {
            let mut b = DecodedBlock::new(start);
            b.push(addi());
            b.push(branch());
            c.insert(b);
        }
        let g0 = c.generation();
        // A data store far above code: no-op, no generation bump.
        c.invalidate_write(0x4000, 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.generation(), g0);
        // Overwrite the second instruction of the middle block.
        c.invalidate_write(0x44, 4);
        assert_eq!(c.len(), 2);
        assert!(c.get(0x40).is_none());
        assert!(c.get(0x00).is_some() && c.get(0x80).is_some());
        assert!(c.generation() > g0);
        // An unaligned byte store straddling into the last block.
        c.invalidate_write(0x80, 1);
        assert!(c.get(0x80).is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = BlockCache::new();
        let mut b = DecodedBlock::new(0);
        b.push(addi());
        c.insert(b);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(0).is_none());
    }
}
