//! Differential harness: random short programs through the default
//! engine (one predecoded op kept per instruction word), the
//! interpreter (fetches every instruction) and an independent reference
//! stepper ([`Oracle`]) must be observationally identical — registers,
//! memory, cycle count, retired-instruction count, final PC and stop
//! reason (or the same [`CpuError`]; a decode error's wording is not
//! compared).
//!
//! The two engines share one decoder, one run loop and one `exec`, so
//! comparing them only checks the op table's coherence. The oracle
//! shares only the [`Op`] type with them: it decodes words with its own
//! `(mask, match)` table ([`oracle_decode`], checked against the
//! production decoder on random words) and executes each op with its
//! own semantics over its own register file.
//!
//! Programs are generated as *valid-by-construction instruction soup*
//! plus a slice of genuinely random words: arithmetic over random
//! registers, loads/stores near pre-seeded base pointers (in range so
//! runs get deep, but stores may land on code — exercising the
//! self-modifying-code invalidation), stores that patch code (aligned
//! ones just ahead; misaligned ones straddling two words just behind, so
//! a loop re-runs both and both must re-decode), forward and backward
//! branches (fuel bounds the infinite loops), hardware loops (register
//! counts seeded large enough that a random fuel budget often runs out
//! inside a nested loop body), `ebreak`/`ecall` inside loop bodies
//! (their last slot included) and packed-SIMD ops. A run that stops on
//! `ebreak` or `ecall` is resumed a few times, so the PC and the
//! hardware-loop counters a stop leaves behind are compared through
//! what runs next. The generator builds its words with the production
//! encoder. Failures must reproduce: the proptest shim is deterministic
//! per test name.

use arcane_isa::exec::{BType, IType, Op, RType, SType, UType};
use arcane_isa::reg::{Gpr, ZERO};
use arcane_isa::rv32::{decode, encode};
use arcane_isa::xcvpulp::PvOp;
use arcane_isa::DecodeError;
use arcane_mem::{AccessSize, Bus};
use arcane_rv32::{
    Coprocessor, Cpu, CpuError, NoCoprocessor, RunResult, SramBus, StopReason, Timing, XifResponse,
};
use arcane_sim::EngineMode;
use proptest::prelude::*;

/// RAM size: program at 0, data pointers seeded within this range.
const RAM: usize = 64 * 1024;

/// Fuel per case (small, so random backward branches terminate fast).
const FUEL: u64 = 20_000;

/// Times a run that stopped on `ebreak` or `ecall` is resumed.
const RESUMES: usize = 3;

fn gpr(i: u8) -> Gpr {
    Gpr::new(i % 32).expect("masked")
}

/// One generated instruction, from a compact random tuple.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: u8,
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i32,
    aux: u8,
}

fn word_of(s: Spec, index: usize, len: usize) -> u32 {
    let rd = gpr(s.rd);
    let rs1 = gpr(s.rs1);
    let rs2 = gpr(s.rs2);
    let r = RType { rd, rs1, rs2 };
    let i = |imm| IType { rd, rs1, imm };
    let st = |off| SType { rs2, rs1, off };
    let pick = |n: u8| usize::from(s.aux % n);
    let op = match s.kind % 16 {
        0 => {
            [Op::Addi, Op::Slti, Op::Xori, Op::Ori, Op::Andi][pick(5)](i(s.imm.clamp(-2048, 2047)))
        }
        1 => [Op::Slli, Op::Srli, Op::Srai][pick(3)](i(s.imm.rem_euclid(32))),
        2 => [
            Op::Add,
            Op::Sub,
            Op::Sll,
            Op::Xor,
            Op::Mul,
            Op::Mulh,
            Op::Div,
            Op::Rem,
            Op::Sltu,
            Op::And,
        ][pick(10)](r),
        3 => [Op::Lb, Op::Lh, Op::Lw, Op::Lbu, Op::Lhu][pick(5)](i(s.imm.clamp(-256, 256))),
        4 => [Op::Sb, Op::Sh, Op::Sw][pick(3)](st(s.imm.clamp(-256, 256))),
        5 => {
            // Branch to a nearby instruction (aligned), forward or back.
            let lo = -(index as i32);
            let hi = (len - index) as i32;
            let delta = (s.imm % 8).clamp(lo, hi - 1).max(lo);
            [Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Bltu, Op::Bgeu][pick(6)](BType {
                rs1,
                rs2,
                off: delta * 4,
            })
        }
        6 => Op::Lui(UType {
            rd,
            imm: (s.imm as u32) & 0xffff_f000,
        }),
        // Mostly the inner loop (0), so it nests in a kind-14 loop.
        7 => Op::LoopSetupI {
            loop_id: s.aux % 4 == 3,
            count: u32::from(s.rs2 % 6) + 1,
            body_len: u32::from(s.rd % 8) + 1,
        },
        8 => [Op::LbPost, Op::LwPost][pick(2)](i(i32::from(s.rs2 % 8))),
        9 => Op::Mac(r),
        10 => Op::Auipc(UType {
            rd,
            imm: (s.imm as u32) & 0x0000_f000,
        }),
        // A stop inside the body (often inside a hardware loop).
        11 if s.aux.is_multiple_of(4) => [Op::Ebreak, Op::Ecall][usize::from(s.rd % 2)],
        // Raw word: usually undecodable — both engines must raise the
        // identical decode error at the identical pc.
        11 => return s.imm as u32 ^ 0x8000_0513,
        12 => {
            let ops = if s.imm % 2 == 0 {
                [
                    Op::PvAddB,
                    Op::PvSubB,
                    Op::PvMaxB,
                    Op::PvMinB,
                    Op::PvDotspB,
                    Op::PvSdotspB,
                    Op::PvDotupB,
                ]
            } else {
                [
                    Op::PvAddH,
                    Op::PvSubH,
                    Op::PvMaxH,
                    Op::PvMinH,
                    Op::PvDotspH,
                    Op::PvSdotspH,
                    Op::PvDotupH,
                ]
            };
            ops[pick(7)](r)
        }
        13 => match s.aux % 4 {
            0 => Op::MaxS(r),
            1 => Op::MinS(r),
            2 => Op::Abs(RType { rs2: ZERO, ..r }),
            _ => [Op::SbPost, Op::ShPost, Op::SwPost][usize::from(s.rd % 3)](st(s
                .imm
                .clamp(-64, 64))),
        },
        // Mostly the outer loop (1), counted by one of the seeded
        // registers (x16 = 3000, x17 = 40), so loop nests run long.
        14 => Op::LoopSetup {
            loop_id: s.aux % 4 != 3,
            count: gpr(16 + s.rs1 % 2),
            body_len: u32::from(s.rd % 8) + 1,
        },
        // Patch code. Half the patches are aligned `sw`s over one of the
        // next three instructions, mostly with one of the seeded
        // instruction words (x18, x19). The other half are misaligned
        // (`sw` at +2, `sh` at +3), straddle two of the last three words
        // (which a loop may run again, from their predecoded ops) and
        // mostly store x22. Either kind sometimes stores any register.
        _ => {
            let back = index as i32 - 1 - i32::from(s.aux % 3);
            let ahead = (index + 1) as i32 + i32::from(s.aux % 3);
            let (op, off, seeded): (fn(SType) -> Op, _, _) = match s.rd % 4 {
                2 => (Op::Sw, back * 4 + 2, 22),
                3 => (Op::Sh, back * 4 + 3, 22),
                _ => (Op::Sw, ahead * 4, 18 + s.rs2 % 2),
            };
            op(SType {
                rs2: if s.aux % 4 == 3 { rs2 } else { gpr(seeded) },
                rs1: ZERO,
                off,
            })
        }
    };
    encode(&op)
}

/// `lui` + `addi` words that set `rd` to `hi + lo` (`hi`'s low 12 bits
/// are dropped).
fn set_reg(words: &mut Vec<u32>, rd: Gpr, hi: u32, lo: i32) {
    words.push(encode(&Op::Lui(UType {
        rd,
        imm: hi & 0xffff_f000,
    })));
    words.push(encode(&Op::Addi(IType {
        rd,
        rs1: rd,
        imm: lo,
    })));
}

/// Builds the program image: register-seeding prologue (base pointers
/// into RAM so loads/stores mostly land in bounds, loop counts,
/// instruction words and negative values), an optional hardware-loop
/// nest, the generated body, and `ebreak`.
///
/// With the nest, `stop` may also put an `ebreak` (`stop & 8` clear)
/// or `ecall` at body slot `stop & 7` when that is below 5: slot 2 is
/// the inner loop's last, slot 4 the outer loop's last.
fn build_image(specs: &[Spec], nest: bool, stop: u8) -> Vec<u32> {
    let mut words = Vec::new();
    // Seed x1..x15 with in-range data addresses.
    for (i, r) in (1u8..16).enumerate() {
        let addr = 0x4000 + (i as i32) * 0x800 + 0x10;
        set_reg(&mut words, gpr(r), addr as u32, addr & 0xfff);
    }
    // Loop counts for register-count hardware loops, two valid
    // instruction words for the code-patching stores, and two negative
    // values (signed ops only differ from unsigned ones on those). x22
    // feeds the straddling patches: stored at +2 it leaves `addi x5` in
    // the second word's low half, stored as a half at +3 it leaves the
    // OP-IMM opcode in that word's low byte, so both words mostly still
    // decode.
    let patches = [
        Op::Addi(IType {
            rd: gpr(5),
            rs1: gpr(5),
            imm: 1,
        }),
        Op::Xor(RType {
            rd: gpr(6),
            rs1: gpr(6),
            rs2: gpr(5),
        }),
    ];
    for (r, value) in [
        (16u8, 3000),
        (17, 40),
        (20, 0x8765_4321),
        (21, 0xffff_ff80),
        (22, 0x8293_9312),
    ]
    .into_iter()
    .chain((18u8..).zip(patches.map(|op| encode(&op))))
    {
        let lo = ((value & 0xfff) as i32) << 20 >> 20;
        set_reg(&mut words, gpr(r), value.wrapping_add(0x800), lo);
    }
    if nest {
        // A loop nest around the start of the body: outer loop 1 runs
        // 3000 times over six instructions, inner loop 0 four times
        // over the first three generated ones.
        words.push(encode(&Op::LoopSetup {
            loop_id: true,
            count: gpr(16),
            body_len: 6,
        }));
        words.push(encode(&Op::LoopSetupI {
            loop_id: false,
            count: 4,
            body_len: 3,
        }));
    }
    let body_at = words.len();
    for (i, s) in specs.iter().enumerate() {
        words.push(word_of(*s, body_at + i, body_at + specs.len() + 1));
    }
    let slot = usize::from(stop & 7);
    if nest && slot < 5 && slot < specs.len() {
        let op = if stop & 8 == 0 { Op::Ebreak } else { Op::Ecall };
        words[body_at + slot] = encode(&op);
    }
    words.push(encode(&Op::Ebreak));
    words
}

/// How the oracle's decode table cuts a word into the operands of the
/// op a row builds.
#[derive(Clone, Copy)]
enum Fmt {
    U(fn(UType) -> Op),
    J,
    I(fn(IType) -> Op),
    Shift(fn(IType) -> Op),
    S(fn(SType) -> Op),
    B(fn(BType) -> Op),
    R(fn(RType) -> Op),
    Abs,
    LoopI,
    Loop,
    Offload,
    Fixed(Op),
}

/// Masks of the oracle's decode table: the major opcode alone, plus
/// `funct3`, plus `funct7`, and the whole word.
const OPC: u32 = 0x0000_007f;
const F3: u32 = 0x0000_707f;
const F7F3: u32 = 0xfe00_707f;
const ALL: u32 = 0xffff_ffff;

/// The oracle's decoder, one `(mask, match, format)` row per operation
/// in the style of the riscv-opcodes tables: a word is the op of the
/// row whose `mask` bits equal `match`, and no two rows overlap.
const TABLE: &[(u32, u32, Fmt)] = &[
    (OPC, 0x37, Fmt::U(Op::Lui)),
    (OPC, 0x17, Fmt::U(Op::Auipc)),
    (OPC, 0x6f, Fmt::J),
    (F3, 0x0067, Fmt::I(Op::Jalr)),
    (F3, 0x0063, Fmt::B(Op::Beq)),
    (F3, 0x1063, Fmt::B(Op::Bne)),
    (F3, 0x4063, Fmt::B(Op::Blt)),
    (F3, 0x5063, Fmt::B(Op::Bge)),
    (F3, 0x6063, Fmt::B(Op::Bltu)),
    (F3, 0x7063, Fmt::B(Op::Bgeu)),
    (F3, 0x0003, Fmt::I(Op::Lb)),
    (F3, 0x1003, Fmt::I(Op::Lh)),
    (F3, 0x2003, Fmt::I(Op::Lw)),
    (F3, 0x4003, Fmt::I(Op::Lbu)),
    (F3, 0x5003, Fmt::I(Op::Lhu)),
    (F3, 0x0023, Fmt::S(Op::Sb)),
    (F3, 0x1023, Fmt::S(Op::Sh)),
    (F3, 0x2023, Fmt::S(Op::Sw)),
    (F3, 0x0013, Fmt::I(Op::Addi)),
    (F3, 0x2013, Fmt::I(Op::Slti)),
    (F3, 0x3013, Fmt::I(Op::Sltiu)),
    (F3, 0x4013, Fmt::I(Op::Xori)),
    (F3, 0x6013, Fmt::I(Op::Ori)),
    (F3, 0x7013, Fmt::I(Op::Andi)),
    (F7F3, 0x0000_1013, Fmt::Shift(Op::Slli)),
    (F7F3, 0x0000_5013, Fmt::Shift(Op::Srli)),
    (F7F3, 0x4000_5013, Fmt::Shift(Op::Srai)),
    (F7F3, 0x0000_0033, Fmt::R(Op::Add)),
    (F7F3, 0x4000_0033, Fmt::R(Op::Sub)),
    (F7F3, 0x0000_1033, Fmt::R(Op::Sll)),
    (F7F3, 0x0000_2033, Fmt::R(Op::Slt)),
    (F7F3, 0x0000_3033, Fmt::R(Op::Sltu)),
    (F7F3, 0x0000_4033, Fmt::R(Op::Xor)),
    (F7F3, 0x0000_5033, Fmt::R(Op::Srl)),
    (F7F3, 0x4000_5033, Fmt::R(Op::Sra)),
    (F7F3, 0x0000_6033, Fmt::R(Op::Or)),
    (F7F3, 0x0000_7033, Fmt::R(Op::And)),
    (F7F3, 0x0200_0033, Fmt::R(Op::Mul)),
    (F7F3, 0x0200_1033, Fmt::R(Op::Mulh)),
    (F7F3, 0x0200_2033, Fmt::R(Op::Mulhsu)),
    (F7F3, 0x0200_3033, Fmt::R(Op::Mulhu)),
    (F7F3, 0x0200_4033, Fmt::R(Op::Div)),
    (F7F3, 0x0200_5033, Fmt::R(Op::Divu)),
    (F7F3, 0x0200_6033, Fmt::R(Op::Rem)),
    (F7F3, 0x0200_7033, Fmt::R(Op::Remu)),
    (F3, 0x000f, Fmt::Fixed(Op::Fence)),
    (ALL, 0x0000_0073, Fmt::Fixed(Op::Ecall)),
    (ALL, 0x0010_0073, Fmt::Fixed(Op::Ebreak)),
    // XCVPULP, custom-0: post-increment loads and stores.
    (F3, 0x000b, Fmt::I(Op::LbPost)),
    (F3, 0x100b, Fmt::I(Op::LhPost)),
    (F3, 0x200b, Fmt::I(Op::LwPost)),
    (F3, 0x400b, Fmt::I(Op::LbuPost)),
    (F3, 0x500b, Fmt::I(Op::LhuPost)),
    (F3, 0x300b, Fmt::S(Op::SbPost)),
    (F3, 0x600b, Fmt::S(Op::ShPost)),
    (F3, 0x700b, Fmt::S(Op::SwPost)),
    // custom-1: packed SIMD (funct7 = 2 * op + `.h`), scalar DSP ops
    // and the two hardware-loop setups.
    (F7F3, 0x0000_002b, Fmt::R(Op::PvAddB)),
    (F7F3, 0x0200_002b, Fmt::R(Op::PvAddH)),
    (F7F3, 0x0400_002b, Fmt::R(Op::PvSubB)),
    (F7F3, 0x0600_002b, Fmt::R(Op::PvSubH)),
    (F7F3, 0x0800_002b, Fmt::R(Op::PvMaxB)),
    (F7F3, 0x0a00_002b, Fmt::R(Op::PvMaxH)),
    (F7F3, 0x0c00_002b, Fmt::R(Op::PvMinB)),
    (F7F3, 0x0e00_002b, Fmt::R(Op::PvMinH)),
    (F7F3, 0x1000_002b, Fmt::R(Op::PvDotspB)),
    (F7F3, 0x1200_002b, Fmt::R(Op::PvDotspH)),
    (F7F3, 0x1400_002b, Fmt::R(Op::PvSdotspB)),
    (F7F3, 0x1600_002b, Fmt::R(Op::PvSdotspH)),
    (F7F3, 0x1800_002b, Fmt::R(Op::PvDotupB)),
    (F7F3, 0x1a00_002b, Fmt::R(Op::PvDotupH)),
    (F7F3, 0x8000_002b, Fmt::R(Op::Mac)),
    (F7F3, 0x8200_002b, Fmt::R(Op::MaxS)),
    (F7F3, 0x8400_002b, Fmt::R(Op::MinS)),
    (F7F3, 0x8600_002b, Fmt::Abs),
    (F3, 0x102b, Fmt::LoopI),
    (F3, 0x202b, Fmt::Loop),
    // custom-2: offered to the coprocessor uninterpreted.
    (OPC, 0x5b, Fmt::Offload),
];

/// Bits `hi..=lo` of `w`.
fn field(w: u32, hi: u32, lo: u32) -> u32 {
    (w >> lo) & (u32::MAX >> (31 - (hi - lo)))
}

/// `v` read as a `width`-bit two's-complement number.
fn sext(v: u32, width: u32) -> i32 {
    ((v << (32 - width)) as i32) >> (32 - width)
}

fn reg_at(w: u32, lo: u32) -> Gpr {
    gpr(field(w, lo + 4, lo) as u8)
}

/// The oracle's decoder: `None` for a word no [`TABLE`] row matches.
fn oracle_decode(w: u32) -> Option<Op> {
    let &(_, _, fmt) = TABLE.iter().find(|&&(mask, bits, _)| w & mask == bits)?;
    let (rd, rs1, rs2) = (reg_at(w, 7), reg_at(w, 15), reg_at(w, 20));
    let i = IType {
        rd,
        rs1,
        imm: sext(field(w, 31, 20), 12),
    };
    let r = RType { rd, rs1, rs2 };
    let loop_id = field(w, 7, 7) == 1;
    Some(match fmt {
        Fmt::U(op) => op(UType {
            rd,
            imm: field(w, 31, 12) << 12,
        }),
        Fmt::J => {
            let off = field(w, 31, 31) << 20
                | field(w, 19, 12) << 12
                | field(w, 20, 20) << 11
                | field(w, 30, 21) << 1;
            Op::Jal(UType {
                rd,
                imm: sext(off, 21) as u32,
            })
        }
        Fmt::I(op) => op(i),
        Fmt::Shift(op) => op(IType {
            imm: field(w, 24, 20) as i32,
            ..i
        }),
        Fmt::S(op) => op(SType {
            rs2,
            rs1,
            off: sext(field(w, 31, 25) << 5 | field(w, 11, 7), 12),
        }),
        Fmt::B(op) => {
            let off = field(w, 31, 31) << 12
                | field(w, 7, 7) << 11
                | field(w, 30, 25) << 5
                | field(w, 11, 8) << 1;
            op(BType {
                rs1,
                rs2,
                off: sext(off, 13),
            })
        }
        Fmt::R(op) => op(r),
        Fmt::Abs => Op::Abs(RType { rs2: ZERO, ..r }),
        Fmt::LoopI => Op::LoopSetupI {
            loop_id,
            count: field(w, 31, 20),
            body_len: field(w, 19, 15),
        },
        Fmt::Loop => Op::LoopSetup {
            loop_id,
            count: rs1,
            body_len: field(w, 31, 20),
        },
        Fmt::Offload => Op::Offload {
            raw: w,
            rd,
            rs1,
            rs2,
            rs3: reg_at(w, 27),
        },
        Fmt::Fixed(op) => op,
    })
}

/// Each run's result and the PC it left, then the final registers, PC,
/// cycles, retired instructions and memory.
type Outcome = (
    Vec<(Result<RunResult, CpuError>, u32)>,
    [u32; 32],
    u32,
    u64,
    u64,
    Vec<u8>,
);

/// Calls `run` with the fuel left, then again while a run ends on
/// `ebreak` or `ecall` with fuel to spare, at most [`RESUMES`] more
/// times. `run` returns its result and the PC it left.
fn runs(
    fuel: u64,
    mut run: impl FnMut(u64) -> (Result<RunResult, CpuError>, u32),
) -> Vec<(Result<RunResult, CpuError>, u32)> {
    let mut left = fuel;
    let mut out = Vec::new();
    for _ in 0..=RESUMES {
        let (r, pc) = run(left);
        out.push((r, pc));
        match r {
            Ok(RunResult {
                stop: StopReason::Break | StopReason::Ecall,
                instret,
                ..
            }) if instret < left => left -= instret,
            _ => break,
        }
    }
    out
}

fn run_engine(words: &[u32], fuel: u64, engine: EngineMode) -> Outcome {
    let mut bus = SramBus::new(RAM);
    bus.load_program(0, words);
    let mut cpu = Cpu::new(0);
    let results = runs(fuel, |left| {
        let r = cpu.run_with_engine(&mut bus, &mut NoCoprocessor, left, engine);
        (r, cpu.pc())
    });
    let regs: [u32; 32] = std::array::from_fn(|i| cpu.reg(gpr(i as u8)));
    (
        results,
        regs,
        cpu.pc(),
        cpu.cycles(),
        cpu.instret(),
        ram(&bus),
    )
}

fn run_oracle(words: &[u32], fuel: u64) -> Outcome {
    let mut bus = SramBus::new(RAM);
    bus.load_program(0, words);
    let mut o = Oracle::default();
    let results = runs(fuel, |left| {
        let r = o.run(&mut bus, &mut NoCoprocessor, left);
        (r, o.pc)
    });
    (results, o.regs, o.pc, o.cycles, o.instret, ram(&bus))
}

fn ram(bus: &SramBus) -> Vec<u8> {
    use arcane_mem::Memory;
    let mut mem = vec![0u8; RAM];
    bus.ram().read_bytes(0, &mut mem).expect("whole RAM");
    mem
}

#[derive(Debug, Clone, Copy, Default)]
struct HwLoop {
    start: u32,
    last: u32,
    remaining: u32,
    active: bool,
}

/// Reference stepper: fetch, decode with [`oracle_decode`] and execute
/// one op at a time, over its own register file. The semantics and
/// cycle tariff are the core's (RV32IM + XCVPULP, the CV32E40X
/// [`Timing`]), including the fault on a jump to a non-word-aligned PC.
#[derive(Debug, Default)]
struct Oracle {
    regs: [u32; 32],
    pc: u32,
    cycles: u64,
    instret: u64,
    loops: [HwLoop; 2],
}

impl Oracle {
    fn reg(&self, r: Gpr) -> u32 {
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, r: Gpr, v: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Steps until a stop or until `fuel` more instructions retire;
    /// reports this run's instructions and cycles alone.
    fn run<X: Coprocessor>(
        &mut self,
        bus: &mut SramBus,
        xif: &mut X,
        fuel: u64,
    ) -> Result<RunResult, CpuError> {
        let (instret, cycles) = (self.instret, self.cycles);
        let mut stop = StopReason::OutOfFuel;
        while self.instret - instret < fuel {
            if let Some(s) = self.step(bus, xif)? {
                stop = s;
                break;
            }
        }
        Ok(RunResult {
            instret: self.instret - instret,
            cycles: self.cycles - cycles,
            stop,
        })
    }

    fn mem_read(&self, bus: &mut SramBus, addr: u32, size: u32) -> Result<(u32, u64), CpuError> {
        let pc = self.pc;
        let acc = bus
            .read(addr, access_size(size), self.cycles)
            .map_err(|source| CpuError::Bus { pc, source })?;
        Ok((acc.data, acc.cycles + misaligned(addr, size)))
    }

    fn mem_write(
        &self,
        bus: &mut SramBus,
        addr: u32,
        value: u32,
        size: u32,
    ) -> Result<u64, CpuError> {
        let pc = self.pc;
        let acc = bus
            .write(addr, value, access_size(size), self.cycles)
            .map_err(|source| CpuError::Bus { pc, source })?;
        Ok(acc.cycles + misaligned(addr, size))
    }

    fn jump(&self, target: u32) -> Result<u32, CpuError> {
        if target.is_multiple_of(4) {
            Ok(target)
        } else {
            Err(CpuError::MisalignedPc {
                pc: self.pc,
                target,
            })
        }
    }

    fn step<X: Coprocessor>(
        &mut self,
        bus: &mut SramBus,
        xif: &mut X,
    ) -> Result<Option<StopReason>, CpuError> {
        let t = Timing::cv32e40x();
        let pc = self.pc;
        let word = bus
            .fetch(pc, self.cycles)
            .map_err(|source| CpuError::Bus { pc, source })?
            .data;
        let op = oracle_decode(word).ok_or(CpuError::Decode {
            pc,
            source: DecodeError::new(word, ""),
        })?;
        let link = pc.wrapping_add(4);
        let mut next_pc = link;
        let mut cost = t.alu;
        let mut stop = None;
        match op {
            Op::Lui(u) => self.set_reg(u.rd, u.imm),
            Op::Auipc(u) => self.set_reg(u.rd, pc.wrapping_add(u.imm)),
            Op::Jal(u) => {
                next_pc = self.jump(pc.wrapping_add(u.imm))?;
                self.set_reg(u.rd, link);
                cost = t.jump;
            }
            Op::Jalr(i) => {
                next_pc = self.jump(self.reg(i.rs1).wrapping_add(i.imm as u32) & !1)?;
                self.set_reg(i.rd, link);
                cost = t.jump;
            }
            Op::Beq(b) | Op::Bne(b) | Op::Blt(b) | Op::Bge(b) | Op::Bltu(b) | Op::Bgeu(b) => {
                let (x, y) = (self.reg(b.rs1), self.reg(b.rs2));
                let taken = match op {
                    Op::Beq(_) => x == y,
                    Op::Bne(_) => x != y,
                    Op::Blt(_) => (x as i32) < (y as i32),
                    Op::Bge(_) => (x as i32) >= (y as i32),
                    Op::Bltu(_) => x < y,
                    _ => x >= y,
                };
                cost = t.branch_not_taken;
                if taken {
                    next_pc = self.jump(pc.wrapping_add(b.off as u32))?;
                    cost = t.branch_taken;
                }
            }
            Op::Lb(i) | Op::Lh(i) | Op::Lw(i) | Op::Lbu(i) | Op::Lhu(i) => {
                let addr = self.reg(i.rs1).wrapping_add(i.imm as u32);
                cost = self.load(bus, op, i.rd, addr)?;
            }
            Op::LbPost(i) | Op::LhPost(i) | Op::LwPost(i) | Op::LbuPost(i) | Op::LhuPost(i) => {
                let addr = self.reg(i.rs1);
                cost = self.load(bus, op, i.rd, addr)?;
                self.set_reg(i.rs1, addr.wrapping_add(i.imm as u32));
            }
            Op::Sb(s) | Op::Sh(s) | Op::Sw(s) => {
                let addr = self.reg(s.rs1).wrapping_add(s.off as u32);
                cost = self.mem_write(bus, addr, self.reg(s.rs2), store_size(op))?;
            }
            Op::SbPost(s) | Op::ShPost(s) | Op::SwPost(s) => {
                let addr = self.reg(s.rs1);
                cost = self.mem_write(bus, addr, self.reg(s.rs2), store_size(op))?;
                self.set_reg(s.rs1, addr.wrapping_add(s.off as u32));
            }
            Op::Addi(i)
            | Op::Slti(i)
            | Op::Sltiu(i)
            | Op::Xori(i)
            | Op::Ori(i)
            | Op::Andi(i)
            | Op::Slli(i)
            | Op::Srli(i)
            | Op::Srai(i) => {
                let (a, imm) = (self.reg(i.rs1), i.imm as u32);
                let v = match op {
                    Op::Addi(_) => a.wrapping_add(imm),
                    Op::Slti(_) => ((a as i32) < i.imm) as u32,
                    Op::Sltiu(_) => (a < imm) as u32,
                    Op::Xori(_) => a ^ imm,
                    Op::Ori(_) => a | imm,
                    Op::Andi(_) => a & imm,
                    Op::Slli(_) => a << (imm & 31),
                    Op::Srli(_) => a >> (imm & 31),
                    _ => ((a as i32) >> (imm & 31)) as u32,
                };
                self.set_reg(i.rd, v);
            }
            Op::Fence => {}
            Op::Ecall => stop = Some(StopReason::Ecall),
            Op::Ebreak => stop = Some(StopReason::Break),
            Op::PvAddB(r) => cost = self.pv(r, PvOp::Add, 8, &t),
            Op::PvSubB(r) => cost = self.pv(r, PvOp::Sub, 8, &t),
            Op::PvMaxB(r) => cost = self.pv(r, PvOp::Max, 8, &t),
            Op::PvMinB(r) => cost = self.pv(r, PvOp::Min, 8, &t),
            Op::PvDotspB(r) => cost = self.pv(r, PvOp::Dotsp, 8, &t),
            Op::PvSdotspB(r) => cost = self.pv(r, PvOp::Sdotsp, 8, &t),
            Op::PvDotupB(r) => cost = self.pv(r, PvOp::Dotup, 8, &t),
            Op::PvAddH(r) => cost = self.pv(r, PvOp::Add, 16, &t),
            Op::PvSubH(r) => cost = self.pv(r, PvOp::Sub, 16, &t),
            Op::PvMaxH(r) => cost = self.pv(r, PvOp::Max, 16, &t),
            Op::PvMinH(r) => cost = self.pv(r, PvOp::Min, 16, &t),
            Op::PvDotspH(r) => cost = self.pv(r, PvOp::Dotsp, 16, &t),
            Op::PvSdotspH(r) => cost = self.pv(r, PvOp::Sdotsp, 16, &t),
            Op::PvDotupH(r) => cost = self.pv(r, PvOp::Dotup, 16, &t),
            Op::Mac(r) | Op::MaxS(r) | Op::MinS(r) | Op::Abs(r) => {
                let (a, b) = (self.reg(r.rs1), self.reg(r.rs2));
                let v = match op {
                    Op::Mac(_) => self.reg(r.rd).wrapping_add(a.wrapping_mul(b)),
                    Op::MaxS(_) => (a as i32).max(b as i32) as u32,
                    Op::MinS(_) => (a as i32).min(b as i32) as u32,
                    _ => (a as i32).unsigned_abs(),
                };
                self.set_reg(r.rd, v);
                cost = t.simd;
            }
            Op::LoopSetupI {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(loop_id, count, body_len);
                cost = t.loop_setup;
            }
            Op::LoopSetup {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(loop_id, self.reg(count), body_len);
                cost = t.loop_setup;
            }
            Op::Offload {
                raw,
                rd,
                rs1,
                rs2,
                rs3,
            } => {
                let (a, b, c) = (self.reg(rs1), self.reg(rs2), self.reg(rs3));
                match xif.offload(raw, a, b, c, self.cycles) {
                    XifResponse::Accept { writeback, cycles } => {
                        if let Some(v) = writeback {
                            self.set_reg(rd, v);
                        }
                        cost = cycles.max(1);
                    }
                    XifResponse::Reject => return Err(CpuError::RejectedOffload { pc, raw }),
                }
            }
            Op::Add(r)
            | Op::Sub(r)
            | Op::Sll(r)
            | Op::Slt(r)
            | Op::Sltu(r)
            | Op::Xor(r)
            | Op::Srl(r)
            | Op::Sra(r)
            | Op::Or(r)
            | Op::And(r)
            | Op::Mul(r)
            | Op::Mulh(r)
            | Op::Mulhsu(r)
            | Op::Mulhu(r)
            | Op::Div(r)
            | Op::Divu(r)
            | Op::Rem(r)
            | Op::Remu(r) => {
                let (v, c) = alu_rr(op, self.reg(r.rs1), self.reg(r.rs2), &t);
                self.set_reg(r.rd, v);
                cost = c;
            }
        }
        self.cycles += cost;
        self.instret += 1;
        // Zero-overhead hardware loops: the innermost (loop 0) is
        // checked first.
        if next_pc == link {
            for lp in &mut self.loops {
                if lp.active && pc == lp.last {
                    if lp.remaining > 1 {
                        lp.remaining -= 1;
                        next_pc = lp.start;
                    } else {
                        lp.active = false;
                    }
                    break;
                }
            }
        }
        self.pc = next_pc;
        Ok(stop)
    }

    /// A load of `op`'s width and signedness from `addr` into `rd`.
    fn load(&mut self, bus: &mut SramBus, op: Op, rd: Gpr, addr: u32) -> Result<u64, CpuError> {
        let (size, signed) = match op {
            Op::Lb(_) | Op::LbPost(_) => (1, true),
            Op::Lbu(_) | Op::LbuPost(_) => (1, false),
            Op::Lh(_) | Op::LhPost(_) => (2, true),
            Op::Lhu(_) | Op::LhuPost(_) => (2, false),
            _ => (4, false),
        };
        let (raw, c) = self.mem_read(bus, addr, size)?;
        let v = if signed {
            sext(raw, 8 * size) as u32
        } else {
            raw
        };
        self.set_reg(rd, v);
        Ok(c)
    }

    fn pv(&mut self, r: RType, op: PvOp, bits: u32, t: &Timing) -> u64 {
        let v = simd(op, bits, self.reg(r.rd), self.reg(r.rs1), self.reg(r.rs2));
        self.set_reg(r.rd, v);
        t.simd
    }

    fn setup_loop(&mut self, loop_id: bool, count: u32, body_len: u32) {
        let start = self.pc.wrapping_add(4);
        let lp = &mut self.loops[usize::from(loop_id)];
        if count == 0 || body_len == 0 {
            lp.active = false;
            return;
        }
        *lp = HwLoop {
            start,
            last: start.wrapping_add((body_len - 1) * 4),
            remaining: count,
            active: true,
        };
    }
}

fn access_size(bytes: u32) -> AccessSize {
    match bytes {
        1 => AccessSize::Byte,
        2 => AccessSize::Half,
        _ => AccessSize::Word,
    }
}

fn misaligned(addr: u32, size: u32) -> u64 {
    u64::from(!addr.is_multiple_of(size)) * Timing::cv32e40x().misaligned_extra
}

fn store_size(op: Op) -> u32 {
    match op {
        Op::Sb(_) | Op::SbPost(_) => 1,
        Op::Sh(_) | Op::ShPost(_) => 2,
        _ => 4,
    }
}

fn alu_rr(op: Op, a: u32, b: u32, t: &Timing) -> (u32, u64) {
    let (sa, sb) = (a as i32, b as i32);
    match op {
        Op::Add(_) => (a.wrapping_add(b), t.alu),
        Op::Sub(_) => (a.wrapping_sub(b), t.alu),
        Op::Sll(_) => (a << (b & 31), t.alu),
        Op::Slt(_) => ((sa < sb) as u32, t.alu),
        Op::Sltu(_) => ((a < b) as u32, t.alu),
        Op::Xor(_) => (a ^ b, t.alu),
        Op::Srl(_) => (a >> (b & 31), t.alu),
        Op::Sra(_) => ((sa >> (b & 31)) as u32, t.alu),
        Op::Or(_) => (a | b, t.alu),
        Op::And(_) => (a & b, t.alu),
        Op::Mul(_) => (a.wrapping_mul(b), t.mul),
        Op::Mulh(_) => (((i64::from(sa) * i64::from(sb)) >> 32) as u32, t.mulh),
        Op::Mulhsu(_) => (((i64::from(sa) * i64::from(b)) >> 32) as u32, t.mulh),
        Op::Mulhu(_) => (((u64::from(a) * u64::from(b)) >> 32) as u32, t.mulh),
        Op::Div(_) => (
            match b {
                0 => u32::MAX,
                _ => sa.wrapping_div(sb) as u32,
            },
            t.div,
        ),
        Op::Divu(_) => (a.checked_div(b).unwrap_or(u32::MAX), t.div),
        Op::Rem(_) => (
            match b {
                0 => a,
                _ => sa.wrapping_rem(sb) as u32,
            },
            t.div,
        ),
        Op::Remu(_) => (a.checked_rem(b).unwrap_or(a), t.div),
        other => unreachable!("{other:?} is not a register-register ALU op"),
    }
}

/// Packed-SIMD reference over `bits`-wide lanes, one lane at a time.
fn simd(op: PvOp, bits: u32, rd: u32, a: u32, b: u32) -> u32 {
    let mask = u32::MAX >> (32 - bits);
    let lane = |v: u32, i: u32| (v >> (i * bits)) & mask;
    let signed = |v: u32, i: u32| sext(lane(v, i), bits);
    let lanes = 0..32 / bits;
    let pack = |f: &dyn Fn(u32) -> i32| {
        lanes
            .clone()
            .fold(0, |acc, i| acc | ((f(i) as u32) & mask) << (i * bits))
    };
    let dot = |acc: u32| {
        lanes.clone().fold(acc, |s, i| {
            s.wrapping_add(signed(a, i).wrapping_mul(signed(b, i)) as u32)
        })
    };
    match op {
        PvOp::Add => pack(&|i| signed(a, i).wrapping_add(signed(b, i))),
        PvOp::Sub => pack(&|i| signed(a, i).wrapping_sub(signed(b, i))),
        PvOp::Max => pack(&|i| signed(a, i).max(signed(b, i))),
        PvOp::Min => pack(&|i| signed(a, i).min(signed(b, i))),
        PvOp::Dotsp => dot(0),
        PvOp::Sdotsp => dot(rd),
        PvOp::Dotup => lanes
            .clone()
            .fold(0u32, |s, i| s.wrapping_add(lane(a, i) * lane(b, i))),
    }
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        -4096i32..4096,
        any::<u8>(),
    )
        .prop_map(|(kind, rd, rs1, rs2, imm, aux)| Spec {
            kind,
            rd,
            rs1,
            rs2,
            imm,
            aux,
        })
}

/// Each run's result, with a decode error's wording blanked (the
/// oracle's table knows that a word is rejected, not why), and its PC.
fn verdicts(
    runs: &[(Result<RunResult, CpuError>, u32)],
) -> Vec<(Result<RunResult, CpuError>, u32)> {
    let verdict = |r: &Result<RunResult, CpuError>| match *r {
        Err(CpuError::Decode { pc, source }) => Err(CpuError::Decode {
            pc,
            source: DecodeError::new(source.word, ""),
        }),
        other => other,
    };
    runs.iter().map(|(r, pc)| (verdict(r), *pc)).collect()
}

fn assert_same(what: &str, got: &Outcome, want: &Outcome) -> TestCaseResult {
    prop_assert_eq!(
        verdicts(&got.0),
        verdicts(&want.0),
        "{}: run results or the PCs after them diverged",
        what
    );
    prop_assert_eq!(got.1, want.1, "{}: registers diverged", what);
    prop_assert_eq!(got.2, want.2, "{}: pc diverged", what);
    prop_assert_eq!(got.3, want.3, "{}: cycles diverged", what);
    prop_assert_eq!(got.4, want.4, "{}: instret diverged", what);
    prop_assert!(got.5 == want.5, "{}: memory diverged", what);
    Ok(())
}

proptest! {
    #[test]
    fn engines_agree_on_random_programs(
        specs in prop::collection::vec(spec_strategy(), 1..96),
        nest in any::<bool>(),
        stop in any::<u8>(),
        fuel in 1u64..FUEL,
    ) {
        let words = build_image(&specs, nest, stop);
        let oracle = run_oracle(&words, fuel);
        assert_same("block", &run_engine(&words, fuel, EngineMode::Block), &oracle)?;
        assert_same("interp", &run_engine(&words, fuel, EngineMode::Interp), &oracle)?;
    }

    #[test]
    fn engines_agree_on_raw_word_soup(
        words in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        // Pure garbage: mostly decode errors; the error (pc + reason)
        // and all architectural state must match exactly.
        let oracle = run_oracle(&words, FUEL);
        assert_same("block", &run_engine(&words, FUEL, EngineMode::Block), &oracle)?;
        assert_same("interp", &run_engine(&words, FUEL, EngineMode::Interp), &oracle)?;
    }

    #[test]
    fn decoders_agree_on_random_words(
        words in prop::collection::vec((any::<u32>(), 0usize..MAJORS.len(), 0usize..4), 64..65),
    ) {
        // Each random word as drawn, and with its major opcode replaced
        // by a valid one and, three times in four, its funct7 by one the
        // RV32IM tables use.
        for (w, major, f7) in words {
            let mut shaped = w & !0x7f | MAJORS[major];
            if let Some(f7) = [0x00, 0x01, 0x20].get(f7) {
                shaped = shaped & 0x01ff_ffff | f7 << 25;
            }
            for word in [w, shaped] {
                prop_assert_eq!(decode(word).ok(), oracle_decode(word), "word {:#010x}", word);
            }
        }
    }
}

/// The major opcodes the decoders accept.
const MAJORS: [u32; 14] = [
    0x37, 0x17, 0x6f, 0x67, 0x63, 0x03, 0x23, 0x13, 0x33, 0x0f, 0x73, 0x0b, 0x2b, 0x5b,
];

#[test]
fn oracle_rejects_csr_words() {
    assert_eq!(oracle_decode(0x0000_0073), Some(Op::Ecall));
    assert_eq!(oracle_decode(0x0010_0073), Some(Op::Ebreak));
    assert_eq!(oracle_decode(0x0000_2573), None);
    assert_eq!(oracle_decode(0x0010_1073), None);
}

#[test]
fn out_of_fuel_stops_at_identical_state() {
    // An infinite self-branch: both engines must burn exactly FUEL
    // instructions and stop with OutOfFuel at the same pc.
    let words = vec![encode(&Op::Beq(BType {
        rs1: ZERO,
        rs2: ZERO,
        off: 0,
    }))];
    let blk = run_engine(&words, FUEL, EngineMode::Block);
    let interp = run_engine(&words, FUEL, EngineMode::Interp);
    assert_eq!(blk.0, interp.0);
    assert_eq!(blk.0[0].0.unwrap().stop, StopReason::OutOfFuel);
    assert_eq!(blk.4, FUEL);
    assert_eq!(blk.4, interp.4);
}
