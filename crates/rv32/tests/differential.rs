//! Differential harness: random short programs through the default
//! engine (one predecoded op kept per instruction word), the
//! interpreter (fetches every instruction) and an independent reference
//! stepper ([`Oracle`]) must be observationally identical — registers,
//! memory, cycle count, retired-instruction count, final PC and stop
//! reason (or the exact same [`CpuError`]).
//!
//! The two engines share one run loop and one `exec` over flat
//! predecoded ops, so comparing them only checks the op table's
//! coherence. The oracle keeps the nested `Instr` →
//! `AluImmOp`/`BranchOp`/`LoadOp` semantics over its own register file,
//! which checks the flattening and every flat op.
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
//! inside a nested loop body) and packed-SIMD ops. Failures must
//! reproduce: the proptest shim is deterministic per test name.

use arcane_isa::reg::{Gpr, ZERO};
use arcane_isa::rv32::{decode, encode, AluImmOp, AluOp, BranchOp, Instr, LoadOp, StoreOp};
use arcane_isa::xcvpulp::{PulpInstr, PvOp, SimdWidth};
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
    let instr = match s.kind % 16 {
        0 => Instr::OpImm {
            op: [
                AluImmOp::Addi,
                AluImmOp::Slti,
                AluImmOp::Xori,
                AluImmOp::Ori,
                AluImmOp::Andi,
            ][(s.aux % 5) as usize],
            rd,
            rs1,
            imm: s.imm.clamp(-2048, 2047),
        },
        1 => Instr::OpImm {
            op: [AluImmOp::Slli, AluImmOp::Srli, AluImmOp::Srai][(s.aux % 3) as usize],
            rd,
            rs1,
            imm: s.imm.rem_euclid(32),
        },
        2 => Instr::Op {
            op: [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Sll,
                AluOp::Xor,
                AluOp::Mul,
                AluOp::Mulh,
                AluOp::Div,
                AluOp::Rem,
                AluOp::Sltu,
                AluOp::And,
            ][(s.aux % 10) as usize],
            rd,
            rs1,
            rs2,
        },
        3 => Instr::Load {
            op: [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu]
                [(s.aux % 5) as usize],
            rd,
            rs1,
            offset: s.imm.clamp(-256, 256),
        },
        4 => Instr::Store {
            op: [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw][(s.aux % 3) as usize],
            rs2,
            rs1,
            offset: s.imm.clamp(-256, 256),
        },
        5 => {
            // Branch to a nearby instruction (aligned), forward or back.
            let lo = -(index as i32);
            let hi = (len - index) as i32;
            let delta = (s.imm % 8).clamp(lo, hi - 1).max(lo);
            Instr::Branch {
                op: [
                    BranchOp::Eq,
                    BranchOp::Ne,
                    BranchOp::Lt,
                    BranchOp::Ge,
                    BranchOp::Ltu,
                    BranchOp::Geu,
                ][(s.aux % 6) as usize],
                rs1,
                rs2,
                offset: delta * 4,
            }
        }
        6 => Instr::Lui {
            rd,
            imm: (s.imm as u32) & 0xffff_f000,
        },
        // Mostly the inner loop (0), so it nests in a kind-14 loop.
        7 => Instr::Pulp(PulpInstr::LoopSetupI {
            loop_id: s.aux % 4 == 3,
            count: u16::from(s.rs2 % 6) + 1,
            body_len: s.rd % 8 + 1,
        }),
        8 => Instr::Pulp(PulpInstr::LoadPost {
            op: [LoadOp::Lb, LoadOp::Lw][(s.aux % 2) as usize],
            rd,
            rs1,
            offset: i32::from(s.rs2 % 8),
        }),
        9 => Instr::Pulp(PulpInstr::Mac { rd, rs1, rs2 }),
        10 => Instr::Auipc {
            rd,
            imm: (s.imm as u32) & 0x0000_f000,
        },
        // Raw word: usually undecodable — both engines must raise the
        // identical decode error at the identical pc.
        11 => return s.imm as u32 ^ 0x8000_0513,
        12 => Instr::Pulp(PulpInstr::Simd {
            op: [
                PvOp::Add,
                PvOp::Sub,
                PvOp::Max,
                PvOp::Min,
                PvOp::Dotsp,
                PvOp::Sdotsp,
                PvOp::Dotup,
            ][(s.aux % 7) as usize],
            w: if s.imm % 2 == 0 {
                SimdWidth::B
            } else {
                SimdWidth::H
            },
            rd,
            rs1,
            rs2,
        }),
        13 => match s.aux % 4 {
            0 => Instr::Pulp(PulpInstr::MaxS { rd, rs1, rs2 }),
            1 => Instr::Pulp(PulpInstr::MinS { rd, rs1, rs2 }),
            2 => Instr::Pulp(PulpInstr::Abs { rd, rs1 }),
            _ => Instr::Pulp(PulpInstr::StorePost {
                op: [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw][(s.rd % 3) as usize],
                rs2,
                rs1,
                offset: s.imm.clamp(-64, 64),
            }),
        },
        // Mostly the outer loop (1), counted by one of the seeded
        // registers (x16 = 3000, x17 = 40), so loop nests run long.
        14 => Instr::Pulp(PulpInstr::LoopSetup {
            loop_id: s.aux % 4 != 3,
            count: gpr(16 + s.rs1 % 2),
            body_len: u16::from(s.rd % 8) + 1,
        }),
        // Patch code. Half the patches are aligned `sw`s over one of the
        // next three instructions, mostly with one of the seeded
        // instruction words (x18, x19). The other half are misaligned
        // (`sw` at +2, `sh` at +3), straddle two of the last three words
        // (which a loop may run again, from their predecoded ops) and
        // mostly store x22. Either kind sometimes stores any register.
        _ => {
            let back = index as i32 - 1 - i32::from(s.aux % 3);
            let ahead = (index + 1) as i32 + i32::from(s.aux % 3);
            let (op, offset, seeded) = match s.rd % 4 {
                2 => (StoreOp::Sw, back * 4 + 2, 22),
                3 => (StoreOp::Sh, back * 4 + 3, 22),
                _ => (StoreOp::Sw, ahead * 4, 18 + s.rs2 % 2),
            };
            Instr::Store {
                op,
                rs2: if s.aux % 4 == 3 { rs2 } else { gpr(seeded) },
                rs1: ZERO,
                offset,
            }
        }
    };
    encode(&instr)
}

/// Builds the program image: register-seeding prologue (base pointers
/// into RAM so loads/stores mostly land in bounds, loop counts,
/// instruction words and negative values), an optional hardware-loop
/// nest, the generated body, and `ebreak`.
fn build_image(specs: &[Spec], nest: bool) -> Vec<u32> {
    let mut words = Vec::new();
    // Seed x1..x15 with in-range data addresses: lui + addi pairs.
    for (i, r) in (1u8..16).enumerate() {
        let addr = 0x4000 + (i as i32) * 0x800 + 0x10;
        words.push(encode(&Instr::Lui {
            rd: gpr(r),
            imm: (addr as u32) & 0xffff_f000,
        }));
        words.push(encode(&Instr::OpImm {
            op: AluImmOp::Addi,
            rd: gpr(r),
            rs1: gpr(r),
            imm: addr & 0xfff,
        }));
    }
    // Loop counts for register-count hardware loops, two valid
    // instruction words for the code-patching stores, and two negative
    // values (signed ops only differ from unsigned ones on those). x22
    // feeds the straddling patches: stored at +2 it leaves `addi x5` in
    // the second word's low half, stored as a half at +3 it leaves the
    // OP-IMM opcode in that word's low byte, so both words mostly still
    // decode.
    let patches = [
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd: gpr(5),
            rs1: gpr(5),
            imm: 1,
        },
        Instr::Op {
            op: AluOp::Xor,
            rd: gpr(6),
            rs1: gpr(6),
            rs2: gpr(5),
        },
    ];
    for (r, value) in [
        (16u8, 3000),
        (17, 40),
        (20, 0x8765_4321),
        (21, 0xffff_ff80),
        (22, 0x8293_9312),
    ]
    .into_iter()
    .chain((18u8..).zip(patches.map(|i| encode(&i))))
    {
        words.push(encode(&Instr::Lui {
            rd: gpr(r),
            imm: value.wrapping_add(0x800) & 0xffff_f000,
        }));
        words.push(encode(&Instr::OpImm {
            op: AluImmOp::Addi,
            rd: gpr(r),
            rs1: gpr(r),
            imm: ((value & 0xfff) as i32) << 20 >> 20,
        }));
    }
    if nest {
        // A loop nest around the start of the body: outer loop 1 runs
        // 3000 times over six instructions, inner loop 0 four times
        // over the first three generated ones.
        words.push(encode(&Instr::Pulp(PulpInstr::LoopSetup {
            loop_id: true,
            count: gpr(16),
            body_len: 6,
        })));
        words.push(encode(&Instr::Pulp(PulpInstr::LoopSetupI {
            loop_id: false,
            count: 4,
            body_len: 3,
        })));
    }
    let body_at = words.len();
    for (i, s) in specs.iter().enumerate() {
        words.push(word_of(*s, body_at + i, body_at + specs.len() + 1));
    }
    words.push(encode(&Instr::Ebreak));
    words
}

type Outcome = (
    Result<RunResult, CpuError>,
    [u32; 32],
    u32,
    u64,
    u64,
    Vec<u8>,
);

fn run_engine(words: &[u32], fuel: u64, engine: EngineMode) -> Outcome {
    let mut bus = SramBus::new(RAM);
    bus.load_program(0, words);
    let mut cpu = Cpu::new(0);
    let result = cpu.run_with_engine(&mut bus, &mut NoCoprocessor, fuel, engine);
    let regs: [u32; 32] = std::array::from_fn(|i| cpu.reg(gpr(i as u8)));
    (
        result,
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
    let result = o.run(&mut bus, &mut NoCoprocessor, fuel);
    (result, o.regs, o.pc, o.cycles, o.instret, ram(&bus))
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

/// Reference stepper: fetch, decode and execute one [`Instr`] at a time
/// with nested per-format matches, over its own register file. The
/// semantics and cycle tariff are the core's (RV32IM + XCVPULP, the
/// CV32E40X [`Timing`]), including the fault on a jump to a
/// non-word-aligned PC.
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

    fn run<X: Coprocessor>(
        &mut self,
        bus: &mut SramBus,
        xif: &mut X,
        fuel: u64,
    ) -> Result<RunResult, CpuError> {
        while self.instret < fuel {
            if let Some(stop) = self.step(bus, xif)? {
                return Ok(RunResult {
                    instret: self.instret,
                    cycles: self.cycles,
                    stop,
                });
            }
        }
        Ok(RunResult {
            instret: self.instret,
            cycles: self.cycles,
            stop: StopReason::OutOfFuel,
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
        let instr = decode(word).map_err(|source| CpuError::Decode { pc, source })?;
        let mut next_pc = pc.wrapping_add(4);
        let mut cost = t.alu;
        let mut stop = None;
        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm)),
            Instr::Jal { rd, offset } => {
                next_pc = self.jump(pc.wrapping_add(offset as u32))?;
                self.set_reg(rd, pc.wrapping_add(4));
                cost = t.jump;
            }
            Instr::Jalr { rd, rs1, offset } => {
                next_pc = self.jump(self.reg(rs1).wrapping_add(offset as u32) & !1)?;
                self.set_reg(rd, pc.wrapping_add(4));
                cost = t.jump;
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                cost = t.branch_not_taken;
                if taken {
                    next_pc = self.jump(pc.wrapping_add(offset as u32))?;
                    cost = t.branch_taken;
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let (raw, c) = self.mem_read(bus, addr, op.size())?;
                self.set_reg(rd, extend(op, raw));
                cost = c;
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                cost = self.mem_write(bus, addr, self.reg(rs2), op.size())?;
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let v = match op {
                    AluImmOp::Addi => a.wrapping_add(imm as u32),
                    AluImmOp::Slti => ((a as i32) < imm) as u32,
                    AluImmOp::Sltiu => (a < imm as u32) as u32,
                    AluImmOp::Xori => a ^ imm as u32,
                    AluImmOp::Ori => a | imm as u32,
                    AluImmOp::Andi => a & imm as u32,
                    AluImmOp::Slli => a << (imm & 31),
                    AluImmOp::Srli => a >> (imm & 31),
                    AluImmOp::Srai => ((a as i32) >> (imm & 31)) as u32,
                };
                self.set_reg(rd, v);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let (v, c) = alu_rr(op, self.reg(rs1), self.reg(rs2), &t);
                self.set_reg(rd, v);
                cost = c;
            }
            Instr::Fence => {}
            Instr::Ecall => stop = Some(StopReason::Ecall),
            Instr::Ebreak => stop = Some(StopReason::Break),
            Instr::Pulp(p) => cost = self.exec_pulp(bus, p, &t)?,
            Instr::Custom2 {
                raw,
                rs1,
                rs2,
                rs3,
                rd,
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
        }
        self.cycles += cost;
        self.instret += 1;
        // Zero-overhead hardware loops: the innermost (loop 0) is
        // checked first.
        if next_pc == pc.wrapping_add(4) {
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

    fn exec_pulp(&mut self, bus: &mut SramBus, p: PulpInstr, t: &Timing) -> Result<u64, CpuError> {
        match p {
            PulpInstr::LoadPost {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let (raw, c) = self.mem_read(bus, addr, op.size())?;
                self.set_reg(rd, extend(op, raw));
                self.set_reg(rs1, addr.wrapping_add(offset as u32));
                Ok(c)
            }
            PulpInstr::StorePost {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let c = self.mem_write(bus, addr, self.reg(rs2), op.size())?;
                self.set_reg(rs1, addr.wrapping_add(offset as u32));
                Ok(c)
            }
            PulpInstr::Simd {
                op,
                w,
                rd,
                rs1,
                rs2,
            } => {
                let v = simd(op, w, self.reg(rd), self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                Ok(t.simd)
            }
            PulpInstr::Mac { rd, rs1, rs2 } => {
                let v = self
                    .reg(rd)
                    .wrapping_add(self.reg(rs1).wrapping_mul(self.reg(rs2)));
                self.set_reg(rd, v);
                Ok(t.simd)
            }
            PulpInstr::MaxS { rd, rs1, rs2 } => {
                let v = (self.reg(rs1) as i32).max(self.reg(rs2) as i32);
                self.set_reg(rd, v as u32);
                Ok(t.simd)
            }
            PulpInstr::MinS { rd, rs1, rs2 } => {
                let v = (self.reg(rs1) as i32).min(self.reg(rs2) as i32);
                self.set_reg(rd, v as u32);
                Ok(t.simd)
            }
            PulpInstr::Abs { rd, rs1 } => {
                self.set_reg(rd, (self.reg(rs1) as i32).unsigned_abs());
                Ok(t.simd)
            }
            PulpInstr::LoopSetupI {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(loop_id, count.into(), body_len.into());
                Ok(t.loop_setup)
            }
            PulpInstr::LoopSetup {
                loop_id,
                count,
                body_len,
            } => {
                self.setup_loop(loop_id, self.reg(count), body_len.into());
                Ok(t.loop_setup)
            }
        }
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

fn extend(op: LoadOp, raw: u32) -> u32 {
    match op {
        LoadOp::Lb => raw as u8 as i8 as i32 as u32,
        LoadOp::Lh => raw as u16 as i16 as i32 as u32,
        LoadOp::Lbu => raw & 0xff,
        LoadOp::Lhu => raw & 0xffff,
        LoadOp::Lw => raw,
    }
}

fn alu_rr(op: AluOp, a: u32, b: u32, t: &Timing) -> (u32, u64) {
    let (sa, sb) = (a as i32, b as i32);
    match op {
        AluOp::Add => (a.wrapping_add(b), t.alu),
        AluOp::Sub => (a.wrapping_sub(b), t.alu),
        AluOp::Sll => (a << (b & 31), t.alu),
        AluOp::Slt => ((sa < sb) as u32, t.alu),
        AluOp::Sltu => ((a < b) as u32, t.alu),
        AluOp::Xor => (a ^ b, t.alu),
        AluOp::Srl => (a >> (b & 31), t.alu),
        AluOp::Sra => ((sa >> (b & 31)) as u32, t.alu),
        AluOp::Or => (a | b, t.alu),
        AluOp::And => (a & b, t.alu),
        AluOp::Mul => (a.wrapping_mul(b), t.mul),
        AluOp::Mulh => (((i64::from(sa) * i64::from(sb)) >> 32) as u32, t.mulh),
        AluOp::Mulhsu => (((i64::from(sa) * i64::from(b)) >> 32) as u32, t.mulh),
        AluOp::Mulhu => (((u64::from(a) * u64::from(b)) >> 32) as u32, t.mulh),
        AluOp::Div => (
            match b {
                0 => u32::MAX,
                _ => sa.wrapping_div(sb) as u32,
            },
            t.div,
        ),
        AluOp::Divu => (a.checked_div(b).unwrap_or(u32::MAX), t.div),
        AluOp::Rem => (
            match b {
                0 => a,
                _ => sa.wrapping_rem(sb) as u32,
            },
            t.div,
        ),
        AluOp::Remu => (a.checked_rem(b).unwrap_or(a), t.div),
    }
}

/// Packed-SIMD reference, one lane at a time.
fn simd(op: PvOp, w: SimdWidth, rd: u32, a: u32, b: u32) -> u32 {
    let bits = 32 / w.lanes();
    let mask = u32::MAX >> (32 - bits);
    let lane = |v: u32, i: u32| (v >> (i * bits)) & mask;
    let signed = |v: u32, i: u32| ((lane(v, i) << (32 - bits)) as i32) >> (32 - bits);
    let lanes = 0..w.lanes();
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

fn assert_same(what: &str, got: &Outcome, want: &Outcome) -> TestCaseResult {
    prop_assert_eq!(&got.0, &want.0, "{}: run result diverged", what);
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
        fuel in 1u64..FUEL,
    ) {
        let words = build_image(&specs, nest);
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
}

#[test]
fn out_of_fuel_stops_at_identical_state() {
    // An infinite self-branch: both engines must burn exactly FUEL
    // instructions and stop with OutOfFuel at the same pc.
    let words = vec![encode(&Instr::Branch {
        op: BranchOp::Eq,
        rs1: gpr(0),
        rs2: gpr(0),
        offset: 0,
    })];
    let blk = run_engine(&words, FUEL, EngineMode::Block);
    let interp = run_engine(&words, FUEL, EngineMode::Interp);
    assert_eq!(blk.0, interp.0);
    assert_eq!(blk.0.unwrap().stop, StopReason::OutOfFuel);
    assert_eq!(blk.4, FUEL);
    assert_eq!(blk.4, interp.4);
}
