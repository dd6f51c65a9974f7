//! Self-modifying-code coherence: a store into the instruction stream
//! must drop the predecoded ops of the words it overwrites, so the
//! default engine observes patched instructions exactly like the
//! interpreter, which fetches every instruction.

use arcane_isa::asm::Asm;
use arcane_isa::exec::{IType, Op};
use arcane_isa::reg::*;
use arcane_isa::rv32::encode;
use arcane_rv32::{Cpu, NoCoprocessor, SramBus, StopReason};
use arcane_sim::EngineMode;

fn run(engine: EngineMode, build: impl FnOnce(&mut Asm)) -> (Cpu, StopReason) {
    let mut a = Asm::new();
    build(&mut a);
    let words = a.assemble(0).unwrap();
    let mut bus = SramBus::new(64 * 1024);
    bus.load_program(0, &words);
    let mut cpu = Cpu::new(0);
    let r = cpu
        .run_with_engine(&mut bus, &mut NoCoprocessor, 1_000_000, engine)
        .unwrap();
    (cpu, r.stop)
}

/// The program patches the instruction right after the store, then
/// falls through into it. Both engines must execute the patched
/// `addi a0, a0, 64`, not the original `addi a0, a0, 1`.
fn patch_program(a: &mut Asm) {
    let patched = encode(&Op::Addi(IType {
        rd: A0,
        rs1: A0,
        imm: 64,
    }));
    a.li(A0, 0);
    a.li(T0, patched as i32);
    // The store target is the addi two instructions below the li
    // emitted next (`li` of a small constant is a single word).
    let target = (a.len() + 2) * 4;
    a.li(T1, target as i32);
    a.sw(T0, T1, 0);
    a.addi(A0, A0, 1); // patched to +64 before execution reaches it
    a.ebreak();
}

#[test]
fn store_patches_upcoming_straight_line_instruction() {
    let (cpu_b, stop_b) = run(EngineMode::Block, patch_program);
    let (cpu_i, stop_i) = run(EngineMode::Interp, patch_program);
    assert_eq!(stop_b, StopReason::Break);
    assert_eq!(stop_i, StopReason::Break);
    assert_eq!(cpu_i.reg(A0), 64, "interpreter sees the patched opcode");
    assert_eq!(cpu_b.reg(A0), 64, "the op table must see it too");
    assert_eq!(cpu_b.cycles(), cpu_i.cycles());
    assert_eq!(cpu_b.instret(), cpu_i.instret());
}

/// A loop whose body is patched mid-run: the first pass executes the
/// original instruction (predecoded on that pass), the store then
/// rewrites it, and every later iteration must run the new opcode.
fn patch_loop_program(a: &mut Asm) {
    let nop_like = encode(&Op::Addi(IType {
        rd: A1,
        rs1: A1,
        imm: 100,
    }));
    a.li(A0, 0); // iteration counter
    a.li(A1, 0); // accumulator
    a.li(A2, 3); // iterations
    a.li(T0, nop_like as i32);
    let top = a.bind_label();
    let patch_at = a.len() * 4; // address of the addi emitted next
    a.addi(A1, A1, 1); // the patch target
    a.li(T1, patch_at as i32);
    a.sw(T0, T1, 0); // after iteration 1 the body says a1 += 100
    a.addi(A0, A0, 1);
    a.blt(A0, A2, top);
    a.ebreak();
}

#[test]
fn store_patches_cached_loop_body() {
    let (cpu_b, _) = run(EngineMode::Block, patch_loop_program);
    let (cpu_i, _) = run(EngineMode::Interp, patch_loop_program);
    // Iteration 1 adds 1, iterations 2 and 3 add 100 each.
    assert_eq!(cpu_i.reg(A1), 201, "interpreter semantics");
    assert_eq!(cpu_b.reg(A1), 201, "the patched op must be re-decoded");
    assert_eq!(cpu_b.cycles(), cpu_i.cycles());
    assert_eq!(cpu_b.instret(), cpu_i.instret());
}

/// A hardware loop whose body *ends with the patching store*: control
/// wraps straight from the store back to the patched word, so the store
/// must drop its op before the wrap, not only on sequential
/// fall-through.
fn patch_hw_loop_program(a: &mut Asm) {
    let patched = encode(&Op::Addi(IType {
        rd: A1,
        rs1: A1,
        imm: 100,
    }));
    a.li(A1, 0); // accumulator
    a.li(T0, patched as i32);
    // Loop body: addi (the patch target) + sw (patches it), 3 times.
    let body_at = a.len() + 2; // cv.setupi + li T1 precede the body
    a.li(T1, (body_at * 4) as i32);
    a.cv_setupi(false, 3, 2);
    a.addi(A1, A1, 1); // body[0]: patched to +100 after iteration 1
    a.sw(T0, T1, 0); // body[1]: ends the body -> hardware-loop wrap
    a.ebreak();
}

#[test]
fn store_ending_hw_loop_body_invalidates_before_wrap() {
    let (cpu_b, stop_b) = run(EngineMode::Block, patch_hw_loop_program);
    let (cpu_i, stop_i) = run(EngineMode::Interp, patch_hw_loop_program);
    assert_eq!(stop_b, StopReason::Break);
    assert_eq!(stop_i, StopReason::Break);
    // Iteration 1 adds 1, iterations 2 and 3 add 100 each.
    assert_eq!(cpu_i.reg(A1), 201, "interpreter semantics");
    assert_eq!(
        cpu_b.reg(A1),
        201,
        "the op table must drop the patched word before the loop wrap"
    );
    assert_eq!(cpu_b.cycles(), cpu_i.cycles());
    assert_eq!(cpu_b.instret(), cpu_i.instret());
}

/// A hardware loop whose store patches the body's first word with a
/// *different* word every iteration. Each iteration must re-decode the
/// word the previous one wrote, never reuse an older op.
fn patch_hw_loop_nonidempotent(a: &mut Asm) {
    let addi_1 = encode(&Op::Addi(IType {
        rd: A1,
        rs1: A1,
        imm: 1,
    }));
    a.li(A1, 0); // accumulator
                 // t0 holds the body[0] word; its addi immediate grows by 1 per
                 // iteration (the I-type immediate lives in bits 31:20).
    a.li(T0, addi_1 as i32);
    a.li(S5, 1 << 20);
    let body_at = a.len() + 2; // li T1 + cv.setupi precede the body
    a.li(T1, (body_at * 4) as i32);
    a.cv_setupi(false, 4, 3);
    a.addi(A1, A1, 1); // body[0]: imm incremented by each iteration
    a.add(T0, T0, S5); // body[1]: prepare the next patch word
                       // body[2]: the patching store ends the body, so the hardware-loop
                       // wrap lands exactly on the word it just rewrote.
    a.sw(T0, T1, 0);
    a.ebreak();
}

#[test]
fn hw_loop_runs_a_new_patch_every_iteration() {
    let (cpu_b, stop_b) = run(EngineMode::Block, patch_hw_loop_nonidempotent);
    let (cpu_i, stop_i) = run(EngineMode::Interp, patch_hw_loop_nonidempotent);
    assert_eq!(stop_b, StopReason::Break);
    assert_eq!(stop_i, StopReason::Break);
    // Iterations add 1, 2, 3, 4.
    assert_eq!(cpu_i.reg(A1), 10, "interpreter semantics");
    assert_eq!(
        cpu_b.reg(A1),
        10,
        "each iteration must run the word the previous one stored"
    );
    assert_eq!(cpu_b.cycles(), cpu_i.cycles());
    assert_eq!(cpu_b.instret(), cpu_i.instret());
}

/// `SramBus::load_program` writes memory behind the core's back, so
/// only `reset` keeps the op table coherent with the new image: after
/// it, image B must run where image A's ops were predecoded.
#[test]
fn reset_runs_a_program_loaded_behind_the_core() {
    let image = |v| {
        let mut a = Asm::new();
        a.li(A0, v);
        a.ebreak();
        a.assemble(0).unwrap()
    };
    for engine in [EngineMode::Block, EngineMode::Interp] {
        let mut bus = SramBus::new(4096);
        bus.load_program(0, &image(7));
        let mut cpu = Cpu::new(0);
        cpu.run_with_engine(&mut bus, &mut NoCoprocessor, 100, engine)
            .unwrap();
        assert_eq!(cpu.reg(A0), 7, "image A runs");
        bus.load_program(0, &image(9));
        cpu.reset(0);
        let r = cpu
            .run_with_engine(&mut bus, &mut NoCoprocessor, 100, engine)
            .unwrap();
        assert_eq!(r.stop, StopReason::Break);
        assert_eq!(cpu.reg(A0), 9, "image B runs after reset");
    }
}
