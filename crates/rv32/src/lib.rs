//! RV32IM + XCVPULP instruction-set simulator.
//!
//! Models the two CPU cores the paper evaluates:
//!
//! * **CV32E40X** (host CPU and eCPU) — RV32IM(C), 4-stage in-order.
//! * **CV32E40PX** — the same pipeline extended with the XCVPULP
//!   packed-SIMD/DSP instructions and hardware loops (the strongest CPU
//!   baseline in Figure 4).
//!
//! The simulator executes real machine code produced by
//! [`arcane_isa::asm::Asm`] against any [`arcane_mem::Bus`]
//! implementation, accumulating cycles from a CV32E40X-derived
//! [`Timing`] model plus whatever wait states the bus reports (cache
//! hits/misses, hazard stalls — this is how the ARCANE LLC interacts
//! with the host core).
//!
//! Custom-2 instructions are not executed by the core: they are offered
//! to a [`Coprocessor`] through the CV-X-IF-style
//! [`Coprocessor::offload`] hook, mirroring the paper's offloading
//! mechanism (§III-B).
//!
//! [`Cpu::run`] has one run loop. By default it keeps one predecoded
//! [`arcane_isa::exec::Op`] per instruction word, so each word is
//! fetched and decoded once until a store overwrites it;
//! `ARCANE_INTERP=1` bypasses that table and fetches every instruction.
//! Both run the same per-op semantics, so results are bit- and
//! cycle-identical.
//!
//! # Examples
//!
//! ```
//! use arcane_isa::asm::Asm;
//! use arcane_isa::reg::A0;
//! use arcane_rv32::{Cpu, NoCoprocessor, SramBus};
//!
//! let mut a = Asm::new();
//! a.li(A0, 21);
//! a.add(A0, A0, A0);
//! a.ebreak();
//! let mut bus = SramBus::new(64 * 1024);
//! bus.load_program(0, &a.assemble(0).unwrap());
//! let mut cpu = Cpu::new(0);
//! let run = cpu.run(&mut bus, &mut NoCoprocessor, 1_000).unwrap();
//! assert_eq!(cpu.reg(A0), 42);
//! assert!(run.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod simd;
mod timing;
mod xif;

pub use cpu::{Cpu, CpuError, RunResult, SramBus, StopReason};
pub use timing::Timing;
pub use xif::{Coprocessor, NoCoprocessor, XifResponse};
