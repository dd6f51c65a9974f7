//! Memory substrate for the ARCANE reproduction.
//!
//! The paper's system (Figure 1) contains an instruction memory, an
//! external flash/PSRAM behind the LLC and a system bus. This crate
//! models them (the X-HEEP 2-D DMA of the Matrix Allocator is a cycle
//! formula in `arcane-core`):
//!
//! * [`Bus`] — the CPU-facing port abstraction; every access returns the
//!   data **and** the cycles it consumed, which is how the timing model
//!   propagates through the simulation.
//! * [`Memory`] — byte-addressed storage trait with [`Sram`] (single
//!   cycle) and [`ExtMem`] (burst-modeled flash/PSRAM) implementations.
//!
//! # Examples
//!
//! ```
//! use arcane_mem::{Memory, Sram};
//!
//! let mut ram = Sram::new(0x1000, 64);
//! ram.write_u32(0x1010, 0xdeadbeef).unwrap();
//! assert_eq!(ram.read_u32(0x1010).unwrap(), 0xdeadbeef);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod storage;

pub use bus::{Access, AccessSize, Bus, BusError};
pub use storage::{ExtMem, Memory, Sram};
