//! X-HEEP system assembly for the ARCANE evaluation.
//!
//! Three systems, mirroring the paper's §V-C comparison:
//!
//! * [`ArcaneSoc`] — CV32E40X host + **ARCANE smart LLC** (the paper's
//!   system, Figure 1);
//! * [`BaselineSoc`] in scalar mode — CV32E40X host + conventional LLC
//!   (the speedup denominator);
//! * [`BaselineSoc`] running XCVPULP code — CV32E40PX host
//!   (packed-SIMD + DSP + hardware loops) + conventional LLC.
//!
//! The [`driver`] module seeds workloads, assembles the corresponding
//! machine-code programs ([`programs`]), runs them end-to-end on the
//! instruction-set simulator and verifies every result against the
//! golden models before reporting cycle counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
mod layout;
pub mod programs;
pub mod report;
mod soc;

pub use layout::{ConvLayerParams, Layout, EXT_BASE, IMEM_SIZE};
pub use report::{format_channel_table, format_phase_split_table, PhaseSplitRow, RunReport};
pub use soc::{ArcaneSoc, BaselineSoc};
