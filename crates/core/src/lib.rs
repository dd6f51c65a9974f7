//! # arcane-core — the ARCANE smart last-level cache
//!
//! This crate implements the primary contribution of *"ARCANE: Adaptive
//! RISC-V Cache Architecture for Near-memory Extensions"* (DAC 2025): a
//! last-level cache that doubles as a tightly-coupled near-memory matrix
//! coprocessor.
//!
//! The moving parts, mapped to the paper:
//!
//! | Paper section | Module |
//! |---|---|
//! | §III-A1 cache normal functioning (fully associative, approx-LRU, write-back) | [`cache::CacheTable`], [`StandardLlc`] (the one controller; [`ArcaneLlc`] adds admission stalls and fabric routing, and its VPUs compute on the controller's data array) |
//! | §III-A2 locking & hazard management | `cache::LockWindows`, `cache::AddressTable` |
//! | §III-A3 Address Table | `cache::AddressTable` |
//! | §III-A4 software-driven 2-D DMA | [`runtime::ctx::KernelCtx`] (a cycle formula: setup, per-row cost, bus width) |
//! | §III-B bridge (CV-X-IF offload, SW decode, commit/kill) | [`ArcaneLlc`]'s [`arcane_rv32::Coprocessor`] impl |
//! | §IV-A the `xmnmc` matrix ISA | [`arcane_isa::xmnmc`] (+ dispatch here) |
//! | §IV-B C-RT: decoder, scheduler, allocator | [`ArcaneLlc`], [`runtime`] |
//! | Table I kernel library | [`kernels`] |
//!
//! # Examples
//!
//! Offload a tiny 3-channel convolutional layer exactly like Listing 1
//! of the paper (reserve three matrices, launch `xmk4`):
//!
//! ```
//! use arcane_core::{ArcaneConfig, ArcaneLlc};
//! use arcane_isa::xmnmc::{self, kernel_id, MatReg};
//! use arcane_mem::Memory;
//! use arcane_rv32::{Coprocessor, XifResponse};
//! use arcane_sim::Sew;
//!
//! let mut llc = ArcaneLlc::new(ArcaneConfig::with_lanes(4));
//! let (a, f, r) = (0x2000_0000u32, 0x2001_0000u32, 0x2002_0000u32);
//! // 3 channel planes of 8x8 int32, 3 filter planes of 3x3.
//! for i in 0..(3 * 8 * 8) {
//!     llc.ext_mut().write_u32(a + i * 4, 1).unwrap();
//! }
//! for i in 0..(3 * 3 * 3) {
//!     llc.ext_mut().write_u32(f + i * 4, 1).unwrap();
//! }
//! let m = |i| MatReg::new(i).unwrap();
//! // xmr m0, A; xmr m1, F; xmr m2, R  — then xmk4 m2, m0, m1.
//! let (r1, r2, r3) = xmnmc::pack_xmr(a, 1, m(0), 8, 24);
//! let x = xmnmc::encode_raw(&xmnmc::XInstr { func5: 31, width: Sew::Word,
//!     rs1: arcane_isa::reg::A0, rs2: arcane_isa::reg::A1, rs3: arcane_isa::reg::A2 });
//! assert!(matches!(llc.offload(x, r1, r2, r3, 0), XifResponse::Accept { .. }));
//! let (r1, r2, r3) = xmnmc::pack_xmr(f, 1, m(1), 3, 9);
//! assert!(matches!(llc.offload(x, r1, r2, r3, 10), XifResponse::Accept { .. }));
//! let (r1, r2, r3) = xmnmc::pack_xmr(r, 1, m(2), 3, 3);
//! assert!(matches!(llc.offload(x, r1, r2, r3, 20), XifResponse::Accept { .. }));
//! let xk = xmnmc::encode_raw(&xmnmc::XInstr { func5: kernel_id::CONV_LAYER_3CH,
//!     width: Sew::Word, rs1: arcane_isa::reg::A0, rs2: arcane_isa::reg::A1,
//!     rs3: arcane_isa::reg::A2 });
//! let (r1, r2, r3) = xmnmc::pack_kernel(0, 0, m(2), m(0), m(1), m(0));
//! assert!(matches!(llc.offload(xk, r1, r2, r3, 30), XifResponse::Accept { .. }));
//! // conv of all-ones: every pooled output is 27 (3 channels x 9 taps).
//! assert_eq!(llc.ext().read_u32(r).unwrap(), 27);
//! assert_eq!(llc.records().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
pub mod kernels;
mod llc;
pub mod runtime;
mod sched;
mod standard;

pub use arcane_isa::launch::LaunchMode;
pub use config::{align_line, ArcaneConfig, EXT_BASE, LINE_BYTES};
pub use llc::{ArcaneLlc, KernelRecord};
pub use runtime::map::MatView;
pub use sched::SchedulerKind;
pub use standard::StandardLlc;
