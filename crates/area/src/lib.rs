//! 65 nm area and peak-throughput models for the ARCANE evaluation.
//!
//! The paper's Table II and Figure 2 come from Synopsys Design Compiler
//! runs on a 65 nm LP library — re-running synthesis is outside the
//! scope of a Rust reproduction, so this crate provides a
//! **component-level area model** calibrated on the published breakdown
//! and parameterised by the architecture knobs (VPU lanes, VPU count,
//! memory sizes). The model regenerates:
//!
//! * Table II — total area (µm², kGE) and overhead of the 2/4/8-lane
//!   ARCANE configurations versus the baseline X-HEEP;
//! * Figure 2 — the component percentage split of both systems;
//! * §V-C — peak GOPS, area efficiency and the comparison against
//!   BLADE and Intel CNC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod throughput;

pub use model::{AreaBreakdown, AreaModel, Component};
pub use throughput::{peak_gops, ThroughputPoint, BLADE, INTEL_CNC};
