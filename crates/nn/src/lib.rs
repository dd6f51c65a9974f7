//! # arcane-nn — the int8 layer-graph runtime
//!
//! The paper's evaluation stops at single kernels; ARCANE's Address
//! Table and Kernel Scheduler are built for *chains* of near-memory
//! kernels whose intermediates never leave the LLC (§III–IV). This
//! crate turns that capability into a runtime:
//!
//! 1. **IR** — [`LayerGraph`]: a small, shape-checked layer-graph of
//!    int8/int16/int32 tensors (conv, depthwise conv, GeMM, residual
//!    add, requantise, LeakyReLU, max-pool, transpose, zero-copy
//!    views), with composite [`LayerGraph::attention_block`] /
//!    [`LayerGraph::mlp_block`] / [`LayerGraph::transformer_block`]
//!    builders;
//! 2. **Planner** — [`GraphLayout`]: cache-line-aligned arena placement
//!    of every tensor so chained kernels find their operands
//!    LLC-resident;
//! 3. **Compiler** — [`compile`]: lowers the graph to a real host
//!    program (the `xmnmc` instruction stream of Listing 1), splitting
//!    row-parallel nodes across 1/2/4 VPU instances
//!    ([`CompileOptions::instances`]);
//! 4. **Runner** — [`run_graph_with_engine`]: executes the program end-to-end on
//!    the full [`arcane_system::ArcaneSoc`] and reads the outputs back;
//! 5. **Suite** — [`suite`]: the three evaluation workloads
//!    (depthwise-separable conv layer, residual bottleneck with
//!    requantise fusion, int8 transformer encoder block), each verified
//!    bit-exactly against [`LayerGraph::reference`], which evaluates
//!    any graph with the golden kernels of `arcane_workloads`.
//!
//! # Examples
//!
//! Build, compile and run a tiny residual block, bit-exact against the
//! graph reference:
//!
//! ```
//! use arcane_core::ArcaneConfig;
//! use arcane_nn::suite;
//! use arcane_sim::Sew;
//!
//! let block = suite::residual_bottleneck(4, 8, Sew::Byte, 42);
//! let report = block.run_verified(ArcaneConfig::with_lanes(4), 1);
//! assert_eq!(report.kernels, 6); // gemm, requant, relu, gemm, requant, add
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod graph;
mod plan;
mod run;
pub mod suite;

pub use arcane_isa::launch::LaunchMode;
pub use arcane_system::programs::split_rows;
pub use compile::{compile, CompileError, CompileOptions, DescriptorTable, HostTraffic, NnProgram};
pub use graph::{LayerGraph, Node, Tensor, TensorId, TensorKind};
pub use plan::{GraphLayout, Placement};
pub use run::{run_graph_with_engine, GraphRunReport, RunError};
