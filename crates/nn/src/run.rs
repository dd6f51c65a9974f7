//! End-to-end graph execution on the full ARCANE SoC.
//!
//! The runner seeds the graph's input tensors into external memory,
//! loads the compiled host program, runs it on the instruction-set
//! simulator (one predecoded op per instruction word by default, a
//! fetch and decode per instruction under `ARCANE_INTERP=1`), and reads
//! every output tensor back — mirroring `arcane_system::driver` for
//! graph workloads.

use crate::compile::{compile, CompileError, CompileOptions, NnProgram};
use crate::graph::LayerGraph;
use arcane_core::kernels::KernelError;
use arcane_core::{ArcaneConfig, KernelRecord, LaunchMode};
use arcane_mem::Memory;
use arcane_rv32::{CpuError, StopReason};
use arcane_sim::{ChannelUtil, EngineMode, LaunchStats, PhaseBreakdown};
use arcane_system::report::PhaseSplitRow;
use arcane_system::{ArcaneSoc, EXT_BASE};
use arcane_workloads::Matrix;
use std::error::Error;
use std::fmt;

/// Simulation fuel: generous headroom for the largest graph programs.
const FUEL: u64 = 4_000_000_000;

/// Why a graph run produced no outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The graph did not compile.
    Compile(CompileError),
    /// The host program faulted: a bus fault, or an offload the LLC
    /// rejected.
    Fault {
        /// The host-side fault.
        cpu: CpuError,
        /// The LLC's last kernel error ([`arcane_core::ArcaneLlc::last_error`]),
        /// which names the cause of a rejected offload.
        kernel: Option<KernelError>,
    },
    /// The program stopped short of its closing `ebreak` (fuel ran out).
    Stopped(StopReason),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "graph does not compile: {e}"),
            RunError::Fault { cpu, kernel } => {
                write!(f, "graph host program faulted: {cpu}")?;
                kernel
                    .as_ref()
                    .map_or(Ok(()), |k| write!(f, " (kernel error: {k})"))
            }
            RunError::Stopped(why) => write!(f, "graph program stopped early: {why:?}"),
        }
    }
}

impl Error for RunError {}

/// Outcome of one graph run.
#[derive(Debug, Clone)]
pub struct GraphRunReport {
    /// Total cycles (program start → last kernel writeback).
    pub cycles: u64,
    /// Host instructions retired.
    pub instret: u64,
    /// `xmkN` kernels executed.
    pub kernels: usize,
    /// Kernel phase breakdown summed over the chain.
    pub phases: PhaseBreakdown,
    /// Output tensors, in [`LayerGraph::outputs`] order.
    pub outputs: Vec<Matrix>,
    /// Per-kernel records (id, VPU placement, phase timing).
    pub records: Vec<KernelRecord>,
    /// `xmr` rebinds the C-RT resolved by renaming.
    pub renames: u64,
    /// Dirty cache lines written back (kernel flushes + host-traffic
    /// evictions — the cost the scheduler-policy ablation measures).
    pub writebacks: u64,
    /// Per-channel utilisation (eCPU + fabric ports) over the run.
    pub channels: Vec<ChannelUtil>,
    /// Launch backend the program ran under.
    pub launch: LaunchMode,
    /// Descriptor launch-pipeline counters (all zero in legacy mode).
    pub launch_stats: LaunchStats,
}

impl GraphRunReport {
    /// Number of kernels the scheduler placed on each VPU
    /// (index = VPU instance).
    pub fn kernels_per_vpu(&self, n_vpus: usize) -> Vec<usize> {
        let mut per = vec![0usize; n_vpus];
        for r in &self.records {
            per[r.vpu] += 1;
        }
        per
    }

    /// One row of the machine-generated preamble/compute/decode split
    /// table (EXPERIMENTS.md "NN layer graphs"; render with
    /// [`arcane_system::report::format_phase_split_table`]).
    pub fn split_row(&self, label: impl Into<String>) -> PhaseSplitRow {
        PhaseSplitRow {
            label: label.into(),
            kernels: self.kernels,
            cycles: self.cycles,
            phases: self.phases,
            decode_cycles: self.launch_stats.decode_cycles,
        }
    }
}

/// Compiles and runs `graph` on an [`ArcaneSoc`] built from `cfg`,
/// with an explicit engine choice (differential testing).
///
/// `inputs` seeds the graph's input tensors in declaration order.
///
/// # Errors
///
/// Returns [`RunError`] if the graph does not compile, the host
/// program faults (e.g. a rejected offload), or the run exhausts fuel.
///
/// # Panics
///
/// Panics if an input count or shape disagrees with the graph, or the
/// compiled arena does not fit `cfg.ext_size`.
pub fn run_graph_with_engine(
    cfg: ArcaneConfig,
    graph: &LayerGraph,
    inputs: &[Matrix],
    opts: &CompileOptions,
    engine: EngineMode,
) -> Result<GraphRunReport, RunError> {
    let sew = graph.sew();
    let program: NnProgram = compile(graph, EXT_BASE, opts).map_err(RunError::Compile)?;
    assert!(
        (program.mem_end - EXT_BASE) as usize <= cfg.ext_size,
        "graph arena (plus descriptor tables and host-traffic window) exceeds external memory"
    );

    // The SoC must decode what the compiler emitted: the launch mode is
    // a program property, so it overrides the config knob.
    let mut cfg = cfg;
    cfg.launch = program.launch;
    let mut soc = ArcaneSoc::new(cfg);
    // Seed the descriptor tables (the driver's command rings).
    for table in &program.tables {
        let bytes: Vec<u8> = table.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        soc.llc_mut()
            .ext_mut()
            .write_bytes(table.addr, &bytes)
            .unwrap();
    }
    for (id, mat) in graph.bind_inputs(inputs) {
        let p = program.layout.place(id);
        soc.llc_mut()
            .ext_mut()
            .write_bytes(p.addr, &mat.to_bytes(sew))
            .unwrap();
    }

    soc.load_program(&program.asm);
    let run = soc
        .run_with_engine(FUEL, engine)
        .map_err(|cpu| RunError::Fault {
            cpu,
            kernel: soc.llc().last_error().cloned(),
        })?;
    if run.stop != StopReason::Break {
        return Err(RunError::Stopped(run.stop));
    }

    let llc = soc.llc();
    let mut outputs = Vec::with_capacity(graph.outputs().len());
    for &out in graph.outputs() {
        let p = program.layout.place(out);
        let mut bytes = vec![0u8; p.bytes(sew.bytes())];
        llc.ext().read_bytes(p.addr, &mut bytes).unwrap();
        outputs.push(Matrix::from_bytes(p.rows, p.cols, sew, &bytes));
    }
    let records = llc.records().to_vec();
    let phases = records
        .iter()
        .fold(PhaseBreakdown::default(), |acc, r| acc + r.phases);
    Ok(GraphRunReport {
        cycles: run.cycles.max(llc.completion_time()),
        instret: run.instret,
        kernels: records.len(),
        phases,
        outputs,
        records,
        renames: llc.renames(),
        writebacks: llc.stats().writebacks.get(),
        channels: llc.channel_utilisation(),
        launch: program.launch,
        launch_stats: *llc.launch_stats(),
    })
}
