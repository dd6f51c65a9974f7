//! Graph → kernel-chain compiler: lowers a [`LayerGraph`] to the
//! `xmnmc` instruction stream of a host program.
//!
//! Compilation has one lowering and two emitters. The lowering walks
//! the graph once and applies the per-node slicing rules: every node
//! becomes a run of kernel launches, each naming the dense operand
//! regions it reads and writes. Both launch backends
//! ([`CompileOptions::launch`]) emit from that one launch list, and
//! they share the host-traffic window cursor (one word store per cache
//! line, each a line past the previous one, wrapping to the window's
//! start after every burst), the traffic-burst rule and the
//! output-sync epilogue:
//!
//! * **Legacy** (default) — the host-program idiom of the paper's
//!   Listing 1 (and `arcane_system::programs::offload`): for every
//!   launch the host materialises the three packed operand registers,
//!   issues the `xmr` reservations for the operands the kernel touches,
//!   then issues the `xmkN` itself. A fixed trio of logical matrix
//!   registers (`m0` = destination, `m1`/`m2` = sources) is rebound
//!   before every kernel — the C-RT's renaming captures each binding
//!   by value at decode, so chained kernels keep their operands while
//!   the host moves on (§IV-B1). An operand shared by every slice of a
//!   node (GeMM's weights) is bound once, before the slices.
//! * **Descriptor** — the batched launch pipeline (ARCHITECTURE.md
//!   "Launch pipeline"): a linear-scan tensor-register allocator keeps
//!   hot operand regions bound across the whole kernel chain over all
//!   sixteen matrix registers, and each node lowers to **one**
//!   [`DescriptorBatch`] covering its VPU slices instead of a
//!   `pack_xmr`/`xmkN` train per slice. The encoded batches live in a
//!   table region past the tensor arena ([`NnProgram::tables`], seeded
//!   by the runner like any other program data), and the host launches
//!   each with a single `xmb`.
//!
//! **Multi-VPU dispatch**: with [`CompileOptions::instances`] > 1 the
//! compiler splits every row-parallel node (GeMM, residual add,
//! requantise, LeakyReLU) into that many kernel invocations on disjoint
//! row slices, and a depthwise convolution always fans out one `xmk3`
//! per channel plane. The Kernel Scheduler then spreads the slices
//! across VPU instances under the configured placement policy.

use crate::graph::{LayerGraph, Node, TensorId};
use crate::plan::{GraphLayout, Placement};
use arcane_core::align_line;
use arcane_isa::asm::Asm;
use arcane_isa::launch::{
    xmb_instr, DescriptorBatch, LaunchDescriptor, LaunchMode, OperandBinding,
};
use arcane_isa::reg::{T0, T1};
use arcane_isa::rv32::LoadOp;
use arcane_isa::xmnmc::{self, kernel_id, MatReg, NUM_MAT_REGS};
use arcane_sim::Sew;
use arcane_system::programs::split_rows;
use arcane_system::IMEM_SIZE;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Cache-line size the traffic window is laid out in (= VLEN = the
/// arena's placement alignment, so the scratch window always starts
/// on a fresh line past the tensors).
const LINE_BYTES: u32 = crate::plan::ALIGN;

/// Error produced by [`compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The graph marks no output tensor, so the program would have
    /// nothing to synchronise on.
    NoOutputs,
    /// `instances` was zero.
    ZeroInstances,
    /// A tensor (or row slice) exceeds the 16-bit row/column fields of
    /// the `xmr`/descriptor binding encoding.
    DimensionTooLarge {
        /// Rows of the offending region.
        rows: usize,
        /// Columns of the offending region.
        cols: usize,
    },
    /// The host program does not fit the SoC's instruction memory.
    ProgramTooLarge {
        /// Size of the assembled program in bytes, or a lower bound on
        /// it when one host-traffic burst alone is too large to emit.
        bytes: usize,
        /// Instruction-memory size in bytes.
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoOutputs => f.write_str("graph needs at least one output"),
            CompileError::ZeroInstances => f.write_str("instances must be >= 1"),
            CompileError::DimensionTooLarge { rows, cols } => write!(
                f,
                "tensor dimension {rows}x{cols} exceeds the 16-bit xmr encoding"
            ),
            CompileError::ProgramTooLarge { bytes, limit } => write!(
                f,
                "host program of {bytes} B exceeds the {limit} B instruction memory"
            ),
        }
    }
}

impl Error for CompileError {}

/// Host-traffic knob for compiled graph programs: every `period`
/// kernels, the host dirties `bytes` of external memory (one word
/// store per cache line touched). Scheduler and arbiter policies only
/// diverge under this mixed host/kernel load: a kernel chain alone
/// never dirties a line from the host side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTraffic {
    /// Kernels between traffic bursts (≥ 1).
    pub period: usize,
    /// Span of external memory each burst dirties, in bytes.
    pub bytes: u32,
}

impl HostTraffic {
    /// A burst of `bytes` dirtied after every `period` kernels.
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero.
    pub fn new(period: usize, bytes: u32) -> Self {
        assert!(period > 0, "traffic period must be at least one kernel");
        HostTraffic { period, bytes }
    }
}

/// Compiler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Target number of kernel invocations per row-parallel node
    /// (1 = one kernel per node; 2/4 = the multi-instance split of
    /// §V-C applied to the whole graph).
    pub instances: usize,
    /// Synthetic host traffic: after every `period` kernels the host
    /// program dirties `bytes` of a scratch window past the tensor
    /// arena (one word store per cache line) — the mixed host/kernel
    /// load under which scheduler and arbiter policies diverge.
    pub host_traffic: Option<HostTraffic>,
    /// Launch backend: the paper's per-instruction `xmr`/`xmkN` path
    /// (default) or the batched descriptor pipeline (DESIGN.md §4.6).
    pub launch: LaunchMode,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            instances: 1,
            host_traffic: None,
            launch: LaunchMode::Legacy,
        }
    }
}

impl CompileOptions {
    /// Options with `instances`-way splitting and no host traffic.
    pub fn with_instances(instances: usize) -> Self {
        CompileOptions {
            instances,
            ..CompileOptions::default()
        }
    }

    /// Options with `instances`-way splitting on the descriptor-batch
    /// launch pipeline.
    pub fn descriptor(instances: usize) -> Self {
        CompileOptions {
            instances,
            launch: LaunchMode::Descriptor,
            ..CompileOptions::default()
        }
    }
}

/// One encoded descriptor table: seeded into external memory at `addr`
/// before the program runs (the runner does this, the way a driver
/// prepares a command ring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorTable {
    /// Base address of the table in external memory.
    pub addr: u32,
    /// The encoded batch words.
    pub words: Vec<u32>,
}

/// A compiled graph: the host program plus its memory plan.
#[derive(Debug)]
pub struct NnProgram {
    /// The assembled host program (load with `ArcaneSoc::load_program`).
    pub asm: Asm,
    /// Tensor placements backing the program's operand addresses.
    pub layout: GraphLayout,
    /// `xmkN` invocations emitted (descriptors under the batched
    /// pipeline).
    pub kernels: usize,
    /// Operand-region bindings emitted: `xmr` reservations on the
    /// legacy path, fresh descriptor bindings under the batched
    /// pipeline (where the register allocator's reuse makes this much
    /// smaller than `3 × kernels`).
    pub reservations: usize,
    /// Host store instructions injected by the traffic knob.
    pub host_stores: usize,
    /// End of everything the program touches in external memory
    /// (tensor arena, descriptor tables, host-traffic scratch window).
    pub mem_end: u32,
    /// Launch backend this program was compiled for (the SoC must run
    /// with the matching [`arcane_core::ArcaneConfig::launch`]).
    pub launch: LaunchMode,
    /// Descriptor batches emitted (zero on the legacy path).
    pub batches: usize,
    /// Encoded descriptor tables to seed before running (empty on the
    /// legacy path).
    pub tables: Vec<DescriptorTable>,
}

fn check_dims(rows: usize, cols: usize) -> Result<(), CompileError> {
    if rows <= u16::MAX as usize && cols <= u16::MAX as usize {
        Ok(())
    } else {
        Err(CompileError::DimensionTooLarge { rows, cols })
    }
}

fn m(i: u8) -> MatReg {
    MatReg::new(i).expect("matrix register")
}

// ---------------------------------------------------------------------
// The lowering: one walk of the graph into a flat launch list.
// ---------------------------------------------------------------------

/// A dense operand region a kernel binds: the allocator's unit of
/// reuse. Two launches naming the same region share one live binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Region {
    addr: u32,
    rows: u16,
    cols: u16,
}

impl Region {
    fn new(addr: u32, rows: usize, cols: usize) -> Result<Region, CompileError> {
        check_dims(rows, cols)?;
        Ok(Region {
            addr,
            rows: rows as u16,
            cols: cols as u16,
        })
    }

    fn of(p: Placement) -> Result<Region, CompileError> {
        Region::new(p.addr, p.rows, p.cols)
    }

    fn slice(p: Placement, y0: usize, rows: usize, esz: usize) -> Result<Region, CompileError> {
        Region::new(p.row_addr(y0, esz), rows, p.cols)
    }
}

/// One kernel invocation in region form.
#[derive(Debug, Clone, Copy)]
struct Launch {
    kernel: u8,
    alpha: i16,
    beta: i16,
    md: Region,
    ms1: Region,
    /// Second source, `None` for kernels that read only one. The
    /// encoded `ms2` (and `ms3`) fields then name the `ms1` register:
    /// bound, never read.
    ms2: Option<Region>,
}

impl Launch {
    /// The operand regions in binding order (an absent `ms2` repeats
    /// `ms1`, which the allocator folds into one binding).
    fn regions(&self) -> [Region; 3] {
        [self.ms1, self.ms2.unwrap_or(self.ms1), self.md]
    }
}

/// The launches one graph node lowers to: one descriptor batch, or one
/// legacy `xmr`/`xmkN` train.
#[derive(Debug, Clone, Copy)]
struct NodeLaunches {
    /// Launches (slices) the node contributes.
    len: usize,
    /// Every slice reads the same whole `ms2` region (GeMM's weights):
    /// the legacy stream binds it once, before the slices.
    shared_ms2: bool,
}

/// A graph lowered to kernel launches, the input of both emitters.
struct Lowering<'a> {
    layout: &'a GraphLayout,
    esz: usize,
    instances: usize,
    launches: Vec<Launch>,
    nodes: Vec<NodeLaunches>,
}

impl<'a> Lowering<'a> {
    /// Applies the per-node slicing rules to every node of `graph`.
    fn new(
        graph: &LayerGraph,
        layout: &'a GraphLayout,
        instances: usize,
    ) -> Result<Self, CompileError> {
        let mut l = Lowering {
            layout,
            esz: graph.sew().bytes(),
            instances,
            launches: Vec::new(),
            nodes: Vec::with_capacity(graph.nodes().len()),
        };
        for node in graph.nodes() {
            let first = l.launches.len();
            let mut shared_ms2 = false;
            match *node {
                Node::Conv2d {
                    input,
                    filter,
                    dest,
                } => l.whole_op(kernel_id::CONV2D, (0, 0), input, Some(filter), dest)?,
                Node::DepthwiseConv {
                    input,
                    filter,
                    channels,
                    dest,
                } => {
                    let rows = |t: TensorId| l.layout.place(t).rows / channels;
                    let (h, k, oh) = (rows(input), rows(filter), rows(dest));
                    for c in 0..channels {
                        let ms1 = l.slice(input, c * h, h)?;
                        let ms2 = Some(l.slice(filter, c * k, k)?);
                        let md = l.slice(dest, c * oh, oh)?;
                        l.push(kernel_id::CONV2D, (0, 0), ms1, ms2, md);
                    }
                }
                Node::Gemm { a, b, dest } => {
                    shared_ms2 = true;
                    let ms2 = Some(l.whole(b)?);
                    for (y0, rows) in split_rows(l.layout.place(a).rows, instances) {
                        let ms1 = l.slice(a, y0, rows)?;
                        l.push(kernel_id::GEMM, (1, 0), ms1, ms2, l.slice(dest, y0, rows)?);
                    }
                }
                Node::ResidualAdd { a, b, dest } => {
                    l.rowwise(kernel_id::MAT_ADD, (0, 0), a, Some(b), dest)?
                }
                Node::Requantise {
                    input,
                    mul,
                    shift,
                    dest,
                } => l.rowwise(kernel_id::MAT_SCALE, (mul, shift), input, None, dest)?,
                Node::LeakyRelu { input, shift, dest } => {
                    l.rowwise(kernel_id::LEAKY_RELU, (shift, 0), input, None, dest)?
                }
                Node::MaxPool {
                    input,
                    win,
                    stride,
                    dest,
                } => {
                    let params = (stride as i16, win as i16);
                    l.whole_op(kernel_id::MAXPOOL, params, input, None, dest)?
                }
                Node::Transpose { input, dest } => {
                    l.whole_op(kernel_id::TRANSPOSE, (0, 0), input, None, dest)?
                }
            }
            l.nodes.push(NodeLaunches {
                len: l.launches.len() - first,
                shared_ms2,
            });
        }
        Ok(l)
    }

    fn whole(&self, t: TensorId) -> Result<Region, CompileError> {
        Region::of(self.layout.place(t))
    }

    fn slice(&self, t: TensorId, y0: usize, rows: usize) -> Result<Region, CompileError> {
        Region::slice(self.layout.place(t), y0, rows, self.esz)
    }

    fn push(
        &mut self,
        kernel: u8,
        (alpha, beta): (i16, i16),
        ms1: Region,
        ms2: Option<Region>,
        md: Region,
    ) {
        self.launches.push(Launch {
            kernel,
            alpha,
            beta,
            md,
            ms1,
            ms2,
        });
    }

    /// A kernel over whole tensors: one launch.
    fn whole_op(
        &mut self,
        kernel: u8,
        params: (i16, i16),
        ms1: TensorId,
        ms2: Option<TensorId>,
        dest: TensorId,
    ) -> Result<(), CompileError> {
        let r1 = self.whole(ms1)?;
        let r2 = ms2.map(|t| self.whole(t)).transpose()?;
        self.push(kernel, params, r1, r2, self.whole(dest)?);
        Ok(())
    }

    /// A row-parallel kernel, split into `instances` row slices of
    /// `dest` with the sources sliced alike.
    fn rowwise(
        &mut self,
        kernel: u8,
        params: (i16, i16),
        ms1: TensorId,
        ms2: Option<TensorId>,
        dest: TensorId,
    ) -> Result<(), CompileError> {
        for (y0, rows) in split_rows(self.layout.place(dest).rows, self.instances) {
            let r1 = self.slice(ms1, y0, rows)?;
            let r2 = ms2.map(|t| self.slice(t, y0, rows)).transpose()?;
            self.push(kernel, params, r1, r2, self.slice(dest, y0, rows)?);
        }
        Ok(())
    }

    /// Each node's framing with the launches it lowered to.
    fn per_node(&self) -> impl Iterator<Item = (NodeLaunches, &[Launch])> {
        let mut rest = &self.launches[..];
        self.nodes.iter().map(move |&n| {
            let (node, tail) = rest.split_at(n.len);
            rest = tail;
            (n, node)
        })
    }
}

// ---------------------------------------------------------------------
// Emission: the host-program frame both backends share.
// ---------------------------------------------------------------------

/// Host-program state both launch backends emit into.
struct Program {
    asm: Asm,
    kernels: usize,
    reservations: usize,
    traffic: Option<HostTraffic>,
    /// First byte of the host-traffic scratch window.
    scratch: u32,
    host_stores: usize,
    mem_end: u32,
}

impl Program {
    /// An empty program whose data ends at `end`. The host-traffic
    /// scratch window (when the knob is set) sits line-aligned past it,
    /// sized to one burst, so stores dirty cache lines without touching
    /// any operand or descriptor table.
    fn new(end: u32, knob: Option<HostTraffic>) -> Self {
        let scratch = align_line(end);
        Program {
            asm: Asm::new(),
            kernels: 0,
            reservations: 0,
            traffic: knob,
            scratch,
            host_stores: 0,
            mem_end: knob.map_or(end, |k| {
                scratch + k.bytes.next_multiple_of(LINE_BYTES).max(LINE_BYTES)
            }),
        }
    }

    /// `xmr` binding `reg` to region `r`.
    fn xmr(&mut self, sew: Sew, reg: u8, r: Region) {
        self.asm.offload(
            xmnmc::pack_xmr(r.addr, 1, m(reg), r.cols, r.rows),
            |r1, r2, r3| xmnmc::xmr_instr(sew, r1, r2, r3),
        );
        self.reservations += 1;
    }

    /// Counts `n` just-launched kernels. After every `period`-th kernel
    /// the host dirties the scratch window: one word store per line,
    /// `ceil(bytes / LINE_BYTES)` stores, each one line past the
    /// previous one. The window holds exactly one burst's lines, so the
    /// cursor wraps to the window's start after every burst, and every
    /// burst re-dirties the same working set.
    fn launched(&mut self, n: usize) {
        let first = self.kernels;
        self.kernels += n;
        let Some(knob) = self.traffic else {
            return;
        };
        for k in first + 1..=self.kernels {
            if !k.is_multiple_of(knob.period) {
                continue;
            }
            for line in 0..knob.bytes.div_ceil(LINE_BYTES) {
                let addr = self.scratch + line * LINE_BYTES;
                self.asm.li(T0, addr as i32);
                self.asm.li(T1, self.host_stores as i32);
                self.asm.sw(T1, T0, 0);
                self.host_stores += 1;
            }
        }
    }

    /// Synchronises on every output, halts, and packages the program.
    fn finish(
        mut self,
        graph: &LayerGraph,
        layout: GraphLayout,
        launch: LaunchMode,
        tables: Vec<DescriptorTable>,
    ) -> NnProgram {
        let op = LoadOp::signed(graph.sew());
        for &out in graph.outputs() {
            self.asm.li(T0, layout.place(out).addr as i32);
            self.asm.load(op, T1, T0, 0);
        }
        self.asm.ebreak();
        NnProgram {
            asm: self.asm,
            layout,
            kernels: self.kernels,
            reservations: self.reservations,
            host_stores: self.host_stores,
            mem_end: self.mem_end,
            launch,
            batches: tables.len(),
            tables,
        }
    }
}

const MD: u8 = 0;
const MS1: u8 = 1;
const MS2: u8 = 2;

/// Legacy backend: replays the launch list as `xmr`/`xmkN` trains on
/// the fixed `m0`–`m2` registers. A node's shared `ms2` is bound once,
/// before its slices; every other operand is rebound per launch in
/// `ms1`, `ms2`, `md` order.
fn emit_legacy(graph: &LayerGraph, lowering: &Lowering, opts: &CompileOptions) -> Program {
    let sew = graph.sew();
    let mut p = Program::new(lowering.layout.end, opts.host_traffic);
    let (md, ms1, ms2) = (m(MD), m(MS1), m(MS2));
    for (node, launches) in lowering.per_node() {
        if node.shared_ms2 {
            p.xmr(sew, MS2, launches[0].ms2.expect("shared ms2 is bound"));
        }
        for l in launches {
            p.xmr(sew, MS1, l.ms1);
            if let Some(r) = l.ms2.filter(|_| !node.shared_ms2) {
                p.xmr(sew, MS2, r);
            }
            p.xmr(sew, MD, l.md);
            // The unused ms3 slot names ms1: always bound, never read.
            p.asm.offload(
                xmnmc::pack_kernel(l.alpha, l.beta, md, ms1, ms2, ms1),
                |r1, r2, r3| xmnmc::xmk_instr(l.kernel, sew, r1, r2, r3),
            );
            p.launched(1);
        }
    }
    p
}

/// Descriptor backend: allocates the launch list onto the matrix
/// registers and emits one `xmb` per node. The encoded tables sit
/// line-aligned past the tensor arena; the traffic scratch window moves
/// past them.
fn emit_descriptor(
    graph: &LayerGraph,
    lowering: &Lowering,
    opts: &CompileOptions,
) -> (Program, Vec<DescriptorTable>) {
    let sew = graph.sew();
    let mut alloc = RegAlloc::new(&lowering.launches);
    let mut batches: Vec<DescriptorBatch> = Vec::with_capacity(lowering.nodes.len());
    let mut pos = 0usize;
    for (_, launches) in lowering.per_node() {
        let mut descriptors = Vec::with_capacity(launches.len());
        for launch in launches {
            let bindings = alloc.allocate(pos, launch);
            let reg = |r: Region| alloc.reg_of(r).expect("allocated above");
            let ms1 = reg(launch.ms1);
            descriptors.push(LaunchDescriptor {
                kernel: launch.kernel,
                width: sew,
                alpha: launch.alpha,
                beta: launch.beta,
                md: reg(launch.md),
                ms1,
                ms2: launch.ms2.map_or(ms1, reg),
                ms3: ms1,
                bindings,
                token: pos as u16,
            });
            pos += 1;
        }
        batches.push(DescriptorBatch { descriptors });
    }

    let mut cursor = align_line(lowering.layout.end);
    let table_bytes: u32 = batches.iter().map(|b| b.bytes() as u32).sum();
    let mut p = Program::new(cursor + table_bytes, opts.host_traffic);
    let mut tables = Vec::with_capacity(batches.len());
    for batch in batches {
        let words = batch.encode();
        p.reservations += batch
            .descriptors
            .iter()
            .map(|d| d.bindings.len())
            .sum::<usize>();
        p.asm
            .offload((cursor, words.len() as u32, tables.len() as u32), xmb_instr);
        p.launched(batch.descriptors.len());
        let addr = cursor;
        cursor += 4 * words.len() as u32;
        tables.push(DescriptorTable { addr, words });
    }
    (p, tables)
}

/// Linear-scan allocation of operand regions onto the sixteen logical
/// matrix registers: a region already live in a register is reused with
/// no fresh binding; a fresh binding takes a free register or evicts
/// the live region whose next use is furthest away (never one the
/// current launch needs). This is what keeps hot tensors — weights
/// shared by every slice, chain intermediates — bound across the whole
/// kernel chain.
struct RegAlloc {
    contents: [Option<Region>; NUM_MAT_REGS as usize],
    /// Remaining use positions per region, front = soonest.
    next_use: HashMap<Region, std::collections::VecDeque<usize>>,
}

impl RegAlloc {
    fn new(launches: &[Launch]) -> Self {
        let mut next_use: HashMap<Region, std::collections::VecDeque<usize>> = HashMap::new();
        for (p, l) in launches.iter().enumerate() {
            let mut seen: [Option<Region>; 3] = [None; 3];
            for (i, r) in l.regions().into_iter().enumerate() {
                if !seen[..i].contains(&Some(r)) {
                    next_use.entry(r).or_default().push_back(p);
                }
                seen[i] = Some(r);
            }
        }
        RegAlloc {
            contents: [None; NUM_MAT_REGS as usize],
            next_use,
        }
    }

    fn reg_of(&self, r: Region) -> Option<MatReg> {
        self.contents
            .iter()
            .position(|c| *c == Some(r))
            .map(|i| m(i as u8))
    }

    /// Allocates every distinct region of `launch` (position `p`),
    /// returning the fresh bindings it needs, in operand order.
    fn allocate(&mut self, p: usize, launch: &Launch) -> Vec<OperandBinding> {
        let mut fresh = Vec::new();
        let regions = launch.regions();
        let mut distinct: Vec<Region> = Vec::with_capacity(3);
        for r in regions {
            if !distinct.contains(&r) {
                distinct.push(r);
            }
        }
        // This position is consumed for every distinct region first, so
        // eviction decisions below see only *future* uses.
        for r in &distinct {
            let q = self.next_use.get_mut(r).expect("region was indexed");
            debug_assert_eq!(q.front(), Some(&p));
            q.pop_front();
        }
        for r in distinct {
            if self.reg_of(r).is_some() {
                continue; // hot region: binding stays live, no xmr cost
            }
            let slot = self.pick_slot(&regions);
            self.contents[slot] = Some(r);
            fresh.push(OperandBinding {
                reg: m(slot as u8),
                addr: r.addr,
                stride: 1,
                cols: r.cols,
                rows: r.rows,
            });
        }
        fresh
    }

    /// A free register, or the live region with the furthest next use
    /// that the current launch does not name.
    fn pick_slot(&self, in_use: &[Region; 3]) -> usize {
        if let Some(free) = self.contents.iter().position(Option::is_none) {
            return free;
        }
        let mut best = None;
        for (i, c) in self.contents.iter().enumerate() {
            let r = c.expect("no free slot");
            if in_use.contains(&r) {
                continue;
            }
            let next = self
                .next_use
                .get(&r)
                .and_then(|q| q.front().copied())
                .unwrap_or(usize::MAX);
            if best.is_none_or(|(_, n)| next > n) {
                best = Some((i, next));
            }
        }
        best.expect("more matrix registers than launch operands").0
    }
}

/// Compiles `graph` into a host program whose tensors live in an arena
/// starting at `base`.
///
/// The emitted program issues the whole kernel chain (per-instruction
/// `xmr`/`xmkN` on the legacy path, `xmb` descriptor batches under
/// [`LaunchMode::Descriptor`]), then performs one synchronising load of
/// the first element of every output tensor — the Address Table stalls
/// each load until the producing kernel's writeback retires (the
/// paper's synchronisation idiom).
///
/// # Errors
///
/// Returns [`CompileError`] when the graph has no outputs, `instances`
/// is zero, a tensor dimension exceeds the 16-bit `xmr`/binding
/// encoding, or the program outgrows the instruction memory.
pub fn compile(
    graph: &LayerGraph,
    base: u32,
    opts: &CompileOptions,
) -> Result<NnProgram, CompileError> {
    if graph.outputs().is_empty() {
        return Err(CompileError::NoOutputs);
    }
    if opts.instances < 1 {
        return Err(CompileError::ZeroInstances);
    }
    if let Some(k) = opts.host_traffic {
        // One burst stores a word per line, each at least one 4-byte
        // `sw`. Rejecting a burst that alone outgrows the instruction
        // memory here also bounds the scratch-window arithmetic in
        // `Program::new`.
        let bytes = usize::try_from(k.bytes.div_ceil(LINE_BYTES))
            .ok()
            .and_then(|stores| stores.checked_mul(4))
            .unwrap_or(usize::MAX);
        if bytes > IMEM_SIZE {
            return Err(CompileError::ProgramTooLarge {
                bytes,
                limit: IMEM_SIZE,
            });
        }
    }
    let layout = GraphLayout::plan(graph, base);
    let lowering = Lowering::new(graph, &layout, opts.instances)?;
    let (program, tables) = match opts.launch {
        LaunchMode::Legacy => (emit_legacy(graph, &lowering, opts), Vec::new()),
        LaunchMode::Descriptor => emit_descriptor(graph, &lowering, opts),
    };
    let program = program.finish(graph, layout, opts.launch, tables);
    let bytes = program.asm.len() * 4;
    if bytes > IMEM_SIZE {
        return Err(CompileError::ProgramTooLarge {
            bytes,
            limit: IMEM_SIZE,
        });
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_graph(rows: usize, cols: usize) -> LayerGraph {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", rows, cols);
        let w = g.input("w", cols, cols);
        let y = g.gemm(x, w);
        g.mark_output(y);
        g
    }

    #[test]
    fn instance_split_multiplies_gemm_kernels() {
        let g = gemm_graph(8, 8);
        let one = compile(&g, 0x2000_0000, &CompileOptions::with_instances(1)).unwrap();
        let four = compile(&g, 0x2000_0000, &CompileOptions::with_instances(4)).unwrap();
        assert_eq!(one.kernels, 1);
        assert_eq!(four.kernels, 4);
        assert!(four.reservations > one.reservations);
    }

    #[test]
    fn oversized_dimension_is_a_typed_error() {
        // 70_000 rows exceed the 16-bit xmr row field: both backends
        // must surface the typed error through compile()'s result.
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 70_000, 4);
        let y = g.leaky_relu(x, 3);
        g.mark_output(y);
        for opts in [
            CompileOptions::with_instances(1),
            CompileOptions::descriptor(1),
        ] {
            assert_eq!(
                compile(&g, 0x2000_0000, &opts).unwrap_err(),
                CompileError::DimensionTooLarge {
                    rows: 70_000,
                    cols: 4
                },
            );
        }
    }

    #[test]
    fn degenerate_graphs_are_typed_errors() {
        let mut g = LayerGraph::new(Sew::Byte);
        let _ = g.input("x", 4, 4);
        assert_eq!(
            compile(&g, 0x2000_0000, &CompileOptions::default()).unwrap_err(),
            CompileError::NoOutputs
        );
        let g = gemm_graph(4, 4);
        let opts = CompileOptions {
            instances: 0,
            ..CompileOptions::default()
        };
        assert_eq!(
            compile(&g, 0x2000_0000, &opts).unwrap_err(),
            CompileError::ZeroInstances
        );
    }

    #[test]
    fn program_outgrowing_instruction_memory_is_a_typed_error() {
        // Dense host traffic (128 KiB dirtied after every kernel) on a
        // x4 split blows the program past the 128 KiB instruction
        // memory; compile() must say so instead of handing the SoC an
        // image it cannot load.
        let g = crate::suite::transformer_block(16, 24, 32, Sew::Byte, 9).graph;
        for (launch, bytes) in [
            (LaunchMode::Legacy, 144_996),
            (LaunchMode::Descriptor, 140_492),
        ] {
            let opts = CompileOptions {
                instances: 4,
                host_traffic: Some(HostTraffic::new(1, 128 * 1024)),
                launch,
            };
            assert_eq!(
                compile(&g, 0x2000_0000, &opts).unwrap_err(),
                CompileError::ProgramTooLarge {
                    bytes,
                    limit: IMEM_SIZE
                },
                "{launch:?}"
            );
        }
    }

    #[test]
    fn oversized_host_traffic_is_a_typed_error_before_emission() {
        // A burst of `u32::MAX` bytes needs 4 Mi line stores, each at
        // least one 4-byte `sw`: compile() must reject it up front
        // instead of overflowing the scratch-window arithmetic or
        // assembling a half-gigabyte program first.
        let g = crate::suite::residual_bottleneck(16, 16, Sew::Byte, 1).graph;
        for launch in [LaunchMode::Legacy, LaunchMode::Descriptor] {
            let opts = CompileOptions {
                instances: 1,
                host_traffic: Some(HostTraffic::new(1, u32::MAX)),
                launch,
            };
            assert_eq!(
                compile(&g, 0x2000_0000, &opts).unwrap_err(),
                CompileError::ProgramTooLarge {
                    bytes: (u32::MAX.div_ceil(LINE_BYTES) * 4) as usize,
                    limit: IMEM_SIZE
                },
                "{launch:?}"
            );
        }
    }

    #[test]
    fn host_traffic_knob_emits_line_strided_stores() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 8, 8);
        let w = g.input("w", 8, 8);
        let mut t = g.gemm(x, w);
        for _ in 0..3 {
            t = g.leaky_relu(t, 3);
        }
        g.mark_output(t);
        let quiet = compile(&g, 0x2000_0000, &CompileOptions::default()).unwrap();
        assert_eq!(quiet.host_stores, 0);
        assert_eq!(quiet.mem_end, quiet.layout.end);

        // A partial line rounds up to a whole store.
        for bytes in [3 * LINE_BYTES, 2 * LINE_BYTES + 1] {
            let opts = CompileOptions {
                instances: 1,
                host_traffic: Some(HostTraffic::new(2, bytes)),
                ..CompileOptions::default()
            };
            let noisy = compile(&g, 0x2000_0000, &opts).unwrap();
            // 4 kernels → bursts after kernels 2 and 4, 3 stores each.
            assert_eq!(noisy.kernels, 4);
            assert_eq!(noisy.host_stores, 6, "{bytes} B");
            assert!(noisy.mem_end >= noisy.layout.end + 3 * LINE_BYTES);
            assert!(noisy.mem_end.is_multiple_of(LINE_BYTES));

            // The descriptor backend injects the same store train,
            // placed past its table region.
            let dopts = CompileOptions {
                launch: LaunchMode::Descriptor,
                ..opts
            };
            let dnoisy = compile(&g, 0x2000_0000, &dopts).unwrap();
            assert_eq!(dnoisy.host_stores, 6, "{bytes} B");
            assert!(dnoisy.tables.iter().all(|t| t.addr >= dnoisy.layout.end));
        }
    }

    #[test]
    fn depthwise_fans_out_per_channel() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 3 * 6, 6);
        let f = g.input("f", 3 * 3, 3);
        let y = g.depthwise_conv(x, f, 3);
        g.mark_output(y);
        let p = compile(&g, 0x2000_0000, &CompileOptions::default()).unwrap();
        assert_eq!(p.kernels, 3);
    }

    #[test]
    fn descriptor_mode_emits_one_batch_per_node() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 8, 8);
        let w = g.input("w", 8, 8);
        let t = g.gemm(x, w);
        let q = g.requantise(t, 1, 2);
        let y = g.leaky_relu(q, 3);
        g.mark_output(y);
        let p = compile(&g, 0x2000_0000, &CompileOptions::descriptor(4)).unwrap();
        assert_eq!(p.batches, 3, "one batch per node");
        assert_eq!(p.kernels, 12, "4 slices per row-parallel node");
        assert_eq!(p.tables.len(), 3);
        // Tables are contiguous, line-aligned past the arena.
        assert!(p.tables[0].addr >= p.layout.end);
        assert!(p.tables[0].addr.is_multiple_of(LINE_BYTES));
        for w in p.tables.windows(2) {
            assert_eq!(w[0].addr + 4 * w[0].words.len() as u32, w[1].addr);
        }
        assert!(p.mem_end >= p.tables.last().unwrap().addr);
        // Every table decodes back to a well-formed batch.
        for t in &p.tables {
            assert!(DescriptorBatch::decode(&t.words).is_ok());
        }
    }

    #[test]
    fn allocator_keeps_hot_tensors_bound() {
        // 4-way GeMM: legacy rebinds B for the node once plus A/dest
        // per slice (9 xmr); the allocator binds each distinct region
        // exactly once here (no capacity pressure at 16 registers).
        let g = gemm_graph(8, 8);
        let legacy = compile(&g, 0x2000_0000, &CompileOptions::with_instances(4)).unwrap();
        let desc = compile(&g, 0x2000_0000, &CompileOptions::descriptor(4)).unwrap();
        assert_eq!(legacy.kernels, desc.kernels);
        assert_eq!(legacy.reservations, 9);
        assert_eq!(desc.reservations, 9, "distinct regions bound once");

        // A chain re-reads intermediates: the legacy backend rebinds
        // them per kernel, the allocator does not.
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 8, 8);
        let w = g.input("w", 8, 8);
        let mut t = g.gemm(x, w);
        for _ in 0..4 {
            t = g.leaky_relu(t, 3);
        }
        g.mark_output(t);
        let legacy = compile(&g, 0x2000_0000, &CompileOptions::with_instances(1)).unwrap();
        let desc = compile(&g, 0x2000_0000, &CompileOptions::descriptor(1)).unwrap();
        assert!(
            desc.reservations < legacy.reservations,
            "chain reuse must cut bindings: {} vs {}",
            desc.reservations,
            legacy.reservations
        );
    }

    #[test]
    fn legacy_binds_a_second_source_equal_to_the_first() {
        // gemm(x, x) and x + x read the same region through both
        // sources: the legacy stream must still bind m2 for them.
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 8, 8);
        let y = g.gemm(x, x);
        let z = g.residual_add(y, y);
        g.mark_output(z);
        let p = compile(&g, 0x2000_0000, &CompileOptions::default()).unwrap();
        assert_eq!(p.kernels, 2);
        assert_eq!(p.reservations, 6, "ms1, ms2 and md bound per kernel");
    }

    #[test]
    fn allocator_evicts_under_register_pressure() {
        // More distinct live regions than matrix registers: a long
        // chain of residual adds touching many tensors. The program
        // must still compile, with every launch's operands bound.
        let mut g = LayerGraph::new(Sew::Byte);
        let mut acc = g.input("x0", 4, 8);
        let mut others = Vec::new();
        for i in 0..20 {
            let t = g.input(&format!("x{}", i + 1), 4, 8);
            others.push(t);
        }
        for t in others {
            acc = g.residual_add(acc, t);
        }
        g.mark_output(acc);
        let p = compile(&g, 0x2000_0000, &CompileOptions::descriptor(1)).unwrap();
        assert_eq!(p.kernels, 20);
        assert!(
            p.reservations > 3,
            "pressure must force rebinds beyond the first three"
        );
        for t in &p.tables {
            DescriptorBatch::decode(&t.words).expect("well-formed batch");
        }
    }
}
