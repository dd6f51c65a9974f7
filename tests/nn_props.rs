//! Differential suite for the `arcane-nn` graph reference and runtime.
//!
//! [`LayerGraph::reference`] evaluates any graph with the golden
//! kernels; it is the model every simulated graph run is checked
//! against. The first properties pit it, on the suite's graph shapes,
//! against an **independent naive CPU chain** written here with plain
//! `i64` loops — any divergence between the two derivations of the
//! semantics fails the property. The random-graph property then makes
//! the reference the stress oracle: seeded random DAGs over every node
//! kind and views, at every width, run on the full SoC across launch
//! modes, instance splits, VPU counts, arbiters and schedulers, and
//! must come out bit-exact. The engine-parity test runs a full graph
//! workload on both host-core engines (the predecoded op table vs
//! fetching and decoding every instruction) and demands bit- and
//! cycle-identical results.

use arcane::core::{ArcaneConfig, SchedulerKind};
use arcane::fabric::ArbiterKind;
use arcane::isa::launch::{DescriptorBatch, LaunchDescriptor, OperandBinding};
use arcane::isa::xmnmc::MatReg;
use arcane::nn::{
    run_graph_with_engine, suite, CompileOptions, LaunchMode, LayerGraph, RunError, TensorId,
};
use arcane::sim::{EngineMode, Sew};
use arcane::workloads::{self, Matrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

fn wrap(v: i64, sew: Sew) -> i64 {
    workloads::wrap(v, sew)
}

/// Naive depthwise conv: four nested loops per channel, nothing shared
/// with `workloads::depthwise_conv` except the contract.
fn naive_depthwise(a: &Matrix, f: &Matrix, channels: usize, sew: Sew) -> Matrix {
    let h = a.rows() / channels;
    let k = f.cols();
    let (oh, ow) = (h - k + 1, a.cols() - k + 1);
    let mut out = Matrix::zero(channels * oh, ow);
    for c in 0..channels {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i64;
                for ky in 0..k {
                    for kx in 0..k {
                        let av = a.get(c * h + y + ky, x + kx);
                        let fv = f.get(c * k + ky, kx);
                        acc = wrap(acc.wrapping_add(wrap(av.wrapping_mul(fv), sew)), sew);
                    }
                }
                out.set(c * oh + y, x, acc);
            }
        }
    }
    out
}

/// Naive GeMM (α = 1, β = 0) with per-step wrapping.
fn naive_gemm(a: &Matrix, b: &Matrix, sew: Sew) -> Matrix {
    let mut r = Matrix::zero(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0i64;
            for k in 0..a.cols() {
                acc = wrap(
                    acc.wrapping_add(wrap(a.get(i, k).wrapping_mul(b.get(k, j)), sew)),
                    sew,
                );
            }
            r.set(i, j, acc);
        }
    }
    r
}

fn naive_requant(x: &Matrix, mul: i64, shift: u32, sew: Sew) -> Matrix {
    let mut r = Matrix::zero(x.rows(), x.cols());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            r.set(
                i,
                j,
                wrap(wrap(x.get(i, j).wrapping_mul(mul), sew) >> shift, sew),
            );
        }
    }
    r
}

fn naive_leaky_relu(x: &Matrix, shift: u32, sew: Sew) -> Matrix {
    let mut r = Matrix::zero(x.rows(), x.cols());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            let v = x.get(i, j);
            r.set(i, j, wrap(if v >= 0 { v } else { v >> shift }, sew));
        }
    }
    r
}

fn naive_add(a: &Matrix, b: &Matrix, sew: Sew) -> Matrix {
    let mut r = Matrix::zero(a.rows(), a.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            r.set(i, j, wrap(a.get(i, j).wrapping_add(b.get(i, j)), sew));
        }
    }
    r
}

fn naive_transpose(a: &Matrix) -> Matrix {
    let mut r = Matrix::zero(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            r.set(j, i, a.get(i, j));
        }
    }
    r
}

/// The largest square conv filter whose taps, input stripe and
/// accumulators fit the 32 vector registers (`xmk3`'s `validate`).
const MAX_FILTER: usize = 15;
/// The largest max-pooling window whose rows, reduction and sweep
/// registers fit the 32 vector registers (`xmk2`'s `validate`).
const MAX_POOL_WIN: usize = 29;

/// Seeded builder of random layer graphs: a pool of the tensors built
/// so far (inputs, node outputs and views), from which each new node
/// draws its operands, declaring a fresh input when no tensor fits.
struct GraphGen {
    rng: SmallRng,
    graph: LayerGraph,
    inputs: Vec<Matrix>,
    pool: Vec<TensorId>,
    /// Widest row one 1 KiB vector register holds at the graph's width.
    max_cols: usize,
}

impl GraphGen {
    fn new(seed: u64) -> Self {
        let mut rng = workloads::rng(seed);
        let sew = Sew::ALL[rng.random_range(0..Sew::ALL.len())];
        GraphGen {
            rng,
            graph: LayerGraph::new(sew),
            inputs: Vec::new(),
            pool: Vec::new(),
            max_cols: 1024 / sew.bytes(),
        }
    }

    /// A tensor dimension: mostly small, sometimes up to 24.
    fn dim(&mut self) -> usize {
        let hi = if self.rng.random_range(0..4) == 0 {
            24
        } else {
            8
        };
        self.rng.random_range(1..=hi)
    }

    /// A column count: like [`GraphGen::dim`], and now and then close
    /// to the one-register row limit.
    fn cols(&mut self) -> usize {
        if self.rng.random_range(0..16) == 0 {
            self.rng.random_range(self.max_cols / 2..=self.max_cols)
        } else {
            self.dim()
        }
    }

    /// Declares a fresh `rows × cols` input with random values, small
    /// or spanning the whole width (so the wrap-around paths run).
    fn fresh(&mut self, rows: usize, cols: usize) -> TensorId {
        let range = [4, 127, 32_767, i64::from(i32::MAX)][self.rng.random_range(0..4)];
        let sew = self.graph.sew();
        let m = workloads::random_matrix(&mut self.rng, rows, cols, sew, range);
        let id = self
            .graph
            .input(&format!("in{}", self.inputs.len()), rows, cols);
        self.inputs.push(m);
        self.pool.push(id);
        id
    }

    fn shape(&self, t: TensorId) -> (usize, usize) {
        self.graph.shape(t)
    }

    /// A pool tensor satisfying `fits`, favouring the newest ones so
    /// that chains grow deep; `None` when none fits.
    fn pick(&mut self, fits: impl Fn((usize, usize)) -> bool) -> Option<TensorId> {
        let ok: Vec<TensorId> = self
            .pool
            .iter()
            .copied()
            .filter(|&t| fits(self.graph.shape(t)))
            .collect();
        if ok.is_empty() {
            return None;
        }
        let from = if self.rng.random_bool(0.5) {
            ok.len().saturating_sub(3)
        } else {
            0
        };
        Some(ok[self.rng.random_range(from..ok.len())])
    }

    /// Any pool tensor, or a fresh input when the pool is empty.
    fn any(&mut self) -> TensorId {
        match self.pick(|_| true) {
            Some(t) => t,
            None => {
                let (r, c) = (self.dim(), self.cols());
                self.fresh(r, c)
            }
        }
    }

    /// A pool tensor of exactly `shape`, or a fresh input of it.
    fn of_shape(&mut self, shape: (usize, usize)) -> TensorId {
        match self.pick(|s| s == shape) {
            Some(t) => t,
            None => self.fresh(shape.0, shape.1),
        }
    }

    /// A filter size in `1..=max`, mostly small.
    fn filter(&mut self, max: usize) -> usize {
        let hi = if self.rng.random_bool(0.75) {
            max.min(3)
        } else {
            max
        };
        self.rng.random_range(1..=hi)
    }

    /// Adds one random node (or view) to the graph.
    fn step(&mut self) {
        let t = match self.rng.random_range(0..9) {
            0 => {
                let x = self.any();
                let (h, w) = self.shape(x);
                let k = self.filter(h.min(w).min(MAX_FILTER));
                let f = self.of_shape((k, k));
                self.graph.conv2d(x, f)
            }
            1 => {
                let x = self.any();
                let (rows, w) = self.shape(x);
                let divisors: Vec<usize> = (1..=4).filter(|c| rows % c == 0).collect();
                let c = divisors[self.rng.random_range(0..divisors.len())];
                let k = self.filter((rows / c).min(w).min(MAX_FILTER));
                let f = self.of_shape((c * k, k));
                self.graph.depthwise_conv(x, f, c)
            }
            2 => {
                let a = self.any();
                let inner = self.shape(a).1;
                let b = match self.pick(|(r, _)| r == inner) {
                    Some(b) => b,
                    None => {
                        let n = self.cols();
                        self.fresh(inner, n)
                    }
                };
                self.graph.gemm(a, b)
            }
            3 => {
                let a = self.any();
                let b = self.of_shape(self.shape(a));
                self.graph.residual_add(a, b)
            }
            4 => {
                let x = self.any();
                let mul = if self.rng.random_bool(0.5) {
                    self.rng.random_range(-4..=4)
                } else {
                    self.rng.random::<i16>()
                };
                let shift = self.rng.random_range(0..32);
                self.graph.requantise(x, mul, shift)
            }
            5 => {
                let x = self.any();
                let shift = self.rng.random_range(0..32);
                self.graph.leaky_relu(x, shift)
            }
            6 => {
                let x = self.any();
                let (r, c) = self.shape(x);
                let win = self.filter(r.min(c).min(MAX_POOL_WIN));
                let stride = self.rng.random_range(1..=4);
                self.graph.maxpool(x, win, stride)
            }
            7 => {
                // The transposed rows must fit a vector register too.
                let max = self.max_cols;
                let x = match self.pick(|(r, _)| r <= max) {
                    Some(x) => x,
                    None => {
                        let (r, c) = (self.dim(), self.cols());
                        self.fresh(r, c)
                    }
                };
                self.graph.transpose(x)
            }
            _ => {
                let x = self.any();
                let (r, c) = self.shape(x);
                let elems = r * c;
                let max = self.max_cols;
                let widths: Vec<usize> = (1..=elems.min(max)).filter(|w| elems % w == 0).collect();
                let w = widths[self.rng.random_range(0..widths.len())];
                self.graph.view(x, elems / w, w)
            }
        };
        self.pool.push(t);
    }
}

/// A random layer graph and its inputs, drawn from `seed`: 2–12 nodes
/// over every node kind, with views, at a random width, every shape
/// inside the limits the kernels' `validate` and the compiler state (a
/// row fits one 1 KiB vector register; conv filters and pooling windows
/// fit the register budget). Random tensors (inputs, intermediates,
/// views) are marked as outputs, at least one.
fn random_graph(seed: u64) -> (LayerGraph, Vec<Matrix>) {
    let mut gen = GraphGen::new(seed);
    let nodes = gen.rng.random_range(2..=12);
    while gen.graph.nodes().len() < nodes {
        gen.step();
    }
    for t in gen.pool.clone() {
        if gen.rng.random_range(0..4) == 0 {
            gen.graph.mark_output(t);
        }
    }
    if gen.graph.outputs().is_empty() {
        gen.graph
            .mark_output(*gen.pool.last().expect("nodes were added"));
    }
    (gen.graph, gen.inputs)
}

fn sew_strategy() -> impl Strategy<Value = Sew> {
    prop_oneof![Just(Sew::Byte), Just(Sew::Half), Just(Sew::Word)]
}

fn mat_reg() -> impl Strategy<Value = MatReg> {
    (0u8..16).prop_map(|i| MatReg::new(i).unwrap())
}

fn binding() -> impl Strategy<Value = OperandBinding> {
    (
        mat_reg(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(reg, addr, stride, cols, rows)| OperandBinding {
            reg,
            addr,
            stride,
            cols,
            rows,
        })
}

fn descriptor() -> impl Strategy<Value = LaunchDescriptor> {
    (
        (
            0u8..30,
            sew_strategy(),
            any::<i16>(),
            any::<i16>(),
            any::<u16>(),
        ),
        (mat_reg(), mat_reg(), mat_reg(), mat_reg()),
        prop::collection::vec(binding(), 0..4),
    )
        .prop_map(
            |((kernel, width, alpha, beta, token), (md, ms1, ms2, ms3), bindings)| {
                LaunchDescriptor {
                    kernel,
                    width,
                    alpha,
                    beta,
                    md,
                    ms1,
                    ms2,
                    ms3,
                    bindings,
                    token,
                }
            },
        )
}

proptest! {
    #[test]
    fn depthwise_golden_matches_naive_reference(
        h in 4usize..9,
        w in 4usize..9,
        k in 2usize..4,
        channels in 1usize..5,
        seed in 0u64..500,
    ) {
        prop_assume!(k <= h && k <= w);
        let sew = Sew::Byte;
        let mut rng = workloads::rng(seed);
        let a = workloads::random_matrix(&mut rng, channels * h, w, sew, 20);
        let f = workloads::random_matrix(&mut rng, channels * k, k, sew, 20);
        let mut g = LayerGraph::new(sew);
        let ta = g.input("a", channels * h, w);
        let tf = g.input("f", channels * k, k);
        let dw = g.depthwise_conv(ta, tf, channels);
        g.mark_output(dw);
        let naive = naive_depthwise(&a, &f, channels, sew);
        prop_assert_eq!(g.reference(&[a, f]), vec![naive]);
    }

    #[test]
    fn residual_bottleneck_golden_matches_naive_chain(
        n in 2usize..7,
        d in 2usize..7,
        shift in 0u32..6,
        relu_shift in 0u32..6,
        seed in 0u64..500,
        sew in sew_strategy(),
    ) {
        let mut rng = workloads::rng(seed);
        let x = workloads::random_matrix(&mut rng, n, d, sew, 30);
        let w1 = workloads::random_matrix(&mut rng, d, d, sew, 30);
        let w2 = workloads::random_matrix(&mut rng, d, d, sew, 30);
        let mut g = LayerGraph::new(sew);
        let tx = g.input("x", n, d);
        let tw1 = g.input("w1", d, d);
        let tw2 = g.input("w2", d, d);
        let h = g.gemm(tx, tw1);
        let hq = g.requantise(h, 1, shift as i16);
        let ha = g.leaky_relu(hq, relu_shift as i16);
        let y = g.gemm(ha, tw2);
        let yq = g.requantise(y, 1, shift as i16);
        let out = g.residual_add(tx, yq);
        g.mark_output(out);
        // Naive chain: gemm → requant → relu → gemm → requant → add.
        let h = naive_gemm(&x, &w1, sew);
        let ha = naive_leaky_relu(&naive_requant(&h, 1, shift, sew), relu_shift, sew);
        let y = naive_gemm(&ha, &w2, sew);
        let naive = naive_add(&x, &naive_requant(&y, 1, shift, sew), sew);
        prop_assert_eq!(g.reference(&[x, w1, w2]), vec![naive]);
    }

    #[test]
    fn transformer_golden_matches_naive_chain(
        t in 2usize..6,
        d in 2usize..6,
        f in 2usize..8,
        seed in 0u64..300,
    ) {
        let sew = Sew::Byte;
        let (shift, relu_shift) = (2u32, 3u32);
        let mut rng = workloads::rng(seed);
        let x = workloads::random_matrix(&mut rng, t, d, sew, 10);
        let wq = workloads::random_matrix(&mut rng, d, d, sew, 10);
        let wk = workloads::random_matrix(&mut rng, d, d, sew, 10);
        let wv = workloads::random_matrix(&mut rng, d, d, sew, 10);
        let w1 = workloads::random_matrix(&mut rng, d, f, sew, 10);
        let w2 = workloads::random_matrix(&mut rng, f, d, sew, 10);
        let mut g = LayerGraph::new(sew);
        let tx = g.input("x", t, d);
        let twq = g.input("wq", d, d);
        let twk = g.input("wk", d, d);
        let twv = g.input("wv", d, d);
        let tw1 = g.input("w1", d, f);
        let tw2 = g.input("w2", f, d);
        let out = g.transformer_block(tx, twq, twk, twv, tw1, tw2, shift as i16, relu_shift as i16);
        g.mark_output(out);
        // Naive chain, op by op.
        let q = naive_gemm(&x, &wq, sew);
        let k = naive_gemm(&x, &wk, sew);
        let v = naive_gemm(&x, &wv, sew);
        let s = naive_gemm(&q, &naive_transpose(&k), sew);
        let a = naive_leaky_relu(&naive_requant(&s, 1, shift, sew), relu_shift, sew);
        let p = naive_gemm(&a, &v, sew);
        let x1 = naive_add(&x, &naive_requant(&p, 1, shift, sew), sew);
        let hh = naive_gemm(&x1, &w1, sew);
        let ha = naive_leaky_relu(&naive_requant(&hh, 1, shift, sew), relu_shift, sew);
        let y = naive_gemm(&ha, &w2, sew);
        let naive = naive_add(&x1, &naive_requant(&y, 1, shift, sew), sew);
        prop_assert_eq!(g.reference(&[x, wq, wk, wv, w1, w2]), vec![naive]);
    }

    /// Launch descriptors and batch framing are bit-exact inverses:
    /// encode → decode is the identity for any well-formed batch, and
    /// the exact-fuel size accounting matches the encoded stream.
    #[test]
    fn launch_descriptor_batch_round_trips(
        descriptors in prop::collection::vec(descriptor(), 0..12),
    ) {
        let batch = DescriptorBatch { descriptors };
        let words = batch.encode();
        prop_assert_eq!(words.len(), batch.words(), "exact size accounting");
        let back = DescriptorBatch::decode(&words);
        prop_assert_eq!(back.as_ref(), Ok(&batch));
    }

    /// Grant identity of the legacy launch path: the same
    /// legacy-compiled instruction stream must run bit- and
    /// cycle-identically whether the SoC's descriptor decode path is
    /// armed or not — the refactored launch plumbing cannot perturb the
    /// pre-refactor cycle layout.
    #[test]
    fn legacy_launch_cycles_are_invariant_under_the_descriptor_knob(
        n in 2usize..6,
        d in 2usize..6,
        seed in 0u64..40,
        instances in 1usize..3,
    ) {
        use arcane::mem::Memory;
        use arcane::system::{ArcaneSoc, EXT_BASE};

        let b = suite::residual_bottleneck(n, d, Sew::Byte, seed);
        let program =
            arcane::nn::compile(&b.graph, EXT_BASE, &CompileOptions::with_instances(instances))
                .unwrap();
        let run = |launch: LaunchMode| {
            let mut cfg = ArcaneConfig::with_lanes(4);
            cfg.launch = launch;
            let mut soc = ArcaneSoc::new(cfg);
            for (&id, mat) in b.graph.inputs().iter().zip(&b.inputs) {
                let p = program.layout.place(id);
                soc.llc_mut()
                    .ext_mut()
                    .write_bytes(p.addr, &mat.to_bytes(Sew::Byte))
                    .unwrap();
            }
            soc.load_program(&program.asm);
            let run = soc.run(1_000_000_000).unwrap();
            let out = b.graph.outputs()[0];
            let p = program.layout.place(out);
            let mut bytes = vec![0u8; p.rows * p.cols];
            soc.llc().ext().read_bytes(p.addr, &mut bytes).unwrap();
            let total = run.cycles.max(soc.llc().completion_time());
            let batches = soc.llc().launch_stats().batches;
            (total, run.instret, bytes, batches)
        };
        let plain = run(LaunchMode::Legacy);
        let armed = run(LaunchMode::Descriptor);
        prop_assert_eq!(&plain, &armed, "legacy stream must be mode-invariant");
        prop_assert_eq!(plain.3, 0, "no batch may be decoded");
    }

    /// Cross-mode bit-exactness: the descriptor pipeline must compute
    /// exactly what the legacy path computes (run_verified also checks
    /// both against the graph reference).
    #[test]
    fn descriptor_mode_matches_legacy_outputs(
        n in 2usize..6,
        d in 2usize..6,
        seed in 0u64..40,
        instances in 1usize..3,
    ) {
        let b = suite::residual_bottleneck(n, d, Sew::Byte, seed);
        let cfg = ArcaneConfig::with_lanes(4);
        let legacy = b.run_verified_with(cfg, &CompileOptions::with_instances(instances));
        let desc = b.run_verified_with(cfg, &CompileOptions::descriptor(instances));
        prop_assert_eq!(&legacy.outputs, &desc.outputs);
        prop_assert_eq!(legacy.kernels, desc.kernels, "same slice structure");
        prop_assert_eq!(desc.launch_stats.descriptors as usize, desc.kernels);
        prop_assert!(desc.launch_stats.batches > 0);
    }

    /// The full stack differentially: a random residual-bottleneck
    /// graph run on the simulator must equal the naive chain.
    #[test]
    fn simulated_graph_matches_naive_chain(
        n in 2usize..6,
        d in 2usize..6,
        seed in 0u64..50,
        instances in 1usize..3,
    ) {
        let b = suite::residual_bottleneck(n, d, Sew::Byte, seed);
        let r = b.run_verified(ArcaneConfig::with_lanes(4), instances);
        // run_verified already asserts against the graph reference; tie
        // the knot to the naive chain too.
        let naive = {
            let (x, w1, w2) = (&b.inputs[0], &b.inputs[1], &b.inputs[2]);
            let h = naive_gemm(x, w1, Sew::Byte);
            let ha = naive_leaky_relu(
                &naive_requant(&h, 1, suite::SHIFT as u32, Sew::Byte),
                suite::RELU_SHIFT as u32,
                Sew::Byte,
            );
            let y = naive_gemm(&ha, w2, Sew::Byte);
            naive_add(x, &naive_requant(&y, 1, suite::SHIFT as u32, Sew::Byte), Sew::Byte)
        };
        prop_assert_eq!(&r.outputs[0], &naive);
    }
}

proptest! {
    /// Random graphs are the stress oracle: each one, on a random
    /// launch backend, instance split, VPU count, arbiter and
    /// scheduler, must run bit-exact against [`LayerGraph::reference`].
    /// A typed [`RunError::Compile`] rejects the case; any other error,
    /// a panic or a diverging output fails it.
    #[test]
    fn random_graphs_run_bit_exact_against_reference(
        seed in any::<u64>(),
        descriptor in any::<bool>(),
        instances in prop_oneof![Just(1usize), Just(2), Just(4)],
        n_vpus in 1usize..5,
        arbiter in 0usize..ArbiterKind::ALL.len(),
        scheduler in 0usize..SchedulerKind::ALL.len(),
    ) {
        let (graph, inputs) = random_graph(seed);
        let want = graph.reference(&inputs);
        let opts = if descriptor {
            CompileOptions::descriptor(instances)
        } else {
            CompileOptions::with_instances(instances)
        };
        let mut cfg = ArcaneConfig::with_lanes(4);
        cfg.n_vpus = n_vpus;
        cfg.fabric.arbiter = ArbiterKind::ALL[arbiter];
        cfg.scheduler = SchedulerKind::ALL[scheduler];
        let run = std::panic::catch_unwind(|| {
            run_graph_with_engine(cfg, &graph, &inputs, &opts, EngineMode::current())
        });
        match run {
            Ok(Ok(report)) => prop_assert_eq!(&report.outputs, &want, "{:#?}", graph),
            Ok(Err(RunError::Compile(_))) => prop_assume!(false),
            Ok(Err(e)) => prop_assert!(false, "{e}\n{graph:#?}"),
            Err(_) => prop_assert!(false, "the run panicked on\n{graph:#?}"),
        }
    }
}

/// Engine parity on a graph workload: the predecoded op table and the
/// fetch-every-instruction reference must agree bit- and cycle-exactly
/// on the whole transformer chain.
#[test]
fn graph_engines_are_cycle_identical() {
    let b = suite::transformer_block(8, 12, 16, Sew::Byte, 99);
    let opts = CompileOptions::with_instances(2);
    let mut cfg = ArcaneConfig::with_lanes(8);
    cfg.n_vpus = 2;
    let run = |engine| run_graph_with_engine(cfg, &b.graph, &b.inputs, &opts, engine).unwrap();
    let (block, interp) = (run(EngineMode::Block), run(EngineMode::Interp));
    assert_eq!(block.cycles, interp.cycles, "cycle divergence");
    assert_eq!(block.instret, interp.instret, "instret divergence");
    assert_eq!(block.outputs, interp.outputs, "output divergence");
    assert_eq!(block.outputs[0], b.golden[0], "golden divergence");
}
