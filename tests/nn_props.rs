//! Differential suite for the `arcane-nn` golden models and runtime.
//!
//! The property tests pit every new golden model (depthwise conv,
//! residual bottleneck with requantise fusion, transformer encoder
//! block) against an **independent naive CPU reference** written here
//! with plain `i64` loops — any divergence between the two derivations
//! of the semantics fails the property. The engine-parity test runs a
//! full graph workload on both host-core engines (the predecoded op
//! table vs fetching and decoding every instruction) and demands bit-
//! and cycle-identical results.

use arcane::core::ArcaneConfig;
use arcane::isa::launch::{DescriptorBatch, LaunchDescriptor, OperandBinding};
use arcane::isa::xmnmc::MatReg;
use arcane::nn::{suite, CompileOptions, LaunchMode};
use arcane::sim::{EngineMode, Sew};
use arcane::workloads::{self, Matrix};
use proptest::prelude::*;

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
        let golden = workloads::depthwise_conv(&a, &f, channels, sew);
        let naive = naive_depthwise(&a, &f, channels, sew);
        prop_assert_eq!(golden, naive);
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
        let golden = workloads::residual_bottleneck(&x, &w1, &w2, shift, relu_shift, sew);
        // Naive chain: gemm → requant → relu → gemm → requant → add.
        let h = naive_gemm(&x, &w1, sew);
        let ha = naive_leaky_relu(&naive_requant(&h, 1, shift, sew), relu_shift, sew);
        let y = naive_gemm(&ha, &w2, sew);
        let naive = naive_add(&x, &naive_requant(&y, 1, shift, sew), sew);
        prop_assert_eq!(golden, naive);
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
        let golden = workloads::transformer_encoder_block(
            &x, &wq, &wk, &wv, &w1, &w2, shift, relu_shift, sew,
        );
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
        prop_assert_eq!(golden, naive);
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
    /// both against the golden model).
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
        // run_verified already asserts against the golden model; tie the
        // knot to the naive reference too.
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

/// Engine parity on a graph workload: the predecoded op table and the
/// fetch-every-instruction reference must agree bit- and cycle-exactly
/// on the whole transformer chain.
#[test]
fn graph_engines_are_cycle_identical() {
    let b = suite::transformer_block(8, 12, 16, Sew::Byte, 99);
    let opts = CompileOptions::with_instances(2);
    let mut cfg = ArcaneConfig::with_lanes(8);
    cfg.n_vpus = 2;
    let block =
        arcane::nn::run_graph_with_engine(cfg, &b.graph, &b.inputs, &opts, EngineMode::Block);
    let interp =
        arcane::nn::run_graph_with_engine(cfg, &b.graph, &b.inputs, &opts, EngineMode::Interp);
    assert_eq!(block.cycles, interp.cycles, "cycle divergence");
    assert_eq!(block.instret, interp.instret, "instret divergence");
    assert_eq!(block.outputs, interp.outputs, "output divergence");
    assert_eq!(block.outputs[0], b.golden[0], "golden divergence");
}
