//! The canned graph workloads of the evaluation: builders that pair a
//! [`LayerGraph`] with deterministic inputs and the bit-exact golden
//! outputs of [`LayerGraph::reference`].

use crate::compile::CompileOptions;
use crate::graph::{LayerGraph, TensorId};
use crate::run::{run_graph_with_engine, GraphRunReport};
use arcane_core::ArcaneConfig;
use arcane_sim::{EngineMode, Sew};
use arcane_workloads::{self as workloads, Matrix};

/// Requantisation shift used throughout the suite.
pub const SHIFT: i16 = 2;
/// LeakyReLU negative-slope shift used throughout the suite.
pub const RELU_SHIFT: i16 = 3;
/// Operand value range (small, keeps int8 numerically interesting).
const RANGE: i64 = 4;

/// A ready-to-run workload: graph + seeded inputs + golden outputs.
#[derive(Debug, Clone)]
pub struct BuiltGraph {
    /// Workload label (reports, bench tables).
    pub name: &'static str,
    /// The layer graph.
    pub graph: LayerGraph,
    /// Input matrices in declaration order.
    pub inputs: Vec<Matrix>,
    /// Expected output matrices in [`LayerGraph::outputs`] order.
    pub golden: Vec<Matrix>,
}

impl BuiltGraph {
    /// Pairs `graph` with its `inputs` (in declaration order) and the
    /// golden outputs [`LayerGraph::reference`] computes from them.
    ///
    /// # Panics
    ///
    /// Panics if the inputs disagree with the graph's input tensors.
    pub fn new(name: &'static str, graph: LayerGraph, inputs: Vec<Matrix>) -> Self {
        let golden = graph.reference(&inputs);
        BuiltGraph {
            name,
            graph,
            inputs,
            golden,
        }
    }

    /// Runs the workload on `cfg` with `instances`-way kernel splitting
    /// and verifies every output bit-exactly against [`BuiltGraph::golden`].
    ///
    /// # Panics
    ///
    /// Panics on any output mismatch or [`RunError`](crate::RunError).
    pub fn run_verified(&self, cfg: ArcaneConfig, instances: usize) -> GraphRunReport {
        self.run_verified_with(cfg, &CompileOptions::with_instances(instances))
    }

    /// [`BuiltGraph::run_verified`] with explicit compiler options —
    /// the entry the mixed-traffic ablation uses (host-traffic stores
    /// land in a scratch window past the arena, so outputs still
    /// verify bit-exactly).
    ///
    /// # Panics
    ///
    /// Panics on any output mismatch or [`RunError`](crate::RunError).
    pub fn run_verified_with(&self, cfg: ArcaneConfig, opts: &CompileOptions) -> GraphRunReport {
        let report =
            run_graph_with_engine(cfg, &self.graph, &self.inputs, opts, EngineMode::current())
                .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        let instances = opts.instances;
        assert_eq!(
            report.outputs.len(),
            self.golden.len(),
            "{}: output count",
            self.name
        );
        for (i, (got, want)) in report.outputs.iter().zip(&self.golden).enumerate() {
            assert_eq!(
                got, want,
                "{}: output {i} diverges from the reference (instances={instances})",
                self.name
            );
        }
        report
    }
}

/// The depthwise-separable conv layer: depthwise conv over `channels`
/// planes, 1×1 pointwise mix as a GeMM over the flattened planes,
/// requantise, LeakyReLU. A flattened conv plane is one GeMM row, so
/// keep `(h-k+1)·(w-k+1)·esz ≤ 1024` for the graph to run (past that,
/// the run returns a [`RunError::Fault`](crate::RunError::Fault)).
pub fn depthwise_separable(h: usize, w: usize, k: usize, sew: Sew, seed: u64) -> BuiltGraph {
    let channels = 3;
    let (oh, ow) = (h - k + 1, w - k + 1);
    let mut g = LayerGraph::new(sew);
    let decls = [
        ("x", channels * h, w),
        ("f_dw", channels * k, k),
        ("w_pw", 1, channels),
    ];
    let ([x, fd, wp], inputs) = random_inputs(&mut g, seed, decls);
    let dw = g.depthwise_conv(x, fd, channels);
    let planes = g.view(dw, channels, oh * ow);
    let mixed = g.gemm(wp, planes);
    let q = g.requantise(mixed, 1, SHIFT);
    let y = g.leaky_relu(q, RELU_SHIFT);
    g.mark_output(y);
    BuiltGraph::new("depthwise_separable", g, inputs)
}

/// The residual bottleneck with requantise fusion: two GeMMs, each
/// requantised, a LeakyReLU between them, and the residual add.
pub fn residual_bottleneck(n: usize, d: usize, sew: Sew, seed: u64) -> BuiltGraph {
    let mut g = LayerGraph::new(sew);
    let ([tx, tw1, tw2], inputs) =
        random_inputs(&mut g, seed, [("x", n, d), ("w1", d, d), ("w2", d, d)]);
    let h = g.gemm(tx, tw1);
    let hq = g.requantise(h, 1, SHIFT);
    let ha = g.leaky_relu(hq, RELU_SHIFT);
    let y = g.gemm(ha, tw2);
    let yq = g.requantise(y, 1, SHIFT);
    let out = g.residual_add(tx, yq);
    g.mark_output(out);
    BuiltGraph::new("residual_bottleneck", g, inputs)
}

/// The int8 transformer encoder block: ReLU-attention with residual,
/// then the two-GeMM MLP with residual — a 16-node graph that lowers
/// to the longest kernel chain in the tree.
pub fn transformer_block(t: usize, d: usize, f: usize, sew: Sew, seed: u64) -> BuiltGraph {
    let mut g = LayerGraph::new(sew);
    let decls = [
        ("x", t, d),
        ("wq", d, d),
        ("wk", d, d),
        ("wv", d, d),
        ("w1", d, f),
        ("w2", f, d),
    ];
    let ([x, wq, wk, wv, w1, w2], inputs) = random_inputs(&mut g, seed, decls);
    let y = g.transformer_block(x, wq, wk, wv, w1, w2, SHIFT, RELU_SHIFT);
    g.mark_output(y);
    BuiltGraph::new("transformer_block", g, inputs)
}

/// Declares one input of `g` per `(name, rows, cols)` and draws its
/// values from `seed`'s stream, in declaration order.
fn random_inputs<const N: usize>(
    g: &mut LayerGraph,
    seed: u64,
    decls: [(&str, usize, usize); N],
) -> ([TensorId; N], Vec<Matrix>) {
    let mut rng = workloads::rng(seed);
    let sew = g.sew();
    let mut values = Vec::with_capacity(N);
    let ids = decls.map(|(name, rows, cols)| {
        values.push(workloads::random_matrix(&mut rng, rows, cols, sew, RANGE));
        g.input(name, rows, cols)
    });
    (ids, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lanes: usize) -> ArcaneConfig {
        ArcaneConfig::with_lanes(lanes)
    }

    #[test]
    fn depthwise_separable_runs_bit_exact() {
        let b = depthwise_separable(10, 10, 3, Sew::Byte, 7);
        let r = b.run_verified(cfg(8), 1);
        // 3 channel convs + pointwise GeMM + requant + relu.
        assert_eq!(r.kernels, 6);
        assert!(r.cycles > 0);
    }

    #[test]
    fn residual_bottleneck_runs_bit_exact_all_widths() {
        for sew in Sew::ALL {
            let b = residual_bottleneck(8, 12, sew, 3);
            let r = b.run_verified(cfg(8), 1);
            assert_eq!(r.kernels, 6, "{sew}");
        }
    }

    #[test]
    fn transformer_block_runs_bit_exact() {
        let b = transformer_block(8, 12, 16, Sew::Byte, 5);
        let r = b.run_verified(cfg(8), 1);
        assert_eq!(r.kernels, 16);
        assert!(r.renames > 0, "chain must exercise renaming");
    }

    #[test]
    fn conv2d_and_maxpool_nodes_run_bit_exact() {
        // The canned workloads never emit Conv2d or MaxPool nodes; this
        // pins their lowering (operand binding order, α/β packing of
        // stride/window) end-to-end against the reference.
        let sew = Sew::Byte;
        let mut rng = workloads::rng(31);
        let a = workloads::random_matrix(&mut rng, 12, 12, sew, RANGE);
        let f = workloads::random_matrix(&mut rng, 3, 3, sew, RANGE);
        let mut g = LayerGraph::new(sew);
        let ta = g.input("a", 12, 12);
        let tf = g.input("f", 3, 3);
        let c = g.conv2d(ta, tf);
        let p = g.maxpool(c, 3, 2);
        let t = g.transpose(p);
        g.mark_output(t);
        let built = BuiltGraph::new("conv_maxpool", g, vec![a, f]);
        let r = built.run_verified(cfg(4), 1);
        assert_eq!(r.kernels, 3);
        // Both backends emit from the same launch list: same slice
        // structure, same bit-exact outputs.
        let d = built.run_verified_with(cfg(4), &CompileOptions::descriptor(1));
        assert_eq!(d.kernels, 3);
        assert_eq!(d.outputs, r.outputs);
        assert_eq!(d.launch_stats.descriptors, 3);
    }

    #[test]
    fn instance_split_is_bit_exact_and_spreads_vpus() {
        let b = residual_bottleneck(16, 16, Sew::Byte, 9);
        let r = b.run_verified(cfg(8), 4);
        assert!(r.kernels > 6, "splitting must emit more kernels");
        let per = r.kernels_per_vpu(4);
        assert!(
            per.iter().filter(|&&n| n > 0).count() > 1,
            "kernels must land on more than one VPU: {per:?}"
        );
    }
}
