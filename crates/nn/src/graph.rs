//! The layer-graph IR: tensors, layer nodes and composite blocks.
//!
//! A [`LayerGraph`] is a small, topologically ordered intermediate
//! representation of a quantised-integer network slice. Each builder
//! method performs shape inference immediately (panicking on
//! inconsistent graphs — this is a construction-time contract, exactly
//! like the kernel library's `validate`), so a graph that builds is a
//! graph the compiler can lower.
//!
//! Tensors are dense row-major matrices of one element width
//! ([`Sew`]); the zero-copy [`LayerGraph::view`] reinterprets an
//! existing tensor's bytes under a new shape (the NCHW-plane ↔ matrix
//! reshapes a pointwise convolution needs).

use arcane_sim::Sew;
use arcane_workloads::{self as golden, Matrix};
use std::borrow::Cow;
use std::fmt;

/// Handle to a tensor in a [`LayerGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub(crate) usize);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How a tensor gets its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorKind {
    /// Seeded by the host before the graph runs.
    Input,
    /// Produced by a node.
    Intermediate,
    /// Zero-copy reshape of another tensor (no storage of its own).
    Alias(TensorId),
}

/// One tensor: a dense `rows × cols` matrix at the graph's width.
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Debug name (inputs get caller names, intermediates get op names).
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Storage class.
    pub kind: TensorKind,
}

impl Tensor {
    /// Total elements.
    pub fn elems(&self) -> usize {
        self.rows * self.cols
    }
}

/// One layer node: an operation consuming tensors and producing `dest`.
///
/// Every variant lowers to one or more `xmnmc` kernel invocations; the
/// scalar fields carry the kernels' `α`/`β` immediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// Single-channel valid 2-D convolution (`xmk3`).
    Conv2d {
        /// Input image.
        input: TensorId,
        /// Square filter.
        filter: TensorId,
        /// Output image.
        dest: TensorId,
    },
    /// Depthwise valid convolution over `channels` stacked planes: one
    /// `xmk3` per channel, each on its own plane slice — the natural
    /// multi-VPU fan-out unit.
    DepthwiseConv {
        /// Stacked input planes (`C·H × W`).
        input: TensorId,
        /// Stacked filter planes (`C·K × K`).
        filter: TensorId,
        /// Plane count `C`.
        channels: usize,
        /// Stacked output planes (`C·H' × W'`).
        dest: TensorId,
    },
    /// Matrix multiply `dest = A × B` (`xmk0`, α = 1, β = 0);
    /// row-splittable across VPU instances.
    Gemm {
        /// Left operand.
        a: TensorId,
        /// Right operand.
        b: TensorId,
        /// Product.
        dest: TensorId,
    },
    /// Element-wise residual addition (`xmk5`); row-splittable.
    ResidualAdd {
        /// First addend (the residual path).
        a: TensorId,
        /// Second addend.
        b: TensorId,
        /// Sum.
        dest: TensorId,
    },
    /// Scale-and-shift requantisation `dest = (x · mul) >> shift`
    /// (`xmk6`); row-splittable.
    Requantise {
        /// Input.
        input: TensorId,
        /// Multiplier.
        mul: i16,
        /// Arithmetic right shift (0..32).
        shift: i16,
        /// Output.
        dest: TensorId,
    },
    /// Shift-based LeakyReLU `dest = x ≥ 0 ? x : x >> shift` (`xmk1`);
    /// row-splittable.
    LeakyRelu {
        /// Input.
        input: TensorId,
        /// Negative-slope shift (0..32; 31 ≈ hard ReLU).
        shift: i16,
        /// Output.
        dest: TensorId,
    },
    /// 2-D max-pooling (`xmk2`).
    MaxPool {
        /// Input.
        input: TensorId,
        /// Window size.
        win: usize,
        /// Stride.
        stride: usize,
        /// Pooled output.
        dest: TensorId,
    },
    /// Matrix transpose (`xmk7`).
    Transpose {
        /// Input.
        input: TensorId,
        /// Transposed output.
        dest: TensorId,
    },
}

/// A topologically ordered layer graph at one element width.
#[derive(Debug, Clone)]
pub struct LayerGraph {
    sew: Sew,
    tensors: Vec<Tensor>,
    nodes: Vec<Node>,
    outputs: Vec<TensorId>,
}

impl LayerGraph {
    /// An empty graph whose tensors all use width `sew`.
    pub fn new(sew: Sew) -> Self {
        LayerGraph {
            sew,
            tensors: Vec::new(),
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Element width of every tensor in the graph.
    pub fn sew(&self) -> Sew {
        self.sew
    }

    /// All tensors, indexed by [`TensorId`].
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Nodes in execution (= insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Tensors marked as graph outputs, in marking order.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// Input tensors in declaration order (the seeding contract of the
    /// runner: the i-th provided matrix fills the i-th input).
    pub fn inputs(&self) -> Vec<TensorId> {
        self.tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TensorKind::Input)
            .map(|(i, _)| TensorId(i))
            .collect()
    }

    /// Pairs each input tensor with its matrix from `inputs` (the
    /// seeding contract: declaration order).
    ///
    /// # Panics
    ///
    /// Panics if the input count or an input shape disagrees.
    pub(crate) fn bind_inputs<'m>(&self, inputs: &'m [Matrix]) -> Vec<(TensorId, &'m Matrix)> {
        let ids = self.inputs();
        assert_eq!(ids.len(), inputs.len(), "declared vs provided inputs");
        for (&id, m) in ids.iter().zip(inputs) {
            let name = &self.tensor(id).name;
            assert_eq!(
                self.shape(id),
                (m.rows(), m.cols()),
                "input shape mismatch for {name}"
            );
        }
        ids.into_iter().zip(inputs).collect()
    }

    /// The tensor behind a handle.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// `(rows, cols)` of a tensor.
    pub fn shape(&self, id: TensorId) -> (usize, usize) {
        let t = self.tensor(id);
        (t.rows, t.cols)
    }

    /// Follows alias links to the tensor that owns the storage.
    pub fn storage_root(&self, id: TensorId) -> TensorId {
        match self.tensor(id).kind {
            TensorKind::Alias(parent) => self.storage_root(parent),
            _ => id,
        }
    }

    fn push_tensor(
        &mut self,
        name: String,
        rows: usize,
        cols: usize,
        kind: TensorKind,
    ) -> TensorId {
        assert!(rows > 0 && cols > 0, "{name}: tensors must be non-empty");
        self.tensors.push(Tensor {
            name,
            rows,
            cols,
            kind,
        });
        TensorId(self.tensors.len() - 1)
    }

    /// Declares an input tensor.
    pub fn input(&mut self, name: &str, rows: usize, cols: usize) -> TensorId {
        self.push_tensor(name.to_string(), rows, cols, TensorKind::Input)
    }

    /// Marks `id` as a graph output (readable after the run, and the
    /// host program synchronises on it).
    pub fn mark_output(&mut self, id: TensorId) {
        assert!(id.0 < self.tensors.len(), "unknown tensor {id}");
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Zero-copy reshape: a new tensor over `input`'s storage with a
    /// different `rows × cols` factorisation.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn view(&mut self, input: TensorId, rows: usize, cols: usize) -> TensorId {
        let src = self.tensor(input);
        assert_eq!(
            src.elems(),
            rows * cols,
            "view must preserve the element count of {input}"
        );
        let name = format!("{}.view", src.name);
        self.push_tensor(name, rows, cols, TensorKind::Alias(input))
    }

    fn intermediate(&mut self, op: &str, rows: usize, cols: usize) -> TensorId {
        let name = format!("{op}{}", self.nodes.len());
        self.push_tensor(name, rows, cols, TensorKind::Intermediate)
    }

    /// Single-channel valid 2-D convolution.
    ///
    /// # Panics
    ///
    /// Panics if the filter is not square or exceeds the input.
    pub fn conv2d(&mut self, input: TensorId, filter: TensorId) -> TensorId {
        let (h, w) = self.shape(input);
        let (fr, fc) = self.shape(filter);
        assert_eq!(fr, fc, "conv2d filter must be square");
        assert!(fr <= h && fr <= w, "conv2d filter exceeds the input");
        let dest = self.intermediate("conv", h - fr + 1, w - fr + 1);
        self.nodes.push(Node::Conv2d {
            input,
            filter,
            dest,
        });
        dest
    }

    /// Depthwise convolution over `channels` stacked planes.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent plane geometry.
    pub fn depthwise_conv(
        &mut self,
        input: TensorId,
        filter: TensorId,
        channels: usize,
    ) -> TensorId {
        assert!(channels > 0, "depthwise needs at least one channel");
        let (rows, w) = self.shape(input);
        let (fr, k) = self.shape(filter);
        assert_eq!(rows % channels, 0, "depthwise input must stack C planes");
        assert_eq!(fr, channels * k, "depthwise filter must stack C planes");
        let h = rows / channels;
        assert!(k <= h && k <= w, "depthwise filter exceeds a plane");
        let dest = self.intermediate("dwconv", channels * (h - k + 1), w - k + 1);
        self.nodes.push(Node::DepthwiseConv {
            input,
            filter,
            channels,
            dest,
        });
        dest
    }

    /// Matrix multiply `A × B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn gemm(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (m, ka) = self.shape(a);
        let (kb, n) = self.shape(b);
        assert_eq!(ka, kb, "gemm inner dimensions differ");
        let dest = self.intermediate("gemm", m, n);
        self.nodes.push(Node::Gemm { a, b, dest });
        dest
    }

    /// Element-wise residual addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn residual_add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(self.shape(a), self.shape(b), "residual_add shape mismatch");
        let (r, c) = self.shape(a);
        let dest = self.intermediate("add", r, c);
        self.nodes.push(Node::ResidualAdd { a, b, dest });
        dest
    }

    /// Scale-and-shift requantisation `(x · mul) >> shift`.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is outside `0..32`.
    pub fn requantise(&mut self, input: TensorId, mul: i16, shift: i16) -> TensorId {
        assert!((0..32).contains(&shift), "requantise shift must be 0..32");
        let (r, c) = self.shape(input);
        let dest = self.intermediate("requant", r, c);
        self.nodes.push(Node::Requantise {
            input,
            mul,
            shift,
            dest,
        });
        dest
    }

    /// Shift-based LeakyReLU.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is outside `0..32`.
    pub fn leaky_relu(&mut self, input: TensorId, shift: i16) -> TensorId {
        assert!((0..32).contains(&shift), "leaky_relu shift must be 0..32");
        let (r, c) = self.shape(input);
        let dest = self.intermediate("relu", r, c);
        self.nodes.push(Node::LeakyRelu { input, shift, dest });
        dest
    }

    /// 2-D max-pooling with window `win` and stride `stride`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the input.
    pub fn maxpool(&mut self, input: TensorId, win: usize, stride: usize) -> TensorId {
        assert!(
            win >= 1 && stride >= 1,
            "maxpool window/stride must be >= 1"
        );
        let (r, c) = self.shape(input);
        assert!(win <= r && win <= c, "maxpool window exceeds the input");
        let dest = self.intermediate("pool", (r - win) / stride + 1, (c - win) / stride + 1);
        self.nodes.push(Node::MaxPool {
            input,
            win,
            stride,
            dest,
        });
        dest
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, input: TensorId) -> TensorId {
        let (r, c) = self.shape(input);
        let dest = self.intermediate("transpose", c, r);
        self.nodes.push(Node::Transpose { input, dest });
        dest
    }

    // ----- reference evaluation ---------------------------------------------

    /// Evaluates the graph on the host, node by node in order, with the
    /// golden kernels of `arcane_workloads` (GeMM at α = 1, β = 0): the
    /// bit-exact outputs a simulated run of the graph must produce, in
    /// [`LayerGraph::outputs`] order. A view reads its storage root
    /// reshaped; `inputs` fills the inputs in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the input count or an input shape disagrees with the
    /// graph.
    pub fn reference(&self, inputs: &[Matrix]) -> Vec<Matrix> {
        let mut values: Vec<Option<Cow<Matrix>>> = vec![None; self.tensors.len()];
        for (id, m) in self.bind_inputs(inputs) {
            values[id.0] = Some(Cow::Borrowed(m));
        }
        let sew = self.sew;
        for node in &self.nodes {
            let v = |id| self.value(&values, id);
            let (dest, out) = match *node {
                Node::Conv2d {
                    input,
                    filter,
                    dest,
                } => (dest, golden::conv2d(&v(input), &v(filter), sew)),
                Node::DepthwiseConv {
                    input,
                    filter,
                    channels,
                    dest,
                } => (
                    dest,
                    golden::depthwise_conv(&v(input), &v(filter), channels, sew),
                ),
                Node::Gemm { a, b, dest } => (dest, golden::gemm(&v(a), &v(b), None, 1, 0, sew)),
                Node::ResidualAdd { a, b, dest } => (dest, golden::mat_add(&v(a), &v(b), sew)),
                Node::Requantise {
                    input,
                    mul,
                    shift,
                    dest,
                } => (
                    dest,
                    golden::mat_scale(&v(input), mul.into(), shift as u32, sew),
                ),
                Node::LeakyRelu { input, shift, dest } => {
                    (dest, golden::leaky_relu(&v(input), shift as u32, sew))
                }
                Node::MaxPool {
                    input,
                    win,
                    stride,
                    dest,
                } => (dest, golden::maxpool(&v(input), win, stride)),
                Node::Transpose { input, dest } => (dest, golden::transpose(&v(input))),
            };
            values[dest.0] = Some(Cow::Owned(out));
        }
        let out = |&id| self.value(&values, id).into_owned();
        self.outputs.iter().map(out).collect()
    }

    /// The value of `id` among the evaluated `values`: its storage
    /// root's matrix, reshaped when `id` is a view.
    fn value<'v>(&self, values: &'v [Option<Cow<Matrix>>], id: TensorId) -> Cow<'v, Matrix> {
        let root = values[self.storage_root(id).0]
            .as_deref()
            .expect("nodes run in order, so every operand is computed");
        let (rows, cols) = self.shape(id);
        if (root.rows(), root.cols()) == (rows, cols) {
            Cow::Borrowed(root)
        } else {
            Cow::Owned(root.reshape(rows, cols))
        }
    }

    // ----- composite blocks -------------------------------------------------

    /// ReLU-attention block with residual: the quantised-integer
    /// attention surrogate (softmax becomes a requantised LeakyReLU) built
    /// entirely from Table I kernels:
    /// `X + requant(relu(requant(Q·Kᵀ)) · V)` with `Q/K/V = X·Wq/Wk/Wv`.
    pub fn attention_block(
        &mut self,
        x: TensorId,
        wq: TensorId,
        wk: TensorId,
        wv: TensorId,
        shift: i16,
        relu_shift: i16,
    ) -> TensorId {
        let q = self.gemm(x, wq);
        let k = self.gemm(x, wk);
        let v = self.gemm(x, wv);
        let kt = self.transpose(k);
        let s = self.gemm(q, kt);
        let sq = self.requantise(s, 1, shift);
        let a = self.leaky_relu(sq, relu_shift);
        let p = self.gemm(a, v);
        let pq = self.requantise(p, 1, shift);
        self.residual_add(x, pq)
    }

    /// Two-GeMM MLP block with residual:
    /// `X + requant(relu(requant(X·W1)) · W2)`.
    pub fn mlp_block(
        &mut self,
        x: TensorId,
        w1: TensorId,
        w2: TensorId,
        shift: i16,
        relu_shift: i16,
    ) -> TensorId {
        let h = self.gemm(x, w1);
        let hq = self.requantise(h, 1, shift);
        let ha = self.leaky_relu(hq, relu_shift);
        let y = self.gemm(ha, w2);
        let yq = self.requantise(y, 1, shift);
        self.residual_add(x, yq)
    }

    /// A full int8 transformer encoder block: attention + residual,
    /// then MLP + residual.
    #[allow(clippy::too_many_arguments)]
    pub fn transformer_block(
        &mut self,
        x: TensorId,
        wq: TensorId,
        wk: TensorId,
        wv: TensorId,
        w1: TensorId,
        w2: TensorId,
        shift: i16,
        relu_shift: i16,
    ) -> TensorId {
        let x1 = self.attention_block(x, wq, wk, wv, shift, relu_shift);
        self.mlp_block(x1, w1, w2, shift, relu_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_inference_chain() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 8, 8);
        let f = g.input("f", 3, 3);
        let c = g.conv2d(x, f);
        assert_eq!(g.shape(c), (6, 6));
        let p = g.maxpool(c, 2, 2);
        assert_eq!(g.shape(p), (3, 3));
        let t = g.transpose(p);
        assert_eq!(g.shape(t), (3, 3));
        g.mark_output(t);
        assert_eq!(g.outputs(), [t]);
        assert_eq!(g.inputs(), [x, f]);
    }

    #[test]
    fn view_aliases_storage() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 6, 4);
        let v = g.view(x, 2, 12);
        assert_eq!(g.shape(v), (2, 12));
        assert_eq!(g.storage_root(v), x);
        let vv = g.view(v, 24, 1);
        assert_eq!(g.storage_root(vv), x);
    }

    #[test]
    #[should_panic(expected = "gemm inner dimensions differ")]
    fn gemm_shape_mismatch_panics() {
        let mut g = LayerGraph::new(Sew::Byte);
        let a = g.input("a", 2, 3);
        let b = g.input("b", 4, 2);
        g.gemm(a, b);
    }

    #[test]
    fn transformer_block_node_count() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 8, 8);
        let w = [
            g.input("wq", 8, 8),
            g.input("wk", 8, 8),
            g.input("wv", 8, 8),
            g.input("w1", 8, 16),
            g.input("w2", 16, 8),
        ];
        let y = g.transformer_block(x, w[0], w[1], w[2], w[3], w[4], 2, 3);
        assert_eq!(g.shape(y), (8, 8));
        // 7 GeMMs + transpose + 4 requant + 2 relu + 2 residual adds.
        assert_eq!(g.nodes().len(), 16);
    }

    #[test]
    fn reference_with_zero_weights_passes_x_through() {
        // Every GeMM yields zero, requantise and ReLU keep it zero, and
        // both residual adds pass X through unchanged.
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 2, 3);
        let w = [(3, 3), (3, 3), (3, 3), (3, 4), (4, 3)].map(|(r, c)| g.input("w", r, c));
        let y = g.transformer_block(x, w[0], w[1], w[2], w[3], w[4], 2, 3);
        g.mark_output(y);
        let xm = Matrix::from_values(2, 3, &[1, -2, 3, 4, -5, 6]);
        let mut inputs = vec![xm.clone()];
        inputs.extend(w.map(|t| Matrix::zero(g.shape(t).0, g.shape(t).1)));
        assert_eq!(g.reference(&inputs), vec![xm]);
    }

    #[test]
    fn reference_reads_views_and_returns_outputs_in_marking_order() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 2, 3);
        let v = g.view(x, 3, 2);
        let t = g.transpose(v);
        g.mark_output(t);
        g.mark_output(v);
        let out = g.reference(&[Matrix::from_values(2, 3, &[1, 2, 3, 4, 5, 6])]);
        assert_eq!(
            out,
            [
                Matrix::from_values(2, 3, &[1, 3, 5, 2, 4, 6]),
                Matrix::from_values(3, 2, &[1, 2, 3, 4, 5, 6]),
            ]
        );
    }
}
