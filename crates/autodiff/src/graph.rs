//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records operations eagerly: every op both computes its value
//! (so intermediate results — e.g. policy logits to sample from — can be read
//! immediately) and appends a node to the tape. [`Graph::backward`] then
//! walks the tape in reverse, producing gradients for every parameter node.
//!
//! The op set is deliberately matched to what the higher layers need:
//! dense algebra and activations for LSTM policy controllers, softmax losses
//! for REINFORCE and knowledge distillation, and im2col / pooling ops for
//! the small-CNN runtime.

use crate::lstm::LstmSeq;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};

/// Handle to a node in a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

/// Convolution geometry for [`Graph::im2col`] and the NHWC/NCHW permutations.
///
/// Inputs are matrices of shape `(batch, channels * height * width)` in
/// NCHW element order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both spatial dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after the convolution/pool.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (kernel larger than the padded
    /// input, or zero stride).
    pub fn out_h(&self) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.height + 2 * self.pad >= self.kernel,
            "kernel {} exceeds padded height {}",
            self.kernel,
            self.height + 2 * self.pad
        );
        (self.height + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width after the convolution/pool.
    pub fn out_w(&self) -> usize {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.width + 2 * self.pad >= self.kernel,
            "kernel {} exceeds padded width {}",
            self.kernel,
            self.width + 2 * self.pad
        );
        (self.width + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Flattened input width `channels * height * width`.
    pub fn input_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

#[derive(Debug)]
enum Op {
    /// Leaf holding a constant (no gradient flows out).
    Constant,
    /// Leaf bound to a parameter in a [`ParamSet`].
    Param(ParamId),
    /// Leaf standing for a value computed outside the graph; its
    /// gradient is handed back to the caller of [`Graph::backward_into`].
    Input,
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Hadamard(VarId, VarId),
    Scale(VarId, f32),
    MatMul(VarId, VarId),
    Transpose(VarId),
    Sigmoid(VarId),
    Tanh(VarId),
    Relu(VarId),
    Square(VarId),
    AddBroadcastRow(VarId, VarId),
    HCat(VarId, VarId),
    SliceCols(VarId, usize),
    /// One LSTM direction over a sequence (see [`Graph::lstm`]). Its
    /// value is empty; the steps' hidden states are the
    /// [`Op::LstmHidden`] nodes right after it.
    Lstm(LstmSeq),
    /// Hidden state of one step of the [`Op::Lstm`] node it names. Its
    /// gradient is held, not propagated, until the sequence node reads
    /// every step's at once.
    LstmHidden(VarId),
    MeanAll(VarId),
    SumAll(VarId),
    SoftmaxCrossEntropy {
        logits: VarId,
        targets: Matrix,
        softmax: Matrix,
    },
    PickLogSoftmax {
        logits: VarId,
        picks: Vec<usize>,
        softmax: Matrix,
    },
    EntropyRows {
        logits: VarId,
        softmax: Matrix,
    },
    Im2Col {
        input: VarId,
        geom: ConvGeom,
        batch: usize,
    },
    NhwcToNchw {
        input: VarId,
        batch: usize,
        out_h: usize,
        out_w: usize,
        channels: usize,
    },
    MaxPool {
        input: VarId,
        argmax: Vec<usize>,
        in_cols: usize,
    },
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    op: Op,
}

/// Gradients produced by [`Graph::backward`], one slot per [`ParamId`].
///
/// Every whole-set reduction (merge, global norm, clipping, optimizer
/// steps) visits the slots in parameter-id order, so its floating-point
/// result does not depend on anything but the gradients themselves.
#[derive(Debug, Default)]
pub struct Gradients {
    by_param: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient for `param`, if it participated in the graph.
    pub fn get(&self, param: ParamId) -> Option<&Matrix> {
        self.by_param.get(param.0).and_then(Option::as_ref)
    }

    /// Iterates over `(param, gradient)` pairs in parameter-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.by_param
            .iter()
            .enumerate()
            .filter_map(|(i, g)| Some((ParamId(i), g.as_ref()?)))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.by_param.iter().flatten().count()
    }

    /// Whether no gradients were produced.
    pub fn is_empty(&self) -> bool {
        self.by_param.iter().all(Option::is_none)
    }

    /// Adds `g` into `param`'s gradient, or stores it if `param` has none
    /// yet. Returns `g` when it was added (its storage is spare).
    fn add(&mut self, param: ParamId, g: Matrix) -> Option<Matrix> {
        if self.by_param.len() <= param.0 {
            self.by_param.resize_with(param.0 + 1, || None);
        }
        match &mut self.by_param[param.0] {
            Some(acc) => {
                acc.add_assign(&g);
                Some(g)
            }
            slot @ None => {
                *slot = Some(g);
                None
            }
        }
    }

    /// Merges another gradient set into this one (summing overlaps).
    pub fn merge(&mut self, other: Gradients) {
        for (i, g) in other.by_param.into_iter().enumerate() {
            if let Some(g) = g {
                self.add(ParamId(i), g);
            }
        }
    }

    /// Global L2 norm across all gradients, summed in parameter-id order.
    pub fn global_norm(&self) -> f32 {
        self.iter()
            .map(|(_, m)| {
                let n = m.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm does not exceed `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for m in self.by_param.iter_mut().flatten() {
                for v in m.data_mut() {
                    *v *= s;
                }
            }
        }
    }
}

/// An eager autodiff tape.
///
/// # Examples
///
/// ```
/// use cadmc_autodiff::{Graph, Matrix, ParamSet};
///
/// let mut params = ParamSet::new();
/// let w = params.insert("w", Matrix::from_rows(&[&[2.0]]));
/// let mut g = Graph::new();
/// let x = g.constant(Matrix::from_rows(&[&[3.0]]));
/// let wv = g.param(&params, w);
/// let y = g.matmul(x, wv);
/// let loss = g.mean_all(y);
/// let grads = g.backward(loss);
/// // d(3w)/dw = 3
/// assert_eq!(grads.get(w).unwrap().at(0, 0), 3.0);
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reads the computed value of a node.
    pub fn value(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> VarId {
        self.nodes.push(Node { value, op });
        VarId(self.nodes.len() - 1)
    }

    /// Adds a constant leaf (no gradient flows into it).
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Constant)
    }

    /// Adds an input leaf: a value computed outside this graph (say, the
    /// output of another graph) whose gradient [`Graph::backward_into`]
    /// returns to the caller instead of discarding it.
    pub fn input(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Input)
    }

    /// Parameters bound by this graph's leaves, in tape order.
    pub fn params(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.nodes.iter().filter_map(|n| match n.op {
            Op::Param(p) => Some(p),
            _ => None,
        })
    }

    /// Adds a leaf bound to `param`, cloning its current value.
    pub fn param(&mut self, set: &ParamSet, param: ParamId) -> VarId {
        self.push(set.value(param).clone(), Op::Param(param))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Hadamard(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    pub fn add_broadcast_row(&mut self, a: VarId, bias: VarId) -> VarId {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddBroadcastRow(a, bias))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn hcat(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).hcat(self.value(b));
        self.push(v, Op::HCat(a, b))
    }

    /// Column slice `[start, start+width)`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, width: usize) -> VarId {
        let v = self.value(a).slice_cols(start, width);
        self.push(v, Op::SliceCols(a, start))
    }

    /// Records one LSTM direction over the `1 × input` rows `xs` as one
    /// tape node, with weight `w` (`(input + hidden) × 4·hidden`, gate
    /// blocks `[i f o g]`) and bias `b`, from the zero state. Returns each
    /// step's hidden state. Forward values and gradients are bit-identical
    /// to the hcat → matmul → add_broadcast_row → slice_cols → sigmoid /
    /// tanh → hadamard → add chain per step (DESIGN §12). `w` and `b`
    /// must be leaves no other node reads (`LstmCell::run` binds them
    /// fresh): that proof needs their gradient slots to start at `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is zero or a shape does not fit.
    pub(crate) fn lstm(&mut self, xs: &[VarId], w: VarId, b: VarId, hidden: usize) -> Vec<VarId> {
        let values: Vec<&Matrix> = xs.iter().map(|&x| self.value(x)).collect();
        let (seq, hs) = LstmSeq::record((xs, w, b), &values, self.value(w), self.value(b), hidden);
        let id = self.push(Matrix::zeros(0, 0), Op::Lstm(seq));
        hs.into_iter()
            .map(|h| self.push(h, Op::LstmHidden(id)))
            .collect()
    }

    /// Mean over all elements, producing a `1x1` value.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(v, Op::MeanAll(a))
    }

    /// Sum over all elements, producing a `1x1` value.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(v, Op::SumAll(a))
    }

    /// Mean softmax cross-entropy between `logits` rows and soft `targets`
    /// rows (each a probability distribution), producing a `1x1` loss.
    ///
    /// Soft targets make this usable for both hard-label classification
    /// (one-hot rows) and knowledge distillation (teacher softmax rows).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn softmax_cross_entropy(&mut self, logits: VarId, targets: Matrix) -> VarId {
        let lv = self.value(logits);
        assert_eq!(lv.shape(), targets.shape(), "cross-entropy shape mismatch");
        let softmax = lv.softmax_rows();
        let mut loss = 0.0;
        for r in 0..lv.rows() {
            for c in 0..lv.cols() {
                let p = softmax.at(r, c).max(1e-12);
                loss -= targets.at(r, c) * p.ln();
            }
        }
        loss /= lv.rows() as f32;
        let v = Matrix::from_vec(1, 1, vec![loss]);
        self.push(
            v,
            Op::SoftmaxCrossEntropy {
                logits,
                targets,
                softmax,
            },
        )
    }

    /// For each row `i` of `logits`, the log of the softmax probability of
    /// class `picks[i]`, producing an `N x 1` column of log-probabilities.
    ///
    /// This is the building block for REINFORCE: multiply by advantages and
    /// sum to get the surrogate objective.
    ///
    /// # Panics
    ///
    /// Panics if `picks.len()` differs from the number of rows or any pick
    /// is out of range.
    pub fn pick_log_softmax(&mut self, logits: VarId, picks: &[usize]) -> VarId {
        let lv = self.value(logits);
        assert_eq!(picks.len(), lv.rows(), "one pick per logits row required");
        let softmax = lv.softmax_rows();
        let mut out = Matrix::zeros(lv.rows(), 1);
        for (r, &p) in picks.iter().enumerate() {
            assert!(
                p < lv.cols(),
                "pick {p} out of range for {} classes",
                lv.cols()
            );
            *out.at_mut(r, 0) = softmax.at(r, p).max(1e-12).ln();
        }
        self.push(
            out,
            Op::PickLogSoftmax {
                logits,
                picks: picks.to_vec(),
                softmax,
            },
        )
    }

    /// Mean Shannon entropy of the row-wise softmax of `logits`, as a
    /// `1x1` node — the entropy-bonus term of regularized policy-gradient
    /// objectives. Rows with masked (−∞-ish) entries contribute only their
    /// live options, since masked options carry no probability mass.
    pub fn entropy_rows(&mut self, logits: VarId) -> VarId {
        let softmax = self.value(logits).softmax_rows();
        let v = Matrix::from_vec(1, 1, vec![softmax.mean_row_entropy()]);
        self.push(v, Op::EntropyRows { logits, softmax })
    }

    /// im2col: unfolds conv patches of an NCHW batch.
    ///
    /// `input` must have shape `(batch, geom.input_len())`; the result has
    /// shape `(batch * out_h * out_w, channels * kernel * kernel)`, ready to
    /// be multiplied by a `(channels*k*k, out_channels)` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the geometry.
    pub fn im2col(&mut self, input: VarId, geom: ConvGeom) -> VarId {
        let iv = self.value(input);
        assert_eq!(
            iv.cols(),
            geom.input_len(),
            "im2col input width mismatch: {} vs {}",
            iv.cols(),
            geom.input_len()
        );
        let batch = iv.rows();
        let v = im2col_forward(iv, geom);
        self.push(v, Op::Im2Col { input, geom, batch })
    }

    /// Permutes a `(batch*out_h*out_w, channels)` matrix (NHWC rows, the
    /// natural output of `im2col` matmul) into `(batch, channels*out_h*out_w)`
    /// NCHW layout.
    pub fn nhwc_to_nchw(
        &mut self,
        input: VarId,
        batch: usize,
        out_h: usize,
        out_w: usize,
    ) -> VarId {
        let iv = self.value(input);
        assert_eq!(
            iv.rows(),
            batch * out_h * out_w,
            "nhwc_to_nchw row mismatch"
        );
        let channels = iv.cols();
        let v = nhwc_to_nchw_forward(iv, batch, out_h, out_w);
        self.push(
            v,
            Op::NhwcToNchw {
                input,
                batch,
                out_h,
                out_w,
                channels,
            },
        )
    }

    /// Max pooling over an NCHW batch described by `geom` (where
    /// `geom.kernel`/`geom.stride` are the pool window and stride).
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the geometry.
    pub fn max_pool(&mut self, input: VarId, geom: ConvGeom) -> VarId {
        let iv = self.value(input);
        assert_eq!(iv.cols(), geom.input_len(), "max_pool input width mismatch");
        let (v, argmax) = max_pool_forward(iv, geom);
        let in_cols = iv.cols();
        self.push(
            v,
            Op::MaxPool {
                input,
                argmax,
                in_cols,
            },
        )
    }

    /// Runs reverse-mode differentiation from `loss` (which must be `1x1`)
    /// and returns per-parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1x1` node.
    pub fn backward(&self, loss: VarId) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward expects a scalar (1x1) loss node"
        );
        let mut out = Gradients::default();
        self.backward_into(
            [(loss, Matrix::from_vec(1, 1, vec![1.0]))],
            &mut Workspace::default(),
            &mut Transposes::default(),
            &mut out,
        );
        out
    }

    /// Runs reverse-mode differentiation seeded with the gradient of each
    /// `(node, gradient)` in `seeds`, adding every parameter's gradient
    /// into `out`. Returns the gradients that reached [`Graph::input`]
    /// leaves, in descending node order.
    ///
    /// Each node's gradient is the sum of its seed and its consumers'
    /// contributions in reverse tape order, exactly as if every
    /// contribution were a fresh matrix added with
    /// [`Matrix::add_assign`]. The arms do not materialize those
    /// matrices: they add into the slot in place (or write an empty slot
    /// directly), and spent gradient storage is reused for later slots —
    /// and, through `ws`, by later passes. `transposes` caches transposed
    /// weight blocks of *this* graph; hand the same cache only to passes
    /// over the same (unchanged) graph.
    ///
    /// # Panics
    ///
    /// Panics if a seed's shape differs from its node's value.
    pub fn backward_into(
        &self,
        seeds: impl IntoIterator<Item = (VarId, Matrix)>,
        ws: &mut Workspace,
        transposes: &mut Transposes,
        out: &mut Gradients,
    ) -> Vec<(VarId, Matrix)> {
        let mut pass = Backward {
            slots: Slots {
                nodes: &self.nodes,
                grads: std::mem::take(&mut ws.grads),
                spare: std::mem::take(&mut ws.spare),
            },
            row: std::mem::take(&mut ws.row),
            transposes: std::mem::take(&mut transposes.0),
            out,
        };
        pass.slots.grads.clear();
        for (id, g) in seeds {
            assert_eq!(g.shape(), self.value(id).shape(), "seed shape mismatch");
            if pass.slots.grads.len() <= id.0 {
                pass.slots.grads.resize_with(id.0 + 1, || None);
            }
            pass.slots.add_owned(id, g);
        }
        let mut inputs = Vec::new();
        for idx in (0..pass.slots.grads.len()).rev() {
            let Some(g) = pass.slots.grads[idx].take() else {
                continue;
            };
            match self.nodes[idx].op {
                Op::Param(p) => {
                    if let Some(spent) = pass.out.add(p, g) {
                        pass.slots.recycle(spent);
                    }
                }
                Op::Input => inputs.push((VarId(idx), g)),
                Op::LstmHidden(seq) => {
                    // Held for the sequence node, which reads it with its
                    // other steps'; an empty matrix marks that node live.
                    pass.slots.grads[idx] = Some(g);
                    pass.slots.grads[seq.0].get_or_insert_with(|| Matrix::zeros(0, 0));
                }
                _ => {
                    pass.propagate(idx, &g);
                    pass.slots.recycle(g);
                }
            }
        }
        ws.grads = pass.slots.grads;
        ws.spare = pass.slots.spare;
        ws.row = pass.row;
        transposes.0 = pass.transposes;
        inputs
    }
}

/// The buffers of a backward pass — per-node gradient slots, spent
/// gradient storage and a product-row staging area — kept so a sequence
/// of passes allocates only the gradients it hands out.
#[derive(Debug, Default)]
pub struct Workspace {
    grads: Vec<Option<Matrix>>,
    spare: Vec<Vec<f32>>,
    row: Vec<f32>,
}

/// Transposed row blocks of one graph's matmul right operands, keyed by
/// node and row range and built on first use: an LSTM weight's recurrent
/// block serves every step of its sequence, and every backward pass over
/// the same graph.
#[derive(Debug, Default)]
pub struct Transposes(Vec<((usize, usize, usize), Matrix)>);

/// The logistic function, as every sigmoid in the tape computes it.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-node gradient slots of one backward pass, with the storage of
/// spent gradients kept for reuse.
struct Slots<'a> {
    nodes: &'a [Node],
    grads: Vec<Option<Matrix>>,
    spare: Vec<Vec<f32>>,
}

impl<'a> Slots<'a> {
    fn value(&self, id: VarId) -> &'a Matrix {
        &self.nodes[id.0].value
    }

    /// Whether a gradient for `id` is kept: constants discard theirs.
    fn needs(&self, id: VarId) -> bool {
        !matches!(self.nodes[id.0].op, Op::Constant)
    }

    fn recycle(&mut self, m: Matrix) {
        let data = m.into_data();
        if data.capacity() > 0 {
            self.spare.push(data);
        }
    }

    /// Accumulates the `rows × cols` gradient whose element `(r, c)` is
    /// `fresh(r, c)`: written into an empty slot as is, added into a
    /// filled one — the bits of accumulating the materialized matrix.
    fn add_grid(
        &mut self,
        id: VarId,
        rows: usize,
        cols: usize,
        fresh: impl Fn(usize, usize) -> f32,
    ) {
        if !self.needs(id) {
            return;
        }
        let cells = (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c)));
        if let Some(acc) = &mut self.grads[id.0] {
            assert_eq!(acc.shape(), (rows, cols), "gradient shape mismatch");
            for (a, (r, c)) in acc.data_mut().iter_mut().zip(cells) {
                *a += fresh(r, c);
            }
        } else {
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend(cells.map(|(r, c)| fresh(r, c)));
            self.grads[id.0] = Some(Matrix::from_vec(rows, cols, buf));
        }
    }

    /// [`Slots::add_grid`] by flat element index `e = r * cols + c`.
    fn add_from(&mut self, id: VarId, rows: usize, cols: usize, fresh: impl Fn(usize) -> f32) {
        self.add_grid(id, rows, cols, |r, c| fresh(r * cols + c));
    }

    /// Accumulates columns `[start, start + width)` of the row-major
    /// `rows × src_cols` block `src`, one contiguous row slice at a time.
    fn add_cols(
        &mut self,
        id: VarId,
        src: &[f32],
        (rows, src_cols): (usize, usize),
        start: usize,
        width: usize,
    ) {
        if !self.needs(id) {
            return;
        }
        let part = |r: usize| &src[r * src_cols + start..r * src_cols + start + width];
        if let Some(acc) = &mut self.grads[id.0] {
            assert_eq!(acc.shape(), (rows, width), "gradient shape mismatch");
            for r in 0..rows {
                let dst = &mut acc.data_mut()[r * width..(r + 1) * width];
                for (d, &v) in dst.iter_mut().zip(part(r)) {
                    *d += v;
                }
            }
        } else {
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            for r in 0..rows {
                buf.extend_from_slice(part(r));
            }
            self.grads[id.0] = Some(Matrix::from_vec(rows, width, buf));
        }
    }

    /// Accumulates an already materialized gradient.
    fn add_owned(&mut self, id: VarId, g: Matrix) {
        if !self.needs(id) {
            return;
        }
        match &mut self.grads[id.0] {
            Some(acc) => {
                acc.add_assign(&g);
                self.recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// The slot of `id` for in-place accumulation, zero-filled if empty
    /// (`None` if `id` needs no gradient). Only for contributions whose
    /// every element is a sum seeded from `+0.0` (matmul products, row
    /// sums, scatters into zeros): such a sum is never `-0.0`, so adding
    /// it to a fresh `+0.0` reproduces it bit for bit.
    fn zeroed(&mut self, id: VarId, rows: usize, cols: usize) -> Option<&mut Matrix> {
        if !self.needs(id) {
            return None;
        }
        if self.grads[id.0].is_none() {
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            buf.resize(rows * cols, 0.0);
            self.grads[id.0] = Some(Matrix::from_vec(rows, cols, buf));
        }
        let acc = self.grads[id.0].as_mut()?;
        assert_eq!(acc.shape(), (rows, cols), "gradient shape mismatch");
        Some(acc)
    }
}

/// Working state of one [`Graph::backward_into`] call.
struct Backward<'a> {
    slots: Slots<'a>,
    /// Staging for one matmul product row (or a few), reused by every arm.
    row: Vec<f32>,
    /// The graph's [`Transposes`].
    transposes: Vec<((usize, usize, usize), Matrix)>,
    out: &'a mut Gradients,
}

impl Backward<'_> {
    /// `self.row = g · v[lo..hi]^T` for node `b`'s value `v`: columns
    /// `[lo, hi)` of `g.matmul_bt(v)`, bit for bit. The transposed row
    /// block is built once per node and range in a pass.
    fn product_bt(&mut self, g: &Matrix, b: VarId, lo: usize, hi: usize) {
        let key = (b.0, lo, hi);
        let pos = match self.transposes.iter().position(|(k, _)| *k == key) {
            Some(pos) => pos,
            None => {
                let block = self.slots.value(b).transpose_rows(lo, hi);
                self.transposes.push((key, block));
                self.transposes.len() - 1
            }
        };
        let block = &self.transposes[pos].1;
        self.row.clear();
        self.row.resize(g.rows() * block.cols(), 0.0);
        g.add_product_into(block, 0, &mut self.row);
    }

    /// The backward of the LSTM direction at node `idx`, in one pass over
    /// its steps: the held gradients of its hidden-state nodes give the
    /// gate gradients (staged in `self.row`), which then accumulate into
    /// the bias, the weight and any input that takes a gradient, step by
    /// step in descending order. Steps after the last one whose hidden
    /// state has a gradient are not reached, as in the unfused chain.
    fn lstm(&mut self, idx: usize, seq: &LstmSeq) {
        let views = idx + 1..idx + 1 + seq.steps();
        let held = &self.slots.grads[views.clone()];
        let Some(live) = held.iter().rposition(Option::is_some).map(|t| t + 1) else {
            return;
        };
        let n = seq.gate_width();
        let w = self.slots.value(seq.w);
        let extra = w.rows();
        seq.gate_grads(
            live,
            |t| held[t].as_ref().map(Matrix::data),
            &mut self.row,
            extra,
        );
        let (dg, rest) = self.row.split_at_mut(live * n);
        if let Some(acc) = self.slots.zeroed(seq.b, 1, n) {
            seq.add_bias_grad(dg, acc.data_mut());
        }
        if let Some(acc) = self.slots.zeroed(seq.w, seq.in_width(), n) {
            seq.add_weight_grad(dg, acc.data_mut());
        }
        let at = rest.len() - extra;
        let xg = &mut rest[at..];
        for (t, &x) in seq.xs[..live].iter().enumerate().rev() {
            if self.slots.needs(x) {
                let wx = self.slots.value(x).cols();
                seq.input_grad(w, &dg[t * n..(t + 1) * n], &mut xg[..wx]);
                self.slots.add_cols(x, &xg[..wx], (1, wx), 0, wx);
            }
        }
        for v in views {
            if let Some(m) = self.slots.grads[v].take() {
                self.slots.recycle(m);
            }
        }
    }

    /// Feeds node `idx`'s gradient `g` to the node's inputs.
    fn propagate(&mut self, idx: usize, g: &Matrix) {
        let node = &self.slots.nodes[idx];
        let (rows, cols) = g.shape();
        let gd = g.data();
        match &node.op {
            Op::Constant | Op::Param(_) | Op::Input => {}
            Op::Add(a, b) => {
                self.slots.add_cols(*a, gd, (rows, cols), 0, cols);
                self.slots.add_cols(*b, gd, (rows, cols), 0, cols);
            }
            Op::Sub(a, b) => {
                self.slots.add_cols(*a, gd, (rows, cols), 0, cols);
                // The product `scale(-1.0)` forms, not a negation: the two
                // differ on a NaN's sign bit.
                let minus_one = -1.0;
                self.slots.add_from(*b, rows, cols, |e| gd[e] * minus_one);
            }
            Op::Hadamard(a, b) => {
                let (ad, bd) = (self.slots.value(*a).data(), self.slots.value(*b).data());
                self.slots.add_from(*a, rows, cols, |e| gd[e] * bd[e]);
                self.slots.add_from(*b, rows, cols, |e| gd[e] * ad[e]);
            }
            Op::Scale(a, s) => self.slots.add_from(*a, rows, cols, |e| gd[e] * s),
            Op::MatMul(a, b) => {
                let (av, bv) = (self.slots.value(*a), self.slots.value(*b));
                if self.slots.needs(*a) {
                    self.product_bt(g, *b, 0, bv.rows());
                    let width = bv.rows();
                    self.slots.add_cols(*a, &self.row, (rows, width), 0, width);
                }
                if let Some(acc) = self.slots.zeroed(*b, av.cols(), cols) {
                    av.add_matmul_at_into(g, acc.data_mut(), &mut self.row);
                }
            }
            Op::Transpose(a) => self.slots.add_grid(*a, cols, rows, |r, c| gd[c * cols + r]),
            Op::Sigmoid(a) => {
                let yd = node.value.data();
                self.slots
                    .add_from(*a, rows, cols, |e| gd[e] * yd[e] * (1.0 - yd[e]));
            }
            Op::Tanh(a) => {
                let yd = node.value.data();
                self.slots
                    .add_from(*a, rows, cols, |e| gd[e] * (1.0 - yd[e] * yd[e]));
            }
            Op::Relu(a) => {
                let xd = self.slots.value(*a).data();
                self.slots
                    .add_from(*a, rows, cols, |e| if xd[e] > 0.0 { gd[e] } else { 0.0 });
            }
            Op::Square(a) => {
                let xd = self.slots.value(*a).data();
                self.slots.add_from(*a, rows, cols, |e| gd[e] * 2.0 * xd[e]);
            }
            Op::AddBroadcastRow(a, bias) => {
                self.slots.add_cols(*a, gd, (rows, cols), 0, cols);
                if let Some(acc) = self.slots.zeroed(*bias, 1, cols) {
                    g.add_sum_rows_into(acc);
                }
            }
            Op::HCat(a, b) => {
                let wa = self.slots.value(*a).cols();
                let wb = self.slots.value(*b).cols();
                self.slots.add_cols(*a, gd, (rows, cols), 0, wa);
                self.slots.add_cols(*b, gd, (rows, cols), wa, wb);
            }
            Op::SliceCols(a, start) => {
                // A scatter into zeros: `0.0 + g` inside the slice, `0.0`
                // outside it.
                let src_cols = self.slots.value(*a).cols();
                let src_rows = self.slots.value(*a).rows();
                self.slots.add_grid(*a, src_rows, src_cols, |r, c| {
                    if (*start..*start + cols).contains(&c) {
                        0.0 + gd[r * cols + c - start]
                    } else {
                        0.0
                    }
                });
            }
            Op::Lstm(seq) => self.lstm(idx, seq),
            Op::LstmHidden(_) => unreachable!("held for its sequence node"),
            Op::MeanAll(a) => {
                let (r, c) = self.slots.value(*a).shape();
                let per = gd[0] / (r * c) as f32;
                self.slots.add_from(*a, r, c, |_| per);
            }
            Op::SumAll(a) => {
                let (r, c) = self.slots.value(*a).shape();
                self.slots.add_from(*a, r, c, |_| gd[0]);
            }
            Op::SoftmaxCrossEntropy {
                logits,
                targets,
                softmax,
            } => {
                let scale = gd[0] / softmax.rows() as f32;
                let (sd, td) = (softmax.data(), targets.data());
                let (r, c) = softmax.shape();
                self.slots
                    .add_from(*logits, r, c, |e| (sd[e] - td[e]) * scale);
            }
            Op::PickLogSoftmax {
                logits,
                picks,
                softmax,
            } => {
                let (r, c) = softmax.shape();
                let sd = softmax.data();
                self.slots.add_grid(*logits, r, c, |row, col| {
                    let onehot = if col == picks[row] { 1.0 } else { 0.0 };
                    0.0 + gd[row] * (onehot - sd[row * c + col])
                });
            }
            Op::EntropyRows { logits, softmax } => {
                // dH/dz_j = -p_j (ln p_j + H_row), averaged over rows.
                let up = gd[0] / softmax.rows() as f32;
                let (r, c) = softmax.shape();
                self.row.clear();
                for row in 0..r {
                    let mut h_row = 0.0f32;
                    for &p in softmax.row(row) {
                        if p > 1e-12 {
                            h_row -= p * p.ln();
                        }
                    }
                    self.row.push(h_row);
                }
                let (sd, h_rows) = (softmax.data(), &self.row);
                self.slots.add_grid(*logits, r, c, |row, col| {
                    let p = sd[row * c + col];
                    if p > 1e-12 {
                        -up * p * (p.ln() + h_rows[row])
                    } else {
                        0.0
                    }
                });
            }
            Op::Im2Col { input, geom, batch } => {
                if self.slots.needs(*input) {
                    self.slots
                        .add_owned(*input, im2col_backward(g, *geom, *batch));
                }
            }
            Op::NhwcToNchw {
                input,
                batch,
                out_h,
                out_w,
                channels,
            } => {
                if self.slots.needs(*input) {
                    let gx = nchw_to_nhwc_forward(g, *batch, *out_h, *out_w, *channels);
                    self.slots.add_owned(*input, gx);
                }
            }
            Op::MaxPool {
                input,
                argmax,
                in_cols,
            } => {
                if self.slots.needs(*input) {
                    let src_rows = self.slots.value(*input).rows();
                    let mut gx = Matrix::zeros(src_rows, *in_cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            let src = argmax[r * cols + c];
                            gx.data_mut()[r * in_cols + src] += g.at(r, c);
                        }
                    }
                    self.slots.add_owned(*input, gx);
                }
            }
        }
    }
}

fn im2col_forward(input: &Matrix, geom: ConvGeom) -> Matrix {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let batch = input.rows();
    let patch = geom.channels * geom.kernel * geom.kernel;
    let mut out = Matrix::zeros(batch * oh * ow, patch);
    for n in 0..batch {
        let row = input.row(n);
        for oy in 0..oh {
            for ox in 0..ow {
                let orow = (n * oh + oy) * ow + ox;
                let base = orow * patch;
                for c in 0..geom.channels {
                    for ky in 0..geom.kernel {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for kx in 0..geom.kernel {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            let dst = base + (c * geom.kernel + ky) * geom.kernel + kx;
                            if iy >= 0
                                && (iy as usize) < geom.height
                                && ix >= 0
                                && (ix as usize) < geom.width
                            {
                                let src =
                                    (c * geom.height + iy as usize) * geom.width + ix as usize;
                                out.data_mut()[dst] = row[src];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn im2col_backward(grad: &Matrix, geom: ConvGeom, batch: usize) -> Matrix {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = Matrix::zeros(batch, geom.input_len());
    for n in 0..batch {
        for oy in 0..oh {
            for ox in 0..ow {
                let grow = (n * oh + oy) * ow + ox;
                for c in 0..geom.channels {
                    for ky in 0..geom.kernel {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for kx in 0..geom.kernel {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if iy >= 0
                                && (iy as usize) < geom.height
                                && ix >= 0
                                && (ix as usize) < geom.width
                            {
                                let gcol = (c * geom.kernel + ky) * geom.kernel + kx;
                                let dst =
                                    (c * geom.height + iy as usize) * geom.width + ix as usize;
                                *out.at_mut(n, dst) += grad.at(grow, gcol);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn nhwc_to_nchw_forward(input: &Matrix, batch: usize, out_h: usize, out_w: usize) -> Matrix {
    let channels = input.cols();
    let mut out = Matrix::zeros(batch, channels * out_h * out_w);
    for n in 0..batch {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let srow = (n * out_h + oy) * out_w + ox;
                for c in 0..channels {
                    let dst = (c * out_h + oy) * out_w + ox;
                    *out.at_mut(n, dst) = input.at(srow, c);
                }
            }
        }
    }
    out
}

/// Inverse of [`nhwc_to_nchw_forward`]: used for the backward pass.
fn nchw_to_nhwc_forward(
    input: &Matrix,
    batch: usize,
    out_h: usize,
    out_w: usize,
    channels: usize,
) -> Matrix {
    let mut out = Matrix::zeros(batch * out_h * out_w, channels);
    for n in 0..batch {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let drow = (n * out_h + oy) * out_w + ox;
                for c in 0..channels {
                    let src = (c * out_h + oy) * out_w + ox;
                    *out.at_mut(drow, c) = input.at(n, src);
                }
            }
        }
    }
    out
}

fn max_pool_forward(input: &Matrix, geom: ConvGeom) -> (Matrix, Vec<usize>) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let batch = input.rows();
    let out_cols = geom.channels * oh * ow;
    let mut out = Matrix::zeros(batch, out_cols);
    let mut argmax = vec![0usize; batch * out_cols];
    for n in 0..batch {
        let row = input.row(n);
        for c in 0..geom.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..geom.kernel {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy as usize >= geom.height {
                            continue;
                        }
                        for kx in 0..geom.kernel {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix as usize >= geom.width {
                                continue;
                            }
                            let idx = (c * geom.height + iy as usize) * geom.width + ix as usize;
                            if row[idx] > best {
                                best = row[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = (c * oh + oy) * ow + ox;
                    *out.at_mut(n, o) = best;
                    argmax[n * out_cols + o] = best_idx;
                }
            }
        }
    }
    (out, argmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_backward() {
        let mut params = ParamSet::new();
        let p = params.insert("p", Matrix::from_rows(&[&[1.0, 2.0]]));
        let mut g = Graph::new();
        let a = g.param(&params, p);
        let b = g.constant(Matrix::from_rows(&[&[3.0, 4.0]]));
        let s = g.add(a, b);
        let loss = g.sum_all(s);
        assert_eq!(g.value(loss).at(0, 0), 10.0);
        let grads = g.backward(loss);
        assert_eq!(grads.get(p).unwrap(), &Matrix::from_rows(&[&[1.0, 1.0]]));
    }

    #[test]
    fn matmul_gradients_are_correct() {
        // loss = sum(A*B); dA = ones * B^T, dB = A^T * ones.
        let mut params = ParamSet::new();
        let pa = params.insert("a", Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let pb = params.insert("b", Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let mut g = Graph::new();
        let a = g.param(&params, pa);
        let b = g.param(&params, pb);
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        assert_eq!(
            grads.get(pa).unwrap(),
            &Matrix::from_rows(&[&[11.0, 15.0], &[11.0, 15.0]])
        );
        assert_eq!(
            grads.get(pb).unwrap(),
            &Matrix::from_rows(&[&[4.0, 4.0], &[6.0, 6.0]])
        );
    }

    #[test]
    fn pick_log_softmax_matches_manual() {
        let mut g = Graph::new();
        let logits = g.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let lp = g.pick_log_softmax(logits, &[2]);
        let manual = {
            let s = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).softmax_rows();
            s.at(0, 2).ln()
        };
        assert!((g.value(lp).at(0, 0) - manual).abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_gradient_direction() {
        // With target = class 0 and symmetric logits, gradient should push
        // class 0 logit up (negative gradient) and others down.
        let mut params = ParamSet::new();
        let p = params.insert("l", Matrix::from_rows(&[&[0.0, 0.0, 0.0]]));
        let mut g = Graph::new();
        let l = g.param(&params, p);
        let loss = g.softmax_cross_entropy(l, Matrix::from_rows(&[&[1.0, 0.0, 0.0]]));
        let grads = g.backward(loss);
        let gl = grads.get(p).unwrap();
        assert!(gl.at(0, 0) < 0.0);
        assert!(gl.at(0, 1) > 0.0);
        assert!(gl.at(0, 2) > 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let mut g = Graph::new();
        let logits = g.constant(Matrix::zeros(2, 4));
        let h = g.entropy_rows(logits);
        assert!((g.value(h).at(0, 0) - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn entropy_gradient_pushes_toward_uniform() {
        // Maximizing entropy from a peaked distribution should lower the
        // large logit and raise the small ones.
        let mut params = ParamSet::new();
        let p = params.insert("l", Matrix::from_rows(&[&[3.0, 0.0, 0.0]]));
        let mut g = Graph::new();
        let l = g.param(&params, p);
        let h = g.entropy_rows(l);
        // Minimize -H (i.e. ascend entropy).
        let loss = g.scale(h, -1.0);
        let grads = g.backward(loss);
        let gl = grads.get(p).unwrap();
        assert!(
            gl.at(0, 0) > 0.0,
            "peak logit should be pushed down by -H loss gradient descent"
        );
        assert!(gl.at(0, 1) < 0.0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is a reshape.
        let geom = ConvGeom {
            channels: 2,
            height: 2,
            width: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[&[
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0,
        ]]));
        let cols = g.im2col(x, geom);
        // rows = 4 spatial positions, cols = 2 channels.
        assert_eq!(g.value(cols).shape(), (4, 2));
        assert_eq!(g.value(cols).at(0, 0), 1.0);
        assert_eq!(g.value(cols).at(0, 1), 5.0);
        assert_eq!(g.value(cols).at(3, 0), 4.0);
        assert_eq!(g.value(cols).at(3, 1), 8.0);
    }

    #[test]
    fn max_pool_forward_and_backward_route_to_argmax() {
        let geom = ConvGeom {
            channels: 1,
            height: 2,
            width: 2,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let mut params = ParamSet::new();
        let p = params.insert("x", Matrix::from_rows(&[&[1.0, 5.0, 3.0, 2.0]]));
        let mut g = Graph::new();
        let x = g.param(&params, p);
        let y = g.max_pool(x, geom);
        assert_eq!(g.value(y).at(0, 0), 5.0);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(
            grads.get(p).unwrap(),
            &Matrix::from_rows(&[&[0.0, 1.0, 0.0, 0.0]])
        );
    }

    #[test]
    fn nhwc_to_nchw_roundtrip_shapes() {
        let mut g = Graph::new();
        // batch=1, oh=2, ow=2, channels=3 -> rows 4, cols 3.
        let x = g.constant(Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect()));
        let y = g.nhwc_to_nchw(x, 1, 2, 2);
        assert_eq!(g.value(y).shape(), (1, 12));
        // channel 0 plane should be elements (0,0),(1,0),(2,0),(3,0) = 0,3,6,9
        assert_eq!(&g.value(y).row(0)[..4], &[0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn global_norm_and_clipping_are_the_same_for_every_gradient_set() {
        // Two dozen parameters whose squared norms span fourteen orders of
        // magnitude: their f32 sum depends on the order it is taken in.
        let mut params = ParamSet::new();
        let ids: Vec<ParamId> = (0..24)
            .map(|k| {
                let scale = 10f32.powi(k % 8 - 3) * 7.0;
                let value = Matrix::seeded_xavier(3, 5, k as u64).scale(scale);
                params.insert(format!("p{k}"), value)
            })
            .collect();
        let grads = || {
            let mut g = Graph::new();
            let mut total: Option<VarId> = None;
            for &id in &ids {
                let v = g.param(&params, id);
                let sq = g.square(v);
                let s = g.sum_all(sq);
                total = Some(match total {
                    Some(t) => g.add(t, s),
                    None => s,
                });
            }
            g.backward(total.expect("params registered"))
        };
        let mut reference = grads();
        let norm = reference.global_norm();
        assert!(norm > 5.0, "clipping must fire: norm {norm}");
        reference.clip_global_norm(5.0);
        for _ in 0..200 {
            let mut fresh = grads();
            assert_eq!(fresh.global_norm().to_bits(), norm.to_bits());
            fresh.clip_global_norm(5.0);
            assert_eq!(fresh.len(), ids.len());
            for (id, m) in fresh.iter() {
                let r = reference.get(id).expect("same parameters");
                for (a, b) in m.data().iter().zip(r.data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn gradient_clipping_reduces_norm() {
        let mut params = ParamSet::new();
        let p = params.insert("p", Matrix::from_rows(&[&[100.0]]));
        let mut g = Graph::new();
        let a = g.param(&params, p);
        let sq = g.square(a);
        let loss = g.sum_all(sq);
        let mut grads = g.backward(loss);
        assert!(grads.global_norm() > 1.0);
        grads.clip_global_norm(1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-4);
    }
}
