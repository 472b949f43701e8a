//! LSTM building blocks on top of the autodiff [`Graph`].
//!
//! The paper's decision engine uses a bidirectional LSTM to read a DNN's
//! layer-hyperparameter sequence (Fig. 6). [`LstmCell`] is a standard cell;
//! [`BiLstm`] runs one forward and one backward cell over a sequence and
//! concatenates the per-step hidden states.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::graph::{sigmoid, Graph, VarId};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};

/// A single LSTM cell with fused gate weights.
///
/// Gate layout inside the fused weight matrix is `[i | f | o | g]`, each of
/// width `hidden`.
#[derive(Debug, Clone)]
pub struct LstmCell {
    input_size: usize,
    hidden: usize,
    w: ParamId,
    b: ParamId,
}

impl LstmCell {
    /// Registers a cell's parameters in `params` under `prefix` and returns
    /// the cell. The forget-gate bias is initialized to 1.0 (standard trick
    /// to preserve long-range gradients early in training).
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        input_size: usize,
        hidden: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = params.insert(
            format!("{prefix}.w"),
            Matrix::xavier(input_size + hidden, 4 * hidden, &mut rng),
        );
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            *bias.at_mut(0, c) = 1.0;
        }
        let b = params.insert(format!("{prefix}.b"), bias);
        Self {
            input_size,
            hidden,
            w,
            b,
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Runs the cell over a sequence of `1 × input_size` rows, returning
    /// the hidden state after each step. The whole direction is one tape
    /// node (see [`Graph::lstm`]), so its backward runs in one pass.
    ///
    /// # Panics
    ///
    /// Panics if an input is not `1 x input_size`.
    pub fn run(&self, graph: &mut Graph, params: &ParamSet, inputs: &[VarId]) -> Vec<VarId> {
        let w = graph.param(params, self.w);
        let b = graph.param(params, self.b);
        graph.lstm(inputs, w, b, self.hidden)
    }
}

/// A bidirectional LSTM: a forward and a backward [`LstmCell`] whose per-step
/// hidden states are concatenated, giving `2 * hidden` features per step.
#[derive(Debug, Clone)]
pub struct BiLstm {
    forward: LstmCell,
    backward: LstmCell,
}

impl BiLstm {
    /// Registers both directions' parameters under `prefix`.
    pub fn new(
        params: &mut ParamSet,
        prefix: &str,
        input_size: usize,
        hidden: usize,
        seed: u64,
    ) -> Self {
        Self {
            forward: LstmCell::new(params, &format!("{prefix}.fwd"), input_size, hidden, seed),
            backward: LstmCell::new(
                params,
                &format!("{prefix}.bwd"),
                input_size,
                hidden,
                seed.wrapping_add(0x9e3779b9),
            ),
        }
    }

    /// Per-direction hidden width (the output width is twice this).
    pub fn hidden(&self) -> usize {
        self.forward.hidden()
    }

    /// Runs the sequence through both directions; element `t` of the result
    /// is `[h_fwd_t | h_bwd_t]` for input step `t`.
    pub fn run(&self, graph: &mut Graph, params: &ParamSet, inputs: &[VarId]) -> Vec<VarId> {
        let fwd = self.forward.run(graph, params, inputs);
        let rev_inputs: Vec<VarId> = inputs.iter().rev().copied().collect();
        let mut bwd = self.backward.run(graph, params, &rev_inputs);
        bwd.reverse();
        fwd.iter()
            .zip(bwd)
            .map(|(&f, b)| graph.hcat(f, b))
            .collect()
    }

    /// Runs the sequence and returns the final summary feature
    /// `[h_fwd_last | h_bwd_first-step-of-reverse]`, i.e. both directions'
    /// terminal states — a whole-sequence embedding.
    pub fn run_to_summary(&self, graph: &mut Graph, params: &ParamSet, inputs: &[VarId]) -> VarId {
        let hs = self.run(graph, params, inputs);
        *hs.last()
            .expect("BiLstm::run_to_summary needs a non-empty sequence")
    }
}

/// One recorded LSTM direction: the tape node [`Graph::lstm`] pushes, and
/// everything its backward pass reads.
///
/// Step `t` keeps one row of `input + 7·hidden` floats: the cell's input
/// `[x_t | h_{t−1}]`, then `c_{t−1}`, the activated gates `[i f o g]` and
/// `tanh(c_t)`. Step 0 reads the zero state. Each kernel runs at a
/// compile-time width for the two widths the controllers use (8 and 16)
/// and at the run-time width otherwise, with the same operations in the
/// same order, so the width never changes a bit.
#[derive(Debug)]
pub(crate) struct LstmSeq {
    pub(crate) xs: Vec<VarId>,
    pub(crate) w: VarId,
    pub(crate) b: VarId,
    input: usize,
    hidden: usize,
    rows: Vec<f32>,
    /// The recurrent rows of `w`, transposed (`4·hidden × hidden`): the
    /// backward's `δgates · w_hᵀ` then reads contiguous rows.
    wht: Vec<f32>,
}

/// The width a kernel instance runs at: `H`, or the run-time `hidden`
/// for the generic instance `H = 0`.
fn width<const H: usize>(hidden: usize) -> usize {
    if H == 0 {
        hidden
    } else {
        H
    }
}

/// Runs `$f::<H>` at the compile-time width matching `$hidden`.
macro_rules! at_width {
    ($hidden:expr, $f:ident($($arg:expr),*)) => {
        match $hidden {
            8 => $f::<8>($($arg),*),
            16 => $f::<16>($($arg),*),
            _ => $f::<0>($($arg),*),
        }
    };
}

impl LstmSeq {
    /// Runs the direction over the `1 × input` rows `xs` with weight `w`
    /// (`(input + hidden) × 4·hidden`, gate blocks `[i f o g]`) and bias
    /// `b`, returning the node and each step's hidden state.
    pub(crate) fn record(
        ids: (&[VarId], VarId, VarId),
        xs: &[&Matrix],
        w: &Matrix,
        b: &Matrix,
        hidden: usize,
    ) -> (Self, Vec<Matrix>) {
        assert!(hidden > 0, "LSTM hidden width must be positive");
        let input = w.rows().checked_sub(hidden).expect("LSTM weight too short");
        assert_eq!(w.shape(), (input + hidden, 4 * hidden), "LSTM weight shape");
        assert_eq!(b.shape(), (1, 4 * hidden), "LSTM bias shape");
        for x in xs {
            assert_eq!(x.shape(), (1, input), "LSTM input shape mismatch");
        }
        let mut seq = Self {
            xs: ids.0.to_vec(),
            w: ids.1,
            b: ids.2,
            input,
            hidden,
            rows: vec![0.0; xs.len() * (input + 7 * hidden)],
            wht: w.transpose_rows(input, input + hidden).into_data(),
        };
        let hs = at_width!(hidden, forward(&mut seq, xs, w.data(), b.data()));
        (seq, hs)
    }

    /// Number of steps.
    pub(crate) fn steps(&self) -> usize {
        self.xs.len()
    }

    /// Width of the packed gate row, `4·hidden`.
    pub(crate) fn gate_width(&self) -> usize {
        4 * self.hidden
    }

    /// Width of the cell input `[x | h]`: the weight's row count.
    pub(crate) fn in_width(&self) -> usize {
        self.input + self.hidden
    }

    fn stride(&self) -> usize {
        self.input + 7 * self.hidden
    }

    /// Writes the gate gradients of steps `0..live` into `dg` (row `t`
    /// at `t · 4·hidden`), where `ext(t)` is the gradient the tape's
    /// consumers gave `h_t` and `live − 1` is the last step that has one.
    /// `dg` is sized to hold `extra` more floats after the rows.
    pub(crate) fn gate_grads<'g>(
        &self,
        live: usize,
        ext: impl Fn(usize) -> Option<&'g [f32]>,
        dg: &mut Vec<f32>,
        extra: usize,
    ) {
        dg.clear();
        dg.resize(live * self.gate_width() + 2 * self.hidden + extra, 0.0);
        at_width!(self.hidden, gate_grads(self, live, &ext, dg));
    }

    /// Adds the bias gradient of the gate rows `dg` into `acc`: per
    /// element, `acc += δg_t` over the steps in descending order.
    pub(crate) fn add_bias_grad(&self, dg: &[f32], acc: &mut [f32]) {
        for row in dg.chunks_exact(self.gate_width()).rev() {
            for (a, &d) in acc.iter_mut().zip(row) {
                *a += d;
            }
        }
    }

    /// Adds the weight gradient of the gate rows `dg` into `acc`: per
    /// element, `acc += z·δg_t` over the steps in descending order, where
    /// `z` is the step's input `[x_t | h_{t−1}]`; exact-zero `z` skipped.
    pub(crate) fn add_weight_grad(&self, dg: &[f32], acc: &mut [f32]) {
        let (n, stride) = (self.gate_width(), self.stride());
        for (k, dst) in acc.chunks_exact_mut(n).enumerate() {
            let terms = dg
                .chunks_exact(n)
                .enumerate()
                .rev()
                .map(|(t, dgt)| (self.rows[t * stride + k], dgt));
            if self.hidden.is_multiple_of(8) {
                add_products::<32>(dst, terms);
            } else {
                add_products::<0>(dst, terms);
            }
        }
    }

    /// `out = δg · w[..input]ᵀ`, the gradient of step input `x_t` for the
    /// gate row `δg`: ascending `k` from `+0.0`, exact zeros skipped.
    pub(crate) fn input_grad(&self, w: &Matrix, dg: &[f32], out: &mut [f32]) {
        for (o, wrow) in out.iter_mut().zip(w.data().chunks_exact(dg.len())) {
            let mut s = 0.0;
            for (&a, &v) in dg.iter().zip(wrow) {
                if a == 0.0 {
                    continue;
                }
                s += a * v;
            }
            *o = s;
        }
    }
}

/// `acc[j] += a·row[j]` for each `(a, row)` of `terms` in order, skipping
/// an exact-zero `a`: the loop of the tape's matmul, which sums each
/// element in ascending `k` and skips exact zeros. At a compile-time
/// block width `B` the sums run in a local `B`-column block, which the
/// compiler keeps in registers across the terms; `B = 0` runs in place.
/// The operations and their order per element are the same either way.
fn add_products<'r, const B: usize>(
    acc: &mut [f32],
    terms: impl Iterator<Item = (f32, &'r [f32])> + Clone,
) {
    if B == 0 {
        for (a, row) in terms {
            if a == 0.0 {
                continue;
            }
            for (d, &v) in acc.iter_mut().zip(row) {
                *d += a * v;
            }
        }
        return;
    }
    assert_eq!(acc.len() % B, 0, "block width must divide the row");
    for (blk, dst) in acc.chunks_exact_mut(B).enumerate() {
        let mut local = [0.0f32; B];
        local.copy_from_slice(dst);
        for (a, row) in terms.clone() {
            if a == 0.0 {
                continue;
            }
            for (d, &v) in local.iter_mut().zip(&row[blk * B..(blk + 1) * B]) {
                *d += a * v;
            }
        }
        dst.copy_from_slice(&local);
    }
}

/// The forward pass: per step, gates `= [x | h] · w + b` (ascending `k`
/// from `+0.0`, exact-zero inputs skipped, then the bias), `σ` on
/// `i f o`, `tanh` on `g`, `c = (f·c_prev) + (i·g)`, `h = o·tanh(c)`.
fn forward<const H: usize>(seq: &mut LstmSeq, xs: &[&Matrix], w: &[f32], b: &[f32]) -> Vec<Matrix> {
    let hd = width::<H>(seq.hidden);
    let (input, stride, n) = (seq.input, seq.stride(), 4 * hd);
    let mut hs = Vec::with_capacity(xs.len());
    for (t, x) in xs.iter().enumerate() {
        let (row, next) = seq.rows[t * stride..].split_at_mut(stride);
        row[..input].copy_from_slice(x.data());
        let (z, rest) = row.split_at_mut(input + hd);
        let (c_prev, rest) = rest.split_at_mut(hd);
        let (act, tc) = rest.split_at_mut(n);
        let terms = z.iter().copied().zip(w.chunks_exact(n));
        if H == 0 {
            add_products::<0>(act, terms);
        } else {
            add_products::<32>(act, terms);
        }
        for (d, &v) in act.iter_mut().zip(b) {
            *d += v;
        }
        let (ifo, g) = act.split_at_mut(3 * hd);
        for v in ifo.iter_mut() {
            *v = sigmoid(*v);
        }
        for v in g.iter_mut() {
            *v = v.tanh();
        }
        let (i, rest) = act.split_at(hd);
        let (f, rest) = rest.split_at(hd);
        let (o, g) = rest.split_at(hd);
        let (c_prev, tc) = (&c_prev[..hd], &mut tc[..hd]);
        for e in 0..hd {
            tc[e] = f[e] * c_prev[e] + i[e] * g[e];
        }
        if !next.is_empty() {
            next[input + hd..input + 2 * hd].copy_from_slice(tc);
        }
        let mut h = Matrix::zeros(1, hd);
        for ((hv, t), &ov) in h.data_mut().iter_mut().zip(tc.iter_mut()).zip(o) {
            *t = t.tanh();
            *hv = ov * *t;
        }
        if !next.is_empty() {
            next[input..input + hd].copy_from_slice(h.data());
        }
        hs.push(h);
    }
    hs
}

/// The backward through the cells, steps `live − 1` down to 0. With
/// `rec = δg_{t+1} · w_hᵀ` and `carry = δc_{t+1} · f_{t+1}`:
/// `δh_t = ext + rec` (either alone where the other is absent),
/// `δc_t = carry + δh·o·(1 − tanh²c)` (the second term alone at the last
/// live step), and each gate gradient is `0.0 + expr` with the
/// left-associated products of the unfused chain.
fn gate_grads<'g, const H: usize>(
    seq: &LstmSeq,
    live: usize,
    ext: &impl Fn(usize) -> Option<&'g [f32]>,
    dg: &mut [f32],
) {
    let hd = width::<H>(seq.hidden);
    let (input, stride, n) = (seq.input, seq.stride(), 4 * hd);
    let (dgs, state) = dg.split_at_mut(live * n);
    let (carry, rest) = state.split_at_mut(hd);
    let dh = &mut rest[..hd];
    for t in (0..live).rev() {
        let has_next = t + 1 < live;
        // `dh` holds `rec` here; turn it into δh_t.
        match ext(t) {
            Some(x) if has_next => {
                for (d, &x) in dh.iter_mut().zip(x) {
                    let rec = *d;
                    *d = x + rec;
                }
            }
            Some(x) => dh.copy_from_slice(x),
            None => {}
        }
        let row = &seq.rows[t * stride + input + hd..];
        let (c_prev, i, f) = (&row[..hd], &row[hd..2 * hd], &row[2 * hd..3 * hd]);
        let (o, g, tc) = (
            &row[3 * hd..4 * hd],
            &row[4 * hd..5 * hd],
            &row[5 * hd..6 * hd],
        );
        let dgt = &mut dgs[t * n..(t + 1) * n];
        let (di, rest) = dgt.split_at_mut(hd);
        let (df, rest) = rest.split_at_mut(hd);
        let (d_o, dgg) = rest.split_at_mut(hd);
        for e in 0..hd {
            let out = dh[e] * o[e] * (1.0 - tc[e] * tc[e]);
            let dc = if has_next { carry[e] + out } else { out };
            di[e] = 0.0 + dc * g[e] * i[e] * (1.0 - i[e]);
            df[e] = 0.0 + dc * c_prev[e] * f[e] * (1.0 - f[e]);
            d_o[e] = 0.0 + dh[e] * tc[e] * o[e] * (1.0 - o[e]);
            dgg[e] = 0.0 + dc * i[e] * (1.0 - g[e] * g[e]);
            carry[e] = dc * f[e];
        }
        if t > 0 {
            dh.fill(0.0);
            let terms = dgt.iter().copied().zip(seq.wht.chunks_exact(hd));
            add_products::<H>(dh, terms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn lstm_run_shapes() {
        let mut params = ParamSet::new();
        let cell = LstmCell::new(&mut params, "cell", 3, 5, 0);
        let mut g = Graph::new();
        let xs: Vec<VarId> = (0..2).map(|_| g.constant(Matrix::zeros(1, 3))).collect();
        let hs = cell.run(&mut g, &params, &xs);
        assert_eq!(hs.len(), 2);
        for h in hs {
            assert_eq!(g.value(h).shape(), (1, 5));
        }
    }

    #[test]
    fn bilstm_output_width_is_double() {
        let mut params = ParamSet::new();
        let bi = BiLstm::new(&mut params, "bi", 4, 6, 0);
        let mut g = Graph::new();
        let xs: Vec<VarId> = (0..3)
            .map(|i| g.constant(Matrix::full(1, 4, i as f32)))
            .collect();
        let hs = bi.run(&mut g, &params, &xs);
        assert_eq!(hs.len(), 3);
        for h in hs {
            assert_eq!(g.value(h).shape(), (1, 12));
        }
    }

    #[test]
    fn lstm_can_learn_sequence_sum_sign() {
        // Train a tiny LSTM to classify whether the sum of a length-4
        // sequence is positive: exercises full BPTT through the cell.
        let mut params = ParamSet::new();
        let cell = LstmCell::new(&mut params, "cell", 1, 8, 42);
        let mut rng_seq = StdRng::seed_from_u64(7);
        let head = params.insert("head", Matrix::xavier(8, 2, &mut rng_seq));
        let mut opt = Adam::new(0.02);

        let data: Vec<(Vec<f32>, usize)> = {
            use rand::RngExt;
            let mut rng = StdRng::seed_from_u64(11);
            (0..40)
                .map(|_| {
                    let xs: Vec<f32> = (0..4).map(|_| rng.random_range(-1.0..1.0)).collect();
                    let label = usize::from(xs.iter().sum::<f32>() > 0.0);
                    (xs, label)
                })
                .collect()
        };

        let mut last_loss = f32::INFINITY;
        for _ in 0..150 {
            let mut total = 0.0;
            let mut grads_acc = None::<crate::graph::Gradients>;
            for (xs, label) in &data {
                let mut g = Graph::new();
                let inputs: Vec<VarId> = xs
                    .iter()
                    .map(|&v| g.constant(Matrix::from_vec(1, 1, vec![v])))
                    .collect();
                let hs = cell.run(&mut g, &params, &inputs);
                let headv = g.param(&params, head);
                let logits = g.matmul(*hs.last().unwrap(), headv);
                let mut target = Matrix::zeros(1, 2);
                *target.at_mut(0, *label) = 1.0;
                let loss = g.softmax_cross_entropy(logits, target);
                total += g.value(loss).at(0, 0);
                let grads = g.backward(loss);
                match &mut grads_acc {
                    Some(acc) => acc.merge(grads),
                    slot @ None => *slot = Some(grads),
                }
            }
            opt.step(&mut params, &grads_acc.unwrap());
            last_loss = total / data.len() as f32;
        }
        assert!(last_loss < 0.3, "LSTM failed to learn, loss={last_loss}");
    }
}
