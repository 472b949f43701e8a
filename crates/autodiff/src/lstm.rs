//! LSTM building blocks on top of the autodiff [`Graph`].
//!
//! The paper's decision engine uses a bidirectional LSTM to read a DNN's
//! layer-hyperparameter sequence (Fig. 6). [`LstmCell`] is a standard cell;
//! [`BiLstm`] runs one forward and one backward cell over a sequence and
//! concatenates the per-step hidden states.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::graph::{Graph, VarId};
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

    /// Zero-initialized `(h, c)` state as constants in `graph`.
    pub fn zero_state(&self, graph: &mut Graph) -> (VarId, VarId) {
        let h = graph.constant(Matrix::zeros(1, self.hidden));
        let c = graph.constant(Matrix::zeros(1, self.hidden));
        (h, c)
    }

    /// One LSTM step: consumes `x` (1×input) and state `(h, c)`, returning
    /// the next `(h, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `1 x input_size`.
    pub fn step(
        &self,
        graph: &mut Graph,
        params: &ParamSet,
        x: VarId,
        state: (VarId, VarId),
    ) -> (VarId, VarId) {
        let w = graph.param(params, self.w);
        let b = graph.param(params, self.b);
        self.step_with(graph, (w, b), x, state)
    }

    /// [`step`] with the weight/bias graph nodes supplied by the caller,
    /// so a sequence run binds each parameter once instead of cloning it
    /// into the tape at every timestep. Gradients are unchanged: the
    /// backward pass accumulates per-use contributions in the same
    /// (reverse-step) order whether they flow through one shared node or
    /// one node per step.
    ///
    /// [`step`]: LstmCell::step
    fn step_with(
        &self,
        graph: &mut Graph,
        (w, b): (VarId, VarId),
        x: VarId,
        state: (VarId, VarId),
    ) -> (VarId, VarId) {
        assert_eq!(
            graph.value(x).shape(),
            (1, self.input_size),
            "LSTM input shape mismatch"
        );
        let (h_prev, c_prev) = state;
        let gates = graph.concat_matmul_bias(x, h_prev, w, b);
        let c = graph.lstm_cell_state(gates, c_prev, self.hidden);
        let h = graph.lstm_out_gate(gates, c, self.hidden);
        (h, c)
    }

    /// Runs the cell over a sequence, returning the hidden state after each
    /// step.
    pub fn run(&self, graph: &mut Graph, params: &ParamSet, inputs: &[VarId]) -> Vec<VarId> {
        let w = graph.param(params, self.w);
        let b = graph.param(params, self.b);
        let mut state = self.zero_state(graph);
        let mut hs = Vec::with_capacity(inputs.len());
        for &x in inputs {
            state = self.step_with(graph, (w, b), x, state);
            hs.push(state.0);
        }
        hs
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn lstm_step_shapes() {
        let mut params = ParamSet::new();
        let cell = LstmCell::new(&mut params, "cell", 3, 5, 0);
        let mut g = Graph::new();
        let x = g.constant(Matrix::zeros(1, 3));
        let state = cell.zero_state(&mut g);
        let (h, c) = cell.step(&mut g, &params, x, state);
        assert_eq!(g.value(h).shape(), (1, 5));
        assert_eq!(g.value(c).shape(), (1, 5));
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
