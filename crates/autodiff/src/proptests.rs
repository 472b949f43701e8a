//! Property-based tests of the algebra and autodiff invariants.

#![cfg(test)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gradcheck::assert_gradients_close;
use crate::{Graph, Matrix, ParamId, ParamSet, VarId};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Matrix multiplication distributes over addition.
    #[test]
    fn matmul_distributes(
        a in arb_matrix(3, 3),
        b in arb_matrix(3, 3),
        c in arb_matrix(3, 3),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Softmax rows are probability distributions regardless of input.
    #[test]
    fn softmax_is_distribution(a in arb_matrix(4, 6)) {
        let s = a.softmax_rows();
        for r in 0..4 {
            let row = s.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    /// hcat then slice_cols recovers the parts.
    #[test]
    fn hcat_slice_roundtrip(a in arb_matrix(3, 2), b in arb_matrix(3, 5)) {
        let joined = a.hcat(&b);
        prop_assert_eq!(joined.slice_cols(0, 2), a);
        prop_assert_eq!(joined.slice_cols(2, 5), b);
    }

    /// Analytic gradients of a random two-layer tanh network match finite
    /// differences.
    #[test]
    fn random_mlp_gradcheck(seed in 0u64..200) {
        let mut params = ParamSet::new();
        let w1 = params.insert("w1", Matrix::seeded_xavier(3, 5, seed));
        let w2 = params.insert("w2", Matrix::seeded_xavier(5, 2, seed ^ 1));
        let x = Matrix::seeded_xavier(4, 3, seed ^ 2);
        let run = |p: &ParamSet| -> (f32, Option<cadmc_grad::G>) {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let w1v = g.param(p, p.id("w1").expect("registered"));
            let w2v = g.param(p, p.id("w2").expect("registered"));
            let h = g.matmul(xv, w1v);
            let h = g.tanh(h);
            let out = g.matmul(h, w2v);
            let sq = g.square(out);
            let loss = g.mean_all(sq);
            let v = g.value(loss).at(0, 0);
            (v, Some(g.backward(loss)))
        };
        let (_, grads) = run(&params);
        assert_gradients_close(
            &params,
            &[w1, w2],
            &grads.expect("gradients computed"),
            |p| run(p).0,
            3e-2,
        );
    }

    /// Gradient of a sum of params w.r.t. each param is all-ones — and
    /// merging duplicates accumulates.
    #[test]
    fn param_reuse_accumulates(rows in 1usize..4, cols in 1usize..4) {
        let mut params = ParamSet::new();
        let p = params.insert("p", Matrix::zeros(rows, cols));
        let mut g = Graph::new();
        let a = g.param(&params, p);
        let b = g.param(&params, p);
        let s = g.add(a, b);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        let gp = grads.get(p).expect("gradient exists");
        for &v in gp.data() {
            prop_assert_eq!(v, 2.0);
        }
    }
}

/// Width of the one-hot block of a controller-style input row.
const ONE_HOT: usize = 11;
/// Numeric features after the one-hot block.
const NUMERIC: usize = 6;

/// A value drawn from `{+0.0, -0.0, uniform(-1.5, 1.5)}`.
fn signed_zero_or(rng: &mut StdRng, zero_chance: f64) -> f32 {
    if rng.random_bool(zero_chance) {
        if rng.random_bool(0.5) {
            0.0
        } else {
            -0.0
        }
    } else {
        rng.random_range(-1.5f32..1.5)
    }
}

/// Runs one LSTM cell over `xs` and returns the `(w, b)` gradients of
/// `Σ_t sum(h_t ∘ up_t) + sum(c_T ∘ up_c)`, through the fused ops or the
/// primitive chain they replace.
fn lstm_weight_grads(
    params: &ParamSet,
    (w_p, b_p): (ParamId, ParamId),
    xs: &[Matrix],
    ups: &[Matrix],
    hidden: usize,
    fused: bool,
) -> (Matrix, Matrix) {
    let mut g = Graph::new();
    let w = g.param(params, w_p);
    let b = g.param(params, b_p);
    let mut h = g.constant(Matrix::zeros(1, hidden));
    let mut c = g.constant(Matrix::zeros(1, hidden));
    let mut loss: Option<VarId> = None;
    for (x_val, up) in xs.iter().zip(ups) {
        let x = g.constant(x_val.clone());
        if fused {
            let gates = g.concat_matmul_bias(x, h, w, b);
            c = g.lstm_cell_state(gates, c, hidden);
            h = g.lstm_out_gate(gates, c, hidden);
        } else {
            let z = g.hcat(x, h);
            let lin = g.matmul(z, w);
            let gates = g.add_broadcast_row(lin, b);
            let i_lin = g.slice_cols(gates, 0, hidden);
            let f_lin = g.slice_cols(gates, hidden, hidden);
            let o_lin = g.slice_cols(gates, 2 * hidden, hidden);
            let g_lin = g.slice_cols(gates, 3 * hidden, hidden);
            let i = g.sigmoid(i_lin);
            let f = g.sigmoid(f_lin);
            let o = g.sigmoid(o_lin);
            let gg = g.tanh(g_lin);
            let fc = g.hadamard(f, c);
            let ig = g.hadamard(i, gg);
            c = g.add(fc, ig);
            let c_tanh = g.tanh(c);
            h = g.hadamard(o, c_tanh);
        }
        let u = g.constant(up.clone());
        let hu = g.hadamard(h, u);
        let term = g.sum_all(hu);
        loss = Some(match loss {
            Some(l) => g.add(l, term),
            None => term,
        });
    }
    let u = g.constant(ups[xs.len()].clone());
    let cu = g.hadamard(c, u);
    let term = g.sum_all(cu);
    let loss = loss.map_or(term, |l| g.add(l, term));
    let grads = g.backward(loss);
    let get = |p| grads.get(p).expect("gradient flows").clone();
    (get(w_p), get(b_p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused LSTM backward gives the bits of the primitive chain it
    /// replaces: sequences of 1–12 steps at the controllers' two hidden
    /// widths, input rows with a one-hot block and exact zeros, and
    /// upstream gradients holding `+0.0` and `-0.0`.
    #[test]
    fn fused_lstm_backward_matches_decomposed_chain_bitwise(
        steps in 1usize..=12,
        wide in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let hidden = if wide { 16 } else { 8 };
        let input = ONE_HOT + NUMERIC;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let w_p = params.insert("w", Matrix::seeded_xavier(input + hidden, 4 * hidden, seed));
        let mut bias = Matrix::seeded_xavier(1, 4 * hidden, seed ^ 1);
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v += 1.0;
        }
        let b_p = params.insert("b", bias);
        let xs: Vec<Matrix> = (0..steps)
            .map(|_| {
                let mut row = vec![0.0f32; input];
                row[rng.random_range(0..ONE_HOT)] = 1.0;
                for v in &mut row[ONE_HOT..] {
                    *v = signed_zero_or(&mut rng, 0.3);
                }
                Matrix::from_vec(1, input, row)
            })
            .collect();
        let ups: Vec<Matrix> = (0..=steps)
            .map(|_| {
                let row = (0..hidden).map(|_| signed_zero_or(&mut rng, 0.25)).collect();
                Matrix::from_vec(1, hidden, row)
            })
            .collect();
        let fused = lstm_weight_grads(&params, (w_p, b_p), &xs, &ups, hidden, true);
        let plain = lstm_weight_grads(&params, (w_p, b_p), &xs, &ups, hidden, false);
        for (f, p) in [(&fused.0, &plain.0), (&fused.1, &plain.1)] {
            prop_assert_eq!(f.shape(), p.shape());
            for (a, b) in f.data().iter().zip(p.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// Tiny helper module so the closure type above can name the gradient type
/// without importing it at top level.
mod cadmc_grad {
    pub type G = crate::Gradients;
}
