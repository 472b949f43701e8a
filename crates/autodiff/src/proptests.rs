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

/// One LSTM direction over `xs` through the primitive per-step chain
/// hcat → matmul → add_broadcast_row → slice_cols → sigmoid/tanh →
/// hadamard → add, from a zero state; returns each step's hidden state.
fn primitive_lstm(
    g: &mut Graph,
    (w, b): (VarId, VarId),
    xs: &[VarId],
    hidden: usize,
) -> Vec<VarId> {
    let mut h = g.constant(Matrix::zeros(1, hidden));
    let mut c = g.constant(Matrix::zeros(1, hidden));
    let mut hs = Vec::new();
    for &x in xs {
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
        hs.push(h);
    }
    hs
}

/// Everything a run of one LSTM case yields: the loss terms' hidden
/// states, the input leaves' gradients and the parameters' gradients.
type LstmRun = (Vec<Matrix>, Vec<Matrix>, Vec<Option<Matrix>>);

/// Runs a bidirectional (or, with `bi` false, a forward-only) LSTM over
/// input leaves holding `xs` and differentiates `Σ_t sum(h_t ∘ up_t)` over
/// the steps with an upstream row, through the sequence node or the
/// primitive chain.
fn lstm_case(
    params: &ParamSet,
    bi: bool,
    xs: &[Matrix],
    ups: &[Option<Matrix>],
    hidden: usize,
    sequence: bool,
) -> LstmRun {
    let dirs: &[&str] = if bi {
        &["bi.fwd", "bi.bwd"]
    } else {
        &["bi.fwd"]
    };
    let mut g = Graph::new();
    let leaves: Vec<VarId> = xs.iter().map(|x| g.input(x.clone())).collect();
    let mut per_dir = Vec::new();
    for (d, dir) in dirs.iter().enumerate() {
        let w = g.param(params, params.id(&format!("{dir}.w")).expect("registered"));
        let b = g.param(params, params.id(&format!("{dir}.b")).expect("registered"));
        let mut seq: Vec<VarId> = leaves.clone();
        if d == 1 {
            seq.reverse();
        }
        let mut hs = if sequence {
            g.lstm(&seq, w, b, hidden)
        } else {
            primitive_lstm(&mut g, (w, b), &seq, hidden)
        };
        if d == 1 {
            hs.reverse();
        }
        per_dir.push(hs);
    }
    let outs: Vec<VarId> = (0..xs.len())
        .map(|t| match &per_dir[..] {
            [f, b] => g.hcat(f[t], b[t]),
            [f] => f[t],
            _ => unreachable!("one or two directions"),
        })
        .collect();
    let mut loss: Option<VarId> = None;
    let mut values = Vec::new();
    for (&h, up) in outs.iter().zip(ups) {
        values.push(g.value(h).clone());
        let Some(up) = up else { continue };
        let u = g.constant(up.clone());
        let hu = g.hadamard(h, u);
        let term = g.sum_all(hu);
        loss = Some(loss.map_or(term, |l| g.add(l, term)));
    }
    let loss = loss.expect("at least one loss term");
    let mut grads = crate::Gradients::default();
    let reached = g.backward_into(
        [(loss, Matrix::from_vec(1, 1, vec![1.0]))],
        &mut crate::Workspace::default(),
        &mut crate::Transposes::default(),
        &mut grads,
    );
    let inputs = reached.into_iter().map(|(_, m)| m).collect();
    let param_grads = params.ids().map(|p| grads.get(p).cloned()).collect();
    (values, inputs, param_grads)
}

fn assert_same_bits(a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The LSTM sequence node gives the bits of the primitive chain: the
    /// hidden states, the input leaves' gradients and the weight and bias
    /// gradients, over 1–40 steps at the two specialized widths (8, 16)
    /// and the generic one (5), one or two directions, input rows with a
    /// one-hot block and `±0.0` entries, upstream rows holding `±0.0`, and
    /// steps without an upstream row (so trailing steps get no gradient).
    #[test]
    fn lstm_sequence_matches_decomposed_chain_bitwise(
        steps in 1usize..=40,
        width in 0usize..3,
        bi in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let hidden = [5, 8, 16][width];
        let input = ONE_HOT + NUMERIC;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let _ = crate::BiLstm::new(&mut params, "bi", input, hidden, seed);
        let biases: Vec<ParamId> = params.ids().filter(|&id| params.name(id).ends_with(".b")).collect();
        for id in biases {
            for v in params.value_mut(id).data_mut() {
                *v += rng.random_range(-0.5f32..0.5);
            }
        }
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
        let out = if bi { 2 * hidden } else { hidden };
        let mut ups: Vec<Option<Matrix>> = (0..steps)
            .map(|_| {
                rng.random_bool(0.7).then(|| {
                    let row = (0..out).map(|_| signed_zero_or(&mut rng, 0.25)).collect();
                    Matrix::from_vec(1, out, row)
                })
            })
            .collect();
        if ups.iter().all(Option::is_none) {
            let t = rng.random_range(0..steps);
            ups[t] = Some(Matrix::full(1, out, -0.0));
        }
        let fused = lstm_case(&params, bi, &xs, &ups, hidden, true);
        let plain = lstm_case(&params, bi, &xs, &ups, hidden, false);
        for (a, b) in fused.0.iter().zip(&plain.0).chain(fused.1.iter().zip(&plain.1)) {
            assert_same_bits(a, b);
        }
        prop_assert_eq!(fused.1.len(), plain.1.len());
        for (a, b) in fused.2.iter().zip(&plain.2) {
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_same_bits(a, b);
            }
        }
    }
}

/// Tiny helper module so the closure type above can name the gradient type
/// without importing it at top level.
mod cadmc_grad {
    pub type G = crate::Gradients;
}
