//! Numeric gradient checking utilities for tests.

use crate::graph::Gradients;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};

/// Result of a gradient check for one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_err: f32,
    /// Largest relative difference (normalized by magnitude, floored at 1).
    pub max_rel_err: f32,
}

/// Compares analytic gradients against central finite differences.
///
/// `loss_fn` must rebuild the computation from scratch on each call (the
/// tape is eager, so re-running it with perturbed parameters re-evaluates
/// the whole function). Returns the worst-case report over all checked
/// parameters.
///
/// # Panics
///
/// Panics if `grads` lacks a gradient for one of `ids` — that usually means
/// the parameter never entered the graph.
pub fn check_gradients(
    params: &ParamSet,
    ids: &[ParamId],
    grads: &Gradients,
    mut loss_fn: impl FnMut(&ParamSet) -> f32,
    epsilon: f32,
) -> GradCheckReport {
    let mut report = GradCheckReport {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
    };
    let mut probe = params.clone();
    for &id in ids {
        let analytic = grads
            .get(id)
            .unwrap_or_else(|| panic!("no gradient for parameter {:?}", params.name(id)))
            .clone();
        let n = params.value(id).len();
        for i in 0..n {
            let orig = probe.value(id).data()[i];
            probe.value_mut(id).data_mut()[i] = orig + epsilon;
            let plus = loss_fn(&probe);
            probe.value_mut(id).data_mut()[i] = orig - epsilon;
            let minus = loss_fn(&probe);
            probe.value_mut(id).data_mut()[i] = orig;
            let numeric = (plus - minus) / (2.0 * epsilon);
            let a = analytic.data()[i];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1.0);
            report.max_abs_err = report.max_abs_err.max(abs);
            report.max_rel_err = report.max_rel_err.max(rel);
        }
    }
    report
}

/// Convenience: asserts gradients match numerically within `tol`.
///
/// # Panics
///
/// Panics (failing the test) if the relative error exceeds `tol`.
pub fn assert_gradients_close(
    params: &ParamSet,
    ids: &[ParamId],
    grads: &Gradients,
    loss_fn: impl FnMut(&ParamSet) -> f32,
    tol: f32,
) {
    let report = check_gradients(params, ids, grads, loss_fn, 1e-2);
    assert!(
        report.max_rel_err < tol,
        "gradient check failed: max_rel_err={} max_abs_err={} (tol {tol})",
        report.max_rel_err,
        report.max_abs_err
    );
}

/// Returns a `Matrix` of ones — convenient for seeding simple losses in
/// tests and examples.
pub fn ones(rows: usize, cols: usize) -> Matrix {
    Matrix::full(rows, cols, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvGeom, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gradcheck_dense_sigmoid_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamSet::new();
        let w1 = params.insert("w1", Matrix::xavier(3, 4, &mut rng));
        let b1 = params.insert("b1", Matrix::zeros(1, 4));
        let w2 = params.insert("w2", Matrix::xavier(4, 2, &mut rng));
        let x = Matrix::xavier(5, 3, &mut rng);
        let target = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
        ]);

        let run = |p: &ParamSet| -> (f32, Option<Gradients>) {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let w1v = g.param(p, p.id("w1").unwrap());
            let b1v = g.param(p, p.id("b1").unwrap());
            let w2v = g.param(p, p.id("w2").unwrap());
            let h0 = g.matmul(xv, w1v);
            let h1 = g.add_broadcast_row(h0, b1v);
            let h2 = g.sigmoid(h1);
            let logits = g.matmul(h2, w2v);
            let loss = g.softmax_cross_entropy(logits, target.clone());
            let v = g.value(loss).at(0, 0);
            (v, Some(g.backward(loss)))
        };
        let (_, grads) = run(&params);
        assert_gradients_close(&params, &[w1, b1, w2], &grads.unwrap(), |p| run(p).0, 2e-2);
    }

    #[test]
    fn gradcheck_conv_pipeline() {
        let mut rng = StdRng::seed_from_u64(2);
        let geom = ConvGeom {
            channels: 2,
            height: 4,
            width: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let out_ch = 3;
        let mut params = ParamSet::new();
        let w = params.insert(
            "w",
            Matrix::xavier(geom.channels * geom.kernel * geom.kernel, out_ch, &mut rng),
        );
        let x = Matrix::xavier(2, geom.input_len(), &mut rng);

        let run = |p: &ParamSet| -> (f32, Option<Gradients>) {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.param(p, p.id("w").unwrap());
            let cols = g.im2col(xv, geom);
            let y = g.matmul(cols, wv);
            let nchw = g.nhwc_to_nchw(y, 2, geom.out_h(), geom.out_w());
            let act = g.tanh(nchw);
            let pool_geom = ConvGeom {
                channels: out_ch,
                height: geom.out_h(),
                width: geom.out_w(),
                kernel: 2,
                stride: 2,
                pad: 0,
            };
            let pooled = g.max_pool(act, pool_geom);
            let loss = g.mean_all(pooled);
            let v = g.value(loss).at(0, 0);
            (v, Some(g.backward(loss)))
        };
        let (_, grads) = run(&params);
        assert_gradients_close(&params, &[w], &grads.unwrap(), |p| run(p).0, 2e-2);
    }

    #[test]
    fn gradcheck_pick_log_softmax() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ParamSet::new();
        let l = params.insert("l", Matrix::xavier(3, 5, &mut rng));
        let picks = vec![0usize, 3, 4];
        let adv = Matrix::from_rows(&[&[1.5], &[-0.5], &[2.0]]);

        let run = |p: &ParamSet| -> (f32, Option<Gradients>) {
            let mut g = Graph::new();
            let lv = g.param(p, p.id("l").unwrap());
            let lp = g.pick_log_softmax(lv, &picks);
            let advv = g.constant(adv.clone());
            let weighted = g.hadamard(lp, advv);
            let sum = g.sum_all(weighted);
            let loss = g.scale(sum, -1.0);
            let v = g.value(loss).at(0, 0);
            (v, Some(g.backward(loss)))
        };
        let (_, grads) = run(&params);
        assert_gradients_close(&params, &[l], &grads.unwrap(), |p| run(p).0, 2e-2);
    }
}
