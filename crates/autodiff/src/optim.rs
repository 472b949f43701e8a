//! Gradient-descent optimizers over [`ParamSet`]s.

use crate::graph::Gradients;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};

/// Per-parameter optimizer state, indexed by [`ParamId`] and created
/// (zeroed, shaped like the gradient) on a parameter's first update.
fn state_for<T>(state: &mut Vec<Option<T>>, id: ParamId, init: impl FnOnce() -> T) -> &mut T {
    if state.len() <= id.index() {
        state.resize_with(id.index() + 1, || None);
    }
    state[id.index()].get_or_insert_with(init)
}

/// Stochastic gradient descent with optional momentum.
///
/// # Examples
///
/// ```
/// use cadmc_autodiff::{Graph, Matrix, ParamSet, Sgd};
///
/// let mut params = ParamSet::new();
/// let w = params.insert("w", Matrix::from_rows(&[&[4.0]]));
/// let mut opt = Sgd::new(0.1);
/// // Minimize w^2 for a few steps.
/// for _ in 0..50 {
///     let mut g = Graph::new();
///     let wv = g.param(&params, w);
///     let sq = g.square(wv);
///     let loss = g.sum_all(sq);
///     let grads = g.backward(loss);
///     opt.step(&mut params, &grads);
/// }
/// assert!(params.value(w).at(0, 0).abs() < 0.01);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Option<Matrix>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum coefficient `momentum` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite or `momentum` is outside
    /// `[0, 1)`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step.
    pub fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
        for (id, g) in grads.iter() {
            let v = state_for(&mut self.velocity, id, || Matrix::zeros(g.rows(), g.cols()));
            // v = momentum * v + g; w -= lr * v
            for (vi, &gi) in v.data_mut().iter_mut().zip(g.data()) {
                *vi = self.momentum * *vi + gi;
            }
            let w = params.value_mut(id);
            for (wi, &vi) in w.data_mut().iter_mut().zip(v.data()) {
                *wi -= self.lr * vi;
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First and second moment estimates per parameter.
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl Adam {
    /// Adam with the conventional defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step.
    pub fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        for (id, g) in grads.iter() {
            let (m, v) = state_for(&mut self.moments, id, || {
                (
                    Matrix::zeros(g.rows(), g.cols()),
                    Matrix::zeros(g.rows(), g.cols()),
                )
            });
            let w = params.value_mut(id);
            // One pass per element: moments, then the bias-corrected step
            // (the same operations, per element, as two separate passes).
            for (((wi, mi), vi), &gi) in w
                .data_mut()
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(g.data())
            {
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                let mhat = *mi / b1t;
                let vhat = *vi / b2t;
                *wi -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quadratic_loss(params: &ParamSet, w: ParamId) -> (f32, Gradients) {
        let mut g = Graph::new();
        let wv = g.param(params, w);
        let sq = g.square(wv);
        let loss = g.sum_all(sq);
        let value = g.value(loss).at(0, 0);
        (value, g.backward(loss))
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::from_rows(&[&[5.0, -3.0]]));
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let (loss, grads) = quadratic_loss(&params, w);
            opt.step(&mut params, &grads);
            last = loss;
        }
        assert!(last < 1e-4, "did not converge: {last}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::from_rows(&[&[5.0, -3.0]]));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let (_, grads) = quadratic_loss(&params, w);
            opt.step(&mut params, &grads);
        }
        assert!(params.value(w).max_abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn negative_lr_rejected() {
        let _ = Sgd::new(-1.0);
    }
}
