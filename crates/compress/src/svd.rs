//! Numeric singular value decomposition and low-rank factorization.
//!
//! Backs the paper's **F1 (SVD)** and **F2 (KSVD)** fully-connected layer
//! compressions (Table 2): an `m×n` weight matrix is replaced by `m×k` and
//! `k×n` factors with `k ≪ min(m, n)`; the KSVD variant additionally
//! sparsifies the factors.
//!
//! The implementation is a one-sided Jacobi SVD — slow but dependency-free
//! and accurate for the layer sizes the runtime trains.

use cadmc_autodiff::Matrix;

/// Full singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m×r` (column-orthonormal).
    pub u: Matrix,
    /// Singular values, descending, length `r = min(m, n)`.
    pub sigma: Vec<f32>,
    /// Right singular vectors transposed, `r×n` (row-orthonormal).
    pub vt: Matrix,
}

/// Computes the SVD of `a` by one-sided Jacobi rotations.
///
/// Accurate to roughly single-precision round-off for well-conditioned
/// matrices of the sizes used in this project (up to a few hundred rows or
/// columns).
pub fn svd(a: &Matrix) -> Svd {
    // Work on B = A if m >= n else B = A^T, then swap U/V at the end.
    let transposed = a.rows() < a.cols();
    let b = if transposed { a.transpose() } else { a.clone() };
    let (m, n) = b.shape();

    // Columns of `work` converge to U * Sigma; `v` accumulates rotations.
    let mut work = b;
    let mut v = Matrix::eye(n);
    let eps = 1e-10f64;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Compute the 2x2 Gram entries for columns p, q.
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let xp = work.at(i, p) as f64;
                    let xq = work.at(i, q) as f64;
                    app += xp * xp;
                    aqq += xq * xq;
                    apq += xp * xq;
                }
                off += apq.abs();
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation that zeroes the Gram off-diagonal.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let xp = work.at(i, p) as f64;
                    let xq = work.at(i, q) as f64;
                    *work.at_mut(i, p) = (c * xp - s * xq) as f32;
                    *work.at_mut(i, q) = (s * xp + c * xq) as f32;
                }
                for i in 0..n {
                    let vp = v.at(i, p) as f64;
                    let vq = v.at(i, q) as f64;
                    *v.at_mut(i, p) = (c * vp - s * vq) as f32;
                    *v.at_mut(i, q) = (s * vp + c * vq) as f32;
                }
            }
        }
        if off < 1e-12 {
            break;
        }
    }

    // Column norms are the singular values; normalize to get U.
    let mut sigma: Vec<f32> = (0..n)
        .map(|j| {
            (0..m)
                .map(|i| {
                    let x = work.at(i, j);
                    x * x
                })
                .sum::<f32>()
                .sqrt()
        })
        .collect();
    // Sort descending, permuting U and V columns identically.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));
    let mut u = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut sigma_sorted = vec![0.0f32; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        sigma_sorted[new_j] = sigma[old_j];
        let s = sigma[old_j];
        for i in 0..m {
            *u.at_mut(i, new_j) = if s > 1e-20 {
                work.at(i, old_j) / s
            } else {
                0.0
            };
        }
        for i in 0..n {
            *v_sorted.at_mut(i, new_j) = v.at(i, old_j);
        }
    }
    sigma = sigma_sorted;
    let vt = v_sorted.transpose();

    if transposed {
        // A^T = U Σ V^T  =>  A = V Σ U^T.
        Svd {
            u: vt.transpose(),
            sigma,
            vt: u.transpose(),
        }
    } else {
        Svd { u, sigma, vt }
    }
}

impl Svd {
    /// Reconstructs the (possibly truncated to `rank`) matrix.
    pub fn reconstruct(&self, rank: usize) -> Matrix {
        let r = rank.min(self.sigma.len());
        let (m, n) = (self.u.rows(), self.vt.cols());
        let mut out = Matrix::zeros(m, n);
        for k in 0..r {
            let s = self.sigma[k];
            for i in 0..m {
                let us = self.u.at(i, k) * s;
                if us == 0.0 {
                    continue;
                }
                for j in 0..n {
                    *out.at_mut(i, j) += us * self.vt.at(k, j);
                }
            }
        }
        out
    }
}

/// Rank-`k` factorization of `a` as `(P, Q)` with `P: m×k`, `Q: k×n` and
/// `P·Q ≈ a` — the two smaller FC weight matrices of technique F1.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn low_rank_factors(a: &Matrix, k: usize) -> (Matrix, Matrix) {
    assert!(k > 0, "rank must be positive");
    let dec = svd(a);
    let r = k.min(dec.sigma.len());
    let mut p = Matrix::zeros(a.rows(), r);
    let mut q = Matrix::zeros(r, a.cols());
    for j in 0..r {
        let s = dec.sigma[j].sqrt();
        for i in 0..a.rows() {
            *p.at_mut(i, j) = dec.u.at(i, j) * s;
        }
        for i in 0..a.cols() {
            *q.at_mut(j, i) = dec.vt.at(j, i) * s;
        }
    }
    (p, q)
}

/// Sparse low-rank factorization for technique F2 (KSVD): rank-`k` factors
/// whose entries below `threshold × max|entry|` are zeroed. Returns the
/// factors and the achieved density (fraction of non-zeros) in `(0, 1]`.
///
/// This is a pragmatic stand-in for full K-SVD dictionary learning: it
/// preserves the property the paper exploits — the same structural shape as
/// F1 with strictly fewer effective multiplications.
///
/// # Panics
///
/// Panics if `k == 0` or `threshold` is not in `[0, 1)`.
pub fn sparse_low_rank_factors(a: &Matrix, k: usize, threshold: f32) -> (Matrix, Matrix, f32) {
    assert!(
        (0.0..1.0).contains(&threshold),
        "threshold must be in [0,1)"
    );
    let (mut p, mut q) = low_rank_factors(a, k);
    let mut nnz = 0usize;
    let mut total = 0usize;
    for m in [&mut p, &mut q] {
        let cutoff = m.max_abs() * threshold;
        for v in m.data_mut() {
            if v.abs() < cutoff {
                *v = 0.0;
            } else {
                nnz += 1;
            }
        }
        total += m.len();
    }
    (p, q, nnz as f32 / total as f32)
}

/// Relative Frobenius reconstruction error `‖a − b‖_F / ‖a‖_F`.
pub fn relative_error(a: &Matrix, b: &Matrix) -> f32 {
    let denom = a.frobenius_norm().max(1e-12);
    a.sub(b).frobenius_norm() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(m, n, &mut rng)
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let a = random(8, 5, 1);
        let dec = svd(&a);
        let err = relative_error(&a, &dec.reconstruct(5));
        assert!(err < 1e-4, "reconstruction error {err}");
    }

    #[test]
    fn works_for_wide_matrices() {
        let a = random(4, 9, 2);
        let dec = svd(&a);
        let err = relative_error(&a, &dec.reconstruct(4));
        assert!(err < 1e-4, "reconstruction error {err}");
    }

    #[test]
    fn singular_values_descend_and_are_nonnegative() {
        let a = random(10, 6, 3);
        let dec = svd(&a);
        for pair in dec.sigma.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-6);
        }
        assert!(dec.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn singular_values_of_identity_are_ones() {
        let dec = svd(&Matrix::eye(4));
        for s in dec.sigma {
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        let a = random(12, 12, 4);
        let dec = svd(&a);
        let mut prev = f32::INFINITY;
        for k in 1..=12 {
            let err = relative_error(&a, &dec.reconstruct(k));
            assert!(err <= prev + 1e-5, "rank {k}: {err} > {prev}");
            prev = err;
        }
        assert!(prev < 1e-4);
    }

    #[test]
    fn low_rank_factors_multiply_to_approximation() {
        let a = random(10, 7, 5);
        let (p, q) = low_rank_factors(&a, 3);
        assert_eq!(p.shape(), (10, 3));
        assert_eq!(q.shape(), (3, 7));
        let dec = svd(&a);
        let best = dec.reconstruct(3);
        // P*Q should equal the optimal rank-3 approximation.
        assert!(relative_error(&best, &p.matmul(&q)) < 1e-4);
    }

    #[test]
    fn sparse_factors_reduce_density() {
        let a = random(16, 16, 6);
        let (p, q, density) = sparse_low_rank_factors(&a, 8, 0.2);
        assert!(density < 1.0);
        assert!(density > 0.0);
        // Still a usable approximation.
        let err = relative_error(&a, &p.matmul(&q));
        assert!(err < 1.0);
    }

    #[test]
    fn svd_of_rank_one_matrix() {
        // a = u v^T has exactly one nonzero singular value.
        let u = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let v = Matrix::from_rows(&[&[4.0, 5.0]]);
        let a = u.matmul(&v);
        let dec = svd(&a);
        assert!(dec.sigma[0] > 1.0);
        assert!(dec.sigma[1].abs() < 1e-5);
    }
}
