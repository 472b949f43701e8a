//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the single value type flowing through the autodiff
//! [`Graph`](crate::Graph). It is deliberately small: just enough linear
//! algebra for policy networks (LSTMs, softmax heads) and small CNNs
//! (im2col convolution), with shape checking on every operation.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use cadmc_autodiff::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})[", self.rows, self.cols)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", ..")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a 1×`n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Samples a matrix with entries uniform in `[-scale, scale]`.
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Samples a matrix using Xavier/Glorot uniform initialization,
    /// suitable for layers with `rows` inputs and `cols` outputs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let scale = (6.0 / (rows + cols) as f32).sqrt();
        Self::uniform(rows, cols, scale, rng)
    }

    /// Samples a matrix deterministically from a seed (Xavier scale).
    pub fn seeded_xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::xavier(rows, cols, &mut rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.add_product_into(other, 0, &mut out.data);
        out
    }

    /// Adds `self * other[offset .. offset + self.cols]` (a block of
    /// `other`'s rows) into the row-major `out`, in the loop order of
    /// [`matmul`]: ikj, ascending `k`, exact-zero `self` entries skipped.
    /// Into zeros this is [`matmul`]. A second call with the next row
    /// block continues each element's ascending-`k` sum, so `[x | h] * w`
    /// forms from `x` and `h` without concatenating them.
    ///
    /// # Panics
    ///
    /// Panics if the row block exceeds `other` or `out` is not
    /// `self.rows × other.cols`.
    ///
    /// [`matmul`]: Matrix::matmul
    pub(crate) fn add_product_into(&self, other: &Matrix, offset: usize, out: &mut [f32]) {
        assert!(
            offset + self.cols <= other.rows,
            "product row block {offset}..{} exceeds {} rows",
            offset + self.cols,
            other.rows
        );
        assert_eq!(out.len(), self.rows * other.cols, "product output size");
        let n = other.cols;
        if self.cols == 0 || n == 0 {
            return;
        }
        let block = &other.data[offset * n..(offset + self.cols) * n];
        // ikj loop order: streams over `other` rows for cache friendliness.
        for (lhs, dst) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.chunks_exact_mut(n))
        {
            for (&a, src) in lhs.iter().zip(block.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (d, &b) in dst.iter_mut().zip(src) {
                    *d += a * b;
                }
            }
        }
    }

    /// Matrix product `self * other^T` without materializing the
    /// transpose. Bit-identical to `self.matmul(&other.transpose())`:
    /// the loop structure and per-element accumulation order (ascending
    /// `k`, including the exact-zero skip) are the same.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let dst = &mut out.data[i * other.rows..(i + 1) * other.rows];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d += a * other.data[j * other.cols + k];
                }
            }
        }
        out
    }

    /// Matrix product `self^T * other` without materializing the
    /// transpose. Bit-identical to `self.transpose().matmul(other)` for
    /// the same reason as [`matmul_bt`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    ///
    /// [`matmul_bt`]: Matrix::matmul_bt
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for i in 0..self.cols {
            for k in 0..self.rows {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(orow) {
                    *d += a * b;
                }
            }
        }
        out
    }

    /// The transpose of rows `[lo, hi)`: a `cols × (hi − lo)` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix height.
    pub(crate) fn transpose_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows, "transpose_rows out of range");
        let height = hi - lo;
        let mut out = Matrix::zeros(self.cols, height);
        if height == 0 || self.cols == 0 {
            return out;
        }
        for (j, row) in self.data[lo * self.cols..hi * self.cols]
            .chunks_exact(self.cols)
            .enumerate()
        {
            for (d, &v) in out.data[j..].iter_mut().step_by(height).zip(row) {
                *d = v;
            }
        }
        out
    }

    /// Adds `self^T * other` into the row-major `acc` in place.
    /// Bit-identical to `acc.add_assign(&self.matmul_at(other))`: each
    /// output row is summed in `row` exactly as [`matmul_at`] sums it,
    /// then added. A one-row `self` (the LSTM case) skips the staging
    /// row: its product row is `0.0 + a·b`, or `0.0` for an exact-zero
    /// `a`, and exactly that is added in one pass over `acc` instead of
    /// three (clear, accumulate, add).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `acc` is not
    /// `self.cols × other.cols`.
    ///
    /// [`matmul_at`]: Matrix::matmul_at
    pub(crate) fn add_matmul_at_into(&self, other: &Matrix, acc: &mut [f32], row: &mut Vec<f32>) {
        assert_eq!(self.rows, other.rows, "add_matmul_at_into shape mismatch");
        assert_eq!(
            acc.len(),
            self.cols * other.cols,
            "add_matmul_at_into output size"
        );
        let n = other.cols;
        for i in 0..self.cols {
            let dst = &mut acc[i * n..(i + 1) * n];
            if self.rows == 1 {
                let a = self.data[i];
                if a == 0.0 {
                    for d in dst {
                        *d += 0.0;
                    }
                } else {
                    for (d, &b) in dst.iter_mut().zip(&other.data) {
                        *d += 0.0 + a * b;
                    }
                }
                continue;
            }
            row.clear();
            row.resize(n, 0.0);
            for k in 0..self.rows {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                for (d, &b) in row.iter_mut().zip(&other.data[k * n..(k + 1) * n]) {
                    *d += a * b;
                }
            }
            for (d, &r) in dst.iter_mut().zip(row.iter()) {
                *d += r;
            }
        }
    }

    /// Adds the column sums of `self` into the `1 × cols` row `acc`.
    /// Bit-identical to `acc.add_assign(&self.sum_rows())`: each column
    /// is summed in row order from `+0.0`, then added.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is not `1 × self.cols`.
    pub(crate) fn add_sum_rows_into(&self, acc: &mut Matrix) {
        assert_eq!(
            acc.shape(),
            (1, self.cols),
            "add_sum_rows_into output shape"
        );
        for (c, d) in acc.data.iter_mut().enumerate() {
            let mut s = 0.0;
            for r in 0..self.rows {
                s += self.data[r * self.cols + c];
            }
            *d += s;
        }
    }

    /// Consumes the matrix, returning its row-major storage for reuse.
    pub(crate) fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise binary map into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Elementwise unary map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&a| f(a)).collect(),
        )
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|a| a * s)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a 1×cols row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum over rows, producing a 1×cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertical concatenation (self on top of other).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Copies columns `[start, start+width)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix width.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        assert!(start + width <= self.cols, "slice_cols out of range");
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.data[r * width..(r + 1) * width]
                .copy_from_slice(&self.data[r * self.cols + start..r * self.cols + start + width]);
        }
        out
    }

    /// Copies rows `[start, start+height)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix height.
    pub fn slice_rows(&self, start: usize, height: usize) -> Matrix {
        assert!(start + height <= self.rows, "slice_rows out of range");
        Matrix::from_vec(
            height,
            self.cols,
            self.data[start * self.cols..(start + height) * self.cols].to_vec(),
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Mean over rows of each row's Shannon entropy (nats), the row read
    /// as a probability distribution whose entries at or below `1e-12`
    /// carry no mass. On a row-wise softmax this is the value of
    /// [`Graph::entropy_rows`](crate::Graph::entropy_rows).
    pub fn mean_row_entropy(&self) -> f32 {
        let mut total = 0.0f32;
        for &p in &self.data {
            if p > 1e-12 {
                total -= p * p.ln();
            }
        }
        total / self.rows as f32
    }

    /// Index of the largest element in row `r` (first on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Returns true if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::eye(3)), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn fused_transpose_products_are_bit_identical() {
        let a = Matrix::seeded_xavier(3, 5, 11);
        let b = Matrix::seeded_xavier(4, 5, 12);
        let fused = a.matmul_bt(&b);
        let reference = a.matmul(&b.transpose());
        assert_eq!(fused.shape(), (3, 4));
        for (x, y) in fused.data().iter().zip(reference.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        let c = Matrix::seeded_xavier(5, 3, 13);
        let d = Matrix::seeded_xavier(5, 4, 14);
        let fused = c.matmul_at(&d);
        let reference = c.transpose().matmul(&d);
        assert_eq!(fused.shape(), (3, 4));
        for (x, y) in fused.data().iter().zip(reference.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A matrix whose rows mix exact zeros, `-0.0` and small values, so
    /// the zero skips and signed-zero additions are exercised.
    fn with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::seeded_xavier(rows, cols, seed);
        for (e, v) in m.data_mut().iter_mut().enumerate() {
            match e % 5 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        m
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn products_by_row_block_match_full_products_bitwise() {
        let a = with_zeros(2, 6, 21);
        let b = Matrix::seeded_xavier(7, 6, 22);
        let full = a.matmul_bt(&b);
        for (lo, hi) in [(0, 7), (0, 3), (2, 6), (5, 7), (6, 7)] {
            let block = b.transpose_rows(lo, hi);
            assert_eq!(block, b.slice_rows(lo, hi - lo).transpose());
            assert_bits_eq(&a.matmul(&block), &full.slice_cols(lo, hi - lo));
        }
        // [x | h] * w from x and h, one row block of w at a time.
        let (x, h) = (with_zeros(3, 4, 23), with_zeros(3, 2, 24));
        let w = Matrix::seeded_xavier(6, 5, 25);
        let mut out = Matrix::zeros(3, 5);
        x.add_product_into(&w, 0, out.data_mut());
        h.add_product_into(&w, 4, out.data_mut());
        assert_bits_eq(&out, &x.hcat(&h).matmul(&w));
    }

    #[test]
    fn in_place_accumulations_match_add_assign_bitwise() {
        let mut row = Vec::new();
        for rows in [1, 3] {
            let a = with_zeros(rows, 5, 31);
            let g = with_zeros(rows, 4, 32);
            // Accumulators holding -0.0 tell `+= 0.0` from no add at all.
            for acc0 in [Matrix::full(5, 4, -0.0), Matrix::seeded_xavier(5, 4, 33)] {
                let mut expect = acc0.clone();
                expect.add_assign(&a.matmul_at(&g));
                let mut got = acc0.clone();
                a.add_matmul_at_into(&g, got.data_mut(), &mut row);
                assert_bits_eq(&got, &expect);
            }
            for acc0 in [Matrix::full(1, 4, -0.0), Matrix::seeded_xavier(1, 4, 34)] {
                let mut expect = acc0.clone();
                expect.add_assign(&g.sum_rows());
                let mut got = acc0.clone();
                g.add_sum_rows_into(&mut got);
                assert_bits_eq(&got, &expect);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let b = Matrix::row_vector(&[101.0, 102.0, 103.0]);
        let sa = a.softmax_rows();
        let sb = b.softmax_rows();
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn hcat_vcat_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert_eq!(a.hcat(&b).shape(), (2, 7));
        let c = Matrix::zeros(5, 3);
        assert_eq!(a.vcat(&c).shape(), (7, 3));
    }

    #[test]
    fn slice_cols_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let left = a.slice_cols(0, 2);
        let right = a.slice_cols(2, 2);
        assert_eq!(left.hcat(&right), a);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[9.0, 12.0]));
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let a = Matrix::zeros(2, 3);
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn argmax_row_first_on_ties() {
        let a = Matrix::row_vector(&[0.5, 0.9, 0.9, 0.1]);
        assert_eq!(a.argmax_row(0), 1);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn xavier_is_deterministic_per_seed() {
        let a = Matrix::seeded_xavier(4, 4, 7);
        let b = Matrix::seeded_xavier(4, 4, 7);
        let c = Matrix::seeded_xavier(4, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
