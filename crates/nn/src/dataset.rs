//! Synthetic image-classification data.
//!
//! The paper trains on CIFAR10, which we cannot (no GPU training stack —
//! see DESIGN.md). This module generates a deterministic 10-class dataset
//! of small RGB images with parametric class structure (stripes, disks,
//! checkerboards, …) plus Gaussian noise, so that the in-repo CNN runtime
//! can demonstrably *learn* — real gradients, real generalization — at
//! laptop scale.

use cadmc_autodiff::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layer::Shape;

/// Number of classes in the synthetic task (matching CIFAR10's 10).
pub const NUM_CLASSES: usize = 10;

/// An in-memory labelled image set.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Matrix,
    labels: Vec<usize>,
    shape: Shape,
}

impl Dataset {
    /// Wraps raw data.
    ///
    /// # Panics
    ///
    /// Panics if row count and label count disagree, or the image width
    /// does not match `shape`.
    pub fn new(images: Matrix, labels: Vec<usize>, shape: Shape) -> Self {
        assert_eq!(images.rows(), labels.len(), "one label per image required");
        assert_eq!(images.cols(), shape.len(), "image width must match shape");
        Self {
            images,
            labels,
            shape,
        }
    }

    /// The images as an `(N, C*H*W)` matrix (NCHW element order per row).
    pub fn images(&self) -> &Matrix {
        &self.images
    }

    /// Ground-truth labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-image shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copies examples `[start, start+count)` as a minibatch.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dataset.
    pub fn batch(&self, start: usize, count: usize) -> (Matrix, &[usize]) {
        assert!(start + count <= self.len(), "batch out of range");
        (
            self.images.slice_rows(start, count),
            &self.labels[start..start + count],
        )
    }

    /// One-hot label matrix for examples `[start, start+count)`.
    pub fn one_hot(&self, start: usize, count: usize) -> Matrix {
        let mut out = Matrix::zeros(count, NUM_CLASSES);
        for (r, &l) in self.labels[start..start + count].iter().enumerate() {
            *out.at_mut(r, l) = 1.0;
        }
        out
    }

    /// Splits into `(first_n, rest)` by index.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn split(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split point out of range");
        let a = Dataset::new(
            self.images.slice_rows(0, n),
            self.labels[..n].to_vec(),
            self.shape,
        );
        let b = Dataset::new(
            self.images.slice_rows(n, self.len() - n),
            self.labels[n..].to_vec(),
            self.shape,
        );
        (a, b)
    }
}

/// Generates `n` examples of the synthetic task with noise level `sigma`,
/// deterministically from `seed`. Classes are balanced round-robin and the
/// order is shuffled.
pub fn synthetic(n: usize, sigma: f32, seed: u64) -> Dataset {
    let shape = Shape::new(3, 12, 12);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Matrix::zeros(n, shape.len());
    let mut labels = Vec::with_capacity(n);
    // Shuffled class order.
    let mut order: Vec<usize> = (0..n).map(|i| i % NUM_CLASSES).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    for (row, &class) in order.iter().enumerate() {
        let img = render_class(class, shape, &mut rng, sigma);
        images.data_mut()[row * shape.len()..(row + 1) * shape.len()].copy_from_slice(&img);
        labels.push(class);
    }
    Dataset::new(images, labels, shape)
}

/// Renders a single image of `class` (NCHW order) with per-class structure
/// and channel signature, plus Gaussian-ish noise.
fn render_class(class: usize, shape: Shape, rng: &mut StdRng, sigma: f32) -> Vec<f32> {
    let (h, w) = (shape.h, shape.w);
    let mut img = vec![0.0f32; shape.len()];
    // Channel signature: each class tints a different channel mix.
    let tint = [
        f32::from(u8::from(class.is_multiple_of(3))) * 0.4 + 0.3,
        f32::from(u8::from(class % 3 == 1)) * 0.4 + 0.3,
        f32::from(u8::from(class % 3 == 2)) * 0.4 + 0.3,
    ];
    let phase = rng.random_range(0..3) as usize;
    for y in 0..h {
        for x in 0..w {
            let fy = y as f32 / (h - 1) as f32;
            let fx = x as f32 / (w - 1) as f32;
            let cy = fy - 0.5;
            let cx = fx - 0.5;
            let r2 = cx * cx + cy * cy;
            let base = match class {
                0 => ((y + phase) / 2 % 2) as f32, // horizontal stripes
                1 => ((x + phase) / 2 % 2) as f32, // vertical stripes
                2 => (((x + phase) / 2 + (y + phase) / 2) % 2) as f32, // checkerboard
                3 => f32::from(r2 < 0.09),         // disk
                4 => f32::from(cx.abs() < 0.12 || cy.abs() < 0.12), // cross
                5 => f32::from((fx - fy).abs() < 0.18), // main diagonal
                6 => f32::from(r2 > 0.16),         // corners
                7 => f32::from((0.05..0.14).contains(&r2)), // ring
                8 => fx,                           // gradient
                _ => 0.6,                          // solid
            };
            for c in 0..3 {
                let noise: f32 = approx_gauss(rng) * sigma;
                img[(c * h + y) * w + x] = (base * tint[c] + noise).clamp(-1.0, 2.0);
            }
        }
    }
    img
}

/// Cheap approximately-Gaussian sample (Irwin–Hall with 4 uniforms).
fn approx_gauss(rng: &mut StdRng) -> f32 {
    let s: f32 = (0..4).map(|_| rng.random_range(-0.5..0.5)).sum();
    s * (12.0f32 / 4.0).sqrt() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic(40, 0.1, 3);
        let b = synthetic(40, 0.1, 3);
        assert_eq!(a.images(), b.images());
        assert_eq!(a.labels(), b.labels());
        let c = synthetic(40, 0.1, 4);
        assert_ne!(a.images(), c.images());
    }

    #[test]
    fn classes_are_balanced() {
        let d = synthetic(100, 0.05, 1);
        let mut counts = [0usize; NUM_CLASSES];
        for &l in d.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn batches_and_one_hot() {
        let d = synthetic(30, 0.05, 1);
        let (imgs, labels) = d.batch(10, 5);
        assert_eq!(imgs.rows(), 5);
        assert_eq!(labels.len(), 5);
        let oh = d.one_hot(10, 5);
        for (r, &label) in labels.iter().enumerate() {
            let sum: f32 = oh.row(r).iter().sum();
            assert_eq!(sum, 1.0);
            assert_eq!(oh.at(r, label), 1.0);
        }
    }

    #[test]
    fn split_preserves_total() {
        let d = synthetic(50, 0.05, 1);
        let (a, b) = d.split(30);
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 20);
        assert_eq!(a.shape(), d.shape());
    }

    #[test]
    fn class_means_are_distinct() {
        // Sanity: the rendered classes are actually distinguishable.
        let d = synthetic(200, 0.02, 7);
        let len = d.shape().len();
        let mut means = vec![vec![0.0f32; len]; NUM_CLASSES];
        let mut counts = vec![0usize; NUM_CLASSES];
        for i in 0..d.len() {
            let l = d.labels()[i];
            counts[l] += 1;
            for (m, &v) in means[l].iter_mut().zip(d.images().row(i)) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        // Every pair of class means should differ noticeably in L2.
        for a in 0..NUM_CLASSES {
            for b in a + 1..NUM_CLASSES {
                let d2: f32 = means[a]
                    .iter()
                    .zip(&means[b])
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                assert!(
                    d2.sqrt() > 0.5,
                    "classes {a} and {b} too similar: {}",
                    d2.sqrt()
                );
            }
        }
    }
}
