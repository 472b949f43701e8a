//! # cadmc-autodiff
//!
//! Tape-based reverse-mode automatic differentiation over `f32` matrices,
//! purpose-built for the `cadmc` reproduction of *Context-Aware Deep Model
//! Compression for Edge Cloud Computing* (ICDCS 2020).
//!
//! Two consumers drive the op set:
//!
//! * the paper's **LSTM policy controllers** (partition + compression search)
//!   need dense algebra, gate activations, softmax policies and REINFORCE
//!   surrogate losses;
//! * the **small-CNN runtime** in `cadmc-nn` needs im2col convolution, max
//!   pooling and cross-entropy / distillation losses to actually train
//!   networks end to end.
//!
//! ## Example
//!
//! ```
//! use cadmc_autodiff::{Graph, Matrix, ParamSet, Sgd};
//!
//! // Fit y = 2x with one weight.
//! let mut params = ParamSet::new();
//! let w = params.insert("w", Matrix::from_rows(&[&[0.0]]));
//! let mut opt = Sgd::new(0.1);
//! for _ in 0..100 {
//!     let mut g = Graph::new();
//!     let x = g.constant(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
//!     let wv = g.param(&params, w);
//!     let pred = g.matmul(x, wv);
//!     let target = g.constant(Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]));
//!     let diff = g.sub(pred, target);
//!     let sq = g.square(diff);
//!     let loss = g.mean_all(sq);
//!     let grads = g.backward(loss);
//!     opt.step(&mut params, &grads);
//! }
//! assert!((params.value(w).at(0, 0) - 2.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gradcheck;
mod graph;
mod lstm;
mod matrix;
mod optim;
mod params;
mod proptests;

pub use graph::{ConvGeom, Gradients, Graph, Transposes, VarId, Workspace};
pub use lstm::{BiLstm, LstmCell};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use params::{ParamId, ParamSet};
