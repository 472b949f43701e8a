//! A runnable, trainable CNN runtime compiled from [`ModelSpec`]s.
//!
//! [`RuntimeModel::compile`] lowers a spec to primitive autodiff ops
//! (im2col convolution, depthwise convolution, max pooling, global average
//! pooling, fully-connected) including the composite blocks produced by the
//! compression rewrites (Fire modules, inverted residuals, residual blocks),
//! so compressed models remain *actually trainable* — the property the
//! paper relies on when it fine-tunes transformed models with knowledge
//! distillation.
//!
//! Batch-norm and dropout lower to identity: they carry no MACCs in the
//! paper's latency model and the tiny synthetic task does not need them.

use cadmc_autodiff::{ConvGeom, Graph, Matrix, ParamId, ParamSet, VarId};

use crate::layer::{LayerSpec, Shape, ShapeError};
use crate::model::ModelSpec;

/// Errors from lowering a [`ModelSpec`] to a runnable model.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Shape inference failed.
    Shape(ShapeError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Shape(e) => write!(f, "shape error while compiling: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ShapeError> for CompileError {
    fn from(e: ShapeError) -> Self {
        CompileError::Shape(e)
    }
}

#[derive(Debug, Clone)]
enum RtOp {
    Conv {
        geom: ConvGeom,
        w: ParamId,
        b: ParamId,
        relu: bool,
    },
    DwConv {
        geom: ConvGeom,
        w: ParamId,
        b: ParamId,
        relu: bool,
    },
    MaxPool {
        geom: ConvGeom,
    },
    GlobalAvgPool {
        pool: Matrix,
    },
    Fc {
        w: ParamId,
        b: ParamId,
        relu: bool,
    },
    /// Run `left` and `right` on the same input and concatenate channels.
    ChannelConcat {
        left: Vec<RtOp>,
        right: Vec<RtOp>,
    },
    /// Run `body`; add the (possibly projected) input back; ReLU.
    ResidualAdd {
        body: Vec<RtOp>,
        projection: Option<Box<RtOp>>,
    },
}

/// A compiled, trainable model instance.
///
/// # Examples
///
/// ```
/// use cadmc_nn::{runtime::RuntimeModel, zoo};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = RuntimeModel::compile(&zoo::tiny_cnn(), 42)?;
/// let data = cadmc_nn::dataset::synthetic(4, 0.05, 1);
/// let logits = model.forward(data.images());
/// assert_eq!(logits.shape(), (4, 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeModel {
    spec: ModelSpec,
    params: ParamSet,
    ops: Vec<RtOp>,
    classes: usize,
}

struct Compiler<'a> {
    params: &'a mut ParamSet,
    seed: u64,
    counter: usize,
}

impl Compiler<'_> {
    fn next_seed(&mut self) -> u64 {
        self.counter += 1;
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.counter as u64)
    }

    fn conv(
        &mut self,
        shape: Shape,
        kernel: usize,
        stride: usize,
        pad: usize,
        out_ch: usize,
        relu: bool,
    ) -> RtOp {
        let geom = ConvGeom {
            channels: shape.c,
            height: shape.h,
            width: shape.w,
            kernel,
            stride,
            pad,
        };
        let fan_in = shape.c * kernel * kernel;
        let name = format!("conv{}", self.counter);
        let seed = self.next_seed();
        let w = self.params.insert(
            format!("{name}.w"),
            Matrix::seeded_xavier(fan_in, out_ch, seed),
        );
        let b = self
            .params
            .insert(format!("{name}.b"), Matrix::zeros(1, out_ch));
        RtOp::Conv { geom, w, b, relu }
    }

    fn dwconv(
        &mut self,
        shape: Shape,
        kernel: usize,
        stride: usize,
        pad: usize,
        relu: bool,
    ) -> RtOp {
        let geom = ConvGeom {
            channels: shape.c,
            height: shape.h,
            width: shape.w,
            kernel,
            stride,
            pad,
        };
        let name = format!("dwconv{}", self.counter);
        let seed = self.next_seed();
        let w = self.params.insert(
            format!("{name}.w"),
            Matrix::seeded_xavier(kernel * kernel, shape.c, seed),
        );
        let b = self
            .params
            .insert(format!("{name}.b"), Matrix::zeros(1, shape.c));
        RtOp::DwConv { geom, w, b, relu }
    }

    fn fc(&mut self, in_features: usize, out_features: usize, relu: bool) -> RtOp {
        let name = format!("fc{}", self.counter);
        let seed = self.next_seed();
        let w = self.params.insert(
            format!("{name}.w"),
            Matrix::seeded_xavier(in_features, out_features, seed),
        );
        let b = self
            .params
            .insert(format!("{name}.b"), Matrix::zeros(1, out_features));
        RtOp::Fc { w, b, relu }
    }

    /// Lowers one spec layer at `shape`; `relu` applies to its output.
    fn lower(
        &mut self,
        layer: &LayerSpec,
        shape: Shape,
        relu: bool,
    ) -> Result<Vec<RtOp>, CompileError> {
        Ok(match *layer {
            LayerSpec::Conv2d {
                kernel,
                stride,
                pad,
                out_channels,
            } => vec![self.conv(shape, kernel, stride, pad, out_channels, relu)],
            LayerSpec::DepthwiseConv2d {
                kernel,
                stride,
                pad,
            } => {
                vec![self.dwconv(shape, kernel, stride, pad, relu)]
            }
            LayerSpec::MaxPool2d { kernel, stride } => vec![RtOp::MaxPool {
                geom: ConvGeom {
                    channels: shape.c,
                    height: shape.h,
                    width: shape.w,
                    kernel,
                    stride,
                    pad: 0,
                },
            }],
            LayerSpec::GlobalAvgPool => {
                let hw = shape.h * shape.w;
                let mut pool = Matrix::zeros(shape.len(), shape.c);
                for c in 0..shape.c {
                    for i in 0..hw {
                        *pool.at_mut(c * hw + i, c) = 1.0 / hw as f32;
                    }
                }
                vec![RtOp::GlobalAvgPool { pool }]
            }
            LayerSpec::Flatten | LayerSpec::BatchNorm | LayerSpec::Dropout => vec![],
            LayerSpec::Fc { out_features } => vec![self.fc(shape.len(), out_features, relu)],
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let sq = self.conv(shape, 1, 1, 0, squeeze, true);
                let mid = LayerSpec::conv(1, 1, 0, squeeze).output_shape(shape)?;
                let e1 = self.conv(mid, 1, 1, 0, expand1, relu);
                let e3 = self.conv(mid, 3, 1, 1, expand3, relu);
                vec![
                    sq,
                    RtOp::ChannelConcat {
                        left: vec![e1],
                        right: vec![e3],
                    },
                ]
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => {
                let hidden = shape.c * expansion;
                let expand = self.conv(shape, 1, 1, 0, hidden, true);
                let mid = LayerSpec::conv(1, 1, 0, hidden).output_shape(shape)?;
                let dw = self.dwconv(mid, 3, stride, 1, true);
                let dw_out = LayerSpec::DepthwiseConv2d {
                    kernel: 3,
                    stride,
                    pad: 1,
                }
                .output_shape(mid)?;
                let project = self.conv(dw_out, 1, 1, 0, out_channels, false);
                let body = vec![expand, dw, project];
                if stride == 1 && out_channels == shape.c {
                    vec![RtOp::ResidualAdd {
                        body,
                        projection: None,
                    }]
                } else {
                    body
                }
            }
            LayerSpec::Residual {
                ref body,
                projection,
            } => {
                let mut ops = Vec::new();
                let mut s = shape;
                for (i, l) in body.iter().enumerate() {
                    // Last body layer is linear; the ReLU comes after the add.
                    let inner_relu = i + 1 < body.len();
                    ops.extend(self.lower(l, s, inner_relu)?);
                    s = l.output_shape(s)?;
                }
                let proj = projection
                    .map(|(out_c, stride)| Box::new(self.conv(shape, 1, stride, 0, out_c, false)));
                vec![RtOp::ResidualAdd {
                    body: ops,
                    projection: proj,
                }]
            }
        })
    }
}

impl RuntimeModel {
    /// Compiles `spec` with parameters initialized deterministically from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if shape inference fails inside a composite
    /// block (a valid `ModelSpec` otherwise always compiles).
    pub fn compile(spec: &ModelSpec, seed: u64) -> Result<Self, CompileError> {
        let mut params = ParamSet::new();
        let mut compiler = Compiler {
            params: &mut params,
            seed,
            counter: 0,
        };
        // The final weighted layer produces logits (no ReLU).
        let last_weighted = spec
            .layers()
            .iter()
            .rposition(LayerSpec::is_weighted)
            .unwrap_or(usize::MAX);
        let mut ops = Vec::new();
        for (i, layer) in spec.layers().iter().enumerate() {
            let relu = i != last_weighted;
            ops.extend(compiler.lower(layer, spec.layer_input(i), relu)?);
        }
        let classes = spec.output_shape().len();
        Ok(Self {
            spec: spec.clone(),
            params,
            ops,
            classes,
        })
    }

    /// The spec this model was compiled from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The trainable parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the trainable parameters (used by optimizers).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Builds the forward computation inside an existing graph; returns the
    /// logits node. `x` must be an `(N, C*H*W)` batch matching the spec's
    /// input shape.
    pub fn forward_graph(&self, g: &mut Graph, x: VarId) -> VarId {
        let batch = g.value(x).rows();
        run_ops(&self.ops, g, &self.params, x, batch)
    }

    /// Convenience forward pass: returns logits for a batch.
    ///
    /// # Panics
    ///
    /// Panics if `images` width does not match the input shape.
    pub fn forward(&self, images: &Matrix) -> Matrix {
        assert_eq!(
            images.cols(),
            self.spec.input_shape().len(),
            "input width mismatch"
        );
        let mut g = Graph::new();
        let x = g.constant(images.clone());
        let logits = self.forward_graph(&mut g, x);
        g.value(logits).clone()
    }

    /// Predicted class per row of `images`.
    pub fn predict(&self, images: &Matrix) -> Vec<usize> {
        let logits = self.forward(images);
        (0..logits.rows()).map(|r| logits.argmax_row(r)).collect()
    }

    /// Top-1 accuracy on a labelled set, in `[0, 1]`.
    pub fn accuracy(&self, images: &Matrix, labels: &[usize]) -> f32 {
        assert_eq!(images.rows(), labels.len(), "label count mismatch");
        if labels.is_empty() {
            return 0.0;
        }
        let preds = self.predict(images);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f32 / labels.len() as f32
    }
}

fn run_ops(ops: &[RtOp], g: &mut Graph, params: &ParamSet, mut x: VarId, batch: usize) -> VarId {
    for op in ops {
        x = run_op(op, g, params, x, batch);
    }
    x
}

fn run_op(op: &RtOp, g: &mut Graph, params: &ParamSet, x: VarId, batch: usize) -> VarId {
    match op {
        RtOp::Conv { geom, w, b, relu } => {
            let cols = g.im2col(x, *geom);
            let wv = g.param(params, *w);
            let bv = g.param(params, *b);
            let y = g.matmul(cols, wv);
            let y = g.add_broadcast_row(y, bv);
            let y = g.nhwc_to_nchw(y, batch, geom.out_h(), geom.out_w());
            if *relu {
                g.relu(y)
            } else {
                y
            }
        }
        RtOp::DwConv { geom, w, b, relu } => {
            let hw = geom.height * geom.width;
            let chan_geom = ConvGeom {
                channels: 1,
                ..*geom
            };
            let wv = g.param(params, *w);
            let mut cat: Option<VarId> = None;
            for c in 0..geom.channels {
                let xc = g.slice_cols(x, c * hw, hw);
                let cols = g.im2col(xc, chan_geom);
                let wc = g.slice_cols(wv, c, 1);
                let yc = g.matmul(cols, wc);
                cat = Some(match cat {
                    Some(acc) => g.hcat(acc, yc),
                    None => yc,
                });
            }
            let y = cat.expect("depthwise conv needs at least one channel");
            let bv = g.param(params, *b);
            let y = g.add_broadcast_row(y, bv);
            let y = g.nhwc_to_nchw(y, batch, geom.out_h(), geom.out_w());
            if *relu {
                g.relu(y)
            } else {
                y
            }
        }
        RtOp::MaxPool { geom } => g.max_pool(x, *geom),
        RtOp::GlobalAvgPool { pool } => {
            let m = g.constant(pool.clone());
            g.matmul(x, m)
        }
        RtOp::Fc { w, b, relu } => {
            let wv = g.param(params, *w);
            let bv = g.param(params, *b);
            let y = g.matmul(x, wv);
            let y = g.add_broadcast_row(y, bv);
            if *relu {
                g.relu(y)
            } else {
                y
            }
        }
        RtOp::ChannelConcat { left, right } => {
            let l = run_ops(left, g, params, x, batch);
            let r = run_ops(right, g, params, x, batch);
            // NCHW channel concat is a plain horizontal concat of rows.
            g.hcat(l, r)
        }
        RtOp::ResidualAdd { body, projection } => {
            let y = run_ops(body, g, params, x, batch);
            let skip = match projection {
                Some(p) => run_op(p, g, params, x, batch),
                None => x,
            };
            let sum = g.add(y, skip);
            g.relu(sum)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn tiny_cnn_forward_shapes() {
        let model = RuntimeModel::compile(&zoo::tiny_cnn(), 1).unwrap();
        let data = crate::dataset::synthetic(6, 0.05, 2);
        let logits = model.forward(data.images());
        assert_eq!(logits.shape(), (6, 10));
        assert!(!logits.has_non_finite());
    }

    #[test]
    fn compile_is_deterministic() {
        let a = RuntimeModel::compile(&zoo::tiny_cnn(), 9).unwrap();
        let b = RuntimeModel::compile(&zoo::tiny_cnn(), 9).unwrap();
        let data = crate::dataset::synthetic(3, 0.05, 2);
        assert_eq!(a.forward(data.images()), b.forward(data.images()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = RuntimeModel::compile(&zoo::tiny_cnn(), 1).unwrap();
        let b = RuntimeModel::compile(&zoo::tiny_cnn(), 2).unwrap();
        let data = crate::dataset::synthetic(3, 0.05, 2);
        assert_ne!(a.forward(data.images()), b.forward(data.images()));
    }

    #[test]
    fn composite_blocks_compile_and_run() {
        use crate::layer::LayerSpec;
        use crate::layer::Shape;
        let spec = ModelSpec::new(
            "composite",
            Shape::new(3, 12, 12),
            vec![
                LayerSpec::conv(3, 1, 1, 8),
                LayerSpec::Fire {
                    squeeze: 4,
                    expand1: 8,
                    expand3: 8,
                },
                LayerSpec::max_pool(2, 2),
                LayerSpec::InvertedResidual {
                    expansion: 2,
                    stride: 1,
                    out_channels: 16,
                },
                LayerSpec::Residual {
                    body: vec![LayerSpec::conv(3, 1, 1, 16), LayerSpec::conv(3, 1, 1, 16)],
                    projection: None,
                },
                LayerSpec::GlobalAvgPool,
                LayerSpec::Flatten,
                LayerSpec::fc(10),
            ],
        )
        .unwrap();
        let model = RuntimeModel::compile(&spec, 3).unwrap();
        let data = crate::dataset::synthetic(2, 0.05, 2);
        let logits = model.forward(data.images());
        assert_eq!(logits.shape(), (2, 10));
        assert!(!logits.has_non_finite());
    }

    #[test]
    fn depthwise_conv_runs() {
        use crate::layer::{LayerSpec, Shape};
        let spec = ModelSpec::new(
            "dw",
            Shape::new(3, 8, 8),
            vec![
                LayerSpec::DepthwiseConv2d {
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::conv(1, 1, 0, 4),
                LayerSpec::GlobalAvgPool,
                LayerSpec::Flatten,
                LayerSpec::fc(10),
            ],
        )
        .unwrap();
        let model = RuntimeModel::compile(&spec, 3).unwrap();
        let x = Matrix::full(2, 3 * 8 * 8, 0.5);
        let logits = model.forward(&x);
        assert_eq!(logits.shape(), (2, 10));
    }

    #[test]
    fn accuracy_of_untrained_model_is_chancey() {
        let model = RuntimeModel::compile(&zoo::tiny_cnn(), 5).unwrap();
        let data = crate::dataset::synthetic(100, 0.05, 2);
        let acc = model.accuracy(data.images(), data.labels());
        assert!(acc < 0.5, "untrained accuracy suspiciously high: {acc}");
    }
}
