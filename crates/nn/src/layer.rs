//! Layer specifications and per-layer cost accounting.
//!
//! The paper expresses a DNN layer as the hyper-parameter tuple
//! `x_i = (l, k, s, p, n)` — layer type, kernel size, stride, padding and
//! output channels (Eq. 1) — and estimates computational cost from the
//! number of multiply-accumulate operations (MACCs): Eq. 4 for convolutions
//! and Eq. 5 for fully-connected layers, with batch-norm / pooling / dropout
//! treated as free. [`LayerSpec`] mirrors that model exactly, while also
//! carrying enough structure (composite residual / fire / inverted-residual
//! blocks) to describe the model zoo and the compression rewrites.

use serde::{Deserialize, Serialize};

/// The spatial/channel shape of a feature map flowing between layers.
///
/// Fully-connected features are represented with `h == w == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Channels (or features for FC layers).
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape {
    /// Convenience constructor.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// A flat feature vector of `n` features.
    pub fn features(n: usize) -> Self {
        Self { c: n, h: 1, w: 1 }
    }

    /// Total number of scalar elements.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether the shape is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes when transferred as `f32` features (the paper sends
    /// intermediate features to the cloud as 4-byte floats).
    pub fn transfer_bytes(&self) -> u64 {
        self.len() as u64 * 4
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Errors from shape inference over layer sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// Kernel does not fit the (padded) input.
    KernelTooLarge {
        /// The offending layer's display name.
        layer: String,
        /// Input shape that was too small.
        input: Shape,
    },
    /// A layer that requires flat features received a spatial input.
    ExpectedFlat {
        /// The offending layer's display name.
        layer: String,
        /// The spatial input shape.
        input: Shape,
    },
    /// Residual body output shape does not match its input (and no
    /// downsample projection was provided).
    ResidualMismatch {
        /// Shape entering the residual block.
        input: Shape,
        /// Shape produced by the body.
        body: Shape,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::KernelTooLarge { layer, input } => {
                write!(f, "kernel of {layer} does not fit input {input}")
            }
            ShapeError::ExpectedFlat { layer, input } => {
                write!(f, "{layer} expects flat features, got {input}")
            }
            ShapeError::ResidualMismatch { input, body } => {
                write!(
                    f,
                    "residual body output {body} does not match input {input}"
                )
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// A single layer (or composite block) of a DNN.
///
/// Cheap layers (pooling, batch-norm, dropout, activations) carry zero MACC
/// cost, matching the paper's estimation model. Activations are implicit:
/// conv/FC layers in this codebase are assumed ReLU-activated except the
/// final classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Standard 2-D convolution with square kernel.
    Conv2d {
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Output channels.
        out_channels: usize,
    },
    /// Depthwise convolution (one filter per input channel).
    DepthwiseConv2d {
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Max pooling (zero MACC cost).
    MaxPool2d {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling: collapses spatial dims to 1×1 (zero cost).
    GlobalAvgPool,
    /// Flatten a spatial map into a feature vector (zero cost).
    Flatten,
    /// Fully-connected layer.
    Fc {
        /// Output features.
        out_features: usize,
    },
    /// Batch normalization (zero cost in the latency model).
    BatchNorm,
    /// Dropout (zero cost; inference no-op).
    Dropout,
    /// SqueezeNet *Fire* module: 1×1 squeeze then parallel 1×1 and 3×3
    /// expands whose outputs concatenate along channels.
    Fire {
        /// Squeeze 1×1 output channels.
        squeeze: usize,
        /// Expand 1×1 output channels.
        expand1: usize,
        /// Expand 3×3 output channels.
        expand3: usize,
    },
    /// MobileNetV2 inverted-residual block: 1×1 expand, 3×3 depthwise,
    /// 1×1 project, with a skip connection when shapes allow.
    InvertedResidual {
        /// Channel expansion factor applied to the input channels.
        expansion: usize,
        /// Stride of the depthwise stage.
        stride: usize,
        /// Output channels of the projection.
        out_channels: usize,
    },
    /// Generic residual block: a body of layers whose output is added back
    /// to the block input, with an optional 1×1 projection on the skip path.
    Residual {
        /// The residual body.
        body: Vec<LayerSpec>,
        /// Optional projection conv `(kernel=1)` output channels + stride
        /// for the skip path when the body changes shape.
        projection: Option<(usize, usize)>,
    },
}

impl LayerSpec {
    /// Standard conv constructor.
    pub fn conv(kernel: usize, stride: usize, pad: usize, out_channels: usize) -> Self {
        LayerSpec::Conv2d {
            kernel,
            stride,
            pad,
            out_channels,
        }
    }

    /// Fully-connected constructor.
    pub fn fc(out_features: usize) -> Self {
        LayerSpec::Fc { out_features }
    }

    /// Max-pool constructor.
    pub fn max_pool(kernel: usize, stride: usize) -> Self {
        LayerSpec::MaxPool2d { kernel, stride }
    }

    /// Short human/RL-readable type name (the `l` of Eq. 1).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerSpec::Conv2d { .. } => "Conv",
            LayerSpec::DepthwiseConv2d { .. } => "DWConv",
            LayerSpec::MaxPool2d { .. } => "MaxPool",
            LayerSpec::GlobalAvgPool => "GAP",
            LayerSpec::Flatten => "Flatten",
            LayerSpec::Fc { .. } => "FC",
            LayerSpec::BatchNorm => "BN",
            LayerSpec::Dropout => "Dropout",
            LayerSpec::Fire { .. } => "Fire",
            LayerSpec::InvertedResidual { .. } => "InvRes",
            LayerSpec::Residual { .. } => "Residual",
        }
    }

    /// Numeric id of the layer type, used by controller embeddings.
    pub fn kind_id(&self) -> usize {
        match self {
            LayerSpec::Conv2d { .. } => 0,
            LayerSpec::DepthwiseConv2d { .. } => 1,
            LayerSpec::MaxPool2d { .. } => 2,
            LayerSpec::GlobalAvgPool => 3,
            LayerSpec::Flatten => 4,
            LayerSpec::Fc { .. } => 5,
            LayerSpec::BatchNorm => 6,
            LayerSpec::Dropout => 7,
            LayerSpec::Fire { .. } => 8,
            LayerSpec::InvertedResidual { .. } => 9,
            LayerSpec::Residual { .. } => 10,
        }
    }

    /// Number of distinct [`LayerSpec::kind_id`] values.
    pub const NUM_KINDS: usize = 11;

    /// The paper's Eq. 1 tuple `(l, k, s, p, n)` with zeros for fields a
    /// layer does not have. Composite blocks report their dominant conv.
    pub fn hyperparams(&self) -> (usize, usize, usize, usize, usize) {
        match *self {
            LayerSpec::Conv2d {
                kernel,
                stride,
                pad,
                out_channels,
            } => (self.kind_id(), kernel, stride, pad, out_channels),
            LayerSpec::DepthwiseConv2d {
                kernel,
                stride,
                pad,
            } => (self.kind_id(), kernel, stride, pad, 0),
            LayerSpec::MaxPool2d { kernel, stride } => (self.kind_id(), kernel, stride, 0, 0),
            LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::BatchNorm
            | LayerSpec::Dropout => (self.kind_id(), 0, 0, 0, 0),
            LayerSpec::Fc { out_features } => (self.kind_id(), 0, 0, 0, out_features),
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let _ = squeeze;
                (self.kind_id(), 3, 1, 1, expand1 + expand3)
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => (
                self.kind_id(),
                3,
                stride,
                1,
                out_channels * expansion / expansion.max(1),
            ),
            LayerSpec::Residual { ref body, .. } => {
                // Report the first conv in the body as the representative.
                for l in body {
                    if let LayerSpec::Conv2d { .. } = l {
                        let (_, k, s, p, n) = l.hyperparams();
                        return (self.kind_id(), k, s, p, n);
                    }
                }
                (self.kind_id(), 0, 0, 0, 0)
            }
        }
    }

    /// Encodes the layer as the string form the paper uses for MDP states,
    /// e.g. `"Conv,3,1,1,64"`.
    pub fn encode(&self) -> String {
        let (_, k, s, p, n) = self.hyperparams();
        format!("{},{k},{s},{p},{n}", self.kind_name())
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the layer cannot consume `input`.
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ShapeError> {
        match *self {
            LayerSpec::Conv2d {
                kernel,
                stride,
                pad,
                out_channels,
            } => {
                let (h, w) =
                    conv_out(input, kernel, stride, pad).ok_or_else(|| self.kernel_err(input))?;
                Ok(Shape::new(out_channels, h, w))
            }
            LayerSpec::DepthwiseConv2d {
                kernel,
                stride,
                pad,
            } => {
                let (h, w) =
                    conv_out(input, kernel, stride, pad).ok_or_else(|| self.kernel_err(input))?;
                Ok(Shape::new(input.c, h, w))
            }
            LayerSpec::MaxPool2d { kernel, stride } => {
                let (h, w) =
                    conv_out(input, kernel, stride, 0).ok_or_else(|| self.kernel_err(input))?;
                Ok(Shape::new(input.c, h, w))
            }
            LayerSpec::GlobalAvgPool => Ok(Shape::new(input.c, 1, 1)),
            LayerSpec::Flatten => Ok(Shape::features(input.len())),
            LayerSpec::Fc { out_features } => {
                if input.h != 1 || input.w != 1 {
                    return Err(ShapeError::ExpectedFlat {
                        layer: self.encode(),
                        input,
                    });
                }
                Ok(Shape::features(out_features))
            }
            LayerSpec::BatchNorm | LayerSpec::Dropout => Ok(input),
            LayerSpec::Fire {
                expand1, expand3, ..
            } => {
                // squeeze 1x1 keeps H,W; expands keep H,W (3x3 is pad 1).
                Ok(Shape::new(expand1 + expand3, input.h, input.w))
            }
            LayerSpec::InvertedResidual {
                stride,
                out_channels,
                ..
            } => {
                let (h, w) = conv_out(input, 3, stride, 1).ok_or_else(|| self.kernel_err(input))?;
                Ok(Shape::new(out_channels, h, w))
            }
            LayerSpec::Residual {
                ref body,
                projection,
            } => {
                let mut s = input;
                for l in body {
                    s = l.output_shape(s)?;
                }
                match projection {
                    Some((out_c, stride)) => {
                        let (h, w) =
                            conv_out(input, 1, stride, 0).ok_or_else(|| self.kernel_err(input))?;
                        let proj = Shape::new(out_c, h, w);
                        if proj != s {
                            return Err(ShapeError::ResidualMismatch { input, body: s });
                        }
                        Ok(s)
                    }
                    None => {
                        if s != input {
                            return Err(ShapeError::ResidualMismatch { input, body: s });
                        }
                        Ok(s)
                    }
                }
            }
        }
    }

    /// MACC count for this layer given its input shape (Eq. 4 / Eq. 5;
    /// cheap layers are zero).
    pub fn maccs(&self, input: Shape) -> u64 {
        match *self {
            LayerSpec::Conv2d {
                kernel,
                stride,
                pad,
                out_channels,
            } => match conv_out(input, kernel, stride, pad) {
                Some((h, w)) => {
                    (kernel * kernel) as u64
                        * input.c as u64
                        * out_channels as u64
                        * h as u64
                        * w as u64
                }
                None => 0,
            },
            LayerSpec::DepthwiseConv2d {
                kernel,
                stride,
                pad,
            } => match conv_out(input, kernel, stride, pad) {
                Some((h, w)) => (kernel * kernel) as u64 * input.c as u64 * h as u64 * w as u64,
                None => 0,
            },
            LayerSpec::Fc { out_features } => input.len() as u64 * out_features as u64,
            LayerSpec::MaxPool2d { .. }
            | LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::BatchNorm
            | LayerSpec::Dropout => 0,
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let sq = LayerSpec::conv(1, 1, 0, squeeze);
                let mid = match sq.output_shape(input) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                sq.maccs(input)
                    + LayerSpec::conv(1, 1, 0, expand1).maccs(mid)
                    + LayerSpec::conv(3, 1, 1, expand3).maccs(mid)
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => {
                let hidden = input.c * expansion;
                let expand = LayerSpec::conv(1, 1, 0, hidden);
                let mid = match expand.output_shape(input) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                let dw = LayerSpec::DepthwiseConv2d {
                    kernel: 3,
                    stride,
                    pad: 1,
                };
                let dw_out = match dw.output_shape(mid) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                expand.maccs(input)
                    + dw.maccs(mid)
                    + LayerSpec::conv(1, 1, 0, out_channels).maccs(dw_out)
            }
            LayerSpec::Residual {
                ref body,
                projection,
            } => {
                let mut total = 0;
                let mut s = input;
                for l in body {
                    total += l.maccs(s);
                    s = match l.output_shape(s) {
                        Ok(next) => next,
                        Err(_) => return total,
                    };
                }
                if let Some((out_c, stride)) = projection {
                    total += LayerSpec::Conv2d {
                        kernel: 1,
                        stride,
                        pad: 0,
                        out_channels: out_c,
                    }
                    .maccs(input);
                }
                total
            }
        }
    }

    /// Trainable parameter count (weights + biases) for this layer.
    pub fn param_count(&self, input: Shape) -> u64 {
        match *self {
            LayerSpec::Conv2d {
                kernel,
                out_channels,
                ..
            } => (kernel * kernel * input.c * out_channels + out_channels) as u64,
            LayerSpec::DepthwiseConv2d { kernel, .. } => {
                (kernel * kernel * input.c + input.c) as u64
            }
            LayerSpec::Fc { out_features } => (input.len() * out_features + out_features) as u64,
            LayerSpec::MaxPool2d { .. }
            | LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::Dropout => 0,
            LayerSpec::BatchNorm => 2 * input.c as u64,
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let sq = LayerSpec::conv(1, 1, 0, squeeze);
                let mid = match sq.output_shape(input) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                sq.param_count(input)
                    + LayerSpec::conv(1, 1, 0, expand1).param_count(mid)
                    + LayerSpec::conv(3, 1, 1, expand3).param_count(mid)
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => {
                let hidden = input.c * expansion;
                let expand = LayerSpec::conv(1, 1, 0, hidden);
                let mid = match expand.output_shape(input) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                let dw = LayerSpec::DepthwiseConv2d {
                    kernel: 3,
                    stride,
                    pad: 1,
                };
                let dw_out = match dw.output_shape(mid) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                expand.param_count(input)
                    + dw.param_count(mid)
                    + LayerSpec::conv(1, 1, 0, out_channels).param_count(dw_out)
            }
            LayerSpec::Residual {
                ref body,
                projection,
            } => {
                let mut total = 0;
                let mut s = input;
                for l in body {
                    total += l.param_count(s);
                    s = match l.output_shape(s) {
                        Ok(next) => next,
                        Err(_) => return total,
                    };
                }
                if let Some((out_c, stride)) = projection {
                    total += LayerSpec::Conv2d {
                        kernel: 1,
                        stride,
                        pad: 0,
                        out_channels: out_c,
                    }
                    .param_count(input);
                }
                total
            }
        }
    }

    /// Number of distinct latency cost classes (see [`LayerSpec::cost_class`]).
    pub const NUM_COST_CLASSES: usize = 6;

    /// Latency cost class of this layer, or `None` for zero-cost layers.
    ///
    /// Device latency models charge every compute-bearing layer a fixed
    /// per-layer overhead plus a per-MACC coefficient that depends only on
    /// this class — conv layers bucketed by kernel size (classes 0–3),
    /// depthwise convs (4) and fully-connected layers (5). Composite
    /// blocks (Fire / inverted-residual / residual) are dominated by 3×3
    /// convolutions and share the 3×3 conv class. Because the coefficient
    /// is constant within a class, a device's latency over any layer range
    /// reduces to six MACC sums plus a weighted-layer count — which is
    /// what makes prefix-sum latency kernels exact rather than
    /// approximate.
    pub fn cost_class(&self) -> Option<usize> {
        match self {
            LayerSpec::Conv2d { kernel, .. } => Some(match kernel {
                0..=1 => 0,
                2..=3 => 1,
                4..=5 => 2,
                _ => 3,
            }),
            LayerSpec::DepthwiseConv2d { .. } => Some(4),
            LayerSpec::Fc { .. } => Some(5),
            LayerSpec::Fire { .. }
            | LayerSpec::InvertedResidual { .. }
            | LayerSpec::Residual { .. } => Some(1),
            LayerSpec::MaxPool2d { .. }
            | LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::BatchNorm
            | LayerSpec::Dropout => None,
        }
    }

    /// Whether this layer carries trainable weight (a compression target).
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            LayerSpec::Conv2d { .. }
                | LayerSpec::DepthwiseConv2d { .. }
                | LayerSpec::Fc { .. }
                | LayerSpec::Fire { .. }
                | LayerSpec::InvertedResidual { .. }
                | LayerSpec::Residual { .. }
        )
    }

    fn kernel_err(&self, input: Shape) -> ShapeError {
        ShapeError::KernelTooLarge {
            layer: self.encode(),
            input,
        }
    }
}

fn conv_out(input: Shape, kernel: usize, stride: usize, pad: usize) -> Option<(usize, usize)> {
    if stride == 0 {
        return None;
    }
    let ph = input.h + 2 * pad;
    let pw = input.w + 2 * pad;
    if ph < kernel || pw < kernel {
        return None;
    }
    Some(((ph - kernel) / stride + 1, (pw - kernel) / stride + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macc_matches_eq4() {
        // Eq. 4: K*K*Cin*Cout*Hout*Wout.
        let layer = LayerSpec::conv(3, 1, 1, 64);
        let input = Shape::new(3, 32, 32);
        assert_eq!(layer.maccs(input), 3 * 3 * 3 * 64 * 32 * 32);
    }

    #[test]
    fn fc_macc_matches_eq5() {
        let layer = LayerSpec::fc(1000);
        let input = Shape::features(4096);
        assert_eq!(layer.maccs(input), 4096 * 1000);
    }

    #[test]
    fn cheap_layers_cost_zero() {
        let input = Shape::new(64, 16, 16);
        assert_eq!(LayerSpec::max_pool(2, 2).maccs(input), 0);
        assert_eq!(LayerSpec::BatchNorm.maccs(input), 0);
        assert_eq!(LayerSpec::Dropout.maccs(input), 0);
        assert_eq!(LayerSpec::GlobalAvgPool.maccs(input), 0);
        assert_eq!(LayerSpec::Flatten.maccs(input), 0);
    }

    #[test]
    fn conv_shape_inference() {
        let layer = LayerSpec::conv(3, 2, 1, 128);
        let out = layer.output_shape(Shape::new(64, 32, 32)).unwrap();
        assert_eq!(out, Shape::new(128, 16, 16));
    }

    #[test]
    fn pool_halves_spatial() {
        let out = LayerSpec::max_pool(2, 2)
            .output_shape(Shape::new(64, 32, 32))
            .unwrap();
        assert_eq!(out, Shape::new(64, 16, 16));
    }

    #[test]
    fn fc_rejects_spatial_input() {
        let err = LayerSpec::fc(10).output_shape(Shape::new(64, 4, 4));
        assert!(matches!(err, Err(ShapeError::ExpectedFlat { .. })));
    }

    #[test]
    fn depthwise_is_cout_times_cheaper() {
        let input = Shape::new(64, 16, 16);
        let full = LayerSpec::conv(3, 1, 1, 64).maccs(input);
        let dw = LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            pad: 1,
        }
        .maccs(input);
        assert_eq!(full, dw * 64);
    }

    #[test]
    fn mobilenet_split_is_cheaper_than_conv() {
        // Depthwise 3x3 + pointwise 1x1 vs full 3x3 conv.
        let input = Shape::new(64, 16, 16);
        let full = LayerSpec::conv(3, 1, 1, 64).maccs(input);
        let dw = LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let split = dw.maccs(input) + LayerSpec::conv(1, 1, 0, 64).maccs(input);
        assert!(split < full / 4, "split={split} full={full}");
    }

    #[test]
    fn fire_module_shape_and_maccs() {
        let fire = LayerSpec::Fire {
            squeeze: 16,
            expand1: 64,
            expand3: 64,
        };
        let input = Shape::new(96, 16, 16);
        assert_eq!(fire.output_shape(input).unwrap(), Shape::new(128, 16, 16));
        // Fire should be cheaper than the 3x3 conv it replaces at same width.
        let conv = LayerSpec::conv(3, 1, 1, 128);
        assert!(fire.maccs(input) < conv.maccs(input));
    }

    #[test]
    fn inverted_residual_shape() {
        let ir = LayerSpec::InvertedResidual {
            expansion: 6,
            stride: 2,
            out_channels: 32,
        };
        let out = ir.output_shape(Shape::new(16, 32, 32)).unwrap();
        assert_eq!(out, Shape::new(32, 16, 16));
        assert!(ir.maccs(Shape::new(16, 32, 32)) > 0);
    }

    #[test]
    fn residual_requires_matching_shapes() {
        let good = LayerSpec::Residual {
            body: vec![LayerSpec::conv(3, 1, 1, 64), LayerSpec::conv(3, 1, 1, 64)],
            projection: None,
        };
        assert!(good.output_shape(Shape::new(64, 8, 8)).is_ok());
        let bad = LayerSpec::Residual {
            body: vec![LayerSpec::conv(3, 1, 1, 128)],
            projection: None,
        };
        assert!(matches!(
            bad.output_shape(Shape::new(64, 8, 8)),
            Err(ShapeError::ResidualMismatch { .. })
        ));
    }

    #[test]
    fn residual_with_projection() {
        let block = LayerSpec::Residual {
            body: vec![
                LayerSpec::conv(1, 1, 0, 64),
                LayerSpec::conv(3, 2, 1, 64),
                LayerSpec::conv(1, 1, 0, 256),
            ],
            projection: Some((256, 2)),
        };
        let out = block.output_shape(Shape::new(128, 16, 16)).unwrap();
        assert_eq!(out, Shape::new(256, 8, 8));
    }

    #[test]
    fn encode_matches_eq1_format() {
        assert_eq!(LayerSpec::conv(3, 1, 1, 64).encode(), "Conv,3,1,1,64");
        assert_eq!(LayerSpec::fc(1024).encode(), "FC,0,0,0,1024");
    }

    #[test]
    fn transfer_bytes_are_f32() {
        assert_eq!(Shape::new(64, 16, 16).transfer_bytes(), 64 * 16 * 16 * 4);
    }

    #[test]
    fn param_count_conv() {
        let layer = LayerSpec::conv(3, 1, 1, 64);
        assert_eq!(
            layer.param_count(Shape::new(3, 32, 32)),
            3 * 3 * 3 * 64 + 64
        );
    }
}
