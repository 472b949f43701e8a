//! The seven compression techniques of the paper's Table 2, as structural
//! rewrites over [`ModelSpec`]s.
//!
//! | Code | Name | Replaced structure | New structure |
//! |------|------|--------------------|---------------|
//! | F1 | SVD | `m×n` FC weight | `m×k` + `k×n` FC pair, `k ≪ min(m,n)` |
//! | F2 | KSVD | same | same with sparse factors (lower effective rank) |
//! | F3 | Global Average Pooling | the FC head | 1×1 conv to classes + GAP |
//! | C1 | MobileNet | `k×k` conv | depthwise `k×k` + pointwise 1×1 |
//! | C2 | MobileNetV2 | conv | inverted residual (expand/dw/project + skip) |
//! | C3 | SqueezeNet | conv | Fire module |
//! | W1 | Filter pruning | conv | conv with insignificant filters removed |
//!
//! Structural rewrites change MACCs/latency immediately; the accuracy
//! consequence is modeled by `cadmc-accuracy` (oracle) or measured by
//! retraining via `cadmc-nn` (tiny scale).

use serde::{Deserialize, Serialize};

use cadmc_nn::{LayerSpec, ModelSpec, ShapeError};

/// Default prune ratio for W1 (fraction of filters removed).
pub const W1_PRUNE_RATIO: f32 = 0.25;

/// A compression technique from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// F1: truncated-SVD factorization of an FC layer.
    F1Svd,
    /// F2: sparse (KSVD-style) factorization of an FC layer.
    F2Ksvd,
    /// F3: replace the FC head with a 1×1 conv + global average pooling.
    F3Gap,
    /// C1: MobileNet depthwise-separable rewrite of a conv layer.
    C1MobileNet,
    /// C2: MobileNetV2 inverted-residual rewrite of a conv layer.
    C2MobileNetV2,
    /// C3: SqueezeNet Fire-module rewrite of a conv layer.
    C3SqueezeNet,
    /// W1: structured filter pruning of a conv layer.
    W1FilterPrune,
}

/// Errors from applying a technique.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The technique does not apply to the layer at this position.
    NotApplicable {
        /// The technique that was attempted.
        technique: Technique,
        /// Index of the target layer.
        layer_index: usize,
        /// Encoded form of the target layer.
        layer: String,
    },
    /// The rewrite produced a shape-inconsistent model.
    Shape(ShapeError),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::NotApplicable {
                technique,
                layer_index,
                layer,
            } => write!(
                f,
                "{} is not applicable to layer {layer_index} ({layer})",
                technique.code()
            ),
            CompressError::Shape(e) => write!(f, "rewrite produced invalid shapes: {e}"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<ShapeError> for CompressError {
    fn from(e: ShapeError) -> Self {
        CompressError::Shape(e)
    }
}

impl Technique {
    /// All techniques, in Table 2 order.
    pub const ALL: [Technique; 7] = [
        Technique::F1Svd,
        Technique::F2Ksvd,
        Technique::F3Gap,
        Technique::C1MobileNet,
        Technique::C2MobileNetV2,
        Technique::C3SqueezeNet,
        Technique::W1FilterPrune,
    ];

    /// Table 2 code, e.g. `"F1"`.
    pub fn code(self) -> &'static str {
        match self {
            Technique::F1Svd => "F1",
            Technique::F2Ksvd => "F2",
            Technique::F3Gap => "F3",
            Technique::C1MobileNet => "C1",
            Technique::C2MobileNetV2 => "C2",
            Technique::C3SqueezeNet => "C3",
            Technique::W1FilterPrune => "W1",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Technique::F1Svd => "SVD",
            Technique::F2Ksvd => "KSVD",
            Technique::F3Gap => "Global Average Pooling",
            Technique::C1MobileNet => "MobileNet",
            Technique::C2MobileNetV2 => "MobileNetV2",
            Technique::C3SqueezeNet => "SqueezeNet",
            Technique::W1FilterPrune => "Filter Pruning",
        }
    }

    /// Stable index into [`Technique::ALL`] (used by controller softmax
    /// heads).
    pub fn index(self) -> usize {
        match self {
            Technique::F1Svd => 0,
            Technique::F2Ksvd => 1,
            Technique::F3Gap => 2,
            Technique::C1MobileNet => 3,
            Technique::C2MobileNetV2 => 4,
            Technique::C3SqueezeNet => 5,
            Technique::W1FilterPrune => 6,
        }
    }

    /// Relative accuracy-risk weight used by the accuracy oracle: larger
    /// means the technique typically costs more accuracy before
    /// distillation recovery. Unitless, calibrated so W1 ≈ mild and
    /// F3 ≈ aggressive, consistent with the compression literature the
    /// paper cites (refs. 16, 17, 19–22 of the paper).
    pub fn aggressiveness(self) -> f32 {
        match self {
            Technique::F1Svd => 0.6,
            Technique::F2Ksvd => 0.8,
            Technique::F3Gap => 1.0,
            Technique::C1MobileNet => 0.5,
            Technique::C2MobileNetV2 => 0.7,
            Technique::C3SqueezeNet => 0.8,
            Technique::W1FilterPrune => 0.4,
        }
    }

    /// Whether the technique applies to layer `idx` of `spec`.
    pub fn applicable(self, spec: &ModelSpec, idx: usize) -> bool {
        if idx >= spec.len() {
            return false;
        }
        let layer = &spec.layers()[idx];
        match self {
            Technique::F1Svd | Technique::F2Ksvd => match layer {
                LayerSpec::Fc { out_features } => {
                    let m = spec.layer_input(idx).len();
                    m.min(*out_features) >= 8
                }
                _ => false,
            },
            Technique::F3Gap => {
                // Applies to the first FC of an FC head preceded by Flatten.
                matches!(layer, LayerSpec::Fc { .. })
                    && idx > 0
                    && spec.layers()[..idx]
                        .iter()
                        .rev()
                        .take_while(|l| {
                            matches!(
                                l,
                                LayerSpec::Fc { .. }
                                    | LayerSpec::Dropout
                                    | LayerSpec::BatchNorm
                                    | LayerSpec::Flatten
                            )
                        })
                        .any(|l| matches!(l, LayerSpec::Flatten))
            }
            Technique::C1MobileNet => {
                matches!(layer, LayerSpec::Conv2d { kernel, .. } if *kernel > 1)
            }
            Technique::C2MobileNetV2 => matches!(
                layer,
                LayerSpec::Conv2d {
                    kernel: 3,
                    pad: 1,
                    ..
                }
            ),
            Technique::C3SqueezeNet => {
                // A Fire module only saves MACCs when the input is already
                // wide: on a thin stem (e.g. 3 RGB channels) the 3×3 expand
                // path costs more than the conv it replaces.
                spec.layer_input(idx).c >= 16
                    && matches!(
                        layer,
                        LayerSpec::Conv2d {
                            kernel: 3,
                            stride: 1,
                            pad: 1,
                            out_channels,
                        } if *out_channels >= 16
                    )
            }
            Technique::W1FilterPrune => matches!(
                layer,
                LayerSpec::Conv2d { out_channels, .. } if *out_channels >= 4
            ),
        }
    }

    /// Applies the rewrite at layer `idx`, returning the transformed model.
    ///
    /// # Errors
    ///
    /// [`CompressError::NotApplicable`] when [`Technique::applicable`] is
    /// false; [`CompressError::Shape`] if the rewrite breaks inference
    /// (does not happen for applicable layers of valid models).
    pub fn apply(self, spec: &ModelSpec, idx: usize) -> Result<ModelSpec, CompressError> {
        if !self.applicable(spec, idx) {
            return Err(CompressError::NotApplicable {
                technique: self,
                layer_index: idx,
                layer: spec
                    .layers()
                    .get(idx)
                    .map(LayerSpec::encode)
                    .unwrap_or_else(|| "<out of range>".into()),
            });
        }
        if self == Technique::F3Gap {
            return apply_gap(spec, idx);
        }
        let mut out = spec.replace_layer(idx, self.replacement_layers(spec, idx))?;
        out.set_name(format!("{}+{}@{}", spec.name(), self.code(), idx));
        Ok(out)
    }

    /// The layer sequence a *local* (non-F3) rewrite substitutes for layer
    /// `idx`. Local rewrites read only the target layer and its input
    /// shape — both unchanged by rewrites at higher indices — which is
    /// what lets [`crate::CompressionPlan`] splice all replacements into
    /// the original spec in one pass instead of rebuilding the model per
    /// action.
    ///
    /// # Panics
    ///
    /// Panics if called for F3 (whose rewrite is not local: it replaces
    /// the whole FC head below its own index) or when the technique is
    /// not applicable at `idx` — callers check [`Technique::applicable`]
    /// first.
    pub fn replacement_layers(self, spec: &ModelSpec, idx: usize) -> Vec<LayerSpec> {
        match (self, &spec.layers()[idx]) {
            (Technique::F1Svd, LayerSpec::Fc { out_features }) => {
                let m = spec.layer_input(idx).len();
                let k = (m.min(*out_features) / 4).max(1);
                vec![LayerSpec::fc(k), LayerSpec::fc(*out_features)]
            }
            (Technique::F2Ksvd, LayerSpec::Fc { out_features }) => {
                let m = spec.layer_input(idx).len();
                let k = (m.min(*out_features) / 6).max(1);
                vec![LayerSpec::fc(k), LayerSpec::fc(*out_features)]
            }
            (
                Technique::C1MobileNet,
                &LayerSpec::Conv2d {
                    kernel,
                    stride,
                    pad,
                    out_channels,
                },
            ) => vec![
                LayerSpec::DepthwiseConv2d {
                    kernel,
                    stride,
                    pad,
                },
                LayerSpec::conv(1, 1, 0, out_channels),
            ],
            (
                Technique::C2MobileNetV2,
                &LayerSpec::Conv2d {
                    stride,
                    out_channels,
                    ..
                },
            ) => vec![LayerSpec::InvertedResidual {
                expansion: 2,
                stride,
                out_channels,
            }],
            (Technique::C3SqueezeNet, &LayerSpec::Conv2d { out_channels, .. }) => {
                let squeeze = (out_channels / 4).max(1);
                let expand1 = out_channels / 2;
                let expand3 = out_channels - expand1;
                vec![LayerSpec::Fire {
                    squeeze,
                    expand1,
                    expand3,
                }]
            }
            (
                Technique::W1FilterPrune,
                &LayerSpec::Conv2d {
                    kernel,
                    stride,
                    pad,
                    out_channels,
                },
            ) => {
                let kept = crate::prune::kept_count(out_channels, W1_PRUNE_RATIO);
                vec![LayerSpec::conv(kernel, stride, pad, kept)]
            }
            _ => unreachable!("applicability was checked above"),
        }
    }

    /// Techniques applicable to layer `idx` of `spec`.
    pub fn applicable_at(spec: &ModelSpec, idx: usize) -> Vec<Technique> {
        Technique::ALL
            .into_iter()
            .filter(|t| t.applicable(spec, idx))
            .collect()
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// F3: replace everything from the Flatten preceding `idx` to the end of
/// the FC head with `1×1 conv → classes` + GAP.
fn apply_gap(spec: &ModelSpec, idx: usize) -> Result<ModelSpec, CompressError> {
    let classes = spec.output_shape().len();
    // Find the Flatten that starts the head.
    let Some(flatten_idx) = spec.layers()[..idx]
        .iter()
        .rposition(|l| matches!(l, LayerSpec::Flatten))
    else {
        return Err(CompressError::NotApplicable {
            technique: Technique::F3Gap,
            layer_index: idx,
            layer: "no Flatten precedes the FC head".to_string(),
        });
    };
    let mut layers: Vec<LayerSpec> = spec.layers()[..flatten_idx].to_vec();
    layers.push(LayerSpec::conv(1, 1, 0, classes));
    layers.push(LayerSpec::GlobalAvgPool);
    layers.push(LayerSpec::Flatten);
    let mut out = ModelSpec::new(format!("{}+F3", spec.name()), spec.input_shape(), layers)?;
    out.set_name(format!("{}+F3@{idx}", spec.name()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn every_technique_reduces_maccs_on_vgg11() {
        let base = zoo::vgg11_cifar();
        for t in Technique::ALL {
            let idx = (0..base.len())
                .find(|&i| t.applicable(&base, i))
                .unwrap_or_else(|| panic!("{t} not applicable anywhere on VGG11"));
            let out = t.apply(&base, idx).unwrap();
            assert!(
                out.total_maccs() < base.total_maccs(),
                "{t} did not reduce MACCs: {} -> {}",
                base.total_maccs(),
                out.total_maccs()
            );
            assert_eq!(
                out.output_shape(),
                base.output_shape(),
                "{t} changed output"
            );
        }
    }

    #[test]
    fn f1_produces_two_fc_layers() {
        let base = zoo::vgg11_cifar();
        let fc_idx = base
            .layers()
            .iter()
            .position(|l| matches!(l, LayerSpec::Fc { .. }))
            .unwrap();
        let out = Technique::F1Svd.apply(&base, fc_idx).unwrap();
        assert_eq!(out.len(), base.len() + 1);
        // 512 -> 512: rank 128.
        assert!(matches!(
            out.layers()[fc_idx],
            LayerSpec::Fc { out_features: 128 }
        ));
    }

    #[test]
    fn f2_uses_lower_rank_than_f1() {
        let base = zoo::vgg11_cifar();
        let fc_idx = base
            .layers()
            .iter()
            .position(|l| matches!(l, LayerSpec::Fc { .. }))
            .unwrap();
        let f1 = Technique::F1Svd.apply(&base, fc_idx).unwrap();
        let f2 = Technique::F2Ksvd.apply(&base, fc_idx).unwrap();
        assert!(f2.total_maccs() < f1.total_maccs());
    }

    #[test]
    fn f3_removes_all_fc_but_keeps_classes() {
        let base = zoo::vgg11_cifar();
        let fc_idx = base
            .layers()
            .iter()
            .position(|l| matches!(l, LayerSpec::Fc { .. }))
            .unwrap();
        let out = Technique::F3Gap.apply(&base, fc_idx).unwrap();
        assert!(!out
            .layers()
            .iter()
            .any(|l| matches!(l, LayerSpec::Fc { .. })));
        assert_eq!(out.output_shape().len(), 10);
    }

    #[test]
    fn c1_swaps_conv_for_depthwise_pair() {
        let base = zoo::vgg11_cifar();
        let out = Technique::C1MobileNet.apply(&base, 2).unwrap();
        assert!(matches!(
            out.layers()[2],
            LayerSpec::DepthwiseConv2d { kernel: 3, .. }
        ));
        assert!(matches!(
            out.layers()[3],
            LayerSpec::Conv2d { kernel: 1, .. }
        ));
    }

    #[test]
    fn not_applicable_is_an_error_not_a_panic() {
        let base = zoo::vgg11_cifar();
        // Layer 1 is a max-pool; nothing applies.
        for t in Technique::ALL {
            assert!(matches!(
                t.apply(&base, 1),
                Err(CompressError::NotApplicable { .. })
            ));
        }
    }

    #[test]
    fn applicable_at_pool_is_empty() {
        let base = zoo::vgg11_cifar();
        assert!(Technique::applicable_at(&base, 1).is_empty());
        assert!(!Technique::applicable_at(&base, 0).is_empty());
    }

    #[test]
    fn compressed_models_still_compile_and_run() {
        use cadmc_nn::runtime::RuntimeModel;
        let base = zoo::tiny_cnn();
        for t in Technique::ALL {
            let Some(idx) = (0..base.len()).find(|&i| t.applicable(&base, i)) else {
                continue; // some techniques need larger layers than TinyCnn has
            };
            let out = t.apply(&base, idx).unwrap();
            let rt = RuntimeModel::compile(&out, 1)
                .unwrap_or_else(|e| panic!("{t} output failed to compile: {e}"));
            let data = cadmc_nn::dataset::synthetic(2, 0.05, 1);
            let logits = rt.forward(data.images());
            assert_eq!(logits.shape(), (2, 10), "{t}");
        }
    }

    #[test]
    fn codes_are_table2() {
        let codes: Vec<&str> = Technique::ALL.iter().map(|t| t.code()).collect();
        assert_eq!(codes, vec!["F1", "F2", "F3", "C1", "C2", "C3", "W1"]);
    }
}
