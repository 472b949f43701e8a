//! Model zoo: the base DNNs used throughout the paper.
//!
//! * **VGG11 / AlexNet on CIFAR10** (32×32×3) are the deployment targets of
//!   the evaluation (§VII Setup): base accuracies 92.01 % and 84.04 %.
//! * **VGG19 and ResNet-50/101/152 at 224×224×3** appear in Table 1's
//!   device latency measurements.
//! * **TinyCnn** is our laptop-scale stand-in used where the reproduction
//!   actually trains networks (see DESIGN.md substitution table).

use crate::layer::{LayerSpec, Shape};
use crate::model::ModelSpec;

/// CIFAR10 input shape.
pub fn cifar10_input() -> Shape {
    Shape::new(3, 32, 32)
}

/// ImageNet-style input shape used by Table 1.
pub fn imagenet_input() -> Shape {
    Shape::new(3, 224, 224)
}

fn conv3(out: usize) -> LayerSpec {
    LayerSpec::conv(3, 1, 1, out)
}

/// VGG11 (configuration A) adapted to CIFAR10, as used for the paper's main
/// experiments. Base accuracy in the paper: **92.01 %**.
pub fn vgg11_cifar() -> ModelSpec {
    ModelSpec::new(
        "VGG11",
        cifar10_input(),
        vec![
            conv3(64),
            LayerSpec::max_pool(2, 2),
            conv3(128),
            LayerSpec::max_pool(2, 2),
            conv3(256),
            conv3(256),
            LayerSpec::max_pool(2, 2),
            conv3(512),
            conv3(512),
            LayerSpec::max_pool(2, 2),
            conv3(512),
            conv3(512),
            LayerSpec::max_pool(2, 2),
            LayerSpec::Flatten,
            LayerSpec::fc(512),
            LayerSpec::Dropout,
            LayerSpec::fc(512),
            LayerSpec::Dropout,
            LayerSpec::fc(10),
        ],
    )
    .expect("VGG11 spec is shape-consistent")
}

/// AlexNet adapted to CIFAR10. Base accuracy in the paper: **84.04 %**.
pub fn alexnet_cifar() -> ModelSpec {
    ModelSpec::new(
        "AlexNet",
        cifar10_input(),
        vec![
            conv3(64),
            LayerSpec::max_pool(2, 2),
            conv3(128),
            LayerSpec::max_pool(2, 2),
            conv3(192),
            conv3(192),
            conv3(128),
            LayerSpec::max_pool(2, 2),
            LayerSpec::Flatten,
            LayerSpec::fc(1024),
            LayerSpec::Dropout,
            LayerSpec::fc(512),
            LayerSpec::Dropout,
            LayerSpec::fc(10),
        ],
    )
    .expect("AlexNet spec is shape-consistent")
}

/// VGG19 (configuration E) at ImageNet scale — Table 1's heaviest model.
pub fn vgg19_imagenet() -> ModelSpec {
    let mut layers = Vec::new();
    let cfg: &[(usize, usize)] = &[(2, 64), (2, 128), (4, 256), (4, 512), (4, 512)];
    for &(reps, ch) in cfg {
        for _ in 0..reps {
            layers.push(conv3(ch));
        }
        layers.push(LayerSpec::max_pool(2, 2));
    }
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::fc(4096));
    layers.push(LayerSpec::Dropout);
    layers.push(LayerSpec::fc(4096));
    layers.push(LayerSpec::Dropout);
    layers.push(LayerSpec::fc(1000));
    ModelSpec::new("VGG19", imagenet_input(), layers).expect("VGG19 spec is shape-consistent")
}

/// ResNet depth selector for [`resnet_imagenet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResNetDepth {
    /// ResNet-50: stages of [3, 4, 6, 3] bottlenecks.
    D50,
    /// ResNet-101: stages of [3, 4, 23, 3] bottlenecks.
    D101,
    /// ResNet-152: stages of [3, 8, 36, 3] bottlenecks.
    D152,
}

impl ResNetDepth {
    fn stages(self) -> [usize; 4] {
        match self {
            ResNetDepth::D50 => [3, 4, 6, 3],
            ResNetDepth::D101 => [3, 4, 23, 3],
            ResNetDepth::D152 => [3, 8, 36, 3],
        }
    }

    fn name(self) -> &'static str {
        match self {
            ResNetDepth::D50 => "ResNet50",
            ResNetDepth::D101 => "ResNet101",
            ResNetDepth::D152 => "ResNet152",
        }
    }
}

fn bottleneck(mid: usize, out: usize, stride: usize, project: bool) -> LayerSpec {
    LayerSpec::Residual {
        body: vec![
            LayerSpec::conv(1, 1, 0, mid),
            LayerSpec::conv(3, stride, 1, mid),
            LayerSpec::conv(1, 1, 0, out),
        ],
        projection: if project { Some((out, stride)) } else { None },
    }
}

/// Bottleneck ResNet at ImageNet scale (v1.5 stride placement), for
/// Table 1's latency measurements.
pub fn resnet_imagenet(depth: ResNetDepth) -> ModelSpec {
    let mut layers = vec![
        // Stem: 7x7/2 conv then 2x2/2 pool (nets 224 -> 56).
        LayerSpec::conv(7, 2, 3, 64),
        LayerSpec::max_pool(2, 2),
    ];
    let stages = depth.stages();
    let mids = [64usize, 128, 256, 512];
    for (stage, (&reps, &mid)) in stages.iter().zip(&mids).enumerate() {
        let out = mid * 4;
        for rep in 0..reps {
            let stride = if stage > 0 && rep == 0 { 2 } else { 1 };
            let project = rep == 0;
            layers.push(bottleneck(mid, out, stride, project));
        }
    }
    layers.push(LayerSpec::GlobalAvgPool);
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::fc(1000));
    ModelSpec::new(depth.name(), imagenet_input(), layers).expect("ResNet spec is shape-consistent")
}

/// VGG16 (configuration D) adapted to CIFAR10 — a heavier target for
/// stress-testing the search on deeper chains.
pub fn vgg16_cifar() -> ModelSpec {
    let mut layers = Vec::new();
    let cfg: &[(usize, usize)] = &[(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)];
    for &(reps, ch) in cfg {
        for _ in 0..reps {
            layers.push(conv3(ch));
        }
        layers.push(LayerSpec::max_pool(2, 2));
    }
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::fc(512));
    layers.push(LayerSpec::Dropout);
    layers.push(LayerSpec::fc(512));
    layers.push(LayerSpec::Dropout);
    layers.push(LayerSpec::fc(10));
    ModelSpec::new("VGG16", cifar10_input(), layers).expect("VGG16 spec is shape-consistent")
}

/// MobileNetV1-style CIFAR10 network built from depthwise-separable
/// convolutions — the reference architecture behind technique C1.
pub fn mobilenet_cifar() -> ModelSpec {
    let mut layers = vec![LayerSpec::conv(3, 1, 1, 32)];
    let cfg: &[(usize, usize)] = &[
        // (stride, out_channels) per depthwise-separable block.
        (1, 64),
        (2, 128),
        (1, 128),
        (2, 256),
        (1, 256),
        (2, 512),
        (1, 512),
    ];
    let mut _in_ch = 32;
    for &(stride, out) in cfg {
        layers.push(LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride,
            pad: 1,
        });
        layers.push(LayerSpec::conv(1, 1, 0, out));
        _in_ch = out;
    }
    layers.push(LayerSpec::GlobalAvgPool);
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::fc(10));
    ModelSpec::new("MobileNet", cifar10_input(), layers)
        .expect("MobileNet spec is shape-consistent")
}

/// SqueezeNet-style CIFAR10 network built from Fire modules — the
/// reference architecture behind technique C3. Uses a global-average-
/// pooling classifier head (technique F3's target structure).
pub fn squeezenet_cifar() -> ModelSpec {
    let fire = |squeeze: usize, expand: usize| LayerSpec::Fire {
        squeeze,
        expand1: expand / 2,
        expand3: expand - expand / 2,
    };
    ModelSpec::new(
        "SqueezeNet",
        cifar10_input(),
        vec![
            LayerSpec::conv(3, 1, 1, 64),
            LayerSpec::max_pool(2, 2),
            fire(16, 128),
            fire(16, 128),
            LayerSpec::max_pool(2, 2),
            fire(32, 256),
            fire(32, 256),
            LayerSpec::max_pool(2, 2),
            fire(48, 384),
            fire(48, 384),
            LayerSpec::conv(1, 1, 0, 10),
            LayerSpec::GlobalAvgPool,
            LayerSpec::Flatten,
        ],
    )
    .expect("SqueezeNet spec is shape-consistent")
}

/// ResNet basic block (two 3×3 convs) for CIFAR-scale residual nets.
fn basic_block(out: usize, stride: usize, project: bool) -> LayerSpec {
    LayerSpec::Residual {
        body: vec![
            LayerSpec::conv(3, stride, 1, out),
            LayerSpec::conv(3, 1, 1, out),
        ],
        projection: if project { Some((out, stride)) } else { None },
    }
}

/// CIFAR-scale ResNet-18 (basic blocks, stages 2-2-2-2).
pub fn resnet18_cifar() -> ModelSpec {
    resnet_cifar("ResNet18", [2, 2, 2, 2])
}

/// CIFAR-scale ResNet-34 (basic blocks, stages 3-4-6-3).
pub fn resnet34_cifar() -> ModelSpec {
    resnet_cifar("ResNet34", [3, 4, 6, 3])
}

fn resnet_cifar(name: &str, stages: [usize; 4]) -> ModelSpec {
    let mut layers = vec![conv3(64)];
    let channels = [64usize, 128, 256, 512];
    for (stage, (&reps, &ch)) in stages.iter().zip(&channels).enumerate() {
        for rep in 0..reps {
            let stride = if stage > 0 && rep == 0 { 2 } else { 1 };
            let project = stage > 0 && rep == 0;
            layers.push(basic_block(ch, stride, project));
        }
    }
    layers.push(LayerSpec::GlobalAvgPool);
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::fc(10));
    ModelSpec::new(name, cifar10_input(), layers).expect("CIFAR ResNet spec is shape-consistent")
}

/// The input shape of the synthetic dataset / TinyCnn pair.
pub fn tiny_input() -> Shape {
    Shape::new(3, 12, 12)
}

/// A small CNN that the in-repo runtime can actually train in seconds on
/// the synthetic dataset (see `cadmc_nn::dataset`). Structurally a
/// miniature VGG: conv-pool-conv-pool-fc-fc.
pub fn tiny_cnn() -> ModelSpec {
    ModelSpec::new(
        "TinyCnn",
        tiny_input(),
        vec![
            conv3(8),
            LayerSpec::max_pool(2, 2),
            conv3(16),
            LayerSpec::max_pool(2, 2),
            LayerSpec::Flatten,
            LayerSpec::fc(32),
            LayerSpec::fc(10),
        ],
    )
    .expect("TinyCnn spec is shape-consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg11_structure() {
        let m = vgg11_cifar();
        assert_eq!(m.output_shape(), Shape::features(10));
        let convs = m
            .layers()
            .iter()
            .filter(|l| matches!(l, LayerSpec::Conv2d { .. }))
            .count();
        assert_eq!(convs, 8, "VGG11 has 8 conv layers");
        // CIFAR VGG11 convs are ~150-280 MMACCs total.
        let mm = m.total_maccs() as f64 / 1e6;
        assert!((100.0..400.0).contains(&mm), "VGG11 MMACCs={mm}");
    }

    #[test]
    fn alexnet_is_lighter_than_vgg11() {
        assert!(alexnet_cifar().total_maccs() < vgg11_cifar().total_maccs());
    }

    #[test]
    fn vgg19_imagenet_scale() {
        let m = vgg19_imagenet();
        // Literature value: ~19.6 GMACCs for VGG19 at 224.
        let gm = m.total_maccs() as f64 / 1e9;
        assert!((17.0..22.0).contains(&gm), "VGG19 GMACCs={gm}");
        assert_eq!(m.output_shape(), Shape::features(1000));
    }

    #[test]
    fn resnet_maccs_ordering_and_scale() {
        let r50 = resnet_imagenet(ResNetDepth::D50).total_maccs();
        let r101 = resnet_imagenet(ResNetDepth::D101).total_maccs();
        let r152 = resnet_imagenet(ResNetDepth::D152).total_maccs();
        assert!(r50 < r101 && r101 < r152);
        // Literature: ~3.8-4.2 / ~7.6-8 / ~11-11.6 GMACCs.
        let g50 = r50 as f64 / 1e9;
        let g101 = r101 as f64 / 1e9;
        let g152 = r152 as f64 / 1e9;
        assert!((3.0..5.0).contains(&g50), "ResNet50 GMACCs={g50}");
        assert!((6.5..9.0).contains(&g101), "ResNet101 GMACCs={g101}");
        assert!((10.0..13.0).contains(&g152), "ResNet152 GMACCs={g152}");
    }

    #[test]
    fn resnet_shapes_close() {
        let m = resnet_imagenet(ResNetDepth::D50);
        assert_eq!(m.output_shape(), Shape::features(1000));
    }

    #[test]
    fn table1_latency_ratios_roughly_hold() {
        // Table 1 latencies: VGG19 5734.89, R50 1103.20, R101 2238.79,
        // R152 3729.10 ms — implied MACC ratios should be in the same
        // ballpark since the phone latency model is MACC-linear.
        let vgg = vgg19_imagenet().total_maccs() as f64;
        let r50 = resnet_imagenet(ResNetDepth::D50).total_maccs() as f64;
        let ratio = vgg / r50;
        let paper_ratio = 5734.89 / 1103.20;
        assert!(
            (ratio / paper_ratio - 1.0).abs() < 0.35,
            "MACC ratio {ratio:.2} vs paper latency ratio {paper_ratio:.2}"
        );
    }

    #[test]
    fn vgg16_is_heavier_than_vgg11() {
        assert!(vgg16_cifar().total_maccs() > vgg11_cifar().total_maccs());
        assert_eq!(vgg16_cifar().output_shape(), Shape::features(10));
    }

    #[test]
    fn mobilenet_is_macc_frugal() {
        let mobile = mobilenet_cifar();
        let vgg = vgg11_cifar();
        assert!(mobile.total_maccs() < vgg.total_maccs() / 3);
        assert_eq!(mobile.output_shape(), Shape::features(10));
    }

    #[test]
    fn squeezenet_has_few_parameters() {
        let sq = squeezenet_cifar();
        // SqueezeNet's selling point: "50x fewer parameters".
        assert!(sq.total_params() < vgg11_cifar().total_params() / 5);
        assert_eq!(sq.output_shape(), Shape::features(10));
    }

    #[test]
    fn cifar_resnets_are_consistent() {
        let r18 = resnet18_cifar();
        let r34 = resnet34_cifar();
        assert_eq!(r18.output_shape(), Shape::features(10));
        assert_eq!(r34.output_shape(), Shape::features(10));
        assert!(r34.total_maccs() > r18.total_maccs());
        // ResNet-18 on CIFAR is ~0.5-0.6 GMACC in the literature.
        let gm = r18.total_maccs() as f64 / 1e9;
        assert!((0.3..0.8).contains(&gm), "ResNet18 GMACCs={gm}");
        // The DAG expansion must preserve totals through the skip paths.
        use crate::graph::ModelDag;
        assert_eq!(ModelDag::from_spec(&r18).total_maccs(), r18.total_maccs());
    }

    #[test]
    fn reference_architectures_compile_in_runtime() {
        use crate::runtime::RuntimeModel;
        for spec in [mobilenet_cifar(), squeezenet_cifar()] {
            RuntimeModel::compile(&spec, 1)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", spec.name()));
        }
    }

    #[test]
    fn tiny_cnn_is_trainable_scale() {
        let m = tiny_cnn();
        assert!(m.total_params() < 100_000);
        assert_eq!(m.output_shape(), Shape::features(10));
    }
}
