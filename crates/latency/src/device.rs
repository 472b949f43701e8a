//! Device latency profiles — the paper's MACC-linear computational
//! latency model (§V-B).
//!
//! The paper observes that per-layer computational latency is linear in
//! MACC count, with coefficients that (a) differ per device, (b) differ per
//! kernel size for conv layers, and (c) are noticeably *less* linear on
//! GPU platforms because of parallel execution — which we model as a
//! per-layer dispatch overhead plus a shallower slope.
//!
//! Coefficients are calibrated against Table 1 (Xiaomi MI 6X inference
//! latencies at 224×224×3): VGG19 5734.89 ms, ResNet50 1103.20 ms,
//! ResNet101 2238.79 ms, ResNet152 3729.10 ms — i.e. ≈ 2.9·10⁻⁷ ms/MACC
//! on the phone, with the cloud server 1–2 orders of magnitude faster.

use serde::{Deserialize, Serialize};

use cadmc_nn::{ClassSums, LayerSpec, ModelSpec, Shape};

/// The three evaluation platforms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Xiaomi MI 6X smartphone (CPU; strongly MACC-linear).
    Phone,
    /// NVIDIA Jetson TX2 (mobile GPU; dispatch overhead + shallow slope).
    Tx2,
    /// 2× Xeon E5-2630 + GTX 1080 Ti cloud server.
    CloudServer,
}

impl Platform {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Phone => "Phone",
            Platform::Tx2 => "TX2",
            Platform::CloudServer => "Cloud",
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A calibrated computational-latency model for one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    platform: Platform,
    /// Fixed per-weighted-layer overhead (ms): framework dispatch, memory
    /// traffic and (on GPUs) kernel launch. Dominant for the small
    /// CIFAR-scale layers of the evaluation models — which is why the same
    /// phone that runs 224×224 VGG19 at ≈ 0.29 ns/MACC needs ~80 ms for a
    /// 153 MMACC CIFAR VGG11, exactly as the paper's Table 4 shows. It
    /// also means rewrites that *add* layers (MobileNet splits, Fire
    /// modules) pay a real cost beyond their MACC savings.
    pub layer_overhead_ms: f64,
    /// ms per MACC for conv layers, by kernel size bucket (k=1,3,5,7+).
    pub conv_coeff: [f64; 4],
    /// ms per MACC for depthwise conv — substantially worse per MACC
    /// than dense convolution (depthwise is memory-bound: ~1 multiply per
    /// byte loaded), which keeps MobileNet-style rewrites from looking
    /// implausibly cheap.
    pub dw_coeff: f64,
    /// ms per MACC for fully-connected layers.
    pub fc_coeff: f64,
}

impl DeviceProfile {
    /// The Xiaomi MI 6X profile (Table 1 calibration).
    pub fn phone() -> Self {
        Self {
            platform: Platform::Phone,
            layer_overhead_ms: 3.0,
            // Larger kernels stream better per MACC on the CPU's SIMD
            // units; 1x1 convs are the most memory-bound.
            conv_coeff: [3.2e-7, 2.9e-7, 3.0e-7, 3.1e-7],
            dw_coeff: 2.0e-6,
            fc_coeff: 3.5e-7,
        }
    }

    /// The Jetson TX2 profile.
    pub fn tx2() -> Self {
        Self {
            platform: Platform::Tx2,
            layer_overhead_ms: 4.0,
            conv_coeff: [1.6e-7, 1.2e-7, 1.3e-7, 1.3e-7],
            dw_coeff: 8.0e-7,
            fc_coeff: 1.5e-7,
        }
    }

    /// The Xeon + GTX 1080 Ti cloud profile.
    pub fn cloud() -> Self {
        Self {
            platform: Platform::CloudServer,
            layer_overhead_ms: 0.12,
            conv_coeff: [8.0e-9, 6.0e-9, 6.5e-9, 7.0e-9],
            dw_coeff: 5.0e-8,
            fc_coeff: 1.0e-8,
        }
    }

    /// Profile for a named platform.
    pub fn for_platform(platform: Platform) -> Self {
        match platform {
            Platform::Phone => Self::phone(),
            Platform::Tx2 => Self::tx2(),
            Platform::CloudServer => Self::cloud(),
        }
    }

    /// Which platform this profile models.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The ms/MACC coefficient per latency cost class, indexed by
    /// [`LayerSpec::cost_class`]: conv kernel buckets (k=1,3,5,7+), then
    /// depthwise, then fully-connected. Composites share the 3×3 conv
    /// class as representative.
    pub fn class_coeffs(&self) -> [f64; LayerSpec::NUM_COST_CLASSES] {
        [
            self.conv_coeff[0],
            self.conv_coeff[1],
            self.conv_coeff[2],
            self.conv_coeff[3],
            self.dw_coeff,
            self.fc_coeff,
        ]
    }

    /// The ms/MACC coefficient this profile applies to `layer`.
    pub fn coeff_for(&self, layer: &LayerSpec) -> f64 {
        layer.cost_class().map_or(0.0, |c| self.class_coeffs()[c])
    }

    /// Latency (ms) of a layer range described by its grouped cost totals.
    ///
    /// This is the *canonical* evaluation order of the latency model:
    /// per-layer overhead times the weighted-layer count, plus one
    /// coefficient · MACC-total term per cost class, accumulated in class
    /// order. Both the O(1) prefix-sum kernel and the scalar oracle funnel
    /// through this one expression, so they agree to 0 ULP — the integer
    /// sums they feed in are exact.
    pub fn latency_of_sums(&self, sums: &ClassSums) -> f64 {
        let coeffs = self.class_coeffs();
        let mut acc = self.layer_overhead_ms * sums.weighted_layers as f64;
        for (coeff, maccs) in coeffs.iter().zip(sums.maccs) {
            acc += coeff * maccs as f64;
        }
        acc
    }

    /// Estimated latency of one layer (ms) given its input shape. Cheap
    /// layers (pool / BN / dropout / flatten) cost zero, per the paper.
    pub fn layer_latency_ms(&self, layer: &LayerSpec, input: Shape) -> f64 {
        let maccs = layer.maccs(input);
        if maccs == 0 {
            return 0.0;
        }
        self.layer_overhead_ms + self.coeff_for(layer) * maccs as f64
    }

    /// Estimated latency of a whole model (ms).
    pub fn model_latency_ms(&self, model: &ModelSpec) -> f64 {
        self.range_latency_ms(model, 0, model.len())
    }

    /// Estimated latency of the layer range `[start, end)` of `model` (ms)
    /// in O(1), from the model's cost-class prefix sums.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn range_latency_ms(&self, model: &ModelSpec, start: usize, end: usize) -> f64 {
        self.latency_of_sums(&model.class_sums(start, end))
    }

    /// Scalar differential-testing oracle for
    /// [`DeviceProfile::range_latency_ms`]: accumulates the grouped cost
    /// totals with a per-layer walk instead of the prefix table, then
    /// applies the same canonical float expression. Agrees with the O(1)
    /// kernel to 0 ULP for every valid spec and range.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn range_latency_ms_scalar(&self, model: &ModelSpec, start: usize, end: usize) -> f64 {
        self.latency_of_sums(&model.class_sums_scalar(start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn phone_reproduces_table1_within_15_percent() {
        let phone = DeviceProfile::phone();
        let cases: [(&str, f64); 4] = [
            ("VGG19", 5734.89),
            ("ResNet50", 1103.20),
            ("ResNet101", 2238.79),
            ("ResNet152", 3729.10),
        ];
        for (name, expected) in cases {
            let model = match name {
                "VGG19" => zoo::vgg19_imagenet(),
                "ResNet50" => zoo::resnet_imagenet(zoo::ResNetDepth::D50),
                "ResNet101" => zoo::resnet_imagenet(zoo::ResNetDepth::D101),
                _ => zoo::resnet_imagenet(zoo::ResNetDepth::D152),
            };
            let got = phone.model_latency_ms(&model);
            let rel = (got - expected).abs() / expected;
            assert!(
                rel < 0.15,
                "{name}: estimated {got:.1} ms vs paper {expected:.1} ms ({:.1}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn cloud_is_at_least_10x_faster_than_phone() {
        // §I: "today's edge devices are still at least 10 times slower
        // than a GPU-powered server."
        let vgg = zoo::vgg11_cifar();
        let phone = DeviceProfile::phone().model_latency_ms(&vgg);
        let cloud = DeviceProfile::cloud().model_latency_ms(&vgg);
        assert!(phone / cloud >= 10.0, "phone {phone:.1} cloud {cloud:.1}");
    }

    #[test]
    fn overhead_dominates_small_layers() {
        // For a tiny layer, the per-layer overhead is essentially the
        // whole cost on every platform, and the GPU's is larger.
        let tiny_conv = LayerSpec::conv(3, 1, 1, 8);
        let shape = Shape::new(3, 8, 8);
        let tx2 = DeviceProfile::tx2().layer_latency_ms(&tiny_conv, shape);
        let phone = DeviceProfile::phone().layer_latency_ms(&tiny_conv, shape);
        assert!(tx2 > phone, "GPU dispatch should exceed CPU overhead");
        assert!(
            (3.0..3.1).contains(&phone),
            "phone cost ~= overhead: {phone}"
        );
    }

    #[test]
    fn cheap_layers_cost_zero() {
        let phone = DeviceProfile::phone();
        assert_eq!(
            phone.layer_latency_ms(&LayerSpec::max_pool(2, 2), Shape::new(64, 16, 16)),
            0.0
        );
        assert_eq!(
            phone.layer_latency_ms(&LayerSpec::BatchNorm, Shape::new(64, 16, 16)),
            0.0
        );
    }

    #[test]
    fn range_latency_sums_to_model_latency() {
        let vgg = zoo::vgg11_cifar();
        let phone = DeviceProfile::phone();
        let total = phone.model_latency_ms(&vgg);
        let split = phone.range_latency_ms(&vgg, 0, 5) + phone.range_latency_ms(&vgg, 5, vgg.len());
        assert!((total - split).abs() < 1e-9);
    }

    #[test]
    fn vgg11_phone_latency_matches_paper_scale() {
        // The paper's Table 4 puts fully-on-phone VGG11 runs at ≈ 80 ms
        // (its weak-network surgery rows, which degenerate to all-edge).
        let lat = DeviceProfile::phone().model_latency_ms(&zoo::vgg11_cifar());
        assert!(
            (65.0..95.0).contains(&lat),
            "VGG11 phone latency {lat:.1} ms"
        );
    }
}
