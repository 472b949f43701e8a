//! Measurement simulation and least-squares calibration — the machinery
//! behind the paper's Fig. 5 ("Estimation model for the computational
//! latency and the transfer latency").
//!
//! The paper fits linear models to measured `(MACCs, latency)` and
//! `(size/bandwidth, latency)` points. Real devices are unavailable here
//! (DESIGN.md substitution table), so [`measure_layer`] plays the role of
//! the measurement harness: ground truth from a [`DeviceProfile`] plus
//! multiplicative log-normal-ish noise, with extra dispersion on GPU
//! platforms where the paper observed the linearity to be "obscure".

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cadmc_nn::{LayerSpec, Shape};

use crate::device::{DeviceProfile, Platform};
use crate::transfer::{Mbps, TransferModel};

/// One simulated measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Predictor (MACC count, or bytes/bandwidth for transfer fits).
    pub x: f64,
    /// Measured latency (ms).
    pub y: f64,
}

/// Ordinary least squares fit `y ≈ slope·x + intercept` with R².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (0 for degenerate input).
    pub r2: f64,
}

impl LinearFit {
    /// Predicted latency at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits a line to measurement points by ordinary least squares.
///
/// # Panics
///
/// Panics if fewer than two points are supplied.
pub fn fit_linear(points: &[Measurement]) -> LinearFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.x).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.y).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for p in points {
        let dx = p.x - mean_x;
        let dy = p.y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx <= f64::EPSILON {
        return LinearFit {
            slope: 0.0,
            intercept: mean_y,
            r2: 0.0,
        };
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy <= f64::EPSILON {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

/// Relative measurement noise per platform: the GPU platforms show looser
/// linearity (paper: "the latency of Conv-layers on TX2 and the cloud do
/// not strictly follow due to the parallel execution of GPU").
pub fn noise_sigma(platform: Platform) -> f64 {
    match platform {
        Platform::Phone => 0.04,
        Platform::Tx2 => 0.18,
        Platform::CloudServer => 0.15,
    }
}

/// Simulates one latency measurement of `layer` at `input` on `profile`,
/// with platform-appropriate multiplicative noise.
pub fn measure_layer(
    profile: &DeviceProfile,
    layer: &LayerSpec,
    input: Shape,
    rng: &mut StdRng,
) -> Measurement {
    let truth = profile.layer_latency_ms(layer, input);
    let sigma = noise_sigma(profile.platform());
    let factor = (1.0 + sigma * gauss(rng)).max(0.2);
    Measurement {
        x: layer.maccs(input) as f64,
        y: truth * factor,
    }
}

/// Simulates one transfer measurement of `bytes` at `bw`.
pub fn measure_transfer(
    model: &TransferModel,
    bytes: u64,
    bw: Mbps,
    rng: &mut StdRng,
) -> Measurement {
    let truth = model.latency_ms(bytes, bw);
    let factor = (1.0 + 0.03 * gauss(rng)).max(0.2);
    Measurement {
        x: bytes as f64 / bw.clamped().bytes_per_ms(),
        y: truth * factor,
    }
}

/// Sweeps conv-layer sizes for one kernel size on one platform and returns
/// the simulated measurement set — one Fig. 5 panel's data.
pub fn conv_sweep(profile: &DeviceProfile, kernel: usize, seed: u64) -> Vec<Measurement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &channels in &[16usize, 32, 64, 128, 256] {
        for &hw in &[8usize, 16, 32] {
            let layer = LayerSpec::conv(kernel, 1, kernel / 2, channels);
            let input = Shape::new(channels, hw, hw);
            out.push(measure_layer(profile, &layer, input, &mut rng));
        }
    }
    out
}

/// Sweeps FC-layer sizes on one platform.
pub fn fc_sweep(profile: &DeviceProfile, seed: u64) -> Vec<Measurement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &inf in &[256usize, 512, 1024, 2048, 4096] {
        for &outf in &[128usize, 512, 1024] {
            let layer = LayerSpec::fc(outf);
            out.push(measure_layer(
                profile,
                &layer,
                Shape::features(inf),
                &mut rng,
            ));
        }
    }
    out
}

/// Sweeps transfer sizes across bandwidths.
pub fn transfer_sweep(model: &TransferModel, seed: u64) -> Vec<Measurement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &kb in &[16u64, 64, 128, 256, 512, 1024] {
        for &bw in &[2.0f64, 5.0, 10.0, 25.0, 50.0] {
            out.push(measure_transfer(model, kb * 1024, Mbps(bw), &mut rng));
        }
    }
    out
}

fn gauss(rng: &mut StdRng) -> f64 {
    let s: f64 = (0..6).map(|_| rng.random_range(-0.5..0.5)).sum();
    s * (12.0f64 / 6.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_line() {
        let pts: Vec<Measurement> = (0..10)
            .map(|i| Measurement {
                x: i as f64,
                y: 3.0 * i as f64 + 2.0,
            })
            .collect();
        let fit = fit_linear(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phone_conv_fit_is_strongly_linear() {
        let phone = DeviceProfile::phone();
        let pts = conv_sweep(&phone, 3, 1);
        let fit = fit_linear(&pts);
        assert!(fit.r2 > 0.97, "phone conv R2 = {}", fit.r2);
        // Slope should recover the profile coefficient within noise.
        let rel = (fit.slope - phone.conv_coeff[1]).abs() / phone.conv_coeff[1];
        assert!(rel < 0.15, "slope off by {:.0}%", rel * 100.0);
    }

    #[test]
    fn gpu_fits_are_less_linear_than_phone() {
        let phone_fit = fit_linear(&conv_sweep(&DeviceProfile::phone(), 3, 2));
        let tx2_fit = fit_linear(&conv_sweep(&DeviceProfile::tx2(), 3, 2));
        assert!(
            tx2_fit.r2 < phone_fit.r2,
            "TX2 R2 {} should be below phone R2 {}",
            tx2_fit.r2,
            phone_fit.r2
        );
    }

    #[test]
    fn fc_fit_recovers_fc_coefficient() {
        let phone = DeviceProfile::phone();
        let fit = fit_linear(&fc_sweep(&phone, 3));
        let rel = (fit.slope - phone.fc_coeff).abs() / phone.fc_coeff;
        assert!(rel < 0.2, "slope off by {:.0}%", rel * 100.0);
    }

    #[test]
    fn transfer_fit_is_linear_in_s_over_w() {
        let fit = fit_linear(&transfer_sweep(&TransferModel::default(), 4));
        assert!(fit.r2 > 0.95, "transfer R2 = {}", fit.r2);
        // The fitted line should predict large transfers well (the paper's
        // criterion is the visual fit quality of Fig. 5, not coefficient
        // identification — multiplicative noise on a wide x-range makes raw
        // OLS coefficients wobbly).
        let truth = TransferModel::default();
        for &(kb, bw) in &[(256u64, 5.0f64), (512, 10.0), (1024, 2.0)] {
            let x = (kb * 1024) as f64 / Mbps(bw).bytes_per_ms();
            let expected = truth.latency_ms(kb * 1024, Mbps(bw));
            let rel = (fit.predict(x) - expected).abs() / expected;
            assert!(rel < 0.1, "{kb} KB @ {bw} Mbps off by {:.1}%", rel * 100.0);
        }
    }

    #[test]
    fn degenerate_fit_does_not_panic() {
        let pts = vec![
            Measurement { x: 1.0, y: 5.0 },
            Measurement { x: 1.0, y: 6.0 },
        ];
        let fit = fit_linear(&pts);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 0.0);
    }
}
