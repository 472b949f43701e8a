//! Gilbert–Elliott channel model — an alternative trace family.
//!
//! The primary synthesizer ([`crate::BandwidthProcess`]) is a mean-
//! reverting diffusion with regime switching. The classic alternative in
//! the networking literature is the two-state Gilbert–Elliott chain: the
//! channel alternates between a *good* and a *bad* state with geometric
//! sojourn times, each state emitting bandwidth around its own level.
//! Having a second family with different statistics lets robustness
//! experiments check that nothing in the engine is overfit to one
//! generator's shape.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::trace::BandwidthTrace;

/// Parameters of a Gilbert–Elliott bandwidth channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Mean bandwidth in the good state (Mbps).
    pub good_mbps: f64,
    /// Mean bandwidth in the bad state (Mbps).
    pub bad_mbps: f64,
    /// Probability per step of leaving the good state.
    pub p_good_to_bad: f64,
    /// Probability per step of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Multiplicative jitter amplitude within a state, in `[0, 1)`.
    pub jitter: f64,
}

impl GilbertElliott {
    /// A typical lossy-WiFi-like preset.
    pub fn lossy_wifi() -> Self {
        Self {
            good_mbps: 12.0,
            bad_mbps: 1.0,
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.10,
            jitter: 0.25,
        }
    }

    /// Long-run fraction of time spent in the good state.
    pub fn steady_state_good_fraction(&self) -> f64 {
        self.p_bad_to_good / (self.p_good_to_bad + self.p_bad_to_good)
    }

    /// Synthesizes a trace of `n` samples at `dt_ms`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of range or `n == 0`.
    pub fn trace(&self, n: usize, dt_ms: f64, seed: u64) -> BandwidthTrace {
        assert!(n > 0, "need at least one sample");
        assert!(
            self.good_mbps > 0.0 && self.bad_mbps > 0.0,
            "levels must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.p_good_to_bad) && (0.0..=1.0).contains(&self.p_bad_to_good),
            "transition probabilities must be in [0,1]"
        );
        assert!((0.0..1.0).contains(&self.jitter), "jitter must be in [0,1)");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut good = rng.random_range(0.0..1.0) < self.steady_state_good_fraction();
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let flip: f64 = rng.random_range(0.0..1.0);
            if good && flip < self.p_good_to_bad {
                good = false;
            } else if !good && flip < self.p_bad_to_good {
                good = true;
            }
            let level = if good { self.good_mbps } else { self.bad_mbps };
            let j: f64 = rng.random_range(-self.jitter..=self.jitter);
            samples.push((level * (1.0 + j)).max(0.01));
        }
        BandwidthTrace::new(dt_ms, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_fraction_matches_empirical() {
        let ge = GilbertElliott::lossy_wifi();
        let trace = ge.trace(50_000, 100.0, 1);
        // Count samples near the good level.
        let cutoff = (ge.good_mbps + ge.bad_mbps) / 2.0;
        let good_frac =
            trace.samples().iter().filter(|&&v| v > cutoff).count() as f64 / trace.len() as f64;
        let expected = ge.steady_state_good_fraction();
        assert!(
            (good_frac - expected).abs() < 0.05,
            "empirical {good_frac:.3} vs analytic {expected:.3}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ge = GilbertElliott::lossy_wifi();
        assert_eq!(ge.trace(100, 100.0, 3), ge.trace(100, 100.0, 3));
        assert_ne!(ge.trace(100, 100.0, 3), ge.trace(100, 100.0, 4));
    }

    #[test]
    fn bimodal_levels() {
        // A balanced chain (50/50 steady state) puts the quartiles on the
        // two state levels.
        let ge = GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.05,
            ..GilbertElliott::lossy_wifi()
        };
        let trace = ge.trace(20_000, 100.0, 2);
        let (poor, good) = trace.quartile_levels();
        assert!(poor < 2.0, "poor quartile {poor}");
        assert!(good > 8.0, "good quartile {good}");
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn rejects_bad_jitter() {
        let ge = GilbertElliott {
            jitter: 1.0,
            ..GilbertElliott::lossy_wifi()
        };
        let _ = ge.trace(10, 100.0, 1);
    }

    #[test]
    fn sojourn_times_are_geometric_ish() {
        // Mean good sojourn should be ~1/p_good_to_bad steps.
        let ge = GilbertElliott::lossy_wifi();
        let trace = ge.trace(100_000, 100.0, 5);
        let cutoff = (ge.good_mbps + ge.bad_mbps) / 2.0;
        let mut runs = Vec::new();
        let mut current = 0usize;
        for &v in trace.samples() {
            if v > cutoff {
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        let expected = 1.0 / ge.p_good_to_bad;
        assert!(
            (mean_run - expected).abs() < expected * 0.25,
            "mean good sojourn {mean_run:.1} vs expected {expected:.1}"
        );
    }
}
