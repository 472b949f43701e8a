//! Stochastic bandwidth processes.
//!
//! The paper's Fig. 1 shows measured 4G/WiFi bandwidth fluctuating
//! drastically within sub-second windows. We synthesize comparable traces
//! with a mean-reverting (Ornstein–Uhlenbeck-style) process whose long-run
//! mean itself switches between a low and a high regime, plus occasional
//! multi-step dropouts — the three behaviours visible in the paper's
//! samples (jitter, level shifts, outages).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic bandwidth process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessConfig {
    /// Long-run mean bandwidth in the *low* regime (Mbps).
    pub mean_low: f64,
    /// Long-run mean bandwidth in the *high* regime (Mbps).
    pub mean_high: f64,
    /// Mean-reversion rate (1/s): larger snaps back faster.
    pub reversion: f64,
    /// Instantaneous volatility (Mbps/√s).
    pub sigma: f64,
    /// Probability per second of switching regime.
    pub switch_rate: f64,
    /// Probability per second of entering a dropout (outage).
    pub dropout_rate: f64,
    /// Mean dropout duration (s).
    pub dropout_secs: f64,
    /// Hard floor (Mbps) — radios rarely report exactly zero.
    pub floor: f64,
}

/// A running instance of the bandwidth process.
#[derive(Debug)]
pub struct BandwidthProcess {
    cfg: ProcessConfig,
    rng: StdRng,
    value: f64,
    high_regime: bool,
    dropout_left: f64,
}

impl BandwidthProcess {
    /// Creates a process seeded deterministically.
    pub fn new(cfg: ProcessConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let high_regime = rng.random_range(0.0..1.0) < 0.5;
        let value = if high_regime {
            cfg.mean_high
        } else {
            cfg.mean_low
        };
        Self {
            cfg,
            rng,
            value,
            high_regime,
            dropout_left: 0.0,
        }
    }

    /// Current bandwidth (Mbps).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Advances the process by `dt` seconds and returns the new bandwidth.
    pub fn step(&mut self, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        // Regime switching.
        if self.rng.random_range(0.0..1.0) < self.cfg.switch_rate * dt {
            self.high_regime = !self.high_regime;
        }
        // Dropout entry/decay.
        if self.dropout_left > 0.0 {
            self.dropout_left -= dt;
        } else if self.rng.random_range(0.0..1.0) < self.cfg.dropout_rate * dt {
            self.dropout_left = self.cfg.dropout_secs * self.rng.random_range(0.5..1.5);
        }
        let mu = if self.high_regime {
            self.cfg.mean_high
        } else {
            self.cfg.mean_low
        };
        let noise: f64 = {
            let s: f64 = (0..6).map(|_| self.rng.random_range(-0.5..0.5)).sum();
            s * (12.0f64 / 6.0).sqrt()
        };
        self.value +=
            self.cfg.reversion * (mu - self.value) * dt + self.cfg.sigma * dt.sqrt() * noise;
        if self.dropout_left > 0.0 {
            self.value = self.value.min(0.15 * mu);
        }
        self.value = self.value.max(self.cfg.floor);
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProcessConfig {
        ProcessConfig {
            mean_low: 3.0,
            mean_high: 12.0,
            reversion: 1.0,
            sigma: 2.0,
            switch_rate: 0.1,
            dropout_rate: 0.02,
            dropout_secs: 1.0,
            floor: 0.05,
        }
    }

    #[test]
    fn process_is_deterministic_per_seed() {
        let mut a = BandwidthProcess::new(cfg(), 1);
        let mut b = BandwidthProcess::new(cfg(), 1);
        for _ in 0..100 {
            assert_eq!(a.step(0.1), b.step(0.1));
        }
    }

    #[test]
    fn stays_above_floor() {
        let mut p = BandwidthProcess::new(cfg(), 2);
        for _ in 0..2000 {
            assert!(p.step(0.1) >= 0.05);
        }
    }

    #[test]
    fn long_run_mean_is_between_regimes() {
        let mut p = BandwidthProcess::new(cfg(), 3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += p.step(0.1);
        }
        let mean = sum / n as f64;
        assert!(
            (2.0..13.0).contains(&mean),
            "long-run mean {mean} outside regime band"
        );
    }

    #[test]
    fn fluctuates_within_one_second() {
        // Fig. 1's headline observation: drastic change within ~1 s.
        let mut p = BandwidthProcess::new(cfg(), 4);
        let mut max_jump: f64 = 0.0;
        let mut prev = p.value();
        for _ in 0..600 {
            // 60 s at 10 Hz: look at 1-second (10-step) windows.
            let mut v = prev;
            for _ in 0..10 {
                v = p.step(0.1);
            }
            max_jump = max_jump.max((v - prev).abs());
            prev = v;
        }
        assert!(max_jump > 1.0, "trace too smooth: max 1s jump {max_jump}");
    }
}
