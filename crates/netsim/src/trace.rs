//! Recorded bandwidth traces: sampling, quantiles and replay.

use serde::{Deserialize, Serialize};

use crate::process::{BandwidthProcess, ProcessConfig};

/// A bandwidth trace sampled at a fixed period, in Mbps.
///
/// Traces drive both the offline context characterization (the paper takes
/// the upper and lower quartiles of a scene's bandwidth as its "good" and
/// "poor" levels, §VII Setup) and the online emulation/field replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTrace {
    dt_ms: f64,
    samples: Vec<f64>,
}

impl BandwidthTrace {
    /// Wraps raw samples with their sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ms` is not positive or `samples` is empty.
    pub fn new(dt_ms: f64, samples: Vec<f64>) -> Self {
        assert!(dt_ms > 0.0, "sampling period must be positive");
        assert!(!samples.is_empty(), "trace must contain samples");
        Self { dt_ms, samples }
    }

    /// Synthesizes a trace of `duration_ms` from a process config.
    pub fn synthesize(cfg: ProcessConfig, duration_ms: f64, dt_ms: f64, seed: u64) -> Self {
        assert!(duration_ms >= dt_ms, "duration shorter than one sample");
        let mut process = BandwidthProcess::new(cfg, seed);
        // Burn-in so the trace starts in steady state.
        for _ in 0..50 {
            process.step(dt_ms / 1000.0);
        }
        let n = (duration_ms / dt_ms).ceil() as usize;
        let samples = (0..n).map(|_| process.step(dt_ms / 1000.0)).collect();
        Self { dt_ms, samples }
    }

    /// Sampling period (ms).
    pub fn dt_ms(&self) -> f64 {
        self.dt_ms
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty (never true for constructed traces).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Trace duration (ms).
    pub fn duration_ms(&self) -> f64 {
        self.samples.len() as f64 * self.dt_ms
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Bandwidth at absolute time `t_ms`, clamping beyond either end.
    pub fn at_ms(&self, t_ms: f64) -> f64 {
        if t_ms <= 0.0 {
            return self.samples[0];
        }
        let idx = ((t_ms / self.dt_ms) as usize).min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Mean bandwidth.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Empirical quantile `q ∈ [0, 1]` (nearest-rank): the sample at
    /// rank `round((len − 1) · q)` under `f64::total_cmp`. Selection
    /// finds it in linear time; under a total order that element is the
    /// one a full sort puts there, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let mut samples = self.samples.clone();
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        *samples.select_nth_unstable_by(idx, f64::total_cmp).1
    }

    /// The paper's two bandwidth types for a context: `(poor, good)` =
    /// (lower quartile, upper quartile).
    pub fn quartile_levels(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// Splits the trace at `t_ms` into `(before, after)` — e.g. a
    /// characterization half and a held-out execution half.
    ///
    /// # Panics
    ///
    /// Panics unless the split leaves at least one sample on each side.
    pub fn split_at_ms(&self, t_ms: f64) -> (BandwidthTrace, BandwidthTrace) {
        let idx = (t_ms / self.dt_ms).round() as usize;
        assert!(
            idx >= 1 && idx < self.samples.len(),
            "split must leave samples on both sides"
        );
        (
            BandwidthTrace::new(self.dt_ms, self.samples[..idx].to_vec()),
            BandwidthTrace::new(self.dt_ms, self.samples[idx..].to_vec()),
        )
    }
}

/// A replay cursor over a trace, advancing in wall-clock milliseconds.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a BandwidthTrace,
    t_ms: f64,
}

impl<'a> TraceCursor<'a> {
    /// Starts a cursor at t = 0.
    pub fn new(trace: &'a BandwidthTrace) -> Self {
        Self { trace, t_ms: 0.0 }
    }

    /// Current time (ms).
    pub fn time_ms(&self) -> f64 {
        self.t_ms
    }

    /// Bandwidth at the current position.
    pub fn bandwidth(&self) -> f64 {
        self.trace.at_ms(self.t_ms)
    }

    /// Advances by `dt_ms` (e.g. the latency a block just took).
    pub fn advance(&mut self, dt_ms: f64) {
        assert!(dt_ms >= 0.0, "cannot rewind a trace cursor");
        self.t_ms += dt_ms;
    }

    /// Whether the cursor ran past the end of the trace.
    pub fn exhausted(&self) -> bool {
        self.t_ms >= self.trace.duration_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64, n: usize) -> BandwidthTrace {
        BandwidthTrace::new(100.0, vec![v; n])
    }

    #[test]
    fn at_ms_indexes_and_clamps() {
        let t = BandwidthTrace::new(100.0, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.at_ms(0.0), 1.0);
        assert_eq!(t.at_ms(150.0), 2.0);
        assert_eq!(t.at_ms(1e9), 3.0);
        assert_eq!(t.at_ms(-5.0), 1.0);
    }

    #[test]
    fn quantiles_ordered() {
        let t = BandwidthTrace::new(100.0, (1..=100).map(|v| v as f64).collect());
        let (poor, good) = t.quartile_levels();
        assert!(poor < good);
        assert!((poor - 25.0).abs() <= 1.0);
        assert!((good - 75.0).abs() <= 1.0);
    }

    #[test]
    fn mean_and_std_of_flat_trace() {
        let t = flat(5.0, 10);
        assert_eq!(t.mean(), 5.0);
        assert_eq!(t.std_dev(), 0.0);
    }

    #[test]
    fn cursor_advances_and_exhausts() {
        let t = BandwidthTrace::new(100.0, vec![1.0, 2.0, 3.0]);
        let mut c = TraceCursor::new(&t);
        assert_eq!(c.bandwidth(), 1.0);
        c.advance(120.0);
        assert_eq!(c.bandwidth(), 2.0);
        assert!(!c.exhausted());
        c.advance(1000.0);
        assert!(c.exhausted());
    }

    #[test]
    fn split_partitions_samples() {
        let t = BandwidthTrace::new(100.0, (0..10).map(|v| v as f64).collect());
        let (a, b) = t.split_at_ms(400.0);
        assert_eq!(a.samples(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.samples(), &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(a.dt_ms(), 100.0);
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn split_rejects_degenerate_points() {
        let t = BandwidthTrace::new(100.0, vec![1.0, 2.0]);
        let _ = t.split_at_ms(0.0);
    }

    #[test]
    fn synthesize_is_deterministic() {
        let cfg = crate::process::ProcessConfig {
            mean_low: 3.0,
            mean_high: 10.0,
            reversion: 1.0,
            sigma: 1.5,
            switch_rate: 0.1,
            dropout_rate: 0.01,
            dropout_secs: 1.0,
            floor: 0.05,
        };
        let a = BandwidthTrace::synthesize(cfg, 10_000.0, 100.0, 7);
        let b = BandwidthTrace::synthesize(cfg, 10_000.0, 100.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn serde_roundtrip() {
        let t = BandwidthTrace::new(50.0, vec![1.5, 2.5]);
        let json = serde_json::to_string(&t).unwrap();
        let back: BandwidthTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
