//! Online bandwidth estimation.
//!
//! In the paper's emulation the decision engine reads the replayed trace
//! directly; in the field test it only has "a coarse estimation of network
//! conditions" — which the paper names as one of the two sources of the
//! emulation→field gap (§VII-B3). [`BandwidthEstimator`] models that
//! coarseness: an exponentially-smoothed, periodically-refreshed view of
//! the true bandwidth.

use cadmc_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Histogram buckets for observed true bandwidth (Mbps).
const BANDWIDTH_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];

/// A smoothed, stale view of true bandwidth, as a probing-based estimator
/// on a real device would provide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthEstimator {
    /// EMA smoothing factor in `(0, 1]`; 1.0 means no smoothing.
    alpha: f64,
    /// Minimum interval between probe refreshes (ms).
    probe_interval_ms: f64,
    estimate: Option<f64>,
    last_probe_ms: f64,
}

impl BandwidthEstimator {
    /// An estimator with EMA factor `alpha` probing at most every
    /// `probe_interval_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or the interval is negative.
    pub fn new(alpha: f64, probe_interval_ms: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(
            probe_interval_ms >= 0.0,
            "probe interval must be non-negative"
        );
        Self {
            alpha,
            probe_interval_ms,
            estimate: None,
            last_probe_ms: f64::NEG_INFINITY,
        }
    }

    /// An ideal estimator that always returns the true bandwidth
    /// (emulation mode).
    pub fn ideal() -> Self {
        Self::new(1.0, 0.0)
    }

    /// The paper-motivated field-mode estimator: heavy smoothing, 500 ms
    /// probe cadence.
    pub fn field() -> Self {
        Self::new(0.35, 500.0)
    }

    /// Observes the true bandwidth at time `now_ms` and returns the
    /// current estimate. Between probe refreshes the previous estimate is
    /// returned unchanged (staleness).
    pub fn observe(&mut self, now_ms: f64, true_bandwidth: f64) -> f64 {
        telemetry::hist!("net.bandwidth_mbps", BANDWIDTH_BOUNDS, true_bandwidth);
        let est = self.observe_inner(now_ms, true_bandwidth);
        telemetry::gauge!("net.bandwidth_estimate", est);
        est
    }

    fn observe_inner(&mut self, now_ms: f64, true_bandwidth: f64) -> f64 {
        match self.estimate {
            None => {
                self.estimate = Some(true_bandwidth);
                self.last_probe_ms = now_ms;
                true_bandwidth
            }
            Some(prev) => {
                if now_ms - self.last_probe_ms >= self.probe_interval_ms {
                    let next = self.alpha * true_bandwidth + (1.0 - self.alpha) * prev;
                    self.estimate = Some(next);
                    self.last_probe_ms = now_ms;
                    next
                } else {
                    prev
                }
            }
        }
    }

    /// Observes like [`BandwidthEstimator::observe`], but with probe
    /// refreshes *held* (e.g. probe packets lost during an
    /// estimator-freeze fault): the previous estimate is returned and the
    /// probe clock does not advance, so the estimate keeps aging. The
    /// very first observation still initializes the estimate — a frozen
    /// estimator with no history has nothing stale to return.
    pub fn observe_held(&mut self, now_ms: f64, true_bandwidth: f64) -> f64 {
        telemetry::hist!("net.bandwidth_mbps", BANDWIDTH_BOUNDS, true_bandwidth);
        let est = match self.estimate {
            None => self.observe_inner(now_ms, true_bandwidth),
            Some(prev) => prev,
        };
        telemetry::gauge!("net.bandwidth_estimate", est);
        est
    }

    /// Age of the current estimate at `now_ms`: time since the last probe
    /// refresh. Infinite before the first observation.
    pub fn age_ms(&self, now_ms: f64) -> f64 {
        now_ms - self.last_probe_ms
    }

    /// Whether the estimate is stale at `now_ms`: older than
    /// `freeze_window_ms` (or never refreshed at all). A stale estimate
    /// must not be trusted for a fork decision — Alg. 2 re-measures
    /// instead.
    pub fn is_stale(&self, now_ms: f64, freeze_window_ms: f64) -> bool {
        self.estimate.is_none() || self.age_ms(now_ms) > freeze_window_ms
    }

    /// The current estimate, if any observation happened yet.
    pub fn current(&self) -> Option<f64> {
        self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_estimator_tracks_exactly() {
        let mut e = BandwidthEstimator::ideal();
        assert_eq!(e.observe(0.0, 5.0), 5.0);
        assert_eq!(e.observe(1.0, 9.0), 9.0);
        assert_eq!(e.observe(2.0, 1.0), 1.0);
    }

    #[test]
    fn field_estimator_lags_a_step_change() {
        let mut e = BandwidthEstimator::field();
        e.observe(0.0, 10.0);
        // True bandwidth collapses to 1; the estimate should lag above it.
        let est = e.observe(600.0, 1.0);
        assert!(est > 1.0, "estimate {est} should lag the collapse");
        assert!(est < 10.0);
    }

    #[test]
    fn staleness_between_probes() {
        let mut e = BandwidthEstimator::new(1.0, 500.0);
        assert_eq!(e.observe(0.0, 4.0), 4.0);
        // 100 ms later the probe hasn't refreshed: still 4.
        assert_eq!(e.observe(100.0, 40.0), 4.0);
        // After the interval it updates.
        assert_eq!(e.observe(600.0, 40.0), 40.0);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = BandwidthEstimator::field();
        let mut est = 0.0;
        for i in 0..50 {
            est = e.observe(i as f64 * 600.0, 7.0);
        }
        assert!((est - 7.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = BandwidthEstimator::new(0.0, 100.0);
    }

    #[test]
    fn fresh_estimator_is_stale_until_first_observation() {
        let mut e = BandwidthEstimator::field();
        assert!(
            e.is_stale(0.0, 1_000.0),
            "no history means nothing trustworthy"
        );
        assert_eq!(e.age_ms(0.0), f64::INFINITY);
        e.observe(0.0, 8.0);
        assert!(!e.is_stale(0.0, 1_000.0));
        assert_eq!(e.age_ms(250.0), 250.0);
    }

    #[test]
    fn age_exceeding_freeze_window_is_flagged_stale() {
        let mut e = BandwidthEstimator::field();
        e.observe(0.0, 8.0);
        assert!(
            !e.is_stale(1_000.0, 1_000.0),
            "age == window is still fresh"
        );
        assert!(e.is_stale(1_000.1, 1_000.0), "age beyond window is stale");
    }

    #[test]
    fn held_observation_returns_stale_estimate_and_keeps_aging() {
        let mut e = BandwidthEstimator::new(1.0, 0.0);
        assert_eq!(e.observe(0.0, 4.0), 4.0);
        // Frozen probes: the true bandwidth collapsed but the estimator
        // cannot see it, and its age keeps growing.
        assert_eq!(e.observe_held(500.0, 0.1), 4.0);
        assert_eq!(e.observe_held(2_500.0, 0.1), 4.0);
        assert_eq!(e.age_ms(2_500.0), 2_500.0);
        assert!(e.is_stale(2_500.0, 1_000.0));
    }

    #[test]
    fn stale_estimate_forces_a_remeasure_on_thaw() {
        // Alg. 2's contract: once the estimate is stale, do not trust it —
        // the next *unheld* observation must re-measure immediately, even
        // for a slow-probing estimator whose interval hasn't elapsed since
        // the last successful refresh... which is exactly what happens
        // here because the probe clock did not advance while held.
        let mut e = BandwidthEstimator::new(1.0, 500.0);
        e.observe(0.0, 9.0);
        assert_eq!(e.observe_held(400.0, 0.2), 9.0);
        assert!(e.is_stale(600.0, 500.0));
        // Thawed: age (600 ms) exceeds the probe interval, so the refresh
        // fires and the decision sees the true (collapsed) bandwidth.
        assert_eq!(e.observe(600.0, 0.2), 0.2);
        assert!(!e.is_stale(600.0, 500.0));
    }

    #[test]
    fn first_held_observation_initializes() {
        let mut e = BandwidthEstimator::field();
        assert_eq!(e.observe_held(0.0, 6.0), 6.0);
        assert_eq!(e.current(), Some(6.0));
    }
}
