//! Trace statistics: the fluctuation metrics behind the paper's Fig. 1
//! argument ("the bandwidth changes drastically even within a small time
//! window like 1 s") and behind scenario characterization.

use crate::trace::BandwidthTrace;

/// Summary statistics of a bandwidth trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Mean bandwidth (Mbps).
    pub mean: f64,
    /// Standard deviation (Mbps).
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`).
    pub cv: f64,
    /// Largest min→max swing inside any window of `window_ms` (Mbps).
    pub max_window_swing: f64,
    /// Lag-1 autocorrelation of the sample series.
    pub autocorrelation: f64,
    /// Fraction of samples below 25 % of the mean (outage-ish time).
    pub outage_fraction: f64,
}

/// Computes [`TraceStats`] with swings measured over `window_ms` windows.
///
/// # Panics
///
/// Panics if `window_ms` is smaller than the trace's sampling period.
pub fn trace_stats(trace: &BandwidthTrace, window_ms: f64) -> TraceStats {
    assert!(
        window_ms >= trace.dt_ms(),
        "window must cover at least one sample"
    );
    let s = trace.samples();
    let n = s.len() as f64;
    let mean = trace.mean();
    let std_dev = trace.std_dev();
    let cv = if mean > 0.0 { std_dev / mean } else { 0.0 };

    let w = (window_ms / trace.dt_ms()).round().max(1.0) as usize;
    let mut max_window_swing: f64 = 0.0;
    if s.len() >= w {
        for win in s.windows(w) {
            let lo = win.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = win.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            max_window_swing = max_window_swing.max(hi - lo);
        }
    }

    let autocorrelation = if s.len() >= 2 && std_dev > 0.0 {
        let cov: f64 = s
            .windows(2)
            .map(|p| (p[0] - mean) * (p[1] - mean))
            .sum::<f64>()
            / (n - 1.0);
        (cov / (std_dev * std_dev)).clamp(-1.0, 1.0)
    } else {
        0.0
    };

    let outage_fraction = s.iter().filter(|&&v| v < 0.25 * mean).count() as f64 / n;

    TraceStats {
        mean,
        std_dev,
        cv,
        max_window_swing,
        autocorrelation,
        outage_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn flat_trace_has_zero_variation() {
        let t = BandwidthTrace::new(100.0, vec![5.0; 100]);
        let st = trace_stats(&t, 1000.0);
        assert_eq!(st.mean, 5.0);
        assert_eq!(st.std_dev, 0.0);
        assert_eq!(st.cv, 0.0);
        assert_eq!(st.max_window_swing, 0.0);
        assert_eq!(st.outage_fraction, 0.0);
    }

    #[test]
    fn alternating_trace_swings_fully_within_window() {
        let samples: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        let t = BandwidthTrace::new(100.0, samples);
        let st = trace_stats(&t, 1000.0);
        assert_eq!(st.max_window_swing, 8.0);
        // Perfectly alternating series has strongly negative lag-1
        // autocorrelation.
        assert!(st.autocorrelation < -0.9);
    }

    #[test]
    fn smooth_series_has_positive_autocorrelation() {
        let samples: Vec<f64> = (0..200).map(|i| 5.0 + (i as f64 * 0.05).sin()).collect();
        let t = BandwidthTrace::new(100.0, samples);
        let st = trace_stats(&t, 1000.0);
        assert!(st.autocorrelation > 0.8, "got {}", st.autocorrelation);
    }

    #[test]
    fn volatile_scenarios_have_higher_cv() {
        let quick = trace_stats(&Scenario::FourGOutdoorQuick.trace(1), 1000.0);
        let still = trace_stats(&Scenario::FourGIndoorStatic.trace(1), 1000.0);
        assert!(quick.cv > 2.0 * still.cv, "{} vs {}", quick.cv, still.cv);
    }

    #[test]
    fn fig1_claim_holds_for_volatile_scene() {
        // "changes drastically even within a small time window like 1 s".
        let st = trace_stats(&Scenario::FourGOutdoorQuick.trace(2), 1000.0);
        assert!(
            st.max_window_swing > st.mean * 0.5,
            "1 s swing {:.2} vs mean {:.2}",
            st.max_window_swing,
            st.mean
        );
    }
}
