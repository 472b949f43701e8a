//! Property-based tests for traces, processes and estimation.

#![cfg(test)]

use proptest::prelude::*;

use crate::estimator::BandwidthEstimator;
use crate::process::ProcessConfig;
use crate::trace::BandwidthTrace;

fn arb_cfg() -> impl Strategy<Value = ProcessConfig> {
    (0.5f64..5.0, 1.0f64..4.0, 0.2f64..3.0, 0.01f64..0.3).prop_map(
        |(mean_low, spread, sigma, switch_rate)| ProcessConfig {
            mean_low,
            mean_high: mean_low * (1.0 + spread),
            reversion: 1.0,
            sigma,
            switch_rate,
            dropout_rate: 0.02,
            dropout_secs: 1.0,
            floor: 0.05,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Synthesized traces respect the floor, determinism and quantile
    /// monotonicity for any process parameters.
    #[test]
    fn trace_invariants(cfg in arb_cfg(), seed in 0u64..1000) {
        let t = BandwidthTrace::synthesize(cfg, 20_000.0, 100.0, seed);
        prop_assert_eq!(t.len(), 200);
        prop_assert!(t.samples().iter().all(|&v| v >= cfg.floor));
        let again = BandwidthTrace::synthesize(cfg, 20_000.0, 100.0, seed);
        prop_assert_eq!(t.clone(), again);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = t.quantile(q);
            prop_assert!(v >= prev);
            prev = v;
        }
        // Quantile extremes bound every sample.
        let (min, max) = (t.quantile(0.0), t.quantile(1.0));
        prop_assert!(t.samples().iter().all(|&v| (min..=max).contains(&v)));
    }

    /// at_ms never panics and always returns an in-range sample.
    #[test]
    fn at_ms_total(cfg in arb_cfg(), seed in 0u64..1000, t_ms in -1e4f64..1e7) {
        let t = BandwidthTrace::synthesize(cfg, 10_000.0, 100.0, seed);
        let v = t.at_ms(t_ms);
        prop_assert!(t.samples().contains(&v));
    }

    /// The EMA estimator's output always lies within the range of values
    /// it has observed.
    #[test]
    fn estimator_stays_in_observed_range(
        values in proptest::collection::vec(0.1f64..100.0, 1..40),
    ) {
        let mut est = BandwidthEstimator::field();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            lo = lo.min(v);
            hi = hi.max(v);
            let e = est.observe(i as f64 * 600.0, v);
            prop_assert!(e >= lo - 1e-9 && e <= hi + 1e-9, "estimate {e} outside [{lo}, {hi}]");
        }
    }

    /// Splitting at any valid point conserves samples and order.
    #[test]
    fn split_conserves(cfg in arb_cfg(), seed in 0u64..200, frac in 0.05f64..0.95) {
        let t = BandwidthTrace::synthesize(cfg, 20_000.0, 100.0, seed);
        let at = (t.duration_ms() * frac).max(t.dt_ms());
        let (a, b) = t.split_at_ms(at);
        prop_assert_eq!(a.len() + b.len(), t.len());
        let mut joined = a.samples().to_vec();
        joined.extend_from_slice(b.samples());
        prop_assert_eq!(joined.as_slice(), t.samples());
    }
}

/// Trace samples drawn so that ties, `-0.0` and `+0.0` are common.
fn arb_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0f64),
        Just(0.0f64),
        (0u8..4).prop_map(f64::from),
        -50.0f64..50.0,
    ]
}

/// The sort-based nearest-rank quantile `quantile` must agree with.
fn sorted_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Selection returns the element a full `total_cmp` sort puts at the
    /// quantile's rank, bit for bit, on the full trace and on its
    /// one-sample prefix.
    #[test]
    fn quantile_matches_the_sorted_rank(
        samples in proptest::collection::vec(arb_sample(), 1..48),
        extra in 0.0f64..1.0,
    ) {
        let one = vec![samples[0]];
        for s in [&samples, &one] {
            let t = BandwidthTrace::new(100.0, s.clone());
            for q in [0.0, 0.25, 0.5, 0.75, 1.0, extra] {
                prop_assert_eq!(t.quantile(q).to_bits(), sorted_quantile(s, q).to_bits());
            }
        }
    }
}
