//! Windowed-aggregation quantile boundary pins.
//!
//! The quantile contract is exact fixed-bucket readout: the reported
//! quantile is the upper bound of the bucket containing rank
//! `ceil(q * count)`, and the overflow bucket reads `+Inf`.

use cadmc_telemetry::WindowHist;

const BOUNDS: &[f64] = &[10.0, 20.0, 40.0];

#[test]
fn quantile_reads_upper_bound_of_rank_bucket() {
    let mut h = WindowHist::default();
    // Four samples: buckets (..10], (10..20], (20..40], overflow.
    for v in [5.0, 15.0, 30.0, 100.0] {
        h.record(BOUNDS, v);
    }
    // rank(ceil(q*4)): p25 -> 1st sample's bucket, p50 -> 2nd, ...
    assert_eq!(h.quantile(0.25, BOUNDS), 10.0);
    assert_eq!(h.quantile(0.5, BOUNDS), 20.0);
    assert_eq!(h.quantile(0.75, BOUNDS), 40.0);
    assert_eq!(h.quantile(1.0, BOUNDS), f64::INFINITY);
}

#[test]
fn quantile_on_exact_bound_stays_in_that_bucket() {
    let mut h = WindowHist::default();
    // A sample exactly on a bound belongs to that bound's bucket.
    h.record(BOUNDS, 20.0);
    assert_eq!(h.quantile(0.5, BOUNDS), 20.0);
    assert_eq!(h.quantile(0.99, BOUNDS), 20.0);
    let mut above = WindowHist::default();
    above.record(BOUNDS, 20.0 + 1e-6);
    assert_eq!(above.quantile(0.5, BOUNDS), 40.0);
}

#[test]
fn quantile_of_empty_hist_is_zero_and_single_sample_saturates() {
    let h = WindowHist::default();
    assert_eq!(h.quantile(0.99, BOUNDS), 0.0);
    let mut one = WindowHist::default();
    one.record(BOUNDS, 3.0);
    // Every quantile of a single observation reads its bucket.
    assert_eq!(one.quantile(0.01, BOUNDS), 10.0);
    assert_eq!(one.quantile(0.99, BOUNDS), 10.0);
}
