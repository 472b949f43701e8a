//! Run-level metrics: counters, gauges, and fixed-bucket histograms.
//!
//! The registry lives behind the global collector and is mutated through
//! the `counter!`/`gauge!`/`hist!` macros (or their function forms).
//! Subsystems that keep their own counters — e.g. the memo pool's
//! hit/miss counts — accumulate locally and publish totals here once,
//! so hot paths never touch the registry lock.
//!
//! Storage is `BTreeMap`-backed so snapshots enumerate in name order:
//! metric lines in a trace are deterministic byte-for-byte when the
//! recorded values are.

use std::collections::BTreeMap;

/// A fixed-bucket histogram with Prometheus-style `le` (less-or-equal)
/// upper bounds plus one overflow bucket.
///
/// `counts[i]` counts samples `v` with `bounds[i-1] < v <= bounds[i]`;
/// `counts[bounds.len()]` counts samples above the last bound.
/// Non-finite samples are dropped (JSON cannot carry NaN/Inf).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `len() == bounds.len() + 1` (last = overflow).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: f64,
}

impl Histogram {
    /// Creates an empty histogram over the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Index of the bucket a sample falls into (overflow = `bounds.len()`).
    pub fn bucket_index(bounds: &[f64], value: f64) -> usize {
        bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(bounds.len())
    }

    /// Records one sample; non-finite samples are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = Self::bucket_index(&self.bounds, value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Mutable registry state (behind the collector's mutex).
#[derive(Debug, Default)]
pub(crate) struct MetricsState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsState {
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub(crate) fn gauge_set(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.gauges.insert(name.to_string(), value);
        }
    }

    pub(crate) fn hist_record(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.hists
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// Immutable end-of-run view of the registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, f64)>,
    /// Fixed-bucket histograms.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Counter lookup by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Gauge lookup by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram lookup by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}
