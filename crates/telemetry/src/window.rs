//! Deterministic windowed aggregation over virtual time.
//!
//! A [`WindowAggregator`] accumulates latency/transfer histograms and
//! outcome counters keyed by `(tenant, outcome)` into fixed-width
//! virtual-time slices; a sliding window over the most recent
//! `window_ms` of slices is what snapshots and quantiles read from.
//! Everything is engineered for *byte-identical* results regardless of
//! the order samples were recorded in:
//!
//! - All keys live in `BTreeMap`s, so iteration order is the key order,
//!   never insertion order.
//! - Samples are quantized to integer micro-units at record time
//!   (`value × 1000`, rounded). Sums are `u64` adds — associative and
//!   commutative — so folding the live slices into a snapshot produces
//!   the same bytes for any recording order (float accumulation would
//!   not).
//! - Quantile readout is exact over the fixed buckets: `quantile(q)`
//!   returns the upper bound of the bucket containing rank
//!   `ceil(q × count)`, a deterministic function of the counts alone.
//!
//! The clock is always the *caller's* clock. The serving scheduler
//! feeds virtual milliseconds, the TCP front-end feeds wall
//! milliseconds; the aggregator never reads `std::time` itself (pinned
//! by lint L9).

use std::collections::BTreeMap;

/// Micro-units per unit: samples are stored as `round(value × 1000)`.
const SCALE: f64 = 1000.0;

/// Default latency bucket upper bounds, in milliseconds.
pub const DEFAULT_LATENCY_BOUNDS_MS: &[f64] = &[
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
];

/// Default transfer bucket upper bounds, in bytes.
pub const DEFAULT_TRANSFER_BOUNDS_BYTES: &[f64] = &[
    1_024.0,
    16_384.0,
    65_536.0,
    262_144.0,
    1_048_576.0,
    4_194_304.0,
    16_777_216.0,
];

/// Shape of one aggregation window: its span, its slice granularity and
/// the two bucket layouts every cell shares.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Sliding-window span in caller-clock milliseconds.
    pub window_ms: f64,
    /// Width of one time slice; the window holds
    /// `ceil(window_ms / slice_ms)` slices and expires whole slices.
    pub slice_ms: f64,
    /// Ascending upper bounds for latency samples (milliseconds).
    pub latency_bounds_ms: Vec<f64>,
    /// Ascending upper bounds for transfer samples (bytes).
    pub transfer_bounds: Vec<f64>,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_ms: 60_000.0,
            slice_ms: 1_000.0,
            latency_bounds_ms: DEFAULT_LATENCY_BOUNDS_MS.to_vec(),
            transfer_bounds: DEFAULT_TRANSFER_BOUNDS_BYTES.to_vec(),
        }
    }
}

impl WindowConfig {
    /// Number of whole slices the window spans (at least 1).
    fn slices(&self) -> u64 {
        let slice = self.slice_ms.max(1e-9);
        (self.window_ms / slice).ceil().max(1.0) as u64
    }

    /// Slice index a timestamp falls into (clamped at 0).
    fn slice_of(&self, t_ms: f64) -> u64 {
        let slice = self.slice_ms.max(1e-9);
        (t_ms.max(0.0) / slice).floor() as u64
    }
}

/// A fixed-bucket histogram with integer micro-unit sums.
///
/// Bounds live in the owning [`WindowConfig`]; the cell stores only
/// counts so per-key state stays compact. `sum_micros` is the sum of
/// quantized samples — integer, so folding slices is associative.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowHist {
    /// Per-bucket counts; `len() == bounds.len() + 1` (last = overflow).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of samples in micro-units (`value × 1000`, rounded).
    pub sum_micros: u64,
}

impl WindowHist {
    fn new(buckets: usize) -> Self {
        WindowHist {
            counts: vec![0; buckets + 1],
            count: 0,
            sum_micros: 0,
        }
    }

    /// Records one sample against `bounds` (the same slice later passed
    /// to [`quantile`](Self::quantile)): a value exactly on a bound
    /// lands in that bound's bucket, values above the last bound land in
    /// the overflow bucket, and non-finite or negative samples are
    /// dropped. The sum quantizes to integer micro-units so slice
    /// folds stay associative.
    pub fn record(&mut self, bounds: &[f64], value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        let idx = bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(bounds.len());
        if self.counts.len() < bounds.len() + 1 {
            // A Default-built hist starts with no buckets; size lazily
            // so it is usable with any bounds slice.
            self.counts.resize(bounds.len() + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_micros = self
            .sum_micros
            .saturating_add((value * SCALE).round() as u64);
    }

    fn merge_from(&mut self, other: &WindowHist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
    }

    /// Sum of recorded samples in original units.
    pub fn sum(&self) -> f64 {
        self.sum_micros as f64 / SCALE
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Exact fixed-bucket quantile: the upper bound of the bucket that
    /// contains rank `ceil(q × count)` (1-based). Samples in the
    /// overflow bucket read as `f64::INFINITY`; an empty histogram reads
    /// as 0.0. Deterministic in the counts alone.
    pub fn quantile(&self, q: f64, bounds: &[f64]) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }
}

/// Per-`(tenant, outcome)` aggregation cell: an event count plus the
/// latency and transfer histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cell {
    /// Events recorded against this key (admissions, sheds, …).
    pub count: u64,
    /// Latency samples (milliseconds).
    pub latency: WindowHist,
    /// Transfer samples (bytes).
    pub transfer: WindowHist,
}

/// One fixed-width time slice of cells, by tenant, then outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Slice {
    cells: BTreeMap<String, BTreeMap<String, Cell>>,
}

impl Slice {
    /// The `(tenant, outcome)` cell, created on first use. Looking up an
    /// existing cell by `&str` allocates no key.
    fn cell(&mut self, tenant: &str, outcome: &str, cfg: &WindowConfig) -> &mut Cell {
        if !self.cells.contains_key(tenant) {
            self.cells.insert(tenant.to_string(), BTreeMap::new());
        }
        let outcomes = self.cells.get_mut(tenant).expect("inserted above");
        if !outcomes.contains_key(outcome) {
            let cell = Cell {
                count: 0,
                latency: WindowHist::new(cfg.latency_bounds_ms.len()),
                transfer: WindowHist::new(cfg.transfer_bounds.len()),
            };
            outcomes.insert(outcome.to_string(), cell);
        }
        outcomes.get_mut(outcome).expect("inserted above")
    }
}

/// Sliding-window aggregator over an external clock.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregator {
    cfg: WindowConfig,
    slices: BTreeMap<u64, Slice>,
    /// Latest timestamp ever observed (drives expiry).
    now_ms: f64,
}

impl WindowAggregator {
    /// An empty aggregator over `cfg`'s window shape.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowAggregator {
            cfg,
            slices: BTreeMap::new(),
            now_ms: 0.0,
        }
    }

    /// The window configuration.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Advances the clock to `t_ms` (monotone: older stamps are kept at
    /// the current now) and expires slices that fell out of the window.
    pub fn advance(&mut self, t_ms: f64) {
        if t_ms > self.now_ms {
            self.now_ms = t_ms;
        }
        let newest = self.cfg.slice_of(self.now_ms);
        let span = self.cfg.slices();
        let oldest_live = newest.saturating_sub(span.saturating_sub(1));
        self.slices.retain(|idx, _| *idx >= oldest_live);
    }

    /// Records an outcome event (no sample) for `(tenant, outcome)` at
    /// `t_ms`.
    pub fn observe_count(&mut self, t_ms: f64, tenant: &str, outcome: &str, n: u64) {
        self.advance(t_ms);
        let idx = self.cfg.slice_of(t_ms);
        self.slices
            .entry(idx)
            .or_default()
            .cell(tenant, outcome, &self.cfg)
            .count += n;
    }

    /// Records one latency sample (milliseconds) and counts the event.
    pub fn observe_latency(&mut self, t_ms: f64, tenant: &str, outcome: &str, latency_ms: f64) {
        self.advance(t_ms);
        let idx = self.cfg.slice_of(t_ms);
        let cell = self
            .slices
            .entry(idx)
            .or_default()
            .cell(tenant, outcome, &self.cfg);
        cell.count += 1;
        cell.latency.record(&self.cfg.latency_bounds_ms, latency_ms);
    }

    /// Records one transfer sample (bytes) without counting an event
    /// (transfers ride along with an already-counted request).
    pub fn observe_transfer(&mut self, t_ms: f64, tenant: &str, outcome: &str, bytes: f64) {
        self.advance(t_ms);
        let idx = self.cfg.slice_of(t_ms);
        self.slices
            .entry(idx)
            .or_default()
            .cell(tenant, outcome, &self.cfg)
            .transfer
            .record(&self.cfg.transfer_bounds, bytes);
    }

    /// Snapshot of everything inside the current window, keys sorted.
    pub fn snapshot(&self) -> WindowSnapshot {
        let newest = self.cfg.slice_of(self.now_ms);
        let span = self.cfg.slices();
        let oldest_live = newest.saturating_sub(span.saturating_sub(1));
        let mut keys: BTreeMap<(String, String), Cell> = BTreeMap::new();
        for (idx, slice) in &self.slices {
            if *idx < oldest_live {
                continue;
            }
            let cells = slice
                .cells
                .iter()
                .flat_map(|(t, outcomes)| outcomes.iter().map(move |(o, c)| (t, o, c)));
            for (tenant, outcome, cell) in cells {
                let key = (tenant.clone(), outcome.clone());
                let d = keys.entry(key).or_insert_with(|| Cell {
                    count: 0,
                    latency: WindowHist::new(self.cfg.latency_bounds_ms.len()),
                    transfer: WindowHist::new(self.cfg.transfer_bounds.len()),
                });
                d.count += cell.count;
                d.latency.merge_from(&cell.latency);
                d.transfer.merge_from(&cell.transfer);
            }
        }
        WindowSnapshot {
            window_start_ms: oldest_live as f64 * self.cfg.slice_ms,
            now_ms: self.now_ms,
            latency_bounds_ms: self.cfg.latency_bounds_ms.clone(),
            transfer_bounds: self.cfg.transfer_bounds.clone(),
            cells: keys.into_iter().collect(),
        }
    }
}

/// Immutable merged view of one window, keys in `(tenant, outcome)`
/// order. [`render`](WindowSnapshot::render) is the canonical
/// byte-comparable text form.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Start of the oldest live slice (caller-clock milliseconds).
    pub window_start_ms: f64,
    /// The aggregator's clock at snapshot time.
    pub now_ms: f64,
    /// Latency bucket bounds the cells share.
    pub latency_bounds_ms: Vec<f64>,
    /// Transfer bucket bounds the cells share.
    pub transfer_bounds: Vec<f64>,
    /// Merged per-key cells, sorted by `(tenant, outcome)`.
    pub cells: Vec<((String, String), Cell)>,
}

/// Renders a quantile value: finite values with 3 decimals, overflow as
/// `+Inf` (Prometheus spelling).
fn fmt_q(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "+Inf".to_string()
    }
}

impl WindowSnapshot {
    /// Cell lookup by tenant and outcome.
    pub fn cell(&self, tenant: &str, outcome: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|((t, o), _)| t == tenant && o == outcome)
            .map(|(_, c)| c)
    }

    /// Total event count across all keys.
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|(_, c)| c.count).sum()
    }

    /// Canonical fixed-precision text rendering — one line per key with
    /// count, latency p50/p95/p99/mean and transfer totals. Two
    /// snapshots built from the same samples render byte-identically
    /// regardless of recording order (integer sums, sorted keys, fixed
    /// `{:.3}` formatting).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "window {:.3}..{:.3} keys {}\n",
            self.window_start_ms,
            self.now_ms,
            self.cells.len()
        ));
        for ((tenant, outcome), cell) in &self.cells {
            let l = &cell.latency;
            let t = &cell.transfer;
            out.push_str(&format!(
                "{tenant} {outcome} count={} lat_n={} lat_p50={} lat_p95={} lat_p99={} lat_mean={:.3} xfer_n={} xfer_sum={:.0}\n",
                cell.count,
                l.count,
                fmt_q(l.quantile(0.50, &self.latency_bounds_ms)),
                fmt_q(l.quantile(0.95, &self.latency_bounds_ms)),
                fmt_q(l.quantile(0.99, &self.latency_bounds_ms)),
                l.mean(),
                t.count,
                t.sum(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WindowConfig {
        WindowConfig {
            window_ms: 10_000.0,
            slice_ms: 1_000.0,
            latency_bounds_ms: vec![10.0, 100.0, 1_000.0],
            transfer_bounds: vec![1_000.0, 1_000_000.0],
        }
    }

    #[test]
    fn counts_and_quantiles_read_back() {
        let mut w = WindowAggregator::new(cfg());
        for i in 0..10 {
            w.observe_latency(100.0 * i as f64, "t0", "ok", 5.0 + i as f64);
        }
        let snap = w.snapshot();
        let cell = snap.cell("t0", "ok").expect("cell exists");
        assert_eq!(cell.count, 10);
        assert_eq!(cell.latency.count, 10);
        // 5..=9 fall in le=10, 10..=14 in le=100.
        assert_eq!(cell.latency.counts, vec![6, 4, 0, 0]);
        assert_eq!(cell.latency.quantile(0.50, &snap.latency_bounds_ms), 10.0);
        assert_eq!(cell.latency.quantile(0.99, &snap.latency_bounds_ms), 100.0);
    }

    #[test]
    fn quantile_bucket_boundaries_pin() {
        let bounds = vec![1.0, 2.0, 4.0];
        let mut h = WindowHist::new(bounds.len());
        // Exactly-on-bound samples land in that bound's bucket (le).
        h.record(&bounds, 1.0);
        h.record(&bounds, 2.0);
        h.record(&bounds, 4.0);
        h.record(&bounds, 5.0);
        assert_eq!(h.counts, vec![1, 1, 1, 1]);
        // rank(ceil(.5*4)=2) -> bucket le=2.
        assert_eq!(h.quantile(0.50, &bounds), 2.0);
        // rank(ceil(.75*4)=3) -> bucket le=4.
        assert_eq!(h.quantile(0.75, &bounds), 4.0);
        // rank 4 -> overflow.
        assert!(h.quantile(0.99, &bounds).is_infinite());
        // q=0 still reads rank 1.
        assert_eq!(h.quantile(0.0, &bounds), 1.0);
        // Empty histogram reads 0.
        assert_eq!(WindowHist::new(3).quantile(0.5, &bounds), 0.0);
    }

    #[test]
    fn window_expires_old_slices() {
        let mut w = WindowAggregator::new(cfg());
        w.observe_latency(0.0, "t0", "ok", 1.0);
        w.observe_latency(500.0, "t0", "ok", 1.0);
        assert_eq!(w.snapshot().total(), 2);
        // 10 s window, 1 s slices: at t=10.5s slice 0 has expired.
        w.advance(10_500.0);
        assert_eq!(w.snapshot().total(), 0);
    }

    #[test]
    fn non_finite_and_negative_samples_are_dropped() {
        let bounds = vec![1.0];
        let mut h = WindowHist::new(1);
        h.record(&bounds, f64::NAN);
        h.record(&bounds, f64::INFINITY);
        h.record(&bounds, -1.0);
        assert_eq!(h.count, 0);
        assert_eq!(h.sum_micros, 0);
    }
}
