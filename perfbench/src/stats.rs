//! Order statistics, process memory and per-phase accounting.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The value at quantile `q` of `sorted` (nearest rank below).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let i = ((sorted.len().max(1) - 1) as f64 * q) as usize;
    sorted.get(i).copied().unwrap_or(0.0)
}

/// The tail the benchmark reports: the highest percentile that still
/// has at least ten samples beyond it, i.e. the value with exactly ten
/// larger samples. Returns `(value, percentile)`; with ten samples or
/// fewer it is the maximum, labelled percentile 100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    match sorted.len() {
        0 => (0.0, 0.0),
        n if n <= 10 => (sorted[n - 1], 100.0),
        n => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the expected output.
    Done,
    /// Completed, but the output differs from the reference.
    Wrong,
    /// Load-shed by the server (`shed:*`).
    Shed,
    /// Rejected as posed (`rejected:*`).
    Rejected,
    /// Transport, protocol or program error.
    Error,
}

/// Per-phase op accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub done: u64,
    pub wrong: u64,
    pub shed: u64,
    pub rejected: u64,
    pub errors: u64,
}

impl Tally {
    pub fn add(&mut self, o: Outcome) {
        self.sent += 1;
        match o {
            Outcome::Done => self.done += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.done += o.done;
        self.wrong += o.wrong;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.errors += o.errors;
    }

    /// Ops that did not complete with the expected output.
    pub fn failed(&self) -> u64 {
        self.sent - self.done
    }

    pub fn line(&self, phase: &str) -> String {
        format!(
            "phase {phase:<9} sent={} done={} shed={} rejected={} errors={} wrong={} fail_ratio={:.6}",
            self.sent,
            self.done,
            self.shed,
            self.rejected,
            self.errors,
            self.wrong,
            self.failed() as f64 / self.sent.max(1) as f64
        )
    }
}
