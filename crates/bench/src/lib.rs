//! # cadmc-bench
//!
//! The paper reproduction harness: one binary per table and figure of
//! the paper's evaluation (see `src/bin/`), plus `telemetry_overhead`,
//! which gates the disabled-instrumentation bound. End-to-end and
//! per-layer performance is measured by the separate `perfbench`
//! package. Shared formatting helpers live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Rollout worker pool for the harness binaries: `CADMC_WORKERS` if set,
/// otherwise the machine's available parallelism. Worker count never
/// affects results — only wall-clock time.
pub fn workers_from_env() -> cadmc_core::parallel::Parallelism {
    use cadmc_core::parallel::Parallelism;
    std::env::var("CADMC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or_else(Parallelism::available, Parallelism::new)
}

/// Formats a `(reward, latency, accuracy)` triple as table cells.
pub fn triple(v: (f64, f64, f64)) -> String {
    format!("{:>8.2} {:>9.2} {:>7.2}", v.0, v.1, v.2 * 100.0)
}

/// Renders a simple ASCII sparkline of a series (for reward curves).
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (TICKS.len() - 1) as f64).round() as usize;
            TICKS[idx.min(TICKS.len() - 1)]
        })
        .collect()
}

/// Downsamples a series to at most `n` evenly spaced points.
pub fn downsample(values: &[f64], n: usize) -> Vec<f64> {
    if values.len() <= n || n == 0 {
        return values.to_vec();
    }
    (0..n)
        .map(|i| values[i * (values.len() - 1) / (n - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_length_matches_input() {
        let s = sparkline(&[1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn downsample_preserves_endpoints() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&v, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 0.0);
        assert_eq!(*d.last().unwrap(), 99.0);
    }

    #[test]
    fn triple_formats_percentages() {
        let s = triple((350.0, 50.0, 0.92));
        assert!(s.contains("92.00"));
    }
}
