//! The cadmc end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <train-emulate|serve-hot|serve-churn|chaos-replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one workload through the public API of `cadmc-core`,
//! `cadmc-ir` and `cadmc-serve`, checks every output, prints a
//! human-readable account and, as its last line, one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics derived
//! from a JSONL trace (`--trace 1`). Exits non-zero on any wrong output.
//! See README.md for the workloads and the metric map.

mod chaos;
mod gen;
mod serve;
mod stats;
mod trace;
mod train;

use stats::{median, peak_rss_mb, quantile, tail, Tally};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Load threads, connections and rollout workers: the host's
    /// parallelism, capped at two so the workload stays the same on
    /// larger hosts.
    pub workers: usize,
    pub host_parallelism: usize,
}

const WORKLOADS: [&str; 4] = ["train-emulate", "serve-hot", "serve-churn", "chaos-replay"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|_| "invalid --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "invalid --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("invalid --trace {other:?} (0|1)")),
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        workers: host_parallelism.clamp(1, 2),
        host_parallelism,
    })
}

/// What a workload run hands back: notes, per-phase tallies and metrics.
#[derive(Debug, Default)]
pub struct Report {
    notes: Vec<String>,
    phases: Vec<(String, Tally)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn phase(&mut self, name: &str, tally: Tally) {
        self.phases.push((name.to_string(), tally));
    }

    /// Records a per-layer metric (traced run).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
        self.metrics.push((name.to_string(), value + 0.0, unit));
    }

    /// Records the end-to-end metrics of a measured phase: `done` ops in
    /// `wall_s` seconds with per-op latencies `lat_ms`, after set-ups
    /// that took `setup_s` each; `plan` is the executed plans' mean
    /// emulated request latency and accuracy.
    ///
    /// The median is taken over the mean latencies of `cycle`
    /// consecutive ops: 1 where ops are drawn from one mix, the length
    /// of the op cycle where the workload cycles through distinct op
    /// kinds, so that the median does not land in the gap between two
    /// kinds' costs.
    ///
    /// The tail and peak memory are printed but not gated: on the shared
    /// reference host they did not repeat within a tenth between runs
    /// (README.md).
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        lat_ms: &[f64],
        cycle: usize,
        done: u64,
        wall_s: f64,
        plan: (f64, f64),
    ) {
        let mut sorted = lat_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_ms, pct) = tail(&sorted);
        let q = |p| quantile(&sorted, p);
        let mut setups = setup_s.to_vec();
        setups.sort_by(f64::total_cmp);
        self.note(format!(
            "setup_s: {} set-ups, min {} s, median {} s, max {} s",
            setups.len(),
            quantile(&setups, 0.0),
            median(&setups),
            quantile(&setups, 1.0)
        ));
        self.note(format!(
            "op latency ms: p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} p99 {:.4}",
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(0.99)
        ));
        self.note(format!(
            "latency_tail_ms = {tail_ms} ms: p{pct:.3} of {} op latencies, 10 beyond it (printed, not gated)",
            sorted.len()
        ));
        self.note(format!(
            "peak_rss_mb = {} MB (VmHWM; printed, not gated)",
            peak_rss_mb()
        ));
        let m = &mut self.metrics;
        m.push(("setup_s".into(), median(setup_s), "s"));
        let cycle_ms: Vec<f64> = lat_ms
            .chunks(cycle)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        m.push(("throughput_per_s".into(), done as f64 / wall_s, "op/s"));
        m.push(("latency_p50_ms".into(), median(&cycle_ms), "ms"));
        m.push(("plan_latency_ms".into(), plan.0, "ms"));
        m.push(("plan_accuracy".into(), plan.1, "ratio"));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "train-emulate" => train::run(&args),
        "serve-hot" => serve::run(&args, serve::Mode::Hot),
        "serve-churn" => serve::run(&args, serve::Mode::Churn),
        _ => chaos::run(&args),
    };
    let mut r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let mut total = Tally::default();
    for (_, t) in &r.phases {
        total.merge(t);
    }
    let fail_ratio = total.failed() as f64 / total.sent.max(1) as f64;
    if args.trace {
        r.layer("fail_ratio", fail_ratio, "ratio");
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_parallelism={} workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.host_parallelism,
        args.workers
    );
    for n in &r.notes {
        println!("{n}");
    }
    if args.trace {
        println!("trace file: {}", trace::trace_path(&args).display());
    }
    for (name, t) in &r.phases {
        println!("{}", t.line(name));
    }
    println!(
        "total: attempted={} failed={} fail_ratio={fail_ratio:.6}",
        total.sent,
        total.failed()
    );
    let mut json = Vec::new();
    for (name, v, unit) in &r.metrics {
        println!("metric {name} = {v} {unit}");
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            std::process::exit(1);
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = total.failed() == 0 && total.sent > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.sent,
        total.failed(),
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
