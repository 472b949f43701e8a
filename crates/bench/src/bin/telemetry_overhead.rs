//! Quantifies the cost of the always-compiled telemetry layer and writes
//! `results/BENCH_telemetry_overhead.json` (override the path with
//! `CADMC_BENCH_OUT`).
//!
//! Telemetry is **off by default**; the acceptance bar is that the
//! disabled instrumentation costs `optimal_branch` less than 2% of its
//! runtime. Measuring that directly is below timer noise, so the bound
//! is computed from first principles:
//!
//! 1. time the *disabled* per-site cost (one relaxed atomic load) by
//!    hammering `span!` / `counter!` / `hist!` in a tight loop;
//! 2. count how many instrumentation sites one search actually passes
//!    (events + histogram samples, from a collected trace);
//! 3. bound: `sites_per_search x disabled_ns_per_site / search_ns`.
//!
//! A disabled-vs-enabled end-to-end comparison is reported alongside so
//! the price of turning tracing *on* is visible too. The process exits
//! non-zero when the disabled bound reaches 2%, so CI gates on it.

use std::process::ExitCode;
use std::time::Instant;

use cadmc_core::branch::optimal_branch;
use cadmc_core::memo::MemoPool;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::EvalEnv;
use cadmc_latency::Mbps;
use cadmc_nn::zoo;
use cadmc_telemetry as telemetry;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    episodes: usize,
    reps: usize,
    disabled_ns_per_site: f64,
    sites_per_search: u64,
    disabled_search_ms: f64,
    enabled_search_ms: f64,
    disabled_overhead_bound_pct: f64,
    enabled_overhead_pct: f64,
    pass_under_2pct: bool,
    note: String,
}

/// Per-site disabled cost: each macro site is one relaxed atomic load
/// when no collector is installed.
fn disabled_ns_per_site() -> f64 {
    assert!(!telemetry::enabled(), "collector must not be installed yet");
    const ITERS: u64 = 20_000_000;
    const BOUNDS: &[f64] = &[1.0, 2.0, 4.0];
    let start = Instant::now();
    for i in 0..ITERS {
        let span = telemetry::span!("bench.noop", i = i);
        std::hint::black_box(&span);
        telemetry::counter!("bench.counter", 1);
        telemetry::hist!("bench.hist", BOUNDS, 1.5);
    }
    // Three sites per iteration.
    start.elapsed().as_secs_f64() * 1e9 / (3.0 * ITERS as f64)
}

fn run_search(episodes: usize, seed: u64) {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let cfg = SearchConfig {
        episodes,
        hidden: 8,
        seed,
        ..SearchConfig::default()
    };
    let mut controllers = Controllers::new(&cfg);
    let memo = MemoPool::new();
    let outcome = optimal_branch(&mut controllers, &base, &env, Mbps(8.0), &cfg, &memo)
        .expect("valid inputs");
    memo.publish_telemetry();
    std::hint::black_box(outcome);
}

fn time_search(episodes: usize, reps: usize) -> f64 {
    let mut total = 0.0;
    for rep in 0..reps {
        let start = Instant::now();
        run_search(episodes, 7 + rep as u64);
        total += start.elapsed().as_secs_f64() * 1000.0;
    }
    total / reps as f64
}

/// Instrumentation sites one search passes: every span/event plus every
/// histogram sample and counter increment recorded in a collected trace.
fn sites_per_search(episodes: usize) -> u64 {
    let (builder, sink) = telemetry::Telemetry::builder().with_memory();
    let handle = builder.install().expect("no other collector installed");
    run_search(episodes, 7);
    handle.finish().expect("memory sink cannot fail");
    let report = sink.take().expect("finish fed the sink");
    let hist_samples: u64 = report.metrics.histograms.iter().map(|(_, h)| h.count).sum();
    let counter_increments: u64 = report.metrics.counters.iter().map(|(_, v)| *v).sum();
    report.events.len() as u64 + hist_samples + counter_increments
}

fn main() -> ExitCode {
    let episodes: usize = std::env::var("CADMC_EPISODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let reps: usize = std::env::var("CADMC_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    eprintln!("timing the disabled per-site cost (60M macro sites)...");
    let ns_per_site = disabled_ns_per_site();

    eprintln!("timing optimal_branch with telemetry disabled ({episodes} episodes x {reps})...");
    let disabled_ms = time_search(episodes, reps);

    eprintln!("counting instrumentation sites in one traced search...");
    let sites = sites_per_search(episodes);

    eprintln!("timing optimal_branch with a collector installed...");
    let (builder, sink) = telemetry::Telemetry::builder().with_memory();
    let handle = builder.install().expect("no other collector installed");
    let enabled_ms = time_search(episodes, reps);
    handle.finish().expect("memory sink cannot fail");
    drop(sink.take());

    let bound_pct = sites as f64 * ns_per_site / (disabled_ms * 1e6) * 100.0;
    let enabled_pct = (enabled_ms - disabled_ms) / disabled_ms * 100.0;
    let report = Report {
        episodes,
        reps,
        disabled_ns_per_site: ns_per_site,
        sites_per_search: sites,
        disabled_search_ms: disabled_ms,
        enabled_search_ms: enabled_ms,
        disabled_overhead_bound_pct: bound_pct,
        enabled_overhead_pct: enabled_pct,
        pass_under_2pct: bound_pct < 2.0,
        note: "disabled bound = sites_per_search x disabled_ns_per_site / search time; \
               each disabled site is one relaxed atomic load"
            .to_string(),
    };

    println!("disabled site cost : {ns_per_site:.2} ns");
    println!("sites per search   : {sites}");
    println!("search (disabled)  : {disabled_ms:.2} ms");
    println!("search (enabled)   : {enabled_ms:.2} ms ({enabled_pct:+.1}%)");
    println!(
        "disabled overhead  : {bound_pct:.4}% bound — {}",
        if report.pass_under_2pct {
            "PASS (<2%)"
        } else {
            "FAIL (>=2%)"
        }
    );

    let out = std::env::var("CADMC_BENCH_OUT")
        .unwrap_or_else(|_| "results/BENCH_telemetry_overhead.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    match std::fs::write(&out, json) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
    if report.pass_under_2pct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
