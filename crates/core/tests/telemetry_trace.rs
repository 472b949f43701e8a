//! Trace determinism across worker counts.
//!
//! The telemetry layer promises that the merged event stream — addressed
//! by `(region, stream, seq)` — is identical no matter how many rollout
//! workers `core::parallel` fans episodes across. These tests pin that
//! contract: the full JSONL (with the wall-clock `t_ns`/`dur_ns` fields
//! masked) must be **byte-identical** under 1, 2, and 8 workers, for
//! both a synthetic fan-out and a real `optimal_branch` search.
//!
//! All traced tests share the `telemetry::testing` gate, so they can run
//! under the default parallel test harness.

use cadmc_core::branch::optimal_branch;
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::{par_map_indexed, Parallelism};
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::EvalEnv;
use cadmc_latency::Mbps;
use cadmc_nn::zoo;
use cadmc_telemetry::report::to_jsonl;
use cadmc_telemetry::testing::mask_times;
use cadmc_telemetry::{self as telemetry, RunReport};

/// Keeps only the schedule-independent span/event records. Dropped:
/// metric lines (memo-pool counters are updated under real contention,
/// so their totals vary with scheduling) and `eval.candidate` spans
/// (opened inside the memo-miss closure, so two workers racing on the
/// same key can both evaluate where a serial run hits the memo).
fn event_lines(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"span\"") || l.contains("\"type\":\"event\""))
        .filter(|l| !l.contains("\"name\":\"eval.candidate\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn synthetic_trace(workers: usize) -> RunReport {
    let ((), report) = telemetry::testing::with_collector(|| {
        let outer = telemetry::span!("test.outer", workers = workers);
        let out = par_map_indexed(16, workers, |i| {
            let item = telemetry::span!("test.item", index = i);
            telemetry::event!("test.tick", index = i, doubled = 2 * i);
            item.record("result", 3 * i);
            3 * i
        });
        outer.record("total", out.iter().sum::<usize>());
    });
    report
}

#[test]
fn synthetic_fanout_is_byte_identical_across_worker_counts() {
    let base = mask_times(&to_jsonl(&synthetic_trace(1)));
    assert!(base.contains("test.outer"));
    assert!(base.contains("test.item"));
    assert!(base.contains("test.tick"));
    for workers in [2, 8] {
        let got = mask_times(&to_jsonl(&synthetic_trace(workers)));
        // Worker count is recorded as a field, so align it before the
        // byte comparison.
        let base = base.replace("\"workers\":1", "\"workers\":0");
        let got = got.replace(&format!("\"workers\":{workers}"), "\"workers\":0");
        assert_eq!(base, got, "trace differs between 1 and {workers} workers");
    }
}

#[test]
fn synthetic_fanout_nests_and_orders_spans() {
    let report = synthetic_trace(4);
    // Merged stream is sorted by (region, stream, seq).
    let keys: Vec<_> = report
        .events
        .iter()
        .map(|e| (e.region, e.stream, e.seq))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "events must arrive merge-sorted");

    // Each fan-out index i runs in stream i+1 and nests tick under item.
    for i in 0..16u64 {
        let in_stream: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.region == 1 && e.stream == i + 1)
            .collect();
        assert_eq!(in_stream.len(), 2, "stream {} should hold item+tick", i + 1);
        let item = in_stream
            .iter()
            .find(|e| e.name == "test.item")
            .expect("item span");
        let tick = in_stream
            .iter()
            .find(|e| e.name == "test.tick")
            .expect("tick event");
        assert!(item.is_span());
        assert!(!tick.is_span());
        assert_eq!(tick.parent, Some(item.seq), "tick must nest under item");
    }
}

fn search_trace(workers: usize) -> RunReport {
    let ((), report) = telemetry::testing::with_collector(|| {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let cfg = SearchConfig {
            episodes: 8,
            hidden: 6,
            seed: 11,
            parallelism: Parallelism::new(workers),
            ..SearchConfig::default()
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let outcome = optimal_branch(&mut controllers, &base, &env, Mbps(8.0), &cfg, &memo)
            .expect("valid inputs");
        std::hint::black_box(outcome);
    });
    report
}

#[test]
fn branch_search_trace_is_identical_across_worker_counts() {
    let base = event_lines(&mask_times(&to_jsonl(&search_trace(1))));
    assert!(base.contains("branch.search"));
    assert!(base.contains("branch.episode"));
    assert!(base.contains("controller.epoch"));
    for workers in [2, 8] {
        let got = event_lines(&mask_times(&to_jsonl(&search_trace(workers))));
        let base = base.replace("\"workers\":1", "\"workers\":0");
        let got = got.replace(&format!("\"workers\":{workers}"), "\"workers\":0");
        assert_eq!(
            base, got,
            "span/event stream differs between 1 and {workers} workers"
        );
    }
}
