//! Golden-trace test for the feature-compression search telemetry.
//!
//! A serial feature-enabled `optimal_branch` search over starved
//! bandwidth must keep producing the checked-in schema-v1 JSONL trace
//! (wall-clock fields masked) — any drift in the `compress.feature`
//! instrumentation, event ordering or field sets shows up as a byte
//! diff here, and the golden itself must stay valid under the strict
//! schema-v1 parser. A second test pins the span/event stream to be
//! byte-identical under 1, 2 and 8 rollout workers with feature
//! actions enabled.
//!
//! Regenerate intentionally with:
//! `UPDATE_GOLDEN=1 cargo test -p cadmc-core --test feature_golden`

use cadmc_core::branch::optimal_branch;
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::EvalEnv;
use cadmc_latency::Mbps;
use cadmc_nn::zoo;
use cadmc_telemetry::report::{parse_jsonl, to_jsonl};
use cadmc_telemetry::testing::{assert_golden, mask_times};
use cadmc_telemetry::{self as telemetry, RunReport};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/feature_search_trace.jsonl"
);

/// Keeps only the schedule-independent span/event records (same filter
/// as `telemetry_trace.rs`): metric totals and `eval.candidate` spans
/// vary with worker scheduling, everything else must not.
fn event_lines(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"span\"") || l.contains("\"type\":\"event\""))
        .filter(|l| !l.contains("\"name\":\"eval.candidate\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The canonical run: a small feature-enabled search at 0.5 Mbps, where
/// shipping a compressed cut tensor is the only way to beat edge-only,
/// so the trace records `compress.feature` picks.
fn feature_search_trace(workers: usize) -> RunReport {
    let ((), report) = telemetry::testing::with_collector(|| {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let cfg = SearchConfig {
            episodes: 8,
            hidden: 6,
            seed: 11,
            feature_actions: true,
            parallelism: Parallelism::new(workers),
            ..SearchConfig::default()
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let outcome = optimal_branch(&mut controllers, &base, &env, Mbps(0.5), &cfg, &memo)
            .expect("valid inputs");
        std::hint::black_box(outcome);
    });
    report
}

#[test]
fn feature_search_trace_matches_checked_in_golden() {
    assert_golden(GOLDEN, &mask_times(&to_jsonl(&feature_search_trace(1))));
}

#[test]
fn golden_is_schema_valid_and_contains_feature_events() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden trace must be checked in");
    let report = parse_jsonl(&golden).expect("golden must satisfy schema v1");
    let names: Vec<&str> = report.events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"branch.search"));
    assert!(names.contains(&"branch.episode"));
    assert!(
        names.contains(&"compress.feature"),
        "no compress.feature event in golden"
    );
    // Every compress.feature event carries the full field set.
    for e in report
        .events
        .iter()
        .filter(|e| e.name == "compress.feature")
    {
        for key in ["action", "raw_bytes"] {
            assert!(
                e.field(key).is_some(),
                "compress.feature missing field {key}"
            );
        }
    }
    // The pick counter made it into the metrics section.
    let counters: Vec<&str> = report
        .metrics
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(counters.contains(&"compress.feature.picks"));
}

#[test]
fn feature_search_event_stream_identical_across_worker_counts() {
    let base = event_lines(&mask_times(&to_jsonl(&feature_search_trace(1))));
    assert!(base.contains("compress.feature"));
    for workers in [2, 8] {
        let got = event_lines(&mask_times(&to_jsonl(&feature_search_trace(workers))));
        let base = base.replace("\"workers\":1", "\"workers\":0");
        let got = got.replace(&format!("\"workers\":{workers}"), "\"workers\":0");
        assert_eq!(
            base, got,
            "feature-search span/event stream differs between 1 and {workers} workers"
        );
    }
}
