//! Golden-trace test for the fault/degradation telemetry format.
//!
//! A canned outage run over a fixed two-fork tree must keep producing the
//! checked-in JSONL trace (wall-clock fields masked) — any drift in event
//! names, field sets or ordering of the `exec.fault` / `exec.fallback`
//! instrumentation shows up as a byte diff here, and the golden itself
//! must stay valid under the strict schema-v1 parser.
//!
//! Regenerate intentionally with:
//! `UPDATE_GOLDEN=1 cargo test -p cadmc-core --test fault_golden`

use cadmc_core::executor::{execute, ExecConfig, Policy};
use cadmc_core::tree::{ModelTree, TreeNode};
use cadmc_core::EvalEnv;
use cadmc_netsim::{BandwidthTrace, FaultSchedule};
use cadmc_nn::{zoo, ModelSpec};
use cadmc_telemetry::report::{parse_jsonl, to_jsonl};
use cadmc_telemetry::testing::{assert_golden, mask_times};
use cadmc_telemetry::{self as telemetry};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fault_outage_trace.jsonl"
);

fn two_fork_tree(base: &ModelSpec) -> ModelTree {
    let mut tree = ModelTree::new(base.clone(), 2, vec![1.0, 30.0]);
    let root = tree.push_node(
        None,
        TreeNode {
            level: 0,
            partition_abs: None,
            actions: vec![],
            feature: cadmc_compress::FeatureAction::IDENTITY,
            children: vec![],
            reward: 0.0,
        },
    );
    let r1 = tree.block_range(1);
    tree.push_node(
        Some(root),
        TreeNode {
            level: 1,
            partition_abs: None,
            actions: vec![],
            feature: cadmc_compress::FeatureAction::IDENTITY,
            children: vec![],
            reward: 0.0,
        },
    );
    tree.push_node(
        Some(root),
        TreeNode {
            level: 1,
            partition_abs: Some(r1.start),
            actions: vec![],
            feature: cadmc_compress::FeatureAction::IDENTITY,
            children: vec![],
            reward: 0.0,
        },
    );
    tree
}

/// The canonical run: 25 emulated requests over steady 60 Mbps spanning
/// the first canned outage window (5–8 s), so the trace contains healthy
/// forks, timed-out transfers with backoff, and edge-only fallbacks.
fn outage_trace_jsonl() -> String {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let tree = two_fork_tree(&base);
    let trace = BandwidthTrace::new(100.0, vec![60.0; 600]);
    let cfg = ExecConfig::emulation(25, 13).with_faults(FaultSchedule::canned_outage());
    let ((), report) = telemetry::testing::with_collector(|| {
        let r = execute(&env, &base, &Policy::Tree(&tree), &trace, &cfg);
        assert!(r.degraded_count() > 0, "run must exercise the fallback");
        assert_eq!(r.failed_count(), 0);
    });
    mask_times(&to_jsonl(&report))
}

#[test]
fn canned_outage_trace_matches_checked_in_golden() {
    assert_golden(GOLDEN, &outage_trace_jsonl());
}

#[test]
fn golden_is_schema_valid_and_contains_fault_events() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden trace must be checked in");
    let report = parse_jsonl(&golden).expect("golden must satisfy schema v1");
    let names: Vec<&str> = report.events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"exec.run"));
    assert!(names.contains(&"compose.fork"));
    assert!(names.contains(&"exec.fault"), "no exec.fault in golden");
    assert!(
        names.contains(&"exec.fallback"),
        "no exec.fallback in golden"
    );
    // The degradation counters made it into the metrics section.
    let counters: Vec<&str> = report
        .metrics
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(counters.contains(&"exec.transfer_timeouts"));
    assert!(counters.contains(&"exec.fallbacks"));
    // Every exec.fault event carries the full field set the property
    // tests and dashboards rely on.
    for e in report.events.iter().filter(|e| e.name == "exec.fault") {
        for key in [
            "attempt",
            "reason",
            "waited_ms",
            "deadline_ms",
            "backoff_ms",
        ] {
            assert!(e.field(key).is_some(), "exec.fault missing field {key}");
        }
    }
}
