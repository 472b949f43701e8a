//! Fault-matrix conformance suite.
//!
//! Crosses {outage, collapse, RTT-spike, stale-estimate, none} ×
//! {emulation, field} × {1, 2, 8 workers} and pins two contracts of the
//! degradation policy:
//!
//! 1. **Byte-identity across worker counts** — the offline phase's
//!    `parallelism` knob must not leak into execution: for every
//!    (scenario, seed) cell the outcome-annotated `ExecReport` CSV is
//!    byte-for-byte identical whether the scene was trained with 1, 2 or
//!    8 workers.
//! 2. **Every request resolves** — under every fault scenario each
//!    request ends in some outcome, and when the tree has an edge-only
//!    branch the canned outage can only ever degrade a request, never
//!    fail it.

use cadmc_core::executor::{execute, ExecConfig, Mode, Policy};
use cadmc_core::experiments::{train_scene, Workload};
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::SearchConfig;
use cadmc_core::tree::{ModelTree, TreeNode};
use cadmc_latency::Platform;
use cadmc_netsim::{BandwidthTrace, FaultKind, FaultSchedule, Scenario};
use cadmc_nn::{zoo, ModelSpec};

const SEED: u64 = 11;
const REQUESTS: usize = 40;

/// The five fault scenarios of the matrix, by stable cell name.
fn fault_cells() -> Vec<(&'static str, FaultSchedule)> {
    let mut cells = vec![("none", FaultSchedule::none())];
    cells.extend(
        FaultKind::ALL
            .into_iter()
            .map(|k| (k.name(), FaultSchedule::canned(k))),
    );
    cells
}

/// Trains the scene with the given offline worker count and executes the
/// full fault × mode matrix, returning `(cell label, outcome CSV)` rows.
fn matrix_csvs(workers: usize) -> Vec<(String, String)> {
    let w = Workload {
        model: zoo::tiny_cnn(),
        device: Platform::Phone,
        scenario: Scenario::WifiWeakIndoor,
    };
    let cfg = SearchConfig {
        parallelism: Parallelism::new(workers),
        ..SearchConfig::quick(SEED)
    };
    let scene = train_scene(&w, &cfg, SEED).expect("valid workload");
    let mut rows = Vec::new();
    for (name, faults) in fault_cells() {
        for mode in [Mode::Emulation, Mode::Field] {
            let ecfg = ExecConfig::new(REQUESTS, mode, SEED).with_faults(faults.clone());
            let report = execute(
                &scene.env,
                &scene.workload.model,
                &Policy::Tree(&scene.tree.tree),
                &scene.test_trace,
                &ecfg,
            );
            assert_eq!(report.outcomes.len(), REQUESTS, "{name}/{mode:?}");
            assert_eq!(report.latencies_ms.len(), REQUESTS, "{name}/{mode:?}");
            let mut buf = Vec::new();
            report
                .write_csv_with_outcomes(&mut buf)
                .expect("in-memory CSV write cannot fail");
            rows.push((
                format!("{name}/{mode:?}"),
                String::from_utf8(buf).expect("CSV is ASCII"),
            ));
        }
    }
    rows
}

#[test]
fn exec_report_csvs_are_byte_identical_across_worker_counts() {
    let base = matrix_csvs(1);
    for workers in [2, 8] {
        let got = matrix_csvs(workers);
        assert_eq!(base.len(), got.len());
        for ((cell_a, csv_a), (cell_b, csv_b)) in base.iter().zip(&got) {
            assert_eq!(cell_a, cell_b);
            assert_eq!(
                csv_a, csv_b,
                "cell {cell_a}: CSV differs between 1 and {workers} workers"
            );
        }
    }
}

/// The hand-built shape every degradation guarantee is stated against:
/// child 0 is an edge-only branch, child 1 partitions to the cloud.
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

#[test]
fn every_request_resolves_and_edge_only_branch_prevents_failure() {
    let base = zoo::vgg11_cifar();
    let env = cadmc_core::EvalEnv::phone();
    let tree = two_fork_tree(&base);
    // Steady high bandwidth makes Alg. 2 prefer the partitioned fork, so
    // fault windows genuinely hit in-flight transfers.
    let trace = BandwidthTrace::new(100.0, vec![60.0; 600]);
    for (name, faults) in fault_cells() {
        for mode in [Mode::Emulation, Mode::Field] {
            let ecfg = ExecConfig::new(150, mode, SEED).with_faults(faults.clone());
            let report = execute(&env, &base, &Policy::Tree(&tree), &trace, &ecfg);
            assert_eq!(report.outcomes.len(), 150, "{name}/{mode:?}");
            assert_eq!(
                report.failed_count(),
                0,
                "{name}/{mode:?}: an edge-only branch exists, nothing may fail"
            );
        }
    }
    // And the outage cell actually exercises the fallback machinery.
    let outage = ExecConfig::emulation(150, SEED).with_faults(FaultSchedule::canned_outage());
    let report = execute(&env, &base, &Policy::Tree(&tree), &trace, &outage);
    assert!(
        report.degraded_count() > 0,
        "canned outage must force degraded fallbacks"
    );
}

#[test]
fn fault_cells_differ_from_the_clean_run() {
    // Sanity on the matrix itself: each canned fault scenario produces a
    // report distinguishable from the fault-free one (otherwise the suite
    // would be vacuously green). The trace alternates 0.5 / 60 Mbps every
    // 300 ms so estimator-freeze faults change fork decisions too.
    let base = zoo::vgg11_cifar();
    let env = cadmc_core::EvalEnv::phone();
    let tree = two_fork_tree(&base);
    let samples: Vec<f64> = (0..600)
        .map(|i| if (i / 3) % 2 == 0 { 0.5 } else { 60.0 })
        .collect();
    let trace = BandwidthTrace::new(100.0, samples);
    let run = |faults: FaultSchedule| {
        let ecfg = ExecConfig::emulation(150, SEED).with_faults(faults);
        execute(&env, &base, &Policy::Tree(&tree), &trace, &ecfg)
    };
    let clean = run(FaultSchedule::none());
    for kind in FaultKind::ALL {
        let faulted = run(FaultSchedule::canned(kind));
        assert_ne!(
            clean,
            faulted,
            "{} left no trace in the report",
            kind.name()
        );
    }
}
