//! Feature-compression conformance matrix.
//!
//! Crosses {no-feature, bottleneck, quant, both} feature cells ×
//! {none, outage, collapse, rtt-spike, stale-estimate} netsim fault
//! presets × {1, 2, 8} offline workers, and pins three contracts of the
//! feature-compression action family:
//!
//! 1. **Byte-identity across worker counts** — with `feature_actions`
//!    enabled the offline `parallelism` knob must not leak into the
//!    trained scene: every (fault, mode) cell's outcome-annotated
//!    `ExecReport` CSV is byte-for-byte identical under 1, 2 and 8
//!    workers.
//! 2. **Every feature cell executes** — a hand-built two-fork tree whose
//!    partitioned fork carries each knob combination resolves every
//!    request under every fault preset (the collapse-to-floor cell
//!    included), and the composed transfer bytes obey the strict
//!    ordering both < single-knob < identity.
//! 3. **The low-bandwidth flip** — at sub-floor bandwidth the plain
//!    search stays edge-only while the feature-enabled search ships a
//!    compressed cut tensor: a partitioned plan with strictly lower
//!    end-to-end latency.

use cadmc::compress::{BottleneckKnob, CompressionPlan, FeatureAction, QuantKnob};
use cadmc::core::baselines::random_search;
use cadmc::core::executor::{execute, ExecConfig, Mode, Policy};
use cadmc::core::experiments::{train_scene, Workload};
use cadmc::core::memo::MemoPool;
use cadmc::core::parallel::Parallelism;
use cadmc::core::search::SearchConfig;
use cadmc::core::tree::{ModelTree, TreeNode};
use cadmc::core::{Candidate, EvalEnv, Partition};
use cadmc::latency::{Mbps, Platform};
use cadmc::netsim::{BandwidthTrace, FaultKind, FaultSchedule, Scenario};
use cadmc::nn::{zoo, ModelSpec};

const SEED: u64 = 11;
const REQUESTS: usize = 40;

/// The four feature cells of the matrix, by stable cell name.
fn feature_cells() -> [(&'static str, FeatureAction); 4] {
    [
        ("no-feature", FeatureAction::IDENTITY),
        (
            "bottleneck",
            FeatureAction {
                bottleneck: BottleneckKnob::Half,
                quant: QuantKnob::F32,
            },
        ),
        (
            "quant",
            FeatureAction {
                bottleneck: BottleneckKnob::Off,
                quant: QuantKnob::Int8,
            },
        ),
        (
            "both",
            FeatureAction {
                bottleneck: BottleneckKnob::Half,
                quant: QuantKnob::Int8,
            },
        ),
    ]
}

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

/// Two-fork tree whose partitioned fork carries the given feature
/// action; child 0 stays edge-only so no fault can fail a request.
fn two_fork_tree(base: &ModelSpec, feature: FeatureAction) -> ModelTree {
    let mut tree = ModelTree::new(base.clone(), 2, vec![1.0, 30.0]);
    let root = tree.push_node(
        None,
        TreeNode {
            level: 0,
            partition_abs: None,
            actions: vec![],
            feature: FeatureAction::IDENTITY,
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
            feature: FeatureAction::IDENTITY,
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
            feature,
            children: vec![],
            reward: 0.0,
        },
    );
    tree
}

/// Trains the scene with feature actions enabled at the given offline
/// worker count and executes the full fault × mode matrix, returning
/// `(cell label, outcome CSV)` rows.
fn trained_matrix_csvs(workers: usize) -> Vec<(String, String)> {
    let w = Workload {
        model: zoo::tiny_cnn(),
        device: Platform::Phone,
        scenario: Scenario::WifiWeakIndoor,
    };
    let cfg = SearchConfig {
        parallelism: Parallelism::new(workers),
        feature_actions: true,
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
fn feature_search_csvs_are_byte_identical_across_worker_counts() {
    let base = trained_matrix_csvs(1);
    for workers in [2, 8] {
        let got = trained_matrix_csvs(workers);
        assert_eq!(base.len(), got.len());
        for ((cell_a, csv_a), (cell_b, csv_b)) in base.iter().zip(&got) {
            assert_eq!(cell_a, cell_b);
            assert_eq!(
                csv_a, csv_b,
                "cell {cell_a}: feature-search CSV differs between 1 and {workers} workers"
            );
        }
    }
}

#[test]
fn every_feature_cell_resolves_under_every_fault_preset() {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let trace = BandwidthTrace::new(100.0, vec![60.0; 600]);
    let mut first: Option<Vec<(String, String)>> = None;
    for pass in 0..2 {
        let mut rows = Vec::new();
        for (fname, feature) in feature_cells() {
            let tree = two_fork_tree(&base, feature);
            for (cname, faults) in fault_cells() {
                let ecfg = ExecConfig::emulation(REQUESTS, SEED).with_faults(faults.clone());
                let report = execute(&env, &base, &Policy::Tree(&tree), &trace, &ecfg);
                assert_eq!(report.outcomes.len(), REQUESTS, "{fname}/{cname}");
                assert_eq!(
                    report.failed_count(),
                    0,
                    "{fname}/{cname}: an edge-only branch exists, nothing may fail"
                );
                let mut buf = Vec::new();
                report
                    .write_csv_with_outcomes(&mut buf)
                    .expect("in-memory CSV write cannot fail");
                rows.push((
                    format!("{fname}/{cname}"),
                    String::from_utf8(buf).expect("CSV is ASCII"),
                ));
            }
        }
        match &first {
            None => first = Some(rows),
            Some(prev) => {
                assert_eq!(
                    prev, &rows,
                    "feature-cell execution must be deterministic (pass {pass})"
                );
            }
        }
    }
}

#[test]
fn feature_cells_strictly_order_transfer_bytes() {
    let base = zoo::vgg11_cifar();
    let cut = base.len() / 2;
    let identity = CompressionPlan::identity(base.len());
    let compose = |feature: FeatureAction| {
        Candidate::compose(&base, Partition::AfterLayer(cut - 1), &identity)
            .expect("legal cut")
            .with_feature(feature)
    };
    let cells = feature_cells();
    let bytes: Vec<u64> = cells.iter().map(|(_, f)| compose(*f).transfer_bytes()).collect();
    let (none, bottleneck, quant, both) = (bytes[0], bytes[1], bytes[2], bytes[3]);
    assert!(
        both < bottleneck && bottleneck < none,
        "expected both ({both}) < bottleneck ({bottleneck}) < no-feature ({none})"
    );
    assert!(
        both < quant && quant < none,
        "expected both ({both}) < quant ({quant}) < no-feature ({none})"
    );
    // Byte ordering carries through to end-to-end latency at starved
    // bandwidth, where the transfer term dominates.
    let env = EvalEnv::phone();
    let lat: Vec<f64> = cells
        .iter()
        .map(|(_, f)| env.latency_ms(&compose(*f), Mbps(0.5)))
        .collect();
    assert!(lat[3] < lat[1] && lat[1] < lat[0]);
    assert!(lat[3] < lat[2] && lat[2] < lat[0]);
}

/// The acceptance-criterion flip: at sub-floor bandwidth the plain
/// search (no feature actions) settles on an edge-only plan, while the
/// feature-enabled search finds a partitioned plan that ships a
/// compressed cut tensor and is strictly faster end to end.
#[test]
fn sub_floor_bandwidth_flips_edge_only_to_partitioned() {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let bw = Mbps(0.5);
    let episodes = 60;
    let plain = random_search(
        &base,
        &env,
        bw,
        episodes,
        9,
        &MemoPool::new(),
        Parallelism::serial(),
        false,
    )
    .expect("valid inputs");
    let feat = random_search(
        &base,
        &env,
        bw,
        episodes,
        9,
        &MemoPool::new(),
        Parallelism::serial(),
        true,
    )
    .expect("valid inputs");
    assert_eq!(
        plain.best.edge_layers,
        plain.best.model.len(),
        "plain search must stay edge-only when transfer starves"
    );
    assert!(plain.best.feature.is_identity());
    assert!(
        feat.best.edge_layers < feat.best.model.len(),
        "feature search must partition: best kept {} of {} layers on edge",
        feat.best.edge_layers,
        feat.best.model.len()
    );
    assert!(
        !feat.best.feature.is_identity(),
        "the partitioned winner must ship a compressed cut tensor"
    );
    assert!(
        feat.best_eval.latency_ms < plain.best_eval.latency_ms,
        "feature plan must be strictly faster: {} vs {} ms",
        feat.best_eval.latency_ms,
        plain.best_eval.latency_ms
    );
}
