//! Reproduces the DESIGN.md §11 outage measurement: the same
//! steady 60 Mbps scene, clean vs. canned cloud-link outages, for a
//! two-fork VGG11 tree whose child 0 is an edge-only branch.
//!
//! Run with: `cargo run --release -p cadmc-core --example fault_outage`

use cadmc_core::executor::{execute, ExecConfig, Policy};
use cadmc_core::tree::{ModelTree, TreeNode};
use cadmc_core::EvalEnv;
use cadmc_netsim::{BandwidthTrace, FaultSchedule};
use cadmc_nn::{zoo, ModelSpec};

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
    for partition_abs in [None, Some(r1.start)] {
        tree.push_node(
            Some(root),
            TreeNode {
                level: 1,
                partition_abs,
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 0.0,
            },
        );
    }
    tree
}

fn main() {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let tree = two_fork_tree(&base);
    let trace = BandwidthTrace::new(100.0, vec![60.0; 600]);
    for (label, faults) in [
        ("clean", FaultSchedule::none()),
        ("canned outage", FaultSchedule::canned_outage()),
        (
            "harsh mix",
            FaultSchedule::from_preset("harsh").expect("known preset"),
        ),
    ] {
        let cfg = ExecConfig::emulation(200, 13).with_faults(faults);
        let r = execute(&env, &base, &Policy::Tree(&tree), &trace, &cfg);
        println!(
            "{label:>13}: mean {:7.2} ms | p95 {:7.2} ms | accuracy {:.2} % | \
             ok {} | retried {} | degraded {} | failed {}",
            r.mean_latency_ms(),
            r.p95_latency_ms(),
            100.0 * r.mean_accuracy(),
            r.outcomes.len() - r.retried_count() - r.degraded_count() - r.failed_count(),
            r.retried_count(),
            r.degraded_count(),
            r.failed_count(),
        );
    }
}
