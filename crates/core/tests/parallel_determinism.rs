//! Regression tests for the parallel rollout engine's core contract: the
//! worker count is purely a scheduling knob. The same seed must produce
//! bit-identical search results at `workers = 1` and `workers = 8` —
//! per-episode RNG streams (`seed ^ episode`) plus sequential policy
//! updates in episode order make this hold by construction, and these
//! tests keep it true. The same holds for a tree plan shared by threads:
//! whichever thread fills a slot, every walk reads the same value.

use std::sync::Barrier;
use std::thread;

use cadmc_core::branch::optimal_branch;
use cadmc_core::executor::{execute, ExecConfig, ExecReport, Mode, Policy, TreePlan};
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree_search::tree_search;
use cadmc_core::{EvalEnv, NetworkContext};
use cadmc_latency::Mbps;
use cadmc_netsim::{FaultKind, FaultSchedule, Scenario};
use cadmc_nn::zoo;

fn cfg_with(workers: usize, seed: u64) -> SearchConfig {
    SearchConfig {
        episodes: 30,
        hidden: 8,
        seed,
        parallelism: Parallelism::new(workers),
        ..SearchConfig::default()
    }
}

#[test]
fn tree_search_is_identical_across_worker_counts() {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let ctx = NetworkContext::from_scenario(Scenario::WifiWeakIndoor, 2, 5);
    let run = |workers: usize| {
        let cfg = cfg_with(workers, 5);
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        tree_search(
            &mut controllers,
            &base,
            &env,
            ctx.levels(),
            3,
            &cfg,
            &memo,
            true,
            Some(ctx.trace()),
        )
        .expect("valid inputs")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.episode_scores, parallel.episode_scores);
    assert_eq!(serial.best_branch_reward, parallel.best_branch_reward);
    assert_eq!(serial.tree, parallel.tree);
}

#[test]
fn serialized_trees_are_byte_identical_across_worker_counts() {
    // Structural equality can hide representational drift (e.g. f64
    // payloads that compare equal but print differently, node orderings
    // masked by a custom PartialEq). Comparing the full serialized
    // artifact across several worker counts pins the exact bytes a
    // deployment would ship.
    let base = zoo::alexnet_cifar();
    let env = EvalEnv::phone();
    let ctx = NetworkContext::from_scenario(Scenario::FourGOutdoorQuick, 2, 9);
    let serialized = |workers: usize| {
        let cfg = cfg_with(workers, 9);
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let result = tree_search(
            &mut controllers,
            &base,
            &env,
            ctx.levels(),
            3,
            &cfg,
            &memo,
            true,
            Some(ctx.trace()),
        )
        .expect("valid inputs");
        serde_json::to_string_pretty(&result.tree).expect("tree serializes")
    };
    let reference = serialized(1);
    for workers in [2usize, 3, 8] {
        let other = serialized(workers);
        assert_eq!(
            reference, other,
            "serialized tree differs between workers=1 and workers={workers}"
        );
    }
}

#[test]
fn branch_search_is_identical_across_worker_counts() {
    let base = zoo::alexnet_cifar();
    let env = EvalEnv::phone();
    let run = |workers: usize| {
        let cfg = cfg_with(workers, 11);
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let out = optimal_branch(&mut controllers, &base, &env, Mbps(8.0), &cfg, &memo)
            .expect("valid inputs");
        (out.episode_rewards, out.best, out.best_eval)
    };
    let (rewards_1, best_1, eval_1) = run(1);
    let (rewards_8, best_8, eval_8) = run(8);
    assert_eq!(rewards_1, rewards_8);
    assert_eq!(best_1, best_8);
    assert_eq!(eval_1, eval_8);
}

#[test]
fn serialized_best_candidates_are_byte_identical_across_worker_counts() {
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let serialized = |workers: usize| {
        let cfg = cfg_with(workers, 13);
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let out = optimal_branch(&mut controllers, &base, &env, Mbps(6.0), &cfg, &memo)
            .expect("valid inputs");
        serde_json::to_string_pretty(&out.best).expect("candidate serializes")
    };
    let reference = serialized(1);
    for workers in [2usize, 3, 8] {
        assert_eq!(
            reference,
            serialized(workers),
            "serialized candidate differs at workers={workers}"
        );
    }
}

#[test]
fn worker_count_beyond_batch_size_is_harmless() {
    // More workers than episodes per batch (and than episodes total)
    // must neither panic nor change results.
    let base = zoo::tiny_cnn();
    let env = EvalEnv::phone();
    let run = |workers: usize| {
        let cfg = SearchConfig {
            episodes: 5,
            ..cfg_with(workers, 3)
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        optimal_branch(&mut controllers, &base, &env, Mbps(10.0), &cfg, &memo)
            .expect("valid inputs")
            .episode_rewards
    };
    assert_eq!(run(1), run(64));
}

/// Latencies and accuracies as bit patterns, outcomes as they are.
fn report_bits(r: &ExecReport) -> (Vec<u64>, Vec<u64>, Vec<String>) {
    (
        r.latencies_ms.iter().map(|l| l.to_bits()).collect(),
        r.accuracies.iter().map(|a| a.to_bits()).collect(),
        r.outcomes.iter().map(|o| o.label()).collect(),
    )
}

#[test]
fn a_shared_tree_plan_reports_like_per_call_execute() {
    // Eight threads walk one cold plan at once, each with its own seed,
    // fidelity and fault schedule, so they race to fill the same slots
    // (fallback slots included). Each report must equal the report of
    // a per-call `execute`, bit for bit.
    let base = zoo::vgg11_cifar();
    let env = EvalEnv::phone();
    let ctx = NetworkContext::from_scenario(Scenario::WifiWeakIndoor, 2, 5);
    let cfg = cfg_with(2, 5);
    let mut controllers = Controllers::new(&cfg);
    let tree = tree_search(
        &mut controllers,
        &base,
        &env,
        ctx.levels(),
        3,
        &cfg,
        &MemoPool::new(),
        true,
        Some(ctx.trace()),
    )
    .expect("valid inputs")
    .tree;
    let schedules = [
        FaultSchedule::none(),
        FaultSchedule::canned_outage(),
        FaultSchedule::canned(FaultKind::Collapse),
        FaultSchedule::canned(FaultKind::RttSpike),
        FaultSchedule::canned(FaultKind::EstimatorFreeze),
    ];
    let exec_cfg = |i: usize| {
        let mode = if i.is_multiple_of(2) {
            Mode::Emulation
        } else {
            Mode::Field
        };
        ExecConfig::new(60, mode, 100 + i as u64)
            .with_faults(schedules[i % schedules.len()].clone())
    };
    let plan = TreePlan::new(env.clone(), tree.clone());
    let start = Barrier::new(8);
    let shared: Vec<ExecReport> = thread::scope(|s| {
        let runs: Vec<_> = (0..8)
            .map(|i| {
                let (plan, start, trace, cfg) = (&plan, &start, ctx.trace(), exec_cfg(i));
                s.spawn(move || {
                    start.wait();
                    plan.execute(trace, &cfg)
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("executor thread"))
            .collect()
    });
    assert!(
        shared
            .iter()
            .any(|r| r.degraded_count() + r.failed_count() > 0),
        "some fault schedule drives a walk onto its fallback"
    );
    for (i, report) in shared.iter().enumerate() {
        let alone = execute(
            &env,
            tree.base(),
            &Policy::Tree(&tree),
            ctx.trace(),
            &exec_cfg(i),
        );
        assert_eq!(report_bits(report), report_bits(&alone), "thread {i}");
    }
}
