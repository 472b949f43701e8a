//! Property tests for `core::validate` (satellite of the static-analysis
//! PR): randomly generated *valid* inputs must pass every gate and then
//! execute without panicking, while systematic single-fault mutations of
//! valid inputs must be rejected with the *specific* diagnostic naming
//! the broken invariant — not a generic error, and never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cadmc_accuracy::AppliedAction;
use cadmc_core::baselines::random_plan;
use cadmc_core::branch::optimal_branch;
use cadmc_core::memo::MemoPool;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree::{ModelTree, TreeNode};
use cadmc_core::validate::{self, ValidateError};
use cadmc_core::{Candidate, EvalEnv, Partition};
use cadmc_latency::Mbps;
use cadmc_nn::zoo;

/// Builds a random, structurally valid model tree over the tiny zoo model
/// (same construction discipline as the search: partitioned nodes are
/// leaves, forks carry exactly `k` children, actions stay in-block).
fn random_tree(seed: u64, n_blocks: usize, k: usize) -> ModelTree {
    let base = zoo::vgg11_cifar();
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = (0..k).map(|i| 2.0 + 4.0 * i as f64).collect();
    let mut tree = ModelTree::new(base.clone(), n_blocks, levels);
    let mut frontier: Vec<Option<usize>> = vec![None];
    while let Some(parent) = frontier.pop() {
        let level = parent.map_or(0, |p| tree.nodes()[p].level + 1);
        let range = tree.block_range(level);
        let pick = rng.random_range(0..=range.len());
        let (partition_abs, compress_len) = if pick == range.len() {
            (None, range.len())
        } else {
            (Some(range.start + pick), pick)
        };
        let mut actions = Vec::new();
        if compress_len > 0 {
            let block = base
                .slice(range.start, range.start + compress_len)
                .expect("valid block");
            let plan = random_plan(&block, compress_len, &mut rng);
            for (local, a) in plan.actions().iter().enumerate() {
                if let Some(t) = a {
                    actions.push(AppliedAction {
                        layer_index: range.start + local,
                        technique: *t,
                    });
                }
            }
        }
        let id = tree.push_node(
            parent,
            TreeNode {
                level,
                partition_abs,
                actions,
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: Vec::new(),
                reward: 0.0,
            },
        );
        if partition_abs.is_none() && level + 1 < n_blocks {
            for _ in 0..k {
                frontier.push(Some(id));
            }
        }
    }
    tree
}

fn valid_levels(k: usize) -> Vec<f64> {
    (0..k).map(|i| 1.5 + 2.5 * i as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomly generated structurally-valid trees pass the full audit.
    #[test]
    fn valid_trees_pass_full_audit(seed in 0u64..500, n in 2usize..4, k in 2usize..4) {
        let tree = random_tree(seed, n, k);
        prop_assert_eq!(validate::model_tree(&tree), Ok(()));
    }

    /// Valid bandwidth-level ladders pass; any single level forced
    /// non-positive is rejected naming the exact index.
    #[test]
    fn nonpositive_level_rejected_at_its_index(k in 1usize..6, bad in 0usize..6) {
        let mut levels = valid_levels(k);
        prop_assert_eq!(validate::bandwidth_levels(&levels), Ok(()));
        let bad = bad % k;
        levels[bad] = -levels[bad];
        match validate::bandwidth_levels(&levels) {
            Err(ValidateError::BadBandwidthLevel { index, .. }) => {
                prop_assert_eq!(index, bad);
            }
            other => prop_assert!(false, "expected BadBandwidthLevel, got {other:?}"),
        }
    }

    /// Swapping any adjacent pair of a sorted ladder breaks the strict
    /// ascent and is rejected as unsorted.
    #[test]
    fn descending_levels_rejected(k in 2usize..6, at in 0usize..5) {
        let mut levels = valid_levels(k);
        let at = at % (k - 1);
        levels.swap(at, at + 1);
        prop_assert!(matches!(
            validate::bandwidth_levels(&levels),
            Err(ValidateError::UnsortedBandwidthLevels { .. })
        ));
    }

    /// Block counts outside `1..=layers` are rejected with both numbers
    /// in the diagnostic.
    #[test]
    fn bad_block_count_rejected(extra in 1usize..10) {
        let base = zoo::tiny_cnn();
        prop_assert_eq!(validate::block_count(&base, 1), Ok(()));
        for n_blocks in [0, base.len() + extra] {
            match validate::block_count(&base, n_blocks) {
                Err(ValidateError::BadBlockCount { n_blocks: n, layers }) => {
                    prop_assert_eq!(n, n_blocks);
                    prop_assert_eq!(layers, base.len());
                }
                other => prop_assert!(false, "expected BadBlockCount, got {other:?}"),
            }
        }
    }

    /// Each single-field corruption of a valid config is rejected with
    /// `BadConfig` naming exactly the corrupted field.
    #[test]
    fn bad_config_names_the_field(pick in 0usize..7) {
        let mut cfg = SearchConfig {
            episodes: 4,
            hidden: 4,
            ..SearchConfig::default()
        };
        prop_assert_eq!(validate::search_config(&cfg), Ok(()));
        let expected = match pick {
            0 => { cfg.episodes = 0; "episodes" }
            1 => { cfg.hidden = 0; "hidden" }
            2 => { cfg.lr = -0.1; "lr" }
            3 => { cfg.alpha = 1.5; "alpha" }
            4 => { cfg.explore_epsilon = f64::NAN; "explore_epsilon" }
            5 => { cfg.entropy_beta = -1.0; "entropy_beta" }
            _ => { cfg.rollout_batch = 0; "rollout_batch" }
        };
        match validate::search_config(&cfg) {
            Err(ValidateError::BadConfig { field, .. }) => prop_assert_eq!(field, expected),
            other => prop_assert!(false, "expected BadConfig({expected}), got {other:?}"),
        }
    }

    /// Cuts past the last layer are rejected with the range.
    #[test]
    fn cut_out_of_range_rejected(extra in 0usize..8) {
        let base = zoo::tiny_cnn();
        let cand = Candidate {
            model: base.clone(),
            partition: Partition::AfterLayer(base.len() + extra),
            edge_layers: base.len(),
            actions: Vec::new(),
            feature: cadmc_compress::FeatureAction::IDENTITY,
            cache: Default::default(),
        };
        match validate::candidate(&base, &cand) {
            Err(ValidateError::CutOutOfRange { cut, layers }) => {
                prop_assert_eq!(cut, base.len() + extra);
                prop_assert_eq!(layers, base.len());
            }
            other => prop_assert!(false, "expected CutOutOfRange, got {other:?}"),
        }
    }

    /// Non-finite or non-positive single bandwidths are rejected.
    #[test]
    fn bad_bandwidth_rejected(seed in 0u64..100) {
        let bad = match seed % 4 {
            0 => 0.0,
            1 => -1.5,
            2 => f64::NAN,
            _ => f64::INFINITY,
        };
        prop_assert!(matches!(
            validate::bandwidth(bad),
            Err(ValidateError::BadBandwidth { .. })
        ));
        prop_assert_eq!(validate::bandwidth(0.001 + seed as f64), Ok(()));
    }

    /// Structural single-fault mutations of a valid tree are each caught
    /// by the audit with the diagnostic class matching the fault.
    #[test]
    fn mutated_trees_rejected_with_specific_diagnostics(seed in 0u64..200, fault in 0usize..4) {
        let mut tree = random_tree(seed, 3, 2);
        prop_assert_eq!(validate::model_tree(&tree), Ok(()));
        let last = tree.nodes().len() - 1;
        match fault {
            0 => {
                // Break level progression on a non-root node (the root's
                // level feeds every descendant, so mutate a leaf).
                tree.node_mut(last).level += 7;
                prop_assert!(matches!(
                    validate::model_tree(&tree),
                    Err(ValidateError::BadNodeLevel { .. })
                ));
            }
            1 => {
                tree.node_mut(last).reward = f64::NAN;
                prop_assert!(matches!(
                    validate::model_tree(&tree),
                    Err(ValidateError::NonFiniteReward { node, .. }) if node == last
                ));
            }
            2 => {
                // Move a partition outside its node's block.
                let base_len = tree.base().len();
                tree.node_mut(last).partition_abs = Some(base_len + 3);
                tree.node_mut(last).children.clear();
                prop_assert!(matches!(
                    validate::model_tree(&tree),
                    Err(ValidateError::PartitionOutsideBlock { .. })
                ));
            }
            _ => {
                // An action on a layer the node's block does not own.
                let base_len = tree.base().len();
                tree.node_mut(last).actions.push(AppliedAction {
                    layer_index: base_len + 1,
                    technique: cadmc_compress::Technique::W1FilterPrune,
                });
                prop_assert!(matches!(
                    validate::model_tree(&tree),
                    Err(ValidateError::ActionOutsideBlock { .. })
                ));
            }
        }
    }

    /// Acceptance is not vacuous: inputs the gates accept must execute
    /// end-to-end without panicking, and the search honors its own
    /// validation (garbage in → typed error out, never a panic).
    #[test]
    fn accepted_branch_inputs_execute(seed in 0u64..6) {
        let base = zoo::tiny_cnn();
        let cfg = SearchConfig {
            episodes: 2,
            hidden: 2,
            seed,
            ..SearchConfig::default()
        };
        let mbps = 4.0 + seed as f64;
        prop_assert_eq!(validate::branch_inputs(&base, mbps, &cfg), Ok(()));
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let out = optimal_branch(&mut controllers, &base, &EvalEnv::phone(), Mbps(mbps), &cfg, &memo);
        prop_assert!(out.is_ok());

        let bad_cfg = SearchConfig { episodes: 0, ..cfg };
        let mut controllers = Controllers::new(&SearchConfig { episodes: 1, ..bad_cfg });
        let err = optimal_branch(&mut controllers, &base, &EvalEnv::phone(), Mbps(mbps), &bad_cfg, &memo);
        prop_assert!(matches!(err, Err(ValidateError::BadConfig { field: "episodes", .. })));
    }
}

#[test]
fn empty_level_ladder_is_rejected() {
    assert!(matches!(
        validate::bandwidth_levels(&[]),
        Err(ValidateError::NoBandwidthLevels)
    ));
}

#[test]
fn plan_length_mismatch_is_rejected() {
    use cadmc_compress::CompressionPlan;
    let base = zoo::tiny_cnn();
    let short = CompressionPlan::identity(base.len() - 1);
    match validate::compression_plan(&base, &short) {
        Err(ValidateError::PlanLengthMismatch { plan, layers }) => {
            assert_eq!(plan, base.len() - 1);
            assert_eq!(layers, base.len());
        }
        other => panic!("expected PlanLengthMismatch, got {other:?}"),
    }
}

#[test]
fn diagnostics_are_actionable_text() {
    // Every rejection message must name the offending location/value so a
    // user can fix the artifact without reading validator source.
    let base = zoo::tiny_cnn();
    let msg = validate::block_count(&base, 99)
        .expect_err("invalid")
        .to_string();
    assert!(msg.contains("99"), "{msg}");
    let msg = validate::bandwidth(-2.0).expect_err("invalid").to_string();
    assert!(msg.contains("-2"), "{msg}");
    let msg = validate::bandwidth_levels(&[3.0, 1.0])
        .expect_err("invalid")
        .to_string();
    assert!(msg.contains('3') && msg.contains('1'), "{msg}");
}
