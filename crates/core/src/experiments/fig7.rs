//! Fig. 7 — comparison of search methods on the model-tree search space:
//! the RL decision engine versus random search and ε-greedy search under
//! the same episode budget (the paper uses the "4G indoor static"
//! context; exhaustive search is ruled out by the exponential space).

use std::ops::Range;

use cadmc_accuracy::AppliedAction;
use cadmc_compress::FeatureAction;
use cadmc_latency::Platform;
use cadmc_netsim::Scenario;
use cadmc_nn::ModelSpec;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::baselines::{random_plan, run_search};
use crate::context::NetworkContext;
use crate::env::EvalEnv;
use crate::memo::MemoPool;
use crate::parallel::{Parallelism, EGREEDY_TREE_SALT, RANDOM_TREE_SALT};
use crate::search::{Controllers, SearchConfig};
use crate::tree::{ModelTree, TreeNode};
use crate::tree_search::{score_leaves, tree_search};
use crate::validate::ValidateError;

use super::{K_LEVELS, N_BLOCKS};

/// Best-so-far reward curves of the three search methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchComparison {
    /// RL decision engine (Alg. 3) curve.
    pub rl: Vec<f64>,
    /// Random tree search curve.
    pub random: Vec<f64>,
    /// ε-greedy tree search curve.
    pub epsilon_greedy: Vec<f64>,
}

impl SearchComparison {
    /// Final best rewards `(rl, random, ε-greedy)`.
    pub fn finals(&self) -> (f64, f64, f64) {
        let last = |v: &Vec<f64>| v.last().copied().unwrap_or(0.0);
        (
            last(&self.rl),
            last(&self.random),
            last(&self.epsilon_greedy),
        )
    }
}

fn best_so_far(scores: &[f64]) -> Vec<f64> {
    let mut best = f64::NEG_INFINITY;
    scores
        .iter()
        .map(|&s| {
            best = best.max(s);
            best
        })
        .collect()
}

/// Draws a uniform cut for the block `range`: before one of its layers,
/// or none.
fn random_cut(range: &Range<usize>, rng: &mut StdRng) -> Option<usize> {
    let pick = rng.random_range(0..=range.len());
    (pick < range.len()).then_some(range.start + pick)
}

/// Draws a uniform compression plan for the layers of the block `range`
/// before `cut`.
fn random_actions(
    base: &ModelSpec,
    range: &Range<usize>,
    cut: Option<usize>,
    rng: &mut StdRng,
) -> Vec<AppliedAction> {
    let compress_len = cut.map_or(range.len(), |c| c - range.start);
    if compress_len == 0 {
        return Vec::new();
    }
    let block = base
        .slice(range.start, range.start + compress_len)
        .expect("valid block slice");
    let plan = random_plan(&block, compress_len, rng);
    plan.actions()
        .iter()
        .enumerate()
        .filter_map(|(local, a)| {
            a.map(|technique| AppliedAction {
                layer_index: range.start + local,
                technique,
            })
        })
        .collect()
}

/// Generates a uniformly random model tree (the random-search proposal).
fn random_tree(base: &ModelSpec, levels: &[f64], rng: &mut StdRng) -> ModelTree {
    let mut tree = ModelTree::new(base.clone(), N_BLOCKS, levels.to_vec());
    let mut frontier: Vec<Option<usize>> = vec![None];
    while let Some(parent) = frontier.pop() {
        let level = parent.map_or(0, |p| tree.nodes()[p].level + 1);
        let range = tree.block_range(level);
        let partition_abs = random_cut(&range, rng);
        let actions = random_actions(base, &range, partition_abs, rng);
        let id = tree.push_node(
            parent,
            TreeNode {
                level,
                partition_abs,
                actions,
                feature: FeatureAction::IDENTITY,
                children: Vec::new(),
                reward: 0.0,
            },
        );
        if partition_abs.is_none() && level + 1 < N_BLOCKS {
            for _ in 0..levels.len() {
                frontier.push(Some(id));
            }
        }
    }
    tree
}

/// Mutates one random node of a tree: re-randomizes its compression
/// actions, and its partition too if it is a last-level leaf (the
/// ε-greedy "exploit" move). The tree's shape stays intact.
fn mutate_tree(tree: &ModelTree, base: &ModelSpec, rng: &mut StdRng) -> ModelTree {
    let mut out = tree.clone();
    if out.nodes().is_empty() {
        return out;
    }
    let id = rng.random_range(0..out.nodes().len());
    let node = &out.nodes()[id];
    let range = out.block_range(node.level);
    let partition_abs = if node.children.is_empty() && node.level + 1 == N_BLOCKS {
        random_cut(&range, rng)
    } else {
        node.partition_abs
    };
    let actions = random_actions(base, &range, partition_abs, rng);
    let node = out.node_mut(id);
    node.partition_abs = partition_abs;
    node.actions = actions;
    out
}

/// Scores a proposed tree by its mean branch reward, through the tree
/// search's leaf scoring.
fn scored(mut tree: ModelTree, env: &EvalEnv, memo: &MemoPool) -> (ModelTree, f64) {
    score_leaves(&mut tree, env, memo);
    let score = tree.mean_branch_reward();
    (tree, score)
}

/// Runs the three searches with equal episode budgets and returns their
/// best-so-far curves.
///
/// # Errors
///
/// Returns [`ValidateError`] when the model or derived configuration
/// fails pre-search validation.
pub fn search_comparison(
    base: &ModelSpec,
    device: Platform,
    scenario: Scenario,
    episodes: usize,
    seed: u64,
    par: Parallelism,
) -> Result<SearchComparison, ValidateError> {
    let env = EvalEnv::for_edge(device);
    let ctx = NetworkContext::from_scenario(scenario, K_LEVELS, seed);
    let levels = ctx.levels().to_vec();

    // RL (Alg. 3, no boosting so the comparison measures the search
    // method itself, like the paper's Fig. 7 training curves).
    let cfg = SearchConfig {
        episodes,
        seed,
        parallelism: par,
        ..SearchConfig::default()
    };
    let mut controllers = Controllers::new(&cfg);
    let memo = MemoPool::new();
    let rl_result = tree_search(
        &mut controllers,
        base,
        &env,
        &levels,
        N_BLOCKS,
        &cfg,
        &memo,
        false,
        None,
    )?;
    let rl = best_so_far(&rl_result.episode_scores);

    // The tree-space baselines run the branch-space baselines' episode
    // loop; ε-greedy (ε = 0.3) mutates the best tree at batch start.
    let memo_r = MemoPool::new();
    let (random_scores, _) = run_search(
        episodes,
        seed,
        RANDOM_TREE_SALT,
        par,
        |_, rng, _: Option<&ModelTree>| scored(random_tree(base, &levels, rng), &env, &memo_r),
        |tree| tree,
    );
    let random = best_so_far(&random_scores);

    let memo_e = MemoPool::new();
    let (eg_scores, _) = run_search(
        episodes,
        seed,
        EGREEDY_TREE_SALT,
        par,
        |_, rng, best: Option<&ModelTree>| {
            let proposal = match best {
                Some(t) if rng.random_range(0.0..1.0) >= 0.3 => mutate_tree(t, base, rng),
                _ => random_tree(base, &levels, rng),
            };
            scored(proposal, &env, &memo_e)
        },
        |tree| tree,
    );
    let epsilon_greedy = best_so_far(&eg_scores);

    Ok(SearchComparison {
        rl,
        random,
        epsilon_greedy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn curves_have_equal_budgets_and_are_monotone() {
        let cmp = search_comparison(
            &zoo::vgg11_cifar(),
            Platform::Phone,
            Scenario::FourGIndoorStatic,
            20,
            1,
            Parallelism::serial(),
        )
        .expect("valid inputs");
        for curve in [&cmp.rl, &cmp.random, &cmp.epsilon_greedy] {
            assert_eq!(curve.len(), 20);
            for pair in curve.windows(2) {
                assert!(pair[1] >= pair[0]);
            }
        }
    }

    #[test]
    fn all_methods_find_reasonable_trees() {
        let cmp = search_comparison(
            &zoo::alexnet_cifar(),
            Platform::Phone,
            Scenario::FourGIndoorStatic,
            15,
            2,
            Parallelism::new(4),
        )
        .expect("valid inputs");
        let (rl, random, eg) = cmp.finals();
        for (name, v) in [("rl", rl), ("random", random), ("eg", eg)] {
            assert!(v > 250.0, "{name} final reward {v:.1} too low");
        }
    }
}
