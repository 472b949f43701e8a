//! Fig. 7 — comparison of search methods on the model-tree search space:
//! the RL decision engine versus random search and ε-greedy search under
//! the same episode budget (the paper uses the "4G indoor static"
//! context; exhaustive search is ruled out by the exponential space).

use cadmc_latency::{Mbps, Platform};
use cadmc_netsim::Scenario;
use cadmc_nn::ModelSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::baselines::random_plan;
use crate::context::NetworkContext;
use crate::env::EvalEnv;
use crate::memo::MemoPool;
use crate::parallel::{par_map_indexed, Parallelism};
use crate::search::{Controllers, SearchConfig};
use crate::tree::{ModelTree, TreeNode};
use crate::tree_search::tree_search;
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

/// Generates a uniformly random model tree (the random-search proposal).
fn random_tree(base: &ModelSpec, levels: &[f64], rng: &mut StdRng) -> ModelTree {
    let mut tree = ModelTree::new(base.clone(), N_BLOCKS, levels.to_vec());
    let mut frontier: Vec<Option<usize>> = vec![None];
    while let Some(parent) = frontier.pop() {
        let level = parent.map_or(0, |p| tree.nodes()[p].level + 1);
        let range = tree.block_range(level);
        let block_len = range.len();
        // Uniform over: cut before each local layer, or no partition.
        let pick = rng.random_range(0..=block_len);
        let (partition_abs, compress_len) = if pick == block_len {
            (None, block_len)
        } else {
            (Some(range.start + pick), pick)
        };
        let mut actions = Vec::new();
        if compress_len > 0 {
            let block = base
                .slice(range.start, range.start + compress_len)
                .expect("valid block slice");
            let plan = random_plan(&block, compress_len, rng);
            for (local, a) in plan.actions().iter().enumerate() {
                if let Some(t) = a {
                    actions.push(cadmc_accuracy::AppliedAction {
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
        if partition_abs.is_none() && level + 1 < N_BLOCKS {
            for _ in 0..levels.len() {
                frontier.push(Some(id));
            }
        }
    }
    tree
}

/// Scores a tree by its mean branch reward (leaves evaluated at the level
/// of the fork that reaches them).
fn score_tree(tree: &mut ModelTree, base: &ModelSpec, env: &EvalEnv, memo: &MemoPool) -> f64 {
    let branches = tree.branches();
    for path in &branches {
        let leaf = *path.last().expect("non-empty branch");
        let candidate = tree.compose_path(path);
        let reward = if path.len() >= 2 {
            let parent = path[path.len() - 2];
            let fork = tree.nodes()[parent]
                .children
                .iter()
                .position(|&c| c == leaf)
                .expect("leaf is its parent's child");
            let bw = tree.levels()[fork];
            memo.get_or_insert_with(&candidate, bw, || env.evaluate(base, &candidate, Mbps(bw)))
                .reward
        } else {
            // Root-only trees are judged across all levels.
            let levels = tree.levels().to_vec();
            levels
                .iter()
                .map(|&bw| {
                    memo.get_or_insert_with(&candidate, bw, || {
                        env.evaluate(base, &candidate, Mbps(bw))
                    })
                    .reward
                })
                .sum::<f64>()
                / levels.len() as f64
        };
        tree.node_mut(leaf).reward = reward;
    }
    tree.mean_branch_reward()
}

/// Mutates one random node of a tree: re-randomizes its partition and
/// compression actions (the ε-greedy "exploit" move).
fn mutate_tree(tree: &ModelTree, base: &ModelSpec, rng: &mut StdRng) -> ModelTree {
    let mut out = tree.clone();
    if out.nodes().is_empty() {
        return out;
    }
    let id = rng.random_range(0..out.nodes().len());
    let level = out.nodes()[id].level;
    let range = out.block_range(level);
    // Only mutate non-partitioning content to keep the tree shape intact:
    // re-randomize compression, and toggle partition only for leaves.
    let is_leafish = out.nodes()[id].children.is_empty();
    let block_len = range.len();
    let (partition_abs, compress_len) = if is_leafish && level + 1 == N_BLOCKS {
        let pick = rng.random_range(0..=block_len);
        if pick == block_len {
            (None, block_len)
        } else {
            (Some(range.start + pick), pick)
        }
    } else {
        (out.nodes()[id].partition_abs, {
            let cut = out.nodes()[id].partition_abs;
            cut.map_or(block_len, |c| c - range.start)
        })
    };
    let mut actions = Vec::new();
    if compress_len > 0 {
        let block = base
            .slice(range.start, range.start + compress_len)
            .expect("valid block slice");
        let plan = random_plan(&block, compress_len, rng);
        for (local, a) in plan.actions().iter().enumerate() {
            if let Some(t) = a {
                actions.push(cadmc_accuracy::AppliedAction {
                    layer_index: range.start + local,
                    technique: *t,
                });
            }
        }
    }
    {
        let node = out.node_mut(id);
        node.partition_abs = partition_abs;
        node.actions = actions;
    }
    out
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

    // Random search: every episode is independent, so the whole budget
    // fans out at once — each episode on its own `seed ^ episode` stream.
    let memo_r = MemoPool::new();
    let random_scores = par_map_indexed(episodes, par.workers, |episode| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x72616e64 ^ episode as u64);
        let mut t = random_tree(base, &levels, &mut rng);
        score_tree(&mut t, base, &env, &memo_r)
    });
    let random = best_so_far(&random_scores);

    // ε-greedy search (ε = 0.3), batched like the baselines: proposals in
    // a batch mutate the best tree at batch start, then best-tracking is
    // applied sequentially in episode order (bit-identical for any worker
    // count).
    let memo_e = MemoPool::new();
    let mut best_tree: Option<(ModelTree, f64)> = None;
    let mut eg_scores = Vec::with_capacity(episodes);
    let mut batch_start = 0;
    while batch_start < episodes {
        let batch_end = (batch_start + cfg.rollout_batch.max(1)).min(episodes);
        let anchor = best_tree.as_ref().map(|(t, _)| t.clone());
        let rollouts = par_map_indexed(batch_end - batch_start, par.workers, |offset| {
            let episode = batch_start + offset;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x65677265 ^ episode as u64);
            let mut proposal = match &anchor {
                Some(t) if rng.random_range(0.0..1.0) >= 0.3 => mutate_tree(t, base, &mut rng),
                _ => random_tree(base, &levels, &mut rng),
            };
            let score = score_tree(&mut proposal, base, &env, &memo_e);
            (proposal, score)
        });
        for (proposal, score) in rollouts {
            eg_scores.push(score);
            let replace = best_tree.as_ref().is_none_or(|(_, s)| score > *s);
            if replace {
                best_tree = Some((proposal, score));
            }
        }
        batch_start = batch_end;
    }
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
