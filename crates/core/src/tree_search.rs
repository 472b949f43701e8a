//! **Algorithm 3 — Model Tree Search**: the two-stage RL procedure
//! (forward generation + backward estimation) that produces a
//! context-aware model tree.
//!
//! Forward generation walks the tree skeleton in BFS order; at each node
//! the partition and compression controllers — conditioned on that fork's
//! bandwidth type — transform the corresponding base block. Branch rewards
//! are computed for complete branches (leaves or partitioned nodes) and
//! propagated to shared ancestors by averaging (backward estimation), and
//! every node's actions are reinforced with its estimated reward.
//!
//! Implementation countermeasures from §VII-A are included: fair-chance
//! exploration (forced no-partition with decaying probability
//! `α·(N−n)/N`), optimal-branch boosting (Alg. 1 pre-training per
//! bandwidth level plus an explicitly grafted boost tree), and the
//! candidate memo pool.

use std::sync::Arc;

use cadmc_accuracy::AppliedAction;
use cadmc_compress::FeatureAction;
use cadmc_latency::Mbps;
use cadmc_netsim::BandwidthTrace;
use cadmc_nn::ModelSpec;
use cadmc_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::branch::optimal_branch;
use crate::executor::{execute, ExecConfig, Policy};
use crate::candidate::{Candidate, Partition};
use crate::controller::{EpisodeTape, HeadState, PartitionAction};
use crate::delta::DeltaState;
use crate::env::EvalEnv;
use crate::memo::MemoPool;
use crate::parallel::{par_map, par_map_indexed};
use crate::search::{Controllers, SearchConfig};
use crate::tree::{ModelTree, TreeNode};
use crate::validate::{self, ValidateError};

/// RNG stream salt for the tree search (`"tree"`).
const TREE_SALT: u64 = 0x7472_6565;

/// Result of a tree search.
#[derive(Debug, Clone)]
pub struct TreeSearchResult {
    /// The best tree found (highest mean branch reward).
    pub tree: ModelTree,
    /// Mean branch reward of each episode's generated tree.
    pub episode_scores: Vec<f64>,
    /// Best branch reward within the returned tree.
    pub best_branch_reward: f64,
}

/// Runs Algorithm 3 for `base` under the discretized bandwidth `levels`,
/// updating `controllers` in place. When `boost` is set, controllers are
/// first warmed with Algorithm 1 under each bandwidth level and an
/// explicit boost tree seeds the best-so-far (§VII-A "optimal branch
/// boosting"). When `selection_trace` is given, the finalists (the trees
/// that successively improved the internal score) are re-ranked by a
/// short emulation against that trace — the offline phase has the scene
/// traces available, and per-level point evaluation systematically
/// overvalues offloading branches relative to replayed execution.
///
/// # Errors
///
/// Returns [`ValidateError`] when the model, bandwidth levels, block
/// count or configuration fails [`validate::tree_inputs`]; no episode
/// runs in that case.
#[allow(clippy::too_many_arguments)]
pub fn tree_search(
    controllers: &mut Controllers,
    base: &ModelSpec,
    env: &EvalEnv,
    levels: &[f64],
    n_blocks: usize,
    cfg: &SearchConfig,
    memo: &MemoPool,
    boost: bool,
    selection_trace: Option<&BandwidthTrace>,
) -> Result<TreeSearchResult, ValidateError> {
    validate::tree_inputs(base, levels, n_blocks, cfg)?;
    let search_span = telemetry::span!(
        "tree.search",
        episodes = cfg.episodes,
        levels = levels.len(),
        blocks = n_blocks,
        boost = boost,
    );
    // Invariant: the best-so-far tree is always the most recently pushed
    // finalist (every improver is pushed when it sets the new best), so
    // no separate best copy is kept — improvers move into the pool.
    let mut best_score = f64::NEG_INFINITY;
    let mut finalists: Vec<ModelTree> = Vec::new();

    // Built once, shared read-only by every episode: the Arc'd base spec
    // (each episode's `ModelTree` now shares it instead of cloning all
    // layers) and the per-level block prefix slices the controllers
    // condition on.
    let base_arc: Arc<ModelSpec> = Arc::new(base.clone());
    let slices = BlockSlices::new(base, n_blocks);

    if boost {
        let _boost_span = telemetry::span!("tree.boost", levels = levels.len());
        let branch_cfg = SearchConfig {
            episodes: (cfg.episodes / 2).max(10),
            ..*cfg
        };
        let mut branch_candidates = Vec::new();
        for &bw in levels {
            let outcome =
                optimal_branch(controllers, base, env, Mbps(bw), &branch_cfg, memo)?;
            // The surgery deployment (min-cut partition, no compression)
            // is a point inside the branch space; floor each level's
            // candidate with it so the boost tree never starts below the
            // static baseline.
            let surgery = crate::surgery::plan(base, env, Mbps(bw));
            if surgery.evaluation.reward > outcome.best_eval.reward {
                branch_candidates.push(surgery.candidate);
            } else {
                branch_candidates.push(outcome.best);
            }
        }
        // Rigid trees (every fork takes the same branch solution) are
        // also valid deployments; include them in the selection pool so
        // the returned tree never executes worse than the best constant-
        // bandwidth branch.
        for cand in &branch_candidates {
            finalists.push(rigid_tree(&base_arc, env, levels, n_blocks, cand, memo));
        }
        let boosted = boost_tree(&base_arc, env, levels, n_blocks, &branch_candidates, memo);
        best_score = boosted.mean_branch_reward();
        finalists.push(boosted);
    }

    // Episodes roll out in batches of `cfg.rollout_batch` from frozen
    // controller parameters, fanned across `cfg.parallelism.workers`
    // threads; each episode generates (and backward-estimates) its tree on
    // its own `seed ^ episode` RNG stream, then the REINFORCE updates are
    // applied sequentially in episode order — bit-identical results for
    // any worker count.
    let mut episode_scores = Vec::with_capacity(cfg.episodes);
    let batch_size = cfg.rollout_batch.max(1);
    let mut batch_start = 0;
    while batch_start < cfg.episodes {
        let batch_end = (batch_start + batch_size).min(cfg.episodes);
        let rollouts = {
            let shared: &Controllers = controllers;
            let base_arc = &base_arc;
            let slices = &slices;
            par_map_indexed(
                batch_end - batch_start,
                cfg.parallelism.workers,
                |offset| {
                    let episode = batch_start + offset;
                    let episode_span = telemetry::span!("tree.episode", episode = episode);
                    let mut rng =
                        StdRng::seed_from_u64(cfg.seed ^ TREE_SALT ^ episode as u64);
                    let (mut tree, tapes) = generate_tree(
                        shared, base_arc, slices, env, levels, n_blocks, cfg, episode,
                        &mut rng, memo,
                    );
                    tree.backward_estimate_with(cfg.backward_rule);
                    episode_span.record("score", tree.mean_branch_reward());
                    (tree, tapes)
                },
            )
        };
        for (tree, tapes) in rollouts {
            let episodes: Vec<(EpisodeTape, f64)> = tapes
                .into_iter()
                .enumerate()
                .map(|(id, tape)| (tape, tree.nodes()[id].reward))
                .collect();
            controllers
                .trainer
                .update_batch(&mut controllers.params, episodes);
            let score = tree.mean_branch_reward();
            telemetry::hist!("tree.score", crate::branch::REWARD_BOUNDS, score);
            episode_scores.push(score);
            if score > best_score {
                best_score = score;
                finalists.push(tree);
            }
        }
        batch_start = batch_end;
    }

    let tree = if let Some(trace) = selection_trace {
        let _rerank_span = telemetry::span!("tree.rerank", finalists = finalists.len());
        // Re-rank the finalists by replayed execution; keep the seeded
        // rigid/boost trees plus the last few RL improvers to bound cost.
        if finalists.len() > 10 {
            finalists.drain(3..finalists.len() - 6);
        }
        // Emulations of distinct finalists are independent — fan them out.
        // The winner is picked by a strictly-greater scan in finalist
        // order, matching the serial semantics exactly.
        let exec_cfg = ExecConfig::emulation(300, cfg.seed);
        let exec_rewards = par_map(&finalists, cfg.parallelism.workers, |cand| {
            let report = execute(env, base, &Policy::Tree(cand), trace, &exec_cfg);
            report.evaluation(&env.reward).reward
        });
        let mut best_exec = f64::NEG_INFINITY;
        let mut winner = finalists.len() - 1;
        for (i, &r) in exec_rewards.iter().enumerate() {
            if r > best_exec {
                best_exec = r;
                winner = i;
            }
        }
        finalists.swap_remove(winner)
    } else {
        // The invariant above puts the internal best at the tail.
        finalists.pop().expect("episodes >= 1 was validated")
    };
    let best_branch_reward = tree
        .best_branch()
        .map(|(path, _)| tree.nodes()[*path.last().expect("non-empty")].reward)
        .unwrap_or(0.0);
    search_span.record("best_branch_reward", best_branch_reward);
    Ok(TreeSearchResult {
        tree,
        episode_scores,
        best_branch_reward,
    })
}

/// Per-level block prefix slices, built once per search and shared
/// read-only by every episode: `edge(level, c)` is
/// `base.slice(range.start, range.start + c)` without the per-node
/// slice reallocation the old per-episode path paid.
struct BlockSlices {
    per_level: Vec<Vec<ModelSpec>>,
}

impl BlockSlices {
    fn new(base: &ModelSpec, n_blocks: usize) -> Self {
        let per_level = base
            .block_ranges(n_blocks)
            .iter()
            .map(|r| {
                (r.start + 1..=r.end)
                    .map(|end| base.slice(r.start, end).expect("valid block slice"))
                    .collect()
            })
            .collect();
        Self { per_level }
    }

    /// The whole block at `level`.
    fn block(&self, level: usize) -> &ModelSpec {
        let v = &self.per_level[level];
        &v[v.len() - 1]
    }

    /// The first `len` layers of the block at `level` (`len >= 1`).
    fn edge(&self, level: usize, len: usize) -> &ModelSpec {
        &self.per_level[level][len - 1]
    }
}

/// Derives the branch decision delta for a root→leaf path: the partition
/// from the first cut on the path plus every action strictly below it —
/// no model composition. Matches [`ModelTree::compose_path`], whose
/// composition drops at-or-beyond-cut actions the same way.
fn path_delta<'a>(tree: &'a ModelTree, path: &[usize]) -> DeltaState<'a> {
    let mut cut: Option<usize> = None;
    let mut feature = FeatureAction::IDENTITY;
    for &id in path {
        let node = &tree.nodes()[id];
        if let Some(abs) = node.partition_abs {
            cut = Some(abs);
            feature = node.feature;
            break;
        }
    }
    let base = tree.base();
    let partition = match cut {
        Some(0) => Partition::AllCloud,
        Some(abs) => Partition::AfterLayer(abs - 1),
        None => Partition::AllEdge,
    };
    let mut delta = DeltaState::new(base, partition);
    delta.set_feature(feature);
    let edge_len = partition.edge_len(base.len());
    for &id in path {
        let node = &tree.nodes()[id];
        for a in &node.actions {
            // Compression never applies at or beyond the cut.
            if a.layer_index < edge_len {
                delta.push_action(a.layer_index, a.technique);
            }
        }
        if node.partition_abs.is_some() {
            break;
        }
    }
    delta
}

/// Scores a branch delta at one bandwidth: probe the memo by key,
/// compose + evaluate only on a miss.
fn score_delta(
    delta: &DeltaState<'_>,
    bw: f64,
    env: &EvalEnv,
    base: &ModelSpec,
    memo: &MemoPool,
) -> f64 {
    let key = delta.eval_key(bw);
    memo.get_key(key)
        .unwrap_or_else(|| {
            let candidate = delta.materialize().expect("tree paths compose");
            let e = env.evaluate(base, &candidate, Mbps(bw));
            memo.insert_key(key, e);
            e
        })
        .reward
}

/// Scores a branch delta as the mean over `levels`: one batched memo
/// probe for the whole front, composing at most once across all misses.
fn score_delta_mean(
    delta: &DeltaState<'_>,
    levels: &[f64],
    env: &EvalEnv,
    base: &ModelSpec,
    memo: &MemoPool,
) -> f64 {
    let keys: Vec<u64> = levels.iter().map(|&bw| delta.eval_key(bw)).collect();
    let probed = memo.probe_many(&keys);
    let mut candidate: Option<Candidate> = None;
    let mut sum = 0.0;
    for ((&bw, &key), hit) in levels.iter().zip(&keys).zip(probed) {
        let e = hit.unwrap_or_else(|| {
            let c = candidate
                .get_or_insert_with(|| delta.materialize().expect("tree paths compose"));
            let e = env.evaluate(base, c, Mbps(bw));
            memo.insert_key(key, e);
            e
        });
        sum += e.reward;
    }
    sum / levels.len() as f64
}

/// Forward generation of one episode's tree. Returns the tree (leaf
/// rewards filled in, interior rewards zero) and one tape per node,
/// indexed by node id.
#[allow(clippy::too_many_arguments)]
fn generate_tree(
    controllers: &Controllers,
    base: &Arc<ModelSpec>,
    slices: &BlockSlices,
    env: &EvalEnv,
    levels: &[f64],
    n_blocks: usize,
    cfg: &SearchConfig,
    episode: usize,
    rng: &mut StdRng,
    memo: &MemoPool,
) -> (ModelTree, Vec<EpisodeTape>) {
    let mut tree = ModelTree::new(Arc::clone(base), n_blocks, levels.to_vec());
    let mut tapes: Vec<EpisodeTape> = Vec::new();
    let mut parents: Vec<Option<usize>> = Vec::new();
    let mut head_states: Vec<HeadState> = Vec::new();
    // The root is shared by all forks: condition it on the levels' mean
    // (`levels[len/2]` would bias toward the *upper* level for K = 2).
    let median_bw = levels.iter().sum::<f64>() / levels.len() as f64;

    // BFS frontier: (parent id, fork index). The root conditions on the
    // median level; child forks condition on their level's bandwidth.
    let mut frontier: Vec<(Option<usize>, usize)> = vec![(None, 0)];
    while let Some((parent, fork)) = frontier.pop() {
        let level = parent.map_or(0, |p| tree.nodes()[p].level + 1);
        let bw = if parent.is_none() {
            median_bw
        } else {
            levels[fork]
        };
        let range = tree.block_range(level);
        let block = slices.block(level);
        let mut tape = EpisodeTape::new();
        let force = cfg.force_no_partition(episode, level + 1, n_blocks);
        let action = controllers.partition.sample(
            &mut tape,
            &controllers.params,
            block,
            bw,
            rng,
            force,
        );
        let (partition_abs, compress_len) = match action {
            PartitionAction::NoPartition => (None, block.len()),
            PartitionAction::CutBefore(c) => (Some(range.start + c), c),
        };
        let mut head_state = parent.map_or_else(HeadState::default, |p| head_states[p]);
        let mut actions: Vec<AppliedAction> = Vec::new();
        if compress_len > 0 {
            let edge_block = slices.edge(level, compress_len);
            let plan = controllers.compression.sample_with_state(
                &mut tape,
                &controllers.params,
                edge_block,
                bw,
                rng,
                &mut head_state,
            );
            for (local, a) in plan.actions().iter().enumerate() {
                if let Some(t) = a {
                    actions.push(AppliedAction {
                        layer_index: range.start + local,
                        technique: *t,
                    });
                }
            }
        }
        // The feature policy decides once per cut node: which bottleneck ×
        // quantization pair to apply to the cut tensor. Only cuts that
        // actually transfer bytes consult it, so the disabled path (and
        // every non-partitioned node) draws nothing from the RNG.
        let feature = match (&controllers.feature, partition_abs) {
            (Some(fc), Some(abs)) if abs < base.len() => {
                let raw_bytes = if abs == 0 {
                    base.input_bytes()
                } else {
                    base.cut_bytes_after(abs - 1)
                };
                let f = fc.sample(
                    &mut tape,
                    &controllers.params,
                    bw,
                    abs,
                    base.len(),
                    raw_bytes,
                    rng,
                );
                if !f.is_identity() {
                    telemetry::event!("compress.feature", action = f.code(), raw_bytes = raw_bytes,);
                    telemetry::counter!("compress.feature.picks", 1);
                }
                f
            }
            _ => FeatureAction::IDENTITY,
        };
        let node = TreeNode {
            level,
            partition_abs,
            actions,
            feature,
            children: Vec::new(),
            reward: 0.0,
        };
        let id = tree.push_node(parent, node);
        tapes.push(tape);
        parents.push(parent);
        head_states.push(head_state);

        let is_leaf = partition_abs.is_some() || level + 1 == n_blocks;
        if is_leaf {
            // Reconstruct the path and score the branch — by its decision
            // delta's key, composing only on a memo miss — at this node's
            // conditioning bandwidth.
            let mut path = vec![id];
            let mut cur = parent;
            while let Some(p) = cur {
                path.push(p);
                cur = parents[p];
            }
            path.reverse();
            let delta = path_delta(&tree, &path);
            // A root-level leaf (the whole tree is one branch) must be
            // judged across all levels, not at a single bandwidth.
            let reward = if parent.is_none() {
                score_delta_mean(&delta, levels, env, base, memo)
            } else {
                score_delta(&delta, bw, env, base, memo)
            };
            tree.node_mut(id).reward = reward;
        } else {
            for k in (0..levels.len()).rev() {
                frontier.push((Some(id), k));
            }
        }
    }
    (tree, tapes)
}

/// Builds a *rigid* tree that always deploys `cand` regardless of
/// measured bandwidth: every node follows the candidate's decisions for
/// its block, with a cut inside an earlier block carried at the first
/// opportunity. Executing it is equivalent to the static candidate.
pub fn rigid_tree(
    base: &Arc<ModelSpec>,
    env: &EvalEnv,
    levels: &[f64],
    n_blocks: usize,
    cand: &crate::candidate::Candidate,
    memo: &MemoPool,
) -> ModelTree {
    let mut tree = ModelTree::new(Arc::clone(base), n_blocks, levels.to_vec());
    let cut_abs = match cand.partition {
        Partition::AllEdge => None,
        Partition::AllCloud => Some(0),
        Partition::AfterLayer(i) => Some(i + 1),
    };
    let node_for_level = |level: usize| -> TreeNode {
        let range = tree_range(base, n_blocks, level);
        let node_cut = match cut_abs {
            Some(c) if c <= range.start => Some(range.start),
            Some(c) if range.contains(&c) => Some(c),
            _ => None,
        };
        let compress_to = node_cut.unwrap_or(range.end);
        let actions: Vec<AppliedAction> = cand
            .actions
            .iter()
            .filter(|a| a.layer_index >= range.start && a.layer_index < compress_to)
            .copied()
            .collect();
        TreeNode {
            level,
            partition_abs: node_cut,
            actions,
            // The node owning the cut carries the candidate's feature
            // action; everywhere else it is structurally identity.
            feature: if node_cut.is_some() {
                cand.feature
            } else {
                FeatureAction::IDENTITY
            },
            children: Vec::new(),
            reward: 0.0,
        }
    };
    // Root may carry a block-0 cut directly.
    let r0 = tree.block_range(0);
    let root_cut = cut_abs.filter(|&c| c < r0.end);
    let root_node = TreeNode {
        partition_abs: root_cut,
        ..node_for_level(0)
    };
    let root = tree.push_node(None, root_node);
    if root_cut.is_none() {
        // BFS-fill a complete K-ary tree of identical levels.
        let mut frontier = vec![root];
        while let Some(parent) = frontier.pop() {
            let level = tree.nodes()[parent].level + 1;
            if level >= n_blocks {
                continue;
            }
            for _ in 0..levels.len() {
                let node = node_for_level(level);
                let stop = node.partition_abs.is_some();
                let id = tree.push_node(Some(parent), node);
                if !stop {
                    frontier.push(id);
                }
            }
        }
    }
    complete_tree(&mut tree, env, memo);
    tree
}

/// Block range helper usable before the tree is fully built.
fn tree_range(base: &ModelSpec, n_blocks: usize, level: usize) -> std::ops::Range<usize> {
    base.block_ranges(n_blocks)[level].clone()
}

/// Builds the explicit boost tree: the root takes the best constant-
/// bandwidth branch solution's block-0 decisions — including its
/// partition, if that branch cuts inside block 0 (e.g. an all-cloud
/// deployment), in which case the whole tree *is* that branch. Otherwise
/// each fork `k` follows branch `k`'s decisions for the remaining blocks
/// (a partition that branch `k` placed inside block 0 is deferred to the
/// start of block 1, since a shared non-partitioned root cannot partition
/// per-fork).
fn boost_tree(
    base: &Arc<ModelSpec>,
    env: &EvalEnv,
    levels: &[f64],
    n_blocks: usize,
    branch_candidates: &[crate::candidate::Candidate],
    memo: &MemoPool,
) -> ModelTree {
    let mut tree = ModelTree::new(Arc::clone(base), n_blocks, levels.to_vec());
    // Root from the branch with the highest reward at its own level.
    let root_src = branch_candidates
        .iter()
        .zip(levels)
        .max_by(|(a, &bwa), (b, &bwb)| {
            let ra = env.evaluate(base, a, Mbps(bwa)).reward;
            let rb = env.evaluate(base, b, Mbps(bwb)).reward;
            ra.total_cmp(&rb)
        })
        .map(|(c, _)| c)
        .expect("one branch candidate per level");
    let r0 = tree.block_range(0);
    let root_cut = match root_src.partition {
        Partition::AllEdge => None,
        Partition::AllCloud => Some(0),
        Partition::AfterLayer(i) => Some(i + 1),
    }
    .filter(|&c| c < r0.end);
    let root_actions: Vec<AppliedAction> = root_src
        .actions
        .iter()
        .filter(|a| r0.contains(&a.layer_index) && root_cut.is_none_or(|c| a.layer_index < c))
        .copied()
        .collect();
    let root = tree.push_node(
        None,
        TreeNode {
            level: 0,
            partition_abs: root_cut,
            actions: root_actions,
            feature: if root_cut.is_some() {
                root_src.feature
            } else {
                FeatureAction::IDENTITY
            },
            children: Vec::new(),
            reward: 0.0,
        },
    );
    if root_cut.is_some() {
        // The best branch offloads within block 0: the tree degenerates to
        // that single branch (the paper concedes stable contexts gain
        // little from adaptation).
        complete_tree(&mut tree, env, memo);
        return tree;
    }

    // Fork k: follow branch k for blocks 1..N.
    for (k, cand) in branch_candidates.iter().enumerate() {
        let bw = levels[k];
        let cut_abs = match cand.partition {
            Partition::AllEdge => None,
            Partition::AllCloud => Some(0),
            Partition::AfterLayer(i) => Some(i + 1),
        };
        let mut parent = root;
        for level in 1..n_blocks {
            let range = tree.block_range(level);
            // Defer any cut from block 0 to the start of this block.
            let node_cut = match cut_abs {
                Some(c) if c <= range.start => Some(range.start),
                Some(c) if range.contains(&c) => Some(c),
                _ => None,
            };
            let compress_to = node_cut.unwrap_or(range.end);
            let actions: Vec<AppliedAction> = cand
                .actions
                .iter()
                .filter(|a| a.layer_index >= range.start && a.layer_index < compress_to)
                .copied()
                .collect();
            let id = tree.push_node(
                Some(parent),
                TreeNode {
                    level,
                    partition_abs: node_cut,
                    actions,
                    feature: if node_cut.is_some() {
                        cand.feature
                    } else {
                        FeatureAction::IDENTITY
                    },
                    children: Vec::new(),
                    reward: 0.0,
                },
            );
            if node_cut.is_some() {
                break;
            }
            parent = id;
            // Other forks at deeper levels replicate the same branch; the
            // outer loop only fills fork k's spine, so fill the sibling
            // forks lazily below.
        }
        let _ = bw;
    }
    complete_tree(&mut tree, env, memo);
    tree
}

/// Fills missing children (with identity blocks) so every interior node
/// has exactly `K` children, then scores all branch leaves.
fn complete_tree(tree: &mut ModelTree, env: &EvalEnv, memo: &MemoPool) {
    let k = tree.k();
    let n = tree.n_blocks();
    // Fill: iterate until no node needs children (node count grows).
    let mut i = 0;
    while i < tree.nodes().len() {
        let node = &tree.nodes()[i];
        let needs = node.partition_abs.is_none()
            && node.level + 1 < n
            && node.children.len() < k;
        if needs {
            let level = node.level + 1;
            while tree.nodes()[i].children.len() < k {
                tree.push_node(
                    Some(i),
                    TreeNode {
                        level,
                        partition_abs: None,
                        actions: Vec::new(),
                        feature: FeatureAction::IDENTITY,
                        children: Vec::new(),
                        reward: 0.0,
                    },
                );
            }
        }
        i += 1;
    }
    // Score every leaf at the bandwidth of the fork that reaches it; a
    // root-only path (the tree degenerated to one branch) is scored as the
    // mean over all K levels so rigid trees are not judged at a single
    // optimistic bandwidth. The whole expansion front is probed against
    // the memo in one batch (one lock acquisition), and a branch is
    // composed only when one of its bandwidths misses.
    let scored: Vec<(usize, f64)> = {
        let branches = tree.branches();
        let levels: Vec<f64> = tree.levels().to_vec();
        let base = tree.base();
        let mut jobs: Vec<(usize, DeltaState<'_>, Vec<f64>)> =
            Vec::with_capacity(branches.len());
        let mut starts: Vec<usize> = Vec::with_capacity(branches.len());
        let mut keys: Vec<u64> = Vec::new();
        for path in &branches {
            let leaf = *path.last().expect("non-empty branch");
            let delta = path_delta(tree, path);
            let bws: Vec<f64> = if path.len() >= 2 {
                let parent = path[path.len() - 2];
                let fork = tree.nodes()[parent]
                    .children
                    .iter()
                    .position(|&c| c == leaf)
                    .expect("leaf is its parent's child");
                vec![levels[fork]]
            } else {
                levels.clone()
            };
            starts.push(keys.len());
            keys.extend(bws.iter().map(|&bw| delta.eval_key(bw)));
            jobs.push((leaf, delta, bws));
        }
        let probed = memo.probe_many(&keys);
        jobs.into_iter()
            .zip(starts)
            .map(|((leaf, delta, bws), start)| {
                let mut candidate: Option<Candidate> = None;
                let mut sum = 0.0;
                for (j, &bw) in bws.iter().enumerate() {
                    let key = keys[start + j];
                    let e = probed[start + j].unwrap_or_else(|| {
                        let c = candidate.get_or_insert_with(|| {
                            delta.materialize().expect("tree paths compose")
                        });
                        let e = env.evaluate(base, c, Mbps(bw));
                        memo.insert_key(key, e);
                        e
                    });
                    sum += e.reward;
                }
                (leaf, sum / bws.len() as f64)
            })
            .collect()
    };
    for (leaf, reward) in scored {
        tree.node_mut(leaf).reward = reward;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    fn quick_search(seed: u64, boost: bool) -> (TreeSearchResult, Controllers) {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let cfg = SearchConfig {
            episodes: 25,
            ..SearchConfig::quick(seed)
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let ctx = crate::context::NetworkContext::from_scenario(
            cadmc_netsim::Scenario::WifiWeakIndoor,
            2,
            seed,
        );
        let result = tree_search(
            &mut controllers,
            &base,
            &env,
            ctx.levels(),
            3,
            &cfg,
            &memo,
            boost,
            Some(ctx.trace()),
        )
        .expect("valid inputs");
        (result, controllers)
    }

    #[test]
    fn produces_structurally_valid_trees() {
        let (result, _) = quick_search(1, false);
        let tree = &result.tree;
        assert!(tree.root().is_some());
        for node in tree.nodes() {
            assert!(
                node.children.is_empty() || node.children.len() == tree.k(),
                "interior nodes must have exactly K children"
            );
            if node.partition_abs.is_some() {
                assert!(node.children.is_empty(), "partitioned nodes are leaves");
            }
        }
        // Every branch composes into a valid candidate.
        for path in tree.branches() {
            let c = tree.compose_path(&path);
            assert_eq!(c.model.output_shape(), tree.base().output_shape());
        }
    }

    #[test]
    fn episode_scores_are_rewards() {
        let (result, _) = quick_search(2, false);
        assert_eq!(result.episode_scores.len(), 25);
        for &s in &result.episode_scores {
            assert!((0.0..=400.0).contains(&s));
        }
        assert!(result.best_branch_reward > 0.0);
    }

    #[test]
    fn boosted_search_is_at_least_unboosted_seed_tree() {
        let (boosted, _) = quick_search(3, true);
        // The boosted tree's mean reward can only improve over episodes;
        // sanity: it returns something reasonable.
        assert!(boosted.tree.mean_branch_reward() > 250.0);
    }

    #[test]
    fn compose_from_searched_tree_adapts_to_bandwidth() {
        let (result, _) = quick_search(4, true);
        let tree = &result.tree;
        let (_, poor) = tree.compose(|_| tree.levels()[0] * 0.5);
        let (_, good) = tree.compose(|_| tree.levels()[1] * 2.0);
        // Both compose valid candidates (they may coincide if the tree
        // found a bandwidth-insensitive optimum).
        assert_eq!(poor.model.output_shape(), tree.base().output_shape());
        assert_eq!(good.model.output_shape(), tree.base().output_shape());
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = quick_search(5, false);
        let (b, _) = quick_search(5, false);
        assert_eq!(a.episode_scores, b.episode_scores);
    }
}
