//! Non-RL search baselines for Fig. 7: **random search** and **ε-greedy
//! search** over the same (partition × compression) action space and the
//! same episode budget as the RL engine. (The paper rules out exhaustive
//! search: the space grows exponentially in depth.)

use cadmc_compress::{CompressionPlan, FeatureAction, Technique};
use cadmc_latency::Mbps;
use cadmc_nn::ModelSpec;
use cadmc_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::branch::SearchOutcome;
use crate::candidate::{Candidate, Partition};
use crate::delta::DeltaState;
use crate::env::EvalEnv;
use crate::memo::MemoPool;
use crate::parallel::{par_map_indexed, Parallelism};
use crate::reward::Evaluation;
use crate::validate::{self, ValidateError};

/// Episodes per proposal batch: within a batch, proposals are generated in
/// parallel from the best candidate *at batch start* (each episode on its
/// own `seed ^ episode` RNG stream); best-so-far tracking is then applied
/// sequentially in episode order. Fixed — independent of worker count — so
/// results are bit-identical for any [`Parallelism`].
const BASELINE_BATCH: usize = 8;

/// Samples a uniformly random partition for `base`.
pub fn random_partition(base: &ModelSpec, rng: &mut StdRng) -> Partition {
    // Options: all-cloud, interior cuts, all-edge — uniform over L+1.
    let pick = rng.random_range(0..=base.len());
    if pick == 0 {
        Partition::AllCloud
    } else if pick == base.len() {
        Partition::AllEdge
    } else {
        Partition::AfterLayer(pick - 1)
    }
}

/// Samples a uniformly random applicable compression plan for the first
/// `edge_len` layers of `base` (respecting the F3-conflict rule).
pub fn random_plan(base: &ModelSpec, edge_len: usize, rng: &mut StdRng) -> CompressionPlan {
    let mut plan = CompressionPlan::identity(base.len());
    let mut f3_used = false;
    let mut f_used = false;
    for i in 0..edge_len {
        let mut options: Vec<Option<Technique>> = vec![None];
        for t in Technique::applicable_at(base, i) {
            let conflict = match t {
                Technique::F3Gap => f3_used || f_used,
                Technique::F1Svd | Technique::F2Ksvd => f3_used,
                _ => false,
            };
            if !conflict {
                options.push(Some(t));
            }
        }
        let pick = options[rng.random_range(0..options.len())];
        if let Some(t) = pick {
            plan.set(i, Some(t));
            match t {
                Technique::F3Gap => f3_used = true,
                Technique::F1Svd | Technique::F2Ksvd => f_used = true,
                _ => {}
            }
        }
    }
    plan
}

fn edge_len_of(base: &ModelSpec, p: Partition) -> usize {
    match p {
        Partition::AllEdge => base.len(),
        Partition::AllCloud => 0,
        Partition::AfterLayer(i) => i + 1,
    }
}

/// Samples a uniform (partition, plan) proposal. With `feature_actions`
/// a transfer-bearing cut also draws a uniform feature action, so the
/// plain path draws exactly the partition and plan samples.
fn random_proposal(
    base: &ModelSpec,
    rng: &mut StdRng,
    feature_actions: bool,
) -> (Partition, CompressionPlan, FeatureAction) {
    let partition = random_partition(base, rng);
    let plan = random_plan(base, edge_len_of(base, partition), rng);
    let feature = if feature_actions && edge_len_of(base, partition) < base.len() {
        random_feature(rng)
    } else {
        FeatureAction::IDENTITY
    };
    (partition, plan, feature)
}

/// Samples a uniformly random feature action for the cut tensor. Only
/// called for transfer-bearing partitions, so the feature-enabled
/// baselines draw from the RNG exactly when the RL engine would.
pub fn random_feature(rng: &mut StdRng) -> FeatureAction {
    FeatureAction::from_index(rng.random_range(0..FeatureAction::COUNT))
}

#[cfg(test)]
fn random_candidate(base: &ModelSpec, rng: &mut StdRng) -> Candidate {
    let (partition, plan, _) = random_proposal(base, rng, false);
    Candidate::compose(base, partition, &plan).expect("random plans are applicable")
}

/// Proposals stay as (partition, plan) decisions so the episode loop can
/// probe the memo by delta key and only compose candidates on misses or
/// improvements — the same deferral the RL hot path uses.
#[allow(clippy::too_many_arguments)]
fn run_search(
    base: &ModelSpec,
    env: &EvalEnv,
    bandwidth: Mbps,
    episodes: usize,
    seed: u64,
    memo: &MemoPool,
    par: Parallelism,
    propose: impl Fn(&mut StdRng, Option<&Candidate>) -> (Partition, CompressionPlan, FeatureAction)
        + Sync,
) -> Result<SearchOutcome, ValidateError> {
    validate::model_spec(base)?;
    validate::bandwidth(bandwidth.0)?;
    if episodes == 0 {
        return Err(ValidateError::BadConfig {
            field: "episodes",
            detail: "must be at least 1".to_string(),
        });
    }
    let search_span = telemetry::span!(
        "baseline.search",
        episodes = episodes,
        bandwidth = bandwidth.0,
        workers = par.workers,
    );
    let mut episode_rewards = Vec::with_capacity(episodes);
    let mut best: Option<(Candidate, Evaluation)> = None;
    let mut improvers: Vec<(Candidate, Evaluation)> = Vec::new();
    let mut batch_start = 0;
    while batch_start < episodes {
        let batch_end = (batch_start + BASELINE_BATCH).min(episodes);
        let anchor = best.as_ref().map(|(c, _)| c.clone());
        let rollouts = par_map_indexed(batch_end - batch_start, par.workers, |offset| {
            let episode = batch_start + offset;
            let episode_span = telemetry::span!("baseline.episode", episode = episode);
            let mut rng = StdRng::seed_from_u64(seed ^ episode as u64);
            let (partition, plan, feature) = propose(&mut rng, anchor.as_ref());
            let mut delta = DeltaState::from_plan(base, partition, &plan);
            delta.set_feature(feature);
            let key = delta.eval_key(bandwidth.0);
            let eval = memo.get_key(key).unwrap_or_else(|| {
                let candidate = delta
                    .materialize()
                    .expect("random plans are applicable");
                let e = env.evaluate(base, &candidate, bandwidth);
                memo.insert_key(key, e);
                e
            });
            episode_span.record("reward", eval.reward);
            (delta, eval)
        });
        for (delta, eval) in rollouts {
            episode_rewards.push(eval.reward);
            let replace = match &best {
                Some((_, be)) => eval.reward > be.reward,
                None => true,
            };
            if replace {
                let candidate = delta
                    .materialize()
                    .expect("random plans are applicable");
                improvers.push((candidate.clone(), eval));
                best = Some((candidate, eval));
            }
        }
        batch_start = batch_end;
    }
    let (best, best_eval) = best.expect("episodes >= 1 was validated");
    search_span.record("best_reward", best_eval.reward);
    Ok(SearchOutcome {
        best,
        best_eval,
        episode_rewards,
        improvers,
    })
}

/// Pure random search: every episode samples a fresh uniform candidate.
/// With `feature_actions` the search runs over the *enlarged* action
/// space: each proposal also draws a uniform feature-compression action
/// for transfer-bearing cuts, mirroring `SearchConfig::feature_actions`
/// for the RL engine.
///
/// # Errors
///
/// Returns [`ValidateError`] for an empty model, non-finite bandwidth or
/// a zero episode budget.
#[allow(clippy::too_many_arguments)]
pub fn random_search(
    base: &ModelSpec,
    env: &EvalEnv,
    bandwidth: Mbps,
    episodes: usize,
    seed: u64,
    memo: &MemoPool,
    par: Parallelism,
    feature_actions: bool,
) -> Result<SearchOutcome, ValidateError> {
    run_search(base, env, bandwidth, episodes, seed, memo, par, |rng, _| {
        random_proposal(base, rng, feature_actions)
    })
}

/// ε-greedy search: with probability ε explore a uniform random candidate,
/// otherwise locally mutate the best candidate found so far (re-randomize
/// one layer's compression action, or nudge the partition point). Within a
/// rollout batch, mutations start from the best candidate at batch start.
/// With `feature_actions`, explore steps also sample a uniform feature
/// action (as in [`random_search`]) and mutations inherit the
/// incumbent's feature.
///
/// # Errors
///
/// Returns [`ValidateError`] for an empty model, non-finite bandwidth,
/// zero episode budget or an ε outside `[0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn epsilon_greedy_search(
    base: &ModelSpec,
    env: &EvalEnv,
    bandwidth: Mbps,
    episodes: usize,
    epsilon: f64,
    seed: u64,
    memo: &MemoPool,
    par: Parallelism,
    feature_actions: bool,
) -> Result<SearchOutcome, ValidateError> {
    if !epsilon.is_finite() || !(0.0..=1.0).contains(&epsilon) {
        return Err(ValidateError::BadConfig {
            field: "explore_epsilon",
            detail: format!("probability {epsilon} must be in [0, 1]"),
        });
    }
    run_search(
        base,
        env,
        bandwidth,
        episodes,
        seed,
        memo,
        par,
        |rng, best| match best {
            Some(b) if rng.random_range(0.0..1.0) >= epsilon => mutate(base, b, rng),
            _ => random_proposal(base, rng, feature_actions),
        },
    )
}

/// One local move in the (partition × compression) space. The current
/// candidate's feature action rides along unchanged (the delta layer
/// normalizes it to identity if the move removes the transfer).
fn mutate(
    base: &ModelSpec,
    current: &Candidate,
    rng: &mut StdRng,
) -> (Partition, CompressionPlan, FeatureAction) {
    let mut partition = current.partition;
    // Rebuild the plan from the candidate's recorded actions.
    let mut plan = CompressionPlan::identity(base.len());
    for a in &current.actions {
        plan.set(a.layer_index, Some(a.technique));
    }
    if rng.random_range(0.0..1.0) < 0.5 {
        // Nudge the partition point by one layer.
        let cur = match partition {
            Partition::AllCloud => 0isize,
            Partition::AfterLayer(i) => i as isize + 1,
            Partition::AllEdge => base.len() as isize,
        };
        let next = (cur + if rng.random_range(0..2) == 0 { -1 } else { 1 })
            .clamp(0, base.len() as isize);
        partition = if next == 0 {
            Partition::AllCloud
        } else if next == base.len() as isize {
            Partition::AllEdge
        } else {
            Partition::AfterLayer(next as usize - 1)
        };
    } else {
        // Re-randomize one layer's action within the edge region.
        let edge_len = edge_len_of(base, partition);
        if edge_len > 0 {
            let i = rng.random_range(0..edge_len);
            let fresh = random_plan(base, edge_len, rng);
            plan.set(i, fresh.get(i));
        }
    }
    // Clamp the plan to the edge region; conflicts the mutation may have
    // introduced (e.g. a second F3) are dropped when the plan composes —
    // `Candidate::compose` sanitizes, so proposals stay total.
    let edge_len = edge_len_of(base, partition);
    for i in edge_len..base.len() {
        plan.set(i, None);
    }
    (partition, plan, current.feature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn random_search_finds_valid_candidates() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let memo = MemoPool::new();
        let par = Parallelism::serial();
        let out = random_search(&base, &env, Mbps(10.0), 40, 1, &memo, par, false)
            .expect("valid inputs");
        assert_eq!(out.episode_rewards.len(), 40);
        assert!(out.best_eval.reward > 0.0);
    }

    #[test]
    fn epsilon_greedy_is_at_least_as_good_as_its_explore_phase() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let memo = MemoPool::new();
        let out = epsilon_greedy_search(
            &base,
            &env,
            Mbps(10.0),
            60,
            0.3,
            2,
            &memo,
            Parallelism::serial(),
            false,
        )
        .expect("valid inputs");
        let curve = out.best_so_far();
        assert!(curve.last().unwrap() >= curve.first().unwrap());
    }

    #[test]
    fn random_candidates_cover_the_space() {
        let base = zoo::vgg11_cifar();
        let mut rng = StdRng::seed_from_u64(3);
        let mut partitions = std::collections::HashSet::new();
        let mut any_compressed = false;
        for _ in 0..60 {
            let c = random_candidate(&base, &mut rng);
            partitions.insert(format!("{}", c.partition));
            any_compressed |= c.is_compressed();
        }
        assert!(partitions.len() > 5, "only {} partitions seen", partitions.len());
        assert!(any_compressed);
    }

    #[test]
    fn mutation_produces_valid_candidates() {
        let base = zoo::vgg11_cifar();
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = random_candidate(&base, &mut rng);
        for _ in 0..50 {
            let (partition, plan, _) = mutate(&base, &c, &mut rng);
            c = Candidate::compose(&base, partition, &plan).expect("mutations compose");
            assert_eq!(c.model.output_shape(), base.output_shape());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let par = Parallelism::serial();
        let a = random_search(&base, &env, Mbps(5.0), 20, 7, &MemoPool::new(), par, false)
            .expect("valid inputs");
        let b = random_search(&base, &env, Mbps(5.0), 20, 7, &MemoPool::new(), par, false)
            .expect("valid inputs");
        assert_eq!(a.episode_rewards, b.episode_rewards);
    }

    #[test]
    fn feature_baselines_explore_the_enlarged_space() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let memo = MemoPool::new();
        let out = random_search(
            &base,
            &env,
            Mbps(0.5),
            60,
            9,
            &memo,
            Parallelism::serial(),
            true,
        )
        .expect("valid inputs");
        assert_eq!(out.episode_rewards.len(), 60);
        // The winner always validates under the enlarged-space rules.
        validate::candidate(&base, &out.best).unwrap();
        // Under starved bandwidth, some improver should have shipped a
        // compressed cut tensor (16–32x fewer bytes dominate the reward).
        let any_feature = out
            .improvers
            .iter()
            .any(|(c, _)| !c.feature.is_identity());
        assert!(any_feature, "no feature action ever improved the search");
    }

    #[test]
    fn plain_baselines_never_pick_features() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let out = random_search(
            &base,
            &env,
            Mbps(0.5),
            40,
            9,
            &MemoPool::new(),
            Parallelism::serial(),
            false,
        )
        .expect("valid inputs");
        assert!(out.best.feature.is_identity());
        assert!(out.improvers.iter().all(|(c, _)| c.feature.is_identity()));
    }

    #[test]
    fn feature_search_is_deterministic_across_workers() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let serial = epsilon_greedy_search(
            &base,
            &env,
            Mbps(0.5),
            30,
            0.3,
            13,
            &MemoPool::new(),
            Parallelism::serial(),
            true,
        )
        .expect("valid inputs");
        let parallel = epsilon_greedy_search(
            &base,
            &env,
            Mbps(0.5),
            30,
            0.3,
            13,
            &MemoPool::new(),
            Parallelism::new(8),
            true,
        )
        .expect("valid inputs");
        assert_eq!(serial.episode_rewards, parallel.episode_rewards);
        assert_eq!(serial.best, parallel.best);
    }

    #[test]
    fn identical_results_for_any_worker_count() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let serial = epsilon_greedy_search(
            &base,
            &env,
            Mbps(5.0),
            30,
            0.3,
            11,
            &MemoPool::new(),
            Parallelism::serial(),
            false,
        )
        .expect("valid inputs");
        let parallel = epsilon_greedy_search(
            &base,
            &env,
            Mbps(5.0),
            30,
            0.3,
            11,
            &MemoPool::new(),
            Parallelism::new(8),
            false,
        )
        .expect("valid inputs");
        assert_eq!(serial.episode_rewards, parallel.episode_rewards);
        assert_eq!(serial.best, parallel.best);
    }
}
