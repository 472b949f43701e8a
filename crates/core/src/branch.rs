//! **Algorithm 1 — Model Compression and Partition** (optimal *branch*
//! search): the joint RL search for a partition point and per-layer
//! compression plan under one constant bandwidth.
//!
//! Each episode: the partition controller reads `(B, W)` and cuts the base
//! model into an edge and a cloud half; the compression controller reads
//! the edge half and assigns a technique per layer; the composed candidate
//! is scored by Eq. 7 and both controllers are updated by Monte-Carlo
//! policy gradient. The best candidate over all episodes is returned.

use cadmc_latency::Mbps;
use cadmc_nn::ModelSpec;
use cadmc_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::candidate::Candidate;
use crate::controller::EpisodeTape;
use crate::delta::{DeltaState, EdgePrefixes};
use crate::env::EvalEnv;
use crate::memo::MemoPool;
use crate::parallel::par_map_indexed;
use crate::reward::Evaluation;
use crate::search::{to_partition, Controllers, SearchConfig};
use crate::validate::{self, ValidateError};

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best candidate found.
    pub best: Candidate,
    /// Its evaluation at the search bandwidth.
    pub best_eval: Evaluation,
    /// Reward of each episode's sampled candidate, in order.
    pub episode_rewards: Vec<f64>,
    /// Every candidate that set a new best during the search (ending with
    /// `best`). Callers re-ranking by replayed execution rather than
    /// point reward pick among these.
    pub improvers: Vec<(Candidate, Evaluation)>,
}

impl SearchOutcome {
    /// Best-so-far reward curve (running maximum of episode rewards).
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.episode_rewards
            .iter()
            .map(|&r| {
                best = best.max(r);
                best
            })
            .collect()
    }
}

/// Samples one (partition, compression) episode as a [`DeltaState`] —
/// decisions only, no candidate composition.
///
/// Returns the tape (for the policy update) alongside the delta. With
/// probability `explore_epsilon` the partition is drawn uniformly
/// (off-policy, no log-probability recorded) instead of from the policy.
/// `prefixes` supplies the edge prefix specs the compression controller
/// conditions on (built once per search).
pub fn sample_delta<'a>(
    controllers: &Controllers,
    base: &'a ModelSpec,
    prefixes: &EdgePrefixes,
    bandwidth: f64,
    rng: &mut StdRng,
    force_no_partition: f64,
    explore_epsilon: f64,
) -> (EpisodeTape, DeltaState<'a>) {
    use rand::RngExt;
    let mut tape = EpisodeTape::new();
    let partition = if explore_epsilon > 0.0 && rng.random_range(0.0..1.0) < explore_epsilon {
        crate::baselines::random_partition(base, rng)
    } else {
        let action = controllers.partition.sample(
            &mut tape,
            &controllers.params,
            base,
            bandwidth,
            rng,
            force_no_partition,
        );
        to_partition(action, base)
    };
    let mut delta = DeltaState::new(base, partition);
    let edge_len = partition.edge_len(base.len());
    if edge_len > 0 {
        let edge_plan = controllers.compression.sample(
            &mut tape,
            &controllers.params,
            prefixes.get(edge_len),
            bandwidth,
            rng,
        );
        for (i, a) in edge_plan.actions().iter().enumerate() {
            if let Some(t) = *a {
                delta.push_action(i, t);
            }
        }
    }
    // Third action family (gated): feature compression of the cut tensor.
    // The disabled path samples nothing — zero extra RNG draws or tape
    // entries — preserving bit-exact pre-feature behavior.
    if let Some(fc) = &controllers.feature {
        if edge_len < base.len() {
            let raw_bytes = if edge_len == 0 {
                base.input_bytes()
            } else {
                base.cut_bytes_after(edge_len - 1)
            };
            let feature = fc.sample(
                &mut tape,
                &controllers.params,
                bandwidth,
                edge_len,
                base.len(),
                raw_bytes,
                rng,
            );
            delta.set_feature(feature);
            if !feature.is_identity() {
                telemetry::event!(
                    "compress.feature",
                    action = feature.code(),
                    raw_bytes = raw_bytes,
                );
                telemetry::counter!("compress.feature.picks", 1);
            }
        }
    }
    (tape, delta)
}

/// RNG stream salt for the branch search (`"branch"`).
const BRANCH_SALT: u64 = 0x6272_616e_6368;

/// Histogram buckets for Eq. 7 episode rewards (they land in 0..400).
pub(crate) const REWARD_BOUNDS: &[f64] =
    &[0.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0];

/// Runs Algorithm 1: searches compression + partition for `base` under the
/// constant bandwidth `bandwidth`, updating `controllers` in place.
///
/// Episodes are rolled out in batches of `cfg.rollout_batch` from frozen
/// controller parameters — in parallel across `cfg.parallelism.workers`
/// threads, each episode on its own `seed ^ episode` RNG stream — and the
/// policy updates are then applied sequentially in episode order, so the
/// result is bit-identical for any worker count.
///
/// # Errors
///
/// Returns [`ValidateError`] when the model, bandwidth or configuration
/// fails [`validate::branch_inputs`]; no episode runs in that case.
pub fn optimal_branch(
    controllers: &mut Controllers,
    base: &ModelSpec,
    env: &EvalEnv,
    bandwidth: Mbps,
    cfg: &SearchConfig,
    memo: &MemoPool,
) -> Result<SearchOutcome, ValidateError> {
    validate::branch_inputs(base, bandwidth.0, cfg)?;
    let search_span = telemetry::span!(
        "branch.search",
        episodes = cfg.episodes,
        bandwidth = bandwidth.0,
        workers = cfg.parallelism.workers,
    );
    let mut episode_rewards = Vec::with_capacity(cfg.episodes);
    let mut best: Option<(Candidate, Evaluation)> = None;
    let mut improvers: Vec<(Candidate, Evaluation)> = Vec::new();

    // Built once, shared read-only by every rollout worker: the edge
    // prefixes the compression controller conditions on.
    let prefixes = EdgePrefixes::new(base);
    let batch_size = cfg.rollout_batch.max(1);
    let mut batch_start = 0;
    while batch_start < cfg.episodes {
        let batch_end = (batch_start + batch_size).min(cfg.episodes);
        let rollouts = {
            let shared: &Controllers = controllers;
            let prefixes = &prefixes;
            par_map_indexed(
                batch_end - batch_start,
                cfg.parallelism.workers,
                |offset| {
                    let episode = batch_start + offset;
                    let episode_span = telemetry::span!("branch.episode", episode = episode);
                    let mut rng =
                        StdRng::seed_from_u64(cfg.seed ^ BRANCH_SALT ^ episode as u64);
                    let (tape, delta) = sample_delta(
                        shared,
                        base,
                        prefixes,
                        bandwidth.0,
                        &mut rng,
                        0.0,
                        cfg.explore_epsilon,
                    );
                    // Probe by the delta's key; compose only on a miss.
                    let key = delta.eval_key(bandwidth.0);
                    let eval = memo.get_key(key).unwrap_or_else(|| {
                        let _eval_span = telemetry::span!("eval.candidate");
                        let candidate = delta
                            .materialize()
                            .expect("sampled plans are applicable by construction");
                        let e = env.evaluate(base, &candidate, bandwidth);
                        memo.insert_key(key, e);
                        e
                    });
                    episode_span.record("reward", eval.reward);
                    (tape, delta, eval)
                },
            )
        };
        for (tape, delta, eval) in rollouts {
            episode_rewards.push(eval.reward);
            telemetry::hist!("branch.reward", REWARD_BOUNDS, eval.reward);
            let replace = match &best {
                Some((_, be)) => eval.reward > be.reward,
                None => true,
            };
            if replace {
                // Materialization is deterministic, so re-composing the
                // (rare) improvers here gives byte-identical results to
                // the old compose-every-episode loop.
                let candidate = delta
                    .materialize()
                    .expect("sampled plans are applicable by construction");
                improvers.push((candidate.clone(), eval));
                best = Some((candidate, eval));
            }
            controllers
                .trainer
                .update_batch(&mut controllers.params, vec![(tape, eval.reward)]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn branch_search_beats_or_matches_surgery() {
        // The branch search space strictly contains surgery's (identity
        // compression + any cut), so with enough episodes its best reward
        // must be at least surgery's.
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let bw = Mbps(8.0);
        let cfg = SearchConfig {
            episodes: 80,
            ..SearchConfig::quick(3)
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let outcome =
            optimal_branch(&mut controllers, &base, &env, bw, &cfg, &memo).expect("valid inputs");
        let surgery = crate::surgery::plan(&base, &env, bw);
        assert!(
            outcome.best_eval.reward >= surgery.evaluation.reward - 2.0,
            "branch {:.2} vs surgery {:.2}",
            outcome.best_eval.reward,
            surgery.evaluation.reward
        );
    }

    #[test]
    fn rewards_are_sane() {
        let base = zoo::alexnet_cifar();
        let env = EvalEnv::phone();
        let cfg = SearchConfig::quick(1);
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let outcome = optimal_branch(&mut controllers, &base, &env, Mbps(10.0), &cfg, &memo)
            .expect("valid inputs");
        assert_eq!(outcome.episode_rewards.len(), cfg.episodes);
        for &r in &outcome.episode_rewards {
            assert!((0.0..=400.0).contains(&r));
        }
        let curve = outcome.best_so_far();
        for pair in curve.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }

    #[test]
    fn memo_pool_gets_hits_during_search() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let cfg = SearchConfig {
            episodes: 60,
            ..SearchConfig::quick(2)
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let _ = optimal_branch(&mut controllers, &base, &env, Mbps(10.0), &cfg, &memo)
            .expect("valid inputs");
        assert!(
            memo.hits() > 0,
            "60 episodes on a 7-layer model must revisit candidates"
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let cfg = SearchConfig::quick(9);
        let run = || {
            let mut controllers = Controllers::new(&cfg);
            let memo = MemoPool::new();
            optimal_branch(&mut controllers, &base, &env, Mbps(10.0), &cfg, &memo)
                .expect("valid inputs")
                .episode_rewards
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn feature_actions_search_is_deterministic_and_explores() {
        let base = zoo::tiny_cnn();
        let env = EvalEnv::phone();
        let cfg = SearchConfig {
            episodes: 40,
            feature_actions: true,
            ..SearchConfig::quick(5)
        };
        let run = || {
            let mut controllers = Controllers::new(&cfg);
            let memo = MemoPool::new();
            optimal_branch(&mut controllers, &base, &env, Mbps(0.5), &cfg, &memo)
                .expect("valid inputs")
        };
        let a = run();
        let b = run();
        assert_eq!(a.episode_rewards, b.episode_rewards);
        assert_eq!(a.best.summary(), b.best.summary());
        crate::validate::candidate(&base, &a.best).expect("best candidate validates");
        // The untrained feature policy explores: sampling deltas directly
        // must surface non-identity feature actions on partitioned cuts.
        let controllers = Controllers::new(&cfg);
        let prefixes = EdgePrefixes::new(&base);
        let mut rng = StdRng::seed_from_u64(11);
        let mut saw_feature = false;
        for _ in 0..60 {
            let (_, delta) = sample_delta(&controllers, &base, &prefixes, 0.5, &mut rng, 0.0, 0.5);
            if !delta.feature().is_identity() {
                assert_ne!(
                    delta.partition().edge_len(base.len()),
                    base.len(),
                    "features only attach to transfer-bearing partitions"
                );
                saw_feature = true;
            }
        }
        assert!(saw_feature, "feature policy never sampled a non-identity action");
    }
}
