//! Shared search infrastructure: configuration, the controller bundle, and
//! the mapping from controller actions to deployment partitions.

use cadmc_autodiff::ParamSet;
use cadmc_nn::ModelSpec;

use crate::candidate::Partition;
use crate::controller::{
    CompressionController, FeatureController, PartitionAction, PartitionController, Reinforce,
};

/// Hyper-parameters shared by the branch and tree searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Training episodes.
    pub episodes: usize,
    /// LSTM hidden width per direction.
    pub hidden: usize,
    /// Policy-gradient learning rate.
    pub lr: f32,
    /// RNG / initialization seed.
    pub seed: u64,
    /// Initial forced-no-partition exploration factor α (§VII-A
    /// "exploration with fair chances"); decays to zero over the first
    /// `alpha_decay_episodes`.
    pub alpha: f64,
    /// Episodes over which α decays linearly to zero.
    pub alpha_decay_episodes: usize,
    /// Backward-estimation rule for the tree search (the paper averages;
    /// `Max` is the ablation variant).
    pub backward_rule: crate::tree::BackwardRule,
    /// Probability of replacing the partition policy's sample with a
    /// uniform random partition (off-policy exploration, no gradient).
    /// Keeps rarely-sampled corners like "offload everything" visible
    /// even after the policy starts to concentrate.
    pub explore_epsilon: f64,
    /// Entropy-bonus coefficient β for the policy-gradient loss
    /// (`0` disables). Off by default: with the short episode budgets the
    /// engine uses, even a small bonus keeps the policies too diffuse to
    /// exploit (see the `ablation_quality` binary); it is exposed for the
    /// ablation and for long-budget users.
    pub entropy_beta: f32,
    /// Episodes rolled out per policy snapshot: within a batch all
    /// episodes sample from the same frozen controller parameters (each
    /// on its own [`episode_stream`](crate::parallel::episode_stream)),
    /// then their REINFORCE updates are applied sequentially in episode
    /// order. This is what
    /// makes rollouts parallelizable without losing determinism — the
    /// batch size (not the worker count) defines the learning dynamics.
    pub rollout_batch: usize,
    /// Rollout worker pool. Purely a scheduling knob: any value produces
    /// bit-identical results (see [`crate::parallel`]).
    pub parallelism: crate::parallel::Parallelism,
    /// Enables the third action family: feature compression (bottleneck ×
    /// quantization) of the cut tensor, searched jointly with partition
    /// and layer compression. Off by default — when disabled, no feature
    /// parameters register, no extra RNG draws happen, and every search
    /// output is bit-identical to the pre-feature engine.
    pub feature_actions: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            episodes: 120,
            hidden: 16,
            lr: 8e-3,
            seed: 0,
            alpha: 0.5,
            alpha_decay_episodes: 30,
            backward_rule: crate::tree::BackwardRule::Mean,
            explore_epsilon: 0.1,
            entropy_beta: 0.0,
            rollout_batch: 8,
            parallelism: crate::parallel::Parallelism::serial(),
            feature_actions: false,
        }
    }
}

impl SearchConfig {
    /// A fast configuration for tests.
    pub fn quick(seed: u64) -> Self {
        Self {
            episodes: 30,
            hidden: 8,
            seed,
            ..Self::default()
        }
    }

    /// The forced-no-partition probability at `episode` for a block at
    /// tree level `level` (1-based) of `n_levels`: `α · (N − n)/N`,
    /// with α decaying linearly to zero.
    pub fn force_no_partition(&self, episode: usize, level: usize, n_levels: usize) -> f64 {
        if episode >= self.alpha_decay_episodes || n_levels == 0 {
            return 0.0;
        }
        let alpha = self.alpha * (1.0 - episode as f64 / self.alpha_decay_episodes as f64);
        alpha * (n_levels.saturating_sub(level)) as f64 / n_levels as f64
    }
}

/// The decision engine's trainable state: both controllers over one shared
/// parameter set, plus the policy-gradient trainer.
#[derive(Debug)]
pub struct Controllers {
    /// Shared trainable parameters of both controllers.
    pub params: ParamSet,
    /// The partition policy π_p.
    pub partition: PartitionController,
    /// The compression policy π_c.
    pub compression: CompressionController,
    /// The feature-compression policy π_f over the cut tensor. `None`
    /// unless [`SearchConfig::feature_actions`] is set — registered last
    /// so enabling it never renumbers the other controllers' parameters.
    pub feature: Option<FeatureController>,
    /// Monte-Carlo policy-gradient trainer.
    pub trainer: Reinforce,
}

impl Controllers {
    /// Fresh randomly-initialized controllers.
    pub fn new(cfg: &SearchConfig) -> Self {
        let mut params = ParamSet::new();
        let partition = PartitionController::new(&mut params, "partition", cfg.hidden, cfg.seed);
        let compression =
            CompressionController::new(&mut params, "compression", cfg.hidden, cfg.seed ^ 0x77);
        let feature = cfg
            .feature_actions
            .then(|| FeatureController::new(&mut params, "feature", cfg.seed ^ 0xfea7));
        let trainer = Reinforce::new(cfg.lr, 400.0).with_entropy(cfg.entropy_beta);
        Self {
            params,
            partition,
            compression,
            feature,
            trainer,
        }
    }
}

/// Maps a whole-model partition action to a deployment [`Partition`].
pub fn to_partition(action: PartitionAction, model: &ModelSpec) -> Partition {
    match action {
        PartitionAction::NoPartition => Partition::AllEdge,
        PartitionAction::CutBefore(0) => Partition::AllCloud,
        PartitionAction::CutBefore(j) => {
            if j >= model.len() {
                Partition::AllEdge
            } else {
                Partition::AfterLayer(j - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn alpha_decays_to_zero() {
        let cfg = SearchConfig::default();
        let early = cfg.force_no_partition(0, 1, 3);
        let mid = cfg.force_no_partition(15, 1, 3);
        let late = cfg.force_no_partition(100, 1, 3);
        assert!(early > mid);
        assert!(mid > 0.0);
        assert_eq!(late, 0.0);
    }

    #[test]
    fn deeper_levels_are_forced_less() {
        // α·(N−n)/N: the last level is never forced — it is the least
        // visited, so the bias correction targets shallow levels.
        let cfg = SearchConfig::default();
        assert!(cfg.force_no_partition(0, 1, 3) > cfg.force_no_partition(0, 2, 3));
        assert_eq!(cfg.force_no_partition(0, 3, 3), 0.0);
    }

    #[test]
    fn partition_mapping() {
        let base = zoo::tiny_cnn();
        assert_eq!(
            to_partition(PartitionAction::NoPartition, &base),
            Partition::AllEdge
        );
        assert_eq!(
            to_partition(PartitionAction::CutBefore(0), &base),
            Partition::AllCloud
        );
        assert_eq!(
            to_partition(PartitionAction::CutBefore(3), &base),
            Partition::AfterLayer(2)
        );
    }

    #[test]
    fn controllers_share_one_param_set() {
        let c = Controllers::new(&SearchConfig::quick(1));
        assert!(c.params.len() > 8, "both controllers registered params");
    }

    #[test]
    fn feature_controller_is_gated_and_additive() {
        let plain = Controllers::new(&SearchConfig::quick(1));
        assert!(plain.feature.is_none());
        let cfg = SearchConfig {
            feature_actions: true,
            ..SearchConfig::quick(1)
        };
        let with_feature = Controllers::new(&cfg);
        assert!(with_feature.feature.is_some());
        // Registered after the other controllers: strictly more params,
        // none renamed/renumbered.
        assert_eq!(with_feature.params.len(), plain.params.len() + 2);
    }
}
