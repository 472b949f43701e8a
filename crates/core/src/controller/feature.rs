//! The feature-compression controller: the third policy head of the
//! enlarged action space.
//!
//! Unlike the partition and compression controllers, this policy decides a
//! single categorical action — which [`FeatureAction`] (bottleneck ×
//! quantization pair) to apply to the cut tensor — so it needs no
//! recurrence: a linear head over a three-feature context embedding
//! (bandwidth, relative cut position, raw cut-tensor size) suffices.
//! Sampling goes through the same [`sample_masked`]/[`EpisodeTape`]
//! machinery as the other controllers, so REINFORCE trains all three
//! policies jointly from one episode reward.
//!
//! The controller is only instantiated when feature actions are enabled
//! (`SearchConfig::feature_actions`): its parameters never register and it
//! never draws from the episode RNG otherwise, preserving the bit-exact
//! feature-disabled determinism contract.

use cadmc_autodiff::{Matrix, ParamId, ParamSet, VarId};
use cadmc_compress::FeatureAction;
use rand::rngs::StdRng;

use super::policy::{sample_masked, EpisodeTape};

/// Width of the feature-policy context embedding.
pub const FEATURE_EMBED_DIM: usize = 3;

/// Context embedding for the feature decision at a prospective cut:
/// log-compressed bandwidth (like [`super::embed_layer`]'s last feature),
/// the cut's relative depth, and the log-compressed raw cut-tensor bytes.
fn embed_cut(bandwidth_mbps: f64, edge_len: usize, base_len: usize, raw_bytes: u64) -> Matrix {
    let mut v = vec![0.0f32; FEATURE_EMBED_DIM];
    v[0] = ((bandwidth_mbps as f32) + 1.0).ln() / (1000.0f32).ln();
    v[1] = if base_len == 0 {
        0.0
    } else {
        edge_len as f32 / base_len as f32
    };
    v[2] = ((raw_bytes as f32) + 1.0).ln() / (1e9f32).ln();
    Matrix::from_vec(1, FEATURE_EMBED_DIM, v)
}

/// Linear feature-compression policy π_f.
#[derive(Debug, Clone)]
pub struct FeatureController {
    head_w: ParamId,
    head_b: ParamId,
}

impl FeatureController {
    /// Registers the controller's parameters under `prefix`.
    pub fn new(params: &mut ParamSet, prefix: &str, seed: u64) -> Self {
        let head_w = params.insert(
            format!("{prefix}.head.w"),
            Matrix::seeded_xavier(FEATURE_EMBED_DIM, FeatureAction::COUNT, seed ^ 0xfe),
        );
        let head_b = params.insert(
            format!("{prefix}.head.b"),
            Matrix::zeros(1, FeatureAction::COUNT),
        );
        Self { head_w, head_b }
    }

    /// Builds the `1 × FeatureAction::COUNT` logits row for a cut.
    fn logits(
        &self,
        tape: &mut EpisodeTape,
        params: &ParamSet,
        bandwidth: f64,
        edge_len: usize,
        base_len: usize,
        raw_bytes: u64,
    ) -> VarId {
        let x = tape
            .graph
            .constant(embed_cut(bandwidth, edge_len, base_len, raw_bytes));
        let w = tape.graph.param(params, self.head_w);
        let b = tape.graph.param(params, self.head_b);
        let lin = tape.graph.matmul(x, w);
        tape.graph.add_broadcast_row(lin, b)
    }

    /// Samples a feature action for a cut, recording its log-probability
    /// on the tape (one extra categorical decision per episode).
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        &self,
        tape: &mut EpisodeTape,
        params: &ParamSet,
        bandwidth: f64,
        edge_len: usize,
        base_len: usize,
        raw_bytes: u64,
        rng: &mut StdRng,
    ) -> FeatureAction {
        let l = self.logits(tape, params, bandwidth, edge_len, base_len, raw_bytes);
        let allowed = [true; FeatureAction::COUNT];
        let (pick, _) = sample_masked(tape, l, &allowed, rng);
        FeatureAction::from_index(pick)
    }

    /// Greedy (argmax) feature action — used at deployment time.
    pub fn best(
        &self,
        params: &ParamSet,
        bandwidth: f64,
        edge_len: usize,
        base_len: usize,
        raw_bytes: u64,
    ) -> FeatureAction {
        let mut tape = EpisodeTape::new();
        let l = self.logits(&mut tape, params, bandwidth, edge_len, base_len, raw_bytes);
        let row = tape.graph.value(l);
        let mut best = 0;
        for i in 1..FeatureAction::COUNT {
            if row.at(0, i) > row.at(0, best) {
                best = i;
            }
        }
        FeatureAction::from_index(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_cover_the_action_space() {
        let mut params = ParamSet::new();
        let ctl = FeatureController::new(&mut params, "f", 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let mut tape = EpisodeTape::new();
            let a = ctl.sample(&mut tape, &params, 2.0, 3, 11, 65_536, &mut rng);
            seen.insert(a.index());
            assert_eq!(tape.len(), 1, "exactly one decision recorded");
        }
        assert!(
            seen.len() >= 5,
            "untrained policy should explore broadly, saw {}",
            seen.len()
        );
    }

    #[test]
    fn best_is_deterministic() {
        let mut params = ParamSet::new();
        let ctl = FeatureController::new(&mut params, "f", 2);
        let a = ctl.best(&params, 2.0, 3, 11, 65_536);
        let b = ctl.best(&params, 2.0, 3, 11, 65_536);
        assert_eq!(a, b);
    }

    #[test]
    fn context_changes_logits() {
        let a = embed_cut(1.0, 1, 11, 1 << 20);
        let b = embed_cut(100.0, 9, 11, 1 << 10);
        assert_ne!(a, b);
        for &v in a.data() {
            assert!((0.0..=1.5).contains(&v));
        }
    }
}
