//! The compression search controller (lower half of the paper's Fig. 6).
//!
//! A bidirectional LSTM reads the edge model's layer sequence; a shared
//! linear head maps each position's hidden state to logits over the seven
//! Table 2 techniques plus "no compression". Inapplicable techniques are
//! masked out per layer, and mutually-conflicting FC-head rewrites (F3
//! versus other F-techniques) are excluded during sequential sampling so
//! every sampled plan is applicable by construction.

use std::sync::Arc;

use cadmc_autodiff::{BiLstm, Graph, Matrix, ParamId, ParamSet, VarId};
use cadmc_compress::{CompressionPlan, Technique};
use cadmc_nn::ModelSpec;
use rand::rngs::StdRng;

use super::embed::{embed_model, EMBED_DIM};
use super::policy::{sample_masked, EpisodeTape, ForwardCache, SharedForward};

/// Number of options per layer: the seven techniques plus "none".
pub const NUM_OPTIONS: usize = Technique::ALL.len() + 1;

/// Index of the "no compression" option.
pub const NONE_OPTION: usize = Technique::ALL.len();

/// Tracks which FC-head rewrites were already taken earlier in the model
/// (by this block or an ancestor block along a tree path), so conflicting
/// actions can be masked: F3 rewrites the whole FC head and therefore
/// conflicts with any other F-technique.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeadState {
    /// An F3 (GAP) rewrite was already chosen.
    pub f3_used: bool,
    /// An F1/F2 (SVD/KSVD) rewrite was already chosen.
    pub f_used: bool,
}

/// LSTM compression policy.
#[derive(Debug, Clone)]
pub struct CompressionController {
    bilstm: BiLstm,
    head_w: ParamId,
    head_b: ParamId,
}

impl CompressionController {
    /// Registers the controller's parameters under `prefix`.
    pub fn new(params: &mut ParamSet, prefix: &str, hidden: usize, seed: u64) -> Self {
        let bilstm = BiLstm::new(params, &format!("{prefix}.lstm"), EMBED_DIM, hidden, seed);
        let head_w = params.insert(
            format!("{prefix}.head.w"),
            Matrix::seeded_xavier(2 * hidden, NUM_OPTIONS, seed ^ 0xc1),
        );
        let head_b = params.insert(format!("{prefix}.head.b"), Matrix::zeros(1, NUM_OPTIONS));
        Self {
            bilstm,
            head_w,
            head_b,
        }
    }

    /// Records the forward pass over the embedded layer sequence
    /// `inputs` on `graph`, returning one `1 × NUM_OPTIONS` logits row per
    /// layer.
    pub(crate) fn record(
        &self,
        graph: &mut Graph,
        params: &ParamSet,
        inputs: Vec<Matrix>,
    ) -> Vec<VarId> {
        let inputs: Vec<VarId> = inputs.into_iter().map(|m| graph.constant(m)).collect();
        let hs = self.bilstm.run(graph, params, &inputs);
        let w = graph.param(params, self.head_w);
        let b = graph.param(params, self.head_b);
        hs.into_iter()
            .map(|h| {
                let lin = graph.matmul(h, w);
                graph.add_broadcast_row(lin, b)
            })
            .collect()
    }

    /// The batch's forward pass over the embedded `inputs` at `bandwidth`.
    pub(crate) fn forward(
        &self,
        forwards: &ForwardCache<'_>,
        inputs: Vec<Matrix>,
        bandwidth: f64,
    ) -> Arc<SharedForward> {
        forwards.forward(self.head_w, bandwidth, inputs, |graph, params, inputs| {
            self.record(graph, params, inputs)
        })
    }

    /// Links the batch's forward pass for `spec` at `bandwidth` into
    /// `tape`, returning the leaves of its per-layer logits (`spec.len()`
    /// rows of `1 × NUM_OPTIONS`).
    pub fn layer_logits(
        &self,
        tape: &mut EpisodeTape,
        forwards: &ForwardCache<'_>,
        spec: &ModelSpec,
        bandwidth: f64,
    ) -> Vec<VarId> {
        let forward = self.forward(forwards, embed_model(spec, bandwidth), bandwidth);
        tape.link(&forward)
    }

    /// Samples a per-layer compression plan for `spec` (typically the edge
    /// slice). The returned plan is applicable to `spec` by construction.
    pub fn sample(
        &self,
        tape: &mut EpisodeTape,
        forwards: &ForwardCache<'_>,
        spec: &ModelSpec,
        bandwidth: f64,
        rng: &mut StdRng,
    ) -> CompressionPlan {
        let mut state = HeadState::default();
        self.sample_with_state(tape, forwards, spec, bandwidth, rng, &mut state)
    }

    /// Like [`sample`], but threading the FC-head conflict state across
    /// calls — the model-tree search samples each block separately along a
    /// path, and an F3 chosen in an ancestor block must mask F-techniques
    /// in descendants.
    ///
    /// [`sample`]: CompressionController::sample
    pub fn sample_with_state(
        &self,
        tape: &mut EpisodeTape,
        forwards: &ForwardCache<'_>,
        spec: &ModelSpec,
        bandwidth: f64,
        rng: &mut StdRng,
        state: &mut HeadState,
    ) -> CompressionPlan {
        let logits = self.layer_logits(tape, forwards, spec, bandwidth);
        let mut plan = CompressionPlan::identity(spec.len());
        let mut f3_used = state.f3_used;
        let mut f_used = state.f_used;
        for (i, l) in logits.into_iter().enumerate() {
            let mut allowed = [false; NUM_OPTIONS];
            allowed[NONE_OPTION] = true;
            for t in Technique::applicable_at(spec, i) {
                let conflict = match t {
                    // F3 rewrites the whole FC head: at most one, and not
                    // after another F-technique already targeted the head.
                    Technique::F3Gap => f3_used || f_used,
                    // F1/F2 target FC layers that an F3 would remove.
                    Technique::F1Svd | Technique::F2Ksvd => f3_used,
                    _ => false,
                };
                if !conflict {
                    allowed[t.index()] = true;
                }
            }
            let (pick, _) = sample_masked(tape, l, &allowed, rng);
            if pick != NONE_OPTION {
                let t = Technique::ALL[pick];
                plan.set(i, Some(t));
                match t {
                    Technique::F3Gap => f3_used = true,
                    Technique::F1Svd | Technique::F2Ksvd => f_used = true,
                    _ => {}
                }
            }
        }
        debug_assert_eq!(
            plan,
            plan.sanitized(spec),
            "sampled plan should be applicable by construction"
        );
        state.f3_used = f3_used;
        state.f_used = f_used;
        plan
    }

    /// Greedy (argmax) plan — used at deployment time.
    pub fn best(&self, params: &ParamSet, spec: &ModelSpec, bandwidth: f64) -> CompressionPlan {
        let forward = self.forward(
            &ForwardCache::new(params),
            embed_model(spec, bandwidth),
            bandwidth,
        );
        let mut plan = CompressionPlan::identity(spec.len());
        let mut f3_used = false;
        let mut f_used = false;
        for i in 0..spec.len() {
            let row = forward.output(i);
            let mut best_opt = NONE_OPTION;
            let mut best_score = row.at(0, NONE_OPTION);
            for t in Technique::applicable_at(spec, i) {
                let conflict = match t {
                    Technique::F3Gap => f3_used || f_used,
                    Technique::F1Svd | Technique::F2Ksvd => f3_used,
                    _ => false,
                };
                if !conflict && row.at(0, t.index()) > best_score {
                    best_score = row.at(0, t.index());
                    best_opt = t.index();
                }
            }
            if best_opt != NONE_OPTION {
                let t = Technique::ALL[best_opt];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;
    use rand::SeedableRng;

    #[test]
    fn sampled_plans_always_apply() {
        let mut params = ParamSet::new();
        let ctl = CompressionController::new(&mut params, "c", 8, 1);
        let base = zoo::vgg11_cifar();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let mut tape = EpisodeTape::new();
            let plan = ctl.sample(
                &mut tape,
                &ForwardCache::new(&params),
                &base,
                10.0,
                &mut rng,
            );
            assert!(
                plan.apply(&base).is_ok(),
                "sampled plan {} failed to apply",
                plan.summary()
            );
        }
    }

    #[test]
    fn records_one_logp_per_layer() {
        let mut params = ParamSet::new();
        let ctl = CompressionController::new(&mut params, "c", 8, 2);
        let base = zoo::tiny_cnn();
        let mut rng = StdRng::seed_from_u64(2);
        let mut tape = EpisodeTape::new();
        let _ = ctl.sample(
            &mut tape,
            &ForwardCache::new(&params),
            &base,
            10.0,
            &mut rng,
        );
        assert_eq!(tape.len(), base.len());
    }

    #[test]
    fn untrained_policy_explores_compression() {
        let mut params = ParamSet::new();
        let ctl = CompressionController::new(&mut params, "c", 8, 3);
        let base = zoo::vgg11_cifar();
        let mut rng = StdRng::seed_from_u64(3);
        let mut compressed_any = false;
        for _ in 0..10 {
            let mut tape = EpisodeTape::new();
            let plan = ctl.sample(
                &mut tape,
                &ForwardCache::new(&params),
                &base,
                10.0,
                &mut rng,
            );
            compressed_any |= !plan.is_identity();
        }
        assert!(compressed_any);
    }

    #[test]
    fn at_most_one_f3_per_plan() {
        let mut params = ParamSet::new();
        let ctl = CompressionController::new(&mut params, "c", 8, 4);
        let base = zoo::vgg11_cifar();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let mut tape = EpisodeTape::new();
            let plan = ctl.sample(
                &mut tape,
                &ForwardCache::new(&params),
                &base,
                10.0,
                &mut rng,
            );
            let f3_count = plan
                .actions()
                .iter()
                .filter(|a| **a == Some(Technique::F3Gap))
                .count();
            assert!(f3_count <= 1);
        }
    }

    #[test]
    fn best_plan_applies() {
        let mut params = ParamSet::new();
        let ctl = CompressionController::new(&mut params, "c", 8, 5);
        let base = zoo::vgg11_cifar();
        let plan = ctl.best(&params, &base, 10.0);
        assert!(plan.apply(&base).is_ok());
    }
}
