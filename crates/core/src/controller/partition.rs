//! The partition search controller (upper half of the paper's Fig. 6).
//!
//! A bidirectional LSTM reads the layer-hyperparameter sequence of a model
//! (or block); each position's hidden state is scored by a shared linear
//! head, and a dedicated head on the sequence summary scores the
//! "no partition" option. The softmax over the `L + 1` scores is the
//! partition policy `π_p`: option `j < L` cuts *before* layer `j` (so
//! `j = 0` offloads everything), option `L` keeps everything on the edge.

use std::sync::Arc;

use cadmc_autodiff::{BiLstm, Graph, Matrix, ParamId, ParamSet, VarId};
use cadmc_nn::ModelSpec;
use rand::rngs::StdRng;
use rand::RngExt;

use super::embed::{embed_model, EMBED_DIM};
use super::policy::{sample_masked, EpisodeTape, ForwardCache, SharedForward};

/// The partition decision for one model/block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionAction {
    /// Cut before local layer `j`: layers `[0..j)` stay on the edge, layer
    /// `j` and everything after moves to the cloud (`j = 0` offloads the
    /// whole block).
    CutBefore(usize),
    /// No partition: the whole block stays on the edge.
    NoPartition,
}

/// LSTM partition policy.
#[derive(Debug, Clone)]
pub struct PartitionController {
    bilstm: BiLstm,
    score_w: ParamId,
    score_b: ParamId,
    nopart_w: ParamId,
    nopart_b: ParamId,
}

impl PartitionController {
    /// Registers the controller's parameters under `prefix`.
    pub fn new(params: &mut ParamSet, prefix: &str, hidden: usize, seed: u64) -> Self {
        let bilstm = BiLstm::new(params, &format!("{prefix}.lstm"), EMBED_DIM, hidden, seed);
        let h2 = 2 * hidden;
        let score_w = params.insert(
            format!("{prefix}.score.w"),
            Matrix::seeded_xavier(h2, 1, seed ^ 0xa1),
        );
        let score_b = params.insert(format!("{prefix}.score.b"), Matrix::zeros(1, 1));
        let nopart_w = params.insert(
            format!("{prefix}.nopart.w"),
            Matrix::seeded_xavier(h2, 1, seed ^ 0xa2),
        );
        let nopart_b = params.insert(format!("{prefix}.nopart.b"), Matrix::zeros(1, 1));
        Self {
            bilstm,
            score_w,
            score_b,
            nopart_w,
            nopart_b,
        }
    }

    /// Records the forward pass over the embedded layer sequence
    /// `inputs` on `graph`, returning the `1 × (L+1)` logits.
    pub(crate) fn record(
        &self,
        graph: &mut Graph,
        params: &ParamSet,
        inputs: Vec<Matrix>,
    ) -> VarId {
        let inputs: Vec<VarId> = inputs.into_iter().map(|m| graph.constant(m)).collect();
        let hs = self.bilstm.run(graph, params, &inputs);
        let w = graph.param(params, self.score_w);
        let b = graph.param(params, self.score_b);
        let mut scores: Option<VarId> = None;
        for h in &hs {
            let s_lin = graph.matmul(*h, w);
            let s = graph.add(s_lin, b);
            scores = Some(match scores {
                Some(acc) => graph.hcat(acc, s),
                None => s,
            });
        }
        let summary = *hs.last().expect("non-empty model");
        let nw = graph.param(params, self.nopart_w);
        let nb = graph.param(params, self.nopart_b);
        let np_lin = graph.matmul(summary, nw);
        let np = graph.add(np_lin, nb);
        let scores = scores.expect("non-empty model");
        graph.hcat(scores, np)
    }

    /// The batch's forward pass over the embedded `inputs` at `bandwidth`.
    pub(crate) fn forward(
        &self,
        forwards: &ForwardCache<'_>,
        inputs: Vec<Matrix>,
        bandwidth: f64,
    ) -> Arc<SharedForward> {
        forwards.forward(self.score_w, bandwidth, inputs, |graph, params, inputs| {
            vec![self.record(graph, params, inputs)]
        })
    }

    /// Links the batch's forward pass for `spec` at `bandwidth` into
    /// `tape`, returning the leaf of its `1 × (L+1)` logits.
    pub fn logits(
        &self,
        tape: &mut EpisodeTape,
        forwards: &ForwardCache<'_>,
        spec: &ModelSpec,
        bandwidth: f64,
    ) -> VarId {
        let forward = self.forward(forwards, embed_model(spec, bandwidth), bandwidth);
        tape.link(&forward)[0]
    }

    /// Samples a partition action for `spec`. With probability
    /// `force_no_partition` the action is forced to [`NoPartition`]
    /// *before* consulting the policy — the paper's "exploration with fair
    /// chances" countermeasure (§VII-A), which prevents the tree search
    /// from collapsing onto first-layer partitions. Forced choices record
    /// no log-probability (they are off-policy exploration).
    ///
    /// [`NoPartition`]: PartitionAction::NoPartition
    pub fn sample(
        &self,
        tape: &mut EpisodeTape,
        forwards: &ForwardCache<'_>,
        spec: &ModelSpec,
        bandwidth: f64,
        rng: &mut StdRng,
        force_no_partition: f64,
    ) -> PartitionAction {
        if force_no_partition > 0.0 && rng.random_range(0.0..1.0) < force_no_partition {
            return PartitionAction::NoPartition;
        }
        let logits = self.logits(tape, forwards, spec, bandwidth);
        let width = spec.len() + 1;
        let allowed = vec![true; width];
        let (pick, _) = sample_masked(tape, logits, &allowed, rng);
        if pick == spec.len() {
            PartitionAction::NoPartition
        } else {
            PartitionAction::CutBefore(pick)
        }
    }

    /// Greedy (argmax) partition action — used at deployment time.
    pub fn best(&self, params: &ParamSet, spec: &ModelSpec, bandwidth: f64) -> PartitionAction {
        let forwards = ForwardCache::new(params);
        let pick = self
            .forward(&forwards, embed_model(spec, bandwidth), bandwidth)
            .output(0)
            .argmax_row(0);
        if pick == spec.len() {
            PartitionAction::NoPartition
        } else {
            PartitionAction::CutBefore(pick)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;
    use rand::SeedableRng;

    #[test]
    fn logits_width_is_layers_plus_one() {
        let mut params = ParamSet::new();
        let ctl = PartitionController::new(&mut params, "p", 8, 1);
        let base = zoo::vgg11_cifar();
        let mut tape = EpisodeTape::new();
        let logits = ctl.logits(&mut tape, &ForwardCache::new(&params), &base, 10.0);
        assert_eq!(tape.graph.value(logits).shape(), (1, base.len() + 1));
    }

    #[test]
    fn sample_covers_cut_and_no_partition() {
        let mut params = ParamSet::new();
        let ctl = PartitionController::new(&mut params, "p", 8, 2);
        let base = zoo::tiny_cnn();
        let mut rng = StdRng::seed_from_u64(5);
        let forwards = ForwardCache::new(&params);
        let mut saw_cut = false;
        let mut saw_none = false;
        for _ in 0..60 {
            let mut tape = EpisodeTape::new();
            match ctl.sample(&mut tape, &forwards, &base, 10.0, &mut rng, 0.0) {
                PartitionAction::CutBefore(i) => {
                    assert!(i < base.len());
                    saw_cut = true;
                }
                PartitionAction::NoPartition => saw_none = true,
            }
            assert_eq!(tape.len(), 1);
        }
        assert!(saw_cut && saw_none, "untrained policy should explore both");
    }

    #[test]
    fn forced_no_partition_records_nothing() {
        let mut params = ParamSet::new();
        let ctl = PartitionController::new(&mut params, "p", 8, 3);
        let base = zoo::tiny_cnn();
        let mut rng = StdRng::seed_from_u64(6);
        let mut tape = EpisodeTape::new();
        let a = ctl.sample(
            &mut tape,
            &ForwardCache::new(&params),
            &base,
            10.0,
            &mut rng,
            1.0,
        );
        assert_eq!(a, PartitionAction::NoPartition);
        assert!(tape.is_empty());
    }

    #[test]
    fn best_is_deterministic() {
        let mut params = ParamSet::new();
        let ctl = PartitionController::new(&mut params, "p", 8, 4);
        let base = zoo::tiny_cnn();
        assert_eq!(
            ctl.best(&params, &base, 10.0),
            ctl.best(&params, &base, 10.0)
        );
    }

    #[test]
    fn bandwidth_conditions_the_policy() {
        // Different bandwidth inputs must produce different logits (the
        // controller takes (B, W) per Alg. 1).
        let mut params = ParamSet::new();
        let ctl = PartitionController::new(&mut params, "p", 8, 5);
        let base = zoo::tiny_cnn();
        let forwards = ForwardCache::new(&params);
        let mut t1 = EpisodeTape::new();
        let l1 = ctl.logits(&mut t1, &forwards, &base, 1.0);
        let mut t2 = EpisodeTape::new();
        let l2 = ctl.logits(&mut t2, &forwards, &base, 100.0);
        assert_ne!(t1.graph.value(l1), t2.graph.value(l2));
    }
}
