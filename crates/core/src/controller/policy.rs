//! Shared policy machinery: episode tapes, shared controller forward
//! passes, masked categorical sampling and the Monte-Carlo
//! policy-gradient (REINFORCE) update with an exponential-moving-average
//! baseline (§VI-D, Eqs. 8–10).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cadmc_autodiff::{
    Adam, Gradients, Graph, Matrix, ParamId, ParamSet, Transposes, VarId, Workspace,
};
use cadmc_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::RngExt;

/// One controller forward pass — BiLSTM plus head, up to its logits —
/// recorded once on its own frozen graph. Every tape that samples from
/// it *links* it (see [`EpisodeTape::link`]) instead of recording it
/// again.
#[derive(Debug)]
pub(crate) struct SharedForward {
    graph: Graph,
    outputs: Vec<VarId>,
    /// The parameters the pass binds, sorted.
    params: Vec<ParamId>,
    /// Transposed weight blocks, built by the first backward pass through
    /// this forward and reused by every later one.
    transposes: Mutex<Transposes>,
}

impl SharedForward {
    fn new(graph: Graph, outputs: Vec<VarId>) -> Self {
        let params = distinct(graph.params());
        Self {
            graph,
            outputs,
            params,
            transposes: Mutex::default(),
        }
    }

    /// The value of output `i` (a logits row).
    pub(crate) fn output(&self, i: usize) -> &Matrix {
        self.graph.value(self.outputs[i])
    }
}

/// What a forward pass is keyed by: the controller (one of its
/// parameters), the bandwidth it conditions on, and the exact bits of its
/// embedded input sequence.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ForwardKey {
    owner: ParamId,
    bandwidth: u64,
    steps: usize,
    inputs: Vec<u32>,
}

/// The forward passes of one rollout batch, one per distinct
/// [`ForwardKey`]. Every episode of a batch samples from the same frozen
/// parameters, so equal inputs give bit-equal passes: the first episode
/// to ask records it and the rest link the same [`SharedForward`]. The
/// cache borrows the [`ParamSet`], so it cannot outlive a parameter
/// update; a one-off call uses a fresh cache.
#[derive(Debug)]
pub struct ForwardCache<'p> {
    params: &'p ParamSet,
    forwards: Mutex<HashMap<ForwardKey, Arc<SharedForward>>>,
}

impl<'p> ForwardCache<'p> {
    /// An empty cache over `params`.
    pub fn new(params: &'p ParamSet) -> Self {
        Self {
            params,
            forwards: Mutex::default(),
        }
    }

    /// The parameters every pass of this cache reads.
    pub fn params(&self) -> &'p ParamSet {
        self.params
    }

    /// Number of distinct passes kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<ForwardKey, Arc<SharedForward>>> {
        self.forwards.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pass of the controller owning `owner` over the embedded
    /// `inputs` at `bandwidth`, recorded by `record` on a fresh graph if
    /// no episode of the batch has asked for it yet. `record` returns
    /// the pass's outputs.
    pub(crate) fn forward(
        &self,
        owner: ParamId,
        bandwidth: f64,
        inputs: Vec<Matrix>,
        record: impl FnOnce(&mut Graph, &ParamSet, Vec<Matrix>) -> Vec<VarId>,
    ) -> Arc<SharedForward> {
        let key = ForwardKey {
            owner,
            bandwidth: bandwidth.to_bits(),
            steps: inputs.len(),
            inputs: inputs
                .iter()
                .flat_map(|m| m.data().iter().map(|v| v.to_bits()))
                .collect(),
        };
        if let Some(hit) = self.lock().get(&key) {
            return Arc::clone(hit);
        }
        let mut graph = Graph::new();
        let outputs = record(&mut graph, self.params, inputs);
        let fresh = Arc::new(SharedForward::new(graph, outputs));
        // Racing workers may both record a key: keep the first, so every
        // tape of the batch links the same pass.
        Arc::clone(self.lock().entry(key).or_insert(fresh))
    }
}

/// A forward pass linked into a tape, with the tape's input leaves that
/// stand for its outputs (one per output, in output order).
#[derive(Debug)]
struct Link {
    forward: Arc<SharedForward>,
    leaves: Vec<VarId>,
}

/// Records the sampled actions' log-probabilities of one episode so the
/// surrogate loss `-(G - b) · Σ log π(a|s)` can be built once the reward
/// is known.
#[derive(Debug, Default)]
pub struct EpisodeTape {
    /// The episode's own graph: linked forwards' outputs as input leaves,
    /// the decisions sampled from them (masks, picks) and the loss.
    pub graph: Graph,
    logps: Vec<VarId>,
    /// The masked logits of each sampled decision. Their entropy nodes
    /// are recorded only when a loss uses them (a non-zero entropy
    /// bonus); until then the tape carries no entropy work.
    decisions: Vec<VarId>,
    /// Linked forward passes, in link order.
    links: Vec<Link>,
}

impl EpisodeTape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Links a shared forward pass: its outputs become input leaves of
    /// this tape's graph, returned in output order. The backward pass of
    /// [`EpisodeTape::into_gradients_with_entropy`] continues through the
    /// linked pass.
    pub(crate) fn link(&mut self, forward: &Arc<SharedForward>) -> Vec<VarId> {
        let leaves: Vec<VarId> = (0..forward.outputs.len())
            .map(|i| self.graph.input(forward.output(i).clone()))
            .collect();
        self.links.push(Link {
            forward: Arc::clone(forward),
            leaves: leaves.clone(),
        });
        leaves
    }

    /// The linked forward passes, in link order.
    #[cfg(test)]
    pub(crate) fn linked(&self) -> impl Iterator<Item = &Arc<SharedForward>> {
        self.links.iter().map(|l| &l.forward)
    }

    /// Registers the log-probability node of a sampled action.
    pub fn record(&mut self, logp: VarId) {
        self.logps.push(logp);
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.logps.len()
    }

    /// Whether no actions were recorded.
    pub fn is_empty(&self) -> bool {
        self.logps.is_empty()
    }

    /// Mean policy entropy over the episode's sampled decisions (nats);
    /// zero for an empty tape. A telemetry-facing health signal: entropy
    /// collapsing to 0 early means the policy stopped exploring.
    pub fn mean_entropy(&self) -> f64 {
        if self.decisions.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .decisions
            .iter()
            .map(|&v| f64::from(self.graph.value(v).softmax_rows().mean_row_entropy()))
            .sum();
        sum / self.decisions.len() as f64
    }

    /// Sum of recorded log-probabilities (the episode's log-likelihood).
    pub fn total_logp(&self) -> f32 {
        self.logps
            .iter()
            .map(|&v| self.graph.value(v).at(0, 0))
            .sum()
    }

    /// Builds the REINFORCE surrogate loss with the given advantage and
    /// backpropagates, returning parameter gradients. Consumes the tape.
    ///
    /// Gradient of `-advantage · Σ log π` equals the Eq. 10 estimator
    /// `-∇ log π (G - b)` (minimizing the loss ascends the objective).
    pub fn into_gradients(self, advantage: f32) -> Gradients {
        self.into_gradients_with_entropy(advantage, 0.0, &mut Workspace::default())
    }

    /// Like [`into_gradients`], with an entropy bonus: the loss becomes
    /// `-advantage · Σ log π − β · Σ H(π)`, discouraging premature policy
    /// collapse (a standard regularized policy-gradient objective; the
    /// paper's engine needs its ad-hoc fair-chance trick for the same
    /// reason). The backward passes run in `ws`.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is bound by more than one of the tape's
    /// graph and its linked forwards.
    ///
    /// [`into_gradients`]: EpisodeTape::into_gradients
    pub fn into_gradients_with_entropy(
        mut self,
        advantage: f32,
        beta: f32,
        ws: &mut Workspace,
    ) -> Gradients {
        if self.logps.is_empty() || (advantage == 0.0 && beta == 0.0) {
            return Gradients::default();
        }
        let mut sum = self.logps[0];
        let rest: Vec<VarId> = self.logps[1..].to_vec();
        for v in rest {
            sum = self.graph.add(sum, v);
        }
        let mut loss = self.graph.scale(sum, -advantage);
        if beta != 0.0 && !self.decisions.is_empty() {
            // Each entropy node lands after its decision's log-probability
            // node, as it would have at sampling time, so the backward
            // pass still adds its contribution to the logits first.
            let entropies: Vec<VarId> = self
                .decisions
                .iter()
                .map(|&m| self.graph.entropy_rows(m))
                .collect();
            let mut h = entropies[0];
            for &v in &entropies[1..] {
                h = self.graph.add(h, v);
            }
            let bonus = self.graph.scale(h, -beta);
            loss = self.graph.add(loss, bonus);
        }
        self.assert_disjoint_params();
        let mut out = Gradients::default();
        let seed = Matrix::from_vec(1, 1, vec![1.0]);
        let reached =
            self.graph
                .backward_into([(loss, seed)], ws, &mut Transposes::default(), &mut out);
        // The linked passes continue the backward, in reverse link order,
        // each seeded with the gradients that reached its leaves. The
        // result is bit-identical to one backward over a graph that
        // recorded every pass inline where it was linked:
        // - each pass is a closed subgraph whose only outside consumers
        //   are this tape's decision nodes on its outputs, so an output's
        //   gradient is its leaf's — the same consumers, summed in the
        //   same reverse order — and every node inside the pass sums the
        //   same contributions in the same order;
        // - each parameter is bound by at most one of the tape's graph and
        //   its passes (checked above), so every `Gradients` slot receives
        //   one sum and no cross-pass addition can be reordered;
        // - reverse link order is the order an inline backward reaches the
        //   passes in, and all of them write into the one `out`.
        let mut seeds: Vec<Vec<(VarId, Matrix)>> = self.links.iter().map(|_| Vec::new()).collect();
        for (leaf, g) in reached {
            for (link, seeds) in self.links.iter().zip(&mut seeds) {
                if let Some(i) = link.leaves.iter().position(|&l| l == leaf) {
                    seeds.push((link.forward.outputs[i], g));
                    break;
                }
            }
        }
        for (link, seeds) in self.links.iter().zip(seeds).rev() {
            let forward = &link.forward;
            let mut transposes = forward
                .transposes
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            forward
                .graph
                .backward_into(seeds, ws, &mut transposes, &mut out);
        }
        out
    }

    /// Checks the precondition of the linked backward: no parameter is
    /// bound by two of {the tape's graph, each linked pass}.
    fn assert_disjoint_params(&self) {
        let mut all: Vec<ParamId> = distinct(self.graph.params());
        all.extend(self.links.iter().flat_map(|l| l.forward.params.iter()));
        let bound = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            bound,
            "a parameter is bound by two graphs of one tape"
        );
    }
}

/// The distinct parameters of `params`, sorted.
fn distinct(params: impl Iterator<Item = ParamId>) -> Vec<ParamId> {
    let mut v: Vec<ParamId> = params.collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Samples from the softmax of a masked logits row and records the log
/// probability on the tape. Masked-out options get a large negative
/// constant added so they carry (numerically) zero probability mass and
/// receive no gradient preference.
///
/// # Panics
///
/// Panics if no option is allowed, or if mask length differs from the
/// logits width.
pub fn sample_masked(
    tape: &mut EpisodeTape,
    logits: VarId,
    allowed: &[bool],
    rng: &mut StdRng,
) -> (usize, VarId) {
    let width = tape.graph.value(logits).cols();
    assert_eq!(allowed.len(), width, "mask width mismatch");
    assert!(allowed.iter().any(|&a| a), "no allowed action");
    let mask_vals: Vec<f32> = allowed
        .iter()
        .map(|&a| if a { 0.0 } else { -1e9 })
        .collect();
    let mask = tape.graph.constant(Matrix::from_vec(1, width, mask_vals));
    let masked = tape.graph.add(logits, mask);
    let probs = tape.graph.value(masked).softmax_rows();
    let pick = sample_categorical(probs.row(0), rng);
    let logp = tape.graph.pick_log_softmax(masked, &[pick]);
    tape.record(logp);
    tape.decisions.push(masked);
    (pick, logp)
}

/// Samples an index from a probability row.
fn sample_categorical(probs: &[f32], rng: &mut StdRng) -> usize {
    let r: f32 = rng.random_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Monte-Carlo policy-gradient trainer with EMA baseline (Eq. 10).
#[derive(Debug)]
pub struct Reinforce {
    opt: Adam,
    /// Backward-pass buffers, kept across every tape of every update.
    workspace: Workspace,
    baseline: f64,
    baseline_beta: f64,
    reward_scale: f64,
    clip_norm: f32,
    entropy_beta: f32,
    seen: bool,
    epoch: u64,
}

impl Reinforce {
    /// Trainer with learning rate `lr`; rewards are divided by
    /// `reward_scale` (the paper's max reward 400) before forming
    /// advantages, keeping gradient magnitudes sane.
    pub fn new(lr: f32, reward_scale: f64) -> Self {
        assert!(reward_scale > 0.0, "reward scale must be positive");
        Self {
            opt: Adam::new(lr),
            workspace: Workspace::default(),
            baseline: 0.0,
            baseline_beta: 0.8,
            reward_scale,
            clip_norm: 5.0,
            entropy_beta: 0.0,
            seen: false,
            epoch: 0,
        }
    }

    /// Enables an entropy bonus with coefficient `beta` (0 disables).
    pub fn with_entropy(mut self, beta: f32) -> Self {
        assert!(beta >= 0.0, "entropy coefficient must be non-negative");
        self.entropy_beta = beta;
        self
    }

    /// Current baseline value (in reward units).
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Computes the advantage for a reward and updates the EMA baseline.
    pub fn advantage(&mut self, reward: f64) -> f32 {
        if !self.seen {
            self.baseline = reward;
            self.seen = true;
            return 0.0;
        }
        let adv = (reward - self.baseline) / self.reward_scale;
        self.baseline = self.baseline_beta * self.baseline + (1.0 - self.baseline_beta) * reward;
        adv as f32
    }

    /// Applies one optimizer step from a batch of `(tape, reward)`
    /// episodes (gradients are accumulated before stepping).
    pub fn update_batch(&mut self, params: &mut ParamSet, episodes: Vec<(EpisodeTape, f64)>) {
        self.epoch += 1;
        // Entropy and reward statistics are only computed when a trace is
        // being collected; the disabled path must stay free.
        if telemetry::enabled() && !episodes.is_empty() {
            let n = episodes.len() as f64;
            let mean_reward = episodes.iter().map(|(_, r)| *r).sum::<f64>() / n;
            let mean_entropy = episodes.iter().map(|(t, _)| t.mean_entropy()).sum::<f64>() / n;
            telemetry::event!(
                "controller.epoch",
                epoch = self.epoch,
                episodes = episodes.len(),
                mean_reward = mean_reward,
                baseline = self.baseline,
                mean_entropy = mean_entropy,
            );
        }
        let mut acc: Option<Gradients> = None;
        for (tape, reward) in episodes {
            let adv = self.advantage(reward);
            if adv == 0.0 && self.entropy_beta == 0.0 {
                continue;
            }
            let grads =
                tape.into_gradients_with_entropy(adv, self.entropy_beta, &mut self.workspace);
            match &mut acc {
                Some(a) => a.merge(grads),
                slot @ None => *slot = Some(grads),
            }
        }
        if let Some(mut grads) = acc {
            grads.clip_global_norm(self.clip_norm);
            self.opt.step(params, &grads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_autodiff::{Matrix, ParamId};
    use rand::SeedableRng;

    fn softmax_of_param(params: &ParamSet, p: ParamId) -> Vec<f32> {
        params.value(p).softmax_rows().row(0).to_vec()
    }

    #[test]
    fn masked_sampling_never_picks_forbidden() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let mut tape = EpisodeTape::new();
            let logits = tape.graph.constant(Matrix::row_vector(&[0.0, 5.0, 0.0]));
            let (pick, _) = sample_masked(&mut tape, logits, &[true, false, true], &mut rng);
            assert_ne!(pick, 1);
        }
    }

    #[test]
    fn reinforce_increases_probability_of_rewarded_action() {
        // A 3-armed bandit: arm 2 pays 10, others pay 0. The policy should
        // concentrate on arm 2.
        let mut params = ParamSet::new();
        let logits_p = params.insert("logits", Matrix::zeros(1, 3));
        let mut trainer = Reinforce::new(0.05, 10.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let mut tape = EpisodeTape::new();
            let logits = tape.graph.param(&params, logits_p);
            let (pick, _) = sample_masked(&mut tape, logits, &[true, true, true], &mut rng);
            let reward = if pick == 2 { 10.0 } else { 0.0 };
            trainer.update_batch(&mut params, vec![(tape, reward)]);
        }
        let probs = softmax_of_param(&params, logits_p);
        assert!(
            probs[2] > 0.8,
            "policy did not concentrate on the paying arm: {probs:?}"
        );
    }

    #[test]
    fn baseline_tracks_rewards() {
        let mut t = Reinforce::new(0.01, 400.0);
        let _ = t.advantage(100.0);
        assert_eq!(t.baseline(), 100.0);
        for _ in 0..50 {
            let _ = t.advantage(200.0);
        }
        assert!((t.baseline() - 200.0).abs() < 5.0);
    }

    #[test]
    fn entropy_bonus_slows_collapse() {
        // Same bandit, two trainers: with a strong entropy bonus the
        // policy must stay strictly less concentrated after the same
        // number of updates.
        let run = |beta: f32| -> f32 {
            let mut params = ParamSet::new();
            let logits_p = params.insert("logits", Matrix::zeros(1, 3));
            let mut trainer = Reinforce::new(0.05, 10.0).with_entropy(beta);
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..150 {
                let mut tape = EpisodeTape::new();
                let logits = tape.graph.param(&params, logits_p);
                let (pick, _) = sample_masked(&mut tape, logits, &[true, true, true], &mut rng);
                let reward = if pick == 2 { 10.0 } else { 0.0 };
                trainer.update_batch(&mut params, vec![(tape, reward)]);
            }
            softmax_of_param(&params, logits_p)[2]
        };
        let sharp = run(0.0);
        let regularized = run(0.5);
        assert!(
            regularized < sharp,
            "entropy bonus should keep mass spread: {regularized} vs {sharp}"
        );
        assert!(regularized > 0.34, "still prefers the paying arm");
    }

    #[test]
    fn empty_tape_produces_no_gradients() {
        let tape = EpisodeTape::new();
        let grads = tape.into_gradients(1.0);
        assert!(grads.is_empty());
    }

    #[test]
    fn mean_entropy_is_the_mean_of_the_entropy_nodes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut tape = EpisodeTape::new();
        let a = tape.graph.constant(Matrix::row_vector(&[0.3, -1.0, 2.0]));
        let b = tape
            .graph
            .constant(Matrix::row_vector(&[1.0, 1.0, 0.5, -0.25]));
        let _ = sample_masked(&mut tape, a, &[true, false, true], &mut rng);
        let _ = sample_masked(&mut tape, b, &[true, true, true, true], &mut rng);
        let nodes: Vec<f64> = tape
            .decisions
            .clone()
            .into_iter()
            .map(|m| {
                let h = tape.graph.entropy_rows(m);
                f64::from(tape.graph.value(h).at(0, 0))
            })
            .collect();
        let expected = (nodes[0] + nodes[1]) / 2.0;
        assert_eq!(tape.mean_entropy().to_bits(), expected.to_bits());
        assert!(expected > 0.0);
    }

    #[test]
    fn total_logp_is_negative() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut tape = EpisodeTape::new();
        let logits = tape.graph.constant(Matrix::row_vector(&[0.0, 0.0]));
        let _ = sample_masked(&mut tape, logits, &[true, true], &mut rng);
        assert!(tape.total_logp() < 0.0);
        assert_eq!(tape.len(), 1);
    }
}
