//! Delta-based episode states: the compact record of one sampled
//! deployment decision, used by the search hot paths instead of eagerly
//! composed [`Candidate`]s.
//!
//! An episode's outcome is fully determined by `(base model, partition,
//! per-layer actions, bandwidth)`. Composing the candidate model — layer
//! splicing, shape inference, structural re-hash — is by far the most
//! expensive part of an episode, and it is wasted work whenever the memo
//! pool has already scored the same decision. [`DeltaState`] therefore
//! stores only the decisions, folds them into an incrementally-built
//! fingerprint (no re-hash of the full spec: the base's cached
//! [`ModelSpec::structural_hash`] seeds the chain and each pushed action
//! mixes in O(1)), and defers [`DeltaState::materialize`] until an
//! evaluation is actually needed — a memo miss, or a new best candidate.
//!
//! [`EdgePrefixes`] complements this with the other per-episode
//! allocation the sampler used to pay: the `base.slice(0, edge_len)`
//! prefix the compression controller conditions on. All prefixes are
//! built once per search and shared read-only across rollout workers.

use cadmc_compress::{CompressError, CompressionPlan, FeatureAction, Technique};
use cadmc_nn::ModelSpec;

use crate::candidate::{Candidate, Partition};

/// SplitMix64 finalizer — the mixing step of the fingerprint chain.
/// Deterministic across platforms and runs; good avalanche behavior so
/// memo keys spread evenly over the pool's hash buckets.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fingerprint contribution of a partition decision.
fn partition_tag(partition: Partition) -> u64 {
    match partition {
        Partition::AllEdge => 1,
        Partition::AllCloud => 2,
        Partition::AfterLayer(i) => 3 + i as u64,
    }
}

/// A sampled deployment decision over a borrowed base model: partition
/// plus edge-region compression actions, with an incrementally-maintained
/// structural fingerprint. Never clones the base.
#[derive(Debug, Clone)]
pub struct DeltaState<'a> {
    base: &'a ModelSpec,
    partition: Partition,
    /// `(base layer index, technique)`, strictly ascending indices, all
    /// within the edge region.
    actions: Vec<(usize, Technique)>,
    /// Feature compression of the cut tensor. Kept out of the eager
    /// fingerprint chain: folded lazily by [`DeltaState::fingerprint`]
    /// only when non-identity, so feature-free deltas keep pre-feature
    /// fingerprints bit-for-bit and fold order never matters.
    feature: FeatureAction,
    fingerprint: u64,
}

impl<'a> DeltaState<'a> {
    /// A delta with no compression actions yet.
    pub fn new(base: &'a ModelSpec, partition: Partition) -> Self {
        let fingerprint = mix(base.structural_hash(), partition_tag(partition));
        Self {
            base,
            partition,
            actions: Vec::new(),
            feature: FeatureAction::IDENTITY,
            fingerprint,
        }
    }

    /// Records a compression action, folding it into the fingerprint in
    /// O(1).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is at/beyond the partition cut or does not come
    /// strictly after the previously pushed action.
    pub fn push_action(&mut self, layer: usize, technique: Technique) {
        assert!(
            layer < self.partition.edge_len(self.base.len()),
            "action at layer {layer} lies beyond the cut"
        );
        if let Some(&(last, _)) = self.actions.last() {
            assert!(last < layer, "actions must be pushed in ascending order");
        }
        self.fingerprint = mix(self.fingerprint, ((layer as u64) << 8) | technique as u64);
        self.actions.push((layer, technique));
    }

    /// Builds a delta from a full-length compression plan (actions at or
    /// beyond the cut are ignored, mirroring [`Candidate::compose`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan length does not match `base.len()`.
    pub fn from_plan(base: &'a ModelSpec, partition: Partition, plan: &CompressionPlan) -> Self {
        assert_eq!(plan.len(), base.len(), "plan must cover the base model");
        let mut delta = Self::new(base, partition);
        let edge_len = partition.edge_len(base.len());
        for (i, a) in plan.actions()[..edge_len].iter().enumerate() {
            if let Some(t) = *a {
                delta.push_action(i, t);
            }
        }
        delta
    }

    /// The partition decision.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The recorded `(layer, technique)` actions, ascending.
    pub fn actions(&self) -> &[(usize, Technique)] {
        &self.actions
    }

    /// Records feature compression of the cut tensor. Normalized exactly
    /// like [`Candidate::with_feature`]: a no-transfer partition
    /// (all-edge) always stores the identity.
    pub fn set_feature(&mut self, feature: FeatureAction) {
        self.feature = if self.partition.edge_len(self.base.len()) == self.base.len() {
            FeatureAction::IDENTITY
        } else {
            feature
        };
    }

    /// The feature-compression decision on the cut tensor.
    pub fn feature(&self) -> FeatureAction {
        self.feature
    }

    /// The structural fingerprint over (base hash, partition, actions,
    /// feature). The feature tag is folded on read and only when
    /// non-identity, so feature-free fingerprints equal pre-feature ones.
    pub fn fingerprint(&self) -> u64 {
        if self.feature.is_identity() {
            self.fingerprint
        } else {
            mix(self.fingerprint, self.feature.tag())
        }
    }

    /// Memo key for this decision at a bandwidth, quantized to 0.01 Mbps
    /// so replayed levels hit the same entry.
    pub fn eval_key(&self, bandwidth_mbps: f64) -> u64 {
        mix(
            self.fingerprint(),
            (bandwidth_mbps * 100.0).round() as i64 as u64,
        )
    }

    /// Composes the decision into a full [`Candidate`] (the expensive
    /// step this type exists to defer). Deterministic: materializing the
    /// same delta twice yields identical candidates.
    ///
    /// # Errors
    ///
    /// Propagates [`CompressError`] from [`Candidate::compose`].
    pub fn materialize(&self) -> Result<Candidate, CompressError> {
        let mut plan = CompressionPlan::identity(self.base.len());
        for &(layer, technique) in &self.actions {
            plan.set(layer, Some(technique));
        }
        Ok(Candidate::compose(self.base, self.partition, &plan)?.with_feature(self.feature))
    }
}

/// Every proper prefix slice `base[0..e]` of a model, built once per
/// search so episode sampling stops paying a slice (allocation + shape
/// inference + name formatting) per rollout. Shared read-only across
/// workers.
#[derive(Debug)]
pub struct EdgePrefixes {
    /// `slices[e - 1]` is `base.slice(0, e)`; `e` ranges over `1..=len`.
    slices: Vec<ModelSpec>,
}

impl EdgePrefixes {
    /// Builds all prefixes of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is empty (validated before any search runs).
    pub fn new(base: &ModelSpec) -> Self {
        let slices = (1..=base.len())
            .map(|e| base.slice(0, e).expect("valid prefix slice"))
            .collect();
        Self { slices }
    }

    /// The prefix spec with `edge_len` layers.
    ///
    /// # Panics
    ///
    /// Panics if `edge_len` is zero or exceeds the base length.
    pub fn get(&self, edge_len: usize) -> &ModelSpec {
        &self.slices[edge_len - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn materialize_matches_direct_compose() {
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(0, Some(Technique::W1FilterPrune));
        plan.set(2, Some(Technique::C1MobileNet));
        let partition = Partition::AfterLayer(4);
        let delta = DeltaState::from_plan(&base, partition, &plan);
        let direct = Candidate::compose(&base, partition, &plan).unwrap();
        let materialized = delta.materialize().unwrap();
        assert_eq!(direct, materialized);
        assert_eq!(direct.model.name(), materialized.model.name());
    }

    #[test]
    fn fingerprint_distinguishes_decisions() {
        let base = zoo::vgg11_cifar();
        let id = CompressionPlan::identity(base.len());
        let a = DeltaState::from_plan(&base, Partition::AllEdge, &id);
        let b = DeltaState::from_plan(&base, Partition::AllCloud, &id);
        let c = DeltaState::from_plan(&base, Partition::AfterLayer(3), &id);
        let mut pruned = CompressionPlan::identity(base.len());
        pruned.set(0, Some(Technique::W1FilterPrune));
        let d = DeltaState::from_plan(&base, Partition::AllEdge, &pruned);
        let fps = [
            a.fingerprint(),
            b.fingerprint(),
            c.fingerprint(),
            d.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
    }

    #[test]
    fn eval_key_quantizes_bandwidth_like_memo() {
        let base = zoo::tiny_cnn();
        let id = CompressionPlan::identity(base.len());
        let d = DeltaState::from_plan(&base, Partition::AllEdge, &id);
        assert_eq!(d.eval_key(1.0), d.eval_key(1.001));
        assert_ne!(d.eval_key(1.0), d.eval_key(2.0));
    }

    #[test]
    fn actions_beyond_cut_are_ignored() {
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(0, Some(Technique::W1FilterPrune));
        plan.set(4, Some(Technique::C1MobileNet)); // beyond the cut
        let delta = DeltaState::from_plan(&base, Partition::AfterLayer(2), &plan);
        assert_eq!(delta.actions().len(), 1);
        let c = delta.materialize().unwrap();
        assert_eq!(c.actions.len(), 1);
    }

    #[test]
    fn feature_folds_lazily_into_fingerprint() {
        use cadmc_compress::{BottleneckKnob, QuantKnob};
        let base = zoo::vgg11_cifar();
        let id = CompressionPlan::identity(base.len());
        let mut d = DeltaState::from_plan(&base, Partition::AfterLayer(2), &id);
        let plain = d.fingerprint();
        // Identity feature: fingerprint and memo keys unchanged.
        d.set_feature(FeatureAction::IDENTITY);
        assert_eq!(d.fingerprint(), plain);
        // Non-identity feature: distinct fingerprint, distinct memo key.
        let f = FeatureAction {
            bottleneck: BottleneckKnob::Half,
            quant: QuantKnob::Int8,
        };
        d.set_feature(f);
        assert_ne!(d.fingerprint(), plain);
        assert_eq!(d.feature(), f);
        let c = d.materialize().unwrap();
        assert_eq!(c.feature, f);
        // All-edge partitions normalize to identity (no transfer to
        // compress), keeping the feature-free fingerprint.
        let mut e = DeltaState::from_plan(&base, Partition::AllEdge, &id);
        let plain_edge = e.fingerprint();
        e.set_feature(f);
        assert!(e.feature().is_identity());
        assert_eq!(e.fingerprint(), plain_edge);
    }

    #[test]
    fn prefixes_match_direct_slices() {
        let base = zoo::vgg11_cifar();
        let prefixes = EdgePrefixes::new(&base);
        for e in 1..=base.len() {
            let direct = base.slice(0, e).unwrap();
            assert_eq!(prefixes.get(e).layers(), direct.layers());
            assert_eq!(prefixes.get(e).name(), direct.name());
        }
    }
}
