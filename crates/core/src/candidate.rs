//! Deployment candidates: a base DNN transformed by a partition choice and
//! a compression plan, composed into a single deployable model.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use cadmc_accuracy::AppliedAction;
use cadmc_compress::{CompressError, CompressionPlan, FeatureAction, Technique};
use cadmc_nn::{LayerSpec, ModelSpec};

/// Where the edge→cloud handoff happens, in *base-model* layer indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Partition {
    /// Run the entire model on the edge device (no transfer).
    AllEdge,
    /// Offload everything: transfer the raw input to the cloud.
    AllCloud,
    /// Run base layers `[0..=i]` on the edge, the rest on the cloud,
    /// transferring layer `i`'s output features.
    AfterLayer(usize),
}

impl Partition {
    /// Number of leading *base* layers that run on the edge under this
    /// partition, for a model with `n_layers` layers.
    ///
    /// # Panics
    ///
    /// Panics if an `AfterLayer` cut index is out of range.
    pub fn edge_len(self, n_layers: usize) -> usize {
        match self {
            Partition::AllEdge => n_layers,
            Partition::AllCloud => 0,
            Partition::AfterLayer(i) => {
                assert!(i < n_layers, "cut index out of range");
                i + 1
            }
        }
    }

    /// The base-layer index of the first cloud layer, as tree nodes
    /// record a cut (`None` when nothing runs on the cloud).
    pub fn cut_index(self) -> Option<usize> {
        match self {
            Partition::AllEdge => None,
            Partition::AllCloud => Some(0),
            Partition::AfterLayer(i) => Some(i + 1),
        }
    }

    /// Inverse of [`Partition::cut_index`].
    pub fn from_cut_index(cut: Option<usize>) -> Self {
        match cut {
            None => Partition::AllEdge,
            Some(0) => Partition::AllCloud,
            Some(abs) => Partition::AfterLayer(abs - 1),
        }
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partition::AllEdge => write!(f, "all-edge"),
            Partition::AllCloud => write!(f, "all-cloud"),
            Partition::AfterLayer(i) => write!(f, "cut@{i}"),
        }
    }
}

/// Lazily-computed derived quantities of a [`Candidate`]. Like
/// [`ModelSpec`]'s internal cache: a pure function of the candidate,
/// invisible to equality and serialization, rebuilt on demand. Candidates
/// are treated as immutable once composed — every construction site goes
/// through [`Candidate::compose`] or builds the cache fresh.
#[derive(Debug, Default)]
#[doc(hidden)]
pub struct CandidateCache {
    transfer_bytes: OnceLock<u64>,
}

impl Clone for CandidateCache {
    fn clone(&self) -> Self {
        let out = Self::default();
        if let Some(&b) = self.transfer_bytes.get() {
            let _ = out.transfer_bytes.set(b);
        }
        out
    }
}

// The cache carries no information beyond what the candidate determines.
impl PartialEq for CandidateCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Serialize for CandidateCache {
    fn serialize(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for CandidateCache {
    fn deserialize(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self::default())
    }
}

/// A fully-specified deployment: composed model, handoff point (in
/// *composed* coordinates) and the compression actions taken (in *base*
/// coordinates, for the accuracy oracle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The composed model: compressed edge part followed by the untouched
    /// cloud part.
    pub model: ModelSpec,
    /// Number of leading layers of `model` that run on the edge
    /// (0 = all-cloud; `model.len()` = all-edge).
    pub edge_layers: usize,
    /// The partition choice in base coordinates.
    pub partition: Partition,
    /// The compression actions, in base coordinates.
    pub actions: Vec<AppliedAction>,
    /// Feature compression applied to the cut tensor at the handoff
    /// (identity when the deployment has no transfer).
    pub feature: FeatureAction,
    /// Memoized derived quantities (serialized as null, rebuilt on
    /// demand). Construct with `Default::default()`.
    #[doc(hidden)]
    pub cache: CandidateCache,
}

impl Candidate {
    /// Composes a candidate from `base`, a partition and a compression
    /// plan (covering all of `base`'s layers; actions beyond the cut are
    /// ignored — the paper never compresses the cloud part).
    ///
    /// # Errors
    ///
    /// Propagates [`CompressError`] if an action within the edge region is
    /// not applicable.
    ///
    /// # Panics
    ///
    /// Panics if the plan length does not match `base.len()` or the cut
    /// index is out of range.
    pub fn compose(
        base: &ModelSpec,
        partition: Partition,
        plan: &CompressionPlan,
    ) -> Result<Candidate, CompressError> {
        assert_eq!(plan.len(), base.len(), "plan must cover the base model");
        let edge_len = partition.edge_len(base.len());
        if edge_len == 0 {
            // Everything on the cloud: no compression happens at all.
            return Ok(Candidate {
                model: base.clone(),
                edge_layers: 0,
                partition,
                actions: Vec::new(),
                feature: FeatureAction::IDENTITY,
                cache: CandidateCache::default(),
            });
        }
        let edge_actions = &plan.actions()[..edge_len];
        if edge_actions
            .iter()
            .any(|a| matches!(a, Some(Technique::F3Gap)))
        {
            // F3 rewrites the FC head *below* its own index, so lower
            // actions must see the rewritten model — only the sequential
            // walk gets that right.
            return Self::compose_sequential(base, partition, plan);
        }
        // Fused fast path: every remaining rewrite is local, so
        // applicability and replacement layers checked against `base`
        // match what the slice/sanitize/apply/concat pipeline would
        // compute (layers and shapes before the cut are identical in the
        // edge slice), and the whole composed model is built with a
        // single shape-inference pass. Byte-identical output — including
        // the `base[0..e]+CODE@i` name chain — is pinned by differential
        // tests against `compose_sequential`.
        let mut name = format!("{}[0..{edge_len}]", base.name());
        let mut slots: Vec<Option<Vec<LayerSpec>>> = vec![None; edge_len];
        let mut edge_layers = edge_len;
        for idx in (0..edge_len).rev() {
            if let Some(t) = edge_actions[idx] {
                if t.applicable(base, idx) {
                    name.push_str(&format!("+{}@{}", t.code(), idx));
                    let repl = t.replacement_layers(base, idx);
                    edge_layers += repl.len() - 1;
                    slots[idx] = Some(repl);
                }
            }
        }
        let mut actions = Vec::new();
        let mut layers = Vec::with_capacity(base.len() + 4);
        for (i, slot) in slots.iter_mut().enumerate() {
            // A filled slot always corresponds to a kept action.
            if let (Some(repl), Some(technique)) = (slot.take(), edge_actions[i]) {
                layers.extend(repl);
                actions.push(AppliedAction {
                    layer_index: i,
                    technique,
                });
            } else {
                layers.push(base.layers()[i].clone());
            }
        }
        layers.extend(base.layers()[edge_len..].iter().cloned());
        let model =
            ModelSpec::new(name, base.input_shape(), layers).map_err(CompressError::Shape)?;
        Ok(Candidate {
            model,
            edge_layers,
            partition,
            actions,
            feature: FeatureAction::IDENTITY,
            cache: CandidateCache::default(),
        })
    }

    /// Sequential reference implementation of [`Candidate::compose`]:
    /// slice the edge prefix, sanitize and apply the truncated plan one
    /// rewrite at a time, then concatenate the untouched cloud tail. The
    /// differential-testing oracle for the fused fast path, and the real
    /// path whenever the edge plan contains F3.
    ///
    /// # Errors
    ///
    /// Propagates [`CompressError`] if an action within the edge region is
    /// not applicable.
    ///
    /// # Panics
    ///
    /// Panics if the plan length does not match `base.len()` or the cut
    /// index is out of range.
    pub fn compose_sequential(
        base: &ModelSpec,
        partition: Partition,
        plan: &CompressionPlan,
    ) -> Result<Candidate, CompressError> {
        assert_eq!(plan.len(), base.len(), "plan must cover the base model");
        let edge_len = partition.edge_len(base.len());
        if edge_len == 0 {
            return Ok(Candidate {
                model: base.clone(),
                edge_layers: 0,
                partition,
                actions: Vec::new(),
                feature: FeatureAction::IDENTITY,
                cache: CandidateCache::default(),
            });
        }
        let edge_spec = base.slice(0, edge_len).map_err(CompressError::Shape)?;
        // Truncating at the cut can orphan actions that were only valid in
        // the context of (now-dropped) tail actions — e.g. a prune aimed at
        // the 1×1 conv an F3 rewrite would have introduced. Sanitize the
        // truncated plan so composition is total over truncations.
        let edge_plan = CompressionPlan::from_actions(plan.actions()[..edge_len].to_vec())
            .sanitized_sequential(&edge_spec);
        let compressed_edge = edge_plan.apply_sequential(&edge_spec)?;
        let actions: Vec<AppliedAction> = edge_plan
            .actions()
            .iter()
            .enumerate()
            .filter_map(|(layer_index, t)| {
                t.map(|technique| AppliedAction {
                    layer_index,
                    technique,
                })
            })
            .collect();
        let model = if edge_len == base.len() {
            compressed_edge.clone()
        } else {
            let cloud = base
                .slice(edge_len, base.len())
                .map_err(CompressError::Shape)?;
            compressed_edge
                .concat(&cloud)
                .map_err(CompressError::Shape)?
        };
        Ok(Candidate {
            model,
            edge_layers: compressed_edge.len(),
            partition,
            actions,
            feature: FeatureAction::IDENTITY,
            cache: CandidateCache::default(),
        })
    }

    /// The unmodified base model deployed fully on the edge — the paper's
    /// reference configuration.
    pub fn base_all_edge(base: &ModelSpec) -> Candidate {
        Candidate {
            model: base.clone(),
            edge_layers: base.len(),
            partition: Partition::AllEdge,
            actions: Vec::new(),
            feature: FeatureAction::IDENTITY,
            cache: CandidateCache::default(),
        }
    }

    /// Returns this candidate with a feature-compression action attached
    /// to its cut tensor. Normalizes: a deployment with no transfer
    /// (all-edge) always carries the identity action, so feature-free
    /// comparisons stay exact. Resets the byte memo when the action
    /// changes.
    #[must_use]
    pub fn with_feature(mut self, feature: FeatureAction) -> Candidate {
        let feature = if self.edge_layers == self.model.len() {
            FeatureAction::IDENTITY
        } else {
            feature
        };
        if feature != self.feature {
            self.feature = feature;
            self.cache = CandidateCache::default();
        }
        self
    }

    /// Bytes of the raw (un-feature-compressed) cut tensor: 0 when
    /// everything runs on the edge; the raw input size when everything
    /// runs on the cloud.
    pub fn raw_transfer_bytes(&self) -> u64 {
        if self.edge_layers == self.model.len() {
            0
        } else if self.edge_layers == 0 {
            self.model.input_bytes()
        } else {
            self.model.cut_bytes_after(self.edge_layers - 1)
        }
    }

    /// Bytes transferred at the handoff, after feature compression of the
    /// cut tensor (0 when everything runs on the edge). Memoized alongside
    /// the model's MACC/hash caches: the executor's deadline math asks for
    /// this on every simulated request. The feature overlay is O(1) pure
    /// integer math on the raw byte count — no per-layer walk.
    pub fn transfer_bytes(&self) -> u64 {
        *self
            .cache
            .transfer_bytes
            .get_or_init(|| self.feature.compressed_bytes(self.raw_transfer_bytes()))
    }

    /// Differential oracle for [`Candidate::transfer_bytes`]: derives the
    /// byte count from first principles — counts the cut tensor's elements
    /// from the composed model's shape chain, then materializes the
    /// bottleneck (kept elements) and quantization (packed bits)
    /// explicitly — instead of overlaying the memoized raw byte count.
    /// Proptests pin both paths to exact integer equality.
    pub fn transfer_bytes_scalar(&self) -> u64 {
        if self.edge_layers == self.model.len() {
            return 0;
        }
        let elems = if self.edge_layers == 0 {
            self.model.input_shape().len() as u64
        } else {
            self.model.layer_output(self.edge_layers - 1).len() as u64
        };
        let raw = elems * 4; // f32 elements, as Shape::transfer_bytes defines
        if self.feature.is_identity() {
            return raw;
        }
        let kept = elems.div_ceil(self.feature.bottleneck.divisor());
        let packed = (kept as u128 * self.feature.quant.bits() as u128).div_ceil(8);
        packed.min(raw as u128) as u64
    }

    /// Whether any compression action was taken.
    pub fn is_compressed(&self) -> bool {
        !self.actions.is_empty()
    }

    /// Short description like `"cut@4 | C1@2,W1@0"` (with a trailing
    /// `"| feat:B2Q8"` segment when the cut tensor is feature-compressed).
    pub fn summary(&self) -> String {
        let acts = if self.actions.is_empty() {
            "id".to_string()
        } else {
            self.actions
                .iter()
                .map(|a| format!("{}@{}", a.technique.code(), a.layer_index))
                .collect::<Vec<_>>()
                .join(",")
        };
        if self.feature.is_identity() {
            format!("{} | {acts}", self.partition)
        } else {
            format!("{} | {acts} | feat:{}", self.partition, self.feature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_compress::Technique;
    use cadmc_nn::zoo;

    #[test]
    fn all_edge_identity_candidate() {
        let base = zoo::vgg11_cifar();
        let plan = CompressionPlan::identity(base.len());
        let c = Candidate::compose(&base, Partition::AllEdge, &plan).unwrap();
        assert_eq!(c.model.layers(), base.layers());
        assert_eq!(c.edge_layers, base.len());
        assert_eq!(c.transfer_bytes(), 0);
        assert!(!c.is_compressed());
    }

    #[test]
    fn all_cloud_transfers_input() {
        let base = zoo::vgg11_cifar();
        let plan = CompressionPlan::identity(base.len());
        let c = Candidate::compose(&base, Partition::AllCloud, &plan).unwrap();
        assert_eq!(c.edge_layers, 0);
        assert_eq!(c.transfer_bytes(), base.input_bytes());
    }

    #[test]
    fn cut_after_layer_transfers_features() {
        let base = zoo::vgg11_cifar();
        let plan = CompressionPlan::identity(base.len());
        let c = Candidate::compose(&base, Partition::AfterLayer(1), &plan).unwrap();
        assert_eq!(c.edge_layers, 2);
        // After the first pool: 64 x 16 x 16 f32 features.
        assert_eq!(c.transfer_bytes(), 64 * 16 * 16 * 4);
    }

    #[test]
    fn compression_applies_only_to_edge_part() {
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(0, Some(Technique::W1FilterPrune));
        plan.set(4, Some(Technique::C1MobileNet)); // beyond the cut
        let c = Candidate::compose(&base, Partition::AfterLayer(2), &plan).unwrap();
        // Only the W1 action (layer 0 < cut) is recorded.
        assert_eq!(c.actions.len(), 1);
        assert_eq!(c.actions[0].technique, Technique::W1FilterPrune);
        // Cloud tail is untouched: output shape preserved.
        assert_eq!(c.model.output_shape(), base.output_shape());
    }

    #[test]
    fn compressed_edge_shifts_cut_index() {
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(2, Some(Technique::C1MobileNet)); // 1 layer -> 2 layers
        let c = Candidate::compose(&base, Partition::AfterLayer(3), &plan).unwrap();
        assert_eq!(c.edge_layers, 5, "edge grew by one layer");
        assert_eq!(c.model.len(), base.len() + 1);
    }

    #[test]
    fn all_cloud_ignores_compression() {
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(0, Some(Technique::W1FilterPrune));
        let c = Candidate::compose(&base, Partition::AllCloud, &plan).unwrap();
        assert!(c.actions.is_empty());
        assert_eq!(c.model.layers(), base.layers());
    }

    #[test]
    fn summary_mentions_cut_and_actions() {
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(0, Some(Technique::W1FilterPrune));
        let c = Candidate::compose(&base, Partition::AfterLayer(4), &plan).unwrap();
        assert_eq!(c.summary(), "cut@4 | W1@0");
    }

    #[test]
    fn feature_overlay_shrinks_transfer() {
        use cadmc_compress::{BottleneckKnob, QuantKnob};
        let base = zoo::vgg11_cifar();
        let plan = CompressionPlan::identity(base.len());
        let c = Candidate::compose(&base, Partition::AfterLayer(1), &plan).unwrap();
        let raw = c.transfer_bytes();
        assert_eq!(raw, 64 * 16 * 16 * 4);
        let f = FeatureAction {
            bottleneck: BottleneckKnob::Quarter,
            quant: QuantKnob::Int8,
        };
        let fc = c.with_feature(f);
        assert_eq!(fc.raw_transfer_bytes(), raw);
        assert_eq!(fc.transfer_bytes(), raw / 16);
        assert_eq!(fc.transfer_bytes(), fc.transfer_bytes_scalar());
        assert_eq!(fc.summary(), "cut@1 | id | feat:B4Q8");
    }

    #[test]
    fn all_edge_normalizes_feature_to_identity() {
        use cadmc_compress::{BottleneckKnob, QuantKnob};
        let base = zoo::vgg11_cifar();
        let plan = CompressionPlan::identity(base.len());
        let c = Candidate::compose(&base, Partition::AllEdge, &plan)
            .unwrap()
            .with_feature(FeatureAction {
                bottleneck: BottleneckKnob::Half,
                quant: QuantKnob::Int4,
            });
        assert!(c.feature.is_identity());
        assert_eq!(c.transfer_bytes(), 0);
        assert_eq!(c.summary(), "all-edge | id");
    }

    #[test]
    fn scalar_walk_matches_overlay_everywhere() {
        let base = zoo::vgg11_cifar();
        let plan = CompressionPlan::identity(base.len());
        for cut in 0..base.len() {
            let c = Candidate::compose(&base, Partition::AfterLayer(cut), &plan).unwrap();
            for f in FeatureAction::ALL {
                let fc = c.clone().with_feature(f);
                assert_eq!(
                    fc.transfer_bytes(),
                    fc.transfer_bytes_scalar(),
                    "{}",
                    fc.summary()
                );
            }
        }
    }
}
