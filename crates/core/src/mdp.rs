//! The Markov Decision Process formalization of model transformation
//! (§V-A).
//!
//! The paper models the search as an MDP `M = (S, A, P, r, γ)`:
//!
//! * **State** — the DNN with its current partition/compression
//!   configuration, encoded as the sequence of Eq. 1 layer strings;
//! * **Action** — either a *partition* (split the model between edge and
//!   cloud) or a *compression* (rewrite one layer with a Table 2
//!   technique);
//! * **Transition** — deterministic: every action maps one state to
//!   exactly one next state;
//! * **Reward** — only terminal states are rewarded (Eq. 7), and
//!   `γ = 1` so every step of an episode shares the terminal reward.
//!
//! The search code in [`crate::branch`] / [`crate::tree_search`] operates
//! directly on controllers for efficiency; this module provides the
//! faithful explicit formulation, used by tests and by anyone wanting to
//! plug in a different search strategy.

use std::sync::{Arc, OnceLock};

use cadmc_compress::{CompressError, FeatureAction, Technique};
use cadmc_nn::ModelSpec;

use crate::candidate::Partition;

/// An MDP state: the (possibly already transformed) model plus its
/// placement configuration.
///
/// Represented as a *delta* over the immutable base spec: the shared
/// `Arc` base, the ordered compression steps taken so far, and the
/// partition decision. A transition therefore allocates O(changed
/// layers) — a partition step shares every `Arc` and clones nothing —
/// instead of cloning the whole model. The materialized model is cached
/// per state (and shared by clones) so `model()` stays cheap.
#[derive(Debug, Clone)]
pub struct State {
    /// The untransformed base model, shared by every state of an episode.
    base: Arc<ModelSpec>,
    /// Compression steps applied so far, in order. Each `(layer,
    /// technique)` indexes the model *as it stood* when the step was
    /// taken (techniques can change the layer count).
    steps: Vec<(usize, Technique)>,
    /// The partition decision, once taken.
    partition: Option<Partition>,
    /// The feature-compression decision for the cut tensor, once taken.
    /// Only legal after a transfer-bearing partition.
    feature: Option<FeatureAction>,
    /// Materialized model for `steps` (set eagerly by [`transition`];
    /// shared across clones). Empty-step states read `base` directly.
    cache: Arc<OnceLock<ModelSpec>>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.partition == other.partition
            && self.feature == other.feature
            && self.model() == other.model()
    }
}

impl State {
    /// The initial state: an unpartitioned, uncompressed base model.
    pub fn initial(base: impl Into<Arc<ModelSpec>>) -> Self {
        Self {
            base: base.into(),
            steps: Vec::new(),
            partition: None,
            feature: None,
            cache: Arc::new(OnceLock::new()),
        }
    }

    /// The current model structure (materialized lazily from the delta).
    pub fn model(&self) -> &ModelSpec {
        if self.steps.is_empty() {
            &self.base
        } else {
            self.cache.get_or_init(|| self.replay())
        }
    }

    /// The partition decision, once taken.
    pub fn partition(&self) -> Option<Partition> {
        self.partition
    }

    /// The feature-compression decision for the cut tensor, once taken.
    pub fn feature(&self) -> Option<FeatureAction> {
        self.feature
    }

    /// The compression steps taken so far (the state's action delta).
    pub fn steps(&self) -> &[(usize, Technique)] {
        &self.steps
    }

    /// Re-applies `steps` to the base. Only reached if a state with
    /// steps was built without its cache (transitions fill it eagerly).
    fn replay(&self) -> ModelSpec {
        let mut m = ModelSpec::clone(&self.base);
        for &(layer, technique) in &self.steps {
            m = technique
                .apply(&m, layer)
                .expect("recorded steps replay deterministically");
        }
        m
    }

    /// The paper's string encoding of the state (Eq. 1 per layer).
    pub fn encode(&self) -> String {
        let mut placement = match self.partition {
            None => "unplaced".to_string(),
            Some(p) => p.to_string(),
        };
        if let Some(f) = self.feature {
            placement.push_str(&format!(" feat:{}", f.code()));
        }
        format!("{} [{placement}]", self.model().encode())
    }

    /// Whether both decision stages are complete (partition taken).
    pub fn is_terminal(&self) -> bool {
        self.partition.is_some()
    }
}

/// An MDP action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Fix the edge/cloud split.
    Partition(Partition),
    /// Rewrite layer `layer` with `technique`.
    Compress {
        /// Target layer index in the current state's model.
        layer: usize,
        /// The Table 2 technique to apply.
        technique: Technique,
    },
    /// Compress the cut tensor with a bottleneck × quantization pair.
    /// Only legal after a transfer-bearing partition (never all-edge),
    /// and at most once per episode.
    Feature(FeatureAction),
}

/// Errors from applying an action.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionError {
    /// The compression rewrite failed.
    Compress(CompressError),
    /// A second partition was attempted.
    AlreadyPartitioned,
    /// Compression was attempted at or beyond the cut (the paper never
    /// compresses the cloud part).
    BeyondCut {
        /// The offending layer.
        layer: usize,
    },
    /// A feature action was attempted before the partition decision, or
    /// on an all-edge placement where no cut tensor exists.
    FeatureWithoutTransfer,
    /// A second feature action was attempted.
    FeatureAlreadySet,
}

impl std::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionError::Compress(e) => write!(f, "compression failed: {e}"),
            TransitionError::AlreadyPartitioned => write!(f, "state is already partitioned"),
            TransitionError::BeyondCut { layer } => {
                write!(
                    f,
                    "layer {layer} lies in the cloud part and cannot be compressed"
                )
            }
            TransitionError::FeatureWithoutTransfer => write!(
                f,
                "feature compression needs a transfer-bearing partition; the state is \
                 unpartitioned or all-edge"
            ),
            TransitionError::FeatureAlreadySet => {
                write!(f, "the cut tensor's feature action was already decided")
            }
        }
    }
}

impl std::error::Error for TransitionError {}

impl From<CompressError> for TransitionError {
    fn from(e: CompressError) -> Self {
        TransitionError::Compress(e)
    }
}

/// The deterministic transition function `P(s, a) → s'`.
///
/// # Errors
///
/// Returns a [`TransitionError`] when the action is invalid in `state`;
/// valid actions always succeed (the transition probability is 1, per
/// §V-A "all the probabilities are deterministic").
pub fn transition(state: &State, action: Action) -> Result<State, TransitionError> {
    match action {
        Action::Partition(p) => {
            if state.partition.is_some() {
                return Err(TransitionError::AlreadyPartitioned);
            }
            // O(1): every Arc is shared with the parent; the steps vec is
            // the only per-state allocation.
            Ok(State {
                base: Arc::clone(&state.base),
                steps: state.steps.clone(),
                partition: Some(p),
                feature: state.feature,
                cache: Arc::clone(&state.cache),
            })
        }
        Action::Feature(f) => {
            let transfers = match state.partition {
                None | Some(Partition::AllEdge) => false,
                Some(Partition::AllCloud) | Some(Partition::AfterLayer(_)) => true,
            };
            if !transfers {
                return Err(TransitionError::FeatureWithoutTransfer);
            }
            if state.feature.is_some() {
                return Err(TransitionError::FeatureAlreadySet);
            }
            // O(1): the cut-tensor overlay touches no layer, so every Arc
            // is shared with the parent.
            Ok(State {
                base: Arc::clone(&state.base),
                steps: state.steps.clone(),
                partition: state.partition,
                feature: Some(f),
                cache: Arc::clone(&state.cache),
            })
        }
        Action::Compress { layer, technique } => {
            if let Some(p) = state.partition {
                let edge_len = match p {
                    Partition::AllEdge => state.model().len(),
                    Partition::AllCloud => 0,
                    Partition::AfterLayer(i) => i + 1,
                };
                if layer >= edge_len {
                    return Err(TransitionError::BeyondCut { layer });
                }
            }
            // One rewrite on the parent's materialized model; the result
            // pre-fills the child's cache so it never replays the chain.
            let model = technique.apply(state.model(), layer)?;
            let mut steps = Vec::with_capacity(state.steps.len() + 1);
            steps.extend_from_slice(&state.steps);
            steps.push((layer, technique));
            Ok(State {
                base: Arc::clone(&state.base),
                steps,
                partition: state.partition,
                feature: state.feature,
                cache: Arc::new(OnceLock::from(model)),
            })
        }
    }
}

/// Enumerates the valid actions in `state` — the (large) action space the
/// controllers sample from.
pub fn valid_actions(state: &State) -> Vec<Action> {
    let mut out = Vec::new();
    let model = state.model();
    if state.partition.is_none() {
        out.push(Action::Partition(Partition::AllCloud));
        out.extend((0..model.len() - 1).map(|i| Action::Partition(Partition::AfterLayer(i))));
        out.push(Action::Partition(Partition::AllEdge));
    }
    let edge_len = match state.partition {
        None | Some(Partition::AllEdge) => model.len(),
        Some(Partition::AllCloud) => 0,
        Some(Partition::AfterLayer(i)) => i + 1,
    };
    for layer in 0..edge_len {
        for technique in Technique::applicable_at(model, layer) {
            out.push(Action::Compress { layer, technique });
        }
    }
    // The cut-tensor knobs: available exactly once, after a
    // transfer-bearing partition (identity is the default, not an action).
    let transfers = matches!(
        state.partition,
        Some(Partition::AllCloud) | Some(Partition::AfterLayer(_))
    );
    if transfers && state.feature.is_none() {
        out.extend(
            FeatureAction::ALL
                .iter()
                .filter(|f| !f.is_identity())
                .map(|&f| Action::Feature(f)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn transitions_are_deterministic() {
        let s = State::initial(zoo::vgg11_cifar());
        let a = Action::Compress {
            layer: 2,
            technique: Technique::C1MobileNet,
        };
        assert_eq!(transition(&s, a).unwrap(), transition(&s, a).unwrap());
    }

    #[test]
    fn double_partition_rejected() {
        let s = State::initial(zoo::vgg11_cifar());
        let s2 = transition(&s, Action::Partition(Partition::AllEdge)).unwrap();
        assert!(s2.is_terminal());
        assert_eq!(
            transition(&s2, Action::Partition(Partition::AllCloud)),
            Err(TransitionError::AlreadyPartitioned)
        );
    }

    #[test]
    fn compression_beyond_cut_rejected() {
        let s = State::initial(zoo::vgg11_cifar());
        let s2 = transition(&s, Action::Partition(Partition::AfterLayer(1))).unwrap();
        let err = transition(
            &s2,
            Action::Compress {
                layer: 5,
                technique: Technique::C1MobileNet,
            },
        );
        assert_eq!(err, Err(TransitionError::BeyondCut { layer: 5 }));
    }

    #[test]
    fn valid_actions_shrink_after_partition() {
        let s = State::initial(zoo::vgg11_cifar());
        let before = valid_actions(&s).len();
        let s2 = transition(&s, Action::Partition(Partition::AfterLayer(2))).unwrap();
        let after = valid_actions(&s2).len();
        assert!(after < before);
        // All remaining actions are edge-side compressions or cut-tensor
        // feature knobs.
        for a in valid_actions(&s2) {
            match a {
                Action::Compress { layer, .. } => assert!(layer <= 2),
                Action::Feature(f) => assert!(!f.is_identity()),
                Action::Partition(_) => panic!("partition already taken"),
            }
        }
    }

    #[test]
    fn feature_requires_transfer_and_is_single_shot() {
        let s = State::initial(zoo::vgg11_cifar());
        let feat = Action::Feature(FeatureAction::from_index(4));
        // Before any partition: no cut tensor exists yet.
        assert_eq!(
            transition(&s, feat),
            Err(TransitionError::FeatureWithoutTransfer)
        );
        // All-edge: still no transfer.
        let edge = transition(&s, Action::Partition(Partition::AllEdge)).unwrap();
        assert_eq!(
            transition(&edge, feat),
            Err(TransitionError::FeatureWithoutTransfer)
        );
        assert!(valid_actions(&edge)
            .iter()
            .all(|a| !matches!(a, Action::Feature(_))));
        // A transfer-bearing cut accepts exactly one feature decision.
        let cut = transition(&s, Action::Partition(Partition::AfterLayer(1))).unwrap();
        let n_feature = valid_actions(&cut)
            .iter()
            .filter(|a| matches!(a, Action::Feature(_)))
            .count();
        assert_eq!(n_feature, FeatureAction::COUNT - 1);
        let decided = transition(&cut, feat).unwrap();
        assert_eq!(decided.feature(), Some(FeatureAction::from_index(4)));
        assert_eq!(
            transition(&decided, feat),
            Err(TransitionError::FeatureAlreadySet)
        );
        assert!(valid_actions(&decided)
            .iter()
            .all(|a| !matches!(a, Action::Feature(_))));
        // The overlay shares the model allocation (O(1) transition).
        assert!(std::ptr::eq(cut.model(), decided.model()));
        assert!(decided.encode().contains("feat:"));
    }

    #[test]
    fn encode_includes_placement() {
        let s = State::initial(zoo::tiny_cnn());
        assert!(s.encode().contains("unplaced"));
        let s2 = transition(&s, Action::Partition(Partition::AllCloud)).unwrap();
        assert!(s2.encode().contains("all-cloud"));
    }

    #[test]
    fn partition_transition_shares_the_model_allocation() {
        let s = State::initial(zoo::vgg11_cifar());
        let s2 = transition(&s, Action::Partition(Partition::AllEdge)).unwrap();
        // The delta representation makes partitioning O(1): both states
        // read the same base allocation.
        assert!(std::ptr::eq(s.model(), s2.model()));
    }

    #[test]
    fn compress_transition_materializes_one_rewrite() {
        let s = State::initial(zoo::vgg11_cifar());
        let a = Action::Compress {
            layer: 2,
            technique: Technique::C1MobileNet,
        };
        let s2 = transition(&s, a).unwrap();
        assert_eq!(s2.steps(), &[(2, Technique::C1MobileNet)]);
        assert_eq!(
            s2.model(),
            &Technique::C1MobileNet.apply(s.model(), 2).unwrap()
        );
        // A later partition shares the materialized model allocation.
        let s3 = transition(&s2, Action::Partition(Partition::AllEdge)).unwrap();
        assert!(std::ptr::eq(s2.model(), s3.model()));
    }

    #[test]
    fn every_valid_action_transitions_successfully() {
        let s = State::initial(zoo::tiny_cnn());
        for a in valid_actions(&s) {
            transition(&s, a).unwrap_or_else(|e| panic!("action {a:?} failed: {e}"));
        }
    }
}
