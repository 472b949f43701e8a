//! Model-graph invariant validation — the static gate every search entry
//! point runs before any episode rolls out.
//!
//! The searches (Alg. 1 and Alg. 3) and the online composition (Alg. 2)
//! all assume a well-formed problem: a shape-consistent layer chain, a
//! legal block split, strictly ascending bandwidth levels (so the K fork
//! intervals are disjoint and cover all of `(0, ∞)`), applicable
//! compression actions, and — for a finished tree — the structural
//! invariants of §VI-A (interior nodes fork exactly `K` ways, partitioned
//! nodes are leaves, levels advance one block per edge). A malformed spec
//! that slips past these checks surfaces as a panic deep inside a rollout
//! worker, or worse, as a silently wrong deployment. This module rejects
//! it up front with a diagnostic naming the exact violation.
//!
//! Entry points:
//!
//! * [`branch_inputs`] — gate for [`crate::branch::optimal_branch`] and
//!   the Fig. 7 baseline searches;
//! * [`tree_inputs`] — gate for [`crate::tree_search::tree_search`];
//! * [`model_tree`] — full structural audit of a (deserialized or
//!   searched) [`ModelTree`], also exposed as `cadmc validate`;
//! * the fine-grained checks they compose ([`model_spec`],
//!   [`bandwidth_levels`], [`block_count`], [`compression_plan`],
//!   [`candidate`], [`search_config`]).

use cadmc_compress::CompressionPlan;
use cadmc_nn::ModelSpec;

use crate::candidate::{Candidate, Partition};
use crate::search::SearchConfig;
use crate::tree::ModelTree;

/// A specific, actionable reason a spec, plan, configuration or tree was
/// rejected by the validator.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// The model has no layers; nothing can be partitioned or compressed.
    EmptyModel {
        /// Name of the offending model.
        name: String,
    },
    /// The recorded layer chain does not shape-check: some layer cannot
    /// consume its predecessor's output (or a deserialized spec's cached
    /// shapes disagree with re-inference).
    ShapeInconsistent {
        /// Name of the offending model.
        name: String,
        /// Index of the first inconsistent layer.
        layer: usize,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// The requested block count cannot split this model.
    BadBlockCount {
        /// Requested number of blocks `N`.
        n_blocks: usize,
        /// Number of layers available.
        layers: usize,
    },
    /// No bandwidth levels were given (`K = 0`).
    NoBandwidthLevels,
    /// A bandwidth level is not a positive finite number.
    BadBandwidthLevel {
        /// Index of the offending level.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Bandwidth levels are not strictly ascending, so the K matching
    /// intervals would not be disjoint (duplicates) or would shuffle fork
    /// semantics (descending order).
    UnsortedBandwidthLevels {
        /// Index of the first out-of-order level.
        index: usize,
        /// The level before it.
        prev: f64,
        /// The out-of-order level.
        next: f64,
    },
    /// A search bandwidth is not a positive finite number.
    BadBandwidth {
        /// The offending value in Mbps.
        value: f64,
    },
    /// A search hyper-parameter is outside its legal range.
    BadConfig {
        /// The offending `SearchConfig` field.
        field: &'static str,
        /// What was wrong and what is accepted.
        detail: String,
    },
    /// A partition cut index points beyond the model.
    CutOutOfRange {
        /// The cut layer index.
        cut: usize,
        /// Number of layers in the model.
        layers: usize,
    },
    /// A compression plan's length disagrees with the model's layer count.
    PlanLengthMismatch {
        /// Plan length.
        plan: usize,
        /// Model layer count.
        layers: usize,
    },
    /// A compression action cannot be applied at its target layer
    /// (wrong layer kind, or rank/ratio bounds unsatisfiable).
    InapplicableAction {
        /// Table 2 code of the technique (e.g. `"F1"`).
        technique: String,
        /// Target layer index.
        layer: usize,
        /// Why it does not apply.
        detail: String,
    },
    /// The tree has no nodes; nothing can be composed from it.
    EmptyTree,
    /// An interior node's child list is neither empty nor exactly `K`.
    WrongForkCount {
        /// Offending node id.
        node: usize,
        /// Observed child count.
        children: usize,
        /// Expected fork count `K`.
        k: usize,
    },
    /// A partitioned node has children (partitioned nodes hand the rest of
    /// the model to the cloud and must be leaves).
    PartitionedNodeHasChildren {
        /// Offending node id.
        node: usize,
    },
    /// A node's level does not advance one block per tree edge.
    BadNodeLevel {
        /// Offending node id.
        node: usize,
        /// Recorded level.
        level: usize,
        /// Level required by its position.
        expected: usize,
    },
    /// A child link is structurally invalid (dangling id, child before
    /// parent, or multiple parents).
    BadChildLink {
        /// Parent node id.
        node: usize,
        /// Offending child id.
        child: usize,
        /// What is wrong with the link.
        detail: String,
    },
    /// A node's partition point falls outside its block's layer range.
    PartitionOutsideBlock {
        /// Offending node id.
        node: usize,
        /// Absolute partition layer index.
        abs: usize,
        /// Block start (inclusive).
        start: usize,
        /// Block end (exclusive-of-layers, inclusive as a cut point).
        end: usize,
    },
    /// A node records a compression action outside its own block (or past
    /// its partition point).
    ActionOutsideBlock {
        /// Offending node id.
        node: usize,
        /// Action's target layer index.
        layer: usize,
        /// Legal range start.
        start: usize,
        /// Legal range end (exclusive).
        end: usize,
    },
    /// A node's reward is NaN or infinite.
    NonFiniteReward {
        /// Offending node id.
        node: usize,
        /// The recorded reward.
        value: f64,
    },
    /// A non-partitioned interior node stops before the last block, so
    /// some bandwidth histories have no branch to follow.
    IncompleteTree {
        /// Offending node id.
        node: usize,
        /// The node's level.
        level: usize,
        /// Total block count `N`.
        n_blocks: usize,
    },
    /// A root→leaf branch fails to compose back into a model with the
    /// base's output shape.
    BranchComposeMismatch {
        /// Index of the branch in [`ModelTree::branches`] order.
        branch: usize,
        /// Mismatch description.
        detail: String,
    },
    /// A candidate records a non-identity feature-compression action but
    /// its partition transfers no bytes (all-edge deployment), so there is
    /// no cut tensor to compress.
    FeatureWithoutTransfer {
        /// Display code of the offending feature action (e.g. `"B2Q8"`).
        feature: String,
    },
    /// A tree node carries a non-identity feature action without owning a
    /// transfer-bearing partition; the feature knob is only meaningful on
    /// the node that cuts the model.
    FeatureOnUnpartitionedNode {
        /// Offending node id.
        node: usize,
        /// Display code of the offending feature action.
        feature: String,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::EmptyModel { name } => {
                write!(f, "model {name:?} has no layers; add at least one layer before searching")
            }
            ValidateError::ShapeInconsistent { name, layer, detail } => write!(
                f,
                "model {name:?} is shape-inconsistent at layer {layer}: {detail}"
            ),
            ValidateError::BadBlockCount { n_blocks, layers } => write!(
                f,
                "cannot split {layers} layers into {n_blocks} blocks; use 1..={layers} blocks"
            ),
            ValidateError::NoBandwidthLevels => {
                write!(f, "no bandwidth levels given; provide at least one level (K >= 1)")
            }
            ValidateError::BadBandwidthLevel { index, value } => write!(
                f,
                "bandwidth level {index} is {value} Mbps; levels must be positive and finite"
            ),
            ValidateError::UnsortedBandwidthLevels { index, prev, next } => write!(
                f,
                "bandwidth levels must be strictly ascending so fork intervals are \
                 disjoint and cover (0, inf): level {index} is {next} after {prev}"
            ),
            ValidateError::BadBandwidth { value } => write!(
                f,
                "search bandwidth {value} Mbps is not positive and finite"
            ),
            ValidateError::BadConfig { field, detail } => {
                write!(f, "invalid SearchConfig.{field}: {detail}")
            }
            ValidateError::CutOutOfRange { cut, layers } => write!(
                f,
                "partition cut at layer {cut} is out of range for a {layers}-layer model"
            ),
            ValidateError::PlanLengthMismatch { plan, layers } => write!(
                f,
                "compression plan covers {plan} layers but the model has {layers}"
            ),
            ValidateError::InapplicableAction { technique, layer, detail } => write!(
                f,
                "technique {technique} cannot be applied at layer {layer}: {detail}"
            ),
            ValidateError::EmptyTree => {
                write!(f, "model tree has no nodes; train it before composing or saving")
            }
            ValidateError::WrongForkCount { node, children, k } => write!(
                f,
                "node {node} has {children} children; interior nodes need exactly K = {k} \
                 (one per bandwidth type), leaves need zero"
            ),
            ValidateError::PartitionedNodeHasChildren { node } => write!(
                f,
                "node {node} partitions to the cloud but has children; partitioned nodes \
                 must be leaves"
            ),
            ValidateError::BadNodeLevel { node, level, expected } => write!(
                f,
                "node {node} records level {level} but its tree position requires {expected}"
            ),
            ValidateError::BadChildLink { node, child, detail } => {
                write!(f, "node {node} -> child {child}: {detail}")
            }
            ValidateError::PartitionOutsideBlock { node, abs, start, end } => write!(
                f,
                "node {node} partitions at layer {abs}, outside its block's legal cut \
                 range {start}..={end}"
            ),
            ValidateError::ActionOutsideBlock { node, layer, start, end } => write!(
                f,
                "node {node} compresses layer {layer}, outside its block's edge-resident \
                 range {start}..{end}"
            ),
            ValidateError::NonFiniteReward { node, value } => {
                write!(f, "node {node} has non-finite reward {value}")
            }
            ValidateError::IncompleteTree { node, level, n_blocks } => write!(
                f,
                "node {node} at level {level} is an unpartitioned leaf but the tree has \
                 {n_blocks} blocks; every branch must reach level {} or partition",
                n_blocks - 1
            ),
            ValidateError::BranchComposeMismatch { branch, detail } => {
                write!(f, "branch {branch} does not compose a valid deployment: {detail}")
            }
            ValidateError::FeatureWithoutTransfer { feature } => write!(
                f,
                "feature action {feature} is set on an all-edge deployment; feature \
                 compression applies to the cut tensor, which only exists when the \
                 partition transfers bytes"
            ),
            ValidateError::FeatureOnUnpartitionedNode { node, feature } => write!(
                f,
                "node {node} carries feature action {feature} but does not own a \
                 transfer-bearing partition; only the cut node may compress the cut tensor"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Checks that `spec` is non-empty and its layer chain shape-checks from
/// the recorded input: each layer must consume its predecessor's output
/// and reproduce the recorded per-layer output shape (deserialized specs
/// carry recorded shapes that re-inference must agree with).
///
/// # Errors
///
/// [`ValidateError::EmptyModel`] or [`ValidateError::ShapeInconsistent`].
pub fn model_spec(spec: &ModelSpec) -> Result<(), ValidateError> {
    if spec.is_empty() {
        return Err(ValidateError::EmptyModel {
            name: spec.name().to_string(),
        });
    }
    let mut shape = spec.input_shape();
    for (i, layer) in spec.layers().iter().enumerate() {
        match layer.output_shape(shape) {
            Ok(out) => {
                let recorded = spec.layer_output(i);
                if out != recorded {
                    return Err(ValidateError::ShapeInconsistent {
                        name: spec.name().to_string(),
                        layer: i,
                        detail: format!(
                            "re-inferred output {out} disagrees with recorded {recorded}"
                        ),
                    });
                }
                shape = out;
            }
            Err(e) => {
                return Err(ValidateError::ShapeInconsistent {
                    name: spec.name().to_string(),
                    layer: i,
                    detail: e.to_string(),
                })
            }
        }
    }
    Ok(())
}

/// Checks that `levels` is non-empty, every level is positive and finite,
/// and the sequence is strictly ascending — which makes the K
/// nearest-level matching intervals pairwise disjoint and covering.
///
/// # Errors
///
/// [`ValidateError::NoBandwidthLevels`],
/// [`ValidateError::BadBandwidthLevel`] or
/// [`ValidateError::UnsortedBandwidthLevels`].
pub fn bandwidth_levels(levels: &[f64]) -> Result<(), ValidateError> {
    if levels.is_empty() {
        return Err(ValidateError::NoBandwidthLevels);
    }
    for (i, &l) in levels.iter().enumerate() {
        if !l.is_finite() || l <= 0.0 {
            return Err(ValidateError::BadBandwidthLevel { index: i, value: l });
        }
        if i > 0 && levels[i - 1] >= l {
            return Err(ValidateError::UnsortedBandwidthLevels {
                index: i,
                prev: levels[i - 1],
                next: l,
            });
        }
    }
    Ok(())
}

/// Checks that a single search bandwidth is positive and finite.
///
/// # Errors
///
/// [`ValidateError::BadBandwidth`].
pub fn bandwidth(mbps: f64) -> Result<(), ValidateError> {
    if !mbps.is_finite() || mbps <= 0.0 {
        return Err(ValidateError::BadBandwidth { value: mbps });
    }
    Ok(())
}

/// Checks that `n_blocks` can split `spec` (at least one layer per block).
///
/// # Errors
///
/// [`ValidateError::BadBlockCount`].
pub fn block_count(spec: &ModelSpec, n_blocks: usize) -> Result<(), ValidateError> {
    if n_blocks == 0 || n_blocks > spec.len() {
        return Err(ValidateError::BadBlockCount {
            n_blocks,
            layers: spec.len(),
        });
    }
    Ok(())
}

/// Checks the search hyper-parameters that the rollout machinery divides
/// by or indexes with: episode and batch counts, controller width,
/// learning rate and the exploration probabilities.
///
/// # Errors
///
/// [`ValidateError::BadConfig`] naming the offending field.
pub fn search_config(cfg: &SearchConfig) -> Result<(), ValidateError> {
    if cfg.episodes == 0 {
        return Err(ValidateError::BadConfig {
            field: "episodes",
            detail: "must be at least 1".to_string(),
        });
    }
    if cfg.hidden == 0 {
        return Err(ValidateError::BadConfig {
            field: "hidden",
            detail: "controller width must be at least 1".to_string(),
        });
    }
    if !cfg.lr.is_finite() || cfg.lr <= 0.0 {
        return Err(ValidateError::BadConfig {
            field: "lr",
            detail: format!("learning rate {} must be positive and finite", cfg.lr),
        });
    }
    if !cfg.alpha.is_finite() || !(0.0..=1.0).contains(&cfg.alpha) {
        return Err(ValidateError::BadConfig {
            field: "alpha",
            detail: format!("exploration factor {} must be in [0, 1]", cfg.alpha),
        });
    }
    if !cfg.explore_epsilon.is_finite() || !(0.0..=1.0).contains(&cfg.explore_epsilon) {
        return Err(ValidateError::BadConfig {
            field: "explore_epsilon",
            detail: format!("probability {} must be in [0, 1]", cfg.explore_epsilon),
        });
    }
    if !cfg.entropy_beta.is_finite() || cfg.entropy_beta < 0.0 {
        return Err(ValidateError::BadConfig {
            field: "entropy_beta",
            detail: format!("entropy coefficient {} must be >= 0 and finite", cfg.entropy_beta),
        });
    }
    if cfg.rollout_batch == 0 {
        return Err(ValidateError::BadConfig {
            field: "rollout_batch",
            detail: "must be at least 1".to_string(),
        });
    }
    Ok(())
}

/// Checks a compression plan against a model: length must match and every
/// action must be applicable at its layer when the plan is applied as one
/// transaction (right-to-left, mirroring [`CompressionPlan::apply`]) —
/// this is where SVD rank bounds and prune-ratio feasibility are enforced,
/// via each technique's applicability predicate.
///
/// # Errors
///
/// [`ValidateError::PlanLengthMismatch`] or
/// [`ValidateError::InapplicableAction`].
pub fn compression_plan(spec: &ModelSpec, plan: &CompressionPlan) -> Result<(), ValidateError> {
    if plan.len() != spec.len() {
        return Err(ValidateError::PlanLengthMismatch {
            plan: plan.len(),
            layers: spec.len(),
        });
    }
    let mut probe = spec.clone();
    for idx in (0..plan.len()).rev() {
        if let Some(t) = plan.get(idx) {
            match t.apply(&probe, idx) {
                Ok(next) => probe = next,
                Err(e) => {
                    return Err(ValidateError::InapplicableAction {
                        technique: t.code().to_string(),
                        layer: idx,
                        detail: e.to_string(),
                    })
                }
            }
        }
    }
    Ok(())
}

/// Checks a deployment candidate against its base model: the partition
/// point must be legal and the recorded actions must form an applicable
/// plan over the edge part.
///
/// # Errors
///
/// Any of the model, cut or plan errors.
pub fn candidate(base: &ModelSpec, cand: &Candidate) -> Result<(), ValidateError> {
    model_spec(base)?;
    let edge_len = match cand.partition {
        Partition::AllEdge => base.len(),
        Partition::AllCloud => 0,
        Partition::AfterLayer(i) => {
            if i >= base.len() {
                return Err(ValidateError::CutOutOfRange {
                    cut: i,
                    layers: base.len(),
                });
            }
            i + 1
        }
    };
    if !cand.feature.is_identity() && edge_len == base.len() {
        return Err(ValidateError::FeatureWithoutTransfer {
            feature: cand.feature.code(),
        });
    }
    let mut plan = CompressionPlan::identity(base.len());
    for a in &cand.actions {
        if a.layer_index >= edge_len {
            return Err(ValidateError::ActionOutsideBlock {
                node: 0,
                layer: a.layer_index,
                start: 0,
                end: edge_len,
            });
        }
        plan.set(a.layer_index, Some(a.technique));
    }
    compression_plan(base, &plan)
}

/// Composite gate for Algorithm 1 (optimal branch search) and the Fig. 7
/// baselines: model, bandwidth and configuration.
///
/// # Errors
///
/// The first violated check, in model → bandwidth → config order.
pub fn branch_inputs(
    base: &ModelSpec,
    mbps: f64,
    cfg: &SearchConfig,
) -> Result<(), ValidateError> {
    model_spec(base)?;
    bandwidth(mbps)?;
    search_config(cfg)
}

/// Composite gate for Algorithm 3 (model tree search): model, bandwidth
/// levels, block count and configuration.
///
/// # Errors
///
/// The first violated check, in model → levels → blocks → config order.
pub fn tree_inputs(
    base: &ModelSpec,
    levels: &[f64],
    n_blocks: usize,
    cfg: &SearchConfig,
) -> Result<(), ValidateError> {
    model_spec(base)?;
    bandwidth_levels(levels)?;
    block_count(base, n_blocks)?;
    search_config(cfg)
}

/// Full structural audit of a model tree (§VI-A invariants): run before
/// online composition and on every tree loaded from disk.
///
/// Checks, in order: the base model, the bandwidth levels, the block
/// count, then per node — parent/child link sanity, fork counts
/// (`0` or exactly `K`), partitioned-nodes-are-leaves, level progression,
/// partition and action containment in the node's block, finite rewards,
/// branch completeness — and finally that every root→leaf branch composes
/// a deployment with the base model's output shape.
///
/// # Errors
///
/// The first violated invariant.
pub fn model_tree(tree: &ModelTree) -> Result<(), ValidateError> {
    model_spec(tree.base())?;
    bandwidth_levels(tree.levels())?;
    block_count(tree.base(), tree.n_blocks())?;
    let nodes = tree.nodes();
    if nodes.is_empty() {
        return Err(ValidateError::EmptyTree);
    }
    let k = tree.k();
    let n_blocks = tree.n_blocks();
    // Parent map: each non-root node must be referenced exactly once.
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        if !node.children.is_empty() && node.children.len() != k {
            return Err(ValidateError::WrongForkCount {
                node: id,
                children: node.children.len(),
                k,
            });
        }
        if node.partition_abs.is_some() && !node.children.is_empty() {
            return Err(ValidateError::PartitionedNodeHasChildren { node: id });
        }
        for &c in &node.children {
            if c >= nodes.len() {
                return Err(ValidateError::BadChildLink {
                    node: id,
                    child: c,
                    detail: format!("child id out of range (tree has {} nodes)", nodes.len()),
                });
            }
            if c <= id {
                return Err(ValidateError::BadChildLink {
                    node: id,
                    child: c,
                    detail: "children must be inserted after their parent".to_string(),
                });
            }
            if parent[c].is_some() {
                return Err(ValidateError::BadChildLink {
                    node: id,
                    child: c,
                    detail: "node has multiple parents".to_string(),
                });
            }
            parent[c] = Some(id);
        }
    }
    for (id, node) in nodes.iter().enumerate() {
        let expected = match parent[id] {
            None => 0,
            Some(p) => nodes[p].level + 1,
        };
        if node.level != expected || node.level >= n_blocks {
            return Err(ValidateError::BadNodeLevel {
                node: id,
                level: node.level,
                expected,
            });
        }
        let range = tree.block_range(node.level);
        if let Some(abs) = node.partition_abs {
            if abs < range.start || abs > range.end {
                return Err(ValidateError::PartitionOutsideBlock {
                    node: id,
                    abs,
                    start: range.start,
                    end: range.end,
                });
            }
        }
        let action_end = node.partition_abs.unwrap_or(range.end);
        for a in &node.actions {
            if a.layer_index < range.start || a.layer_index >= action_end {
                return Err(ValidateError::ActionOutsideBlock {
                    node: id,
                    layer: a.layer_index,
                    start: range.start,
                    end: action_end,
                });
            }
        }
        if !node.reward.is_finite() {
            return Err(ValidateError::NonFiniteReward {
                node: id,
                value: node.reward,
            });
        }
        // The feature knob compresses the cut tensor, so only the node
        // that owns a transfer-bearing cut may carry a non-identity one.
        if !node.feature.is_identity()
            && node.partition_abs.is_none_or(|abs| abs >= tree.base().len())
        {
            return Err(ValidateError::FeatureOnUnpartitionedNode {
                node: id,
                feature: node.feature.code(),
            });
        }
        if node.children.is_empty()
            && node.partition_abs.is_none()
            && node.level + 1 < n_blocks
        {
            return Err(ValidateError::IncompleteTree {
                node: id,
                level: node.level,
                n_blocks,
            });
        }
    }
    // Every branch must compose a deployment preserving the base output.
    let expected_out = tree.base().output_shape();
    for (i, path) in tree.branches().iter().enumerate() {
        let cand = tree.compose_path(path);
        if cand.model.output_shape() != expected_out {
            return Err(ValidateError::BranchComposeMismatch {
                branch: i,
                detail: format!(
                    "composed output {} != base output {expected_out}",
                    cand.model.output_shape()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeNode;
    use cadmc_compress::Technique;
    use cadmc_nn::zoo;

    #[test]
    fn zoo_models_validate() {
        for m in [
            zoo::tiny_cnn(),
            zoo::vgg11_cifar(),
            zoo::alexnet_cifar(),
            zoo::mobilenet_cifar(),
            zoo::squeezenet_cifar(),
        ] {
            model_spec(&m).unwrap();
        }
    }

    #[test]
    fn levels_must_ascend() {
        bandwidth_levels(&[2.0, 10.0]).unwrap();
        assert!(matches!(
            bandwidth_levels(&[]),
            Err(ValidateError::NoBandwidthLevels)
        ));
        assert!(matches!(
            bandwidth_levels(&[10.0, 2.0]),
            Err(ValidateError::UnsortedBandwidthLevels { index: 1, .. })
        ));
        assert!(matches!(
            bandwidth_levels(&[2.0, 2.0]),
            Err(ValidateError::UnsortedBandwidthLevels { .. })
        ));
        assert!(matches!(
            bandwidth_levels(&[0.0, 2.0]),
            Err(ValidateError::BadBandwidthLevel { index: 0, .. })
        ));
        assert!(matches!(
            bandwidth_levels(&[2.0, f64::NAN]),
            Err(ValidateError::BadBandwidthLevel { index: 1, .. })
        ));
    }

    #[test]
    fn block_count_bounds() {
        let m = zoo::tiny_cnn();
        block_count(&m, 1).unwrap();
        block_count(&m, m.len()).unwrap();
        assert!(matches!(
            block_count(&m, 0),
            Err(ValidateError::BadBlockCount { .. })
        ));
        assert!(matches!(
            block_count(&m, m.len() + 1),
            Err(ValidateError::BadBlockCount { .. })
        ));
    }

    #[test]
    fn config_bounds() {
        search_config(&SearchConfig::default()).unwrap();
        let bad = SearchConfig {
            episodes: 0,
            ..SearchConfig::default()
        };
        assert!(matches!(
            search_config(&bad),
            Err(ValidateError::BadConfig { field: "episodes", .. })
        ));
        let bad = SearchConfig {
            lr: -1.0,
            ..SearchConfig::default()
        };
        assert!(matches!(
            search_config(&bad),
            Err(ValidateError::BadConfig { field: "lr", .. })
        ));
        let bad = SearchConfig {
            explore_epsilon: 1.5,
            ..SearchConfig::default()
        };
        assert!(matches!(
            search_config(&bad),
            Err(ValidateError::BadConfig { field: "explore_epsilon", .. })
        ));
    }

    #[test]
    fn plan_applicability_is_checked() {
        let base = zoo::vgg11_cifar();
        let ok = CompressionPlan::identity(base.len());
        compression_plan(&base, &ok).unwrap();
        let mut bad = CompressionPlan::identity(base.len());
        bad.set(1, Some(Technique::C1MobileNet)); // layer 1 is a pool
        assert!(matches!(
            compression_plan(&base, &bad),
            Err(ValidateError::InapplicableAction { layer: 1, .. })
        ));
        let short = CompressionPlan::identity(base.len() - 1);
        assert!(matches!(
            compression_plan(&base, &short),
            Err(ValidateError::PlanLengthMismatch { .. })
        ));
    }

    #[test]
    fn candidate_cut_bounds() {
        let base = zoo::tiny_cnn();
        candidate(&base, &Candidate::base_all_edge(&base)).unwrap();
        let mut c = Candidate::base_all_edge(&base);
        c.partition = Partition::AfterLayer(base.len());
        assert!(matches!(
            candidate(&base, &c),
            Err(ValidateError::CutOutOfRange { .. })
        ));
    }

    fn valid_tree() -> ModelTree {
        let base = zoo::vgg11_cifar();
        let mut tree = ModelTree::new(base, 2, vec![2.0, 10.0]);
        let root = tree.push_node(
            None,
            TreeNode {
                level: 0,
                partition_abs: None,
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 1.0,
            },
        );
        for _ in 0..2 {
            tree.push_node(
                Some(root),
                TreeNode {
                    level: 1,
                    partition_abs: None,
                    actions: vec![],
                    feature: cadmc_compress::FeatureAction::IDENTITY,
                    children: vec![],
                    reward: 1.0,
                },
            );
        }
        tree
    }

    #[test]
    fn valid_tree_passes() {
        model_tree(&valid_tree()).unwrap();
    }

    #[test]
    fn empty_tree_is_rejected() {
        let tree = ModelTree::new(zoo::vgg11_cifar(), 2, vec![2.0, 10.0]);
        assert_eq!(model_tree(&tree), Err(ValidateError::EmptyTree));
    }

    #[test]
    fn wrong_fork_count_is_rejected() {
        let base = zoo::vgg11_cifar();
        let mut tree = ModelTree::new(base, 2, vec![2.0, 10.0]);
        let root = tree.push_node(
            None,
            TreeNode {
                level: 0,
                partition_abs: None,
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 0.0,
            },
        );
        tree.push_node(
            Some(root),
            TreeNode {
                level: 1,
                partition_abs: None,
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 0.0,
            },
        );
        // Only one child where K = 2.
        assert!(matches!(
            model_tree(&tree),
            Err(ValidateError::WrongForkCount { node: 0, children: 1, k: 2 })
        ));
    }

    #[test]
    fn non_finite_reward_is_rejected() {
        let mut tree = valid_tree();
        tree.node_mut(1).reward = f64::NAN;
        assert!(matches!(
            model_tree(&tree),
            Err(ValidateError::NonFiniteReward { node: 1, .. })
        ));
    }

    #[test]
    fn bad_level_is_rejected() {
        let mut tree = valid_tree();
        tree.node_mut(2).level = 0;
        assert!(matches!(
            model_tree(&tree),
            Err(ValidateError::BadNodeLevel { node: 2, .. })
        ));
    }

    #[test]
    fn action_outside_block_is_rejected() {
        let mut tree = valid_tree();
        let last = tree.base().len() - 1;
        tree.node_mut(0).actions.push(cadmc_accuracy::AppliedAction {
            layer_index: last,
            technique: Technique::F1Svd,
        });
        assert!(matches!(
            model_tree(&tree),
            Err(ValidateError::ActionOutsideBlock { node: 0, .. })
        ));
    }

    #[test]
    fn feature_without_transfer_is_rejected() {
        use cadmc_compress::{BottleneckKnob, FeatureAction, QuantKnob};
        let base = zoo::tiny_cnn();
        let feat = FeatureAction {
            bottleneck: BottleneckKnob::Half,
            quant: QuantKnob::Int8,
        };
        // `with_feature` normalizes all-edge to identity, so forge the
        // illegal state directly — exactly what a corrupted artifact would
        // deserialize into.
        let mut c = Candidate::base_all_edge(&base);
        c.feature = feat;
        assert!(matches!(
            candidate(&base, &c),
            Err(ValidateError::FeatureWithoutTransfer { .. })
        ));
        // The same action on a transfer-bearing cut is legal.
        let cut = Candidate::compose(
            &base,
            Partition::AfterLayer(0),
            &CompressionPlan::identity(base.len()),
        )
        .unwrap()
        .with_feature(feat);
        candidate(&base, &cut).unwrap();
    }

    #[test]
    fn feature_on_unpartitioned_node_is_rejected() {
        use cadmc_compress::{BottleneckKnob, FeatureAction, QuantKnob};
        let mut tree = valid_tree();
        tree.node_mut(1).feature = FeatureAction {
            bottleneck: BottleneckKnob::Quarter,
            quant: QuantKnob::Int4,
        };
        assert!(matches!(
            model_tree(&tree),
            Err(ValidateError::FeatureOnUnpartitionedNode { node: 1, .. })
        ));
    }

    #[test]
    fn diagnostics_are_actionable() {
        let msg = ValidateError::BadBlockCount { n_blocks: 9, layers: 4 }.to_string();
        assert!(msg.contains("1..=4"), "{msg}");
        let msg = ValidateError::UnsortedBandwidthLevels {
            index: 1,
            prev: 10.0,
            next: 2.0,
        }
        .to_string();
        assert!(msg.contains("strictly ascending"), "{msg}");
    }
}
