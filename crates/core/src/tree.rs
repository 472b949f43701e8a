//! The **context-aware model tree** (§VI-A, Fig. 3) and online composition
//! (**Algorithm 2**).
//!
//! A model tree for an `N`-block base DNN under `K` bandwidth types is a
//! depth-`N` tree: each node holds a transformed version of its level's
//! block (compressed, possibly partitioned to the cloud mid-block), and a
//! non-partitioned interior node has `K` children — one per bandwidth
//! type. At inference time the engine walks the tree, measuring bandwidth
//! before each block and descending into the matching fork; the visited
//! path composes a complete DNN (each root→leaf branch is a valid model).

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cadmc_accuracy::AppliedAction;
use cadmc_compress::{CompressionPlan, FeatureAction};
use cadmc_nn::ModelSpec;
use cadmc_telemetry as telemetry;

use crate::candidate::{Candidate, Partition};

/// How a parent's reward is estimated from its children during the
/// backward pass: the paper averages (`Mean`); `Max` is an ablation that
/// credits a shared block with its best descendant instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackwardRule {
    /// Parent reward += child reward / K (the paper's rule).
    Mean,
    /// Parent reward = max(children rewards).
    Max,
}

/// One node of a model tree: the transformation chosen for one block under
/// one bandwidth-type history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Tree level = block index (0-based).
    pub level: usize,
    /// Absolute base-layer index this node's block partition cuts before,
    /// if the block's action included a partition. Everything from this
    /// layer on runs on the cloud, uncompressed.
    pub partition_abs: Option<usize>,
    /// Compression actions taken in this block (absolute base indices).
    pub actions: Vec<AppliedAction>,
    /// Feature compression applied to the cut tensor when this node
    /// partitions. Identity (and only legally identity) on
    /// non-partitioned nodes — validated by [`crate::validate::model_tree`].
    pub feature: FeatureAction,
    /// Children node ids, one per bandwidth type (empty for leaves and
    /// partitioned nodes).
    pub children: Vec<usize>,
    /// Backward-estimated reward (Alg. 3's `R_i`).
    pub reward: f64,
}

/// A context-aware model tree over a base DNN. The base spec is held
/// behind an [`Arc`]: tree construction per search episode then costs one
/// reference-count bump instead of a deep model clone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelTree {
    base: Arc<ModelSpec>,
    block_ranges: Vec<Range<usize>>,
    levels: Vec<f64>,
    nodes: Vec<TreeNode>,
}

impl ModelTree {
    /// Creates an empty tree skeleton for `base` split into
    /// `bandwidth_levels.len()`-forked blocks. Accepts an owned spec or a
    /// pre-shared `Arc<ModelSpec>` (the episode hot path passes the
    /// latter).
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero or exceeds the layer count, or if no
    /// bandwidth levels are given.
    pub fn new(
        base: impl Into<Arc<ModelSpec>>,
        n_blocks: usize,
        bandwidth_levels: Vec<f64>,
    ) -> Self {
        assert!(
            !bandwidth_levels.is_empty(),
            "need at least one bandwidth level"
        );
        let base = base.into();
        let block_ranges = base.block_ranges(n_blocks);
        Self {
            base,
            block_ranges,
            levels: bandwidth_levels,
            nodes: Vec::new(),
        }
    }

    /// The base model.
    pub fn base(&self) -> &ModelSpec {
        &self.base
    }

    /// Number of blocks `N`.
    pub fn n_blocks(&self) -> usize {
        self.block_ranges.len()
    }

    /// Number of bandwidth types `K`.
    pub fn k(&self) -> usize {
        self.levels.len()
    }

    /// The bandwidth levels (ascending Mbps).
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Base-layer range of block `level`.
    pub fn block_range(&self, level: usize) -> Range<usize> {
        self.block_ranges[level].clone()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Mutable node access (used by the backward-estimation pass).
    pub fn node_mut(&mut self, id: usize) -> &mut TreeNode {
        &mut self.nodes[id]
    }

    /// The root node id, if the tree has been populated.
    pub fn root(&self) -> Option<usize> {
        if self.nodes.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// Appends a node and links it under `parent` (which must have been
    /// created with a `children` slot order matching fork indices —
    /// children are pushed in fork order).
    ///
    /// # Panics
    ///
    /// Panics if a non-root node is inserted before its parent, or the
    /// parent already has `K` children.
    pub fn push_node(&mut self, parent: Option<usize>, node: TreeNode) -> usize {
        let id = self.nodes.len();
        if let Some(p) = parent {
            assert!(p < id, "parent must exist before its children");
            assert!(
                self.nodes[p].children.len() < self.k(),
                "parent already has K children"
            );
            self.nodes[p].children.push(id);
        } else {
            assert!(self.nodes.is_empty(), "tree already has a root");
        }
        self.nodes.push(node);
        id
    }

    /// Matches a measured bandwidth to the nearest level index (Alg. 2
    /// line 5).
    pub fn match_level(&self, bandwidth: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &l) in self.levels.iter().enumerate() {
            let d = (bandwidth - l).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// **Algorithm 2**: composes a DNN by walking the tree, calling
    /// `measure` for the current bandwidth before descending each fork.
    /// Returns the visited node ids and the composed deployment.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or structurally incomplete (an interior
    /// node with a non-empty but non-`K` child list).
    pub fn compose(&self, mut measure: impl FnMut(usize) -> f64) -> (Vec<usize>, Candidate) {
        let mut id = self.root().expect("cannot compose from an empty tree");
        let mut path = vec![id];
        while self.nodes[id].partition_abs.is_none() && !self.nodes[id].children.is_empty() {
            assert_eq!(
                self.nodes[id].children.len(),
                self.k(),
                "interior node must have K children"
            );
            let bw = measure(self.nodes[id].level);
            let k = self.match_level(bw);
            telemetry::event!(
                "compose.fork",
                level = self.nodes[id].level,
                bandwidth = bw,
                child = k,
            );
            id = self.nodes[id].children[k];
            path.push(id);
        }
        let candidate = self.compose_path(&path);
        (path, candidate)
    }

    /// Composes the deployment candidate described by a root→node path.
    ///
    /// # Panics
    ///
    /// Panics if the path's recorded actions are inapplicable (cannot
    /// happen for paths built by the tree search).
    pub fn compose_path(&self, path: &[usize]) -> Candidate {
        let mut plan = CompressionPlan::identity(self.base.len());
        let mut cut: Option<usize> = None;
        let mut feature = FeatureAction::IDENTITY;
        for &id in path {
            let node = &self.nodes[id];
            for a in &node.actions {
                plan.set(a.layer_index, Some(a.technique));
            }
            if let Some(abs) = node.partition_abs {
                cut = Some(abs);
                // The cut node owns the handoff, so it owns the feature
                // compression of the tensor crossing it.
                feature = node.feature;
                break;
            }
        }
        let partition = Partition::from_cut_index(cut);
        if let Some(abs) = cut {
            // Compression never applies at or beyond the cut.
            for i in abs..self.base.len() {
                plan.set(i, None);
            }
        }
        // Search-built paths are conflict-free already; sanitizing keeps
        // composition total for hand-built or mutated trees (e.g. the
        // ε-greedy baseline) as well.
        let plan = plan.sanitized(&self.base);
        Candidate::compose(&self.base, partition, &plan)
            .expect("sanitized plans always compose")
            .with_feature(feature)
    }

    /// Degradation fallbacks for a failed Alg. 2 walk: alternative
    /// root→leaf paths obtained by re-forking `path` at each of its fork
    /// nodes to the **lowest-bandwidth child** (index 0, the
    /// edge-heaviest subtree) and descending child 0 from there on.
    /// Ordered deepest re-fork first, so the first entries preserve the
    /// most already-computed prefix work. Forks where `path` already took
    /// child 0 are skipped (re-forking would reproduce the failed path).
    ///
    /// # Panics
    ///
    /// Panics if `path` contains an out-of-range node id.
    pub fn fallback_paths(&self, path: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for (i, &id) in path.iter().enumerate().rev() {
            let node = &self.nodes[id];
            if node.partition_abs.is_some() || node.children.is_empty() {
                continue;
            }
            let low = node.children[0];
            if path.get(i + 1) == Some(&low) {
                continue;
            }
            let mut p = path[..=i].to_vec();
            let mut cur = low;
            p.push(cur);
            while self.nodes[cur].partition_abs.is_none() && !self.nodes[cur].children.is_empty() {
                cur = self.nodes[cur].children[0];
                p.push(cur);
            }
            out.push(p);
        }
        out
    }

    /// Materializes the edge-resident part of a node's block: the base
    /// layers from the block start up to the node's partition point (or
    /// the block end), with the node's compression actions applied.
    /// Returns `None` when nothing of the block runs on the edge (the
    /// node partitions at its first layer).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the node's recorded actions are
    /// inapplicable (cannot happen for search-built trees).
    pub fn node_edge_spec(&self, id: usize) -> Option<ModelSpec> {
        let node = &self.nodes[id];
        let range = self.block_range(node.level);
        let end = node.partition_abs.unwrap_or(range.end);
        if end <= range.start {
            return None;
        }
        let block = self
            .base
            .slice(range.start, end)
            .expect("valid block slice");
        let mut plan = CompressionPlan::identity(block.len());
        for a in &node.actions {
            debug_assert!((range.start..end).contains(&a.layer_index));
            plan.set(a.layer_index - range.start, Some(a.technique));
        }
        // Sanitize for consistency with `compose_path`: search-built trees
        // are conflict-free, hand-built or mutated ones stay total.
        let plan = plan.sanitized(&block);
        Some(plan.apply(&block).expect("sanitized plans always apply"))
    }

    /// Edge-side storage footprint of the whole tree (bytes): every
    /// node's transformed edge block must be kept on the device so Alg. 2
    /// can compose any branch at runtime. This is the storage price of
    /// context-awareness that the paper's multi-capacity-model comparison
    /// (NestDNN) alludes to; block sharing keeps it far below
    /// `branches × model size`.
    pub fn edge_storage_bytes(&self) -> u64 {
        (0..self.nodes.len())
            .filter_map(|id| self.node_edge_spec(id))
            .map(|spec| spec.param_bytes())
            .sum()
    }

    /// All root→leaf paths (branches) of the tree.
    pub fn branches(&self) -> Vec<Vec<usize>> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![vec![root]];
        while let Some(path) = stack.pop() {
            let id = *path.last().expect("paths are non-empty");
            let node = &self.nodes[id];
            if node.children.is_empty() || node.partition_abs.is_some() {
                out.push(path);
            } else {
                for &c in node.children.iter().rev() {
                    let mut next = path.clone();
                    next.push(c);
                    stack.push(next);
                }
            }
        }
        out
    }

    /// The branch with the highest leaf reward, with its candidate.
    pub fn best_branch(&self) -> Option<(Vec<usize>, Candidate)> {
        self.best_branch_path().map(|path| {
            let c = self.compose_path(&path);
            (path, c)
        })
    }

    /// The branch with the highest leaf reward (the last one on a tie),
    /// without composing it.
    pub fn best_branch_path(&self) -> Option<Vec<usize>> {
        self.branches().into_iter().max_by(|a, b| {
            let ra = self.nodes[*a.last().expect("non-empty")].reward;
            let rb = self.nodes[*b.last().expect("non-empty")].reward;
            ra.total_cmp(&rb)
        })
    }

    /// Mean reward over all branch leaves — the tree's expected quality
    /// under uniform bandwidth-type visits.
    pub fn mean_branch_reward(&self) -> f64 {
        let branches = self.branches();
        if branches.is_empty() {
            return 0.0;
        }
        let sum: f64 = branches
            .iter()
            .map(|p| self.nodes[*p.last().expect("non-empty")].reward)
            .sum();
        sum / branches.len() as f64
    }

    /// Backward estimation (Alg. 3 lines 27–31): each parent's reward
    /// accumulates `1/K` of every child's reward, processed in reverse
    /// BFS (= reverse insertion) order. This is the paper's averaging
    /// rule; see [`backward_estimate_with`] for the max-rule ablation.
    ///
    /// [`backward_estimate_with`]: ModelTree::backward_estimate_with
    pub fn backward_estimate(&mut self) {
        self.backward_estimate_with(BackwardRule::Mean);
    }

    /// Backward estimation with a selectable credit-assignment rule.
    pub fn backward_estimate_with(&mut self, rule: BackwardRule) {
        let k = self.k() as f64;
        for id in (0..self.nodes.len()).rev() {
            let r = self.nodes[id].reward;
            // Find the parent (children lists are small; a linear scan is
            // fine at N=3, K=2 scale).
            if let Some(parent) = self.nodes.iter().position(|n| n.children.contains(&id)) {
                match rule {
                    BackwardRule::Mean => self.nodes[parent].reward += r / k,
                    BackwardRule::Max => {
                        let p = &mut self.nodes[parent].reward;
                        *p = p.max(r);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_compress::Technique;
    use cadmc_nn::zoo;

    /// Hand-builds the Fig. 8-style tree: root A1, children (B1, B2);
    /// B1's children (C1, C2); B2 partitions to the cloud.
    fn example_tree() -> ModelTree {
        let base = zoo::vgg11_cifar();
        let mut tree = ModelTree::new(base.clone(), 3, vec![2.0, 10.0]);
        let r0 = tree.block_range(0);
        let root = tree.push_node(
            None,
            TreeNode {
                level: 0,
                partition_abs: None,
                actions: vec![AppliedAction {
                    layer_index: r0.start,
                    technique: Technique::W1FilterPrune,
                }],
                feature: FeatureAction::IDENTITY,
                children: Vec::new(),
                reward: 0.0,
            },
        );
        let b1 = tree.push_node(
            Some(root),
            TreeNode {
                level: 1,
                partition_abs: None,
                actions: vec![],
                feature: FeatureAction::IDENTITY,
                children: Vec::new(),
                reward: 0.0,
            },
        );
        let r1 = tree.block_range(1);
        let _b2 = tree.push_node(
            Some(root),
            TreeNode {
                level: 1,
                partition_abs: Some(r1.start),
                actions: vec![],
                feature: FeatureAction::IDENTITY,
                children: Vec::new(),
                reward: 340.0,
            },
        );
        let r2 = tree.block_range(2);
        let _c1 = tree.push_node(
            Some(b1),
            TreeNode {
                level: 2,
                partition_abs: Some(r2.start + 1),
                actions: vec![],
                // The cut node carries the feature compression of its
                // handoff tensor — exercised by compose/serde tests.
                feature: FeatureAction {
                    bottleneck: cadmc_compress::BottleneckKnob::Half,
                    quant: cadmc_compress::QuantKnob::Int8,
                },
                children: Vec::new(),
                reward: 350.0,
            },
        );
        let _c2 = tree.push_node(
            Some(b1),
            TreeNode {
                level: 2,
                partition_abs: None,
                actions: vec![AppliedAction {
                    layer_index: r2.start,
                    technique: Technique::C1MobileNet,
                }],
                feature: FeatureAction::IDENTITY,
                children: Vec::new(),
                reward: 345.0,
            },
        );
        tree
    }

    #[test]
    fn branches_enumerate_all_paths() {
        let tree = example_tree();
        let branches = tree.branches();
        assert_eq!(branches.len(), 3);
    }

    #[test]
    fn compose_follows_bandwidth() {
        let tree = example_tree();
        // Always-poor bandwidth: root -> B1 (fork 0) -> C1 (fork 0).
        let (path, cand) = tree.compose(|_| 1.0);
        assert_eq!(path.len(), 3);
        assert!(matches!(cand.partition, Partition::AfterLayer(_)));
        // Always-good: root -> B2 which partitions immediately.
        let (path2, cand2) = tree.compose(|_| 50.0);
        assert_eq!(path2.len(), 2);
        assert!(matches!(cand2.partition, Partition::AfterLayer(_)));
    }

    #[test]
    fn compose_path_carries_actions_up_to_cut() {
        let tree = example_tree();
        let (_, cand) = tree.compose(|_| 1.0);
        // Root's W1 action is before the cut, so it must be present.
        assert!(cand
            .actions
            .iter()
            .any(|a| a.technique == Technique::W1FilterPrune));
        // The poor-bandwidth walk lands on C1, whose cut carries a
        // half-bottleneck int8 feature action: the composed candidate
        // must ship 8× fewer bytes than the raw cut tensor (2× from the
        // bottleneck × 4× from int8, aligned shapes).
        assert_eq!(cand.feature.code(), "B2Q8");
        assert_eq!(cand.transfer_bytes() * 8, cand.raw_transfer_bytes());
        // The good-bandwidth walk lands on B2 (identity feature).
        let (_, cand2) = tree.compose(|_| 50.0);
        assert!(cand2.feature.is_identity());
        assert_eq!(cand2.transfer_bytes(), cand2.raw_transfer_bytes());
    }

    #[test]
    fn backward_estimation_averages_children() {
        let mut tree = example_tree();
        tree.backward_estimate();
        let nodes = tree.nodes();
        // b1 gets (350 + 345)/2 = 347.5; root gets (347.5 + 340)/2.
        assert!((nodes[1].reward - 347.5).abs() < 1e-9);
        assert!((nodes[0].reward - (347.5 + 340.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn best_branch_picks_highest_leaf() {
        let tree = example_tree();
        let (path, _) = tree.best_branch().expect("tree has branches");
        assert_eq!(tree.nodes()[*path.last().unwrap()].reward, 350.0);
    }

    #[test]
    fn match_level_boundaries() {
        let tree = example_tree();
        assert_eq!(tree.match_level(0.5), 0);
        assert_eq!(tree.match_level(100.0), 1);
    }

    #[test]
    fn storage_is_less_than_branches_times_model() {
        let tree = example_tree();
        let storage = tree.edge_storage_bytes();
        assert!(storage > 0);
        let naive = tree.branches().len() as u64 * tree.base().param_bytes();
        assert!(
            storage < naive,
            "block sharing should beat per-branch copies: {storage} vs {naive}"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let tree = example_tree();
        let json = serde_json::to_string(&tree).unwrap();
        let back: ModelTree = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
    }
}
