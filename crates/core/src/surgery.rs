//! The **dynamic DNN surgery** baseline (Hu et al., INFOCOM'19) — the
//! paper's primary comparison method.
//!
//! Surgery finds the latency-optimal partition of the *fixed* DNN for a
//! *given constant* bandwidth by solving a minimum s-t cut on a placement
//! graph. It neither compresses the model nor revisits its decision while
//! the network fluctuates — the two restrictions the paper's decision
//! engine removes.

use cadmc_latency::Mbps;
use cadmc_nn::graph::ModelDag;
use cadmc_nn::ModelSpec;

use crate::candidate::{Candidate, Partition};
use crate::env::EvalEnv;
use crate::mincut::FlowNetwork;
use crate::reward::Evaluation;

/// Result of planning a surgery deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeryResult {
    /// The chosen (uncompressed) deployment.
    pub candidate: Candidate,
    /// Its evaluation at the planning bandwidth.
    pub evaluation: Evaluation,
}

/// Enumerates all partition options of a chain model: all-cloud, every
/// interior cut, and all-edge.
pub fn partition_options(base: &ModelSpec) -> Vec<Partition> {
    let mut opts = vec![Partition::AllCloud];
    opts.extend((0..base.len() - 1).map(Partition::AfterLayer));
    opts.push(Partition::AllEdge);
    opts
}

/// Optimal partition by exhaustive scan over chain cuts (ground truth for
/// chain models). Each cut is costed in O(1) straight from the base's
/// prefix-sum tables — no candidate is composed — so the whole scan is
/// O(L) and bit-identical to evaluating composed identity candidates.
pub fn optimal_partition_scan(base: &ModelSpec, env: &EvalEnv, bandwidth: Mbps) -> Partition {
    let len = base.len();
    let latency_at = |edge_len: usize| -> f64 {
        let bytes = if edge_len == len {
            0
        } else if edge_len == 0 {
            base.input_bytes()
        } else {
            base.cut_bytes_after(edge_len - 1)
        };
        env.edge.range_latency_ms(base, 0, edge_len)
            + env.transfer.latency_ms(bytes, bandwidth)
            + env.cloud.range_latency_ms(base, edge_len, len)
    };
    partition_options(base)
        .into_iter()
        .min_by(|&a, &b| latency_at(a.edge_len(len)).total_cmp(&latency_at(b.edge_len(len))))
        .expect("at least one partition option")
}

/// Optimal partition via the min-cut formulation on the placement graph
/// (the published algorithm; equivalent to the scan for chains).
///
/// Graph construction: node per layer plus source `s` (edge device) and
/// sink `t` (cloud). Assigning layer `i` to the edge cuts `vᵢ → t`
/// (capacity = edge compute cost); assigning it to the cloud cuts
/// `s → vᵢ` (capacity = cloud compute cost). Crossing the boundary on the
/// data edge `i → i+1` cuts `vᵢ → vᵢ₊₁` (capacity = feature transfer
/// latency); a backward data edge with the same cost discourages
/// cloud→edge returns. Shipping the raw input to the cloud cuts `s → v₀`'s
/// extra input-transfer capacity.
pub fn optimal_partition_mincut(base: &ModelSpec, env: &EvalEnv, bandwidth: Mbps) -> Partition {
    let l = base.len();
    let s = l;
    let t = l + 1;
    let mut g = FlowNetwork::new(l + 2);
    for i in 0..l {
        let layer = &base.layers()[i];
        let input = base.layer_input(i);
        let edge_cost = env.edge.layer_latency_ms(layer, input);
        let cloud_cost = env.cloud.layer_latency_ms(layer, input);
        g.add_edge(i, t, edge_cost);
        let mut to_cloud_cap = cloud_cost;
        if i == 0 {
            // Raw-input transfer if even the first layer is on the cloud.
            to_cloud_cap += env.transfer.latency_ms(base.input_bytes(), bandwidth);
        }
        g.add_edge(s, i, to_cloud_cap);
        if i + 1 < l {
            let tt = env.transfer.latency_ms(base.cut_bytes_after(i), bandwidth);
            g.add_edge(i, i + 1, tt);
            g.add_edge(i + 1, i, tt);
        }
    }
    let _ = g.max_flow(s, t);
    let side = g.source_side(s);
    // side[i] == true  => layer i on the edge (source side).
    let first_cloud = (0..l).find(|&i| !side[i]);
    match first_cloud {
        None => Partition::AllEdge,
        Some(0) => Partition::AllCloud,
        Some(i) => Partition::AfterLayer(i - 1),
    }
}

/// A per-node edge/cloud assignment over a model's dataflow DAG, with its
/// estimated end-to-end cost — the full generality of the published
/// dynamic-DNN-surgery formulation (which handles skip connections and
/// multi-path modules, not just chains).
#[derive(Debug, Clone, PartialEq)]
pub struct DagAssignment {
    /// `true` = the node runs on the edge device.
    pub on_edge: Vec<bool>,
    /// The min-cut objective value (ms): compute cost of every node on its
    /// side plus transfer cost of every crossing dataflow edge.
    pub cost_ms: f64,
}

impl DagAssignment {
    /// Number of nodes assigned to the edge.
    pub fn edge_count(&self) -> usize {
        self.on_edge.iter().filter(|&&e| e).count()
    }
}

/// Solves the general DAG placement: which primitive dataflow nodes run on
/// the edge and which on the cloud, minimizing compute + transfer cost at
/// `bandwidth`. Works for arbitrary DAGs (ResNets, Fire modules), where
/// the chain scan does not apply.
pub fn optimal_assignment_dag(dag: &ModelDag, env: &EvalEnv, bandwidth: Mbps) -> DagAssignment {
    let n = dag.len();
    let s = n;
    let t = n + 1;
    let mut g = FlowNetwork::new(n + 2);
    // Node costs: assigning node i to the edge cuts i -> t (edge compute);
    // assigning it to the cloud cuts s -> i (cloud compute).
    for (i, node) in dag.nodes().iter().enumerate() {
        // Reconstruct the node's input shape from its first predecessor
        // (or the network input); joins carry zero MACCs so the exact
        // shape only matters for layer nodes.
        let input = node
            .preds
            .first()
            .map(|&p| dag.nodes()[p].output)
            .unwrap_or_else(|| dag.input());
        let (edge_cost, cloud_cost) = match &node.op {
            cadmc_nn::graph::DagOp::Layer(l) => (
                env.edge.layer_latency_ms(l, input),
                env.cloud.layer_latency_ms(l, input),
            ),
            _ => (0.0, 0.0),
        };
        g.add_edge(i, t, edge_cost);
        g.add_edge(s, i, cloud_cost);
    }
    // Dataflow edges: crossing edge->cloud pays the producer's feature
    // transfer; a cloud->edge return pays the same (discouraging
    // ping-ponging); the input lives on the edge (s side).
    for (from, to, bytes) in dag.edges() {
        let tt = env.transfer.latency_ms(bytes, bandwidth);
        match from {
            Some(f) => {
                g.add_edge(f, to, tt);
                g.add_edge(to, f, tt);
            }
            None => {
                // Consuming the raw input on the cloud pays its upload.
                // Modeled by capacity on s -> node (cut when node is on
                // the cloud side). Parallel edges accumulate.
                g.add_edge(s, to, tt);
            }
        }
    }
    let cost_ms = g.max_flow(s, t);
    let side = g.source_side(s);
    DagAssignment {
        on_edge: side[..n].to_vec(),
        cost_ms,
    }
}

/// Plans a surgery deployment at `bandwidth` (min-cut partition, no
/// compression) and evaluates it.
pub fn plan(base: &ModelSpec, env: &EvalEnv, bandwidth: Mbps) -> SurgeryResult {
    let partition = optimal_partition_mincut(base, env, bandwidth);
    let plan = cadmc_compress::CompressionPlan::identity(base.len());
    let candidate = Candidate::compose(base, partition, &plan).expect("identity plan composes");
    let evaluation = env.evaluate(base, &candidate, bandwidth);
    SurgeryResult {
        candidate,
        evaluation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn mincut_matches_exhaustive_scan_across_bandwidths() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let plan_id = cadmc_compress::CompressionPlan::identity(base.len());
        for bw in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 200.0] {
            let scan = optimal_partition_scan(&base, &env, Mbps(bw));
            let cut = optimal_partition_mincut(&base, &env, Mbps(bw));
            let l_scan = env.latency_ms(
                &Candidate::compose(&base, scan, &plan_id).unwrap(),
                Mbps(bw),
            );
            let l_cut =
                env.latency_ms(&Candidate::compose(&base, cut, &plan_id).unwrap(), Mbps(bw));
            assert!(
                (l_scan - l_cut).abs() < 1e-6,
                "bw {bw}: scan {scan} ({l_scan:.3} ms) vs mincut {cut} ({l_cut:.3} ms)"
            );
        }
    }

    #[test]
    fn poor_bandwidth_keeps_model_on_edge() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let p = optimal_partition_mincut(&base, &env, Mbps(0.2));
        assert_eq!(p, Partition::AllEdge);
    }

    #[test]
    fn extreme_bandwidth_offloads_everything() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let p = optimal_partition_mincut(&base, &env, Mbps(5000.0));
        assert_eq!(p, Partition::AllCloud);
    }

    #[test]
    fn cut_moves_cloudward_as_bandwidth_rises() {
        // On CIFAR-scale models the raw input is smaller than most
        // intermediate features, so the optimal static cut flips from
        // all-edge (poor bandwidth) to all-cloud (good bandwidth); the
        // transition must be monotone in the amount of edge compute.
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let edge_layers = |p: Partition| -> usize {
            match p {
                Partition::AllCloud => 0,
                Partition::AfterLayer(i) => i + 1,
                Partition::AllEdge => base.len(),
            }
        };
        let mut prev = usize::MAX;
        for bw in [0.5, 2.0, 5.0, 10.0, 25.0, 100.0] {
            let cur = edge_layers(optimal_partition_mincut(&base, &env, Mbps(bw)));
            assert!(cur <= prev, "edge share grew with bandwidth at {bw} Mbps");
            prev = cur;
        }
        assert_eq!(prev, 0, "at 100 Mbps everything should offload");
    }

    #[test]
    fn dag_assignment_matches_chain_scan_on_chains() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        for bw in [0.5, 5.0, 20.0, 200.0] {
            let dag = ModelDag::from_spec(&base);
            let assign = optimal_assignment_dag(&dag, &env, Mbps(bw));
            // Chain-scan optimal latency (excluding the constant parts the
            // DAG objective shares) must match the min-cut objective.
            let scan = optimal_partition_scan(&base, &env, Mbps(bw));
            let plan_id = cadmc_compress::CompressionPlan::identity(base.len());
            let scan_cost = env.latency_ms(
                &Candidate::compose(&base, scan, &plan_id).unwrap(),
                Mbps(bw),
            );
            assert!(
                (assign.cost_ms - scan_cost).abs() < 1e-6,
                "bw {bw}: dag cost {:.3} vs chain scan {:.3}",
                assign.cost_ms,
                scan_cost
            );
        }
    }

    #[test]
    fn dag_assignment_handles_skip_connections() {
        // A ResNet-style model is a genuine DAG; the assignment must be
        // valid (finite cost, all nodes placed) and respect the extremes.
        let base = zoo::resnet_imagenet(zoo::ResNetDepth::D50);
        let env = EvalEnv::phone();
        let dag = ModelDag::from_spec(&base);
        let poor = optimal_assignment_dag(&dag, &env, Mbps(0.05));
        assert_eq!(poor.edge_count(), dag.len(), "poor bandwidth: all edge");
        let rich = optimal_assignment_dag(&dag, &env, Mbps(100_000.0));
        assert_eq!(rich.edge_count(), 0, "infinite bandwidth: all cloud");
        let mid = optimal_assignment_dag(&dag, &env, Mbps(10.0));
        assert!(mid.cost_ms.is_finite() && mid.cost_ms > 0.0);
        // Cost is monotone in bandwidth: poor >= mid >= rich.
        assert!(mid.cost_ms <= poor.cost_ms + 1e-6);
        assert!(mid.cost_ms >= rich.cost_ms - 1e-6);
    }

    #[test]
    fn surgery_never_compresses() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let r = plan(&base, &env, Mbps(10.0));
        assert!(!r.candidate.is_compressed());
        assert_eq!(r.evaluation.accuracy, 0.9201);
    }

    #[test]
    fn surgery_latency_beats_all_edge_at_good_bandwidth() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let r = plan(&base, &env, Mbps(50.0));
        let edge_only = env.latency_ms(&Candidate::base_all_edge(&base), Mbps(50.0));
        assert!(r.evaluation.latency_ms <= edge_only + 1e-9);
    }
}
