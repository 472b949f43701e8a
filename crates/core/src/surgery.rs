//! The **dynamic DNN surgery** baseline (Hu et al., INFOCOM'19) — the
//! paper's primary comparison method.
//!
//! Surgery finds the latency-optimal partition of the *fixed* DNN for a
//! *given constant* bandwidth. The published algorithm solves a minimum
//! s-t cut on a placement graph; every model searched here is a chain, so
//! that cut is exactly the best single cut point, found by an O(L) scan.
//! Surgery neither compresses the model nor revisits its decision while
//! the network fluctuates — the two restrictions the paper's decision
//! engine removes.

use cadmc_latency::Mbps;
use cadmc_nn::ModelSpec;

use crate::candidate::{Candidate, Partition};
use crate::env::EvalEnv;
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

/// Optimal partition by exhaustive scan over chain cuts. Each cut is
/// costed in O(1) straight from the base's prefix-sum tables — no
/// candidate is composed — so the whole scan is O(L) and bit-identical to
/// evaluating composed identity candidates.
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

/// Plans a surgery deployment at `bandwidth` (optimal cut, no
/// compression) and evaluates it.
pub fn plan(base: &ModelSpec, env: &EvalEnv, bandwidth: Mbps) -> SurgeryResult {
    let partition = optimal_partition_scan(base, env, bandwidth);
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
    fn poor_bandwidth_keeps_model_on_edge() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let p = optimal_partition_scan(&base, &env, Mbps(0.2));
        assert_eq!(p, Partition::AllEdge);
    }

    #[test]
    fn extreme_bandwidth_offloads_everything() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let p = optimal_partition_scan(&base, &env, Mbps(5000.0));
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
            let cur = edge_layers(optimal_partition_scan(&base, &env, Mbps(bw)));
            assert!(cur <= prev, "edge share grew with bandwidth at {bw} Mbps");
            prev = cur;
        }
        assert_eq!(prev, 0, "at 100 Mbps everything should offload");
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
