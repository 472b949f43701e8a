//! Fig. 8 — a concrete illustration of the three strategies' search
//! results under one context ("4G indoor static" in the paper): the
//! surgery partition, the optimal-branch transformation, and every branch
//! of the model tree, each with its reward.

use cadmc_latency::Mbps;

use crate::executor::{execute, ExecConfig, Policy};

use super::TrainedScene;

/// The Fig. 8 panel data. Each strategy carries two rewards: the
/// *planned* reward at the context's median bandwidth (the static view the
/// paper's figure annotates) and the *executed* reward over the held-out
/// trace — the pair exposes exactly why a statically-worse deployment can
/// be the right choice under fluctuation.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyIllustration {
    /// Scenario name.
    pub scenario: String,
    /// Surgery deployment: summary, planned reward, executed reward.
    pub surgery: (String, f64, f64),
    /// Optimal-branch deployment: summary, planned reward, executed reward.
    pub branch: (String, f64, f64),
    /// Every tree branch: summary and planned reward (the tree executes as
    /// a whole, so only one executed number applies).
    pub tree_branches: Vec<(String, f64)>,
    /// Executed reward of the whole tree (Alg. 2 over the held-out trace).
    pub tree_executed: f64,
    /// The K bandwidth levels of the context.
    pub levels: Vec<f64>,
}

impl StrategyIllustration {
    /// The best tree-branch planned reward.
    pub fn best_tree_reward(&self) -> f64 {
        self.tree_branches
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Builds the illustration from one trained scene; `seed` drives the
/// executed runs over the scene's held-out trace.
pub fn strategy_illustration(scene: &TrainedScene, seed: u64) -> StrategyIllustration {
    let base = &scene.workload.model;
    let tree = &scene.tree.tree;
    // Every displayed deployment is scored at the context median, so the
    // panel's rewards are directly comparable (like the paper's Fig. 8,
    // which annotates one context).
    let median = Mbps(scene.ctx.median_bandwidth());
    let score = |c: &crate::candidate::Candidate| scene.env.evaluate(base, c, median).reward;
    let exec_cfg = ExecConfig::emulation(120, seed);
    let executed = |policy: Policy<'_>| {
        execute(&scene.env, base, &policy, &scene.test_trace, &exec_cfg)
            .evaluation(&scene.env.reward)
            .reward
    };
    let tree_branches: Vec<(String, f64)> = tree
        .branches()
        .into_iter()
        .map(|path| {
            let cand = tree.compose_path(&path);
            let reward = score(&cand);
            (cand.summary(), reward)
        })
        .collect();
    StrategyIllustration {
        scenario: scene.workload.scenario.name().to_string(),
        surgery: (
            scene.surgery.candidate.summary(),
            scene.surgery.evaluation.reward,
            executed(Policy::Static(&scene.surgery.candidate)),
        ),
        branch: (
            scene.branch.summary(),
            score(&scene.branch),
            executed(Policy::Static(&scene.branch)),
        ),
        tree_executed: executed(Policy::Tree(tree)),
        tree_branches,
        levels: scene.ctx.levels().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{train_scene, Workload};
    use crate::search::SearchConfig;
    use cadmc_latency::Platform;
    use cadmc_netsim::Scenario;
    use cadmc_nn::zoo;

    #[test]
    fn illustration_reproduces_fig8_ordering() {
        let cfg = SearchConfig {
            episodes: 40,
            ..SearchConfig::quick(1)
        };
        let w = Workload {
            model: zoo::vgg11_cifar(),
            device: Platform::Phone,
            scenario: Scenario::FourGIndoorStatic,
        };
        let scene = train_scene(&w, &cfg, 1).expect("valid inputs");
        let ill = strategy_illustration(&scene, 1);
        // Fig. 8's qualitative content: under execution, the tree is at
        // least competitive with both static strategies, and the panel
        // carries planned + executed numbers for each.
        assert!(ill.tree_executed >= ill.branch.2 - 3.0);
        assert!(ill.tree_executed >= ill.surgery.2 - 3.0);
        assert!(!ill.tree_branches.is_empty());
        assert_eq!(ill.levels.len(), 2);
        assert!(ill.best_tree_reward().is_finite());
    }
}
