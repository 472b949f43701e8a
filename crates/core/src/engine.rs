//! The high-level decision engine façade (Fig. 2): offline training of a
//! context-aware model tree for a deployment target, and online
//! composition of the model to run per request.
//!
//! This wraps the lower-level pieces ([`crate::branch`],
//! [`crate::tree_search`], [`crate::tree`]) into the two-phase API the
//! paper describes: `train` offline, then `decide` / `compose` online.

use cadmc_latency::Mbps;
use cadmc_nn::ModelSpec;
use cadmc_telemetry as telemetry;

use crate::branch::optimal_branch;
use crate::candidate::Candidate;
use crate::context::NetworkContext;
use crate::env::EvalEnv;
use crate::memo::MemoPool;
use crate::reward::Evaluation;
use crate::search::{Controllers, SearchConfig};
use crate::surgery;
use crate::tree::ModelTree;
use crate::tree_search::tree_search;
use crate::validate::ValidateError;

/// A trained decision engine for one (base model, device, context) cell.
///
/// # Examples
///
/// ```
/// use cadmc_core::engine::DecisionEngine;
/// use cadmc_core::search::SearchConfig;
/// use cadmc_core::EvalEnv;
/// use cadmc_netsim::Scenario;
/// use cadmc_nn::zoo;
///
/// let cfg = SearchConfig { episodes: 15, ..SearchConfig::quick(1) };
/// let engine = DecisionEngine::train(
///     zoo::tiny_cnn(),
///     EvalEnv::phone(),
///     Scenario::WifiWeakIndoor,
///     &cfg,
///     1,
/// )
/// .expect("valid inputs");
/// // Online: compose the model for the currently measured bandwidth.
/// let (candidate, _path) = engine.decide(|_| 5.0);
/// assert_eq!(candidate.model.output_shape(), zoo::tiny_cnn().output_shape());
/// ```
#[derive(Debug)]
pub struct DecisionEngine {
    base: ModelSpec,
    env: EvalEnv,
    ctx: NetworkContext,
    tree: ModelTree,
    controllers: Controllers,
}

impl DecisionEngine {
    /// Runs the full offline phase (Fig. 2's upper half): characterizes
    /// the scenario, boosts with Alg. 1 branches, and searches the model
    /// tree with Alg. 3.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the model or configuration fails
    /// pre-search validation; nothing is trained in that case.
    pub fn train(
        base: ModelSpec,
        env: EvalEnv,
        scenario: cadmc_netsim::Scenario,
        cfg: &SearchConfig,
        seed: u64,
    ) -> Result<Self, ValidateError> {
        let _train_span = telemetry::span!("engine.train", episodes = cfg.episodes, seed = seed,);
        let ctx = NetworkContext::from_scenario(scenario, 2, seed);
        let memo = MemoPool::new();
        let mut controllers = Controllers::new(cfg);
        let result = tree_search(
            &mut controllers,
            &base,
            &env,
            ctx.levels(),
            3,
            cfg,
            &memo,
            true,
            Some(ctx.trace()),
        )?;
        memo.publish_telemetry();
        Ok(Self {
            base,
            env,
            ctx,
            tree: result.tree,
            controllers,
        })
    }

    /// The base model this engine deploys.
    pub fn base(&self) -> &ModelSpec {
        &self.base
    }

    /// The trained model tree.
    pub fn tree(&self) -> &ModelTree {
        &self.tree
    }

    /// The characterized network context.
    pub fn context(&self) -> &NetworkContext {
        &self.ctx
    }

    /// Online phase (Alg. 2): composes the model for the current network
    /// conditions; `measure` is called before each fork with the tree
    /// level and must return the current bandwidth estimate (Mbps).
    pub fn decide(&self, measure: impl FnMut(usize) -> f64) -> (Candidate, Vec<usize>) {
        let (path, candidate) = self.tree.compose(measure);
        (candidate, path)
    }

    /// Scores a candidate in this engine's environment at a bandwidth.
    pub fn evaluate(&self, candidate: &Candidate, bandwidth: Mbps) -> Evaluation {
        self.env.evaluate(&self.base, candidate, bandwidth)
    }

    /// Convenience: runs Alg. 1 for a single constant bandwidth with this
    /// engine's (already warmed) controllers and returns the best
    /// deployment, floored by the surgery baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] when the bandwidth or configuration
    /// fails pre-search validation.
    pub fn plan_for_bandwidth(
        &mut self,
        bandwidth: Mbps,
        cfg: &SearchConfig,
    ) -> Result<Candidate, ValidateError> {
        let memo = MemoPool::new();
        let outcome = optimal_branch(
            &mut self.controllers,
            &self.base,
            &self.env,
            bandwidth,
            cfg,
            &memo,
        )?;
        let surgery = surgery::plan(&self.base, &self.env, bandwidth);
        Ok(if surgery.evaluation.reward > outcome.best_eval.reward {
            surgery.candidate
        } else {
            outcome.best
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_netsim::Scenario;
    use cadmc_nn::zoo;

    fn quick_engine(seed: u64) -> DecisionEngine {
        let cfg = SearchConfig {
            episodes: 15,
            ..SearchConfig::quick(seed)
        };
        DecisionEngine::train(
            zoo::alexnet_cifar(),
            EvalEnv::phone(),
            Scenario::WifiWeakIndoor,
            &cfg,
            seed,
        )
        .expect("valid inputs")
    }

    #[test]
    fn trained_engine_composes_valid_models() {
        let engine = quick_engine(1);
        for bw in [0.5, 5.0, 50.0] {
            let (candidate, path) = engine.decide(|_| bw);
            assert!(!path.is_empty());
            assert_eq!(candidate.model.output_shape(), engine.base().output_shape());
        }
    }

    #[test]
    fn plan_for_bandwidth_never_below_surgery() {
        let mut engine = quick_engine(2);
        let cfg = SearchConfig {
            episodes: 10,
            ..SearchConfig::quick(2)
        };
        let bw = Mbps(10.0);
        let plan = engine.plan_for_bandwidth(bw, &cfg).expect("valid inputs");
        let planned = engine.evaluate(&plan, bw);
        let surgery = surgery::plan(engine.base(), &EvalEnv::phone(), bw);
        assert!(planned.reward >= surgery.evaluation.reward - 1e-9);
    }

    #[test]
    fn engine_context_has_two_levels() {
        let engine = quick_engine(3);
        assert_eq!(engine.context().levels().len(), 2);
        assert_eq!(engine.tree().k(), 2);
    }
}
