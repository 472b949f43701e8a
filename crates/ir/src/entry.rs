//! Checked entry points: every search routine in `cadmc-core`, gated on a
//! [`CheckedModel`]. IR text can only reach a search through [`analyze`]
//! (or [`CheckedModel::from_spec`] for builder-constructed specs), so by
//! the time these wrappers run, shapes, chain legality and cost-arithmetic
//! bounds are already proven.
//!
//! [`analyze`]: crate::analyze::analyze

use cadmc_core::baselines;
use cadmc_core::branch::{self, SearchOutcome};
use cadmc_core::engine::DecisionEngine;
use cadmc_core::experiments::Workload;
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree_search::{self, TreeSearchResult};
use cadmc_core::validate::ValidateError;
use cadmc_core::EvalEnv;
use cadmc_latency::Mbps;
use cadmc_netsim::{BandwidthTrace, Scenario};

use crate::analyze::CheckedModel;

/// Alg. 1 optimal branch search over a checked model.
///
/// # Errors
///
/// Propagates [`ValidateError`] from [`branch::optimal_branch`].
pub fn optimal_branch(
    controllers: &mut Controllers,
    model: &CheckedModel,
    env: &EvalEnv,
    bandwidth: Mbps,
    cfg: &SearchConfig,
    memo: &MemoPool,
) -> Result<SearchOutcome, ValidateError> {
    branch::optimal_branch(controllers, model.spec(), env, bandwidth, cfg, memo)
}

/// Alg. 3 tree search over a checked model. `levels` and `n_blocks`
/// default to the model's `@levels` / `@blocks` annotations; explicit
/// arguments override them.
///
/// # Errors
///
/// Returns `BadConfig` when neither an argument nor an annotation
/// supplies the bandwidth levels or block count; otherwise propagates
/// [`ValidateError`] from [`tree_search::tree_search`].
#[allow(clippy::too_many_arguments)]
pub fn tree_search(
    controllers: &mut Controllers,
    model: &CheckedModel,
    env: &EvalEnv,
    levels: Option<&[f64]>,
    n_blocks: Option<usize>,
    cfg: &SearchConfig,
    memo: &MemoPool,
    boost: bool,
    selection_trace: Option<&BandwidthTrace>,
) -> Result<TreeSearchResult, ValidateError> {
    let levels = match levels.or_else(|| model.levels()) {
        Some(ls) => ls.to_vec(),
        None => {
            return Err(ValidateError::BadConfig {
                field: "levels",
                detail: "no bandwidth levels given and the model has no @levels annotation"
                    .to_string(),
            })
        }
    };
    let n_blocks = match n_blocks.or_else(|| model.blocks()) {
        Some(n) => n,
        None => {
            return Err(ValidateError::BadConfig {
                field: "n_blocks",
                detail: "no block count given and the model has no @blocks annotation"
                    .to_string(),
            })
        }
    };
    tree_search::tree_search(
        controllers,
        model.spec(),
        env,
        &levels,
        n_blocks,
        cfg,
        memo,
        boost,
        selection_trace,
    )
}

/// Random-search baseline over a checked model.
///
/// # Errors
///
/// Propagates [`ValidateError`] from [`baselines::random_search`].
pub fn random_search(
    model: &CheckedModel,
    env: &EvalEnv,
    bandwidth: Mbps,
    episodes: usize,
    seed: u64,
    memo: &MemoPool,
    par: Parallelism,
) -> Result<SearchOutcome, ValidateError> {
    baselines::random_search(
        model.spec(),
        env,
        bandwidth,
        episodes,
        seed,
        memo,
        par,
        false,
    )
}

/// ε-greedy baseline over a checked model.
///
/// # Errors
///
/// Propagates [`ValidateError`] from [`baselines::epsilon_greedy_search`].
#[allow(clippy::too_many_arguments)]
pub fn epsilon_greedy_search(
    model: &CheckedModel,
    env: &EvalEnv,
    bandwidth: Mbps,
    episodes: usize,
    epsilon: f64,
    seed: u64,
    memo: &MemoPool,
    par: Parallelism,
) -> Result<SearchOutcome, ValidateError> {
    baselines::epsilon_greedy_search(
        model.spec(),
        env,
        bandwidth,
        episodes,
        epsilon,
        seed,
        memo,
        par,
        false,
    )
}

/// Full offline phase (Fig. 2) over a checked model.
///
/// # Errors
///
/// Propagates [`ValidateError`] from [`DecisionEngine::train`].
pub fn engine_train(
    model: &CheckedModel,
    env: EvalEnv,
    scenario: Scenario,
    cfg: &SearchConfig,
    seed: u64,
) -> Result<DecisionEngine, ValidateError> {
    DecisionEngine::train(model.spec().clone(), env, scenario, cfg, seed)
}

/// Builds an experiment [`Workload`] row from a checked model.
pub fn workload(
    model: &CheckedModel,
    device: cadmc_latency::Platform,
    scenario: Scenario,
) -> Workload {
    Workload {
        model: model.spec().clone(),
        device,
        scenario,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::zoo;

    #[test]
    fn annotated_tree_search_defaults_are_used() {
        let spec = zoo::tiny_cnn();
        let model = CheckedModel::from_spec(spec);
        let cfg = SearchConfig {
            episodes: 2,
            ..SearchConfig::default()
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let env = EvalEnv::for_edge(cadmc_latency::Platform::Phone);
        // No levels anywhere: BadConfig, not a panic.
        let err = tree_search(
            &mut controllers,
            &model,
            &env,
            None,
            Some(2),
            &cfg,
            &memo,
            false,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ValidateError::BadConfig { field: "levels", .. }));
        // Explicit levels work end to end.
        let res = tree_search(
            &mut controllers,
            &model,
            &env,
            Some(&[2.0, 20.0]),
            Some(2),
            &cfg,
            &memo,
            false,
            None,
        );
        assert!(res.is_ok(), "got {res:?}");
    }

    #[test]
    fn checked_branch_search_runs() {
        let model = CheckedModel::from_spec(zoo::tiny_cnn());
        let cfg = SearchConfig {
            episodes: 2,
            ..SearchConfig::default()
        };
        let mut controllers = Controllers::new(&cfg);
        let memo = MemoPool::new();
        let env = EvalEnv::for_edge(cadmc_latency::Platform::Phone);
        let out = optimal_branch(&mut controllers, &model, &env, Mbps(8.0), &cfg, &memo);
        assert!(out.is_ok(), "got {out:?}");
    }
}
