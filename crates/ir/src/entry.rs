//! The checked tree-search entry point: [`tree_search`] over a
//! [`CheckedModel`], with the bandwidth levels and block count defaulting
//! to the model's `@levels` / `@blocks` annotations. The other search
//! routines take a `ModelSpec` straight from `cadmc-core`; a checked
//! model hands one over with [`CheckedModel::spec`].

use cadmc_core::memo::MemoPool;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree_search::{self, TreeSearchResult};
use cadmc_core::validate::ValidateError;
use cadmc_core::EvalEnv;
use cadmc_netsim::BandwidthTrace;

use crate::analyze::CheckedModel;

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
}
