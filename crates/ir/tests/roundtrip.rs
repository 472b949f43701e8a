//! Zoo round-trip suite: every builder-constructed model must survive
//! `emit_ir → parse → check` with zero diagnostics, an equal spec, and a
//! byte-identical re-emission — and searches launched through the checked
//! IR path must produce byte-identical serialized output to the direct
//! builder path, at every parallelism level.

use cadmc_core::baselines;
use cadmc_core::branch::{self, SearchOutcome};
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::EvalEnv;
use cadmc_ir::{check_source, emit_model, entry, CheckedModel};
use cadmc_latency::{Mbps, Platform};
use cadmc_nn::zoo::{self, ResNetDepth};
use cadmc_nn::ModelSpec;

/// Every zoo builder, including the deep ImageNet-scale variants the CLI
/// does not expose — the analyzer's element/cost caps must clear all of
/// them.
fn all_zoo_models() -> Vec<ModelSpec> {
    vec![
        zoo::tiny_cnn(),
        zoo::vgg11_cifar(),
        zoo::vgg16_cifar(),
        zoo::alexnet_cifar(),
        zoo::mobilenet_cifar(),
        zoo::squeezenet_cifar(),
        zoo::resnet18_cifar(),
        zoo::resnet34_cifar(),
        zoo::vgg19_imagenet(),
        zoo::resnet_imagenet(ResNetDepth::D50),
        zoo::resnet_imagenet(ResNetDepth::D101),
        zoo::resnet_imagenet(ResNetDepth::D152),
    ]
}

/// Emits `spec` and re-checks the text, requiring a clean bill.
fn round_trip(spec: &ModelSpec) -> CheckedModel {
    let text = emit_model(spec);
    let out = check_source(&text);
    assert!(
        out.diagnostics.is_empty(),
        "{}: canonical emission produced diagnostics: {:?}\n{text}",
        spec.name(),
        out.diagnostics
    );
    let model = out
        .model
        .unwrap_or_else(|| panic!("{}: emission did not re-check", spec.name()));
    assert_eq!(
        model.spec(),
        spec,
        "{}: parsed spec differs from the builder's",
        spec.name()
    );
    model
}

#[test]
fn every_zoo_model_round_trips_byte_identically() {
    for spec in all_zoo_models() {
        let text = emit_model(&spec);
        let model = round_trip(&spec);
        let again = emit_model(model.spec());
        assert_eq!(
            again,
            text,
            "{}: re-emission is not byte-identical",
            spec.name()
        );
        // The structural hash is a pure function of the canonical form.
        assert_eq!(model.ir_hash(), cadmc_ir::ir_hash(&spec, None, None));
    }
}

/// Serializes the parts of a [`SearchOutcome`] that define its identity.
fn outcome_bytes(out: &SearchOutcome) -> String {
    serde_json::to_string(&(
        &out.best,
        &out.best_eval,
        &out.episode_rewards,
        &out.improvers,
    ))
    .expect("search outcome serializes")
}

#[test]
fn ir_path_search_output_matches_direct_path_across_parallelism() {
    let specs = [zoo::tiny_cnn(), zoo::squeezenet_cifar()];
    let env = EvalEnv::for_edge(Platform::Phone);
    for spec in &specs {
        let checked = round_trip(spec);
        for workers in [1usize, 2, 8] {
            let par = Parallelism::new(workers);

            // Random-search baseline: builder spec vs the checked IR spec.
            let direct = baselines::random_search(
                spec,
                &env,
                Mbps(8.0),
                6,
                42,
                &MemoPool::new(),
                par,
                false,
            )
            .expect("direct random search");
            let via_ir = baselines::random_search(
                checked.spec(),
                &env,
                Mbps(8.0),
                6,
                42,
                &MemoPool::new(),
                par,
                false,
            )
            .expect("IR-path random search");
            assert_eq!(
                outcome_bytes(&direct),
                outcome_bytes(&via_ir),
                "{} random search diverged at {workers} workers",
                spec.name()
            );

            // Alg. 1 optimal branch: fresh controllers per run so the IR
            // path sees the same policy state as the direct path.
            let cfg = SearchConfig {
                episodes: 4,
                seed: 42,
                parallelism: par,
                ..SearchConfig::default()
            };
            let mut direct_ctl = Controllers::new(&cfg);
            let direct = branch::optimal_branch(
                &mut direct_ctl,
                spec,
                &env,
                Mbps(8.0),
                &cfg,
                &MemoPool::new(),
            )
            .expect("direct optimal branch");
            let mut ir_ctl = Controllers::new(&cfg);
            let via_ir = branch::optimal_branch(
                &mut ir_ctl,
                checked.spec(),
                &env,
                Mbps(8.0),
                &cfg,
                &MemoPool::new(),
            )
            .expect("IR-path optimal branch");
            assert_eq!(
                outcome_bytes(&direct),
                outcome_bytes(&via_ir),
                "{} optimal branch diverged at {workers} workers",
                spec.name()
            );
        }
    }
}

#[test]
fn ir_path_tree_search_matches_direct_path() {
    let spec = zoo::tiny_cnn();
    let checked = round_trip(&spec);
    let env = EvalEnv::for_edge(Platform::Phone);
    let levels = [2.0, 20.0];
    let cfg = SearchConfig {
        episodes: 3,
        seed: 7,
        ..SearchConfig::default()
    };

    let mut direct_ctl = Controllers::new(&cfg);
    let direct = cadmc_core::tree_search::tree_search(
        &mut direct_ctl,
        &spec,
        &env,
        &levels,
        2,
        &cfg,
        &MemoPool::new(),
        false,
        None,
    )
    .expect("direct tree search");
    let mut ir_ctl = Controllers::new(&cfg);
    let via_ir = entry::tree_search(
        &mut ir_ctl,
        &checked,
        &env,
        Some(&levels),
        Some(2),
        &cfg,
        &MemoPool::new(),
        false,
        None,
    )
    .expect("IR-path tree search");

    let direct_bytes =
        serde_json::to_string(&(&direct.tree, &direct.episode_scores, direct.best_branch_reward))
            .expect("tree result serializes");
    let ir_bytes =
        serde_json::to_string(&(&via_ir.tree, &via_ir.episode_scores, via_ir.best_branch_reward))
            .expect("tree result serializes");
    assert_eq!(direct_bytes, ir_bytes, "tree search diverged via the IR path");
}
