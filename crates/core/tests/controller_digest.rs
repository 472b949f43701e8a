//! Pins the exact bits of the trained controller parameters. A tree
//! search runs hundreds of REINFORCE updates through the autodiff
//! backward pass, gradient merge, clipping and Adam; any change to the
//! order or grouping of a floating-point operation in that path moves
//! these digests. The expected values were recorded before the backward
//! pass gained its in-place gradient kernels, so they pin those kernels
//! to the allocating implementation they replaced.

use cadmc_autodiff::ParamSet;
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree_search::tree_search;
use cadmc_core::{EvalEnv, NetworkContext};
use cadmc_netsim::Scenario;
use cadmc_nn::{zoo, ModelSpec};

/// FNV-1a over every parameter's name, shape and value bits, in
/// parameter-id order.
fn digest(params: &ParamSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, value) in params.iter() {
        eat(params.name(id).as_bytes());
        eat(&(value.rows() as u64).to_le_bytes());
        eat(&(value.cols() as u64).to_le_bytes());
        for v in value.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

fn trained_digest(base: &ModelSpec, scenario: Scenario, cfg: SearchConfig) -> u64 {
    let env = EvalEnv::phone();
    let ctx = NetworkContext::from_scenario(scenario, 2, cfg.seed);
    let mut controllers = Controllers::new(&cfg);
    let untrained = digest(&controllers.params);
    let memo = MemoPool::new();
    tree_search(
        &mut controllers,
        base,
        &env,
        ctx.levels(),
        3,
        &cfg,
        &memo,
        true,
        Some(ctx.trace()),
    )
    .expect("valid inputs");
    let trained = digest(&controllers.params);
    assert_ne!(trained, untrained, "the search must update the controllers");
    trained
}

#[test]
fn quick_tree_search_params_match_recorded_digest() {
    // `SearchConfig::quick`: hidden width 8.
    let cfg = SearchConfig {
        parallelism: Parallelism::new(2),
        ..SearchConfig::quick(5)
    };
    let got = trained_digest(&zoo::vgg11_cifar(), Scenario::WifiWeakIndoor, cfg);
    assert_eq!(got, 0x3a11_cd7e_b92e_bda3, "got {got:#018x}");
}

#[test]
fn default_width_tree_search_params_match_recorded_digest() {
    // The default hidden width 16, on a shorter budget.
    let cfg = SearchConfig {
        episodes: 16,
        seed: 9,
        parallelism: Parallelism::new(2),
        ..SearchConfig::default()
    };
    let got = trained_digest(&zoo::alexnet_cifar(), Scenario::FourGOutdoorQuick, cfg);
    assert_eq!(got, 0x8f2e_24fe_455f_2d8e, "got {got:#018x}");
}

#[test]
fn entropy_bonus_tree_search_params_match_recorded_digest() {
    // A non-zero entropy bonus adds the per-decision entropy terms to
    // every loss, so their gradients flow into the masked logits too.
    let cfg = SearchConfig {
        entropy_beta: 0.01,
        parallelism: Parallelism::new(2),
        ..SearchConfig::quick(5)
    };
    let got = trained_digest(&zoo::vgg11_cifar(), Scenario::WifiWeakIndoor, cfg);
    assert_eq!(got, 0x5e12_e680_c82e_c0da, "got {got:#018x}");
}
