//! Fig. 7 — comparison of search methods (RL vs random vs ε-greedy) on
//! the model-tree space under "4G indoor static".

use cadmc_bench::{downsample, sparkline};
use cadmc_core::baselines::{epsilon_greedy_search, random_search};
use cadmc_core::branch::optimal_branch;
use cadmc_core::experiments::search_comparison;
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::{EvalEnv, NetworkContext};
use cadmc_latency::{Mbps, Platform};
use cadmc_netsim::Scenario;
use cadmc_nn::zoo;

fn main() {
    let episodes: usize = std::env::var("CADMC_EPISODES").ok().and_then(|v| v.parse().ok()).unwrap_or(80);
    let seed: u64 = std::env::var("CADMC_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(7);
    let par = std::env::var("CADMC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or_else(Parallelism::available, Parallelism::new);
    println!("Fig. 7: search method comparison (VGG11, Phone; {episodes} episodes per method)\n");
    for scenario in [Scenario::FourGIndoorStatic, Scenario::WifiWeakIndoor] {
        println!("context: {}", scenario.name());
        let cmp =
            search_comparison(&zoo::vgg11_cifar(), Platform::Phone, scenario, episodes, seed, par)
                .expect("valid inputs");
        let (rl, random, eg) = cmp.finals();
        for (name, curve, final_v) in [
            ("RL (ours)", &cmp.rl, rl),
            ("random", &cmp.random, random),
            ("e-greedy", &cmp.epsilon_greedy, eg),
        ] {
            println!("  {:<10} best {:>7.2}  {}", name, final_v, sparkline(&downsample(curve, 60)));
        }
        println!();
    }
    // Second panel: the same comparison on the Alg. 1 (single-branch)
    // space at the weak-WiFi median bandwidth.
    println!("branch-space comparison (Alg. 1, WiFi (weak) indoor median):");
    let env = EvalEnv::phone();
    let base = zoo::vgg11_cifar();
    let ctx = NetworkContext::from_scenario(Scenario::WifiWeakIndoor, 2, seed);
    let bw = Mbps(ctx.median_bandwidth());
    let cfg = SearchConfig { episodes, seed, parallelism: par, ..SearchConfig::default() };
    let mut controllers = Controllers::new(&cfg);
    let rl = optimal_branch(&mut controllers, &base, &env, bw, &cfg, &MemoPool::new())
        .expect("valid inputs");
    let rnd = random_search(&base, &env, bw, episodes, seed, &MemoPool::new(), par, false)
        .expect("valid inputs");
    let eg =
        epsilon_greedy_search(&base, &env, bw, episodes, 0.3, seed, &MemoPool::new(), par, false)
            .expect("valid inputs");
    for (name, out) in [("RL (ours)", &rl), ("random", &rnd), ("e-greedy", &eg)] {
        let curve = out.best_so_far();
        println!(
            "  {:<10} best {:>7.2}  {}",
            name,
            curve.last().copied().unwrap_or(0.0),
            sparkline(&downsample(&curve, 60))
        );
    }
    println!();
    println!("paper (4G indoor static): RL 367.70 > e-greedy 358.90 ~ random 358.77");
    println!("(in our environment the static context's optimum is trivially reachable —");
    println!(" every method finds it; the weak-WiFi context separates the methods)");
}
