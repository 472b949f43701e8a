//! Property-based tests of the deployment algebra: random trees compose
//! into valid deployments, rewards stay bounded, the surgery cut
//! is never beaten by any chain cut, and the executor's degradation
//! policy survives arbitrary seeded fault schedules.

#![cfg(test)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use cadmc_latency::Mbps;
use cadmc_netsim::{BandwidthTrace, FaultProcessConfig, FaultSchedule};
use cadmc_nn::zoo;
use cadmc_telemetry as telemetry;

use cadmc_autodiff::{Gradients, Matrix, VarId, Workspace};

use crate::baselines::{random_feature, random_partition, random_plan};
use crate::candidate::{Candidate, Partition};
use crate::controller::{sample_masked, EpisodeTape, ForwardCache, EMBED_DIM};
use crate::env::EvalEnv;
use crate::executor::{execute, ExecConfig, Mode, Policy, RequestOutcome};
use crate::search::{Controllers, SearchConfig};
use crate::surgery;
use crate::tree::{ModelTree, TreeNode};

/// Builds a random (but structurally valid) model tree via seeded RNG.
fn random_tree(seed: u64, n_blocks: usize, k: usize) -> ModelTree {
    let base = zoo::vgg11_cifar();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = ModelTree::new(
        base.clone(),
        n_blocks,
        (0..k).map(|i| 2.0 + 4.0 * i as f64).collect(),
    );
    let mut frontier: Vec<Option<usize>> = vec![None];
    while let Some(parent) = frontier.pop() {
        let level = parent.map_or(0, |p| tree.nodes()[p].level + 1);
        let range = tree.block_range(level);
        use rand::RngExt;
        let pick = rng.random_range(0..=range.len());
        let (partition_abs, compress_len) = if pick == range.len() {
            (None, range.len())
        } else {
            (Some(range.start + pick), pick)
        };
        let mut actions = Vec::new();
        if compress_len > 0 {
            let block = base
                .slice(range.start, range.start + compress_len)
                .expect("valid block");
            let plan = random_plan(&block, compress_len, &mut rng);
            for (local, a) in plan.actions().iter().enumerate() {
                if let Some(t) = a {
                    actions.push(cadmc_accuracy::AppliedAction {
                        layer_index: range.start + local,
                        technique: *t,
                    });
                }
            }
        }
        // Transfer-bearing cut nodes may carry a random feature action,
        // exercising the cut-tensor overlay through the whole tree algebra.
        let feature = match partition_abs {
            Some(abs) if abs < base.len() => random_feature(&mut rng),
            _ => cadmc_compress::FeatureAction::IDENTITY,
        };
        let id = tree.push_node(
            parent,
            TreeNode {
                level,
                partition_abs,
                actions,
                feature,
                children: Vec::new(),
                reward: 0.0,
            },
        );
        if partition_abs.is_none() && level + 1 < n_blocks {
            for _ in 0..k {
                frontier.push(Some(id));
            }
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every branch of every random tree composes into a deployment with
    /// the base model's output shape and a consistent cut index, and
    /// `compose` with any bandwidth lands on one of those branches.
    #[test]
    fn random_trees_compose_validly(seed in 0u64..300, n in 2usize..4, k in 2usize..4) {
        let tree = random_tree(seed, n, k);
        let base_out = tree.base().output_shape();
        let branches = tree.branches();
        prop_assert!(!branches.is_empty());
        for path in &branches {
            let c = tree.compose_path(path);
            prop_assert_eq!(c.model.output_shape(), base_out);
            prop_assert!(c.edge_layers <= c.model.len());
        }
        for bw in [0.5, 5.0, 50.0] {
            let (path, c) = tree.compose(|_| bw);
            prop_assert!(branches.contains(&path));
            prop_assert_eq!(c.model.output_shape(), base_out);
        }
        // Storage accounting never exceeds the naive per-branch copies.
        let naive = branches.len() as u64 * tree.base().param_bytes();
        prop_assert!(tree.edge_storage_bytes() <= naive);
    }

    /// Backward estimation preserves leaf rewards and bounds parents by
    /// their children's extremes (for the mean rule).
    #[test]
    fn backward_estimation_bounds(seed in 0u64..300) {
        let mut tree = random_tree(seed, 3, 2);
        // Assign arbitrary leaf rewards.
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let leaf_ids: Vec<usize> = tree
            .branches()
            .iter()
            .map(|p| *p.last().expect("non-empty"))
            .collect();
        for &id in &leaf_ids {
            tree.node_mut(id).reward = rng.random_range(300.0..380.0);
        }
        let before: Vec<f64> = leaf_ids.iter().map(|&i| tree.nodes()[i].reward).collect();
        tree.backward_estimate();
        // Leaves unchanged.
        for (&id, &b) in leaf_ids.iter().zip(&before) {
            prop_assert_eq!(tree.nodes()[id].reward, b);
        }
        // Every interior node's reward is within [min, max] of leaf rewards
        // (mean-of-children recursion cannot escape the hull).
        let lo = before.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = before.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for node in tree.nodes() {
            if !node.children.is_empty() {
                prop_assert!(node.reward >= lo - 1e-9 && node.reward <= hi + 1e-9);
            }
        }
    }

    /// The surgery partition is optimal: no chain cut beats it.
    #[test]
    fn mincut_dominates_every_chain_cut(bw in 0.2f64..200.0) {
        let base = zoo::alexnet_cifar();
        let env = EvalEnv::phone();
        let plan = cadmc_compress::CompressionPlan::identity(base.len());
        let chosen = surgery::optimal_partition_scan(&base, &env, Mbps(bw));
        let chosen_lat = env.latency_ms(
            &Candidate::compose(&base, chosen, &plan).expect("identity composes"),
            Mbps(bw),
        );
        for p in surgery::partition_options(&base) {
            let lat = env.latency_ms(
                &Candidate::compose(&base, p, &plan).expect("identity composes"),
                Mbps(bw),
            );
            prop_assert!(
                chosen_lat <= lat + 1e-6,
                "cut {p} ({lat:.3} ms) beats surgery's {chosen} ({chosen_lat:.3} ms) at {bw} Mbps"
            );
        }
    }

    /// The executor never panics under arbitrary seeded fault schedules,
    /// and every request resolves to some [`RequestOutcome`] — for both
    /// policies, both fidelity modes, random tree shapes.
    #[test]
    fn executor_survives_arbitrary_fault_schedules(
        seed in 0u64..200,
        fault_seed in 0u64..200,
        outage_rate in 0.0f64..0.3,
        collapse_rate in 0.0f64..0.3,
        rtt_rate in 0.0f64..0.3,
        freeze_rate in 0.0f64..0.3,
        field in proptest::bool::ANY,
    ) {
        let cfg = FaultProcessConfig {
            outage_rate,
            collapse_rate,
            rtt_rate,
            freeze_rate,
            ..FaultProcessConfig::harsh()
        };
        let faults = FaultSchedule::generate(&cfg, 20_000.0, fault_seed);
        let tree = random_tree(seed, 3, 2);
        let base = tree.base().clone();
        let env = EvalEnv::phone();
        let static_c = surgery::plan(&base, &env, Mbps(8.0)).candidate;
        let trace = BandwidthTrace::new(100.0, (0..200).map(|i| 2.0 + (i % 7) as f64 * 3.0).collect());
        let mode = if field { Mode::Field } else { Mode::Emulation };
        let ecfg = ExecConfig::new(12, mode, seed).with_faults(faults);
        for policy in [Policy::Static(&static_c), Policy::Tree(&tree)] {
            let report = execute(&env, &base, &policy, &trace, &ecfg);
            prop_assert_eq!(report.outcomes.len(), 12);
            prop_assert_eq!(report.latencies_ms.len(), 12);
            for (&l, &o) in report.latencies_ms.iter().zip(&report.outcomes) {
                prop_assert!(l.is_finite() && l > 0.0);
                // A failed request carries zero accuracy, everything else
                // a real oracle score; either way it *resolved*.
                let _ = o;
            }
        }
    }

    /// No transfer attempt ever waits past its deadline by more than one
    /// backoff quantum: every `exec.fault` event records a wait equal to
    /// the deadline it was given and a backoff bounded by the policy's
    /// exponential schedule. The collector is process-wide, so events of
    /// executions in concurrently running tests land in it too; only the
    /// events carrying this case's deadline are this execution's.
    #[test]
    fn deadline_overrun_is_bounded_by_one_backoff_quantum(
        fault_seed in 0u64..300,
        deadline in 5.0f64..200.0,
        max_retries in 0u32..4,
    ) {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let c = surgery::plan(&base, &env, Mbps(8.0)).candidate;
        prop_assume!(c.edge_layers < c.model.len());
        let faults = FaultSchedule::generate(&FaultProcessConfig::harsh(), 20_000.0, fault_seed);
        prop_assume!(!faults.is_empty());
        let trace = BandwidthTrace::new(100.0, vec![8.0; 200]);
        let mut ecfg = ExecConfig::emulation(20, 9).with_faults(faults);
        ecfg.deadline_ms = Some(deadline);
        ecfg.max_retries = max_retries;
        let backoff_cap = ecfg.backoff_ms * f64::from(1u32 << max_retries);
        let (_, report) = telemetry::testing::with_collector(|| {
            execute(&env, &base, &Policy::Static(&c), &trace, &ecfg);
        });
        let ours = report.events.iter().filter(|e| {
            e.name == "exec.fault"
                && e.field_f64("deadline_ms").map(f64::to_bits) == Some(deadline.to_bits())
        });
        for e in ours {
            let waited = e.field_f64("waited_ms").expect("exec.fault carries waited_ms");
            let backoff = e.field_f64("backoff_ms").expect("exec.fault carries backoff_ms");
            prop_assert!(waited <= deadline + 1e-9, "waited {waited} past deadline {deadline}");
            prop_assert!(backoff <= backoff_cap + 1e-9, "backoff {backoff} above cap {backoff_cap}");
        }
    }

    /// Monotonicity: injecting a fault process never *improves* mean
    /// latency for the same seed. Scoped to where it is structurally
    /// guaranteed — static policy, emulation fidelity, flat trace — so
    /// time-coupling (later requests sampling different trace points)
    /// cannot flip the comparison.
    #[test]
    fn faults_never_improve_mean_latency_on_flat_traces(
        fault_seed in 0u64..300,
        bw in 1.0f64..40.0,
        seed in 0u64..50,
    ) {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let c = surgery::plan(&base, &env, Mbps(bw)).candidate;
        let trace = BandwidthTrace::new(100.0, vec![bw; 200]);
        let clean_cfg = ExecConfig::emulation(15, seed);
        let clean = execute(&env, &base, &Policy::Static(&c), &trace, &clean_cfg);
        let faults = FaultSchedule::generate(&FaultProcessConfig::harsh(), 20_000.0, fault_seed);
        let faulted_cfg = ExecConfig::emulation(15, seed).with_faults(faults);
        let faulted = execute(&env, &base, &Policy::Static(&c), &trace, &faulted_cfg);
        prop_assert!(faulted.outcomes.iter().all(|&o| o != RequestOutcome::Failed));
        prop_assert!(
            faulted.mean_latency_ms() >= clean.mean_latency_ms() - 1e-9,
            "faults improved latency: {} < {}",
            faulted.mean_latency_ms(),
            clean.mean_latency_ms()
        );
    }

    /// The O(1) prefix-sum latency kernel agrees with the per-layer
    /// scalar walk to 0 ULP — bit-identical floats — for arbitrary
    /// compressed candidates, cut points and bandwidths.
    #[test]
    fn latency_kernel_matches_scalar_oracle_exactly(seed in 0u64..500, bw in 0.05f64..500.0) {
        let base = match seed % 3 {
            0 => zoo::vgg11_cifar(),
            1 => zoo::alexnet_cifar(),
            _ => zoo::tiny_cnn(),
        };
        let env = if seed % 2 == 0 { EvalEnv::phone() } else { EvalEnv::tx2() };
        let mut rng = StdRng::seed_from_u64(seed);
        let partition = random_partition(&base, &mut rng);
        let edge_len = partition.edge_len(base.len());
        let plan = random_plan(&base, edge_len, &mut rng);
        let c = Candidate::compose(&base, partition, &plan)
            .expect("random plan composes")
            .with_feature(random_feature(&mut rng));
        let kernel = env.latency_ms(&c, Mbps(bw));
        let scalar = env.latency_ms_scalar(&c, Mbps(bw));
        prop_assert_eq!(
            kernel.to_bits(),
            scalar.to_bits(),
            "kernel {} != scalar {}",
            kernel,
            scalar
        );
    }

    /// The cut-tensor overlay never *increases* transfer bytes, agrees
    /// with the explicit per-layer scalar walk exactly, and evaluation
    /// with any feature action never panics and stays bounded.
    #[test]
    fn feature_overlay_shrinks_and_matches_scalar(
        seed in 0u64..500,
        bw in 0.05f64..500.0,
        feat_idx in 0usize..9,
    ) {
        let base = match seed % 3 {
            0 => zoo::vgg11_cifar(),
            1 => zoo::alexnet_cifar(),
            _ => zoo::tiny_cnn(),
        };
        let env = EvalEnv::phone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfea7);
        let partition = random_partition(&base, &mut rng);
        let edge_len = partition.edge_len(base.len());
        let plan = random_plan(&base, edge_len, &mut rng);
        let feature = cadmc_compress::FeatureAction::from_index(feat_idx);
        let plainc = Candidate::compose(&base, partition, &plan).expect("random plan composes");
        let raw = plainc.transfer_bytes();
        let c = plainc.with_feature(feature);
        prop_assert!(c.transfer_bytes() <= raw, "feature inflated the cut tensor");
        prop_assert_eq!(c.transfer_bytes(), c.transfer_bytes_scalar());
        let e = env.evaluate(&base, &c, Mbps(bw));
        prop_assert!((0.0..=400.0).contains(&e.reward));
        prop_assert!(e.latency_ms > 0.0 && e.latency_ms.is_finite());
        prop_assert!((0.5..=1.0).contains(&e.accuracy));
    }

    /// The fused single-splice compose fast path is indistinguishable
    /// from the sequential rewrite oracle: same model (including layer
    /// names, hence structural hash), partition bookkeeping and recorded
    /// actions, for arbitrary plans and cuts.
    #[test]
    fn compose_fast_path_matches_sequential_oracle(seed in 0u64..500) {
        let base = match seed % 3 {
            0 => zoo::vgg11_cifar(),
            1 => zoo::alexnet_cifar(),
            _ => zoo::tiny_cnn(),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0a7);
        let partition = random_partition(&base, &mut rng);
        let edge_len = partition.edge_len(base.len());
        let plan = random_plan(&base, edge_len, &mut rng);
        let fast = Candidate::compose(&base, partition, &plan).expect("random plan composes");
        let slow =
            Candidate::compose_sequential(&base, partition, &plan).expect("random plan composes");
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.model.structural_hash(), slow.model.structural_hash());
        prop_assert_eq!(fast.transfer_bytes(), slow.transfer_bytes());
    }

    /// Random candidates always evaluate to bounded rewards and positive
    /// latencies, at any bandwidth.
    #[test]
    fn evaluations_are_bounded(seed in 0u64..500, bw in 0.05f64..500.0) {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let mut rng = StdRng::seed_from_u64(seed);
        let partition = random_partition(&base, &mut rng);
        let edge_len = match partition {
            Partition::AllEdge => base.len(),
            Partition::AllCloud => 0,
            Partition::AfterLayer(i) => i + 1,
        };
        let plan = random_plan(&base, edge_len, &mut rng);
        let c = Candidate::compose(&base, partition, &plan).expect("random plan composes");
        let e = env.evaluate(&base, &c, Mbps(bw));
        prop_assert!((0.0..=400.0).contains(&e.reward));
        prop_assert!(e.latency_ms > 0.0 && e.latency_ms.is_finite());
        prop_assert!((0.5..=1.0).contains(&e.accuracy));
    }
}

/// Samples one decision from each of `logits` under a random mask drawn
/// from `rng`.
fn sample_all(tape: &mut EpisodeTape, logits: &[VarId], rng: &mut StdRng) {
    use rand::RngExt;
    for &l in logits {
        let width = tape.graph.value(l).cols();
        let mut allowed: Vec<bool> = (0..width).map(|_| rng.random_bool(0.7)).collect();
        let keep = rng.random_range(0..width);
        allowed[keep] = true;
        sample_masked(tape, l, &allowed, rng);
    }
}

/// An episode over the embedded sequence `inputs` at `bw`: a partition
/// decision, then (if `compress`) one compression decision per step.
/// With `forwards` the tape links the batch's shared passes; without, it
/// records both passes inline on its own graph.
fn episode(
    c: &Controllers,
    forwards: Option<&ForwardCache<'_>>,
    inputs: &[Matrix],
    bw: f64,
    compress: bool,
    seed: u64,
) -> EpisodeTape {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = EpisodeTape::new();
    let partition = match forwards {
        Some(f) => tape.link(&c.partition.forward(f, inputs.to_vec(), bw)),
        None => vec![c
            .partition
            .record(&mut tape.graph, &c.params, inputs.to_vec())],
    };
    sample_all(&mut tape, &partition, &mut rng);
    if compress {
        let layers = match forwards {
            Some(f) => tape.link(&c.compression.forward(f, inputs.to_vec(), bw)),
            None => c
                .compression
                .record(&mut tape.graph, &c.params, inputs.to_vec()),
        };
        sample_all(&mut tape, &layers, &mut rng);
    }
    tape
}

fn assert_same_bits(a: &Gradients, b: &Gradients) {
    prop_assert_eq!(a.len(), b.len());
    for ((pa, ga), (pb, gb)) in a.iter().zip(b.iter()) {
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(ga.shape(), gb.shape());
        for (x, y) in ga.data().iter().zip(gb.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "parameter {:?}", pa);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tapes that link one shared pass per controller give the same
    /// gradient bits as tapes that record the same passes inline: two
    /// episodes share the passes of one batch and backpropagate through
    /// one reused workspace.
    #[test]
    fn linked_forwards_give_the_gradients_of_inline_ones(
        wide in proptest::bool::ANY,
        steps in 1usize..=12,
        input_seed in 0u64..1 << 48,
        bw in 0.1f64..200.0,
        pick_seed in 0u64..1 << 48,
        adv_a in -2.0f32..2.0,
        adv_b in -2.0f32..2.0,
        compress_a in proptest::bool::ANY,
        compress_b in proptest::bool::ANY,
        entropy in proptest::bool::ANY,
    ) {
        use rand::RngExt;
        let cfg = SearchConfig {
            hidden: if wide { 16 } else { 8 },
            ..SearchConfig::quick(input_seed)
        };
        let c = Controllers::new(&cfg);
        let mut rng = StdRng::seed_from_u64(input_seed);
        let inputs: Vec<Matrix> = (0..steps)
            .map(|_| {
                let row: Vec<f32> = (0..EMBED_DIM).map(|_| rng.random_range(-1.0..1.0)).collect();
                Matrix::from_vec(1, EMBED_DIM, row)
            })
            .collect();
        let beta = if entropy { 0.01 } else { 0.0 };
        let forwards = ForwardCache::new(&c.params);
        let mut ws = Workspace::default();
        for (k, (adv, compress)) in [(adv_a, compress_a), (adv_b, compress_b)].into_iter().enumerate() {
            let seed = pick_seed + k as u64;
            let linked = episode(&c, Some(&forwards), &inputs, bw, compress, seed);
            let inline = episode(&c, None, &inputs, bw, compress, seed);
            prop_assert_eq!(linked.linked().count(), 1 + usize::from(compress));
            let got = linked.into_gradients_with_entropy(adv, beta, &mut ws);
            let want = inline.into_gradients_with_entropy(adv, beta, &mut Workspace::default());
            prop_assert!(!want.is_empty());
            assert_same_bits(&got, &want);
        }
        prop_assert_eq!(forwards.len(), 1 + usize::from(compress_a || compress_b));
    }
}
