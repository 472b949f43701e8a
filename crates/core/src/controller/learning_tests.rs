//! Behavioural tests: the controllers must demonstrably *learn* from
//! rewards, not merely sample. These train on synthetic reward landscapes
//! with known optima and check the policies concentrate correctly.

#![cfg(test)]

use cadmc_nn::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::controller::{EpisodeTape, ForwardCache, PartitionAction, Reinforce};
use crate::search::{Controllers, SearchConfig};

#[test]
fn partition_controller_learns_a_preferred_cut() {
    // Reward cutting before layer 2 of TinyCnn; everything else is bad.
    let cfg = SearchConfig::quick(11);
    let mut c = Controllers::new(&cfg);
    let base = zoo::tiny_cnn();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..250 {
        let mut tape = EpisodeTape::new();
        let action = c.partition.sample(
            &mut tape,
            &ForwardCache::new(&c.params),
            &base,
            10.0,
            &mut rng,
            0.0,
        );
        let reward = match action {
            PartitionAction::CutBefore(2) => 380.0,
            _ => 320.0,
        };
        c.trainer.update_batch(&mut c.params, vec![(tape, reward)]);
    }
    // Greedy decode should now pick the rewarded cut.
    assert_eq!(
        c.partition.best(&c.params, &base, 10.0),
        PartitionAction::CutBefore(2),
        "partition policy failed to concentrate on the rewarded action"
    );
}

#[test]
fn compression_controller_learns_to_abstain_when_compression_is_punished() {
    // Punish any compression at all; the per-layer policy should converge
    // to the identity plan.
    let cfg = SearchConfig::quick(13);
    let mut c = Controllers::new(&cfg);
    let base = zoo::tiny_cnn();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..250 {
        let mut tape = EpisodeTape::new();
        let plan = c.compression.sample(
            &mut tape,
            &ForwardCache::new(&c.params),
            &base,
            10.0,
            &mut rng,
        );
        let reward = if plan.is_identity() { 380.0 } else { 320.0 };
        c.trainer.update_batch(&mut c.params, vec![(tape, reward)]);
    }
    let best = c.compression.best(&c.params, &base, 10.0);
    assert!(
        best.is_identity(),
        "compression policy should abstain, got {}",
        best.summary()
    );
}

#[test]
fn compression_controller_learns_to_compress_when_rewarded() {
    let cfg = SearchConfig::quick(17);
    let mut c = Controllers::new(&cfg);
    let base = zoo::tiny_cnn();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..250 {
        let mut tape = EpisodeTape::new();
        let plan = c.compression.sample(
            &mut tape,
            &ForwardCache::new(&c.params),
            &base,
            10.0,
            &mut rng,
        );
        // Reward proportional to number of compressed layers.
        let count = plan.actions().iter().filter(|a| a.is_some()).count();
        let reward = 320.0 + 15.0 * count as f64;
        c.trainer.update_batch(&mut c.params, vec![(tape, reward)]);
    }
    let best = c.compression.best(&c.params, &base, 10.0);
    let count = best.actions().iter().filter(|a| a.is_some()).count();
    assert!(
        count >= 2,
        "policy should compress aggressively, got {}",
        best.summary()
    );
}

#[test]
fn bandwidth_conditioning_can_separate_policies() {
    // A conditioned two-armed bandit: on a single-layer model the policy
    // has exactly two options (offload everything / stay on edge). Reward
    // staying at low bandwidth and offloading at high bandwidth; the same
    // controller must learn both, keyed on its bandwidth input.
    let cfg = SearchConfig {
        episodes: 0,
        lr: 1e-2,
        ..SearchConfig::quick(19)
    };
    let mut c = Controllers::new(&cfg);
    let mut trainer = Reinforce::new(1e-2, 400.0);
    let base = zoo::tiny_cnn().slice(0, 1).expect("single-layer slice");
    let mut rng = StdRng::seed_from_u64(23);
    for i in 0..800 {
        let bw = if i % 2 == 0 { 1.0 } else { 100.0 };
        let mut tape = EpisodeTape::new();
        let action = c.partition.sample(
            &mut tape,
            &ForwardCache::new(&c.params),
            &base,
            bw,
            &mut rng,
            0.0,
        );
        let good = if bw < 10.0 {
            action == PartitionAction::NoPartition
        } else {
            action == PartitionAction::CutBefore(0)
        };
        let reward = if good { 390.0 } else { 250.0 };
        trainer.update_batch(&mut c.params, vec![(tape, reward)]);
    }
    // Argmax flips are brittle under a shared EMA baseline; assert the
    // *distribution* separated: the policy must put more mass on
    // no-partition at low bandwidth and more mass on offloading at high
    // bandwidth than vice versa.
    let prob = |bw: f64, want_no_partition: bool| -> f32 {
        let mut tape = EpisodeTape::new();
        let logits = c
            .partition
            .logits(&mut tape, &ForwardCache::new(&c.params), &base, bw);
        let sm = tape.graph.value(logits).softmax_rows();
        if want_no_partition {
            sm.at(0, base.len())
        } else {
            sm.at(0, 0)
        }
    };
    assert!(
        prob(1.0, true) > prob(100.0, true),
        "no-partition mass should be higher at low bandwidth: {} vs {}",
        prob(1.0, true),
        prob(100.0, true)
    );
    assert!(
        prob(100.0, false) > prob(1.0, false),
        "offload mass should be higher at high bandwidth: {} vs {}",
        prob(100.0, false),
        prob(1.0, false)
    );
}
