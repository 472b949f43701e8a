//! Schedule-permutation stress tests for the shared [`MemoPool`].
//!
//! Plain concurrency tests exercise whatever interleaving the OS happens
//! to pick. This harness instead *drives* many distinct schedules: each
//! run derives every worker's operation sequence and yield points from a
//! seeded RNG, so a sweep over master seeds replays the pool under many
//! different thread interleavings — deterministically reproducible by
//! seed when one fails.
//!
//! Invariants checked after every run:
//! - `hits + misses == total lookups` (no counter update is lost),
//! - `len == number of distinct keys touched`,
//! - `misses >= distinct keys` (each entry was computed at least once;
//!   benign duplicate compute under a race may push it higher),
//! - every lookup of a key observed the same `Evaluation` (first write
//!   wins semantics never expose torn or mixed values).
//!
//! The same binary runs under Miri and ThreadSanitizer in CI with reduced
//! sizes (`cfg(miri)` / `MEMO_STRESS_LIGHT=1`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use cadmc_core::delta::DeltaState;
use cadmc_core::memo::MemoPool;
use cadmc_core::{Evaluation, Partition, RewardSpec};
use cadmc_nn::zoo;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One observed (bandwidth-key, reward) pair from a worker.
type Observation = (u64, f64);

fn light_mode() -> bool {
    cfg!(miri) || std::env::var_os("MEMO_STRESS_LIGHT").is_some()
}

/// The memo key of universe member `k`: the unmodified all-edge tiny
/// CNN at `1 + k` Mbps. Distinct bandwidths are distinct keys (quantized
/// at 0.01 Mbps, so steps of 1.0 never collide).
fn universe_key(k: usize) -> u64 {
    DeltaState::new(&zoo::tiny_cnn(), Partition::AllEdge).eval_key(1.0 + k as f64)
}

/// Drives `workers` threads over a shared pool. Every thread's key
/// sequence and yield schedule derive from `seed`, and all threads start
/// together behind a barrier so the contention window is as wide as the
/// scheduler allows. Returns all observations plus the key universe size.
fn run_schedule(
    seed: u64,
    workers: usize,
    ops_per_worker: usize,
    key_universe: usize,
) -> (Arc<MemoPool>, Vec<Observation>, usize) {
    let pool = Arc::new(MemoPool::new());
    let keys: Arc<Vec<u64>> = Arc::new((0..key_universe).map(universe_key).collect());
    let computes = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(workers));

    let mut handles = Vec::new();
    for w in 0..workers {
        let pool = Arc::clone(&pool);
        let keys = Arc::clone(&keys);
        let computes = Arc::clone(&computes);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            // Per-worker stream: disjoint from other workers, stable for
            // a given (seed, worker) pair.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15 ^ (w as u64));
            barrier.wait();
            let mut seen = Vec::with_capacity(ops_per_worker);
            for _ in 0..ops_per_worker {
                let k = rng.random_range(0..key_universe);
                // The evaluation payload is a pure function of the key,
                // so every thread computing it produces the same value —
                // any divergence observed later is a pool bug.
                let e = pool.get_or_insert_key_with(keys[k], || {
                    computes.fetch_add(1, Ordering::Relaxed);
                    Evaluation::new(
                        0.5 + (k as f64) * 1e-3,
                        10.0 + k as f64,
                        &RewardSpec::default(),
                    )
                });
                seen.push((k as u64, e.reward));
                // Seeded perturbation: sometimes yield mid-sequence so
                // different seeds explore different interleavings.
                if rng.random_range(0..4usize) == 0 {
                    std::thread::yield_now();
                }
            }
            seen
        }));
    }

    let mut observations = Vec::new();
    for h in handles {
        observations.extend(h.join().expect("stress worker panicked"));
    }
    (pool, observations, workers * ops_per_worker)
}

/// Checks every pool invariant for one completed schedule.
fn check_invariants(seed: u64, pool: &MemoPool, observations: &[Observation], total_ops: usize) {
    let mut first_value: BTreeMap<u64, f64> = BTreeMap::new();
    for &(k, reward) in observations {
        let entry = first_value.entry(k).or_insert(reward);
        assert!(
            entry.to_bits() == reward.to_bits(),
            "seed {seed}: key {k} observed two different evaluations: {entry} vs {reward}"
        );
    }
    let distinct = first_value.len();

    assert_eq!(
        pool.hits() + pool.misses(),
        total_ops,
        "seed {seed}: counter updates lost (hits {} + misses {} != ops {total_ops})",
        pool.hits(),
        pool.misses()
    );
    assert_eq!(
        pool.len(),
        distinct,
        "seed {seed}: pool holds {} entries but workers touched {distinct} keys",
        pool.len()
    );
    assert!(
        pool.misses() >= distinct,
        "seed {seed}: {} misses cannot cover {distinct} distinct keys",
        pool.misses()
    );
}

#[test]
fn seeded_schedules_preserve_invariants() {
    // Every operation of every worker goes through the pool's one lock;
    // the sweep covers both a wide key universe and a narrow one, where
    // nearly every lookup races another on the same entry.
    let runs: &[(u64, usize, usize, usize)] = if light_mode() {
        &[(2, 4, 40, 12), (2, 4, 30, 6)]
    } else {
        &[(12, 8, 400, 64), (6, 8, 300, 16)]
    };
    for (sweep, &(seeds, workers, ops, keys)) in runs.iter().enumerate() {
        let first = 100 * sweep as u64;
        for seed in first..first + seeds {
            let (pool, observations, total) = run_schedule(seed, workers, ops, keys);
            check_invariants(seed, &pool, &observations, total);
        }
    }
}

#[test]
fn hot_key_hammering_is_consistent() {
    // All workers hammer a tiny key set so nearly every op races on the
    // same entries; hit rate must dominate and values never change.
    let (seeds, workers, ops) = if light_mode() {
        (2u64, 4, 50)
    } else {
        (4u64, 8, 500)
    };
    for seed in 200..200 + seeds {
        let (pool, observations, total) = run_schedule(seed, workers, ops, 2);
        check_invariants(seed, &pool, &observations, total);
        assert_eq!(
            pool.len(),
            observations
                .iter()
                .map(|o| o.0)
                .max()
                .map_or(0, |m| m as usize + 1)
                .min(2)
        );
        // With only 2 keys and hundreds of ops, almost everything hits.
        assert!(
            pool.hits() > total / 2,
            "seed {seed}: hot keys should mostly hit ({} of {total})",
            pool.hits()
        );
    }
}

#[test]
fn concurrent_batched_probes_match_single_probes() {
    // Readers hammer `probe_many` with seeded, duplicate-containing
    // batches while writers race `insert_key` on the same universe. A
    // batched probe must be indistinguishable from per-key `get_key`:
    // every `Some` carries the key's one true evaluation, result order
    // matches key order, and no counter update is lost.
    let (seeds, readers, writers, batches, keys) = if light_mode() {
        (2u64, 3, 2, 20, 12)
    } else {
        (6u64, 6, 3, 200, 48)
    };
    let eval_of = |k: usize| {
        Evaluation::new(
            0.5 + (k as f64) * 1e-3,
            10.0 + k as f64,
            &RewardSpec::default(),
        )
    };
    for seed in 300..300 + seeds {
        let pool = Arc::new(MemoPool::new());
        let probes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(readers + writers));
        let mut handles = Vec::new();
        for w in 0..writers {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x77a1_u64.wrapping_add(w as u64));
                barrier.wait();
                // Interleave inserts with yields so probes race both
                // missing and present entries.
                let mut order: Vec<usize> = (0..keys).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                for k in order {
                    pool.insert_key(k as u64, eval_of(k));
                    if rng.random_range(0..3usize) == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for r in 0..readers {
            let pool = Arc::clone(&pool);
            let probes = Arc::clone(&probes);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xbead ^ (r as u64) << 8);
                barrier.wait();
                for _ in 0..batches {
                    let n = rng.random_range(0..=keys + 4);
                    let batch: Vec<u64> =
                        (0..n).map(|_| rng.random_range(0..keys) as u64).collect();
                    let out = pool.probe_many(&batch);
                    assert_eq!(out.len(), batch.len(), "seed {seed}: result order lost");
                    probes.fetch_add(batch.len(), Ordering::Relaxed);
                    for (k, slot) in batch.iter().zip(&out) {
                        if let Some(e) = slot {
                            let want = eval_of(*k as usize);
                            assert!(
                                e.reward.to_bits() == want.reward.to_bits(),
                                "seed {seed}: key {k} probed a torn or foreign value"
                            );
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("probe stress worker panicked");
        }
        assert_eq!(
            pool.hits() + pool.misses(),
            probes.load(Ordering::Relaxed),
            "seed {seed}: batched counter updates lost"
        );
        assert_eq!(
            pool.len(),
            keys,
            "seed {seed}: writers must fill the universe"
        );
        // Quiesced equivalence: one batched probe over the whole universe
        // agrees with per-key single probes, entry for entry.
        let universe: Vec<u64> = (0..keys as u64).collect();
        let batched = pool.probe_many(&universe);
        for (k, slot) in universe.iter().zip(&batched) {
            let single = pool.get_key(*k);
            assert_eq!(
                slot.map(|e| e.reward.to_bits()),
                single.map(|e| e.reward.to_bits()),
                "seed {seed}: batched and single probe disagree on key {k}"
            );
            assert!(
                slot.is_some(),
                "seed {seed}: key {k} missing after all writers joined"
            );
        }
    }
}

#[test]
fn schedules_differ_but_results_do_not() {
    // Different seeds produce different interleavings (different
    // hit/miss splits are fine) but the final cache contents must be the
    // same whenever the key universe is fully covered.
    let (workers, ops, keys) = if light_mode() {
        (4, 60, 8)
    } else {
        (8, 400, 16)
    };
    let mut contents = Vec::new();
    for seed in [7u64, 77, 777] {
        let (pool, observations, total) = run_schedule(seed, workers, ops, keys);
        check_invariants(seed, &pool, &observations, total);
        assert_eq!(pool.len(), keys, "ops must cover the whole key universe");
        let rewards: Vec<Option<u64>> = (0..keys)
            .map(|k| pool.get_key(universe_key(k)).map(|e| e.reward.to_bits()))
            .collect();
        assert!(
            rewards.iter().all(Option::is_some),
            "seed {seed}: a key is missing"
        );
        contents.push(rewards);
    }
    // Every evaluation is a pure function of its key, so the final
    // contents are schedule-independent.
    assert_eq!(contents[0], contents[1]);
    assert_eq!(contents[1], contents[2]);
}
