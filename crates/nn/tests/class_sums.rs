//! Concurrency and differential coverage for [`ClassSums`] prefix sums.
//!
//! The O(1) `class_sums` path lazily builds its prefix table behind a
//! `OnceLock`, so the first calls from a parallel rollout race on
//! initialization. These tests drive that race directly (and run under
//! Miri in CI) alongside an exhaustive scalar-oracle comparison.

use std::sync::{Arc, Barrier};

use cadmc_nn::zoo;
use cadmc_nn::ModelSpec;

fn models() -> Vec<ModelSpec> {
    // Squeezenet brings Fire modules (nested convs), mobilenet brings
    // depthwise layers — both exercise nonzero classes beyond plain conv.
    vec![
        zoo::tiny_cnn(),
        zoo::squeezenet_cifar(),
        zoo::mobilenet_cifar(),
    ]
}

#[test]
fn prefix_sums_match_scalar_oracle_on_every_range() {
    for spec in models() {
        let n = spec.len();
        for start in 0..=n {
            for end in start..=n {
                assert_eq!(
                    spec.class_sums(start, end),
                    spec.class_sums_scalar(start, end),
                    "{}: range [{start}, {end}) diverged from the scalar walk",
                    spec.name()
                );
            }
        }
    }
}

#[test]
fn racing_first_use_yields_one_consistent_prefix_table() {
    // Many threads hit the cold OnceLock at once; every observed answer
    // must equal the scalar oracle regardless of which thread won init.
    let threads = 8;
    for spec in models() {
        let spec = Arc::new(spec);
        let n = spec.len();
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let spec = Arc::clone(&spec);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Thread-dependent range order so initialization is
                    // reached through different first queries.
                    for i in 0..=n {
                        let (start, end) = if t % 2 == 0 { (0, i) } else { (i, n) };
                        let got = spec.class_sums(start, end);
                        assert_eq!(got, spec.class_sums_scalar(start, end));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("class-sums worker panicked");
        }
    }
}

#[test]
fn empty_and_full_ranges_are_exact() {
    for spec in models() {
        let n = spec.len();
        let zero = spec.class_sums(0, 0);
        assert_eq!(zero.weighted_layers, 0);
        assert!(zero.maccs.iter().all(|&m| m == 0));
        let full = spec.class_sums(0, n);
        assert_eq!(
            full.maccs.iter().sum::<u64>(),
            spec.total_maccs(),
            "{}: class totals must partition total MACCs",
            spec.name()
        );
    }
}
