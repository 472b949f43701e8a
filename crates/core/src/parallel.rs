//! Parallel episode rollouts.
//!
//! The REINFORCE searches (branch, tree, and the Fig. 7 baselines) spend
//! almost all their time *rolling out* episodes — sampling a candidate and
//! evaluating it — and almost none applying gradient updates. This module
//! provides the worker-pool primitive those searches use to fan a batch of
//! episodes across threads.
//!
//! # Determinism
//!
//! Results are **bit-identical for any worker count**, by construction:
//!
//! * every episode draws from its own RNG stream, [`episode_stream`]
//!   `(seed, salt, episode)`, so no episode observes another's draws.
//!   It is the one place an episode stream is seeded. The salts sit
//!   beside it: [`BRANCH_SALT`] (Alg. 1), [`TREE_SALT`] (Alg. 3),
//!   [`RANDOM_TREE_SALT`] and [`EGREEDY_TREE_SALT`] (Fig. 7's tree-space
//!   baselines), and [`BASELINE_SALT`], zero, for the branch-space random
//!   and ε-greedy baselines;
//! * the batch size is fixed by [`SearchConfig::rollout_batch`], not by
//!   the worker count — workers only affect *scheduling*;
//! * batch results are returned in episode order and all sequential state
//!   (policy updates, best-so-far tracking, EMA baseline) is applied in
//!   that order after the batch completes.
//!
//! [`SearchConfig::rollout_batch`]: crate::search::SearchConfig::rollout_batch

use cadmc_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream salt of the branch search, Alg. 1 (`"branch"`).
pub const BRANCH_SALT: u64 = 0x6272_616e_6368;
/// Stream salt of the tree search, Alg. 3 (`"tree"`).
pub const TREE_SALT: u64 = 0x7472_6565;
/// Stream salt of the branch-space random and ε-greedy baselines: none,
/// so both draw the same streams.
pub const BASELINE_SALT: u64 = 0;
/// Stream salt of Fig. 7's tree-space random search (`"rand"`).
pub const RANDOM_TREE_SALT: u64 = 0x7261_6e64;
/// Stream salt of Fig. 7's tree-space ε-greedy search (`"egre"`).
pub const EGREEDY_TREE_SALT: u64 = 0x6567_7265;

/// The RNG stream of one search episode: `seed ^ salt ^ episode`.
///
/// The XOR does not mix: for a seed below 128, seeds only permute
/// episodes 0–127 among themselves, so two such seeds share most of
/// their streams.
pub fn episode_stream(seed: u64, salt: u64, episode: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt ^ episode as u64)
}

/// Worker-pool sizing for episode rollouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of rollout worker threads (minimum 1 = serial).
    pub workers: usize,
}

impl Parallelism {
    /// Single-threaded rollouts.
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Whether this runs everything on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.workers <= 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

/// Maps `f` over `0..n`, fanning contiguous index chunks across the
/// calling thread and up to `workers − 1` scoped threads. The output is always in index order, and `f`
/// must not depend on cross-index execution order (give each index its
/// own RNG stream). With `workers <= 1` (or `n <= 1`) this is a plain
/// serial map with no thread overhead.
///
/// When telemetry is enabled each fan-out opens a *region* (numbered on
/// the calling thread, so numbering follows program order regardless of
/// worker count) and every index runs in stream `i + 1` of that region —
/// on the serial and threaded paths alike — so traces merge identically
/// for any `workers` value.
pub fn par_map_indexed<U, F>(n: usize, workers: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    let region = telemetry::open_region();
    let run = move |i: usize| telemetry::in_stream(region, i as u64 + 1, || f(i));
    if workers == 1 {
        return (0..n).map(run).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let run = &run;
        // Chunk 0 runs on the calling thread, which would otherwise only
        // wait: one spawn fewer per fan-out.
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let start = (w * chunk).min(n);
                let end = ((w + 1) * chunk).min(n);
                s.spawn(move || (start..end).map(run).collect::<Vec<U>>())
            })
            .collect();
        out.extend((0..chunk.min(n)).map(run));
        for h in handles {
            out.extend(h.join().expect("rollout worker panicked"));
        }
    });
    out
}

/// Maps `f` over a slice with up to `workers` threads, preserving order.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), workers, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn output_order_is_index_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_indexed(37, workers, |i| i * i), expected);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = par_map_indexed(100, 4, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(par_map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 8, |i| i), vec![0]);
        assert_eq!(par_map_indexed(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn slice_variant_preserves_order() {
        let items = vec!["a", "bb", "ccc"];
        assert_eq!(par_map(&items, 2, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn parallelism_constructors_clamp() {
        assert_eq!(Parallelism::new(0).workers, 1);
        assert!(Parallelism::serial().is_serial());
        assert!(Parallelism::available().workers >= 1);
        assert_eq!(Parallelism::default(), Parallelism::serial());
    }
}
