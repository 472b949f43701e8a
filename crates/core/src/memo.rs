//! Candidate-evaluation memoization — the paper's "memory pool storing the
//! hash code of searched models to avoid redundant computations" (§VII-A,
//! Training time).
//!
//! The pool is one `Mutex<HashMap>` shared by every rollout worker. Its
//! hit/miss counters live inside the same lock, next to the map access
//! each lookup makes anyway. They are the *only* reporting surface —
//! totals are published into the telemetry metrics registry via
//! [`MemoPool::publish_telemetry`] rather than printed ad hoc. The pool
//! has no size bound: entries live as long as the pool.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use cadmc_telemetry as telemetry;

use crate::candidate::Candidate;
use crate::reward::Evaluation;

/// The locked state: entries plus the lookup counters.
#[derive(Debug, Default)]
struct Table {
    map: HashMap<u64, Evaluation>,
    hits: usize,
    misses: usize,
}

/// Thread-safe evaluation cache keyed by (model structure, cut, quantized
/// bandwidth).
#[derive(Debug, Default)]
pub struct MemoPool {
    table: Mutex<Table>,
}

impl MemoPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache key for a candidate at a bandwidth (bandwidth quantized to
    /// 0.01 Mbps so replayed levels hit the same entry).
    pub fn key(candidate: &Candidate, bandwidth_mbps: f64) -> u64 {
        let mut h = DefaultHasher::new();
        candidate.model.structural_hash().hash(&mut h);
        candidate.edge_layers.hash(&mut h);
        ((bandwidth_mbps * 100.0).round() as i64).hash(&mut h);
        h.finish()
    }

    /// Locks the table, recovering from poisoning: a panicking evaluator
    /// can only leave the table in a consistent state (entries are
    /// inserted whole, counters bumped in the same critical section), so
    /// the cache stays usable instead of cascading panics through every
    /// other rollout worker.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached evaluation or computes and stores it. The lock
    /// is never held while `compute` runs; two threads racing on the same
    /// fresh key may both compute, but both store the same value so
    /// lookups stay consistent.
    pub fn get_or_insert_with(
        &self,
        candidate: &Candidate,
        bandwidth_mbps: f64,
        compute: impl FnOnce() -> Evaluation,
    ) -> Evaluation {
        self.get_or_insert_key_with(Self::key(candidate, bandwidth_mbps), compute)
    }

    /// Key-addressed form of [`MemoPool::get_or_insert_with`], for callers
    /// that derive the key without composing a candidate (the delta-state
    /// hot path).
    pub fn get_or_insert_key_with(
        &self,
        key: u64,
        compute: impl FnOnce() -> Evaluation,
    ) -> Evaluation {
        {
            let mut table = self.lock();
            if let Some(&e) = table.map.get(&key) {
                table.hits += 1;
                return e;
            }
        }
        let e = compute();
        let mut table = self.lock();
        table.misses += 1;
        table.map.insert(key, e);
        e
    }

    /// Stores an evaluation under a key. Does not touch the hit/miss
    /// counters — pair with [`MemoPool::get_key`] or
    /// [`MemoPool::probe_many`], which already counted the miss.
    pub fn insert_key(&self, key: u64, e: Evaluation) {
        self.lock().map.insert(key, e);
    }

    /// Cached evaluation for a candidate, if present (no compute, counts
    /// as a hit or miss).
    pub fn get(&self, candidate: &Candidate, bandwidth_mbps: f64) -> Option<Evaluation> {
        self.get_key(Self::key(candidate, bandwidth_mbps))
    }

    /// Cached evaluation under a key, if present (counts as a hit or
    /// miss).
    pub fn get_key(&self, key: u64) -> Option<Evaluation> {
        let mut table = self.lock();
        let found = table.map.get(&key).copied();
        match found {
            Some(_) => table.hits += 1,
            None => table.misses += 1,
        }
        found
    }

    /// Batched probe for an expansion front: looks up every key under one
    /// lock acquisition. Equivalent to calling [`MemoPool::get_key`] per
    /// key — pinned by the batched-vs-single equivalence test.
    pub fn probe_many(&self, keys: &[u64]) -> Vec<Option<Evaluation>> {
        let mut table = self.lock();
        let out: Vec<_> = keys.iter().map(|k| table.map.get(k).copied()).collect();
        let hits = out.iter().filter(|e| e.is_some()).count();
        table.hits += hits;
        table.misses += keys.len() - hits;
        out
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.lock().hits
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> usize {
        self.lock().misses
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes the pool's totals into the telemetry registry as the
    /// `memo.hits` / `memo.misses` / `memo.entries` counters. Call when
    /// the pool's search finishes; a no-op when telemetry is off.
    pub fn publish_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let (hits, misses, entries) = {
            let table = self.lock();
            (table.hits, table.misses, table.map.len())
        };
        telemetry::counter!("memo.hits", hits as u64);
        telemetry::counter!("memo.misses", misses as u64);
        telemetry::counter!("memo.entries", entries as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardSpec;
    use cadmc_nn::zoo;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn second_lookup_hits() {
        let pool = MemoPool::new();
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        let spec = RewardSpec::default();
        let mut computed = 0;
        for _ in 0..3 {
            let e = pool.get_or_insert_with(&c, 10.0, || {
                computed += 1;
                Evaluation::new(0.9, 50.0, &spec)
            });
            assert_eq!(e.accuracy, 0.9);
        }
        assert_eq!(computed, 1);
        assert_eq!(pool.hits(), 2);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        // The pool is shared across rollout workers: hammer one key from
        // several threads and check every thread saw the same evaluation
        // and the entry was computed at most a few times (the
        // get/compute/insert window allows benign duplicate compute).
        let pool = std::sync::Arc::new(MemoPool::new());
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        let spec = RewardSpec::default();
        let computed = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            let c = c.clone();
            let computed = computed.clone();
            handles.push(std::thread::spawn(move || {
                let mut rewards = Vec::new();
                for _ in 0..200 {
                    let e = pool.get_or_insert_with(&c, 10.0, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        Evaluation::new(0.9, 50.0, &RewardSpec::default())
                    });
                    rewards.push(e.reward);
                }
                rewards
            }));
        }
        let expected = spec.reward(0.9, 50.0);
        for h in handles {
            for r in h.join().expect("thread ok") {
                assert_eq!(r, expected);
            }
        }
        assert!(
            computed.load(Ordering::Relaxed) <= 8,
            "entry recomputed more than once per thread"
        );
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn different_bandwidths_are_different_keys() {
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        assert_ne!(MemoPool::key(&c, 1.0), MemoPool::key(&c, 2.0));
        assert_eq!(MemoPool::key(&c, 1.0), MemoPool::key(&c, 1.001));
    }

    #[test]
    fn counters_sum_to_lookups_across_threads() {
        // hits + misses must equal total lookups even under contention.
        let pool = std::sync::Arc::new(MemoPool::new());
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = pool.clone();
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let bw = 1.0 + ((t * 100 + i) % 40) as f64;
                    pool.get_or_insert_with(&c, bw, || {
                        Evaluation::new(0.9, 50.0, &RewardSpec::default())
                    });
                }
            }));
        }
        for h in handles {
            h.join().expect("thread ok");
        }
        assert_eq!(pool.hits() + pool.misses(), 400);
        // Racing threads may double-compute a key, so misses can exceed
        // distinct keys but never drop below them.
        assert!(pool.misses() >= 40);
        assert_eq!(pool.len(), 40);
    }

    #[test]
    fn publish_telemetry_emits_exactly_the_three_totals() {
        let pool = MemoPool::new();
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        let spec = RewardSpec::default();
        pool.get_or_insert_with(&c, 1.0, || Evaluation::new(0.9, 50.0, &spec));
        pool.get_or_insert_with(&c, 1.0, || unreachable!("must hit"));
        pool.get_or_insert_with(&c, 2.0, || Evaluation::new(0.9, 60.0, &spec));
        pool.publish_telemetry(); // telemetry off: no-op
        let ((), report) = cadmc_telemetry::testing::with_collector(|| {
            pool.publish_telemetry();
        });
        let memo_counters: Vec<(&str, u64)> = report
            .metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("memo."))
            .map(|(name, v)| (name.as_str(), *v))
            .collect();
        assert_eq!(
            memo_counters,
            [("memo.entries", 2), ("memo.hits", 1), ("memo.misses", 2)]
        );
        assert!(report.events.iter().all(|e| e.name != "memo.shard"));
        assert!(report
            .metrics
            .gauges
            .iter()
            .all(|(name, _)| !name.starts_with("memo.shard")));
    }

    #[test]
    fn batched_probe_matches_single_probes() {
        // probe_many must agree with per-key get_key on both values and
        // counter deltas, duplicate keys within one batch included.
        let spec = RewardSpec::default();
        let single = MemoPool::new();
        let batched = MemoPool::new();
        let keys: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for (n, &k) in keys.iter().enumerate().filter(|(n, _)| n % 3 != 0) {
            let e = Evaluation::new(0.9, 10.0 + n as f64, &spec);
            single.insert_key(k, e);
            batched.insert_key(k, e);
        }
        let mut probe: Vec<u64> = keys.clone();
        probe.extend_from_slice(&keys[..8]); // duplicates
        let got = batched.probe_many(&probe);
        let want: Vec<Option<Evaluation>> = probe.iter().map(|&k| single.get_key(k)).collect();
        assert_eq!(got, want);
        assert_eq!(batched.hits(), single.hits());
        assert_eq!(batched.misses(), single.misses());
    }

    #[test]
    fn probe_many_of_empty_front_is_empty() {
        let pool = MemoPool::new();
        assert!(pool.probe_many(&[]).is_empty());
        assert_eq!(pool.hits() + pool.misses(), 0);
    }

    #[test]
    fn key_api_interoperates_with_candidate_api() {
        let pool = MemoPool::new();
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        let spec = RewardSpec::default();
        let key = MemoPool::key(&c, 10.0);
        assert_eq!(pool.get_key(key), None);
        let e = pool.get_or_insert_with(&c, 10.0, || Evaluation::new(0.9, 50.0, &spec));
        assert_eq!(pool.get_key(key), Some(e));
        let via_key = pool.get_or_insert_key_with(key, || unreachable!("must hit"));
        assert_eq!(via_key, e);
    }
}
