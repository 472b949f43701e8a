//! Shared LRU cache of searched model trees, keyed by
//! `(IR hash, context-distribution hash)`.
//!
//! The serving layer runs one tree search per *distinct* (model, context
//! distribution) pair and then reuses the result across every session
//! that presents the same pair. An entry holds the tree inside its
//! [`TreePlan`]: the context descriptor in the key names the device, so
//! an entry has one evaluation environment, and every session on the key
//! walks the same plan, composing each branch once between them. Entries
//! are `Arc`s, so sessions can keep walking a plan even after the cache
//! evicts it; the plan is freed with the last of them. Eviction is
//! least-recently-used over a logical tick counter (no wall clock — the
//! cache must behave identically across runs and worker counts).
//!
//! A key being searched has an in-flight slot: a second caller on it
//! waits for the first caller's plan instead of searching again, and
//! counts as a hit.
//!
//! Like [`MemoPool`](crate::memo::MemoPool), the only reporting surface
//! is the telemetry metrics registry ([`TreeCache::publish_telemetry`]);
//! the cache itself never prints.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cadmc_telemetry as telemetry;

use crate::executor::TreePlan;

/// Default number of distinct (model, context) trees kept resident.
pub const DEFAULT_TREE_CAPACITY: usize = 8;

/// A cached tree with its plan.
pub type CachedPlan = Arc<TreePlan<'static>>;

/// One cached plan plus its LRU bookkeeping.
#[derive(Debug)]
struct Entry {
    key: (u64, u64),
    plan: CachedPlan,
    last_used: u64,
}

/// Interior state: a small vector scan is cheaper and more predictable
/// than a map for the handful of distinct trees a server keeps warm.
#[derive(Debug)]
struct Inner {
    entries: Vec<Entry>,
    /// Keys whose first caller is searching right now.
    searching: Vec<(u64, u64)>,
    tick: u64,
}

/// Counter snapshot (see [`TreeCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeCacheStats {
    /// Lookups served from the cache, waiting out another caller's
    /// search included.
    pub hits: usize,
    /// Lookups that had to search.
    pub misses: usize,
    /// Entries dropped by LRU eviction.
    pub evictions: usize,
    /// Entries currently cached.
    pub entries: usize,
}

/// Thread-safe LRU cache of [`CachedPlan`]s keyed by
/// `(ir_hash, ctx_hash)`.
#[derive(Debug)]
pub struct TreeCache {
    inner: Mutex<Inner>,
    /// Signalled whenever a search ends, in success or panic.
    searched: Condvar,
    capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// Clears a key's in-flight slot when its search ends — by return or by
/// unwinding — and wakes the callers waiting on it.
struct SearchSlot<'c> {
    cache: &'c TreeCache,
    key: (u64, u64),
}

impl Drop for SearchSlot<'_> {
    fn drop(&mut self) {
        self.cache.lock().searching.retain(|k| *k != self.key);
        self.cache.searched.notify_all();
    }
}

impl TreeCache {
    /// A cache holding up to `capacity` trees (floored at 1).
    pub fn new(capacity: usize) -> Self {
        TreeCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                searching: Vec::new(),
                tick: 0,
            }),
            searched: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Poison-recovering lock: a panicking holder leaves the state
    /// consistent (every mutation is a single push/remove/assign).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a plan, refreshing its recency on hit.
    pub fn get(&self, key: (u64, u64)) -> Option<CachedPlan> {
        let mut inner = self.lock();
        let found = Self::touch(&mut inner, key);
        drop(inner);
        self.count(found.is_some());
        found
    }

    /// Advances the tick and returns `key`'s plan, refreshing its
    /// recency, if it is resident.
    fn touch(inner: &mut Inner, key: (u64, u64)) -> Option<CachedPlan> {
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.entries.iter_mut().find(|e| e.key == key)?;
        e.last_used = tick;
        Some(Arc::clone(&e.plan))
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the cached plan or searches, stores and returns it. The
    /// lock is *not* held while `search` runs. A caller that finds `key`
    /// being searched by another waits for that search and takes its
    /// plan as a hit; if the search panics, one waiter searches in its
    /// place.
    pub fn get_or_insert_with<F>(&self, key: (u64, u64), search: F) -> CachedPlan
    where
        F: FnOnce() -> TreePlan<'static>,
    {
        let mut inner = self.lock();
        loop {
            if let Some(plan) = Self::touch(&mut inner, key) {
                drop(inner);
                self.count(true);
                return plan;
            }
            if !inner.searching.contains(&key) {
                break;
            }
            inner = self
                .searched
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.searching.push(key);
        drop(inner);
        self.count(false);
        let _slot = SearchSlot { cache: self, key };
        self.insert(key, Arc::new(search()))
    }

    /// Inserts a plan, evicting the least-recently-used entry when full.
    /// Returns the resident plan for `key` (the existing one if another
    /// thread inserted first).
    pub fn insert(&self, key: (u64, u64), plan: CachedPlan) -> CachedPlan {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = tick;
            return Arc::clone(&e.plan);
        }
        let mut evicted = 0usize;
        while inner.entries.len() >= self.capacity {
            let oldest = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match oldest {
                Some(i) => {
                    inner.entries.remove(i);
                    evicted += 1;
                }
                None => break,
            }
        }
        inner.entries.push(Entry {
            key,
            plan: Arc::clone(&plan),
            last_used: tick,
        });
        let resident = inner.entries.len();
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            telemetry::event!(
                "tree_cache.evict",
                evicted = evicted,
                resident = resident,
                ir_hash = key.0,
                ctx_hash = key.1,
            );
        }
        plan
    }

    /// Number of resident trees.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by LRU eviction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TreeCacheStats {
        TreeCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            entries: self.len(),
        }
    }

    /// Publishes cache totals into the telemetry metrics registry
    /// (`tree_cache.hits` / `.misses` / `.evictions` / `.entries`
    /// counters plus `tree_cache.{hit_rate,evictions,entries}` gauges
    /// for scrapers). No-op when telemetry is disabled.
    pub fn publish_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let s = self.stats();
        telemetry::counter!("tree_cache.hits", s.hits as u64);
        telemetry::counter!("tree_cache.misses", s.misses as u64);
        telemetry::counter!("tree_cache.evictions", s.evictions as u64);
        telemetry::counter!("tree_cache.entries", s.entries as u64);
        let lookups = s.hits + s.misses;
        let rate = if lookups == 0 {
            0.0
        } else {
            s.hits as f64 / lookups as f64
        };
        telemetry::gauge!("tree_cache.hit_rate", rate);
        telemetry::gauge!("tree_cache.evictions", s.evictions as f64);
        telemetry::gauge!("tree_cache.entries", s.entries as f64);
    }
}

impl Default for TreeCache {
    fn default() -> Self {
        TreeCache::new(DEFAULT_TREE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ModelTree;
    use crate::EvalEnv;
    use cadmc_nn::zoo;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    fn plan(k: usize) -> TreePlan<'static> {
        let levels: Vec<f64> = (0..k).map(|i| 2.0 + 10.0 * i as f64).collect();
        TreePlan::new(EvalEnv::phone(), ModelTree::new(zoo::tiny_cnn(), 2, levels))
    }

    #[test]
    fn hit_returns_same_tree() {
        let cache = TreeCache::new(2);
        let a = cache.get_or_insert_with((1, 1), || plan(2));
        let b = cache.get_or_insert_with((1, 1), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = TreeCache::new(2);
        cache.get_or_insert_with((1, 0), || plan(2));
        cache.get_or_insert_with((2, 0), || plan(2));
        // Touch (1, 0) so (2, 0) is the LRU victim.
        assert!(cache.get((1, 0)).is_some());
        cache.get_or_insert_with((3, 0), || plan(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get((2, 0)).is_none());
        assert!(cache.get((1, 0)).is_some());
        assert!(cache.get((3, 0)).is_some());
    }

    #[test]
    fn evicted_tree_stays_usable_through_arc() {
        let cache = TreeCache::new(1);
        let held = cache.get_or_insert_with((1, 0), || plan(2));
        cache.get_or_insert_with((2, 0), || plan(3));
        assert!(cache.get((1, 0)).is_none());
        // The session that held the Arc keeps a fully usable tree.
        assert_eq!(held.tree().k(), 2);
    }

    #[test]
    fn capacity_floors_at_one() {
        let cache = TreeCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.get_or_insert_with((1, 0), || plan(2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn publish_telemetry_reports_to_registry() {
        let cache = TreeCache::new(2);
        cache.get_or_insert_with((9, 9), || plan(2));
        cache.get_or_insert_with((9, 9), || unreachable!("must hit"));
        cache.publish_telemetry(); // telemetry off: no-op
        let ((), report) = cadmc_telemetry::testing::with_collector(|| {
            cache.publish_telemetry();
        });
        assert_eq!(report.metrics.counter("tree_cache.hits"), Some(1));
        assert_eq!(report.metrics.counter("tree_cache.misses"), Some(1));
        assert_eq!(report.metrics.counter("tree_cache.entries"), Some(1));
        assert_eq!(report.metrics.gauge("tree_cache.hit_rate"), Some(0.5));
        assert_eq!(report.metrics.gauge("tree_cache.entries"), Some(1.0));
    }

    #[test]
    fn eviction_emits_event_when_traced() {
        let cache = TreeCache::new(1);
        let ((), report) = cadmc_telemetry::testing::with_collector(|| {
            cache.get_or_insert_with((1, 0), || plan(2));
            cache.get_or_insert_with((2, 0), || plan(3));
            cache.publish_telemetry();
        });
        let evict = report
            .events
            .iter()
            .find(|e| e.name == "tree_cache.evict")
            .expect("eviction event");
        assert_eq!(evict.field_f64("evicted"), Some(1.0));
        assert_eq!(evict.field_f64("ir_hash"), Some(2.0));
        assert_eq!(report.metrics.counter("tree_cache.evictions"), Some(1));
        assert_eq!(report.metrics.gauge("tree_cache.evictions"), Some(1.0));
    }

    #[test]
    fn racing_misses_on_one_key_search_once() {
        let cache = TreeCache::new(2);
        let searches = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let plans: Vec<CachedPlan> = thread::scope(|s| {
            let runs: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.get_or_insert_with((7, 7), || {
                            searches.fetch_add(1, Ordering::SeqCst);
                            // Long enough for every other thread to find
                            // the key in flight.
                            thread::sleep(Duration::from_millis(50));
                            plan(2)
                        })
                    })
                })
                .collect();
            runs.into_iter()
                .map(|h| h.join().expect("lookup thread"))
                .collect()
        });
        assert_eq!(searches.load(Ordering::SeqCst), 1);
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7, "a waiter ran no search");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_panicking_search_frees_its_key_for_a_waiter() {
        let cache = TreeCache::new(2);
        let (searching_tx, searching_rx) = std::sync::mpsc::sync_channel(1);
        thread::scope(|s| {
            let doomed = s.spawn(|| {
                cache.get_or_insert_with((3, 3), || {
                    searching_tx.send(()).expect("waiter listens");
                    thread::sleep(Duration::from_millis(50));
                    panic!("search failed");
                })
            });
            // The doomed search holds the key's slot before this lookup.
            searching_rx.recv().expect("search started");
            let resident = cache.get_or_insert_with((3, 3), || plan(3));
            assert_eq!(resident.tree().k(), 3, "the waiter searched in its place");
            assert!(doomed.join().is_err());
        });
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
        assert!(cache.get((3, 3)).is_some());
    }
}
