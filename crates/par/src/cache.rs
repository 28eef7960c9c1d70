//! Lock-striped concurrent memo table for evaluation results.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss counters of a [`StripedCache`], taken with [`StripedCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no value.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache was never hit).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another counter pair into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A concurrent `K → V` memo table sharded into independently locked
/// stripes selected by a caller-supplied canonical hash.
///
/// The caller provides the hash (rather than the std `Hash` machinery)
/// because stripe selection participates in the determinism contract:
/// the durable result store keys on `Traversal::canonical_hash`-style
/// stable hashes so the same build always shards the same way. Keys are
/// still compared by full equality inside a stripe, so hash collisions
/// cost a probe, never a wrong answer.
pub struct StripedCache<K, V> {
    stripes: Vec<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> StripedCache<K, V> {
    /// Creates a cache with `stripes` independent shards (minimum 1).
    pub fn new(stripes: usize) -> Self {
        StripedCache {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, counting a hit or a miss.
    pub fn get(&self, hash: u64, key: &K) -> Option<V> {
        let stripe = &self.stripes[(hash % self.stripes.len() as u64) as usize];
        let map = stripe.lock().expect("cache stripe poisoned");
        match map.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns the cached value for `key` without touching the hit/miss
    /// counters: maintenance reads (e.g. a store compacting its own
    /// segment from memory) are not lookups and must not inflate the
    /// statistics that prove cache reuse.
    pub fn peek(&self, hash: u64, key: &K) -> Option<V> {
        let stripe = &self.stripes[(hash % self.stripes.len() as u64) as usize];
        let map = stripe.lock().expect("cache stripe poisoned");
        map.get(key).cloned()
    }

    /// Inserts (or replaces) a value without touching the hit/miss
    /// counters: the warm-up path of a caller that already has the value
    /// in hand (e.g. a store loading committed records from disk) must
    /// not be mistaken for cache misses.
    pub fn preload(&self, hash: u64, key: K, value: V) {
        let stripe = &self.stripes[(hash % self.stripes.len() as u64) as usize];
        let mut map = stripe.lock().expect("cache stripe poisoned");
        map.insert(key, value);
    }

    /// Number of cached entries (sums all stripes; takes each lock).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_hashes_stay_correct() {
        // Same hash, different keys: both live in one stripe, equality
        // keeps them apart.
        let cache: StripedCache<u64, u64> = StripedCache::new(8);
        for k in 0..100u64 {
            assert_eq!(cache.get(5, &k), None);
            cache.preload(5, k, k * k);
        }
        for k in 0..100u64 {
            assert_eq!(cache.get(5, &k), Some(k * k));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 100,
                misses: 100
            }
        );
    }

    #[test]
    fn get_counts_and_preload_does_not() {
        let cache: StripedCache<u64, u32> = StripedCache::new(4);
        assert_eq!(cache.get(9, &9), None);
        cache.preload(9, 9, 7);
        assert_eq!(cache.get(9, &9), Some(7));
        assert_eq!(cache.peek(9, &9), Some(7), "peek sees the value");
        // Preload replaces silently.
        cache.preload(9, 9, 8);
        assert_eq!(cache.get(9, &9), Some(8));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_rate_is_well_defined() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let mut m = CacheStats { hits: 1, misses: 2 };
        m.merge(&s);
        assert_eq!(m, CacheStats { hits: 4, misses: 3 });
    }
}
