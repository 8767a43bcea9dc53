//! Generation-keyed, concurrently readable LRU caches over query results.
//!
//! Real query traffic repeats heavily — the same `(source)` one-to-all
//! requests arrive again and again (commuting-demand workloads). A
//! [`ProfileCache`] memoizes whole [`ProfileSet`]s behind `Arc`s, keyed by
//! `(source, network epoch, timetable generation)`: a hit hands out the
//! shared result with no search and no copy, and a delay update
//! ([`Network::apply_delay`](crate::network::Network::apply_delay)) bumps
//! the generation, so every stale entry simply stops matching — no explicit
//! invalidation pass — and ages out through normal LRU pressure. The epoch
//! ([`Network::epoch`](crate::network::Network::epoch)) is a process-unique
//! per-instance stamp: engines are network-free, so one cached engine may
//! legally serve several networks, and freshly built (or cloned) networks
//! whose generations coincide must still never alias in the cache.
//!
//! Since the snapshot-isolation refactor every cache stripe is
//! **concurrently readable**: the entry map sits behind an `RwLock`, the
//! hit/miss/eviction counters and the per-entry LRU stamps are atomics, so
//! `get` takes only the shared read lock and `&self` — many reader threads
//! probe one stripe in parallel while `insert` briefly takes the write
//! lock. Under a single thread the logical tick stream is identical to the
//! old exclusive cache, so LRU order stays total and deterministic.
//!
//! The cache is opt-in per engine
//! ([`ProfileEngine::with_cache`](crate::ProfileEngine::with_cache)) and
//! fixed-capacity; eviction is least-recently-used, tracked by a logical
//! tick. Hit/miss/eviction counts surface both per query (in
//! [`QueryStats`]) and cumulatively ([`CacheStats`]).
//! The same core backs the station-to-station result cache
//! ([`S2sCache`](crate::s2s::S2sCache)).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use pt_core::StationId;

use crate::profile_set::ProfileSet;
use crate::stats::QueryStats;

/// Cumulative counters and occupancy of a [`ProfileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a search.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Current number of cached profile sets.
    pub entries: usize,
    /// Maximum number of cached profile sets.
    pub capacity: usize,
}

impl CacheStats {
    /// Accumulates another cache's counters into `self` — the aggregate
    /// view over a *striped* cache (one stripe per shard, see
    /// [`crate::shard::ShardedService::cache_stats`]): counters and
    /// occupancy add, the capacity is the striped total.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }

    /// `hits / (hits + misses)`, 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Logical last-use stamp; every touch stores a freshly drawn
    /// cache-wide tick, so single-threaded LRU order stays total and
    /// deterministic (concurrent touches interleave but stay unique).
    last_used: AtomicU64,
}

/// The shared interior-mutable LRU core behind [`ProfileCache`] and the
/// station-to-station result cache: an `RwLock`-ed map with atomic
/// counters. `get` needs only the read lock; `insert` takes the write
/// lock and runs the `O(capacity)` victim scan.
#[derive(Debug)]
pub(crate) struct LruCore<K, V> {
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: RwLock<HashMap<K, Entry<V>>>,
}

impl<K: Copy + Eq + Hash, V: Clone> LruCore<K, V> {
    pub(crate) fn new(capacity: usize) -> LruCore<K, V> {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCore {
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: RwLock::new(HashMap::with_capacity(capacity)),
        }
    }

    /// Shared-lock lookup, refreshing the entry's LRU stamp on a hit.
    pub(crate) fn get(&self, key: K) -> Option<V> {
        let entries = self.entries.read().unwrap();
        // The tick must be drawn *under* the lock: drawn before it, a hit
        // could stall between `fetch_add` and the read lock while other
        // probes and an insert's victim scan run — the hit's stale stamp
        // then marks the entry it is about to touch as the LRU victim, and
        // the hottest entry gets evicted.
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        match entries.get(&key) {
            Some(e) => {
                e.last_used.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Exclusive-lock store; returns `true` iff an eviction happened.
    /// Re-inserting an existing key replaces the value in place.
    pub(crate) fn insert(&self, key: K, value: V) -> bool {
        let mut entries = self.entries.write().unwrap();
        // Under the lock for the same reason as in `get`: a tick drawn
        // before it can stamp this entry older than touches that really
        // happened earlier, misordering the next victim scan.
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = entries.get_mut(&key) {
            e.value = value;
            e.last_used.store(tick, Ordering::Relaxed);
            return false;
        }
        let mut evicted = false;
        if entries.len() >= self.capacity {
            // O(capacity) scan — capacities are small and fixed, and the
            // unique ticks make the minimum (the LRU victim) unambiguous.
            let lru = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(&k, _)| k)
                .expect("cache is non-empty when full");
            entries.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted = true;
        }
        entries.insert(key, Entry { value, last_used: AtomicU64::new(tick) });
        evicted
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    pub(crate) fn clear(&self) {
        self.entries.write().unwrap().clear();
    }
}

impl<K: Copy + Eq + Hash, V: Clone> Clone for LruCore<K, V> {
    /// Snapshots entries, stamps and counters — a clone observes the same
    /// state but shares nothing with the original.
    fn clone(&self) -> Self {
        let entries = self.entries.read().unwrap();
        let copied: HashMap<K, Entry<V>> = entries
            .iter()
            .map(|(&k, e)| {
                let stamp = e.last_used.load(Ordering::Relaxed);
                (k, Entry { value: e.value.clone(), last_used: AtomicU64::new(stamp) })
            })
            .collect();
        LruCore {
            capacity: self.capacity,
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            evictions: AtomicU64::new(self.evictions.load(Ordering::Relaxed)),
            entries: RwLock::new(copied),
        }
    }
}

/// How [`resolve`] answered one key: from a cached value — a probe hit, or
/// an in-batch duplicate of an earlier miss — or by its own computed result.
pub(crate) enum Resolved<V, R> {
    Cached(V),
    Computed(R),
}

/// Memoization, written once for both engines: answers `keys` through
/// `cache`, in input order. Hits are probed up front; the distinct misses
/// go through **one** `compute` call (given their positions in `keys`, it
/// returns one result each) and are stored as `share(result)`; a key
/// repeated within the batch is computed once and its duplicates are
/// answered from that result — even when a smaller-than-batch cache has
/// already evicted the entry again. Every answer comes with the cache
/// counters of its query (`cache_hits = 1`, or `cache_misses = 1` plus the
/// eviction its store caused) for the caller to add to its stats. Without
/// a cache every key is computed and no counter is set.
pub(crate) fn resolve<K, V, R>(
    cache: Option<&LruCore<K, V>>,
    keys: &[K],
    compute: impl FnOnce(&[usize]) -> Vec<R>,
    share: impl Fn(&R) -> V,
) -> Vec<(Resolved<V, R>, QueryStats)>
where
    K: Copy + Eq + Hash,
    V: Clone,
{
    let Some(cache) = cache else {
        let all: Vec<usize> = (0..keys.len()).collect();
        let computed = compute(&all).into_iter();
        return computed.map(|r| (Resolved::Computed(r), QueryStats::default())).collect();
    };
    // `Err(j)`: answered by the `j`-th distinct miss.
    let mut misses: Vec<usize> = Vec::new();
    let probed: Vec<Result<V, usize>> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| match misses.iter().position(|&m| keys[m] == key) {
            Some(j) => Err(j),
            None => cache.get(key).ok_or_else(|| {
                misses.push(i);
                misses.len() - 1
            }),
        })
        .collect();
    let computed = if misses.is_empty() { Vec::new() } else { compute(&misses) };
    assert_eq!(computed.len(), misses.len(), "one result per distinct miss");
    // Per distinct miss: its result (until the first item naming it takes
    // it), the shared value its duplicates are answered from, and whether
    // storing it evicted an entry.
    let mut searched: Vec<(Option<R>, V, bool)> = misses
        .iter()
        .zip(computed)
        .map(|(&i, r)| {
            let value = share(&r);
            let evicted = cache.insert(keys[i], value.clone());
            (Some(r), value, evicted)
        })
        .collect();
    let hit = QueryStats { cache_hits: 1, ..QueryStats::default() };
    probed
        .into_iter()
        .map(|probe| match probe {
            Ok(value) => (Resolved::Cached(value), hit),
            Err(j) => match searched[j].0.take() {
                Some(r) => {
                    let cache_evictions = searched[j].2 as u64;
                    let miss =
                        QueryStats { cache_misses: 1, cache_evictions, ..QueryStats::default() };
                    (Resolved::Computed(r), miss)
                }
                None => (Resolved::Cached(searched[j].1.clone()), hit),
            },
        })
        .collect()
}

/// A cache key: `(source, network epoch, timetable generation)`.
type Key = (StationId, u64, u64);

/// A fixed-capacity, concurrently readable LRU over `Arc<ProfileSet>`
/// keyed by `(source, network epoch, timetable generation)`. All methods
/// take `&self`; see the module docs for the locking discipline.
#[derive(Debug, Clone)]
pub struct ProfileCache {
    pub(crate) core: LruCore<Key, Arc<ProfileSet>>,
}

impl ProfileCache {
    /// An empty cache holding at most `capacity` profile sets.
    pub fn new(capacity: usize) -> ProfileCache {
        ProfileCache { core: LruCore::new(capacity) }
    }

    /// Looks up the profiles of `source` on the network identified by
    /// `(epoch, generation)`, refreshing the entry's LRU position. Counts
    /// a hit or a miss. Takes only the shared read lock — safe to call
    /// from many reader threads at once.
    pub fn get(&self, source: StationId, epoch: u64, generation: u64) -> Option<Arc<ProfileSet>> {
        self.core.get((source, epoch, generation))
    }

    /// Stores a result, evicting the least-recently-used entry when full.
    /// Returns `true` iff an eviction happened. Re-inserting an existing
    /// key replaces the value in place (no eviction).
    pub fn insert(
        &self,
        source: StationId,
        epoch: u64,
        generation: u64,
        set: Arc<ProfileSet>,
    ) -> bool {
        self.core.insert((source, epoch, generation), set)
    }

    /// Cumulative counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        self.core.stats()
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.core.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.core.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{Period, Profile};

    fn set(source: u32) -> Arc<ProfileSet> {
        Arc::new(ProfileSet::new(
            StationId(source),
            Period::DAY,
            vec![Profile::EMPTY, Profile::EMPTY],
        ))
    }

    #[test]
    fn hit_returns_the_shared_set() {
        let c = ProfileCache::new(2);
        let s = set(0);
        c.insert(StationId(0), 7, 0, Arc::clone(&s));
        let hit = c.get(StationId(0), 7, 0).expect("hit");
        assert!(Arc::ptr_eq(&hit, &s), "a hit must be the identical set, not a copy");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn generation_bump_misses() {
        let c = ProfileCache::new(4);
        c.insert(StationId(0), 7, 0, set(0));
        assert!(c.get(StationId(0), 7, 0).is_some());
        // A delay bumped the generation: same source, different key.
        assert!(c.get(StationId(0), 7, 1).is_none());
        // Same source and generation on a *different network instance*
        // (another epoch) must also miss: no cross-network aliasing.
        assert!(c.get(StationId(0), 8, 0).is_none());
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = ProfileCache::new(2);
        c.insert(StationId(0), 7, 0, set(0));
        c.insert(StationId(1), 7, 0, set(1));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.get(StationId(0), 7, 0).is_some());
        assert!(c.insert(StationId(2), 7, 0, set(2)), "full cache must evict");
        assert!(c.get(StationId(1), 7, 0).is_none(), "LRU entry evicted");
        assert!(c.get(StationId(0), 7, 0).is_some(), "recently used entry kept");
        assert!(c.get(StationId(2), 7, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let c = ProfileCache::new(1);
        c.insert(StationId(0), 7, 0, set(0));
        assert!(!c.insert(StationId(0), 7, 0, set(0)));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stats_and_hit_rate() {
        let c = ProfileCache::new(2);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(StationId(0), 7, 0, set(0));
        let _ = c.get(StationId(0), 7, 0);
        let _ = c.get(StationId(1), 7, 0);
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.entries, st.capacity), (1, 1, 1, 2));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1, "clear keeps counters");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ProfileCache::new(0);
    }

    #[test]
    fn concurrent_readers_share_one_stripe() {
        // Many threads hammering `get` through `&self` while the entry is
        // hot: every reader must see the identical shared set and the hit
        // counter must account for every probe.
        let c = ProfileCache::new(4);
        let s = set(0);
        c.insert(StationId(0), 7, 0, Arc::clone(&s));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let hit = c.get(StationId(0), 7, 0).expect("hot entry");
                        assert!(Arc::ptr_eq(&hit, &s));
                    }
                });
            }
        });
        assert_eq!(c.stats().hits, 400);
    }

    #[test]
    fn a_hit_cannot_be_stamped_older_than_earlier_touches() {
        // Regression: the tick for a hit used to be drawn *before* taking
        // the read lock. A hit that blocked behind a writer then stamped
        // its entry with a tick older than touches that happened while it
        // waited — so the entry hit *last* in wall-clock order scanned as
        // the LRU victim and the hottest entry got evicted. Ticks are now
        // drawn under the lock: the blocked hit below must end up newer
        // than the touch performed while it was blocked.
        let c = LruCore::<u32, u32>::new(2);
        c.insert(0, 10); // the entry we will hit last
        c.insert(1, 11);
        // Pin the map so the hit blocks mid-`get`.
        let blocker = c.entries.write().unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                assert_eq!(c.get(0), Some(10)); // blocks behind `blocker`
            });
            // Let the reader reach the lock (and, pre-fix, draw its
            // too-early tick).
            std::thread::sleep(std::time::Duration::from_millis(50));
            // A touch of entry 1 that wall-clock-precedes the blocked hit.
            let t = c.tick.fetch_add(1, Ordering::Relaxed) + 1;
            blocker.get(&1).unwrap().last_used.store(t, Ordering::Relaxed);
            drop(blocker);
            reader.join().unwrap();
        });
        // The hit on 0 completed last, so 1 must be the victim now.
        assert!(c.insert(2, 12), "full cache evicts");
        assert_eq!(c.get(0), Some(10), "the last-hit entry must survive");
        assert_eq!(c.get(1), None, "the earlier touch is the victim");
    }

    #[test]
    fn clone_shares_nothing() {
        let a = ProfileCache::new(2);
        a.insert(StationId(0), 7, 0, set(0));
        let b = a.clone();
        b.insert(StationId(1), 7, 0, set(1));
        assert_eq!(a.len(), 1, "insert into the clone must not leak back");
        assert_eq!(b.len(), 2);
        assert_eq!(a.stats().hits, b.stats().hits);
    }
}
