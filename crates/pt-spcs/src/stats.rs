//! Operation counters, matching the columns of the paper's tables.

use std::ops::AddAssign;

/// Counters collected by one query (summed over all threads, as in the
/// paper's "settled connections" column).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Queue elements taken from the priority queue ("settled connections",
    /// Tables 1 and 2). For the label-correcting baseline this counts the
    /// sizes of the popped connection labels instead.
    pub settled: u64,
    /// Settled elements discarded by self-pruning (§3.1).
    pub self_pruned: u64,
    /// Settled elements discarded by the stopping criterion (§4, Thm 2).
    pub stop_pruned: u64,
    /// Searches pruned by the distance table (§4, Thm 3) or target pruning
    /// (§4, Thm 4).
    pub table_pruned: u64,
    /// Edge relaxations.
    pub relaxed: u64,
    /// Priority-queue inserts.
    pub pushes: u64,
    /// Priority-queue decrease-key operations.
    pub decreases: u64,
    /// Wall-clock nanoseconds spent in the sequential master step (merging
    /// per-thread labels and reducing them to profiles, §3.2) — the merge
    /// overhead the paper discusses qualitatively but never quantifies.
    pub merge_ns: u64,
    /// Queries answered from the profile cache (no search ran). Always 0
    /// without [`ProfileEngine::with_cache`](crate::ProfileEngine::with_cache).
    pub cache_hits: u64,
    /// Queries that consulted the cache and fell through to a search.
    pub cache_misses: u64,
    /// Cache entries evicted while storing this query's result.
    pub cache_evictions: u64,
    /// Bucket phases swept by the SoA kernel (one settle + relax + commit
    /// round per non-empty time bucket). Always 0 on the scalar path.
    pub bucket_phases: u64,
    /// 64-wide candidate chunks pushed through the SoA commit loop.
    pub lane_chunks: u64,
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.settled += rhs.settled;
        self.self_pruned += rhs.self_pruned;
        self.stop_pruned += rhs.stop_pruned;
        self.table_pruned += rhs.table_pruned;
        self.relaxed += rhs.relaxed;
        self.pushes += rhs.pushes;
        self.decreases += rhs.decreases;
        self.merge_ns += rhs.merge_ns;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.cache_evictions += rhs.cache_evictions;
        self.bucket_phases += rhs.bucket_phases;
        self.lane_chunks += rhs.lane_chunks;
    }
}

impl QueryStats {
    /// Sum of several per-thread stats.
    pub fn sum(parts: impl IntoIterator<Item = QueryStats>) -> QueryStats {
        let mut total = QueryStats::default();
        for p in parts {
            total += p;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_adds_fieldwise() {
        let a = QueryStats { settled: 1, relaxed: 2, pushes: 3, ..Default::default() };
        let b = QueryStats { settled: 10, self_pruned: 5, ..Default::default() };
        let s = QueryStats::sum([a, b]);
        assert_eq!(s.settled, 11);
        assert_eq!(s.self_pruned, 5);
        assert_eq!(s.relaxed, 2);
        assert_eq!(s.pushes, 3);
    }
}
