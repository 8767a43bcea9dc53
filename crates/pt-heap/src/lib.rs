//! Indexed d-ary min-heaps with `decrease-key`.
//!
//! The paper's searches (time-query, connection-setting, station-to-station)
//! all follow the Dijkstra pattern: a monotone priority queue over a dense
//! slot space — node ids for the time-query, `(node, connection)` pairs for
//! connection-setting — where the key of a queued element may only decrease
//! (`key(w,i) := min(key(w,i), arr_tent)`, paper §3.1). An *indexed* heap
//! stores each slot's heap position so a decrease is `O(log n)` with no
//! stale duplicates, keeping the "settled connections" counters of Tables 1
//! and 2 exact.
//!
//! The arity is a const generic: [`BinaryHeap`] (`D = 2`) matches the
//! paper's implementation ("as priority queue we use a binary heap", §5);
//! [`QuaternaryHeap`] (`D = 4`) trades comparisons for cache locality (the
//! repo benchmark times it as `heap.push_pop_ns`).

/// Marker for "slot not on the heap".
const INVALID_POS: u32 = u32::MAX;

/// An indexed d-ary min-heap over the dense slot space `0..capacity`.
///
/// Keys are `u64` (`(arrival_time, tiebreak)` pairs pack into one word);
/// ties are broken by slot order of insertion into the sift, which is
/// deterministic for a fixed insertion sequence.
#[derive(Debug, Clone)]
pub struct IndexedHeap<const D: usize = 2> {
    /// `(key, slot)` pairs in heap order.
    data: Vec<(u64, u32)>,
    /// `pos[slot]` = index into `data`, or `INVALID_POS`.
    pos: Vec<u32>,
}

/// The paper's queue: an indexed binary heap.
pub type BinaryHeap = IndexedHeap<2>;
/// A 4-ary variant with better cache behaviour on large queues.
pub type QuaternaryHeap = IndexedHeap<4>;

impl<const D: usize> IndexedHeap<D> {
    /// Creates a heap over the slot space `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(D >= 2, "heap arity must be at least 2");
        assert!(capacity < INVALID_POS as usize, "slot space too large");
        IndexedHeap { data: Vec::new(), pos: vec![INVALID_POS; capacity] }
    }

    /// Number of queued elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff no element is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The slot-space capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.pos.len()
    }

    /// Grows the slot space to at least `capacity`, keeping queued elements.
    /// Returns `true` iff the slot space actually grew (used by workspace
    /// allocation accounting).
    pub fn grow(&mut self, capacity: usize) -> bool {
        if capacity > self.pos.len() {
            self.pos.resize(capacity, INVALID_POS);
            true
        } else {
            false
        }
    }

    /// Prepares the heap for a fresh query over the slot space
    /// `0..capacity`: grows the slot space if needed and removes all queued
    /// elements — in `O(len)`, **keeping every allocation** (both the
    /// element storage and the position index survive, so a warm heap
    /// performs no allocation at all). Returns `true` iff the slot space
    /// grew.
    pub fn reset(&mut self, capacity: usize) -> bool {
        let grew = self.grow(capacity);
        self.clear();
        grew
    }

    /// `true` iff `slot` is currently queued.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.pos[slot] != INVALID_POS
    }

    /// Current key of `slot`, if queued.
    #[inline]
    pub fn key_of(&self, slot: usize) -> Option<u64> {
        let p = self.pos[slot];
        (p != INVALID_POS).then(|| self.data[p as usize].0)
    }

    /// Inserts `slot` with `key`, or lowers its key to `key` if that is
    /// smaller than the current one. Returns `true` iff the queue changed.
    /// This is the paper's `key(w,i) := min(key(w,i), arr_tent)` operation.
    #[inline]
    pub fn push_or_decrease(&mut self, slot: usize, key: u64) -> bool {
        let p = self.pos[slot];
        if p == INVALID_POS {
            let at = self.data.len();
            self.data.push((key, slot as u32));
            self.pos[slot] = at as u32;
            self.sift_up(at);
            true
        } else if key < self.data[p as usize].0 {
            self.data[p as usize].0 = key;
            self.sift_up(p as usize);
            true
        } else {
            false
        }
    }

    /// Removes and returns the minimum `(slot, key)` element.
    #[inline]
    pub fn pop(&mut self) -> Option<(usize, u64)> {
        let &(key, slot) = self.data.first()?;
        self.pos[slot as usize] = INVALID_POS;
        let last = self.data.pop().expect("non-empty");
        if !self.data.is_empty() {
            self.data[0] = last;
            self.pos[last.1 as usize] = 0;
            self.sift_down(0);
        }
        Some((slot as usize, key))
    }

    /// Smallest key without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(usize, u64)> {
        self.data.first().map(|&(k, s)| (s as usize, k))
    }

    /// Removes all queued elements (O(len), not O(capacity)).
    pub fn clear(&mut self) {
        for &(_, slot) in &self.data {
            self.pos[slot as usize] = INVALID_POS;
        }
        self.data.clear();
    }

    /// Verifies the heap invariant and position index — used by tests.
    pub fn check_invariants(&self) -> bool {
        self.data.iter().enumerate().all(|(i, &(k, s))| {
            self.pos[s as usize] == i as u32 && (i == 0 || self.data[(i - 1) / D].0 <= k)
        })
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let item = self.data[i];
        while i > 0 {
            let parent = (i - 1) / D;
            if self.data[parent].0 <= item.0 {
                break;
            }
            self.data[i] = self.data[parent];
            self.pos[self.data[i].1 as usize] = i as u32;
            i = parent;
        }
        self.data[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let item = self.data[i];
        let len = self.data.len();
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + D).min(len);
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.data[c].0 < self.data[best].0 {
                    best = c;
                }
            }
            if self.data[best].0 >= item.0 {
                break;
            }
            self.data[i] = self.data[best];
            self.pos[self.data[i].1 as usize] = i as u32;
            i = best;
        }
        self.data[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_orders_by_key() {
        let mut h = BinaryHeap::new(10);
        for (slot, key) in [(3, 30), (1, 10), (4, 40), (2, 20)] {
            assert!(h.push_or_decrease(slot, key));
        }
        assert_eq!(h.len(), 4);
        let mut out = Vec::new();
        while let Some((slot, key)) = h.pop() {
            out.push((slot, key));
        }
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30), (4, 40)]);
        assert!(h.is_empty());
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = BinaryHeap::new(4);
        h.push_or_decrease(0, 100);
        h.push_or_decrease(1, 50);
        assert!(h.push_or_decrease(0, 10)); // decrease 100 -> 10
        assert!(!h.push_or_decrease(1, 60)); // increase is refused
        assert_eq!(h.pop(), Some((0, 10)));
        assert_eq!(h.pop(), Some((1, 50)));
    }

    #[test]
    fn contains_and_key_of_track_membership() {
        let mut h = QuaternaryHeap::new(8);
        assert!(!h.contains(5));
        h.push_or_decrease(5, 42);
        assert!(h.contains(5));
        assert_eq!(h.key_of(5), Some(42));
        h.pop();
        assert!(!h.contains(5));
        assert_eq!(h.key_of(5), None);
    }

    #[test]
    fn clear_resets_positions() {
        let mut h = BinaryHeap::new(6);
        for s in 0..6 {
            h.push_or_decrease(s, 100 - s as u64);
        }
        h.clear();
        assert!(h.is_empty());
        for s in 0..6 {
            assert!(!h.contains(s));
        }
        // Reusable after clear.
        h.push_or_decrease(2, 7);
        assert_eq!(h.pop(), Some((2, 7)));
    }

    #[test]
    fn grow_extends_slot_space() {
        let mut h = BinaryHeap::new(2);
        h.push_or_decrease(1, 5);
        assert!(h.grow(10));
        assert!(!h.grow(4), "shrinking grow must be a no-op");
        h.push_or_decrease(9, 3);
        assert_eq!(h.pop(), Some((9, 3)));
        assert_eq!(h.pop(), Some((1, 5)));
    }

    #[test]
    fn reset_clears_and_preserves_capacity() {
        let mut h = BinaryHeap::new(4);
        for s in 0..4 {
            h.push_or_decrease(s, 10 - s as u64);
        }
        assert!(h.reset(8), "first reset grows the slot space");
        assert!(h.is_empty());
        assert_eq!(h.capacity(), 8);
        h.push_or_decrease(7, 1);
        // A warm reset to the same capacity keeps everything allocated.
        assert!(!h.reset(8));
        assert!(h.is_empty());
        assert_eq!(h.capacity(), 8);
        for s in 0..8 {
            assert!(!h.contains(s));
        }
        h.push_or_decrease(3, 9);
        assert_eq!(h.pop(), Some((3, 9)));
    }

    #[test]
    fn equal_keys_all_drain() {
        let mut h = BinaryHeap::new(5);
        for s in 0..5 {
            h.push_or_decrease(s, 7);
        }
        let mut seen = [false; 5];
        while let Some((s, k)) = h.pop() {
            assert_eq!(k, 7);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
