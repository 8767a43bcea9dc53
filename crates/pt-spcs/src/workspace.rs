//! Persistent, epoch-stamped per-worker search state.
//!
//! The seed implementation re-allocated an `O(k·|V|)` label matrix, a
//! `maxconn` array and a fresh heap on **every** query — fine for
//! regenerating the paper's tables once, fatal for a long-lived engine
//! answering query streams. A [`SearchWorkspace`] owns all of that state for
//! the lifetime of an engine worker and is *logically* cleared in
//! `O(touched)` between queries:
//!
//! * the big per-`(connection, node)` and per-node arrays are stamped with a
//!   **generation counter** (`epoch`); a slot whose stamp differs from the
//!   current epoch reads as "never touched this query", so starting a new
//!   query is a single counter increment, not a `O(k·|V|)` memset,
//! * the indexed heap (scalar search only) is drained by that search, and
//!   its [`pt_heap::IndexedHeap::reset`] keeps the allocations,
//! * the small per-connection output/scratch vectors (`O(k)` and
//!   `O(k·|via|)`) are `clear()`-ed, preserving capacity.
//!
//! After warm-up (the first query of the largest size class) a workspace
//! performs **zero** full-size allocations per query; [`grow_events`]
//! counts backing-array growth so tests and benches can assert exactly
//! that.
//!
//! [`grow_events`]: SearchWorkspace::grow_events

use std::sync::Mutex;

use pt_core::{Time, INFINITY};
use pt_heap::BinaryHeap;

/// Reusable state for one search worker (sequential SPCS, one partition
/// class of parallel SPCS, or one station-to-station search).
///
/// Obtain one per worker, call `begin` at the start of a query, then use
/// the accessors; never index the backing arrays directly. Engines manage
/// their workspaces internally — the type is public for inspection
/// ([`SearchWorkspace::grow_events`]) and for custom drivers.
#[derive(Debug, Clone)]
pub struct SearchWorkspace {
    /// Current generation; a stamp equal to this marks a slot as live.
    epoch: u32,
    /// Per-`(local connection, node)` slot stamps.
    slot_epoch: Vec<u32>,
    /// `arr(v, i)` labels; valid iff the slot stamp is current.
    arr: Vec<Time>,
    /// Target-pruning path flags ("passed a transfer station"); stamped
    /// together with `arr` (same slot space), sized only in target mode.
    anc: Vec<bool>,
    /// Per-node stamps for `maxconn`.
    node_epoch: Vec<u32>,
    /// `maxconn(v)`: highest connection index settled at `v`.
    maxconn: Vec<u32>,
    /// The scalar search's priority queue; that search sizes and resets it.
    pub(crate) heap: BinaryHeap,
    /// One-to-all output: `station_arr[i * ns + s]`, filled by `run_range`.
    pub(crate) station_arr: Vec<Time>,
    /// Station-to-station output: best arrival at the target per local
    /// connection.
    pub(crate) arr_t: Vec<Time>,
    /// Via-pruning upper bounds `µ[i * |via| + j]` (§4, Thm 3).
    pub(crate) mu: Vec<Time>,
    /// Target-pruning lower bounds `γ_i` (§4, Thm 4).
    pub(crate) gamma: Vec<Time>,
    /// Connections finished by target pruning.
    pub(crate) done: Vec<bool>,
    /// Queue entries per connection whose path lacks a transfer ancestor.
    pub(crate) noanc: Vec<u32>,
    /// SoA kernel: tentative key per slot, stamped together with `arr`.
    tent: Vec<u32>,
    /// SoA kernel: bucket ring of slot queues, indexed `key & (ring − 1)`.
    /// Invariant between queries: every bucket is drained empty.
    pub(crate) buckets: Vec<Vec<u32>>,
    /// SoA kernel: bucket-ring occupancy bitmap (one bit per bucket).
    /// Invariant between queries: all zero.
    pub(crate) occ: Vec<u64>,
    /// SoA kernel: the per-phase sweep scratch, lent out for a search.
    pub(crate) ring: RingScratch,
    /// Number of backing-array growth events since construction.
    pub(crate) grow_events: u64,
}

impl Default for SearchWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchWorkspace {
    /// An empty workspace; arrays grow on first use.
    pub fn new() -> SearchWorkspace {
        SearchWorkspace {
            epoch: 0,
            slot_epoch: Vec::new(),
            arr: Vec::new(),
            anc: Vec::new(),
            node_epoch: Vec::new(),
            maxconn: Vec::new(),
            heap: BinaryHeap::new(0),
            station_arr: Vec::new(),
            arr_t: Vec::new(),
            mu: Vec::new(),
            gamma: Vec::new(),
            done: Vec::new(),
            noanc: Vec::new(),
            tent: Vec::new(),
            buckets: Vec::new(),
            occ: Vec::new(),
            ring: RingScratch::default(),
            grow_events: 0,
        }
    }

    /// Starts a new query over `slots = k·|V|` label slots and `nodes`
    /// graph nodes. `with_anc` additionally sizes the target-pruning path
    /// flags (station-to-station target mode only). O(1) when warm.
    pub(crate) fn begin(&mut self, slots: usize, nodes: usize, with_anc: bool) {
        if slots > self.slot_epoch.len() {
            self.grow_events += 1;
            self.slot_epoch.resize(slots, 0);
            self.arr.resize(slots, INFINITY);
            self.tent.resize(slots, u32::MAX);
        }
        if with_anc && slots > self.anc.len() {
            self.grow_events += 1;
            self.anc.resize(slots, false);
        }
        if nodes > self.node_epoch.len() {
            self.grow_events += 1;
            self.node_epoch.resize(nodes, 0);
            self.maxconn.resize(nodes, u32::MAX);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Generation counter wrapped (once per 2³² queries): hard-reset
            // the stamps. Epoch 0 itself is never used as a live generation,
            // so a zero stamp can never alias a future epoch.
            self.slot_epoch.fill(0);
            self.node_epoch.fill(0);
            self.epoch = 1;
        }
    }

    /// Number of times any backing array had to grow. Constant across
    /// queries once the workspace is warm — asserted by tests and reported
    /// by the repo benchmark.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// `arr(slot)`, [`INFINITY`] if untouched this query.
    #[inline]
    pub(crate) fn arr(&self, slot: usize) -> Time {
        if self.slot_epoch[slot] == self.epoch {
            self.arr[slot]
        } else {
            INFINITY
        }
    }

    /// Stamps `slot` as touched, initializing its labels to defaults if it
    /// was stale.
    #[inline]
    fn stamp_slot(&mut self, slot: usize) {
        if self.slot_epoch[slot] != self.epoch {
            self.slot_epoch[slot] = self.epoch;
            self.arr[slot] = INFINITY;
            // `anc` is only sized for target-mode queries; a plain query may
            // use a larger slot space than the last target-mode one did.
            if slot < self.anc.len() {
                self.anc[slot] = false;
            }
            self.tent[slot] = u32::MAX;
        }
    }

    /// Sets `arr(slot)`.
    #[inline]
    pub(crate) fn set_arr(&mut self, slot: usize, t: Time) {
        self.stamp_slot(slot);
        self.arr[slot] = t;
    }

    /// The target-pruning path flag of `slot`.
    #[inline]
    pub(crate) fn anc(&self, slot: usize) -> bool {
        self.slot_epoch[slot] == self.epoch && self.anc[slot]
    }

    /// Sets the target-pruning path flag of `slot`.
    #[inline]
    pub(crate) fn set_anc(&mut self, slot: usize, flag: bool) {
        self.stamp_slot(slot);
        self.anc[slot] = flag;
    }

    /// `maxconn(v)`, `u32::MAX` if no connection settled `v` this query.
    #[inline]
    pub(crate) fn maxconn(&self, v: usize) -> u32 {
        if self.node_epoch[v] == self.epoch {
            self.maxconn[v]
        } else {
            u32::MAX
        }
    }

    /// Sets `maxconn(v)`.
    #[inline]
    pub(crate) fn set_maxconn(&mut self, v: usize, i: u32) {
        self.node_epoch[v] = self.epoch;
        self.maxconn[v] = i;
    }

    /// Prepares the one-to-all output buffer (`k·ns` slots, all
    /// [`INFINITY`]).
    pub(crate) fn fresh_station_arr(&mut self, n: usize) {
        fresh_vec(&mut self.station_arr, n, INFINITY, &mut self.grow_events);
    }

    /// Prepares the station-to-station output buffer (`k` slots).
    pub(crate) fn fresh_arr_t(&mut self, k: usize) {
        fresh_vec(&mut self.arr_t, k, INFINITY, &mut self.grow_events);
    }

    /// Prepares the via-pruning bound matrix (`k·n_via` slots).
    pub(crate) fn fresh_mu(&mut self, n: usize) {
        fresh_vec(&mut self.mu, n, INFINITY, &mut self.grow_events);
    }

    /// Prepares the target-pruning scratch (`k` slots each). Each connection
    /// starts with one queue entry without a transfer ancestor: in target
    /// mode the source is no transfer station (the table answers those).
    pub(crate) fn fresh_target_scratch(&mut self, k: usize) {
        fresh_vec(&mut self.gamma, k, INFINITY, &mut self.grow_events);
        fresh_vec(&mut self.done, k, false, &mut self.grow_events);
        fresh_vec(&mut self.noanc, k, 1, &mut self.grow_events);
    }

    /// Sizes the SoA kernel's bucket ring to `ring` buckets (a power of
    /// two). O(1) when warm.
    pub(crate) fn ensure_kernel(&mut self, ring: usize) {
        debug_assert!(ring.is_power_of_two());
        // A previously grown, larger ring stays usable for a smaller mask:
        // the kernel only ever touches buckets `0..ring`.
        if ring > self.buckets.len() {
            self.grow_events += 1;
            self.buckets.resize_with(ring, Vec::new);
        }
        if ring.div_ceil(64) > self.occ.len() {
            self.occ.resize(ring.div_ceil(64), 0);
        }
    }

    /// Tentative kernel key of `slot`, `u32::MAX` if untouched this query.
    #[inline]
    pub(crate) fn tent(&self, slot: usize) -> u32 {
        if self.slot_epoch[slot] == self.epoch {
            self.tent[slot]
        } else {
            u32::MAX
        }
    }

    /// Sets the tentative kernel key of `slot`.
    #[inline]
    pub(crate) fn set_tent(&mut self, slot: usize, key: u32) {
        self.stamp_slot(slot);
        self.tent[slot] = key;
    }
}

/// The SoA kernel's per-bucket-phase scratch; a search takes it out of the
/// workspace and puts it back warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct RingScratch {
    /// Slots settled by the phase that relax, each with the `anc` flag its
    /// edge heads inherit.
    pub(crate) frontier: Vec<(u32, bool)>,
    /// Candidate lanes `(slot, key, anc)` from the relax sweep; the `anc`
    /// lane is filled in target mode only.
    pub(crate) slots: Vec<u32>,
    pub(crate) keys: Vec<u32>,
    pub(crate) anc: Vec<bool>,
    /// Target mode: slots settled by the phase, whose `noanc` decrements
    /// wait for the phase's commit sweep.
    pub(crate) unqueued: Vec<u32>,
}

impl RingScratch {
    /// Total capacity; any growth of it counts as one grow event.
    pub(crate) fn capacity(&self) -> usize {
        self.frontier.capacity()
            + self.slots.capacity()
            + self.keys.capacity()
            + self.anc.capacity()
            + self.unqueued.capacity()
    }
}

/// A shared pool of [`SearchWorkspace`]s behind the engines' `&self` query
/// entry points.
///
/// A query checks out as many workspaces as it needs (warm ones first, in
/// stable order, so a repeated query of the same width reuses each
/// workspace for the same partition class — preserving the
/// zero-allocation warm path) and checks them back in when done. Under a
/// single caller this is exactly the old embedded `Vec<SearchWorkspace>`;
/// under concurrent callers each in-flight query holds its own private
/// workspaces, so no search state is ever shared between threads.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    idle: Mutex<Vec<SearchWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on first checkout.
    pub fn new() -> WorkspacePool {
        WorkspacePool { idle: Mutex::new(Vec::new()) }
    }

    /// Takes `n` workspaces out of the pool, reusing idle ones from the
    /// front (checkout order is stable) and creating fresh ones beyond.
    pub(crate) fn checkout(&self, n: usize) -> Vec<SearchWorkspace> {
        let mut idle = self.idle.lock().unwrap();
        let take = idle.len().min(n);
        let mut out: Vec<SearchWorkspace> = idle.drain(..take).collect();
        out.resize_with(n, SearchWorkspace::new);
        out
    }

    /// Returns checked-out workspaces, preserving their order so the next
    /// same-width checkout reassigns each one to the same class.
    pub(crate) fn checkin(&self, workspaces: Vec<SearchWorkspace>) {
        self.idle.lock().unwrap().extend(workspaces);
    }

    /// Sum of [`SearchWorkspace::grow_events`] over the *idle* workspaces.
    /// While a query is in flight its workspaces (and their counters) are
    /// checked out, so read this between queries for exact warm-path
    /// assertions.
    pub fn grow_events(&self) -> u64 {
        self.idle.lock().unwrap().iter().map(SearchWorkspace::grow_events).sum()
    }
}

impl Clone for WorkspacePool {
    /// Clones the idle workspaces; in-flight checkouts stay with the
    /// original.
    fn clone(&self) -> Self {
        WorkspacePool { idle: Mutex::new(self.idle.lock().unwrap().clone()) }
    }
}

/// Clears + resizes a per-connection scratch vector, counting real
/// reallocations (capacity growth) only.
fn fresh_vec<T: Clone>(vec: &mut Vec<T>, n: usize, fill: T, grow_events: &mut u64) {
    if n > vec.capacity() {
        *grow_events += 1;
    }
    vec.clear();
    vec.resize(n, fill);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::Time;

    #[test]
    fn begin_invalidates_previous_labels_in_o1() {
        let mut ws = SearchWorkspace::new();
        ws.begin(10, 5, false);
        ws.set_arr(3, Time(100));
        ws.set_maxconn(2, 7);
        assert_eq!(ws.arr(3), Time(100));
        assert_eq!(ws.maxconn(2), 7);
        let grows = ws.grow_events();
        ws.begin(10, 5, false);
        // Same backing arrays, but every label reads as untouched.
        assert_eq!(ws.grow_events(), grows, "warm begin must not allocate");
        assert!(ws.arr(3).is_infinite());
        assert_eq!(ws.maxconn(2), u32::MAX);
    }

    #[test]
    fn growth_is_monotone_and_counted() {
        let mut ws = SearchWorkspace::new();
        ws.begin(4, 2, false);
        let g1 = ws.grow_events();
        assert!(g1 > 0);
        ws.begin(2, 1, false); // smaller query: no growth
        assert_eq!(ws.grow_events(), g1);
        ws.begin(100, 50, true); // bigger query + anc: grows again
        assert!(ws.grow_events() > g1);
        let g2 = ws.grow_events();
        ws.begin(100, 50, true);
        assert_eq!(ws.grow_events(), g2);
    }

    #[test]
    fn anc_flags_reset_between_queries() {
        let mut ws = SearchWorkspace::new();
        ws.begin(8, 4, true);
        ws.set_anc(5, true);
        assert!(ws.anc(5));
        ws.begin(8, 4, true);
        assert!(!ws.anc(5));
        // Writing arr first must not leak a stale anc flag.
        ws.set_arr(5, Time(1));
        assert!(!ws.anc(5));
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut ws = SearchWorkspace::new();
        ws.begin(4, 2, false);
        ws.set_arr(1, Time(42));
        // Force the wrap.
        ws.epoch = u32::MAX;
        ws.set_arr(2, Time(7));
        ws.begin(4, 2, false);
        assert_eq!(ws.epoch, 1);
        assert!(ws.arr(1).is_infinite());
        assert!(ws.arr(2).is_infinite());
    }

    #[test]
    fn pool_checkout_is_warm_and_order_stable() {
        let pool = WorkspacePool::new();
        let mut ws = pool.checkout(3);
        assert_eq!(ws.len(), 3);
        // Warm each workspace to a *different* size, as partition classes do.
        for (i, w) in ws.iter_mut().enumerate() {
            w.begin(10 * (i + 1), 5, false);
        }
        let grows = ws.iter().map(SearchWorkspace::grow_events).sum::<u64>();
        pool.checkin(ws);
        assert_eq!(pool.grow_events(), grows);
        // The next same-width checkout must hand back the same workspaces
        // in the same order, so the warm begin does not grow anything.
        let mut ws = pool.checkout(3);
        for (i, w) in ws.iter_mut().enumerate() {
            w.begin(10 * (i + 1), 5, false);
        }
        assert_eq!(ws.iter().map(SearchWorkspace::grow_events).sum::<u64>(), grows);
        pool.checkin(ws);
        // A wider checkout reuses the warm ones and creates only the extras.
        let ws = pool.checkout(5);
        assert_eq!(ws.iter().map(SearchWorkspace::grow_events).sum::<u64>(), grows);
        pool.checkin(ws);
        assert_eq!(pool.checkout(5).len(), 5);
    }

    #[test]
    fn kernel_scratch_is_epoch_stamped_and_warm() {
        let mut ws = SearchWorkspace::new();
        ws.begin(16, 4, false);
        ws.ensure_kernel(64);
        let g = ws.grow_events();
        ws.set_tent(5, 123);
        assert_eq!(ws.tent(5), 123);
        assert!(ws.arr(5).is_infinite(), "a tent write must not settle the slot");
        ws.set_arr(5, Time(9));
        assert_eq!(ws.tent(5), 123, "settling must keep the key");
        ws.begin(16, 4, false);
        ws.ensure_kernel(64);
        assert_eq!(ws.grow_events(), g, "warm kernel begin must not allocate");
        assert_eq!(ws.tent(5), u32::MAX);
        // A smaller ring reuses the larger ring's buckets.
        ws.begin(16, 4, false);
        ws.ensure_kernel(32);
        assert_eq!(ws.grow_events(), g);
    }

    #[test]
    fn scratch_vectors_keep_capacity() {
        let mut ws = SearchWorkspace::new();
        ws.fresh_arr_t(100);
        ws.fresh_mu(300);
        ws.fresh_target_scratch(100);
        let g = ws.grow_events();
        ws.fresh_arr_t(80);
        ws.fresh_mu(250);
        ws.fresh_target_scratch(64);
        assert_eq!(ws.grow_events(), g, "shrinking reuse must not allocate");
        assert_eq!(ws.arr_t.len(), 80);
        assert!(ws.arr_t.iter().all(|t| t.is_infinite()));
    }
}
