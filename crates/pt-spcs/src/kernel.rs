//! The branch-light structure-of-arrays label kernel (ROADMAP item 2).
//!
//! The scalar search in [`connection_setting`](crate::connection_setting)
//! pops one `(connection, node)` slot at a time from a binary heap and
//! walks that node's edges one by one
//! ([`TdGraph::arrivals`](pt_graph::TdGraph::arrivals)) — correct, but
//! every step is a data-dependent branch chasing pointers through the
//! heap. This module runs the same search for every goal — one-to-all and
//! station-to-station, with or without the §4 table rules — on a
//! **time-bucketed frontier** (a Dial-style ring of width-1-second buckets
//! over the key space) and restructures each bucket's work into sweeps:
//!
//! 1. **Settle sweep** — a pre-sweep raises `maxconn(v)` to the bucket's
//!    highest live connection at `v`, then every live slot goes through the
//!    settle step the heap uses too (`connection_setting::Settler`), so the
//!    stopping criterion, self-pruning and the §4 rules are written once.
//! 2. **Relax sweep** — outgoing edges are read straight from the graph's
//!    kind-grouped lanes ([`EdgeKindCsr`](pt_graph::EdgeKindCsr)): all
//!    constant edges of the frontier share the settle key, so their lane is
//!    a pure gather + saturating add ([`Time::lane_add`]) the compiler can
//!    vectorize; the time-dependent lane follows with one PLF evaluation
//!    per edge. Candidates accumulate as `(slot, key)` pairs in chunked
//!    lanes, plus target pruning's `anc` flag in target mode.
//! 3. **Commit sweep** — one comparison per candidate (`key < tent[slot]`)
//!    folds together "candidate unreachable" (`key = u32::MAX` from the
//!    saturating add), "slot already settled or pruned" (a settled slot's
//!    tentative key is ≤ the current bucket, hence ≤ every candidate) and
//!    "no improvement"; an improvement updates `noanc` as a heap push or
//!    decrease would. The phase's own slots leave `noanc` only after it, so
//!    each settle saw its ties as queued: the heap order in which it pops
//!    first among them.
//!
//! Correctness relies on the keys being monotone: every candidate key is
//! `≥` the current bucket key, so buckets are settled in Dijkstra order and
//! the ring never needs more than `ring_size` buckets (the maximum edge
//! span plus the one-period spread of the initial departures). Within one
//! bucket the settle order differs from the heap's tie order; the per-slot
//! labels may differ on ties, but the *reduced profiles* are identical —
//! among equal-key ties the reduction keeps the latest departure either way.
//! The scalar path remains the arbiter of correctness:
//! `tests/kernel_identity.rs` and conncheck, which holds every ring
//! configuration against the heap, assert equality on random, patched and
//! tabled timetables. The ring serves every query of a default engine; the
//! heap runs only where a check forces [`KernelMode::Scalar`]
//! (`connection_setting::run_range`).

use std::str::FromStr;

use pt_core::{Time, INFINITY};

use crate::connection_setting::{Goal, Settled, Settler};
use crate::network::Network;
use crate::stats::QueryStats;
use crate::workspace::{RingScratch, SearchWorkspace};

/// Which label kernel an engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The binary-heap reference path: the oracle checks force it.
    Scalar,
    /// The bucketed structure-of-arrays path, which serves every query.
    #[default]
    Soa,
}

impl FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelMode::Scalar),
            "soa" => Ok(KernelMode::Soa),
            other => Err(format!("unknown kernel mode {other:?} (scalar|soa)")),
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Soa => "soa",
        })
    }
}

/// Number of buckets the ring needs for `net`: strictly more than the
/// widest spread of pending keys, which is bounded by the maximum edge span
/// ([`TdGraph::max_edge_span_secs`](pt_graph::TdGraph::max_edge_span_secs))
/// and — because all initial departures are injected up front — by the
/// one-period spread of `conn(S)`. Rounded up to a power of two so the
/// bucket index is a mask.
pub(crate) fn ring_size(net: &Network) -> usize {
    let g = net.graph();
    let span = g.max_edge_span_secs() as usize;
    (span.max(g.period().len() as usize - 1) + 1).next_power_of_two()
}

/// The bucket-ring path of [`run_range`](crate::connection_setting::run_range)
/// for any `goal` over the connection ids `lo..hi`, leaving its labels where
/// the heap path does (identical up to tie order, see the module docs).
/// Every settle decision is the shared [`Settler`]'s; the ring keeps only
/// its own: the `maxconn` pre-sweep, the lanes and the bucket bookkeeping.
pub(crate) fn search_soa(
    net: &Network,
    lo: u32,
    hi: u32,
    goal: &Goal<'_>,
    ws: &mut SearchWorkspace,
) -> QueryStats {
    let nv = net.graph().num_nodes();
    let k = (hi - lo) as usize;
    let mut stats = QueryStats::default();
    let mut settler = Settler::begin(net, k, goal, ws);
    if k == 0 {
        return stats;
    }
    let mut state = RingState::init(net, lo, k, ws, &mut stats);
    while state.pending > 0 {
        let b = (state.cur & state.mask) as usize;
        // Drain bucket b completely: zero-weight (alight) edges commit
        // back into the current bucket.
        while !ws.buckets[b].is_empty() {
            stats.bucket_phases += 1;

            // Phase 1a — pruning pre-sweep: raise `maxconn(v)` to the
            // highest live connection of this bucket, so equal-key ties
            // prune maximally. (The heap's tie order is arbitrary and may
            // settle a low connection before the high one that would have
            // pruned it; the bucket sweep sees all ties at once and always
            // picks the best order.) A boosted bound stays sound even if
            // its own entry is stop-pruned or finished below: any `j < i ≤
            // tm` it prunes was covered by the stopping criterion anyway,
            // and a finished `i` already holds an arrival no later than
            // any `j < i` can reach through this slot.
            let mut bvec = std::mem::take(&mut ws.buckets[b]);
            if goal.self_pruning {
                for &s32 in &bvec {
                    let slot = s32 as usize;
                    if ws.arr(slot) == INFINITY {
                        let i = (slot / nv) as u32;
                        let mc = ws.maxconn(slot % nv);
                        if (mc == u32::MAX) | (i > mc) {
                            ws.set_maxconn(slot % nv, i);
                        }
                    }
                }
            }
            // Phase 1b — settle sweep, through the shared settle step.
            state.scratch.frontier.clear();
            for &s32 in &bvec {
                let slot = s32 as usize;
                if ws.arr(slot) != INFINITY {
                    continue; // superseded entry: slot settled at an earlier key
                }
                debug_assert_eq!(ws.tent(slot), state.cur);
                stats.settled += 1;
                if settler.target_mode {
                    state.scratch.unqueued.push(s32);
                }
                let settled = settler.settle(ws, slot, Time(state.cur), &mut stats);
                if let Settled::Relax { child_anc } = settled {
                    state.scratch.frontier.push((s32, child_anc));
                }
            }
            state.pending -= bvec.len();
            bvec.clear();
            ws.buckets[b] = bvec;

            // Phases 2 + 3 — relax by edge kind, then commit.
            state.relax_and_commit(net, nv, ws, &settler, &mut stats);
            // The phase's slots leave the queue only now (module docs).
            for s32 in state.scratch.unqueued.drain(..) {
                settler.unqueue(ws, s32 as usize);
            }
        }
        if !state.advance(ws, b) {
            break;
        }
    }
    state.finish(ws);
    stats
}

/// Bucket-ring driver state of [`search_soa`].
struct RingState {
    cur: u32,
    mask: u32,
    ring: usize,
    pending: usize,
    /// The workspace's scratch, and its capacity when taken.
    scratch: RingScratch,
    capacity: usize,
}

impl RingState {
    /// Sizes the ring and injects every outgoing connection of `lo..lo+k`
    /// up front (their keys lie within one period of the earliest, which
    /// the ring covers); the cursor starts on the earliest key.
    fn init(
        net: &Network,
        lo: u32,
        k: usize,
        ws: &mut SearchWorkspace,
        stats: &mut QueryStats,
    ) -> RingState {
        let ring = ring_size(net);
        ws.ensure_kernel(ring);
        let g = net.graph();
        let tt = net.timetable();
        let nv = g.num_nodes();
        let mask = (ring - 1) as u32;
        let mut cur = u32::MAX;
        for i in 0..k {
            let c = pt_core::ConnId(lo + i as u32);
            let r = g.conn_start_node(c);
            let dep = tt.connection(c).dep.secs();
            let slot = i * nv + r.idx();
            ws.set_tent(slot, dep);
            let b = (dep & mask) as usize;
            ws.buckets[b].push(slot as u32);
            ws.occ[b >> 6] |= 1 << (b & 63);
            stats.pushes += 1;
            cur = cur.min(dep);
        }
        let scratch = std::mem::take(&mut ws.ring);
        RingState { cur, mask, ring, pending: k, capacity: scratch.capacity(), scratch }
    }

    /// Relax sweep grouped by edge kind + commit sweep, for the slots in
    /// the scratch frontier (all settled at key `self.cur`).
    fn relax_and_commit(
        &mut self,
        net: &Network,
        nv: usize,
        ws: &mut SearchWorkspace,
        settler: &Settler<'_>,
        stats: &mut QueryStats,
    ) {
        let g = net.graph();
        let kinds = g.kind_csr();
        let period = g.period();
        let cur = self.cur;
        let target_mode = settler.target_mode;
        let sc = &mut self.scratch;

        sc.slots.clear();
        sc.keys.clear();
        sc.anc.clear();
        // Constant lane: every candidate shares the settle key, so this is
        // a gather + saturating add with no data-dependent branches.
        for &(s32, anc) in &sc.frontier {
            let slot = s32 as usize;
            let v = slot % nv;
            let base = (slot - v) as u32;
            let (heads, secs) = kinds.const_edges(v);
            for j in 0..heads.len() {
                sc.slots.push(base + heads[j]);
                sc.keys.push(Time::lane_add(cur, secs[j]));
            }
            if target_mode {
                sc.anc.extend(std::iter::repeat_n(anc, heads.len()));
            }
        }
        // Time-dependent lane: one PLF evaluation per edge; an unserved
        // edge yields `u32::MAX`, which the commit comparison absorbs.
        for &(s32, anc) in &sc.frontier {
            let slot = s32 as usize;
            let v = slot % nv;
            let base = (slot - v) as u32;
            let (heads, plf_idx) = kinds.td_edges(v);
            for j in 0..heads.len() {
                sc.slots.push(base + heads[j]);
                sc.keys.push(g.plf(plf_idx[j]).eval_arr(Time(cur), period).secs());
            }
            if target_mode {
                sc.anc.extend(std::iter::repeat_n(anc, heads.len()));
            }
        }
        stats.lane_chunks += (sc.slots.len() as u64).div_ceil(64);

        // Commit: one comparison folds unreachable, settled/pruned and
        // non-improving candidates (tent of a settled slot is ≤ cur ≤ key);
        // in target mode the `anc` lane updates `noanc` as a heap push or
        // decrease would.
        for idx in 0..sc.slots.len() {
            let key = sc.keys[idx];
            let wslot = sc.slots[idx] as usize;
            let t0 = ws.tent(wslot);
            if key < t0 {
                ws.set_tent(wslot, key);
                let bb = (key & self.mask) as usize;
                ws.buckets[bb].push(wslot as u32);
                ws.occ[bb >> 6] |= 1 << (bb & 63);
                self.pending += 1;
                stats.relaxed += 1;
                let queued = t0 != u32::MAX;
                *if queued { &mut stats.decreases } else { &mut stats.pushes } += 1;
                if target_mode {
                    settler.enqueue(ws, wslot, sc.anc[idx], queued);
                }
            }
        }
    }

    /// Retires the drained bucket `b` and hops the cursor to the next
    /// occupied bucket; `false` ends the search (ring empty).
    fn advance(&mut self, ws: &mut SearchWorkspace, b: usize) -> bool {
        ws.occ[b >> 6] &= !(1u64 << (b & 63));
        if self.pending == 0 {
            return false;
        }
        self.cur = self.cur.wrapping_add(next_occupied_step(&ws.occ, self.ring, b) as u32);
        true
    }

    /// Returns the taken scratch to the workspace, counting its growth.
    fn finish(self, ws: &mut SearchWorkspace) {
        debug_assert_eq!(self.pending, 0);
        debug_assert!(ws.occ.iter().all(|&w| w == 0), "ring not drained");
        ws.grow_events += u64::from(self.scratch.capacity() > self.capacity);
        ws.ring = self.scratch;
    }
}

/// Steps (≥ 1) from bucket `b` to the next occupied bucket, cyclically,
/// by scanning the occupancy bitmap a word at a time. The caller
/// guarantees at least one bucket is occupied and bucket `b` is not.
fn next_occupied_step(occ: &[u64], ring: usize, b: usize) -> usize {
    let words = ring.div_ceil(64);
    let w0 = b / 64;
    let bit0 = b % 64;
    // Bits strictly above b in its word (bits ≥ ring are never set, so a
    // sub-word ring falls through to the wrap loop correctly).
    let above = (occ[w0] >> bit0) >> 1;
    if above != 0 {
        return 1 + above.trailing_zeros() as usize;
    }
    for dw in 1..=words {
        let w = (w0 + dw) % words;
        if occ[w] != 0 {
            let pos = w * 64 + occ[w].trailing_zeros() as usize;
            return (pos + ring - b) & (ring - 1);
        }
    }
    unreachable!("next_occupied_step on an empty ring");
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{DistanceTable, ProfileEngine, QueryKind, S2sEngine, TransferSelection};
    use pt_core::{Dur, Period};
    use pt_timetable::TimetableBuilder;

    #[test]
    fn kernel_mode_parses_and_displays() {
        for (s, m) in [("scalar", KernelMode::Scalar), ("SoA", KernelMode::Soa)] {
            assert_eq!(s.parse::<KernelMode>().unwrap(), m);
        }
        for bad in ["vector", "auto"] {
            assert!(bad.parse::<KernelMode>().unwrap_err().ends_with("(scalar|soa)"), "{bad}");
        }
        assert_eq!(KernelMode::Soa.to_string(), "soa");
        assert_eq!(KernelMode::default(), KernelMode::Soa);
    }

    /// Four trains on the line 0 → 1 → 2 → 3: a few dozen label slots, far
    /// below one ring. Every default engine still searches on the ring, for
    /// every goal; a forced `Scalar` takes the heap, to the same profiles.
    #[test]
    fn default_engines_serve_every_goal_on_the_ring() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        for h in 6..10 {
            b.add_simple_trip(&s, Time::hm(h, 0), &[Dur::minutes(10); 3], Dur::minutes(1)).unwrap();
        }
        let net = Network::new(b.build().unwrap());
        let slots = net.timetable().conn(s[0]).len() * net.graph().num_nodes();
        assert!(slots * 64 < ring_size(&net), "{slots} slots");
        let ring = ProfileEngine::new().one_to_all_with_stats(&net, s[0]);
        let heap =
            ProfileEngine::new().kernel(KernelMode::Scalar).one_to_all_with_stats(&net, s[0]);
        assert!(ring.stats.bucket_phases > 0, "one-to-all took the heap");
        assert_eq!((heap.stats.bucket_phases, &ring.profiles), (0, &heap.profiles));
        // Station 2 is the one transfer station: 0 → 3 is global (via 2),
        // 0 → 2 is target-pruned.
        let table = DistanceTable::build(&net, &TransferSelection::Explicit(vec![s[2]]));
        let tabled = S2sEngine::new().with_table(&table);
        for (engine, t, kind) in [
            (S2sEngine::new(), s[3], QueryKind::Plain),
            (tabled.clone(), s[3], QueryKind::Global),
            (tabled, s[2], QueryKind::TargetTransfer),
        ] {
            let ring = engine.query(&net, s[0], t);
            let heap = engine.kernel(KernelMode::Scalar).query(&net, s[0], t);
            assert_eq!(ring.kind, kind);
            assert!(ring.stats.bucket_phases > 0 && !ring.profile.is_empty(), "{kind:?}");
            assert_eq!((heap.stats.bucket_phases, &ring.profile), (0, &heap.profile), "{kind:?}");
        }
    }

    #[test]
    fn bitmap_step_scans_cyclically() {
        // Ring of 128 buckets, occupancy in two words.
        let ring = 128;
        let mut occ = vec![0u64; 2];
        let set = |occ: &mut Vec<u64>, b: usize| occ[b >> 6] |= 1 << (b & 63);
        set(&mut occ, 5);
        set(&mut occ, 70);
        assert_eq!(next_occupied_step(&occ, ring, 3), 2);
        assert_eq!(next_occupied_step(&occ, ring, 5), 65);
        assert_eq!(next_occupied_step(&occ, ring, 70), 63); // wraps to 5
                                                            // Sub-word ring: 16 buckets in one word.
        let mut small = vec![0u64; 1];
        small[0] |= 1 << 2;
        assert_eq!(next_occupied_step(&small, 16, 9), 9); // 9 → 2 cyclically
        assert_eq!(next_occupied_step(&small, 16, 0), 2);
    }
}
