//! SPCS — the self-pruning connection-setting profile search (paper §3.1).
//!
//! One Dijkstra-like search over `(node, connection)` pairs, keyed by
//! arrival time:
//!
//! * **Initialization**: `conn(S)` is ordered by departure time; for each
//!   outgoing connection `c_i` the queue receives `(r, i)` with key
//!   `τdep(c_i)`, where `r` is the route node `c_i` departs from.
//! * **Connection-setting**: each `(v, i)` is settled at most once; the
//!   label-setting property holds per connection.
//! * **Self-pruning**: a `maxconn(v)` label holds the highest connection
//!   index settled at `v`. Settling `(v, i)` with `i ≤ maxconn(v)` proves
//!   the connection useless at `v` (a later departure arrived no later), so
//!   its edges are not relaxed and `arr(v, i)` is marked unreachable.
//! * **Connection reduction** turns the raw labels at each station into the
//!   reduced (FIFO) profile `dist(S, T, ·)`.
//!
//! The station-to-station query (§4) adds rules to the same loop — the
//! stopping criterion, distance-table pruning, target pruning; see
//! [`s2s`](crate::s2s). Every rule is written once, in the settle step both
//! frontiers share (here a binary heap, in [`kernel`] a bucket ring), and
//! the search takes a `Goal`: one-to-all has no target and every §4 rule off.
//!
//! All per-query state lives in a reusable [`SearchWorkspace`]; a warm
//! engine answers a query without any full-size allocation.

use std::sync::Arc;

use pt_core::{ConnId, NodeId, StationId, Time, INFINITY};
use pt_graph::TdGraph;

use crate::cache::{self, CacheStats, ProfileCache, Resolved};
use crate::distance_table::DistanceTable;
use crate::kernel::{self, KernelMode};
use crate::network::Network;
use crate::parallel::{self, OneToAllResult};
use crate::partition::PartitionStrategy;
use crate::profile_set::ProfileSet;
use crate::stats::QueryStats;
use crate::workspace::{SearchWorkspace, WorkspacePool};

/// Label value marking "connection pruned at this node" (`arr(v,i) := ∞`
/// in the paper). Distinct from [`INFINITY`] = "not discovered", so a
/// pruned pair is never re-settled.
pub(crate) const PRUNED: Time = Time(u32::MAX - 1);

/// One-to-all profile search engine.
///
/// The engine is **persistent**, **network-free** and — since the
/// snapshot-isolation refactor — **shareable**: every query entry point
/// takes `&self`, so one engine can serve many reader threads at once.
/// Per-query search state lives in [`SearchWorkspace`]s checked out of an
/// internal [`WorkspacePool`] for the duration of a query and returned
/// warm, so repeated queries still run allocation-free, while concurrent
/// queries each hold private workspaces. Parallel work runs on the
/// process-global persistent fork–join pool ([`rayon::global`]), so no
/// threads are ever spawned per query. Build the engine once and stream
/// queries through it — the workspaces survive [`Network::apply_delay`]
/// updates between queries (the fully dynamic scenario: a `Patched` update
/// keeps every workspace size).
///
/// With [`ProfileEngine::with_cache`], results are memoized behind `Arc`s
/// keyed by `(source, network epoch, generation)`; a repeat query on an
/// unchanged network returns the identical [`ProfileSet`] without running
/// a search, and a delay update invalidates by bumping the generation. The
/// cache is concurrently readable (see [`ProfileCache`]), so cached reads
/// also need no exclusive access.
///
/// Builder-style configuration:
///
/// ```
/// use pt_core::{Dur, Period, Time};
/// use pt_spcs::{Network, ProfileEngine};
/// use pt_timetable::TimetableBuilder;
/// # let mut b = TimetableBuilder::new(Period::DAY);
/// # let a = b.add_named_station("A", Dur::minutes(2));
/// # let t = b.add_named_station("B", Dur::minutes(2));
/// # b.add_simple_trip(&[a, t], Time::hm(8, 0), &[Dur::minutes(30)], Dur::ZERO).unwrap();
/// # let net = Network::new(b.build().unwrap());
/// # let source = a;
/// let engine = ProfileEngine::new().threads(4).with_cache(128);
/// let profiles = engine.one_to_all(&net, source);
/// assert!(!profiles.profile(t).eval_arr(Time::hm(7, 0), Period::DAY).is_infinite());
/// ```
#[derive(Debug, Clone)]
pub struct ProfileEngine {
    threads: usize,
    strategy: PartitionStrategy,
    self_pruning: bool,
    kernel: KernelMode,
    /// Idle workspaces, checked out per query.
    pool: WorkspacePool,
    /// Opt-in generation-keyed result cache.
    cache: Option<ProfileCache>,
}

impl Default for ProfileEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileEngine {
    /// A single-threaded engine with self-pruning, the paper's default
    /// *equal number of connections* partition and no result cache.
    pub fn new() -> Self {
        ProfileEngine {
            threads: 1,
            strategy: PartitionStrategy::EqualConnections,
            self_pruning: true,
            kernel: KernelMode::Soa,
            pool: WorkspacePool::new(),
            cache: None,
        }
    }

    /// Sets the number of worker threads `p` (§3.2).
    pub fn threads(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one thread");
        self.threads = p;
        self
    }

    /// Sets the `conn(S)` partition strategy (§3.2).
    pub fn strategy(mut self, s: PartitionStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Enables/disables self-pruning (ablation; the paper always prunes).
    pub fn self_pruning(mut self, on: bool) -> Self {
        self.self_pruning = on;
        self
    }

    /// Selects the label kernel: the bucketed SoA ring (default), or the
    /// scalar binary-heap reference that the identity checks force.
    /// Results are identical either way; see [`KernelMode`].
    pub fn kernel(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// Enables the generation-keyed LRU result cache, holding at most
    /// `capacity` profile sets. Keys include the network's process-unique
    /// epoch and its timetable generation, so [`Network::apply_delay`]
    /// invalidates every stale entry for free and results can never alias
    /// across distinct networks served by one engine.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(ProfileCache::new(capacity));
        self
    }

    /// Cumulative cache counters; `None` without [`ProfileEngine::with_cache`].
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ProfileCache::stats)
    }

    /// Total backing-array growth events over all idle workspaces.
    /// Constant across repeated queries once the engine is warm — the
    /// reuse guarantee asserted by tests and tracked by the repo benchmark
    /// (`workspace.grow_events_after_warmup`). Read
    /// between queries: workspaces of an in-flight query are checked out
    /// of the pool along with their counters.
    pub fn workspace_grow_events(&self) -> u64 {
        self.pool.grow_events()
    }

    /// Runs a one-to-all profile search from `source`.
    ///
    /// Takes `&self`: many reader threads may query one engine
    /// concurrently, each against its own pinned network (snapshot).
    pub fn one_to_all(&self, net: &Network, source: StationId) -> Arc<ProfileSet> {
        self.one_to_all_with_stats(net, source).profiles
    }

    /// Like [`ProfileEngine::one_to_all`], also returning operation counts
    /// and the per-thread balance. A cache hit reports `cache_hits = 1` and
    /// zero search work.
    pub fn one_to_all_with_stats(&self, net: &Network, source: StationId) -> OneToAllResult {
        self.many_to_all_with_stats(net, &[source]).pop().expect("one result per source")
    }

    /// Batch one-to-all: profiles from every source in `sources`.
    ///
    /// With `p` threads and at least `p` (uncached) sources this
    /// parallelizes *across* queries — each worker answers whole sources
    /// from a shared work queue on its own workspace with the ordinary
    /// single-class search (no merge barrier, no cross-worker
    /// coordination). Results are identical to per-source
    /// [`ProfileEngine::one_to_all`] calls, and this is the
    /// throughput-optimal way to answer many independent queries (the
    /// regime of the ROADMAP's query streams and of
    /// [`DistanceTable::build`](crate::DistanceTable::build)). With fewer
    /// sources than threads it falls back to within-query parallelism, one
    /// source at a time. When the cache is enabled, hits are resolved up
    /// front and only the distinct misses are searched — a source repeated
    /// within one batch is searched once, its duplicates counting as hits.
    pub fn many_to_all(&self, net: &Network, sources: &[StationId]) -> Vec<Arc<ProfileSet>> {
        self.many_to_all_with_stats(net, sources).into_iter().map(|r| r.profiles).collect()
    }

    /// Like [`ProfileEngine::many_to_all`], returning full per-query
    /// results; the backend of every one-to-all entry point (memoization
    /// is `cache::resolve`, batch dispatch is `parallel::run_batch`).
    fn many_to_all_with_stats(&self, net: &Network, sources: &[StationId]) -> Vec<OneToAllResult> {
        let (epoch, generation) = (net.epoch(), net.generation());
        let keys: Vec<_> = sources.iter().map(|&s| (s, epoch, generation)).collect();
        let search = |misses: &[usize]| {
            parallel::run_batch(&self.pool, self.threads, misses.len(), |i, p, workspaces| {
                parallel::one_to_all(
                    net,
                    sources[misses[i]],
                    p,
                    self.strategy,
                    self.self_pruning,
                    self.kernel,
                    workspaces,
                )
            })
        };
        let cache = self.cache.as_ref().map(|c| &c.core);
        cache::resolve(cache, &keys, search, |r| Arc::clone(&r.profiles))
            .into_iter()
            .map(|(answer, cache_stats)| {
                let mut r = match answer {
                    Resolved::Computed(r) => r,
                    Resolved::Cached(profiles) => OneToAllResult {
                        profiles,
                        stats: QueryStats::default(),
                        thread_settled: Vec::new(),
                    },
                };
                r.stats += cache_stats;
                r
            })
            .collect()
    }
}

/// The §4 pruning rule of one search: which distance-table probes run when
/// a transfer station is settled.
#[derive(Clone, Copy)]
pub(crate) enum Rule<'t> {
    /// No table probes (one-to-all, plain and local queries).
    Plain,
    /// Distance-table pruning over the via stations of the target (Thm 3).
    Via { table: &'t DistanceTable, via: &'t [StationId] },
    /// Target pruning, the target being a transfer station (Thm 4).
    Target { table: &'t DistanceTable },
}

/// What one search is looking for, in the paper's own variables. The
/// one-to-all search of §3.1 has no target, no stopping criterion and rule
/// `Plain`; the station-to-station search of §4 adds a target and, with
/// it, the rules that only a target makes sound.
#[derive(Clone, Copy)]
pub(crate) struct Goal<'t> {
    /// `Some(T)`: only the arrivals at `T` are wanted (`ws.arr_t`); `None`:
    /// the labels at every station (`ws.station_arr`).
    pub(crate) target: Option<StationId>,
    pub(crate) self_pruning: bool,
    /// The stopping criterion (Thm 2); never fires without a target.
    pub(crate) stopping: bool,
    /// `Via` and `Target` need a target.
    pub(crate) rule: Rule<'t>,
}

/// Runs the connection-setting search for `goal` restricted to the global
/// connection-id range `lo..hi` (a contiguous subset of `conn(S)`), on the
/// given workspace.
///
/// This is the workhorse of every profile query, sequential or parallel:
/// each worker thread calls it on its partition class. With a target,
/// `ws.arr_t[i]` holds on return the best arrival at the target per local
/// connection `i`; without one, `ws.station_arr[i * ns + s]` holds the
/// arrival label of `i` at station `s` ([`INFINITY`] = unreachable or
/// pruned). The one place the frontier is chosen, by [`KernelMode`] alone:
/// the bucket ring of [`kernel`] serves every query, and the binary heap
/// runs only where a check forces [`KernelMode::Scalar`]. Both serve every
/// goal, since both settle through the one [`Settler`].
pub(crate) fn run_range(
    net: &Network,
    lo: u32,
    hi: u32,
    goal: &Goal<'_>,
    kernel_mode: KernelMode,
    ws: &mut SearchWorkspace,
) -> QueryStats {
    let g = net.graph();
    let (nv, ns) = (g.num_nodes(), g.num_stations());
    let k = (hi - lo) as usize;
    let stats = match kernel_mode {
        KernelMode::Soa => kernel::search_soa(net, lo, hi, goal, ws),
        KernelMode::Scalar => search_scalar(net, lo, hi, goal, ws),
    };
    if goal.target.is_none() {
        // Extract labels at station nodes (station nodes are 0..ns).
        ws.fresh_station_arr(k * ns);
        for i in 0..k {
            for s in 0..ns {
                let a = ws.arr(i * nv + s);
                if a < PRUNED {
                    ws.station_arr[i * ns + s] = a;
                }
            }
        }
    }
    stats
}

/// What settling one slot decided.
pub(crate) enum Settled {
    /// `arr ← PRUNED`: stopping criterion, finished connection, self-pruning.
    Pruned,
    /// Labelled, edges useless: the target itself, or a §4 table rule fired.
    Finished,
    /// Labelled; the edge heads inherit `child_anc` (target pruning's flag).
    Relax { child_anc: bool },
}

/// The settle step both frontiers share: every decision taken when a slot
/// `(v, i)` is settled at key `t` (§3.1 self-pruning, the §4 rules) and the
/// state those rules carry. A frontier pops or sweeps slots, relaxes on
/// [`Settled::Relax`], and reports queue changes through
/// [`Settler::enqueue`] / [`Settler::unqueue`] to keep `noanc` exact.
pub(crate) struct Settler<'a> {
    g: &'a TdGraph,
    goal: Goal<'a>,
    nv: usize,
    /// Node of the target station; `usize::MAX` (no node) without one.
    target_v: usize,
    /// The rule is `Target`: `anc`, `noanc`, `γ` and `done` are live.
    pub(crate) target_mode: bool,
    /// Stopping criterion state: highest local connection settled at `T`.
    tm: i64,
}

impl<'a> Settler<'a> {
    /// Starts a search for `goal` over `k` local connections: prepares the
    /// workspace (labels, `maxconn`, outputs, the §4 scratch).
    pub(crate) fn begin(
        net: &'a Network,
        k: usize,
        goal: &Goal<'a>,
        ws: &mut SearchWorkspace,
    ) -> Settler<'a> {
        let g = net.graph();
        let nv = g.num_nodes();
        let target_mode = matches!(goal.rule, Rule::Target { .. });
        // O(1): the generation counter invalidates the previous query.
        ws.begin(k * nv, nv, target_mode);
        if goal.target.is_some() {
            ws.fresh_arr_t(k);
        }
        match goal.rule {
            Rule::Plain => {}
            Rule::Via { via, .. } => ws.fresh_mu(k * via.len()),
            Rule::Target { .. } => ws.fresh_target_scratch(k),
        }
        let target_v = goal.target.map_or(usize::MAX, |t| g.station_node(t).idx());
        Settler { g, goal: *goal, nv, target_v, target_mode, tm: -1 }
    }

    /// Settles `slot = i·|V| + v` at key `t`, in the order the paper states
    /// the rules. Self-pruning raises `maxconn(v)` to `i` and prunes iff
    /// `i < maxconn(v)`: the heap never settles a slot twice, and the ring's
    /// pre-sweep has already raised `maxconn(v)` over the slot's ties.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        ws: &mut SearchWorkspace,
        slot: usize,
        t: Time,
        stats: &mut QueryStats,
    ) -> Settled {
        let (i, v) = (slot / self.nv, slot % self.nv);
        // Stopping criterion (Thm 2).
        if self.goal.stopping && (i as i64) <= self.tm {
            stats.stop_pruned += 1;
            ws.set_arr(slot, PRUNED);
            return Settled::Pruned;
        }
        // Connection already finished by target pruning.
        if self.target_mode && ws.done[i] {
            stats.table_pruned += 1;
            ws.set_arr(slot, PRUNED);
            return Settled::Pruned;
        }
        // Self-pruning (§3.1): a later connection already settled v, so
        // this one cannot be part of any reduced profile through v.
        if self.goal.self_pruning {
            let mc = ws.maxconn(v);
            if mc != u32::MAX && (i as u32) < mc {
                stats.self_pruned += 1;
                ws.set_arr(slot, PRUNED);
                return Settled::Pruned;
            }
            ws.set_maxconn(v, i as u32);
        }
        ws.set_arr(slot, t);

        // Settling the target station finishes connection i.
        if v == self.target_v {
            ws.arr_t[i] = ws.arr_t[i].min(t);
            self.tm = self.tm.max(i as i64);
            if self.target_mode {
                ws.done[i] = true;
            }
            return Settled::Finished;
        }

        // The §4 rules run where a transfer station is settled.
        let (Rule::Via { table, .. } | Rule::Target { table }) = self.goal.rule else {
            return Settled::Relax { child_anc: false };
        };
        let g = self.g;
        let station_v = g.station_of(NodeId::from_idx(v));
        if !table.is_transfer(station_v) {
            return Settled::Relax { child_anc: self.target_mode && ws.anc(slot) };
        }
        match (self.goal.rule, self.goal.target) {
            (Rule::Via { via, .. }, _) => {
                // Tighten µ bounds, then try to prune (Thm 3).
                let board = t + g.transfer_time(station_v);
                let mu = &mut ws.mu[i * via.len()..(i + 1) * via.len()];
                let mut prunable = true;
                for (&vj, m) in via.iter().zip(mu) {
                    let reach = table.eval(station_v, vj, board);
                    if !reach.is_infinite() {
                        *m = (*m).min(reach + g.transfer_time(vj));
                    }
                    prunable = prunable && table.eval(station_v, vj, t) > *m;
                }
                if prunable {
                    stats.table_pruned += 1;
                    return Settled::Finished; // v is useless for every via station
                }
            }
            (Rule::Target { .. }, Some(target)) => {
                // Lower bound γ_i (no transfer at st(v)).
                ws.gamma[i] = ws.gamma[i].min(table.eval(station_v, target, t));
                // Upper bound through st(v) with a transfer (Thm 4), final
                // once no queue entry of i but this slot itself lacks a
                // transfer ancestor.
                let cand = table.eval(station_v, target, t + g.transfer_time(station_v));
                let others = ws.noanc[i] - u32::from(!ws.anc(slot));
                if others == 0 && !cand.is_infinite() && cand == ws.gamma[i] {
                    ws.arr_t[i] = ws.arr_t[i].min(cand);
                    ws.done[i] = true;
                    stats.table_pruned += 1;
                    return Settled::Finished;
                }
            }
            _ => {}
        }
        // The path now passes a transfer station.
        Settled::Relax { child_anc: self.target_mode }
    }

    /// Records that `slot` now sits in the queue on a path with (`anc`) or
    /// without a transfer-station ancestor; `queued` when it was already
    /// queued (a decrease) rather than just inserted.
    #[inline]
    pub(crate) fn enqueue(&self, ws: &mut SearchWorkspace, slot: usize, anc: bool, queued: bool) {
        if queued {
            self.unqueue(ws, slot);
        }
        if self.target_mode {
            ws.noanc[slot / self.nv] += u32::from(!anc);
            ws.set_anc(slot, anc);
        }
    }

    /// Records that `slot` has left the queue (settled, or re-queued).
    #[inline]
    pub(crate) fn unqueue(&self, ws: &mut SearchWorkspace, slot: usize) {
        if self.target_mode && !ws.anc(slot) {
            ws.noanc[slot / self.nv] -= 1;
        }
    }
}

/// The binary-heap search behind [`run_range`] — the arbiter of
/// correctness for the bucket-ring kernel: init, pop, settle, relax. Only
/// this search sizes the heap, so a serving workspace never grows it.
fn search_scalar(
    net: &Network,
    lo: u32,
    hi: u32,
    goal: &Goal<'_>,
    ws: &mut SearchWorkspace,
) -> QueryStats {
    let g = net.graph();
    let nv = g.num_nodes();
    let k = (hi - lo) as usize;
    let mut stats = QueryStats::default();
    let mut settler = Settler::begin(net, k, goal, ws);
    ws.grow_events += u64::from(ws.heap.reset(k * nv));

    // Initialization: one queue item per outgoing connection, at the route
    // node it departs from, keyed by its departure time. Two connections of
    // one thread may depart from the same route node; distinct `i` gives
    // distinct slots, so no key collision is possible.
    for i in 0..k {
        let c = ConnId(lo + i as u32);
        let slot = i * nv + g.conn_start_node(c).idx();
        ws.heap.push_or_decrease(slot, net.timetable().connection(c).dep.secs() as u64);
        stats.pushes += 1;
    }

    while let Some((slot, key)) = ws.heap.pop() {
        stats.settled += 1;
        let t = Time(key as u32);
        let settled = settler.settle(ws, slot, t, &mut stats);
        settler.unqueue(ws, slot);
        let Settled::Relax { child_anc } = settled else { continue };
        let v = slot % nv;
        for (w, ta) in g.arrivals(NodeId::from_idx(v), t, None) {
            let wslot = slot - v + w.idx();
            if ws.arr(wslot) != INFINITY {
                continue; // already settled (or pruned) for this connection
            }
            stats.relaxed += 1;
            let queued = ws.heap.contains(wslot);
            if ws.heap.push_or_decrease(wslot, ta.secs() as u64) {
                *if queued { &mut stats.decreases } else { &mut stats.pushes } += 1;
                settler.enqueue(ws, wslot, child_anc, queued);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{Dur, Period};
    use pt_timetable::TimetableBuilder;

    /// Line A→B→C every 30 min 08:00–10:00 (10-min legs, no dwell) and a
    /// detour line A→D→C at 07:45 arriving late.
    fn net() -> (Network, Vec<StationId>) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        for m in [0u32, 30, 60, 90, 120] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(8, 0) + Dur::minutes(m),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::ZERO,
            )
            .unwrap();
        }
        b.add_simple_trip(
            &[s[0], s[3], s[2]],
            Time::hm(7, 45),
            &[Dur::minutes(30), Dur::minutes(30)],
            Dur::ZERO,
        )
        .unwrap();
        (Network::new(b.build().unwrap()), s)
    }

    #[test]
    fn profile_has_one_point_per_useful_departure() {
        let (net, s) = net();
        let engine = ProfileEngine::new();
        let prof = engine.one_to_all(&net, s[0]);
        let to_b = prof.profile(s[1]);
        // Five line departures, each useful for reaching B.
        assert_eq!(to_b.len(), 5);
        assert_eq!(prof.earliest_arrival(s[1], Time::hm(8, 10)), Time::hm(8, 40));
    }

    #[test]
    fn dominated_detour_is_reduced_away() {
        let (net, s) = net();
        let engine = ProfileEngine::new();
        let prof = engine.one_to_all(&net, s[0]);
        let to_c = prof.profile(s[2]);
        // The 07:45 detour arrives at C at 08:45; the 08:00 direct arrives
        // 08:20 — the detour departure is dominated and must be gone.
        assert!(to_c.points().iter().all(|p| p.dep != Time::hm(7, 45)));
        assert_eq!(to_c.len(), 5);
        // But the detour is the only way to reach D.
        let to_d = prof.profile(s[3]);
        assert_eq!(to_d.len(), 1);
        assert_eq!(to_d.points()[0].arr, Time::hm(8, 15));
    }

    #[test]
    fn profile_matches_time_queries_at_every_departure() {
        let (net, s) = net();
        let engine = ProfileEngine::new();
        let prof = engine.one_to_all(&net, s[0]);
        for tau in [Time::hm(7, 0), Time::hm(7, 45), Time::hm(8, 1), Time::hm(9, 55)] {
            for &target in &s[1..] {
                let want = crate::time_query::earliest_arrival(&net, s[0], tau, target);
                let got = prof.profile(target).eval_arr(tau, Period::DAY);
                assert_eq!(got, want, "target {target} at {tau}");
            }
        }
    }

    #[test]
    fn self_pruning_reduces_work_but_not_results() {
        let (net, s) = net();
        let with = ProfileEngine::new().one_to_all_with_stats(&net, s[0]);
        let without = ProfileEngine::new().self_pruning(false).one_to_all_with_stats(&net, s[0]);
        assert_eq!(with.profiles, without.profiles);
        assert!(with.stats.relaxed <= without.stats.relaxed);
        assert!(with.stats.self_pruned > 0);
    }

    #[test]
    fn source_profile_is_trivial() {
        let (net, s) = net();
        let prof = ProfileEngine::new().one_to_all(&net, s[0]);
        // Every point of the source profile departs and arrives at the same
        // time (you are already there).
        for p in prof.profile(s[0]).points() {
            assert_eq!(p.dep, p.arr);
        }
    }

    #[test]
    fn warm_engine_answers_queries_without_allocating() {
        let (net, s) = net();
        let engine = ProfileEngine::new();
        let first = engine.one_to_all(&net, s[0]);
        let warm_grows = engine.workspace_grow_events();
        assert!(warm_grows > 0, "the first query must have sized the workspace");
        // Ten more queries from the same source: identical results, zero
        // further backing-array growth — the workspace-reuse guarantee.
        for _ in 0..10 {
            let again = engine.one_to_all(&net, s[0]);
            assert_eq!(again, first);
        }
        assert_eq!(engine.workspace_grow_events(), warm_grows);
    }

    #[test]
    fn engine_reuse_across_different_sources_is_consistent() {
        let (net, s) = net();
        let reused = ProfileEngine::new().threads(2);
        // Interleave sources so stale labels of one query would corrupt the
        // next if the epoch clearing were wrong.
        for &src in &[s[0], s[3], s[0], s[1], s[0]] {
            let fresh = ProfileEngine::new().threads(2).one_to_all(&net, src);
            assert_eq!(reused.one_to_all(&net, src), fresh, "source {src}");
        }
    }

    #[test]
    fn many_to_all_matches_individual_queries() {
        let (net, s) = net();
        let sources: Vec<StationId> = vec![s[0], s[1], s[3], s[0]];
        let individual: Vec<Arc<ProfileSet>> =
            sources.iter().map(|&src| ProfileEngine::new().one_to_all(&net, src)).collect();
        // Across-query parallelism (sources >= threads)...
        let batch = ProfileEngine::new().threads(2).many_to_all(&net, &sources);
        assert_eq!(batch, individual);
        // ...and the within-query fallback (sources < threads).
        let few = ProfileEngine::new().threads(8).many_to_all(&net, &sources[..1]);
        assert_eq!(few[0], individual[0]);
    }

    #[test]
    fn cache_hits_skip_the_search_and_share_the_set() {
        let (net, s) = net();
        let engine = ProfileEngine::new().with_cache(8);
        let first = engine.one_to_all_with_stats(&net, s[0]);
        assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 1));
        assert!(first.stats.settled > 0);
        let again = engine.one_to_all_with_stats(&net, s[0]);
        // No search ran: zero settled/relaxed, one hit, the identical set.
        assert_eq!(again.stats.settled, 0);
        assert_eq!((again.stats.cache_hits, again.stats.cache_misses), (1, 0));
        assert!(Arc::ptr_eq(&again.profiles, &first.profiles));
        let cs = engine.cache_stats().expect("cache enabled");
        assert_eq!((cs.hits, cs.misses, cs.entries), (1, 1, 1));
    }

    #[test]
    fn delay_bumps_generation_and_invalidates_cache() {
        use pt_core::TrainId;
        use pt_timetable::Recovery;
        let (mut net, s) = net();
        let engine = ProfileEngine::new().with_cache(8);
        let before = engine.one_to_all(&net, s[0]);
        let g0 = net.generation();
        assert!(net.apply_delay(TrainId(0), 0, Dur::minutes(7), Recovery::None).changed());
        assert!(net.generation() > g0);
        // Same source, new generation: the stale entry cannot match.
        let after = engine.one_to_all_with_stats(&net, s[0]);
        assert_eq!(after.stats.cache_misses, 1);
        assert_ne!(&after.profiles, &before, "the delay must change the profiles");
        // The fresh result matches an uncached engine on the patched net.
        assert_eq!(after.profiles, ProfileEngine::new().one_to_all(&net, s[0]));
    }

    #[test]
    fn many_to_all_resolves_hits_and_searches_misses() {
        let (net, s) = net();
        let engine = ProfileEngine::new().with_cache(8);
        let _ = engine.one_to_all(&net, s[0]);
        let results = engine.many_to_all_with_stats(&net, &[s[0], s[1], s[0]]);
        assert_eq!(results[0].stats.cache_hits, 1);
        assert_eq!(results[1].stats.cache_misses, 1);
        assert_eq!(results[2].stats.cache_hits, 1, "duplicate source hits within the batch");
        for (r, &src) in results.iter().zip(&[s[0], s[1], s[0]]) {
            assert_eq!(r.profiles, ProfileEngine::new().one_to_all(&net, src));
        }
    }

    #[test]
    fn cache_never_aliases_across_networks() {
        // Engines are network-free: one cached engine may serve several
        // networks. Distinct networks share generation 0, so the key's
        // epoch component must keep their entries apart.
        let make = |leg_min: u32| {
            let mut b = pt_timetable::TimetableBuilder::new(Period::DAY);
            let a = b.add_named_station("A", Dur::minutes(2));
            let t = b.add_named_station("T", Dur::minutes(2));
            b.add_simple_trip(&[a, t], Time::hm(8, 0), &[Dur::minutes(leg_min)], Dur::ZERO)
                .unwrap();
            (Network::new(b.build().unwrap()), a, t)
        };
        let (net1, a, t) = make(30);
        let (net2, _, _) = make(60);
        assert_ne!(net1.epoch(), net2.epoch());
        assert_ne!(net1.epoch(), net1.clone().epoch(), "clones get fresh epochs");
        let engine = ProfileEngine::new().with_cache(8);
        let on1 = engine.one_to_all(&net1, a);
        let on2 = engine.one_to_all(&net2, a);
        assert_eq!(on1.profile(t).points()[0].arr, Time::hm(8, 30));
        assert_eq!(on2.profile(t).points()[0].arr, Time::hm(9, 0), "stale cross-network hit");
    }

    #[test]
    fn many_to_all_dedupes_in_batch_duplicate_misses() {
        let (net, s) = net();
        let engine = ProfileEngine::new().with_cache(8);
        // Cold cache, duplicated source: exactly one search may run.
        let results = engine.many_to_all_with_stats(&net, &[s[0], s[0], s[0]]);
        assert_eq!(results[0].stats.cache_misses, 1);
        assert!(results[0].stats.settled > 0);
        for r in &results[1..] {
            assert_eq!(r.stats.cache_hits, 1, "duplicates resolve without a search");
            assert_eq!(r.stats.settled, 0);
            assert_eq!(r.profiles, results[0].profiles);
        }
        let cs = engine.cache_stats().unwrap();
        assert_eq!(cs.entries, 1);
        // Tiny cache + duplicates: evicted in-batch entries still resolve.
        let small = ProfileEngine::new().with_cache(1);
        let many = small.many_to_all_with_stats(&net, &[s[0], s[1], s[0], s[1]]);
        for (r, &src) in many.iter().zip(&[s[0], s[1], s[0], s[1]]) {
            assert_eq!(r.profiles, ProfileEngine::new().one_to_all(&net, src));
        }
    }

    #[test]
    fn cache_eviction_is_reported_in_query_stats() {
        let (net, s) = net();
        let engine = ProfileEngine::new().with_cache(1);
        let _ = engine.one_to_all(&net, s[0]);
        let r = engine.one_to_all_with_stats(&net, s[1]);
        assert_eq!(r.stats.cache_evictions, 1, "capacity-1 cache must evict");
        let cs = engine.cache_stats().unwrap();
        assert_eq!((cs.evictions, cs.entries, cs.capacity), (1, 1, 1));
    }
}
