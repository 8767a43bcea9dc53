//! Station-to-station profile queries (paper §4).
//!
//! The one-to-all search is specialized to a single target `T` with three
//! pruning rules, each proved correct in the paper:
//!
//! * **Stopping criterion** (Thm 2): once connection `i` settled at `T`,
//!   every queued `(v, j)` with `j ≤ i` is discarded — boarding an earlier
//!   train can no longer improve the profile at `T`.
//! * **Distance-table pruning** (Thm 3), for *global* queries: every best
//!   connection must pass a *via station* `V_j ∈ via(T)`. Settling `(v, i)`
//!   at a transfer station tightens the upper bounds
//!   `µ_{i,j} = min(µ_{i,j}, D(st(v), V_j, arr + T(st(v))) + T(V_j))` and the
//!   search is pruned at `v` if even the transfer-free lower bound
//!   `D(st(v), V_j, arr)` exceeds `µ_{i,j}` for every via station.
//! * **Target pruning** (Thm 4), when `T` itself is a transfer station:
//!   maintain the lower bound `γ_i = min D(st(v), T, arr)`; once every queue
//!   entry of `i` has a transfer station on its path and some settled
//!   transfer station achieves `D(st(v), T, arr + T(st(v))) = γ_i`, the
//!   optimum for `i` is found and the connection is finished.
//!
//! When both endpoints are transfer stations the stored table profile *is*
//! the answer; when the query is *local* (`S ∈ local(T)`) only the stopping
//! criterion applies. This module resolves a query to its [`QueryKind`] and
//! the matching `Goal`; the rules themselves run inside the one search loop
//! of [`connection_setting`](crate::connection_setting).
//!
//! Like [`ProfileEngine`](crate::ProfileEngine), the engine is persistent
//! and — since the snapshot-isolation refactor — shareable: every query
//! entry point takes `&self`, per-query [`SearchWorkspace`]s are checked
//! out of an internal pool, parallel work runs on the process-global
//! fork–join pool ([`rayon::global`]), and [`S2sEngine::try_batch`]
//! distributes whole queries over that pool for stream throughput. An
//! opt-in [`S2sCache`] memoizes results keyed
//! `(source, target, epoch, generation)`.

use std::sync::Arc;
use std::time::Instant;

use pt_core::{Profile, ProfilePoint, StationId};

use crate::cache::{self, CacheStats, LruCore, Resolved};
use crate::connection_setting::{run_range, Goal, Rule};
use crate::distance_table::{DistanceTable, StaleTable};
use crate::kernel::KernelMode;
use crate::network::Network;
use crate::parallel;
use crate::partition::PartitionStrategy;
use crate::stats::QueryStats;
use crate::workspace::{SearchWorkspace, WorkspacePool};

/// How a station-to-station query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Both endpoints are transfer stations: answered from the table.
    TableDirect,
    /// `S ∈ local(T)`: search with stopping criterion only.
    Local,
    /// Global query pruned via the distance table and `via(T)`.
    Global,
    /// `T ∈ S_trans`: target pruning.
    TargetTransfer,
    /// No distance table configured, or the snapshot's table is still
    /// being filled: stopping criterion only.
    Plain,
    /// Endpoints in different shards: stitched over border stations by the
    /// cross-shard gateway (see [`crate::shard::ShardedService`]).
    Gateway,
}

/// Result of a station-to-station profile query.
#[derive(Debug, Clone)]
pub struct S2sResult {
    /// The reduced profile `dist(S, T, ·)`.
    pub profile: Profile,
    /// Operation counters (summed over threads).
    pub stats: QueryStats,
    /// Which §4 machinery answered the query.
    pub kind: QueryKind,
}

/// Key of one [`S2sCache`] entry: `(source, target, epoch, generation)`.
type S2sKey = (StationId, StationId, u64, u64);

/// A concurrently readable LRU over station-to-station results, keyed by
/// `(source, target, network epoch, timetable generation)` — the s2s
/// counterpart of [`crate::ProfileCache`], sharing its interior-mutable
/// core (read-locked `get`, atomic counters, deterministic LRU under a
/// single thread).
///
/// Values are stored as `Arc<Profile>` plus the answering [`QueryKind`]; a
/// hit clones the profile out (the public [`S2sResult::profile`] is a
/// plain [`Profile`]) and reports `cache_hits = 1` with zero search work.
/// Because §4 pruning is answer-preserving, the cached profile is valid
/// for any table configuration queried at the same `(epoch, generation)`;
/// the stored `kind` reflects whichever configuration computed it first.
#[derive(Debug, Clone)]
pub struct S2sCache {
    core: LruCore<S2sKey, (Arc<Profile>, QueryKind)>,
}

impl S2sCache {
    /// An empty cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> S2sCache {
        S2sCache { core: LruCore::new(capacity) }
    }

    /// Shared-lock lookup; see [`crate::ProfileCache::get`].
    pub fn get(
        &self,
        source: StationId,
        target: StationId,
        epoch: u64,
        generation: u64,
    ) -> Option<(Arc<Profile>, QueryKind)> {
        self.core.get((source, target, epoch, generation))
    }

    /// Stores a result; returns `true` iff an eviction happened.
    pub fn insert(
        &self,
        source: StationId,
        target: StationId,
        epoch: u64,
        generation: u64,
        profile: Arc<Profile>,
        kind: QueryKind,
    ) -> bool {
        self.core.insert((source, target, epoch, generation), (profile, kind))
    }

    /// Cumulative counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        self.core.stats()
    }
}

/// Station-to-station query engine. Per-query workspaces come out of an
/// internal pool (parallel work runs on the process-global pool), so every
/// query entry point takes `&self` and one engine may serve many reader
/// threads concurrently; repeated queries through one engine run
/// allocation-free once warm. Queries take the network by reference, so
/// the workspaces also survive [`Network::apply_delay`] /
/// [`Network::apply_feed`] updates between queries. A distance table —
/// configured or per call; it brings its own transfer mask — must match
/// the queried network state: after a delay the engine refuses it, typed
/// ([`StaleTable`]) from every `try_` entry point (only the one-line
/// [`S2sEngine::query`] wrapper turns that into a panic), until it is
/// [`refresh`](DistanceTable::refresh)ed or rebuilt. With
/// [`S2sEngine::with_cache`], results are memoized in an [`S2sCache`]
/// keyed `(source, target, epoch, generation)`.
#[derive(Debug, Clone)]
pub struct S2sEngine<'a> {
    threads: usize,
    strategy: PartitionStrategy,
    stopping: bool,
    kernel: KernelMode,
    table: Option<&'a DistanceTable>,
    /// Idle workspaces, checked out per query.
    pool: WorkspacePool,
    /// Opt-in generation-keyed result cache.
    cache: Option<S2sCache>,
}

impl<'a> Default for S2sEngine<'a> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> S2sEngine<'a> {
    /// An engine with the stopping criterion enabled and no distance table.
    pub fn new() -> Self {
        S2sEngine {
            threads: 1,
            strategy: PartitionStrategy::EqualConnections,
            stopping: true,
            kernel: KernelMode::Soa,
            table: None,
            pool: WorkspacePool::new(),
            cache: None,
        }
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, p: usize) -> Self {
        assert!(p >= 1);
        self.threads = p;
        self
    }

    /// Sets the `conn(S)` partition strategy.
    pub fn strategy(mut self, s: PartitionStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Enables/disables the stopping criterion (ablation).
    pub fn stopping_criterion(mut self, on: bool) -> Self {
        self.stopping = on;
        self
    }

    /// Selects the label kernel (see [`KernelMode`]): the bucket ring by
    /// default, the scalar heap where a check forces it; both serve every
    /// query kind, the table-pruned ones included.
    pub fn kernel(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// Attaches a precomputed distance table for §4 pruning.
    pub fn with_table(mut self, table: &'a DistanceTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Enables the generation-keyed LRU result cache, holding at most
    /// `capacity` station-to-station results. Keys include the network's
    /// process-unique epoch and its timetable generation, so a feed
    /// invalidates every stale entry for free.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(S2sCache::new(capacity));
        self
    }

    /// Cumulative cache counters; `None` without [`S2sEngine::with_cache`].
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(S2sCache::stats)
    }

    /// Total backing-array growth events over all idle workspaces;
    /// constant across repeated queries once the engine is warm. Read
    /// between queries (in-flight queries hold their workspaces).
    pub fn workspace_grow_events(&self) -> u64 {
        self.pool.grow_events()
    }

    /// Computes the profile `dist(source, target, ·)`.
    ///
    /// Takes `&self`: many reader threads may query one engine
    /// concurrently. Panics when the configured distance table is stale
    /// (see [`S2sEngine::try_query`] for the recoverable form).
    pub fn query(&self, net: &Network, source: StationId, target: StationId) -> S2sResult {
        match self.try_query(net, source, target) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`S2sEngine::query`], but a stale distance table — the network
    /// moved on (delay feed) since the table was built or refreshed — comes
    /// back as a typed [`StaleTable`] instead of a panic, so a feed-driven
    /// server can [`DistanceTable::refresh`] (or rebuild) and retry instead
    /// of crashing. An engine without a table never errors.
    pub fn try_query(
        &self,
        net: &Network,
        source: StationId,
        target: StationId,
    ) -> Result<S2sResult, StaleTable> {
        self.try_query_on(net, self.table, source, target)
    }

    /// Like [`S2sEngine::try_query`], but with the distance table supplied
    /// **per call** instead of configured at construction — the form the
    /// shard router ([`crate::shard::ShardedService`]) uses, where each
    /// shard owns its table alongside its network and the engine must stay
    /// `'static`. `None` disables §4 pruning for this query; any table
    /// configured via [`S2sEngine::with_table`] is ignored. The single-query
    /// backend: the one-pair case of the batch backend below.
    pub fn try_query_on(
        &self,
        net: &Network,
        table: Option<&DistanceTable>,
        source: StationId,
        target: StationId,
    ) -> Result<S2sResult, StaleTable> {
        let mut answers = self.try_batch_on(net, table, &[(source, target)])?;
        Ok(answers.pop().expect("one result per pair"))
    }

    /// Batch station-to-station queries.
    ///
    /// With `p` threads and at least `p` pairs this parallelizes *across*
    /// queries: each worker answers whole queries from a shared work queue
    /// on its own workspace, with the full §4 pruning per query. With fewer
    /// pairs it answers them one at a time using within-query parallelism.
    ///
    /// A stale configured distance table comes back as a typed
    /// [`StaleTable`] — checked once up front for the whole batch.
    pub fn try_batch(
        &self,
        net: &Network,
        pairs: &[(StationId, StationId)],
    ) -> Result<Vec<S2sResult>, StaleTable> {
        self.try_batch_on(net, self.table, pairs)
    }

    /// [`S2sEngine::try_batch`] with the distance table supplied per call —
    /// the backend of every entry point: freshness check, then memoization
    /// (`cache::resolve`: cached pairs are answered from the result cache,
    /// only the distinct misses are searched) over the batch dispatch
    /// (`parallel::run_batch`).
    pub(crate) fn try_batch_on(
        &self,
        net: &Network,
        table: Option<&DistanceTable>,
        pairs: &[(StationId, StationId)],
    ) -> Result<Vec<S2sResult>, StaleTable> {
        if let Some(table) = table {
            table.check_fresh(net)?;
        }
        let (epoch, generation) = (net.epoch(), net.generation());
        let keys: Vec<S2sKey> = pairs.iter().map(|&(s, t)| (s, t, epoch, generation)).collect();
        let cfg = QueryConfig {
            net,
            table,
            stopping: self.stopping,
            strategy: self.strategy,
            kernel: self.kernel,
        };
        let search = |misses: &[usize]| {
            parallel::run_batch(&self.pool, self.threads, misses.len(), |i, p, workspaces| {
                let (s, t) = pairs[misses[i]];
                query_with(&cfg, p, workspaces, s, t)
            })
        };
        let cache = self.cache.as_ref().map(|c| &c.core);
        let answers =
            cache::resolve(cache, &keys, search, |r| (Arc::new(r.profile.clone()), r.kind));
        Ok(answers
            .into_iter()
            .map(|(answer, cache_stats)| {
                let mut r = match answer {
                    Resolved::Computed(r) => r,
                    Resolved::Cached((profile, kind)) => S2sResult {
                        profile: (*profile).clone(),
                        stats: QueryStats::default(),
                        kind,
                    },
                };
                r.stats += cache_stats;
                r
            })
            .collect())
    }
}

/// The engine configuration a query needs, separated from the mutable
/// worker state so batch workers can share it.
struct QueryConfig<'a> {
    net: &'a Network,
    table: Option<&'a DistanceTable>,
    stopping: bool,
    strategy: PartitionStrategy,
    kernel: KernelMode,
}

/// Answers one query with `threads` partition classes on the given
/// workspaces (one per class).
fn query_with(
    cfg: &QueryConfig<'_>,
    threads: usize,
    workspaces: &mut [SearchWorkspace],
    source: StationId,
    target: StationId,
) -> S2sResult {
    let tt = cfg.net.timetable();
    let period = tt.period();

    // Special case: both endpoints in the table (§4, "Special Cases").
    if let Some(table) = cfg.table {
        if table.is_transfer(source) && table.is_transfer(target) {
            return S2sResult {
                profile: table.profile(source, target).clone(),
                stats: QueryStats::default(),
                kind: QueryKind::TableDirect,
            };
        }
    }

    // Resolve the pruning mode.
    let (kind, via): (QueryKind, Vec<StationId>) = match cfg.table {
        None => (QueryKind::Plain, Vec::new()),
        Some(table) => {
            if table.is_transfer(target) {
                (QueryKind::TargetTransfer, Vec::new())
            } else {
                let vl = cfg.net.station_graph().via_and_local(target, table.transfer_mask());
                if vl.is_local_query(source) || source == target {
                    (QueryKind::Local, Vec::new())
                } else if vl.via.is_empty() {
                    // No via station separates T: a global source cannot
                    // reach it at all.
                    return S2sResult {
                        profile: Profile::EMPTY,
                        stats: QueryStats::default(),
                        kind: QueryKind::Global,
                    };
                } else {
                    (QueryKind::Global, vl.via)
                }
            }
        }
    };
    let rule = match (kind, cfg.table) {
        (QueryKind::Global, Some(table)) => Rule::Via { table, via: &via },
        (QueryKind::TargetTransfer, Some(table)) => Rule::Target { table },
        _ => Rule::Plain,
    };
    let goal = Goal { target: Some(target), self_pruning: true, stopping: cfg.stopping, rule };

    let conn_range = tt.conn_ids(source);
    let conns = tt.conn(source);
    let ranges = cfg.strategy.partition(conns, threads, period);
    let per_stats = parallel::run_classes(conn_range.start, &ranges, workspaces, |lo, hi, ws| {
        run_range(cfg.net, lo, hi, &goal, cfg.kernel, ws)
    });

    let mut stats = QueryStats::sum(per_stats);
    let merge_start = Instant::now();
    let used = &workspaces[..ranges.len()];
    let raw = used.iter().zip(&ranges).flat_map(|(ws, r)| {
        let deps = conns[r.start as usize..].iter().map(|c| c.dep);
        deps.zip(&ws.arr_t).filter(|(_, a)| !a.is_infinite()).map(|(d, &a)| ProfilePoint::new(d, a))
    });
    let profile = Profile::from_unreduced(raw.collect(), period);
    stats.merge_ns = merge_start.elapsed().as_nanos() as u64;
    S2sResult { profile, stats, kind }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection_setting::ProfileEngine;
    use crate::transfer_selection::TransferSelection;
    use pt_timetable::synthetic::city::{generate_city, CityConfig};
    use pt_timetable::synthetic::rail::{generate_rail, RailConfig};

    fn city() -> Network {
        Network::new(generate_city(&CityConfig::sized(49, 7, 17)))
    }

    fn rail() -> Network {
        Network::new(generate_rail(&RailConfig::national(8, 4)))
    }

    /// Every (S, T) pair in `pairs`: the s2s profile must equal the
    /// corresponding one-to-all profile.
    fn assert_matches_one_to_all(net: &Network, engine: &S2sEngine<'_>, pairs: &[(u32, u32)]) {
        for &(s, t) in pairs {
            let (s, t) = (StationId(s), StationId(t));
            let want = ProfileEngine::new().one_to_all(net, s);
            let got = engine.query(net, s, t);
            assert_eq!(&got.profile, want.profile(t), "{s}→{t} ({:?})", got.kind);
        }
    }

    #[test]
    fn stopping_criterion_preserves_profiles() {
        let net = city();
        let engine = S2sEngine::new();
        assert_matches_one_to_all(&net, &engine, &[(0, 48), (5, 7), (13, 2), (20, 20)]);
    }

    #[test]
    fn stopping_criterion_reduces_settled() {
        let net = city();
        let s = StationId(3);
        let t = StationId(40);
        let with = S2sEngine::new().query(&net, s, t);
        let without = S2sEngine::new().stopping_criterion(false).query(&net, s, t);
        assert_eq!(with.profile, without.profile);
        assert!(
            with.stats.settled <= without.stats.settled,
            "stopping made things worse: {} vs {}",
            with.stats.settled,
            without.stats.settled
        );
        assert!(with.stats.stop_pruned > 0);
    }

    #[test]
    fn table_pruned_queries_preserve_profiles_city() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let engine = S2sEngine::new().with_table(&table);
        let pairs: Vec<(u32, u32)> =
            vec![(0, 48), (1, 37), (9, 22), (30, 4), (11, 44), (48, 0), (17, 8)];
        assert_matches_one_to_all(&net, &engine, &pairs);
    }

    #[test]
    fn table_pruned_queries_preserve_profiles_rail() {
        let net = rail();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.2));
        let engine = S2sEngine::new().with_table(&table);
        let n = net.num_stations() as u32;
        let pairs: Vec<(u32, u32)> =
            (0..12).map(|i| ((i * 7) % n, (i * 13 + 3) % n)).filter(|(a, b)| a != b).collect();
        assert_matches_one_to_all(&net, &engine, &pairs);
    }

    #[test]
    fn all_query_kinds_appear() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let engine = S2sEngine::new().with_table(&table);
        let mut kinds = std::collections::BTreeSet::new();
        let n = net.num_stations() as u32;
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                let r = engine.query(&net, StationId(s), StationId(t));
                kinds.insert(format!("{:?}", r.kind));
                if kinds.len() == 4 {
                    return;
                }
            }
        }
        panic!("only saw kinds {kinds:?}");
    }

    #[test]
    fn parallel_s2s_matches_sequential() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        for &(s, t) in &[(2u32, 44u32), (8, 31), (25, 0)] {
            let (s, t) = (StationId(s), StationId(t));
            let seq = S2sEngine::new().with_table(&table).query(&net, s, t);
            for p in [2, 4] {
                let par = S2sEngine::new().with_table(&table).threads(p).query(&net, s, t);
                assert_eq!(seq.profile, par.profile, "{s}→{t} p={p}");
            }
        }
    }

    #[test]
    fn warm_s2s_engine_reuses_workspaces() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        // Warm up with one query of every search kind (they size different
        // scratch arrays), then repeat: no further growth allowed — on the
        // ring, whose target-pruned queries add the `anc` lane and the
        // deferred `noanc` decrements, and on the heap, which sizes itself.
        let warmup: &[(u32, u32)] = &[(0, 48), (1, 37), (9, 22), (30, 4), (11, 44), (17, 38)];
        for mode in [KernelMode::Scalar, KernelMode::Soa] {
            let engine = S2sEngine::new().with_table(&table).kernel(mode);
            let query = |&(s, t): &(u32, u32)| engine.query(&net, StationId(s), StationId(t));
            let kinds: Vec<QueryKind> = warmup.iter().map(|p| query(p).kind).collect();
            assert!(kinds.contains(&QueryKind::TargetTransfer), "{kinds:?}");
            let warm = engine.workspace_grow_events();
            warmup.iter().for_each(|p| drop(query(p)));
            assert_eq!(engine.workspace_grow_events(), warm, "{mode}: hot path must not allocate");
        }
    }

    #[test]
    fn batch_matches_individual_queries() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let n = net.num_stations() as u32;
        let pairs: Vec<(StationId, StationId)> = (0..10)
            .map(|i| (StationId(i * 5 % n), StationId((i * 11 + 2) % n)))
            .filter(|(a, b)| a != b)
            .collect();
        let individual: Vec<S2sResult> = pairs
            .iter()
            .map(|&(s, t)| S2sEngine::new().with_table(&table).query(&net, s, t))
            .collect();
        // Across-query parallelism (pairs >= threads)...
        let batch_engine = S2sEngine::new().with_table(&table).threads(3);
        let batch = batch_engine.try_batch(&net, &pairs).unwrap();
        assert_eq!(batch.len(), individual.len());
        for ((b, i), &(s, t)) in batch.iter().zip(&individual).zip(&pairs) {
            assert_eq!(b.profile, i.profile, "{s}→{t}");
            assert_eq!(b.kind, i.kind, "{s}→{t}");
        }
        // ...and the within-query fallback (pairs < threads).
        let few = batch_engine.threads(16).try_batch(&net, &pairs[..2]).unwrap();
        assert_eq!(few[0].profile, individual[0].profile);
        assert_eq!(few[1].profile, individual[1].profile);
    }

    #[test]
    #[should_panic(expected = "stale distance table")]
    fn stale_table_after_delay_is_rejected() {
        use pt_core::{Dur, TrainId};
        use pt_timetable::Recovery;
        let mut net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        net.apply_delay(TrainId(0), 0, Dur::minutes(20), Recovery::None);
        // The table snapshot predates the delay: pruning with it would be
        // silently wrong, so the engine must refuse loudly.
        let _ = S2sEngine::new().with_table(&table).query(&net, StationId(3), StationId(40));
    }

    #[test]
    fn try_query_returns_typed_stale_error_and_recovers_after_refresh() {
        use pt_core::{Dur, TrainId};
        use pt_timetable::{DelayEvent, Recovery};
        let mut net = city();
        let mut table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let (s, t) = (StationId(3), StationId(40));
        {
            // Fresh table: Ok path, identical to the infallible query.
            let engine = S2sEngine::new().with_table(&table);
            let ok = engine.try_query(&net, s, t).expect("fresh table must answer");
            assert_eq!(ok.profile, S2sEngine::new().with_table(&table).query(&net, s, t).profile);
        }
        let summary = net.apply_feed(&[DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(20),
            recovery: Recovery::None,
        }]);
        assert!(summary.changed());
        {
            // Stale table: the typed error, carrying both stamps, and the
            // batch form errors identically.
            let engine = S2sEngine::new().with_table(&table);
            let err = engine.try_query(&net, s, t).expect_err("stale table must error");
            assert!(err.refreshable(), "same network instance is refreshable");
            assert_eq!(err.queried, (net.epoch(), net.generation()));
            assert_eq!(engine.try_batch(&net, &[(s, t)]).unwrap_err(), err);
        }
        // The server-side recovery: refresh, then retry succeeds and agrees
        // with an uncached search on the fed network.
        table.refresh(&net).expect("same epoch refreshes");
        let got = S2sEngine::new()
            .with_table(&table)
            .try_query(&net, s, t)
            .expect("refreshed table must answer");
        let want = ProfileEngine::new().one_to_all(&net, s);
        assert_eq!(&got.profile, want.profile(t));
    }

    #[test]
    fn per_call_table_matches_the_configured_table() {
        use pt_core::{Dur, TrainId};
        use pt_timetable::Recovery;
        let mut net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        // One 'static engine (no configured table), the router's shape.
        let engine: S2sEngine<'static> = S2sEngine::new();
        let pairs: Vec<(StationId, StationId)> = [(0u32, 48u32), (1, 37), (9, 22), (30, 4)]
            .map(|(s, t)| (StationId(s), StationId(t)))
            .to_vec();
        for &(s, t) in &pairs {
            let per_call = engine.try_query_on(&net, Some(&table), s, t).unwrap();
            let configured = S2sEngine::new().with_table(&table).query(&net, s, t);
            assert_eq!(per_call.profile, configured.profile, "{s}→{t}");
            assert_eq!(per_call.kind, configured.kind, "{s}→{t}");
            // And with no table: plain stopping-criterion search.
            let plain = engine.try_query_on(&net, None, s, t).unwrap();
            assert_eq!(plain.profile, per_call.profile, "{s}→{t}");
        }
        let batch = engine.try_batch_on(&net, Some(&table), &pairs).unwrap();
        for ((b, &(s, t)), want) in batch
            .iter()
            .zip(&pairs)
            .zip(pairs.iter().map(|&(s, t)| S2sEngine::new().with_table(&table).query(&net, s, t)))
        {
            assert_eq!(b.profile, want.profile, "{s}→{t}");
        }
        // A stale table errors identically to the configured path.
        net.apply_delay(TrainId(0), 0, Dur::minutes(20), Recovery::None);
        let (s, t) = pairs[0];
        let err = engine.try_query_on(&net, Some(&table), s, t).unwrap_err();
        assert!(err.refreshable());
        assert_eq!(engine.try_batch_on(&net, Some(&table), &pairs).unwrap_err(), err);
        // Without a table the engine keeps answering on the fed network.
        assert!(engine.try_query_on(&net, None, s, t).is_ok());
    }

    #[test]
    fn table_direct_uses_no_search() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.2));
        let a = table.stations()[0];
        let b = table.stations()[1];
        let r = S2sEngine::new().with_table(&table).query(&net, a, b);
        assert_eq!(r.kind, QueryKind::TableDirect);
        assert_eq!(r.stats.settled, 0);
        let want = ProfileEngine::new().one_to_all(&net, a);
        assert_eq!(&r.profile, want.profile(b));
    }

    #[test]
    fn result_cache_hits_return_the_computed_profile() {
        let net = city();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let engine = S2sEngine::new().with_table(&table).with_cache(32);
        let (s, t) = (StationId(3), StationId(41));
        let first = engine.query(&net, s, t);
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.cache_misses, 1);
        let second = engine.query(&net, s, t);
        assert_eq!(second.profile, first.profile);
        assert_eq!(second.kind, first.kind);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(second.stats.settled, 0, "hit does no search work");
        let cs = engine.cache_stats().unwrap();
        assert_eq!((cs.hits, cs.misses, cs.entries), (1, 1, 1));
    }

    #[test]
    fn result_cache_is_invalidated_by_generation_bumps() {
        use pt_core::{Dur, TrainId};
        use pt_timetable::Recovery;
        let mut net = city();
        let engine: S2sEngine<'static> = S2sEngine::new().with_cache(32);
        let (s, t) = (StationId(0), StationId(48));
        let before = engine.try_query_on(&net, None, s, t).unwrap();
        net.apply_delay(TrainId(0), 0, Dur::minutes(25), Recovery::None);
        let after = engine.try_query_on(&net, None, s, t).unwrap();
        assert_eq!(after.stats.cache_misses, 1, "new generation misses");
        let fresh = S2sEngine::new().query(&net, s, t);
        assert_eq!(after.profile, fresh.profile);
        // Both generations stay resident and hit independently.
        assert_eq!(engine.cache_stats().unwrap().entries, 2);
        let _ = before;
    }

    #[test]
    fn batch_mixes_cache_hits_and_misses() {
        let net = city();
        let engine: S2sEngine<'static> = S2sEngine::new().with_cache(32).threads(2);
        let warm = [(StationId(0), StationId(48)), (StationId(5), StationId(7))];
        for &(s, t) in &warm {
            engine.try_query_on(&net, None, s, t).unwrap();
        }
        let pairs =
            [warm[0], (StationId(13), StationId(2)), warm[1], (StationId(20), StationId(20))];
        let got = engine.try_batch_on(&net, None, &pairs).unwrap();
        assert_eq!(got[0].stats.cache_hits, 1);
        assert_eq!(got[2].stats.cache_hits, 1);
        assert_eq!(got[1].stats.cache_misses, 1);
        assert_eq!(got[3].stats.cache_misses, 1);
        for (r, &(s, t)) in got.iter().zip(&pairs) {
            let want = S2sEngine::new().query(&net, s, t);
            assert_eq!(r.profile, want.profile, "{s:?}→{t:?}");
        }
    }

    #[test]
    fn batch_dedupes_in_batch_duplicate_pairs() {
        let net = city();
        // Cold cache, one pair three times: exactly one search may run; the
        // duplicates are answered from it and count as hits.
        let cold: S2sEngine<'static> = S2sEngine::new().with_cache(32).threads(2);
        let dup = (StationId(3), StationId(41));
        let got = cold.try_batch(&net, &[dup, dup, dup]).unwrap();
        assert_eq!(got[0].stats.cache_misses, 1);
        assert!(got[0].stats.settled > 0);
        for r in &got[1..] {
            assert_eq!((r.stats.cache_hits, r.stats.cache_misses), (1, 0));
            assert_eq!(r.stats.settled, 0, "duplicates resolve without a search");
            assert_eq!(r.profile, got[0].profile);
        }
        assert_eq!(cold.cache_stats().unwrap().entries, 1);
    }

    #[test]
    fn batch_duplicates_survive_a_capacity_one_cache() {
        let net = city();
        // A pair whose entry was already evicted again within the batch is
        // still answered from the batch's own results.
        let small: S2sEngine<'static> = S2sEngine::new().with_cache(1);
        let (a, b) = ((StationId(3), StationId(41)), (StationId(0), StationId(48)));
        let pairs = [a, b, a, b];
        let got = small.try_batch(&net, &pairs).unwrap();
        for (r, &(s, t)) in got.iter().zip(&pairs) {
            assert_eq!(r.profile, S2sEngine::new().query(&net, s, t).profile, "{s:?}→{t:?}");
        }
        assert_eq!(small.cache_stats().unwrap().entries, 1);
    }

    #[test]
    fn unreachable_target_gives_empty_profile() {
        use pt_core::{Dur, Period, Time};
        use pt_timetable::TimetableBuilder;
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::ZERO);
        let c = b.add_named_station("B", Dur::ZERO);
        let d = b.add_named_station("island", Dur::ZERO);
        b.add_simple_trip(&[a, c], Time::hm(8, 0), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[d, a], Time::hm(8, 0), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        let net = Network::new(b.build().unwrap());
        let r = S2sEngine::new().query(&net, a, d);
        assert!(r.profile.is_empty());
    }
}
