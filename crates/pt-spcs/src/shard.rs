//! Sharded multi-network serving: a query router over several engines.
//!
//! The paper parallelizes one profile search across the cores of a single
//! machine; the serving goal is hosting *many* networks (or one huge
//! network split by region) behind one process. A [`ShardedService`] owns
//! `N` shards — each a [`Network`] with its own persistent
//! [`ProfileEngine`], [`S2sEngine`] and optional
//! [`DistanceTable`](crate::DistanceTable) — plus a
//! station-to-shard **directory**, and routes every call to the owning
//! shard:
//!
//! * **Queries.** Stations are addressed by *global* ids; the directory
//!   assigns each shard a contiguous global range (shard `i` owns
//!   `base[i]..base[i+1]`), so resolution is one binary search.
//!   [`ShardedService::one_to_all`] / [`ShardedService::s2s`] dispatch to
//!   the owning shard's engine; the batch forms go through the router's one
//!   demultiplexer (group by shard, run once per shard, scatter back to
//!   input order), so each shard's engine is entered **once** per batch
//!   with all of its queries (keeping the two-level batch parallelism per
//!   shard).
//! * **Cache striping.** Each shard's `ProfileEngine` carries its own LRU
//!   stripe, so the effective cache key is
//!   `(shard, source, epoch, generation)`: a feed to shard A bumps only A's
//!   generation and only A's stripe sees invalidations or capacity
//!   pressure — shard B's hits are untouchable by A's traffic.
//! * **Feeds.** [`ShardedService::apply_feed`] checks every shard id of a
//!   mixed [`DelayEvent`] stream and groups the events by shard before any
//!   shard applies its batch, so each shard receives **one**
//!   [`ConcurrentNetwork::apply_feed`] call: one generation bump at most
//!   and one published snapshot, handed back to the caller; a tabled
//!   shard's refresher then fills that snapshot's table in the background.
//!   A shard with no events (or a net-nil batch) is not touched at all.
//! * **Cross-shard journeys.** With a gateway configured
//!   ([`ShardedServiceBuilder::gateway`]), a station-to-station query whose
//!   endpoints live in different shards is answered by stitching
//!   within-shard profiles at the declared **border stations** (see
//!   [`crate::gateway`]): source → border one-to-alls through the owning
//!   shards' engines, the border sets each pinned snapshot carries between
//!   and out of shards, [`pt_core::Profile::link_profile`] at each
//!   junction, and a final dominance reduction of the border candidates.
//!   Gateway answers carry [`QueryKind::Gateway`] and are routed to the
//!   *target's* shard. Without a gateway, the cross-shard pair is refused
//!   with the typed [`RouterError::CrossShard`] carrying both owners; a
//!   query explicitly directed at the wrong shard returns
//!   [`RouterError::WrongShard`] naming the owner. Same-shard pairs always
//!   stay on the owning shard's engine: a shard is presumed internally
//!   complete (journeys that leave a region and re-enter it are the
//!   gateway's concern only when the endpoints actually cross).
//! * **Snapshot isolation.** Each shard's network lives in a
//!   [`ConcurrentNetwork`]: every query pins the shard's current
//!   [`NetworkSnapshot`] and runs entirely against it, while
//!   [`ShardedService::apply_feed`] mutates a private master copy and
//!   publishes atomically (writers serialized per shard). All serving
//!   methods therefore take `&self` — one service value may be queried
//!   from many threads while a feed stream applies concurrently, and every
//!   answer is exactly a pre-feed or post-feed state, never a torn mix.
//!   Batch forms pin **all touched shards' snapshots up front** (one pin
//!   routine: the first mention of a shard pins it), before any
//!   demultiplexed group runs, so a feed landing mid-batch can never
//!   answer items of one batch at different generations.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use pt_core::StationId;
use pt_timetable::DelayEvent;

use crate::cache::CacheStats;
use crate::connection_setting::ProfileEngine;
use crate::gateway::{BorderSpec, Gateway, GatewayStats};
use crate::network::{ConcurrentNetwork, FillFailed, Network, NetworkSnapshot, PublishOutcome};
use crate::profile_set::ProfileSet;
use crate::s2s::{QueryKind, S2sEngine, S2sResult};
use crate::stats::QueryStats;
use crate::transfer_selection::TransferSelection;

/// Identifies one shard of a [`ShardedService`]; dense, `0..num_shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard's index into the service's shard list.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}", self.0)
    }
}

/// Why the router could not (or deliberately did not) answer a call.
///
/// `WrongShard` and `CrossShard` carry the owning shard(s), so a caller —
/// or a future gateway — can redirect instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterError {
    /// The global station id is outside every shard's range.
    UnknownStation {
        /// The unmapped global station id.
        station: StationId,
    },
    /// The shard id is outside `0..num_shards`.
    UnknownShard {
        /// The nonexistent shard id.
        shard: ShardId,
    },
    /// A call directed at an explicit shard named a station another shard
    /// owns; re-issue against `owner`.
    WrongShard {
        /// The station the call named.
        station: StationId,
        /// The shard the call was directed at.
        queried: ShardId,
        /// The shard that actually owns the station.
        owner: ShardId,
    },
    /// A station-to-station query whose endpoints live in different
    /// shards — out of scope for the per-shard engines (the hook for a
    /// cross-shard gateway).
    CrossShard {
        /// Shard owning the source station.
        source: ShardId,
        /// Shard owning the target station.
        target: ShardId,
    },
    /// The fill of the shard's current table panicked; its snapshot
    /// answers unpruned until the next feed's snapshot is filled.
    FillFailed {
        /// The shard whose fill failed.
        shard: ShardId,
        /// The failed fill.
        failed: FillFailed,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RouterError::UnknownStation { station } => {
                write!(f, "global station {station} is not in any shard's directory range")
            }
            RouterError::UnknownShard { shard } => write!(f, "{shard} does not exist"),
            RouterError::WrongShard { station, queried, owner } => write!(
                f,
                "global station {station} was queried on {queried} but {owner} owns it — \
                 redirect the call there"
            ),
            RouterError::CrossShard { source, target } => write!(
                f,
                "station-to-station query crosses shards ({source} → {target}); cross-shard \
                 journeys need a gateway above the router"
            ),
            RouterError::FillFailed { shard, failed } => write!(f, "{shard}: {failed}"),
        }
    }
}

impl Error for RouterError {}

/// A result routed to (and answered by) one shard. The payload is in the
/// owning shard's *local* station-id space — resolve targets with
/// [`ShardedService::locate`].
#[derive(Debug, Clone)]
pub struct Routed<T> {
    /// The shard that answered.
    pub shard: ShardId,
    /// The shard-local answer.
    pub value: T,
}

/// One shard: a snapshot-published network and its persistent serving
/// machinery. Queries pin `net.snapshot()` — a snapshot's table, once
/// filled, is exact for its state, so the engines never see a
/// table/network mismatch; before that they run without one.
#[derive(Debug)]
struct Shard {
    net: ConcurrentNetwork,
    profile: ProfileEngine,
    s2s: S2sEngine<'static>,
}

impl Shard {
    fn s2s_batch(
        &self,
        snap: &NetworkSnapshot,
        pairs: &[(StationId, StationId)],
    ) -> Vec<S2sResult> {
        self.s2s
            .try_batch_on(snap.network(), snap.table(), pairs)
            .expect("a snapshot's table is filled for exactly its state")
    }
}

/// Configures and builds a [`ShardedService`];
/// see [`ShardedService::builder`].
#[derive(Debug, Clone)]
pub struct ShardedServiceBuilder {
    threads: usize,
    cache_per_shard: usize,
    s2s_cache_per_shard: usize,
    tables: Option<TransferSelection>,
    gateway: Option<BorderSpec>,
}

impl Default for ShardedServiceBuilder {
    fn default() -> Self {
        ShardedServiceBuilder {
            threads: 1,
            cache_per_shard: 0,
            s2s_cache_per_shard: 0,
            tables: None,
            gateway: None,
        }
    }
}

impl ShardedServiceBuilder {
    /// Worker threads per engine (all shards share the process-global
    /// pool, so this bounds per-call concurrency, not thread count).
    pub fn threads(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one thread");
        self.threads = p;
        self
    }

    /// Enables the profile cache with one stripe of `capacity` entries
    /// **per shard** — the striping that keeps one shard's feed traffic
    /// from evicting another shard's hits.
    pub fn cache(mut self, capacity: usize) -> Self {
        self.cache_per_shard = capacity;
        self
    }

    /// Enables the station-to-station result cache with one stripe of
    /// `capacity` entries per shard (see [`crate::S2sCache`]); keyed by
    /// `(source, target, epoch, generation)`, so a shard's feed invalidates
    /// only its own stripe.
    pub fn s2s_cache(mut self, capacity: usize) -> Self {
        self.s2s_cache_per_shard = capacity;
        self
    }

    /// Gives every shard a distance table over this selection. The build
    /// computes no row: each shard's refresher fills every snapshot the
    /// shard publishes, the initial one included, with the table exact for
    /// it, in the background ([`ShardedService::wait_for_table`] waits for
    /// one).
    pub fn tables(mut self, selection: TransferSelection) -> Self {
        self.tables = Some(selection);
        self
    }

    /// Enables the cross-shard gateway: border stations are declared by
    /// `spec` (explicit global-id alias groups, or [`BorderSpec::ByName`]
    /// to seed them from the directory by matching station names across
    /// shards), and [`ShardedService::s2s`] / [`ShardedService::s2s_batch`]
    /// answer cross-shard pairs by stitching instead of refusing them. Each
    /// shard's border sets live on the snapshot they are exact for: the
    /// build computes none, and the first stitch that pins a snapshot, the
    /// initial one included, fills it.
    pub fn gateway(mut self, spec: BorderSpec) -> Self {
        self.gateway = Some(spec);
        self
    }

    /// Builds the service over the given shard networks (one shard per
    /// network, [`ShardId`]s in input order).
    ///
    /// # Panics
    ///
    /// On an empty network list, or on an invalid gateway spec (border
    /// station outside the directory, a group not spanning two shards,
    /// diverging transfer times within a group, mixed periods).
    pub fn build(self, networks: Vec<Network>) -> ShardedService {
        assert!(!networks.is_empty(), "a sharded service needs at least one network");
        let mut base = Vec::with_capacity(networks.len() + 1);
        let mut next = 0u32;
        let shards: Vec<Shard> = networks
            .into_iter()
            .map(|net| {
                base.push(next);
                next += net.num_stations() as u32;
                let mut profile = ProfileEngine::new().threads(self.threads);
                if self.cache_per_shard > 0 {
                    profile = profile.with_cache(self.cache_per_shard);
                }
                let mut s2s = S2sEngine::new().threads(self.threads);
                if self.s2s_cache_per_shard > 0 {
                    s2s = s2s.with_cache(self.s2s_cache_per_shard);
                }
                let net = match &self.tables {
                    Some(sel) => ConcurrentNetwork::with_table(net, sel),
                    None => ConcurrentNetwork::new(net),
                };
                Shard { net, profile, s2s }
            })
            .collect();
        base.push(next);
        let mut service = ShardedService { shards, base, gateway: None };
        if let Some(spec) = self.gateway {
            let snaps: Vec<Arc<NetworkSnapshot>> =
                service.shards.iter().map(|s| s.net.snapshot()).collect();
            let groups = match spec {
                BorderSpec::ByName => Gateway::groups_by_name(&snaps),
                BorderSpec::Explicit(groups) => groups
                    .into_iter()
                    .map(|g| {
                        g.into_iter()
                            .map(|gid| {
                                service
                                    .locate(gid)
                                    .expect("gateway border station outside the directory")
                            })
                            .collect()
                    })
                    .collect(),
            };
            service.gateway = Some(Gateway::build(groups, &snaps));
        }
        service
    }
}

/// A query router owning `N` sharded networks behind one API.
///
/// All stations are addressed by **global** ids; the service's directory
/// maps every global station to its owning `(shard, local station)` pair
/// ([`ShardedService::locate`]). Every query routes to the owning shard's
/// persistent engine, batches are demultiplexed so each shard is entered
/// once, mixed feeds cost each touched shard one generation bump and one
/// publish, and the per-shard cache stripes isolate one
/// shard's invalidations from another's hits. See the [module
/// docs](crate::shard) for the full contract.
///
/// ```
/// use pt_core::{Dur, Period, StationId, Time};
/// use pt_spcs::{Network, ShardedService};
/// use pt_timetable::TimetableBuilder;
///
/// let city = |leg_min: u32| {
///     let mut b = TimetableBuilder::new(Period::DAY);
///     let a = b.add_named_station("A", Dur::minutes(2));
///     let t = b.add_named_station("B", Dur::minutes(2));
///     b.add_simple_trip(&[a, t], Time::hm(8, 0), &[Dur::minutes(leg_min)], Dur::ZERO).unwrap();
///     Network::new(b.build().unwrap())
/// };
/// let svc = ShardedService::builder().cache(16).build(vec![city(30), city(60)]);
///
/// // Global station 2 is shard 1's local station 0.
/// let routed = svc.one_to_all(StationId(2)).unwrap();
/// assert_eq!(routed.shard.0, 1);
/// let (shard, local_target) = svc.locate(StationId(3)).unwrap();
/// assert_eq!(shard, routed.shard);
/// let arr = routed.value.profile(local_target).eval_arr(Time::hm(7, 0), Period::DAY);
/// assert_eq!(arr, Time::hm(9, 0));
/// ```
#[derive(Debug)]
pub struct ShardedService {
    shards: Vec<Shard>,
    /// Global-id base per shard, plus a trailing sentinel holding the total
    /// station count: shard `i` owns global ids `base[i]..base[i + 1]`.
    base: Vec<u32>,
    /// The cross-shard gateway, when built with
    /// [`ShardedServiceBuilder::gateway`].
    gateway: Option<Gateway>,
}

/// A shard-addressed endpoint of a cross-shard pair: `(shard index,
/// local station id)`.
type Endpoint = (usize, StationId);

/// A located station-to-station pair: on one shard, or crossing into the
/// gateway (only produced when a gateway is configured).
enum RoutedPair {
    Same(ShardId, (StationId, StationId)),
    Cross(Endpoint, Endpoint),
}

impl ShardedService {
    /// Starts configuring a service
    /// (threads, cache striping, distance tables).
    pub fn builder() -> ShardedServiceBuilder {
        ShardedServiceBuilder::default()
    }

    /// A service with default configuration (single-threaded engines, no
    /// caches, no tables) over the given networks.
    pub fn new(networks: Vec<Network>) -> ShardedService {
        Self::builder().build(networks)
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// All shard ids, ascending.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> {
        (0..self.shards.len() as u32).map(ShardId)
    }

    /// Total stations across all shards (= the size of the global id
    /// space; every global id below this resolves).
    #[inline]
    pub fn num_stations(&self) -> usize {
        *self.base.last().expect("base always has a sentinel") as usize
    }

    /// The contiguous global-id range `shard` owns.
    pub fn station_range(&self, shard: ShardId) -> Result<Range<u32>, RouterError> {
        self.check_shard(shard)?;
        Ok(self.base[shard.idx()]..self.base[shard.idx() + 1])
    }

    /// Resolves a global station id to its owning shard and that shard's
    /// local station id — the directory lookup behind every routed call.
    pub fn locate(&self, station: StationId) -> Result<(ShardId, StationId), RouterError> {
        // partition_point: first shard whose base exceeds the id; its
        // predecessor owns the id iff the id is below the sentinel.
        let i = self.base.partition_point(|&b| b <= station.0);
        if i == 0 || station.0 >= *self.base.last().unwrap() {
            return Err(RouterError::UnknownStation { station });
        }
        Ok((ShardId(i as u32 - 1), StationId(station.0 - self.base[i - 1])))
    }

    /// The owning shard of a global station id.
    pub fn owner(&self, station: StationId) -> Result<ShardId, RouterError> {
        self.locate(station).map(|(shard, _)| shard)
    }

    /// The global id of `shard`'s local station — the inverse of
    /// [`ShardedService::locate`].
    pub fn global_id(&self, shard: ShardId, local: StationId) -> Result<StationId, RouterError> {
        let range = self.station_range(shard)?;
        // Bound-check the *local* id: adding first could wrap a huge id
        // into another shard's range. The error carries the rejected
        // local id (it corresponds to no global station).
        if local.0 >= range.end - range.start {
            return Err(RouterError::UnknownStation { station: local });
        }
        Ok(StationId(range.start + local.0))
    }

    /// Pins the shard's current published snapshot (e.g. for timetable
    /// access, standalone verification copies, or running several queries
    /// against one consistent state). Derefs to [`Network`].
    pub fn network(&self, shard: ShardId) -> Result<Arc<NetworkSnapshot>, RouterError> {
        self.check_shard(shard)?;
        Ok(self.shards[shard.idx()].net.snapshot())
    }

    /// Pins the shard's current snapshot once its table is in; see
    /// [`ConcurrentNetwork::wait_for_table`]. Errors with
    /// [`RouterError::FillFailed`] when the fill of that snapshot's table
    /// panicked.
    pub fn wait_for_table(&self, shard: ShardId) -> Result<Arc<NetworkSnapshot>, RouterError> {
        self.check_shard(shard)?;
        let net = &self.shards[shard.idx()].net;
        net.wait_for_table().map_err(|failed| RouterError::FillFailed { shard, failed })
    }

    /// How many snapshots `shard` has published (= feeds that changed it).
    pub fn publishes(&self, shard: ShardId) -> Result<u64, RouterError> {
        self.check_shard(shard)?;
        Ok(self.shards[shard.idx()].net.publishes())
    }

    /// One shard's cache-stripe counters; `None` when built without
    /// [`ShardedServiceBuilder::cache`].
    pub fn shard_cache_stats(&self, shard: ShardId) -> Result<Option<CacheStats>, RouterError> {
        self.check_shard(shard)?;
        Ok(self.shards[shard.idx()].profile.cache_stats())
    }

    /// Aggregate cache counters over every stripe (counters and occupancy
    /// sum; the capacity is the striped total).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let mut agg: Option<CacheStats> = None;
        for shard in &self.shards {
            if let Some(stats) = shard.profile.cache_stats() {
                agg.get_or_insert_with(CacheStats::default).absorb(stats);
            }
        }
        agg
    }

    /// One-to-all profiles from a global station, answered by the owning
    /// shard's engine (through its cache stripe when enabled). The returned
    /// [`ProfileSet`] is in the owning shard's local id space.
    pub fn one_to_all(&self, source: StationId) -> Result<Routed<Arc<ProfileSet>>, RouterError> {
        let (shard, local) = self.locate(source)?;
        let s = &self.shards[shard.idx()];
        let snap = s.net.snapshot();
        Ok(Routed { shard, value: s.profile.one_to_all(snap.network(), local) })
    }

    /// Like [`ShardedService::one_to_all`], but directed at an explicit
    /// shard: a station another shard owns is **not** silently rerouted —
    /// the typed [`RouterError::WrongShard`] names the owner so the caller
    /// (or a gateway) can redirect deliberately.
    pub fn one_to_all_on(
        &self,
        shard: ShardId,
        source: StationId,
    ) -> Result<Routed<Arc<ProfileSet>>, RouterError> {
        self.check_shard(shard)?;
        let owner = self.owner(source)?;
        if owner != shard {
            return Err(RouterError::WrongShard { station: source, queried: shard, owner });
        }
        self.one_to_all(source)
    }

    /// Batch one-to-all over global sources. The batch is demultiplexed so
    /// every owning shard's engine is entered **once** with all of its
    /// sources (keeping [`ProfileEngine::many_to_all`]'s across-query
    /// parallelism and cache-hit dedup per shard); results come back in
    /// input order. Routing failures are per item — one unknown station
    /// does not fail its neighbours. Every touched shard's snapshot is
    /// pinned **before** any group runs, so a feed landing mid-batch can
    /// never split one batch across generations.
    pub fn many_to_all(
        &self,
        sources: &[StationId],
    ) -> Vec<Result<Routed<Arc<ProfileSet>>, RouterError>> {
        let located: Vec<Result<(ShardId, StationId), RouterError>> =
            sources.iter().map(|&s| self.locate(s)).collect();
        let pins = self.pin(located.iter().filter_map(|loc| loc.ok()).map(|(shard, _)| shard));
        self.many_to_all_pinned(located, &pins)
    }

    /// Pins the current snapshot of every listed shard, once each (the
    /// first mention pins, later mentions reuse it) — the up-front
    /// consistent cut a batch runs against. Unlisted shards stay `None`.
    fn pin(&self, shards: impl Iterator<Item = ShardId>) -> Vec<Option<Arc<NetworkSnapshot>>> {
        let mut pins: Vec<Option<Arc<NetworkSnapshot>>> = vec![None; self.shards.len()];
        for shard in shards {
            pins[shard.idx()].get_or_insert_with(|| self.shards[shard.idx()].net.snapshot());
        }
        pins
    }

    /// The router's one demultiplexer: groups the `Some` items by shard
    /// (preserving their relative order), calls `run` **once** per
    /// non-empty shard in ascending shard order with that shard's items —
    /// it returns one output per item — and scatters the outputs back to
    /// input order. `None` items stay `None`.
    fn demux<I: Copy, O>(
        &self,
        items: impl ExactSizeIterator<Item = Option<(ShardId, I)>>,
        mut run: impl FnMut(usize, &[I]) -> Vec<O>,
    ) -> Vec<Option<O>> {
        let mut out: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
        let mut grouped: Vec<(Vec<usize>, Vec<I>)> =
            self.shards.iter().map(|_| (Vec::new(), Vec::new())).collect();
        for (i, item) in items.enumerate() {
            if let Some((shard, item)) = item {
                grouped[shard.idx()].0.push(i);
                grouped[shard.idx()].1.push(item);
            }
        }
        for (idx, (positions, group)) in grouped.iter().enumerate() {
            if !group.is_empty() {
                for (&i, o) in positions.iter().zip(run(idx, group)) {
                    out[i] = Some(o);
                }
            }
        }
        out
    }

    /// The demultiplexed run of [`ShardedService::many_to_all`] against
    /// already-pinned snapshots (the testable seam: pinning and running are
    /// separate steps, so a feed between them provably cannot move the
    /// batch).
    fn many_to_all_pinned(
        &self,
        located: Vec<Result<(ShardId, StationId), RouterError>>,
        pins: &[Option<Arc<NetworkSnapshot>>],
    ) -> Vec<Result<Routed<Arc<ProfileSet>>, RouterError>> {
        let sets = self.demux(located.iter().map(|loc| loc.ok()), |idx, locals| {
            let snap = pins[idx].as_ref().expect("every shard with sources is pinned");
            self.shards[idx].profile.many_to_all(snap.network(), locals)
        });
        let answered = located.into_iter().zip(sets).map(|(loc, set)| {
            let (shard, _) = loc?;
            Ok(Routed { shard, value: set.expect("every located source answered by its shard") })
        });
        answered.collect()
    }

    /// Station-to-station profile between two global stations. Same-shard
    /// pairs are answered by the owning shard's engine with its distance
    /// table (when present); endpoints in different shards are stitched by
    /// the gateway (the answer is routed to the **target's** shard and
    /// carries [`QueryKind::Gateway`]), or refused with the typed
    /// [`RouterError::CrossShard`] when the service was built without one.
    pub fn s2s(
        &self,
        source: StationId,
        target: StationId,
    ) -> Result<Routed<S2sResult>, RouterError> {
        match self.locate_pair(source, target)? {
            RoutedPair::Same(shard, pair) => {
                let s = &self.shards[shard.idx()];
                let value = s.s2s_batch(&s.net.snapshot(), &[pair]).pop();
                Ok(Routed { shard, value: value.expect("one result per pair") })
            }
            RoutedPair::Cross(src, tgt) => {
                let value = self.stitch(&self.pin(self.shard_ids()), &[(src, tgt)]).pop();
                Ok(Routed { shard: ShardId(tgt.0 as u32), value: value.expect("one per pair") })
            }
        }
    }

    /// Batch station-to-station over global pairs, demultiplexed so every
    /// shard's engine is entered **once** with all of its same-shard pairs
    /// ([`S2sEngine::try_batch`] semantics per shard); cross-shard pairs are
    /// stitched by the gateway when one is configured, and fail per item
    /// otherwise. Results come back in input order. All touched shards'
    /// snapshots are pinned up front — a batch with any cross-shard pair
    /// pins **every** shard, so the stitch and the same-shard groups all
    /// answer against one consistent cut.
    pub fn s2s_batch(
        &self,
        pairs: &[(StationId, StationId)],
    ) -> Vec<Result<Routed<S2sResult>, RouterError>> {
        let located: Vec<Result<RoutedPair, RouterError>> =
            pairs.iter().map(|&(s, t)| self.locate_pair(s, t)).collect();
        let pins = self.pin_pairs(&located);
        self.s2s_batch_pinned(located, &pins)
    }

    /// The cut an s2s batch runs against: every shard with a same-shard
    /// pair — or **all** shards as soon as any pair crosses (stitched
    /// answers read several shards, and they must read one cut).
    fn pin_pairs(
        &self,
        located: &[Result<RoutedPair, RouterError>],
    ) -> Vec<Option<Arc<NetworkSnapshot>>> {
        if located.iter().any(|l| matches!(l, Ok(RoutedPair::Cross(..)))) {
            self.pin(self.shard_ids())
        } else {
            self.pin(located.iter().filter_map(|l| match l {
                Ok(RoutedPair::Same(shard, _)) => Some(*shard),
                _ => None,
            }))
        }
    }

    /// Routes one global pair: same-shard, cross-shard into the gateway, or
    /// a typed refusal.
    fn locate_pair(&self, s: StationId, t: StationId) -> Result<RoutedPair, RouterError> {
        let (s_shard, s_local) = self.locate(s)?;
        let (t_shard, t_local) = self.locate(t)?;
        if s_shard == t_shard {
            Ok(RoutedPair::Same(s_shard, (s_local, t_local)))
        } else if self.gateway.is_some() {
            Ok(RoutedPair::Cross((s_shard.idx(), s_local), (t_shard.idx(), t_local)))
        } else {
            Err(RouterError::CrossShard { source: s_shard, target: t_shard })
        }
    }

    /// The demultiplexed run of [`ShardedService::s2s_batch`] against
    /// already-pinned snapshots (the testable pin/run seam).
    fn s2s_batch_pinned(
        &self,
        located: Vec<Result<RoutedPair, RouterError>>,
        pins: &[Option<Arc<NetworkSnapshot>>],
    ) -> Vec<Result<Routed<S2sResult>, RouterError>> {
        let same = located.iter().map(|loc| match *loc {
            Ok(RoutedPair::Same(shard, pair)) => Some((shard, pair)),
            _ => None,
        });
        let same = self.demux(same, |idx, pairs| {
            let snap = pins[idx].as_ref().expect("every shard with same-shard pairs is pinned");
            self.shards[idx].s2s_batch(snap, pairs)
        });
        let cross: Vec<(Endpoint, Endpoint)> = located
            .iter()
            .filter_map(|loc| match *loc {
                Ok(RoutedPair::Cross(src, tgt)) => Some((src, tgt)),
                _ => None,
            })
            .collect();
        let mut stitched = self.stitch(pins, &cross).into_iter();
        let answered = located.into_iter().zip(same).map(|(loc, same)| match loc? {
            RoutedPair::Same(shard, _) => {
                Ok(Routed { shard, value: same.expect("every same-shard pair answered") })
            }
            RoutedPair::Cross(_, (tgt_shard, _)) => {
                let value = stitched.next().expect("every cross pair stitched");
                Ok(Routed { shard: ShardId(tgt_shard as u32), value })
            }
        });
        answered.collect()
    }

    /// Stitches cross-shard pairs against one pinned cut (every shard
    /// pinned) and the border sets those snapshots carry, built here for a
    /// snapshot no stitch has pinned yet; source searches go through the
    /// owning shard's engine (and its cache stripe).
    fn stitch(
        &self,
        pins: &[Option<Arc<NetworkSnapshot>>],
        pairs: &[(Endpoint, Endpoint)],
    ) -> Vec<S2sResult> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let gw = self.gateway.as_ref().expect("cross pairs are only located with a gateway");
        let snaps: Vec<Arc<NetworkSnapshot>> = pins
            .iter()
            .map(|p| Arc::clone(p.as_ref().expect("a cross batch pins every shard")))
            .collect();
        let sets = gw.sets_for(&snaps);
        let one_to_all =
            |sh: usize, s: StationId| self.shards[sh].profile.one_to_all(snaps[sh].network(), s);
        let stitch_one = |&(source, target): &(Endpoint, Endpoint)| {
            let profile = gw.stitch(&snaps, &sets, &one_to_all, source, target);
            S2sResult { profile, stats: QueryStats::default(), kind: QueryKind::Gateway }
        };
        pairs.iter().map(stitch_one).collect()
    }

    /// Gateway counters — border groups, per-shard border counts, and the
    /// cumulative border rows built for the snapshots stitches pinned (see
    /// [`GatewayStats::rows_refreshed`]); `None` when built without
    /// [`ShardedServiceBuilder::gateway`].
    pub fn gateway_stats(&self) -> Option<GatewayStats> {
        self.gateway.as_ref().map(Gateway::stats)
    }

    /// Applies a mixed realtime feed — events tagged with their shard — in
    /// one pass per shard. First every shard id is checked and the events
    /// are grouped by shard (preserving their relative order); an unknown
    /// shard id fails the whole call before any shard is fed. Then each
    /// shard with at least one event gets exactly **one**
    /// [`ConcurrentNetwork::apply_feed`] call: at most one generation bump
    /// and one cache invalidation per shard per feed, and exactly one
    /// published snapshot for each *changed* shard, whose table (if the
    /// shard has one) is filled in the background.
    /// Untouched shards — and shards whose batch nets out to nil — keep
    /// their generation, so their cache stripes keep hitting.
    ///
    /// Returns one [`PublishOutcome`] per shard that received events, in
    /// ascending shard order; each carries the snapshot that shard
    /// published (`None` for a net-nil batch).
    ///
    /// Takes `&self`: each touched shard's feed runs under that shard's
    /// writer lock (writers serialize per shard) and publishes a new
    /// snapshot atomically — concurrent readers keep answering on their
    /// pinned pre-feed snapshots throughout.
    pub fn apply_feed(
        &self,
        events: &[(ShardId, DelayEvent)],
    ) -> Result<Vec<(ShardId, PublishOutcome)>, RouterError> {
        let mut batches: Vec<Vec<DelayEvent>> = vec![Vec::new(); self.shards.len()];
        for &(shard, event) in events {
            self.check_shard(shard)?;
            batches[shard.idx()].push(event);
        }
        let fed = batches.iter().enumerate().filter(|(_, batch)| !batch.is_empty());
        Ok(fed
            .map(|(idx, batch)| (ShardId(idx as u32), self.shards[idx].net.apply_feed(batch)))
            .collect())
    }

    fn check_shard(&self, shard: ShardId) -> Result<(), RouterError> {
        if shard.idx() < self.shards.len() {
            Ok(())
        } else {
            Err(RouterError::UnknownShard { shard })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_table::DistanceTable;
    use pt_core::{Dur, Period, Time, TrainId};
    use pt_timetable::{Recovery, TimetableBuilder};

    /// A tiny two-line network; `offset_min` staggers the schedule so
    /// distinct shards give distinct answers.
    fn city(offset_min: u32) -> Network {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        for h in [8u32, 9, 10] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0) + Dur::minutes(offset_min),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::ZERO,
            )
            .unwrap();
        }
        b.add_simple_trip(
            &[s[2], s[0]],
            Time::hm(12, 0) + Dur::minutes(offset_min),
            &[Dur::minutes(25)],
            Dur::ZERO,
        )
        .unwrap();
        Network::new(b.build().unwrap())
    }

    fn service() -> ShardedService {
        ShardedService::builder().cache(8).build(vec![city(0), city(5), city(11)])
    }

    #[test]
    fn directory_maps_every_station_and_rejects_the_rest() {
        let svc = service();
        assert_eq!(svc.num_shards(), 3);
        assert_eq!(svc.num_stations(), 9);
        for shard in svc.shard_ids() {
            let range = svc.station_range(shard).unwrap();
            for g in range {
                let (owner, local) = svc.locate(StationId(g)).unwrap();
                assert_eq!(owner, shard);
                assert_eq!(svc.global_id(shard, local).unwrap(), StationId(g));
            }
        }
        assert_eq!(
            svc.locate(StationId(9)),
            Err(RouterError::UnknownStation { station: StationId(9) })
        );
        assert_eq!(
            svc.global_id(ShardId(0), StationId(3)),
            Err(RouterError::UnknownStation { station: StationId(3) })
        );
        // A huge local id must not wrap into another shard's range.
        assert!(svc.global_id(ShardId(1), StationId(u32::MAX - 2)).is_err());
        assert_eq!(
            svc.station_range(ShardId(3)),
            Err(RouterError::UnknownShard { shard: ShardId(3) })
        );
    }

    #[test]
    fn routed_queries_match_the_owning_network() {
        let svc = service();
        for shard in [ShardId(0), ShardId(1), ShardId(2)] {
            let standalone = Network::build(svc.network(shard).unwrap().timetable());
            for local in 0..3u32 {
                let global = svc.global_id(shard, StationId(local)).unwrap();
                let routed = svc.one_to_all(global).unwrap();
                assert_eq!(routed.shard, shard);
                assert_eq!(
                    routed.value,
                    ProfileEngine::new().one_to_all(&standalone, StationId(local)),
                    "{shard} local {local}"
                );
            }
        }
    }

    #[test]
    fn wrong_shard_carries_the_owner_for_a_redirect() {
        let svc = service();
        let global = svc.global_id(ShardId(2), StationId(1)).unwrap();
        let err = svc.one_to_all_on(ShardId(0), global).unwrap_err();
        let RouterError::WrongShard { station, queried, owner } = err else {
            panic!("expected WrongShard, got {err:?}");
        };
        assert_eq!((station, queried, owner), (global, ShardId(0), ShardId(2)));
        // The redirect round-trip: re-issue on the named owner.
        let redirected = svc.one_to_all_on(owner, global).unwrap();
        assert_eq!(redirected.value, svc.one_to_all(global).unwrap().value);
    }

    #[test]
    fn s2s_routes_within_and_refuses_across_shards() {
        let svc = service();
        let s = svc.global_id(ShardId(1), StationId(0)).unwrap();
        let t = svc.global_id(ShardId(1), StationId(2)).unwrap();
        let within = svc.s2s(s, t).unwrap();
        assert_eq!(within.shard, ShardId(1));
        let standalone = Network::build(svc.network(ShardId(1)).unwrap().timetable());
        let want = ProfileEngine::new().one_to_all(&standalone, StationId(0));
        assert_eq!(&within.value.profile, want.profile(StationId(2)));

        let foreign = svc.global_id(ShardId(2), StationId(2)).unwrap();
        assert_eq!(
            svc.s2s(s, foreign).unwrap_err(),
            RouterError::CrossShard { source: ShardId(1), target: ShardId(2) }
        );
    }

    #[test]
    fn batches_demultiplex_and_reassemble_in_input_order() {
        let svc = service();
        let sources = vec![
            StationId(7), // shard 2
            StationId(0), // shard 0
            StationId(99),
            StationId(4), // shard 1
            StationId(0), // duplicate: shard 0's cache dedups in-batch
        ];
        let out = svc.many_to_all(&sources);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].as_ref().unwrap().shard, ShardId(2));
        assert_eq!(out[1].as_ref().unwrap().shard, ShardId(0));
        assert_eq!(
            out[2].as_ref().unwrap_err(),
            &RouterError::UnknownStation { station: StationId(99) }
        );
        assert_eq!(out[3].as_ref().unwrap().shard, ShardId(1));
        for (i, src) in [(0usize, StationId(7)), (1, StationId(0)), (3, StationId(4))] {
            assert_eq!(
                out[i].as_ref().unwrap().value,
                svc.one_to_all(src).unwrap().value,
                "batch slot {i}"
            );
        }
        assert!(Arc::ptr_eq(&out[1].as_ref().unwrap().value, &out[4].as_ref().unwrap().value));

        let pairs = vec![
            (StationId(0), StationId(2)), // within shard 0
            (StationId(0), StationId(4)), // cross
            (StationId(8), StationId(6)), // within shard 2
        ];
        let s2s_out = svc.s2s_batch(&pairs);
        assert_eq!(s2s_out[0].as_ref().unwrap().shard, ShardId(0));
        assert_eq!(
            s2s_out[1].as_ref().unwrap_err(),
            &RouterError::CrossShard { source: ShardId(0), target: ShardId(1) }
        );
        assert_eq!(s2s_out[2].as_ref().unwrap().shard, ShardId(2));
        let direct = svc.s2s(StationId(8), StationId(6)).unwrap();
        assert_eq!(s2s_out[2].as_ref().unwrap().value.profile, direct.value.profile);
    }

    #[test]
    fn mixed_feed_bumps_each_touched_shard_once_and_refreshes_its_table() {
        let svc = ShardedService::builder()
            .cache(8)
            .tables(TransferSelection::Explicit(vec![StationId(0), StationId(2)]))
            .build(vec![city(0), city(5), city(11)]);
        let gens: Vec<u64> =
            svc.shard_ids().map(|sh| svc.network(sh).unwrap().generation()).collect();
        // Three events for shard 0, one for shard 2, none for shard 1.
        let feed = vec![
            (
                ShardId(0),
                DelayEvent::Delay {
                    train: TrainId(0),
                    from_hop: 0,
                    delay: Dur::minutes(5),
                    recovery: Recovery::None,
                },
            ),
            (
                ShardId(2),
                DelayEvent::Delay {
                    train: TrainId(1),
                    from_hop: 1,
                    delay: Dur::minutes(9),
                    recovery: Recovery::None,
                },
            ),
            (
                ShardId(0),
                DelayEvent::Delay {
                    train: TrainId(0),
                    from_hop: 1,
                    delay: Dur::minutes(3),
                    recovery: Recovery::None,
                },
            ),
            (ShardId(0), DelayEvent::Cancel { train: TrainId(3) }),
        ];
        let outcomes = svc.apply_feed(&feed).unwrap();
        // One outcome per shard that received events, ascending.
        let fed: Vec<ShardId> = outcomes.iter().map(|&(sh, _)| sh).collect();
        assert_eq!(fed, [ShardId(0), ShardId(2)]);
        // Shards 0 and 2 bumped exactly once, shard 1 not at all.
        let after: Vec<u64> =
            svc.shard_ids().map(|sh| svc.network(sh).unwrap().generation()).collect();
        assert_eq!(after[0], gens[0] + 1, "three events, one bump");
        assert_eq!(after[1], gens[1], "untouched shard must not move");
        assert_eq!(after[2], gens[2] + 1);
        // Each changed shard published the snapshot the router now pins,
        // and its refresher fills that snapshot with the table of its state.
        for (sh, outcome) in &outcomes {
            assert!(outcome.summary.changed(), "{sh}");
            let published = outcome.published.as_ref().expect("a changed shard publishes");
            assert!(Arc::ptr_eq(published, &svc.network(*sh).unwrap()), "{sh}");
            let filled = svc.wait_for_table(*sh).unwrap();
            assert!(Arc::ptr_eq(published, &filled), "{sh}");
            let table = filled.table().unwrap();
            assert!(table.check_fresh(filled.network()).is_ok());
            let rebuilt = DistanceTable::build_for(filled.network(), table.stations().to_vec());
            for &a in table.stations() {
                for &b in table.stations() {
                    assert_eq!(table.profile(a, b), rebuilt.profile(a, b), "{sh}: D({a}, {b})");
                }
            }
        }
        // And s2s keeps answering without a stale-table panic.
        let s = svc.global_id(ShardId(0), StationId(0)).unwrap();
        let t = svc.global_id(ShardId(0), StationId(2)).unwrap();
        let got = svc.s2s(s, t).unwrap();
        let standalone = Network::build(svc.network(ShardId(0)).unwrap().timetable());
        let want = ProfileEngine::new().one_to_all(&standalone, StationId(0));
        assert_eq!(&got.value.profile, want.profile(StationId(2)));
    }

    #[test]
    fn feed_to_one_shard_leaves_the_other_stripes_hot() {
        let svc = service();
        let a = svc.global_id(ShardId(0), StationId(0)).unwrap();
        let b = svc.global_id(ShardId(1), StationId(0)).unwrap();
        let _ = svc.one_to_all(a).unwrap();
        let _ = svc.one_to_all(b).unwrap();
        let feed = vec![(
            ShardId(0),
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(10),
                recovery: Recovery::None,
            },
        )];
        assert!(svc.apply_feed(&feed).unwrap()[0].1.summary.changed());
        // Shard B's stripe still hits; shard A's entry stopped matching.
        let b_before = svc.shard_cache_stats(ShardId(1)).unwrap().unwrap();
        let _ = svc.one_to_all(b).unwrap();
        let b_after = svc.shard_cache_stats(ShardId(1)).unwrap().unwrap();
        assert_eq!(b_after.hits, b_before.hits + 1, "foreign feed must not evict this stripe");
        let a_before = svc.shard_cache_stats(ShardId(0)).unwrap().unwrap();
        let _ = svc.one_to_all(a).unwrap();
        let a_after = svc.shard_cache_stats(ShardId(0)).unwrap().unwrap();
        assert_eq!(a_after.misses, a_before.misses + 1, "own feed must invalidate");
        // The aggregate view sums the stripes.
        let agg = svc.cache_stats().unwrap();
        assert_eq!(
            agg.hits,
            b_after.hits + a_after.hits + {
                let c = svc.shard_cache_stats(ShardId(2)).unwrap().unwrap();
                c.hits
            }
        );
        assert_eq!(agg.capacity, 24, "three stripes of eight");
    }

    #[test]
    fn net_nil_feed_is_a_no_op_everywhere() {
        let svc = service();
        let gens_now = || -> Vec<u64> {
            svc.shard_ids().map(|sh| svc.network(sh).unwrap().generation()).collect()
        };
        let gens = gens_now();
        // A cancellation of a never-delayed train nets out to nothing.
        let cancel = DelayEvent::Cancel { train: TrainId(0) };
        let outcomes = svc.apply_feed(&[(ShardId(1), cancel)]).unwrap();
        assert_eq!(outcomes.len(), 1);
        let (shard, outcome) = &outcomes[0];
        assert_eq!(*shard, ShardId(1));
        assert!(!outcome.summary.changed());
        assert!(outcome.published.is_none());
        assert_eq!(gens_now(), gens, "net-nil feed must not bump any shard");
        // An unknown shard id fails up front — even beside a real delay
        // for a valid shard, which must then not be applied either.
        let delay = DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(10),
            recovery: Recovery::None,
        };
        for feed in [vec![(ShardId(9), cancel)], vec![(ShardId(0), delay), (ShardId(9), cancel)]] {
            assert_eq!(
                svc.apply_feed(&feed).unwrap_err(),
                RouterError::UnknownShard { shard: ShardId(9) }
            );
            assert_eq!(gens_now(), gens, "a rejected feed must feed no shard");
        }
    }

    /// Two region shards meeting at one border station "B" (same name,
    /// same transfer time in both), plus the merged monolithic network the
    /// gateway must reproduce exactly. Global ids: shard 0 = {a:0, B:1},
    /// shard 1 = {B:2, c:3}; mono = {a:0, B:1, c:2}.
    fn border_cities() -> (Vec<Network>, Network) {
        let west_trips = |b: &mut TimetableBuilder, a: StationId, border: StationId| {
            for h in [8u32, 9, 10] {
                b.add_simple_trip(&[a, border], Time::hm(h, 0), &[Dur::minutes(20)], Dur::ZERO)
                    .unwrap();
            }
            b.add_simple_trip(&[border, a], Time::hm(11, 30), &[Dur::minutes(20)], Dur::ZERO)
                .unwrap();
        };
        let east_trips = |b: &mut TimetableBuilder, border: StationId, c: StationId| {
            for h in [8u32, 9, 10] {
                b.add_simple_trip(&[border, c], Time::hm(h, 40), &[Dur::minutes(15)], Dur::ZERO)
                    .unwrap();
            }
            b.add_simple_trip(&[c, border], Time::hm(11, 0), &[Dur::minutes(15)], Dur::ZERO)
                .unwrap();
        };
        let west = {
            let mut b = TimetableBuilder::new(Period::DAY);
            let a = b.add_named_station("a", Dur::minutes(2));
            let border = b.add_named_station("B", Dur::minutes(3));
            west_trips(&mut b, a, border);
            Network::new(b.build().unwrap())
        };
        let east = {
            let mut b = TimetableBuilder::new(Period::DAY);
            let border = b.add_named_station("B", Dur::minutes(3));
            let c = b.add_named_station("c", Dur::minutes(2));
            east_trips(&mut b, border, c);
            Network::new(b.build().unwrap())
        };
        let mono = {
            let mut b = TimetableBuilder::new(Period::DAY);
            let a = b.add_named_station("a", Dur::minutes(2));
            let border = b.add_named_station("B", Dur::minutes(3));
            let c = b.add_named_station("c", Dur::minutes(2));
            west_trips(&mut b, a, border);
            east_trips(&mut b, border, c);
            Network::new(b.build().unwrap())
        };
        (vec![west, east], mono)
    }

    /// A real delay of east train `train` (bumps shard 1's generation).
    fn east_delay(train: u32, minutes: u32) -> (ShardId, DelayEvent) {
        let event = DelayEvent::Delay {
            train: TrainId(train),
            from_hop: 0,
            delay: Dur::minutes(minutes),
            recovery: Recovery::None,
        };
        (ShardId(1), event)
    }

    #[test]
    fn gateway_stitches_cross_shard_pairs_to_the_monolithic_answer() {
        let (shards, mono) = border_cities();
        let svc = ShardedService::builder().gateway(BorderSpec::ByName).build(shards);
        let mono_profiles = |src: u32| ProfileEngine::new().one_to_all(&mono, StationId(src));

        // a (shard 0) → c (shard 1): crosses at B with its 3-minute buffer.
        let routed = svc.s2s(StationId(0), StationId(3)).unwrap();
        assert_eq!(routed.shard, ShardId(1), "stitched answers route to the target's shard");
        assert_eq!(routed.value.kind, QueryKind::Gateway);
        assert_eq!(&routed.value.profile, mono_profiles(0).profile(StationId(2)));

        // Border endpoints on either side, and the reverse direction.
        let cases =
            [(0u32, 2u32, 0u32, 1u32), (1, 3, 1, 2), (3, 0, 2, 0), (2, 3, 1, 2), (3, 2, 2, 1)];
        for (s, t, ms, mt) in cases {
            let routed = svc.s2s(StationId(s), StationId(t)).unwrap();
            assert_eq!(
                &routed.value.profile,
                mono_profiles(ms).profile(StationId(mt)),
                "global {s} → {t} must equal monolithic {ms} → {mt}"
            );
        }

        // The batch form agrees with the singles and keeps input order,
        // mixing same-shard and cross-shard pairs.
        let pairs = vec![
            (StationId(0), StationId(3)), // cross
            (StationId(0), StationId(1)), // within shard 0
            (StationId(3), StationId(0)), // cross, reverse
        ];
        let out = svc.s2s_batch(&pairs);
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let single = svc.s2s(s, t).unwrap();
            let batched = out[i].as_ref().unwrap();
            assert_eq!(batched.shard, single.shard, "slot {i}");
            assert_eq!(batched.value.profile, single.value.profile, "slot {i}");
        }
        assert_eq!(out[1].as_ref().unwrap().value.kind, QueryKind::Plain, "no table, no gateway");

        // No feed: the first stitch built each shard's initial border row,
        // and every later stitch reused it.
        let stats = svc.gateway_stats().unwrap();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.borders_per_shard, vec![1, 1]);
        assert_eq!(stats.rows_refreshed, vec![1, 1], "one build per initial snapshot");
    }

    #[test]
    fn explicit_border_spec_agrees_with_by_name_seeding() {
        let (shards, _) = border_cities();
        let by_name = ShardedService::builder().gateway(BorderSpec::ByName).build(shards);
        let (shards, _) = border_cities();
        let explicit = ShardedService::builder()
            .gateway(BorderSpec::Explicit(vec![vec![StationId(1), StationId(2)]]))
            .build(shards);
        assert_eq!(by_name.gateway_stats(), explicit.gateway_stats());
        let a = by_name.s2s(StationId(0), StationId(3)).unwrap();
        let b = explicit.s2s(StationId(0), StationId(3)).unwrap();
        assert_eq!(a.value.profile, b.value.profile);
    }

    #[test]
    fn gateway_answers_track_feeds_and_refresh_only_touched_border_rows() {
        let (shards, mono) = border_cities();
        let svc = ShardedService::builder().gateway(BorderSpec::ByName).build(shards);
        let before = svc.s2s(StationId(0), StationId(3)).unwrap().value.profile;

        // Delay shard 1's first B→c train (train 0 of the east shard).
        assert!(svc.apply_feed(&[east_delay(0, 30)]).unwrap()[0].1.summary.changed());
        let after = svc.s2s(StationId(0), StationId(3)).unwrap().value.profile;
        assert_ne!(before, after, "a delay on the onward leg must move the stitched profile");

        // The same delay applied to the monolithic network (east trips were
        // added after west's four, so east train 0 is mono train 4).
        let mut mono = mono;
        mono.apply_feed(&[DelayEvent::Delay {
            train: TrainId(4),
            from_hop: 0,
            delay: Dur::minutes(30),
            recovery: Recovery::None,
        }]);
        let want = ProfileEngine::new().one_to_all(&mono, StationId(0));
        assert_eq!(&after, want.profile(StationId(2)), "stitched must track the fed monolith");

        // The first stitch built both initial rows; the feed recomputed
        // only the touched shard's.
        let stats = svc.gateway_stats().unwrap();
        assert_eq!(stats.rows_refreshed, vec![1, 2], "shard 0 was never touched");
    }

    #[test]
    fn border_rows_count_once_per_stitched_snapshot() {
        let (shards, _) = border_cities();
        let svc = ShardedService::builder().gateway(BorderSpec::ByName).build(shards);
        let pairs = vec![(StationId(0), StationId(3))];
        let rows = || svc.gateway_stats().unwrap().rows_refreshed;
        let borders = svc.gateway_stats().unwrap().borders_per_shard;
        let (west, east) = (borders[0] as u64, borders[1] as u64);
        assert_eq!(rows(), vec![0, 0], "the build computes no border row");

        // A cut pinned before the feeds; its first stitch fills it.
        let located: Vec<_> = pairs.iter().map(|&(s, t)| svc.locate_pair(s, t)).collect();
        let pins = svc.pin(svc.shard_ids());
        let reference = svc.s2s_batch(&pairs);
        assert_eq!(rows(), vec![west, east], "one build per initial snapshot");

        // Two feeds publish two snapshots; only the one a stitch pins
        // builds its sets, once.
        for event in [east_delay(0, 30), east_delay(1, 45)] {
            assert!(svc.apply_feed(&[event]).unwrap()[0].1.summary.changed());
        }
        assert_eq!(rows(), vec![west, east], "a feed builds no border rows");
        let profile = |r: &[Result<Routed<S2sResult>, RouterError>]| {
            r[0].as_ref().unwrap().value.profile.clone()
        };
        let fed = svc.s2s_batch(&pairs);
        assert_eq!(rows(), vec![west, 2 * east], "one build for the stitched snapshot");
        assert_eq!(profile(&svc.s2s_batch(&pairs)), profile(&fed));
        assert_eq!(rows(), vec![west, 2 * east], "a second stitch reuses the sets");

        // The pre-feed cut still carries its own sets and answers pre-feed.
        let pinned = svc.s2s_batch_pinned(located, &pins);
        assert_eq!(rows(), vec![west, 2 * east], "the pinned cut builds nothing");
        assert_eq!(profile(&pinned), profile(&reference));
        assert_ne!(profile(&pinned), profile(&fed), "the feeds moved the stitched answer");
    }

    #[test]
    fn superseded_snapshots_drop_their_border_sets_with_their_last_pin() {
        let (shards, mono) = border_cities();
        let svc = ShardedService::builder().gateway(BorderSpec::ByName).build(shards);
        let old = svc.network(ShardId(1)).unwrap();
        assert!(old.border_sets.get().is_none(), "the build fills no border set");
        let first = svc.s2s(StationId(0), StationId(3)).unwrap().value.profile;
        let mono_answer = ProfileEngine::new().one_to_all(&mono, StationId(0));
        assert_eq!(&first, mono_answer.profile(StationId(2)), "the first stitch is exact");
        let old_set = Arc::downgrade(&old.border_sets.get().expect("filled by the stitch")[0]);

        assert!(svc.apply_feed(&[east_delay(0, 30)]).unwrap()[0].1.summary.changed());
        let answer = svc.s2s(StationId(0), StationId(3)).unwrap().value.profile;
        let newest = svc.network(ShardId(1)).unwrap();
        let newest_set = Arc::clone(&newest.border_sets.get().expect("filled by the stitch")[0]);
        drop(newest);

        assert!(old_set.upgrade().is_some(), "a pinned snapshot keeps its sets");
        drop(old);
        assert!(old_set.upgrade().is_none(), "the last pin frees the superseded sets");

        // The newest snapshot still carries the very same sets.
        let newest = svc.network(ShardId(1)).unwrap();
        assert!(Arc::ptr_eq(&newest.border_sets.get().unwrap()[0], &newest_set));
        assert_eq!(svc.s2s(StationId(0), StationId(3)).unwrap().value.profile, answer);
    }

    #[test]
    fn a_fresh_service_computes_no_row_until_a_refresher_or_a_stitch_does() {
        use crate::network::{spawn_held, within_deadline};
        let (shards, mono) = border_cities();
        let svc = Arc::new(spawn_held(|| {
            ShardedService::builder()
                .tables(TransferSelection::Explicit(vec![StationId(0), StationId(1)]))
                .gateway(BorderSpec::ByName)
                .build(shards)
        }));
        let stats = svc.gateway_stats().unwrap();
        assert_eq!(stats.rows_refreshed, vec![0, 0], "the build computes no border row");
        let initial: Vec<_> = svc.shard_ids().map(|sh| svc.network(sh).unwrap()).collect();
        for (snap, sh) in initial.iter().zip(svc.shard_ids()) {
            assert!(snap.table().is_none(), "{sh}: the build computes no table row");
            assert!(snap.border_sets.get().is_none(), "{sh}: nor a border set");
        }

        // Until the refreshers fill, same-shard pairs run the stopping
        // criterion alone.
        let pairs =
            [(0u32, 1u32), (1, 0), (2, 3), (3, 2)].map(|(s, t)| (StationId(s), StationId(t)));
        let plain: Vec<_> = pairs.iter().map(|&(s, t)| svc.s2s(s, t).unwrap().value).collect();
        for (answer, pair) in plain.iter().zip(&pairs) {
            assert_eq!(answer.kind, QueryKind::Plain, "{pair:?}");
        }

        // The first stitch builds each shard's initial border sets, once,
        // and is exactly the merged monolith's answer.
        let mono_profiles = |src: u32| ProfileEngine::new().one_to_all(&mono, StationId(src));
        let first = svc.s2s(StationId(0), StationId(3)).unwrap().value;
        assert_eq!(first.kind, QueryKind::Gateway);
        assert_eq!(&first.profile, mono_profiles(0).profile(StationId(2)));
        let reverse = svc.s2s(StationId(3), StationId(0)).unwrap().value;
        assert_eq!(&reverse.profile, mono_profiles(2).profile(StationId(0)));
        let stats = svc.gateway_stats().unwrap();
        assert_eq!(
            stats.rows_refreshed,
            stats.borders_per_shard.iter().map(|&b| b as u64).collect::<Vec<_>>()
        );

        // Released, each refresher fills its initial snapshot with the rows
        // of a from-scratch build, and the tabled answers equal the plain
        // ones byte for byte.
        for sh in svc.shard_ids() {
            svc.shards[sh.idx()].net.hold_refresher(false);
            let waiter = Arc::clone(&svc);
            let filled = within_deadline(move || waiter.wait_for_table(sh)).unwrap();
            assert!(Arc::ptr_eq(&filled, &initial[sh.idx()]), "{sh}");
            let table = filled.table().unwrap();
            let rebuilt = DistanceTable::build_for(&filled, table.stations().to_vec());
            for &a in table.stations() {
                for &b in table.stations() {
                    assert_eq!(table.profile(a, b), rebuilt.profile(a, b), "{sh}: D({a}, {b})");
                }
            }
        }
        for (answer, &(s, t)) in plain.iter().zip(&pairs) {
            let tabled = svc.s2s(s, t).unwrap().value;
            assert_ne!(tabled.kind, QueryKind::Plain, "{s} → {t} once the table is in");
            assert_eq!(tabled.profile, answer.profile, "{s} → {t}");
        }
    }

    #[test]
    fn a_failed_fill_is_a_typed_router_error_and_the_shard_answers_plain() {
        use crate::network::{spawn_held, within_deadline};
        let svc = Arc::new(spawn_held(|| {
            ShardedService::builder()
                .tables(TransferSelection::Explicit(vec![StationId(0), StationId(2)]))
                .build(vec![city(0), city(5)])
        }));
        svc.shards[1].net.panic_next_fill();
        for sh in svc.shard_ids() {
            svc.shards[sh.idx()].net.hold_refresher(false);
        }
        let waiter = Arc::clone(&svc);
        let err = within_deadline(move || waiter.wait_for_table(ShardId(1))).unwrap_err();
        let snap = svc.network(ShardId(1)).unwrap();
        let failed = FillFailed { snapshot: (snap.epoch(), snap.generation()) };
        assert_eq!(err, RouterError::FillFailed { shard: ShardId(1), failed });
        assert!(err.to_string().starts_with("shard 1: "), "{err}");
        let waiter = Arc::clone(&svc);
        assert!(within_deadline(move || waiter.wait_for_table(ShardId(0))).is_ok());

        let (s, t) = (StationId(3), StationId(5));
        let answer = svc.s2s(s, t).unwrap().value;
        assert_eq!(answer.kind, QueryKind::Plain, "the failed snapshot answers unpruned");
        let want = ProfileEngine::new().one_to_all(&snap, StationId(0));
        assert_eq!(&answer.profile, want.profile(StationId(2)));
    }

    #[test]
    fn pinned_batches_ignore_racing_feeds_deterministically() {
        let (shards, _) = border_cities();
        let svc = ShardedService::builder().gateway(BorderSpec::ByName).build(shards);
        let pairs = vec![(StationId(0), StationId(3)), (StationId(0), StationId(1))];

        // The pin/run seam, exercised as a feed racing a batch: locate and
        // pin as `s2s_batch` does, let a feed land, then run the batch on
        // the pinned cut. The same-shard pair lives in the west alone, so
        // only the cross pair makes the batch pin the fed east shard.
        let located: Vec<_> = pairs.iter().map(|&(s, t)| svc.locate_pair(s, t)).collect();
        let pins = svc.pin_pairs(&located);
        assert!(pins.iter().all(Option::is_some), "a cross pair pins every shard");
        let reference = svc.s2s_batch(&pairs);

        assert!(svc.apply_feed(&[east_delay(0, 30)]).unwrap()[0].1.summary.changed());

        // The pinned run answers entirely pre-feed…
        let pinned = svc.s2s_batch_pinned(located, &pins);
        for (i, (p, r)) in pinned.iter().zip(&reference).enumerate() {
            assert_eq!(
                p.as_ref().unwrap().value.profile,
                r.as_ref().unwrap().value.profile,
                "pinned slot {i} must not see the racing feed"
            );
        }
        // …while a fresh batch sees the feed.
        let fresh = svc.s2s_batch(&pairs);
        assert_ne!(
            fresh[0].as_ref().unwrap().value.profile,
            reference[0].as_ref().unwrap().value.profile,
            "the cross pair rides the delayed onward leg"
        );

        // Same seam for one-to-all batches.
        let sources = vec![StationId(2), StationId(3)];
        let located: Vec<_> = sources.iter().map(|&s| svc.locate(s)).collect();
        let pins = svc.pin(located.iter().map(|loc| loc.unwrap().0));
        let reference = svc.many_to_all(&sources);
        assert!(svc.apply_feed(&[east_delay(1, 45)]).unwrap()[0].1.summary.changed());
        let pinned = svc.many_to_all_pinned(located, &pins);
        for (i, (p, r)) in pinned.iter().zip(&reference).enumerate() {
            assert_eq!(
                p.as_ref().unwrap().value,
                r.as_ref().unwrap().value,
                "pinned one-to-all slot {i} must not see the racing feed"
            );
        }
    }

    #[test]
    fn errors_display_the_redirect_information() {
        let wrong = RouterError::WrongShard {
            station: StationId(7),
            queried: ShardId(0),
            owner: ShardId(2),
        };
        let msg = wrong.to_string();
        assert!(msg.contains("shard 2"), "{msg}");
        let cross = RouterError::CrossShard { source: ShardId(1), target: ShardId(3) };
        assert!(cross.to_string().contains("shard 1 → shard 3"), "{cross}");
    }
}
