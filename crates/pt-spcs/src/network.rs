//! Bundled search structures of one transportation network, plus the
//! snapshot-isolated concurrent wrapper ([`ConcurrentNetwork`]) a live
//! service queries while a feed stream mutates it.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use arc_swap::ArcSwap;

use pt_core::{Dur, RouteId, StationId, TrainId};
use pt_graph::{StationGraph, TdGraph};
use pt_timetable::{
    CalendarError, Date, DayTimetable, DelayEvent, Recovery, Routes, ServiceCalendar, Timetable,
};

use crate::distance_table::DistanceTable;
use crate::transfer_selection::TransferSelection;

/// Source of process-unique [`Network::epoch`] stamps.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// How many mutations back [`Network::touched_since`] can answer. Bounds
/// the per-network memory of the touched-station log; a consumer further
/// behind than this falls back to a full recompute.
const FEED_LOG_CAP: usize = 64;

/// How [`Network::apply_delay`] serviced an update — the fully dynamic
/// scenario of the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayUpdate {
    /// The delay matched no connection (or was fully absorbed by the
    /// recovery): nothing changed, the generation did not move.
    Unchanged,
    /// The event's train kept its route id: the timetable was patched in
    /// place and the route's PLFs were rewritten
    /// ([`TdGraph::repatch_routes`]).
    Patched,
    /// The event's train rides a different route id after the feed: the
    /// re-split of its class ([`Routes::repatch_feed`]) moved it — nothing
    /// is rebuilt (the name predates that).
    Rebuilt,
}

/// What [`Network::apply_feed`] did with one batch of [`DelayEvent`]s —
/// the per-event outcomes plus the aggregate counters a feed-driven server
/// (and the repo benchmark) reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedSummary {
    /// Per event, in feed order, how it was serviced. An event whose train
    /// ended up with unchanged times (a no-op delay, a cancellation of a
    /// never-delayed train, or a delay+cancel pair that nets out) is
    /// [`DelayUpdate::Unchanged`]; an event whose train kept its route id is
    /// [`DelayUpdate::Patched`]; one whose train changed route id is
    /// [`DelayUpdate::Rebuilt`].
    pub events: Vec<DelayUpdate>,
    /// Distinct routes carrying a net-changed train.
    pub touched_routes: usize,
    /// Existing routes rewritten in place, each exactly once
    /// ([`TdGraph::repatch_routes`]): the touched ones plus every route
    /// whose trains the re-split of their classes changed.
    pub repatched_routes: usize,
    /// Routes the re-split appended ([`Routes::refit`]); non-zero means the
    /// graph grew route nodes.
    pub refit_routes: usize,
    /// Departure stations of every net-changed connection, sorted and
    /// deduplicated. Informational — the network records the same data per
    /// generation in its own bounded log ([`Network::touched_since`]), which
    /// is what [`DistanceTable::refresh`](crate::DistanceTable::refresh)
    /// consults, so stale tables several feeds behind refresh correctly
    /// without the caller accumulating these.
    pub touched_stations: Vec<StationId>,
}

impl FeedSummary {
    /// `true` iff the feed changed at least one connection time (exactly
    /// when the generation was bumped — once).
    pub fn changed(&self) -> bool {
        self.touched_routes > 0
    }

    /// `true` iff the feed's re-split appended routes.
    pub fn rebuilt(&self) -> bool {
        self.refit_routes > 0
    }

    fn unchanged(num_events: usize) -> FeedSummary {
        FeedSummary {
            events: vec![DelayUpdate::Unchanged; num_events],
            touched_routes: 0,
            repatched_routes: 0,
            refit_routes: 0,
            touched_stations: Vec::new(),
        }
    }
}

/// A timetable together with every derived structure the searches need:
/// the route partition, the realistic time-dependent graph and the station
/// graph. Build it once, query it many times; all queries take `&Network`,
/// and [`Network::apply_delay`] mutates it in place between queries.
#[derive(Debug)]
pub struct Network {
    timetable: Timetable,
    routes: Routes,
    graph: TdGraph,
    /// Shared: the station graph is invariant under delays (durations and
    /// the edge set never change), so every clone of this network — and
    /// every published snapshot — aliases the same allocation forever.
    stations: Arc<StationGraph>,
    /// Process-unique instance stamp (fresh on construction *and* on
    /// clone): two distinct `Network` values never share an epoch, even
    /// when their timetable generations coincide. Caches key on
    /// `(epoch, generation)` so a network-free engine queried against
    /// several networks can never serve a result across them.
    epoch: u64,
    /// The last [`FEED_LOG_CAP`] mutations as `(generation after the
    /// mutation, its touched stations)` — consecutive generations, since
    /// every mutation flows through [`Network::apply_feed`] and bumps
    /// exactly once. Backs [`Network::touched_since`], the source of truth
    /// for incremental distance-table refreshes. Entries are immutable
    /// once recorded, so clones share them by refcount.
    feed_log: Vec<(u64, Arc<[StationId]>)>,
}

impl Clone for Network {
    /// Clones every structure but stamps a fresh [`Network::epoch`]: the
    /// clone can be mutated independently, so cached results must not
    /// alias between original and copy. The copy is copy-on-write —
    /// cloning shares the inner allocations by refcount; either side
    /// unshares exactly the pieces it later mutates.
    fn clone(&self) -> Network {
        Network {
            timetable: self.timetable.clone(),
            routes: self.routes.clone(),
            graph: self.graph.clone(),
            stations: self.stations.clone(),
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            feed_log: self.feed_log.clone(),
        }
    }
}

impl Network {
    /// Builds all derived structures from a timetable.
    pub fn new(timetable: Timetable) -> Network {
        let routes = Routes::partition(&timetable);
        let graph = TdGraph::build(&timetable, &routes);
        let stations = StationGraph::build(&timetable);
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        Network {
            timetable,
            routes,
            graph,
            stations: Arc::new(stations),
            epoch,
            feed_log: Vec::new(),
        }
    }

    /// Like [`Network::new`], borrowing the timetable (clones it).
    pub fn build(timetable: &Timetable) -> Network {
        Self::new(timetable.clone())
    }

    /// Applies a delay to the live network: `train` runs `delay` late from
    /// its `from_hop`-th hop onward, recovering per [`Recovery`] — the
    /// one-event [`Network::apply_feed`], which describes the update path:
    /// [`DelayUpdate::Rebuilt`] if the train changed route id,
    /// [`DelayUpdate::Patched`] otherwise.
    ///
    /// Every change bumps [`Network::generation`], invalidating
    /// generation-keyed caches. Precomputed [`crate::DistanceTable`]s are
    /// *not* managed here — refresh, rebuild or drop them after a delay.
    pub fn apply_delay(
        &mut self,
        train: TrainId,
        from_hop: u16,
        delay: Dur,
        recovery: Recovery,
    ) -> DelayUpdate {
        self.apply_feed(&[DelayEvent::Delay { train, from_hop, delay, recovery }]).events[0]
    }

    /// Withdraws every previous delay announcement for `train`
    /// ([`DelayEvent::Cancel`] applied alone): its hops return to the
    /// published schedule. A never-delayed train is a no-op
    /// ([`DelayUpdate::Unchanged`], no generation bump).
    pub fn apply_cancel(&mut self, train: TrainId) -> DelayUpdate {
        self.apply_feed(&[DelayEvent::Cancel { train }]).events[0]
    }

    /// Applies a whole realtime feed to the live network in **one pass**,
    /// sized for GTFS-RT-style streams of hundreds of updates (the one
    /// update path: [`Network::apply_delay`] is its one-event case):
    ///
    /// * [`Timetable::patch_feed`] coalesces the events per train, rewrites
    ///   every net-changed connection once, re-sorts each touched `conn(S)`
    ///   bucket once and bumps the generation **once** (so
    ///   generation-keyed caches are invalidated once per feed, not once
    ///   per event),
    /// * [`Routes::repatch_feed`] re-splits the class (stop sequence) of
    ///   every touched route with the greedy split [`Routes::partition`]
    ///   runs, so the partition's train sets stay those of a from-scratch
    ///   partition; each class keeps its route ids, empties the ids it no
    ///   longer needs and appends the ones it lacks,
    /// * [`TdGraph::repatch_routes`] appends those routes and rewrites the
    ///   PLFs of every touched or re-split route in place — **one rewrite
    ///   per route** however many events hit it; the graph is never
    ///   rebuilt,
    /// * the station graph is invariant (delays and cancellations shift
    ///   times, never durations or the edge set) and is always kept.
    ///
    /// The returned [`FeedSummary`] carries a per-event [`DelayUpdate`]
    /// (net semantics: events whose train ended up back on its previous
    /// times report [`DelayUpdate::Unchanged`]) and the feed's touched
    /// stations; the same stations are recorded per generation in the
    /// network's bounded log ([`Network::touched_since`]) for incremental
    /// [`DistanceTable::refresh`](crate::DistanceTable::refresh)es. A feed
    /// with net effect nil leaves the network — and its generation —
    /// untouched.
    pub fn apply_feed(&mut self, events: &[DelayEvent]) -> FeedSummary {
        let patch = self.timetable.patch_feed(events);
        if !patch.changed {
            return FeedSummary::unchanged(events.len());
        }
        let before: Vec<RouteId> = patch.trains.iter().map(|&t| self.routes.route_of(t)).collect();
        let routes_before = self.routes.len();
        let rewrite = self.routes.repatch_feed(&self.timetable, &patch);
        self.graph.repatch_routes(&self.timetable, &self.routes, &rewrite, &patch.remapped);
        let events_out: Vec<DelayUpdate> = events
            .iter()
            .zip(&patch.event_changed)
            .map(|(ev, &changed)| match patch.trains.binary_search(&ev.train()) {
                Ok(i) if changed && self.routes.route_of(ev.train()) == before[i] => {
                    DelayUpdate::Patched
                }
                Ok(_) if changed => DelayUpdate::Rebuilt,
                _ => DelayUpdate::Unchanged,
            })
            .collect();
        let mut touched = before;
        touched.sort_unstable();
        touched.dedup();

        self.feed_log.push((self.generation(), patch.touched_stations.clone().into()));
        if self.feed_log.len() > FEED_LOG_CAP {
            self.feed_log.remove(0);
        }
        FeedSummary {
            events: events_out,
            touched_routes: touched.len(),
            repatched_routes: rewrite.len(),
            refit_routes: self.routes.len() - routes_before,
            touched_stations: patch.touched_stations,
        }
    }

    /// The union of touched stations (departure stations of re-timed
    /// connections) over every mutation after `generation`, or `None` when
    /// the bounded log no longer reaches back that far — the consumer must
    /// then assume everything changed. `Some(vec![])` means the network
    /// has not changed since `generation`. Backs
    /// [`DistanceTable::refresh`](crate::DistanceTable::refresh), which
    /// needs the *complete* union since its build generation — asking the
    /// network instead of trusting callers to accumulate per-feed
    /// summaries closes the it-looked-fresh-but-wasn't hole.
    pub fn touched_since(&self, generation: u64) -> Option<Vec<StationId>> {
        let current = self.generation();
        if generation > current {
            return None; // a future generation: not this network's past
        }
        if generation == current {
            return Some(Vec::new());
        }
        // Entries carry consecutive generations (each mutation bumps once),
        // so coverage of (generation, current] is a contiguity walk.
        let mut covered = generation;
        let mut union: Vec<StationId> = Vec::new();
        for (g, stations) in &self.feed_log {
            if *g <= generation {
                continue;
            }
            if *g != covered + 1 {
                return None; // trimmed out of the bounded log
            }
            covered = *g;
            union.extend(stations.iter().copied());
        }
        if covered != current {
            return None;
        }
        union.sort_unstable();
        union.dedup();
        Some(union)
    }

    /// The timetable's update generation (see [`Timetable::generation`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.timetable.generation()
    }

    /// The process-unique instance stamp of this network. Combined with
    /// [`Network::generation`] it identifies exactly one network state:
    /// construction and [`Clone`] both assign a fresh epoch, mutation bumps
    /// the generation.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying timetable.
    #[inline]
    pub fn timetable(&self) -> &Timetable {
        &self.timetable
    }

    /// The network of one concrete query day: filters the timetable by
    /// `calendar` (see [`Timetable::for_day`]) and rebuilds every derived
    /// search structure over the surviving trains. The returned network is
    /// independent — a fresh epoch, generation history reset — and its
    /// train ids are day-local; use the returned [`DayTimetable`]'s remap
    /// to translate feed events recorded against the full dataset.
    pub fn for_day(
        &self,
        calendar: &ServiceCalendar,
        date: Date,
    ) -> Result<(Network, DayTimetable), CalendarError> {
        let day = self.timetable.for_day(calendar, date)?;
        Ok((Network::new(day.timetable.clone()), day))
    }

    /// The route partition.
    #[inline]
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// The realistic time-dependent graph.
    #[inline]
    pub fn graph(&self) -> &TdGraph {
        &self.graph
    }

    /// The station graph `G_S`.
    #[inline]
    pub fn station_graph(&self) -> &StationGraph {
        &self.stations
    }

    /// Number of stations.
    #[inline]
    pub fn num_stations(&self) -> usize {
        self.timetable.num_stations()
    }

    /// Iterates over all stations.
    pub fn station_ids(&self) -> impl Iterator<Item = StationId> + '_ {
        self.timetable.station_ids()
    }

    /// Clones every structure but **keeps** the epoch — for publishing an
    /// immutable [`NetworkSnapshot`] of this exact logical state. Sound
    /// only because snapshots are never mutated: the `(epoch, generation)`
    /// pair still identifies exactly one state, so cached results may be
    /// shared between the master and its published snapshots. Never use
    /// this for a copy that will be mutated independently (that is what
    /// [`Clone`] is for — it stamps a fresh epoch).
    ///
    /// This is a *spine* clone: O(stations + routes + PLFs) refcount
    /// bumps, no payload copies. The master unshares only the buckets,
    /// route blocks and PLFs it rewrites on later feeds, so successive
    /// snapshots share everything a feed did not touch.
    pub(crate) fn clone_same_epoch(&self) -> Network {
        Network {
            timetable: self.timetable.clone(),
            routes: self.routes.clone(),
            graph: self.graph.clone(),
            stations: self.stations.clone(),
            epoch: self.epoch,
            feed_log: self.feed_log.clone(),
        }
    }
}

/// One immutable published state of a [`ConcurrentNetwork`]: the network
/// plus the matching refreshed [`DistanceTable`] (if configured, transfer
/// mask included). Readers pin a snapshot (`Arc` clone) for the
/// duration of one query; the `(epoch, generation)` pair identifies the
/// state for generation-keyed caches, so answers computed on a pinned
/// snapshot are exactly the answers of that state — never a torn mix.
///
/// Derefs to [`Network`], so a `&NetworkSnapshot` goes anywhere a
/// `&Network` does.
#[derive(Debug)]
pub struct NetworkSnapshot {
    net: Network,
    table: Option<Arc<DistanceTable>>,
}

impl NetworkSnapshot {
    /// The network of this state.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The distance table refreshed for this state, if one is configured.
    #[inline]
    pub fn table(&self) -> Option<&DistanceTable> {
        self.table.as_deref()
    }

    /// The table behind a shared handle, for holding beyond the snapshot.
    #[inline]
    pub fn shared_table(&self) -> Option<Arc<DistanceTable>> {
        self.table.clone()
    }
}

impl Deref for NetworkSnapshot {
    type Target = Network;

    fn deref(&self) -> &Network {
        &self.net
    }
}

/// What one [`ConcurrentNetwork::apply_feed`] call did.
#[derive(Debug)]
pub struct PublishOutcome {
    /// The per-event outcomes and touched stations (see [`FeedSummary`]).
    pub summary: FeedSummary,
    /// Rows rewritten by the incremental table refresh (0 when no table is
    /// configured or the feed was net-nil).
    pub table_rows_refreshed: usize,
    /// Wall-clock nanoseconds to build and install the new snapshot: the
    /// spine clone plus the pointer swap (the incremental table refresh
    /// is *not* included — it is its own, already O(affected), phase).
    /// Copy-on-write sharing makes this O(touched), not O(network).
    /// `0` when the feed was net-nil (nothing was published).
    pub publish_ns: u64,
    /// The snapshot published by this call, or `None` when the feed was
    /// net-nil and the previous snapshot remained current.
    pub published: Option<Arc<NetworkSnapshot>>,
}

/// The master state behind the publish lock: the only copy that mutates.
/// The table sits behind an `Arc` shared with the published snapshots;
/// [`DistanceTable::refresh_shared`] unshares it only when a refresh
/// actually rewrites rows.
#[derive(Debug)]
struct Master {
    net: Network,
    table: Option<Arc<DistanceTable>>,
}

/// A [`Network`] served concurrently under **snapshot isolation**: any
/// number of reader threads pin immutable [`NetworkSnapshot`]s via
/// [`ConcurrentNetwork::snapshot`] while one writer at a time applies
/// feeds. A feed patches the private master copy, refreshes the master's
/// distance table incrementally, then publishes the new state with a
/// single atomic pointer swap — readers never observe a half-applied feed:
/// every query's answer is exactly the pre-feed or post-feed state.
///
/// Writers are serialized on the master mutex; `snapshot()` is **wait-free
/// and lock-free** — a pin is three atomic operations on the publish slot
/// ([`ArcSwap`]), so a burst of publishes can never block or starve
/// readers (and a descheduled reader can never block a publish).
#[derive(Debug)]
pub struct ConcurrentNetwork {
    master: Mutex<Master>,
    published: ArcSwap<NetworkSnapshot>,
    publishes: AtomicU64,
}

impl ConcurrentNetwork {
    /// Wraps a network with no distance table.
    pub fn new(net: Network) -> ConcurrentNetwork {
        Self::with_optional_table(net, None)
    }

    /// Wraps a network and builds a [`DistanceTable`] for it; every
    /// published snapshot carries the table refreshed to that state.
    pub fn with_table(net: Network, selection: &TransferSelection) -> ConcurrentNetwork {
        let table = DistanceTable::build(&net, selection);
        Self::with_optional_table(net, Some(Arc::new(table)))
    }

    fn with_optional_table(net: Network, table: Option<Arc<DistanceTable>>) -> ConcurrentNetwork {
        let snapshot = Arc::new(publish_snapshot(&net, table.as_ref()));
        ConcurrentNetwork {
            master: Mutex::new(Master { net, table }),
            published: ArcSwap::new(snapshot),
            publishes: AtomicU64::new(0),
        }
    }

    /// Pins the current published state. The returned `Arc` keeps that
    /// state alive for as long as the reader holds it, unaffected by any
    /// concurrent [`ConcurrentNetwork::apply_feed`]. Wait-free: never
    /// takes a lock, never spins — a publish storm cannot delay a pin.
    pub fn snapshot(&self) -> Arc<NetworkSnapshot> {
        self.published.load_full()
    }

    /// How many snapshots have been published (excluding the initial one).
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Applies a feed under snapshot isolation: patches the master copy
    /// ([`Network::apply_feed`]), refreshes the master's table
    /// incrementally ([`DistanceTable::refresh_shared`] — the shared
    /// `Arc` is kept when zero rows change), then publishes the new state
    /// atomically. The publish itself is O(touched): a spine clone of the
    /// master shares every untouched bucket, route block, PLF and table
    /// row with the previous snapshot by refcount. Concurrent writers are
    /// serialized; concurrent readers keep their pinned snapshots and see
    /// the new state on their next [`ConcurrentNetwork::snapshot`] call.
    /// A net-nil feed publishes nothing.
    pub fn apply_feed(&self, events: &[DelayEvent]) -> PublishOutcome {
        let mut master = self.master.lock().unwrap();
        let summary = master.net.apply_feed(events);
        if !summary.changed() {
            return PublishOutcome {
                summary,
                table_rows_refreshed: 0,
                publish_ns: 0,
                published: None,
            };
        }
        let mut rows = 0;
        let Master { net, table } = &mut *master;
        if let Some(table) = table {
            rows = DistanceTable::refresh_shared(table, net)
                .expect("master table refreshes in lock step");
        }
        let start = std::time::Instant::now();
        let snapshot = Arc::new(publish_snapshot(&master.net, master.table.as_ref()));
        self.published.store(snapshot.clone());
        let publish_ns = start.elapsed().as_nanos() as u64;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        PublishOutcome {
            summary,
            table_rows_refreshed: rows,
            publish_ns,
            published: Some(snapshot),
        }
    }
}

/// Builds the immutable snapshot of one master state. Uses
/// [`Network::clone_same_epoch`] so the snapshot carries the *same*
/// `(epoch, generation)` identity as the master — sound because the
/// snapshot is never mutated. The table `Arc` is shared outright (the
/// master unshares it itself when a refresh rewrites rows), so a publish
/// whose refresh touched zero rows keeps `Arc::ptr_eq` with the previous
/// snapshot's table.
fn publish_snapshot(net: &Network, table: Option<&Arc<DistanceTable>>) -> NetworkSnapshot {
    NetworkSnapshot { net: net.clone_same_epoch(), table: table.cloned() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_timetable::synthetic::city::{generate_city, CityConfig};

    fn net() -> Network {
        Network::new(generate_city(&CityConfig::sized(30, 4, 9)))
    }

    fn delay(train: u32, minutes: u32) -> DelayEvent {
        DelayEvent::Delay {
            train: TrainId(train),
            from_hop: 0,
            delay: Dur::minutes(minutes),
            recovery: Recovery::None,
        }
    }

    #[test]
    fn publish_ordering_pins_the_pre_feed_state() {
        let cnet = ConcurrentNetwork::new(net());
        let pinned = cnet.snapshot();
        let (epoch, gen0) = (pinned.epoch(), pinned.generation());

        let outcome = cnet.apply_feed(&[delay(0, 15)]);
        assert!(outcome.summary.changed());
        let fresh = cnet.snapshot();

        // The pinned snapshot is byte-for-byte the pre-feed state …
        assert_eq!((pinned.epoch(), pinned.generation()), (epoch, gen0));
        // … while the published one moved exactly one generation forward,
        // same epoch (same logical network, new state).
        assert_eq!((fresh.epoch(), fresh.generation()), (epoch, gen0 + 1));
        assert!(Arc::ptr_eq(&fresh, outcome.published.as_ref().unwrap()));
        assert!(!Arc::ptr_eq(&fresh, &pinned));
        assert_eq!(cnet.publishes(), 1);
    }

    #[test]
    fn refit_feed_is_copy_on_write_and_leaves_pinned_snapshots_alone() {
        use crate::ProfileEngine;
        let base = net();
        // Some delay of train 0 lands it on a companion's slot or past it.
        let event = (1..240)
            .map(|minutes| delay(0, minutes))
            .find(|&ev| base.clone().apply_feed(&[ev]).rebuilt())
            .expect("a delay of train 0 that splits its route");
        let engine = ProfileEngine::new();
        let sources = [StationId(0), StationId(7), StationId(19)];
        let before: Vec<_> = sources.iter().map(|&s| engine.one_to_all(&base, s)).collect();

        let cnet = ConcurrentNetwork::new(base);
        let pinned = cnet.snapshot();
        let outcome = cnet.apply_feed(&[event]);
        assert!(outcome.summary.rebuilt());
        assert_ne!(outcome.summary.events, [DelayUpdate::Unchanged]);
        let fresh = cnet.snapshot();
        assert!(fresh.routes().len() > pinned.routes().len(), "the re-split appended routes");

        // The pinned snapshot still answers the pre-feed state.
        for (&s, profiles) in sources.iter().zip(&before) {
            assert_eq!(&engine.one_to_all(&pinned, s), profiles, "pinned source {s}");
        }
        // The new one shares every PLF but the rewritten routes' hops with
        // it: the feed re-split one class, whose routes have train 0's hops.
        let plfs: usize = pinned.routes().iter_routes().map(|r| r.num_hops()).sum();
        let touched = pinned.routes().route(pinned.routes().route_of(TrainId(0)));
        let (shared, same_topology) = fresh.graph().shared_plfs_with(pinned.graph());
        assert!(outcome.summary.repatched_routes >= 1);
        assert_eq!(shared, plfs - outcome.summary.repatched_routes * touched.num_hops());
        assert!(!same_topology, "appended route nodes live in a topology of their own");
    }

    #[test]
    fn net_nil_feed_publishes_nothing() {
        let cnet = ConcurrentNetwork::new(net());
        let before = cnet.snapshot();
        // A delay followed by its cancellation nets out to no change.
        let outcome = cnet.apply_feed(&[delay(0, 10), DelayEvent::Cancel { train: TrainId(0) }]);
        assert!(!outcome.summary.changed());
        assert!(outcome.published.is_none());
        assert!(Arc::ptr_eq(&before, &cnet.snapshot()));
        assert_eq!(cnet.publishes(), 0);
    }

    #[test]
    fn zero_row_refresh_shares_the_table_allocation() {
        use pt_core::Time;
        use pt_timetable::{TimetableBuilder, TripStop};
        // Two disconnected components: a delay in B can never change any
        // profile between stations of A, so a publish after it refreshes
        // zero table rows — and must then share the table `Arc` with the
        // previous snapshot instead of cloning it (the old code deep-cloned
        // the whole table on every publish).
        let mut b = TimetableBuilder::new(pt_core::Period::DAY);
        let a: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("A{i}"), Dur::minutes(2))).collect();
        let c: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("B{i}"), Dur::minutes(2))).collect();
        for h in [7u32, 9, 11] {
            b.add_trip(&[
                TripStop::passing(a[0], Time::hm(h, 0)),
                TripStop::passing(a[1], Time::hm(h, 20)),
                TripStop::passing(a[2], Time::hm(h, 40)),
            ])
            .unwrap();
            b.add_trip(&[
                TripStop::passing(c[0], Time::hm(h, 5)),
                TripStop::passing(c[1], Time::hm(h, 25)),
                TripStop::passing(c[2], Time::hm(h, 45)),
            ])
            .unwrap();
        }
        let net = Network::new(b.build().unwrap());
        let cnet = ConcurrentNetwork::with_table(net, &TransferSelection::Explicit(a.clone()));
        let before = cnet.snapshot();

        // Delay a component-B train (trains alternate A, B, A, B, …).
        let outcome = cnet.apply_feed(&[delay(1, 30)]);
        assert!(outcome.summary.changed(), "the delay must take effect");
        assert_eq!(outcome.table_rows_refreshed, 0, "no A-row can be affected");

        let after = cnet.snapshot();
        let (t0, t1) = (before.shared_table().unwrap(), after.shared_table().unwrap());
        assert!(Arc::ptr_eq(&t0, &t1), "a zero-row refresh must share, not clone");
        // The one allocation is fresh for both pinned generations.
        assert!(t0.check_fresh(before.network()).is_ok());
        assert!(t1.check_fresh(after.network()).is_ok());

        // A component-A delay rewrites rows — the snapshots then unshare.
        let outcome = cnet.apply_feed(&[delay(0, 30)]);
        assert!(outcome.table_rows_refreshed > 0);
        let third = cnet.snapshot();
        assert!(!Arc::ptr_eq(&t1, &third.shared_table().unwrap()));
        assert!(third.table().unwrap().check_fresh(third.network()).is_ok());
    }

    #[test]
    fn published_table_is_refreshed_to_the_published_state() {
        let cnet = ConcurrentNetwork::with_table(net(), &TransferSelection::Fraction(0.2));
        let outcome = cnet.apply_feed(&[delay(1, 20)]);
        assert!(outcome.summary.changed());
        assert!(outcome.table_rows_refreshed > 0);
        let snap = cnet.snapshot();
        let table = snap.table().expect("table configured");
        assert!(table.check_fresh(snap.network()).is_ok());
        let marked: Vec<bool> =
            snap.station_ids().map(|s| table.stations().binary_search(&s).is_ok()).collect();
        assert_eq!(snap.table().unwrap().transfer_mask(), &marked[..]);
    }
}
