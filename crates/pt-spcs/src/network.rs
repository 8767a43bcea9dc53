//! Bundled search structures of one transportation network, plus the
//! snapshot-isolated concurrent wrapper ([`ConcurrentNetwork`]) a live
//! service queries while a feed stream mutates it.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::JoinHandle;

use arc_swap::ArcSwap;

use pt_core::{Dur, RouteId, StationId, TrainId};
use pt_graph::{StationGraph, TdGraph};
use pt_timetable::{
    CalendarError, Date, DayTimetable, DelayEvent, Recovery, Routes, ServiceCalendar, Timetable,
};

use crate::distance_table::{fill_engine, DistanceTable, TransferSet};
use crate::profile_set::ProfileSet;
use crate::transfer_selection::TransferSelection;

/// Source of process-unique [`Network::epoch`] stamps.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// What [`Network::apply_feed`] did with one batch of [`DelayEvent`]s —
/// the fully dynamic scenario of the paper (§5.1). The default value is
/// the nil feed's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeedSummary {
    /// Distinct routes carrying a net-changed train.
    pub touched_routes: usize,
    /// Existing routes rewritten in place, each exactly once
    /// ([`TdGraph::repatch_routes`]): the touched ones plus every route
    /// whose trains the re-split of their classes changed.
    pub repatched_routes: usize,
    /// Routes the re-split appended ([`Routes::refit`]); non-zero means the
    /// graph grew route nodes.
    pub refit_routes: usize,
}

impl FeedSummary {
    /// `true` iff the feed changed at least one connection time (exactly
    /// when the generation was bumped — once).
    pub fn changed(&self) -> bool {
        self.touched_routes > 0
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
        Network { timetable, routes, graph, stations: Arc::new(stations), epoch }
    }

    /// Like [`Network::new`], borrowing the timetable (clones it).
    pub fn build(timetable: &Timetable) -> Network {
        Self::new(timetable.clone())
    }

    /// Applies a delay to the live network: `train` runs `delay` late from
    /// its `from_hop`-th hop onward, recovering per [`Recovery`] — the
    /// one-event [`Network::apply_feed`].
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
    ) -> FeedSummary {
        self.apply_feed(&[DelayEvent::Delay { train, from_hop, delay, recovery }])
    }

    /// Withdraws every previous delay announcement for `train` — the
    /// one-event [`Network::apply_feed`] of a [`DelayEvent::Cancel`]: its
    /// hops return to the published schedule. A never-delayed train is a
    /// no-op (an unchanged summary, no generation bump).
    pub fn apply_cancel(&mut self, train: TrainId) -> FeedSummary {
        self.apply_feed(&[DelayEvent::Cancel { train }])
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
    /// The returned [`FeedSummary`] counts the routes the feed touched,
    /// rewrote and appended (net semantics: a train that ended up back on
    /// its previous times touches nothing). A feed with net effect nil
    /// leaves the network — and its generation — untouched.
    pub fn apply_feed(&mut self, events: &[DelayEvent]) -> FeedSummary {
        let patch = self.timetable.patch_feed(events);
        if !patch.changed {
            return FeedSummary::default();
        }
        let mut touched: Vec<RouteId> =
            patch.trains.iter().map(|&t| self.routes.route_of(t)).collect();
        touched.sort_unstable();
        touched.dedup();
        let routes_before = self.routes.len();
        let rewrite = self.routes.repatch_feed(&self.timetable, &patch);
        self.graph.repatch_routes(&self.timetable, &self.routes, &rewrite, &patch.remapped);
        FeedSummary {
            touched_routes: touched.len(),
            repatched_routes: rewrite.len(),
            refit_routes: self.routes.len() - routes_before,
        }
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
    /// It costs one refcount per array: every feed-patched index is a
    /// [`pt_core::CowChunks`], so no element and no chunk is touched. The
    /// master copies only the chunks (and the buckets, routes and PLFs) it
    /// writes on later feeds, so successive snapshots share everything a
    /// feed did not touch.
    pub(crate) fn clone_same_epoch(&self) -> Network {
        Network {
            timetable: self.timetable.clone(),
            routes: self.routes.clone(),
            graph: self.graph.clone(),
            stations: self.stations.clone(),
            epoch: self.epoch,
        }
    }
}

/// One immutable published state of a [`ConcurrentNetwork`]: the network
/// plus, if configured, the [`DistanceTable`] exact for that state (transfer
/// mask included) once the refresher has filled it. Readers pin a snapshot
/// (`Arc` clone) for the duration of one query; the `(epoch, generation)`
/// pair identifies the state for generation-keyed caches, so answers
/// computed on a pinned snapshot are exactly the answers of that state —
/// never a torn mix.
///
/// Derefs to [`Network`], so a `&NetworkSnapshot` goes anywhere a
/// `&Network` does.
#[derive(Debug)]
pub struct NetworkSnapshot {
    net: Network,
    /// Set once, for exactly this state: at construction for the initial
    /// snapshot, by the refresher for a published one — or never, for a
    /// snapshot superseded before its fill started.
    table: OnceLock<DistanceTable>,
    /// In a sharded service with a gateway: the one-to-all sets from this
    /// shard's border stations, exact for this state, built by the first
    /// stitch that pins it (or by the gateway's build for the initial
    /// snapshot) and dropped with the snapshot's last pin.
    pub(crate) border_sets: OnceLock<Vec<Arc<ProfileSet>>>,
}

impl NetworkSnapshot {
    /// The snapshot of `net`'s current state, with no table yet. A
    /// [`Network::clone_same_epoch`], so it carries the master's
    /// `(epoch, generation)` identity — sound because a snapshot is never
    /// mutated.
    fn of(net: &Network) -> NetworkSnapshot {
        NetworkSnapshot {
            net: net.clone_same_epoch(),
            table: OnceLock::new(),
            border_sets: OnceLock::new(),
        }
    }

    /// The network of this state.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The distance table exact for this state: `None` when no table is
    /// configured, and while the table is still being filled (a snapshot
    /// superseded before its fill started stays `None`). Queries on a
    /// snapshot without a table run the stopping criterion alone, which is
    /// exact; [`ConcurrentNetwork::wait_for_table`] waits for a fill.
    #[inline]
    pub fn table(&self) -> Option<&DistanceTable> {
        self.table.get()
    }
}

impl Deref for NetworkSnapshot {
    type Target = Network;

    fn deref(&self) -> &Network {
        &self.net
    }
}

/// What one [`ConcurrentNetwork::apply_feed`] call did.
/// `published.is_some() == summary.changed()`: a feed publishes a snapshot
/// exactly when it changed the network.
#[derive(Debug, Default)]
pub struct PublishOutcome {
    /// What the master network's [`Network::apply_feed`] did.
    pub summary: FeedSummary,
    /// Wall-clock nanoseconds to build and install the new snapshot: the
    /// clone plus the pointer swap. The clone costs one refcount per array
    /// (each is a [`pt_core::CowChunks`]) and copies nothing; the swap drops
    /// the superseded snapshot if no reader pins it, which releases the
    /// chunks only it held. `0` when the feed was net-nil (nothing was
    /// published).
    pub publish_ns: u64,
    /// The snapshot published by this call, or `None` when the feed was
    /// net-nil and the previous snapshot remained current. Its table, if
    /// one is configured, is filled in the background.
    pub published: Option<Arc<NetworkSnapshot>>,
}

/// A [`Network`] served concurrently under **snapshot isolation**: any
/// number of reader threads pin immutable [`NetworkSnapshot`]s via
/// [`ConcurrentNetwork::snapshot`] while one writer at a time applies
/// feeds. A feed patches the private master copy and publishes the new
/// state with a single atomic pointer swap — readers never observe a
/// half-applied feed: every query's answer is exactly the pre-feed or
/// post-feed state. The master and the snapshots share their indices in
/// chunks ([`pt_core::CowChunks`]): a feed copies the chunks it writes, and
/// a publish costs one refcount per array.
///
/// With a distance table configured, the table is off the publish path: a
/// feed hands the new snapshot to the network's one refresher thread,
/// which recomputes every row for that state, sequentially on its own
/// thread, and fills the snapshot's table. The refresher holds only a
/// `Weak` to the newest unfilled snapshot, so the newest request wins: a
/// snapshot superseded before its fill started is never filled, and drops
/// with its last pin. Until its table is in, a snapshot answers
/// station-to-station queries with the stopping criterion alone — exact,
/// only unpruned.
///
/// Writers are serialized on the master mutex. A pin takes the publish
/// slot's ([`ArcSwap`]) read lock for one `Arc` clone, and a publish takes
/// its write lock for one pointer replace, so neither holds the slot for
/// longer than a refcount update. The slot holds only the current
/// snapshot: a superseded one is dropped with its last reader pin.
#[derive(Debug)]
pub struct ConcurrentNetwork {
    master: Mutex<Network>,
    published: ArcSwap<NetworkSnapshot>,
    publishes: AtomicU64,
    /// Fills each published snapshot's table; `None` without a table.
    refresher: Option<Refresher>,
}

impl ConcurrentNetwork {
    /// Wraps a network with no distance table.
    pub fn new(net: Network) -> ConcurrentNetwork {
        Self::with_optional_table(net, None)
    }

    /// Wraps a network and builds a [`DistanceTable`] for it, which the
    /// initial snapshot carries; every later snapshot's table is filled
    /// by the refresher thread this starts.
    pub fn with_table(net: Network, selection: &TransferSelection) -> ConcurrentNetwork {
        let table = DistanceTable::build(&net, selection);
        Self::with_optional_table(net, Some(table))
    }

    fn with_optional_table(net: Network, table: Option<DistanceTable>) -> ConcurrentNetwork {
        let snapshot = NetworkSnapshot::of(&net);
        let refresher = table.map(|table| {
            let refresher = Refresher::spawn(table.transfer_set());
            let _ = snapshot.table.set(table);
            refresher
        });
        ConcurrentNetwork {
            master: Mutex::new(net),
            published: ArcSwap::new(Arc::new(snapshot)),
            publishes: AtomicU64::new(0),
            refresher,
        }
    }

    /// Pins the current published state. The returned `Arc` keeps that
    /// state alive for as long as the reader holds it, unaffected by any
    /// concurrent [`ConcurrentNetwork::apply_feed`]. The slot's lock is
    /// held for one `Arc` clone; a feed's patch runs outside it.
    pub fn snapshot(&self) -> Arc<NetworkSnapshot> {
        self.published.load_full()
    }

    /// Pins the current published state once its table is in: blocks
    /// until the refresher has filled the current snapshot, re-pinning
    /// whenever a feed supersedes it. Without a table, the current
    /// snapshot at once.
    pub fn wait_for_table(&self) -> Arc<NetworkSnapshot> {
        let Some(refresher) = &self.refresher else { return self.snapshot() };
        let mut request = refresher.slot.lock();
        loop {
            let snapshot = self.snapshot();
            if snapshot.table().is_some() {
                return snapshot;
            }
            request = refresher.slot.wait(request);
        }
    }

    /// How many snapshots have been published (excluding the initial one).
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Applies a feed under snapshot isolation: patches the master copy
    /// ([`Network::apply_feed`]) and publishes the new state atomically.
    /// The patch copies, on its first write to each, the spine and the
    /// chunks it writes of every array it writes. The publish is a clone
    /// of the master, one refcount per array, sharing every chunk, bucket,
    /// route and PLF the feed did not rewrite with the previous snapshot.
    /// With a table configured, the new snapshot is then handed to the
    /// refresher, which fills its table in the background; no row is
    /// recomputed here. Concurrent writers are serialized; concurrent
    /// readers keep their pinned snapshots (and their tables) and see the
    /// new state on their next [`ConcurrentNetwork::snapshot`] call. A
    /// net-nil feed publishes nothing.
    pub fn apply_feed(&self, events: &[DelayEvent]) -> PublishOutcome {
        let mut net = self.master.lock().expect("a feed panicked while holding the master lock");
        let summary = net.apply_feed(events);
        if !summary.changed() {
            return PublishOutcome { summary, ..PublishOutcome::default() };
        }
        let start = std::time::Instant::now();
        let snapshot = Arc::new(NetworkSnapshot::of(&net));
        self.published.store(snapshot.clone());
        let publish_ns = start.elapsed().as_nanos() as u64;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        // Still under the master lock, so requests arrive in publish order.
        if let Some(refresher) = &self.refresher {
            refresher.request(&snapshot);
        }
        PublishOutcome { summary, publish_ns, published: Some(snapshot) }
    }
}

/// The refresher of a tabled [`ConcurrentNetwork`]: one thread, parked on
/// a condvar between requests, that fills published snapshots' tables.
#[derive(Debug)]
struct Refresher {
    slot: Arc<RefreshSlot>,
    thread: Option<JoinHandle<()>>,
}

/// What a writer hands the refresher, behind one mutex.
#[derive(Debug, Default)]
struct Request {
    /// The newest published snapshot not yet taken for a fill.
    newest: Weak<NetworkSnapshot>,
    /// Set when the network is dropped.
    stop: bool,
}

#[derive(Debug, Default)]
struct RefreshSlot {
    request: Mutex<Request>,
    /// Signalled when a request is posted or taken, when a fill is in and
    /// on stop.
    changed: Condvar,
}

impl RefreshSlot {
    fn lock(&self) -> MutexGuard<'_, Request> {
        self.request.lock().expect("nothing panics while holding the request lock")
    }

    fn wait<'a>(&self, request: MutexGuard<'a, Request>) -> MutexGuard<'a, Request> {
        self.changed.wait(request).expect("nothing panics while holding the request lock")
    }

    /// The refresher's loop: takes the newest request, fills that
    /// snapshot's table from `set` outside the lock, repeats until stopped.
    fn run(&self, set: &Arc<TransferSet>) {
        let mut request = self.lock();
        while !request.stop {
            let Some(snapshot) = std::mem::take(&mut request.newest).upgrade() else {
                request = self.wait(request);
                continue;
            };
            drop(request);
            self.changed.notify_all();
            snapshot.table.get_or_init(|| set.table_for(snapshot.network(), fill_engine()));
            drop(snapshot);
            request = self.lock();
            self.changed.notify_all();
        }
    }
}

impl Refresher {
    fn spawn(set: Arc<TransferSet>) -> Refresher {
        let slot = Arc::new(RefreshSlot::default());
        let run = Arc::clone(&slot);
        let thread = std::thread::Builder::new()
            .name("table-refresher".into())
            .spawn(move || run.run(&set))
            .expect("failed to spawn the table refresher");
        Refresher { slot, thread: Some(thread) }
    }

    /// Makes `snapshot` the newest request, replacing one not yet taken.
    fn request(&self, snapshot: &Arc<NetworkSnapshot>) {
        self.slot.lock().newest = Arc::downgrade(snapshot);
        self.slot.changed.notify_all();
    }
}

impl Drop for Refresher {
    /// Stops the thread after the fill in progress, if any, and joins it.
    fn drop(&mut self) {
        self.slot.lock().stop = true;
        self.slot.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // A fill that panicked was reported by the panic hook, and a
            // drop must not panic again.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_timetable::synthetic::city::{generate_city, CityConfig};
    use std::sync::mpsc;
    use std::time::Duration;

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
            .find(|&ev| base.clone().apply_feed(&[ev]).refit_routes > 0)
            .expect("a delay of train 0 that splits its route");
        let engine = ProfileEngine::new();
        let sources = [StationId(0), StationId(7), StationId(19)];
        let before: Vec<_> = sources.iter().map(|&s| engine.one_to_all(&base, s)).collect();

        let cnet = ConcurrentNetwork::new(base);
        let pinned = cnet.snapshot();
        let outcome = cnet.apply_feed(&[event]);
        assert!(outcome.summary.refit_routes > 0);
        assert!(outcome.summary.changed());
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
    fn feeds_in_either_component_refresh_every_row() {
        use pt_core::Time;
        use pt_timetable::{TimetableBuilder, TripStop};
        // Two disconnected components, the table over A's stations. A
        // refresh is whole-row: a feed in either component recomputes every
        // row into the new snapshot's table, while a snapshot pinned before
        // the feed keeps the table of its own generation.
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
        // Trains alternate A, B, A, B, …: train 1 runs in B, train 0 in A.
        for train in [1, 0] {
            let pinned = cnet.snapshot();
            let outcome = cnet.apply_feed(&[delay(train, 30)]);
            assert!(outcome.summary.changed(), "the delay of train {train} must take effect");

            let after = cnet.wait_for_table();
            assert!(Arc::ptr_eq(&after, outcome.published.as_ref().unwrap()));
            let (old, new) = (pinned.table().unwrap(), after.table().unwrap());
            assert!(old.check_fresh(pinned.network()).is_ok(), "pinned table, own generation");
            assert!(old.check_fresh(after.network()).is_err());
            assert!(new.check_fresh(after.network()).is_ok());
            assert_same_rows(new, &DistanceTable::build_for(after.network(), a.clone()));
        }
    }

    #[test]
    fn superseded_snapshot_drops_with_its_last_pin() {
        let cnet = ConcurrentNetwork::with_table(net(), &TransferSelection::Fraction(0.2));
        let pinned = cnet.snapshot();
        let old = Arc::downgrade(&pinned);
        assert!(cnet.apply_feed(&[delay(1, 20)]).summary.changed());
        assert!(old.upgrade().is_some(), "a pinned snapshot stays alive");
        drop(pinned);
        assert!(old.upgrade().is_none(), "the last pin frees the superseded snapshot");
    }

    #[test]
    fn published_table_is_refreshed_to_the_published_state() {
        let cnet = ConcurrentNetwork::with_table(net(), &TransferSelection::Fraction(0.2));
        let outcome = cnet.apply_feed(&[delay(1, 20)]);
        assert!(outcome.summary.changed());
        let snap = cnet.wait_for_table();
        assert!(Arc::ptr_eq(&snap, outcome.published.as_ref().unwrap()));
        let table = snap.table().expect("table configured");
        assert!(table.check_fresh(snap.network()).is_ok());
        assert_same_rows(
            table,
            &DistanceTable::build_for(snap.network(), table.stations().to_vec()),
        );
        let marked: Vec<bool> =
            snap.station_ids().map(|s| table.stations().binary_search(&s).is_ok()).collect();
        assert_eq!(table.transfer_mask(), &marked[..]);
    }

    #[test]
    fn unfilled_snapshot_answers_plain_and_exactly() {
        use crate::{QueryKind, S2sEngine};
        let cnet = ConcurrentNetwork::with_table(net(), &TransferSelection::Fraction(0.2));
        let pairs: Vec<_> = (0..6).map(|k| (StationId(k), StationId(29 - 3 * k))).collect();
        let engine = S2sEngine::new();
        let query = |snap: &NetworkSnapshot, (s, t)| {
            engine.try_query_on(snap.network(), snap.table(), s, t).expect("never stale")
        };
        let (snap, plain) = with_refresher_busy(&cnet, || {
            let snap = cnet.apply_feed(&[delay(1, 20)]).published.unwrap();
            assert!(snap.table().is_none(), "the refresher cannot have filled it yet");
            let plain: Vec<_> = pairs.iter().map(|&pair| query(&snap, pair)).collect();
            (snap, plain)
        });
        assert!(Arc::ptr_eq(&cnet.wait_for_table(), &snap));
        for (&pair, plain) in pairs.iter().zip(plain) {
            let tabled = query(&snap, pair);
            assert_eq!(plain.kind, QueryKind::Plain, "{pair:?}");
            assert_ne!(tabled.kind, QueryKind::Plain, "{pair:?} once the table is in");
            assert_eq!(plain.profile, tabled.profile, "{pair:?}");
        }
    }

    #[test]
    fn superseded_snapshot_is_never_filled_and_drops_with_its_last_pin() {
        let cnet = ConcurrentNetwork::with_table(net(), &TransferSelection::Fraction(0.2));
        let (skipped, newest) = with_refresher_busy(&cnet, || {
            let skipped = cnet.apply_feed(&[delay(1, 20)]).published.unwrap();
            (skipped, cnet.apply_feed(&[delay(2, 20)]).published.unwrap())
        });
        assert!(Arc::ptr_eq(&cnet.wait_for_table(), &newest));
        assert!(skipped.table().is_none(), "only the newest request is filled");
        let weak = Arc::downgrade(&skipped);
        drop(skipped);
        assert!(weak.upgrade().is_none(), "the refresher holds no pin of it");
    }

    #[test]
    fn dropping_a_tabled_network_right_after_a_feed_stops_its_refresher() {
        let cnet = ConcurrentNetwork::with_table(net(), &TransferSelection::Fraction(0.2));
        let slot = Arc::downgrade(&cnet.refresher.as_ref().unwrap().slot);
        let published = cnet.apply_feed(&[delay(1, 20)]).published.unwrap();
        let (done, dropped) = mpsc::channel();
        std::thread::spawn(move || {
            drop(cnet);
            done.send(()).unwrap();
        });
        dropped.recv_timeout(Duration::from_secs(60)).expect("the drop hung on its refresher");
        assert!(slot.upgrade().is_none(), "the refresher thread exited");
        assert!(published.table().is_none_or(|t| t.check_fresh(&published).is_ok()));
    }

    /// `a` and `b` hold the same stations and the same profile per pair.
    fn assert_same_rows(a: &DistanceTable, b: &DistanceTable) {
        assert_eq!(a.stations(), b.stations());
        for &s in a.stations() {
            for &t in a.stations() {
                assert_eq!(a.profile(s, t), b.profile(s, t), "D({s}, {t})");
            }
        }
    }

    /// Runs `body` while the refresher is stuck on a request of the test's
    /// own: a snapshot whose table a helper thread holds the initialisation
    /// of until `body` returns (or unwinds, dropping `release`). Requests
    /// posted meanwhile wait, and only the newest of them is taken
    /// afterwards.
    fn with_refresher_busy<R>(cnet: &ConcurrentNetwork, body: impl FnOnce() -> R) -> R {
        let refresher = cnet.refresher.as_ref().expect("a tabled network");
        let blocker = Arc::new(NetworkSnapshot::of(&cnet.snapshot()));
        std::thread::scope(|s| {
            let (entered, inside) = mpsc::channel();
            let (release, released) = mpsc::channel::<()>();
            let blocker = &blocker;
            s.spawn(move || {
                blocker.table.get_or_init(|| {
                    entered.send(()).unwrap();
                    let _ = released.recv();
                    DistanceTable::build_for(blocker.network(), Vec::new())
                })
            });
            inside.recv().unwrap();
            refresher.request(blocker);
            let mut request = refresher.slot.lock();
            while request.newest.strong_count() > 0 {
                request = refresher.slot.wait(request);
            }
            drop(request);
            let out = body();
            release.send(()).unwrap();
            out
        })
    }
}
