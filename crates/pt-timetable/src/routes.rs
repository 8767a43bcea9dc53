//! Partition of trains into *routes* (paper, §2).
//!
//! Two trains are equivalent if they run through the same sequence of
//! stations; the trains of one stop sequence form a *class*. The realistic
//! time-dependent model creates one route node per (route, station) pair,
//! and its route edges carry the travel-time PLFs of all trains on the
//! route — which is only sound if no train *overtakes* another on any leg
//! (otherwise the edge function would silently drop the overtaken train)
//! **and** no two trains of the route are ever catchably co-dwelling at an
//! intermediate station: a rider chained along the route nodes arrives at
//! station `i` at `arr_i(B)` and the hop PLF hands them the first departure
//! at or after that instant — if an *earlier* train `A` of the route is
//! still in the station (`dep_i(A) >= arr_i(B)`), the model would board `A`
//! without paying the station's transfer time, fabricating a connection
//! faster than the timetable allows. We therefore split each class
//! further, greedily, so that within one route all legs are FIFO —
//! departures strictly increasing and arrivals strictly increasing on every
//! hop — and no train of the route departs an intermediate station while
//! another one dwells there: the windows `[arr_i(k), dep_i(k))` are
//! pairwise disjoint **on the period circle** (departures are period-local
//! while arrivals are absolute, so a linear comparison goes blind exactly
//! when a train crosses the end of the period between two hops). Schedules
//! rarely violate the dwell condition, but a `from_hop >= 1` delay
//! stretches exactly one dwell, a delay over the end of the period moves
//! one, and a catch-up larger than the dwell (the train "leaves before it
//! arrived") turns one into almost the whole period — each can manufacture
//! it.
//!
//! One greedy split serves both the static partition and every feed: a
//! feed re-splits the whole class of each touched route, so the partition
//! a feed leaves behind has exactly the train sets [`Routes::partition`]
//! of the patched timetable has — only the ids differ.

use std::collections::BTreeMap;
use std::sync::Arc;

use pt_core::{RouteId, StationId, Time, TrainId};

use crate::delay::FeedPatch;
use crate::model::Timetable;

/// One route: a maximal overtaking-free set of trains sharing a stop
/// sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteInfo {
    /// The stop sequence (length ≥ 2).
    pub stations: Vec<StationId>,
    /// Trains on this route, ordered by departure at the first stop. Empty
    /// for a route a feed's re-split no longer needed.
    pub trains: Vec<TrainId>,
}

impl RouteInfo {
    /// Number of hops (edges) of the route.
    #[inline]
    pub fn num_hops(&self) -> usize {
        self.stations.len() - 1
    }
}

/// The route partition of a timetable.
///
/// Every route is individually `Arc`-shared so a clone is O(routes)
/// refcount bumps and a re-split ([`Routes::repatch_feed`],
/// [`Routes::refit`]) copies-on-write only the routes whose trains it
/// changes — the rest stays physically shared with any snapshot cloned
/// earlier. Which connection is hop `h` of train `t` is the timetable's
/// business ([`Timetable::train_connections`]); every method that needs it
/// takes `tt`.
#[derive(Debug, Clone)]
pub struct Routes {
    routes: Vec<Arc<RouteInfo>>,
    /// Class (stop sequence) of each route, indexed by [`RouteId`]: a
    /// class's routes are the ids with its number, in id order.
    class: Vec<u32>,
    /// Route of each train, indexed by [`TrainId`].
    train_route: Arc<Vec<RouteId>>,
}

impl Routes {
    /// Computes the route partition: fits every class, starting from no
    /// routes. Deterministic: routes are numbered by stop sequence, then by
    /// departure of their first train.
    pub fn partition(tt: &Timetable) -> Routes {
        // Group trains by stop sequence (BTreeMap for determinism).
        let mut groups: BTreeMap<Vec<StationId>, Vec<TrainId>> = BTreeMap::new();
        for t in (0..tt.num_trains()).map(TrainId::from_idx) {
            let conns = tt.train_connections(t);
            let Some(&first) = conns.first() else { continue };
            debug_assert!(
                conns.windows(2).all(|w| tt.connection(w[0]).to == tt.connection(w[1]).from),
                "train journey is not contiguous"
            );
            let mut seq = Vec::with_capacity(conns.len() + 1);
            seq.push(tt.connection(first).from);
            seq.extend(conns.iter().map(|&c| tt.connection(c).to));
            groups.entry(seq).or_default().push(t);
        }

        let mut routes = Routes {
            routes: Vec::new(),
            class: Vec::new(),
            train_route: Arc::new(vec![RouteId(u32::MAX); tt.num_trains()]),
        };
        for (c, (stations, trains)) in groups.into_iter().enumerate() {
            routes.fit_class(tt, c as u32, &stations, Vec::new(), trains);
        }
        routes
    }

    /// Iterates over all routes in [`RouteId`] order.
    #[inline]
    pub fn iter_routes(&self) -> impl Iterator<Item = &RouteInfo> {
        self.routes.iter().map(|r| &**r)
    }

    /// A single route.
    #[inline]
    pub fn route(&self, r: RouteId) -> &RouteInfo {
        &self.routes[r.idx()]
    }

    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` iff the timetable has no trains.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route a train belongs to.
    #[inline]
    pub fn route_of(&self, t: TrainId) -> RouteId {
        self.train_route[t.idx()]
    }

    /// How many routes of `self` are *physically shared* (same allocation,
    /// by refcount) with `other`. Diagnostics for the copy-on-write publish
    /// path, the route-level analogue of
    /// [`Timetable::shared_buckets_with`].
    pub fn shared_routes_with(&self, other: &Routes) -> usize {
        self.routes.iter().zip(&other.routes).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Follows a [`Timetable::patch_feed`]: [`Routes::refit`]s every route
    /// that carries a net-changed train and returns what it returns, so the
    /// caller rewrites each route exactly once however many feed events hit
    /// it. `tt` must be the already-patched timetable the patch came from.
    pub fn repatch_feed(&mut self, tt: &Timetable, patch: &FeedPatch) -> Vec<RouteId> {
        let touched: Vec<RouteId> = patch.trains.iter().map(|&t| self.route_of(t)).collect();
        self.refit(tt, &touched)
    }

    /// Re-splits the classes of `routes` with the greedy split of
    /// [`Routes::partition`], over each class's current trains: a class's
    /// existing ids take its new subroutes in order, ids it no longer needs
    /// stay as routes with zero trains, and missing ids are appended — the
    /// append-only contract `TdGraph::repatch_routes` relies on. Every
    /// other class keeps its ids and trains. Returns, sorted and
    /// deduplicated, every route whose PLFs must be rewritten: `routes`
    /// plus each existing route whose trains changed (the appended ones
    /// the graph appends whole).
    pub fn refit(&mut self, tt: &Timetable, routes: &[RouteId]) -> Vec<RouteId> {
        let mut classes: Vec<u32> = routes.iter().map(|r| self.class[r.idx()]).collect();
        classes.sort_unstable();
        classes.dedup();
        // One pass gathers each class's ids, in id order.
        let mut ids = vec![Vec::new(); classes.len()];
        for (r, c) in self.class.iter().enumerate() {
            if let Ok(k) = classes.binary_search(c) {
                ids[k].push(RouteId::from_idx(r));
            }
        }
        let mut rewrite = routes.to_vec();
        for (c, ids) in classes.into_iter().zip(ids) {
            let stations = self.routes[ids[0].idx()].stations.clone();
            let trains =
                ids.iter().flat_map(|r| self.routes[r.idx()].trains.iter().copied()).collect();
            rewrite.extend(self.fit_class(tt, c, &stations, ids, trains));
        }
        rewrite.sort_unstable();
        rewrite.dedup();
        rewrite
    }

    /// The one greedy split: orders the `trains` of class `c` (stop
    /// sequence `stations`) by [`first_departure`], splits them with
    /// [`split_fifo`] and lays the subroutes on the class's `ids` in order,
    /// appending the ids missing and emptying the ids left over. Returns
    /// the given ids whose trains changed.
    fn fit_class(
        &mut self,
        tt: &Timetable,
        c: u32,
        stations: &[StationId],
        mut ids: Vec<RouteId>,
        mut trains: Vec<TrainId>,
    ) -> Vec<RouteId> {
        trains.sort_unstable_by_key(|&t| first_departure(tt, t));
        let subroutes = split_fifo(tt, &trains);
        let held = ids.len();
        for _ in held..subroutes.len() {
            ids.push(RouteId::from_idx(self.routes.len()));
            self.routes.push(Arc::new(RouteInfo { stations: stations.to_vec(), trains: vec![] }));
            self.class.push(c);
        }
        let mut subroutes = subroutes.into_iter();
        let mut changed = Vec::new();
        for (k, r) in ids.into_iter().enumerate() {
            let members = subroutes.next().unwrap_or_default();
            if self.routes[r.idx()].trains == members {
                continue; // stays shared with older clones
            }
            for &t in &members {
                if self.train_route[t.idx()] != r {
                    Arc::make_mut(&mut self.train_route)[t.idx()] = r;
                }
            }
            Arc::make_mut(&mut self.routes[r.idx()]).trains = members;
            if k < held {
                changed.push(r);
            }
        }
        changed
    }

    /// `true` iff route `r` still satisfies everything the realistic
    /// time-dependent model requires of a route (see the module docs): in
    /// train order, per hop, departures strictly increasing and arrivals
    /// strictly increasing; no arrival a full period (or more) after the
    /// hop's earliest (the cyclic condition of [`pt_core::Profile::is_reduced`]);
    /// and at every intermediate station no train departs while another
    /// one dwells there, on the period circle.
    /// [`Routes::partition`] and [`Routes::refit`] guarantee all of this by
    /// construction; a delay can break any of it until its feed's
    /// [`Routes::repatch_feed`] re-splits the route's class.
    pub fn route_is_fifo(&self, tt: &Timetable, r: RouteId) -> bool {
        let info = &self.routes[r.idx()];
        let pi = tt.period().len() as u64;
        let mut legs: Vec<(Time, Time)> = Vec::with_capacity(info.trains.len());
        let mut prev_legs: Vec<(Time, Time)> = Vec::new();
        for hop in 0..info.num_hops() {
            legs.clear();
            legs.extend(info.trains.iter().map(|&t| {
                let c = tt.connection(tt.train_connections(t)[hop]);
                (c.dep, c.arr)
            }));
            // Checked in *train order*, not sorted: sorting per hop would
            // hide trains swapping places between hops.
            if !legs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1) {
                return false;
            }
            if let (Some(f), Some(l)) = (legs.first(), legs.last()) {
                if l.1.secs() as u64 >= f.1.secs() as u64 + pi {
                    return false;
                }
            }
            if hop > 0 {
                // At the station between hop-1 and hop: train k must not
                // leave while train k+1 dwells, nor the last train while
                // the first one does (neighbours on the circle suffice —
                // departures increase).
                let n = legs.len();
                if (0..n).any(|k| {
                    let next = if k + 1 == n { 0 } else { k + 1 };
                    departs_during_dwell(legs[k].0, prev_legs[next].1, legs[next].0, pi)
                }) {
                    return false;
                }
            }
            std::mem::swap(&mut prev_legs, &mut legs);
        }
        true
    }
}

/// The order of a route's trains: departure at the first stop, then id.
fn first_departure(tt: &Timetable, t: TrainId) -> (Time, TrainId) {
    (tt.connection(tt.train_connections(t)[0]).dep, t)
}

/// Greedy first-fit split of `trains` — one stop sequence, ordered by
/// [`first_departure`] — into overtaking- and co-dwell-free subroutes, each
/// keeping that order.
fn split_fifo(tt: &Timetable, trains: &[TrainId]) -> Vec<Vec<TrainId>> {
    // Per subroute: its trains, and the per-hop (dep, arr) legs of its
    // first and of its last train — all that `fits` reads.
    type Subroute = (Vec<TrainId>, Vec<(Time, Time)>, Vec<(Time, Time)>);
    let mut subroutes: Vec<Subroute> = Vec::new();
    let mut legs = Vec::new();
    for &t in trains {
        legs.clear();
        legs.extend(
            tt.train_connections(t).iter().map(|&c| tt.connection(c)).map(|c| (c.dep, c.arr)),
        );
        match subroutes
            .iter_mut()
            .find(|(_, first, last)| fits(first, last, &legs, tt.period().len()))
        {
            Some((members, _, last)) => {
                members.push(t); // `fits` admits only appends
                std::mem::swap(last, &mut legs);
            }
            None => subroutes.push((vec![t], legs.clone(), legs.clone())),
        }
    }
    subroutes.into_iter().map(|(members, _, _)| members).collect()
}

/// Can `legs` join the subroute whose first and last trains run `first`
/// and `last` as its new *last* train? Candidates are scanned in order of
/// first-hop departure, so a train that joins always appends, on every
/// hop. Enforces, per hop, everything [`Routes::route_is_fifo`] later
/// checks: the newcomer departs and arrives strictly after the current
/// last train; its arrival stays within one period of the hop's earliest;
/// and at the station the hop departs from (intermediate stations only)
/// the current last train does not leave while the newcomer dwells, nor
/// the newcomer while the first train does — its neighbours on the period
/// circle, which suffices because the members' dwell windows are already
/// disjoint and departures increase.
fn fits(first: &[(Time, Time)], last: &[(Time, Time)], legs: &[(Time, Time)], pi: u32) -> bool {
    let pi = pi as u64;
    legs.iter().enumerate().all(|(h, &(dep, arr))| {
        if dep <= last[h].0 || arr <= last[h].1 {
            return false; // would not extend the hop's strict FIFO order
        }
        if arr.secs() as u64 >= first[h].1.secs() as u64 + pi {
            return false; // cyclic: arrival a full period after the earliest
        }
        if h > 0 {
            // No catchable co-dwell at the station this hop departs from.
            if departs_during_dwell(last[h].0, legs[h - 1].1, dep, pi) {
                return false; // current last train leaves while we are there
            }
            if departs_during_dwell(dep, first[h - 1].1, first[h].0, pi) {
                return false; // we leave while the first train is there
            }
        }
        true
    })
}

/// Does a train leaving at the period-local time `other_dep` do so while
/// the train that arrived at (absolute) `arr` and leaves at (period-local)
/// `dep` dwells — is `other_dep` inside `[arr, dep)` on the period circle?
/// A rider chained along the route nodes would then board the other train
/// without paying the transfer time. The window is empty for a zero dwell
/// and spans almost the whole period for a train whose recovered delay has
/// it leave before it arrived.
fn departs_during_dwell(other_dep: Time, arr: Time, dep: Time, pi: u64) -> bool {
    let arr = arr.secs() as u64 % pi;
    let since_arrival = |t: Time| {
        let t = t.secs() as u64;
        if t >= arr {
            t - arr
        } else {
            t + pi - arr
        }
    };
    since_arrival(other_dep) < since_arrival(dep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TimetableBuilder;
    use pt_core::{Dur, Period};

    fn line(b: &mut TimetableBuilder, path: &[StationId], starts: &[Time], leg: Dur) {
        let legs = vec![leg; path.len() - 1];
        for &s in starts {
            b.add_simple_trip(path, s, &legs, Dur::ZERO).unwrap();
        }
    }

    #[test]
    fn same_sequence_same_route() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes.route(RouteId(0)).trains.len(), 2);
        assert_eq!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
    }

    #[test]
    fn different_sequences_different_routes() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0)], Dur::minutes(10));
        line(&mut b, &[s[2], s[1], s[0]], &[Time::hm(8, 0)], Dur::minutes(10));
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
    }

    #[test]
    fn overtaking_train_is_split_off() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Slow train departs 08:00, takes 60 min. Express departs 08:10,
        // takes 10 min — it overtakes, so it must land on its own route.
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(60)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 10), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
    }

    #[test]
    fn non_overtaking_trains_share_route() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 10), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        assert_eq!(Routes::partition(&tt).len(), 1);
    }

    #[test]
    fn train_connections_ordered_by_hop() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2], s[3]], &[Time::hm(6, 0)], Dur::minutes(5));
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        let conns = tt.train_connections(TrainId(0));
        assert_eq!(conns.len(), 3);
        for (h, &c) in conns.iter().enumerate() {
            assert_eq!(tt.connection(c).seq as usize, h);
            assert_eq!(tt.connection(c).from, s[h]);
        }
        assert_eq!(routes.route(routes.route_of(TrainId(0))).stations, s);
    }

    #[test]
    fn repatch_follows_delay_remaps_and_reorders() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        // Delay the 08:00 train to 09:10: it now departs after the 09:00
        // train on every hop (no overtake — it also arrives later).
        let patch = tt.patch_feed(&[late(0, 70)]);
        assert!(patch.changed && !patch.remapped.is_empty());
        routes.repatch_feed(&tt, &patch);
        // train_connections point at the right (train, hop) again.
        for t in [TrainId(0), TrainId(1)] {
            for (h, &c) in tt.train_connections(t).iter().enumerate() {
                assert_eq!(tt.connection(c).train, t);
                assert_eq!(tt.connection(c).seq as usize, h);
            }
        }
        // The route's trains are re-sorted by first-stop departure…
        let r = routes.route_of(TrainId(0));
        assert_eq!(routes.route(r).trains, vec![TrainId(1), TrainId(0)]);
        // …and the route is still FIFO, identical to a fresh partition.
        assert!(routes.route_is_fifo(&tt, r));
        assert_eq!(Routes::partition(&tt).len(), routes.len());
    }

    /// Two classes: trains 0/1 on 0→1 (08:00, 08:30) and trains 2/3 on
    /// 1→2 (09:00, 09:30). The patch lands train 0 on train 1's slot.
    fn two_classes_with_a_collision() -> (Timetable, Routes, FeedPatch) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1]], &[Time::hm(8, 0), Time::hm(8, 30)], Dur::minutes(10));
        line(&mut b, &[s[1], s[2]], &[Time::hm(9, 0), Time::hm(9, 30)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        assert!(routes.route_is_fifo(&tt, RouteId(0)) && routes.route_is_fifo(&tt, RouteId(1)));
        let patch = tt.patch_feed(&[late(0, 30)]);
        (tt, routes, patch)
    }

    #[test]
    fn route_is_fifo_detects_overtaking_delay() {
        let (tt, mut routes, patch) = two_classes_with_a_collision();
        // Equal departures break FIFO on the stale route…
        assert!(!routes.route_is_fifo(&tt, RouteId(0)), "equal departures must break FIFO");
        // …until the feed's re-split separates the two trains.
        routes.repatch_feed(&tt, &patch);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
        assert!((0..routes.len()).all(|r| routes.route_is_fifo(&tt, RouteId::from_idx(r))));
        // The bystander class kept its id and trains.
        assert_eq!(routes.route_of(TrainId(2)), RouteId(1));
        assert_eq!(routes.route(RouteId(1)).trains, [TrainId(2), TrainId(3)]);
    }

    /// The non-empty train sets of a partition: what a feed's re-split must
    /// agree on with a fresh [`Routes::partition`] (ids may differ).
    fn train_sets(routes: &Routes) -> std::collections::BTreeSet<Vec<TrainId>> {
        routes.iter_routes().filter(|r| !r.trains.is_empty()).map(|r| r.trains.clone()).collect()
    }

    /// Train `train` runs `minutes` late from its first hop on.
    fn late(train: u32, minutes: u32) -> crate::delay::DelayEvent {
        let (delay, recovery) = (Dur::minutes(minutes), crate::delay::Recovery::None);
        crate::delay::DelayEvent::Delay { train: TrainId(train), from_hop: 0, delay, recovery }
    }

    #[test]
    fn repatch_feed_touches_each_route_once() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Route A: two trains 0/1 over 0→1→2; route B: one train 2 over 3→1.
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        line(&mut b, &[s[3], s[1]], &[Time::hm(8, 30)], Dur::minutes(5));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        // Three events, two of them on route A's trains: the touched list
        // must still name each route exactly once.
        let patch = tt.patch_feed(&[late(0, 70), late(1, 5), late(2, 3)]);
        assert!(patch.changed);
        let touched = routes.repatch_feed(&tt, &patch);
        assert_eq!(touched.len(), 2, "two distinct routes touched: {touched:?}");
        let mut expect = vec![routes.route_of(TrainId(0)), routes.route_of(TrainId(2))];
        expect.sort_unstable();
        assert_eq!(touched, expect);
        // Per-train lists point at the right (train, hop) again, and every
        // touched route's trains are re-sorted by first-stop departure.
        for t in [TrainId(0), TrainId(1), TrainId(2)] {
            for (h, &c) in tt.train_connections(t).iter().enumerate() {
                assert_eq!(tt.connection(c).train, t);
                assert_eq!(tt.connection(c).seq as usize, h);
            }
        }
        assert_eq!(
            routes.route(routes.route_of(TrainId(0))).trains,
            vec![TrainId(1), TrainId(0)],
            "delayed train now departs last"
        );
        for &r in &touched {
            assert!(routes.route_is_fifo(&tt, r));
        }
    }

    #[test]
    fn refit_splits_only_the_offending_route() {
        let (mut tt, mut routes, patch) = two_classes_with_a_collision();
        let (ra, rb) = (RouteId(0), RouteId(1));
        assert_eq!(routes.repatch_feed(&tt, &patch), [ra], "the appended subroute is not listed");
        // The offending route split in two; route B kept its id and trains.
        assert_eq!(routes.len(), 3);
        assert_eq!(routes.route(ra).trains, [TrainId(0)]);
        assert_eq!(routes.route(RouteId(2)).trains, [TrainId(1)]);
        assert_eq!(routes.route(rb).trains, [TrainId(2), TrainId(3)]);
        assert_eq!(train_sets(&routes), train_sets(&Routes::partition(&tt)));
        // Re-splitting a converged class changes no train.
        assert_eq!(routes.refit(&tt, &[rb, ra, rb]), [ra, rb]);
        assert_eq!(routes.len(), 3);

        // Withdrawing the delay re-merges the class: the existing id takes
        // both trains and the appended one stays, empty.
        let patch = tt.patch_feed(&[crate::delay::DelayEvent::Cancel { train: TrainId(0) }]);
        assert_eq!(routes.repatch_feed(&tt, &patch), [ra, RouteId(2)]);
        assert_eq!(routes.route(ra).trains, [TrainId(0), TrainId(1)]);
        assert!(routes.route(RouteId(2)).trains.is_empty());
        assert_eq!(routes.route_of(TrainId(1)), ra);
        assert_eq!(train_sets(&routes), train_sets(&Routes::partition(&tt)));
    }

    #[test]
    fn newcomer_leaving_while_the_first_train_dwells_is_split_off() {
        use crate::builder::TripStop;
        // Train 0 dwells at station 1 from 23:50 to 00:20; train 1 arrives
        // after it and leaves at 23:55, inside that dwell. Period-local,
        // 23:55 is after 00:20: only the check on the circle sees it.
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        let at = |(h, m)| Time::hm(h, m);
        for (dep, dwell, arr) in
            [((23, 40), ((23, 50), (24, 20)), (24, 30)), ((23, 42), ((23, 52), (23, 55)), (24, 5))]
        {
            let mid = TripStop { station: s[1], arr: at(dwell.0), dep: at(dwell.1) };
            b.add_trip(&[TripStop::passing(s[0], at(dep)), mid, TripStop::passing(s[2], at(arr))])
                .unwrap();
        }
        assert_eq!(Routes::partition(&b.build().unwrap()).len(), 2);
    }

    #[test]
    fn equal_departure_on_a_hop_splits() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(12)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        assert_eq!(Routes::partition(&tt).len(), 2);
    }
}
