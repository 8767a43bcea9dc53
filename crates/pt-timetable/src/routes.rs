//! Partition of trains into *routes* (paper, §2).
//!
//! Two trains are equivalent if they run through the same sequence of
//! stations. The realistic time-dependent model creates one route node per
//! (route, station) pair, and its route edges carry the travel-time PLFs of
//! all trains on the route — which is only sound if no train *overtakes*
//! another on any leg (otherwise the edge function would silently drop the
//! overtaken train) **and** no two trains of the route are ever catchably
//! co-dwelling at an intermediate station: a rider chained along the route
//! nodes arrives at station `i` at `arr_i(B)` and the hop PLF hands them
//! the first departure at or after that instant — if an *earlier* train `A`
//! of the route is still in the station (`dep_i(A) >= arr_i(B)`), the model
//! would board `A` without paying the station's transfer time, fabricating
//! a connection faster than the timetable allows. We therefore split each
//! stop-sequence equivalence class further, greedily, so that within one
//! route all legs are FIFO — departures strictly increasing and arrivals
//! strictly increasing on every hop — and no train of the route departs an
//! intermediate station while another one dwells there: the windows
//! `[arr_i(k), dep_i(k))` are pairwise disjoint **on the period circle**
//! (departures are period-local while arrivals are absolute, so a linear
//! comparison goes blind exactly when a train crosses the end of the
//! period between two hops). Schedules rarely violate the dwell condition,
//! but a `from_hop >= 1` delay stretches exactly one dwell, a delay over
//! the end of the period moves one, and a catch-up larger than the dwell
//! (the train "leaves before it arrived") turns one into almost the whole
//! period — each can manufacture it.

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
    /// Trains on this route, ordered by departure at the first stop.
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
/// refcount bumps and the incremental followers ([`Routes::repatch_feed`],
/// [`Routes::refit`]) copy-on-write only the routes they actually rewrite —
/// the rest stays physically shared with any snapshot cloned earlier. Which
/// connection is hop `h` of train `t` is the timetable's business
/// ([`Timetable::train_connections`]); every method that needs it takes `tt`.
#[derive(Debug, Clone)]
pub struct Routes {
    routes: Vec<Arc<RouteInfo>>,
    /// Route of each train, indexed by [`TrainId`]. Rewritten only by
    /// [`Routes::refit`] (topology change), never by a plain repatch.
    train_route: Arc<Vec<RouteId>>,
}

impl Routes {
    /// Computes the route partition. Deterministic: routes are numbered by
    /// stop sequence, then by departure of their first train.
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

        let mut routes = Vec::new();
        let mut train_route = vec![RouteId(u32::MAX); tt.num_trains()];
        for (stations, mut trains) in groups {
            trains.sort_unstable_by_key(|&t| first_departure(tt, t));
            for members in split_fifo(tt, &trains) {
                let id = RouteId::from_idx(routes.len());
                for &t in &members {
                    train_route[t.idx()] = id;
                }
                routes.push(Arc::new(RouteInfo { stations: stations.clone(), trains: members }));
            }
        }
        Routes { routes, train_route: Arc::new(train_route) }
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

    /// Follows a [`Timetable::patch_feed`]: restores the "trains ordered by
    /// first-stop departure" invariant on **each** route that carries a
    /// net-changed train, returning those routes sorted and deduplicated —
    /// each appears exactly once, so the caller rewrites (or refits) every
    /// touched route exactly once regardless of how many feed events hit
    /// it. The partition itself (which trains share a route) is
    /// deliberately **not** recomputed; run [`Routes::route_is_fifo`] on the
    /// returned routes and [`Routes::refit`] the ones that fail.
    ///
    /// `tt` must be the already-patched timetable the patch came from.
    pub fn repatch_feed(&mut self, tt: &Timetable, patch: &FeedPatch) -> Vec<RouteId> {
        let mut touched: Vec<RouteId> = patch
            .trains
            .iter()
            .map(|&t| self.train_route[t.idx()])
            .filter(|&r| r != RouteId(u32::MAX))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for &r in &touched {
            Arc::make_mut(&mut self.routes[r.idx()])
                .trains
                .sort_unstable_by_key(|&t| first_departure(tt, t));
        }
        touched
    }

    /// Re-splits each of the given (presumed non-FIFO) routes into
    /// overtaking-free subroutes — the *scoped* fallback when a delay makes
    /// a train overtake a companion: only the offending routes are
    /// repartitioned, every other route keeps its id and trains. The first
    /// subroute reuses the stale [`RouteId`]; extra subroutes are appended
    /// at fresh ids — the append-only contract `TdGraph::repatch_routes`
    /// relies on to append their route nodes instead of rebuilding — so the
    /// work is proportional to the offending routes, not the timetable.
    ///
    /// Any finer-than-maximal split is a *sound* partition for the
    /// realistic time-dependent model, so queries on the refit partition
    /// are identical to a from-scratch [`Routes::partition`]. Each
    /// resulting route passes [`Routes::route_is_fifo`] by construction —
    /// refit and partition share the one greedy split, whose fit check
    /// covers the per-hop FIFO, cyclic, and co-dwell conditions.
    pub fn refit(&mut self, tt: &Timetable, stale: &[RouteId]) {
        for &r in stale {
            let info = &self.routes[r.idx()];
            if info.trains.len() <= 1 {
                continue; // a single train can never overtake itself
            }
            let stations = info.stations.clone();
            let mut subroutes = split_fifo(tt, &info.trains).into_iter();
            Arc::make_mut(&mut self.routes[r.idx()]).trains =
                subroutes.next().expect("a non-empty route splits non-trivially");
            for members in subroutes {
                let id = RouteId::from_idx(self.routes.len());
                for &t in &members {
                    Arc::make_mut(&mut self.train_route)[t.idx()] = id;
                }
                self.routes
                    .push(Arc::new(RouteInfo { stations: stations.clone(), trains: members }));
            }
            debug_assert!(self.route_is_fifo(tt, r), "refit left route {r:?} non-FIFO");
        }
    }

    /// `true` iff route `r` still satisfies everything the realistic
    /// time-dependent model requires of a route (see the module docs): in
    /// train order, per hop, departures strictly increasing and arrivals
    /// strictly increasing; no arrival a full period (or more) after the
    /// hop's earliest (the cyclic condition of [`pt_core::Plf::is_fifo`]);
    /// and at every intermediate station no train departs while another
    /// one dwells there, on the period circle.
    /// [`Routes::partition`] and [`Routes::refit`] guarantee all of this by
    /// construction; a delay can break any of it, at which point the
    /// offending routes must be refit.
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
    let pi = tt.period().len();
    // Per subroute: its trains, and per hop the (dep, arr) legs of each.
    type Subroute = (Vec<TrainId>, Vec<Vec<(Time, Time)>>);
    let mut subroutes: Vec<Subroute> = Vec::new();
    'train: for &t in trains {
        let legs: Vec<(Time, Time)> = tt
            .train_connections(t)
            .iter()
            .map(|&c| {
                let c = tt.connection(c);
                (c.dep, c.arr)
            })
            .collect();
        for (members, hop_points) in &mut subroutes {
            if fits(hop_points, &legs, pi) {
                for (h, &leg) in legs.iter().enumerate() {
                    hop_points[h].push(leg); // `fits` admits only appends
                }
                members.push(t);
                continue 'train;
            }
        }
        subroutes.push((vec![t], legs.iter().map(|&leg| vec![leg]).collect()));
    }
    subroutes.into_iter().map(|(members, _)| members).collect()
}

/// Can `legs` join the subroute as its new *last* train? Candidates are
/// scanned in order of first-hop departure, so a train that joins always
/// appends, on every hop. Enforces, per hop, everything
/// [`Routes::route_is_fifo`] later checks: the newcomer departs and arrives
/// strictly after the current last train; its arrival stays within one
/// period of the hop's earliest; and at the station the hop departs from
/// (intermediate stations only) the current last train does not leave
/// while the newcomer dwells, nor the newcomer while the first train does
/// — its neighbours on the period circle, which suffices because the
/// members' dwell windows are already disjoint and departures increase.
fn fits(hop_points: &[Vec<(Time, Time)>], legs: &[(Time, Time)], pi: u32) -> bool {
    let pi = pi as u64;
    legs.iter().enumerate().all(|(h, &(dep, arr))| {
        let points = &hop_points[h];
        let (Some(&first), Some(&last)) = (points.first(), points.last()) else {
            return true;
        };
        if dep <= last.0 || arr <= last.1 {
            return false; // would not extend the hop's strict FIFO order
        }
        if arr.secs() as u64 >= first.1.secs() as u64 + pi {
            return false; // cyclic: arrival a full period after the earliest
        }
        if h > 0 {
            // No catchable co-dwell at the station this hop departs from.
            if departs_during_dwell(last.0, legs[h - 1].1, dep, pi) {
                return false; // current last train leaves while we are there
            }
            if departs_during_dwell(dep, hop_points[h - 1][0].1, first.0, pi) {
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
        use crate::delay::Recovery;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        // Delay the 08:00 train to 09:10: it now departs after the 09:00
        // train on every hop (no overtake — it also arrives later).
        let patch = routes_patch(&mut tt, TrainId(0), Dur::minutes(70), Recovery::None);
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

    #[test]
    fn route_is_fifo_detects_overtaking_delay() {
        use crate::delay::Recovery;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..2).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        line(&mut b, &[s[0], s[1]], &[Time::hm(8, 0), Time::hm(8, 30)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 1);
        let r = routes.route_of(TrainId(0));
        assert!(routes.route_is_fifo(&tt, r));
        // Delay the 08:00 train to 08:40: it departs after the 08:30 train
        // but arrives after it too — still FIFO. Delay to 08:35 with the
        // same duration: departs later (08:35 > 08:30), arrives 08:45 >
        // 08:40 — still FIFO. Make it *equal* departure instead: broken.
        let patch = routes_patch(&mut tt, TrainId(0), Dur::minutes(30), Recovery::None);
        routes.repatch_feed(&tt, &patch);
        assert!(!routes.route_is_fifo(&tt, r), "equal departures must break FIFO");
    }

    fn routes_patch(
        tt: &mut Timetable,
        train: TrainId,
        delay: Dur,
        rec: crate::delay::Recovery,
    ) -> FeedPatch {
        tt.patch_feed(&[crate::delay::DelayEvent::Delay {
            train,
            from_hop: 0,
            delay,
            recovery: rec,
        }])
    }

    #[test]
    fn repatch_feed_touches_each_route_once() {
        use crate::delay::{DelayEvent, Recovery};
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Route A: two trains 0/1 over 0→1→2; route B: one train 2 over 3→1.
        line(&mut b, &[s[0], s[1], s[2]], &[Time::hm(8, 0), Time::hm(9, 0)], Dur::minutes(10));
        line(&mut b, &[s[3], s[1]], &[Time::hm(8, 30)], Dur::minutes(5));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        // Three events, two of them on route A's trains: the touched list
        // must still name each route exactly once.
        let patch = tt.patch_feed(&[
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(70),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: TrainId(1),
                from_hop: 0,
                delay: Dur::minutes(5),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: TrainId(2),
                from_hop: 0,
                delay: Dur::minutes(3),
                recovery: Recovery::None,
            },
        ]);
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
        use crate::delay::Recovery;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        // Route A: trains 0/1 on 0→1; route B: trains 2/3 on 1→2.
        line(&mut b, &[s[0], s[1]], &[Time::hm(8, 0), Time::hm(8, 30)], Dur::minutes(10));
        line(&mut b, &[s[1], s[2]], &[Time::hm(9, 0), Time::hm(9, 30)], Dur::minutes(10));
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        assert_eq!(routes.len(), 2);
        let rb = routes.route_of(TrainId(2));
        // Land train 0 exactly on train 1's slot: equal departures on route
        // A break FIFO; route B is untouched.
        let patch = routes_patch(&mut tt, TrainId(0), Dur::minutes(30), Recovery::None);
        let touched = routes.repatch_feed(&tt, &patch);
        let ra = routes.route_of(TrainId(0));
        assert_eq!(touched, vec![ra]);
        assert!(!routes.route_is_fifo(&tt, ra));
        routes.refit(&tt, &[ra]);
        // The offending route split in two; route B kept its id and trains.
        assert_eq!(routes.len(), 3);
        assert_ne!(routes.route_of(TrainId(0)), routes.route_of(TrainId(1)));
        assert_eq!(routes.route_of(TrainId(2)), rb);
        assert_eq!(routes.route(rb).trains, vec![TrainId(2), TrainId(3)]);
        for r in 0..routes.len() {
            assert!(routes.route_is_fifo(&tt, RouteId::from_idx(r)), "route {r} not FIFO");
        }
        // The split partition answers like a fresh one: same train sets per
        // stop sequence, every route FIFO (soundness is what matters — the
        // fresh partition may group differently but both are valid).
        let fresh = Routes::partition(&tt);
        for r in 0..fresh.len() {
            assert!(fresh.route_is_fifo(&tt, RouteId::from_idx(r)));
        }
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
