//! Journey extraction: turning a best *arrival time* into the actual
//! itinerary — which trains to board, where, and when.
//!
//! The paper's algorithms compute distance functions; a downstream journey
//! planner also needs the path. This module follows the parent pointers of
//! a [`time_query`] over the realistic time-dependent graph and unpacks the
//! node path into train legs: consecutive route edges ridden on the same
//! train merge into one leg, board/alight edges become transfers.

use pt_core::{Dur, NodeId, StationId, Time, TrainId};

use crate::network::Network;
use crate::time_query;

/// One leg of a journey: stay on `train` from `from` (departing `dep`) to
/// `to` (arriving `arr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// The train ridden.
    pub train: TrainId,
    /// Boarding station.
    pub from: StationId,
    /// Alighting station.
    pub to: StationId,
    /// Departure time at `from`.
    pub dep: Time,
    /// Arrival time at `to`.
    pub arr: Time,
}

/// A reconstructed itinerary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    /// Train legs in travel order (non-empty).
    pub legs: Vec<Leg>,
    /// Requested departure time at the source.
    pub query_dep: Time,
}

impl Journey {
    /// Departure of the first leg.
    pub fn dep(&self) -> Time {
        self.legs.first().expect("journeys have legs").dep
    }

    /// Arrival of the last leg.
    pub fn arr(&self) -> Time {
        self.legs.last().expect("journeys have legs").arr
    }

    /// Number of train changes.
    pub fn transfers(&self) -> usize {
        self.legs.len() - 1
    }

    /// Total duration from the *requested* departure (waiting included).
    pub fn dur(&self) -> Dur {
        self.arr() - self.query_dep
    }
}

impl std::fmt::Display for Journey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, leg) in self.legs.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{} {} → {} ({}, dep {}, arr {})",
                leg.train,
                leg.from,
                leg.to,
                leg.arr - leg.dep,
                leg.dep,
                leg.arr
            )?;
        }
        Ok(())
    }
}

/// Computes the earliest-arrival journey from `source` (departing at
/// absolute `dep`) to `target`; `None` if unreachable or `source == target`.
pub fn earliest_journey(
    net: &Network,
    source: StationId,
    dep: Time,
    target: StationId,
) -> Option<Journey> {
    if source == target {
        return None;
    }
    let g = net.graph();
    let search = time_query::run(net, source, dep, Some(target));
    let (src, tgt) = (g.station_node(source), g.station_node(target));
    if search.arrival[tgt.idx()].is_infinite() {
        return None;
    }

    // Node path source → target.
    let mut path = vec![tgt];
    while *path.last().expect("non-empty") != src {
        let p = search.parent[path.last().expect("non-empty").idx()];
        debug_assert_ne!(p, u32::MAX, "broken parent chain");
        path.push(NodeId(p));
    }
    path.reverse();

    // Unpack into train legs: a maximal run of route edges is one leg.
    let routes = net.routes();
    let tt = net.timetable();
    let period = tt.period();
    let mut legs: Vec<Leg> = Vec::new();
    for w in path.windows(2) {
        let (v, u) = (w[0], w[1]);
        let (Some((route, stop_v)), Some((route_u, stop_u))) =
            (g.route_node_info(v), g.route_node_info(u))
        else {
            continue; // board or alight edge
        };
        if route != route_u || stop_u != stop_v + 1 {
            continue; // re-board at the same station (rare); handled as board
        }
        // Identify the train ridden on this hop: the one departing next at
        // or after our arrival time at v.
        let t_here = search.arrival[v.idx()];
        let hop = stop_v as usize;
        let ridden = |z| {
            let c = tt.train_connections(z).nth(hop).expect("every train of a route runs its hops");
            tt.connection(c)
        };
        let train = routes
            .route(route)
            .trains
            .iter()
            .copied()
            .min_by_key(|&z| period.delta(period.local(t_here), ridden(z).dep))
            .expect("route has trains");
        let c = ridden(train);
        let leg_dep = t_here + period.delta(period.local(t_here), c.dep);
        let leg_arr = leg_dep + c.dur();
        match legs.last_mut() {
            // Staying on the same train: extend the leg.
            Some(last) if last.train == train && last.to == c.from => {
                last.to = c.to;
                last.arr = leg_arr;
            }
            _ => legs.push(Leg { train, from: c.from, to: c.to, dep: leg_dep, arr: leg_arr }),
        }
    }
    if legs.is_empty() {
        return None;
    }
    Some(Journey { legs, query_dep: dep })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::Period;
    use pt_timetable::synthetic::city::{generate_city, CityConfig};
    use pt_timetable::TimetableBuilder;

    fn line_net() -> (Network, Vec<StationId>) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(4))).collect();
        // Line 1: 0 → 1 → 2, hourly.
        for h in [8, 9] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::minutes(1),
            )
            .unwrap();
        }
        // Line 2: 2 → 3 at 08:30 and 09:30.
        for (h, m) in [(8, 30), (9, 30)] {
            b.add_simple_trip(&[s[2], s[3]], Time::hm(h, m), &[Dur::minutes(15)], Dur::ZERO)
                .unwrap();
        }
        (Network::new(b.build().unwrap()), s)
    }

    #[test]
    fn single_train_is_one_leg() {
        let (net, s) = line_net();
        let j = earliest_journey(&net, s[0], Time::hm(7, 45), s[2]).unwrap();
        assert_eq!(j.legs.len(), 1);
        assert_eq!(j.transfers(), 0);
        let leg = j.legs[0];
        assert_eq!((leg.from, leg.to), (s[0], s[2]));
        assert_eq!((leg.dep, leg.arr), (Time::hm(8, 0), Time::hm(8, 21)));
        assert_eq!(j.dur(), Dur::minutes(36)); // 15 wait + 21 travel
    }

    #[test]
    fn transfer_splits_legs_and_matches_time_query() {
        let (net, s) = line_net();
        let j = earliest_journey(&net, s[0], Time::hm(7, 45), s[3]).unwrap();
        assert_eq!(j.legs.len(), 2);
        assert_eq!(j.transfers(), 1);
        // Arrive at 2 at 08:21, T(2) = 4 min, catch the 08:30, arrive 08:45.
        assert_eq!(j.legs[1].dep, Time::hm(8, 30));
        assert_eq!(j.arr(), Time::hm(8, 45));
        let want = time_query::earliest_arrival(&net, s[0], Time::hm(7, 45), s[3]);
        assert_eq!(j.arr(), want);
    }

    #[test]
    fn legs_are_chronologically_consistent() {
        let net = Network::new(generate_city(&CityConfig::sized(36, 5, 77)));
        let mut found = 0;
        for (a, b) in [(0u32, 30u32), (5, 22), (17, 3), (30, 0), (11, 35)] {
            let Some(j) = earliest_journey(&net, StationId(a), Time::hm(7, 30), StationId(b))
            else {
                continue;
            };
            found += 1;
            // Arrival equals the scalar optimum.
            let want =
                time_query::earliest_arrival(&net, StationId(a), Time::hm(7, 30), StationId(b));
            assert_eq!(j.arr(), want, "{a}→{b}");
            // Legs chain: consecutive stations match, times ordered, and
            // train changes respect the transfer time.
            for w in j.legs.windows(2) {
                assert_eq!(w[0].to, w[1].from);
                let buffer = net.timetable().transfer_time(w[0].to);
                assert!(
                    w[1].dep >= w[0].arr + buffer,
                    "transfer at {} too tight: arr {} dep {}",
                    w[0].to,
                    w[0].arr,
                    w[1].dep
                );
            }
            assert_eq!(j.legs[0].from, StationId(a));
            assert_eq!(j.legs.last().unwrap().to, StationId(b));
        }
        assert!(found >= 3, "too few reachable test pairs");
    }

    #[test]
    fn unreachable_and_trivial_queries() {
        let (net, s) = line_net();
        assert!(earliest_journey(&net, s[0], Time::hm(8, 0), s[0]).is_none());
        // 3 has no outgoing service, so 3 → 0 is unreachable.
        assert!(earliest_journey(&net, s[3], Time::hm(8, 0), s[0]).is_none());
    }

    #[test]
    fn display_is_humane() {
        let (net, s) = line_net();
        let j = earliest_journey(&net, s[0], Time::hm(7, 45), s[3]).unwrap();
        let text = j.to_string();
        assert!(text.contains("→"), "{text}");
        assert!(text.lines().count() == 2, "{text}");
    }
}
