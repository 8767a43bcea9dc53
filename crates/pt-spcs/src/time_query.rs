//! Time-queries: `dist(S, ·, τ)` by time-dependent Dijkstra (paper §2).
//!
//! The label-setting baseline: visits graph nodes in non-decreasing arrival
//! order from the source, walking each node's edges with
//! [`TdGraph::arrivals`](pt_graph::TdGraph::arrivals). Boarding at the
//! source station is free (no transfer time before the first train),
//! matching the connection-setting initialization that starts directly at
//! route nodes. The search also records parent pointers, from which
//! [`journey`](crate::journey) unpacks the itinerary.

use pt_core::{NodeId, StationId, Time, INFINITY};
use pt_heap::BinaryHeap;

use crate::network::Network;
use crate::stats::QueryStats;

/// Result of a one-to-all time-query.
#[derive(Debug, Clone)]
pub struct TimeQueryResult {
    /// Earliest absolute arrival per *station* ([`INFINITY`] = unreachable).
    pub arrival: Vec<Time>,
    /// Operation counters.
    pub stats: QueryStats,
}

impl TimeQueryResult {
    /// Arrival at one station.
    #[inline]
    pub fn arrival_at(&self, s: StationId) -> Time {
        self.arrival[s.idx()]
    }
}

/// Computes earliest arrivals at every station when departing `source` at
/// absolute time `dep`.
pub fn earliest_arrivals(net: &Network, source: StationId, dep: Time) -> TimeQueryResult {
    let mut labels = run(net, source, dep, None);
    labels.arrival.truncate(net.num_stations());
    TimeQueryResult { arrival: labels.arrival, stats: labels.stats }
}

/// Earliest arrival at `target` when departing `source` at `dep`
/// ([`INFINITY`] if unreachable). Stops as soon as the target is settled.
pub fn earliest_arrival(net: &Network, source: StationId, dep: Time, target: StationId) -> Time {
    run(net, source, dep, Some(target)).arrival[target.idx()]
}

/// Node-level labels of one time-query.
pub(crate) struct NodeLabels {
    /// Settle time per graph node ([`INFINITY`] = not settled).
    pub(crate) arrival: Vec<Time>,
    /// The node each node was last pushed or decreased from (`u32::MAX` for
    /// the source and never-reached nodes).
    pub(crate) parent: Vec<u32>,
    /// Operation counters.
    pub(crate) stats: QueryStats,
}

/// The time-query: settles every node reachable from `source` departing at
/// `dep`, or stops once `target` is settled.
pub(crate) fn run(
    net: &Network,
    source: StationId,
    dep: Time,
    target: Option<StationId>,
) -> NodeLabels {
    let g = net.graph();
    let n = g.num_nodes();
    let mut arrival: Vec<Time> = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new(n);
    let mut stats = QueryStats::default();

    let src = g.station_node(source);
    heap.push_or_decrease(src.idx(), dep.secs() as u64);
    stats.pushes += 1;

    let target_node = target.map(|t| g.station_node(t));
    while let Some((slot, key)) = heap.pop() {
        let v = NodeId::from_idx(slot);
        let t = Time(key as u32);
        arrival[slot] = t;
        stats.settled += 1;
        if target_node == Some(v) {
            break;
        }
        for (w, ta) in g.arrivals(v, t, Some(src)) {
            let w = w.idx();
            if !arrival[w].is_infinite() {
                continue; // settled
            }
            stats.relaxed += 1;
            let queued = heap.contains(w);
            if heap.push_or_decrease(w, ta.secs() as u64) {
                parent[w] = slot as u32;
                if queued {
                    stats.decreases += 1;
                } else {
                    stats.pushes += 1;
                }
            }
        }
    }
    NodeLabels { arrival, parent, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{Dur, Period};
    use pt_timetable::TimetableBuilder;

    /// A ── B ── C line, hourly 08:00–10:00, 10 min per leg, 1 min dwell,
    /// plus a slow direct A → C train at 08:05 taking 50 min.
    fn net() -> (Network, Vec<StationId>) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(5))).collect();
        for h in [8, 9, 10] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::minutes(1),
            )
            .unwrap();
        }
        b.add_simple_trip(&[s[0], s[2]], Time::hm(8, 5), &[Dur::minutes(50)], Dur::ZERO).unwrap();
        (Network::new(b.build().unwrap()), s)
    }

    #[test]
    fn rides_the_next_train() {
        let (net, s) = net();
        // Departing 07:30: ride 08:00, B at 08:10, C at 08:21.
        let r = earliest_arrivals(&net, s[0], Time::hm(7, 30));
        assert_eq!(r.arrival_at(s[0]), Time::hm(7, 30));
        assert_eq!(r.arrival_at(s[1]), Time::hm(8, 10));
        assert_eq!(r.arrival_at(s[2]), Time::hm(8, 21));
    }

    #[test]
    fn no_transfer_time_at_source() {
        let (net, s) = net();
        // Departing exactly 08:00 still catches the 08:00 train even though
        // T(A) = 5 min.
        let r = earliest_arrivals(&net, s[0], Time::hm(8, 0));
        assert_eq!(r.arrival_at(s[1]), Time::hm(8, 10));
    }

    #[test]
    fn boarding_at_source_station_is_free() {
        let (net, s) = net();
        // Departing B itself at 08:10 catches the train leaving B at 08:11
        // (T(B) = 5 min does not apply at the source).
        let arr = earliest_arrival(&net, s[1], Time::hm(8, 10), s[2]);
        assert_eq!(arr, Time::hm(8, 21));
    }

    #[test]
    fn transfer_time_applies_when_changing_trains() {
        // Line 1: A→B 08:00→08:10. Line 2: B→C at 08:12 and 08:30 (10 min).
        // T(B) = 5 min: arriving 08:10 misses the 08:12, rides the 08:30.
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::minutes(5));
        let bb = b.add_named_station("B", Dur::minutes(5));
        let c = b.add_named_station("C", Dur::minutes(5));
        b.add_simple_trip(&[a, bb], Time::hm(8, 0), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        for m in [12, 30] {
            b.add_simple_trip(&[bb, c], Time::hm(8, m), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        }
        let net = Network::new(b.build().unwrap());
        assert_eq!(earliest_arrival(&net, a, Time::hm(7, 50), c), Time::hm(8, 40));
    }

    #[test]
    fn slow_direct_train_loses() {
        let (net, s) = net();
        // 08:05 direct arrives 08:55; via B arrives 08:21 → Dijkstra picks it.
        let arr = earliest_arrival(&net, s[0], Time::hm(8, 0), s[2]);
        assert_eq!(arr, Time::hm(8, 21));
        // But departing 08:01 (just missed the 08:00), direct at 08:05 wins:
        // 08:55 versus the 09:00 local arriving 09:21.
        let arr = earliest_arrival(&net, s[0], Time::hm(8, 1), s[2]);
        assert_eq!(arr, Time::hm(8, 55));
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::ZERO);
        let c = b.add_named_station("B", Dur::ZERO);
        let d = b.add_named_station("isolated-target", Dur::ZERO);
        b.add_simple_trip(&[a, c], Time::hm(8, 0), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[d, a], Time::hm(8, 0), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        let net = Network::new(b.build().unwrap());
        assert!(earliest_arrival(&net, a, Time::hm(7, 0), d).is_infinite());
    }

    #[test]
    fn wraps_past_the_last_train_of_the_day() {
        let (net, s) = net();
        // Departing 11:00: last train was 10:00, so ride tomorrow's 08:00.
        let arr = earliest_arrival(&net, s[0], Time::hm(11, 0), s[1]);
        assert_eq!(arr, Time::hm(24 + 8, 10));
    }
}
