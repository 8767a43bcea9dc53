//! Multi-criteria time-queries — the paper's future-work extension (§6):
//! "it will be interesting to incorporate multi-criteria connections, e.g.,
//! minimizing the number of transfers."
//!
//! This module implements the Pareto variant for *time-queries*: for a fixed
//! departure time it computes the Pareto frontier of (arrival time, number
//! of transfers) at the target. A label `(arr, k)` dominates `(arr', k')`
//! iff `arr ≤ arr'` and `k ≤ k'`. The search is a multi-label Dijkstra on
//! the realistic time-dependent graph; boarding edges increment the
//! transfer counter (the first boarding is free — riding one train is zero
//! transfers).

use pt_core::{NodeId, StationId, Time};
use pt_heap::QuaternaryHeap;

use crate::network::Network;
use crate::stats::QueryStats;

/// Upper bound on counted transfers; labels beyond it are merged into the
/// last bucket (journeys with 15+ transfers are not meaningfully ranked).
pub const MAX_TRANSFERS: u8 = 15;

/// One Pareto-optimal journey option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParetoOption {
    /// Absolute arrival time.
    pub arrival: Time,
    /// Number of train changes (0 = direct).
    pub transfers: u8,
}

/// Result of a multi-criteria time-query.
#[derive(Debug, Clone)]
pub struct ParetoResult {
    /// The Pareto frontier at the target, sorted by increasing transfers
    /// and strictly decreasing arrival time.
    pub options: Vec<ParetoOption>,
    /// Operation counters.
    pub stats: QueryStats,
}

/// Computes the Pareto frontier of (arrival, transfers) for a journey from
/// `source` (departing at absolute `dep`) to `target`.
pub fn pareto_query(
    net: &Network,
    source: StationId,
    dep: Time,
    target: StationId,
) -> ParetoResult {
    let g = net.graph();
    let n = g.num_nodes();
    let buckets = MAX_TRANSFERS as usize + 1;
    let mut stats = QueryStats::default();

    // One slot per (node, transfer-count): arrival label or INFINITY.
    // Dominance over lower transfer counts is checked on the fly.
    let mut best: Vec<Time> = vec![pt_core::INFINITY; n * buckets];
    let mut heap = QuaternaryHeap::new(n * buckets);

    let src = g.station_node(source);
    let sslot = src.idx() * buckets;
    best[sslot] = dep;
    heap.push_or_decrease(sslot, key(dep, 0));
    stats.pushes += 1;

    let tn = g.station_node(target);
    while let Some((slot, k)) = heap.pop() {
        stats.settled += 1;
        let v = NodeId::from_idx(slot / buckets);
        let transfers = (slot % buckets) as u8;
        let t = Time((k >> 8) as u32);
        if t > best[slot] {
            continue; // stale
        }
        // Dominated by a label with fewer transfers and equal-or-earlier
        // arrival?
        if (0..transfers).any(|b| best[v.idx() * buckets + b as usize] <= t) {
            stats.self_pruned += 1;
            continue;
        }
        if v == tn {
            continue; // target labels need no expansion
        }
        // Every edge of a station node boards a route. The first boarding
        // is free; later boardings are transfers.
        let nk = if g.is_station_node(v) && v != src {
            (transfers + 1).min(MAX_TRANSFERS)
        } else {
            transfers
        };
        for (w, ta) in g.arrivals(v, t, Some(src)) {
            let wslot = w.idx() * buckets + nk as usize;
            if best[wslot] <= ta {
                continue;
            }
            // Dominance against fewer-transfer labels of the head.
            if (0..=nk).any(|b| best[w.idx() * buckets + b as usize] <= ta) {
                continue;
            }
            stats.relaxed += 1;
            best[wslot] = ta;
            if heap.push_or_decrease(wslot, key(ta, nk)) {
                stats.pushes += 1;
            }
        }
    }

    // Extract the frontier at the target.
    let mut options = Vec::new();
    let mut best_arr = pt_core::INFINITY;
    for k in 0..buckets {
        let arr = best[tn.idx() * buckets + k];
        if arr < best_arr {
            options.push(ParetoOption { arrival: arr, transfers: k as u8 });
            best_arr = arr;
        }
    }
    options.reverse(); // increasing transfers, decreasing arrival
    options.sort_by_key(|o| o.transfers);
    ParetoResult { options, stats }
}

#[inline]
fn key(t: Time, transfers: u8) -> u64 {
    ((t.secs() as u64) << 8) | transfers as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{Dur, Period};
    use pt_timetable::TimetableBuilder;

    /// Slow direct A→C (60 min) and a faster two-leg A→B→C (12 + 12 min,
    /// needing one transfer).
    fn network() -> (Network, Vec<StationId>) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        b.add_simple_trip(&[s[0], s[2]], Time::hm(8, 0), &[Dur::minutes(60)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(12)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[1], s[2]], Time::hm(8, 20), &[Dur::minutes(12)], Dur::ZERO).unwrap();
        (Network::new(b.build().unwrap()), s)
    }

    #[test]
    fn frontier_contains_both_tradeoffs() {
        let (net, s) = network();
        let r = pareto_query(&net, s[0], Time::hm(7, 50), s[2]);
        assert_eq!(
            r.options,
            vec![
                // Direct train: 0 transfers, arrives 09:00.
                ParetoOption { arrival: Time::hm(9, 0), transfers: 0 },
                // Via B: 1 transfer, arrives 08:32.
                ParetoOption { arrival: Time::hm(8, 32), transfers: 1 },
            ]
        );
    }

    #[test]
    fn dominated_option_is_dropped() {
        // If the transfer journey were *slower*, only the direct remains.
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        b.add_simple_trip(&[s[0], s[2]], Time::hm(8, 0), &[Dur::minutes(30)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[0], s[1]], Time::hm(8, 0), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[s[1], s[2]], Time::hm(8, 30), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        let net = Network::new(b.build().unwrap());
        let r = pareto_query(&net, s[0], Time::hm(7, 50), s[2]);
        assert_eq!(r.options, vec![ParetoOption { arrival: Time::hm(8, 30), transfers: 0 }]);
    }

    #[test]
    fn zero_transfer_arrival_matches_scalar_dijkstra_lower_bound() {
        let (net, s) = network();
        let scalar = crate::time_query::earliest_arrival(&net, s[0], Time::hm(7, 50), s[2]);
        let r = pareto_query(&net, s[0], Time::hm(7, 50), s[2]);
        // The best arrival over the frontier equals the scalar optimum.
        let best = r.options.iter().map(|o| o.arrival).min().unwrap();
        assert_eq!(best, scalar);
    }

    #[test]
    fn unreachable_target_yields_empty_frontier() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::ZERO);
        let c = b.add_named_station("island", Dur::ZERO);
        let d = b.add_named_station("B", Dur::ZERO);
        b.add_simple_trip(&[a, d], Time::hm(8, 0), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        b.add_simple_trip(&[c, d], Time::hm(8, 0), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        let net = Network::new(b.build().unwrap());
        let r = pareto_query(&net, a, Time::hm(7, 0), c);
        assert!(r.options.is_empty());
    }
}
