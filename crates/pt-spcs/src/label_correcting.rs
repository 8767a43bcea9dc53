//! The label-correcting profile search (paper §2 and Table 1's `LC` row).
//!
//! Instead of scalar labels, whole arrival profiles are propagated through
//! the network: relaxing an edge links the tail's profile with the edge
//! function and merges it into the head's profile; a node whose profile
//! improved is (re)inserted into the queue. The label-setting property is
//! lost — nodes are re-settled — and, as the paper observes, the running
//! time is driven by the number of connection points moved around.
//!
//! Initialization mirrors the connection-setting search: each outgoing
//! connection contributes the point `(τdep, τdep)` at the route node it
//! departs from, so both algorithms compute the same `dist(S, ·, ·)`.

use pt_core::{Dur, NodeId, Profile, ProfilePoint, StationId};
use pt_heap::BinaryHeap;

use crate::network::Network;
use crate::profile_set::ProfileSet;
use crate::stats::QueryStats;

/// Result of a label-correcting one-to-all profile search.
#[derive(Debug, Clone)]
pub struct LcResult {
    /// Reduced profiles to every station.
    pub profiles: ProfileSet,
    /// `settled` counts the *sizes* of the popped labels (the paper's
    /// comparable "number of connections" figure for LC); `pushes` and
    /// `decreases` count queue operations.
    pub stats: QueryStats,
}

/// Runs the label-correcting profile search from `source`.
pub fn profile_search(net: &Network, source: StationId) -> LcResult {
    let g = net.graph();
    let tt = net.timetable();
    let period = tt.period();
    let n = g.num_nodes();
    let mut stats = QueryStats::default();

    let mut labels: Vec<Profile> = vec![Profile::EMPTY; n];
    let mut heap = BinaryHeap::new(n);

    // Initialization: seed route nodes with the departure events of conn(S).
    let conn_ids = tt.conn_ids(source);
    let mut seeds: Vec<(NodeId, Vec<ProfilePoint>)> = Vec::new();
    for cid in conn_ids {
        let c = tt.connection(pt_core::ConnId(cid));
        let r = g.conn_start_node(pt_core::ConnId(cid));
        match seeds.iter_mut().find(|(node, _)| *node == r) {
            Some((_, pts)) => pts.push(ProfilePoint::new(c.dep, c.dep)),
            None => seeds.push((r, vec![ProfilePoint::new(c.dep, c.dep)])),
        }
    }
    for (node, pts) in seeds {
        let prof = Profile::from_unreduced(pts, period);
        let key = prof.min_arr().secs() as u64;
        labels[node.idx()] = prof;
        heap.push_or_decrease(node.idx(), key);
        stats.pushes += 1;
    }

    while let Some((v, _)) = heap.pop() {
        stats.settled += labels[v].len() as u64;
        let label = labels[v].clone();
        // Link the whole profile over each edge, constant lane first.
        let (heads, secs) = g.kind_csr().const_edges(v);
        let consts = heads.iter().zip(secs).map(|(&w, &d)| (w, label.link_const(Dur(d))));
        let (heads, plfs) = g.kind_csr().td_edges(v);
        let hops = heads
            .iter()
            .zip(plfs)
            .map(|(&w, &p)| (w, label.link_profile(g.plf(p), Dur::ZERO, period)));
        for (w, linked) in consts.chain(hops) {
            if linked.is_empty() {
                continue;
            }
            stats.relaxed += 1;
            let w = w as usize;
            if labels[w].merge(&linked, period) {
                let key = labels[w].min_arr().secs() as u64;
                if heap.contains(w) {
                    if heap.push_or_decrease(w, key) {
                        stats.decreases += 1;
                    }
                } else {
                    heap.push_or_decrease(w, key);
                    stats.pushes += 1;
                }
            }
        }
    }

    let ns = net.num_stations();
    let profiles: Vec<Profile> = labels.into_iter().take(ns).collect();
    LcResult { profiles: ProfileSet::new(source, period, profiles), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection_setting::ProfileEngine;
    use pt_core::{Dur, Period, Time};
    use pt_timetable::synthetic::city::{generate_city, CityConfig};
    use pt_timetable::TimetableBuilder;

    #[test]
    fn lc_matches_connection_setting_on_a_line() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(3))).collect();
        for h in [7, 8, 9, 10] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0),
                &[Dur::minutes(12), Dur::minutes(9)],
                Dur::minutes(1),
            )
            .unwrap();
        }
        let net = Network::new(b.build().unwrap());
        let lc = profile_search(&net, s[0]);
        let cs = ProfileEngine::new().one_to_all(&net, s[0]);
        assert_eq!(lc.profiles, *cs);
    }

    #[test]
    fn lc_matches_connection_setting_on_random_city() {
        let net = Network::new(generate_city(&CityConfig::sized(30, 4, 13)));
        for src in [0u32, 5, 17] {
            let s = StationId(src);
            let lc = profile_search(&net, s);
            let cs = ProfileEngine::new().threads(3).one_to_all(&net, s);
            assert_eq!(lc.profiles, *cs, "source {s}");
        }
    }

    #[test]
    fn lc_settles_more_connection_points_than_cs() {
        let net = Network::new(generate_city(&CityConfig::sized(30, 4, 23)));
        let s = StationId(2);
        let lc = profile_search(&net, s);
        let cs = ProfileEngine::new().one_to_all_with_stats(&net, s);
        // The paper's headline observation (Table 1): LC moves an order of
        // magnitude more connections through the queue.
        assert!(
            lc.stats.settled > cs.stats.settled,
            "LC {} vs CS {}",
            lc.stats.settled,
            cs.stats.settled
        );
    }
}
