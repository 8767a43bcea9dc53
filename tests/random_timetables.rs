//! Property tests over *arbitrary* small timetables (not the generators):
//! random trips with random times, dwell times and transfer times —
//! including midnight wraps and disconnected pieces — must satisfy every
//! cross-algorithm equivalence.

mod common;

use proptest::prelude::*;

use best_connections::prelude::*;
use best_connections::spcs::{journey, label_correcting, multicriteria, time_query};
use common::{build, event_strategy, trip_strategy, RawEvent};

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn cs_equals_lc_on_random_timetables(
        transfer_min in prop::collection::vec(0u8..=8, 3..=6),
        trips in prop::collection::vec(trip_strategy(6), 1..=10),
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        let net = Network::new(tt);
        for s in net.station_ids() {
            let cs = ProfileEngine::new().one_to_all(&net, s);
            let lc = label_correcting::profile_search(&net, s);
            prop_assert_eq!(&lc.profiles, &*cs, "source {}", s);
            // Parallel equivalence on a nontrivial thread count.
            let par = ProfileEngine::new().threads(3).one_to_all(&net, s);
            prop_assert_eq!(&par, &cs, "parallel from {}", s);
        }
    }

    #[test]
    fn profile_eval_equals_time_query(
        transfer_min in prop::collection::vec(0u8..=8, 3..=6),
        trips in prop::collection::vec(trip_strategy(6), 1..=10),
        dep_mins in prop::collection::vec(0u32..(24 * 60), 1..=6),
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        let net = Network::new(tt);
        let source = StationId(0);
        let set = ProfileEngine::new().threads(2).one_to_all(&net, source);
        // The drawn instants, then every departure from the source: there
        // the free first boarding decides the answer.
        let tt = net.timetable();
        let deps = dep_mins.iter().map(|&m| Time(m * 60));
        let deps = deps.chain(tt.conn_ids(source).map(|c| tt.connection(ConnId(c)).dep));
        for dep in deps {
            let truth = time_query::earliest_arrivals(&net, source, dep);
            for s in net.station_ids() {
                if s == source {
                    continue; // source-profile convention, see ProfileSet::profile
                }
                let want = truth.arrival_at(s);
                prop_assert_eq!(
                    set.profile(s).eval_arr(dep, Period::DAY), want,
                    "station {} dep {}", s, dep
                );
                // The journey and the Pareto walk reach the same optimum,
                // and nothing exactly where the truth is unreachable; the
                // journey's legs chain with the transfer times.
                let journey = journey::earliest_journey(&net, source, dep, s);
                let want_some = (!want.is_infinite()).then_some(want);
                prop_assert_eq!(
                    journey.as_ref().map(|j| j.arr()), want_some,
                    "journey to {} dep {}", s, dep
                );
                if let Some(j) = journey {
                    let chained = j.legs.windows(2).all(|w| {
                        w[0].to == w[1].from && w[1].dep >= w[0].arr + tt.transfer_time(w[0].to)
                    });
                    prop_assert!(chained, "journey to {} dep {} breaks its chain:\n{}", s, dep, j);
                }
                let front = multicriteria::pareto_query(&net, source, dep, s).options;
                let best = front.iter().map(|o| o.arrival).min();
                prop_assert_eq!(best, want_some, "Pareto front to {} dep {}", s, dep);
            }
        }
    }

    #[test]
    fn s2s_with_tables_equals_one_to_all(
        transfer_min in prop::collection::vec(0u8..=8, 4..=6),
        trips in prop::collection::vec(trip_strategy(6), 2..=10),
        frac in 0.2f64..0.8,
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        let net = Network::new(tt);
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(frac));
        let engine = S2sEngine::new().threads(2).with_table(&table);
        let plain = S2sEngine::new();
        for s in net.station_ids() {
            let want = ProfileEngine::new().one_to_all(&net, s);
            for t in net.station_ids() {
                if s == t { continue; }
                let got = engine.query(&net, s, t);
                prop_assert_eq!(
                    &got.profile, want.profile(t),
                    "{} → {} kind {:?}", s, t, got.kind
                );
                let got_plain = plain.query(&net, s, t);
                prop_assert_eq!(
                    &got_plain.profile, want.profile(t),
                    "{} → {} stopping-only", s, t
                );
            }
        }
    }
}

/// Guards the shared generators (`tests/common`) against going vacuous:
/// drawn the way `proptest!` draws them, a few hundred timetables must
/// keep building at today's rate and include routes with several trains
/// (so FIFO checks and refits have work to do), and the event mix must
/// keep reaching the two classes that once made fed ≠ rebuilt.
#[test]
fn shared_generators_reach_the_adversarial_cases() {
    use best_connections::timetable::Routes;

    let mut rng = proptest::TestRng::deterministic("shared_generators");
    let timetables =
        (prop::collection::vec(0u8..=8, 3..=6), prop::collection::vec(trip_strategy(6), 2..=10));
    let draws = 400;
    let (mut built, mut shared_route) = (0, false);
    for _ in 0..draws {
        let (transfer_min, trips) = timetables.gen_value(&mut rng);
        if let Some(tt) = build(&transfer_min, &trips) {
            built += 1;
            shared_route |= Routes::partition(&tt).iter_routes().any(|r| r.trains.len() >= 2);
        }
    }
    // `build` maps path stations into the network and skips rejected trips,
    // so a draw fails only when every path collapses to one station (none
    // of these 400 do); the floor sits just under that.
    assert!(built >= 395, "only {built} of {draws} draws built a timetable");
    assert!(shared_route, "no built timetable has a route with two trains");

    let (mut over_period, mut over_dwell) = (0, 0);
    for event in prop::collection::vec(event_strategy(), draws).gen_value(&mut rng) {
        if let RawEvent::Delay { delay_min, recover_min, .. } = event {
            over_period += usize::from(delay_min >= 200);
            over_dwell += usize::from(recover_min > 5);
        }
    }
    assert!(over_period > 0, "no delay crosses the end of the period");
    assert!(over_dwell > 0, "no catch-up exceeds the trips' 0–5 min dwell");
}
