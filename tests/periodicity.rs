//! The periodicity `Π` is a parameter, not a constant (paper §2): the whole
//! pipeline must behave identically under a non-day period, including
//! wrap-around connections near the period boundary.

use best_connections::prelude::*;
use best_connections::spcs::{label_correcting, time_query};

/// A 2-hour period with service clustered near the boundary so that
/// wrap-around paths are common.
fn two_hour_net() -> (Network, Vec<StationId>) {
    let period = Period::new(2 * 3600);
    let mut b = TimetableBuilder::new(period);
    let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
    // Ring 0 → 1 → 2 → 3 every 25 minutes; legs of 9 minutes mean late
    // trips arrive in the next period.
    for k in 0..5u32 {
        b.add_simple_trip(
            &[s[0], s[1], s[2], s[3]],
            Time(k * 25 * 60),
            &[Dur::minutes(9); 3],
            Dur::minutes(1),
        )
        .unwrap();
        b.add_simple_trip(
            &[s[3], s[2], s[1], s[0]],
            Time(k * 25 * 60 + 600),
            &[Dur::minutes(9); 3],
            Dur::minutes(1),
        )
        .unwrap();
    }
    // One express crossing the boundary outright: departs at 1:55:00,
    // arrives 19 minutes later — in the next period.
    b.add_simple_trip(&[s[0], s[3]], Time(115 * 60), &[Dur::minutes(19)], Dur::ZERO).unwrap();
    (Network::new(b.build().unwrap()), s)
}

#[test]
fn timetable_respects_custom_period() {
    let (net, _) = two_hour_net();
    assert_eq!(net.timetable().period().len(), 7200);
    for c in net.timetable().connections() {
        assert!(c.dep.secs() < 7200, "departure must be period-local");
    }
}

#[test]
fn cs_equals_lc_under_two_hour_period() {
    let (net, s) = two_hour_net();
    for &src in &s {
        let cs = ProfileEngine::new().threads(2).one_to_all(&net, src);
        let lc = label_correcting::profile_search(&net, src);
        assert_eq!(lc.profiles, *cs, "source {src}");
    }
}

#[test]
fn profile_eval_equals_time_query_across_the_boundary() {
    let (net, s) = two_hour_net();
    let period = net.timetable().period();
    let set = ProfileEngine::new().one_to_all(&net, s[0]);
    // Sample the whole period, densest near the boundary.
    let mut deps: Vec<Time> = (0..24).map(|i| Time(i * 300)).collect();
    deps.extend((0..10).map(|i| Time(7200 - 1 - i * 37)));
    for dep in deps {
        let truth = time_query::earliest_arrivals(&net, s[0], dep);
        for &t in &s[1..] {
            assert_eq!(
                set.profile(t).eval_arr(dep, period),
                truth.arrival_at(t),
                "target {t} departing {dep:?}"
            );
        }
    }
}

#[test]
fn wraparound_express_appears_in_the_profile() {
    let (net, s) = two_hour_net();
    let prof = ProfileEngine::new().one_to_all(&net, s[0]);
    let to_3 = prof.profile(s[3]);
    // The 1:55 express (arriving 2:14 absolute) must be a profile point.
    let express = to_3.points().iter().find(|p| p.dep == Time(115 * 60));
    let express = express.expect("express departure in profile");
    assert_eq!(express.arr, Time(115 * 60 + 19 * 60));
}

#[test]
fn s2s_with_table_works_under_custom_period() {
    let (net, s) = two_hour_net();
    let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.5));
    let engine = S2sEngine::new().threads(2).with_table(&table);
    for &src in &s {
        let want = ProfileEngine::new().one_to_all(&net, src);
        for &t in &s {
            if src == t {
                continue;
            }
            let got = engine.query(&net, src, t);
            assert_eq!(&got.profile, want.profile(t), "{src}→{t} ({:?})", got.kind);
        }
    }
}

#[test]
fn delays_wrap_correctly_in_short_periods() {
    use best_connections::timetable::{DelayEvent, Recovery};
    let (net, s) = two_hour_net();
    let tt = net.timetable();
    // Delay the express (the last train added) past the period boundary.
    let express_train =
        tt.conn(s[0]).iter().find(|c| c.dep == Time(115 * 60)).expect("express exists").train;
    let mut delayed = tt.clone();
    delayed.patch_feed(&[DelayEvent::Delay {
        train: express_train,
        from_hop: 0,
        delay: Dur::minutes(10),
        recovery: Recovery::None,
    }]);
    let conns = delayed.connections();
    let c = conns.iter().find(|c| c.train == express_train).unwrap();
    // 1:55 + 10 min wraps to 0:05 of the next period.
    assert_eq!(c.dep, Time(5 * 60));
    // And the delayed network still satisfies CS == LC.
    let dnet = Network::new(delayed);
    let cs = ProfileEngine::new().one_to_all(&dnet, s[0]);
    let lc = label_correcting::profile_search(&dnet, s[0]);
    assert_eq!(lc.profiles, *cs);
}
