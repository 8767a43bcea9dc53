//! Property: [`Timetable::for_day`] is exactly "rebuild the timetable from
//! scratch keeping only the active trips".
//!
//! The filter path under test slices connections out of the *built*
//! timetable and re-densifies train ids. The reference path here is
//! genuinely different: it goes back to the trip specifications and feeds
//! only the active ones through a fresh [`TimetableBuilder`] — builder
//! validation, sorting and bucket layout all re-run from nothing. The two
//! must agree connection-for-connection and query-for-query (sequential
//! SPCS profiles from every station, via the conncheck reference engine).

use proptest::prelude::*;

use best_connections::prelude::*;
use pt_bench::conncheck::calendar_check;

/// One generated trip: a station path with per-leg durations.
#[derive(Debug, Clone)]
struct TripSpec {
    path: Vec<StationId>,
    start: Time,
    legs: Vec<Dur>,
}

/// Deterministic trip specs over `n` stations (simple congruences — the
/// point is variety, not realism: branching paths, shared stations,
/// different speeds and start times). Not the shared `tests/common`
/// generator: the oracle re-feeds a filtered subset of these specs through
/// a fresh builder, so every spec must build.
fn trip_specs(n: u32, trips: usize, seed: u64) -> Vec<TripSpec> {
    (0..trips)
        .map(|k| {
            let k = k as u64;
            let hops = 2 + ((seed ^ k) % 3) as u32; // 2..=4 legs
            let first = ((seed.wrapping_mul(31) + k * 7) % u64::from(n)) as u32;
            let stride = 1 + ((seed >> 3 ^ k) % u64::from(n - 1)) as u32;
            let path: Vec<StationId> =
                (0..=hops).map(|i| StationId((first + i * stride) % n)).collect();
            let start = Time::hm(5 + ((k * 3 + seed) % 18) as u32, ((k * 17) % 60) as u32);
            let legs: Vec<Dur> = (0..hops)
                .map(|i| Dur::minutes(4 + ((seed ^ (k + u64::from(i))) % 26) as u32))
                .collect();
            TripSpec { path, start, legs }
        })
        .filter(|t| {
            // The builder rejects self-loop hops; keep only simple paths.
            t.path.windows(2).all(|w| w[0] != w[1])
        })
        .collect()
}

fn build_from(n: u32, specs: &[TripSpec]) -> Timetable {
    let mut b = TimetableBuilder::new(Period::DAY);
    for i in 0..n {
        b.add_named_station(format!("S{i}"), Dur::minutes(2 + i % 4));
    }
    for spec in specs {
        b.add_simple_trip(&spec.path, spec.start, &spec.legs, Dur::minutes(1))
            .expect("generated trips are valid");
    }
    b.build().expect("generated timetables are valid")
}

/// The battery calendar: weekday / weekend / summer-with-exceptions
/// services plus unassigned (daily) trains, striped by train id.
fn striped_calendar(num_trains: usize) -> ServiceCalendar {
    let date = |y, m, d| Date::new(y, m, d).unwrap();
    let mut cal = ServiceCalendar::new();
    let weekday = cal.add_service(ServicePattern::weekdays(date(2026, 1, 1), date(2026, 12, 31)));
    let weekend = cal.add_service(ServicePattern::weekends(date(2026, 1, 1), date(2026, 12, 31)));
    let summer = cal.add_service(
        ServicePattern::daily(date(2026, 6, 1), date(2026, 8, 31))
            .with_removed(&[date(2026, 7, 4)])
            .with_added(&[date(2026, 12, 24)]),
    );
    for t in 0..num_trains as u32 {
        match t % 4 {
            0 => cal.assign(TrainId(t), weekday).unwrap(),
            1 => cal.assign(TrainId(t), weekend).unwrap(),
            2 => cal.assign(TrainId(t), summer).unwrap(),
            _ => {}
        }
    }
    cal
}

/// The dates the stripes disagree on: weekday vs weekend vs summer range
/// vs the removed holiday vs the out-of-season added exception.
fn battery_dates() -> Vec<Date> {
    [
        (2026, 8, 8),   // Saturday in summer
        (2026, 8, 10),  // Monday in summer
        (2026, 7, 4),   // holiday removed from the summer service
        (2026, 12, 24), // winter Thursday added to the summer service
        (2026, 3, 1),   // Sunday outside the summer range
        (2025, 6, 15),  // before every service's range
    ]
    .into_iter()
    .map(|(y, m, d)| Date::new(y, m, d).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // for_day == from-scratch rebuild of only the active trips, for every
    // battery date: same connections, same profiles from every station.
    #[test]
    fn for_day_equals_filtered_rebuild(
        n in 4u32..=9,
        trips in 4usize..=12,
        seed in 0u64..10_000,
    ) {
        let specs = trip_specs(n, trips, seed);
        prop_assert!(!specs.is_empty());
        let full = build_from(n, &specs);
        let cal = striped_calendar(full.num_trains());

        for date in battery_dates() {
            let day = full.for_day(&cal, date).expect("valid date");

            // Reference: only the active trips, through a fresh builder.
            // Trips are added in original train order, so dense day-local
            // ids must line up with the builder's assignment order.
            let active_specs: Vec<TripSpec> = specs
                .iter()
                .enumerate()
                .filter(|(i, _)| cal.runs_on(TrainId(*i as u32), date))
                .map(|(_, s)| s.clone())
                .collect();
            let reference = build_from(n, &active_specs);

            prop_assert_eq!(day.timetable.num_trains(), reference.num_trains());
            prop_assert_eq!(day.timetable.connections(), reference.connections());
            prop_assert_eq!(
                day.trains.len() + day.dropped_trains,
                full.num_trains()
            );
            // The remap is consistent both ways.
            for (new, &old) in day.trains.iter().enumerate() {
                prop_assert_eq!(day.day_train(old), Some(TrainId(new as u32)));
                prop_assert_eq!(day.original_train(TrainId(new as u32)), Some(old));
            }

            // Query equivalence: sequential SPCS from every station.
            let day_net = Network::build(&day.timetable);
            let ref_net = Network::build(&reference);
            let engine = ProfileEngine::new();
            for s in day_net.station_ids() {
                prop_assert_eq!(
                    engine.one_to_all(&day_net, s),
                    engine.one_to_all(&ref_net, s),
                    "profiles diverge from {} on {}", s, date
                );
            }
        }
    }

    // The full conncheck calendar battery (independent weekday algorithm,
    // filter restated from scratch, time-query cross-validation) stays
    // clean on generated timetables, pristine and after a live feed.
    #[test]
    fn conncheck_calendar_battery_is_clean(
        n in 5u32..=9,
        trips in 5usize..=10,
        seed in 0u64..10_000,
    ) {
        let specs = trip_specs(n, trips, seed);
        prop_assert!(!specs.is_empty());
        let full = build_from(n, &specs);
        let sources: Vec<StationId> = (0..n.min(4)).map(StationId).collect();
        let departures = [Time::hm(7, 30), Time::hm(23, 50)];

        let net = Network::build(&full);
        let pristine = calendar_check("gen", &net, &sources, &departures);
        prop_assert!(pristine.is_clean(), "pristine: {:?}", pristine.mismatches);

        // A delayed dataset's day filters the *delayed* connections: patch
        // a feed into the full timetable, then re-run the whole battery.
        let mut fed = net.clone();
        let num_trains = full.num_trains() as u32;
        fed.apply_feed(&[
            DelayEvent::Delay {
                train: TrainId(seed as u32 % num_trains),
                from_hop: 0,
                delay: Dur::minutes(9),
                recovery: Recovery::None,
            },
            DelayEvent::Cancel { train: TrainId((seed as u32 + 1) % num_trains) },
        ]);
        let after = calendar_check("gen+feed", &fed, &sources, &departures);
        prop_assert!(after.is_clean(), "after feed: {:?}", after.mismatches);
    }
}
