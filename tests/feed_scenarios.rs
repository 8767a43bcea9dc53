//! Scenario harness for the dynamic path: delay feeds (the server scenario
//! of §5, under GTFS-RT-style streams). A single delay or cancellation is
//! the one-event feed, so this suite is also the fully dynamic scenario's
//! oracle (§5.1).
//!
//! Drives deterministic random sequences of feeds — each a batch of 1–12
//! delay *and cancellation* events drawn from the shared adversarial mix
//! (`tests/common`), with events piling up on the same trains and mid-feed
//! overtaking — against a live [`Network`] via [`Network::apply_feed`].
//! After **every** feed, the acceptance contract is asserted:
//!
//! * the patched network is **query-identical** to a from-scratch
//!   `Network::build` of the same timetable,
//! * a feed of N events costs **exactly one** generation bump (zero when
//!   its net effect is nil),
//! * every touched route is rewritten (`touched ≤ repatched`, both counts
//!   from the summary),
//! * the followed partition has the train sets of `Routes::partition` of
//!   the patched timetable, the followed graph equals `TdGraph::build`, and
//!   cached queries equal uncached ones.
//!
//! Deterministic companions below the proptest pin down the 100-event
//! acceptance criterion, feed ≡ sequential-patch equivalence, the re-split
//! of an overtaking route's class, cancellation round trips, and cache
//! invalidation (once per feed, not per event).

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use best_connections::prelude::*;
use best_connections::timetable::synthetic::city::{generate_city, CityConfig};
use best_connections::timetable::Routes;
use common::{build, event_strategy, to_events, trip_strategy, RawEvent};

/// One step of a scenario: apply a whole feed, or answer a cached query.
#[derive(Debug, Clone)]
enum Op {
    Feed(Vec<RawEvent>),
    Query { source: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => prop::collection::vec(event_strategy(), 1..=12).prop_map(Op::Feed),
        1 => (0u32..1024).prop_map(|source| Op::Query { source }),
    ]
}

/// The non-empty train sets of a partition. A fed network's route ids
/// differ from a from-scratch [`Routes::partition`]'s, these may not.
fn train_sets(routes: &Routes) -> BTreeSet<Vec<TrainId>> {
    routes.iter_routes().filter(|r| !r.trains.is_empty()).map(|r| r.trains.clone()).collect()
}

/// Runs one scenario; see the module docs for the invariants.
fn run_scenario(tt: Timetable, ops: Vec<Op>, sources_per_feed: u32) -> Result<(), TestCaseError> {
    let num_trains = tt.num_trains() as u32;
    let n = tt.num_stations() as u32;
    if num_trains == 0 || n == 0 {
        return Ok(());
    }
    let mut rotate = 0u32;
    let mut net = Network::new(tt);
    let cached = ProfileEngine::new().threads(2).with_cache(16);
    let warm = ProfileEngine::new();
    for op in ops {
        match op {
            Op::Feed(raw) => {
                let events = to_events(&raw, num_trains);
                let gen_before = net.generation();
                let summary = net.apply_feed(&events);
                // One generation bump per feed, zero when the net effect
                // was nil — never one per event.
                let expected = u64::from(summary.changed());
                prop_assert_eq!(
                    net.generation(),
                    gen_before + expected,
                    "{} events must cost {} bumps",
                    events.len(),
                    expected
                );
                // Every touched route is rewritten.
                prop_assert!(
                    summary.touched_routes <= summary.repatched_routes,
                    "summary {:?} skips a touched route",
                    summary
                );
                if !summary.changed() {
                    prop_assert_eq!(&summary, &FeedSummary::default());
                }
                // The feed's re-split converged to a fresh partition, and
                // the followed graph is the graph of the followed partition.
                prop_assert_eq!(
                    train_sets(net.routes()),
                    train_sets(&Routes::partition(net.timetable())),
                    "partition diverged after {:?}",
                    &events
                );
                prop_assert!(
                    *net.graph() == TdGraph::build(net.timetable(), net.routes()),
                    "graph != TdGraph::build after {:?}",
                    &events
                );

                // The acceptance contract: bit-identical query results to a
                // from-scratch build of the same (patched) timetable.
                let rebuilt = Network::build(net.timetable());
                let fresh = ProfileEngine::new().threads(2);
                for k in 0..sources_per_feed.min(n) {
                    let s = StationId((rotate + k) % n);
                    let a = warm.one_to_all(&net, s);
                    let b = fresh.one_to_all(&rebuilt, s);
                    prop_assert_eq!(&a, &b, "source {} after feed {:?}", s, &events);
                }
                rotate = rotate.wrapping_add(sources_per_feed);
            }
            Op::Query { source } => {
                let s = StationId(source % n);
                let hit = cached.one_to_all(&net, s);
                let truth = warm.one_to_all(&net, s);
                prop_assert_eq!(&hit, &truth, "cached query from {}", s);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // Random feeds on arbitrary small timetables: delays, cancellations,
    // several events per train, mid-feed overtaking.
    #[test]
    fn fed_network_always_equals_rebuilt(
        transfer_min in prop::collection::vec(0u8..=8, 3..=6),
        trips in prop::collection::vec(trip_strategy(6), 2..=10),
        ops in prop::collection::vec(op_strategy(), 8..=14),
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        run_scenario(tt, ops, 6)?;
    }

    // The same contract on a structured city network, where routes carry
    // many trains and the multi-route repatch actually coalesces work.
    #[test]
    fn fed_city_always_equals_rebuilt(
        seed in 0u64..1000,
        ops in prop::collection::vec(op_strategy(), 5..=8),
    ) {
        let tt = generate_city(&CityConfig::sized(12, 2, seed));
        run_scenario(tt, ops, 3)?;
    }

    // The table refresh is entry-for-entry identical to rebuilding the
    // table from scratch, across arbitrary feed streams (including net-nil
    // batches and overtaking rebuilds).
    #[test]
    fn refresh_equals_rebuild(
        transfer_min in prop::collection::vec(0u8..=8, 4..=6),
        trips in prop::collection::vec(trip_strategy(6), 3..=10),
        feeds in prop::collection::vec(
            prop::collection::vec(event_strategy(), 1..=8), 1..=4),
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        let num_trains = tt.num_trains() as u32;
        let mut net = Network::new(tt);
        let mut table = DistanceTable::build(&net, &TransferSelection::Fraction(0.6));
        if table.is_empty() { return Ok(()) }
        for raw in feeds {
            let events = to_events(&raw, num_trains);
            net.apply_feed(&events);
            table.refresh(&net).expect("same epoch, always refreshable");
            let rebuilt = DistanceTable::build_for(&net, table.stations().to_vec());
            for &a in table.stations() {
                for &b in table.stations() {
                    prop_assert_eq!(
                        table.profile(a, b),
                        rebuilt.profile(a, b),
                        "D({}, {}) diverged from a rebuild",
                        a,
                        b
                    );
                }
            }
        }
    }
}

/// The acceptance contract on a whole network: profiles from **every**
/// station equal those of a from-scratch build of the same timetable.
fn assert_fed_equals_rebuilt(net: &Network) {
    let rebuilt = Network::build(net.timetable());
    let engine = ProfileEngine::new();
    for s in net.station_ids().collect::<Vec<_>>() {
        assert_eq!(
            engine.one_to_all(net, s),
            engine.one_to_all(&rebuilt, s),
            "fed != rebuilt from {s}"
        );
    }
}

/// Incremental ≡ rebuilt on the two shards the benchmark's feed metrics are
/// taken from, at its batch sizes: after **every** feed the partition has
/// the train sets of a from-scratch one, and the graph that followed
/// (appending the re-splits' subroutes) equals `TdGraph::build` of the same
/// partition field for field. At the end of the stream the fed network
/// settles about as many connections as a rebuild.
#[test]
fn refit_streams_keep_the_graph_equal_to_a_build() {
    use best_connections::timetable::synthetic::presets::{germany_like, metro_like};
    use rand::{rngs::StdRng, SeedableRng};
    for (preset, batch) in [(metro_like(0.05), 32), (germany_like(0.5), 16)] {
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let mut net = Network::new(preset.timetable);
        let trains = net.timetable().num_trains() as u32;
        let mut refits = 0;
        for feed in 0..60 {
            let summary = net.apply_feed(&pt_bench::random_feed(&mut rng, trains, batch, 45));
            refits += usize::from(summary.refit_routes > 0);
            assert_eq!(
                train_sets(net.routes()),
                train_sets(&Routes::partition(net.timetable())),
                "{}: partition diverged after feed {feed}",
                preset.name
            );
            assert!(
                *net.graph() == TdGraph::build(net.timetable(), net.routes()),
                "{}: graph != TdGraph::build after feed {feed}",
                preset.name
            );
        }
        let rebuilt = Network::build(net.timetable());
        let n = net.num_stations();
        let engine = ProfileEngine::new();
        let settled = |net: &Network| -> u64 {
            (0..10)
                .map(|k| engine.one_to_all_with_stats(net, StationId((k * n / 10) as u32)))
                .map(|r| r.stats.settled)
                .sum()
        };
        // This stream reads +0.00 % on Metro and -0.003 % on Germany: the
        // partition converged, so only ids and emptied routes differ. The
        // bound is 1 %.
        let (fed, fresh) = (settled(&net), settled(&rebuilt));
        assert!(
            fed.abs_diff(fresh) * 100 <= fresh,
            "{}: fed settles {fed} connections, a rebuild {fresh}",
            preset.name
        );
        assert!(refits > 20, "{}: only {refits} of 60 feeds appended routes", preset.name);
    }
}

/// A three-train, two-route network for the deterministic companions.
fn two_route_net() -> Timetable {
    let mut b = TimetableBuilder::new(Period::DAY);
    let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
    for h in [8, 9] {
        b.add_simple_trip(
            &[s[0], s[1], s[2]],
            Time::hm(h, 0),
            &[Dur::minutes(10), Dur::minutes(10)],
            Dur::ZERO,
        )
        .unwrap();
    }
    b.add_simple_trip(&[s[3], s[1]], Time::hm(8, 30), &[Dur::minutes(5)], Dur::ZERO).unwrap();
    b.build().unwrap()
}

#[test]
fn cancelling_a_never_delayed_train_is_unchanged() {
    let mut net = Network::new(two_route_net());
    let g0 = net.generation();
    let before = net.timetable().connections().to_vec();
    assert_eq!(net.apply_cancel(TrainId(0)), FeedSummary::default());
    // The feed form agrees, and neither bumps the generation.
    let summary = net.apply_feed(&[DelayEvent::Cancel { train: TrainId(1) }]);
    assert_eq!(summary, FeedSummary::default());
    assert!(!summary.changed());
    assert_eq!(net.generation(), g0, "no-op cancels must not invalidate caches");
    assert_eq!(net.timetable().connections(), before.as_slice());
}

#[test]
fn cancel_then_redelay_round_trips() {
    let mut net = Network::new(two_route_net());
    let schedule = net.timetable().connections().to_vec();
    // Delay enough to re-sort buckets (the 08:00 train moves behind the
    // 09:00 one), remember the delayed state.
    assert!(net.apply_delay(TrainId(0), 0, Dur::minutes(70), Recovery::None).changed());
    let delayed = net.timetable().connections().to_vec();
    // Cancel restores the schedule exactly…
    assert!(net.apply_cancel(TrainId(0)).changed());
    assert_eq!(net.timetable().connections(), schedule.as_slice());
    // …re-announcing the same delay restores the delayed state exactly…
    assert!(net.apply_delay(TrainId(0), 0, Dur::minutes(70), Recovery::None).changed());
    assert_eq!(net.timetable().connections(), delayed.as_slice());
    // …and a second cancel round-trips again, with the network still
    // query-identical to a from-scratch build.
    assert!(net.apply_cancel(TrainId(0)).changed());
    assert_eq!(net.timetable().connections(), schedule.as_slice());
    assert_fed_equals_rebuilt(&net);
}

#[test]
fn hundred_event_feed_costs_one_bump_and_one_repatch_per_route() {
    // The acceptance criterion: a 100-event feed performs one generation
    // bump and at most one repatch per touched route.
    let mut net = Network::new(two_route_net());
    let events: Vec<DelayEvent> = (0..100)
        .map(|i| DelayEvent::Delay {
            train: TrainId(i % 3),
            from_hop: (i % 2) as u16,
            delay: Dur::minutes(1), // 100 small delays pile up per train
            recovery: Recovery::None,
        })
        .collect();
    let g0 = net.generation();
    let summary = net.apply_feed(&events);
    assert!(summary.changed());
    assert_eq!(net.generation(), g0 + 1, "100 events must cost exactly one bump");
    // Both routes are touched, and each was serviced exactly once.
    assert_eq!(summary.touched_routes, 2);
    assert_eq!(summary.repatched_routes + summary.refit_routes, summary.touched_routes);
    // Query-identical to a rebuild of the patched timetable.
    assert_fed_equals_rebuilt(&net);
}

#[test]
fn feed_equals_sequential_apply_delay_calls() {
    let tt = two_route_net();
    let mut batched = Network::new(tt.clone());
    let mut sequential = Network::new(tt);
    let events =
        [(TrainId(0), 0u16, 5u32), (TrainId(2), 0, 12), (TrainId(0), 1, 3), (TrainId(1), 0, 7)];
    let feed: Vec<DelayEvent> = events
        .iter()
        .map(|&(train, from_hop, min)| DelayEvent::Delay {
            train,
            from_hop,
            delay: Dur::minutes(min),
            recovery: Recovery::None,
        })
        .collect();
    let summary = batched.apply_feed(&feed);
    for &(train, from_hop, min) in &events {
        sequential.apply_delay(train, from_hop, Dur::minutes(min), Recovery::None);
    }
    assert_eq!(batched.timetable().connections(), sequential.timetable().connections());
    assert!(summary.changed());
    assert_eq!(summary.refit_routes, 0, "every train keeps its route");
    // The batch spent one generation where the sequence spent four.
    assert_eq!(batched.generation(), 1);
    assert_eq!(sequential.generation(), 4);
    let engine = ProfileEngine::new();
    for s in batched.station_ids().collect::<Vec<_>>() {
        assert_eq!(engine.one_to_all(&batched, s), ProfileEngine::new().one_to_all(&sequential, s));
    }
}

#[test]
fn mid_feed_overtaking_scopes_the_fallback_to_the_offending_route() {
    let mut net = Network::new(two_route_net());
    let route_b = net.routes().route_of(TrainId(2));
    let trains_b = net.routes().route(route_b).trains.clone();
    // Train 0 lands exactly on train 1's slot (equal departures break
    // FIFO on their shared route); train 2's route stays FIFO.
    let route_a = net.routes().route_of(TrainId(0));
    let summary = net.apply_feed(&[
        DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(60),
            recovery: Recovery::None,
        },
        DelayEvent::Delay {
            train: TrainId(2),
            from_hop: 0,
            delay: Dur::minutes(4),
            recovery: Recovery::None,
        },
    ]);
    // Train 0 departs first (ties go to the lower id), so it keeps the
    // route id and train 1 moves to the one subroute the split appended.
    assert_eq!(summary.refit_routes, 1, "only the offending route's class is re-split");
    assert_eq!(summary.repatched_routes, 2, "the two touched routes, each once");
    // The bystander route kept its id and trains through the re-split.
    assert_eq!(net.routes().route(route_b).trains, trains_b);
    // The offending route was split: its two trains no longer share one.
    assert_eq!(net.routes().route(route_a).trains, vec![TrainId(0)]);
    assert_eq!(net.routes().route(net.routes().route_of(TrainId(1))).trains, vec![TrainId(1)]);
    // And the result is still query-identical to a rebuild.
    assert_fed_equals_rebuilt(&net);
}

/// Two trains on A→B→C with a 10-minute transfer at B.
fn two_train_line(starts: [Time; 2]) -> (Timetable, [StationId; 3]) {
    let mut b = TimetableBuilder::new(Period::DAY);
    let a = b.add_named_station("A", Dur::minutes(2));
    let via = b.add_named_station("B", Dur::minutes(10));
    let c = b.add_named_station("C", Dur::minutes(2));
    for start in starts {
        b.add_simple_trip(
            &[a, via, c],
            start,
            &[Dur::minutes(10), Dur::minutes(10)],
            Dur::minutes(1),
        )
        .unwrap();
    }
    (b.build().unwrap(), [a, via, c])
}

/// Feeds `events` one at a time in **every** order, holding fed ≡ rebuilt
/// from every station after each; then withdraws every announcement and
/// expects the published schedule back. `check` sees the network after
/// the last event of the order given.
fn assert_faithful_in_any_order(tt: &Timetable, events: &[DelayEvent], check: impl Fn(&Network)) {
    fn orders(
        rest: &mut Vec<DelayEvent>,
        head: &mut Vec<DelayEvent>,
        out: &mut Vec<Vec<DelayEvent>>,
    ) {
        if rest.is_empty() {
            out.push(head.clone());
        }
        for i in 0..rest.len() {
            head.push(rest.remove(i));
            orders(rest, head, out);
            rest.insert(i, head.pop().unwrap());
        }
    }
    let mut all = Vec::new();
    orders(&mut events.to_vec(), &mut Vec::new(), &mut all);
    for order in all {
        let mut net = Network::build(tt);
        for event in &order {
            net.apply_feed(std::slice::from_ref(event));
            assert_fed_equals_rebuilt(&net);
        }
        if order == events {
            check(&net);
        }
        let cancels: Vec<DelayEvent> =
            (0..tt.num_trains() as u32).map(|t| DelayEvent::Cancel { train: TrainId(t) }).collect();
        net.apply_feed(&cancels);
        assert_eq!(net.timetable().connections(), tt.connections(), "cancel restores the schedule");
        assert_fed_equals_rebuilt(&net);
    }
}

#[test]
fn delay_over_the_end_of_the_period_keeps_fed_equal_to_rebuilt() {
    // Train 1 is published across midnight: A 23:53 → B 24:03, B 00:04 →
    // C 00:14. Two delays add up on train 0 (23:13 from A) until it runs
    // one minute ahead of train 1 and leaves B at 00:03, the instant
    // train 1 pulls in: a departure moved over the end of the period.
    let (tt, [a, _, c]) = two_train_line([Time::hm(23, 13), Time::hm(23, 53)]);
    let late = |minutes| DelayEvent::Delay {
        train: TrainId(0),
        from_hop: 0,
        delay: Dur::minutes(minutes),
        recovery: Recovery::None,
    };
    assert_faithful_in_any_order(&tt, &[late(28), late(11)], |net| {
        // Changing at B takes ten minutes, so a rider on train 1 stays on
        // it — a from-scratch partition used to put both trains on one
        // route and hand that rider train 0's earlier arrival.
        let from_a = ProfileEngine::new().one_to_all(net, a);
        assert_eq!(from_a.earliest_arrival(c, Time::hm(23, 53)), Time::hm(24, 14));
        assert_eq!(from_a.earliest_arrival(c, Time::hm(23, 52)), Time::hm(24, 13));
    });
}

#[test]
fn catch_up_larger_than_the_dwell_keeps_fed_equal_to_rebuilt() {
    // Both trains recover more on the second hop than they dwell at B, so
    // each leaves B before it has arrived there: train 0 arrives 08:20
    // (left 08:13), train 1 arrives 08:32 (left 08:24). The collision and
    // its cancellation first split the two onto routes of their own, which
    // a fed network keeps and a from-scratch partition used to undo.
    let (tt, [a, _, c]) = two_train_line([Time::hm(8, 0), Time::hm(8, 12)]);
    let delay = |train, minutes, per_hop| DelayEvent::Delay {
        train: TrainId(train),
        from_hop: 0,
        delay: Dur::minutes(minutes),
        recovery: match per_hop {
            0 => Recovery::None,
            m => Recovery::CatchUp { per_hop: Dur::minutes(m) },
        },
    };
    let events = [
        delay(0, 12, 0),
        DelayEvent::Cancel { train: TrainId(0) },
        delay(0, 10, 8),
        delay(1, 10, 9),
    ];
    assert_faithful_in_any_order(&tt, &events, |net| {
        // Four minutes are not enough to change at B: the rider who
        // reaches B at 08:20 on train 0 has missed both trains for today.
        let from_a = ProfileEngine::new().one_to_all(net, a);
        assert_eq!(from_a.earliest_arrival(c, Time::hm(8, 10)), Time::hm(24 + 8, 23));
    });
}

#[test]
fn refresh_survives_a_log_overflow_with_a_full_recompute() {
    let mut net = Network::new(two_route_net());
    let mut table = DistanceTable::build_for(&net, vec![StationId(0), StationId(1), StationId(2)]);
    // 70 single-delay feeds behind: one refresh recomputes every row and
    // still matches a from-scratch build.
    for i in 0..70u32 {
        net.apply_delay(TrainId(i % 3), 0, Dur::minutes(1), Recovery::None);
    }
    let rows = table.refresh(&net).expect("same epoch");
    assert_eq!(rows, table.len(), "a refresh recomputes every row");
    let rebuilt = DistanceTable::build_for(&net, table.stations().to_vec());
    for &a in table.stations() {
        for &b in table.stations() {
            assert_eq!(table.profile(a, b), rebuilt.profile(a, b), "{a}→{b}");
        }
    }
}

#[test]
fn a_cancel_re_merges_a_split_route_and_leaves_one_route_empty() {
    use best_connections::spcs::{earliest_journey, time_query};
    // Two trains on A→B→C, twelve minutes apart.
    let (tt, stations) = two_train_line([Time::hm(8, 0), Time::hm(8, 12)]);
    let mut net = Network::new(tt);
    assert_eq!(net.routes().len(), 1);

    // Train 0 lands on train 1's slot: the route splits in two.
    let delay = DelayEvent::Delay {
        train: TrainId(0),
        from_hop: 0,
        delay: Dur::minutes(12),
        recovery: Recovery::None,
    };
    assert_eq!(net.apply_feed(&[delay]).refit_routes, 1);
    assert_eq!(net.routes().len(), 2);
    assert_ne!(net.routes().route_of(TrainId(0)), net.routes().route_of(TrainId(1)));

    // The cancel re-merges the class in that same feed: train 1 moves back
    // to route 0, and the appended route stays, empty.
    let summary = net.apply_feed(&[DelayEvent::Cancel { train: TrainId(0) }]);
    assert!(summary.changed());
    assert_eq!(summary.repatched_routes, 2);
    assert_eq!(summary.refit_routes, 0);
    assert_eq!(net.routes().len(), 2);
    assert_eq!(net.routes().route(RouteId(0)).trains, vec![TrainId(0), TrainId(1)]);
    assert!(net.routes().route(RouteId(1)).trains.is_empty());
    assert_eq!(train_sets(net.routes()), train_sets(&Routes::partition(net.timetable())));
    assert!(*net.graph() == TdGraph::build(net.timetable(), net.routes()));

    // Every search answers like a rebuild, the empty route's never-served
    // hops notwithstanding.
    let rebuilt = Network::build(net.timetable());
    assert_eq!(rebuilt.routes().len(), 1);
    for s in stations {
        for dep in (0..40).map(|k| Time::hm(7, 0) + Dur::minutes(3 * k)) {
            assert_eq!(
                time_query::earliest_arrivals(&net, s, dep).arrival,
                time_query::earliest_arrivals(&rebuilt, s, dep).arrival,
                "time query from {s} at {dep}"
            );
            for t in stations {
                assert_eq!(
                    earliest_journey(&net, s, dep, t),
                    earliest_journey(&rebuilt, s, dep, t),
                    "journey {s}→{t} at {dep}"
                );
            }
        }
        for mode in [KernelMode::Scalar, KernelMode::Soa] {
            let engine = ProfileEngine::new().kernel(mode);
            assert_eq!(engine.one_to_all(&net, s), engine.one_to_all(&rebuilt, s), "{mode:?}");
        }
    }
}

#[test]
fn feed_invalidates_the_cache_once() {
    let mut net = Network::new(two_route_net());
    let engine = ProfileEngine::new().with_cache(8);
    let s = StationId(0);
    let _ = engine.one_to_all(&net, s);
    let summary = net.apply_feed(&[
        DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(3),
            recovery: Recovery::None,
        },
        DelayEvent::Delay {
            train: TrainId(1),
            from_hop: 0,
            delay: Dur::minutes(3),
            recovery: Recovery::None,
        },
    ]);
    assert!(summary.changed());
    // First post-feed query misses (one new generation), the second hits:
    // the whole feed cost one invalidation.
    let after = engine.one_to_all_with_stats(&net, s);
    assert_eq!(after.stats.cache_misses, 1);
    let again = engine.one_to_all_with_stats(&net, s);
    assert_eq!(again.stats.cache_hits, 1);
}

#[test]
fn workspaces_stay_warm_across_a_feed() {
    let mut net = Network::new(two_route_net());
    let engine = ProfileEngine::new().threads(2);
    let sources: Vec<StationId> = net.station_ids().collect();
    for &s in &sources {
        let _ = engine.one_to_all(&net, s);
    }
    let warm = engine.workspace_grow_events();
    // A FIFO-preserving feed keeps graph dimensions: zero further growth.
    let summary = net.apply_feed(&[
        DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 1,
            delay: Dur::minutes(3),
            recovery: Recovery::None,
        },
        DelayEvent::Delay {
            train: TrainId(2),
            from_hop: 0,
            delay: Dur::minutes(2),
            recovery: Recovery::None,
        },
    ]);
    assert_eq!(summary.refit_routes, 0);
    for &s in &sources {
        let _ = engine.one_to_all(&net, s);
    }
    assert_eq!(engine.workspace_grow_events(), warm, "feed → query must not allocate");
}
