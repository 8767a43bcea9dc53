//! Scenario harness for the fully dynamic delay subsystem (paper §5.1).
//!
//! Drives deterministic random sequences of ~50 interleaved delays and
//! queries against a live [`Network`]. After **every** patch, the invariant
//! under test is the acceptance contract of the dynamic path: the
//! incrementally patched network (`Timetable::patch_feed` +
//! `Routes::repatch_feed` + `TdGraph::repatch_routes`, with the overtaking
//! fallback — each delay a one-event feed) must be **query-identical** to a
//! from-scratch `Network::build` of the same timetable — from every source.
//! Queries in between stream through a persistent cached engine and must
//! equal an uncached one.
//!
//! Deterministic companions below the proptest pin down the two update
//! kinds (`Patched` vs `Rebuilt`) and the warm-workspace guarantee across a
//! patch → query cycle.

use proptest::prelude::*;

use best_connections::prelude::*;
use best_connections::timetable::synthetic::city::{generate_city, CityConfig};

/// A random trip: station path (indices into 0..n), start minute, leg
/// durations in minutes, dwell minutes (as in `tests/random_timetables.rs`).
#[derive(Debug, Clone)]
struct TripSpec {
    path: Vec<u8>,
    start_min: u32,
    leg_min: Vec<u16>,
    dwell_min: u8,
}

fn trip_strategy(n: u8) -> impl Strategy<Value = TripSpec> {
    (2usize..=5)
        .prop_flat_map(move |len| {
            (
                prop::collection::vec(0..n, len),
                0u32..(24 * 60),
                prop::collection::vec(1u16..=130, len - 1),
                0u8..=5,
            )
        })
        .prop_map(|(path, start_min, leg_min, dwell_min)| TripSpec {
            path,
            start_min,
            leg_min,
            dwell_min,
        })
}

fn build(transfer_min: &[u8], trips: Vec<TripSpec>) -> Option<Timetable> {
    let mut b = TimetableBuilder::new(Period::DAY);
    for (i, &tm) in transfer_min.iter().enumerate() {
        b.add_named_station(format!("S{i}"), Dur::minutes(tm as u32));
    }
    let mut added = 0;
    for t in trips {
        let mut path: Vec<StationId> = Vec::new();
        for &p in &t.path {
            let s = StationId(p as u32);
            if path.last() != Some(&s) {
                path.push(s);
            }
        }
        if path.len() < 2 {
            continue;
        }
        let legs: Vec<Dur> =
            t.leg_min.iter().take(path.len() - 1).map(|&m| Dur::minutes(m as u32)).collect();
        if b.add_simple_trip(&path, Time(t.start_min * 60), &legs, Dur::minutes(t.dwell_min as u32))
            .is_err()
        {
            return None;
        }
        added += 1;
    }
    if added == 0 {
        return None;
    }
    b.build().ok()
}

/// One step of a scenario: disrupt a train or answer a query.
#[derive(Debug, Clone)]
enum Op {
    Delay { train: u32, hop: u16, delay_min: u16, recover_min: u8 },
    Query { source: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u32..1024, 0u16..4, 1u16..200, 0u8..30).prop_map(
            |(train, hop, delay_min, recover_min)| Op::Delay { train, hop, delay_min, recover_min }
        ),
        3 => (0u32..1024).prop_map(|source| Op::Query { source }),
    ]
}

/// Runs one scenario, asserting patch ≡ rebuild after every delay and
/// cached ≡ uncached on every query. `sources_per_delay` caps how many
/// sources are compared against the rebuilt network after each patch
/// (rotating deterministically so the whole station set is covered over a
/// scenario) — on bigger networks comparing every source every time
/// dominates the runtime without adding coverage.
fn run_scenario(tt: Timetable, ops: Vec<Op>, sources_per_delay: u32) -> Result<(), TestCaseError> {
    let num_trains = tt.num_trains() as u32;
    let n = tt.num_stations() as u32;
    if num_trains == 0 || n == 0 {
        return Ok(());
    }
    let mut rotate = 0u32;
    let mut net = Network::new(tt);
    let cached = ProfileEngine::new().threads(2).with_cache(16);
    let warm = ProfileEngine::new();
    let mut last_gen = net.generation();
    for op in ops {
        match op {
            Op::Delay { train, hop, delay_min, recover_min } => {
                let train = TrainId(train % num_trains);
                let recovery = if recover_min == 0 {
                    Recovery::None
                } else {
                    Recovery::CatchUp { per_hop: Dur::minutes(recover_min as u32) }
                };
                let update = net.apply_delay(train, hop, Dur::minutes(delay_min as u32), recovery);
                if update == DelayUpdate::Unchanged {
                    prop_assert_eq!(net.generation(), last_gen, "no-op must not bump");
                } else {
                    prop_assert!(net.generation() > last_gen, "update must bump the generation");
                }
                last_gen = net.generation();
                prop_assert!(
                    *net.graph() == TdGraph::build(net.timetable(), net.routes()),
                    "graph != TdGraph::build after {:?} of {:?}",
                    update,
                    train
                );

                // The acceptance contract: bit-identical query results to a
                // from-scratch build of the same (patched) timetable.
                let rebuilt = Network::build(net.timetable());
                let fresh = ProfileEngine::new().threads(2);
                for k in 0..sources_per_delay.min(n) {
                    let s = StationId((rotate + k) % n);
                    let a = warm.one_to_all(&net, s);
                    let b = fresh.one_to_all(&rebuilt, s);
                    prop_assert_eq!(&a, &b, "source {} after {:?} of {:?}", s, update, train);
                }
                rotate = rotate.wrapping_add(sources_per_delay);
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

    // ~50 interleaved delays and queries on arbitrary small timetables.
    #[test]
    fn patched_network_always_equals_rebuilt(
        transfer_min in prop::collection::vec(0u8..=8, 3..=6),
        trips in prop::collection::vec(trip_strategy(6), 2..=10),
        ops in prop::collection::vec(op_strategy(), 40..=60),
    ) {
        let Some(tt) = build(&transfer_min, trips) else { return Ok(()) };
        run_scenario(tt, ops, 6)?;
    }

    // The same contract on a structured city network, where routes carry
    // many trains and the incremental PLF rewrite actually shares edges.
    #[test]
    fn patched_city_always_equals_rebuilt(
        seed in 0u64..1000,
        ops in prop::collection::vec(op_strategy(), 20..=28),
    ) {
        let tt = generate_city(&CityConfig::sized(12, 2, seed));
        run_scenario(tt, ops, 3)?;
    }
}

/// A two-train line where a small delay preserves FIFO (fast path) and a
/// large one forces overtaking (rebuild path).
fn two_train_line() -> Timetable {
    let mut b = TimetableBuilder::new(Period::DAY);
    let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
    for h in [8, 9] {
        b.add_simple_trip(
            &[s[0], s[1], s[2]],
            Time::hm(h, 0),
            &[Dur::minutes(10), Dur::minutes(10)],
            Dur::ZERO,
        )
        .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn small_delay_takes_the_patch_path_and_matches_rebuild() {
    let mut net = Network::new(two_train_line());
    // +5 min keeps the 08:00 train ahead of the 09:00 one on every hop.
    let update = net.apply_delay(TrainId(0), 0, Dur::minutes(5), Recovery::None);
    assert_eq!(update, DelayUpdate::Patched);
    let rebuilt = Network::build(net.timetable());
    for s in net.station_ids().collect::<Vec<_>>() {
        assert_eq!(
            ProfileEngine::new().one_to_all(&net, s),
            ProfileEngine::new().one_to_all(&rebuilt, s),
            "patched != rebuilt from {s}"
        );
    }
}

#[test]
fn overtaking_delay_takes_the_rebuild_path_and_matches_rebuild() {
    let mut net = Network::new(two_train_line());
    // +75 min moves the 08:00 train to 09:15: it now departs after the
    // 09:00 train but *arrives* after it too on equal legs — that is still
    // FIFO. Delay hop 0 only, with instant recovery, instead: the train
    // departs station 0 at 09:15 but departs station 1 on schedule at
    // 08:10 — its own trip is out of order, which can never stay FIFO
    // against its companion. Use a mid-size delay that lands exactly on
    // the other train's slot: equal departures break FIFO.
    let update = net.apply_delay(TrainId(0), 0, Dur::minutes(60), Recovery::None);
    assert_eq!(update, DelayUpdate::Rebuilt, "equal departures must repartition");
    let rebuilt = Network::build(net.timetable());
    for s in net.station_ids().collect::<Vec<_>>() {
        assert_eq!(
            ProfileEngine::new().one_to_all(&net, s),
            ProfileEngine::new().one_to_all(&rebuilt, s),
            "rebuilt-path network != rebuilt from {s}"
        );
    }
}

#[test]
fn cancelling_a_never_delayed_train_is_unchanged() {
    let mut net = Network::new(two_train_line());
    let g0 = net.generation();
    let before = net.timetable().connections().to_vec();
    assert_eq!(net.apply_cancel(TrainId(0)), DelayUpdate::Unchanged);
    // The feed form agrees, and neither bumps the generation.
    let summary = net.apply_feed(&[DelayEvent::Cancel { train: TrainId(1) }]);
    assert_eq!(summary.events, vec![DelayUpdate::Unchanged]);
    assert!(!summary.changed());
    assert_eq!(net.generation(), g0, "no-op cancels must not invalidate caches");
    assert_eq!(net.timetable().connections(), before.as_slice());
}

#[test]
fn cancel_then_redelay_round_trips() {
    let mut net = Network::new(two_train_line());
    let schedule = net.timetable().connections().to_vec();
    // Delay enough to re-sort buckets (the 08:00 train moves behind the
    // 09:00 one), remember the delayed state.
    assert_ne!(
        net.apply_delay(TrainId(0), 0, Dur::minutes(70), Recovery::None),
        DelayUpdate::Unchanged
    );
    let delayed = net.timetable().connections().to_vec();
    // Cancel restores the schedule exactly…
    assert_ne!(net.apply_cancel(TrainId(0)), DelayUpdate::Unchanged);
    assert_eq!(net.timetable().connections(), schedule.as_slice());
    // …re-announcing the same delay restores the delayed state exactly…
    assert_ne!(
        net.apply_delay(TrainId(0), 0, Dur::minutes(70), Recovery::None),
        DelayUpdate::Unchanged
    );
    assert_eq!(net.timetable().connections(), delayed.as_slice());
    // …and a second cancel round-trips again, with the network still
    // query-identical to a from-scratch build at every step.
    assert_ne!(net.apply_cancel(TrainId(0)), DelayUpdate::Unchanged);
    assert_eq!(net.timetable().connections(), schedule.as_slice());
    let rebuilt = Network::build(net.timetable());
    let engine = ProfileEngine::new();
    for s in net.station_ids().collect::<Vec<_>>() {
        assert_eq!(engine.one_to_all(&net, s), ProfileEngine::new().one_to_all(&rebuilt, s));
    }
}

#[test]
fn cancellation_past_midnight_stays_periodic() {
    let mut b = TimetableBuilder::new(Period::DAY);
    let a = b.add_named_station("A", Dur::ZERO);
    let c = b.add_named_station("B", Dur::ZERO);
    b.add_simple_trip(&[a, c], Time::hm(23, 50), &[Dur::minutes(20)], Dur::ZERO).unwrap();
    let mut net = Network::new(b.build().unwrap());
    // +30 min wraps the departure past midnight to 00:20 (period-local).
    net.apply_delay(TrainId(0), 0, Dur::minutes(30), Recovery::None);
    assert_eq!(net.timetable().conn(a)[0].dep, Time::hm(0, 20));
    // The cancellation walks it back across the period boundary: the
    // restored departure is the period-local schedule time, not 24:20.
    assert_ne!(net.apply_cancel(TrainId(0)), DelayUpdate::Unchanged);
    let conn = &net.timetable().conn(a)[0];
    assert_eq!(conn.dep, Time::hm(23, 50));
    assert_eq!(conn.dur(), Dur::minutes(20));
    assert!(net.timetable().period().contains(conn.dep));
    // And the wrap-around profile agrees with a rebuild.
    let rebuilt = Network::build(net.timetable());
    assert_eq!(
        ProfileEngine::new().one_to_all(&net, a),
        ProfileEngine::new().one_to_all(&rebuilt, a)
    );
}

#[test]
fn workspaces_stay_warm_across_a_patch_query_cycle() {
    let mut net = Network::new(two_train_line());
    let engine = ProfileEngine::new().threads(2);
    let sources: Vec<StationId> = net.station_ids().collect();
    for &s in &sources {
        let _ = engine.one_to_all(&net, s);
    }
    let warm = engine.workspace_grow_events();
    assert!(warm > 0, "warm-up must have sized the workspaces");
    // Patch (fast path: graph dimensions unchanged) → query: zero growth.
    assert_eq!(
        net.apply_delay(TrainId(0), 1, Dur::minutes(3), Recovery::None),
        DelayUpdate::Patched
    );
    for &s in &sources {
        let _ = engine.one_to_all(&net, s);
    }
    assert_eq!(engine.workspace_grow_events(), warm, "patch → query must not allocate");
}

#[test]
fn cached_repeat_is_identical_and_searchless_until_a_delay() {
    let mut net = Network::new(two_train_line());
    let engine = ProfileEngine::new().with_cache(8);
    let s = StationId(0);
    let first = engine.one_to_all_with_stats(&net, s);
    let repeat = engine.one_to_all_with_stats(&net, s);
    assert!(std::sync::Arc::ptr_eq(&first.profiles, &repeat.profiles), "hit shares the set");
    assert_eq!(repeat.stats.settled + repeat.stats.relaxed, 0, "no search on a hit");
    assert_eq!(repeat.stats.cache_hits, 1);
    net.apply_delay(TrainId(1), 0, Dur::minutes(4), Recovery::None);
    let after = engine.one_to_all_with_stats(&net, s);
    assert_eq!(after.stats.cache_misses, 1, "generation bump must invalidate");
    assert!(after.stats.settled > 0);
}
