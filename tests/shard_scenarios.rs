//! Scenario harness for the **sharded multi-network router** (the serving
//! layer above the paper's engines).
//!
//! Drives deterministic random scenarios — interleaved routed queries,
//! batches, station-to-station calls and *mixed* shard-tagged feeds drawn
//! from the shared adversarial event mix (`tests/common`) — against a
//! [`ShardedService`], mirrored by one standalone [`Network`] per shard
//! that receives exactly the same events.
//! After every step the routing contract is asserted:
//!
//! * every routed query result is **identical** to the same query on the
//!   standalone copy of the owning network — including after every mixed
//!   feed,
//! * each shard's generation moves by exactly one per feed that changed it
//!   and not at all otherwise (untouched shards never move),
//! * each shard's distance table is fresh again after every feed (the
//!   router's one scoped refresh per shard),
//! * cross-shard station-to-station queries come back as the typed
//!   [`RouterError::CrossShard`] with the correct owners.
//!
//! Deterministic companions cover the router edge cases: a directory that
//! maps every station, the `WrongShard` redirect round-trip, the
//! empty-shard (net-nil) feed, and per-shard cache isolation.

mod common;

use proptest::prelude::*;

use best_connections::prelude::*;
use common::{build, event_strategy, trip_strategy, RawEvent, TripSpec};

/// One shard's timetable: a transfer time per station (3..=5 stations)
/// plus trips over them, built by the shared [`build`].
#[derive(Debug, Clone)]
struct ShardSpec {
    transfer_min: Vec<u8>,
    trips: Vec<TripSpec>,
}

fn shard_strategy() -> impl Strategy<Value = ShardSpec> {
    (3usize..=5)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(0u8..=6, n),
                prop::collection::vec(trip_strategy(n as u8), 2..=6),
            )
        })
        .prop_map(|(transfer_min, trips)| ShardSpec { transfer_min, trips })
}

/// One step of a scenario.
#[derive(Debug, Clone)]
enum Op {
    Feed(Vec<(u8, RawEvent)>),
    Query { station: u32 },
    S2s { s: u32, t: u32 },
    Batch { stations: Vec<u32> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => prop::collection::vec((0u8..8, event_strategy()), 1..=10).prop_map(Op::Feed),
        2 => (0u32..1024).prop_map(|station| Op::Query { station }),
        1 => (0u32..1024, 0u32..1024).prop_map(|(s, t)| Op::S2s { s, t }),
        1 => prop::collection::vec(0u32..1024, 2..=6).prop_map(|stations| Op::Batch { stations }),
    ]
}

/// Asserts one routed one-to-all against the standalone mirror.
fn check_query(
    svc: &mut ShardedService,
    mirrors: &[Network],
    global: StationId,
) -> Result<(), TestCaseError> {
    let (shard, local) = svc.locate(global).expect("workload stays in range");
    let routed = svc.one_to_all(global).expect("located stations answer");
    prop_assert_eq!(routed.shard, shard);
    let want = ProfileEngine::new().one_to_all(&mirrors[shard.idx()], local);
    prop_assert_eq!(&routed.value, &want, "sharded != standalone from {} ({})", global, shard);
    Ok(())
}

/// Runs one scenario; see the module docs for the invariants.
fn run_scenario(specs: &[ShardSpec], ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut nets = Vec::new();
    for spec in specs {
        match build(&spec.transfer_min, &spec.trips) {
            Some(tt) => nets.push(Network::new(tt)),
            None => return Ok(()), // degenerate timetable: skip the case
        }
    }
    // Every generated shard has >= 3 stations, so 0 and 1 always exist:
    // each shard carries a real distance table the router must keep fresh.
    let mut svc = ShardedService::builder()
        .threads(2)
        .cache(16)
        .tables(TransferSelection::Explicit(vec![StationId(0), StationId(1)]))
        .build(nets);
    let mirrors: &mut Vec<Network> = &mut svc
        .shard_ids()
        .map(|sh| Network::build(svc.network(sh).unwrap().timetable()))
        .collect();
    let num_shards = svc.num_shards() as u8;
    let total = svc.num_stations() as u32;

    for op in ops {
        match op {
            Op::Feed(raw) => {
                let feed: Vec<(ShardId, DelayEvent)> = raw
                    .iter()
                    .map(|(pick, ev)| {
                        let shard = ShardId((pick % num_shards) as u32);
                        let trains = mirrors[shard.idx()].timetable().num_trains() as u32;
                        (shard, ev.to_event(trains.max(1)))
                    })
                    .collect();
                let gens: Vec<u64> =
                    svc.shard_ids().map(|sh| svc.network(sh).unwrap().generation()).collect();
                let outcomes = svc.apply_feed(&feed).expect("tagged shards exist");
                // One outcome per fed shard, ascending.
                let mut fed: Vec<ShardId> = feed.iter().map(|&(sh, _)| sh).collect();
                fed.sort_unstable();
                fed.dedup();
                prop_assert_eq!(outcomes.iter().map(|&(sh, _)| sh).collect::<Vec<_>>(), fed);

                // Mirror each shard's slice of the feed, in order.
                for (shard, mirror) in svc.shard_ids().zip(mirrors.iter_mut()) {
                    let slice: Vec<DelayEvent> =
                        feed.iter().filter(|(sh, _)| *sh == shard).map(|&(_, ev)| ev).collect();
                    let gen_now = svc.network(shard).unwrap().generation();
                    let before = gens[shard.idx()];
                    if slice.is_empty() {
                        prop_assert_eq!(gen_now, before, "untouched {} moved", shard);
                        continue;
                    }
                    let mirror_summary = mirror.apply_feed(&slice);
                    let (_, outcome) =
                        outcomes.iter().find(|&&(sh, _)| sh == shard).expect("fed shard");
                    prop_assert_eq!(outcome.published.is_some(), mirror_summary.changed());
                    prop_assert_eq!(
                        outcome.summary.changed(),
                        mirror_summary.changed(),
                        "{} disagrees with its mirror about the feed",
                        shard
                    );
                    // One generation bump per shard per feed (zero if nil).
                    let expected = before + u64::from(mirror_summary.changed());
                    prop_assert_eq!(gen_now, expected, "{} must bump once per feed", shard);
                    // Once the shard's refresher has filled the current
                    // snapshot, its table is exact for that state.
                    let snap = svc.wait_for_table(shard).unwrap();
                    prop_assert_eq!(snap.generation(), expected);
                    let table = snap.table().expect("tables enabled");
                    prop_assert!(table.check_fresh(&snap).is_ok());
                    let rebuilt = DistanceTable::build_for(&snap, table.stations().to_vec());
                    for &a in table.stations() {
                        for &b in table.stations() {
                            prop_assert_eq!(table.profile(a, b), rebuilt.profile(a, b));
                        }
                    }
                }
                // Post-feed: every shard still answers like its mirror.
                for shard in svc.shard_ids() {
                    let g = svc.global_id(shard, StationId(0)).unwrap();
                    check_query(&mut svc, mirrors, g)?;
                }
            }
            Op::Query { station } => {
                check_query(&mut svc, mirrors, StationId(station % total))?;
            }
            Op::S2s { s, t } => {
                let (s, t) = (StationId(s % total), StationId(t % total));
                let (s_shard, s_local) = svc.locate(s).unwrap();
                let (t_shard, t_local) = svc.locate(t).unwrap();
                let got = svc.s2s(s, t);
                if s_shard != t_shard {
                    prop_assert_eq!(
                        got.unwrap_err(),
                        RouterError::CrossShard { source: s_shard, target: t_shard }
                    );
                } else {
                    let routed = got.expect("same-shard pair answers");
                    prop_assert_eq!(routed.shard, s_shard);
                    let want = ProfileEngine::new().one_to_all(&mirrors[s_shard.idx()], s_local);
                    prop_assert_eq!(
                        &routed.value.profile,
                        want.profile(t_local),
                        "s2s {}→{} on {}",
                        s,
                        t,
                        s_shard
                    );
                }
            }
            Op::Batch { stations } => {
                let globals: Vec<StationId> =
                    stations.iter().map(|&s| StationId(s % total)).collect();
                let out = svc.many_to_all(&globals);
                prop_assert_eq!(out.len(), globals.len());
                for (r, &g) in out.iter().zip(&globals) {
                    let (shard, local) = svc.locate(g).unwrap();
                    let routed = r.as_ref().expect("located stations answer");
                    prop_assert_eq!(routed.shard, shard);
                    let want = ProfileEngine::new().one_to_all(&mirrors[shard.idx()], local);
                    prop_assert_eq!(&routed.value, &want, "batched query from {}", g);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    // Random shard sets under random interleavings of routed queries,
    // batches, s2s calls and mixed feeds.
    #[test]
    fn sharded_service_always_equals_standalone_networks(
        specs in prop::collection::vec(shard_strategy(), 2..=3),
        ops in prop::collection::vec(op_strategy(), 6..=10),
    ) {
        run_scenario(&specs, ops)?;
    }
}

/// Two small two-line networks for the deterministic companions;
/// `offset_min` staggers the schedules so the shards answer differently.
fn two_city_service(cache: usize) -> ShardedService {
    let city = |offset_min: u32| {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(1))).collect();
        for h in [7u32, 8, 9] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0) + Dur::minutes(offset_min),
                &[Dur::minutes(12), Dur::minutes(9)],
                Dur::ZERO,
            )
            .unwrap();
        }
        Network::new(b.build().unwrap())
    };
    ShardedService::builder().cache(cache).build(vec![city(0), city(17)])
}

#[test]
fn directory_maps_every_station_both_ways() {
    let svc = two_city_service(4);
    assert_eq!(svc.num_stations(), 6);
    for shard in svc.shard_ids() {
        for g in svc.station_range(shard).unwrap() {
            let (owner, local) = svc.locate(StationId(g)).unwrap();
            assert_eq!(owner, shard, "global {g}");
            assert_eq!(svc.global_id(shard, local).unwrap(), StationId(g));
        }
    }
    assert!(matches!(
        svc.locate(StationId(6)),
        Err(RouterError::UnknownStation { station: StationId(6) })
    ));
}

#[test]
fn wrong_shard_error_redirects_to_the_owner() {
    let svc = two_city_service(4);
    let global = svc.global_id(ShardId(1), StationId(2)).unwrap();
    let err = svc.one_to_all_on(ShardId(0), global).unwrap_err();
    let RouterError::WrongShard { owner, queried, station } = err else {
        panic!("expected WrongShard, got {err:?}");
    };
    assert_eq!((station, queried, owner), (global, ShardId(0), ShardId(1)));
    // Redirect round-trip: the owner answers, identically to plain routing.
    let redirected = svc.one_to_all_on(owner, global).unwrap();
    assert_eq!(redirected.shard, ShardId(1));
    assert_eq!(redirected.value, svc.one_to_all(global).unwrap().value);
}

#[test]
fn empty_shard_feed_bumps_nothing() {
    let svc = two_city_service(4);
    let gens: Vec<u64> = svc.shard_ids().map(|sh| svc.network(sh).unwrap().generation()).collect();
    // A cancellation of a never-delayed train nets out: no bump anywhere,
    // and shard 1 received no events at all.
    let outcomes =
        svc.apply_feed(&[(ShardId(0), DelayEvent::Cancel { train: TrainId(0) })]).unwrap();
    assert_eq!(outcomes.len(), 1, "shard without events has no outcome");
    let (shard, outcome) = &outcomes[0];
    assert_eq!(*shard, ShardId(0));
    assert!(!outcome.summary.changed());
    assert!(outcome.published.is_none());
    let after: Vec<u64> = svc.shard_ids().map(|sh| svc.network(sh).unwrap().generation()).collect();
    assert_eq!(after, gens, "net-nil feed must not bump any shard");
}

#[test]
fn feed_to_one_shard_cannot_evict_anothers_hits() {
    let svc = two_city_service(4);
    let a = svc.global_id(ShardId(0), StationId(0)).unwrap();
    let b = svc.global_id(ShardId(1), StationId(0)).unwrap();
    let _ = svc.one_to_all(a).unwrap();
    let _ = svc.one_to_all(b).unwrap();
    // A real delay feed to shard A only.
    let outcomes = svc
        .apply_feed(&[(
            ShardId(0),
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(6),
                recovery: Recovery::None,
            },
        )])
        .unwrap();
    assert!(outcomes[0].1.summary.changed());
    // Shard B's stripe still hits…
    let b_before = svc.shard_cache_stats(ShardId(1)).unwrap().unwrap();
    let _ = svc.one_to_all(b).unwrap();
    let b_after = svc.shard_cache_stats(ShardId(1)).unwrap().unwrap();
    assert_eq!(b_after.hits, b_before.hits + 1, "shard A's feed must not touch B's stripe");
    assert_eq!(b_after.evictions, 0);
    // …while shard A's own entry stopped matching (new generation).
    let a_before = svc.shard_cache_stats(ShardId(0)).unwrap().unwrap();
    let _ = svc.one_to_all(a).unwrap();
    let a_after = svc.shard_cache_stats(ShardId(0)).unwrap().unwrap();
    assert_eq!(a_after.misses, a_before.misses + 1, "shard A must re-search after its feed");
}
