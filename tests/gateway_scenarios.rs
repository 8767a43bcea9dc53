//! Scenario harness for the **cross-shard gateway** (stitched journeys
//! over a `ShardedService` whose shards share border stations).
//!
//! The randomized half drives the conncheck battery as a property: for
//! generated region scenarios of varying shape, every sampled cross-shard
//! pair's stitched profile must equal — byte for byte — the profile the
//! merged monolithic network computes, on the scenario as generated,
//! after a deterministic delay burst, and across live mixed feeds applied
//! through the service (reduced profiles are canonical per arrival
//! function, so equality is exact, not approximate).
//!
//! The deterministic half pins the **per-shard scope** of the border
//! sets, which live on each shard's snapshot: the service's build computes
//! none, the first stitch builds every shard's initial row once, the first
//! stitch after a feed to a shard rebuilds every border row of that shard —
//! even when the feed only touches a sub-line unreachable from the border —
//! and a feed to one shard never rebuilds another shard's rows.

use proptest::prelude::*;

use best_connections::prelude::*;
use pt_bench::conncheck::{disrupt_scenario, gateway_check, gateway_scenario};

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // Stitched ≡ monolithic over random region scenarios: pristine, after
    // a delay burst, and re-checked after every live mixed feed round
    // (the feed rounds exercise the per-shard border-set rebuild).
    #[test]
    fn stitched_cross_shard_profiles_equal_the_monolith(
        shards in 2usize..=3,
        borders in 1usize..=2,
        locals in 1usize..=4,
        trips in 4usize..=10,
        seed in 0u64..1 << 48,
        feeds in 0usize..=2,
    ) {
        let sc = gateway_scenario(shards, borders, locals, trips, seed);
        let live = gateway_check("prop", &sc, 2, feeds, 5, seed);
        prop_assert!(live.mismatches.is_empty(), "{:?}", live.mismatches);

        let burst = disrupt_scenario(&sc, 4, seed);
        let delayed = gateway_check("prop+delays", &burst, 2, 0, 0, seed);
        prop_assert!(delayed.mismatches.is_empty(), "{:?}", delayed.mismatches);
    }
}

/// Two regions meeting at border `b0`. The west shard carries, besides
/// the border line `b0 ⇄ x`, an **isolated** sub-line `y → z` with no
/// path to or from the border's component; the east shard is a plain
/// border line `b0 → c`. Train ids, in order of insertion:
/// west 0 = `b0→x`, west 1 = `x→b0`, west 2 = `y→z`; east 0 = `b0→c`.
fn border_with_isolated_subline() -> ShardedService {
    let mut west = TimetableBuilder::new(Period::DAY);
    let b = west.add_named_station("b0", Dur::minutes(3));
    let x = west.add_named_station("w_x", Dur::minutes(2));
    let y = west.add_named_station("w_y", Dur::minutes(2));
    let z = west.add_named_station("w_z", Dur::minutes(2));
    west.add_simple_trip(&[b, x], Time::hm(8, 0), &[Dur::minutes(20)], Dur::ZERO).unwrap();
    west.add_simple_trip(&[x, b], Time::hm(8, 30), &[Dur::minutes(20)], Dur::ZERO).unwrap();
    west.add_simple_trip(&[y, z], Time::hm(9, 0), &[Dur::minutes(15)], Dur::ZERO).unwrap();

    let mut east = TimetableBuilder::new(Period::DAY);
    let b = east.add_named_station("b0", Dur::minutes(3));
    let c = east.add_named_station("e_c", Dur::minutes(2));
    east.add_simple_trip(&[b, c], Time::hm(8, 40), &[Dur::minutes(15)], Dur::ZERO).unwrap();
    east.add_simple_trip(&[b, c], Time::hm(9, 40), &[Dur::minutes(15)], Dur::ZERO).unwrap();

    ShardedService::builder()
        .gateway(BorderSpec::ByName)
        .build(vec![Network::new(west.build().unwrap()), Network::new(east.build().unwrap())])
}

/// A real 10-minute delay for `train` (bumps the shard's generation).
fn delay(train: u32) -> DelayEvent {
    DelayEvent::Delay {
        train: TrainId(train),
        from_hop: 0,
        delay: Dur::minutes(10),
        recovery: Recovery::None,
    }
}

/// The cumulative per-shard border rows built, after forcing any pending
/// build by answering a cross-shard pair.
fn rows_after_query(svc: &ShardedService) -> Vec<u64> {
    let x = svc.global_id(ShardId(0), StationId(1)).unwrap();
    let c = svc.global_id(ShardId(1), StationId(1)).unwrap();
    let r = svc.s2s(x, c).expect("gateway answers cross-shard pairs");
    assert_eq!(r.shard, ShardId(1), "stitched results are attributed to the target's shard");
    svc.gateway_stats().expect("gateway enabled").rows_refreshed
}

#[test]
fn border_unreachable_feeds_refresh_only_the_fed_shards_row() {
    let svc = border_with_isolated_subline();
    let built = svc.gateway_stats().expect("gateway enabled").rows_refreshed;
    assert_eq!(built, vec![0, 0], "the build computes no border row");
    assert_eq!(rows_after_query(&svc), vec![1, 1], "the first stitch builds each initial row");
    assert_eq!(rows_after_query(&svc), vec![1, 1], "and later stitches reuse them");

    // Delay the isolated `y→z` train: no journey from the border changes,
    // but the west generation moves, so the west border row is recomputed
    // — and only it (the east shard saw no events).
    svc.apply_feed(&[(ShardId(0), delay(2))]).unwrap();
    assert_eq!(rows_after_query(&svc), vec![2, 1], "west row refreshes, east stays");
}

#[test]
fn border_reachable_feeds_refresh_exactly_the_touched_shards_row() {
    let svc = border_with_isolated_subline();
    assert_eq!(rows_after_query(&svc), vec![1, 1], "the first stitch builds each initial row");

    // Delay `b0→x`: the touched set is in the border's component, so the
    // west border row is recomputed — and only it (the east shard saw no
    // events, its generation did not move).
    svc.apply_feed(&[(ShardId(0), delay(0))]).unwrap();
    assert_eq!(rows_after_query(&svc), vec![2, 1], "west row refreshes, east stays");

    // A later feed to the east shard refreshes the east row and leaves
    // the (already-fresh) west row alone: the counters are per shard and
    // cumulative.
    svc.apply_feed(&[(ShardId(1), delay(0))]).unwrap();
    assert_eq!(rows_after_query(&svc), vec![2, 2], "east row refreshes, west already fresh");
}

#[test]
fn the_isolated_subline_really_is_unreachable_and_stitching_still_works() {
    // Guard the fixture itself: the sub-line the tests above feed really
    // is cut off from the border's component.
    let svc = border_with_isolated_subline();
    let y = svc.global_id(ShardId(0), StationId(2)).unwrap();
    let c = svc.global_id(ShardId(1), StationId(1)).unwrap();
    let from_y = svc.s2s(y, c).expect("gateway still answers, with an empty profile");
    assert!(from_y.value.profile.points().is_empty(), "y must not reach the border");

    // And a reachable pair stitches to the known journey: x 8:30 → b0
    // 8:50, 3-minute change, b0 9:40 → c 9:55.
    let x = svc.global_id(ShardId(0), StationId(1)).unwrap();
    let via_border = svc.s2s(x, c).expect("gateway answers cross-shard pairs");
    assert_eq!(
        via_border.value.profile.eval_arr(Time::hm(8, 0), Period::DAY),
        Time::hm(9, 55),
        "x → b0 → c with the border transfer buffer"
    );
}
