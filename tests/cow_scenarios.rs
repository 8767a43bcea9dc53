//! Copy-on-write correctness scenarios for the snapshot publish path.
//!
//! A published [`NetworkSnapshot`] *shares* every untouched `conn(S)`
//! bucket, route block and hop PLF with the master (and with neighbouring
//! snapshots) by refcount; its distance table is its own, filled by the
//! network's refresher for exactly its state (the table's station index and
//! transfer mask are shared). Sharing is only sound if it is never
//! observable: these scenarios pin a snapshot, hammer the master with K
//! mixed feeds, and assert the pinned state stays bitwise-identical to a
//! from-scratch rebuild of its own generation — any shared-mutable leak
//! through the new `Arc`s (a patch mutating a bucket in place instead of
//! unsharing it first) shows up as a diverged connection or profile.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use best_connections::prelude::*;
use best_connections::timetable::synthetic::city::{generate_city, CityConfig};
use best_connections::timetable::{Connection, RouteInfo};
use pt_bench::random_feed;

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    // A reader pinned across K mixed feeds sees answers bitwise-identical
    // to a from-scratch rebuild of its pinned generation, and mutating
    // the master never observably changes the pinned snapshot.
    #[test]
    fn pinned_snapshot_is_immutable_across_feeds(
        seed in 0u64..1000,
        num_feeds in 2usize..=6,
        pin_after in 0usize..=2,
    ) {
        let net = Network::new(generate_city(&CityConfig::sized(16, 3, seed)));
        let num_trains = net.timetable().num_trains() as u32;
        let n = net.num_stations() as u32;
        if num_trains == 0 || n == 0 {
            return Ok(());
        }
        let cnet = ConcurrentNetwork::with_table(net, &TransferSelection::Fraction(0.4));

        // Mixed feeds of 1–4 delays + cancellations. Advance the master a
        // little before pinning, so the pin is not always the pristine
        // initial state.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..pin_after {
            let len = rng.gen_range(1..=4);
            cnet.apply_feed(&random_feed(&mut rng, num_trains, len, 60));
        }

        // Pin the current state once the refresher has filled its table.
        let pinned = cnet.wait_for_table().expect("no fill panics");
        let pinned_gen = pinned.generation();
        // Capture the pinned state *by value* at pin time: a materialized
        // copy of every connection, and a from-scratch rebuild (fresh
        // epoch, no shared derived structures) of the same timetable.
        let conns_at_pin = pinned.timetable().connections();
        let rebuilt = Network::build(pinned.timetable());
        let table_at_pin = pinned.table().expect("table configured");

        // K mixed feeds mutate the master; the pinned snapshot must not
        // observe any of them.
        for _ in 0..num_feeds {
            let len = rng.gen_range(1..=4);
            cnet.apply_feed(&random_feed(&mut rng, num_trains, len, 60));
        }

        prop_assert_eq!(pinned.generation(), pinned_gen, "pinned generation moved");
        prop_assert_eq!(
            pinned.timetable().connections(),
            conns_at_pin,
            "a feed on the master leaked into the pinned timetable"
        );
        // The pinned table still serves the pinned state, and its entries
        // still match a from-scratch table of the pinned generation.
        prop_assert!(table_at_pin.check_fresh(pinned.network()).is_ok());
        let table_rebuilt = DistanceTable::build_for(&rebuilt, table_at_pin.stations().to_vec());
        for &a in table_at_pin.stations() {
            for &b in table_at_pin.stations() {
                prop_assert_eq!(
                    table_at_pin.profile(a, b),
                    table_rebuilt.profile(a, b),
                    "pinned D({}, {}) diverged from a rebuild of the pinned generation",
                    a,
                    b
                );
            }
        }
        // Query answers on the pinned snapshot are bitwise the answers of
        // the rebuilt network.
        let engine = ProfileEngine::new();
        for k in 0..4u32.min(n) {
            let s = StationId(k * n / 4);
            let on_pinned = engine.one_to_all(&pinned, s);
            let on_rebuilt = engine.one_to_all(&rebuilt, s);
            prop_assert_eq!(&on_pinned, &on_rebuilt, "source {} diverged on the pin", s);
        }
        // And the *current* snapshot answers like a rebuild of the
        // current state — sharing corrupted neither side — and so does the
        // table the refresher fills it with.
        let fresh = cnet.wait_for_table().expect("no fill panics");
        let fresh_rebuilt = Network::build(fresh.timetable());
        let fresh_table = fresh.table().expect("table configured");
        prop_assert!(fresh_table.check_fresh(fresh.network()).is_ok());
        let table_rebuilt = DistanceTable::build_for(&fresh_rebuilt, fresh_table.stations().to_vec());
        for &a in fresh_table.stations() {
            for &b in fresh_table.stations() {
                prop_assert_eq!(fresh_table.profile(a, b), table_rebuilt.profile(a, b));
            }
        }
        for k in 0..3u32.min(n) {
            let s = StationId(k * n / 3);
            let a = engine.one_to_all(&fresh, s);
            let b = engine.one_to_all(&fresh_rebuilt, s);
            prop_assert_eq!(&a, &b, "source {} diverged on the fresh snapshot", s);
        }
    }
}

/// A single-train delay unshares only what it touches: successive
/// snapshots share the bulk of their buckets, route blocks and PLFs, and
/// the graph topology allocation outright (no overtaking rebuild).
#[test]
fn single_delay_publish_shares_the_untouched_bulk() {
    let net = Network::new(generate_city(&CityConfig::sized(40, 5, 7)));
    let stations = net.num_stations();
    let cnet = ConcurrentNetwork::new(net);
    let before = cnet.snapshot();
    let outcome = cnet.apply_feed(&[DelayEvent::Delay {
        train: TrainId(0),
        from_hop: 0,
        delay: Dur::minutes(7),
        recovery: Recovery::None,
    }]);
    assert!(outcome.summary.changed());
    assert_eq!(outcome.summary.refit_routes, 0, "a small delay must stay on the repatch fast path");
    let after = cnet.snapshot();

    // Train 0 re-times at most one connection per hop, each in its own
    // departure station's bucket.
    let hops = before.routes().route(before.routes().route_of(TrainId(0))).num_hops();
    let shared_buckets = after.timetable().shared_buckets_with(before.timetable());
    assert!(
        shared_buckets >= stations - hops,
        "at most train 0's {hops} hop buckets may be unshared, \
         but {shared_buckets}/{stations} are shared"
    );
    assert!(shared_buckets < stations, "the touched buckets must be unshared");

    let shared_routes = after.routes().shared_routes_with(before.routes());
    assert!(
        shared_routes >= after.routes().len() - outcome.summary.touched_routes,
        "only touched routes may be unshared"
    );

    let (shared_plfs, topo_shared) = after.graph().shared_plfs_with(before.graph());
    assert!(topo_shared, "a repatch never rebuilds the topology");
    assert!(shared_plfs > 0, "untouched PLFs must stay shared");

    // The publish outcome reports the copy-on-write cost.
    assert!(outcome.publish_ns > 0);
}

/// A pinned snapshot's distance table stays the published one until a feed
/// changes the network: the refresher fills the new snapshot with a table
/// of its own, every row recomputed (the pinned reader keeps its old
/// rows), while a net-nil feed publishes nothing and keeps the very same
/// table published. The initial snapshot's table is the refresher's too:
/// it is waited for, and holds the rows of a from-scratch build.
#[test]
fn table_rows_unshare_exactly_when_rewritten() {
    let net = Network::new(generate_city(&CityConfig::sized(30, 4, 3)));
    let num_trains = net.timetable().num_trains() as u32;
    let cnet = ConcurrentNetwork::with_table(net, &TransferSelection::Fraction(0.3));
    let pinned = cnet.wait_for_table().expect("no fill panics");
    let pinned_table = pinned.table().unwrap();
    let rebuilt_at_pin = Network::build(pinned.timetable());

    // Cancelling a never-delayed train nets out to nothing: no refresh.
    let outcome = cnet.apply_feed(&[DelayEvent::Cancel { train: TrainId(0) }]);
    assert!(outcome.published.is_none());
    let nil = cnet.snapshot();
    assert!(std::ptr::eq(pinned_table, nil.table().unwrap()));

    let mut rng = StdRng::seed_from_u64(1);
    let outcome = cnet.apply_feed(&random_feed(&mut rng, num_trains, 4, 60));
    assert!(outcome.summary.changed());
    let after = cnet.wait_for_table().expect("no fill panics");
    assert!(std::sync::Arc::ptr_eq(&after, outcome.published.as_ref().unwrap()));
    let after_table = after.table().unwrap();
    assert!(!std::ptr::eq(pinned_table, after_table));

    // Every row of the new table is the fed state's.
    let rebuilt_after = Network::build(after.timetable());
    let reference = DistanceTable::build_for(&rebuilt_after, pinned_table.stations().to_vec());
    assert_eq!(after_table.stations(), reference.stations());
    for &a in after_table.stations() {
        for &b in after_table.stations() {
            assert_eq!(after_table.profile(a, b), reference.profile(a, b), "fed D({a}, {b})");
        }
    }

    // The pinned reader still sees its own generation's rows.
    assert!(pinned_table.check_fresh(pinned.network()).is_ok());
    let reference = DistanceTable::build_for(&rebuilt_at_pin, pinned_table.stations().to_vec());
    for &a in pinned_table.stations() {
        for &b in pinned_table.stations() {
            assert_eq!(pinned_table.profile(a, b), reference.profile(a, b), "D({a}, {b})");
        }
    }
}

/// Everything a snapshot's copy-on-write indices hold, copied out element
/// by element into vectors that share nothing.
#[derive(Debug, PartialEq)]
struct DeepCopy {
    conns: Vec<Connection>,
    sched: Vec<Time>,
    train_conns: Vec<Vec<ConnId>>,
    routes: Vec<RouteInfo>,
    route_of: Vec<RouteId>,
    /// Per node: each hop edge's head and PLF.
    hops: Vec<Vec<(u32, Profile)>>,
    starts: Vec<NodeId>,
}

impl DeepCopy {
    fn of(net: &Network) -> DeepCopy {
        let (tt, g) = (net.timetable(), net.graph());
        let trains = (0..tt.num_trains()).map(TrainId::from_idx);
        let ids = (0..tt.num_connections()).map(ConnId::from_idx);
        let hops = |v| {
            let (heads, plfs) = g.kind_csr().td_edges(v);
            heads.iter().zip(plfs).map(|(&w, &p)| (w, g.plf(p).clone())).collect()
        };
        DeepCopy {
            conns: tt.connections(),
            sched: ids.clone().map(|c| tt.scheduled_dep(c)).collect(),
            train_conns: trains.clone().map(|t| tt.train_connections(t).collect()).collect(),
            routes: net.routes().iter_routes().cloned().collect(),
            route_of: trains.map(|t| net.routes().route_of(t)).collect(),
            hops: (0..g.num_nodes()).map(hops).collect(),
            starts: ids.map(|c| g.conn_start_node(c)).collect(),
        }
    }
}

/// A pinned snapshot stays element-for-element equal to a deep copy taken
/// before a feed that re-splits a route, appends to the route and PLF
/// arrays, and re-sorts buckets all over the network, rewriting chunked
/// indices on both sides of a chunk boundary.
#[test]
fn pinned_snapshot_equals_its_deep_copy_across_a_resplitting_feed() {
    let cnet = ConcurrentNetwork::new(Network::new(generate_city(&CityConfig::sized(40, 5, 7))));
    let pinned = cnet.snapshot();
    let copy = DeepCopy::of(&pinned);
    assert!(copy.conns.len() > 2048, "too few connections to span chunks");

    // Train `a` lands on the departure of the next train of its route,
    // which splits the route; every fourth other train runs 7 min late.
    let tt = pinned.timetable();
    let route = pinned.routes().iter_routes().find(|r| r.trains.len() >= 2).expect("a busy route");
    let (a, b) = (route.trains[0], route.trains[1]);
    let first_dep = |t| tt.connection(tt.train_connections(t).next().expect("a hop")).dep;
    let late =
        |train, delay| DelayEvent::Delay { train, from_hop: 0, delay, recovery: Recovery::None };
    let mut feed = vec![late(a, first_dep(b) - first_dep(a))];
    let others = (0..tt.num_trains() as u32).step_by(4).map(TrainId).filter(|&t| t != a && t != b);
    feed.extend(others.map(|t| late(t, Dur::minutes(7))));
    let outcome = cnet.apply_feed(&feed);
    assert!(outcome.summary.refit_routes > 0, "the feed must re-split a route");

    // Connections moved in two adjacent 512-blocks: every chunk length
    // divides 512, so their writes straddle a chunk boundary.
    let fed = cnet.snapshot();
    let moved: Vec<usize> = (0..copy.conns.len())
        .filter(|&i| *fed.timetable().connection(ConnId::from_idx(i)) != copy.conns[i])
        .collect();
    assert!(moved.windows(2).any(|w| w[0] / 512 + 1 == w[1] / 512), "no boundary straddled");

    assert_ne!(DeepCopy::of(&fed), copy, "the feed changed nothing");
    assert!(DeepCopy::of(&pinned) == copy, "a feed on the master leaked into the pinned snapshot");
}
