//! Multi-tenant serving in miniature: three city networks behind one
//! [`ShardedService`]. The router's directory maps every station to its
//! owning shard, queries and batches are demultiplexed to the owning
//! shard's persistent engines (with a per-shard cache stripe), a mixed
//! realtime feed costs each touched shard one generation bump and one
//! publish (its distance table is refilled in the background), and
//! cross-shard requests come back as typed redirects instead of wrong
//! answers.
//!
//! ```text
//! cargo run --release --example multi_city
//! ```

use best_connections::prelude::*;
use best_connections::timetable::synthetic::city::{generate_city, CityConfig};

fn main() {
    // Three differently-seeded cities — three tenants of one process.
    let shards: Vec<Network> = [(36, 5, 7), (49, 7, 17), (25, 4, 29)]
        .into_iter()
        .map(|(n, lines, seed)| Network::new(generate_city(&CityConfig::sized(n, lines, seed))))
        .collect();
    let svc = ShardedService::builder()
        .threads(4)
        .cache(128) // per-shard stripe: one city's feed cannot evict another's hits
        .tables(TransferSelection::Fraction(0.15))
        .build(shards);

    println!("serving {} shards, {} stations total:", svc.num_shards(), svc.num_stations());
    for shard in svc.shard_ids() {
        let range = svc.station_range(shard).unwrap();
        // The build returns before any table row is computed: each shard's
        // refresher fills its initial table in the background.
        let net = svc.wait_for_table(shard).unwrap();
        println!(
            "  {shard}: stations {}..{} ({} connections, table over {} transfer stations)",
            range.start,
            range.end,
            net.timetable().num_connections(),
            net.table().unwrap().len(),
        );
    }

    // A routed one-to-all: global id 40 lives in the second city.
    let source = StationId(40);
    let routed = svc.one_to_all(source).unwrap();
    let (owner, _) = svc.locate(source).unwrap();
    println!("\none_to_all({source}) routed to {owner}");

    // Station-to-station within the same shard rides that shard's distance
    // table; a cross-shard pair is refused with both owners named.
    let target = StationId(60);
    match svc.s2s(source, target) {
        Ok(r) => {
            println!(
                "s2s({source}, {target}) on {}: {:?} query, arr at 08:00 = {}",
                r.shard,
                r.value.kind,
                r.value.profile.eval_arr(Time::hm(8, 0), Period::DAY)
            );
        }
        Err(e) => println!("s2s({source}, {target}) refused: {e}"),
    }
    let foreign = StationId(10); // first city
    let err = svc.s2s(source, foreign).unwrap_err();
    println!("s2s({source}, {foreign}) refused: {err}");

    // Directed queries are not silently rerouted — the typed error names
    // the owner so a gateway can redirect deliberately.
    let err = svc.one_to_all_on(ShardId(0), source).unwrap_err();
    println!("one_to_all_on(shard 0, {source}) refused: {err}");
    if let RouterError::WrongShard { owner, .. } = err {
        assert_eq!(svc.one_to_all_on(owner, source).unwrap().value, routed.value);
        println!("  …redirected to {owner}: identical answer");
    }

    // A mixed realtime feed: events for shards 0 and 1 arrive interleaved;
    // each shard digests its slice in one pass. Shard 0's slice nets out
    // (delay then cancel of the same train): no generation bump, no
    // publish. Shard 1 changes: one bump, one publish, and its refresher
    // fills the new snapshot's table in the background. Shard 2 is never
    // touched at all — its cache stripe keeps every hit.
    let feed = vec![
        (
            ShardId(0),
            DelayEvent::Delay {
                train: TrainId(2),
                from_hop: 0,
                delay: Dur::minutes(12),
                recovery: Recovery::None,
            },
        ),
        (
            ShardId(1),
            DelayEvent::Delay {
                train: TrainId(5),
                from_hop: 1,
                delay: Dur::minutes(25),
                recovery: Recovery::CatchUp { per_hop: Dur::minutes(3) },
            },
        ),
        (ShardId(0), DelayEvent::Cancel { train: TrainId(2) }),
        (
            ShardId(1),
            DelayEvent::Delay {
                train: TrainId(9),
                from_hop: 0,
                delay: Dur::minutes(4),
                recovery: Recovery::None,
            },
        ),
    ];
    let outcomes = svc.apply_feed(&feed).unwrap();
    println!("\nmixed feed of {} events:", feed.len());
    for (shard, outcome) in &outcomes {
        println!(
            "  {shard}: {} routes touched, generation now {}",
            outcome.summary.touched_routes,
            outcome.published.as_ref().map_or("unchanged".into(), |s| s.generation().to_string())
        );
    }
    assert!(outcomes.iter().all(|&(sh, _)| sh != ShardId(2)), "shard 2 received no events");

    // Post-feed queries keep answering: exact with the stopping criterion
    // alone until the refresher has filled the new snapshot's table, and
    // with the §4 pruning once it has.
    let (owner, _) = svc.locate(target).unwrap();
    let filled = svc.wait_for_table(owner).unwrap();
    println!("{owner}'s table is in for generation {}", filled.generation());
    let after = svc.s2s(source, target).unwrap();
    println!(
        "post-feed s2s({source}, {target}): {:?} query, arr at 08:00 = {}",
        after.value.kind,
        after.value.profile.eval_arr(Time::hm(8, 0), Period::DAY)
    );
    let agg = svc.cache_stats().unwrap();
    println!(
        "striped cache: {} hits / {} misses over {} entries in {} stripes",
        agg.hits,
        agg.misses,
        agg.entries,
        svc.num_shards()
    );
}
