//! Threaded stress scenarios for the snapshot-isolated serving core.
//!
//! The contract under test: while a writer streams delay feeds through
//! [`ConcurrentNetwork::apply_feed`] / [`ShardedService::apply_feed`],
//! every concurrent reader answer is **exactly** the answer of one
//! published state — the pre-feed or post-feed network — and never a torn
//! mix of both. Readers verify their own answers against a from-scratch
//! rebuild of the snapshot they pinned, and pinned generations are
//! monotone per reader and always members of the published set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use best_connections::prelude::*;
use best_connections::timetable::synthetic::city::{generate_city, CityConfig};
use pt_bench::random_feed;

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    // Readers pinning snapshots mid-stream always see exactly one
    // published state: each answer equals a from-scratch rebuild of the
    // pinned snapshot's timetable, and the pinned generations are
    // monotone per reader and members of the published set.
    #[test]
    fn reader_during_writer_sees_pre_or_post_feed_only(
        seed in 0u64..500,
        readers in 2usize..=4,
        queries_per_reader in 3usize..=6,
    ) {
        let net = Network::new(generate_city(&CityConfig::sized(18, 3, seed)));
        let num_trains = net.timetable().num_trains() as u32;
        let n = net.num_stations() as u32;
        if num_trains == 0 || n == 0 {
            return Ok(());
        }
        let initial_gen = net.generation();
        let cnet = ConcurrentNetwork::new(net);
        let engine = ProfileEngine::new().with_cache(32);
        let published: Mutex<Vec<u64>> = Mutex::new(vec![initial_gen]);
        let done = AtomicBool::new(false);

        let violations: Vec<String> = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                // A bounded stream spread over the readers' run: most random
                // feeds overtake and split routes, so an unbounded stream
                // fragments the network until every query is slow.
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..32 {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let len = rng.gen_range(1..=4);
                    let outcome = cnet.apply_feed(&random_feed(&mut rng, num_trains, len, 60));
                    if let Some(snap) = outcome.published {
                        published.lock().unwrap().push(snap.generation());
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            });
            let readers: Vec<_> = (0..readers)
                .map(|r| {
                    let engine = &engine;
                    let cnet = &cnet;
                    scope.spawn(move || {
                        let mut bad = Vec::new();
                        let mut last_gen = 0u64;
                        for q in 0..queries_per_reader {
                            let snap = cnet.snapshot();
                            let gen = snap.generation();
                            if gen < last_gen {
                                bad.push(format!(
                                    "reader {r}: generation went backwards ({last_gen} → {gen})"
                                ));
                            }
                            last_gen = gen;
                            let source = StationId((r as u32 + q as u32 * 5) % n);
                            // The answer on the pinned snapshot, through the
                            // shared engine + cache …
                            let got = engine.one_to_all(snap.network(), source);
                            // … must equal a from-scratch rebuild of exactly
                            // that state: pre-feed or post-feed, never torn.
                            let standalone = Network::build(snap.timetable());
                            let want = ProfileEngine::new().one_to_all(&standalone, source);
                            if *got != *want {
                                bad.push(format!(
                                    "reader {r}: torn answer from {source} at generation {gen}"
                                ));
                            }
                        }
                        bad
                    })
                })
                .collect();
            let mut all = Vec::new();
            for handle in readers {
                all.extend(handle.join().expect("reader must not panic"));
            }
            done.store(true, Ordering::Relaxed);
            writer.join().expect("writer must not panic");
            all
        });
        prop_assert!(violations.is_empty(), "{:?}", violations);

        // Every reader-observed generation is a published one: re-check the
        // final snapshot against the log.
        let log = published.into_inner().unwrap();
        let last = cnet.snapshot().generation();
        prop_assert!(log.contains(&last), "final generation {} not in published log", last);
        prop_assert_eq!(cnet.publishes() as usize + 1, log.len());
    }
}

/// Service-level stress: M reader threads hammer a shared
/// [`ShardedService`] (`&self` queries) while a writer streams mixed
/// feeds. Every one-to-all and s2s answer must match a from-scratch
/// compute of one recorded published state of the owning shard.
#[test]
fn sharded_service_survives_concurrent_readers_and_feeds() {
    let nets: Vec<Network> =
        (0..3).map(|i| Network::new(generate_city(&CityConfig::sized(16, 3, 40 + i)))).collect();
    let num_trains: Vec<u32> = nets.iter().map(|n| n.timetable().num_trains() as u32).collect();
    let svc = ShardedService::builder()
        .cache(32)
        .s2s_cache(32)
        .tables(TransferSelection::Fraction(0.2))
        .build(nets);

    // Per shard, every state the service may legitimately answer from:
    // the initial snapshot plus everything the writer publishes.
    let states: Vec<Mutex<Vec<std::sync::Arc<NetworkSnapshot>>>> =
        svc.shard_ids().map(|sh| Mutex::new(vec![svc.network(sh).unwrap()])).collect();
    let done = AtomicBool::new(false);

    let violations: Vec<String> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Bounded and spread out, as in the proptest above.
            let mut rng = StdRng::seed_from_u64(0);
            for step in 0..36u32 {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                let shard = ShardId(step % 3);
                let len = rng.gen_range(1..=4);
                let events: Vec<(ShardId, DelayEvent)> =
                    random_feed(&mut rng, num_trains[shard.idx()], len, 60)
                        .into_iter()
                        .map(|e| (shard, e))
                        .collect();
                for (shard, outcome) in svc.apply_feed(&events).expect("known shard") {
                    if let Some(snap) = outcome.published {
                        states[shard.idx()].lock().unwrap().push(snap);
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let svc = &svc;
                let states = &states;
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for q in 0..6u32 {
                        let global = StationId((r * 13 + q * 7) % svc.num_stations() as u32);
                        let routed = svc.one_to_all(global).expect("global id in range");
                        let (shard, local) = svc.locate(global).unwrap();
                        assert_eq!(shard, routed.shard);
                        // The answer must equal a fresh compute on SOME
                        // recorded published state of the owning shard.
                        let candidates = states[shard.idx()].lock().unwrap().clone();
                        let fresh = ProfileEngine::new();
                        let matched = candidates
                            .iter()
                            .any(|snap| *fresh.one_to_all(snap.network(), local) == *routed.value);
                        if !matched {
                            bad.push(format!(
                                "reader {r}: one_to_all({global}) matches no published state \
                                 of {shard} ({} candidates)",
                                candidates.len()
                            ));
                        }
                        // An s2s query within the same shard, under the same
                        // no-torn-state contract.
                        let range = svc.station_range(shard).unwrap();
                        let target = StationId(range.start + (range.end - range.start) / 2);
                        let s2s = svc.s2s(global, target).expect("same shard");
                        let candidates = states[shard.idx()].lock().unwrap().clone();
                        let (_, local_t) = svc.locate(target).unwrap();
                        let matched = candidates.iter().any(|snap| {
                            fresh.one_to_all(snap.network(), local).profile(local_t)
                                == &s2s.value.profile
                        });
                        if !matched {
                            bad.push(format!(
                                "reader {r}: s2s({global}, {target}) matches no published \
                                 state of {shard}"
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in readers {
            all.extend(handle.join().expect("reader must not panic"));
        }
        done.store(true, Ordering::Relaxed);
        writer.join().expect("writer must not panic");
        all
    });
    assert!(violations.is_empty(), "{violations:?}");
    // The writer actually published while readers ran.
    let total: u64 = svc.shard_ids().map(|sh| svc.publishes(sh).unwrap()).sum();
    assert!(total > 0, "stress run must observe at least one publish");
}
