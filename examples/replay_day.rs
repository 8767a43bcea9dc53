//! Record one synthetic feed day, then replay it through a sharded
//! service — the miniature of the repo benchmark's `feed-replay` workload:
//!
//! 1. **record**: generate a day of delay/cancel events against the
//!    paper-style presets, timestamped 06:00→18:00, and encode them as
//!    wire lines (CSV and JSON alternating, a few comments sprinkled in);
//! 2. **replay**: stream the recording through a [`FeedDriver`] over a
//!    fresh [`ShardedService`] and print the [`FeedStats`] — on a clean
//!    recorded day the quarantine must come back empty.
//!
//! ```text
//! cargo run --release --example replay_day
//! ```

use best_connections::feed::{encode_csv, encode_json, RecordedFeed};
use best_connections::prelude::*;
use best_connections::timetable::synthetic::presets::all_presets;
use pt_bench::random_feed;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The service under feed: every preset becomes a shard.
    let nets: Vec<Network> =
        all_presets(0.2).into_iter().map(|p| Network::new(p.timetable)).collect();
    let num_shards = nets.len();
    let svc = ShardedService::builder().build(nets);
    let trains: Vec<u32> = svc
        .shard_ids()
        .map(|sh| svc.network(sh).unwrap().timetable().num_trains() as u32)
        .collect();
    println!(
        "service: {num_shards} shards, {} stations, trains per shard {trains:?}",
        svc.num_stations()
    );

    // --- record -----------------------------------------------------------
    let events = 600usize;
    let mut rng = StdRng::seed_from_u64(0xDA7);
    let mut lines = vec!["# one recorded service day, synthetic".to_string()];
    for i in 0..events {
        let shard = i % num_shards;
        let event = random_feed(&mut rng, trains[shard], 1, 45).pop().unwrap();
        let wire = WireEvent {
            // One day of producer time: 06:00 + i/events * 12h, monotone.
            time: Time(6 * 3600 + (i * 43_200 / events) as u32),
            shard: ShardId(shard as u32),
            event,
        };
        lines.push(if i % 2 == 0 { encode_csv(&wire) } else { encode_json(&wire) });
        if i % 200 == 199 {
            lines.push(format!("# checkpoint after {} events", i + 1));
        }
    }
    println!("recorded {} lines ({} events)", lines.len(), events);
    println!("  first: {}", lines[1]);
    println!("  then:  {}", lines[2]);

    // --- replay -----------------------------------------------------------
    // 64 lines per poll ≈ a bursty producer; the driver batches them into
    // bounded windows and applies one apply_feed per touched shard.
    let mut src = RecordedFeed::new(lines, 64);
    let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
    let start = std::time::Instant::now();
    let stats = driver.run(&mut src).expect("recorded day replays cleanly");
    let elapsed = start.elapsed();

    println!("\nreplay finished in {elapsed:.2?}:\n{stats}");
    println!(
        "\nend-to-end {:.0} events/s (decode + batch + apply)",
        stats.events_applied as f64 / elapsed.as_secs_f64()
    );
    assert!(stats.quarantine.is_empty(), "a clean recording never quarantines");
    assert_eq!(stats.events_applied as usize, events);

    let gens: Vec<String> = svc
        .shard_ids()
        .map(|sh| format!("{sh} gen {}", svc.network(sh).unwrap().generation()))
        .collect();
    println!("shard generations: {}", gens.join(", "));
}
