//! Diagnostic: health of the generated evaluation networks, plus every
//! cross-algorithm equivalence battery in one pass.
//!
//! Section 1 prints, for each preset, the [`pt_timetable::validate`]
//! report: weakly connected components of the station graph (unserved
//! stations count as singletons), unserved stations, routes and
//! stop-sequence classes. Real feeds are connected; the generators
//! guarantee it via connector lines — this tool verifies that invariant at
//! any scale.
//!
//! Section 2 runs, on `BC_QUERIES` sampled sources per network:
//!
//! * [`pt_bench::conncheck::cross_check`]: every engine configuration
//!   (both frontiers, label-correcting, parallel SPCS under all three
//!   partition strategies at the `BC_THREADS` thread counts, the batch
//!   APIs, plain and tabled station-to-station) against one reference,
//!   the sequential scalar-heap one-to-all, which is itself held against
//!   the label-setting time-query baseline;
//! * the feed battery (`<name>+feed`): batched delays + cancellations on
//!   the pristine network and its table, fed ≡ rebuilt after every feed,
//!   the distance-table refresh entry for entry against a from-scratch
//!   build, then the whole static battery on the fed network;
//! * the service-calendar battery (`<name>+calendar`, and
//!   `<name>+feed+calendar` on the fed network): weekday / weekend /
//!   summer services materialized through `Timetable::for_day`, each day
//!   held equal to an independent filter-and-rebuild whose dates are
//!   re-derived with a different weekday algorithm.
//!
//! Section 3 runs the cross-shard gateway battery: generated region shards
//! sharing border stations are served through a `ShardedService` with a
//! by-name gateway, and every sampled cross-shard pair's stitched profile
//! is held byte-equal to the merged monolithic network's reference
//! profile — pristine, after a delay burst, and across live mixed feeds
//! applied through the service (exercising the per-shard border-set rebuild).
//!
//! Any disagreement is printed and the process exits 1; a command-line
//! argument, or a `BC_NETWORKS` filter that matches nothing, exits 2.
//!
//! ```text
//! cargo run --release --bin conncheck
//! ```
//!
//! Knobs: `BC_SCALE` (default 0.5), `BC_QUERIES` sources per network
//! (default 15, capped at 64), `BC_THREADS` (default 1,2,4,8),
//! `BC_NETWORKS` name filter, `BC_SEED`.

use pt_bench::conncheck::{
    calendar_check, cross_check, cross_check_after_feed, disrupt_scenario, gateway_check,
    gateway_scenario, standard_departures, CheckOutcome,
};
use pt_bench::BenchConfig;
use pt_spcs::{DistanceTable, Network, TransferSelection};
use pt_timetable::validate;

/// Prints one outcome row and its mismatches; returns the mismatch count.
fn report(outcome: &CheckOutcome) -> usize {
    println!(
        "{:<16} sources={:<4} comparisons={:<8} mismatches={}",
        outcome.network,
        outcome.sources,
        outcome.comparisons,
        outcome.mismatches.len()
    );
    for m in &outcome.mismatches {
        eprintln!("  MISMATCH: {m}");
    }
    outcome.mismatches.len()
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("conncheck: unexpected argument {arg:?}; every battery runs in one pass");
        std::process::exit(2);
    }
    let cfg = BenchConfig::from_env();
    let mut networks = Vec::new();
    for preset in cfg.networks() {
        let tt = preset.timetable;
        let r = validate::check(&tt);
        println!(
            "{:<16} stations={:<6} components={:<3} unserved={:<4} routes={:<6} sequence_classes={}",
            preset.name,
            tt.num_stations(),
            r.components,
            r.unserved_stations.len(),
            r.routes,
            r.sequence_classes
        );
        networks.push((preset.name, tt));
    }

    if networks.is_empty() {
        eprintln!("conncheck: no network matches BC_NETWORKS filter — nothing to check");
        std::process::exit(2);
    }

    let departures = standard_departures();
    let sources_per_net = cfg.queries.clamp(1, 64);
    let mut mismatches = 0usize;
    println!();
    println!("cross-check: every engine vs the scalar-heap reference vs time-query");
    for (name, tt) in networks {
        let net = Network::new(tt);
        let sources = pt_bench::random_stations(net.num_stations(), sources_per_net, cfg.seed);
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        mismatches += report(&cross_check(name, &net, &table, &sources, &cfg.threads, &departures));
        mismatches += report(&calendar_check(name, &net, &sources, &departures));
        // Feed mode on the same network and table: batched delays +
        // cancellations through apply_feed, fed ≡ rebuilt and the table
        // refresh checked entry for entry after every feed.
        let (outcome, stats, fed) = cross_check_after_feed(
            name,
            net,
            table,
            &sources,
            &cfg.threads,
            &departures,
            3,
            12,
            cfg.seed,
        );
        mismatches += report(&outcome);
        println!(
            "{name:<16} (feed: {} events, {} routes repatched, {} appended, \
             {} table rows refreshed)",
            stats.events, stats.repatched_routes, stats.appended_routes, stats.rows_refreshed
        );
        // The service calendar on the fed network: a delayed dataset's day
        // must filter the *delayed* connections.
        mismatches += report(&calendar_check(&format!("{name}+feed"), &fed, &sources, &departures));
    }

    // The cross-shard gateway battery (stitched vs monolithic) on
    // generated region scenarios; `sources` counts the sampled pairs.
    println!();
    println!("gateway: stitched cross-shard profiles vs the merged monolith");
    let pairs = sources_per_net.clamp(1, 16);
    // (shards, borders, locals, trips): a two-region cut with one border,
    // and a three-region cut with two borders (multi-alias groups and
    // border-chain journeys).
    for (shards, borders, locals, trips) in [(2usize, 1usize, 5usize, 14usize), (3, 2, 4, 12)] {
        let name = format!("gw{shards}x{borders}");
        let sc = gateway_scenario(shards, borders, locals, trips, cfg.seed);
        mismatches += report(&gateway_check(&name, &sc, pairs, 0, 0, cfg.seed));
        let delayed_sc = disrupt_scenario(&sc, 6, cfg.seed);
        let delayed_name = format!("{name}+delays");
        mismatches += report(&gateway_check(&delayed_name, &delayed_sc, pairs, 0, 0, cfg.seed));
        // Live feeds through the service: 3 rounds of 8 mixed events,
        // re-checked after every round.
        let fed_name = format!("{name}+feed");
        mismatches += report(&gateway_check(&fed_name, &sc, pairs, 3, 8, cfg.seed));
    }

    if mismatches > 0 {
        eprintln!("conncheck FAILED: {mismatches} mismatch(es)");
        std::process::exit(1);
    }
    println!("conncheck OK: zero mismatches");
}
