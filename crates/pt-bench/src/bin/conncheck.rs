//! Diagnostic: health of the generated evaluation networks, plus the
//! cross-algorithm equivalence check.
//!
//! Section 1 prints, for each preset, the [`pt_timetable::validate`]
//! report: weakly connected components of the station graph (unserved
//! stations count as singletons), unserved stations, routes and
//! stop-sequence classes. Real feeds are connected; the generators
//! guarantee it via connector lines — this tool verifies that invariant at
//! any scale.
//!
//! Section 2 runs [`pt_bench::conncheck::cross_check`]: sequential SPCS vs
//! label-correcting vs parallel SPCS (all three partition strategies, at
//! the `BC_THREADS` thread counts) vs the label-setting time-query
//! baseline, on `BC_QUERIES` sampled sources per network — then repeats
//! the battery after batched feeds of delays + cancellations (feed mode,
//! which holds fed ≡ rebuilt after every feed and checks the incremental
//! distance-table refresh entry-for-entry against a from-scratch build).
//! Any disagreement is printed and the process exits non-zero.
//!
//! With `--kernel` the binary switches to the kernel ablation battery
//! instead: the scalar heap kernel and the SoA bucket-ring kernel are
//! forced explicitly and both cross-validated against the time-query
//! ground truth — on the pristine networks and after random feeds.
//!
//! With `--gateway` it runs the cross-shard gateway battery instead:
//! generated region shards sharing border stations are served through a
//! `ShardedService` with a by-name gateway, and every sampled cross-shard
//! pair's stitched profile is held byte-equal to the merged monolithic
//! network's sequential profile — pristine, after a delay burst, and
//! across live mixed feeds applied through the service (exercising the
//! scoped border-set refresh).
//!
//! With `--calendar` it runs the service-calendar battery instead: every
//! preset's trains are striped across weekday / weekend / summer services
//! and several concrete query days are materialized through
//! `Timetable::for_day`, each held equal — structurally and on profile /
//! time-query answers — to an independent filter-and-rebuild whose dates
//! are re-derived with a different weekday algorithm.
//!
//! ```text
//! cargo run --release --bin conncheck [-- --kernel | --gateway | --calendar]
//! ```
//!
//! Knobs: `BC_SCALE` (default 0.5), `BC_QUERIES` sources per network
//! (default 15, capped at 64), `BC_THREADS` (default 1,2,4,8),
//! `BC_NETWORKS` name filter, `BC_SEED`.

use pt_bench::conncheck::{
    apply_random_feeds, calendar_check, cross_check, cross_check_after_feed, disrupt_scenario,
    gateway_check, gateway_scenario, kernel_check, standard_departures, CheckOutcome,
};
use pt_bench::BenchConfig;
use pt_spcs::Network;
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
    let flag = ["--gateway", "--calendar", "--kernel"]
        .into_iter()
        .find(|&f| std::env::args().skip(1).any(|a| a == f));
    let mut mismatches = 0usize;
    println!();
    match flag {
        // The cross-shard gateway battery (stitched vs monolithic) on
        // generated region scenarios; `sources` counts the sampled pairs.
        Some("--gateway") => {
            println!("gateway: stitched cross-shard profiles vs the merged monolith");
            let pairs = sources_per_net.clamp(1, 16);
            // (shards, borders, locals, trips): a two-region cut with one
            // border, and a three-region cut with two borders (multi-alias
            // groups and border-chain journeys).
            for (shards, borders, locals, trips) in
                [(2usize, 1usize, 5usize, 14usize), (3, 2, 4, 12)]
            {
                let name = format!("gw{shards}x{borders}");
                let sc = gateway_scenario(shards, borders, locals, trips, cfg.seed);
                mismatches += report(&gateway_check(&name, &sc, pairs, 0, 0, cfg.seed));
                let delayed_sc = disrupt_scenario(&sc, 6, cfg.seed);
                let delayed_name = format!("{name}+delays");
                mismatches +=
                    report(&gateway_check(&delayed_name, &delayed_sc, pairs, 0, 0, cfg.seed));
                // Live feeds through the service: 3 rounds of 8 mixed
                // events, re-checked after every round.
                let fed_name = format!("{name}+feed");
                mismatches += report(&gateway_check(&fed_name, &sc, pairs, 3, 8, cfg.seed));
            }
        }
        // The service-calendar battery, pristine and after a feed: a
        // delayed dataset's day must filter the *delayed* connections.
        Some("--calendar") => {
            println!("calendar: for_day vs independent filter + rebuild");
            for (name, tt) in networks {
                let net = Network::new(tt);
                let sources =
                    pt_bench::random_stations(net.num_stations(), sources_per_net, cfg.seed);
                mismatches += report(&calendar_check(name, &net, &sources, &departures));
                let (fed_net, events) = apply_random_feeds(&net, 2, 10, cfg.seed);
                let fed_name = format!("{name}+feed");
                mismatches += report(&calendar_check(&fed_name, &fed_net, &sources, &departures));
                println!("{name:<16} ({events} feed events before the +feed battery)");
            }
        }
        // The kernel ablation battery (scalar vs SoA vs time-query) on
        // pristine and fed networks.
        Some("--kernel") => {
            println!("kernel ablation: scalar heap vs SoA bucket ring vs time-query");
            for (name, tt) in networks {
                let net = Network::new(tt);
                let sources =
                    pt_bench::random_stations(net.num_stations(), sources_per_net, cfg.seed);
                mismatches +=
                    report(&kernel_check(name, &net, &sources, &cfg.threads, &departures));
                let (fed_net, events) = apply_random_feeds(&net, 3, 12, cfg.seed);
                let fed_name = format!("{name}+feed");
                mismatches +=
                    report(&kernel_check(&fed_name, &fed_net, &sources, &cfg.threads, &departures));
                println!("{name:<16} ({events} feed events before the +feed battery)");
            }
        }
        _ => {
            println!("cross-check: sequential SPCS vs LC vs parallel SPCS vs time-query");
            for (name, tt) in networks {
                let net = Network::new(tt);
                let sources =
                    pt_bench::random_stations(net.num_stations(), sources_per_net, cfg.seed);
                mismatches += report(&cross_check(name, &net, &sources, &cfg.threads, &departures));
                // Feed mode: batched delays + cancellations through
                // apply_feed, fed ≡ rebuilt and the incremental table
                // refresh checked entry for entry after every feed.
                let (fed, stats) = cross_check_after_feed(
                    name,
                    &net,
                    &sources,
                    &cfg.threads,
                    &departures,
                    3,
                    12,
                    cfg.seed,
                );
                mismatches += report(&fed);
                println!(
                    "{name:<16} (feed: {} events, {} routes repatched, {} appended, \
                     {} table rows refreshed)",
                    stats.events,
                    stats.repatched_routes,
                    stats.appended_routes,
                    stats.rows_refreshed
                );
            }
        }
    }

    let mode = flag.map_or("conncheck".to_string(), |f| format!("conncheck {f}"));
    if mismatches > 0 {
        eprintln!("{mode} FAILED: {mismatches} mismatch(es)");
        std::process::exit(1);
    }
    println!("{mode} OK: zero mismatches");
}
