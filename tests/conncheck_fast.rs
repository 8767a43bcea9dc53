//! Fast-mode cross-algorithm check, wired into tier-1 (`cargo test`).
//!
//! Scaled-down versions of all five evaluation networks, a couple of
//! sources each. The reference is sequential SPCS on the scalar heap,
//! held against the label-setting time-query ground truth; the bucket
//! ring, the label-correcting baseline, parallel SPCS under all three
//! partition strategies, the `self_pruning(false)` ablation path on both
//! frontiers, the batch APIs (`ProfileEngine::many_to_all`,
//! `S2sEngine::try_batch`) and plain and tabled station-to-station queries
//! must all agree with it. The full-size version is
//! `cargo run --release --bin conncheck`.

use pt_bench::conncheck::{cross_check, cross_check_after_feed, standard_departures, STRATEGIES};
use pt_spcs::{DistanceTable, Network, TransferSelection};
use pt_timetable::synthetic::presets;

#[test]
fn all_presets_cross_check_clean_in_fast_mode() {
    assert_eq!(STRATEGIES.len(), 3, "every partition strategy must be covered");
    let departures = standard_departures();
    for preset in presets::all_presets(0.05) {
        let name = preset.name;
        let net = Network::new(preset.timetable);
        let sources = pt_bench::random_stations(net.num_stations(), 2, 2010);
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let outcome = cross_check(name, &net, &table, &sources, &[2, 3], &departures);
        assert!(outcome.is_clean(), "cross-check mismatches on {name}: {:#?}", outcome.mismatches);
        assert!(outcome.comparisons > 0);
    }
}

#[test]
fn fed_presets_cross_check_clean_in_fast_mode() {
    // The batched dynamic path: random feeds (delays + cancellations)
    // through Network::apply_feed, one generation bump per feed, the
    // distance-table refresh compared entry-for-entry against a
    // from-scratch build, then the full static battery on the fed network.
    let departures = standard_departures();
    for preset in presets::all_presets(0.05) {
        let name = preset.name;
        let net = Network::new(preset.timetable);
        let sources = pt_bench::random_stations(net.num_stations(), 2, 2010);
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let (outcome, stats, _) =
            cross_check_after_feed(name, net, table, &sources, &[2], &departures, 2, 6, 2010);
        assert!(
            outcome.is_clean(),
            "feed cross-check mismatches on {name}: {:#?}",
            outcome.mismatches
        );
        assert!(outcome.comparisons > 0);
        assert_eq!(stats.events, 12, "every feed event must have been applied on {name}");
    }
}
