//! Kernel identity: the bucketed SoA kernel and the scalar binary-heap
//! reference must produce exactly equal reduced profiles — one-to-all and
//! station-to-station with and without the §4 table rules, sequential and
//! parallel, before and after live feeds. The scalar path is the arbiter of
//! correctness; these tests force both kernels explicitly, so the heap
//! runs here although no default engine takes it.

mod common;

use proptest::prelude::*;

use best_connections::prelude::*;
use best_connections::spcs::QueryKind;
use common::{build, event_strategy, to_events, trip_strategy};

fn one_to_all_engines() -> (ProfileEngine, ProfileEngine) {
    (ProfileEngine::new().kernel(KernelMode::Scalar), ProfileEngine::new().kernel(KernelMode::Soa))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn soa_equals_scalar_on_random_timetables(
        transfer_min in prop::collection::vec(0u8..=8, 3..=6),
        trips in prop::collection::vec(trip_strategy(6), 1..=10),
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        let net = Network::new(tt);
        let (scalar, soa) = one_to_all_engines();
        let par = ProfileEngine::new().kernel(KernelMode::Soa).threads(3);
        for s in net.station_ids() {
            let want = scalar.one_to_all(&net, s);
            prop_assert_eq!(&soa.one_to_all(&net, s), &want, "source {}", s);
            // The parallel master-merge runs its SoA form here.
            prop_assert_eq!(&par.one_to_all(&net, s), &want, "parallel from {}", s);
        }
    }

    #[test]
    fn s2s_soa_equals_scalar_plain_and_tabled_incl_after_feed(
        transfer_min in prop::collection::vec(0u8..=8, 3..=6),
        trips in prop::collection::vec(trip_strategy(6), 2..=10),
        frac in 0.2f64..0.8,
        events in prop::collection::vec(event_strategy(), 1..=4),
    ) {
        let Some(tt) = build(&transfer_min, &trips) else { return Ok(()) };
        let num_trains = tt.num_trains() as u32;
        let mut net = Network::new(tt);
        let mut table = DistanceTable::build(&net, &TransferSelection::Fraction(frac));
        // Before and after a feed: the kernel's edge-span bound must stay
        // valid under repatched travel-time functions, and the refreshed
        // table must prune alike on both frontiers (every query kind occurs:
        // plain, local, global via-pruned, target-pruned).
        for round in 0..2 {
            for (p, tabled) in [(1, None), (1, Some(&table)), (3, Some(&table))] {
                let [scalar, soa] =
                    [KernelMode::Scalar, KernelMode::Soa].map(|k| S2sEngine::new().kernel(k).threads(p));
                for (s, t) in net.station_ids().flat_map(|s| net.station_ids().map(move |t| (s, t))) {
                    let want = scalar.try_query_on(&net, tabled, s, t).unwrap();
                    let got = soa.try_query_on(&net, tabled, s, t).unwrap();
                    prop_assert_eq!(
                        &got.profile, &want.profile,
                        "{} → {} ({:?}, p={}) round {}", s, t, want.kind, p, round
                    );
                }
            }
            net.apply_feed(&to_events(&events, num_trains));
            table.refresh(&net).unwrap();
        }
    }
}

/// Deterministic fast check on a generated city: forced-SoA results equal
/// forced-scalar results, the kernel actually ran (its counters are live),
/// and the scalar path stays off the ring.
#[test]
fn kernel_identity_on_generated_city() {
    let net =
        Network::new(best_connections::timetable::synthetic::presets::oahu_like(0.05).timetable);
    let (scalar, soa) = one_to_all_engines();
    let sources: Vec<StationId> = net.station_ids().step_by(7).collect();
    for &s in &sources {
        let want = scalar.one_to_all_with_stats(&net, s);
        let got = soa.one_to_all_with_stats(&net, s);
        assert_eq!(got.profiles, want.profiles, "source {s}");
        assert!(got.stats.bucket_phases > 0, "SoA kernel must have swept buckets");
        assert!(got.stats.lane_chunks > 0, "SoA kernel must have filled lanes");
        assert_eq!(want.stats.bucket_phases, 0, "scalar path must not touch the ring");
        // The bucket pre-sweep prunes equal-key ties maximally, so the
        // kernel never settles more than the heap's arbitrary tie order.
        assert!(
            got.stats.settled <= want.stats.settled,
            "source {s}: SoA settled {} > scalar {}",
            got.stats.settled,
            want.stats.settled
        );
    }
    // Station-to-station, with and without the stopping criterion.
    let s2s_scalar = S2sEngine::new().kernel(KernelMode::Scalar);
    let s2s_soa = S2sEngine::new().kernel(KernelMode::Soa);
    let nostop = S2sEngine::new().kernel(KernelMode::Soa).stopping_criterion(false);
    for (&s, &t) in sources.iter().zip(sources.iter().rev()) {
        if s == t {
            continue;
        }
        let want = s2s_scalar.query(&net, s, t);
        assert_eq!(s2s_soa.query(&net, s, t).profile, want.profile, "{s} → {t}");
        assert_eq!(nostop.query(&net, s, t).profile, want.profile, "{s} → {t} no-stop");
    }
    // Every rule has a ring path: a forced-SoA engine sweeps buckets on a
    // table-pruned `Global` and a `TargetTransfer` query alike.
    let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.2));
    let tabled = S2sEngine::new().kernel(KernelMode::Soa).with_table(&table);
    for kind in [QueryKind::Global, QueryKind::TargetTransfer] {
        let (s, t, r) = sources
            .iter()
            .flat_map(|&s| sources.iter().map(move |&t| (s, t)))
            .map(|(s, t)| (s, t, tabled.query(&net, s, t)))
            .find(|(_, _, r)| r.kind == kind && r.stats.settled > 0)
            .expect("some sampled pair of each kind searches");
        assert!(r.stats.bucket_phases > 0, "{s} → {t} ({kind:?}): table rules run on the ring");
        assert_eq!(r.profile, s2s_scalar.try_query_on(&net, Some(&table), s, t).unwrap().profile);
    }
}
