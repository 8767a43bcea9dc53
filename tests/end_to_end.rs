//! Cross-crate integration tests: every algorithm must agree with every
//! other on whole generated networks.

use best_connections::prelude::*;
use best_connections::spcs::{label_correcting, multicriteria, time_query};
use best_connections::timetable::synthetic::city::{generate_city, CityConfig};
use best_connections::timetable::synthetic::rail::{generate_rail, RailConfig};

fn city_net(seed: u64) -> Network {
    Network::new(generate_city(&CityConfig::sized(42, 6, seed)))
}

fn rail_net(seed: u64) -> Network {
    Network::new(generate_rail(&RailConfig::national(7, seed)))
}

/// The ground truth: at every departure event of `conn(S)` (and between
/// events), a time-query from S must equal the profile evaluation.
fn assert_profiles_match_time_queries(net: &Network, source: StationId) {
    let set = ProfileEngine::new().threads(2).one_to_all(net, source);
    let period = net.timetable().period();
    // Sample: every 11th outgoing departure plus surrounding instants.
    let deps: Vec<Time> = net
        .timetable()
        .conn(source)
        .iter()
        .step_by(11)
        .flat_map(|c| [c.dep, Time(c.dep.secs().saturating_sub(1)), Time(c.dep.secs() + 61)])
        .filter(|t| period.contains(*t))
        .collect();
    for &dep in deps.iter().take(24) {
        let truth = time_query::earliest_arrivals(net, source, dep);
        for s in net.station_ids() {
            if s == source {
                continue; // see ProfileSet::profile on the source convention
            }
            assert_eq!(
                set.profile(s).eval_arr(dep, period),
                truth.arrival_at(s),
                "station {s} departing {dep}"
            );
        }
    }
}

#[test]
fn profiles_equal_brute_force_time_queries_city() {
    let net = city_net(101);
    for s in [0u32, 11, 40] {
        assert_profiles_match_time_queries(&net, StationId(s));
    }
}

#[test]
fn profiles_equal_brute_force_time_queries_rail() {
    let net = rail_net(5);
    for s in [0u32, 3, 20] {
        assert_profiles_match_time_queries(&net, StationId(s));
    }
}

#[test]
fn lc_and_cs_agree_on_both_network_families() {
    for net in [city_net(7), rail_net(9)] {
        for s in [1u32, 13] {
            let s = StationId(s);
            let lc = label_correcting::profile_search(&net, s);
            let cs = ProfileEngine::new().threads(4).one_to_all(&net, s);
            assert_eq!(lc.profiles, *cs);
        }
    }
}

#[test]
fn every_thread_count_and_strategy_is_equivalent() {
    let net = city_net(23);
    let s = StationId(17);
    let base = ProfileEngine::new().one_to_all(&net, s);
    for p in [2usize, 3, 5, 8] {
        for strat in [
            PartitionStrategy::EqualTimeSlots,
            PartitionStrategy::EqualConnections,
            PartitionStrategy::KMeans { iters: 8 },
        ] {
            let got = ProfileEngine::new().threads(p).strategy(strat).one_to_all(&net, s);
            assert_eq!(base, got, "p={p} {strat:?}");
        }
    }
}

#[test]
fn s2s_equals_one_to_all_for_every_kind() {
    let net = city_net(31);
    let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
    let engine = S2sEngine::new().threads(2).with_table(&table);
    let n = net.num_stations() as u32;
    let mut seen = std::collections::BTreeMap::<String, u32>::new();
    for i in 0..30u32 {
        let s = StationId((i * 11) % n);
        let t = StationId((i * 17 + 5) % n);
        if s == t {
            continue;
        }
        let want = ProfileEngine::new().one_to_all(&net, s);
        let got = engine.query(&net, s, t);
        assert_eq!(&got.profile, want.profile(t), "{s}→{t} {:?}", got.kind);
        *seen.entry(format!("{:?}", got.kind)).or_default() += 1;
    }
    assert!(seen.len() >= 3, "kinds exercised: {seen:?}");
}

#[test]
fn transfer_selections_all_yield_correct_pruning() {
    let net = rail_net(3);
    for sel in [
        TransferSelection::Fraction(0.1),
        TransferSelection::Fraction(0.3),
        TransferSelection::DegreeAbove(2),
    ] {
        let table = DistanceTable::build(&net, &sel);
        if table.is_empty() {
            continue;
        }
        let engine = S2sEngine::new().with_table(&table);
        for (s, t) in [(0u32, 9u32), (4, 30), (22, 1)] {
            let (s, t) = (StationId(s), StationId(t));
            let want = ProfileEngine::new().one_to_all(&net, s);
            let got = engine.query(&net, s, t);
            assert_eq!(&got.profile, want.profile(t), "{s}→{t} with {sel:?}");
        }
    }
}

#[test]
fn pareto_frontier_is_consistent_with_scalar_search() {
    let net = rail_net(13);
    let period = net.timetable().period();
    for (s, t, dep) in [(0u32, 15u32, Time::hm(7, 30)), (6, 2, Time::hm(18, 10))] {
        let (s, t) = (StationId(s), StationId(t));
        let scalar = time_query::earliest_arrival(&net, s, dep, t);
        let pareto = multicriteria::pareto_query(&net, s, dep, t);
        if scalar.is_infinite() {
            assert!(pareto.options.is_empty());
            continue;
        }
        let best = pareto.options.iter().map(|o| o.arrival).min().unwrap();
        assert_eq!(best, scalar);
        // Frontier is strictly improving in arrival as transfers increase.
        for w in pareto.options.windows(2) {
            assert!(w[0].transfers < w[1].transfers);
            assert!(w[0].arrival > w[1].arrival);
        }
        // And the profile search upper-bounds nothing the frontier misses.
        let prof = ProfileEngine::new().one_to_all(&net, s);
        assert_eq!(prof.profile(t).eval_arr(dep, period), scalar);
    }
}

#[test]
fn dynamic_scenario_delays_propagate_through_searches() {
    // The paper's §5.1 point: no preprocessing ⇒ "we can directly use this
    // approach in a fully dynamic scenario". Delay a train, rebuild, and
    // every invariant must still hold while the affected profile worsens.
    use best_connections::timetable::{DelayEvent, Recovery};
    let tt = generate_city(&CityConfig::sized(36, 5, 61)).clone();
    let net = Network::new(tt.clone());
    let source = StationId(0);
    let before = ProfileEngine::new().one_to_all(&net, source);

    // Delay the train serving the first outgoing connection by 45 minutes.
    let victim = tt.conn(source)[0].train;
    let mut delayed_tt = tt.clone();
    delayed_tt.patch_feed(&[DelayEvent::Delay {
        train: victim,
        from_hop: 0,
        delay: Dur::minutes(45),
        recovery: Recovery::None,
    }]);
    let delayed = Network::new(delayed_tt);
    let after_engine = ProfileEngine::new().threads(2).one_to_all(&delayed, source);

    // Correctness on the disrupted timetable: CS still equals LC.
    let lc = label_correcting::profile_search(&delayed, source);
    assert_eq!(lc.profiles, *after_engine);

    // No station may arrive *earlier* than before at the original first
    // departure instant (delays never help; FIFO networks).
    let dep = tt.conn(source)[0].dep;
    let period = tt.period();
    let mut changed = 0;
    for s in net.station_ids() {
        if s == source {
            continue;
        }
        let a = before.profile(s).eval_arr(dep, period);
        let b = after_engine.profile(s).eval_arr(dep, period);
        assert!(b >= a, "delay improved {s}: {a} -> {b}");
        changed += (a != b) as usize;
    }
    assert!(changed > 0, "a 45-minute delay must affect someone");
}

#[test]
fn journeys_are_extractable_along_profiles() {
    use best_connections::spcs::journey::earliest_journey;
    let net = city_net(83);
    let period = net.timetable().period();
    let mut found = 0;
    for (a, b) in [(0u32, 41u32), (7, 19), (30, 2)] {
        let (s, t) = (StationId(a), StationId(b));
        let prof = ProfileEngine::new().one_to_all(&net, s);
        for dep in [Time::hm(7, 0), Time::hm(17, 30)] {
            let want = prof.profile(t).eval_arr(dep, period);
            let j = earliest_journey(&net, s, dep, t);
            match j {
                None => assert!(want.is_infinite()),
                Some(j) => {
                    found += 1;
                    assert_eq!(j.arr(), want, "{s}→{t} at {dep}");
                    assert!(j.dep() >= dep);
                }
            }
        }
    }
    assert!(found >= 4);
}

#[test]
fn stats_are_internally_consistent() {
    let net = city_net(47);
    let r = ProfileEngine::new().threads(3).one_to_all_with_stats(&net, StationId(2));
    assert_eq!(r.thread_settled.iter().sum::<u64>(), r.stats.settled);
    assert!(r.stats.pushes >= r.stats.settled); // everything popped was pushed
    assert!(r.stats.self_pruned <= r.stats.settled);
}
