//! Cross-algorithm equivalence checking.
//!
//! The correctness contract of the whole workspace (and of the paper): on
//! any timetable, every profile algorithm computes *the same* reduced
//! arrival profiles, and evaluating a profile at a departure time equals
//! the label-setting time-query baseline (`dist(S, T, τ)`, §2). One
//! reference decides: the sequential scalar-heap one-to-all (the binary
//! heap of §5, forced with [`KernelMode::Scalar`]), itself held against
//! `time_query::earliest_arrivals` at sampled departure times (including
//! late-night wrap-around departures). [`cross_check`] holds every engine
//! configuration against that reference, from a set of sampled sources:
//!
//! * sequential SPCS on the bucket ring, the frontier of every default
//!   engine,
//! * the label-correcting profile search (Table 1's baseline),
//! * parallel SPCS under **all three** `conn(S)` partition strategies
//!   (§3.2) at every requested thread count,
//! * SPCS with self-pruning disabled (the ablation path) on both
//!   frontiers, sequential and at every thread count,
//! * the batch layer: `ProfileEngine::many_to_all` over all sources and
//!   `S2sEngine::try_batch` over sampled pairs,
//! * station-to-station queries over the same pairs, plain and through a
//!   distance table (the §4 rules), with and without the stopping
//!   criterion, on both frontiers, sequential and at every thread count.
//!
//! [`cross_check_after_feed`] is the dynamic battery: random feeds of
//! delays and cancellations through [`Network::apply_feed`] (a single
//! delay is the one-event feed), fed ≡ rebuilt after every feed, then the
//! whole static battery on the fed network and its refreshed table.
//!
//! Used by the `conncheck` binary (full networks) and by the tier-1
//! integration test `tests/conncheck_fast.rs` (scaled-down fast mode).

use std::sync::Arc;

use pt_core::{Dur, StationId, Time, TrainId};
use pt_spcs::{
    label_correcting, time_query, BorderSpec, DistanceTable, KernelMode, Network,
    PartitionStrategy, ProfileEngine, ProfileSet, S2sEngine, ShardId, ShardedService,
};
use pt_timetable::{DelayEvent, TimetableBuilder};

/// The three partition strategies of §3.2, with display names.
pub const STRATEGIES: [(&str, PartitionStrategy); 3] = [
    ("time_slots", PartitionStrategy::EqualTimeSlots),
    ("equal_conns", PartitionStrategy::EqualConnections),
    ("kmeans", PartitionStrategy::KMeans { iters: 20 }),
];

/// Both label frontiers: the binary heap (the reference) and the bucket
/// ring (every default engine).
const KERNELS: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Soa];

/// Result of [`cross_check`] on one network.
#[derive(Debug)]
pub struct CheckOutcome {
    pub network: String,
    pub sources: usize,
    /// Number of whole-profile-set / arrival comparisons performed.
    pub comparisons: usize,
    /// Human-readable description of every disagreement found (capped).
    pub mismatches: Vec<String>,
}

impl CheckOutcome {
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

const MAX_REPORTED: usize = 20;

fn record(mismatches: &mut Vec<String>, msg: String) {
    if mismatches.len() < MAX_REPORTED {
        mismatches.push(msg);
    }
}

/// The engine every other one is held against: sequential SPCS on the
/// binary heap.
fn reference() -> ProfileEngine {
    ProfileEngine::new().kernel(KernelMode::Scalar)
}

/// Runs every cross-algorithm comparison on `net`, with `table` (a
/// distance table fresh for `net`) serving the tabled station-to-station
/// queries; see the module docs.
pub fn cross_check(
    name: &str,
    net: &Network,
    table: &DistanceTable,
    sources: &[StationId],
    threads: &[usize],
    departures: &[Time],
) -> CheckOutcome {
    let period = net.timetable().period();
    let mut comparisons = 0usize;
    let mut mismatches = Vec::new();
    let refs: Vec<Arc<ProfileSet>> =
        sources.iter().map(|&s| reference().one_to_all(net, s)).collect();

    // The reference against the time-query ground truth.
    for (&s, want) in sources.iter().zip(&refs) {
        for &dep in departures {
            let truth = time_query::earliest_arrivals(net, s, dep);
            for t in net.station_ids() {
                if t == s {
                    continue; // source-profile convention, see ProfileSet::profile
                }
                comparisons += 1;
                let got = want.profile(t).eval_arr(dep, period);
                let w = truth.arrival_at(t);
                if got != w {
                    record(
                        &mut mismatches,
                        format!(
                            "{name}: reference {s} -> {t} at dep {dep}: \
                             profile says {got}, time-query says {w}"
                        ),
                    );
                }
            }
        }
    }

    // Every one-to-all configuration against the reference. Disabling
    // self-pruning changes the work, never the profiles.
    let mut engines = vec![("sequential ring".to_string(), ProfileEngine::new())];
    for (strat_name, strat) in STRATEGIES {
        for &p in threads {
            let e = ProfileEngine::new().threads(p).strategy(strat);
            engines.push((format!("parallel ({strat_name}, p={p})"), e));
        }
    }
    for kernel in KERNELS {
        let unpruned = ProfileEngine::new().kernel(kernel).self_pruning(false);
        engines.push((format!("{kernel} self_pruning(false)"), unpruned.clone()));
        for &p in threads {
            let e = unpruned.clone().threads(p);
            engines.push((format!("{kernel} self_pruning(false) p={p}"), e));
        }
    }
    for (&s, want) in sources.iter().zip(&refs) {
        comparisons += 1;
        if label_correcting::profile_search(net, s).profiles != **want {
            record(&mut mismatches, format!("{name}: label-correcting != reference from {s}"));
        }
        for (label, e) in &engines {
            comparisons += 1;
            if e.one_to_all(net, s) != *want {
                record(&mut mismatches, format!("{name}: {label} != reference from {s}"));
            }
        }
    }

    // Batch layer: many_to_all must reproduce the per-source profiles
    // exactly, under both its across-query regime (sources >= threads) and
    // its within-query fallback.
    for &p in threads {
        let batch = ProfileEngine::new().threads(p).many_to_all(net, sources);
        for ((got, want), &s) in batch.iter().zip(&refs).zip(sources) {
            comparisons += 1;
            if got != want {
                record(
                    &mut mismatches,
                    format!("{name}: many_to_all (p={p}) != reference from {s}"),
                );
            }
        }
    }

    // Station-to-station, against the reference's one-to-all profiles:
    // S2sEngine::try_batch pairs every source with two spread targets,
    // single queries of every configuration take the first of them.
    let ns = net.num_stations() as u32;
    let target = |i: usize, step: u32, offset: u32| StationId((i as u32 * step + offset) % ns);
    let pairs: Vec<(usize, StationId, StationId)> = sources
        .iter()
        .enumerate()
        .flat_map(|(i, &s)| [(i, s, target(i, 7, 1)), (i, s, target(i, 13, 3))])
        .filter(|&(_, s, t)| s != t)
        .collect();
    let st: Vec<(StationId, StationId)> = pairs.iter().map(|&(_, s, t)| (s, t)).collect();
    for &p in threads {
        let results = S2sEngine::new()
            .threads(p)
            .try_batch(net, &st)
            .expect("an engine without a table is never stale");
        for (r, &(i, s, t)) in results.iter().zip(&pairs) {
            comparisons += 1;
            if &r.profile != refs[i].profile(t) {
                record(
                    &mut mismatches,
                    format!("{name}: S2sEngine::try_batch (p={p}) {s}->{t} != reference"),
                );
            }
        }
    }
    let mut s2s = Vec::new();
    for stopping in [true, false] {
        for kernel in KERNELS {
            let e = S2sEngine::new().stopping_criterion(stopping).kernel(kernel);
            let how = format!("{kernel} stopping={stopping}");
            for &p in threads {
                s2s.push((format!("{how} p={p}"), e.clone().threads(p)));
            }
            s2s.push((how, e));
        }
    }
    for (i, &s) in sources.iter().enumerate() {
        let t = target(i, 7, 1);
        if s == t {
            continue;
        }
        for tabled in [None, Some(table)] {
            let how = if tabled.is_some() { "tabled" } else { "plain" };
            for (label, e) in &s2s {
                comparisons += 1;
                match e.try_query_on(net, tabled, s, t) {
                    Err(err) => {
                        record(&mut mismatches, format!("{name}: {how} s2s rejected: {err}"))
                    }
                    Ok(r) if &r.profile != refs[i].profile(t) => record(
                        &mut mismatches,
                        format!("{name}: {how} s2s ({label}) {s}->{t} != reference"),
                    ),
                    Ok(_) => {}
                }
            }
        }
    }

    CheckOutcome { network: name.to_string(), sources: sources.len(), comparisons, mismatches }
}

/// Departure times exercising normal daytime plus the period wrap-around.
pub fn standard_departures() -> Vec<Time> {
    vec![Time::hm(0, 30), Time::hm(7, 45), Time::hm(12, 0), Time::hm(23, 30)]
}

/// A sharded region network **and** the merged monolithic network it was
/// cut from — the ground truth for the cross-shard gateway: a stitched
/// profile must equal, byte for byte, the profile the monolith computes
/// (reduced profiles are canonical per arrival function).
///
/// Built constructively by [`gateway_scenario`]: `borders` physical border
/// stations (same name, same transfer time) are present in **every**
/// shard, each shard adds its own local stations and random within-shard
/// trips, and the monolith carries one copy of each border plus all
/// shards' locals and all trips.
#[derive(Debug, Clone)]
pub struct GatewayScenario {
    /// One region network per shard; borders occupy local ids
    /// `0..borders`, locals follow.
    pub shards: Vec<Network>,
    /// The merged single network.
    pub mono: Network,
    /// Per shard: local station id → monolith station id.
    pub to_mono: Vec<Vec<StationId>>,
    /// Per shard: the monolith [`TrainId`] offset of its first trip (the
    /// monolith replays each shard's trips in shard order).
    pub mono_train_base: Vec<u32>,
}

/// Generates a deterministic random [`GatewayScenario`]: `num_shards`
/// regions sharing `borders` border stations (named `b0..`, 3-minute
/// transfers), each with `locals` region-local stations (`s{shard}_{i}`,
/// 2-minute transfers) and `trips` random trips over 2–4 of its stations.
/// It draws its own trips because each one is added to a shard and to the
/// monolith in lockstep.
pub fn gateway_scenario(
    num_shards: usize,
    borders: usize,
    locals: usize,
    trips: usize,
    seed: u64,
) -> GatewayScenario {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(num_shards >= 2 && borders >= 1, "a gateway scenario needs shards meeting somewhere");
    let period = pt_core::Period::DAY;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A7E);

    let mut mono_b = TimetableBuilder::new(period);
    for k in 0..borders {
        mono_b.add_named_station(format!("b{k}"), Dur::minutes(3));
    }
    let mut shard_builders = Vec::new();
    let mut to_mono = Vec::new();
    for sh in 0..num_shards {
        let mut b = TimetableBuilder::new(period);
        let mut map = Vec::with_capacity(borders + locals);
        for k in 0..borders {
            b.add_named_station(format!("b{k}"), Dur::minutes(3));
            map.push(StationId(k as u32));
        }
        for i in 0..locals {
            b.add_named_station(format!("s{sh}_{i}"), Dur::minutes(2));
            map.push(mono_b.add_named_station(format!("s{sh}_{i}"), Dur::minutes(2)));
        }
        shard_builders.push(b);
        to_mono.push(map);
    }

    let mut mono_train_base = Vec::with_capacity(num_shards);
    let mut trains = 0u32;
    let per_shard_stations = (borders + locals) as u32;
    for (sh, b) in shard_builders.iter_mut().enumerate() {
        mono_train_base.push(trains);
        for _ in 0..trips {
            let num_stops = rng.gen_range(2..=4usize);
            let mut stops = Vec::with_capacity(num_stops);
            let mut last = u32::MAX;
            for _ in 0..num_stops {
                let s = loop {
                    let s = rng.gen_range(0..per_shard_stations);
                    if s != last {
                        break s;
                    }
                };
                last = s;
                stops.push(StationId(s));
            }
            let start = Time::hm(rng.gen_range(5..22u32), rng.gen_range(0..60u32));
            let legs: Vec<Dur> =
                (1..num_stops).map(|_| Dur::minutes(rng.gen_range(5..40u32))).collect();
            b.add_simple_trip(&stops, start, &legs, Dur::ZERO).expect("generated trip is valid");
            let mono_stops: Vec<StationId> =
                stops.iter().map(|&s| to_mono[sh][s.0 as usize]).collect();
            mono_b
                .add_simple_trip(&mono_stops, start, &legs, Dur::ZERO)
                .expect("mapped trip is valid");
            trains += 1;
        }
    }

    GatewayScenario {
        shards: shard_builders
            .into_iter()
            .map(|b| Network::new(b.build().expect("generated shard timetable is valid")))
            .collect(),
        mono: Network::new(mono_b.build().expect("merged timetable is valid")),
        to_mono,
        mono_train_base,
    }
}

/// Applies the same deterministic random delays to every shard **and** to
/// the monolith (per-train patches are train-local, so disrupting the two
/// representations with mapped events keeps them equivalent). Returns the
/// disrupted copy — the "+delays" input for [`gateway_check`].
pub fn disrupt_scenario(
    sc: &GatewayScenario,
    events_per_shard: usize,
    seed: u64,
) -> GatewayScenario {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15);
    let mut out = sc.clone();
    for sh in 0..out.shards.len() {
        let trains = out.shards[sh].timetable().num_trains() as u32;
        let events = crate::random_feed(&mut rng, trains, events_per_shard, 60);
        out.shards[sh].apply_feed(&events);
        let mapped: Vec<DelayEvent> =
            events.iter().map(|&e| remap_train(e, sc.mono_train_base[sh])).collect();
        out.mono.apply_feed(&mapped);
    }
    out
}

/// Shifts an event's train id into the monolith's id space.
fn remap_train(e: DelayEvent, base: u32) -> DelayEvent {
    match e {
        DelayEvent::Delay { train, from_hop, delay, recovery } => {
            DelayEvent::Delay { train: TrainId(train.0 + base), from_hop, delay, recovery }
        }
        DelayEvent::Cancel { train } => DelayEvent::Cancel { train: TrainId(train.0 + base) },
    }
}

/// The gateway battery: builds a [`ShardedService`] with a
/// [`BorderSpec::ByName`] gateway over the scenario's shards and holds
/// every sampled **cross-shard** pair's stitched profile byte-equal to the
/// merged monolith's reference profile — on the scenario as given, and
/// again after each of `feeds` mixed feed rounds applied through
/// [`ShardedService::apply_feed`] (with the mapped events applied to the
/// monolith), so the border-set refresh path is exercised live. Pairs are
/// answered through [`ShardedService::s2s_batch`], covering the batch
/// demux and the all-shards-pinned-up-front cut.
pub fn gateway_check(
    name: &str,
    sc: &GatewayScenario,
    pairs_per_shard_pair: usize,
    feeds: usize,
    events_per_feed: usize,
    seed: u64,
) -> CheckOutcome {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A7E);
    let svc = ShardedService::builder().gateway(BorderSpec::ByName).build(sc.shards.clone());
    let mut mono = sc.mono.clone();
    let mut comparisons = 0usize;
    let mut mismatches = Vec::new();

    // Sampled cross-shard pairs, fixed for all rounds: every ordered shard
    // pair contributes `pairs_per_shard_pair` random pairs plus, where the
    // sample misses them, border endpoints are naturally included since
    // borders share the local id range.
    let mut pairs: Vec<(StationId, StationId)> = Vec::new();
    let mut mono_pairs: Vec<(StationId, StationId)> = Vec::new();
    for a in 0..sc.shards.len() {
        for b in 0..sc.shards.len() {
            if a == b {
                continue;
            }
            for _ in 0..pairs_per_shard_pair {
                let (s, t) = loop {
                    let s = rng.gen_range(0..sc.to_mono[a].len());
                    let t = rng.gen_range(0..sc.to_mono[b].len());
                    // The same physical border on both sides is the same
                    // mono station — the self-profile convention differs
                    // by design, so resample.
                    if sc.to_mono[a][s] != sc.to_mono[b][t] {
                        break (s, t);
                    }
                };
                pairs.push((
                    svc.global_id(ShardId(a as u32), StationId(s as u32)).expect("sampled local"),
                    svc.global_id(ShardId(b as u32), StationId(t as u32)).expect("sampled local"),
                ));
                mono_pairs.push((sc.to_mono[a][s], sc.to_mono[b][t]));
            }
        }
    }

    let check_round =
        |round: &str, mono: &Network, comparisons: &mut usize, mismatches: &mut Vec<String>| {
            let results = svc.s2s_batch(&pairs);
            for ((routed, &(gs, gt)), &(ms, mt)) in results.iter().zip(&pairs).zip(&mono_pairs) {
                *comparisons += 1;
                let routed = match routed {
                    Ok(r) => r,
                    Err(e) => {
                        record(mismatches, format!("{name}{round}: {gs}->{gt} refused: {e}"));
                        continue;
                    }
                };
                let want = reference().one_to_all(mono, ms);
                if &routed.value.profile != want.profile(mt) {
                    record(
                        mismatches,
                        format!(
                            "{name}{round}: stitched {gs}->{gt} != monolithic {ms}->{mt} \
                         ({} vs {} points)",
                            routed.value.profile.points().len(),
                            want.profile(mt).points().len()
                        ),
                    );
                }
            }
        };

    check_round("", &mono, &mut comparisons, &mut mismatches);
    for round in 0..feeds {
        let mut svc_events = Vec::with_capacity(events_per_feed);
        let mut mono_events = Vec::with_capacity(events_per_feed);
        for _ in 0..events_per_feed {
            let sh = rng.gen_range(0..sc.shards.len());
            let trains = sc.shards[sh].timetable().num_trains() as u32;
            let event = crate::random_feed(&mut rng, trains, 1, 60)[0];
            svc_events.push((ShardId(sh as u32), event));
            mono_events.push(remap_train(event, sc.mono_train_base[sh]));
        }
        svc.apply_feed(&svc_events).expect("shard ids are in range");
        mono.apply_feed(&mono_events);
        check_round(&format!("+feed{round}"), &mono, &mut comparisons, &mut mismatches);
    }

    CheckOutcome { network: name.to_string(), sources: pairs.len(), comparisons, mismatches }
}

/// The calendar battery: stripes `net`'s trains across a multi-service
/// [`pt_timetable::ServiceCalendar`] (weekday / weekend /
/// summer-with-holiday-exception /
/// unassigned-daily), materializes several concrete query days through
/// [`pt_timetable::Timetable::for_day`], and checks every day network
/// against *independent* reconstructions:
///
/// * the active-train set is re-derived here with a different weekday
///   algorithm (Sakamoto's congruence, vs the model's civil-days
///   computation) and the activation rules restated inline — a shared bug
///   in the date arithmetic cannot cancel out;
/// * the day timetable's connections must equal a from-scratch
///   [`pt_timetable::Timetable`] built from that independently filtered,
///   re-numbered connection list;
/// * sequential SPCS profiles from every sampled source must agree
///   between the `for_day` network and the independent rebuild, and
///   `time_query::earliest_arrivals` on the day network must match those
///   profiles at every sampled departure;
/// * an *empty* calendar's day must be query-identical to the original
///   network from every sampled source (introducing calendars changes
///   nothing until services are assigned).
pub fn calendar_check(
    name: &str,
    net: &Network,
    sources: &[StationId],
    departures: &[Time],
) -> CheckOutcome {
    use pt_timetable::{Date, ServiceCalendar, ServicePattern, Timetable};

    let tt = net.timetable();
    let num_trains = tt.num_trains();
    let mut comparisons = 0usize;
    let mut mismatches = Vec::new();

    let date = |y, m, d| Date::new(y, m, d).expect("battery dates are valid");
    let year = (date(2026, 1, 1), date(2026, 12, 31));
    let holiday = date(2026, 7, 4);

    let mut cal = ServiceCalendar::new();
    let weekday = cal.add_service(ServicePattern::weekdays(year.0, year.1));
    let weekend = cal.add_service(ServicePattern::weekends(year.0, year.1));
    let summer = cal.add_service(
        ServicePattern::daily(date(2026, 6, 1), date(2026, 8, 31)).with_removed(&[holiday]),
    );
    for t in 0..num_trains as u32 {
        match t % 4 {
            0 => cal.assign(TrainId(t), weekday).expect("service defined"),
            1 => cal.assign(TrainId(t), weekend).expect("service defined"),
            2 => cal.assign(TrainId(t), summer).expect("service defined"),
            _ => {} // unassigned: runs daily
        }
    }

    // Independent activation oracle: Sakamoto's weekday congruence plus the
    // service rules restated from scratch (not via ServicePattern).
    let sakamoto_weekday = |d: Date| -> usize {
        // 0 = Sunday .. 6 = Saturday.
        const T: [i32; 12] = [0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4];
        let (mut y, m, dd) = (d.year(), d.month() as usize, d.day() as i32);
        if m < 3 {
            y -= 1;
        }
        ((y + y / 4 - y / 100 + y / 400 + T[m - 1] + dd) % 7) as usize
    };
    let oracle_active = |t: u32, d: Date| -> bool {
        let dow = sakamoto_weekday(d);
        let in_year = d >= year.0 && d <= year.1;
        match t % 4 {
            0 => in_year && (1..=5).contains(&dow),
            1 => in_year && (dow == 0 || dow == 6),
            2 => d >= date(2026, 6, 1) && d <= date(2026, 8, 31) && d != holiday,
            _ => true,
        }
    };

    let days = [
        date(2026, 8, 8),   // Saturday, mid-summer
        date(2026, 8, 10),  // Monday
        holiday,            // Saturday removed from the summer service
        date(2025, 12, 29), // Monday before every range opens
    ];
    for day_date in days {
        let day = match tt.for_day(&cal, day_date) {
            Ok(d) => d,
            Err(e) => {
                record(&mut mismatches, format!("{name}: for_day({day_date}) failed: {e}"));
                continue;
            }
        };

        // Structural: equal to the independent filter + dense re-map.
        let mut remap = vec![u32::MAX; num_trains];
        let mut kept = 0u32;
        for t in 0..num_trains as u32 {
            if oracle_active(t, day_date) {
                remap[t as usize] = kept;
                kept += 1;
            }
        }
        let expected_conns: Vec<_> = tt
            .connections()
            .into_iter()
            .filter_map(|mut c| {
                let new = remap[c.train.idx()];
                (new != u32::MAX).then(|| {
                    c.train = TrainId(new);
                    c
                })
            })
            .collect();
        let expected = Timetable::new(tt.period(), tt.stations().to_vec(), expected_conns, kept)
            .expect("filtered subset of a valid timetable is valid");
        comparisons += 1;
        if day.timetable.num_trains() != kept as usize
            || day.timetable.connections() != expected.connections()
        {
            record(
                &mut mismatches,
                format!(
                    "{name}: for_day({day_date}) != independent filter \
                     ({} trains vs {kept}, {} conns vs {})",
                    day.timetable.num_trains(),
                    day.timetable.num_connections(),
                    expected.num_connections()
                ),
            );
            continue;
        }

        // Behavioural: profiles agree between the day network and the
        // rebuild, and time queries agree with the day profiles.
        let day_net = Network::build(&day.timetable);
        let ref_net = Network::build(&expected);
        for &s in sources {
            let from_day = ProfileEngine::new().one_to_all(&day_net, s);
            let from_ref = ProfileEngine::new().one_to_all(&ref_net, s);
            comparisons += 1;
            if from_day != from_ref {
                record(
                    &mut mismatches,
                    format!("{name}: day({day_date}) profiles != rebuilt filter from {s}"),
                );
            }
            for &dep in departures {
                let truth = time_query::earliest_arrivals(&day_net, s, dep);
                comparisons += 1;
                let disagrees = day_net.station_ids().any(|t| {
                    t != s // source-profile convention, see ProfileSet::profile
                        && truth.arrival_at(t) != from_day.profile(t).eval_arr(dep, tt.period())
                });
                if disagrees {
                    record(
                        &mut mismatches,
                        format!(
                            "{name}: day({day_date}) time query from {s} at {dep} \
                             != profile evaluation"
                        ),
                    );
                }
            }
        }
    }

    // An empty calendar must be a no-op: same trains, same answers.
    let empty_day = tt
        .for_day(&ServiceCalendar::new(), date(2026, 8, 8))
        .expect("empty calendar filters nothing");
    comparisons += 1;
    if empty_day.timetable.connections() != tt.connections() {
        record(&mut mismatches, format!("{name}: empty-calendar day dropped connections"));
    }
    let empty_net = Network::build(&empty_day.timetable);
    for &s in sources {
        comparisons += 1;
        if ProfileEngine::new().one_to_all(&empty_net, s) != ProfileEngine::new().one_to_all(net, s)
        {
            record(
                &mut mismatches,
                format!("{name}: empty-calendar day != original network from {s}"),
            );
        }
    }

    CheckOutcome {
        network: format!("{name}+calendar"),
        sources: sources.len(),
        comparisons,
        mismatches,
    }
}

/// Aggregate counters of one [`cross_check_after_feed`] run.
#[derive(Debug, Default, Clone, Copy)]
pub struct FeedCheckStats {
    /// Feed events applied (over all batches).
    pub events: usize,
    /// Routes rewritten in place (summed
    /// [`FeedSummary::repatched_routes`](pt_spcs::FeedSummary::repatched_routes)).
    pub repatched_routes: usize,
    /// Routes the re-splits appended (summed
    /// [`FeedSummary::refit_routes`](pt_spcs::FeedSummary::refit_routes)).
    pub appended_routes: usize,
    /// Distance-table rows recomputed by the refreshes (every row of the
    /// table per feed that changed the network).
    pub rows_refreshed: usize,
}

/// The *batched* dynamic scenario: drives `num_feeds` random feeds of
/// `events_per_feed` events each (delays, pile-ups on one train, and
/// cancellations) through [`Network::apply_feed`] on `net`, refreshing
/// `table` (built for `net`) after each, and checks after **every** feed
/// that
///
/// * the generation moved by exactly one iff the feed changed anything
///   (one cache invalidation per feed, however many events),
/// * the patched network is query-identical to a from-scratch rebuild of
///   its timetable (sampled sources),
/// * the refreshed [`DistanceTable`] matches a from-scratch build **entry
///   for entry** — every ordered pair of transfer stations,
///
/// and finally runs the whole static [`cross_check`] battery on the fed
/// network, its tabled queries through the refreshed table. Any
/// disagreement lands in the outcome's mismatch list. Returns the fed
/// network too, for batteries that check it further.
#[allow(clippy::too_many_arguments)]
pub fn cross_check_after_feed(
    name: &str,
    net: Network,
    mut table: DistanceTable,
    sources: &[StationId],
    threads: &[usize],
    departures: &[Time],
    num_feeds: usize,
    events_per_feed: usize,
    seed: u64,
) -> (CheckOutcome, FeedCheckStats, Network) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    let mut fed = net;
    let trains = fed.timetable().num_trains() as u32;
    let mut stats = FeedCheckStats::default();
    let mut mismatches = Vec::new();
    let mut comparisons = 0usize;

    for feed_no in 0..num_feeds {
        let events = crate::random_feed(&mut rng, trains, events_per_feed, 90);
        let gen_before = fed.generation();
        let summary = fed.apply_feed(&events);
        stats.events += events.len();
        stats.repatched_routes += summary.repatched_routes;
        stats.appended_routes += summary.refit_routes;

        comparisons += 1;
        let expected_bump = u64::from(summary.changed());
        if fed.generation() != gen_before + expected_bump {
            record(
                &mut mismatches,
                format!(
                    "{name}: feed {feed_no} of {} events bumped the generation {} times",
                    events.len(),
                    fed.generation() - gen_before
                ),
            );
        }

        // Query-identical to a from-scratch rebuild, from every sampled
        // source.
        let rebuilt_net = Network::build(fed.timetable());
        for &s in sources {
            comparisons += 1;
            if ProfileEngine::new().one_to_all(&fed, s)
                != ProfileEngine::new().one_to_all(&rebuilt_net, s)
            {
                record(
                    &mut mismatches,
                    format!("{name}: fed network != rebuilt network from {s} (feed {feed_no})"),
                );
            }
        }

        // Table refresh vs from-scratch build, entry for entry.
        match table.refresh(&fed) {
            Err(e) => record(&mut mismatches, format!("{name}: refresh failed: {e}")),
            Ok(rows) => {
                stats.rows_refreshed += rows;
                let scratch = DistanceTable::build_for(&fed, table.stations().to_vec());
                for &a in table.stations() {
                    for &b in table.stations() {
                        comparisons += 1;
                        if table.profile(a, b) != scratch.profile(a, b) {
                            record(
                                &mut mismatches,
                                format!(
                                    "{name}: refreshed table D({a}, {b}) != rebuilt \
                                     (feed {feed_no})"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    // The full static battery on the fed network and its refreshed table.
    let inner = cross_check(&format!("{name}+feed"), &fed, &table, sources, threads, departures);
    comparisons += inner.comparisons;
    mismatches.extend(inner.mismatches);
    mismatches.truncate(MAX_REPORTED);
    let outcome = CheckOutcome {
        network: format!("{name}+feed"),
        sources: sources.len(),
        comparisons,
        mismatches,
    };
    (outcome, stats, fed)
}
